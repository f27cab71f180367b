"""Answer checking, outside every timed section.

Two independent oracles: ``TTLQueryEngine`` (in-memory label join) gives the
expected answer of *every* request; the Connection Scan Algorithm, which
never sees a label, re-derives the first :data:`CSA_CHECKS` of them from the
raw timetable. A mismatch anywhere — program vs TTL, TTL vs CSA, a typed
error, a ``BackpressureError`` — is a failed operation.
"""

from __future__ import annotations

import itertools
import time

from repro.baselines import csa
from repro.labeling import TTLQueryEngine

CSA_CHECKS = 50


def normalize(answer):
    """One comparable shape for what PTLDB, the Router and the oracles
    return: pairs as tuples, mapping keys as ints."""
    if isinstance(answer, dict):
        return {int(v): int(value) for v, value in answer.items()}
    if isinstance(answer, list):
        return [(int(v), int(value)) for v, value in answer]
    return answer


class Oracle:
    def __init__(self, timetable, labels):
        self.timetable = timetable
        self.engine = TTLQueryEngine(labels)
        self._reverse = None

    def expected(self, request: tuple, targets=()):
        """The TTL answer of *request* (``targets`` for kNN/OTM families)."""
        family, *args = request
        engine = self.engine
        if family == "ea":
            return engine.earliest_arrival(*args)
        if family == "ld":
            return engine.latest_departure(*args)
        if family == "sd":
            return engine.shortest_duration(*args)
        if family == "knn":
            source, depart_at, k = args
            return engine.ea_knn(source, targets, depart_at, k)
        if family == "otm":
            return engine.ea_one_to_many(args[0], targets, args[1])
        if family == "otm_ld":
            return engine.ld_one_to_many(args[0], targets, args[1])
        raise ValueError(f"no oracle for family {family!r}")

    def expected_all(self, requests, targets=()) -> tuple[list, list[float]]:
        """Expected answers plus the seconds each in-memory join took —
        the latter is ``labeling.mem_join_us``, the floor under the database."""
        answers, seconds = [], []
        for request in requests:
            started = time.perf_counter()
            answer = self.expected(request, targets)
            seconds.append(time.perf_counter() - started)
            answers.append(normalize(answer))
        return answers, seconds

    # -- CSA ---------------------------------------------------------------
    def _ld_all(self, goal: int, arrive_by: int) -> list:
        """``csa.latest_departure_all`` on a reversed timetable built once
        (the library call rebuilds it per query: 90 ms at Madrid scale)."""
        if self._reverse is None:
            self._reverse = self.timetable.reverse()
        return [
            -value
            for value in csa.earliest_arrival_all(self._reverse, goal, -arrive_by)
        ]

    def csa(self, request: tuple, targets=()):
        family, *args = request
        tt = self.timetable
        if family == "ea":
            return csa.earliest_arrival(tt, *args)
        if family == "ld":
            source, goal, arrive_by = args
            value = self._ld_all(goal, arrive_by)[source]
            return None if value == -csa.INF else int(value)
        if family == "sd":
            return csa.shortest_duration(tt, *args)
        if family in ("knn", "otm"):
            arrivals = csa.earliest_arrival_all(tt, args[0], args[1])
            reached = {v: int(arrivals[v]) for v in targets if arrivals[v] != csa.INF}
            if family == "otm":
                return reached
            ranked = sorted(reached.items(), key=lambda item: (item[1], item[0]))
            return ranked[: args[2]]
        if family == "otm_ld":
            source, arrive_by = args
            out = {}
            for target in targets:
                value = self._ld_all(target, arrive_by)[source]
                if value != -csa.INF:
                    out[target] = int(value)
            return out
        raise ValueError(f"no CSA oracle for family {family!r}")

    def spot_check(self, checks) -> int:
        """How many of the first :data:`CSA_CHECKS` ``(request, TTL answer,
        targets)`` triples CSA refutes."""
        return sum(
            normalize(self.csa(request, targets)) != answer
            for request, answer, targets in itertools.islice(checks, CSA_CHECKS)
        )


def count_failures(answers, expected) -> int:
    """Operations whose outcome is not the expected answer (errors included:
    an exception object never equals an answer)."""
    return sum(
        isinstance(got, Exception) or normalize(got) != want
        for got, want in zip(answers, expected)
    )
