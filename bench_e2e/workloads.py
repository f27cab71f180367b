"""Workload definitions and seeded request generators.

Everything here is a pure function of ``(spec, seed, timetable facts)``: the
program under test never sees the seed, only the generated requests, and
the SHA-256 of each request list is recorded in the output so two runs can
prove they measured the same inputs.

Requests are plain tuples whose first element is the family:

* ``("ea", s, g, t)`` / ``("ld", s, g, t')`` / ``("sd", s, g, t, t')``
* ``("knn", s, t, k)`` / ``("otm", s, t)`` (EA variants on the fixture's tag)
* ``("build", (target, ...))`` (one ``build_target_set`` call)

Paper protocol (§4): uniform random vertices; departure timestamps from the
first quartile of the timetable's time range, arrival bounds from the fourth.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace

#: Families a routed request list cycles through: 60 % v2v, 20 % kNN, 20 % OTM.
ROUTED_PATTERN = ("v2v", "v2v", "knn", "v2v", "otm")
V2V_KINDS = ("ea", "ld", "sd")
TARGET_DENSITY = 0.1
KNN_K = 4
BUILD_KMAX = 4
BUILD_FAMILIES = ("knn_ea", "otm_ld")
ROUTED_FAMILIES = ("knn_ea", "otm_ea")


@dataclass(frozen=True)
class Spec:
    """Load parameters of one workload — and nothing but load parameters:
    every executor/storage/tracing knob of the program stays at its default."""

    name: str
    why: str
    dataset: str
    scale: str
    device: str = "ram"
    pool_pages: int | None = None  # None = the product default
    pass_ops: int = 300  # requests per timed pass
    clients: int = 1
    cold: bool = False  # restart() at the start of every pass
    kind: str = "v2v"  # "v2v" | "routed" | "build"
    shards: int = 0
    build_targets: int = 0  # targets per build op


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec(
            name="v2v_hot",
            why="Madrid paper labels are the longest and the pool holds them all: "
            "the UNNEST + hub join + aggregate in minidb.sql does the work, "
            "buffer, disk and serving do none.",
            dataset="Madrid",
            scale="paper",
            pass_ops=300,
        ),
        Spec(
            name="v2v_cold",
            why="Short labels, hdd device, pool of 1/7 of the label heap, cold "
            "start every pass: buffer, B+Tree, heap decode and per-statement "
            "fixed cost dominate; carries the paper's page-read claim.",
            dataset="Salt Lake City",
            scale="paper",
            device="hdd",
            pool_pages=20,
            pass_ops=750,
            cold=True,
        ),
        Spec(
            name="routed_mix",
            why="2 shards behind the Router, 2 client threads, 60/20/20 v2v/kNN/OTM "
            "with all-distinct parameters so the result cache never hits: "
            "router, JSON pipe frames and worker loop carry v2v.",
            dataset="Salt Lake City",
            scale="paper",
            pass_ops=250,
            clients=2,
            kind="routed",
            shards=2,
        ),
        Spec(
            name="target_set_build",
            why="build_target_set on a file-backed WAL database: INSERT..SELECT with "
            "ROW_NUMBER/ARRAY_AGG, heap and B+Tree inserts, WAL commit, then "
            "crash + reopen; shows a read-path gain that taxes writes.",
            dataset="Salt Lake City",
            scale="paper",
            pass_ops=2,
            kind="build",
            build_targets=5,
        ),
    )
}


def quick(spec: Spec) -> Spec:
    """The ``--quick`` variant: same code paths on the smallest dataset."""
    return replace(
        spec,
        dataset="Austin",
        scale="small",
        pool_pages=8 if spec.pool_pages is not None else None,
        pass_ops=max(2, spec.pass_ops // 3),  # v2v_cold keeps the 200 a p95 needs
        build_targets=min(spec.build_targets, 2),
    )


# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Facts:
    """What a generator may know about the dataset: sizes, not answers."""

    num_stops: int
    time_low: int
    time_high: int


def _quartiles(facts: Facts) -> tuple[tuple[int, int], tuple[int, int]]:
    span = facts.time_high - facts.time_low
    first = (facts.time_low, facts.time_low + span // 4)
    fourth = (facts.time_low + 3 * span // 4, facts.time_high)
    return first, fourth


def _v2v(rng: random.Random, facts: Facts, kind: str) -> tuple:
    first, fourth = _quartiles(facts)
    source = rng.randrange(facts.num_stops)
    goal = rng.randrange(facts.num_stops - 1)
    if goal >= source:
        goal += 1  # uniform over goals != source (self-queries differ by design)
    depart_at = rng.randint(*first)
    arrive_by = rng.randint(*fourth)
    if kind == "ea":
        return ("ea", source, goal, depart_at)
    if kind == "ld":
        return ("ld", source, goal, arrive_by)
    return ("sd", source, goal, depart_at, arrive_by)


def v2v_requests(rng: random.Random, facts: Facts, n: int) -> list[tuple]:
    """EA/LD/SD round-robin over uniform random pairs."""
    return [_v2v(rng, facts, V2V_KINDS[i % 3]) for i in range(n)]


def routed_requests(
    rng: random.Random, facts: Facts, targets, n: int
) -> list[tuple]:
    """*n* pairwise-distinct requests in the 60/20/20 mix — cut into passes
    by the caller, so the router's result cache can never hit while timed.
    kNN/OTM sources avoid the targets (a target asking for itself answers
    with SQL self-query semantics the CSA oracle does not model)."""
    first, _ = _quartiles(facts)
    sources = [v for v in range(facts.num_stops) if v not in set(targets)]
    seen: set = set()
    out = []
    v2v_count = 0
    while len(out) < n:
        family = ROUTED_PATTERN[len(out) % len(ROUTED_PATTERN)]
        if family == "v2v":
            request = _v2v(rng, facts, V2V_KINDS[v2v_count % 3])
        elif family == "knn":
            request = ("knn", rng.choice(sources), rng.randint(*first), KNN_K)
        else:
            request = ("otm", rng.choice(sources), rng.randint(*first))
        if request in seen:
            continue
        seen.add(request)
        out.append(request)
        if family == "v2v":
            v2v_count += 1
    return out


def random_targets(rng: random.Random, facts: Facts, count: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(facts.num_stops), count)))


def disjoint_target_sets(
    rng: random.Random, facts: Facts, count: int, n: int
) -> list[tuple[int, ...]]:
    """*n* uniform random target sets of *count* stops, cut from shuffles of
    all stops: consecutive sets are disjoint until every stop has been a
    target once. What a build costs depends on its targets (0.6x to 1.3x of
    the mean for five of them), so a run that draws without replacement from
    most of the network has nearly the same mean cost on every seed."""
    sets: list[tuple[int, ...]] = []
    while len(sets) < n:
        stops = list(range(facts.num_stops))
        rng.shuffle(stops)
        sets.extend(
            tuple(sorted(stops[i : i + count]))
            for i in range(0, len(stops) - count + 1, count)
        )
    return sets[:n]


@dataclass(frozen=True)
class Inputs:
    """Everything one run feeds the program, fixed by ``(spec, seed)``."""

    targets: tuple[int, ...]  # routed target set (empty otherwise)
    warmup: list[tuple]
    #: Timed passes. One list replayed every pass, except ``routed`` and
    #: ``build`` where every pass is a fresh slice (pass i = ``passes[i]``):
    #: no routed parameter tuple ever repeats, and builds walk through
    #: disjoint target sets.
    passes: list[list[tuple]]
    #: Per build request (warm-up first, then the passes in order), the read
    #: queries that verify the built tables.
    checks: list[list[tuple]]
    digest: str


#: Routed passes generated per fixture, up front so the digest covers them
#: all. A fixture's share of a run uses about 7; the scenario stops at half.
ROUTED_MAX_PASSES = 40
#: Build passes generated per run: the run's fixtures share them (fixture i of
#: n takes passes i, i+n, ...), so no target set is built twice in a run.
BUILD_MAX_PASSES = 60


def make_inputs(spec: Spec, seed: int, facts: Facts) -> Inputs:
    rng = random.Random(f"{spec.name}:{seed}")
    targets: tuple[int, ...] = ()
    checks: list[list[tuple]] = []
    if spec.kind == "routed":
        # The paper's density parameter D: D x |V| random target stops.
        targets = random_targets(
            rng, facts, max(2, round(TARGET_DENSITY * facts.num_stops))
        )
        stream = routed_requests(
            rng, facts, targets, spec.pass_ops * (ROUTED_MAX_PASSES + 1)
        )
        warmup = stream[: spec.pass_ops]
        passes = [
            stream[i : i + spec.pass_ops]
            for i in range(spec.pass_ops, len(stream), spec.pass_ops)
        ]
    elif spec.kind == "build":
        first, fourth = _quartiles(facts)
        requests = [
            ("build", chosen)
            for chosen in disjoint_target_sets(
                rng, facts, spec.build_targets,
                spec.pass_ops * (BUILD_MAX_PASSES + 1),
            )
        ]
        for _, chosen in requests:
            sources = [v for v in range(facts.num_stops) if v not in chosen]
            checks.append(
                [
                    ("knn", rng.choice(sources), rng.randint(*first), KNN_K),
                    ("otm_ld", rng.choice(sources), rng.randint(*fourth)),
                ]
            )
        warmup = requests[: spec.pass_ops]
        passes = [
            requests[i : i + spec.pass_ops]
            for i in range(spec.pass_ops, len(requests), spec.pass_ops)
        ]
    else:
        requests = v2v_requests(rng, facts, spec.pass_ops)
        warmup, passes = requests, [requests]
    return Inputs(
        targets=targets,
        warmup=warmup,
        passes=passes,
        checks=checks,
        digest=digest([list(targets), warmup, passes, checks]),
    )


def digest(requests) -> str:
    """SHA-256 over the canonical JSON of a request list."""
    payload = json.dumps(requests, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
