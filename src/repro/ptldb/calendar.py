"""Service-period support.

Paper §3.1: "In case of timetables changing depending on the weekday (e.g.,
weekdays vs weekends) or the time of the year (e.g., on holidays) in PTLDB
we would need to have different versions of the lout and lin DB tables, for
servicing each different period."

:class:`MultiPeriodPTLDB` implements exactly that: one label-table version
per service period, a weekday->period routing table, and the same query API
with a date/weekday argument. Each period is an independent PTLDB instance
(separate table versions), preprocessed from its own timetable.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from repro.errors import DatabaseError
from repro.ptldb.framework import PTLDB
from repro.timetable.model import Timetable

WEEKDAY_NAMES = [
    "monday", "tuesday", "wednesday", "thursday", "friday",
    "saturday", "sunday",
]


@dataclass(frozen=True)
class ServicePeriod:
    """A named period and the weekdays (0 = Monday .. 6 = Sunday) it serves."""

    name: str
    weekdays: frozenset[int]

    def __post_init__(self) -> None:
        if not self.weekdays:
            raise DatabaseError(f"period {self.name!r} serves no weekdays")
        for day in self.weekdays:
            if not 0 <= day <= 6:
                raise DatabaseError(f"bad weekday {day} in period {self.name!r}")


def weekday_weekend_periods() -> tuple[ServicePeriod, ServicePeriod]:
    """The paper's example split."""
    return (
        ServicePeriod("weekday", frozenset(range(5))),
        ServicePeriod("weekend", frozenset({5, 6})),
    )


class MultiPeriodPTLDB:
    """Routes queries to the label-table version of the right service day."""

    def __init__(self, device: str = "ram"):
        self._device = device
        self._periods: dict[str, ServicePeriod] = {}
        self._instances: dict[str, PTLDB] = {}
        self._by_weekday: dict[int, str] = {}

    def add_period(
        self,
        period: ServicePeriod,
        timetable: Timetable,
        labels=None,
    ) -> PTLDB:
        """Register a period with its timetable (preprocessed on the spot
        unless *labels* are supplied)."""
        if period.name in self._periods:
            raise DatabaseError(f"period {period.name!r} already registered")
        for day in period.weekdays:
            if day in self._by_weekday:
                raise DatabaseError(
                    f"weekday {WEEKDAY_NAMES[day]} already covered by "
                    f"period {self._by_weekday[day]!r}"
                )
        instance = PTLDB.from_timetable(
            timetable, device=self._device, labels=labels
        )
        self._periods[period.name] = period
        self._instances[period.name] = instance
        for day in period.weekdays:
            self._by_weekday[day] = period.name
        return instance

    # ------------------------------------------------------------------
    def instance_for(self, when) -> PTLDB:
        """The PTLDB serving *when* (a date, a weekday int, or a name)."""
        if isinstance(when, str):
            if when in self._instances:
                return self._instances[when]
            if when.lower() in WEEKDAY_NAMES:
                return self.instance_for(WEEKDAY_NAMES.index(when.lower()))
            raise DatabaseError(f"unknown period or weekday {when!r}")
        if isinstance(when, datetime.date):
            when = when.weekday()
        if isinstance(when, int):
            name = self._by_weekday.get(when)
            if name is None:
                raise DatabaseError(
                    f"no service period covers {WEEKDAY_NAMES[when]}"
                )
            return self._instances[name]
        raise DatabaseError(f"cannot route service day {when!r}")

    # ------------------------------------------------------------------
    def earliest_arrival(self, when, source: int, goal: int, depart_at: int):
        """EA on the service day *when* (date, weekday index, or name)."""
        return self.instance_for(when).earliest_arrival(source, goal, depart_at)

    def latest_departure(self, when, source: int, goal: int, arrive_by: int):
        return self.instance_for(when).latest_departure(source, goal, arrive_by)

    def shortest_duration(
        self, when, source: int, goal: int, depart_at: int, arrive_by: int
    ):
        return self.instance_for(when).shortest_duration(
            source, goal, depart_at, arrive_by
        )

    def storage_report(self) -> dict:
        """Aggregate footprint over all period versions (the §4.3 metric
        counts 'all DB tables ... for all available values', i.e. every
        version together)."""
        return {
            name: instance.storage_report()
            for name, instance in self._instances.items()
        }
