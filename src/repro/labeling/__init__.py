"""Timetable Labeling (TTL): construction, in-memory queries, persistence."""

from repro.labeling.io import (
    load_labels,
    load_or_build,
    save_labels,
    timetable_digest,
)
from repro.labeling.labels import LabelTuple, TTLLabels
from repro.labeling.ordering import ORDERINGS, make_order
from repro.labeling.query import (
    TTLQueryEngine,
    journey_is_feasible,
    reconstruct_journey,
)
from repro.labeling.scan import ConnectionColumns, profile_scan
from repro.labeling.ttl import BuildReport, build_labels, preprocess

__all__ = [
    "LabelTuple",
    "TTLLabels",
    "ORDERINGS",
    "make_order",
    "TTLQueryEngine",
    "journey_is_feasible",
    "reconstruct_journey",
    "BuildReport",
    "ConnectionColumns",
    "build_labels",
    "profile_scan",
    "preprocess",
    "save_labels",
    "load_labels",
    "load_or_build",
    "timetable_digest",
]
