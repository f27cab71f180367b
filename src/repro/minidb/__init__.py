"""minidb — the embedded relational engine standing in for PostgreSQL.

Public surface: :class:`Database` (execute SQL, inspect costs), the device
models (:func:`hdd_model`, :func:`ssd_model`, :func:`ram_model`) and the
schema primitives used to define tables programmatically.
"""

from repro.minidb.catalog import TableSchema
from repro.minidb.disk import DeviceModel, hdd_model, ram_model, ssd_model
from repro.minidb.engine import Database, QueryCost
from repro.minidb.metrics import (
    REGISTRY,
    Counter,
    Histogram,
    MetricsRegistry,
    OperatorStats,
    QueryTrace,
    TraceCollector,
)
from repro.minidb.sql.result import Result
from repro.minidb.values import Column

__all__ = [
    "Column",
    "Counter",
    "Database",
    "DeviceModel",
    "Histogram",
    "MetricsRegistry",
    "OperatorStats",
    "QueryCost",
    "QueryTrace",
    "REGISTRY",
    "Result",
    "TableSchema",
    "TraceCollector",
    "hdd_model",
    "ram_model",
    "ssd_model",
]
