"""The value every statement returns."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SQLError


@dataclass
class Result:
    """Statement result returned to the caller."""

    columns: list[str]
    rows: list[tuple]
    trace: object = field(default=None, compare=False)

    def scalar(self):
        """Single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SQLError(
                f"scalar() on a {len(self.rows)}x{len(self.columns)} result"
            )
        return self.rows[0][0]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


#: Sentinel for ``next(gen, _DONE)``: distinguishes exhaustion from any row.
_DONE = object()
