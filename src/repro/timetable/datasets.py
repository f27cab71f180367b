"""The eleven evaluation datasets (paper Table 7), scaled for pure Python.

The paper benchmarks eleven GTFS feeds (Austin ... Toronto). Offline we
synthesize cities whose *relative* shape mirrors Table 7 — the ranking of
|V|, average degree, and (through degree) the per-vertex label count
|HL|/|V|, which is what drives every performance figure: Madrid (highest
degree, highest |HL|/|V|) must remain the hardest instance, Salt Lake City
the lightest, Sweden the largest |V|.

Three scales are provided:

* ``small`` (default) — ~1/100 of the paper's |V| and ~1/6 of its degree;
  TTL preprocessing for all 11 cities completes in minutes on a laptop.
* ``paper`` — ~1/20 of |V|, ~1/3 of degree; closer to the original ratios
  but slower to preprocess.
* ``table7`` — the paper's *actual* Table 7 row (|V| and degree taken
  verbatim), available for the cities in ``TABLE7_SCALE_NAMES``. These are
  full-size instances (~10⁴ stops, 10⁵–10⁶ connections) meant for
  ``repro preprocess --cache-dir DIR --workers N`` — the scan kernels are
  the default build; ``--workers`` adds overlap on multi-core hosts
  (1.10–1.58x measured on 2 cores, docs/PREPROCESSING.md) — not for
  casual test runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TimetableError
from repro.timetable.generator import CityConfig, config_for_degree, generate_city
from repro.timetable.model import Timetable


@dataclass(frozen=True)
class PaperDataset:
    """One row of the paper's Table 7 (original numbers, for reference)."""

    name: str
    stops: int  # |V| in the paper (thousands are written out)
    connections: int  # |E| in the paper
    avg_degree: int
    labels_per_vertex: int  # |HL|/|V|
    preprocessing_s: float  # TTL preprocessing time reported by the paper


# The original Table 7, used by EXPERIMENTS.md comparisons and the bench
# report headers.
PAPER_TABLE7: list[PaperDataset] = [
    PaperDataset("Austin", 2_000, 317_000, 119, 1_600, 11.3),
    PaperDataset("Berlin", 12_000, 2_081_000, 153, 1_734, 184.7),
    PaperDataset("Budapest", 5_000, 1_446_000, 252, 2_486, 54.4),
    PaperDataset("Denver", 10_000, 711_000, 75, 1_190, 27.3),
    PaperDataset("Houston", 10_000, 1_113_000, 113, 2_196, 72.6),
    PaperDataset("Los Angeles", 15_000, 1_928_000, 127, 2_572, 194.5),
    PaperDataset("Madrid", 4_000, 1_913_000, 413, 7_230, 338.5),
    PaperDataset("Roma", 9_000, 2_281_000, 258, 4_370, 353.6),
    PaperDataset("Salt Lake City", 6_000, 330_000, 53, 630, 4.5),
    PaperDataset("Sweden", 51_000, 4_072_000, 76, 775, 179.1),
    PaperDataset("Toronto", 10_000, 3_300_000, 305, 2_987, 262.1),
]

# name -> (stops_small, degree_small, stops_paper, degree_paper)
_SCALED = {
    "Austin": (30, 20, 100, 40),
    "Berlin": (110, 26, 480, 51),
    "Budapest": (55, 42, 200, 84),
    "Denver": (90, 13, 400, 25),
    "Houston": (90, 19, 400, 38),
    "Los Angeles": (130, 21, 600, 42),
    "Madrid": (50, 69, 160, 138),
    "Roma": (95, 43, 360, 86),
    "Salt Lake City": (60, 9, 240, 18),
    "Sweden": (380, 13, 2040, 25),
    "Toronto": (95, 51, 400, 102),
}

# Cities generated at the paper's verbatim Table 7 size (|V|, degree read
# straight off PAPER_TABLE7). Denver is the canonical ~10^4-stop instance;
# Madrid is the densest (1.65M connections from 4k stops).
TABLE7_SCALE_NAMES = ["Denver", "Madrid"]

DATASET_NAMES = [d.name for d in PAPER_TABLE7]

SCALE_NAMES = ["small", "paper", "table7"]


def dataset_config(name: str, scale: str = "small", seed: int | None = None) -> CityConfig:
    """The generator configuration for one named dataset."""
    if name not in _SCALED:
        raise TimetableError(
            f"unknown dataset {name!r}; choose from {DATASET_NAMES}"
        )
    small_stops, small_degree, paper_stops, paper_degree = _SCALED[name]
    if scale == "small":
        stops, degree = small_stops, small_degree
    elif scale == "paper":
        stops, degree = paper_stops, paper_degree
    elif scale == "table7":
        if name not in TABLE7_SCALE_NAMES:
            raise TimetableError(
                f"no table7-scale profile for {name!r}; "
                f"choose from {TABLE7_SCALE_NAMES}"
            )
        row = paper_row(name)
        stops, degree = row.stops, row.avg_degree
    else:
        raise TimetableError(
            f"unknown scale {scale!r} (use one of {SCALE_NAMES})"
        )
    if seed is None:
        seed = 1 + DATASET_NAMES.index(name)
    hub_count = max(2, stops // 25)
    return config_for_degree(
        name, num_stops=stops, target_degree=degree, hub_count=hub_count, seed=seed
    )


def load_dataset(name: str, scale: str = "small", seed: int | None = None) -> Timetable:
    """Generate the named dataset's timetable."""
    return generate_city(dataset_config(name, scale=scale, seed=seed))


def paper_row(name: str) -> PaperDataset:
    for row in PAPER_TABLE7:
        if row.name == name:
            return row
    raise TimetableError(f"unknown dataset {name!r}")
