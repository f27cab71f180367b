"""``EXPLAIN`` text of every shipped statement, pinned byte for byte.

The golden file holds the static plan of each statement of
``sqltext.corpus()`` (Codes 1-4 plus the analytics family), of every
``INSERT … SELECT`` that ``build_target_set`` issues, and of six ORDER BY
shapes over the label tables (where the sort key comes from and what sits
under the ``Sort``). A planner refactor
that moves one of these plans — a join flips sides, a band join falls back
to the pair kernel, a filter stops being pushed into a scan — fails here
before any benchmark has to notice.

Regenerate (only for an intended plan change, and say so in the PR):
``PYTHONPATH=src python -m tests.ptldb.test_explain_golden``.
"""

from pathlib import Path

from repro.labeling.ttl import build_labels
from repro.ptldb import sqltext
from repro.ptldb.framework import PTLDB
from repro.timetable.generator import random_timetable

GOLDEN = Path(__file__).with_name("explain_golden.txt")
FAMILIES = ("knn_ea", "knn_ld", "otm_ea", "otm_ld", "naive_ea", "naive_ld")
#: ORDER BY shapes: a sort key outside the select list over each producer,
#: Top-K with OFFSET, and DISTINCT ordered by its own column.
ORDER_BY_SHAPES = [
    ("order hidden key over Project", "SELECT v FROM lout ORDER BY -v"),
    (
        "order hidden key over GroupAggregate",
        "SELECT v FROM lout GROUP BY v ORDER BY COUNT(*) DESC, v",
    ),
    (
        "order hidden key over ProjectSet",
        "SELECT UNNEST(hubs) AS hub FROM lout ORDER BY v DESC, hub",
    ),
    (
        "order hidden key over Union",
        "SELECT v FROM lout UNION ALL SELECT v FROM lin ORDER BY -v",
    ),
    ("order Top-K with OFFSET", "SELECT v FROM lout ORDER BY v DESC LIMIT 3 OFFSET 2"),
    ("order DISTINCT by its column", "SELECT DISTINCT v FROM lin ORDER BY v"),
]


def render_golden() -> str:
    timetable = random_timetable(18, 160, seed=11)
    labels, _ = build_labels(timetable, add_dummies=True)
    ptldb = PTLDB.from_timetable(timetable, labels=labels)
    db = ptldb.db
    real = db.execute
    statements = []

    def recording(sql, params=()):
        words = sql.split()
        if words[:2] == ["INSERT", "INTO"] and "SELECT" in words:
            statements.append((f"build {words[2]}", sql))
        return real(sql, params)

    db.execute = recording
    try:
        ptldb.build_target_set(
            sqltext.CORPUS_TAG, targets={1, 4, 9, 13, 16}, kmax=4,
            families=FAMILIES,
        )
    finally:
        del db.execute
    statements = [(q.name, q.sql) for q in sqltext.corpus()] + statements
    statements += ORDER_BY_SHAPES
    out = []
    for name, sql in statements:
        out.append(f"-- {name}")
        out.extend(db.prepare(sql).explain())
        out.append("")
    db.close()
    return "\n".join(out)


def test_explain_text_matches_golden():
    assert render_golden() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render_golden(), encoding="utf-8")
