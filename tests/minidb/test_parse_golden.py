"""Token streams, parse trees and syntax errors of every shipped text,
pinned byte for byte.

The golden file holds, for each statement of ``sqltext.corpus()``, of
``sqltext.build_corpus()`` and of the DDL / ``INSERT … VALUES`` texts that
``repro.ptldb.aux`` emits for a target set:

* the token stream (kind, value, pos, end, line, col);
* the parse tree, every node with its ``span``;
* the exact error of parsing each prefix of the text that ends at a token
  boundary (the empty prefix included): what a truncated statement reports.

A front-end rewrite (lexer, parser, expression grammar) that moves one
token, one span or one error message fails here.

Regenerate (only for an intended change to the front end, and say so):
``PYTHONPATH=src python -m tests.minidb.test_parse_golden``.
"""

from dataclasses import fields, is_dataclass
from pathlib import Path

from repro.minidb.sql.lexer import tokenize
from repro.minidb.sql.parser import parse
from repro.ptldb import aux, sqltext

GOLDEN = Path(__file__).with_name("parse_golden.txt")


class _Recorder:
    """Stands in for a ``Database``: keeps the texts it is asked to run."""

    def __init__(self):
        self.texts = []

    def execute(self, sql, params=()):
        self.texts.append(sql)


def aux_texts() -> list[tuple[str, str]]:
    """What ``aux`` runs for one target set of every family, in order."""
    rec = _Recorder()
    aux.create_targets_table(rec, "g", {1, 4, 9, 13, 16})
    aux.create_hours_table(rec, "g", 5, 9)
    tables = aux.AuxTables("g", "tgt_g", "hours_g", 4, 3600, 5, 9)
    for build in (
        aux.build_knn_ea, aux.build_knn_ld, aux.build_otm_ea,
        aux.build_otm_ld, aux.build_naive_ea, aux.build_naive_ld,
    ):
        build(rec, tables)
    # The INSERT … SELECT texts are build_corpus()'s, up to names.
    return [
        (f"aux {i}", sql)
        for i, sql in enumerate(rec.texts)
        if "SELECT" not in sql
    ]


def statements() -> list[tuple[str, str]]:
    return (
        [(q.name, q.sql) for q in sqltext.corpus()]
        + [(q.name, q.sql) for q in sqltext.build_corpus()]
        + aux_texts()
    )


def show(node, indent: str = "") -> list[str]:
    """*node* one AST node a line: its plain fields and span, then one
    indented block per field that holds nodes."""
    if is_dataclass(node):
        head, blocks = [type(node).__name__], []
        for f in fields(node):
            value = getattr(node, f.name)
            if f.name == "span":
                continue
            if is_dataclass(value) or (
                isinstance(value, tuple) and not all(map(_plain, value))
            ):
                blocks.append(f"{indent}  {f.name}:")
                blocks.extend(show(value, indent + "    "))
            else:
                head.append(f"{f.name}={value!r}")
        return [f"{indent}{' '.join(head)} span={node.span}"] + blocks
    if isinstance(node, tuple):
        if not node:
            return [f"{indent}()"]
        out = []
        for part in node:
            lines = show(part, indent + "  ")
            out.append(f"{indent}- {lines[0].lstrip()}")
            out.extend(lines[1:])
        return out
    return [f"{indent}{node!r}"]


def _plain(value) -> bool:
    return not is_dataclass(value) and not isinstance(value, tuple)


def outcome(sql: str) -> str:
    try:
        parse(sql)
    except Exception as exc:  # the golden pins the type too
        return f"{type(exc).__name__}: {str(exc)!r}"
    return "ok"


def render_golden() -> str:
    out = []
    for name, sql in statements():
        tokens = tokenize(sql)
        out.append(f"== {name}")
        out.append(repr(sql))
        out.append("-- tokens")
        out.extend(
            f"{t.kind} {t.value!r} {t.pos} {t.end} {t.line}:{t.col}"
            for t in tokens
        )
        out.append("-- tree")
        out.extend(show(parse(sql)))
        out.append("-- prefixes")
        for end in [0] + [t.end for t in tokens[:-1]]:
            out.append(f"{end} {outcome(sql[:end])}")
        out.append("")
    return "\n".join(out)


def test_front_end_matches_golden():
    assert render_golden() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render_golden(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
