#!/usr/bin/env python
"""Docs lint: every code symbol the docs mention must exist in the code.

Scans ``docs/*.md`` (plus README.md) for inline-code spans that look like
Python symbols — ``CamelCase`` names, ``snake_case`` names, ``ALL_CAPS``
constants and dotted paths like ``repro.bench.runner`` — and
fails if any component never appears as an identifier anywhere under
``src/``. Spans that look like repo file paths are checked for existence
instead. Plain English words, CLI flags, SQL fragments and fenced code
blocks are ignored: the goal is catching docs that drift from the code
(a renamed class, a deleted knob, a module that moved), not spell-checking
prose.

Usage::

    python scripts/docs_lint.py            # lint the repo it lives in
    python scripts/docs_lint.py --verbose  # also count what was checked
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Inline code spans (single backticks; fenced blocks are stripped first).
_SPAN = re.compile(r"`([^`\n]+)`")
_FENCE = re.compile(r"^(```|~~~).*?^\1\s*$", re.MULTILINE | re.DOTALL)
#: A symbol-ish span: dotted identifier chain, optional trailing ``()``.
_SYMBOL = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z0-9_]+)*(\(\))?$")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: File extensions we resolve against the repo tree instead of src idents.
_PATH_EXT = (".md", ".py", ".json", ".yml", ".yaml", ".txt", ".toml", ".ttl")


def _looks_like_symbol(token: str) -> bool:
    """Only tokens that *look like code* are worth checking — a plain
    lowercase word (`hub`, `hypothesis`) is prose, not a reference."""
    if not _SYMBOL.match(token):
        return False
    bare = token[:-2] if token.endswith("()") else token
    if "." in bare:
        return True
    return (
        "_" in bare
        or bare.isupper()
        or (bare[0].isupper() and not bare.isupper() and bare.isalpha())
    )


def _is_pathlike(token: str) -> bool:
    if "/" in token:
        last = token.rstrip("/").rsplit("/", 1)[-1]
        return "." in last
    return token.endswith(_PATH_EXT)


#: Directories whose python files define the known-identifier universe.
_CODE_DIRS = ("src", "tests", "bench_e2e", "scripts", "examples")


def collect_src_identifiers(root: Path) -> set[str]:
    """Every identifier token in the repo's python code (docstrings and
    comments included), plus module names derivable from the file tree.
    src/ is the primary universe; tests/bench_e2e/scripts/examples
    are included so docs may cite harness-level names (fixtures, benchmark
    metrics) without tripping the lint."""
    idents: set[str] = set()
    for sub in _CODE_DIRS:
        base = root / sub
        if not base.is_dir():
            continue
        for path in base.rglob("*.py"):
            idents.update(_IDENT.findall(path.read_text(encoding="utf-8")))
            idents.update(path.relative_to(base).parts)
            idents.add(path.stem)
    return idents


def _path_exists(root: Path, token: str, idents: set[str]) -> bool:
    """Resolve a path-looking span: exact path, glob, bare module basename
    anywhere in the tree, or a generated artifact named in the code."""
    target = token.rstrip("/").split(" ")[0].split("::")[0]
    if (root / target).exists():
        return True
    if any(ch in target for ch in "*?["):
        return any(root.glob(target))
    if "/" not in target:
        # Bare basename (`plan.py`, `aux.py`): the docs' shorthand for a
        # module whose package is clear from context.
        for sub in _CODE_DIRS:
            if (root / sub).is_dir() and any((root / sub).rglob(target)):
                return True
        # Generated artifacts (`manifest.json`): accept when the
        # stem is spelled out somewhere in the code that writes it.
        stem = target.rsplit(".", 1)[0]
        return stem in idents
    return False


def doc_files(root: Path) -> list[Path]:
    files = sorted((root / "docs").glob("*.md"))
    readme = root / "README.md"
    if readme.exists():
        files.append(readme)
    return files


def lint(root: Path = REPO) -> tuple[list[str], int]:
    """Return (error lines, number of symbol spans checked)."""
    idents = collect_src_identifiers(root)
    errors: list[str] = []
    checked = 0
    for doc in doc_files(root):
        text = _FENCE.sub("", doc.read_text(encoding="utf-8"))
        rel = doc.relative_to(root)
        for match in _SPAN.finditer(text):
            token = match.group(1).strip()
            line = text[: match.start()].count("\n") + 1
            if _is_pathlike(token):
                if not _path_exists(root, token, idents):
                    errors.append(
                        f"{rel}:{line}: file `{token}` does not exist"
                    )
                checked += 1
                continue
            if not _looks_like_symbol(token):
                continue
            checked += 1
            bare = token[:-2] if token.endswith("()") else token
            missing = [
                part
                for part in bare.split(".")
                # SQL names are case-insensitive: `SQRT` in prose is fine
                # when the code spells it `sqrt`.
                if part not in idents and part.lower() not in idents
            ]
            if missing:
                errors.append(
                    f"{rel}:{line}: `{token}` — no identifier "
                    f"{'/'.join(missing)!r} anywhere under src/"
                )
    return errors, checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(REPO), help="repo root")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    errors, checked = lint(Path(args.root))
    if args.verbose or errors:
        print(f"docs-lint: checked {checked} code references")
    for line in errors:
        print(line, file=sys.stderr)
    if errors:
        print(f"docs-lint: {len(errors)} stale reference(s)", file=sys.stderr)
        return 1
    print("docs-lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
