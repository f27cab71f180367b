"""Static concurrency-discipline lint over the storage layer.

The dynamic sanitizer (:mod:`.dynamic`) catches violations *when they
execute*; this module catches the shapes that produce them *before* they
run, by walking the AST of every Python file under ``src/repro`` (or any
path handed to it). The rules are the ``buffer.py``/``latch.py`` contract,
mechanised:

========  ==============================================================
SAN101    a ``pin()`` / ``new_page()`` / ``get(..., pin=True)`` call with
          no ``unpin()`` anywhere after it in the same function — the pin
          cannot be released on any path
SAN102    ``return`` / ``raise`` / ``yield`` reached while pins taken in
          this function are still open and not protected by a
          ``try``/``finally`` that unpins
SAN201    bare ``acquire_read`` / ``acquire_write`` / ``release_read`` /
          ``release_write`` call (or a ``*_read_locked`` one) outside
          ``latch.py``/``buffer.py`` — latches must be held through the
          ``with latch.read()/.write()`` or ``with pool.reading(pid)``
          guards so release is exception-safe
SAN202    ``yield`` inside a latch-guard ``with`` block (warning) — the
          latch stays held across the suspension, for as long as the
          consumer pleases
SAN203    nested latch guards on the same receiver expression — the latch
          is non-reentrant, so a read→write (or write→anything) upgrade
          self-deadlocks
SAN301    buffer-pool internals (``_frames``, ``_admit``, ``_record_*``,
          frame ``pins`` counts) touched outside ``buffer.py``
========  ==============================================================

The checks are lexical heuristics, not a dataflow analysis: they are
tuned to be *clean on the shipped tree* (enforced by
``tests/minidb/test_sanitize_static.py``) while firing on each shape in
``tests/minidb/sanitize_fixtures/``. ``buffer.py`` is exempt from the pin
and pool-internal rules (it *implements* them); ``latch.py`` is exempt
from SAN201 for the same reason.

Diagnostics reuse the SQL front-end's :class:`~repro.minidb.sql.\
diagnostics.Diagnostic` machinery — stable codes, byte-offset spans and
caret excerpts — so ``repro sanitize`` output reads exactly like
``repro lint`` output.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.minidb.sql.diagnostics import ERROR, WARNING, Diagnostic, Span

__all__ = ["CODES", "FileReport", "check_source", "check_file", "check_tree"]

#: Stable code -> one-line summary (documented in docs/SANITIZER.md).
CODES = {
    "SAN101": "pin acquired but never unpinned in the same function",
    "SAN102": "return/raise/yield while pins are open and unprotected",
    "SAN201": "bare latch acquire/release outside latch.py and buffer.py",
    "SAN202": "yield while holding a latch guard",
    "SAN203": "nested latch guards on the same latch expression",
    "SAN301": "buffer-pool internals touched outside buffer.py",
}

#: Files exempt per rule family (they implement the discipline).
_PIN_EXEMPT = {"buffer.py"}  # SAN101 / SAN102
_LATCH_EXEMPT = {"latch.py", "buffer.py"}  # SAN201
_POOL_EXEMPT = {"buffer.py"}  # SAN301

_BARE_LATCH_CALLS = {
    "acquire_read",
    "acquire_write",
    "release_read",
    "release_write",
    "acquire_read_locked",
    "release_read_locked",
}
_POOL_INTERNALS = {
    "_frames",
    "_admit",
    "_fetch",
    "_record_miss",
    "_record_eviction",
}


@dataclass
class FileReport:
    """Diagnostics for one checked file, plus the source for rendering."""

    path: str
    source: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    def render(self) -> str:
        return "\n".join(
            f"{self.path}: {d.render(self.source)}" for d in self.diagnostics
        )


def _line_offsets(source: str) -> list[int]:
    """Byte offset of the start of each (1-based) line."""
    offsets = [0]
    for line in source.splitlines(keepends=True):
        offsets.append(offsets[-1] + len(line))
    return offsets


def _node_span(node: ast.AST, offsets: list[int]) -> Span:
    start = offsets[node.lineno - 1] + node.col_offset
    end_lineno = getattr(node, "end_lineno", None)
    if end_lineno is None:
        return Span(start, start + 1)
    return Span(start, offsets[end_lineno - 1] + node.end_col_offset)


def _is_pin_call(node: ast.AST) -> bool:
    """``x.pin(...)``, ``x.new_page(...)`` or ``x.get(..., pin=True)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    attr = node.func.attr
    if attr in ("pin", "new_page"):
        return True
    if attr == "get":
        return any(
            kw.arg == "pin"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        )
    return False


def _is_unpin_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unpin"
    )


def _latch_guard(item: ast.withitem) -> tuple[str, str] | None:
    """``(receiver_text, mode)`` when *item* is ``with <latch>.read()/.write()``
    or ``with <pool>.reading(pid)``, the shared side of ``<pool>.latch(pid)``.

    Receiver detection is textual: the unparsed receiver must mention
    "latch" (``self.pool.latch(pid)``, ``frame.latch``, ``self._stmt_latch``
    all do), so ``open(path).read()`` never matches.
    """
    expr = item.context_expr
    if not (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)):
        return None
    receiver, attr = ast.unparse(expr.func.value), expr.func.attr
    if attr == "reading" and expr.args:
        return f"{receiver}.latch({ast.unparse(expr.args[0])})", "read"
    if attr not in ("read", "write") or expr.args or expr.keywords:
        return None
    if "latch" not in receiver.lower():
        return None
    return receiver, attr


def _walk_no_defs(node: ast.AST):
    """Yield *node* and descendants, without entering nested def/class."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield from _walk_no_defs(child)


def _calls_in_header(stmt: ast.stmt):
    """Calls in a statement's own expressions, not in nested suites.

    For simple statements that is every call; for compound statements only
    the header (``if``/``while`` test, ``for`` iter, ``with`` items) — the
    sub-suites are walked separately by the pin counter.
    """
    if isinstance(stmt, ast.If) or isinstance(stmt, ast.While):
        roots = [stmt.test]
    elif isinstance(stmt, ast.For):
        roots = [stmt.iter]
    elif isinstance(stmt, ast.With):
        roots = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, ast.Try):
        roots = []
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        roots = []
    else:
        roots = [stmt]
    for root in roots:
        for node in _walk_no_defs(root):
            if isinstance(node, ast.Call):
                yield node


def _sub_suites(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The statement suites nested directly under *stmt* (not defs)."""
    if isinstance(stmt, (ast.If, ast.While, ast.For)):
        return [stmt.body, stmt.orelse]
    if isinstance(stmt, ast.With):
        return [stmt.body]
    if isinstance(stmt, ast.Try):
        suites = [stmt.body, stmt.orelse]
        suites.extend(h.body for h in stmt.handlers)
        return suites
    return []


class _Checker:
    def __init__(self, source: str, filename: str):
        self.source = source
        self.name = Path(filename).name
        self.offsets = _line_offsets(source)
        self.diagnostics: list[Diagnostic] = []

    # ------------------------------------------------------------------
    def error(self, code: str, message: str, node: ast.AST, hint=None) -> None:
        self.diagnostics.append(
            Diagnostic(code, ERROR, message, _node_span(node, self.offsets), hint)
        )

    def warning(self, code: str, message: str, node: ast.AST, hint=None) -> None:
        self.diagnostics.append(
            Diagnostic(code, WARNING, message, _node_span(node, self.offsets), hint)
        )

    # ------------------------------------------------------------------
    def run(self, tree: ast.AST) -> list[Diagnostic]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(node)
        self._check_latch_nesting(tree, [])
        self._check_pool_internals(tree)
        self.diagnostics.sort(key=lambda d: (d.span.start if d.span else 0))
        return self.diagnostics

    # -- SAN101 / SAN102: pin discipline --------------------------------
    def _check_function(self, func) -> None:
        if self.name not in _PIN_EXEMPT:
            self._check_pin_release(func)
            self._walk_pin_paths(func.body, 0)
        if self.name not in _LATCH_EXEMPT:
            self._check_bare_latch_calls(func)

    def _check_pin_release(self, func) -> None:
        """SAN101: every pin-acquiring call needs an unpin after it."""
        pins, unpins = [], []
        for stmt in func.body:
            for node in _walk_no_defs(stmt):
                if _is_pin_call(node):
                    pins.append(node)
                elif _is_unpin_call(node):
                    unpins.append((node.lineno, node.col_offset))
        for call in pins:
            where = (call.lineno, call.col_offset)
            if not any(pos > where for pos in unpins):
                self.error(
                    "SAN101",
                    f"pin taken by {ast.unparse(call.func)}() is never "
                    "released in this function",
                    call,
                    hint="every pin must reach an unpin on all paths; use "
                    "`with pool.pinned(page_id) as page:` where possible",
                )

    def _walk_pin_paths(self, suite: list[ast.stmt], open_pins: int) -> int:
        """SAN102: flag exits while pins are open and unprotected.

        A lexical walk, not a dataflow analysis: pin/unpin calls adjust a
        counter in statement order (branches flattened, clamped at zero),
        and a ``try`` whose ``finally`` unpins pre-credits those releases —
        that is the blessed protection idiom, so exits under it are clean.
        """
        for stmt in suite:
            if isinstance(stmt, ast.Try):
                credit = sum(
                    1
                    for inner in stmt.finalbody
                    for node in _walk_no_defs(inner)
                    if _is_unpin_call(node)
                )
                open_pins = max(0, open_pins - credit)
                for sub in _sub_suites(stmt):
                    open_pins = self._walk_pin_paths(sub, open_pins)
                continue
            for call in _calls_in_header(stmt):
                if _is_pin_call(call):
                    open_pins += 1
                elif _is_unpin_call(call):
                    open_pins = max(0, open_pins - 1)
            if open_pins > 0 and self._is_exit(stmt):
                kind = type(stmt).__name__.lower()
                if isinstance(stmt, ast.Expr):
                    kind = "yield"
                self.error(
                    "SAN102",
                    f"{kind} while {open_pins} pin(s) taken by this "
                    "function are still open and not protected by a "
                    "try/finally unpin",
                    stmt,
                    hint="unpin before exiting, or wrap the pinned region "
                    "in try/finally (or `with pool.pinned(...)`)",
                )
            for sub in _sub_suites(stmt):
                open_pins = self._walk_pin_paths(sub, open_pins)
        return open_pins

    @staticmethod
    def _is_exit(stmt: ast.stmt) -> bool:
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return True
        return isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom)
        )

    # -- SAN201: bare latch calls ---------------------------------------
    def _check_bare_latch_calls(self, func) -> None:
        for stmt in func.body:
            for node in _walk_no_defs(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _BARE_LATCH_CALLS
                ):
                    self.error(
                        "SAN201",
                        f"bare {node.func.attr}() outside latch.py — an "
                        "exception between acquire and release leaks the "
                        "latch",
                        node,
                        hint="hold latches through `with latch.read():` / "
                        "`with latch.write():` / `with pool.reading(pid):`",
                    )

    # -- SAN202 / SAN203: latch-guard shapes ----------------------------
    def _check_latch_nesting(self, node: ast.AST, stack: list[str]) -> None:
        pushed = 0
        if isinstance(node, ast.With):
            for item in node.items:
                guard = _latch_guard(item)
                if guard is None:
                    continue
                receiver, mode = guard
                if receiver in stack:
                    self.error(
                        "SAN203",
                        f"nested latch guard .{mode}() on {receiver!r} "
                        "which an enclosing `with` already holds — the "
                        "latch is non-reentrant, this self-deadlocks",
                        item.context_expr,
                        hint="take the strongest mode once, at the "
                        "outermost point",
                    )
                stack.append(receiver)
                pushed += 1
            for stmt in node.body:
                for inner in _walk_no_defs(stmt):
                    if pushed and isinstance(inner, (ast.Yield, ast.YieldFrom)):
                        self.warning(
                            "SAN202",
                            "yield while holding a latch guard — the latch "
                            "stays held across the suspension for as long "
                            "as the consumer pleases",
                            inner,
                            hint="copy what you need out of the page, "
                            "release the guard, then yield",
                        )
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_latch_nesting_body(child, list(stack))
            else:
                self._check_latch_nesting(child, stack)
        del stack[len(stack) - pushed :]

    def _check_latch_nesting_body(self, func, stack: list[str]) -> None:
        # A nested def does not inherit the enclosing guards at call time,
        # so its body starts with a fresh stack.
        for stmt in func.body:
            self._check_latch_nesting(stmt, [])

    # -- SAN301: pool encapsulation -------------------------------------
    def _check_pool_internals(self, tree: ast.AST) -> None:
        if self.name in _POOL_EXEMPT:
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in _POOL_INTERNALS:
                self.error(
                    "SAN301",
                    f"buffer-pool internal {node.attr!r} accessed outside "
                    "buffer.py",
                    node,
                    hint="go through the public BufferPool API (get/pin/"
                    "unpin/mark_dirty/stats)",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "pins"
                        and not (
                            isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        )
                    ):
                        self.error(
                            "SAN301",
                            "frame pin count mutated outside buffer.py — "
                            "pin bookkeeping is the pool's alone",
                            target,
                            hint="use pool.pin()/pool.unpin()",
                        )


# ----------------------------------------------------------------------
def check_source(source: str, filename: str = "<string>") -> list[Diagnostic]:
    """All sanitizer diagnostics for one Python source text."""
    tree = ast.parse(source, filename=filename)
    return _Checker(source, filename).run(tree)


def check_file(path: str | Path) -> FileReport:
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return FileReport(str(path), source, check_source(source, str(path)))


def check_tree(root: str | Path) -> list[FileReport]:
    """Check *root* (a file or a directory, recursively), sorted by path."""
    root = Path(root)
    if root.is_file():
        return [check_file(root)]
    reports = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        reports.append(check_file(path))
    return reports
