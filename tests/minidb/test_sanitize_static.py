"""Static sanitizer (`repro sanitize`): fixtures fire, shipped tree clean.

The fixture corpus in ``sanitize_fixtures/`` holds one deliberately broken
file per rule family; each diagnostic must fire with the right code at the
right line — and nowhere else. The flip side is just as load-bearing: the
shipped ``src/repro`` tree must produce zero diagnostics, which is what
lets CI run ``repro sanitize --strict`` as a hard gate.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.minidb.sanitize.static import (
    CODES,
    check_file,
    check_source,
    check_tree,
)
from repro.minidb.sql.diagnostics import ERROR, WARNING, line_col

FIXTURES = Path(__file__).parent / "sanitize_fixtures"

#: fixture file -> exact set of (code, line) expected to fire.
EXPECTED = {
    "pin_leak.py": {
        ("SAN101", 12),
        ("SAN102", 13),
        ("SAN101", 16),
        ("SAN102", 17),
        ("SAN101", 20),
        ("SAN102", 21),
    },
    "early_return.py": {
        ("SAN102", 15),
        ("SAN102", 23),
        ("SAN102", 31),
    },
    "bare_acquire.py": {
        ("SAN201", 9),
        ("SAN201", 13),
        ("SAN201", 16),
        ("SAN201", 18),
    },
    "latch_across_yield.py": {("SAN202", 12)},
    "read_guard.py": {
        ("SAN203", 17),
        ("SAN202", 24),
        ("SAN201", 28),
        ("SAN201", 30),
        ("SAN201", 31),
        ("SAN201", 32),
    },
    "upgrade_deadlock.py": {("SAN203", 16)},
    "pool_internals.py": {
        ("SAN301", 5),
        ("SAN301", 7),
        ("SAN301", 8),
    },
}


def _fired(report):
    return {
        (d.code, line_col(report.source, d.span.start)[0])
        for d in report.diagnostics
    }


class TestFixtureCorpus:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_fixture_fires_exactly_where_expected(self, name):
        report = check_file(FIXTURES / name)
        assert _fired(report) == EXPECTED[name]

    def test_every_code_is_exercised_and_documented(self):
        fired = {code for spots in EXPECTED.values() for code, _ in spots}
        assert fired == set(CODES)

    def test_severities(self):
        for name in EXPECTED:
            for diag in check_file(FIXTURES / name).diagnostics:
                expected = WARNING if diag.code == "SAN202" else ERROR
                assert diag.severity == expected, (name, diag.code)

    def test_render_includes_caret_excerpt(self):
        report = check_file(FIXTURES / "pin_leak.py")
        rendered = report.render()
        assert "SAN101" in rendered
        assert "^" in rendered
        assert "pin_leak.py" in rendered


class TestShippedTreeClean:
    def test_src_repro_has_zero_diagnostics(self):
        root = Path(repro.__file__).parent
        dirty = [
            f"{r.path}: {d.code} {d.message}"
            for r in check_tree(root)
            for d in r.diagnostics
        ]
        assert dirty == []


class TestHeuristics:
    """Targeted shapes that must (not) fire, beyond the fixture corpus."""

    def test_try_finally_unpin_protects_exits(self):
        clean = (
            "def f(pool, pid):\n"
            "    page = pool.pin(pid)\n"
            "    try:\n"
            "        if page.kind == 0:\n"
            "            return None\n"
            "        return page.kind\n"
            "    finally:\n"
            "        pool.unpin(pid)\n"
        )
        assert check_source(clean) == []

    def test_pinned_context_manager_is_exempt(self):
        clean = (
            "def f(pool, pid):\n"
            "    with pool.pinned(pid) as page:\n"
            "        return page.kind\n"
        )
        assert check_source(clean) == []

    def test_sequential_guards_on_one_latch_are_fine(self):
        clean = (
            "def f(pool, pid):\n"
            "    with pool.latch(pid).read():\n"
            "        k = 1\n"
            "    with pool.latch(pid).write():\n"
            "        pool.mark_dirty(pid)\n"
        )
        assert check_source(clean) == []

    def test_nested_guards_on_distinct_latches_are_fine(self):
        clean = (
            "def f(pool, a, b):\n"
            "    with pool.latch(a).read():\n"
            "        with pool.latch(b).read():\n"
            "            pass\n"
        )
        assert check_source(clean) == []

    def test_file_read_is_not_a_latch_guard(self):
        clean = (
            "def f(path):\n"
            "    with open(path).read():\n"
            "        yield 1\n"
        )
        assert check_source(clean) == []

    def test_buffer_and_latch_modules_are_exempt(self):
        pin_impl = "def pin(self, pid):\n    return self.get(pid, pin=True)\n"
        assert check_source(pin_impl, "src/repro/minidb/buffer.py") == []
        assert {d.code for d in check_source(pin_impl, "other.py")} == {
            "SAN101",
            "SAN102",
        }
        bare = "def acquire_read(self):\n    self._latch.acquire_read()\n"
        assert check_source(bare, "src/repro/minidb/latch.py") == []
        assert check_source(bare, "src/repro/minidb/buffer.py") == []
        assert [d.code for d in check_source(bare, "other.py")] == ["SAN201"]

    def test_self_pins_attribute_is_not_pool_internals(self):
        # The dynamic tracker keeps its own `self.pins` table; only foreign
        # objects' pin counts are the pool's business.
        assert check_source("def f(self):\n    self.pins = {}\n") == []
        assert [
            d.code for d in check_source("def f(frame):\n    frame.pins = 0\n")
        ] == ["SAN301"]


class TestCli:
    def test_sanitize_clean_tree_exits_zero(self, capsys):
        assert main(["sanitize"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_sanitize_fixtures_exit_nonzero(self, capsys):
        assert main(["sanitize", "--path", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "SAN101" in out and "error(s)" in out

    def test_warning_only_file_needs_strict_to_fail(self):
        target = str(FIXTURES / "latch_across_yield.py")
        assert main(["sanitize", "--path", target]) == 0
        assert main(["sanitize", "--path", target, "--strict"]) == 1

    def test_sanitize_json_report_shape(self, capsys):
        assert main(["sanitize", "--path", str(FIXTURES), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["tool"] == "sanitize"
        assert report["ok"] is False
        assert report["errors"] > 0 and report["warnings"] > 0
        assert report["errors"] + report["warnings"] == len(
            report["diagnostics"]
        )
        for record in report["diagnostics"]:
            assert set(record) == {
                "code",
                "severity",
                "message",
                "file",
                "line",
                "col",
            }
            assert record["line"] > 0

    def test_missing_path_is_a_usage_error(self, capsys):
        assert main(["sanitize", "--path", "/no/such/dir"]) == 2
        assert "error" in capsys.readouterr().err

    def test_lint_json_shares_the_convention(self, capsys):
        assert main(["lint", "--sql", "SELEC nope", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["tool"] == "lint"
        assert report["ok"] is False
        assert report["errors"] == 1
        assert report["diagnostics"][0]["code"] == "SYN001"
        assert set(report["diagnostics"][0]) == {
            "code",
            "severity",
            "message",
            "file",
            "line",
            "col",
        }
