"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main


class TestDatasets:
    def test_lists_all_eleven(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("Austin", "Madrid", "Sweden", "Toronto"):
            assert name in out


class TestPipeline:
    def test_generate_preprocess_query(self, tmp_path, capsys):
        feed = os.path.join(tmp_path, "feed")
        labels = os.path.join(tmp_path, "austin.ttl")
        assert main(["generate", "--dataset", "Austin", "--gtfs-out", feed]) == 0
        assert os.path.exists(os.path.join(feed, "stop_times.txt"))
        assert main(["preprocess", "--gtfs", feed, "--labels", labels]) == 0
        assert os.path.exists(labels)
        capsys.readouterr()
        code = main(
            [
                "query", "ea", "--gtfs", feed, "--labels", labels,
                "--source", "5", "--goal", "17", "--time", "32400",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == "no journey" or out.isdigit()


class TestQueries:
    def test_v2v_kinds(self, capsys):
        for kind, extra in (
            ("ea", []),
            ("ld", []),
            ("sd", ["--time2", "64800"]),
        ):
            code = main(
                [
                    "query", kind, "--dataset", "Austin",
                    "--source", "5", "--goal", "17", "--time", "32400",
                ]
                + extra
            )
            assert code == 0

    def test_knn_and_otm(self, capsys):
        for kind in ("knn", "otm"):
            code = main(
                [
                    "query", kind, "--dataset", "Austin",
                    "--source", "5", "--time", "32400",
                    "--k", "2", "--targets", "2,4,18",
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "\t" in out

    def test_trace_flag(self, capsys):
        code = main(
            [
                "query", "ea", "--dataset", "Austin", "--trace",
                "--source", "5", "--goal", "17", "--time", "32400",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "QueryTrace" in err
        assert "Index Scan" in err

    def test_ld_variant(self, capsys):
        code = main(
            [
                "query", "knn", "--dataset", "Austin", "--ld",
                "--source", "5", "--time", "64800",
                "--k", "2", "--targets", "2,4,18",
            ]
        )
        assert code == 0


class TestErrors:
    def test_missing_goal(self, capsys):
        code = main(
            ["query", "ea", "--dataset", "Austin", "--source", "1", "--time", "0"]
        )
        assert code == 2
        assert "goal" in capsys.readouterr().err

    def test_missing_targets(self, capsys):
        code = main(
            ["query", "knn", "--dataset", "Austin", "--source", "1", "--time", "0"]
        )
        assert code == 2

    def test_both_inputs_rejected(self, tmp_path, capsys):
        code = main(
            [
                "query", "ea", "--dataset", "Austin", "--gtfs", str(tmp_path),
                "--source", "1", "--goal", "2", "--time", "0",
            ]
        )
        assert code == 2

    def test_unknown_experiment(self, capsys):
        # a removed gate driver's name is rejected like any unknown one
        for name in ("nope", "serving"):
            assert main(["bench", "--experiment", name]) == 2
            assert "choose from" in capsys.readouterr().err


class TestBench:
    def test_table7(self, capsys):
        assert main(["bench", "--experiment", "table7", "--datasets", "Austin"]) == 0
        out = capsys.readouterr().out
        assert "HL_per_V" in out


class TestServe:
    def test_serves_a_sample_workload(self, capsys):
        code = main(
            ["serve", "--dataset", "Austin", "--shards", "2", "--queries", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served 8 queries over 2 shard(s)" in out
        assert "worker.requests" in out


class TestLint:
    def test_corpus_is_clean(self, capsys):
        assert main(["lint", "--corpus"]) == 0
        out = capsys.readouterr().out
        assert "20 statement(s) ok" in out
        # every v2v family classified as exactly two PK point lookups
        for family in ("v2v_ea", "v2v_ld", "v2v_sd"):
            line = next(l for l in out.splitlines() if l.startswith(family))
            assert line.count("pk-point") == 2
            assert "seq-scan" not in line

    def test_label_scan_fails(self, capsys):
        code = main(["lint", "--sql", "SELECT COUNT(*) FROM lout"])
        assert code == 1
        out = capsys.readouterr().out
        assert "APL001" in out

    def test_semantic_error_fails(self, capsys):
        code = main(["lint", "--sql", "SELECT nope FROM lout WHERE v=1"])
        assert code == 1
        out = capsys.readouterr().out
        assert "SEM002" in out
        assert "^" in out  # caret excerpt rendered

    def test_file_with_ddl(self, tmp_path, capsys):
        script = tmp_path / "queries.sql"
        script.write_text(
            "CREATE TABLE scratch (x BIGINT, PRIMARY KEY (x));\n"
            "SELECT x FROM scratch WHERE x = 1;\n"
        )
        assert main(["lint", "--file", str(script)]) == 0
        out = capsys.readouterr().out
        assert "pk-point on scratch" in out

    def test_no_input_rejected(self, capsys):
        assert main(["lint"]) == 2
