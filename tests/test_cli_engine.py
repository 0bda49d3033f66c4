"""Tests for the ``repro engine`` CLI subcommand."""

import io
import json

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestEngineParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine"])

    def test_run_validates_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine", "run", "unknown-app"])

    def test_run_validates_mode(self):
        # --mode is gone: the engine runs inline only.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["engine", "run", "rfid", "--mode", "process"]
            )
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["engine", "run", "rfid", "--mode", "local"],
            ["engine", "bench", "--mode", "process"],
            ["engine", "run", "rfid", "--batch-size", "8"],
            ["engine", "run", "rfid", "--max-retries", "2"],
            ["engine", "run", "rfid", "--batch-timeout", "10"],
            ["packs", "run", "rfid", "--host", "process"],
            ["packs", "run", "rfid", "--host", "local"],
        ],
    )
    def test_removed_execution_mode_flags_are_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_packs_run_hosts(self):
        args = build_parser().parse_args(
            ["packs", "run", "rfid", "--host", "inline"]
        )
        assert args.host == "inline"


class TestEngineRun:
    def test_resolves_rfid_workload(self):
        code, text = run_cli(
            "engine", "run", "rfid", "--shards", "4",
            "--strategy", "drop-bad",
        )
        assert code == 0
        assert "4 shard(s) in" in text
        assert "delivered" in text and "discarded" in text
        assert "shard 0:" in text and "shard 3:" in text

    def test_time_window(self):
        code, text = run_cli(
            "engine", "run", "call-forwarding", "--shards", "2",
            "--delay", "5.0",
        )
        assert code == 0
        assert "2 shard(s) in" in text
        assert "delivered" in text and "discarded" in text


class TestEngineBench:
    def test_bench_prints_speedup_and_writes_json(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        code, text = run_cli(
            "engine", "bench", "--shards", "1", "2",
            "--contexts", "300", "--repeats", "1",
            "--json", str(path),
            "--telemetry-out", str(tmp_path / "TELEMETRY_engine_bench.json"),
        )
        assert code == 0
        assert "contexts/second by shard count" in text
        assert "speedup 2_shards_vs_1" in text
        document = json.loads(path.read_text(encoding="utf-8"))
        record = document["engine_scalability"]
        assert set(record["contexts_per_second_by_shards"]) == {"1", "2"}
        assert record["workload"]["n_contexts"] == 300
