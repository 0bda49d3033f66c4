"""The ``repro ledger`` CLI family and the ``--ledger`` run flags."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "run.jsonl"
    code, text = run_cli(
        "engine", "run", "rfid", "--shards", "2", "--ledger", str(path)
    )
    assert code == 0
    return path, text


class TestLedgerParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ledger"])

    def test_explain_requires_ctx_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ledger", "explain", "x.jsonl"])


class TestEngineRunLedgerFlag:
    def test_announces_the_ledger_and_ruleset(self, recorded):
        path, text = recorded
        assert path.exists()
        assert "decision ledger written to" in text
        assert "ruleset " in text

    def test_serve_parser_accepts_ledger(self):
        args = build_parser().parse_args(
            ["serve", "rfid", "--ledger", "x.jsonl"]
        )
        assert args.ledger == "x.jsonl"


class TestLedgerCommands:
    def test_verify_ok(self, recorded):
        path, _ = recorded
        code, text = run_cli("ledger", "verify", str(path))
        assert code == 0
        assert text.startswith("OK:")

    def test_verify_tampered_exits_nonzero(self, recorded, tmp_path):
        path, _ = recorded
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"at":', '"At":', 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(line + "\n" for line in lines))
        code, text = run_cli("ledger", "verify", str(bad))
        assert code == 1
        assert "FAILED" in text

    def test_verify_missing_file_exits_2(self, tmp_path):
        code, _ = run_cli("ledger", "verify", str(tmp_path / "nope.jsonl"))
        assert code == 2

    def test_explain(self, recorded):
        import json

        path, _ = recorded
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        discard = next(e for e in entries if e.get("kind") == "discard")
        code, text = run_cli("ledger", "explain", str(path), discard["ctx_id"])
        assert code == 0
        assert "DISCARDED" in text

    def test_replay(self, recorded):
        path, _ = recorded
        code, text = run_cli("ledger", "replay", str(path))
        assert code == 0
        assert "byte-identical" in text

    def test_replay_with_app_fallback(self, recorded):
        path, _ = recorded
        code, text = run_cli(
            "ledger", "replay", str(path), "--app", "rfid", "--shards", "1"
        )
        assert code == 0

    def test_diff_identical_and_divergent(self, recorded, tmp_path):
        path, _ = recorded
        same = tmp_path / "same.jsonl"
        code, _ = run_cli(
            "engine", "run", "rfid", "--shards", "4",
            "--ledger", str(same),
        )
        assert code == 0
        code, text = run_cli("ledger", "diff", str(path), str(same))
        assert code == 0
        assert "identical" in text

        other = tmp_path / "other.jsonl"
        code, _ = run_cli(
            "engine", "run", "rfid", "--shards", "2",
            "--strategy", "drop-latest", "--ledger", str(other),
        )
        assert code == 0
        code, text = run_cli("ledger", "diff", str(path), str(other))
        assert code == 1
        assert "DIVERGENT" in text
