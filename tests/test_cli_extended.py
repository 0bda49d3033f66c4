"""Extended CLI coverage: ablations, smart phone, strategy listing."""

import io


from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestSmartPhoneCLI:
    def test_compare_smart_phone(self):
        code, text = run_cli(
            "compare", "smart-phone", "--groups", "1", "--rates", "0.3"
        )
        assert code == 0
        assert "ctxUseRate" in text

    def test_trace_roundtrip_smart_phone(self, tmp_path):
        path = tmp_path / "phone.jsonl"
        code, _ = run_cli(
            "trace", "record", "smart-phone", "--out", str(path),
            "--err", "0.2", "--seed", "4",
        )
        assert code == 0
        code, text = run_cli(
            "trace", "replay", str(path), "--strategy", "drop-bad",
            "--window", "8",
        )
        assert code == 0
        assert "replayed" in text


class TestAblationCLI:
    def test_window_ablation(self):
        code, text = run_cli("ablation", "window", "--groups", "1")
        assert code == 0
        assert "D-Bad ctxUse%" in text

    def test_tiebreak_ablation(self):
        code, text = run_cli("ablation", "tiebreak", "--groups", "1")
        assert code == 0
        assert "tie-discard" in text


class TestCompareOptions:
    def test_custom_window_and_rates(self):
        code, text = run_cli(
            "compare",
            "rfid",
            "--groups",
            "1",
            "--rates",
            "0.2",
            "0.4",
            "--window",
            "15",
        )
        assert code == 0
        assert "20%" in text and "40%" in text
