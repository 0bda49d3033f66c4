"""Integration test for the one-command paper reproduction."""

import pytest

from repro.experiments.reproduce import reproduce_paper


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One reproduction for the whole module: report, path, progress."""
    path = tmp_path_factory.mktemp("repro") / "report.md"
    messages = []
    text = reproduce_paper(groups=2, out_path=path, progress=messages.append)
    return text, path, messages


@pytest.fixture(scope="module")
def report(run):
    text, path, _ = run
    return text, path


class TestReproducePaper:
    def test_report_written(self, report):
        text, path = report
        assert path.exists()
        assert path.read_text() == text

    def test_every_experiment_present(self, report):
        text, _ = report
        for heading in (
            "## Figures 1-5: scenario walkthroughs",
            "## Figure 9: Call Forwarding",
            "## Figure 10: RFID data anomalies",
            "## Section 5.2: Landmarc case study",
            "## Section 5.3: use-window ablation",
            "## Section 5.1: tie-break ablation",
            "## Section 5.2 open question",
        ):
            assert heading in text, heading

    def test_headline_artifacts_present(self, report):
        text, _ = report
        assert "ctxUseRate" in text
        assert "sitActRate" in text
        assert "Rule 2'" in text
        assert "96.5%" in text  # the paper's survival target appears
        assert "B=drop-bad" in text  # charts rendered

    def test_progress_callback_invoked(self, run):
        _, _, messages = run
        assert any("Figure 9" in m for m in messages)
        assert any("case study" in m for m in messages)
