"""Smoke test of the repository benchmark at a tiny scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.  Every
workload runs at ``--scale 0.02``: the point is the shape of the output,
the correctness gate and the tracer's clean-up, not the numbers.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

import child  # puts the program's sources on sys.path
import run
import trace as layer_trace
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCALE = "0.02"
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def summary(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "summary.json"
    done = _run("--scale", SCALE, "--repeats", "2", "--out", str(out))
    assert done.returncode == 0, done.stderr
    for name in workloads.WORKLOADS:
        assert done.stdout.count(f"{name}: ") == 1
    return json.loads(out.read_text())


def test_every_workload_runs_correctly(summary):
    assert set(summary["workloads"]) == set(workloads.WORKLOADS)
    for result in summary["workloads"].values():
        assert result["correct"] and not result["problems"]
        assert result["failed"] == 0 and result["attempted"] > 0
        assert result["e2e"]["failed_ratio"]["value"] == 0.0
    assert summary["provenance"]["seed"] == 11


def test_every_declared_metric_is_emitted_with_its_unit(summary):
    declared = _declared()
    for result in summary["workloads"].values():
        for metric in declared["end_to_end"]:
            entry = result["e2e"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] is not None or "refused" in entry
        for metric in declared["per_layer"]:
            assert metric["name"] in result["layers"]


def test_declaration_matches_the_code():
    declared = _declared()
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == (
        run.layer_table()
    )
    for metric in declared["end_to_end"]:
        assert run.E2E[metric["name"]] == (metric["unit"], metric["better"])
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_names_and_units_are_well_formed(summary):
    declared = _declared()
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for result in summary["workloads"].values():
        names += list(result["e2e"]) + list(result["layers"])
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and len(metric["unit"]) <= 16


@pytest.mark.parametrize("trace", ["0", "1"])
def test_time_boxed_run_prints_one_result_line(trace):
    done = _run(
        "--workload", "immortal-chain", "--seed", "3", "--seconds", "1",
        "--trace", trace, "--scale", "0.05",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["per_layer" if trace == "1" else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_tracer_restores_every_patched_attribute():
    strategy = workloads.WORKLOADS["fleet-droplatest"].strategy
    targets = list(layer_trace.LAYER_TARGETS) + layer_trace.strategy_targets(strategy)
    originals = []
    for _, where, path, _ in targets:
        namespace, attr = layer_trace.resolve(where, path)
        originals.append((namespace, attr, vars(namespace)[attr]))
    spec = {
        "workload": "fleet-droplatest",
        "seed": 5,
        "scale": 0.02,
        "traced": True,
        "launch": 0.0,
    }
    result = child.run_offline(spec)
    layers = result["trace"]["layers"]
    for layer in ("runtime.add", "core.strategy_added", "constraints.detect_batch"):
        assert layers[f"{layer}.calls_per_ctx"] > 0
    for namespace, attr, original in originals:
        assert vars(namespace)[attr] is original, f"{namespace}.{attr}"


def test_a_tampered_reference_fails_the_run(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(workloads, "expected_decisions", lambda name, ctxs: "0" * 64)
    out = tmp_path / "summary.json"
    argv = ["--workload", "immortal-chain", "--scale", SCALE, "--repeats", "1"]
    assert run.main(argv + ["--out", str(out)]) == 1
    result = json.loads(out.read_text())["workloads"]["immortal-chain"]
    assert not result["correct"] and result["problems"]
    assert result["e2e"]["failed_ratio"]["value"] == 1.0

    capsys.readouterr()
    argv = ["--workload", "immortal-chain", "--scale", SCALE, "--seed", "3"]
    assert run.main(argv + ["--seconds", "1", "--trace", "0"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not line["correct"] and line["failed"] == line["attempted"]
