"""Each public package imports on its own in a fresh interpreter.

``repro.experiments`` reaches into ``repro.scenarios.runner`` and the
scenario runner into ``repro.experiments.metrics``; an import cycle
between them would only show in a fresh process, where it would break
every benchmark child at import.  Each case imports in a new
interpreter, alone or in one of the two orders.
"""

import os
import pathlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

CASES = (
    ("repro",),
    ("repro.engine",),
    ("repro.serve",),
    ("repro.scenarios",),
    ("repro.experiments",),
    ("repro.scenarios", "repro.experiments"),
    ("repro.experiments", "repro.scenarios"),
)


def _import_alone(modules):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", "".join(f"import {m}\n" for m in modules)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return completed.returncode, completed.stderr


@pytest.fixture(scope="module")
def outcomes():
    """Every case's (returncode, stderr), two interpreters at a time."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(CASES, pool.map(_import_alone, CASES)))


@pytest.mark.parametrize("modules", CASES, ids=["+".join(c) for c in CASES])
def test_fresh_interpreter_import(modules, outcomes):
    returncode, stderr = outcomes[modules]
    assert returncode == 0, stderr
