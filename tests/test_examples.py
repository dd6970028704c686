"""Every script in ``examples/`` runs to completion.

Each runs in a fresh interpreter with the source tree on
``PYTHONPATH``, from an empty working directory, as a reader would run
it (``PYTHONPATH=src python examples/quickstart.py``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
EXAMPLES = sorted((SRC.parent / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(script, tmp_path):
    out = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
