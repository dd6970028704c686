"""Shared helpers for the figure-regeneration benchmarks and the perf
harness.

Every benchmark regenerates one table/figure of the paper.  Results are

* printed to stdout (visible with ``pytest -s`` / in the captured
  output), and
* appended to ``benchmarks/out/<name>.txt`` so EXPERIMENTS.md can quote
  them.

``REPRO_PAPER_SCALE=1`` switches the scenario knobs from the fast
defaults to the paper's process counts and iteration budgets.

The perf harness (``test_perf_engine.py``, ``test_perf_scale.py``)
imports :func:`record`, :func:`fingerprint` and :func:`pins_for_python`
from here.
"""

import hashlib
import json
import pathlib
import sys

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


def record(filename: str, section: str, payload: dict) -> None:
    """Merge one section into ``out/<filename>``.

    The file is an artifact for reading: no test or CI step gates on
    what it holds.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / filename
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data.setdefault("schema", 1)
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def fingerprint(res) -> tuple:
    """Bit-exact identity of one tuning run's virtual-time results."""
    seconds = "\n".join(r.seconds.hex() for r in res.records)
    return (
        res.winner,
        res.decided_at,
        res.makespan.hex(),
        hashlib.sha256(seconds.encode()).hexdigest(),
        res.events,
    )


def pins_for_python(table: dict):
    """``table[(major, minor)]`` for this interpreter; skips the calling
    test when that version has no pins (call counts follow the
    interpreter's minor version)."""
    version = sys.version_info[:2]
    if version not in table:
        pytest.skip("no call-count pins for Python %d.%d" % version)
    return table[version]


@pytest.fixture
def figure_output():
    """Returns ``emit(name, text)``: print + persist one figure's table."""
    OUT_DIR.mkdir(exist_ok=True)

    def emit(name: str, text: str) -> None:
        print()
        print(text)
        path = OUT_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")

    return emit


@pytest.fixture
def once(benchmark):
    """Run an expensive experiment exactly once under pytest-benchmark."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return run
