"""The end-to-end tracer's wrap targets exist where it looks for them.

``benchmarks/e2e/tracing.py`` wraps ``vars(owner)[attr]`` for every
``TARGETS`` entry, so a method moved into a base class or mixin breaks
the traced benchmark run.  The table is only read here.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_e2e_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("owner, attr",
                         [(t[0], t[1]) for t in _targets()],
                         ids=lambda v: getattr(v, "__name__", v))
def test_target_is_defined_on_its_owner(owner, attr):
    assert attr in vars(owner)
