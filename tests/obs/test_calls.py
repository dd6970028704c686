"""The per-layer call counter: buckets, determinism, hook hygiene."""

import ast
import gc
import sys
from pathlib import Path

import pytest

import repro
from repro.bench import OverlapConfig, run_overlap
from repro.nbc.schedule import SCHEDULE_CACHE
from repro.obs.calls import C_CALLS, OTHER, _bucket, count_calls

SRC = Path(repro.__file__).resolve().parent

#: a brute-force Ibcast run on 4 ranks that decides (21 candidates x 2
#: evaluations) and runs past the decision
CFG = OverlapConfig(nprocs=4, iterations=50, nprogress=3)


def _two_lens():
    return len("a") + len("bc")


def test_python_and_c_calls_are_counted():
    with count_calls() as empty:
        pass
    with count_calls() as counts:
        _two_lens()
    counts.subtract(empty)
    assert counts[OTHER] == 1  # _two_lens lives in this test module
    assert counts[C_CALLS] == 2
    assert [_bucket(m) for m in ("repro.sim.mpi", "repro", "reprox.sim")] \
        == ["repro.sim", "repro", OTHER]


def _count_one_op():
    SCHEDULE_CACHE.clear()
    run_overlap(CFG, evals_per_function=2)  # warm-up
    gc.collect()
    with count_calls() as counts:
        run_overlap(CFG, evals_per_function=2)
    return counts


def test_a_run_is_bucketed_by_layer_and_counts_repeat_exactly():
    first = _count_one_op()
    for layer in ("repro.sim", "repro.nbc", "repro.adcl", "repro.bench",
                  C_CALLS):
        assert first[layer] > 0, layer
    assert all(b in (C_CALLS, OTHER) or b.count(".") == 1 for b in first)
    assert _count_one_op() == first


def test_the_previous_profile_function_is_restored():
    def outer(frame, event, arg):
        pass

    saved = sys.getprofile()
    sys.setprofile(outer)
    try:
        with count_calls():
            _two_lens()
        assert sys.getprofile() is outer
        with pytest.raises(ZeroDivisionError):
            with count_calls() as counts:
                _two_lens()
                1 / 0
        assert sys.getprofile() is outer
    finally:
        sys.setprofile(saved)
    # the block's counts are kept when it raises
    assert counts[C_CALLS] >= 2 and counts[OTHER] >= 1


def test_no_product_module_imports_the_counter():
    """``import repro`` and every run load the modules they did before
    the counter existed: only tests and benchmarks import it."""
    importers = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]
                if any("calls" in name.split(".") for name in names):
                    importers.append(str(path.relative_to(SRC)))
    assert importers == []
