"""numpy loads only where data, random draws or FFT arithmetic need it.

Size-only, noise-free, fault-free simulations never touch numpy, so
``import repro`` and such runs must leave it unloaded: it is most of a
size-only process's resident memory.  Each case runs in a fresh
interpreter, because this process has numpy loaded already (pytest's
plugins and the other tests import it).  The cases that move data, draw
random numbers or run the FFT must still load it, which also shows the
check sees a load when one happens.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bench.overlap import OPERATION_KINDS
from repro.nbc.iallreduce import _ITEMSIZE, itemsize

SRC = str(Path(repro.__file__).resolve().parents[1])


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def _loads_numpy(code):
    """Run ``code`` in a fresh interpreter; True when numpy got loaded."""
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint('numpy' in sys.modules)"],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1] == "True"


def test_import_repro_leaves_numpy_unloaded():
    assert not _loads_numpy("import repro")


@pytest.mark.parametrize("operation", sorted(OPERATION_KINDS))
def test_size_only_overlap_leaves_numpy_unloaded(operation):
    # enough iterations for every operation's brute force to decide, so
    # the estimator runs as well
    code = (
        "from repro.bench import OverlapConfig, run_overlap\n"
        f"cfg = OverlapConfig(operation={operation!r}, nprocs=4, iterations=50)\n"
        "assert run_overlap(cfg, evals_per_function=2).winner is not None\n"
    )
    assert not _loads_numpy(code)


def test_tune_cli_leaves_numpy_unloaded():
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "tune",
         "--operation", "bcast", "--nprocs", "8", "--nbytes", "1KB",
         "--iterations", "44", "--evals", "2"],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert "decision at iteration" in out.stdout
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in out.stderr.splitlines()
                if line.startswith("import time:")]
    assert "repro.cli" in imported
    assert "numpy" not in imported


LOADERS = {
    "payload_ibcast": (
        "from repro import nbc\n"
        "from repro.sim import SimWorld, Wait, get_platform\n"
        "world = SimWorld(get_platform('whale'), 4)\n"
        "bufs = {}\n"
        "def program(ctx):\n"
        "    buf = bufs[ctx.rank] = bytearray(b'root' if ctx.rank == 0 else 4)\n"
        "    yield Wait(nbc.start_ibcast(ctx, 4, buf=buf))\n"
        "world.launch(program)\n"
        "world.run()\n"
        "assert all(b == b'root' for b in bufs.values()), bufs\n"
    ),
    "noisy_world": (
        "from repro.sim import NoiseModel, SimWorld, get_platform\n"
        "SimWorld(get_platform('whale'), 4, noise=NoiseModel(sigma=0.1))\n"
    ),
    "fault_plan": (
        "from repro.sim import SimWorld, get_platform\n"
        "from repro.sim.faults import DropRule, FaultPlan\n"
        "SimWorld(get_platform('whale'), 4, faults=FaultPlan(drops=(DropRule(0.1),)))\n"
    ),
    "run_fft": (
        "from repro.apps.fft import FFTConfig, run_fft\n"
        "res = run_fft(FFTConfig(n=16, nprocs=4, method='libnbc',\n"
        "                        iterations=2, validate=True))\n"
        "assert res.validated\n"
    ),
}


@pytest.mark.parametrize("case", sorted(LOADERS))
def test_data_noise_faults_and_fft_load_numpy(case):
    assert _loads_numpy(LOADERS[case])


@pytest.mark.parametrize("dtype", sorted(_ITEMSIZE))
def test_itemsize_table_equals_numpy(dtype):
    assert itemsize(dtype) == np.dtype(dtype).itemsize


def test_itemsize_falls_back_to_numpy():
    assert itemsize(np.int16) == 2
    assert itemsize("f4") == 4
    with pytest.raises(TypeError):
        itemsize("float7")
