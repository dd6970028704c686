"""Chaos tests: the fabric's bitwise-determinism contract under
SIGKILLed workers and a SIGKILLed master.

The acceptance criterion of the sweep fabric is that a sweep killed
mid-flight — workers, master, or both — and re-run with ``--resume``
produces results byte-identical to an uninterrupted serial run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench.fabric import FabricConfig, result_fingerprint
from repro.bench.fabric.master import fork_available
from repro.bench.overlap import OverlapConfig
from repro.bench.parallel import ResultCache, sweep_implementations

#: the checkout these tests belong to: subprocesses run from it so they
#: import this tree's ``src``, wherever the checkout lives
REPO_ROOT = Path(__file__).resolve().parents[3]

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fabric needs the fork start method")

SMALL_CFG = OverlapConfig(platform="whale", nprocs=4, operation="bcast",
                          nbytes=8 * 1024, iterations=4, nprogress=2,
                          noise_sigma=0.02, noise_outlier_prob=0.05, seed=3)

#: what `repro sweep --platform whale --nprocs 4 --operation bcast
#: --nbytes 8KB --iterations 4 --nprogress 2` builds internally
CLI_CFG = OverlapConfig(platform="whale", nprocs=4, operation="bcast",
                        nbytes=8 * 1024, compute_total=10.0,
                        iterations=4, nprogress=2)


def test_worker_chaos_kills_keep_sweep_bitwise_identical():
    serial = sweep_implementations(SMALL_CFG, jobs=1)
    cfg = FabricConfig(task_timeout=60.0, chaos_kills=2, chaos_seed=11)
    chaotic = sweep_implementations(SMALL_CFG, jobs=3, fabric=cfg)
    assert [result_fingerprint(r) for r in chaotic] == [
        result_fingerprint(r) for r in serial]
    assert cfg.stats()["fabric.chaos.kills"] == 2


def test_master_sigkill_then_resume_is_bitwise_identical(tmp_path):
    """SIGKILL the whole sweep process mid-flight, then re-run it with
    --resume: the merged result must equal the uninterrupted serial
    run byte for byte."""
    cache_dir = str(tmp_path / "ck")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    base = [sys.executable, "-m", "repro", "sweep",
            "--platform", "whale", "--nprocs", "4",
            "--operation", "bcast", "--nbytes", "8KB",
            "--iterations", "4", "--nprogress", "2",
            "--result-cache", cache_dir]

    victim = subprocess.Popen(base + ["--jobs", "2"], env=env,
                              cwd=REPO_ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    # wait for the checkpoint to hold some — but not all — tasks
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        done = ResultCache(cache_dir)
        if len(done) >= 2:
            break
        if victim.poll() is not None:
            break
        time.sleep(0.05)
    victim.kill()
    victim.wait()
    partial = len(ResultCache(cache_dir))
    assert partial >= 1, "sweep was killed before any checkpoint landed"

    resumed = subprocess.run(
        base + ["--jobs", "2", "--resume"], env=env, cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=300)
    assert resumed.returncode == 0, resumed.stderr
    if partial < 21:  # the kill landed mid-sweep, not after the end
        assert "resumed:" in resumed.stdout

    # the resumed cache now holds exactly the serial answers
    serial = sweep_implementations(CLI_CFG, jobs=1)
    cache = ResultCache(cache_dir)
    from repro.bench.overlap import function_set_for
    from repro.bench.parallel import task_key

    fnset = function_set_for(CLI_CFG.operation)
    assert len(serial) == len(fnset)
    for i, fn in enumerate(fnset):
        key = task_key("sweep", config=CLI_CFG, fn_index=i,
                       fn_name=fn.name)
        entry = cache.get(key)
        assert entry is not None, f"task {key} missing after resume"
        assert json.dumps(entry, sort_keys=True) == json.dumps(
            serial[i], sort_keys=True)
        assert result_fingerprint(entry) == result_fingerprint(serial[i])


def test_orphaned_workers_die_with_a_sigkilled_master(tmp_path):
    """Workers poll getppid() and exit when the master vanishes, even
    on SIGKILL where no cleanup handler can run (satellite 1)."""
    script = tmp_path / "driver.py"
    script.write_text(
        "import os, sys, time\n"
        "sys.path.insert(0, 'src')\n"
        "from repro.bench.fabric.master import FabricMaster, FabricConfig\n"
        "def slow(p):\n"
        "    time.sleep(30)\n"
        "    return {'p': p}\n"
        "cfg = FabricConfig(task_timeout=120.0, heartbeat_interval=0.05)\n"
        "m = FabricMaster(slow, jobs=2, config=cfg)\n"
        "import threading\n"
        "def snitch():\n"
        "    time.sleep(1.0)\n"
        "    pids = sorted(w.pid for w in m._workers.values())\n"
        "    print('PIDS ' + ' '.join(str(p) for p in pids), flush=True)\n"
        "threading.Thread(target=snitch, daemon=True).start()\n"
        "m.run([('a', 1), ('b', 2)], cache=None)\n")
    proc = subprocess.Popen([sys.executable, str(script)],
                            cwd=REPO_ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    line = proc.stdout.readline()
    assert line.startswith("PIDS "), line
    pids = [int(p) for p in line.split()[1:]]
    assert len(pids) == 2
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait()
    # workers notice the orphaning via getppid polling and exit
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if not any(_alive(p) for p in pids):
            break
        time.sleep(0.1)
    leaked = [p for p in pids if _alive(p)]
    for p in leaked:  # don't leave strays behind the assert
        os.kill(p, signal.SIGKILL)
    assert not leaked, f"workers outlived a SIGKILLed master: {leaked}"


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
