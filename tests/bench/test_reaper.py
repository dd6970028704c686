"""Regression tests for the orphan-worker leak (satellite of the
fabric PR): however the master dies — SIGTERM, KeyboardInterrupt,
plain exception — no worker process may outlive it.

Each scenario runs a real master in a subprocess whose workers hold
30-second tasks, learns the worker pids from a line the driver prints,
kills the driver the scenario's way, and asserts the workers are gone.
(The SIGKILL case, which no handler can see, lives in
``tests/bench/fabric/test_chaos.py``.)
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench.fabric.master import fork_available

#: the checkout these tests belong to: subprocesses run from it so they
#: import this tree's ``src``, wherever the checkout lives
REPO_ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fabric needs the fork start method")

_DRIVER = """\
import _thread, sys, threading, time
sys.path.insert(0, 'src')
from repro.bench.fabric import reaper
from repro.bench.fabric.master import FabricMaster, FabricConfig

def slow(p):
    time.sleep(30)
    return {'p': p}

cfg = FabricConfig(task_timeout=120.0, heartbeat_interval=0.05)
m = FabricMaster(slow, jobs=2, config=cfg)

def snitch():
    time.sleep(1.0)
    pids = sorted(reaper.alive_pids())
    print('PIDS ' + ' '.join(str(p) for p in pids), flush=True)
    if sys.argv[1] == 'interrupt':
        _thread.interrupt_main()  # KeyboardInterrupt in the master loop

threading.Thread(target=snitch, daemon=True).start()
try:
    m.run([('a', 1), ('b', 2)], cache=None)
except BaseException:
    raise SystemExit(1)
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _run_scenario(tmp_path, mode, external_signal=None):
    script = tmp_path / "driver.py"
    script.write_text(_DRIVER)
    proc = subprocess.Popen(
        [sys.executable, str(script), mode], cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        assert line.startswith("PIDS "), f"driver said: {line!r}"
        pids = [int(p) for p in line.split()[1:]]
        assert len(pids) == 2, f"expected 2 workers, got {pids}"
        if external_signal is not None:
            proc.send_signal(external_signal)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if not any(_alive(p) for p in pids):
            break
        time.sleep(0.1)
    leaked = [p for p in pids if _alive(p)]
    for p in leaked:  # clean up before failing the assert
        os.kill(p, signal.SIGKILL)
    assert not leaked, f"{mode}: workers leaked: {leaked}"


def test_sigterm_reaps_workers(tmp_path):
    _run_scenario(tmp_path, "wait", external_signal=signal.SIGTERM)


def test_keyboard_interrupt_reaps_workers(tmp_path):
    _run_scenario(tmp_path, "interrupt")


def test_reaper_register_unregister_roundtrip():
    from repro.bench.fabric import reaper

    class _Fake:
        pid = 999999999
        def is_alive(self):
            return False

    proc = _Fake()
    reaper.register(proc)
    assert proc.pid not in reaper.alive_pids()  # not alive -> not listed
    reaper.unregister(proc)
    assert reaper.reap_all() == 0  # nothing live to reap
