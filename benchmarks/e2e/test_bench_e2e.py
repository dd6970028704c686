"""Tests of the end-to-end benchmark: ``python -m pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from metrics import E2E, PER_LAYER, Metric, summarize, verdict  # noqa: E402
from tracing import LAYERS, TARGETS, LayerTracer  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


# -- percentile rule --------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 19, 20, 39])
def test_too_few_samples_report_no_tail_percentile(n):
    samples = [float(i) for i in range(n, 0, -1)]
    assert summarize(samples) == {"n": n, "p25": float(math.ceil(n / 4)),
                                  "p50": (n + 1) / 2}


def test_p75_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(40, 0, -1)]  # order must not matter
    s = summarize(samples)
    assert s["n"] == 40 and s["p50"] == 20.5 and s["p25"] == 10.0
    assert s["p75"] == 30.0
    assert sum(x > s["p75"] for x in samples) == 10


def test_failed_op_counts_as_infinitely_slow():
    samples = [1.0] * 30 + [math.inf] * 10
    assert summarize(samples)["p75"] == 1.0
    assert summarize(samples + [math.inf])["p75"] == math.inf


# -- self-time arithmetic -----------------------------------------------------


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class _Fake:
    def outer(self):
        _busy(0.002)
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        _busy(0.001)

    def steps(self):
        _busy(0.001)
        self.inner()
        yield "first"
        _busy(0.001)
        yield "second"
        return "result"


_FAKE_TARGETS = (
    (_Fake, "outer", "adcl", "span", None, None),
    (_Fake, "inner", "nbc", "call", None, None),
    (_Fake, "steps", "sim.mpi", "gen", None, None),
)


def test_self_time_of_a_synthetic_call_tree():
    tracer = LayerTracer(_FAKE_TARGETS)
    tracer.install()
    try:
        fake = _Fake()

        def op():
            _busy(0.001)
            assert fake.outer() == "done"
            gen = fake.steps()
            assert next(gen) == "first"
            _busy(0.02)  # suspended: not the generator's time
            assert next(gen) == "second"
            with pytest.raises(StopIteration) as stop:
                next(gen)
            assert stop.value.value == "result"

        tracer.run_op(op)
    finally:
        tracer.uninstall()
    (rec,) = tracer.ops
    calls = rec["calls"]
    outer_calls, outer_total, outer_self = calls["_Fake.outer"]
    inner_calls, inner_total, inner_self = calls["_Fake.inner"]
    steps_calls, steps_total, steps_self = calls["_Fake.steps"]
    assert (outer_calls, inner_calls, steps_calls) == (1, 3, 1)
    assert inner_self == pytest.approx(inner_total, abs=1e-12)
    # outer and steps between them cover all three inner calls
    assert outer_self + steps_self == pytest.approx(
        outer_total + steps_total - inner_total, abs=1e-12)
    assert outer_self >= 0.002 and steps_self >= 0.002
    # timed per resumption: the 20 ms spent suspended are not counted
    assert 0.003 <= steps_total < 0.015
    layer_self = rec["layer_self_s"]
    assert set(layer_self) == set(LAYERS)
    assert min(layer_self.values()) >= 0
    assert sum(layer_self.values()) == pytest.approx(rec["op_s"], abs=1e-9)
    assert layer_self["nbc"] == pytest.approx(inner_total, abs=1e-12)
    # the op's own time outside the wrapped calls is the bench layer's
    assert layer_self["bench"] >= 0.001
    kept = [(s["name"], s["parent"]) for s in tracer.spans]
    assert kept == [("op", None), ("_Fake.outer", 0)]


def test_an_op_that_raises_is_still_recorded():
    tracer = LayerTracer(_FAKE_TARGETS)

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.run_op(boom)
    assert len(tracer.ops) == 1 and tracer.ops[0]["op_s"] >= 0


# -- installation -----------------------------------------------------------


def test_uninstall_restores_the_exact_original_objects():
    before = {(owner, attr): vars(owner)[attr] for owner, attr, *_ in TARGETS}
    tracer = LayerTracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
        for (owner, attr), orig in before.items():
            assert vars(owner)[attr] is not orig
        assert not tracer.restored()
        wl = workloads.get("a2a-tcp-p32")
        tracer.run_op(lambda: workloads.run_op(wl.make(1), wl.recorder))
    finally:
        tracer.uninstall()
    assert tracer.restored()
    for (owner, attr), orig in before.items():
        assert vars(owner)[attr] is orig


# -- traced == untraced -------------------------------------------------------


@pytest.mark.parametrize("wl", workloads.WORKLOADS, ids=lambda w: w.name)
def test_traced_fingerprint_equals_untraced_and_golden(wl):
    op = wl.make(1)
    untraced = workloads.fingerprint(workloads.run_op(op, wl.recorder)[0])
    tracer = LayerTracer()
    tracer.install()
    try:
        result, _ = tracer.run_op(lambda: workloads.run_op(op, wl.recorder))
    finally:
        tracer.uninstall()
    traced = workloads.fingerprint(result)
    assert traced == untraced == GOLDEN[wl.name]["1"]
    assert workloads.check(traced, GOLDEN[wl.name]["1"]) is None
    (rec,) = tracer.ops
    parts = rec["layer_self_s"].values()
    assert min(parts) >= -1e-9
    assert sum(parts) == pytest.approx(rec["op_s"], abs=1e-6)
    assert rec["counts"]["engine.events_dispatched"] == untraced["events"]


def test_check_rejects_a_changed_fingerprint_and_a_failed_validation():
    fp = dict(GOLDEN["fft-whale-p32"]["1"])
    assert workloads.check(fp, fp) is None
    assert "events" in workloads.check(fp | {"events": 1}, fp)
    assert "numpy" in workloads.check(fp | {"validated": False}, None)
    assert workloads.check(None, fp) == "op raised"


# -- metric tables and BENCHMARK.json ---------------------------------------


def test_benchmark_json_matches_the_metric_and_workload_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in workloads.WORKLOADS]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in E2E]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    setup = next(m for m in E2E if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in E2E)


def test_layer_metrics_cover_every_per_layer_name():
    op = {"op_s": 1.0, "calls": {}, "counts": {},
          "layer_self_s": dict.fromkeys(LAYERS, 1 / len(LAYERS))}
    untraced = [{"s": 0.5, "recorder": True, "recorder_events": 7},
                {"s": 0.4, "recorder": False, "recorder_events": 0}]
    out = metrics.layer_metrics(op, [op], untraced, recorder=True)
    assert list(out) == [m.name for m in PER_LAYER]
    assert out["trace_overhead"] == 2.0
    assert out["obs.recorder_events"] == 7
    assert out["obs.recorder_overhead_frac"] == pytest.approx(0.25)


def test_verdicts():
    m = Metric("op_s_p50", "s", "lower", 0.10)
    tight = [1.0, 1.0, 1.0, 1.0]
    assert verdict(m, 1.0, tight, 1.2, tight)[2] == "worse"
    assert verdict(m, 1.0, tight, 0.8, tight)[2] == "better"
    assert verdict(m, 1.0, tight, 1.05, tight)[2] == "within"
    assert verdict(m, 1.0, [0.5, 1.0, 1.5, 2.0], 1.0, tight)[2] == "unresolved"
    up = Metric("sim_events_per_s", "events/s", "higher", 0.10)
    assert verdict(up, 100.0, [100.0], 80.0, [80.0])[2] == "worse"


# -- the command ------------------------------------------------------------


def test_smoke_run_checks_outputs_and_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--workloads", "fft-whale-p32"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == 2  # cold op + one timed op
    assert list(line["metrics"]) == [m.name for m in E2E]
    assert line["metrics"]["op_s_p25"]["unit"] == "s"
    results = json.loads((HERE / "out" / "results.json").read_text())
    reported = results["workloads"]["fft-whale-p32"]["metrics"]
    # one op cannot support a tail percentile
    assert "op_s_p50" in reported and "op_s_p75" not in reported


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "a2a-tcp-p32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
