"""Run one workload in this fresh process and print the raw samples as JSON.

Started by ``run.py``, one process at a time.  Modes:

``setup``
    time from before ``import repro`` to the end of the first op, which
    runs with cold caches (one sample of ``setup_s``);
``timed``
    the same first op, then ops timed one by one until at least
    ``--ops`` ops and ``--seconds`` seconds were measured, then this
    process's peak RSS.  Like ``setup``, it times the calibration loop
    (:mod:`metrics`) right before and after each thing it times;
``traced``
    the layer tracer (:mod:`tracing`) on a traced first op, then rounds
    of one traced op and one untraced op (two for a workload with the
    product ``TraceRecorder``: with and without it) until at least
    ``--ops`` rounds and ``--seconds`` seconds were measured.

Every op's fingerprint goes into the output; ``run.py`` checks them.
The modules that import ``repro`` are imported in :func:`main`, after
the ``setup_s`` clock has started.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

from metrics import calibration_loop, layer_metrics

ROOT = Path(__file__).resolve().parents[2]


def _op_sample(op, recorder: bool) -> dict:
    from workloads import fingerprint, run_op

    gc.collect()
    t0 = time.perf_counter()
    try:
        result, nrec = run_op(op, recorder)
    except Exception as exc:  # a failed op is a sample, not a crash
        return {"s": time.perf_counter() - t0, "fp": None,
                "error": f"{type(exc).__name__}: {exc}"}
    seconds = time.perf_counter() - t0
    return {"s": seconds, "fp": fingerprint(result), "error": None,
            "recorder_events": nrec}


def _calibrated_sample(op, recorder: bool) -> dict:
    """An op sample with the calibration loop's time around it."""
    before = calibration_loop()
    sample = _op_sample(op, recorder)
    sample["calib_s"] = (before + calibration_loop()) / 2
    return sample


def _traced_op(tracer, op, recorder: bool) -> dict:
    from workloads import fingerprint, run_op

    gc.collect()
    tracer.install()
    result = error = None
    try:
        result, _ = tracer.run_op(lambda: run_op(op, recorder))
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        tracer.uninstall()
    rec = tracer.ops[-1]
    rec["fp"] = None if result is None else fingerprint(result)
    rec["error"] = error
    if result is not None:
        counts = rec["counts"]
        counts["adcl.learning_iters"] = sum(r.learning for r in result.records)
        counts["mpi.retransmits"] = getattr(result, "retransmits", 0)
        counts["mpi.messages_dropped"] = getattr(result, "messages_dropped", 0)
    return rec


def _timed(wl, op, args) -> dict:
    ops = []
    start = time.perf_counter()
    while len(ops) < args.ops or time.perf_counter() - start < args.seconds:
        ops.append(_calibrated_sample(op, wl.recorder))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"ops": ops, "peak_rss_mb": rss_kib / 1024}


def _traced(wl, op, args) -> dict:
    from tracing import LayerTracer

    tracer = LayerTracer()
    cold = _traced_op(tracer, op, wl.recorder)
    # a workload that installs the recorder also runs without it, which
    # prices the recorder; elsewhere the untraced op is the reference
    # for trace_overhead alone
    variants = (True, False) if wl.recorder else (False,)
    ops, untraced = [], []
    start = time.perf_counter()
    while len(ops) < args.ops or time.perf_counter() - start < args.seconds:
        ops.append(_traced_op(tracer, op, wl.recorder))
        for recorder in variants[::1 if len(ops) % 2 else -1]:
            untraced.append(_op_sample(op, recorder) | {"recorder": recorder})
    metrics = None
    if all(s["fp"] is not None for s in (cold, *ops, *untraced)):
        metrics = layer_metrics(cold, ops, untraced, wl.recorder)
    return {"cold": cold, "ops": ops, "untraced": untraced,
            "spans": tracer.spans, "restored": tracer.restored(),
            "layer_metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "traced"),
                   required=True)
    p.add_argument("--ops", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0.0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    calib_before = calibration_loop()
    t0 = time.perf_counter()  # setup_s starts before `import repro`
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"error: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    wl = workloads.get(args.workload)
    op = wl.make(args.seed)
    out = {"workload": wl.name, "seed": args.seed, "mode": args.mode}
    if args.mode == "traced":
        out.update(_traced(wl, op, args))
    else:
        out["cold"] = _op_sample(op, wl.recorder)
        out["setup_s"] = time.perf_counter() - t0
        out["setup_calib_s"] = (calib_before + calibration_loop()) / 2
        if args.mode == "timed":
            out.update(_timed(wl, op, args))
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
