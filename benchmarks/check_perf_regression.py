#!/usr/bin/env python
"""Gate on performance regressions against the recorded baseline.

Usage::

    python benchmarks/check_perf_regression.py \
        [current=benchmarks/out/BENCH_perf.json] \
        [baseline=benchmarks/BENCH_perf_baseline.json] [--factor 3.0] \
        [--scale-current benchmarks/out/BENCH_scale.json] \
        [--scale-baseline benchmarks/BENCH_scale_baseline.json]

Compares the higher-is-better metrics of a fresh ``BENCH_perf.json``
(produced by ``benchmarks/test_perf_engine.py``) and ``BENCH_scale.json``
(produced by ``benchmarks/test_perf_scale.py``) against the committed
baselines and exits non-zero when any of them regressed by more than
``--factor`` (default 3x).  A missing file skips that file's metrics —
the perf and scale harnesses run as separate CI jobs, each gating only
its own output.

The wide factor is deliberate: absolute throughput moves with the host
(CI runners differ from the machine that recorded the baseline), so the
gate only catches order-of-magnitude breakage — a lost fast path, an
accidentally disabled cache — not ordinary machine-to-machine noise.
Ratio metrics (``speedup``, ``ratio``, ``hit_rate``) are host-independent
and the 3x factor makes them an effectively hard floor.  The exact gate
on the tuning loop's work is the per-layer call counts that
``test_perf_engine.py`` pins.

When ``benchmarks/out/BENCH_history.jsonl`` (the per-run log the
harness conftest appends) holds enough runs, the same metrics are also
checked against their own recent history — latest vs the median of the
prior window — which catches slow drift on a single host that the
cross-host baseline factor is too loose to see.  Trend regressions WARN
by default (history accumulates on one runner, CI machines churn);
``--trend-strict`` turns them into failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.bench.history import detect_trends, load_history  # noqa: E402

#: (section, key) metrics where larger is better — BENCH_perf.json
METRICS = [
    ("sweep_speedup", "optimized_events_per_s"),
    ("engine_microbench", "ratio"),
    ("engine_microbench", "optimized_events_per_s"),
    ("schedule_cache", "hit_rate"),
    ("result_cache", "replay_speedup"),
]

#: ditto for BENCH_scale.json (the P=1024 array-engine harness)
SCALE_METRICS = [
    ("scale_sweep", "speedup"),
    ("scale_sweep", "optimized_events_per_s"),
    ("scale_sweep", "batched_fraction"),
]


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def _check(current, baseline, metrics, factor: float, width: int) -> list:
    failures = []
    for section, key in metrics:
        base = baseline.get(section, {}).get(key)
        cur = current.get(section, {}).get(key)
        name = f"{section}.{key}"
        if base is None or cur is None:
            # a section may legitimately be absent (e.g. a partial run);
            # the harness assertions are the primary gate, this is a net
            print(f"SKIP  {name:<{width}}  (missing from "
                  f"{'baseline' if base is None else 'current'})")
            continue
        ok = cur * factor >= base
        verdict = "ok  " if ok else "FAIL"
        print(f"{verdict}  {name:<{width}}  "
              f"baseline {base:>14.4f}  current {cur:>14.4f}  "
              f"({cur / base:.2f}x of baseline)")
        if not ok:
            failures.append(name)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", nargs="?",
                        default="benchmarks/out/BENCH_perf.json")
    parser.add_argument("baseline", nargs="?",
                        default="benchmarks/BENCH_perf_baseline.json")
    parser.add_argument("--factor", type=float, default=3.0,
                        help="maximum tolerated slowdown (default 3x)")
    parser.add_argument("--scale-current",
                        default="benchmarks/out/BENCH_scale.json")
    parser.add_argument("--scale-baseline",
                        default="benchmarks/BENCH_scale_baseline.json")
    parser.add_argument("--history",
                        default="benchmarks/out/BENCH_history.jsonl",
                        help="per-run history log for trend detection")
    parser.add_argument("--trend-window", type=int, default=5,
                        help="trend baseline: median of the last N prior "
                             "runs (default 5)")
    parser.add_argument("--trend-strict", action="store_true",
                        help="fail (instead of warn) on trend regressions")
    args = parser.parse_args(argv)

    width = max(len(f"{s}.{k}") for s, k in METRICS + SCALE_METRICS)
    failures = []
    checked = 0
    for cur_path, base_path, metrics in (
        (args.current, args.baseline, METRICS),
        (args.scale_current, args.scale_baseline, SCALE_METRICS),
    ):
        current = _load(cur_path)
        baseline = _load(base_path)
        if current is None or baseline is None:
            missing = cur_path if current is None else base_path
            print(f"SKIP  {missing}  (file not found)")
            continue
        checked += 1
        failures.extend(_check(current, baseline, metrics,
                               args.factor, width))

    if not checked:
        print("no benchmark output found to check", file=sys.stderr)
        return 1

    # drift against our own recent history (same host, tighter signal)
    if os.path.exists(args.history):
        entries = load_history(args.history)
        wanted = ([("perf", s, k) for s, k in METRICS]
                  + [("scale", s, k) for s, k in SCALE_METRICS])
        trends = detect_trends(entries, wanted,
                               window=args.trend_window,
                               factor=args.factor)
        for t in trends:
            if not t["regressed"]:
                continue
            name = f"{t['source']}:{t['section']}.{t['field']}"
            tag = "FAIL" if args.trend_strict else "WARN"
            print(f"{tag}  trend regression in {name}: latest "
                  f"{t['latest']:.4f} vs recent median "
                  f"{t['baseline_median']:.4f} over {t['runs']} run(s)")
            if args.trend_strict:
                failures.append(f"trend:{name}")
    if failures:
        print(f"\nperformance regression (> {args.factor:g}x) in: "
              + ", ".join(failures), file=sys.stderr)
        return 1
    print(f"\nno metric regressed by more than {args.factor:g}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
