"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``platforms``
    List the simulated machine presets.
``sweep``
    Run the overlap micro-benchmark for every implementation of an
    operation and print the Fig.-2-style bar chart.
``tune``
    Run ADCL on one scenario and print the learning trace + decision.
``fft``
    Run the 3-D FFT application kernel and compare methods.
``serve``
    Run the tuning knowledge daemon (crash-safe shared decision store;
    ``tune --serve`` / ``sweep --serve`` consult it).
``verify-guidelines``
    Verify tuned decisions against performance guidelines (exit 0
    compliant / 2 violations found / 1 harness error).
``report``
    Summarize/validate a recorded trace; ``--critical-path`` appends
    the blame attribution and dominant dependency chain.
``trace-merge``
    Stitch per-process traces (fabric workers, master, daemon) into
    one Perfetto document correlated by run id.
``top``
    Scrape ``--telemetry`` endpoints and render live queue depth,
    lease states, cache hit rates and breaker states.

Examples
--------
::

    python -m repro platforms
    python -m repro sweep --platform whale_tcp --nprocs 32 --nbytes 128KB
    python -m repro tune --selector heuristic --operation bcast
    python -m repro fft --platform crill --nprocs 48 --n 480
    python -m repro serve --socket /tmp/tuning.sock --data-dir /tmp/kb
    python -m repro tune --serve unix:/tmp/tuning.sock
    python -m repro verify-guidelines --platforms whale --fuzz 20 --seed 7
    python -m repro verify-guidelines --recheck tests/guidelines/scenarios
    python -m repro report trace.json --critical-path
    python -m repro trace-merge merged.json master=sweep.json w0=t0.json
    python -m repro top tcp:127.0.0.1:9460 --count 5
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Optional, Sequence

try:
    import resource
except ImportError:  # pragma: no cover - not available on Windows
    resource = None

from .adcl.checkpoint import CheckpointStore
from .adcl.request import SELECTOR_NAMES
from .adcl.resilience import ULFM, Resilience
from .apps.fft import FFT_METHODS, PATTERNS, FFTConfig
from .bench import (
    OPERATION_KINDS,
    OverlapConfig,
    ResultCache,
    fft_methods,
    format_bars,
    format_table,
    function_set_for,
    run_overlap,
    sweep_implementations,
)
from .errors import FaultError
from .nbc.schedule import schedule_cache_stats
from .obs import (
    TraceRecorder,
    attach_explanations,
    build_trace_doc,
    correlation_id,
    dump_trace,
    install,
    merge_snapshots,
    render_report,
)
from .obs.report import validate_or_errors
from .serve.core import REQUEST_DEFAULTS
from .sim import FaultPlan, available_platforms, get_platform
from .units import fmt_time, parse_size

__all__ = ["main", "build_parser"]


def _parse_fault_plan(spec: str) -> FaultPlan:
    try:
        return FaultPlan.parse(spec)
    except Exception as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_crashes(spec: str) -> tuple:
    """Parse ``--crash``: comma-separated ``RANK@T[:RESPAWN]``, each the
    value of one ``crash=`` clause of the ``--faults`` mini-language."""
    plan = _parse_fault_plan(",".join(
        f"crash={c.strip()}" for c in spec.split(",") if c.strip()))
    if not plan.crashes:
        raise argparse.ArgumentTypeError("empty --crash specification")
    return plan.crashes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Auto-tuning non-blocking collectives (paper reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("platforms", help="list simulated machine presets")

    # the scenario flags default to the tuning service's request
    # defaults, so a flag-less `tune --serve` asks for the default request
    defaults = REQUEST_DEFAULTS

    def common(p):
        p.add_argument("--platform", default=defaults["platform"],
                       help="machine preset (see `platforms`)")
        p.add_argument("--nprocs", type=int, default=defaults["nprocs"])
        p.add_argument("--nbytes", type=parse_size,
                       default=defaults["nbytes"],
                       help="message size, e.g. 1KB / 128KB / 2MB")
        p.add_argument("--compute", type=float,
                       default=defaults["compute_total"],
                       help="total loop compute seconds (paper convention)")
        p.add_argument("--loop-iterations", type=int,
                       default=defaults["paper_iterations"],
                       help="paper loop length the compute is spread over")
        p.add_argument("--iterations", type=int,
                       default=defaults["iterations"],
                       help="iterations actually simulated")
        p.add_argument("--nprogress", type=int, default=defaults["nprogress"])
        p.add_argument("--operation", default=defaults["operation"],
                       choices=sorted(OPERATION_KINDS))
        p.add_argument("--faults", type=_parse_fault_plan, default=None,
                       metavar="SPEC",
                       help="fault-injection plan, e.g. "
                            "'drop=0.01@0.1:0.5,degrade=0:1:4:4,"
                            "straggler=3:2.5,rail=0:1@0.2,seed=7'")

    def fabric_flags(p):
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="fabric worker processes to fan tasks out "
                            "over (1 = serial; results are bit-identical "
                            "either way)")
        p.add_argument("--result-cache", default=None, metavar="DIR",
                       help="keyed on-disk result cache directory; "
                            "repeated runs reuse finished tasks and every "
                            "completed task is checkpointed to it "
                            "immediately")
        p.add_argument("--resume", action="store_true",
                       help="continue a killed run from the last "
                            "completed task in --result-cache "
                            "(requires --result-cache)")
        p.add_argument("--task-timeout", type=float, default=60.0,
                       metavar="S",
                       help="fabric lease deadline per task in wall "
                            "seconds; an expired lease is reassigned to "
                            "another worker (default 60)")
        p.add_argument("--fabric-metrics", default=None, metavar="PATH",
                       help="write the fabric's telemetry (spawns, "
                            "respawns, lease expiries, steals) as a JSON "
                            "metrics snapshot")
        p.add_argument("--chaos-kill-workers", type=int, default=0,
                       metavar="N",
                       help="chaos harness: SIGKILL N random fabric "
                            "workers mid-run (results must stay "
                            "bit-identical; used by CI)")
        p.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for the chaos worker-killer RNG")

    def perf_flags(p, parallel: bool = True):
        if parallel:
            fabric_flags(p)
            p.add_argument("--telemetry", default=None, metavar="ENDPOINT",
                           help="serve a live read-only metrics exposition "
                                "for the sweep fabric at ENDPOINT "
                                "(unix:/path or tcp:HOST:PORT; scrape with "
                                "`repro top`)")
        p.add_argument("--stats", action="store_true",
                       help="print wall-clock time, events dispatched, "
                            "events/sec, schedule-cache hit rate and "
                            "fabric counters")

    def obs_flags(p):
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="record a structured event trace and write it "
                            "as Chrome/Perfetto trace-event JSON "
                            "(inspect with `repro report` or ui.perfetto.dev)")
        p.add_argument("--metrics", default=None, metavar="PATH",
                       help="write a metrics-registry snapshot (counters, "
                            "gauges, histograms) as JSON")

    def serve_flags(p):
        p.add_argument("--serve", default=None, metavar="ENDPOINT",
                       help="consult the tuning daemon at ENDPOINT "
                            "(unix:/path or tcp:HOST:PORT); when the "
                            "daemon is unreachable the client degrades "
                            "to a bit-identical local computation")
        p.add_argument("--serve-timeout", type=float, default=2.0,
                       metavar="S",
                       help="per-RPC socket timeout for --serve "
                            "(default 2.0)")

    p_sweep = sub.add_parser(
        "sweep", help="time every implementation of an operation")
    common(p_sweep)
    perf_flags(p_sweep)
    obs_flags(p_sweep)
    serve_flags(p_sweep)

    p_tune = sub.add_parser("tune", help="run the ADCL selection logic")
    common(p_tune)
    perf_flags(p_tune, parallel=False)
    obs_flags(p_tune)
    p_tune.add_argument("--selector", default=defaults["selector"],
                        choices=SELECTOR_NAMES)
    p_tune.add_argument("--evals", type=int, default=defaults["evals"],
                        help="measurements per candidate implementation")
    mode = p_tune.add_mutually_exclusive_group()
    mode.add_argument("--resilient", action="store_true",
                      help="tune under the resilience policy: watchdog + "
                           "restarts, candidate quarantine, drift re-tuning")
    mode.add_argument("--ft", action="store_true",
                      help="fault-tolerant tuning: survive rank crashes "
                           "in-simulation (revoke/agree/shrink recovery)")
    p_tune.add_argument("--crash", type=_parse_crashes, default=None,
                        metavar="SPEC",
                        help="rank crashes, e.g. '5@0.015' or "
                             "'5@0.015:1.0,2@0.02' (RANK@T[:RESPAWN], "
                             "comma-separated); combine with --ft to recover")
    p_tune.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="checkpoint store file for tuning state "
                             "(with --ft); restores from it when present")
    p_tune.add_argument("--checkpoint-every", type=int, default=0,
                        metavar="N",
                        help="snapshot tuning state every N completed "
                             "iterations (with --ft and --checkpoint)")
    p_tune.add_argument("--unreliable", action="store_true",
                        help="naive transport: a dropped message is gone "
                             "(no ack/timeout/retransmit)")
    p_tune.add_argument("--deadline", type=float, default=None,
                        help="virtual-time watchdog deadline per simulation "
                             "(seconds; only with --resilient)")
    serve_flags(p_tune)

    p_fft = sub.add_parser("fft", help="run the 3-D FFT application kernel")
    p_fft.add_argument("--platform", default="whale")
    p_fft.add_argument("--nprocs", type=int, default=16)
    p_fft.add_argument("--n", type=int, default=160, help="FFT size (N^3)")
    p_fft.add_argument("--pattern", default="window_tiled",
                       choices=tuple(PATTERNS))
    p_fft.add_argument("--iterations", type=int, default=12)
    p_fft.add_argument("--methods", nargs="+",
                       default=["libnbc", "adcl", "mpi"],
                       choices=FFT_METHODS)
    perf_flags(p_fft)

    p_serve = sub.add_parser(
        "serve", help="run the tuning knowledge daemon")
    listen = p_serve.add_mutually_exclusive_group(required=True)
    listen.add_argument("--socket", metavar="PATH",
                        help="listen on a unix socket at PATH")
    listen.add_argument("--host", metavar="HOST",
                        help="listen on TCP HOST (with --port)")
    p_serve.add_argument("--port", type=int, default=7453,
                         help="TCP port for --host (default 7453)")
    p_serve.add_argument("--data-dir", required=True, metavar="DIR",
                         help="knowledge-base directory (shard snapshots "
                              "+ write-ahead logs; survives SIGKILL)")
    p_serve.add_argument("--shards", type=int, default=4,
                         help="shard count (pinned in DIR/meta.json on "
                              "first use)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="compute threads running tuning simulations")
    p_serve.add_argument("--queue-capacity", type=int, default=16,
                         help="bounded admission queue; a full queue sheds "
                              "requests with an explicit busy reply")
    p_serve.add_argument("--request-timeout", type=float, default=30.0,
                         metavar="S",
                         help="server-side cap on one request's wait for "
                              "its computation")
    p_serve.add_argument("--checkpoint-every", type=int, default=32,
                         metavar="N",
                         help="committed decisions between automatic shard "
                              "checkpoints (0 = only on shutdown)")
    p_serve.add_argument("--metrics", default=None, metavar="PATH",
                         help="write the service metrics snapshot here on "
                              "shutdown")
    p_serve.add_argument("--audit", default=None, metavar="PATH",
                         help="write the service audit log (WAL "
                              "truncations, re-tune failures) here on "
                              "shutdown")
    p_serve.add_argument("--telemetry", default=None, metavar="ENDPOINT",
                         help="serve a live read-only Prometheus-style "
                              "metrics exposition at ENDPOINT "
                              "(unix:/path or tcp:HOST:PORT; scrape with "
                              "`repro top` or curl-style readers)")

    p_report = sub.add_parser(
        "report", help="summarize a trace recorded with --trace")
    p_report.add_argument("path", help="trace JSON file written by --trace")
    p_report.add_argument("--validate", action="store_true",
                          help="validate the trace against the schema and "
                               "exit (0 valid / 2 invalid)")
    p_report.add_argument("--timeline", action="store_true",
                          help="append an ASCII per-rank timeline")
    p_report.add_argument("--width", type=int, default=100,
                          help="timeline width in characters")
    p_report.add_argument("--critical-path", action="store_true",
                          help="append the critical-path profile: "
                               "per-candidate blame attribution and the "
                               "dominant dependency chain")
    p_report.add_argument("--overlay", default=None, metavar="PATH",
                          help="write a copy of the trace with the "
                               "critical-path flow arrows and decision "
                               "explanations attached (open in Perfetto)")

    p_merge = sub.add_parser(
        "trace-merge",
        help="stitch per-process trace files (workers, master, daemon) "
             "into one Perfetto document with disjoint pids")
    p_merge.add_argument("output", help="merged trace file to write")
    p_merge.add_argument("inputs", nargs="+", metavar="[LABEL=]PATH",
                         help="trace files in display order; an optional "
                              "LABEL= prefix names the source "
                              "(default: the file's basename)")

    p_top = sub.add_parser(
        "top", help="render live telemetry scraped from --telemetry "
                    "endpoints (serve daemon, sweep fabric)")
    p_top.add_argument("endpoints", nargs="+", metavar="ENDPOINT",
                       help="telemetry endpoints (unix:/path or "
                            "tcp:HOST:PORT)")
    p_top.add_argument("--count", type=int, default=1, metavar="N",
                       help="scrape N times (default 1; 0 = until "
                            "interrupted)")
    p_top.add_argument("--interval", type=float, default=1.0, metavar="S",
                       help="seconds between scrapes (default 1.0)")

    p_guide = sub.add_parser(
        "verify-guidelines",
        help="verify tuned decisions against performance guidelines "
             "(exit 0 compliant / 2 violations / 1 harness error)")
    p_guide.add_argument("--list-rules", action="store_true",
                         help="print the guideline rule catalogue and exit")
    p_guide.add_argument("--rules", default=None, metavar="IDS",
                         help="comma-separated rule IDs to check "
                              "(default: the full catalogue)")
    p_guide.add_argument("--platforms", default=None, metavar="NAMES",
                         help="comma-separated platform presets "
                              "(default: all shipped presets)")
    p_guide.add_argument("--operations", default="alltoall,bcast",
                         metavar="OPS",
                         help="comma-separated operations to probe")
    p_guide.add_argument("--selectors", default="brute_force",
                         metavar="NAMES",
                         help="comma-separated selection algorithms to "
                              "probe (brute_force/heuristic/factorial)")
    p_guide.add_argument("--tolerance", type=float, default=0.02,
                         help="relative margin a comparison may exceed its "
                              "bound by before it violates (default 0.02)")
    p_guide.add_argument("--fuzz", type=int, default=0, metavar="N",
                         help="check N randomly drawn probe geometries "
                              "instead of the fixed preset matrix")
    p_guide.add_argument("--seed", type=int, default=0,
                         help="fuzzer seed; the same seed reproduces the "
                              "same probes and byte-identical defect "
                              "reports")
    p_guide.add_argument("--max-nbytes", type=parse_size, default="256KB",
                         metavar="SIZE",
                         help="largest message size the fuzzer draws "
                              "(default 256KB)")
    fabric_flags(p_guide)
    p_guide.add_argument("--defects", default=None, metavar="PATH",
                         help="write the machine-readable defect reports "
                              "here (deterministic bytes)")
    p_guide.add_argument("--audit", default=None, metavar="PATH",
                         help="write a trace document whose audit log "
                              "carries the defect reports (validate with "
                              "`repro report --validate`)")
    p_guide.add_argument("--export-scenarios", default=None, metavar="DIR",
                         help="export each (minimized) defect as a "
                              "regression scenario JSON under DIR")
    p_guide.add_argument("--no-minimize", action="store_true",
                         help="report violations at their original probes "
                              "instead of greedily shrinking them first")
    p_guide.add_argument("--recheck", default=None, metavar="DIR",
                         help="re-run the regression scenarios under DIR "
                              "and verify each reproduces its recorded "
                              "defect fingerprint (0 all reproduce / 2 "
                              "drift)")
    return parser


def _print_stats(wall: float, events: int, cache: Optional[ResultCache],
                 engine: Optional[dict] = None,
                 fabric=None) -> None:
    """The ``--stats`` footer: wall-clock + peak memory + throughput +
    cache efficacy + (for fabric runs) the metrics-registry fabric
    counters."""
    rate = events / wall if wall > 0 else float("inf")
    print(f"\nwall-clock            {wall:.3f} s")
    if resource is not None:
        # ru_maxrss is in KiB on Linux and in bytes on macOS
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak /= 1024 * 1024 if sys.platform == "darwin" else 1024
        print(f"peak RSS              {peak:.1f} MiB")
    print(f"events dispatched     {events}")
    print(f"events/sec            {rate:,.0f}")
    if engine:
        dispatched = engine.get("events_dispatched", 0)
        print(f"engine loop           {dispatched} "
              f"dispatched, {engine.get('pending', 0)} pending at exit")
        batched = engine.get("batched_syscalls", 0)
        if batched:
            print(f"fast lane             {batched} syscalls batched "
                  f"({batched / max(dispatched, 1):.1%} of dispatched "
                  f"events)")
        coalesced = engine.get("coalesced", 0)
        if coalesced:
            # same-instant joins: events popped with another's heap entry
            evented = dispatched - batched
            print(f"heap joins            {evented} events shared "
                  f"{evented - coalesced} heap entries")
    sstats = schedule_cache_stats()
    families = ", ".join(f"{name} {n}"
                         for name, n in sstats["families"].items())
    print(f"schedule cache        hit rate {sstats['hit_rate']:.1%} "
          f"({sstats['hits']} hits / {sstats['misses']} misses, "
          f"{sstats['entries']} entries"
          + (f": {families})" if families else ")"))
    if cache is not None:
        cstats = cache.stats()
        print(f"result cache          hit rate {cstats['hit_rate']:.1%} "
              f"({cstats['hits']} hits / {cstats['misses']} misses) "
              f"-> {cstats['directory']}")
    if fabric is not None:
        f = fabric.stats()

        def c(name):
            return f.get(f"fabric.{name}", 0)

        total = c("tasks.total") or 1
        print(f"sweep fabric          {c('workers.spawned')} workers "
              f"spawned ({c('workers.respawned')} respawned, "
              f"{c('workers.died')} died), "
              f"{c('leases.expired')} leases expired, "
              f"{c('tasks.stolen')} tasks stolen, "
              f"{c('tasks.quarantined')} quarantined")
        print(f"fabric resume         {c('resume.hits')}/{total} tasks "
              f"served from the checkpoint "
              f"({c('resume.hits') / total:.1%} hit rate)"
              + (", serial fallback engaged"
                 if c("fallback.serial") else ""))


def _write_obs_outputs(args, scenario: str, tasks, audit, metrics,
                       correlation: Optional[str] = None,
                       explain: bool = False) -> None:
    """Write the ``--trace`` / ``--metrics`` files a command requested.

    ``correlation`` stamps the trace envelope so ``trace-merge`` can
    tie this document to daemon/fabric traces of the same run;
    ``explain`` runs the critical-path profiler over the finished
    document and appends the deterministic "why this candidate
    won/lost" entries to its audit log.
    """
    if args.trace:
        doc = build_trace_doc(tasks, scenario=scenario, audit=audit,
                              metrics=metrics, correlation=correlation)
        if explain:
            attach_explanations(doc)
        dump_trace(doc, args.trace)
        print(f"trace written to {args.trace}  "
              f"(inspect: `python -m repro report {args.trace}`)")
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump({"scenario": scenario, "metrics": metrics}, fh,
                      sort_keys=True, indent=2)
            fh.write("\n")
        print(f"metrics written to {args.metrics}")


def _overlap_config(args) -> OverlapConfig:
    faults = args.faults
    crashes = getattr(args, "crash", None)
    if crashes:
        base = faults if faults is not None else FaultPlan()
        try:
            faults = dataclasses.replace(base, crashes=base.crashes + crashes)
        except FaultError as exc:
            print(f"error: --crash does not combine with --faults: {exc}",
                  file=sys.stderr)
            raise SystemExit(2)
    return OverlapConfig(
        platform=args.platform,
        nprocs=args.nprocs,
        operation=args.operation,
        nbytes=args.nbytes,
        compute_total=args.compute,
        paper_iterations=args.loop_iterations,
        iterations=args.iterations,
        nprogress=args.nprogress,
        faults=faults,
        reliable=not getattr(args, "unreliable", False),
    )


def cmd_platforms() -> int:
    rows = []
    for name in available_platforms():
        plat = get_platform(name)
        rows.append([
            name,
            plat.nnodes,
            plat.cores_per_node,
            f"{plat.params.inter.beta / 1e9:.2f} GB/s",
            f"{plat.params.inter.alpha * 1e6:.0f} us",
            plat.description,
        ])
    print(format_table(
        ["name", "nodes", "cores/node", "inter bw", "latency", "description"],
        rows, title="simulated platform presets",
    ))
    return 0


def _fabric_config(args, cache, correlation: str = ""):
    """Build the sweep-fabric configuration for a parallel command.

    Returns ``None`` for serial runs.  ``--resume`` is only meaningful
    against a checkpoint, so it demands ``--result-cache``.
    """
    from .bench.fabric import FabricConfig

    if getattr(args, "resume", False) and cache is None:
        print("error: --resume continues a sweep from its checkpoint; "
              "pass the sweep's --result-cache DIR as well",
              file=sys.stderr)
        raise SystemExit(2)  # argparse's usage-error convention
    if args.jobs <= 1:
        return None
    defects = (os.path.join(args.result_cache, "fabric_defects.json")
               if args.result_cache else None)
    return FabricConfig(
        task_timeout=args.task_timeout,
        chaos_kills=getattr(args, "chaos_kill_workers", 0),
        chaos_seed=getattr(args, "chaos_seed", 0),
        defects_path=defects,
        correlation=correlation,
        telemetry_endpoint=getattr(args, "telemetry", None),
    )


def _finish_fabric(args, fabric) -> None:
    """Post-run fabric outputs: the --fabric-metrics snapshot."""
    if fabric is not None and getattr(args, "fabric_metrics", None):
        fabric.metrics.dump(args.fabric_metrics, scope="sweep-fabric")
        print(f"fabric metrics written to {args.fabric_metrics}")


def _serve_request(cfg: OverlapConfig, args) -> dict:
    """The normalized tuning-service request for scenario ``cfg``."""
    from .serve.core import normalize_request

    req = {k: v for k, v in vars(cfg).items() if k in REQUEST_DEFAULTS}
    req.update({k: getattr(args, k) for k in ("selector", "evals")
                if hasattr(args, k)})
    return normalize_request(req)


def cmd_serve(args) -> int:
    from .serve import ServeConfig, TuningServer

    endpoint = (f"unix:{args.socket}" if args.socket
                else f"tcp:{args.host}:{args.port}")
    server = TuningServer(ServeConfig(
        endpoint=endpoint,
        data_dir=args.data_dir,
        shards=args.shards,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        request_timeout=args.request_timeout,
        checkpoint_every=args.checkpoint_every,
        metrics_path=args.metrics,
        audit_path=args.audit,
        telemetry_endpoint=args.telemetry,
    ))
    stats = server.kb.stats()
    print(f"tuning daemon on {endpoint}")
    if args.telemetry:
        print(f"telemetry exposition on {args.telemetry} "
              f"(scrape: `python -m repro top {args.telemetry}`)")
    print(f"knowledge base: {args.data_dir} "
          f"({stats['nshards']} shards, {stats['records']} records)")
    if stats["replayed_records"] or stats["truncated_bytes"]:
        print(f"crash recovery: replayed {stats['replayed_records']} WAL "
              f"records, truncated {stats['truncated_bytes']} torn bytes")
    check = server.guideline_check
    print(f"guideline cross-check: {check['records']} stored decision(s), "
          f"{check['violations']} monotonicity violation(s)"
          + (" — see the audit log" if check["violations"] else ""))
    print("serving until SIGTERM/SIGINT ...")
    server.serve_forever()
    print(f"drained and checkpointed; {len(server.kb)} records on disk")
    return 0


def cmd_tune_serve(args) -> int:
    """``tune --serve``: ask the daemon, degrade locally if it is gone."""
    from .serve import TuningClient
    from .serve.core import history_key

    for flag in ("resilient", "ft"):
        if getattr(args, flag):
            print(f"error: --serve cannot be combined with --{flag} "
                  f"(the service computes plain scenarios only)",
                  file=sys.stderr)
            raise SystemExit(2)
    if args.crash or args.faults or args.trace or args.metrics:
        print("error: --serve cannot be combined with --crash/--faults/"
              "--trace/--metrics (the computation may happen in the "
              "daemon's process)", file=sys.stderr)
        raise SystemExit(2)
    cfg = _overlap_config(args)
    req = _serve_request(cfg, args)
    corr = correlation_id(f"tune-serve|{cfg.describe()}|{args.selector}")
    client = TuningClient(args.serve, timeout=args.serve_timeout,
                          correlation=corr)
    print(f"tuning {cfg.describe()} via the tuning service at {args.serve} "
          f"[corr {corr}]")
    print(f"network budget before degrading: {client.budget():.1f}s")
    warm = client.warm(req)
    if warm is not None and warm.get("decision"):
        geo = warm.get("request") or {}
        print(f"warm hint: nearest geometry P{geo.get('nprocs')}"
              f":B{geo.get('nbytes')} decided "
              f"{warm['decision'].get('winner')!r}")
    t0 = time.perf_counter()
    record = client.decide(req)
    wall = time.perf_counter() - t0
    decision = record["decision"]
    if record["source"] == "service":
        print(f"answered by the service in {wall:.2f}s "
              f"(origin: {record.get('service_source')}, "
              f"version {record.get('version')})")
        # feed the drift detector a baseline-consistent measurement so
        # the daemon has a report stream to compare future runs against
        client.report(req, decision["mean_after_learning"])
    else:
        print(f"service unavailable — computed locally in {wall:.2f}s "
              f"(bit-identical to the daemon's answer)")
    print(f"history key: {history_key(req)}")
    print(f"\ndecision at iteration {decision['decided_at']}: "
          f"{decision['winner']!r}")
    print(f"steady-state iteration time "
          f"{fmt_time(decision['mean_after_learning'])}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _overlap_config(args)
    fnset = function_set_for(args.operation)
    cache = ResultCache(args.result_cache) if args.result_cache else None
    # the correlation id is a pure function of the scenario (or
    # inherited from REPRO_CORR_ID), so serial and fabric sweeps mint
    # the same id and their trace docs stay byte-identical
    corr = correlation_id(f"sweep|{cfg.describe()}")
    fabric = _fabric_config(args, cache, correlation=corr)
    trace_on = bool(args.trace or args.metrics)
    where = f" ({args.jobs} fabric workers)" if args.jobs > 1 else ""
    serve_client = serve_key = None
    if args.serve:
        from .serve import TuningClient
        from .serve.core import history_key

        req = _serve_request(cfg, args)
        serve_client = TuningClient(args.serve, timeout=args.serve_timeout,
                                    correlation=corr)
        serve_key = f"adcl:{history_key(req)}"
        prior = serve_client.lookup(serve_key)
        if prior is not None and prior.get("decision"):
            print(f"knowledge base already holds "
                  f"{prior['decision'].get('winner')!r} for this scenario "
                  f"(version {prior.get('version')}); sweeping anyway")
    print(f"sweeping {len(fnset)} implementations of {cfg.describe()}{where} ...")
    t0 = time.perf_counter()
    rows = sweep_implementations(cfg, jobs=args.jobs, cache=cache,
                                 trace=trace_on, fabric=fabric)
    wall = time.perf_counter() - t0
    if serve_client is not None:
        best = min(rows, key=lambda row: row["mean_iteration"])
        pushed = serve_client.record(
            serve_key, {"winner": best["name"], "decided_at": 0})
        print(f"winner {best['name']!r} "
              + (f"recorded in the knowledge base as {serve_key}"
                 if pushed else
                 "NOT recorded (tuning service unreachable)"))
    if args.resume and cache is not None:
        print(f"resumed: {cache.hits}/{len(rows)} tasks served from the "
              f"checkpoint in {cache.directory}")
    times = {row["name"]: row["mean_iteration"] for row in rows}
    print()
    print(format_bars(times, title="mean iteration time per implementation"))
    if trace_on:
        # one Chrome process per implementation, assembled in task order
        # so serial/parallel/cached sweeps produce byte-identical docs
        _write_obs_outputs(
            args, cfg.describe(),
            [(row["name"], row["trace"], row["worlds"]) for row in rows],
            audit=None,
            metrics=merge_snapshots([row["metrics"] for row in rows]),
            correlation=corr,
        )
    if args.stats:
        engine: dict = {}
        for row in rows:
            for k, v in (row.get("engine_stats") or {}).items():
                engine[k] = engine.get(k, 0) + v
        _print_stats(wall, sum(row["events"] for row in rows), cache,
                     engine or None, fabric=fabric)
    _finish_fabric(args, fabric)
    return 0


def _reject_ignored_tune_flags(args) -> None:
    """Exit 2 on a ``tune`` flag the chosen driver mode would ignore."""
    if args.deadline is not None and not args.resilient:
        problem = ("--deadline needs --resilient (only the resilient "
                   "driver runs a watchdog)")
    elif (args.checkpoint is not None or args.checkpoint_every) \
            and not args.ft:
        problem = ("--checkpoint/--checkpoint-every need --ft (only the "
                   "fault-tolerant driver checkpoints tuning state)")
    elif args.checkpoint_every and args.checkpoint is None:
        problem = ("--checkpoint-every needs --checkpoint (the store the "
                   "snapshots go to)")
    else:
        return
    print(f"error: {problem}", file=sys.stderr)
    raise SystemExit(2)


def cmd_tune(args) -> int:
    _reject_ignored_tune_flags(args)
    if args.serve:
        return cmd_tune_serve(args)
    cfg = _overlap_config(args)
    fnset = function_set_for(args.operation)
    recovery = None
    if args.resilient:
        recovery = Resilience(deadline=args.deadline)
    elif args.ft:
        store = (CheckpointStore(args.checkpoint)
                 if args.checkpoint is not None else None)
        recovery = ULFM(checkpoint=store,
                        checkpoint_every=args.checkpoint_every)
    recorder = prev = None
    if args.trace or args.metrics:
        recorder = TraceRecorder()
        prev = install(recorder)
    t0 = time.perf_counter()
    try:
        res = run_overlap(cfg, selector=args.selector,
                          evals_per_function=args.evals, recovery=recovery)
    finally:
        if recorder is not None:
            install(prev)
    wall = time.perf_counter() - t0
    mode = ("resilient " if args.resilient
            else "fault-tolerant " if args.ft else "")
    print(f"tuning {cfg.describe()} with the {mode}{args.selector} selector")
    if cfg.faults is not None and not cfg.faults.empty:
        print(f"faults: {cfg.faults.describe()}")
    print()
    for rec, name in zip(res.records, res.fn_names):
        phase = "learn " if rec.learning else "steady"
        print(f"  iter {rec.iteration:>3} [{phase}] {name:<22} "
              f"{fmt_time(rec.seconds)}")
    if args.resilient:
        for idx, reason in res.quarantine_log:
            print(f"\nquarantined {fnset[idx].name!r}: {reason.splitlines()[0]}")
        if res.restarts:
            print(f"restarts after aborted measurements: {res.restarts}")
        if res.retunes:
            print(f"drift-triggered re-tunes: {res.retunes}")
        if res.messages_dropped:
            print(f"messages dropped: {res.messages_dropped}, "
                  f"retransmitted: {res.retransmits}")
    if args.ft:
        if res.restored_epoch:
            print(f"\nwarm start: restored tuning state at epoch "
                  f"{res.restored_epoch} from {args.checkpoint}")
        if res.dead:
            print(f"\nrank crashes: {res.dead}  "
                  f"repairs: {res.repairs}  survivors: {res.survivors}")
            agreed = sorted({w or "-" for w in res.agreed_winner.values()})
            print(f"agreed winner on all {len(res.agreed_winner)} "
                  f"survivors: {', '.join(agreed)}")
        if res.checkpoints_written:
            print(f"checkpoints written: {res.checkpoints_written} "
                  f"-> {args.checkpoint}")
    if recorder is not None:
        _write_obs_outputs(
            args, cfg.describe(),
            [(f"tune:{cfg.operation}", recorder.export_events(),
              recorder.worlds)],
            audit=recorder.audit.to_json(),
            metrics=recorder.metrics.snapshot(),
            correlation=correlation_id(
                f"tune|{cfg.describe()}|{args.selector}"),
            explain=True,
        )
    if args.stats:
        _print_stats(wall, res.events, None, res.engine_stats)
    if res.winner is None:
        print("\nno decision yet — increase --iterations")
        return 1
    print(f"\ndecision at iteration {res.decided_at}: {res.winner!r}")
    print(f"steady-state iteration time {fmt_time(res.mean_after_learning())}")
    return 0


def cmd_fft(args) -> int:
    print(f"3-D FFT N={args.n}^3, P={args.nprocs} on {args.platform}, "
          f"pattern={args.pattern}\n")
    cfg = FFTConfig(
        n=args.n, nprocs=args.nprocs, platform=args.platform,
        pattern=args.pattern, iterations=args.iterations,
        evals_per_function=2,
    )
    cache = ResultCache(args.result_cache) if args.result_cache else None
    fabric = _fabric_config(args, cache)
    t0 = time.perf_counter()
    summaries = fft_methods(cfg, args.methods, jobs=args.jobs, cache=cache,
                            fabric=fabric)
    wall = time.perf_counter() - t0
    if args.resume and cache is not None:
        print(f"resumed: {cache.hits}/{len(summaries)} tasks served from "
              f"the checkpoint in {cache.directory}")
    rows = [
        [
            row["method"],
            fmt_time(row["mean_iteration"]),
            fmt_time(row["mean_after_learning"]),
            row["winner"] or "-",
        ]
        for row in summaries
    ]
    print(format_table(
        ["method", "mean iteration", "steady state", "selected"],
        rows,
    ))
    if args.stats:
        _print_stats(wall, sum(row["events"] for row in summaries), cache,
                     fabric=fabric)
    _finish_fabric(args, fabric)
    return 0


def _csv(value: Optional[str]) -> Optional[list]:
    """Split a comma-separated CLI value; None passes through."""
    if value is None:
        return None
    return [item.strip() for item in value.split(",") if item.strip()]


def _guideline_recheck(args) -> int:
    """``verify-guidelines --recheck``: replay the regression corpus."""
    from .guidelines import GuidelineEngine, discover_scenarios, \
        recheck_scenario

    scenarios = discover_scenarios(args.recheck)
    if not scenarios:
        print(f"no regression scenarios under {args.recheck}")
        return 0
    engine = GuidelineEngine()
    drifted = 0
    for scenario in scenarios:
        result = recheck_scenario(scenario, engine=engine)
        name = os.path.basename(scenario["path"])
        if result["reproduced"]:
            print(f"  {name}: reproduced")
        else:
            drifted += 1
            actual = ", ".join(fp[:12] for fp in result["actual"]) or "none"
            print(f"  {name}: DRIFTED (expected "
                  f"{result['expected'][:12]}, got {actual})")
    print(f"\n{len(scenarios)} scenario(s), {drifted} drifted")
    if drifted:
        print("a drifted scenario means the violation stopped reproducing "
              "bit-identically: either the defect was fixed (retire the "
              "scenario) or the evidence changed shape (investigate)")
    return 2 if drifted else 0


def cmd_verify_guidelines(args) -> int:
    from .guidelines import (
        RULES,
        GuidelineEngine,
        defect_from_violation,
        fuzz_probes,
        minimize_violation,
        preset_probes,
        record_defects,
        rules_by_id,
        run_campaign,
        save_scenario,
        scenario_from_defect,
        write_defect_reports,
    )
    from .obs.audit import AuditLog

    if args.list_rules:
        print("performance-guideline rule catalogue:")
        for rule in RULES:
            print(f"  {rule.describe()}")
        return 0

    try:
        rule_ids = _csv(args.rules)
        if rule_ids is not None:
            rules_by_id(rule_ids)  # unknown IDs are harness errors

        if args.recheck:
            return _guideline_recheck(args)

        platforms = _csv(args.platforms) or available_platforms()
        operations = _csv(args.operations) or ["alltoall", "bcast"]
        selectors = _csv(args.selectors) or ["brute_force"]
        cache = ResultCache(args.result_cache) if args.result_cache else None
        fabric = _fabric_config(args, cache)

        if args.fuzz > 0:
            probes = fuzz_probes(
                args.fuzz, seed=args.seed, platforms=platforms,
                operations=operations, selectors=selectors,
                tolerance=args.tolerance, max_nbytes=args.max_nbytes)
            what = f"{len(probes)} fuzzed probes (seed {args.seed})"
        else:
            probes = []
            for selector in selectors:
                probes.extend(preset_probes(
                    platforms, operations, tolerance=args.tolerance,
                    selector=selector))
            what = f"the {len(probes)}-probe preset matrix"
        nrules = len(rule_ids) if rule_ids is not None else len(RULES)
        print(f"verifying {nrules} guideline rule(s) over {what} "
              f"[{', '.join(platforms)}]")

        campaign = run_campaign(probes, rules=rule_ids, jobs=args.jobs,
                                cache=cache, fabric=fabric)
        violations = campaign["violations"]

        reports = []
        if violations:
            engine = GuidelineEngine()
            seen = set()
            for violation in violations:
                if not args.no_minimize:
                    violation = minimize_violation(violation, engine=engine)
                report = defect_from_violation(violation)
                if report["fingerprint"] in seen:
                    continue  # distinct probes can shrink to one defect
                seen.add(report["fingerprint"])
                reports.append(report)

        print(f"checked {campaign['checked']} probe(s): "
              f"{len(reports)} defect(s)")
        for report in reports:
            print(f"  [{report['rule']}] {report['reason']}")
            print(f"    fingerprint {report['fingerprint'][:12]}  "
                  f"probe {report['key'][len('guideline:'):]}")

        if args.defects:
            write_defect_reports(args.defects, reports)
            print(f"defect reports written to {args.defects}")
        if args.audit:
            audit = AuditLog()
            record_defects(audit, reports)
            doc = build_trace_doc([], scenario="verify-guidelines",
                                  audit=audit.to_json())
            dump_trace(doc, args.audit)
            print(f"audit trace written to {args.audit}  "
                  f"(validate: `python -m repro report --validate "
                  f"{args.audit}`)")
        if args.export_scenarios:
            for report in reports:
                path = save_scenario(args.export_scenarios,
                                     scenario_from_defect(report))
                print(f"regression scenario exported to {path}")
        _finish_fabric(args, fabric)
        return 2 if reports else 0
    except SystemExit:
        raise
    except Exception as exc:  # harness failure, not a finding
        print(f"guideline harness error: {exc}", file=sys.stderr)
        return 1


def cmd_report(args) -> int:
    doc, errors = validate_or_errors(args.path)
    if errors:
        print(f"{args.path}: INVALID trace ({len(errors)} error(s))")
        for err in errors:
            print(f"  - {err}")
        return 2
    if args.validate:
        print(f"{args.path}: valid trace "
              f"(schema {doc['repro']['schema']}, "
              f"{len(doc.get('traceEvents', []))} events)")
        return 0
    print(render_report(doc, timeline=args.timeline, width=args.width,
                        critical_path=args.critical_path))
    if args.overlay:
        from .obs import overlay_critical_path

        dump_trace(overlay_critical_path(doc), args.overlay)
        print(f"\ncritical-path overlay written to {args.overlay}  "
              f"(open in ui.perfetto.dev; the flow arrows trace the "
              f"dominant chain)")
    return 0


def cmd_trace_merge(args) -> int:
    """``trace-merge``: stitch per-process traces into one document."""
    from .obs.schema import validate_trace
    from .obs.telemetry import merge_trace_docs

    sources = []
    for spec in args.inputs:
        label, sep, path = spec.partition("=")
        if not sep:
            label, path = "", spec
        if not label:
            label = os.path.basename(path)
            if label.endswith(".json"):
                label = label[: -len(".json")]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read trace {path!r}: {exc}",
                  file=sys.stderr)
            return 2
        sources.append((label, doc))
    merged = merge_trace_docs(sources)
    try:
        validate_trace(merged)
    except Exception as exc:
        print(f"error: merged document is not a valid trace: {exc}",
              file=sys.stderr)
        return 2
    dump_trace(merged, args.output)
    env = merged["repro"]
    corr = env.get("correlation")
    print(f"merged {len(sources)} trace(s) -> {args.output}  "
          f"({len(merged.get('traceEvents', []))} events, "
          f"{len(env.get('sources', []))} sources"
          + (f", correlation {corr}" if corr else "") + ")")
    for src in env.get("sources", []):
        note = (f" [corr {src['correlation']}]"
                if src.get("correlation") else "")
        lo = src["pid_offset"]
        hi = lo + src["pids"] - 1
        print(f"  {src['label']}: pids {lo}..{hi}{note}")
    if not corr and len(sources) > 1:
        print("note: sources carry differing (or missing) correlation "
              "ids — stitched by position, not by run identity")
    return 0


def _render_top(endpoint: str, parsed: dict) -> str:
    """One scrape, rendered as a compact live-telemetry panel."""
    scope = ""
    counters, gauges, histograms = [], [], []
    for name, metric in sorted(parsed.items()):
        if name == "_scope":
            scope = metric["value"]
        elif metric["type"] == "counter":
            counters.append((name, metric["value"]))
        elif metric["type"] == "gauge":
            gauges.append((name, metric["value"]))
        elif metric["type"] == "histogram":
            histograms.append((name, metric))
    lines = [f"== {endpoint}" + (f"  [{scope}]" if scope else "")]
    for name, value in gauges:
        lines.append(f"  {name:<44} {value:>12g}")
    for name, value in counters:
        lines.append(f"  {name:<44} {value:>12g}  (total)")
    for name, h in histograms:
        total = h.get("total", 0)
        mean = (h.get("sum", 0.0) / total) if total else 0.0
        lines.append(f"  {name:<44} {total:>12g}  (mean {mean:g})")
    if len(lines) == 1:
        lines.append("  (no metrics exposed yet)")
    return "\n".join(lines)


def cmd_top(args) -> int:
    """``top``: scrape telemetry endpoints and render them."""
    from .obs.telemetry import parse_exposition, scrape

    rounds = 0
    failures = 0
    while True:
        rounds += 1
        panels = []
        for endpoint in args.endpoints:
            try:
                text = scrape(endpoint)
            except OSError as exc:
                failures += 1
                panels.append(f"== {endpoint}\n  unreachable: {exc}")
                continue
            panels.append(_render_top(endpoint, parse_exposition(text)))
        print("\n".join(panels))
        if args.count and rounds >= args.count:
            break
        print()
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            break
    # every endpoint unreachable on every round = operational error
    return 1 if failures == rounds * len(args.endpoints) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "platforms":
        return cmd_platforms()
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "tune":
        return cmd_tune(args)
    if args.command == "fft":
        return cmd_fft(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "trace-merge":
        return cmd_trace_merge(args)
    if args.command == "top":
        return cmd_top(args)
    if args.command == "verify-guidelines":
        return cmd_verify_guidelines(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
