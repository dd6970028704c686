"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import _overlap_config, _serve_request, build_parser, main
from repro.serve.core import normalize_request


def test_platforms_command(capsys):
    assert main(["platforms"]) == 0
    out = capsys.readouterr().out
    for name in ("crill", "whale", "whale_tcp", "bluegene_p"):
        assert name in out


def test_sweep_command(capsys):
    rc = main([
        "sweep", "--platform", "whale", "--nprocs", "8",
        "--nbytes", "1KB", "--iterations", "4",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "linear" in out and "pairwise" in out and "best" in out


def test_tune_command(capsys):
    rc = main([
        "tune", "--platform", "whale", "--nprocs", "8",
        "--nbytes", "1KB", "--iterations", "12", "--evals", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "decision at iteration" in out


def test_tune_without_enough_iterations_reports_failure(capsys):
    rc = main([
        "tune", "--nprocs", "4", "--nbytes", "1KB",
        "--iterations", "3", "--evals", "5",
    ])
    assert rc == 1
    assert "no decision yet" in capsys.readouterr().out


def test_fft_command(capsys):
    rc = main([
        "fft", "--platform", "whale", "--nprocs", "4", "--n", "16",
        "--pattern", "pipelined", "--iterations", "4",
        "--methods", "libnbc", "mpi",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "libnbc" in out and "mpi" in out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_nbytes_accepts_size_suffixes():
    args = build_parser().parse_args(["sweep", "--nbytes", "2MB"])
    assert args.nbytes == 2 * 1024 * 1024


FABRIC_FLAGS = {
    "--jobs": ("jobs", "3", 1, 3),
    "--result-cache": ("result_cache", "DIR", None, "DIR"),
    "--resume": ("resume", None, False, True),
    "--task-timeout": ("task_timeout", "2.5", 60.0, 2.5),
    "--fabric-metrics": ("fabric_metrics", "M.json", None, "M.json"),
    "--chaos-kill-workers": ("chaos_kill_workers", "2", 0, 2),
    "--chaos-seed": ("chaos_seed", "7", 0, 7),
}


@pytest.mark.parametrize("command", ["sweep", "fft", "verify-guidelines"])
def test_fabric_flags_shared_by_every_parallel_command(command):
    parser = build_parser()
    defaults = parser.parse_args([command])
    argv = [command]
    for flag, (_, value, _, _) in FABRIC_FLAGS.items():
        argv += [flag] if value is None else [flag, value]
    given = parser.parse_args(argv)
    for dest, _, default, parsed in FABRIC_FLAGS.values():
        assert getattr(defaults, dest) == default
        assert getattr(given, dest) == parsed
        assert type(getattr(given, dest)) is type(parsed)


def test_sweep_with_jobs_result_cache_and_stats(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    argv = [
        "sweep", "--platform", "whale", "--nprocs", "4",
        "--nbytes", "1KB", "--iterations", "4", "--operation", "bcast",
        "--jobs", "2", "--result-cache", cache_dir, "--stats",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "wall-clock" in first
    assert re.search(r"^peak RSS +\d+\.\d MiB$", first, re.MULTILINE)
    assert "events dispatched" in first
    assert "schedule cache" in first
    assert "result cache" in first

    # second run replays entirely from the result cache
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "hit rate 100.0%" in second.split("result cache")[1]


def test_tune_with_stats(capsys):
    rc = main([
        "tune", "--platform", "whale", "--nprocs", "8",
        "--nbytes", "1KB", "--iterations", "12", "--evals", "2",
        "--stats",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "decision at iteration" in out
    assert "events/sec" in out
    assert re.search(r"^peak RSS +\d+\.\d MiB$", out, re.MULTILINE)
    assert "engine loop" in out and "dispatched" in out
    # the schedule-cache line breaks its plans down per family
    cache_line = next(line for line in out.splitlines()
                      if line.startswith("schedule cache"))
    assert re.search(r"entries: .*\balltoall \d+", cache_line), cache_line


def test_tune_with_trace_metrics_and_report(capsys, tmp_path):
    import json

    trace = str(tmp_path / "trace.json")
    metrics = str(tmp_path / "metrics.json")
    rc = main([
        "tune", "--platform", "whale", "--nprocs", "8",
        "--nbytes", "1KB", "--iterations", "44", "--evals", "2",
        "--operation", "bcast", "--trace", trace, "--metrics", metrics,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"trace written to {trace}" in out
    assert f"metrics written to {metrics}" in out

    with open(trace, encoding="utf-8") as fh:
        doc = json.load(fh)
    from repro.obs import validate_trace
    assert validate_trace(doc) == []
    assert doc["repro"]["audit"], "trace must embed the decision audit"
    with open(metrics, encoding="utf-8") as fh:
        snap = json.load(fh)["metrics"]
    assert snap["sim.messages_posted"]["value"] > 0

    # the report subcommand renders the trace
    assert main(["report", trace]) == 0
    report = capsys.readouterr().out
    assert "overlap" in report
    assert "decision at iteration" in report
    assert "busy" in report

    # --validate succeeds on the fresh trace ...
    assert main(["report", trace, "--validate"]) == 0
    assert "valid trace" in capsys.readouterr().out

    # ... and rejects a corrupted one with rc 2
    doc["repro"]["schema"] = 999
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["report", str(bad), "--validate"]) == 2
    assert "schema version" in capsys.readouterr().out


def test_report_on_missing_file(capsys, tmp_path):
    assert main(["report", str(tmp_path / "nope.json")]) == 2
    assert "cannot load" in capsys.readouterr().out


def test_sweep_with_trace(capsys, tmp_path):
    import json

    trace = str(tmp_path / "sweep_trace.json")
    rc = main([
        "sweep", "--platform", "whale", "--nprocs", "4",
        "--nbytes", "1KB", "--iterations", "4", "--operation", "bcast",
        "--trace", trace,
    ])
    assert rc == 0
    assert f"trace written to {trace}" in capsys.readouterr().out
    with open(trace, encoding="utf-8") as fh:
        doc = json.load(fh)
    from repro.obs import validate_trace
    assert validate_trace(doc) == []
    # one trace process group per implementation
    labels = [w["label"] for w in doc["repro"]["worlds"]]
    assert len(labels) == len({lbl for lbl in labels})
    assert any("binomial" in lbl for lbl in labels)


def test_report_critical_path_and_overlay(capsys, tmp_path):
    import json

    trace = str(tmp_path / "trace.json")
    rc = main([
        "tune", "--platform", "whale", "--nprocs", "8",
        "--nbytes", "1KB", "--iterations", "44", "--evals", "2",
        "--operation", "bcast", "--trace", trace,
    ])
    assert rc == 0
    capsys.readouterr()

    assert main(["report", trace, "--critical-path"]) == 0
    out = capsys.readouterr().out
    assert "critical-path blame per candidate" in out
    assert "why the decision went this way:" in out
    assert "dominant chain of the slowest window" in out

    overlay = str(tmp_path / "overlay.json")
    assert main(["report", trace, "--critical-path",
                 "--overlay", overlay]) == 0
    capsys.readouterr()
    assert main(["report", overlay, "--validate"]) == 0

    # the tune trace already embeds the critpath explanations
    with open(trace, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert any(e.get("kind") == "explanation"
               and e.get("component") == "critpath"
               for e in doc["repro"]["audit"])
    assert doc["repro"].get("correlation", "").startswith("c")


def test_trace_merge_command(capsys, tmp_path):
    import json

    t1 = str(tmp_path / "a.json")
    t2 = str(tmp_path / "b.json")
    for path, op in ((t1, "bcast"), (t2, "alltoall")):
        assert main([
            "tune", "--platform", "whale", "--nprocs", "4",
            "--nbytes", "1KB", "--iterations", "8", "--evals", "1",
            "--operation", op, "--trace", path,
        ]) in (0, 1)
    capsys.readouterr()

    merged = str(tmp_path / "merged.json")
    assert main(["trace-merge", merged, f"first={t1}", t2]) == 0
    out = capsys.readouterr().out
    assert "merged 2 trace(s)" in out
    assert "first: pids" in out and "b: pids" in out

    assert main(["report", merged, "--validate"]) == 0
    with open(merged, encoding="utf-8") as fh:
        doc = json.load(fh)
    labels = [s["label"] for s in doc["repro"]["sources"]]
    assert labels == ["first", "b"]

    # unreadable input is an operational error, not a traceback
    assert main(["trace-merge", merged,
                 str(tmp_path / "nope.json")]) == 2


def test_top_command_unreachable_endpoint(capsys, tmp_path):
    rc = main(["top", f"unix:{tmp_path}/nobody.sock", "--count", "1"])
    assert rc == 1
    assert "unreachable" in capsys.readouterr().out


def test_top_command_scrapes_live_endpoint(capsys):
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.telemetry import TelemetryServer

    reg = MetricsRegistry()
    reg.counter("serve.connections").inc(3)
    reg.gauge("serve.queue.depth").set(1)
    server = TelemetryServer("tcp:127.0.0.1:0", reg.snapshot,
                             scope="test-scope").start()
    try:
        assert main(["top", server.endpoint, "--count", "1"]) == 0
    finally:
        server.stop()
    out = capsys.readouterr().out
    assert "test-scope" in out
    assert "repro_serve_connections" in out
    assert "repro_serve_queue_depth" in out


@pytest.mark.parametrize("flags", [
    ["--deadline", "5"],
    ["--ft", "--deadline", "5"],
])
def test_tune_rejects_deadline_without_resilient(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--nprocs", "4", "--iterations", "3", *flags])
    assert exc.value.code == 2
    assert "--deadline needs --resilient" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--checkpoint", "{ckpt}"],
    ["--checkpoint-every", "4"],
    ["--resilient", "--checkpoint", "{ckpt}", "--checkpoint-every", "4"],
])
def test_tune_rejects_checkpoint_flags_without_ft(flags, capsys, tmp_path):
    ckpt = str(tmp_path / "ckpt.json")
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--nprocs", "4", "--iterations", "3",
              *[f.format(ckpt=ckpt) for f in flags]])
    assert exc.value.code == 2
    assert "need --ft" in capsys.readouterr().err
    assert not (tmp_path / "ckpt.json").exists()


def test_tune_ft_rejects_checkpoint_every_without_store(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--ft", "--nprocs", "4", "--iterations", "3",
              "--checkpoint-every", "4"])
    assert exc.value.code == 2
    assert "--checkpoint-every needs --checkpoint" in capsys.readouterr().err


def test_tune_ft_warm_starts_from_its_checkpoint(capsys, tmp_path):
    ckpt = str(tmp_path / "ckpt.json")
    argv = ["tune", "--ft", "--nprocs", "8", "--iterations", "20",
            "--crash", "5@0.009", "--checkpoint", ckpt,
            "--checkpoint-every", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "checkpoints written" in first
    assert "warm start" not in first
    assert main(argv) == 0
    assert "warm start: restored tuning state" in capsys.readouterr().out


def test_flagless_tune_requests_the_default_scenario():
    """The scenario flags take their defaults from the service's request
    defaults: a flag-less ``tune`` asks the daemon the default request."""
    args = build_parser().parse_args(["tune"])
    assert _serve_request(_overlap_config(args), args) == normalize_request({})


@pytest.mark.parametrize("spec", ["5@0.015", "5@0.015:1.0,2@0.02"])
def test_crash_flag_and_faults_crash_clause_build_equal_plans(spec):
    from repro.cli import _overlap_config

    parser = build_parser()
    via_crash = parser.parse_args(["tune", "--crash", spec])
    clauses = ",".join(f"crash={c}" for c in spec.split(","))
    via_faults = parser.parse_args(["tune", "--faults", clauses])
    assert via_crash.crash == via_faults.faults.crashes
    assert _overlap_config(via_crash).faults == \
        _overlap_config(via_faults).faults


@pytest.mark.parametrize("flags", [
    ["--crash", "3@0.1,3@0.2"],
    ["--faults", "crash=3@0.1", "--crash", "3@0.2"],
])
def test_tune_rejects_a_rank_crashing_twice(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--ft", "--nprocs", "8", "--iterations", "3", *flags])
    assert exc.value.code == 2
    assert "rank 3 crashes more than once" in capsys.readouterr().err


@pytest.mark.parametrize("command,option,registry", [
    ("tune", "--selector", "SELECTOR_NAMES"),
    ("fft", "--methods", "FFT_METHODS"),
    ("fft", "--pattern", "PATTERNS"),
])
def test_choices_are_the_registries(command, option, registry):
    import argparse

    from repro.adcl import SELECTOR_NAMES
    from repro.apps.fft import FFT_METHODS, PATTERNS

    expected = {"SELECTOR_NAMES": SELECTOR_NAMES, "FFT_METHODS": FFT_METHODS,
                "PATTERNS": PATTERNS}[registry]
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions
                  if option in a.option_strings)
    assert list(action.choices) == list(expected)
