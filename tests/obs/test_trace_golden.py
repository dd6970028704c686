"""Byte-identity guard for the recorder's output.

Three traced scenarios are exported and hashed: the CI trace smoke
(``repro tune --trace --metrics``), a resilient alltoall under drops and
a straggler, and a ULFM run that loses a rank.  The digests of the trace
document and of the metrics snapshot were recorded with the recorder
that kept one tuple per event; any change to how events or metrics are
stored must leave every byte of both outputs as it was.
"""

from __future__ import annotations

import hashlib
import json

from repro.adcl import ULFM, Resilience
from repro.bench import OverlapConfig, run_overlap
from repro.cli import main
from repro.obs import build_trace_doc, recording, trace_to_bytes
from repro.sim import FaultPlan

GOLDEN = {
    "tune": (
        "a5d9d67f6cf4caeaa9399f04d4189b151aa39e157506bc85cbc2194de4136bd6",
        "547426ff090c865d74c7d1982f6db6924a8bed472c181039f468ddd9d78ed883",
    ),
    "resilient": (
        "5f113b46da60dc7e2a877f1439746c8871ea8f2d64550fc7e06761d0d2f31edf",
        "7c2a0b8352a9550cc2a7bc9f6863ded65b3afe432f2ed163790819bd47b648f1",
    ),
    # re-recorded when every arrival got its msg.deliver row: 22 eager
    # messages that arrive before their receive is posted had none
    "ulfm": (
        "2a647f6a9b60ae66ede8401fd3f29df7c64c6b9bd77b3966fe53413915bdeb09",
        "6a6ebda658a160581fb6b88c4dedc958611c6354574ed879e08dad25d9cd258b",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _library_digests(cfg: OverlapConfig, recovery) -> tuple[str, str]:
    with recording() as rec:
        run_overlap(cfg, selector="brute_force", evals_per_function=2,
                    recovery=recovery)
    metrics = rec.metrics.snapshot()
    doc = build_trace_doc([("run", rec.export_events(), rec.worlds)],
                          scenario=cfg.describe(),
                          audit=rec.audit.to_json(), metrics=metrics)
    return (_sha(trace_to_bytes(doc)),
            _sha(json.dumps(metrics, sort_keys=True).encode()))


def test_tune_trace_smoke_is_byte_identical(tmp_path):
    trace, metrics = tmp_path / "trace.json", tmp_path / "metrics.json"
    assert main(["tune", "--operation", "bcast", "--nprocs", "8",
                 "--nbytes", "1KB", "--iterations", "44", "--evals", "2",
                 "--trace", str(trace), "--metrics", str(metrics)]) == 0
    assert (_sha(trace.read_bytes()),
            _sha(metrics.read_bytes())) == GOLDEN["tune"]


def test_resilient_faults_trace_is_byte_identical():
    # cyclic placement spreads 8 ranks over whale's 8-core nodes, so the
    # inter-node drop rule has traffic to eat
    cfg = OverlapConfig(
        platform="whale", nprocs=8, operation="alltoall", nbytes=16 * 1024,
        iterations=12, nprogress=3, placement="cyclic", noise_sigma=0.02,
        seed=3, faults=FaultPlan.parse("drop=0.02,straggler=2:1.5,seed=3"))
    assert _library_digests(cfg, Resilience()) == GOLDEN["resilient"]


def test_ulfm_crash_trace_is_byte_identical():
    cfg = OverlapConfig(
        platform="whale", nprocs=8, operation="alltoall", nbytes=16 * 1024,
        iterations=12, nprogress=3, seed=1,
        faults=FaultPlan.parse("crash=5@0.004"))
    assert _library_digests(cfg, ULFM()) == GOLDEN["ulfm"]

