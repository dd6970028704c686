"""In-process daemon + client tests: bit-identity, shedding, drain,
degradation budgets, drift re-tuning and endpoint fuzz."""

import os
import socket
import threading
import time

import pytest

from repro.adcl.history import HistoryStore
from repro.bench.fabric.protocol import recv_frame, send_frame
from repro.bench.overlap import OPERATION_KINDS, run_overlap, scenario_config
from repro.errors import ServeError, ServiceUnavailable
from repro.serve import (
    ServeConfig,
    ServiceHistory,
    TuningClient,
    TuningServer,
    compute_decision,
    history_key,
    normalize_request,
    request_key,
)

FIELDS = {"operation": "alltoall", "nprocs": 4, "nbytes": 1024,
          "iterations": 12, "evals": 1}


@pytest.fixture()
def server(tmp_path):
    cfg = ServeConfig(
        endpoint=f"unix:{tmp_path}/t.sock",
        data_dir=str(tmp_path / "kb"),
        workers=2,
        request_timeout=30.0,
    )
    srv = TuningServer(cfg)
    srv.start()
    yield srv
    srv.stop()


def _client(server, **kw):
    kw.setdefault("timeout", 10.0)
    return TuningClient(server.config.endpoint, **kw)


def test_service_answer_is_bit_identical_to_local(server):
    c = _client(server)
    record = c.decide(FIELDS)
    assert record["source"] == "service"
    assert record["service_source"] == "computed"
    local = compute_decision(normalize_request(FIELDS))
    assert record["decision"] == local  # the whole contract


def test_degraded_client_is_bit_identical_and_bounded(tmp_path):
    c = TuningClient(f"unix:{tmp_path}/nobody.sock", timeout=0.2,
                     attempts=2, backoff_base=0.01, backoff_cap=0.05)
    t0 = time.monotonic()
    record = c.decide(FIELDS)
    wall = time.monotonic() - t0
    assert record["source"] == "local"
    assert record["decision"] == compute_decision(normalize_request(FIELDS))
    assert c.degraded == 1
    # the degradation ladder is time-bounded: network budget + compute
    assert wall < c.budget() + 5.0


def test_fallback_disabled_raises_service_unavailable(tmp_path):
    c = TuningClient(f"unix:{tmp_path}/nobody.sock", timeout=0.1,
                     attempts=1, fallback=False)
    with pytest.raises(ServiceUnavailable):
        c.decide(FIELDS)


def test_request_errors_propagate_not_degrade(server):
    c = _client(server)
    with pytest.raises(ServeError, match="unknown tuning-request fields"):
        c.decide({"bogus": 1})
    # a report with no decision on file is a typed request error the
    # client surfaces as "nothing to report against", not a retry storm
    assert c.report(FIELDS, 1.0) is None
    assert c.rpc_failed == 0


def test_exact_hits_skip_recomputation(server):
    c = _client(server)
    c.decide(FIELDS)
    computed = server.metrics.counter("serve.miss.computed").value
    for _ in range(3):
        assert c.decide(FIELDS)["decision"]["winner"]
    assert server.metrics.counter("serve.miss.computed").value == computed
    assert server.metrics.counter("serve.hits.kb").value >= 3


def test_retune_committed_during_a_get_is_served_afterwards(tmp_path):
    """A re-tune that commits version N+1 while a get is between its
    shard read and its reply must not leave later exact hits on N."""
    cfg = ServeConfig(endpoint=f"unix:{tmp_path}/t.sock",
                      data_dir=str(tmp_path / "kb"), workers=1)
    srv = TuningServer(cfg, compute=lambda req: {
        "winner": "linear", "epoch": req["epoch"]})
    req = normalize_request(FIELDS)
    key = request_key(req)
    srv.kb.put(key, {"winner": "linear", "epoch": 0}, source="computed",
               request=req)
    kb_get = srv.kb.get
    raced = []

    def get_then_retune(k):
        record = kb_get(k)
        if not raced:
            raced.append(record["version"])
            srv._retune(k, record)  # commits the next version
        return record

    srv.kb.get = get_then_retune
    srv.start()
    try:
        c = _client(srv)
        assert c.decide(FIELDS)["version"] == 1  # read before the re-tune
        assert raced == [1]
        assert kb_get(key)["version"] == 2
        assert c.decide(FIELDS)["version"] == 2
    finally:
        srv.stop()


def test_warm_start_nearest_geometry(server):
    c = _client(server)
    c.decide(FIELDS)
    warm = c.warm(dict(FIELDS, nbytes=2048))
    assert warm is not None
    assert warm["request"]["nbytes"] == 1024
    assert c.warm(FIELDS) is None  # own geometry is excluded


def test_queue_full_sheds_with_busy_not_hang(tmp_path):
    """Saturate a 1-deep queue with a slow compute: extra requests must
    get an explicit busy (and retry/degrade), never block past budget."""
    gate = threading.Event()

    def slow_compute(req):
        gate.wait(20.0)
        return compute_decision(req)

    cfg = ServeConfig(endpoint=f"unix:{tmp_path}/t.sock",
                      data_dir=str(tmp_path / "kb"),
                      workers=1, queue_capacity=1, request_timeout=0.5)
    srv = TuningServer(cfg, compute=slow_compute)
    srv.start()
    try:
        clients = [TuningClient(cfg.endpoint, timeout=5.0, attempts=1)
                   for _ in range(4)]
        records = [None] * 4

        def run(i, fields):
            records[i] = clients[i].decide(fields)

        threads = [
            threading.Thread(target=run, args=(i, dict(FIELDS, nbytes=256 << i)))
            for i in range(4)
        ]
        t0 = time.monotonic()
        for t in threads:
            t.start()
        # hold the gate past request_timeout so the queue stays full
        # and shedding actually happens, then let the worker drain
        time.sleep(1.0)
        gate.set()
        for t in threads:
            t.join(timeout=30.0)
        wall = time.monotonic() - t0
        assert all(r is not None for r in records)
        # every client terminated with the bit-identical decision,
        # whether served or degraded
        for i, r in enumerate(records):
            expected = compute_decision(
                normalize_request(dict(FIELDS, nbytes=256 << i)))
            assert r["decision"] == expected
        # and nobody hung: bounded by budget + local compute slack
        assert wall < clients[0].budget() + 25.0
        shed = (srv.metrics.counter("serve.shed.queue_full").value
                + srv.metrics.counter("serve.shed.timeout").value)
        assert shed > 0
        assert any(r["source"] == "local" for r in records)
    finally:
        srv.stop()


def test_coalescing_identical_inflight_requests(tmp_path):
    """N concurrent identical misses must cost one computation."""
    calls = []
    release = threading.Event()

    def counting_compute(req):
        calls.append(req)
        release.wait(20.0)
        return compute_decision(req)

    cfg = ServeConfig(endpoint=f"unix:{tmp_path}/t.sock",
                      data_dir=str(tmp_path / "kb"), workers=2)
    srv = TuningServer(cfg, compute=counting_compute)
    srv.start()
    try:
        results = []

        def run():
            c = TuningClient(cfg.endpoint, timeout=30.0, attempts=1)
            results.append(c.decide(FIELDS))

        threads = [threading.Thread(target=run) for _ in range(5)]
        for t in threads:
            t.start()
        # wait until the leader's computation started, then release it
        deadline = time.monotonic() + 10.0
        while not calls and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # let the followers pile onto the entry
        release.set()
        for t in threads:
            t.join(timeout=30.0)
        assert len(results) == 5
        assert len(calls) == 1  # one simulation served everyone
        assert len({str(sorted(r["decision"].items())) for r in results}) == 1
    finally:
        srv.stop()


def test_stop_drains_and_checkpoints(tmp_path):
    cfg = ServeConfig(endpoint=f"unix:{tmp_path}/t.sock",
                      data_dir=str(tmp_path / "kb"), workers=1)
    srv = TuningServer(cfg)
    srv.start()
    c = TuningClient(cfg.endpoint, timeout=10.0)
    c.decide(FIELDS)
    srv.stop()
    srv.stop()  # idempotent
    # after a clean drain every WAL is checkpointed away
    for i in range(cfg.shards):
        assert os.path.getsize(str(tmp_path / "kb" / f"shard-{i:02d}.wal")) == 0
    # and a fresh daemon serves the decision without recomputing
    srv2 = TuningServer(cfg)
    srv2.start()
    try:
        c2 = TuningClient(cfg.endpoint, timeout=10.0)
        record = c2.decide(FIELDS)
        assert record["service_source"] == "computed"
        assert srv2.metrics.counter("serve.miss.computed").value == 0
    finally:
        srv2.stop()


def test_drift_report_triggers_background_retune(tmp_path):
    cfg = ServeConfig(endpoint=f"unix:{tmp_path}/t.sock",
                      data_dir=str(tmp_path / "kb"),
                      workers=1, drift_window=3, drift_threshold=1.5)
    srv = TuningServer(cfg)
    srv.start()
    try:
        c = TuningClient(cfg.endpoint, timeout=10.0)
        record = c.decide(FIELDS)
        baseline = record["decision"]["mean_after_learning"]
        # healthy reports: no drift
        for _ in range(3):
            out = c.report(FIELDS, baseline)
            assert out == {"drift": False, "retune": False}
        # a 3x slowdown fills the window and crosses the threshold
        retuned = False
        for _ in range(4):
            out = c.report(FIELDS, baseline * 3.0)
            retuned = retuned or out["retune"]
        assert retuned
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            new = c.lookup(record["key"])
            if new and new["version"] > record["version"]:
                break
            time.sleep(0.05)
        new = c.lookup(record["key"])
        assert new["version"] > record["version"]
        assert new["source"] == "retune"
        assert new["request"]["epoch"] >= 1  # fresh noise, new epoch
        assert srv.metrics.counter("serve.retune.ok").value >= 1
    finally:
        srv.stop()


@pytest.mark.parametrize("fields,match", [
    ({"operation": "scan"}, "unknown tuning-request operation"),
    ({"selector": "oracle"}, "unknown tuning-request selector"),
    ({"compute_total": -1.0}, "compute_total must be >= 0"),
    ({"nprogress": -1}, "nprogress must be >= 0"),
])
def test_unrunnable_requests_fail_at_normalization(fields, match):
    # typed request errors before the daemon spends a compute slot
    with pytest.raises(ServeError, match=match):
        normalize_request(fields)


def test_request_key_is_pinned():
    # the knowledge-base / WAL identity of the default request: moving
    # it orphans every stored decision
    assert request_key(normalize_request({})) == (
        'tune:{"compute_total":10.0,"epoch":0,"evals":3,"iterations":20,'
        '"nbytes":65536,"nprocs":16,"nprogress":5,"operation":"alltoall",'
        '"paper_iterations":1000,"platform":"whale","seed":0,'
        '"selector":"brute_force"}')


class _KeySpy:
    """History that records the keys an ADCLRequest looks up."""

    def __init__(self):
        self.keys = []

    def lookup(self, key):
        self.keys.append(key)

    def record(self, key, winner, decided_at):
        pass

    def forget(self, key):
        pass


@pytest.mark.parametrize("operation", sorted(OPERATION_KINDS))
def test_history_key_is_the_key_a_tuner_looks_up(operation):
    # what `sweep --serve` records must be where a ServiceHistory-backed
    # tuner of the same scenario looks
    req = normalize_request({"operation": operation, "nprocs": 4,
                             "nbytes": 1024, "iterations": 1})
    spy = _KeySpy()
    run_overlap(scenario_config(req, req["seed"]), history=spy)
    assert spy.keys == [history_key(req)]


def test_service_history_adapter_round_trip(server):
    c = _client(server)
    hist = ServiceHistory(c, local=HistoryStore(path=None))
    assert hist.lookup("k1") is None
    hist.record("k1", "linear", 3)
    assert hist.lookup("k1") == "linear"
    # a second, fresh adapter sees it through the daemon (shared store)
    hist2 = ServiceHistory(_client(server), local=HistoryStore(path=None))
    assert hist2.lookup("k1") == "linear"
    # ... and keeps answering from its local shadow after an outage
    hist2.client.endpoint = f"unix:{server.config.data_dir}/gone.sock"
    hist2.client.attempts = 1
    hist2.client.timeout = 0.1
    assert hist2.lookup("k1") == "linear"
    hist.forget("k1")
    assert hist.lookup("k1") is None


def test_endpoint_rejects_garbage_frames_cleanly(server):
    """Satellite fuzz: garbage at the serve endpoint must produce a
    typed protocol error (or a close), never a hang."""
    path = server.config.endpoint[len("unix:"):]
    for blob in (
        b"\x00\x00\x00\x05notjs",        # undecodable body
        b"\xff\xff\xff\xff",             # absurd length prefix
        b"\x00\x00\x00\x0c[\"unframed\"",  # truncated body + EOF
    ):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(5.0)
        sock.connect(path)
        try:
            sock.sendall(blob)
            sock.shutdown(socket.SHUT_WR)
            reply = recv_frame(sock, codec="json")
            assert reply is None or reply[0] == "err"
        finally:
            sock.close()
    # the daemon is still healthy afterwards
    assert TuningClient(server.config.endpoint, timeout=5.0).ping()


def test_unknown_op_gets_typed_error(server):
    path = server.config.endpoint[len("unix:"):]
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(5.0)
    sock.connect(path)
    try:
        send_frame(sock, ("frobnicate", 1), codec="json")
        reply = recv_frame(sock, codec="json")
        assert reply[0] == "err" and reply[1] == "request"
        assert "frobnicate" in reply[2]
    finally:
        sock.close()


def test_tcp_endpoint_with_ephemeral_port(tmp_path):
    cfg = ServeConfig(endpoint="tcp:127.0.0.1:0",
                      data_dir=str(tmp_path / "kb"), workers=1)
    srv = TuningServer(cfg)
    srv.start()
    try:
        host, port = srv.address
        c = TuningClient(f"tcp:127.0.0.1:{port}", timeout=10.0)
        assert c.ping()
        assert c.decide(FIELDS)["source"] == "service"
    finally:
        srv.stop()
