"""Message statistics read from the trace recorder's rows.

Every posted message is one ``msg.post`` row (rank = source, args
``dst``/``nbytes``/``eager``), every message that reaches a live rank
one ``msg.deliver`` row at its arrival, and the fault path adds
``fault.*`` rows; the ``sim.*`` metrics fold from those rows.  These
tests check algorithm volume laws and the fault bookkeeping against
them.
"""

import math

import pytest

from repro import nbc
from repro.obs import recording
from repro.obs.export import build_trace_doc
from repro.obs.report import render_report
from repro.sim import Compute, FaultPlan, SimWorld, Wait, get_platform
from repro.sim.faults import DropRule
from repro.units import KiB, MiB


def run_alltoall(nprocs, m, algorithm, faults=None):
    with recording() as rec:
        world = SimWorld(get_platform("whale"), nprocs, faults=faults,
                         reliable=True)

        def prog(ctx):
            req = nbc.start_ialltoall(ctx, m, algorithm=algorithm)
            yield Wait(req)

        world.launch(prog)
        world.run()
    return rec, world


def run_faulty(nprocs=16, prob=0.4, seed=3):
    plan = FaultPlan(drops=(DropRule(prob),), seed=seed)
    return run_alltoall(nprocs, 1024, "linear", faults=plan)


def rows(rec, name):
    """``(rank, ts, args)`` of every recorded event called ``name``."""
    return [(rank, ts, args) for _, _, rank, _, n, ts, _, args in rec.events
            if n == name]


def posted_bytes(rec):
    return sum(a["nbytes"] for _, _, a in rows(rec, "msg.post"))


def mean_latency(rec):
    h = rec.metrics.snapshot()["sim.message_latency_seconds"]
    return h["sum"] / h["total"]


def report(rec):
    doc = build_trace_doc([("run", rec.export_events(), rec.worlds)],
                          metrics=rec.metrics.snapshot())
    return render_report(doc)


def test_linear_alltoall_message_count_and_bytes():
    P, m = 8, 1024
    rec, _ = run_alltoall(P, m, "linear")
    assert len(rows(rec, "msg.post")) == P * (P - 1)
    assert posted_bytes(rec) == P * (P - 1) * m


def test_bruck_moves_more_bytes_in_fewer_messages():
    P, m = 16, 1024
    lin, _ = run_alltoall(P, m, "linear")
    bruck, _ = run_alltoall(P, m, "bruck")
    n_bruck = len(rows(bruck, "msg.post"))
    assert n_bruck < len(rows(lin, "msg.post"))
    assert n_bruck == P * math.ceil(math.log2(P))
    # Bruck moves ~log2(P)/2 times the data of the linear exchange
    ratio = posted_bytes(bruck) / posted_bytes(lin)
    expected = math.log2(P) / 2 * P / (P - 1)
    assert ratio == pytest.approx(expected, rel=0.05)


def test_pairwise_message_count():
    P, m = 8, 512
    rec, _ = run_alltoall(P, m, "pairwise")
    assert len(rows(rec, "msg.post")) == P * (P - 1)
    assert posted_bytes(rec) == P * (P - 1) * m


def test_eager_vs_rendezvous_classification():
    small, _ = run_alltoall(8, 1 * KiB, "pairwise")     # eager everywhere
    assert all(a["eager"] for _, _, a in rows(small, "msg.post"))
    big, _ = run_alltoall(16, 64 * KiB, "pairwise")     # > both thresholds
    posts = rows(big, "msg.post")
    assert posts and not any(a["eager"] for _, _, a in posts)


def test_intra_inter_split_matches_topology():
    # whale: 8 cores/node; with 16 ranks, peers 1..7 are intra for rank 0
    rec, world = run_alltoall(16, 256, "linear")
    intra = [world.topology.same_node(src, a["dst"])
             for src, _, a in rows(rec, "msg.post")]
    # per rank: 7 intra peers, 8 inter peers
    assert intra.count(True) == 16 * 7
    assert intra.count(False) == 16 * 8


def test_bytes_by_rank_balanced_for_alltoall():
    rec, _ = run_alltoall(8, 2048, "pairwise")
    by_rank = {}
    for src, _, a in rows(rec, "msg.post"):
        by_rank[src] = by_rank.get(src, 0) + a["nbytes"]
    assert len(by_rank) == 8
    assert len(set(by_rank.values())) == 1  # perfectly symmetric operation


def test_records_kept_on_demand():
    rec, _ = run_alltoall(4, 128, "linear")
    posts = rows(rec, "msg.post")
    assert len(posts) == 12
    for src, _, a in posts:
        assert a["nbytes"] == 128
        assert 0 <= src < 4 and 0 <= a["dst"] < 4 and a["dst"] != src


def test_summary_mentions_counts():
    rec, _ = run_alltoall(4, 128, "linear")
    lines = report(rec).splitlines()
    assert any(ln.split() == ["sim.messages_posted", "12"] for ln in lines)
    assert any(ln.split() == ["sim.messages_delivered", "12"] for ln in lines)


def test_mean_size_empty_world():
    with recording() as rec:
        world = SimWorld(get_platform("whale"), 2)

        def prog(ctx):
            yield Compute(1e-6)

        world.launch(prog)
        world.run()
    assert rows(rec, "msg.post") == []
    h = rec.metrics.snapshot()["sim.message_bytes"]
    assert h["total"] == 0 and h["sum"] == 0
    assert any(ln.split()[:2] == ["sim.message_bytes", "n=0"]
               and ln.endswith("mean=0.000e+00")
               for ln in report(rec).splitlines())


def test_delivery_times_recorded():
    rec, _ = run_alltoall(4, 128, "linear")
    # linear alltoall: exactly one message per ordered (src, dst) pair
    post_t = {(src, a["dst"]): ts for src, ts, a in rows(rec, "msg.post")}
    deliver_t = {(a["src"], dst): ts
                 for dst, ts, a in rows(rec, "msg.deliver")}
    assert len(post_t) == 12
    assert deliver_t.keys() == post_t.keys()
    assert all(deliver_t[k] >= post_t[k] for k in post_t)
    h = rec.metrics.snapshot()["sim.message_latency_seconds"]
    assert h["total"] == 12
    assert h["sum"] == pytest.approx(
        sum(deliver_t[k] - post_t[k] for k in post_t))


@pytest.mark.parametrize("message_first", [False, True],
                         ids=["receive-first", "message-first"])
@pytest.mark.parametrize("nbytes", [64, 1 * MiB], ids=["eager", "rendezvous"])
def test_every_message_gets_one_delivery_row(nbytes, message_first):
    # an eager message that arrives before its receive is posted is
    # matched late, out of the unexpected queue; it still arrived
    with recording() as rec:
        world = SimWorld(get_platform("whale"), 2)

        def prog(ctx):
            if (ctx.rank == 1) == message_first:
                yield Compute(1e-3)
            if ctx.rank == 0:
                yield Wait(ctx.isend(1, nbytes, tag=3))
            else:
                yield Wait(ctx.irecv(0, nbytes, tag=3))

        world.launch(prog)
        world.run()
    (_, post_t, _), = rows(rec, "msg.post")
    (_, deliver_t, args), = rows(rec, "msg.deliver")
    assert args == {"src": 0, "nbytes": nbytes} and deliver_t > post_t
    m = rec.metrics.snapshot()
    assert m["sim.messages_delivered"]["value"] == 1
    assert m["sim.messages_delivered"] == m["sim.messages_posted"]


def test_fault_counters_agree_with_injector():
    rec, world = run_faulty()
    assert len(rows(rec, "fault.drop")) == world.faults.messages_dropped > 0
    assert len(rows(rec, "fault.retransmit")) == world.retransmits > 0
    # reliable transport: every posted message is eventually delivered
    assert len(rows(rec, "msg.deliver")) == len(rows(rec, "msg.post"))
    assert len(rows(rec, "fault.dead_letter")) == world.dead_letters == 0
    m = rec.metrics.snapshot()
    assert m["sim.fault_drops"]["value"] == world.faults.messages_dropped
    assert m["sim.retransmits"]["value"] == world.retransmits


def test_faulty_run_latency_includes_retransmit_delay():
    clean, _ = run_alltoall(16, 1024, "linear")
    faulty, _ = run_faulty()
    assert mean_latency(faulty) > mean_latency(clean)


def test_summary_mentions_fault_counts():
    rec, world = run_faulty()
    lines = report(rec).splitlines()
    assert any(ln.split() == ["sim.fault_drops",
                              str(world.faults.messages_dropped)]
               for ln in lines)
    assert any(ln.split() == ["sim.retransmits", str(world.retransmits)]
               for ln in lines)
