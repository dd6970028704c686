"""Coalescer: leaders, followers, abandons."""

import threading

from repro.serve.coalesce import Coalescer


def test_leader_then_followers():
    co = Coalescer()
    leader, entry = co.join("k")
    assert leader
    f1, e1 = co.join("k")
    f2, e2 = co.join("k")
    assert not f1 and not f2
    assert e1 is entry and e2 is entry
    assert co.coalesced == 2
    assert co.inflight() == 1
    co.complete("k", result={"winner": "x"})
    assert co.inflight() == 0
    assert Coalescer.wait(entry, 1.0) == ({"winner": "x"}, None)
    # a fresh request for the key becomes a new leader
    leader2, entry2 = co.join("k")
    assert leader2 and entry2 is not entry


def test_abandon_wakes_followers_with_the_error():
    """A leader that cannot enqueue must not leave followers hanging."""
    co = Coalescer()
    _, entry = co.join("k")
    outcomes = []

    def follower():
        co.join("k")
        outcomes.append(Coalescer.wait(entry, 5.0))

    threads = [threading.Thread(target=follower) for _ in range(4)]
    for t in threads:
        t.start()
    boom = RuntimeError("queue full")
    co.abandon("k", error=boom)
    for t in threads:
        t.join(timeout=5.0)
    assert len(outcomes) == 4
    assert all(outcome == (None, boom) for outcome in outcomes)


def test_wait_timeout_returns_none():
    co = Coalescer()
    _, entry = co.join("k")
    assert Coalescer.wait(entry, 0.01) is None
    co.complete("k", result=1)
    assert Coalescer.wait(entry, 0.01) == (1, None)


def test_concurrent_joins_elect_exactly_one_leader():
    co = Coalescer()
    barrier = threading.Barrier(8)
    leaders = []

    def contender():
        barrier.wait()
        leader, _ = co.join("k")
        if leader:
            leaders.append(threading.get_ident())

    threads = [threading.Thread(target=contender) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5.0)
    assert len(leaders) == 1
    assert co.inflight() == 1
