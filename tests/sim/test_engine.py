"""Unit tests for the DES kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.post(2.0, order.append, "b")
    sim.post(1.0, order.append, "a")
    sim.post(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for name in "abc":
        sim.post(1.0, order.append, name)
    sim.run()
    assert order == ["a", "b", "c"]


def test_scheduling_in_past_raises():
    """run(until) moves the clock to the horizon, so it bounds post()."""
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.post(4.0, lambda: None)
    sim.post(5.0, lambda: None)
    assert sim.pending() == 1


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.post(1.0, fired.append, 1)
    sim.post(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 5]


def test_pending_counts_live_events():
    sim = Simulator()
    sim.post(1.0, lambda: None)
    sim.post(2.0, lambda: None)
    assert sim.pending() == 2
    sim.run(until=1.5)
    assert sim.pending() == 1


def test_events_dispatched_counter():
    sim = Simulator()
    for t in range(5):
        sim.post(float(t), lambda: None)
    sim.run()
    assert sim.events_dispatched == 5


def test_chained_scheduling_inside_events():
    sim = Simulator()
    hits = []

    def tick(n):
        hits.append(sim.now)
        if n > 0:
            sim.post(sim.now + 1.0, tick, n - 1)

    sim.post(0.0, tick, 3)
    sim.run()
    assert hits == [0.0, 1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# the fast-path API: post(), halt(), stats()
# ---------------------------------------------------------------------------


def test_post_dispatches_in_time_order():
    """post() and post_join() draw from one seq counter, so ties across
    the two entry points also break by insertion order."""
    sim = Simulator()
    order = []
    sim.post(2.0, order.append, "b1")
    sim.post_join(2.0, order.append, ("b2",))
    sim.post(1.0, order.append, "a")
    sim.post(2.0, order.append, "b3")
    sim.post_join(3.0, order.append, ("c",))
    sim.run()
    assert order == ["a", "b1", "b2", "b3", "c"]
    assert sim.now == 3.0


def test_post_in_past_raises():
    sim = Simulator()
    sim.post(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post(0.5, lambda: None)


def test_post_counts_toward_pending():
    sim = Simulator()
    sim.post(1.0, lambda: None)
    sim.post_join(2.0, lambda: None, ())
    assert sim.pending() == 2
    sim.run()
    assert sim.pending() == 0


def test_inline_post_protocol_matches_post():
    """The documented trusted-driver protocol: pushing the heap tuple is
    all it takes — no counter to bump — and it counts as pending,
    dispatches and counts as dispatched exactly like post()."""
    import heapq

    sim = Simulator()
    order = []
    sim.post(1.0, order.append, "via-post")
    # what repro.sim.mpi does on its hot paths
    heapq.heappush(sim._heap, (1.0, next(sim._seq), order.append, ("inline",)))
    assert sim.pending() == 2
    assert sim.stats()["pending"] == 2
    sim.run()
    assert order == ["via-post", "inline"]
    assert sim.pending() == 0
    assert sim.events_dispatched == 2


def test_halt_stops_loop_and_preserves_queue():
    sim = Simulator()
    fired = []

    def stopper():
        fired.append("stop")
        sim.halt()

    sim.post(1.0, stopper)
    sim.post(2.0, fired.append, "later")
    assert sim.run() == 1.0
    assert fired == ["stop"]
    assert sim.pending() == 1
    # the flag clears on the next run(), which drains the queue
    sim.run()
    assert fired == ["stop", "later"]


def test_stats_counters():
    sim = Simulator()
    sim.post(1.0, lambda: None)
    sim.post(2.0, lambda: None)
    sim.post_join(3.0, lambda: None, ())
    sim.post_join(3.0, lambda: None, ())
    s = sim.stats()
    assert s["pending"] == 4
    assert s["heap_size"] == 4  # joined members count as their own entries
    assert len(sim._heap) == 3
    assert s["events_dispatched"] == 0
    sim.run()
    s = sim.stats()
    assert s["events_dispatched"] == 4
    assert s["pending"] == 0
    assert s["compactions"] == 0  # nothing is ever cancelled


def test_run_is_not_reentrant():
    sim = Simulator()
    caught = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            caught.append(str(exc))

    sim.post(1.0, reenter)
    sim.run()
    assert caught and "reentrant" in caught[0]


def test_until_advances_clock_when_queue_drains():
    sim = Simulator()
    sim.post(1.0, lambda: None)
    assert sim.run(until=5.0) == 5.0
    assert sim.now == 5.0


# ---------------------------------------------------------------------------
# same-instant joins (Simulator.post_join)
# ---------------------------------------------------------------------------


def _join_all(sim, time, labels, fn):
    for label in labels:
        sim.post_join(time, fn, (label,))


def test_post_join_shares_one_heap_entry():
    sim = Simulator()
    order = []
    _join_all(sim, 1.0, "abc", order.append)
    assert len(sim._heap) == 1
    assert sim.coalesced == 2
    assert sim.pending() == 3
    assert sim.stats()["heap_size"] == 3
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.events_dispatched == 3
    assert sim.pending() == 0
    assert sim.stats()["heap_size"] == 0


def test_post_join_only_joins_the_previous_push():
    """A seq drawn in between, a different time or a time that is not
    after now each give the push its own entry."""
    sim = Simulator()
    order = []
    sim.post_join(1.0, order.append, ("a",))
    sim.post(1.0, order.append, "p")           # draws a seq in between
    sim.post_join(1.0, order.append, ("b",))
    sim.post_join(2.0, order.append, ("c",))   # different time
    sim.post_join(0.0, order.append, ("d",))   # time == now
    assert sim.coalesced == 0
    assert len(sim._heap) == 5
    sim.run()
    assert order == ["d", "a", "p", "b", "c"]


def test_halt_mid_cohort_requeues_the_rest():
    sim = Simulator()
    order = []

    def stopper(label):
        order.append(label)
        sim.halt()

    sim.post_join(1.0, order.append, ("a",))
    sim.post_join(1.0, stopper, ("b",))
    _join_all(sim, 1.0, "cd", order.append)
    sim.post(1.0, order.append, "e")
    assert sim.run() == 1.0
    assert order == ["a", "b"]
    assert sim.events_dispatched == 2
    assert sim.pending() == 3
    assert sim.stats()["heap_size"] == 3
    sim.run()
    assert order == ["a", "b", "c", "d", "e"]
    assert sim.events_dispatched == 5
    assert sim.pending() == 0


def test_until_horizon_keeps_a_later_cohort_whole():
    """Members share one time, so the horizon splits between cohorts:
    the one past it goes back intact and still counts as pending."""
    sim = Simulator()
    order = []

    def spawn(label):
        order.append(label)
        sim.post_join(2.0, order.append, (label.upper(),))

    _join_all(sim, 1.0, "abc", spawn)
    assert sim.run(until=1.5) == 1.5
    assert order == ["a", "b", "c"]
    assert sim.pending() == 3
    assert len(sim._heap) == 1
    sim.run()
    assert order == ["a", "b", "c", "A", "B", "C"]
    assert sim.pending() == 0


def test_pending_is_exact_inside_cohort_members():
    sim = Simulator()
    seen = []
    _join_all(sim, 1.0, range(4), lambda _i: seen.append(sim.pending()))
    sim.post(2.0, lambda: None)
    sim.run()
    assert seen == [4, 3, 2, 1]


def test_exception_mid_cohort_requeues_the_rest():
    sim = Simulator()
    order = []

    def boom(label):
        order.append(label)
        raise RuntimeError(label)

    sim.post_join(1.0, order.append, ("a",))
    sim.post_join(1.0, boom, ("b",))
    sim.post_join(1.0, order.append, ("c",))
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.events_dispatched == 2
    assert sim.pending() == 1
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.events_dispatched == 3


def test_no_join_into_a_popped_entry_after_the_clock_moves_back():
    """A horizon below the clock moves it back; a later push at the
    popped entry's time must not join that entry."""
    sim = Simulator()
    order = []
    sim.post(9.0, order.append, "b")
    sim.post_join(8.0, order.append, ("a",))
    sim.run(until=8.5)
    sim.run(until=5.0)
    assert sim.now == 5.0
    sim.post_join(8.0, order.append, ("c",))
    assert sim.pending() == 2
    sim.run()
    assert order == ["a", "c", "b"]

