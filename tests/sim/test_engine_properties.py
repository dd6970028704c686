"""Property-based tests for the DES kernel."""

import heapq
import itertools
from unittest import mock

from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from repro.sim.engine import _COHORT, Simulator


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=60))
def test_dispatch_order_is_nondecreasing(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.post(t, lambda t=t: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(times)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1e-9, max_value=10.0),
                min_size=1, max_size=20))
def test_chained_after_accumulates_delays(delays):
    sim = Simulator()
    hits = []
    it = iter(delays[1:])

    def step():
        hits.append(sim.now)
        nxt = next(it, None)
        if nxt is not None:
            sim.post(sim.now + nxt, step)

    sim.post(delays[0], step)
    sim.run()
    # one hit per delay, at the running sum of delays
    expected = []
    acc = 0.0
    for d in delays:
        acc += d
        expected.append(acc)
    assert len(hits) == len(expected)
    for h, e in zip(hits, expected):
        assert abs(h - e) < 1e-9 * max(1.0, e)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1,
                max_size=30),
       st.floats(min_value=0.0, max_value=50.0))
def test_run_until_is_a_clean_split(times, horizon):
    sim = Simulator()
    fired = []
    for t in times:
        sim.post(t, fired.append, t)
    sim.run(until=horizon)
    early = [t for t in times if t <= horizon]
    assert sorted(fired) == sorted(early)
    sim.run()
    assert sorted(fired) == sorted(times)


def _live_entries(sim) -> int:
    """Brute force: queued events (a coalesced entry holds one event per
    member)."""
    return sum(len(entry[3]) if entry[2] is _COHORT else 1
               for entry in sim._heap)


_ops = st.one_of(
    st.tuples(st.just("post"), st.floats(min_value=0.0, max_value=10.0)),
    st.tuples(st.just("burst"), st.integers(min_value=1, max_value=90)),
    st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=5.0)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_ops, max_size=60))
def test_pending_matches_brute_force_count(ops):
    """pending() is len(heap) plus the joined events; random mixes of
    post/post_join/run must keep it equal to a scan of the heap."""
    sim = Simulator()
    for kind, arg in ops:
        if kind == "post":
            sim.post(sim.now + arg, lambda: None)
        elif kind == "burst":
            # post_join pushes, each pair sharing one instant
            for i in range(arg):
                sim.post_join(sim.now + 1.0 + i // 2 * 0.5, lambda: None, ())
        elif kind == "run":
            sim.run(until=sim.now + arg)
        assert sim.pending() == _live_entries(sim)
        assert sim.stats()["pending"] == sim.pending()
    sim.run()
    assert sim.pending() == 0 == _live_entries(sim)


# ---------------------------------------------------------------------------
# same-instant joins are exact
# ---------------------------------------------------------------------------


def _post_join_without_joins(self, time, fn, args):
    """``post_join`` with joins disabled: one plain heap entry per push."""
    heapq.heappush(self._heap, (time, next(self._seq), fn, args))


#: few distinct delays, so pushes keep landing on the same instant
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_KINDS = st.sampled_from(["post", "join", "join"])
_HALT = st.integers(min_value=0, max_value=7).map(lambda x: x == 0)


def _node(children):
    # (how it is scheduled, delay, the pushes its handler makes, whether
    #  its handler halts the loop)
    return st.tuples(_KINDS, _DELAYS, children, _HALT)


_EVENT = st.recursive(
    _node(st.just(())),
    lambda inner: _node(st.lists(inner, max_size=4).map(tuple)),
    max_leaves=24,
)

_PROGRAM_OPS = st.one_of(
    # siblings pushed back to back
    st.tuples(st.just("push"), st.lists(_EVENT, min_size=1, max_size=3)),
    # (joins at one instant, posts at two)
    st.tuples(st.just("burst"), st.tuples(st.integers(0, 40),
                                          st.integers(0, 80))),
    # a horizon below the clock moves it back
    st.tuples(st.just("run"), st.none() | _DELAYS | st.just(-1.0)),
)


def _replay(ops):
    """Run a random schedule; return everything an observer can see."""
    sim = Simulator()
    log = []
    labels = itertools.count()

    def schedule(node):
        kind, delay, children, halt = node
        args = (next(labels), children, halt)
        time = sim.now + delay
        if kind == "post":
            sim.post(time, fire, *args)
        else:
            sim.post_join(time, fire, args)

    def fire(label, children, halt):
        log.append((label, sim.now, sim.pending()))
        for child in children:
            schedule(child)
        if halt:
            sim.halt()

    seen = []
    for kind, arg in ops:
        if kind == "push":
            for node in arg:
                schedule(node)
        elif kind == "burst":
            joins, posts = arg
            for _ in range(joins):
                schedule(("join", 1.0, (), False))
            for i in range(posts):
                schedule(("post", 1.0 + i % 2, (), False))
        else:
            sim.run(until=None if arg is None else sim.now + arg)
        assert sim.pending() == _live_entries(sim)
        seen.append((sim.now, sim.pending(), sim.events_dispatched,
                     sim.stats()["heap_size"]))
    while sim.pending():  # handlers may halt the drain
        sim.run()
    return log, seen, sim.events_dispatched, sim.coalesced


@settings(max_examples=100, deadline=None)
@given(st.lists(_PROGRAM_OPS, max_size=25))
# run() pops a cohort, then its first member pushes at the same instant
@example([("push", [("join", 0.5, (("join", 0.0, (), False),), False),
                    ("join", 0.5, (), False)]),
          ("run", None)])
# the clock moves back below an instant whose cohort already ran
@example([("push", [("post", 2.0, (), False), ("join", 0.5, (), False)]),
          ("run", 1.0), ("run", -1.0),
          ("push", [("join", 0.5, (), False)])])
def test_joins_leave_dispatch_order_and_counts_unchanged(ops):
    """post_join's joins are exact: random post/join pushes, also from
    inside handlers and mixed with halt and until, give the same calls in
    the same order at the same times, the same pending counts (inside
    handlers too) and event totals as the same schedule with every push
    in its own entry."""
    log, seen, dispatched, coalesced = _replay(ops)
    target(float(coalesced))
    with mock.patch.object(Simulator, "post_join", _post_join_without_joins):
        ref_log, ref_seen, ref_dispatched, ref_coalesced = _replay(ops)
    assert ref_coalesced == 0
    assert log == ref_log
    assert seen == ref_seen
    assert dispatched == ref_dispatched
