"""Property-based tests for the DES kernel."""

import heapq
import itertools
from unittest import mock

from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from repro.sim.engine import _COHORT, Event, Simulator


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=60))
def test_dispatch_order_is_nondecreasing(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.at(t, lambda t=t: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(times)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0),
                          st.booleans()), max_size=40))
def test_cancelled_events_never_fire(entries):
    sim = Simulator()
    fired = []
    for i, (t, cancel) in enumerate(entries):
        ev = sim.at(t, fired.append, i)
        if cancel:
            ev.cancel()
    sim.run()
    expected = {i for i, (_, cancel) in enumerate(entries) if not cancel}
    assert set(fired) == expected


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
            sim.after(nxt, step)

    sim.after(delays[0], step)
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
        sim.at(t, fired.append, t)
    sim.run(until=horizon)
    early = [t for t in times if t <= horizon]
    assert sorted(fired) == sorted(early)
    sim.run()
    assert sorted(fired) == sorted(times)


def _live_entries(sim) -> int:
    """Brute force: queued events that are not cancelled Event shells
    (a coalesced entry holds one event per member)."""
    return sum(len(entry[3]) if entry[2] is _COHORT else 1
               for entry in sim._heap
               if not (type(entry[2]) is Event and entry[2].cancelled))


_ops = st.one_of(
    st.tuples(st.just("at"), st.floats(min_value=0.0, max_value=10.0)),
    st.tuples(st.just("post"), st.floats(min_value=0.0, max_value=10.0)),
    st.tuples(st.just("burst"), st.integers(min_value=1, max_value=90)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=5.0)),
    st.tuples(st.just("step"), st.just(0)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_ops, max_size=60))
def test_pending_matches_brute_force_count(ops):
    """pending() is len(heap) minus the cancelled count; random mixes of
    at/post/cancel/run/step (bursts large enough to trigger compaction)
    must keep it equal to a scan of the heap."""
    sim = Simulator()
    handles = []
    for kind, arg in ops:
        if kind == "at":
            handles.append(sim.at(sim.now + arg, lambda: None))
        elif kind == "post":
            sim.post(sim.now + arg, lambda: None)
        elif kind == "burst":
            handles.extend(sim.at(sim.now + 1.0 + i, lambda: None)
                           for i in range(arg))
        elif kind == "cancel" and handles:
            # a run of up to 40 handles; fired or already-cancelled ones
            # are no-ops
            start = arg % len(handles)
            for ev in handles[start:start + 40]:
                ev.cancel()
        elif kind == "run":
            sim.run(until=sim.now + arg)
        elif kind == "step":
            sim.step()
        assert sim.pending() == _live_entries(sim)
        assert sim.stats()["pending"] == sim.pending()
    sim.run()
    assert sim.pending() == 0 == _live_entries(sim)


def test_pending_property_reaches_compaction():
    """The burst/cancel mix above does exercise compaction."""
    sim = Simulator()
    handles = [sim.at(1.0 + i, lambda: None) for i in range(90)]
    for ev in handles[:60]:
        ev.cancel()
    # the 46th cancel tips the heap over half-dead: 44 entries survive
    # the rebuild, and the 14 later cancels stay as lazy shells
    assert sim.compactions == 1
    assert len(sim._heap) == 44
    assert sim.pending() == _live_entries(sim) == 30


# ---------------------------------------------------------------------------
# same-instant joins are exact
# ---------------------------------------------------------------------------


def _post_join_without_joins(self, time, fn, args):
    """``post_join`` with joins disabled: one plain heap entry per push."""
    heapq.heappush(self._heap, (time, next(self._seq), fn, args))


#: few distinct delays, so pushes keep landing on the same instant
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_KINDS = st.sampled_from(["at", "post", "join", "join", "cancel"])
_HALT = st.integers(min_value=0, max_value=7).map(lambda x: x == 0)


def _node(children):
    # (how it is scheduled, delay, handle picked by a cancel, the pushes
    #  its handler makes, whether its handler halts the loop)
    return st.tuples(_KINDS, _DELAYS, st.integers(0, 1000),
                     children, _HALT)


_EVENT = st.recursive(
    _node(st.just(())),
    lambda inner: _node(st.lists(inner, max_size=4).map(tuple)),
    max_leaves=24,
)

_PROGRAM_OPS = st.one_of(
    # siblings pushed back to back
    st.tuples(st.just("push"), st.lists(_EVENT, min_size=1, max_size=3)),
    # (joins at one instant, cancellable events): big enough to compact
    st.tuples(st.just("burst"), st.tuples(st.integers(0, 40),
                                          st.integers(0, 80))),
    # a horizon below the clock moves it back
    st.tuples(st.just("run"), st.none() | _DELAYS | st.just(-1.0)),
    st.tuples(st.just("stop"), st.integers(min_value=1, max_value=6)),
    st.tuples(st.just("step"), st.integers(min_value=1, max_value=3)),
)


def _replay(ops):
    """Run a random schedule; return everything an observer can see."""
    sim = Simulator()
    log = []
    handles = []
    labels = itertools.count()

    def schedule(node):
        kind, delay, pick, children, halt = node
        if kind == "cancel":
            if handles:
                # up to 40 handles from the pick on: enough to compact
                start = pick % len(handles)
                for ev in handles[start:start + 40]:
                    ev.cancel()
            return
        args = (next(labels), children, halt)
        time = sim.now + delay
        if kind == "at":
            handles.append(sim.at(time, fire, *args))
        elif kind == "post":
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
            joins, ats = arg
            for _ in range(joins):
                schedule(("join", 1.0, 0, (), False))
            for i in range(ats):
                schedule(("at", 1.0 + i % 2, 0, (), False))
        elif kind == "run":
            sim.run(until=None if arg is None else sim.now + arg)
        elif kind == "stop":
            goal = len(log) + arg
            sim.run(stop_when=lambda: len(log) >= goal)
        else:
            for _ in range(arg):
                sim.step()
        assert sim.pending() == _live_entries(sim)
        seen.append((sim.now, sim.pending(), sim.events_dispatched,
                     sim.stats()["heap_size"], sim.compactions))
    while sim.pending():  # handlers may halt the drain
        sim.run()
    return log, seen, sim.events_dispatched, sim.coalesced


@settings(max_examples=100, deadline=None)
@given(st.lists(_PROGRAM_OPS, max_size=25))
# step() pops a cohort, then its first member pushes at the same instant
@example([("push", [("join", 0.5, 0, (("join", 0.0, 0, (), False),), False),
                    ("join", 0.5, 0, (), False)]),
          ("step", 1)])
# the clock moves back below an instant whose cohort already ran
@example([("push", [("at", 2.0, 0, (), False), ("join", 0.5, 0, (), False)]),
          ("run", 1.0), ("run", -1.0),
          ("push", [("join", 0.5, 0, (), False)])])
def test_joins_leave_dispatch_order_and_counts_unchanged(ops):
    """post_join's joins are exact: random at/post/cancel/join pushes,
    also from inside handlers and mixed with halt, until, stop_when and
    step, give the same calls in the same order at the same times, the
    same pending counts (inside handlers too), event totals and
    compactions as the same schedule with every push in its own entry."""
    log, seen, dispatched, coalesced = _replay(ops)
    target(float(coalesced))
    with mock.patch.object(Simulator, "post_join", _post_join_without_joins):
        ref_log, ref_seen, ref_dispatched, ref_coalesced = _replay(ops)
    assert ref_coalesced == 0
    assert log == ref_log
    assert seen == ref_seen
    assert dispatched == ref_dispatched
