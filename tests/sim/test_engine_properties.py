"""Property-based tests for the DES kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Event, Simulator


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
    """Brute force: heap entries that are not cancelled Event shells."""
    return sum(1 for entry in sim._heap
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
