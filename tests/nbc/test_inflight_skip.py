"""A span does not poll an NBC request whose round has ops in flight.

``NBCRequest.progress`` returns at once while ``_pending`` is non-zero,
so a span's Progress charge skips the call (``Waitable._pending``); wait
retries still make it.  The skip must not move anything: every round
still starts at the first poll after its last op completes.  The rows
and finish times below are those of the same scenario before the skip
existed.
"""

import pytest

from repro import nbc
from repro.nbc.request import NBCRequest
from repro.obs import recording
from repro.sim import ComputeProgressSpan, SimWorld, Wait, get_platform
from repro.units import KiB

P = 4

#: (name, rank, ts.hex(), round or rounds) of every ``nbc.round`` and
#: ``nbc.done`` row.  Round 0 is a local copy, so ``start`` posts round
#: 1 too; round 2 starts at a span poll, round 3 and the completion at
#: wait retries
ROWS = [
    ("nbc.round", 0, "0x0.0p+0", 0),
    ("nbc.round", 0, "0x1.6e80fe033c8c6p-17", 1),
    ("nbc.round", 1, "0x0.0p+0", 0),
    ("nbc.round", 1, "0x1.6e80fe033c8c6p-17", 1),
    ("nbc.round", 2, "0x0.0p+0", 0),
    ("nbc.round", 2, "0x1.6e80fe033c8c6p-17", 1),
    ("nbc.round", 3, "0x0.0p+0", 0),
    ("nbc.round", 3, "0x1.6e80fe033c8c6p-17", 1),
    ("nbc.round", 0, "0x1.f0cbb5505f18fp-15", 2),
    ("nbc.round", 1, "0x1.f0cbb5505f18fp-15", 2),
    ("nbc.round", 2, "0x1.f0cbb5505f18fp-15", 2),
    ("nbc.round", 3, "0x1.f0cbb5505f18fp-15", 2),
    ("nbc.round", 2, "0x1.b42b20cb8809dp-14", 3),
    ("nbc.round", 0, "0x1.b42b20cb8809dp-14", 3),
    ("nbc.round", 1, "0x1.1eed9e66b3222p-13", 3),
    ("nbc.round", 3, "0x1.209b1d905eed2p-13", 3),
    ("nbc.done", 1, "0x1.6e2228cbc030dp-13", 4),
    ("nbc.done", 0, "0x1.6fcfa7f56bfbcp-13", 4),
    ("nbc.done", 3, "0x1.6fcfa7f56bfbdp-13", 4),
    ("nbc.done", 2, "0x1.717d271f17c6cp-13", 4),
]

FINISH = ["0x1.70dc176f775aap-13", "0x1.6f2e9845cb8fbp-13",
          "0x1.728996992325ap-13", "0x1.70dc176f775abp-13"]
EVENTS = 184


def program(ctx):
    req = nbc.start_ialltoall(ctx, 64 * KiB, algorithm="pairwise")
    yield ComputeProgressSpan(4e-6, [req], 16)
    yield Wait(req)


@pytest.fixture
def polls(monkeypatch):
    """Spy on ``NBCRequest.progress``: fails on a span poll (one made
    outside a ``Wait``) with ops in flight and returns the number of
    polls per outcome."""
    seen = {"advanced": 0, "idle": 0}
    progress = NBCRequest.progress

    def spy(self, ctx):
        if ctx._st.waiting is None:
            assert self._pending == 0, "span polled with ops in flight"
        before = self.current_round
        out = progress(self, ctx)
        seen["advanced" if self.current_round != before else "idle"] += 1
        return out

    monkeypatch.setattr(NBCRequest, "progress", spy)
    return seen


def run():
    world = SimWorld(get_platform("whale"), P)
    world.launch(program)
    res = world.run()
    return [t.hex() for t in res.finish_times], res.events


def test_untraced_run_matches_the_unskipped_run(polls):
    assert run() == (FINISH, EVENTS)
    # rounds 2 and 3 and the completion: three advancing polls per rank
    assert polls["advanced"] == 3 * P


def test_rounds_start_at_the_first_poll_after_completion(polls):
    with recording() as rec:
        times, events = run()
    rows = [(name, rank, ts.hex(), args.get("round", args.get("rounds")))
            for _, _, rank, _, name, ts, _, args in rec.events
            if name in ("nbc.round", "nbc.done")]
    assert rows == ROWS
    assert (times, events) == (FINISH, EVENTS)
    assert polls["advanced"] == 3 * P
