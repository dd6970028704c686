"""Exact per-layer call counts, taken by one ``sys.setprofile`` hook.

Wall-clock moves with the host; the number of calls a run makes does
not (it follows the code and the interpreter's minor version)::

    with count_calls() as counts:
        run_overlap(cfg)
    counts["repro.sim"], counts["repro.nbc"], counts[C_CALLS]

Every Python call (a generator resume counts as one) is billed to the
``repro.<package>`` of the module whose code runs, or to :data:`OTHER`;
every C call to :data:`C_CALLS`.  The hook slows the block several-fold
and sees only the calling thread.  Nothing in the product imports it.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

__all__ = ["C_CALLS", "OTHER", "count_calls"]

#: bucket of calls into C functions (builtins, C extension methods)
C_CALLS = "C"

#: bucket of Python calls into modules outside ``repro``
OTHER = "other"


def _bucket(module: str) -> str:
    """``repro.<package>`` for a module of ``repro``, else :data:`OTHER`."""
    if module == "repro" or module.startswith("repro."):
        return ".".join(module.split(".", 2)[:2])
    return OTHER


@contextmanager
def count_calls() -> Iterator[Counter]:
    """Count the calls made inside the block, by layer.

    Yields a :class:`collections.Counter` that is filled when the block
    exits, also when it raises.  The profile function that was installed
    before the block is restored on exit.
    """
    counts: Counter = Counter()
    by_module: Counter = Counter()
    c_calls = 0

    def profile(frame, event, arg):
        nonlocal c_calls
        if event == "call":
            by_module[frame.f_globals.get("__name__", "")] += 1
        elif event == "c_call":
            c_calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(previous)
        for module, n in by_module.items():
            counts[_bucket(module)] += n
        counts[C_CALLS] += c_calls
