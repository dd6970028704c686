#!/usr/bin/env python
"""Historic learning: amortizing the tuning phase across executions.

ADCL's learning phase costs real time — it must execute the suboptimal
candidates a few times each.  For short-running applications that cost
can eat the gains (the paper's Figs. 11/12 discussion).  The remedy is
*historic learning*: the tuning decision is persisted, keyed by the
exact problem signature, and the next execution of the same problem
starts directly with the recorded winner.

Run:  python examples/historic_learning.py
"""

import os
import tempfile

from repro.adcl import HistoryStore
from repro.bench import OverlapConfig, run_overlap
from repro.units import KiB, fmt_time


def main() -> None:
    cfg = OverlapConfig(
        platform="whale", nprocs=16, nbytes=128 * KiB,
        compute_total=10.0, paper_iterations=1000,
        iterations=30, nprogress=5,
    )
    with tempfile.TemporaryDirectory(prefix="repro-history-") as tmp:
        path = os.path.join(tmp, "history.json")
        store = HistoryStore(path)

        print("first execution (cold store): full learning phase")
        first = run_overlap(cfg, selector="brute_force",
                            evals_per_function=5, history=store)
        learn = sum(r.seconds for r in first.records if r.learning)
        print(f"  winner {first.winner!r} decided at iteration "
              f"{first.decided_at}; learning cost {fmt_time(learn)}; "
              f"total {fmt_time(first.total_time)}")

        print(f"\nhistory store now holds {len(store)} record(s) at {path}")

        print("\nsecond execution (warm store): learning skipped entirely")
        second = run_overlap(cfg, selector="brute_force",
                             evals_per_function=5, history=store)
        print(f"  every iteration uses {second.winner!r} from the store; "
              f"total {fmt_time(second.total_time)}")

        saved = first.total_time - second.total_time
        print(f"\n-> the warm run is {fmt_time(saved)} "
              f"({100 * saved / first.total_time:.1f}%) cheaper for the same "
              f"{cfg.iterations} iterations.")

        print("\na different message size is a different tuning problem:")
        other = OverlapConfig(**{**cfg.__dict__, "nbytes": 1 * KiB})
        third = run_overlap(other, selector="brute_force",
                            evals_per_function=5, history=store)
        print(f"  1KB run learned from scratch and chose {third.winner!r}; "
              f"store now holds {len(store)} records")


if __name__ == "__main__":
    main()
