"""The lease state machine: who is running which task, until when.

Pure bookkeeping, no processes and no wall clock of its own — every
method takes ``now`` explicitly, so the whole state machine is
deterministic and property-testable (``tests/bench/fabric/
test_leases.py`` drives it through hypothesis-generated interleavings
of deaths, expiries and completions and asserts the committed
task→result map always equals the serial executor's).

Task lifecycle::

    PENDING --assign--> LEASED --complete--> DONE
       ^                  |  \
       |   expire/death   |   steal (duplicate lease, clones <= 2)
       +------------------+
       |
       +--(worker died holding it >= poison_worker_kills times)--> POISONED

Rules the master relies on:

* a task is committed exactly once (first result wins); later results
  for the same task are duplicates, reported as such so the master can
  verify their fingerprints match;
* a worker's death requeues every lease it held and counts one *kill*
  against each held task; a task whose kill count reaches
  ``poison_worker_kills`` is quarantined (POISONED) instead of being
  requeued — it killed enough workers that handing it out again would
  sink the sweep;
* an expired lease requeues the task but does **not** count a kill
  (the worker may merely be slow; the eventual duplicate result is
  deduped);
* work stealing: when nothing is pending, an idle worker may take a
  *duplicate* lease on the longest-running outstanding task (bounded
  clones), so one straggler cannot serialize the sweep tail.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

__all__ = ["Lease", "LeaseTable", "TaskState"]


class TaskState(enum.Enum):
    PENDING = "pending"
    LEASED = "leased"
    DONE = "done"
    POISONED = "poisoned"


class Lease:
    """One worker's claim on one task."""

    __slots__ = ("task", "worker", "issued_at", "deadline", "stolen")

    def __init__(self, task: int, worker: int, issued_at: float,
                 deadline: float, stolen: bool = False):
        self.task = task
        self.worker = worker
        self.issued_at = issued_at
        self.deadline = deadline
        self.stolen = stolen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "steal" if self.stolen else "lease"
        return (f"<{kind} task={self.task} worker={self.worker} "
                f"deadline={self.deadline:.3f}>")


class LeaseTable:
    """Lease bookkeeping for ``n_tasks`` tasks.

    Parameters
    ----------
    n_tasks:
        Number of tasks, addressed by index ``0..n_tasks-1``.
    task_timeout:
        Lease lifetime in seconds (the master's clock; wall seconds in
        production, scripted values under test).
    poison_worker_kills:
        A task that was held by a dying worker this many times is
        quarantined instead of requeued.
    max_clones:
        Maximum concurrent leases per task (primary + steals).
    """

    def __init__(self, n_tasks: int, task_timeout: float = 60.0,
                 poison_worker_kills: int = 2, max_clones: int = 2,
                 steal_min_age: float = 0.0):
        if n_tasks < 0:
            raise ValueError("n_tasks must be >= 0")
        self.n_tasks = n_tasks
        self.task_timeout = float(task_timeout)
        self.poison_worker_kills = int(poison_worker_kills)
        self.max_clones = int(max_clones)
        #: a lease younger than this is not a straggler yet — stealing
        #: it would only burn duplicate work
        self.steal_min_age = float(steal_min_age)

        self._pending: Deque[int] = deque(range(n_tasks))
        self._leases: Dict[Tuple[int, int], Lease] = {}  # (task, worker)
        self._results: Dict[int, Any] = {}
        self._kills: Dict[int, int] = {}        # task -> worker deaths held
        self._poisoned: Set[int] = set()
        self.leases_expired = 0
        self.duplicate_results = 0

    # -- queries ------------------------------------------------------------

    def state(self, task: int) -> TaskState:
        if task in self._results:
            return TaskState.DONE
        if task in self._poisoned:
            return TaskState.POISONED
        if any(lease.task == task for lease in self._leases.values()):
            return TaskState.LEASED
        return TaskState.PENDING

    def done(self) -> bool:
        """Every task either committed or quarantined."""
        return len(self._results) + len(self._poisoned) >= self.n_tasks

    def results(self) -> Dict[int, Any]:
        return dict(self._results)

    def poisoned(self) -> List[int]:
        return sorted(self._poisoned)

    def kills(self, task: int) -> int:
        return self._kills.get(task, 0)

    # -- assignment ---------------------------------------------------------

    def next_task(self, worker: int, now: float) -> Optional[Lease]:
        """Lease the next unit of work to ``worker``, or None.

        Pending tasks first; with the pending queue drained, a steal —
        a duplicate lease on the oldest outstanding task (straggler
        heuristic) that this worker is not already running and that has
        fewer than ``max_clones`` active leases.
        """
        while self._pending:
            task = self._pending.popleft()
            # a task may have been committed (duplicate result) or
            # poisoned while queued; skip stale queue entries
            if task in self._results or task in self._poisoned:
                continue
            return self._issue(task, worker, now, stolen=False)
        victim = self._steal_candidate(worker, now)
        if victim is None:
            return None
        return self._issue(victim, worker, now, stolen=True)

    def _issue(self, task: int, worker: int, now: float,
               stolen: bool) -> Lease:
        lease = Lease(task, worker, now, now + self.task_timeout, stolen)
        self._leases[(task, worker)] = lease
        return lease

    def _steal_candidate(self, worker: int, now: float) -> Optional[int]:
        clones: Dict[int, int] = {}
        holders: Dict[int, Set[int]] = {}
        oldest: Dict[int, float] = {}
        for lease in self._leases.values():
            clones[lease.task] = clones.get(lease.task, 0) + 1
            holders.setdefault(lease.task, set()).add(lease.worker)
            prev = oldest.get(lease.task)
            if prev is None or lease.issued_at < prev:
                oldest[lease.task] = lease.issued_at
        candidates = [
            task for task, n in clones.items()
            if n < self.max_clones and worker not in holders[task]
            and now - oldest[task] >= self.steal_min_age
            and task not in self._results and task not in self._poisoned
        ]
        if not candidates:
            return None
        # longest-running first; index breaks ties deterministically
        return min(candidates, key=lambda t: (oldest[t], t))

    # -- completion ---------------------------------------------------------

    def complete(self, task: int, worker: int, result: Any) -> bool:
        """Commit a result.  True if this was the first (committing)
        result for the task, False for a duplicate (steal/retry echo)."""
        self._leases.pop((task, worker), None)
        if task in self._results:
            self.duplicate_results += 1
            return False
        if task in self._poisoned:
            # a quarantined task's late result is still the
            # deterministic answer; taking it un-poisons the task
            self._poisoned.discard(task)
        self._results[task] = result
        # drop sibling leases (steals) — their results will be dupes
        for key in [k for k in self._leases if k[0] == task]:
            del self._leases[key]
        return True

    def commit_inline(self, task: int, result: Any) -> None:
        """Commit a result computed by the master itself (quarantine
        fallback or serial degradation)."""
        self._poisoned.discard(task)
        for key in [k for k in self._leases if k[0] == task]:
            del self._leases[key]
        self._results.setdefault(task, result)

    # -- failure handling ---------------------------------------------------

    def worker_died(self, worker: int) -> Tuple[List[int], List[int]]:
        """Tear down every lease ``worker`` held.

        Returns ``(requeued, poisoned)`` task index lists.  Each held
        task gets one kill counted against it; crossing
        ``poison_worker_kills`` quarantines it instead of requeueing.
        """
        requeued: List[int] = []
        poisoned: List[int] = []
        for key in [k for k in self._leases if k[1] == worker]:
            task = key[0]
            del self._leases[key]
            if task in self._results:
                continue
            self._kills[task] = self._kills.get(task, 0) + 1
            if self._kills[task] >= self.poison_worker_kills:
                if not self._has_live_lease(task):
                    self._poisoned.add(task)
                    poisoned.append(task)
                continue
            self._requeue(task)
            requeued.append(task)
        return requeued, poisoned

    def expire(self, now: float) -> List[Lease]:
        """Requeue every lease past its deadline (no kill counted)."""
        expired = [l for l in self._leases.values() if l.deadline <= now]
        for lease in expired:
            del self._leases[(lease.task, lease.worker)]
            self.leases_expired += 1
            if lease.task not in self._results:
                self._requeue(lease.task)
        return expired

    def _has_live_lease(self, task: int) -> bool:
        return any(k[0] == task for k in self._leases)

    def _requeue(self, task: int) -> None:
        if (task not in self._pending and task not in self._results
                and task not in self._poisoned):
            self._pending.append(task)
