"""LibNBC-style non-blocking collectives: schedules + progress engine.

The paper (§III-B) builds every candidate implementation of a
non-blocking collective as a *schedule* — rounds of sends/receives/
copies separated by local barriers — executed incrementally by a
progress engine.  This package re-implements that design:

* :mod:`repro.nbc.schedule` — the schedule data structure, the
  process-global compiled-plan cache and the three binders (role,
  rotation, per-rank) that look plans up in it,
* :mod:`repro.nbc.request` — the NBC handle / progress engine,
* :mod:`repro.nbc.ibcast` / :mod:`~repro.nbc.ialltoall` /
  :mod:`~repro.nbc.iallgather` / :mod:`~repro.nbc.iallgatherv` /
  :mod:`~repro.nbc.ireduce` / :mod:`~repro.nbc.ireduce_scatter` /
  :mod:`~repro.nbc.iallreduce` — one algorithm table per family
  (including the paper's 21 Ibcast and 3 Ialltoall variants, the
  two-level rows keyed :data:`~repro.nbc.hier.HIER`, and the broadcast
  table's scatter+allgather row, the guideline checker's mock-up),
* :mod:`repro.nbc.hier` — the node partitions the two-level
  (leader-based) rows of the tables run on,
* :mod:`repro.nbc.coll` — :func:`~repro.nbc.coll.start_plan`, the one
  bind step from compiled plan to running request (peer table, caller
  arrays, the plan's derived scratch), the ``start_*`` init functions
  built on it (which the ADCL function-sets call) and blocking wrappers.
"""

from .coll import (
    alltoall,
    barrier,
    start_iallgather,
    start_iallgatherv,
    start_iallreduce,
    start_ialltoall,
    start_ibarrier,
    start_ibcast,
    start_ireduce,
    start_ireduce_scatter,
    start_plan,
)
from .ft import ft_collective
from .hier import HIER, Partition, as_partition, partition_for_comm
from .iallgather import ALLGATHER_ALGORITHMS, compiled_iallgather
from .iallgatherv import ALLGATHERV_ALGORITHMS, balanced_counts, compiled_iallgatherv
from .iallreduce import ALLREDUCE_ALGORITHMS, build_iallreduce, compiled_iallreduce
from .ialltoall import ALLTOALL_ALGORITHMS, compiled_ialltoall
from .ibcast import (
    BCAST_ALGORITHMS,
    BINOMIAL,
    IBCAST_FANOUTS,
    bcast_tree,
    build_ibcast,
    compiled_ibcast,
    two_level_tree,
)
from .ireduce import REDUCE_ALGORITHMS, build_ireduce, compiled_ireduce
from .ireduce_scatter import REDUCE_SCATTER_ALGORITHMS, compiled_ireduce_scatter
from .request import NBCRequest, make_buffers
from .schedule import (
    SCHEDULE_CACHE,
    USER_BUFFERS,
    BufSpec,
    CombineOp,
    CopyOp,
    RecvOp,
    Schedule,
    ScheduleCache,
    SendOp,
    identity_peers,
    schedule_cache_stats,
)

__all__ = [
    "ALLGATHER_ALGORITHMS",
    "ALLGATHERV_ALGORITHMS",
    "ALLREDUCE_ALGORITHMS",
    "ALLTOALL_ALGORITHMS",
    "BCAST_ALGORITHMS",
    "BINOMIAL",
    "BufSpec",
    "CombineOp",
    "CopyOp",
    "HIER",
    "IBCAST_FANOUTS",
    "NBCRequest",
    "Partition",
    "RecvOp",
    "REDUCE_ALGORITHMS",
    "REDUCE_SCATTER_ALGORITHMS",
    "SCHEDULE_CACHE",
    "Schedule",
    "ScheduleCache",
    "SendOp",
    "USER_BUFFERS",
    "alltoall",
    "as_partition",
    "balanced_counts",
    "barrier",
    "bcast_tree",
    "build_iallreduce",
    "build_ibcast",
    "build_ireduce",
    "compiled_iallgather",
    "compiled_iallgatherv",
    "compiled_iallreduce",
    "compiled_ialltoall",
    "compiled_ibcast",
    "compiled_ireduce",
    "compiled_ireduce_scatter",
    "ft_collective",
    "identity_peers",
    "make_buffers",
    "partition_for_comm",
    "schedule_cache_stats",
    "start_iallgather",
    "start_iallgatherv",
    "start_iallreduce",
    "start_ialltoall",
    "start_ibarrier",
    "start_ibcast",
    "start_ireduce",
    "start_ireduce_scatter",
    "start_plan",
    "two_level_tree",
]
