"""Sharded serving: one coordinator over a fleet of workers.

The optimizer's output — one shared m-op plan — decomposes into connected
components: queries sharing any m-op or derived channel belong to one, so
a component is the unit the coordinator rebalances, and a single
:class:`~repro.engine.executor.StreamEngine` already drains them one after
another.  The coordinator, :class:`ProcessShardedRuntime`, opened with
:func:`~repro.runtime.config.open_runtime`, places each query on a shard
as it registers (:meth:`~ProcessShardedRuntime.place`: the least-loaded by
query count unless the caller names one; queries on different shards do
not share m-ops), and ``export_stream`` relays one query's output to
consumers on other shards.  Those two are the only ways a plan is split
across workers.  On top come routing and state-preserving component
rebalancing over a fleet of workers that speak one command protocol.
``shards=N`` gives inline workers in the calling process;
``process=True`` forks one worker process per shard for parallel serving.
The coordinator adds cluster-grade durability on top (forked workers):
per-shard write-ahead logs and versioned checkpoints
(:class:`CheckpointStore`) recover crashed workers, a coordinator journal
(:class:`CoordinatorLog`) makes the coordinator itself restartable — cold
start from disk or re-adoption of still-live workers
(:class:`CoordinatorHandoff`) — and the fleet resizes mid-serve
(``add_worker`` / ``remove_worker``) with checkpoint/restore as the drain
transport.
"""

from repro.errors import (
    CoordinatorCrashError,
    JournalError,
    WorkerUnreachableError,
)
from repro.shard.checkpoint import (
    CheckpointStore,
    ComponentCheckpoint,
    RecoveryReport,
    ShardCheckpoint,
    ShardLog,
)
from repro.shard.coordlog import (
    CoordinatorFaults,
    CoordinatorLog,
    CoordinatorState,
)
from repro.shard.policy import QueryCountPolicy, RebalancePolicy, ThroughputPolicy
from repro.shard.proc import (
    CoordinatorHandoff,
    FrameFaults,
    ProcessShardedRuntime,
    WorkerCrashError,
    WorkerFaults,
    fork_available,
)
from repro.shard.wire import WireDecoder, WireEncoder

__all__ = [
    "CheckpointStore",
    "ComponentCheckpoint",
    "CoordinatorCrashError",
    "CoordinatorFaults",
    "CoordinatorHandoff",
    "CoordinatorLog",
    "CoordinatorState",
    "FrameFaults",
    "JournalError",
    "ProcessShardedRuntime",
    "QueryCountPolicy",
    "RebalancePolicy",
    "RecoveryReport",
    "ShardCheckpoint",
    "ShardLog",
    "ThroughputPolicy",
    "WireDecoder",
    "WireEncoder",
    "WorkerCrashError",
    "WorkerFaults",
    "WorkerUnreachableError",
    "fork_available",
]
