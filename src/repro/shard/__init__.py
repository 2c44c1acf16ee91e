"""Sharded parallel execution on top of the batched engine.

The optimizer's output — one shared m-op plan — decomposes into
**entry-channel connected components**: maximal subgraphs connected through
any channel.  Components share nothing, so they are the safe unit of
parallel placement (queries sharing any m-op necessarily co-locate), and a
single :class:`~repro.engine.executor.StreamEngine` already drains them one
after another.  This package partitions a plan along those lines
(:class:`ShardPlanner`, which also cuts oversized components at bridge
channels) and drives a cut plan inline, one batched engine per shard, with
the bridge runs relayed between fragments (:class:`ShardedEngine`).

The online lifecycle runs across shards on one coordinator,
:class:`ProcessShardedRuntime`, opened with
:func:`~repro.runtime.config.open_runtime`: placement, routing, relays and
state-preserving component rebalancing over a fleet of workers that speak
one command protocol.  ``shards=N`` gives inline workers in the calling
process; ``process=True`` forks one worker process per shard for parallel
serving.  The coordinator adds cluster-grade durability on top (forked
workers): per-shard write-ahead logs and versioned checkpoints
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
from repro.shard.engine import ShardedEngine
from repro.shard.planner import ShardComponent, ShardPlan, ShardPlanner
from repro.shard.policy import QueryCountPolicy, RebalancePolicy, ThroughputPolicy
from repro.shard.proc import (
    CoordinatorHandoff,
    FrameFaults,
    ProcessShardedRuntime,
    WorkerCrashError,
    WorkerFaults,
    fork_available,
)
from repro.shard.stats import ShardedRunStats, merge_run_stats
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
    "ShardComponent",
    "ShardLog",
    "ShardPlan",
    "ShardPlanner",
    "ShardedEngine",
    "ShardedRunStats",
    "ThroughputPolicy",
    "WireDecoder",
    "WireEncoder",
    "WorkerCrashError",
    "WorkerFaults",
    "WorkerUnreachableError",
    "fork_available",
    "merge_run_stats",
]
