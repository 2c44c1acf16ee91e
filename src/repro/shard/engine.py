"""Inline bridge-cut execution: one batched engine per shard, drained in turn.

:class:`ShardedEngine` partitions a (typically optimized) plan with
:class:`~repro.shard.planner.ShardPlanner` and runs one batched
:class:`~repro.engine.executor.StreamEngine` per shard, in the calling
process.  Because shards are unions of entry-channel connected components,
the engines share no m-ops and no channels: feeding each shard exactly the
source events on its own entry channels reproduces the single-engine
outputs byte-for-byte, per query.

Merging per component is not what this class adds: a single
``StreamEngine`` already drains each plan component in turn.  What only
this class does is run a plan whose oversized components the planner cut
at a bridge channel (Roy et al.'s scored cuts): fragments drain in
topological order, the producing fragment's engine taps the bridge
channel, and the consuming fragment re-reads the tapped runs as a source
merged by timestamp against its own feed.  The parallel, serving form of
the same placement is the process fleet
(:class:`~repro.shard.proc.ProcessShardedRuntime` via
:func:`~repro.runtime.config.open_runtime`), whose live relays carry the
bridge between workers.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.core.plan import QueryPlan
from repro.engine.executor import StreamEngine
from repro.engine.metrics import RunStats
from repro.shard.planner import ShardPlan, ShardPlanner
from repro.shard.relay import BufferedRunSource, deduct_relay_inputs
from repro.shard.stats import ShardedRunStats
from repro.streams.sources import StreamSource


class ShardedEngine:
    """Executes one plan as ``n_shards`` batched engines, inline."""

    def __init__(
        self,
        plan: QueryPlan,
        n_shards: int,
        capture_outputs: bool = False,
        batching: bool = True,
        max_batch: int = 1024,
        planner: Optional[ShardPlanner] = None,
        observe: bool = False,
        split: bool = True,
    ):
        #: ``split=False`` forces whole-component placement (the pre-relay
        #: behavior); the bench uses it as the unsplit baseline.
        self.shard_plan: ShardPlan = (planner or ShardPlanner()).partition(
            plan, n_shards, split=split
        )
        self.n_shards = n_shards
        self.engines = [
            StreamEngine(
                subplan,
                capture_outputs=capture_outputs,
                batching=batching,
                max_batch=max_batch,
                observe=observe,
            )
            for subplan in self.shard_plan.subplans
        ]
        #: query_id -> captured outputs, merged across shards after a run.
        self.captured: dict = {}

    def run(self, sources: Sequence[StreamSource]) -> ShardedRunStats:
        """Drain ``sources`` through the shards; returns merged statistics.

        The drain unit is one connected component of one shard's sub-plan:
        a whole plan component, a fragment of a cut one, or cut fragments
        that landed on the same shard and reconnected there.  A unit reads
        its own sources plus the runs relayed over its inbound bridges, so
        units drain in dependency order, producers first.  Per-query outputs
        are byte-identical to the single-engine run over the same sources,
        and so is input accounting: relayed tuples are deducted, and sources
        nothing consumes drain on their fallback shard.
        """
        started = time.perf_counter()
        component_of = [
            subplan.channel_components()
            for subplan in self.shard_plan.subplans
        ]

        def unit_of(shard: int, channel_id: int) -> tuple[int, int]:
            return shard, component_of[shard].get(channel_id, channel_id)

        #: unit -> [(source position, 0, source)] in source order.
        feeds: dict[tuple, list] = {}
        channel_shard = self.shard_plan.channel_shard
        for position, source in enumerate(sources):
            channel_id = source.channel.channel_id
            # Channels no m-op consumes still drain on a stable fallback
            # shard, so input accounting matches the single engine's.
            shard = channel_shard.get(channel_id, channel_id % self.n_shards)
            feeds.setdefault(unit_of(shard, channel_id), []).append(
                (position, 0, source)
            )
        inbound: dict[tuple, list] = {}
        outbound: dict[tuple, list] = {}
        producer_of: dict[int, tuple] = {}
        for edge in self.shard_plan.relays:
            channel_id = edge.channel.channel_id
            producer = unit_of(edge.from_shard, channel_id)
            producer_of[edge.edge_id] = producer
            outbound.setdefault(producer, []).append(edge)
            consumer = unit_of(edge.to_shard, channel_id)
            inbound.setdefault(consumer, []).append(edge)
        order: list[tuple] = []
        #: unit -> earliest source position feeding it, directly or through
        #: relays: a relayed tuple surfaced in the single engine while that
        #: source dispatched, so it takes that position in timestamp ties.
        position_of: dict[tuple, int] = {}

        def visit(unit: tuple) -> None:
            if unit in position_of:
                return
            position = min(
                (entry[0] for entry in feeds.get(unit, ())),
                default=len(sources),
            )
            for edge in inbound.get(unit, ()):
                producer = producer_of[edge.edge_id]
                visit(producer)
                position = min(position, position_of[producer])
            position_of[unit] = position
            order.append(unit)

        for unit in (*feeds, *inbound):
            visit(unit)
        per_shard = [RunStats() for __ in self.engines]
        relayed: dict[int, list] = {}
        for unit in order:
            shard = unit[0]
            engine = self.engines[shard]
            entries = list(feeds.get(unit, ()))
            relay_sources: list[BufferedRunSource] = []
            for edge in inbound.get(unit, ()):
                source = BufferedRunSource(
                    edge.channel, relayed.pop(edge.edge_id)
                )
                relay_sources.append(source)
                position = position_of[producer_of[edge.edge_id]]
                entries.append((position, 1, source))
            entries.sort(key=lambda entry: entry[:2])
            for edge in outbound.get(unit, ()):
                engine.install_relay_tap(edge.channel)
            stats = engine.run([entry[2] for entry in entries])
            for source in relay_sources:
                deduct_relay_inputs(stats, source.delivered)
            per_shard[shard].absorb(stats)
            for edge in outbound.get(unit, ()):
                channel_id = edge.channel.channel_id
                relayed[edge.edge_id] = engine.take_relay_runs(channel_id)
                engine.remove_relay_tap(channel_id)
        wall = time.perf_counter() - started
        self.captured = {}
        for engine in self.engines:
            self.captured.update(engine.captured)
        return ShardedRunStats(per_shard=per_shard, wall_seconds=wall)

    # -- introspection ---------------------------------------------------------------

    @property
    def state_size(self) -> int:
        return sum(engine.state_size for engine in self.engines)

    def mop_stats(self) -> dict[int, dict]:
        """Per-m-op telemetry merged across shards (shards share no m-ops,
        so the merge is a disjoint union)."""
        merged: dict[int, dict] = {}
        for engine in self.engines:
            merged.update(engine.mop_stats())
        return merged

    def describe(self) -> str:
        lines = [
            f"ShardedEngine: {self.n_shards} shards "
            f"({self.shard_plan.effective_shards} active)",
            self.shard_plan.describe(),
        ]
        return "\n".join(lines)
