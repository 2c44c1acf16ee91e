"""Per-shard and aggregate run statistics.

A sharded run produces one :class:`~repro.engine.metrics.RunStats` per shard.
Because entry-channel connected components partition the plan, the shards'
event sets are disjoint: summing per-shard counters gives exactly the
single-engine counters (inputs, outputs, per-query breakdowns).  Wall-clock
is measured once around the whole run, so :class:`ShardedRunStats` carries
``wall_seconds`` beside the per-shard busy times and defines aggregate
throughput against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.metrics import RunStats


def merge_run_stats(per_shard: list[RunStats]) -> RunStats:
    """Sum disjoint per-shard counters into one RunStats.

    ``elapsed_seconds`` sums too (total engine-busy time across shards);
    use :attr:`ShardedRunStats.wall_seconds` for end-to-end timing.
    """
    merged = RunStats()
    for stats in per_shard:
        merged.absorb(stats)
    return merged


@dataclass
class ShardedRunStats:
    """Statistics of one sharded run: per-shard detail plus the aggregate."""

    per_shard: list[RunStats] = field(default_factory=list)
    #: End-to-end wall-clock of the whole sharded run, measured by the
    #: caller (covers routing and every shard's drain).
    wall_seconds: float = 0.0

    @property
    def aggregate(self) -> RunStats:
        return merge_run_stats(self.per_shard)

    @property
    def throughput(self) -> float:
        """Aggregate logical input events per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.aggregate.input_events / self.wall_seconds

    @property
    def busy_seconds(self) -> float:
        """Total engine-busy time summed across shards."""
        return sum(stats.elapsed_seconds for stats in self.per_shard)

    def __str__(self):
        # Merge once: the throughput property would re-merge every shard's
        # counters a second time.
        aggregate = self.aggregate
        throughput = (
            aggregate.input_events / self.wall_seconds
            if self.wall_seconds > 0
            else 0.0
        )
        return (
            f"ShardedRunStats({len(self.per_shard)} shards, "
            f"in={aggregate.input_events}, out={aggregate.output_events}, "
            f"wall={self.wall_seconds:.4f}s, busy={self.busy_seconds:.4f}s, "
            f"throughput={throughput:,.0f} ev/s)"
        )
