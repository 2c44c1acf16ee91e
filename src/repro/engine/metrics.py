"""Run statistics and throughput accounting.

Event counting follows the paper's methodology (§5):

- *input events* are **logical** stream events: a channel tuple encoding k
  streams counts as k events, so the channel and no-channel configurations of
  Figures 10(c–d) and 11 process "exactly the same content" and their
  throughputs are directly comparable;
- *output events* are decoded per query: an output channel tuple whose
  membership covers k query streams counts k logical outputs;
- *physical events* count channel tuples as they flow, which is what the
  engine actually schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunStats:
    """Counters and timing for one engine run."""

    input_events: int = 0
    physical_input_events: int = 0
    output_events: int = 0
    physical_events: int = 0
    elapsed_seconds: float = 0.0
    outputs_by_query: dict = field(default_factory=dict)
    #: Largest total operator state observed (only sampled when the engine
    #: is asked to; 0 otherwise).  A memory proxy for window experiments.
    peak_state: int = 0
    #: query_id -> accumulated output latency in seconds: for every output
    #: event, the time between the triggering source event entering the
    #: engine and the output surfacing at the sink.  Only populated when the
    #: engine tracks latency (``StreamEngine(track_latency=True)``).
    latency_by_query: dict = field(default_factory=dict)
    #: Engine migrations performed while these stats accumulated (the online
    #: runtime increments this on every register/unregister).
    migrations: int = 0

    def record_output_latency(self, query_id, seconds: float) -> None:
        self.latency_by_query[query_id] = (
            self.latency_by_query.get(query_id, 0.0) + seconds
        )

    def mean_latency(self, query_id) -> float:
        """Mean output latency for one query (0.0 if it produced nothing)."""
        outputs = self.outputs_by_query.get(query_id, 0)
        if not outputs:
            return 0.0
        return self.latency_by_query.get(query_id, 0.0) / outputs

    @property
    def throughput(self) -> float:
        """Logical input events per second (the paper's y-axis)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.input_events / self.elapsed_seconds

    def merge(self, other: "RunStats") -> "RunStats":
        """Combine two runs (used when measurement is split into batches)."""
        merged = RunStats()
        merged.absorb(self)
        merged.absorb(other)
        return merged

    def absorb(self, other: "RunStats") -> None:
        """In-place :meth:`merge` — the per-event accumulation hot path of
        the online runtime, which folds one ``RunStats`` per processed event
        into its cumulative counters without allocating fresh dicts."""
        self.input_events += other.input_events
        self.physical_input_events += other.physical_input_events
        self.output_events += other.output_events
        self.physical_events += other.physical_events
        self.elapsed_seconds += other.elapsed_seconds
        self.peak_state = max(self.peak_state, other.peak_state)
        self.migrations += other.migrations
        for query_id, count in other.outputs_by_query.items():
            self.outputs_by_query[query_id] = (
                self.outputs_by_query.get(query_id, 0) + count
            )
        for query_id, seconds in other.latency_by_query.items():
            self.latency_by_query[query_id] = (
                self.latency_by_query.get(query_id, 0.0) + seconds
            )

    def __str__(self):
        return (
            f"RunStats(in={self.input_events}, out={self.output_events}, "
            f"elapsed={self.elapsed_seconds:.4f}s, "
            f"throughput={self.throughput:,.0f} ev/s)"
        )
