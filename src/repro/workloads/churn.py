"""Churn workloads: Poisson query arrival and departure over a live stream.

Production multi-query systems see queries come and go while the stream keeps
flowing; the paper's batch workloads (§5.2) never exercise that.  This module
generates *churn schedules* — register/unregister events placed on the same
timestamp axis as the synthetic S/T streams — plus the query pool they draw
from, and a driver that replays stream events and lifecycle events through a
:class:`~repro.runtime.QueryRuntime` in timestamp order.

Arrivals form a Poisson process (exponential inter-arrival times, rate
``arrival_rate`` per timestamp unit); each arrived query lives an
exponentially-distributed ``mean_lifetime`` and then departs.  Queries cycle
through three templates chosen to exercise the optimizer's sharing rules and
the engine's state migration differently:

- **select** — ``σ(a0 == c)(S)``: stateless, merges into the predicate index
  (sσ) of earlier arrivals;
- **sequence** — ``σ(a0 == c)(S) ;θ T`` (Workload-1 shape): the sequence
  holds partial matches, so departure must free state and arrival must not
  disturb live sequence executors;
- **aggregate** — ``avg(a1) OVER w BY a0`` on S: window state that must ride
  through migrations untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.lang.ast import (
    AggregateNode,
    JoinNode,
    LogicalQuery,
    SelectNode,
    SequenceNode,
    SourceNode,
)
from repro.operators.expressions import attr, left, lit, right
from repro.operators.predicates import Comparison, DurationWithin, conjunction
from repro.streams.tuples import StreamTuple
from repro.workloads.synthetic import interleaved_events, synthetic_schema

TEMPLATES = ("select", "sequence", "aggregate")

#: Every template the pool knows; ``templates=`` may name any subset.  The
#: extra **join** template (``S ⋈ T ON a0 WITHIN w``) holds both window
#: sides as operator state — the checkpoint/recovery suites use it to cover
#: the join executor family under churn.
ALL_TEMPLATES = ("select", "sequence", "aggregate", "join")


@dataclass(frozen=True)
class ChurnEvent:
    """One lifecycle event on the stream-time axis."""

    at: int  # fires before the first stream event with ts >= at
    kind: str  # "register" | "unregister"
    query_id: str
    query: Optional[LogicalQuery] = None  # set for registers

    def __repr__(self):
        return f"ChurnEvent({self.kind} {self.query_id} @ {self.at})"


class ChurnWorkload:
    """A deterministic Poisson register/unregister schedule over S and T.

    ``initial_queries`` register at time 0 (the standing population);
    subsequent arrivals follow the Poisson process until ``horizon``
    timestamps.  All randomness is seeded, so the same parameters always
    yield the same schedule and queries — churn benchmark runs stay
    reproducible, like every other workload in this repo.
    """

    def __init__(
        self,
        arrival_rate: float = 0.01,
        mean_lifetime: float = 400.0,
        horizon: int = 2000,
        initial_queries: int = 4,
        num_attributes: int = 10,
        constant_domain: int = 20,
        window_domain: int = 50,
        seed: int = 0,
        templates: tuple = TEMPLATES,
    ):
        if arrival_rate < 0:
            raise WorkloadError("arrival_rate must be non-negative")
        if mean_lifetime <= 0:
            raise WorkloadError("mean_lifetime must be positive")
        if horizon < 1:
            raise WorkloadError("horizon must be at least 1")
        if not templates:
            raise WorkloadError("templates must name at least one template")
        unknown = [name for name in templates if name not in ALL_TEMPLATES]
        if unknown:
            raise WorkloadError(
                f"unknown templates {unknown}; choose from {ALL_TEMPLATES}"
            )
        self.templates = tuple(templates)
        self.arrival_rate = arrival_rate
        self.mean_lifetime = mean_lifetime
        self.horizon = horizon
        self.initial_queries = initial_queries
        self.schema = synthetic_schema(num_attributes)
        self.constant_domain = constant_domain
        self.window_domain = window_domain
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._schedule = self._build_schedule()

    # -- query pool ----------------------------------------------------------------

    def query(self, index: int) -> LogicalQuery:
        """Deterministic query ``index`` from the cycling template pool."""
        rng = np.random.default_rng(self.seed + 1000 + index)
        constant = int(rng.integers(0, self.constant_domain))
        window = int(rng.integers(1, self.window_domain + 1))
        template = self.templates[index % len(self.templates)]
        source = SourceNode("S")
        if template == "select":
            root = SelectNode(source, Comparison(attr("a0"), "==", lit(constant)))
        elif template == "join":
            root = JoinNode(
                source,
                SourceNode("T"),
                Comparison(left("a0"), "==", right("a0")),
                window,
            )
        elif template == "sequence":
            selected = SelectNode(
                source, Comparison(attr("a0"), "==", lit(constant))
            )
            predicate = conjunction(
                [
                    DurationWithin(window),
                    Comparison(
                        right("a0"),
                        "==",
                        lit(int(rng.integers(0, self.constant_domain))),
                    ),
                ]
            )
            root = SequenceNode(selected, SourceNode("T"), predicate)
        else:  # aggregate
            root = AggregateNode(
                source,
                "avg",
                "a1",
                window,
                group_by=("a0",),
                output_name="avg_a1",
            )
        return LogicalQuery(f"q{index}", root)

    # -- schedule ------------------------------------------------------------------

    def _build_schedule(self) -> list[ChurnEvent]:
        raw: list[tuple[int, int, ChurnEvent]] = []
        sequence = 0

        def add(at: float, kind: str, index: int, query=None) -> None:
            nonlocal sequence
            at_ts = min(int(at), self.horizon)
            raw.append(
                (
                    at_ts,
                    sequence,
                    ChurnEvent(at_ts, kind, f"q{index}", query),
                )
            )
            sequence += 1

        index = 0
        for __ in range(self.initial_queries):
            add(0, "register", index, self.query(index))
            self._maybe_departure(0.0, index, add)
            index += 1
        clock = 0.0
        while self.arrival_rate > 0:
            clock += float(self._rng.exponential(1.0 / self.arrival_rate))
            if clock >= self.horizon:
                break
            add(clock, "register", index, self.query(index))
            self._maybe_departure(clock, index, add)
            index += 1
        self.total_queries = index
        raw.sort(key=lambda entry: (entry[0], entry[1]))
        return [event for __, __seq, event in raw]

    def _maybe_departure(self, arrived_at: float, index: int, add) -> None:
        departs_at = arrived_at + float(self._rng.exponential(self.mean_lifetime))
        if departs_at < self.horizon:
            add(departs_at, "unregister", index)

    def schedule(self) -> list[ChurnEvent]:
        return list(self._schedule)

    def registrations(self) -> int:
        """Distinct queries the schedule registers over its lifetime."""
        return self.total_queries

    # -- stream events -------------------------------------------------------------

    def stream_events(self) -> list[tuple[str, StreamTuple]]:
        """``horizon`` interleaved S/T events on timestamps 0..horizon-1.

        A fresh seeded generator per call: repeated calls return the *same*
        sequence, so serving one workload object in two modes (the natural
        incremental vs. full-rebuild A/B) compares identical streams.
        """
        return interleaved_events(
            self.schema, self.horizon, np.random.default_rng(self.seed + 1)
        )


def drive(
    runtime,
    stream_events: Iterable[tuple[str, StreamTuple]],
    churn_events: Iterable[ChurnEvent],
) -> Iterator[ChurnEvent]:
    """Replay stream + lifecycle events through ``runtime`` in time order.

    Each churn event fires before the first stream event whose timestamp has
    reached it; remaining churn events past the last stream timestamp fire at
    the end.  Unregisters for queries that never became active (e.g. the
    runtime was handed a truncated schedule) are skipped.  Yields each
    lifecycle event as it is applied, so callers can interleave their own
    bookkeeping (plan snapshots, stats sampling) with the run.
    """
    pending = list(churn_events)
    position = 0
    for stream_name, tuple_ in stream_events:
        while position < len(pending) and pending[position].at <= tuple_.ts:
            event = pending[position]
            position += 1
            if _apply(runtime, event):
                yield event
        runtime.process(stream_name, tuple_)
    while position < len(pending):
        event = pending[position]
        position += 1
        if _apply(runtime, event):
            yield event


def drive_batched(
    runtime,
    stream_events: Iterable[tuple[str, StreamTuple]],
    churn_events: Iterable[ChurnEvent],
    max_batch: int = 1024,
) -> Iterator[ChurnEvent]:
    """Batched :func:`drive`: same event/lifecycle interleaving, but maximal
    runs of consecutive same-stream events between lifecycle boundaries are
    pushed through ``QueryRuntime.process_batch`` as one batch.

    Lifecycle events still fire before the first stream event whose
    timestamp reaches them — a pending batch is flushed first, so every
    migration happens on a batch boundary and the serve is event-for-event
    equivalent to the per-event driver.
    """
    pending = list(churn_events)
    position = 0
    run_name: Optional[str] = None
    run: list[StreamTuple] = []
    for stream_name, tuple_ in stream_events:
        boundary = (
            position < len(pending) and pending[position].at <= tuple_.ts
        )
        if run and (
            boundary or stream_name != run_name or len(run) >= max_batch
        ):
            runtime.process_batch(run_name, run)
            run = []
        while position < len(pending) and pending[position].at <= tuple_.ts:
            event = pending[position]
            position += 1
            if _apply(runtime, event):
                yield event
        run_name = stream_name
        run.append(tuple_)
    if run:
        runtime.process_batch(run_name, run)
    while position < len(pending):
        event = pending[position]
        position += 1
        if _apply(runtime, event):
            yield event


def drive_sharded(
    runtime,
    stream_events: Iterable[tuple[str, StreamTuple]],
    churn_events: Iterable[ChurnEvent],
    max_batch: int = 1024,
    rebalance_every: int = 0,
    policy=None,
    heartbeat_interval: float = 0.0,
) -> Iterator[ChurnEvent]:
    """Serve a churn schedule through the sharded coordinator
    (:class:`~repro.shard.proc.ProcessShardedRuntime`, inline or forked
    workers).

    Identical event/lifecycle interleaving to :func:`drive_batched` (batches
    flush before lifecycle boundaries, so registers, unregisters *and*
    rebalances all land on batch boundaries).  With ``rebalance_every`` > 0,
    after every that many applied lifecycle events the driver asks
    ``policy`` (default: :class:`~repro.shard.policy.QueryCountPolicy`
    load levelling; pass :class:`~repro.shard.policy.ThroughputPolicy` for
    the adaptive busy-time heuristic) for candidate moves and applies the
    first that succeeds.  Components the policy flags as oversized are
    skipped and counted on ``policy.oversized_alerts``.

    With ``heartbeat_interval`` > 0 a
    :class:`~repro.serve.drive.HeartbeatTimer` runs alongside the drive,
    beating the runtime on that wall-clock cadence — so worker failures
    are detected even while the driver is stalled between events (the
    inline per-event heartbeats below only fire when data flows).
    """
    from repro.errors import LifecycleError

    if rebalance_every and policy is None:
        from repro.shard.policy import QueryCountPolicy

        policy = QueryCountPolicy()
    applied = 0
    # The non-blocking health pass: collect pipelined checkpoint replies
    # and recover workers that died mid-stream (data frames are
    # fire-and-forget, so nothing else would notice until the next
    # synchronous RPC).
    heartbeat = runtime.heartbeat

    def maybe_rebalance() -> None:
        if not rebalance_every or applied % rebalance_every:
            return
        for query_id, target in policy.propose(runtime):
            try:
                runtime.rebalance(query_id, target)
            except LifecycleError:
                continue
            return

    if heartbeat_interval > 0:
        from repro.serve.drive import HeartbeatTimer

        timer = HeartbeatTimer(runtime, interval=heartbeat_interval)
    else:
        timer = None

    # drive_batched flushes the pending batch before every lifecycle event
    # and yields right after applying it, so each yield point is a batch
    # boundary — exactly where a rebalance is safe to interleave.
    try:
        if timer is not None:
            timer.start()
        for event in drive_batched(
            runtime, stream_events, churn_events, max_batch
        ):
            applied += 1
            heartbeat()
            maybe_rebalance()
            yield event
        heartbeat()
    finally:
        if timer is not None:
            timer.stop()


def resume_tail(
    stream_events: Iterable[tuple[str, StreamTuple]],
    churn_events: Iterable[ChurnEvent],
    input_positions: dict,
    lifecycle_ops: int,
) -> tuple[list[tuple[str, StreamTuple]], list[ChurnEvent]]:
    """The unserved tail of a churn schedule, per a coordinator journal.

    A restarted coordinator (:meth:`ProcessShardedRuntime.from_journal` /
    ``readopt``) already owns everything its journal recorded; the driver
    must replay only what comes after.  Given the *original* stream and
    churn event sequences plus the journal's resume markers
    (``runtime.input_positions()`` and ``runtime.lifecycle_ops``), this
    returns ``(stream_tail, churn_tail)`` to hand straight back to
    :func:`drive` / :func:`drive_batched` / :func:`drive_sharded`.

    The lifecycle skip mirrors :func:`_apply`'s journaling rule: registers
    always counted, unregisters only when the query was active at that
    point (tracked with a simulated active set) — an unregister the
    original serve skipped was never journaled, so it does not consume a
    journaled op here either.
    """
    remaining = int(lifecycle_ops)
    active: set = set()
    churn_tail: list[ChurnEvent] = []
    for event in churn_events:
        if remaining <= 0:
            churn_tail.append(event)
            continue
        if event.kind == "register":
            active.add(event.query_id)
            remaining -= 1
        elif event.query_id in active:
            active.discard(event.query_id)
            remaining -= 1
        # else: unregister of an inactive query — never applied, never
        # journaled; drop it from the prefix without consuming an op.
    done = dict(input_positions)
    stream_tail: list[tuple[str, StreamTuple]] = []
    for stream_name, tuple_ in stream_events:
        served = done.get(stream_name, 0)
        if served > 0:
            done[stream_name] = served - 1
            continue
        stream_tail.append((stream_name, tuple_))
    return stream_tail, churn_tail


def _apply(runtime, event: ChurnEvent) -> bool:
    if event.kind == "register":
        runtime.register(event.query)
        return True
    if event.query_id in runtime.active_queries:
        runtime.unregister(event.query_id)
        return True
    return False
