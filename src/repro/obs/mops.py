"""Per-m-op attribution: who processed how much, and who burns the time.

The engine's hot loop dispatches prebound ``process_batch`` methods from a
flattened channel table — there is no per-m-op accounting anywhere on that
path.  :class:`MOpObserver` adds it behind the ``observe=`` flag without
touching the unobserved loop: the engine builds a parallel *observed*
channel table pairing each method with its :class:`MOpRecord`, and the
observed dispatch variants bump plain slotted-attribute counters inline.

Busy time is *sampled*, not measured per call: every ``sample_every``-th
invocation of an executor is wrapped in a ``time.perf_counter`` pair and
the total is extrapolated (``sampled_seconds × calls / sampled_calls``).
At the default rate that is two clock reads per 32 batches per m-op —
well inside the ≤5 % overhead budget the CI gate enforces — while still
converging on the true share under any steady mix of batch sizes.

Records survive plan rewrites: an m-op that persists across a migration
keeps its cumulative counters, one that is dropped is marked ``retired``
but still reported, so the invariant the tests assert —

    ``RunStats.physical_events ==
    physical_input_events + Σ record.tuples_out``

(every physically dispatched tuple is either a source entry or the output
of exactly one m-op) — holds over a whole serve, churn included.
"""

from __future__ import annotations


class MOpRecord:
    """Cumulative per-m-op counters (one per m-op the observer ever saw)."""

    __slots__ = (
        "mop_id",
        "kind",
        "query_ids",
        "batches",
        "tuples_in",
        "tuples_out",
        "per_tuple_calls",
        "sampled_calls",
        "sampled_seconds",
        "retired",
    )

    def __init__(self, mop_id: int, kind: str, query_ids: tuple):
        self.mop_id = mop_id
        self.kind = kind
        self.query_ids = query_ids
        self.batches = 0  # batched process_batch invocations
        self.tuples_in = 0  # physical tuples handed to this executor
        self.tuples_out = 0  # physical tuples it emitted
        self.per_tuple_calls = 0  # per-tuple-fallback process invocations
        self.sampled_calls = 0
        self.sampled_seconds = 0.0
        self.retired = False

    @property
    def calls(self) -> int:
        return self.batches + self.per_tuple_calls

    @property
    def busy_seconds(self) -> float:
        """Extrapolated executor time (see module docstring)."""
        if not self.sampled_calls:
            return 0.0
        return self.sampled_seconds * self.calls / self.sampled_calls

    def as_dict(self) -> dict:
        return {
            "mop_id": self.mop_id,
            "kind": self.kind,
            "query_ids": list(self.query_ids),
            "batches": self.batches,
            "tuples_in": self.tuples_in,
            "tuples_out": self.tuples_out,
            "per_tuple_calls": self.per_tuple_calls,
            "sampled_calls": self.sampled_calls,
            "sampled_seconds": self.sampled_seconds,
            "busy_seconds": self.busy_seconds,
            "retired": self.retired,
        }


class MOpObserver:
    """Holds per-m-op records and engine-level sampled gauges.

    One observer per engine.  ``refresh(plan)`` is called from every table
    rebuild so attribution (kind, owning query ids) tracks the live plan;
    ``record_for`` hands the dispatch-table builder the record to pair with
    each prebound method.
    """

    def __init__(self, sample_every: int = 32, state_sample_every: int = 16):
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be at least 1, got {sample_every}"
            )
        if state_sample_every < 0:
            raise ValueError(
                "state_sample_every must be >= 0 (0 disables state sampling), "
                f"got {state_sample_every}"
            )
        self.sample_every = sample_every
        self.state_sample_every = state_sample_every
        self.records: dict[int, MOpRecord] = {}
        self.entry_batches = 0
        self.peak_state = 0

    # -- plan attribution ---------------------------------------------------------

    def refresh(self, plan) -> None:
        """Sync records with ``plan``: new m-ops get fresh records, persisting
        ones get their attribution updated (sharing rules can fold more
        queries into a live m-op), vanished ones are marked retired."""
        live = set()
        for mop in plan.mops:
            live.add(mop.mop_id)
            query_ids = tuple(
                sorted(
                    {
                        instance.query_id
                        for instance in mop.instances
                        if instance.query_id is not None
                    },
                    key=str,
                )
            )
            record = self.records.get(mop.mop_id)
            if record is None:
                self.records[mop.mop_id] = MOpRecord(
                    mop.mop_id, mop.kind, query_ids
                )
            else:
                record.kind = mop.kind
                record.query_ids = query_ids
                record.retired = False
        for mop_id, record in self.records.items():
            if mop_id not in live:
                record.retired = True

    def record_for(self, mop_id: int) -> MOpRecord:
        record = self.records.get(mop_id)
        if record is None:
            record = MOpRecord(mop_id, "?", ())
            self.records[mop_id] = record
        return record

    # -- engine-level sampling ----------------------------------------------------

    def maybe_sample_state(self, engine) -> None:
        """Called once per entry batch; probes ``engine.state_size`` every
        ``state_sample_every``-th call (the peak-state gauge source)."""
        self.entry_batches += 1
        every = self.state_sample_every
        if every and self.entry_batches % every == 0:
            size = engine.state_size
            if size > self.peak_state:
                self.peak_state = size

    def sample_state_now(self, engine) -> None:
        """Unconditional probe — hooked at natural boundaries (end of a
        serve, before a migration) so short runs still report a peak."""
        size = engine.state_size
        if size > self.peak_state:
            self.peak_state = size

    # -- views --------------------------------------------------------------------

    def mop_stats(self) -> dict[int, dict]:
        return {
            mop_id: record.as_dict()
            for mop_id, record in sorted(self.records.items())
        }

    def query_heat(self) -> dict:
        """query_id -> extrapolated busy seconds.

        An m-op shared by n queries splits its measured time evenly — the
        sharing rules merged those queries *because* the work is common, so
        an even split is the only attribution that does not double-count.
        """
        heat: dict = {}
        for record in self.records.values():
            if not record.query_ids:
                continue
            share = record.busy_seconds / len(record.query_ids)
            if share == 0.0:
                continue
            for query_id in record.query_ids:
                heat[query_id] = heat.get(query_id, 0.0) + share
        return heat

    def absorb(self, mop_stats: dict) -> None:
        """Merge an exported ``mop_stats`` mapping (e.g. carried over from a
        pre-migration engine) into this observer's records."""
        for mop_id, entry in mop_stats.items():
            mop_id = int(mop_id)
            record = self.records.get(mop_id)
            if record is None:
                record = MOpRecord(
                    mop_id, entry.get("kind", "?"), tuple(entry.get("query_ids", ()))
                )
                record.retired = bool(entry.get("retired", True))
                self.records[mop_id] = record
            record.batches += entry.get("batches", 0)
            record.tuples_in += entry.get("tuples_in", 0)
            record.tuples_out += entry.get("tuples_out", 0)
            record.per_tuple_calls += entry.get("per_tuple_calls", 0)
            record.sampled_calls += entry.get("sampled_calls", 0)
            record.sampled_seconds += entry.get("sampled_seconds", 0.0)

    def publish(self, registry, **labels) -> None:
        """Dump records and gauges into a :class:`MetricsRegistry`."""
        for record in self.records.values():
            mop_labels = dict(
                labels, mop_id=record.mop_id, mop_kind=record.kind
            )
            registry.counter("rumor_mop_tuples_in_total", **mop_labels).inc(
                record.tuples_in
            )
            registry.counter("rumor_mop_tuples_out_total", **mop_labels).inc(
                record.tuples_out
            )
            registry.counter("rumor_mop_batches_total", **mop_labels).inc(
                record.batches
            )
            registry.counter(
                "rumor_mop_per_tuple_fallback_total", **mop_labels
            ).inc(record.per_tuple_calls)
            registry.counter("rumor_mop_busy_seconds_total", **mop_labels).inc(
                record.busy_seconds
            )
        if self.peak_state:
            registry.gauge("rumor_engine_peak_state", **labels).set_max(
                self.peak_state
            )
