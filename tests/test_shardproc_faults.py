"""Fault injection: crashes, dropped and duplicated command frames.

Cross-process state motion is exactly the kind of code that corrupts
silently, so the protocol is exercised under deterministic, seed-driven
faults:

- **worker crashes** (``WorkerFaults``: hard ``os._exit`` at the nth
  occurrence of a command kind, before or after applying it) — a crash
  during a rebalance import must roll the component back onto the donor
  *with its state intact*, and crash recovery must leave every registered
  query being served;
- **command-frame chaos** (``FrameFaults``: seeded drop/duplicate on the
  coordinator's send path) — retransmission plus sequence-number
  deduplication must keep the serve byte-identical to a fault-free one.
"""

import pytest

from repro.errors import LifecycleError
from repro.runtime import open_runtime
from repro.shard import (
    FrameFaults,
    ProcessShardedRuntime,
    WorkerFaults,
    fork_available,
)
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.workloads.churn import ChurnWorkload, drive_sharded

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process mode requires the fork start method"
)

SCHEMA = Schema.numbered(2)
AGG = "FROM S AGG avg(a1) OVER 20 BY a0 AS m"
SEQ = "FROM (FROM S WHERE a0 == 1) SEQ T MATCHING WITHIN 15 KEEP"
SEL = "FROM S WHERE a0 == 2"

FAST = {"command_timeout": 0.25, "max_retries": 60}


def feed(runtime, first, last):
    for ts in range(first, last):
        runtime.process(
            "S" if ts % 2 == 0 else "T", StreamTuple(SCHEMA, (ts % 3, ts), ts)
        )


class TestCrashDuringRebalance:
    @pytest.mark.parametrize("when", ["before", "after"])
    def test_import_crash_rolls_back_to_donor_with_state(self, when):
        """Acceptance: a worker crash during migration leaves the runtime
        serving all registered queries, component live on the donor shard."""
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            worker_faults={1: WorkerFaults(crash_on=("rebalance-in", 1), when=when)},
            **FAST,
        )
        try:
            proc.register(AGG, query_id="agg", shard=0)
            proc.register(SEQ, query_id="seq", shard=0)
            proc.register(SEL, query_id="sel", shard=1)
            feed(proc, 0, 40)
            with pytest.raises(LifecycleError, match="crashed during rebalance"):
                proc.rebalance("agg", 1)
            # Rolled back: everything registered, component on the donor.
            assert sorted(proc.active_queries) == ["agg", "sel", "seq"]
            assert proc.shard_of("agg") == 0
            assert proc.shard_of("seq") == 0
            assert proc.crash_recoveries == 1
            feed(proc, 40, 90)
            captured = proc.captured

            # The donor shard never crashed: its queries must be
            # byte-identical to a serve where the rebalance never happened.
            control = open_runtime(
                sources={"S": SCHEMA, "T": SCHEMA}, shards=2, capture_outputs=True
            )
            control.register(AGG, query_id="agg", shard=0)
            control.register(SEQ, query_id="seq", shard=0)
            control.register(SEL, query_id="sel", shard=1)
            feed(control, 0, 90)
            assert captured["agg"] == control.captured["agg"]
            assert captured["seq"] == control.captured["seq"]
            # The crashed receiver's own query lost pre-crash state but is
            # re-registered and serving again.
            assert [t for t in captured["sel"] if t.ts >= 40]
        finally:
            proc.close()

    def test_export_crash_recovers_donor_in_place(self):
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            worker_faults={0: WorkerFaults(crash_on=("rebalance-out", 1))},
            **FAST,
        )
        try:
            proc.register(AGG, query_id="agg", shard=0)
            proc.register(SEL, query_id="sel", shard=1)
            feed(proc, 0, 30)
            with pytest.raises(LifecycleError, match="crashed during export"):
                proc.rebalance("agg", 1)
            assert sorted(proc.active_queries) == ["agg", "sel"]
            assert proc.shard_of("agg") == 0
            assert proc.crash_recoveries == 1
            feed(proc, 30, 60)
            assert [t for t in proc.captured["agg"] if t.ts >= 30]
        finally:
            proc.close()


class TestCrashDuringLifecycle:
    def test_register_crash_recovers_and_retries(self):
        # Crash on the worker's second register: recovery re-registers the
        # first query, then the pending register is retried once.
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            worker_faults={0: WorkerFaults(crash_on=("register", 2))},
            **FAST,
        )
        try:
            proc.register(AGG, query_id="agg", shard=0)
            feed(proc, 0, 20)
            proc.register(SEL, query_id="sel", shard=0)  # crash + recover
            assert sorted(proc.active_queries) == ["agg", "sel"]
            assert proc.crash_recoveries == 1
            feed(proc, 20, 40)
            stats = proc.collect_stats()
            assert stats.outputs_by_query["agg"] > 0
            assert stats.outputs_by_query["sel"] > 0
        finally:
            proc.close()

    def test_stats_crash_recovers(self):
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            worker_faults={0: WorkerFaults(crash_on=("stats", 1))},
            **FAST,
        )
        try:
            proc.register(SEL, query_id="sel", shard=0)
            feed(proc, 0, 10)
            stats = proc.collect_stats()  # first STATS crashes shard 0
            assert proc.crash_recoveries == 1
            assert stats.input_events == 10
            assert sorted(proc.active_queries) == ["sel"]
        finally:
            proc.close()


class TestCommandFrameChaos:
    def test_drop_and_dup_preserve_byte_equality(self):
        """Dropped + duplicated command frames: the serve stays identical
        to the fault-free in-process reference across a whole churn
        schedule with continuous rebalancing."""
        workload = ChurnWorkload(
            arrival_rate=0.05,
            mean_lifetime=150.0,
            horizon=300,
            initial_queries=4,
            seed=3,
        )
        sources = {"S": workload.schema, "T": workload.schema}
        reference = open_runtime(
            sources=sources, shards=2, capture_outputs=True
        )
        faults = FrameFaults(seed=11, drop_rate=0.2, dup_rate=0.2)
        chaotic = ProcessShardedRuntime(
            sources, n_shards=2, capture_outputs=True, faults=faults, **FAST
        )
        try:
            applied_reference = sum(
                1
                for __ in drive_sharded(
                    reference,
                    workload.stream_events(),
                    workload.schedule(),
                    rebalance_every=4,
                )
            )
            applied_chaotic = sum(
                1
                for __ in drive_sharded(
                    chaotic,
                    workload.stream_events(),
                    workload.schedule(),
                    rebalance_every=4,
                )
            )
            assert faults.dropped > 0, "chaos must actually drop frames"
            assert faults.duplicated > 0, "chaos must actually dup frames"
            assert applied_reference == applied_chaotic
            assert chaotic.crash_recoveries == 0
            stats = chaotic.collect_stats()
            expected = reference.collect_stats()
            assert stats.outputs_by_query == expected.outputs_by_query
            assert stats.input_events == expected.input_events
            assert chaotic.captured == reference.captured
        finally:
            chaotic.close()

    def test_fault_plan_is_deterministic(self):
        first = FrameFaults(seed=5, drop_rate=0.3, dup_rate=0.3)
        second = FrameFaults(seed=5, drop_rate=0.3, dup_rate=0.3)
        plan_a = [first.copies_of(("x",)) for __ in range(50)]
        plan_b = [second.copies_of(("x",)) for __ in range(50)]
        assert plan_a == plan_b
        assert first.dropped == second.dropped > 0
        assert first.duplicated == second.duplicated > 0

    def test_fault_rate_validation(self):
        with pytest.raises(LifecycleError):
            FrameFaults(drop_rate=0.8, dup_rate=0.5)
        with pytest.raises(LifecycleError):
            WorkerFaults(crash_on=("register", 1), when="sometimes")
