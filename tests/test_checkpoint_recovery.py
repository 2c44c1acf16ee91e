"""Crash-recovery equivalence: restore + replay is byte-identical.

The acceptance contract of the durable checkpoint subsystem: under
deterministic worker crashes at arbitrary points — mid-batch (between two
data frames, where no RPC is watching), mid-lifecycle, mid-checkpoint —
a durable :class:`ProcessShardedRuntime`'s captured outputs, per-query
counters and operator state after recovery are **byte-identical** to a
fault-free inline-worker runtime (``open_runtime(shards=2)``) serving the
same schedule.

Two layers:

- a hypothesis property over the full product of random churn schedules ×
  seeded crash points × checkpoint intervals (``strategies.crash_schedules``
  — satellite of ISSUE 5), with the 4-template query pool so sequences,
  shared aggregates *and* joins ride through restores;
- deterministic per-family tests (window sequence / shared aggregate /
  join / merged shapes) pinning a mid-stream crash with a known checkpoint
  cadence, plus recovery-report assertions closing the PR-4 silent-loss
  gap: state loss is now structured, logged and test-visible.
"""

import pytest
from hypothesis import given, settings

from repro.runtime import open_runtime
from repro.shard import ProcessShardedRuntime, WorkerFaults, fork_available
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.workloads.churn import drive_sharded
from strategies import churn_workloads, crash_schedules

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process mode requires the fork start method"
)

SCHEMA = Schema.of_ints("a0", "a1")
FAST = {"command_timeout": 0.25, "max_retries": 60}

#: One representative query per stateful operator family (ISSUE 5 demands
#: window sequence, shared aggregate and join at minimum).
FAMILIES = {
    "window-sequence": [
        "FROM (FROM S WHERE a0 == 1) SEQ T MATCHING WITHIN 25 KEEP"
    ],
    "shared-aggregate": [
        "FROM S AGG sum(a1) OVER 30 BY a0 AS m",
        "FROM S AGG sum(a1) OVER 50 AS total",
    ],
    "join": ["FROM S JOIN T ON left.a0 == right.a0 WITHIN 20"],
    "iterate": [
        "FROM S MU T FORWARD left.a0 == right.a0 REBIND right.a1 >= last.a1"
    ],
    "merged-sequence": [
        "FROM (FROM S WHERE a0 == 1) SEQ T MATCHING WITHIN 25 KEEP",
        "FROM (FROM S WHERE a0 == 1) SEQ T MATCHING WITHIN 25 KEEP",
    ],
}

ALL_TEMPLATES = ("select", "sequence", "aggregate", "join")


def feed(runtime, first, last):
    for ts in range(first, last):
        runtime.process(
            "S" if ts % 2 == 0 else "T", StreamTuple(SCHEMA, (ts % 3, ts), ts)
        )


def settle(proc: ProcessShardedRuntime):
    """Force crash detection: data frames are fire-and-forget, so a worker
    killed mid-stream is only provably dead after a synchronous RPC has
    drained its queue (the STATS round-trip blocks until the worker either
    answers or is reaped)."""
    return proc.collect_stats()


def assert_identical(
    proc: ProcessShardedRuntime, reference: ProcessShardedRuntime
):
    stats = settle(proc)
    assert proc.captured == reference.captured
    expected = reference.collect_stats()
    assert stats.outputs_by_query == expected.outputs_by_query
    assert stats.input_events == expected.input_events
    assert stats.output_events == expected.output_events
    assert sorted(proc.active_queries) == sorted(reference.active_queries)
    assert proc.state_size == reference.state_size


class TestCrashRecoveryProperty:
    @given(
        workload=churn_workloads(max_horizon=300, templates=ALL_TEMPLATES),
        crash=crash_schedules(),
    )
    @settings(max_examples=5, deadline=None)
    def test_durable_serve_survives_seeded_crashes(self, workload, crash):
        """Random churn × crash point × checkpoint interval: the durable
        process serve ends byte-identical to the fault-free in-process one,
        whether or not the drawn crash actually fired."""
        sources = {"S": workload.schema, "T": workload.schema}
        reference = open_runtime(
            sources=sources, shards=2, capture_outputs=True
        )
        for __ in drive_sharded(
            reference, workload.stream_events(), workload.schedule()
        ):
            pass
        proc = ProcessShardedRuntime(
            sources,
            n_shards=2,
            capture_outputs=True,
            durable=True,
            checkpoint_every=crash.checkpoint_every,
            worker_faults=crash.worker_faults(),
            **FAST,
        )
        try:
            for __ in drive_sharded(
                proc, workload.stream_events(), workload.schedule()
            ):
                pass
            assert_identical(proc, reference)
            if proc.crash_recoveries:
                report = proc.recovery_log[0]
                assert not report.state_lost, "durable recovery dropped state"
        finally:
            proc.close()


class TestFamilyCrashRecovery:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("checkpoint_every", [2, 10])
    def test_mid_stream_crash_restores_byte_identical(
        self, family, checkpoint_every
    ):
        """Acceptance: a worker killed mid-batch (between two data frames)
        restores from its last checkpoint and replays the log suffix; the
        post-recovery serve is byte-identical for every stateful family."""
        queries = FAMILIES[family]
        reference = open_runtime(
            sources={"S": SCHEMA, "T": SCHEMA}, shards=2, capture_outputs=True
        )
        for index, text in enumerate(queries):
            reference.register(text, query_id=f"q{index}", shard=0)
        if len(queries) > 1:
            reference.reoptimize(shard=0)
        feed(reference, 0, 140)

        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            durable=True,
            checkpoint_every=checkpoint_every,
            worker_faults={0: WorkerFaults(crash_on=("data", 35))},
            **FAST,
        )
        try:
            for index, text in enumerate(queries):
                proc.register(text, query_id=f"q{index}", shard=0)
            if len(queries) > 1:
                proc.reoptimize(shard=0)
            feed(proc, 0, 140)
            settle(proc)
            assert proc.crash_recoveries == 1, "the seeded crash must fire"
            report = proc.recovery_log[0]
            assert not report.state_lost
            assert report.checkpoint_version is not None
            assert sorted(report.queries_restored) == [
                f"q{index}" for index in range(len(queries))
            ]
            assert_identical(proc, reference)
        finally:
            proc.close()

    def test_restore_replays_less_than_wal_only(self):
        """The point of checkpointing: with a checkpoint the replay window
        is the log suffix, not the log origin."""

        def crash_and_recover(checkpoint_every):
            proc = ProcessShardedRuntime(
                {"S": SCHEMA, "T": SCHEMA},
                n_shards=2,
                capture_outputs=True,
                durable=True,
                checkpoint_every=checkpoint_every,
                worker_faults={0: WorkerFaults(crash_on=("data", 50))},
                **FAST,
            )
            try:
                proc.register(FAMILIES["shared-aggregate"][0], query_id="q0", shard=0)
                feed(proc, 0, 140)
                settle(proc)
                assert proc.crash_recoveries == 1
                return proc.recovery_log[0]
            finally:
                proc.close()

        wal_only = crash_and_recover(0)
        checkpointed = crash_and_recover(8)
        assert wal_only.checkpoint_version is None
        assert checkpointed.checkpoint_version is not None
        assert 0 < checkpointed.tuples_replayed < wal_only.tuples_replayed


class TestRecoveryReports:
    """The PR-4 silent-loss gap, closed: recovery always reports."""

    def test_blank_recovery_reports_state_lost(self):
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            worker_faults={0: WorkerFaults(crash_on=("data", 20))},
            **FAST,
        )
        try:
            proc.register(FAMILIES["window-sequence"][0], query_id="q0", shard=0)
            feed(proc, 0, 80)
            settle(proc)
            assert proc.crash_recoveries == 1
            report = proc.recovery_log[0]
            assert report.state_lost
            assert report.queries_lost_state == ["q0"]
            assert report.queries_restored == []
            assert report.tuples_replayed == 0
            assert not report.durable
            assert "DROPPED" in str(report)
        finally:
            proc.close()

    def test_blank_recovery_logs_a_warning(self, caplog):
        import logging

        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            worker_faults={0: WorkerFaults(crash_on=("register", 2))},
            **FAST,
        )
        try:
            proc.register("FROM S WHERE a0 == 1", query_id="q0", shard=0)
            with caplog.at_level(logging.WARNING, logger="repro.shard.proc"):
                proc.register("FROM S WHERE a0 == 2", query_id="q1", shard=0)
            assert any(
                "DROPPED" in record.message for record in caplog.records
            ), "silent state loss: no warning was emitted"
        finally:
            proc.close()

    def test_durable_recovery_reports_restore(self):
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            durable=True,
            checkpoint_every=5,
            worker_faults={0: WorkerFaults(crash_on=("data", 30))},
            **FAST,
        )
        try:
            proc.register(FAMILIES["window-sequence"][0], query_id="q0", shard=0)
            feed(proc, 0, 100)
            settle(proc)
            assert proc.crash_recoveries == 1
            report = proc.recovery_log[0]
            assert not report.state_lost
            assert report.durable
            assert report.queries_restored == ["q0"]
            assert report.state_restored > 0
            assert report.tuples_replayed > 0
            assert report.elapsed_seconds > 0
            assert "restored" in str(report)
        finally:
            proc.close()
