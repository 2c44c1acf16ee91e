"""Coordinator crash-recovery equivalence: the fleet survives its head.

The acceptance contract of the coordinator durability subsystem (ISSUE 7):
kill the coordinator at any of its commit points — around a batch journal
append, around a lifecycle journal append, mid-checkpoint-round — and a
successor coordinator must end **byte-identical** to a fault-free
in-process serve of the same schedule, on *both* recovery paths:

- **re-adoption** (:meth:`ProcessShardedRuntime.readopt`): the workers
  survived the coordinator; the successor handshakes them (``hello``),
  reconciles each against the journal, rolls back unjournaled effects and
  re-ships journaled-but-unshipped data;
- **cold start** (:meth:`ProcessShardedRuntime.from_journal`): total loss —
  the fleet is respawned from journaled checkpoints + WAL suffixes.

Two layers, mirroring ``test_checkpoint_recovery.py``:

- a hypothesis property over random churn schedules × seeded coordinator
  crash points × checkpoint intervals × recovery path
  (``strategies.coordinator_crash_schedules`` — satellite of ISSUE 7);
- deterministic per-commit-point tests pinning every (point, when) window
  on both paths, plus journal guard-rail tests.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CoordinatorCrashError, JournalError
from repro.lang.compiler import as_logical
from repro.runtime import open_runtime
from repro.shard import (
    CoordinatorFaults,
    CoordinatorLog,
    ProcessShardedRuntime,
    fork_available,
)
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.workloads.churn import ChurnEvent, drive_sharded, resume_tail
from strategies import churn_workloads, coordinator_crash_schedules

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process mode requires the fork start method"
)

SCHEMA = Schema.of_ints("a0", "a1")
FAST = {"command_timeout": 0.25, "max_retries": 60}

ALL_TEMPLATES = ("select", "sequence", "aggregate", "join")


def stream_events(first, last):
    """The shared deterministic feed: alternating S/T, ts = position."""
    return [
        ("S" if ts % 2 == 0 else "T", StreamTuple(SCHEMA, (ts % 3, ts), ts))
        for ts in range(first, last)
    ]


def register_event(at, query_id, text):
    return ChurnEvent(
        at=at, kind="register", query_id=query_id, query=as_logical(text, query_id)
    )


#: Deterministic two-shard serve: a keyed aggregate and a stateful join
#: (auto-placement puts q0 on shard 0, q1 on shard 1 — same tie-breaks in
#: both runtimes), with one mid-stream unregister so every crash point has
#: lifecycle traffic on both sides of it.
CHURN = [
    register_event(0, "q0", "FROM S AGG sum(a1) OVER 30 BY a0 AS m"),
    register_event(0, "q1", "FROM S JOIN T ON left.a0 == right.a0 WITHIN 20"),
    ChurnEvent(at=100, kind="unregister", query_id="q1"),
]
STREAMS = stream_events(0, 140)


def settle(proc: ProcessShardedRuntime):
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


def serve_reference(streams, churn, schema=SCHEMA):
    reference = open_runtime(
        sources={"S": schema, "T": schema}, shards=2, capture_outputs=True
    )
    for __ in drive_sharded(reference, streams, churn):
        pass
    return reference


def crash_and_recover(journal_dir, faults, mode, streams=STREAMS, churn=CHURN):
    """Serve the schedule until ``faults`` kills the coordinator, recover a
    successor via ``mode`` ("readopt" | "cold"), serve the journal-computed
    tail, and return the successor (caller closes it)."""
    proc = ProcessShardedRuntime(
        {"S": SCHEMA, "T": SCHEMA},
        n_shards=2,
        capture_outputs=True,
        checkpoint_every=4,
        journal=journal_dir,
        coordinator_faults=faults,
        **FAST,
    )
    try:
        for __ in drive_sharded(proc, streams, churn):
            pass
    except CoordinatorCrashError:
        pass
    else:
        pytest.fail(f"coordinator fault {faults.crash_on} never fired")
    if mode == "readopt":
        handoff = proc.detach()
        successor = ProcessShardedRuntime.readopt(journal_dir, handoff)
    else:
        proc.abandon()
        successor = ProcessShardedRuntime.from_journal(journal_dir)
    stream_tail, churn_tail = resume_tail(
        streams, churn, successor.input_positions(), successor.lifecycle_ops
    )
    for __ in drive_sharded(successor, stream_tail, churn_tail):
        pass
    return successor


#: Every injectable (point, occurrence, when) window of the deterministic
#: serve.  batch#30 lands mid-stream with both queries active; the
#: register/unregister windows straddle the lifecycle journal appends;
#: ckpt-round#2 dies with snapshot RPCs in flight (before-only: the round
#: is enqueued or it is not).
CRASH_POINTS = [
    ("batch", 30, "before"),
    ("batch", 30, "after"),
    ("register", 2, "before"),
    ("register", 2, "after"),
    ("unregister", 1, "before"),
    ("unregister", 1, "after"),
    ("ckpt-round", 2, "before"),
]


class TestCoordinatorCrashPoints:
    """Every commit-point window × both recovery paths, deterministically."""

    @pytest.mark.parametrize("point,occurrence,when", CRASH_POINTS)
    @pytest.mark.parametrize("mode", ["readopt", "cold"])
    def test_recovery_is_byte_identical(
        self, tmp_path, point, occurrence, when, mode
    ):
        reference = serve_reference(STREAMS, CHURN)
        faults = CoordinatorFaults(crash_on=(point, occurrence), when=when)
        successor = crash_and_recover(str(tmp_path), faults, mode)
        try:
            assert faults.fired
            assert_identical(successor, reference)
        finally:
            successor.close()

    def test_readopt_adopts_without_respawning(self, tmp_path):
        """A clean handoff (no crash mid-commit) re-adopts every worker in
        place: same incarnations, no checkpoint restores."""
        reference = serve_reference(STREAMS, CHURN)
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            checkpoint_every=4,
            journal=str(tmp_path),
            observe=True,
            **FAST,
        )
        for __ in drive_sharded(proc, stream_events(0, 70), CHURN[:2]):
            pass
        incarnations = {
            shard: handle.incarnation for shard, handle in proc._workers.items()
        }
        handoff = proc.detach()
        successor = ProcessShardedRuntime.readopt(
            str(tmp_path), handoff, observe=True
        )
        try:
            stream_tail, churn_tail = resume_tail(
                STREAMS, CHURN, successor.input_positions(), successor.lifecycle_ops
            )
            for __ in drive_sharded(successor, stream_tail, churn_tail):
                pass
            assert_identical(successor, reference)
            assert {
                shard: handle.incarnation
                for shard, handle in successor._workers.items()
            } == incarnations
            assert [e["kind"] for e in successor.events.topology()] == ["readopt"]
        finally:
            successor.close()

    def test_cold_start_emits_topology_event(self, tmp_path):
        reference = serve_reference(STREAMS, CHURN)
        faults = CoordinatorFaults(crash_on=("batch", 30), when="after")
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            checkpoint_every=4,
            journal=str(tmp_path),
            coordinator_faults=faults,
            **FAST,
        )
        with pytest.raises(CoordinatorCrashError):
            for __ in drive_sharded(proc, STREAMS, CHURN):
                pass
        proc.abandon()
        successor = ProcessShardedRuntime.from_journal(str(tmp_path), observe=True)
        try:
            stream_tail, churn_tail = resume_tail(
                STREAMS, CHURN, successor.input_positions(), successor.lifecycle_ops
            )
            for __ in drive_sharded(successor, stream_tail, churn_tail):
                pass
            assert_identical(successor, reference)
            assert [e["kind"] for e in successor.events.topology()] == ["cold_start"]
        finally:
            successor.close()


class TestCoordinatorCrashProperty:
    @given(
        workload=churn_workloads(max_horizon=300, templates=ALL_TEMPLATES),
        crash=coordinator_crash_schedules(),
        mode=st.sampled_from(["readopt", "cold"]),
    )
    @settings(max_examples=5, deadline=None)
    def test_recovered_serve_is_byte_identical(self, workload, crash, mode):
        """Random churn × coordinator crash point × checkpoint interval ×
        recovery path: the resumed serve ends byte-identical to the
        fault-free in-process one — and a draw whose crash never fires must
        end byte-identical without any recovery at all."""
        streams = list(workload.stream_events())
        churn = list(workload.schedule())
        reference = serve_reference(streams, churn, schema=workload.schema)
        with tempfile.TemporaryDirectory() as journal_dir:
            faults = crash.coordinator_faults()
            proc = ProcessShardedRuntime(
                {"S": workload.schema, "T": workload.schema},
                n_shards=2,
                capture_outputs=True,
                checkpoint_every=crash.checkpoint_every,
                journal=journal_dir,
                coordinator_faults=faults,
                **FAST,
            )
            crashed = False
            try:
                try:
                    for __ in drive_sharded(proc, streams, churn):
                        pass
                except CoordinatorCrashError:
                    crashed = True
                if not crashed:
                    assert_identical(proc, reference)
                    return
            finally:
                if not crashed:
                    proc.close()
            if mode == "readopt":
                handoff = proc.detach()
                successor = ProcessShardedRuntime.readopt(journal_dir, handoff)
            else:
                proc.abandon()
                successor = ProcessShardedRuntime.from_journal(journal_dir)
            try:
                stream_tail, churn_tail = resume_tail(
                    streams,
                    churn,
                    successor.input_positions(),
                    successor.lifecycle_ops,
                )
                for __ in drive_sharded(successor, stream_tail, churn_tail):
                    pass
                assert_identical(successor, reference)
            finally:
                successor.close()


class TestJournalGuards:
    def test_from_journal_needs_a_journal(self, tmp_path):
        with pytest.raises(JournalError, match="nothing to resume"):
            ProcessShardedRuntime.from_journal(str(tmp_path))

    def test_input_positions_need_a_journal(self):
        proc = ProcessShardedRuntime({"S": SCHEMA}, n_shards=1, **FAST)
        try:
            with pytest.raises(JournalError, match="coordinator journal"):
                proc.input_positions()
            assert proc.lifecycle_ops == 0
        finally:
            proc.close()

    def test_resume_survives_journal_compaction(self, tmp_path):
        """A journal that auto-compacted mid-serve (snapshot + truncated
        tail) cold-starts exactly like an append-only one."""
        reference = serve_reference(STREAMS, CHURN)
        log = CoordinatorLog(str(tmp_path), compact_every=16)
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            checkpoint_every=4,
            journal=log,
            **FAST,
        )
        for __ in drive_sharded(proc, STREAMS, CHURN):
            pass
        proc.abandon()
        successor = ProcessShardedRuntime.from_journal(str(tmp_path))
        try:
            stream_tail, churn_tail = resume_tail(
                STREAMS, CHURN, successor.input_positions(), successor.lifecycle_ops
            )
            assert stream_tail == [] and churn_tail == []
            assert_identical(successor, reference)
        finally:
            successor.close()
