"""Checkpoint scheduling edge cases.

The cases ISSUE 5 names as the dangerous ones:

- a checkpoint round **racing a cross-process rebalance**: the donor's
  snapshot (queued before the export) must include the moving component,
  the receiver's (queued before the import) must not — and recovery of
  either side afterwards must stitch checkpoint + write-ahead-log back
  into a byte-identical serve;
- a worker **crashing during the snapshot reply** (applied, never acked):
  the round aborts for that shard, the previous version is retained, the
  write-ahead log is *not* truncated, and the next round proceeds;
- **empty-component checkpoints**: a worker with no queries snapshots an
  empty manifest, restores from it, and serves registrations afterwards;
- chaos on the checkpoint frames themselves (dropped/duplicated commands)
  — collection retransmits and deduplicates like every other command.
"""

import os
import signal

import pytest

from repro.errors import CheckpointError, LifecycleError
from repro.runtime import open_runtime
from repro.shard import (
    FrameFaults,
    ProcessShardedRuntime,
    WorkerFaults,
    fork_available,
)
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process mode requires the fork start method"
)

SCHEMA = Schema.of_ints("a0", "a1")
AGG = "FROM S AGG avg(a1) OVER 20 BY a0 AS m"
SEQ = "FROM (FROM S WHERE a0 == 1) SEQ T MATCHING WITHIN 15 KEEP"
SEL = "FROM S WHERE a0 == 2"

FAST = {"command_timeout": 0.25, "max_retries": 60}


def feed(runtime, first, last):
    for ts in range(first, last):
        runtime.process(
            "S" if ts % 2 == 0 else "T", StreamTuple(SCHEMA, (ts % 3, ts), ts)
        )


def kill_worker(proc: ProcessShardedRuntime, shard: int) -> None:
    os.kill(proc._workers[shard].process.pid, signal.SIGKILL)


def control_runtime(placements, first, last):
    control = open_runtime(
        sources={"S": SCHEMA, "T": SCHEMA}, shards=2, capture_outputs=True
    )
    for text, query_id, shard in placements:
        control.register(text, query_id=query_id, shard=shard)
    feed(control, first, last)
    return control


class TestCheckpointRacingRebalance:
    def _race(self):
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            durable=True,
            **FAST,
        )
        proc.register(AGG, query_id="agg", shard=0)
        proc.register(SEL, query_id="sel", shard=1)
        feed(proc, 0, 40)
        version = proc.checkpoint(wait=False)  # snapshots in flight...
        moved = proc.rebalance("agg", 1)  # ...racing the component move
        proc.collect_checkpoints()
        assert moved == ["agg"]
        assert version == 1
        return proc

    def test_donor_and_receiver_versions_disagree_about_the_mover(self):
        proc = self._race()
        try:
            donor = proc.store.latest(0)
            receiver = proc.store.latest(1)
            assert donor.version == receiver.version == 1
            # Queue order is the cut: the donor snapshotted before its
            # export, the receiver before its import.
            assert any("agg" in c.query_ids for c in donor.components)
            assert not any("agg" in c.query_ids for c in receiver.components)
        finally:
            proc.close()

    def test_receiver_crash_replays_the_import(self):
        proc = self._race()
        try:
            feed(proc, 40, 80)
            kill_worker(proc, 1)
            proc.collect_stats()  # detection + recovery
            assert proc.crash_recoveries == 1
            report = proc.recovery_log[0]
            # Restored from the pre-import cut, the import entry replayed.
            assert report.queries_restored == ["sel"]
            assert report.lifecycle_replayed >= 1
            feed(proc, 80, 120)
            control = control_runtime(
                [(AGG, "agg", 0), (SEL, "sel", 1)], 0, 120
            )
            assert proc.captured == control.captured
            stats = proc.collect_stats()
            assert (
                stats.outputs_by_query
                == control.collect_stats().outputs_by_query
            )
        finally:
            proc.close()

    def test_donor_crash_replays_the_export(self):
        proc = self._race()
        try:
            feed(proc, 40, 80)
            kill_worker(proc, 0)
            proc.collect_stats()
            assert proc.crash_recoveries == 1
            report = proc.recovery_log[0]
            # The donor's checkpoint still holds agg; the replayed export
            # removes it again (the live copy is on shard 1).
            assert report.queries_restored == ["agg"]
            assert proc.shard_of("agg") == 1
            feed(proc, 80, 120)
            control = control_runtime(
                [(AGG, "agg", 0), (SEL, "sel", 1)], 0, 120
            )
            assert proc.captured == control.captured
        finally:
            proc.close()


class TestCrashDuringSnapshot:
    @pytest.mark.parametrize("when", ["before", "after"])
    def test_snapshot_crash_aborts_round_and_recovers(self, when):
        """``after`` is the named ISSUE case: the snapshot was built but the
        reply never left — the coordinator must treat the round as lost for
        that shard and keep the previous version."""
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            durable=True,
            worker_faults={0: WorkerFaults(crash_on=("checkpoint", 2), when=when)},
            **FAST,
        )
        try:
            proc.register(AGG, query_id="agg", shard=0)
            proc.register(SEL, query_id="sel", shard=1)
            feed(proc, 0, 30)
            first = proc.checkpoint()  # survives: the fault arms on #2
            assert proc.store.latest_version(0) == first
            wal_before = proc.wal_span(0)
            feed(proc, 30, 60)
            proc.checkpoint()  # shard 0 dies mid-snapshot
            assert proc.crash_recoveries == 1
            assert proc.checkpoint_failures == 1
            # Shard 0 keeps v1; shard 1 completed v2; shard 0's log was not
            # truncated past its last *complete* cut.
            assert proc.store.latest_version(0) == first
            assert proc.store.latest_version(1) == 2
            assert proc.wal_span(0)[0] == wal_before[0]
            report = proc.recovery_log[0]
            assert report.checkpoint_version == first
            assert not report.state_lost
            feed(proc, 60, 100)
            # Disarmed faults: the next round includes the respawned worker.
            third = proc.checkpoint()
            assert proc.store.latest_version(0) == third
            control = control_runtime(
                [(AGG, "agg", 0), (SEL, "sel", 1)], 0, 100
            )
            assert proc.captured == control.captured
            stats = proc.collect_stats()
            assert (
                stats.outputs_by_query
                == control.collect_stats().outputs_by_query
            )
        finally:
            proc.close()


class TestEmptyComponentCheckpoints:
    def test_empty_worker_checkpoints_and_restores(self):
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            durable=True,
            **FAST,
        )
        try:
            proc.register(AGG, query_id="agg", shard=0)  # shard 1 stays empty
            feed(proc, 0, 30)
            proc.checkpoint()
            empty = proc.store.latest(1)
            assert empty.components == ()
            assert empty.query_ids == []
            assert empty.cursor == {}  # nothing routed to an empty shard
            kill_worker(proc, 1)
            proc.collect_stats()
            assert proc.crash_recoveries == 1
            report = proc.recovery_log[0]
            assert report.checkpoint_version == empty.version
            assert report.queries_restored == []
            assert not report.state_lost
            # The restored-empty worker serves fresh registrations.
            proc.register(SEL, query_id="sel", shard=1)
            feed(proc, 30, 70)
            control = control_runtime([(AGG, "agg", 0)], 0, 70)
            control.register(SEL, query_id="sel", shard=1)
            feed(control, 30, 70)
            assert proc.captured["sel"] == control.captured["sel"]
        finally:
            proc.close()


class TestCheckpointProtocol:
    def test_checkpoint_requires_durability(self):
        proc = ProcessShardedRuntime({"S": SCHEMA}, n_shards=1, **FAST)
        try:
            with pytest.raises(CheckpointError, match="durable"):
                proc.checkpoint()
            with pytest.raises(CheckpointError, match="write-ahead log"):
                proc.wal_span(0)
        finally:
            proc.close()

    def test_checkpoint_completion_truncates_the_wal(self):
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            durable=True,
            **FAST,
        )
        try:
            proc.register(AGG, query_id="agg", shard=0)
            feed(proc, 0, 40)
            start, end = proc.wal_span(0)
            assert start == 0 and end > 0
            proc.checkpoint()
            assert proc.wal_span(0) == (end, end)
            assert proc.checkpoints_stored == 2
        finally:
            proc.close()

    def test_checkpoint_rounds_survive_command_chaos(self):
        """Checkpoint frames ship on the reliable path (their position is
        the cut), but every *other* command around them is dropped and
        duplicated — rounds must still complete with consistent cursors and
        the serve must stay byte-identical."""
        faults = FrameFaults(seed=13, drop_rate=0.25, dup_rate=0.25)
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            durable=True,
            checkpoint_every=5,
            faults=faults,
            **FAST,
        )
        try:
            control = open_runtime(
                sources={"S": SCHEMA, "T": SCHEMA}, shards=2, capture_outputs=True
            )
            for runtime in (proc, control):
                runtime.register(AGG, query_id="agg", shard=0)
                runtime.register(SEQ, query_id="seq", shard=1)
            # Interleave lifecycle churn with the feed so chaos has plenty
            # of droppable commands while snapshot rounds are in flight.
            for step in range(5):
                first = step * 20
                feed(proc, first, first + 20)
                feed(control, first, first + 20)
                for runtime in (proc, control):
                    runtime.register(
                        f"FROM S WHERE a0 == {step % 3}",
                        query_id=f"extra{step}",
                        shard=step % 2,
                    )
                    if step:
                        runtime.unregister(f"extra{step - 1}")
            proc.collect_checkpoints()
            assert faults.dropped > 0, "chaos must actually drop frames"
            assert faults.duplicated > 0, "chaos must actually dup frames"
            assert proc.checkpoints_stored > 0
            assert proc.crash_recoveries == 0
            assert proc.captured == control.captured
            stats = proc.collect_stats()
            assert (
                stats.outputs_by_query
                == control.collect_stats().outputs_by_query
            )
        finally:
            proc.close()

    def test_back_to_back_rounds_serialize(self):
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            durable=True,
            **FAST,
        )
        try:
            proc.register(AGG, query_id="agg", shard=0)
            feed(proc, 0, 20)
            first = proc.checkpoint(wait=False)
            second = proc.checkpoint(wait=False)  # collects the first
            assert (first, second) == (1, 2)
            proc.collect_checkpoints()
            assert proc.store.latest_version(0) == 2
            assert proc.checkpoint_failures == 0
        finally:
            proc.close()

    def test_reused_store_directory_is_foreign_not_fatal(self, tmp_path):
        """A second run over the same checkpoint directory must neither
        collide with the previous run's versions nor restore its state:
        prior checkpoints seed the version counter and sit below this
        run's recovery floor."""
        from repro.shard import CheckpointStore

        def serve(worker_faults=None):
            proc = ProcessShardedRuntime(
                {"S": SCHEMA, "T": SCHEMA},
                n_shards=2,
                capture_outputs=True,
                store=CheckpointStore(path=str(tmp_path)),
                worker_faults=worker_faults,
                **FAST,
            )
            try:
                proc.register(AGG, query_id="agg", shard=0)
                feed(proc, 0, 40)
                proc.checkpoint()
                feed(proc, 40, 60)
                return proc, proc.collect_stats()
            finally:
                proc.close()

        first, __ = serve()
        first_version = first.store.latest_version(0)
        assert first_version is not None

        # Second run, same directory: its first round must supersede...
        second, __ = serve()
        assert second.store.latest_version(0) > first_version
        assert second.checkpoint_failures == 0

        # ...and a crash *before* this run's first checkpoint must NOT
        # restore the previous runs' (foreign) state — it replays this
        # run's log from the origin instead.
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            store=CheckpointStore(path=str(tmp_path)),
            worker_faults={0: WorkerFaults(crash_on=("data", 10))},
            **FAST,
        )
        try:
            proc.register(SEQ, query_id="seq", shard=0)
            feed(proc, 0, 60)
            proc.collect_stats()
            assert proc.crash_recoveries == 1
            report = proc.recovery_log[0]
            assert report.checkpoint_version is None, (
                "recovery restored a previous run's checkpoint"
            )
            assert report.queries_replayed == ["seq"]
            control = open_runtime(
                sources={"S": SCHEMA, "T": SCHEMA}, shards=2, capture_outputs=True
            )
            control.register(SEQ, query_id="seq", shard=0)
            feed(control, 0, 60)
            assert proc.captured == control.captured
        finally:
            proc.close()

    def test_validation(self):
        with pytest.raises(LifecycleError, match="checkpoint_every"):
            ProcessShardedRuntime({"S": SCHEMA}, checkpoint_every=-1)
        # checkpoint_every implies durability.
        proc = ProcessShardedRuntime(
            {"S": SCHEMA}, n_shards=1, checkpoint_every=3, **FAST
        )
        try:
            assert proc.durable
            assert proc.store is not None
        finally:
            proc.close()
