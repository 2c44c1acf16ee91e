"""Columnar data plane: end-to-end equivalence across every transport.

The zero-copy plane's acceptance contract: a serve over packed columns —
shared-memory ring records, ``crun`` queue frames, columnar-native
sources, vectorized ``process_columns`` — is **byte-identical** to the
same serve over the legacy pickle wire and to the in-process reference,
including under seeded worker crashes with durable recovery and
checkpoint/restore.  The wire-codec properties live in
``test_wire_edge.py``; this module proves the *integration*: routing,
shipping, decoding, fault accounting and schema retirement all composed.
"""

import pytest

from repro import RuntimeConfig, open_runtime
from repro.errors import LifecycleError
from repro.shard import (
    ProcessShardedRuntime,
    ShardedEngine,
    ShardedRuntime,
    WorkerFaults,
    fork_available,
)
from repro.streams.columns import ColumnBatch
from repro.streams.schema import Schema
from repro.streams.sources import ColumnRunSource
from repro.streams.tuples import StreamTuple
from test_shard_engine import (
    interleaved_tuples,
    make_sources,
    partitionable_plan,
    single_engine_run,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process mode requires the fork start method"
)

SCHEMA = Schema.of_ints("a0", "a1")
FAST = {"command_timeout": 0.25, "max_retries": 60}

#: One query per stateful family, so columns flow into windowed sequence
#: state, shared aggregates and symmetric joins — not just selections.
QUERIES = [
    "FROM S WHERE a0 == 2",
    "FROM (FROM S WHERE a0 == 1) SEQ T MATCHING WITHIN 25 KEEP",
    "FROM S AGG sum(a1) OVER 30 BY a0 AS m",
    "FROM S JOIN T ON left.a0 == right.a0 WITHIN 20",
]


def feed(runtime, first, last):
    for ts in range(first, last):
        runtime.process(
            "S" if ts % 2 == 0 else "T", StreamTuple(SCHEMA, (ts % 3, ts), ts)
        )


def reference_serve(first, last):
    reference = ShardedRuntime(
        {"S": SCHEMA, "T": SCHEMA}, n_shards=2, capture_outputs=True
    )
    for index, text in enumerate(QUERIES):
        reference.register(text, query_id=f"q{index}", shard=index % 2)
    feed(reference, first, last)
    return reference


def assert_identical(proc: ProcessShardedRuntime, reference: ShardedRuntime):
    stats = proc.collect_stats()
    assert stats.output_events > 0
    assert proc.captured == reference.captured
    assert stats.outputs_by_query == reference.stats.outputs_by_query
    assert stats.input_events == reference.stats.input_events
    assert stats.output_events == reference.stats.output_events
    assert sorted(proc.active_queries) == sorted(reference.active_queries)
    assert proc.state_size == reference.state_size


def columnar_sources(plan, handles, per_source):
    sources = []
    for stream, tuples in zip(handles, per_source):
        channel = plan.channel_of(stream)
        batch = ColumnBatch.from_rows(
            tuples[0].schema, tuples, channel.full_mask
        )
        assert batch is not None
        sources.append(ColumnRunSource(channel, batch))
    return sources


@needs_fork
class TestProcessRuntimePlaneEquivalence:
    @pytest.mark.parametrize("data_plane", ["columnar", "pickle"])
    def test_both_planes_match_the_inprocess_reference(self, data_plane):
        reference = reference_serve(0, 140)
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            data_plane=data_plane,
        )
        try:
            assert proc.data_plane == data_plane
            for index, text in enumerate(QUERIES):
                proc.register(text, query_id=f"q{index}", shard=index % 2)
            feed(proc, 0, 140)
            assert_identical(proc, reference)
        finally:
            proc.close()


@needs_fork
class TestColumnarUnderFaults:
    @pytest.mark.parametrize("checkpoint_every", [0, 8])
    def test_data_crash_recovery_stays_byte_identical(self, checkpoint_every):
        """A worker killed at its 35th *data delivery* — which on the
        columnar plane is a ring marker, not a pickle frame — restores
        from checkpoint+WAL and finishes byte-identical to the fault-free
        in-process serve."""
        reference = reference_serve(0, 140)
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            data_plane="columnar",
            durable=True,
            checkpoint_every=checkpoint_every,
            worker_faults={0: WorkerFaults(crash_on=("data", 35))},
            **FAST,
        )
        try:
            for index, text in enumerate(QUERIES):
                proc.register(text, query_id=f"q{index}", shard=index % 2)
            feed(proc, 0, 140)
            stats = proc.collect_stats()  # settles: forces crash detection
            assert stats is not None
            assert proc.crash_recoveries == 1, "the seeded crash must fire"
            assert not proc.recovery_log[0].state_lost
            assert_identical(proc, reference)
        finally:
            proc.close()


@needs_fork
class TestSchemaRetirement:
    def test_unregister_retires_interned_schemas(self):
        """The pin-leak fix, end to end: dropping the last query over a
        stream retires its interned schema from encoder, replay prefix and
        worker decoders; re-registering re-interns under a fresh token and
        the serve keeps working."""
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA}, n_shards=2, capture_outputs=True
        )
        try:
            proc.register(QUERIES[0], query_id="q0")
            feed(proc, 0, 40)
            proc.collect_stats()
            assert proc._encoder.interned_schemas == 1
            proc.unregister("q0")
            assert proc._encoder.interned_schemas == 0
            assert proc._encoder.schema_frames() == []
            # Re-registration re-interns (fresh token) and still serves.
            proc.register(QUERIES[0], query_id="q1")
            feed(proc, 40, 80)
            stats = proc.collect_stats()
            assert proc._encoder.interned_schemas == 1
            assert stats.outputs_by_query["q1"] > 0
        finally:
            proc.close()


class TestColumnarNativeSources:
    def test_single_engine_columnar_source_matches_rows(self):
        """A columnar-born source (zero-copy ``iter_runs`` slices) drives
        the batched engine to the same outputs as its row twin."""
        per_source = interleaved_tuples(1, 300)
        factory = lambda: partitionable_plan(num_sources=1)
        rows = lambda plan, handles: make_sources(plan, handles, per_source)
        cols = lambda plan, handles: columnar_sources(
            plan, handles, per_source
        )
        from_rows = single_engine_run(factory, rows)
        from_cols = single_engine_run(factory, cols)
        assert from_cols[0].outputs_by_query == from_rows[0].outputs_by_query
        assert from_cols[0].input_events == from_rows[0].input_events
        assert from_cols[1] == from_rows[1]

    def test_sharded_inline_columnar_sources_match_rows(self):
        per_source = interleaved_tuples(3, 300)
        factory = lambda: partitionable_plan()
        rows = lambda plan, handles: make_sources(plan, handles, per_source)
        cols = lambda plan, handles: columnar_sources(
            plan, handles, per_source
        )
        single = single_engine_run(factory, rows)
        plan, handles = factory()
        sharded = ShardedEngine(plan, 2, capture_outputs=True, max_batch=64)
        run = sharded.run(cols(plan, handles))
        assert run.aggregate.outputs_by_query == single[0].outputs_by_query
        assert run.aggregate.input_events == single[0].input_events
        assert sharded.captured == single[1]


class TestDataPlaneValidation:
    def test_config_rejects_unknown_plane(self):
        config = RuntimeConfig(
            sources={"S": SCHEMA}, process=True, data_plane="arrow"
        )
        with pytest.raises(LifecycleError, match="data_plane"):
            config.validate()

    @needs_fork
    def test_runtime_rejects_unknown_plane(self):
        with pytest.raises(LifecycleError, match="data_plane"):
            with pytest.warns(DeprecationWarning):
                ProcessShardedRuntime({"S": SCHEMA}, data_plane="arrow")

    @needs_fork
    def test_factory_forwards_and_journal_pins_the_plane(self, tmp_path):
        """``open_runtime`` forwards the knob, the coordinator journals
        it, and a resumed coordinator inherits the journaled plane."""
        journal = str(tmp_path / "journal")
        runtime = open_runtime(
            RuntimeConfig(
                sources={"S": SCHEMA, "T": SCHEMA},
                process=True,
                capture_outputs=True,
                data_plane="pickle",
                journal=journal,
            )
        )
        try:
            assert runtime.data_plane == "pickle"
            runtime.register(QUERIES[0], query_id="q0")
            feed(runtime, 0, 20)
            runtime.collect_stats()
        finally:
            runtime.close()
        resumed = open_runtime(
            RuntimeConfig(process=True, journal=journal, resume=True)
        )
        try:
            assert resumed.data_plane == "pickle"
        finally:
            resumed.close()
