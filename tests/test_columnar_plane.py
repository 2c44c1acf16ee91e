"""Columnar data plane: end-to-end equivalence across every transport.

The zero-copy plane's acceptance contract: a serve over packed columns —
shared-memory ring records (forked workers), ``crun`` frames (inline
workers), columnar-native sources, vectorized ``process_columns`` — is
**byte-identical** to the inline-worker reference, including under seeded
worker crashes with durable recovery and checkpoint/restore.  Packable
input never falls back to the pickle wire, and the coordinator counts
every shipped run by transport (``rumor_runs_shipped_total``).  The
wire-codec properties live in ``test_wire_edge.py``; this module proves
the *integration*: routing, shipping, decoding, fault accounting and
schema retirement all composed.
"""

import pytest

from repro import open_runtime
from repro.core.optimizer import Optimizer
from repro.core.plan import QueryPlan
from repro.engine.executor import StreamEngine
from repro.operators.expressions import attr, lit
from repro.operators.predicates import Comparison
from repro.operators.select import Selection
from repro.shard import ProcessShardedRuntime, WorkerFaults, fork_available
from repro.streams.columns import ColumnBatch
from repro.streams.schema import Schema
from repro.streams.sources import ColumnRunSource, StreamSource
from repro.streams.tuples import StreamTuple

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
    reference = open_runtime(
        sources={"S": SCHEMA, "T": SCHEMA}, shards=2, capture_outputs=True
    )
    for index, text in enumerate(QUERIES):
        reference.register(text, query_id=f"q{index}", shard=index % 2)
    feed(reference, first, last)
    return reference


def assert_identical(
    proc: ProcessShardedRuntime, reference: ProcessShardedRuntime
):
    stats = proc.collect_stats()
    expected = reference.collect_stats()
    assert stats.output_events > 0
    assert proc.captured == reference.captured
    assert stats.outputs_by_query == expected.outputs_by_query
    assert stats.input_events == expected.input_events
    assert stats.output_events == expected.output_events
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


def shipped_runs(runtime) -> dict:
    """``{(shard, transport): runs}`` from ``rumor_runs_shipped_total``."""
    return {
        (sample["labels"]["shard"], sample["labels"]["transport"]): sample[
            "value"
        ]
        for sample in runtime.metrics_registry().snapshot()["samples"]
        if sample["name"] == "rumor_runs_shipped_total"
    }


def transports(runtime) -> dict:
    """Runs shipped per transport, summed over shards."""
    totals: dict = {}
    for (__, transport), runs in shipped_runs(runtime).items():
        totals[transport] = totals.get(transport, 0) + runs
    return totals


@needs_fork
class TestProcessRuntimePlaneEquivalence:
    def test_both_planes_match_the_inprocess_reference(self):
        """Forked workers read packed runs from their rings, inline workers
        get the same columns as ``crun`` frames; both serve identically,
        and packable input never ships on the pickle wire."""
        reference = reference_serve(0, 140)
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA}, n_shards=2, capture_outputs=True
        )
        try:
            for index, text in enumerate(QUERIES):
                proc.register(text, query_id=f"q{index}", shard=index % 2)
            feed(proc, 0, 140)
            assert_identical(proc, reference)
            forked = transports(proc)
            assert forked.get("pickle", 0) == 0
            assert forked["ring"] > 0
        finally:
            proc.close()
        assert set(transports(reference)) == {"crun"}


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
        schema = Schema.numbered(2)
        per_source = [
            [StreamTuple(schema, (ts % 7, ts), ts) for ts in range(300)]
        ]

        def run(make_sources):
            plan = QueryPlan()
            source = plan.add_source("S", schema)
            for constant in range(6):
                query_id = f"q{constant}"
                out = plan.add_operator(
                    Selection(Comparison(attr("a0"), "==", lit(constant))),
                    [source],
                    query_id=query_id,
                )
                plan.mark_output(out, query_id)
            Optimizer().optimize(plan)
            engine = StreamEngine(plan, capture_outputs=True)
            stats = engine.run(make_sources(plan, [source], per_source))
            return stats, engine.captured

        def row_sources(plan, handles, per_source):
            return [
                StreamSource(plan.channel_of(stream), tuples)
                for stream, tuples in zip(handles, per_source)
            ]

        from_rows = run(row_sources)
        from_cols = run(columnar_sources)
        assert from_rows[0].output_events > 0
        assert from_cols[0].outputs_by_query == from_rows[0].outputs_by_query
        assert from_cols[0].input_events == from_rows[0].input_events
        assert from_cols[1] == from_rows[1]


class TestEqualSchemasPack:
    """A run whose tuples carry a schema *equal* to the stream's — but a
    different object — packs like any other run instead of silently
    shipping on the pickle wire."""

    def test_from_rows_packs_a_distinct_but_equal_schema(self):
        stream_schema, row_schema = Schema.numbered(2), Schema.numbered(2)
        assert stream_schema is not row_schema
        rows = [StreamTuple(row_schema, (ts % 3, ts), ts) for ts in range(10)]
        batch = ColumnBatch.from_rows(stream_schema, rows, 1)
        assert batch is not None
        assert batch.count == 10
        assert batch.schema is stream_schema
        assert [ct.tuple.values for ct in batch.channel_tuples()] == [
            row.values for row in rows
        ]

    def test_from_rows_refuses_a_different_schema(self):
        schema = Schema.numbered(3)
        rows = [StreamTuple(schema, (1, 2, ts), ts) for ts in range(4)]
        assert ColumnBatch.from_rows(Schema.numbered(2), rows, 1) is None

    @pytest.mark.parametrize(
        "process",
        [False, pytest.param(True, marks=needs_fork)],
        ids=["inline", "forked"],
    )
    def test_fleet_ships_equal_schema_runs_packed(self, process):
        rows = [
            StreamTuple(Schema.numbered(2), (ts % 3, ts), ts)
            for ts in range(50)
        ]
        runtime = open_runtime(
            sources={"S": Schema.numbered(2)},
            shards=2,
            process=process,
            capture_outputs=True,
        )
        with runtime:
            runtime.register("FROM S WHERE a0 == 1", query_id="q0", shard=0)
            runtime.register("FROM S WHERE a0 == 2", query_id="q1", shard=1)
            runtime.process_batch("S", rows)
            assert runtime.collect_stats().output_events == 33
            packed = "ring" if process else "crun"
            # One run, counted once per target shard, never pickled.
            assert shipped_runs(runtime) == {
                ("0", packed): 1,
                ("1", packed): 1,
            }
