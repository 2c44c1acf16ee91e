"""Sharded lifecycle on inline workers: routing, placement, rebalance,
churn equality.

The headline property: a sharded serve — registers, unregisters, event
routing, *and mid-churn rebalances* — produces byte-identical per-query
outputs to the single-runtime serve of the same schedule, and rebalance
carries window/sequence state across shards (not rebuilt, not drained).
Served on the coordinator's inline workers (``open_runtime(shards=N)``);
``test_shardproc_*`` covers the same coordinator with forked workers."""

import pytest

from repro.errors import LifecycleError
from repro.runtime import QueryRuntime, open_runtime
from repro.shard import ProcessShardedRuntime
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.workloads.churn import ChurnWorkload, drive_batched, drive_sharded

SCHEMA = Schema.numbered(2)

AGG = "FROM S AGG avg(a1) OVER 20 BY a0 AS m"
SEQ = "FROM (FROM S WHERE a0 == 1) SEQ T MATCHING WITHIN 15"
SEL = "FROM S WHERE a0 == 2"


def inline_sharded(sources, n_shards, **options):
    return open_runtime(sources=sources, shards=n_shards, **options)


def feed(runtime, first, last):
    for ts in range(first, last):
        runtime.process(
            "S" if ts % 2 == 0 else "T", StreamTuple(SCHEMA, (ts % 3, ts), ts)
        )


class TestLifecycleRouting:
    def test_register_places_and_routes(self):
        runtime = inline_sharded({"S": SCHEMA, "T": SCHEMA}, 2)
        runtime.register(SEL, query_id="a")
        runtime.register(AGG, query_id="b")
        assert sorted(runtime.active_queries) == ["a", "b"]
        assert runtime.shard_loads() == [1, 1]
        assert runtime.shard_of("a") != runtime.shard_of("b")

    def test_explicit_shard_and_validation(self):
        runtime = inline_sharded({"S": SCHEMA}, 2)
        runtime.register(SEL, query_id="a", shard=1)
        assert runtime.shard_of("a") == 1
        with pytest.raises(LifecycleError):
            runtime.register(SEL, query_id="a")
        with pytest.raises(LifecycleError):
            runtime.register(SEL, query_id="b", shard=7)
        with pytest.raises(LifecycleError):
            runtime.shard_of("missing")
        with pytest.raises(LifecycleError):
            runtime.unregister("missing")
        with pytest.raises(LifecycleError):
            runtime.process("UNKNOWN", StreamTuple(SCHEMA, (0, 0), 0))
        with pytest.raises(LifecycleError):
            runtime.register("FROM NOPE WHERE a0 == 1", query_id="c")

    def test_unregister_frees_shard(self):
        runtime = inline_sharded({"S": SCHEMA}, 2)
        runtime.register(SEL, query_id="a", shard=0)
        runtime.unregister("a")
        assert runtime.active_queries == []
        assert runtime.shard_loads() == [0, 0]

    def test_input_events_counted_once_across_replicated_streams(self):
        # Both shards read S; aggregate input must count each event once.
        runtime = inline_sharded(
            {"S": SCHEMA}, 2, capture_outputs=True
        )
        runtime.register("FROM S WHERE a0 == 0", query_id="a", shard=0)
        runtime.register("FROM S WHERE a0 == 0", query_id="b", shard=1)
        for ts in range(10):
            runtime.process("S", StreamTuple(SCHEMA, (0, ts), ts))
        assert runtime.collect_stats().input_events == 10
        assert runtime.collect_stats().outputs_by_query == {"a": 10, "b": 10}
        batch = [StreamTuple(SCHEMA, (0, ts), ts) for ts in range(10, 14)]
        runtime.process_batch("S", batch)
        assert runtime.collect_stats().input_events == 14
        assert runtime.collect_stats().outputs_by_query == {"a": 14, "b": 14}

    def test_reoptimize_routes(self):
        runtime = inline_sharded({"S": SCHEMA}, 2)
        runtime.register(SEL, query_id="a", shard=0)
        reports = runtime.reoptimize()
        assert len(reports) == 2
        reports = runtime.reoptimize(shard=0)
        assert len(reports) == 1


class TestRebalance:
    def _runtime(self):
        runtime = inline_sharded(
            {"S": SCHEMA, "T": SCHEMA}, 2, capture_outputs=True
        )
        runtime.register(AGG, query_id="agg", shard=0)
        runtime.register(SEQ, query_id="seq", shard=0)
        return runtime

    def _single(self):
        runtime = QueryRuntime({"S": SCHEMA, "T": SCHEMA}, capture_outputs=True)
        runtime.register(AGG, query_id="agg")
        runtime.register(SEQ, query_id="seq")
        return runtime

    def test_mid_stream_rebalance_preserves_window_and_sequence_state(self):
        single = self._single()
        feed(single, 0, 40)
        feed(single, 40, 90)

        sharded = self._runtime()
        feed(sharded, 0, 40)
        state_before = sharded.state_size
        assert state_before > 0
        assert sharded.rebalance("agg", 1) == ["agg"]
        assert sharded.shard_of("agg") == 1
        assert sharded.state_size == state_before  # nothing drained or lost
        sharded.rebalance("seq", 1)
        feed(sharded, 40, 90)

        assert sharded.collect_stats().outputs_by_query == single.stats.outputs_by_query
        assert sharded.captured == single.captured
        assert sharded.state_size == single.state_size

    def test_rebalance_moves_whole_component(self):
        # Queries sharing an m-op (same selection → predicate index after
        # reoptimize) move together.
        runtime = inline_sharded({"S": SCHEMA}, 2)
        runtime.register("FROM S WHERE a0 == 1", query_id="a", shard=0)
        runtime.register("FROM S WHERE a0 == 1", query_id="b", shard=0)
        assert set(runtime.rebalance("a", 1)) == {"a", "b"}
        assert runtime.shard_of("b") == 1

    def test_rebalance_validation(self):
        runtime = self._runtime()
        with pytest.raises(LifecycleError):
            runtime.rebalance("agg", 0)  # already there
        with pytest.raises(LifecycleError):
            runtime.rebalance("agg", 9)
        with pytest.raises(LifecycleError):
            runtime.rebalance("missing", 1)

    def test_unregister_after_rebalance(self):
        runtime = self._runtime()
        feed(runtime, 0, 20)
        runtime.rebalance("agg", 1)
        runtime.unregister("agg")
        assert runtime.active_queries == ["seq"]
        feed(runtime, 20, 40)  # still serving the survivor


class TestChurnEquivalence:
    def _workload(self):
        return ChurnWorkload(
            arrival_rate=0.03,
            mean_lifetime=300.0,
            horizon=600,
            initial_queries=4,
            seed=11,
        )

    def _serve_single(self, workload):
        runtime = QueryRuntime(
            {"S": workload.schema, "T": workload.schema}, capture_outputs=True
        )
        applied = sum(
            1
            for __ in drive_batched(
                runtime, workload.stream_events(), workload.schedule()
            )
        )
        return runtime, applied

    @pytest.mark.parametrize("n_shards,rebalance_every", [(2, 0), (3, 3)])
    def test_sharded_serve_identical(self, n_shards, rebalance_every):
        workload = self._workload()
        single, applied_single = self._serve_single(workload)
        sharded = inline_sharded(
            {"S": workload.schema, "T": workload.schema},
            n_shards,
            capture_outputs=True,
        )
        applied_sharded = sum(
            1
            for __ in drive_sharded(
                sharded,
                workload.stream_events(),
                workload.schedule(),
                rebalance_every=rebalance_every,
            )
        )
        assert applied_single == applied_sharded
        assert single.stats.output_events > 0
        assert sharded.collect_stats().outputs_by_query == single.stats.outputs_by_query
        assert sharded.collect_stats().input_events == single.stats.input_events
        assert sharded.captured == single.captured
        # state_size equality is NOT asserted: placement changes which
        # queries share m-ops (sharing is per-shard), so live state can
        # legitimately differ while outputs stay byte-identical.
        assert sharded.state_size > 0

    def test_describe_and_introspection(self):
        runtime = inline_sharded({"S": SCHEMA, "T": SCHEMA}, 2)
        runtime.register(SEL, query_id="a")
        text = runtime.describe()
        assert "shard 0" in text and "shard 1" in text
        assert runtime.collect_stats().migrations >= 1

    def test_rejects_bad_shard_count(self):
        with pytest.raises(LifecycleError):
            ProcessShardedRuntime({"S": SCHEMA}, n_shards=0, inline=True)
