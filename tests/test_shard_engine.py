"""Sharded engine: output equality with the single engine.

The sharded contract extends the batched one: for every plan and shard
count, the union of per-shard outputs — per-query counts, content,
timestamps *and* order — equals the single batched engine's, and aggregate
input accounting matches (each source event counted exactly once).
"""

import numpy as np
import pytest

from repro.core.optimizer import Optimizer
from repro.core.plan import QueryPlan
from repro.engine.executor import StreamEngine
from repro.errors import PlanError
from repro.operators.expressions import attr, lit, right
from repro.operators.predicates import Comparison, DurationWithin, conjunction
from repro.operators.select import Selection
from repro.operators.sequence import Sequence
from repro.shard import ShardedEngine
from repro.streams.schema import Schema
from repro.streams.sources import StreamSource
from repro.streams.tuples import StreamTuple
from repro.workloads.synthetic import synthetic_schema
from repro.workloads.zipf import ZipfSampler


def partitionable_plan(num_sources=3, queries_per_source=8, optimize=True):
    schema = synthetic_schema()
    rng = np.random.default_rng(5)
    plan = QueryPlan()
    sources = [plan.add_source(f"S{i}", schema) for i in range(num_sources)]
    for i, source in enumerate(sources):
        constants = ZipfSampler(0, 49, 1.5, rng).sample(queries_per_source)
        for j, constant in enumerate(constants):
            query_id = f"q{i}_{j}"
            out = plan.add_operator(
                Selection(Comparison(attr("a0"), "==", lit(int(constant)))),
                [source],
                query_id=query_id,
            )
            plan.mark_output(out, query_id)
    if optimize:
        Optimizer().optimize(plan)
    return plan, sources


def interleaved_tuples(num_sources, count, seed=6):
    schema = synthetic_schema()
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 50, size=(count, len(schema)))
    per_source = [[] for __ in range(num_sources)]
    for ts in range(count):
        per_source[ts % num_sources].append(
            StreamTuple(schema, tuple(int(v) for v in values[ts]), ts)
        )
    return per_source


def make_sources(plan, sources, per_source):
    return [
        StreamSource(plan.channel_of(stream), tuples)
        for stream, tuples in zip(sources, per_source)
    ]


def single_engine_run(plan_factory, sources_factory):
    plan, handles = plan_factory()
    engine = StreamEngine(plan, capture_outputs=True)
    stats = engine.run(sources_factory(plan, handles))
    return stats, engine.captured


def assert_sharded_equivalent(single, sharded_engine, sharded_stats):
    stats, captured = single
    aggregate = sharded_stats.aggregate
    assert aggregate.outputs_by_query == stats.outputs_by_query
    assert aggregate.output_events == stats.output_events
    assert aggregate.input_events == stats.input_events
    assert sharded_engine.captured == captured


class TestShardedEquivalence:
    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_inline_shards_match_single_engine(self, optimize, n_shards):
        per_source = interleaved_tuples(3, 400)
        factory = lambda: partitionable_plan(optimize=optimize)
        sources_factory = lambda plan, handles: make_sources(
            plan, handles, per_source
        )
        single = single_engine_run(factory, sources_factory)
        plan, handles = factory()
        sharded = ShardedEngine(
            plan, n_shards, capture_outputs=True, max_batch=64
        )
        run = sharded.run(sources_factory(plan, handles))
        assert len(run.per_shard) == n_shards
        assert_sharded_equivalent(single, sharded, run)

    def test_stateful_sequence_component(self):
        # A component with window state (sequence) next to a stateless one.
        schema = Schema.numbered(2)

        def factory():
            plan = QueryPlan()
            s = plan.add_source("S", schema)
            t = plan.add_source("T", schema)
            u = plan.add_source("U", schema)
            sel = plan.add_operator(
                Selection(Comparison(attr("a0"), "==", lit(1))),
                [s],
                query_id="q_seq",
            )
            seq = plan.add_operator(
                Sequence(
                    conjunction(
                        [DurationWithin(7), Comparison(right("a0"), ">", lit(0))]
                    )
                ),
                [sel, t],
                query_id="q_seq",
            )
            plan.mark_output(seq, "q_seq")
            other = plan.add_operator(
                Selection(Comparison(attr("a0"), "==", lit(2))),
                [u],
                query_id="q_u",
            )
            plan.mark_output(other, "q_u")
            Optimizer().optimize(plan)
            return plan, (s, t, u)

        tuples = [[], [], []]
        for ts in range(120):
            tuples[ts % 3].append(StreamTuple(schema, (ts % 4, ts), ts))
        sources_factory = lambda plan, handles: make_sources(
            plan, handles, tuples
        )
        single = single_engine_run(factory, sources_factory)
        assert single[0].output_events > 0
        plan, handles = factory()
        sharded = ShardedEngine(plan, 2, capture_outputs=True)
        run = sharded.run(sources_factory(plan, handles))
        assert_sharded_equivalent(single, sharded, run)
        assert sharded.shard_plan.effective_shards == 2

    def test_unconsumed_source_still_counted(self):
        # A source no query reads: the single engine still counts its
        # events, so the sharded aggregate must too.
        schema = Schema.numbered(1)

        def factory():
            plan = QueryPlan()
            s = plan.add_source("S", schema)
            dead = plan.add_source("DEAD", schema)
            out = plan.add_operator(
                Selection(Comparison(attr("a0"), "==", lit(0))),
                [s],
                query_id="q",
            )
            plan.mark_output(out, "q")
            return plan, (s, dead)

        tuples = [
            [StreamTuple(schema, (ts % 2,), 2 * ts) for ts in range(20)],
            [StreamTuple(schema, (9,), 2 * ts + 1) for ts in range(20)],
        ]
        sources_factory = lambda plan, handles: make_sources(
            plan, handles, tuples
        )
        single = single_engine_run(factory, sources_factory)
        plan, handles = factory()
        sharded = ShardedEngine(plan, 2, capture_outputs=True)
        run = sharded.run(sources_factory(plan, handles))
        assert run.aggregate.input_events == single[0].input_events == 40
        assert run.aggregate.outputs_by_query == single[0].outputs_by_query
        # The unconsumed channel has no shard in the plan; it drains on
        # the stable fallback shard (channel id modulo shard count).
        s_id = plan.channel_of(handles[0]).channel_id
        dead_id = plan.channel_of(handles[1]).channel_id
        assert dead_id not in sharded.shard_plan.channel_shard
        counts = [0, 0]
        counts[sharded.shard_plan.channel_shard[s_id]] += 20
        counts[dead_id % 2] += 20
        assert [stats.input_events for stats in run.per_shard] == counts

    def test_rejects_bad_shard_count(self):
        plan, __ = partitionable_plan(num_sources=2)
        with pytest.raises(PlanError):
            ShardedEngine(plan, 0)


class TestShardedRunStats:
    def test_wall_and_busy_seconds(self):
        plan, handles = partitionable_plan(num_sources=2)
        per_source = interleaved_tuples(2, 100)
        sharded = ShardedEngine(plan, 2)
        run = sharded.run(make_sources(plan, handles, per_source))
        assert run.wall_seconds > 0
        assert run.busy_seconds > 0
        assert run.throughput > 0
        assert "2 shards" in str(run)

    def test_rejects_removed_execution_knobs(self):
        # One execution mode is left: shards drain inline.  Parallel
        # serving is the process fleet behind ``open_runtime``.
        plan, __ = partitionable_plan(num_sources=2)
        for knob in ("parallel", "feed", "data_plane", "worker_cap"):
            with pytest.raises(TypeError):
                ShardedEngine(plan, 2, **{knob: None})
