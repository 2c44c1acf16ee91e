"""Unit tests for the stream engine and run statistics."""

import pytest

from repro.core.optimizer import Optimizer
from repro.core.plan import QueryPlan
from repro.engine.executor import StreamEngine
from repro.engine.metrics import RunStats
from repro.operators.expressions import attr, lit
from repro.operators.predicates import Comparison, DurationWithin
from repro.operators.select import Selection
from repro.operators.sequence import Sequence
from repro.streams.schema import Schema
from repro.streams.sources import StreamSource
from repro.streams.tuples import StreamTuple

SCHEMA = Schema.of_ints("a")


def simple_plan():
    plan = QueryPlan()
    source = plan.add_source("S", SCHEMA)
    out = plan.add_operator(
        Selection(Comparison(attr("a"), "==", lit(1))), [source], query_id="q"
    )
    plan.mark_output(out, "q")
    return plan, source


def tuples(values):
    return [StreamTuple(SCHEMA, (v,), ts) for ts, v in enumerate(values)]


class TestRun:
    def test_counts(self):
        plan, source = simple_plan()
        engine = StreamEngine(plan)
        stats = engine.run([StreamSource(plan.channel_of(source), tuples([1, 0, 1]))])
        assert stats.input_events == 3
        assert stats.output_events == 2
        assert stats.outputs_by_query == {"q": 2}
        assert stats.elapsed_seconds > 0

    def test_capture_outputs(self):
        plan, source = simple_plan()
        engine = StreamEngine(plan, capture_outputs=True)
        engine.run([StreamSource(plan.channel_of(source), tuples([1, 0]))])
        assert len(engine.captured["q"]) == 1

    def test_warmup_not_counted(self):
        plan, source = simple_plan()
        engine = StreamEngine(plan)
        stats = engine.run(
            [StreamSource(plan.channel_of(source), tuples([1, 1, 1, 1]))],
            warmup_events=2,
        )
        assert stats.input_events == 2

    def test_process_single_event(self):
        plan, source = simple_plan()
        engine = StreamEngine(plan)
        channel = plan.channel_of(source)
        stats = engine.process(channel, channel.encode_all(tuples([1])[0]))
        assert stats.output_events == 1

    def test_multi_query_sink_counting(self):
        plan = QueryPlan()
        source = plan.add_source("S", SCHEMA)
        out = plan.add_operator(
            Selection(Comparison(attr("a"), "==", lit(1))), [source]
        )
        plan.mark_output(out, "q1")
        plan.mark_output(out, "q2")
        engine = StreamEngine(plan)
        stats = engine.run([StreamSource(plan.channel_of(source), tuples([1]))])
        assert stats.output_events == 2
        assert stats.outputs_by_query == {"q1": 1, "q2": 1}

    def test_logical_input_counting_with_channels(self):
        plan = QueryPlan()
        s1 = plan.add_source("S1", SCHEMA, sharable_label="s")
        s2 = plan.add_source("S2", SCHEMA, sharable_label="s")
        channel = plan.channelize([s1, s2])
        engine = StreamEngine(plan)
        stats = engine.run([StreamSource(channel, tuples([0, 0]))])
        # two channel tuples, each encoding two streams = 4 logical events
        assert stats.input_events == 4
        assert stats.physical_input_events == 2


class TestRunStats:
    def test_throughput(self):
        stats = RunStats(input_events=100, elapsed_seconds=2.0)
        assert stats.throughput == 50.0

    def test_zero_elapsed(self):
        assert RunStats(input_events=5).throughput == 0.0

    def test_merge(self):
        first = RunStats(input_events=10, output_events=1, elapsed_seconds=1.0)
        first.outputs_by_query = {"q": 1}
        second = RunStats(input_events=20, output_events=3, elapsed_seconds=2.0)
        second.outputs_by_query = {"q": 2, "r": 1}
        merged = first.merge(second)
        assert merged.input_events == 30
        assert merged.outputs_by_query == {"q": 3, "r": 1}
        assert merged.elapsed_seconds == 3.0

    def test_str(self):
        text = str(RunStats(input_events=10, elapsed_seconds=1.0))
        assert "throughput" in text


def two_component_plan():
    """Sequence over S and T (one component) beside a selection on U."""
    plan = QueryPlan()
    s = plan.add_source("S", SCHEMA)
    t = plan.add_source("T", SCHEMA)
    u = plan.add_source("U", SCHEMA)
    seq = plan.add_operator(Sequence(DurationWithin(3)), [s, t], query_id="q_seq")
    plan.mark_output(seq, "q_seq")
    sel = plan.add_operator(
        Selection(Comparison(attr("a"), "==", lit(1))), [u], query_id="q_u"
    )
    plan.mark_output(sel, "q_u")
    return plan, (s, t, u)


def interleaved(handles, plan, count):
    """Tuple ``ts`` on source ``ts % len(handles)``."""
    per_source = [[] for __ in handles]
    for ts in range(count):
        per_source[ts % len(handles)].append(StreamTuple(SCHEMA, (ts % 2,), ts))
    return [
        StreamSource(plan.channel_of(handle), values)
        for handle, values in zip(handles, per_source)
    ]


class TestComponentGroups:
    def test_sources_of_one_component_share_a_group(self):
        plan, handles = two_component_plan()
        s, t, u = interleaved(handles, plan, 30)
        groups = StreamEngine(plan)._component_groups([s, u, t])
        assert groups == [[s, t], [u]]

    def test_groups_follow_first_source_order(self):
        plan, handles = two_component_plan()
        s, t, u = interleaved(handles, plan, 30)
        groups = StreamEngine(plan)._component_groups([u, t, s])
        assert groups == [[u], [t, s]]

    def test_unconsumed_source_is_its_own_group_and_counted(self):
        plan, source = simple_plan()
        dead = plan.add_source("DEAD", SCHEMA)
        live = StreamSource(plan.channel_of(source), tuples([1, 0, 1]))
        idle = StreamSource(plan.channel_of(dead), tuples([1, 1]))
        engine = StreamEngine(plan)
        assert engine._component_groups([live, idle]) == [[live], [idle]]
        stats = engine.run([live, idle])
        assert stats.input_events == 5
        assert stats.outputs_by_query == {"q": 2}

    @pytest.mark.parametrize("batching", [False, True])
    def test_components_drain_in_turn(self, batching):
        # Within the S/T component the timestamp merge interleaves; the U
        # component drains only after it, although its timestamps interleave.
        plan, handles = two_component_plan()
        engine = StreamEngine(plan, batching=batching, max_batch=4)
        order = []
        if batching:
            run_batch = engine._run_batch

            def record(channel, batch, stats):
                order.extend((channel.name, item.ts) for item in batch)
                run_batch(channel, batch, stats)

            engine._run_batch = record
        else:
            dispatch = engine._dispatch

            def record(channel, channel_tuple, stats):
                order.append((channel.name, channel_tuple.ts))
                dispatch(channel, channel_tuple, stats)

            engine._dispatch = record
        engine.run(interleaved(handles, plan, 30))
        names = [plan.channel_of(handle).name for handle in handles]
        first, second = order[:20], order[20:]
        assert {name for name, __ in first} == set(names[:2])
        assert [ts for __, ts in first] == sorted(ts for __, ts in first)
        assert second == [(names[2], ts) for ts in range(2, 30, 3)]

    @pytest.mark.parametrize("warmup_events", [1, 9, 20, 25])
    def test_warmup_split_lands_on_the_same_event(self, warmup_events):
        # Warmup may end inside either component; batched and per-tuple
        # drains must count and emit the same measured remainder.
        results = []
        for batching in (False, True):
            plan, handles = two_component_plan()
            engine = StreamEngine(plan, batching=batching, max_batch=4)
            results.append(
                engine.run(
                    interleaved(handles, plan, 30), warmup_events=warmup_events
                )
            )
        per_tuple, batched = results
        assert per_tuple.input_events == batched.input_events == 30 - warmup_events
        assert per_tuple.outputs_by_query == batched.outputs_by_query
