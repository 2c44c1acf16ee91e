"""Unit tests for the query plan graph and its rewrite primitives."""

import pytest

from repro.core.optimizer import Optimizer
from repro.core.plan import QueryPlan
from repro.errors import PlanError
from repro.mops.naive import NaiveMOp
from repro.operators.expressions import attr, lit
from repro.operators.predicates import Comparison, DurationWithin
from repro.operators.select import Selection
from repro.operators.sequence import Sequence
from repro.streams.schema import Schema
from repro.streams.stream import StreamDef

SCHEMA = Schema.of_ints("a")


def selection(const):
    return Selection(Comparison(attr("a"), "==", lit(const)))


class TestConstruction:
    def test_add_source_gets_singleton_channel(self):
        plan = QueryPlan()
        source = plan.add_source("S", SCHEMA)
        channel = plan.channel_of(source)
        assert channel.is_singleton
        assert channel.streams == (source,)

    def test_add_operator_wires_consumers(self):
        plan = QueryPlan()
        source = plan.add_source("S", SCHEMA)
        out = plan.add_operator(selection(1), [source], query_id="q")
        consumers = plan.consumers_of(source)
        assert len(consumers) == 1
        assert consumers[0][1].output is out

    def test_add_operator_foreign_stream_rejected(self):
        plan = QueryPlan()
        foreign = StreamDef("X", SCHEMA)
        with pytest.raises(PlanError):
            plan.add_operator(selection(1), [foreign])

    def test_mark_output_accumulates_queries(self):
        plan = QueryPlan()
        source = plan.add_source("S", SCHEMA)
        out = plan.add_operator(selection(1), [source])
        plan.mark_output(out, "q1")
        plan.mark_output(out, "q2")
        assert plan.sinks[out.stream_id] == ["q1", "q2"]

    def test_producer_tracking(self):
        plan = QueryPlan()
        source = plan.add_source("S", SCHEMA)
        out = plan.add_operator(selection(1), [source])
        assert plan.producer_mop_of(source) is None
        assert plan.producer_mop_of(out) is plan.mops[0]


class TestReplaceMops:
    def test_replace_with_union(self):
        plan = QueryPlan()
        source = plan.add_source("S", SCHEMA)
        plan.add_operator(selection(1), [source], query_id="q1")
        plan.add_operator(selection(2), [source], query_id="q2")
        old = list(plan.mops)
        instances = [inst for mop in old for inst in mop.instances]
        merged = NaiveMOp(instances)
        plan.replace_mops(old, merged)
        assert plan.mops == [merged]
        assert all(inst.owner is merged for inst in instances)
        plan.validate()

    def test_replace_requires_exact_union(self):
        plan = QueryPlan()
        source = plan.add_source("S", SCHEMA)
        plan.add_operator(selection(1), [source])
        plan.add_operator(selection(2), [source])
        partial = NaiveMOp(plan.mops[0].instances)
        with pytest.raises(PlanError, match="union"):
            plan.replace_mops(list(plan.mops), partial)


class TestChannelize:
    def _two_outputs(self):
        plan = QueryPlan()
        source = plan.add_source("S", SCHEMA)
        out1 = plan.add_operator(selection(1), [source])
        out2 = plan.add_operator(selection(2), [source])
        # put both outputs on the same producing m-op
        old = list(plan.mops)
        instances = [inst for mop in old for inst in mop.instances]
        plan.replace_mops(old, NaiveMOp(instances))
        return plan, out1, out2

    def test_channelize_same_producer(self):
        plan, out1, out2 = self._two_outputs()
        channel = plan.channelize([out1, out2])
        assert plan.channel_of(out1) is channel
        assert plan.channel_of(out2) is channel
        assert channel.capacity == 2

    def test_channelize_different_producers_rejected(self):
        plan = QueryPlan()
        source = plan.add_source("S", SCHEMA)
        out1 = plan.add_operator(selection(1), [source])
        out2 = plan.add_operator(selection(2), [source])
        with pytest.raises(PlanError, match="same m-op"):
            plan.channelize([out1, out2])

    def test_channelize_sources_need_label(self):
        plan = QueryPlan()
        s1 = plan.add_source("S1", SCHEMA)
        s2 = plan.add_source("S2", SCHEMA)
        with pytest.raises(PlanError, match="sharable label"):
            plan.channelize([s1, s2])

    def test_channelize_labeled_sources(self):
        plan = QueryPlan()
        s1 = plan.add_source("S1", SCHEMA, sharable_label="s")
        s2 = plan.add_source("S2", SCHEMA, sharable_label="s")
        channel = plan.channelize([s1, s2])
        assert channel.capacity == 2

    def test_rechannelize_rejected(self):
        plan, out1, out2 = self._two_outputs()
        plan.channelize([out1, out2])
        with pytest.raises(PlanError, match="already encoded"):
            plan.channelize([out1, out2])

    def test_channelize_needs_two(self):
        plan = QueryPlan()
        s1 = plan.add_source("S1", SCHEMA, sharable_label="s")
        with pytest.raises(PlanError):
            plan.channelize([s1])


class TestCse:
    def test_eliminate_duplicate_rewires(self):
        plan = QueryPlan()
        source = plan.add_source("S", SCHEMA)
        keep = plan.add_operator(selection(1), [source], query_id="q1")
        drop = plan.add_operator(selection(1), [source], query_id="q2")
        downstream = plan.add_operator(selection(2), [drop], query_id="q2")
        plan.mark_output(drop, "q2")
        keep_instance = plan.producer_instance_of(keep)
        drop_instance = plan.producer_instance_of(drop)
        plan.eliminate_duplicate(drop_instance, keep_instance)
        # the downstream selection now reads the representative
        consumer = plan.producer_instance_of(downstream)
        assert consumer.inputs[0] is keep
        # the sink moved over
        assert "q2" in plan.sinks[keep.stream_id]
        plan.validate()

    def test_eliminate_requires_same_definition(self):
        plan = QueryPlan()
        source = plan.add_source("S", SCHEMA)
        keep = plan.add_operator(selection(1), [source])
        drop = plan.add_operator(selection(2), [source])
        with pytest.raises(PlanError, match="identical operator definitions"):
            plan.eliminate_duplicate(
                plan.producer_instance_of(drop), plan.producer_instance_of(keep)
            )

    def test_eliminate_requires_same_inputs(self):
        plan = QueryPlan()
        s1 = plan.add_source("S1", SCHEMA)
        s2 = plan.add_source("S2", SCHEMA)
        keep = plan.add_operator(selection(1), [s1])
        drop = plan.add_operator(selection(1), [s2])
        with pytest.raises(PlanError, match="identical input streams"):
            plan.eliminate_duplicate(
                plan.producer_instance_of(drop), plan.producer_instance_of(keep)
            )


class TestValidate:
    def test_valid_plan_passes(self):
        plan = QueryPlan()
        source = plan.add_source("S", SCHEMA)
        plan.add_operator(selection(1), [source])
        plan.validate()

    def test_describe_renders(self):
        plan = QueryPlan()
        source = plan.add_source("S", SCHEMA)
        plan.add_operator(selection(1), [source])
        text = plan.describe()
        assert "m-ops" in text
        assert "S@S" in text


class TestChannelComponents:
    """``QueryPlan.channel_components``: the grouping the engine's
    per-component merge drains by."""

    @staticmethod
    def _groups(plan):
        groups = {}
        for channel_id, root in plan.channel_components().items():
            groups.setdefault(root, set()).add(channel_id)
        return sorted(groups.values(), key=min)

    def test_sources_without_mops_are_singletons(self):
        plan = QueryPlan()
        s1 = plan.add_source("S1", SCHEMA)
        s2 = plan.add_source("S2", SCHEMA)
        components = plan.channel_components()
        assert components == {
            plan.channel_of(s1).channel_id: plan.channel_of(s1).channel_id,
            plan.channel_of(s2).channel_id: plan.channel_of(s2).channel_id,
        }

    def test_empty_plan_has_no_components(self):
        assert QueryPlan().channel_components() == {}

    def test_independent_selections_stay_apart(self):
        # One selection per source; then four per source, as separate
        # m-ops co-consuming each entry channel; then the same four
        # optimized into one shared predicate-index m-op per source.
        # Every shape keeps one component per source holding all of that
        # source's queries.
        for per_source, optimize in ((1, False), (4, False), (4, True)):
            plan = QueryPlan()
            for name in ("S1", "S2", "S3"):
                source = plan.add_source(name, SCHEMA)
                for position in range(per_source):
                    query_id = f"{name}_{position}"
                    out = plan.add_operator(
                        selection(position), [source], query_id=query_id
                    )
                    plan.mark_output(out, query_id)
            if optimize:
                Optimizer().optimize(plan)
                assert len(plan.mops) == 3
            assert len(self._groups(plan)) == 3
            components = plan.channel_components()
            root_of = {
                query_id: components[plan.channel_of(stream).channel_id]
                for stream, query_ids in plan.sink_streams()
                for query_id in query_ids
            }
            assert len(root_of) == 3 * per_source
            for name in ("S1", "S2", "S3"):
                roots = {
                    root_of[f"{name}_{position}"]
                    for position in range(per_source)
                }
                assert len(roots) == 1
            assert len(set(root_of.values())) == 3

    def test_derived_channel_joins_its_producer(self):
        plan = QueryPlan()
        source = plan.add_source("S", SCHEMA)
        mid = plan.add_operator(selection(1), [source], query_id="q")
        out = plan.add_operator(selection(2), [mid], query_id="q")
        plan.mark_output(out, "q")
        components = plan.channel_components()
        roots = {
            components[plan.channel_of(stream).channel_id]
            for stream in (source, mid, out)
        }
        assert len(roots) == 1

    def test_binary_mop_joins_its_input_channels(self):
        plan = QueryPlan()
        s = plan.add_source("S", SCHEMA)
        t = plan.add_source("T", SCHEMA)
        u = plan.add_source("U", SCHEMA)
        seq = plan.add_operator(Sequence(DurationWithin(5)), [s, t], query_id="q")
        plan.mark_output(seq, "q")
        components = plan.channel_components()
        root = components[plan.channel_of(s).channel_id]
        assert components[plan.channel_of(t).channel_id] == root
        assert components[plan.channel_of(seq).channel_id] == root
        assert components[plan.channel_of(u).channel_id] != root

    def test_query_sinks_on_two_channels_join_them(self):
        # No m-op touches both sources, but one query's output order spans
        # them, so they must drain in one timestamp merge.
        plan = QueryPlan()
        s = plan.add_source("S", SCHEMA)
        t = plan.add_source("T", SCHEMA)
        out_s = plan.add_operator(selection(1), [s], query_id="q")
        out_t = plan.add_operator(selection(1), [t], query_id="q")
        plan.mark_output(out_s, "q")
        plan.mark_output(out_t, "q")
        components = plan.channel_components()
        assert (
            components[plan.channel_of(s).channel_id]
            == components[plan.channel_of(t).channel_id]
        )

    def test_representative_is_a_member_of_its_component(self):
        plan = QueryPlan()
        s = plan.add_source("S", SCHEMA)
        t = plan.add_source("T", SCHEMA)
        seq = plan.add_operator(Sequence(DurationWithin(5)), [s, t], query_id="q")
        plan.mark_output(seq, "q")
        components = plan.channel_components()
        assert set(components) == {channel.channel_id for channel in plan.channels()}
        for root in components.values():
            assert components[root] == root
