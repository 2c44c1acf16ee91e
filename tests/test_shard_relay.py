"""Cross-shard relay: split components serve byte-identically.

The relay contract: when the planner cuts an oversized component at a
bridge channel, the inline sharded engine produces outputs byte-identical
to the single batched engine (per-query content, timestamps *and* order),
and aggregate input accounting still counts every source event exactly
once (relayed tuples are deducted, not double-counted).  The same property
over forked workers is held by ``tests/test_relay_live.py``.
"""

import pytest

from repro.core.plan import QueryPlan
from repro.engine.executor import StreamEngine
from repro.errors import ChannelError
from repro.operators.expressions import attr, lit, right
from repro.operators.predicates import Comparison, DurationWithin, conjunction
from repro.operators.select import Selection
from repro.operators.sequence import Sequence
from repro.shard import ShardedEngine
from repro.shard.relay import BufferedRunSource, deduct_relay_inputs
from repro.shard.wire import RelayCodec
from repro.engine.metrics import RunStats
from repro.streams.channel import ChannelTuple
from repro.streams.schema import Schema
from repro.streams.sources import StreamSource
from repro.streams.tuples import StreamTuple

SCHEMA = Schema.numbered(2)


def bridge_plan(passthrough=False):
    """σ over S feeding both a sink and a sequence with T — one component
    the planner cuts at the derived (bridge) channel for n_shards >= 2."""
    plan = QueryPlan()
    s = plan.add_source("S", SCHEMA)
    t = plan.add_source("T", SCHEMA)
    sel = plan.add_operator(
        Selection(Comparison(attr("a0"), "==", lit(1))), [s], query_id="q_sel"
    )
    plan.mark_output(sel, "q_sel")
    seq = plan.add_operator(
        Sequence(
            conjunction(
                [DurationWithin(5), Comparison(right("a0"), "==", lit(1))]
            )
        ),
        [sel, t],
        query_id="q_seq",
    )
    plan.mark_output(seq, "q_seq")
    if passthrough:
        plan.mark_output(t, "q_raw")
    return plan, (s, t)


def bridge_tuples(count=240):
    """Strictly interleaved distinct timestamps across S and T, so the
    merge order (and therefore sequence pairing) is fully determined."""
    per_source = [[], []]
    for ts in range(count):
        per_source[ts % 2].append(StreamTuple(SCHEMA, (ts % 3, ts), ts))
    return per_source


def make_sources(plan, handles, per_source):
    return [
        StreamSource(plan.channel_of(stream), tuples)
        for stream, tuples in zip(handles, per_source)
    ]


def single_run(passthrough=False, count=240):
    plan, handles = bridge_plan(passthrough)
    engine = StreamEngine(plan, capture_outputs=True)
    stats = engine.run(make_sources(plan, handles, bridge_tuples(count)))
    return stats, engine.captured


def assert_equivalent(single, sharded, run):
    stats, captured = single
    aggregate = run.aggregate
    assert aggregate.outputs_by_query == stats.outputs_by_query
    assert aggregate.output_events == stats.output_events
    assert aggregate.input_events == stats.input_events
    assert aggregate.physical_input_events == stats.physical_input_events
    assert aggregate.physical_events == stats.physical_events
    assert sharded.captured == captured


class TestInlineRelayEquivalence:
    def test_split_bridge_matches_single_engine(self):
        single = single_run()
        assert single[0].output_events > 0
        plan, handles = bridge_plan()
        sharded = ShardedEngine(plan, 2, capture_outputs=True, max_batch=64)
        assert sharded.shard_plan.relays, "bridge component must split"
        assert sharded.shard_plan.effective_shards == 2
        run = sharded.run(make_sources(plan, handles, bridge_tuples()))
        assert_equivalent(single, sharded, run)

    def test_split_false_keeps_component_whole(self):
        single = single_run()
        plan, handles = bridge_plan()
        sharded = ShardedEngine(plan, 2, capture_outputs=True, split=False)
        assert sharded.shard_plan.relays == []
        assert sharded.shard_plan.effective_shards == 1
        run = sharded.run(make_sources(plan, handles, bridge_tuples()))
        assert_equivalent(single, sharded, run)

    def test_passthrough_query_beside_split_component(self):
        # The pass-through sink (directly on source T) used to abort
        # partitioning; now it rides T's shard and its captured outputs
        # must match the single engine even while the component splits.
        single = single_run(passthrough=True)
        assert single[1]["q_raw"], "pass-through must capture"
        plan, handles = bridge_plan(passthrough=True)
        sharded = ShardedEngine(plan, 2, capture_outputs=True)
        assert sharded.shard_plan.relays
        run = sharded.run(make_sources(plan, handles, bridge_tuples()))
        assert_equivalent(single, sharded, run)

    def test_repeat_runs_reuse_taps(self):
        # Engines and taps persist across run() calls; a second drain must
        # not double-ship or double-count.
        plan, handles = bridge_plan()
        single_plan, single_handles = bridge_plan()
        engine = StreamEngine(single_plan, capture_outputs=True)
        sharded = ShardedEngine(plan, 2, capture_outputs=True)
        for offset in (0, 1000):
            tuples = [[], []]
            for ts in range(offset, offset + 120):
                tuples[ts % 2].append(StreamTuple(SCHEMA, (ts % 3, ts), ts))
            engine.run(make_sources(single_plan, single_handles, tuples))
            sharded.run(make_sources(plan, handles, tuples))
        assert sharded.captured == engine.captured


def three_bridge_plan():
    """Three bridge components; only the third has a selection cluster, so
    3- and 4-shard placements cut components but co-locate adjacent
    fragments."""
    schema = Schema.numbered(3)
    plan = QueryPlan()
    handles = []
    for component, cluster in enumerate((0, 0, 2)):
        s = plan.add_source(f"S{component}", schema)
        t = plan.add_source(f"T{component}", schema)
        for position in range(cluster):
            out = plan.add_operator(
                Selection(Comparison(attr("a0"), "==", lit(position))),
                [s],
                query_id=f"q_c{component}_{position}",
            )
            plan.mark_output(out, f"q_c{component}_{position}")
        sel = plan.add_operator(
            Selection(Comparison(attr("a1"), "<", lit(60))),
            [s],
            query_id=f"q_sel{component}",
        )
        plan.mark_output(sel, f"q_sel{component}")
        seq = plan.add_operator(
            Sequence(
                conjunction(
                    [DurationWithin(5), Comparison(right("a0"), "==", lit(1))]
                )
            ),
            [sel, t],
            query_id=f"q_seq{component}",
        )
        plan.mark_output(seq, f"q_seq{component}")
        handles += [s, t]
    tuples = [[] for __ in handles]
    for ts in range(600):
        tuples[ts % len(handles)].append(
            StreamTuple(schema, (ts % 3, ts % 100, ts % 5), ts)
        )
    return plan, handles, tuples


class TestColocatedFragments:
    @pytest.mark.parametrize("n_shards", [3, 4])
    def test_colocated_fragments_drain_together(self, n_shards):
        # Cut fragments that land on one shard reconnect through its
        # sub-plan; they must drain as one unit — with no relay left at
        # all (3 shards) or beside relayed fragments (4 shards).
        plan, handles, tuples = three_bridge_plan()
        engine = StreamEngine(plan, capture_outputs=True)
        stats = engine.run(make_sources(plan, handles, tuples))
        plan, handles, tuples = three_bridge_plan()
        sharded = ShardedEngine(plan, n_shards, capture_outputs=True)
        shard_plan = sharded.shard_plan
        cuts = len(shard_plan.components) - 3
        assert cuts > len(shard_plan.relays)
        run = sharded.run(make_sources(plan, handles, tuples))
        assert_equivalent((stats, engine.captured), sharded, run)


class TestRelayPrimitives:
    def _channel(self):
        plan = QueryPlan()
        s = plan.add_source("S", SCHEMA)
        return plan.channel_of(s)

    def _run(self, channel, first, last):
        return [
            ChannelTuple(StreamTuple(SCHEMA, (0, ts), ts), 1)
            for ts in range(first, last)
        ]

    def test_buffered_source_rechunks_and_counts(self):
        channel = self._channel()
        runs = [self._run(channel, 0, 10)]
        source = BufferedRunSource(channel, runs)
        chunks = list(source.iter_runs(4))
        assert [len(batch) for __, batch in chunks] == [4, 4, 2]
        assert all(chunk_channel is channel for chunk_channel, __ in chunks)
        assert source.delivered == 10
        source = BufferedRunSource(channel, runs)
        assert len(list(source)) == 10
        assert source.delivered == 10

    def test_codec_round_trip_and_gap_detection(self):
        channel = self._channel()
        sender = RelayCodec(7, channel)
        receiver = RelayCodec(7, channel)
        frames = sender.encode(self._run(channel, 0, 5))
        decoded = [receiver.decode(frame) for frame in frames]
        batches = [batch for batch in decoded if batch is not None]
        assert sum(len(batch) for __, batch in batches) == 5
        receiver.decode_eof(sender.encode_eof())
        # Skipping a frame is a sequence gap, not silent data loss.
        fresh = RelayCodec(7, channel)
        frames = sender.encode(self._run(channel, 5, 8))
        with pytest.raises(ChannelError):
            fresh.decode(frames[-1])

    def test_deduct_relay_inputs(self):
        stats = RunStats()
        stats.input_events = 10
        stats.physical_input_events = 10
        stats.physical_events = 25
        deduct_relay_inputs(stats, 4)
        assert stats.input_events == 6
        assert stats.physical_input_events == 6
        assert stats.physical_events == 21
