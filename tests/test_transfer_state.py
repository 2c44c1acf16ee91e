"""Executor state serialization: transfers must round-trip a process hop.

A cross-process rebalance cannot carry live executors (compiled predicate
closures do not pickle); it carries ``snapshot_state()`` payloads and
re-seeds freshly built executors on the far side.  These tests move
components between two plain shard runtimes that adopt one set of source
objects, forcing every move through the wire codec (pickle round-trip,
live executors stripped), and assert the serve stays **byte-identical**
to an uninterrupted control — for every stateful operator family: sequence
instance stores, iterate (µ) partial matches, sliding-window aggregates,
window joins, and the merged m-ops the optimizer builds from them.
"""

import pickle

import pytest

from repro.engine.metrics import RunStats
from repro.runtime.config import internal_construction
from repro.runtime.runtime import QueryRuntime
from repro.shard.wire import decode_transfer, encode_transfer
from repro.streams.channel import Channel
from repro.streams.schema import Schema
from repro.streams.stream import StreamDef
from repro.streams.tuples import StreamTuple

SCHEMA = Schema.of_ints("a0", "a1")

QUERIES = {
    # KEEP retains matched instances, so the store demonstrably accumulates.
    "sequence": ["FROM (FROM S WHERE a0 == 1) SEQ T MATCHING WITHIN 25 KEEP"],
    "consuming-sequence": [
        "FROM (FROM S WHERE a0 == 1) SEQ T MATCHING WITHIN 25"
    ],
    "aggregate": ["FROM S AGG avg(a1) OVER 30 BY a0 AS m"],
    "join": ["FROM S JOIN T ON left.a0 == right.a0 WITHIN 20"],
    "iterate": ["FROM S MU T FORWARD left.a0 == right.a0 REBIND right.a1 >= last.a1"],
    "extremum": ["FROM S AGG max(a1) OVER 40 BY a0 AS peak"],
    # Same definition twice: reoptimize merges them into a shared m-op, so
    # the transfer carries a *merged* executor's state.
    "merged-sequence": [
        "FROM (FROM S WHERE a0 == 1) SEQ T MATCHING WITHIN 25 KEEP",
        "FROM (FROM S WHERE a0 == 1) SEQ T MATCHING WITHIN 25 KEEP",
    ],
    "merged-aggregate": [
        "FROM S AGG sum(a1) OVER 30 BY a0 AS m",
        "FROM S AGG sum(a1) OVER 50 AS total",
    ],
}


class ShardPair:
    """Two shard runtimes adopting the same source stream/channel objects
    (the sharding contract), fed every source event."""

    def __init__(self):
        with internal_construction():
            self.runtimes = [
                QueryRuntime(capture_outputs=True) for __ in range(2)
            ]
        self.streams = {}
        for name in ("S", "T"):
            stream = StreamDef(name, SCHEMA)
            channel = Channel.singleton(stream)
            for runtime in self.runtimes:
                runtime.adopt_source(stream, channel)
            self.streams[name] = stream

    def register(self, text, query_id, shard):
        self.runtimes[shard].register(text, query_id)

    def process(self, stream_name, tuple_):
        for runtime in self.runtimes:
            runtime.process(stream_name, tuple_)

    @property
    def stats(self) -> RunStats:
        merged = RunStats()
        for runtime in self.runtimes:
            merged.absorb(runtime.stats)
        return merged

    @property
    def captured(self) -> dict:
        merged: dict = {}
        for runtime in self.runtimes:
            merged.update(runtime.captured)
        return merged

    @property
    def state_size(self) -> int:
        return sum(runtime.state_size for runtime in self.runtimes)


def feed(runtime, first, last):
    for ts in range(first, last):
        runtime.process(
            "S" if ts % 2 == 0 else "T", StreamTuple(SCHEMA, (ts % 3, ts), ts)
        )


def serialized_rebalance(pair: ShardPair, query_id: str, from_shard: int):
    """Move ``query_id``'s component to the other shard through the wire
    codec.

    Exactly what a rebalance does between two workers: the donor's
    transfer is pickled with executor state reduced to snapshots, the
    receiver rebuilds executors from the plan subgraph and re-seeds them.
    Returns the decoded transfer for inspection.
    """
    transfer = pair.runtimes[from_shard].export_component(query_id)
    decoded = decode_transfer(encode_transfer(transfer))
    assert decoded.entries == {}, "wire transfers must not carry executors"
    pair.runtimes[1 - from_shard].import_component(decoded)
    return decoded


class TestSerializedRebalanceEquivalence:
    @pytest.mark.parametrize("family", sorted(QUERIES))
    def test_state_rides_the_wire(self, family):
        queries = QUERIES[family]

        def build():
            pair = ShardPair()
            for index, text in enumerate(queries):
                pair.register(text, query_id=f"q{index}", shard=0)
            if len(queries) > 1:
                pair.runtimes[0].reoptimize()  # force the merged m-op shape
            return pair

        control = build()
        feed(control, 0, 120)

        moved = build()
        feed(moved, 0, 60)
        state_before = moved.state_size
        transfer = serialized_rebalance(moved, "q0", 0)
        # Joins and consuming sequences may legitimately have drained by
        # ts 60; every other family must be carrying live state.
        if family not in ("join", "consuming-sequence"):
            assert state_before > 0, "workload must accumulate state"
        assert moved.state_size == state_before, "state lost in the hop"
        assert transfer.state is not None
        feed(moved, 60, 120)

        assert control.stats.output_events > 0
        assert moved.stats.outputs_by_query == control.stats.outputs_by_query
        assert moved.captured == control.captured
        assert moved.state_size == control.state_size

    def test_double_hop_round_trip(self):
        """Shard 0 → 1 → 0: repeated serialization accumulates nothing."""

        def build():
            pair = ShardPair()
            pair.register(QUERIES["aggregate"][0], query_id="agg", shard=0)
            return pair

        control = build()
        feed(control, 0, 90)

        bounced = build()
        feed(bounced, 0, 30)
        serialized_rebalance(bounced, "agg", 0)
        feed(bounced, 30, 60)
        serialized_rebalance(bounced, "agg", 1)
        feed(bounced, 60, 90)

        assert bounced.captured == control.captured
        assert bounced.state_size == control.state_size
        # Source references stay canonical after repeated adoption.
        plan = bounced.runtimes[0].plan
        for mop in plan.mops:
            for stream in mop.input_streams:
                if stream.is_source:
                    assert stream is bounced.streams[stream.name]

    def test_transfer_blob_is_pickle_stable(self):
        pair = ShardPair()
        pair.register(QUERIES["sequence"][0], query_id="q0", shard=0)
        feed(pair, 0, 40)
        transfer = pair.runtimes[0].export_component("q0")
        blob = encode_transfer(transfer)
        assert isinstance(blob, bytes)
        payload = pickle.loads(blob)
        assert set(payload) == {
            "plan_transfer",
            "queries",
            "captured",
            "state",
            "state_carried",
        }
        # Restore so the runtime stays consistent for teardown asserts.
        pair.runtimes[0].import_component(decode_transfer(blob))
        assert pair.runtimes[0].state_size == transfer.state_carried


class TestSnapshotRestoreContracts:
    def test_stateless_executor_rejects_foreign_state(self):
        from repro.core.mop import MOpExecutor
        from repro.errors import PlanError

        executor = MOpExecutor()
        assert executor.snapshot_state() is None
        executor.restore_state(None)  # no-op
        with pytest.raises(PlanError):
            executor.restore_state({"bogus": 1})

    def test_operator_executor_contract(self):
        from repro.errors import OperatorError
        from repro.operators.base import OperatorExecutor

        executor = OperatorExecutor()
        assert executor.snapshot_state() is None
        executor.restore_state(None)
        with pytest.raises(OperatorError):
            executor.restore_state(object())
