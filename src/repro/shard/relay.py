"""Relay transport: re-emitting a derived channel into another shard's entry.

A :class:`~repro.shard.planner.RelayEdge` connects two fragments of a cut
component.  The producing fragment's engine gets a
:class:`~repro.engine.executor.RelayTap` on the bridge channel, so every run
dispatched on it is captured in emission order, and the captured runs
re-enter the consuming fragment as a *source*.  Inline
(:class:`~repro.shard.engine.ShardedEngine`) the runs replay through a
:class:`BufferedRunSource`; between live workers they cross as ``relay``
wire frames (:class:`~repro.shard.wire.RelayCodec` — columnar ``crun``
payloads with pickle fallback, per-edge sequence numbers).

Ordering is the whole point.  A fragment's entry sources — its own share of
the driver's sources plus one relayed bridge — are merged by timestamp
exactly like the single engine merges the original sources, with the relay
source occupying the *producing fragment's* position in the driver order, so
timestamp ties break the same way they would have had the bridge tuples been
produced mid-dispatch.

Because the consuming engine counts relayed tuples as *entry* events while
the producing engine already counted the very same tuples flowing through
its dispatch, :func:`deduct_relay_inputs` subtracts the delivered tuples
from the consumer's input/physical counters — aggregate accounting stays
byte-identical to the single-engine run.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.engine.metrics import RunStats
from repro.errors import ChannelError
from repro.shard.wire import RELAY_EOF, RelayCodec
from repro.streams.channel import Channel, ChannelTuple
from repro.streams.columns import ColumnBatch


def _batch_length(batch) -> int:
    return batch.count if type(batch) is ColumnBatch else len(batch)


def _slice_batch(batch, start: int, stop: int):
    if type(batch) is ColumnBatch:
        return batch.slice(start, stop)
    return batch[start:stop]


class BufferedRunSource:
    """Replays a relay edge's captured runs as a stream source.

    Runs may be row lists or ``ColumnBatch``es (a tap captures whatever the
    dispatch path carried); ``iter_runs`` re-chunks to the engine's run
    cap, ``__iter__`` materializes rows for the timestamp heap merge.
    """

    def __init__(self, channel: Channel, runs: Sequence):
        self.channel = channel
        self.runs = list(runs)
        #: Tuples handed to the consuming engine (drained sources deliver
        #: everything; the stats deduction reads this).
        self.delivered = 0

    def __iter__(self) -> Iterator[tuple[Channel, ChannelTuple]]:
        channel = self.channel
        for batch in self.runs:
            if type(batch) is ColumnBatch:
                batch = batch.channel_tuples()
            for channel_tuple in batch:
                self.delivered += 1
                yield channel, channel_tuple

    def iter_runs(self, max_run: int):
        channel = self.channel
        for batch in self.runs:
            length = _batch_length(batch)
            for start in range(0, length, max_run):
                chunk = _slice_batch(batch, start, min(start + max_run, length))
                self.delivered += _batch_length(chunk)
                yield channel, chunk


def decode_local_frames(
    frames: Sequence, codec: RelayCodec
) -> list[tuple[Channel, object]]:
    """Decode a worker-local edge's frame buffer into replayable runs."""
    runs: list[tuple[Channel, object]] = []
    for frame in frames:
        if frame[0] == RELAY_EOF:
            codec.decode_eof(frame)
            continue
        decoded = codec.decode(frame)
        if decoded is not None:
            runs.append(decoded)
    return runs


def deduct_relay_inputs(stats: RunStats, delivered: int) -> None:
    """Remove a relay entry's double-counted tuples from consumer stats.

    The producing engine already counted these tuples flowing through its
    dispatch (``physical_events``) and they were never *source* events, so
    the consumer's entry accounting of them — one logical event, one
    physical input and one physical event per tuple on a singleton bridge
    channel — is subtracted to keep the sharded aggregate identical to the
    single-engine run.
    """
    stats.input_events -= delivered
    stats.physical_input_events -= delivered
    stats.physical_events -= delivered


def relay_rows(run) -> list:
    """Materialize one tapped run as plain :class:`StreamTuple` rows.

    Taps capture whatever the dispatch path carried — a ``ColumnBatch`` on
    the vectorized path or a list of ``ChannelTuple`` on the row path —
    while the live relay re-emits *stream* events onto an alias source, so
    both shapes collapse to their underlying tuples here.
    """
    if type(run) is ColumnBatch:
        return [channel_tuple.tuple for channel_tuple in run.channel_tuples()]
    return [channel_tuple.tuple for channel_tuple in run]


def sink_channel_of(plan, query_id: str) -> Channel:
    """The channel carrying ``query_id``'s sink stream in a live plan.

    Re-resolved (not cached) because sharing merges can re-home a query's
    sink registration onto a representative m-op's output stream
    (``eliminate_duplicate``) — the relay tap must follow it.
    """
    for stream, query_ids in plan.sink_streams():
        if query_id in query_ids:
            return plan.channel_of(stream)
    raise ChannelError(
        f"query {query_id!r} has no sink stream to export"
    )
