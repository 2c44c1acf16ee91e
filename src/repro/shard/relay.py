"""Relay transport: re-emitting a query's output stream onto other shards.

A live export (``export_stream`` on the fleet coordinator) publishes one
query's sink stream under an alias that queries on any shard can read as a
source.  The producing worker's engine gets a
:class:`~repro.engine.executor.RelayTap` on the sink channel
(:func:`sink_channel_of`), so every run dispatched on it is captured in
emission order with a cumulative cursor.  The coordinator collects those
runs as ``relay`` wire frames (:class:`~repro.shard.wire.RelayCodec` —
columnar ``crun`` payloads with pickle fallback, per-edge sequence
numbers), decodes them (:func:`decode_local_frames`, :func:`relay_rows`)
and ships the rows to the alias's consumers like source traffic, journaled
first so relayed tuples cross exactly once through crashes, rebalances and
coordinator restarts.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ChannelError
from repro.shard.wire import RELAY_EOF, RelayCodec
from repro.streams.channel import Channel
from repro.streams.columns import ColumnBatch


def decode_local_frames(
    frames: Sequence, codec: RelayCodec
) -> list[tuple[Channel, object]]:
    """Decode one collected export's relay frames into ``(channel, run)`` pairs."""
    runs: list[tuple[Channel, object]] = []
    for frame in frames:
        if frame[0] == RELAY_EOF:
            codec.decode_eof(frame)
            continue
        decoded = codec.decode(frame)
        if decoded is not None:
            runs.append(decoded)
    return runs


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
