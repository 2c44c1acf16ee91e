"""Wire-format edge cases.

The schema-interning protocol has two sneaky paths the round-trip suite
does not reach: token re-registration (a decoder that outlives one encoder
generation, as happens when schema frames are replayed to a respawned
worker) and schemas whose attribute names exercise full unicode
identifiers.

The columnar data plane rides the same wire: the property suite here
proves, over random runs (mixed value types, None, unicode, bools,
int64-overflowing ints, per-row masks), that the three data transports —
pickle ``run`` frames, ``crun`` queue frames and packed ring records —
decode to byte-identical rows, and that malformed frames of every kind
fail loudly as :class:`~repro.errors.ChannelError`.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChannelError
from repro.shard import WireDecoder, WireEncoder
from repro.shard.ring import RingBuffer
from repro.shard.wire import (
    CRUN,
    RUN,
    SCHEMA,
    SCHEMA_RETIRE,
    decode_command,
    pack_run_record,
    unpack_run_record,
)
from repro.streams.channel import Channel, ChannelTuple
from repro.streams.columns import ColumnBatch
from repro.streams.schema import Schema
from repro.streams.stream import StreamDef
from repro.streams.tuples import StreamTuple


def singleton(schema, name="W"):
    return Channel.singleton(StreamDef(name, schema))


class TestSchemaInterning:
    def test_interleaved_schemas_get_distinct_tokens(self):
        schema_a = Schema.of_ints("a0", "a1")
        schema_b = Schema([("load", "float"), ("name", "str")])
        channel_a = singleton(schema_a, "A")
        channel_b = singleton(schema_b, "B")
        encoder = WireEncoder()
        decoder = WireDecoder([channel_a, channel_b])
        tokens = set()
        for round_ in range(3):  # A, B, A, B, ... — no re-emission after round 0
            for channel, schema, value in (
                (channel_a, schema_a, (round_, 1)),
                (channel_b, schema_b, (0.5, "x")),
            ):
                batch = [ChannelTuple(StreamTuple(schema, value, round_), 1)]
                frames = encoder.encode_run(channel, batch)
                if round_ == 0:
                    assert frames[0][0] == SCHEMA
                    tokens.add(frames[0][1])
                else:
                    assert [frame[0] for frame in frames] == [RUN]
                out_channel, out_batch = [
                    result
                    for result in map(decoder.decode, frames)
                    if result is not None
                ][0]
                assert out_channel is channel
                assert out_batch == batch
        assert len(tokens) == 2

    def test_schema_re_registration_overwrites_token(self):
        # A respawned worker's decoder replays schema frames from scratch;
        # a token arriving twice must (re)bind cleanly, last writer wins.
        schema_a = Schema.of_ints("a0")
        schema_b = Schema.of_ints("b0", "b1")
        channel = singleton(schema_b, "W")
        decoder = WireDecoder([channel])
        decoder.decode((SCHEMA, 0, (("a0", "int"),)))
        decoder.decode((SCHEMA, 0, (("b0", "int"), ("b1", "int"))))
        __, batch = decoder.decode((RUN, channel.channel_id, 0, [(3, 1, (7, 8))]))
        assert batch[0].tuple.schema == schema_b
        assert batch[0].tuple.schema != schema_a
        assert batch[0].tuple["b1"] == 8

    def test_unicode_attribute_names_round_trip(self):
        schema = Schema([("αβγ", "int"), ("überfluß", "float"), ("データ", "str")])
        channel = singleton(schema, "Ω")
        encoder = WireEncoder()
        decoder = WireDecoder([channel])
        batch = [
            ChannelTuple(StreamTuple(schema, (1, 2.5, "せん"), 0), 1),
            ChannelTuple(StreamTuple(schema, (2, -0.5, ""), 1), 1),
        ]
        decoded = None
        for frame in encoder.encode_run(channel, batch):
            result = decoder.decode(frame)
            if result is not None:
                decoded = result
        assert decoded[1] == batch
        assert decoded[1][0].tuple["データ"] == "せん"

    def test_empty_batches_do_not_disturb_interning(self):
        schema = Schema.of_ints("a0", "a1")
        channel = singleton(schema)
        encoder = WireEncoder()
        assert encoder.encode_run(channel, []) == []
        # The schema frame still arrives with the first *real* run.
        batch = [ChannelTuple(StreamTuple(schema, (1, 2), 0), 1)]
        assert [f[0] for f in encoder.encode_run(channel, batch)] == [SCHEMA, RUN]
        assert encoder.encode_run(channel, []) == []
        assert [f[0] for f in encoder.encode_run(channel, batch)] == [RUN]

    def test_distinct_equal_schemas_intern_separately_but_decode_equal(self):
        # Two structurally equal Schema objects are interned as two tokens
        # (identity-keyed for speed); decoding must still yield equal tuples.
        schema_a = Schema.of_ints("a0")
        schema_b = Schema.of_ints("a0")
        assert schema_a == schema_b and schema_a is not schema_b
        stream = StreamDef("W", schema_a)
        channel = Channel.singleton(stream)
        encoder = WireEncoder()
        decoder = WireDecoder([channel])
        batch_a = [ChannelTuple(StreamTuple(schema_a, (1,), 0), 1)]
        batch_b = [ChannelTuple(StreamTuple(schema_b, (1,), 0), 1)]
        frames_a = encoder.encode_run(channel, batch_a)
        frames_b = encoder.encode_run(channel, batch_b)
        assert [f[0] for f in frames_a] == [SCHEMA, RUN]
        assert [f[0] for f in frames_b] == [SCHEMA, RUN]
        assert frames_a[0][1] != frames_b[0][1]  # distinct tokens
        for frames, batch in ((frames_a, batch_a), (frames_b, batch_b)):
            decoded = [r for r in map(decoder.decode, frames) if r is not None]
            assert decoded[0][1] == batch


# -- columnar data plane -------------------------------------------------------------

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

#: Per-cell values spanning every packing class: in-range ints (packed
#: 'q'), floats (packed 'd'), and the object-column fallbacks — bools
#: (deliberately *not* packed as ints), int64-overflowing ints, unicode
#: strings and None.  NaN is excluded so row equality stays meaningful;
#: byte identity is asserted via pickled fingerprints on top.
cell_values = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.integers(INT64_MAX + 1, INT64_MAX + (1 << 16)),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.none(),
)


@st.composite
def packable_runs(draw):
    """A run of channel tuples sharing one schema, random per-row masks."""
    width = draw(st.integers(1, 4))
    count = draw(st.integers(1, 25))
    schema = Schema.of_ints(*[f"c{i}" for i in range(width)])
    uniform = draw(st.booleans())
    shared_mask = draw(st.integers(1, INT64_MAX))
    rows = []
    for ts in range(count):
        values = tuple(draw(cell_values) for __ in range(width))
        mask = shared_mask if uniform else draw(st.integers(1, INT64_MAX))
        rows.append(ChannelTuple(StreamTuple(schema, values, ts), mask))
    return schema, rows


def _fingerprint(rows):
    """Byte-exact content digest: each cell pickled *separately*, so a
    bool decoding as 1, or an int as 1.0, breaks the fingerprint even
    though ``==`` would pass.  Per-cell pickling keeps the digest free of
    cross-cell memoization (two cells sharing one str object is an
    accident of construction, not part of the wire contract)."""
    return [
        (
            ct.membership,
            ct.tuple.ts,
            tuple(pickle.dumps(value) for value in ct.tuple.values),
        )
        for ct in rows
    ]


def _drain(frames, decoder):
    decoded = [r for r in map(decoder.decode, frames) if r is not None]
    assert len(decoded) == 1
    return decoded[0]


class TestColumnarTransportProperty:
    @given(run=packable_runs())
    @settings(max_examples=60, deadline=None)
    def test_three_transports_decode_byte_identical(self, run):
        schema, rows = run
        channel = singleton(schema)
        oracle = _fingerprint(rows)
        # Pickle wire (the oracle transport).
        __, pickle_rows = _drain(
            WireEncoder().encode_run(channel, rows), WireDecoder([channel])
        )
        assert _fingerprint(pickle_rows) == oracle
        # Columnar packing must accept every single-schema run.
        packed = ColumnBatch.from_channel_tuples(rows)
        assert packed is not None
        encoder = WireEncoder()
        decoder = WireDecoder([channel])
        frames = encoder.encode_run_columns(channel, packed)
        # crun queue frame.
        __, crun_batch = _drain(frames, decoder)
        assert _fingerprint(crun_batch.channel_tuples()) == oracle
        # Packed ring record (the actual byte codec).
        token = frames[-1][2]
        parts, total = pack_run_record(channel.channel_id, token, packed)
        record = b"".join(bytes(part) for part in parts)
        assert len(record) == total
        __, ring_batch = decoder.decode_ring(record)
        assert _fingerprint(ring_batch.channel_tuples()) == oracle
        assert ring_batch.channel_tuples() == rows

    @given(run=packable_runs(), cut=st.integers(0, 24))
    @settings(max_examples=25, deadline=None)
    def test_slice_and_take_rows_preserve_content(self, run, cut):
        schema, rows = run
        packed = ColumnBatch.from_channel_tuples(rows)
        cut = min(cut, packed.count)
        head = packed.slice(0, cut).channel_tuples()
        tail = packed.slice(cut, packed.count).channel_tuples()
        assert _fingerprint(head + tail) == _fingerprint(rows)
        reversed_rows = packed.take_rows(
            list(range(packed.count - 1, -1, -1))
        ).channel_tuples()
        assert _fingerprint(reversed_rows) == _fingerprint(rows[::-1])

    def test_mixed_schema_runs_stay_on_the_pickle_wire(self):
        schema_a = Schema.of_ints("a0")
        schema_b = Schema.of_ints("b0")  # a different schema
        rows = [
            ChannelTuple(StreamTuple(schema_a, (1,), 0), 1),
            ChannelTuple(StreamTuple(schema_b, (2,), 1), 1),
        ]
        assert ColumnBatch.from_channel_tuples(rows) is None
        assert ColumnBatch.from_rows(schema_a, [ct.tuple for ct in rows], 1) is None
        # An equal but distinct schema object is the same schema: it packs.
        equal = [
            ChannelTuple(StreamTuple(schema_a, (1,), 0), 1),
            ChannelTuple(StreamTuple(Schema.of_ints("a0"), (2,), 1), 1),
        ]
        assert ColumnBatch.from_channel_tuples(equal) is not None

    def test_oversized_mask_falls_back(self):
        schema = Schema.of_ints("a0")
        rows = [ChannelTuple(StreamTuple(schema, (1,), 0), 1 << 70)]
        assert ColumnBatch.from_channel_tuples(rows) is None

    def test_bools_survive_as_bools(self):
        schema = Schema.of_ints("flag", "n")
        channel = singleton(schema)
        rows = [ChannelTuple(StreamTuple(schema, (True, 1), 0), 1)]
        packed = ColumnBatch.from_channel_tuples(rows)
        # The flag column must be an object column: int64 packing would
        # conflate True with 1 (== equal, not byte-identical).
        assert packed.columns[0][0] == "o"
        assert packed.columns[1][0] == "q"
        out = packed.channel_tuples()[0].tuple.values
        assert out[0] is True and type(out[1]) is int

    def test_empty_run_is_not_packable(self):
        schema = Schema.of_ints("a0")
        assert ColumnBatch.from_channel_tuples([]) is None
        assert ColumnBatch.from_rows(schema, [], 1) is None


class TestMalformedFramesFailLoudly:
    def setup_method(self):
        self.schema = Schema.of_ints("a0", "a1")
        self.channel = singleton(self.schema)
        self.decoder = WireDecoder([self.channel])
        encoder = WireEncoder()
        batch = [ChannelTuple(StreamTuple(self.schema, (1, 2), 0), 1)]
        frames = encoder.encode_run(self.channel, batch)
        for frame in frames:
            self.decoder.decode(frame)
        self.token = frames[0][1]  # the schema frame's token

    def test_short_run_entry_raises_channel_error(self):
        with pytest.raises(ChannelError, match="malformed wire run entry"):
            self.decoder.decode(
                (RUN, self.channel.channel_id, self.token, [(1, 2)])
            )

    def test_long_run_entry_raises_channel_error(self):
        with pytest.raises(ChannelError, match="malformed wire run entry"):
            self.decoder.decode(
                (RUN, self.channel.channel_id, self.token, [(1, 1, (1, 2), 0, "x")])
            )

    def test_non_sequence_run_entry_raises_channel_error(self):
        with pytest.raises(ChannelError, match="malformed wire run entry"):
            self.decoder.decode(
                (RUN, self.channel.channel_id, self.token, [17])
            )

    def test_short_command_frame_raises_channel_error(self):
        with pytest.raises(ChannelError, match="malformed command frame"):
            decode_command(("stats",))

    def test_non_tuple_command_frame_raises_channel_error(self):
        with pytest.raises(ChannelError, match="malformed command frame"):
            decode_command("stats")

    def test_malformed_crun_payload_raises_channel_error(self):
        with pytest.raises(ChannelError, match="malformed columnar run"):
            self.decoder.decode(
                (CRUN, self.channel.channel_id, self.token, (1, 2))
            )

    def test_truncated_ring_record_raises_channel_error(self):
        with pytest.raises(ChannelError):
            unpack_run_record(b"\x01\x02\x03")

    def test_garbage_ring_record_raises_channel_error(self):
        batch = ColumnBatch.from_channel_tuples(
            [ChannelTuple(StreamTuple(self.schema, (1, 2), 0), 1)]
        )
        parts, total = pack_run_record(
            self.channel.channel_id, self.token, batch
        )
        record = b"".join(bytes(part) for part in parts)
        with pytest.raises(ChannelError):
            unpack_run_record(record[: total - 3])

    def test_unknown_schema_token_raises_channel_error(self):
        with pytest.raises(ChannelError, match="unknown schema"):
            self.decoder.decode(
                (CRUN, self.channel.channel_id, self.token + 999, (0, None, 1, ()))
            )


class TestSchemaRetireSoak:
    def test_interning_stays_bounded_under_schema_churn(self):
        """The satellite-2 soak: one schema generation per round, retired
        each round — encoder table, replay prefix and decoder table all
        stay at the live-schema count while tokens stay monotonic."""
        encoder = WireEncoder()
        decoder = WireDecoder([])
        tokens_seen = []
        for round_ in range(64):
            schema = Schema.of_ints("a0", "a1")
            channel = singleton(schema, f"W{round_}")
            decoder.add_channel(channel)
            batch = [ChannelTuple(StreamTuple(schema, (round_, 1), 0), 1)]
            frames = encoder.encode_run(channel, batch)
            assert frames[0][0] == SCHEMA
            tokens_seen.append(frames[0][1])
            __, decoded = _drain(frames, decoder)
            assert decoded == batch
            assert encoder.interned_schemas == 1
            retire = encoder.retire_schemas([])
            assert retire == (SCHEMA_RETIRE, (tokens_seen[-1],))
            assert decoder.decode(retire) is None
            assert encoder.interned_schemas == 0
            assert encoder.schema_frames() == []
            with pytest.raises(ChannelError, match="unknown schema"):
                decoder.decode(
                    (RUN, channel.channel_id, tokens_seen[-1], [(0, 1, (1, 2))])
                )
        # Tokens are never reused: retirement cannot alias in-flight frames.
        assert len(set(tokens_seen)) == 64
        assert tokens_seen == sorted(tokens_seen)

    def test_retire_keeps_live_schemas_and_their_frames(self):
        live_schema = Schema.of_ints("keep")
        dead_schema = Schema.of_ints("drop")
        live_channel = singleton(live_schema, "L")
        dead_channel = singleton(dead_schema, "D")
        encoder = WireEncoder()
        encoder.encode_run(
            live_channel, [ChannelTuple(StreamTuple(live_schema, (1,), 0), 1)]
        )
        encoder.encode_run(
            dead_channel, [ChannelTuple(StreamTuple(dead_schema, (2,), 0), 1)]
        )
        assert encoder.interned_schemas == 2
        frame = encoder.retire_schemas([live_schema])
        assert frame is not None and len(frame[1]) == 1
        replay = encoder.schema_frames()
        assert len(replay) == 1
        assert replay[0][2] == (("keep", "int"),)
        # Nothing left to retire; a reappearing schema re-interns fresh.
        assert encoder.retire_schemas([live_schema]) is None
        frames = encoder.encode_run(
            dead_channel, [ChannelTuple(StreamTuple(dead_schema, (3,), 0), 1)]
        )
        assert frames[0][0] == SCHEMA
        assert frames[0][1] not in frame[1]  # fresh token, never reused


class TestRingBuffer:
    def _record(self, payload: bytes):
        return [payload], len(payload)

    def test_write_read_round_trip_with_wraparound(self):
        ring = RingBuffer(capacity=64)
        for round_ in range(40):  # 40 * 24 bytes forces many wraps
            payload = bytes([round_ % 251]) * 24
            parts, total = self._record(payload)
            assert ring.try_write(parts, total)
            assert ring.used == total
            assert ring.read(total) == payload
            assert ring.used == 0

    def test_multi_part_record_spans_the_boundary(self):
        ring = RingBuffer(capacity=32)
        assert ring.try_write([b"x" * 20], 20)
        assert ring.read(20) == b"x" * 20
        # Next record starts at offset 20 and wraps.
        parts = [b"abc", b"defghij", b"k" * 14]
        assert ring.try_write(parts, 24)
        assert ring.read(24) == b"abcdefghij" + b"k" * 14

    def test_full_ring_returns_false_not_blocks(self):
        ring = RingBuffer(capacity=32)
        assert ring.try_write([b"a" * 30], 30)
        assert not ring.try_write([b"b" * 10], 10, wait_seconds=0.01)
        # Space reclaimed by the reader makes the same write succeed.
        ring.read(30)
        assert ring.try_write([b"b" * 10], 10)

    def test_oversized_record_rejected_without_waiting(self):
        ring = RingBuffer(capacity=16)
        assert not ring.try_write([b"z" * 17], 17, wait_seconds=10.0)
        assert ring.used == 0

    def test_read_returns_owned_bytes(self):
        ring = RingBuffer(capacity=64)
        ring.try_write([b"hello"], 5)
        first = ring.read(5)
        ring.try_write([b"world"], 5)
        assert first == b"hello"  # unaffected by later writes

    def test_state_round_trip_rebuilds_view_over_shared_arena(self):
        # The spawn-style hop serializes via __getstate__ (the memoryview
        # cannot cross); __setstate__ rebuilds it over the *same* arena,
        # so a clone writes bytes the original reads.
        ring = RingBuffer(capacity=64)
        state = ring.__getstate__()
        assert "_view" not in state
        clone = RingBuffer.__new__(RingBuffer)
        clone.__setstate__(state)
        assert clone.try_write([b"abc"], 3)
        assert ring.read(3) == b"abc"
