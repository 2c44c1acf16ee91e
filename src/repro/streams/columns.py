"""Packed column batches — the zero-copy data-plane representation.

A :class:`ColumnBatch` is a run of same-schema channel tuples stored
column-wise: one packed array per schema attribute plus a timestamp array
and a membership mask (uniform int for the common source-run case, or a
per-row array).  Columns are tagged by storage class::

    'q'  int64 numpy array    (Python ints within int64 range)
    'd'  float64 numpy array  (Python floats)
    'o'  plain object list    (everything else: str, None, bool, bignum, ...)

The tags double as the wire layout: ``'q'``/``'d'`` columns cross the
shared-memory ring as raw array bytes (no pickle), ``'o'`` columns fall
back to a pickle blob.  ``bool`` deliberately lands in ``'o'``: packing
``True`` as int64 would materialize back as ``1``, which compares equal
but is not the same value — and the data plane's contract is byte-identical
round trips, not merely ``==``-identical ones.

Materialization (:meth:`tuples` / :meth:`channel_tuples`) goes through
``ndarray.tolist()``, which yields native Python ints/floats, so a value
that survived packing round-trips exactly.  Row objects are built with the
trusted :meth:`~repro.streams.tuples.StreamTuple._make` constructor — the
batch's shape was validated once at pack time, not once per row.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.streams.channel import ChannelTuple
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

#: Column storage tags.
TAG_INT = "q"
TAG_FLOAT = "d"
TAG_OBJECT = "o"


def _pack_values(values: list) -> tuple[str, object]:
    """Classify one column's values and pack them if numerically uniform."""
    kind = None
    for value in values:
        cls = type(value)
        if cls is int:
            if not (INT64_MIN <= value <= INT64_MAX):
                return TAG_OBJECT, values
            if kind is None:
                kind = TAG_INT
            elif kind is not TAG_INT:
                return TAG_OBJECT, values
        elif cls is float:
            if kind is None:
                kind = TAG_FLOAT
            elif kind is not TAG_FLOAT:
                return TAG_OBJECT, values
        else:
            return TAG_OBJECT, values
    if kind is TAG_INT:
        return TAG_INT, np.array(values, dtype=np.int64)
    if kind is TAG_FLOAT:
        return TAG_FLOAT, np.array(values, dtype=np.float64)
    return TAG_OBJECT, values


class ColumnBatch:
    """A same-schema run stored as packed columns.

    ``membership`` is either a plain int (every row carries the same mask —
    the source-run case) or an int64 array of per-row masks.  ``columns``
    is one ``(tag, data)`` pair per schema attribute, in schema order.
    """

    __slots__ = ("schema", "count", "ts", "membership", "columns")

    def __init__(self, schema: Schema, count: int, ts, membership, columns):
        self.schema = schema
        self.count = count
        self.ts = ts
        self.membership = membership
        self.columns = columns

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_rows(
        cls, schema: Schema, rows: Sequence[StreamTuple], membership: int
    ) -> Optional["ColumnBatch"]:
        """Pack a run of stream tuples sharing ``schema`` under one mask.

        Returns ``None`` when the run is not packable — a tuple carries a
        schema that differs from ``schema`` (mixed-schema runs stay on the
        pickle wire; a distinct but equal schema object packs), or the
        mask exceeds int64.  Unpackable *values* do not disqualify a run;
        they land in ``'o'`` columns.
        """
        if not rows or not (0 < membership <= INT64_MAX):
            return None
        width = len(schema)
        value_lists: list[list] = [[] for __ in range(width)]
        ts_list = []
        ts_append = ts_list.append
        # Last schema object seen equal to ``schema``: the structural check
        # runs once per distinct object, not once per row.
        equal = schema
        for tuple_ in rows:
            if tuple_.schema is not equal:
                if tuple_.schema != schema:
                    return None
                equal = tuple_.schema
            ts_append(tuple_.ts)
            values = tuple_.values
            for position in range(width):
                value_lists[position].append(values[position])
        ts = np.array(ts_list, dtype=np.int64)
        columns = tuple(_pack_values(values) for values in value_lists)
        return cls(schema, len(rows), ts, membership, columns)

    @classmethod
    def from_channel_tuples(
        cls, batch: Sequence[ChannelTuple]
    ) -> Optional["ColumnBatch"]:
        """Pack a channel-tuple run (per-row membership preserved).

        Same fallback rules as :meth:`from_rows`; the membership column
        collapses to a plain int when every row carries the same mask.
        """
        if not batch:
            return None
        schema = batch[0].tuple.schema
        masks = []
        first_mask = batch[0].membership
        uniform = True
        for channel_tuple in batch:
            mask = channel_tuple.membership
            if not (0 < mask <= INT64_MAX):
                return None
            masks.append(mask)
            if mask != first_mask:
                uniform = False
        packed = cls.from_rows(
            schema, [ct.tuple for ct in batch], first_mask if uniform else 1
        )
        if packed is None:
            return None
        if not uniform:
            packed.membership = np.array(masks, dtype=np.int64)
        return packed

    # -- shape ----------------------------------------------------------------------

    def logical_events(self) -> int:
        """Total membership bits across the batch (the logical event count)."""
        membership = self.membership
        if isinstance(membership, int):
            return self.count * membership.bit_count()
        return sum(mask.bit_count() for mask in membership.tolist())

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """Row range as a new batch; numeric columns are zero-copy views."""
        membership = self.membership
        if not isinstance(membership, int):
            membership = membership[start:stop]
        columns = tuple(
            (tag, data[start:stop]) for tag, data in self.columns
        )
        return ColumnBatch(
            self.schema,
            min(stop, self.count) - start,
            self.ts[start:stop],
            membership,
            columns,
        )

    def take_rows(self, indexes) -> "ColumnBatch":
        """Row subset by index array (the predicate-index hit set)."""
        membership = self.membership
        if not isinstance(membership, int):
            membership = membership[indexes]
        columns = []
        for tag, data in self.columns:
            if tag == TAG_OBJECT:
                columns.append((tag, [data[i] for i in indexes]))
            else:
                columns.append((tag, data[indexes]))
        return ColumnBatch(
            self.schema,
            len(indexes),
            self.ts[indexes],
            membership,
            tuple(columns),
        )

    # -- materialization ------------------------------------------------------------

    def tuples(self) -> list[StreamTuple]:
        """Materialize the rows (fallback and sink boundaries only)."""
        schema = self.schema
        make = StreamTuple._make
        ts_list = self.ts.tolist()
        if not self.columns:
            return [make(schema, (), ts) for ts in ts_list]
        value_lists = [
            data if tag == TAG_OBJECT else data.tolist()
            for tag, data in self.columns
        ]
        return [
            make(schema, values, ts)
            for values, ts in zip(zip(*value_lists), ts_list)
        ]

    def channel_tuples(self) -> list[ChannelTuple]:
        """Materialize as channel tuples carrying their membership masks."""
        rows = self.tuples()
        membership = self.membership
        if isinstance(membership, int):
            return [ChannelTuple(tuple_, membership) for tuple_ in rows]
        return [
            ChannelTuple(tuple_, mask)
            for tuple_, mask in zip(rows, membership.tolist())
        ]

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        tags = "".join(tag for tag, __ in self.columns)
        return (
            f"ColumnBatch({self.schema.names}, count={self.count}, "
            f"layout={tags!r})"
        )
