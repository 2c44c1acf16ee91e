"""Synthetic stream generation (§5.1).

The paper's benchmark streams carry 10 integer attributes ``a0..a9`` plus a
timestamp.  Two streams S and T are generated with interleaved consecutive
timestamps (S gets the even timestamps, T the odd ones); attribute values are
uniform in ``[0, 1000)``.

For the channel experiments (Workload 3, §5.2) generation is round-based: a
round is 10 identical tuples on the sharable streams ``S1..Sk`` followed by
one ``T`` tuple — or, in the channel configuration, a single channel tuple
encoding all ``Si`` followed by the ``T`` tuple, so both configurations see
"exactly the same content".
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

#: Attribute values are always drawn from this range (§5.1), independently of
#: the query-constant domain size swept in Fig. 9(b).
VALUE_DOMAIN = 1000


def synthetic_schema(num_attributes: int = 10) -> Schema:
    """The paper's stream schema: ``num_attributes`` int attributes a0..a9."""
    return Schema.numbered(num_attributes)


def interleaved_events(
    schema: Schema,
    total: int,
    rng: np.random.Generator,
    value_domain: int = VALUE_DOMAIN,
    streams: Sequence[str] = ("S", "T"),
) -> list[tuple[str, StreamTuple]]:
    """Interleave tuple generation across ``streams`` with consecutive ts.

    Tuple ``i`` goes to ``streams[i % len(streams)]`` at timestamp ``i`` —
    the §5.1 scheme (S at even, T at odd timestamps for the default pair).
    """
    if total < 0:
        raise WorkloadError("total must be non-negative")
    width = len(schema)
    values = rng.integers(0, value_domain, size=(total, width))
    events = []
    stream_count = len(streams)
    for i in range(total):
        events.append(
            (
                streams[i % stream_count],
                StreamTuple(schema, tuple(int(v) for v in values[i]), i),
            )
        )
    return events


def round_robin_rounds(
    schema: Schema,
    rounds: int,
    capacity: int,
    rng: np.random.Generator,
    value_domain: int = VALUE_DOMAIN,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Content for ``rounds`` Workload 3 rounds.

    Each round is a pair ``(s_values, t_values)``: one content vector shared
    by all ``capacity`` sharable streams (the paper makes "the first 10
    tuples in every round have the same content") and one ``T`` vector.
    Timestamps are assigned by the caller: the S-side of round ``r`` is at
    ``2r``, the T tuple at ``2r + 1``.
    """
    if capacity < 1:
        raise WorkloadError("capacity must be at least 1")
    width = len(schema)
    s_values = rng.integers(0, value_domain, size=(rounds, width))
    t_values = rng.integers(0, value_domain, size=(rounds, width))
    return [(s_values[r], t_values[r]) for r in range(rounds)]


def rounds_as_channel_events(
    schema: Schema,
    rounds: list[tuple[np.ndarray, np.ndarray]],
    channel_name: str = "C",
    t_name: str = "T",
) -> Iterator[tuple[str, StreamTuple]]:
    """Render rounds as channel-side events (one C tuple per round)."""
    for r, (s_values, t_values) in enumerate(rounds):
        yield channel_name, StreamTuple(
            schema, tuple(int(v) for v in s_values), 2 * r
        )
        yield t_name, StreamTuple(schema, tuple(int(v) for v in t_values), 2 * r + 1)
