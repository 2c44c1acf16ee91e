"""Seeded input generation for the three workloads.

Every generator is a pure function of the seed: the same seed gives
byte-identical queries and events (``perfbench/test_perfbench.py`` checks
this).  Events are plain ``(ts, values)`` pairs; the workloads turn them
into the program's tuples against each runtime's own schema objects, so the
program receives only the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Events per source run on ``select_fanin`` (the ingest tier's ``max_run``).
RUN_SIZE = 256
#: ``select_fanin``: sources, selections on each, attributes per event and
#: the value domain of every attribute (paper §5.1).
FANIN_STREAMS = 4
FANIN_QUERIES_PER_STREAM = 125
FANIN_WIDTH = 10
FANIN_DOMAIN = 1000
#: ``socket_paced``: standing queries, and events per open-loop and
#: closed-loop push.
SOCKET_AGGREGATES = 4
SOCKET_SELECTIONS = 128
PACED_PUSH = 16
CLOSED_PUSH = 128


@dataclass
class FaninInputs:
    streams: list  # source names
    width: int  # attributes per event
    queries: list  # [(query text, query id)]
    runs: list  # the run pool, cycled in order: [(stream, [(ts, values)])]


def fanin_inputs(seed: int, pool_runs: int = 256) -> FaninInputs:
    """Zipf(1.5)-constant equality selections on each source (paper §5.1
    shape) and a pool of ``pool_runs`` runs spread uniformly over the
    sources, each run ``RUN_SIZE`` events with consecutive timestamps."""
    from repro.workloads.zipf import ZipfSampler

    rng = np.random.default_rng([seed, 1])
    names = [f"S{i}" for i in range(FANIN_STREAMS)]
    queries = []
    for name in names:
        sampler = ZipfSampler(0, FANIN_DOMAIN - 1, 1.5, rng)
        for index, constant in enumerate(sampler.sample(FANIN_QUERIES_PER_STREAM)):
            queries.append(
                (f"FROM {name} WHERE a0 == {int(constant)}", f"{name}_q{index}")
            )
    picks = rng.integers(0, FANIN_STREAMS, size=pool_runs)
    values = rng.integers(
        0, FANIN_DOMAIN, size=(pool_runs * RUN_SIZE, FANIN_WIDTH)
    )
    rows = [tuple(row) for row in values.tolist()]
    runs = []
    for r in range(pool_runs):
        base = r * RUN_SIZE
        runs.append(
            (
                names[int(picks[r])],
                [(base + k, rows[base + k]) for k in range(RUN_SIZE)],
            )
        )
    return FaninInputs(names, FANIN_WIDTH, queries, runs)


def churn_workload(seed: int):
    """The program's own Poisson register/unregister schedule over S/T,
    cycling the select/join/sequence/aggregate templates: about 100
    standing queries, then ~1,000 lifecycle ops over 6,000 events."""
    from repro.workloads.churn import ALL_TEMPLATES, ChurnWorkload

    return ChurnWorkload(
        arrival_rate=0.09,
        mean_lifetime=1100.0,
        horizon=6_000,
        initial_queries=100,
        seed=seed,
        templates=ALL_TEMPLATES,
    )


@dataclass
class SocketInputs:
    streams: list
    width: int
    queries: list  # [(query text, query id)]
    paced: list  # open loop: [(due seconds, stream, [(ts, values)])]
    closed: list  # closed-loop pool, cycled: [(stream, [values])]


def socket_inputs(
    seed: int, rate: float, paced_seconds: float, closed_pushes: int = 512
) -> SocketInputs:
    """Windowed grouped aggregates plus Zipf-constant selections over two
    streams; an open-loop schedule of ``PACED_PUSH``-event pushes at
    ``rate`` events/s for ``paced_seconds``, and a pool of
    ``closed_pushes`` closed-loop pushes that the sender cycles, stamping
    timestamps as it goes.

    Events are ``(a0, a1, a2)``: ``a0`` a group key over 32 values, ``a1``
    the selection attribute over 1,000 and ``a2`` the aggregated value.
    Timestamps count events, so they rise per stream across both phases.
    """
    from repro.workloads.zipf import ZipfSampler

    rng = np.random.default_rng([seed, 3])
    names = ["S", "T"]
    functions = ("avg", "sum", "max", "min")
    windows = (250, 500, 1000, 2000)
    queries = []
    for i in range(SOCKET_AGGREGATES):
        queries.append(
            (
                f"FROM {names[i % 2]} AGG {functions[(i // 2) % 4]}(a2) "
                f"OVER {windows[i % 4]} BY a0 AS g",
                f"agg{i}",
            )
        )
    sampler = ZipfSampler(0, 999, 1.5, rng)
    for i, constant in enumerate(sampler.sample(SOCKET_SELECTIONS)):
        queries.append(
            (f"FROM {names[i % 2]} WHERE a1 == {int(constant)}", f"sel{i}")
        )

    def pushes(count: int, size: int) -> list:
        picks = rng.integers(0, 2, size=count)
        columns = np.stack(
            [
                rng.integers(0, 32, size=count * size),
                rng.integers(0, 1000, size=count * size),
                rng.integers(0, 1000, size=count * size),
            ],
            axis=1,
        )
        rows = [tuple(row) for row in columns.tolist()]
        return [
            (names[int(picks[p])], rows[p * size : (p + 1) * size])
            for p in range(count)
        ]

    count = int(rate * paced_seconds) // PACED_PUSH
    interval = PACED_PUSH / rate
    paced = []
    ts = 0
    for p, (stream, rows) in enumerate(pushes(count, PACED_PUSH)):
        paced.append((p * interval, stream, list(enumerate(rows, ts))))
        ts += len(rows)
    return SocketInputs(
        names, 3, queries, paced, pushes(closed_pushes, CLOSED_PUSH)
    )
