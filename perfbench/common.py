"""Pieces the three workloads share: the fleet, the in-process replay that
serves as oracle and single-engine baseline, and the per-layer figures
read from the program's own counters."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from perfbench.host import HostSpeed
from perfbench.spans import Tracer
from perfbench.stats import median, percentile

#: Worker shards of the measured fleet.
SHARDS = 2
#: Times a run sets the fleet up; ``setup_s`` is the median.
SETUPS = 3
#: Reference passes after each setup (see :class:`~perfbench.host.HostSpeed`).
SETUP_SPEED_SAMPLES = 20

#: A disabled tracer for untraced passes.
UNTRACED = Tracer(False)


class OracleError(AssertionError):
    """The served outputs diverge from the in-process oracle."""


@dataclass
class Outcome:
    """What one workload run measured."""

    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Samples kept for the human-readable table: label → list of ms.
    samples: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    #: False when the measurement itself is void (open-loop backlog grew).
    valid: bool = True
    #: Host speed sampled through each timed phase: ``setup`` and ``drain``.
    speed: dict = field(
        default_factory=lambda: {"setup": HostSpeed(), "drain": HostSpeed()}
    )


class Counter:
    """Attempted and failed operations for ``error_ratio``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, call: Callable, *args, **kwargs) -> bool:
        """Run one operation; a refused one (a ``RumorError``) is counted
        as failed and reported as False."""
        from repro.errors import RumorError

        self.attempted += 1
        try:
            call(*args, **kwargs)
        except RumorError:
            self.failed += 1
            return False
        return True


def open_fleet(sources: dict):
    """The serving runtime under test: a 2-shard process fleet."""
    from repro import RuntimeConfig, open_runtime

    return open_runtime(
        RuntimeConfig(
            sources=dict(sources), process=True, shards=SHARDS, capture_outputs=True
        )
    )


def open_inline(sources: dict):
    """The single-threaded baseline: one in-process ``QueryRuntime``."""
    from repro import RuntimeConfig, open_runtime

    return open_runtime(RuntimeConfig(sources=dict(sources), capture_outputs=True))


def register_all(runtime, queries, tracer: Tracer, counter: Counter, lifecycle: list):
    """Register ``(text, id)`` pairs synchronously, timing each call."""
    for text, query_id in queries:
        started = time.perf_counter()
        with tracer.span("shard.register"):
            counter.attempt(runtime.register, text, query_id)
        lifecycle.append(time.perf_counter() - started)


def setup_fleet(sources, queries, tracer: Tracer, counter: Counter, lifecycle: list):
    """Open the fleet, register the standing ``(query, id)`` pairs and wait
    for a worker barrier; returns ``(fleet, seconds)``."""
    started = time.perf_counter()
    with tracer.span("bench.setup"):
        with tracer.span("runtime.open_runtime"):
            fleet = open_fleet(sources)
        register_all(fleet, queries, tracer, counter, lifecycle)
        with tracer.span("shard.ping"):
            fleet.ping()
    return fleet, time.perf_counter() - started


def repeated_setups(count: int, speed: HostSpeed, *args) -> tuple:
    """:func:`setup_fleet` ``count`` times, closing all but the last fleet
    and sampling ``speed`` after each.  Returns ``(last fleet, [seconds...])``."""
    seconds = []
    fleet = None
    for __ in range(count):
        if fleet is not None:
            fleet.close()
        fleet, elapsed = setup_fleet(*args)
        seconds.append(elapsed)
        speed.sample(SETUP_SPEED_SAMPLES)
    return fleet, seconds


def busy_seconds(fleet) -> list[float]:
    """Cumulative per-worker busy seconds, from ``shard_stats()``."""
    return [stats.elapsed_seconds for stats in fleet.shard_stats()]


def fleet_layer_metrics(
    busy_before: Sequence[float],
    busy_after: Sequence[float],
    wall: float,
    pings: Sequence[float],
) -> dict:
    """Worker busy time over ``wall`` (from two ``shard_stats()`` reads)
    and the probes' ``ping()`` round trips."""
    busy = [after - before for before, after in zip(busy_before, busy_after)]
    mean = sum(busy) / len(busy)
    return {
        "shard.worker_util": sum(busy) / (wall * len(busy)),
        "shard.busy_skew": max(busy) / mean if mean > 0 else 0.0,
        "shard.worker_busy_s": max(busy),
        "shard.ping_ms_p50": percentile(pings, 50) * 1e3,
        "shard.ping_ms_p99": percentile(pings, 99) * 1e3,
    }


@dataclass
class Replay:
    """An in-process runtime that applied a recorded op order, with timings."""

    runtime: object
    register: list = field(default_factory=list)
    unregister: list = field(default_factory=list)
    data_seconds: float = 0.0
    events: int = 0


def replay(entries, sources: dict, tracer: Tracer) -> Replay:
    """Apply arrival-log entries — ``("run", stream, [(ts, values)])``,
    ``("register", query, id)``, ``("unregister", id)`` — in order through
    one in-process ``QueryRuntime``, timing each call."""
    from repro.streams import StreamTuple

    result = Replay(open_inline(sources))
    inline = result.runtime
    for entry in entries:
        kind = entry[0]
        if kind == "run":
            __, stream, rows = entry
            schema = inline.streams[stream].schema
            tuples = [StreamTuple(schema, values, ts) for ts, values in rows]
            started = time.perf_counter()
            with tracer.span("engine.process_batch"):
                inline.process_batch(stream, tuples)
            result.data_seconds += time.perf_counter() - started
            result.events += len(tuples)
        elif kind == "register":
            started = time.perf_counter()
            with tracer.span("runtime.register"):
                inline.register(entry[1], query_id=entry[2])
            result.register.append(time.perf_counter() - started)
        else:
            started = time.perf_counter()
            with tracer.span("runtime.unregister"):
                inline.unregister(entry[1])
            result.unregister.append(time.perf_counter() - started)
    return result


def inline_eps(played: Replay) -> float:
    """Events per second of data time in the in-process replay."""
    return played.events / played.data_seconds if played.data_seconds > 0 else 0.0


def inline_layer_metrics(played: Replay) -> dict:
    """``runtime``, ``core`` and ``engine`` figures from the in-process
    runtime's own records: its optimizer reports, migration log and stats."""
    inline = played.runtime
    reports = inline.reports
    migrations = inline.migration_log
    ops = max(1, len(reports))
    stats = inline.stats
    return {
        "runtime.register_ms_p50": percentile(played.register, 50) * 1e3,
        "runtime.register_ms_p99": percentile(played.register, 99) * 1e3,
        "runtime.unregister_ms_p50": percentile(played.unregister, 50) * 1e3,
        "runtime.unregister_ms_p99": percentile(played.unregister, 99) * 1e3,
        "runtime.migrate_ms_p50": median(
            [m.elapsed_seconds for m in migrations]
        )
        * 1e3,
        "runtime.executors_built_per_op": sum(
            m.built_executors for m in migrations
        )
        / max(1, len(migrations)),
        "core.mops_considered_per_op": sum(r.mops_considered for r in reports)
        / ops,
        "core.sweeps_per_op": sum(r.sweeps for r in reports) / ops,
        "core.rule_applications_per_op": sum(
            r.total_applications for r in reports
        )
        / ops,
        "core.plan_mops": len(inline.plan.mops),
        "engine.inline_eps": inline_eps(played),
        "engine.physical_per_input": stats.physical_events
        / max(1, stats.input_events),
    }


def parse_us_p50(queries, tracer: Tracer) -> float:
    """Median ``as_logical`` time per query (text or logical query)."""
    from repro.lang.compiler import as_logical

    samples = []
    for query, query_id in queries:
        started = time.perf_counter()
        with tracer.span("lang.as_logical"):
            as_logical(query, query_id)
        samples.append(time.perf_counter() - started)
    return median(samples) * 1e6


def pack_us_per_event(schemas: dict, runs, tracer: Tracer) -> float:
    """``ColumnBatch.from_rows`` time per event over the workload's runs."""
    from repro.streams import StreamTuple
    from repro.streams.columns import ColumnBatch

    seconds = 0.0
    events = 0
    for stream, rows in runs:
        schema = schemas[stream]
        tuples = [StreamTuple(schema, values, ts) for ts, values in rows]
        started = time.perf_counter()
        with tracer.span("streams.from_rows"):
            ColumnBatch.from_rows(schema, tuples, 1)
        seconds += time.perf_counter() - started
        events += len(tuples)
    return seconds / max(1, events) * 1e6


def verify_per_query(live: dict, expected: dict, log, sources: dict) -> int:
    """``verify_equivalence`` — byte identity under ``normalize_captured``
    against the in-process ``expected`` outputs — one query at a time, so
    only one query's outputs are ever normalized at once.  Returns the
    output count; raises :class:`OracleError` on the first divergence."""
    from repro.errors import ServeError
    from repro.serve.replay import normalize_captured, verify_equivalence

    outputs = 0
    for query_id in sorted(set(live) | set(expected)):
        replayed = normalize_captured({query_id: expected.get(query_id, [])})
        try:
            verdict = verify_equivalence(
                {query_id: live.get(query_id, [])}, log, sources, replayed=replayed
            )
        except ServeError as error:
            raise OracleError(str(error)) from error
        outputs += verdict["outputs"]
    return outputs
