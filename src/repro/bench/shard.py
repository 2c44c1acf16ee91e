"""Shard benchmark: component merging and the serving fleet.

Two workloads, every cell checked output-identical to its single-engine
baseline:

- **partitionable zipf** — ``k`` independent source streams, each with its
  own set of Zipf-constant selection queries, so the optimized plan has
  ``k`` entry-channel connected components.  Timestamps interleave across
  the sources (tuple ``ts`` goes to source ``ts % k``), so one global
  timestamp merge cuts every same-channel run down to one tuple.
  ``single_batched`` is :class:`~repro.engine.executor.StreamEngine` as it
  runs: it merges per component, so each source drains in full-length
  runs.  ``single_global_merge`` feeds the same engine the global merge
  through ``process_batch``; their ratio, ``component_merge_speedup``, is
  the headline and is gated.  ``fleet_{1,2,4}`` serve the same selections,
  registered as query text, on the process fleet clients reach through
  ``open_runtime(process=True, shards=N)``.  They are fed rows (so
  packing is included), timed to a ``collect_stats()`` barrier, and report
  ``parallel_efficiency`` = speedup / min(N, cpus).  Nothing is tuned to
  make them look good: on this tiny-work-per-event workload the fleet is
  bound by its coordinator and reads well below the single engine.
- **sharded churn** — a live churn serve on one runtime vs two inline
  shards (``open_runtime(shards=N)``) with load-levelling rebalances.
  Inline shards pay the fleet's per-run pack/decode and pickled transfers
  with no parallelism in return, so this cell reads below the single
  runtime; it is reported, not gated.

Cells alternate within each repeat and report their best repeat; every
ratio is the median over repeats of the two cells' back-to-back ratio, so a
slow stretch of a shared host skews neither side alone.  Results land in
``BENCH_shard.json``; the run fails if the gated ratio falls below the
scale's floor.

Regenerate::

    PYTHONPATH=src python -m repro.cli bench-shard
    PYTHONPATH=src python -m repro.cli bench-shard --scale smoke   # CI

or run the standalone script ``benchmarks/bench_shard.py``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.optimizer import Optimizer
from repro.core.plan import QueryPlan
from repro.engine.executor import StreamEngine
from repro.engine.metrics import RunStats
from repro.operators.expressions import attr, lit
from repro.operators.predicates import Comparison
from repro.operators.select import Selection
from repro.runtime.config import RuntimeConfig, open_runtime
from repro.serve.replay import normalize_captured
from repro.streams.sources import StreamSource, merge_source_runs
from repro.streams.tuples import StreamTuple
from repro.workloads.churn import ChurnWorkload, drive_batched, drive_sharded
from repro.workloads.synthetic import synthetic_schema
from repro.workloads.zipf import ZipfSampler

#: Acceptance floor: the single engine merging per component over the same
#: engine fed one global merge, on the partitionable zipf workload.
TARGET_SPEEDUP = 2.0
#: Relaxed floor for the CI smoke run (small event counts are noisy).
SMOKE_SPEEDUP = 1.3
#: Fleet sizes of the ``fleet_N`` cells.
FLEET_SHARDS = (1, 2, 4)
#: Repeat count for the two single-engine zipf cells: a drain takes a few
#: milliseconds at smoke scale, so one slow pass would swing the gated ratio.
SINGLE_REPEATS = 15


def paired_speedup(numerators: list[float], denominators: list[float]) -> float:
    """Median over repeats of the ratio of two cells timed back to back.

    Cells alternate within a repeat, so a slow stretch of a shared host
    hits both sides of one ratio; the median then drops the repeats it
    skewed anyway.  Best-of per cell would pair two different repeats.
    """
    return round(
        statistics.median(
            num / max(den, 1e-9) for num, den in zip(numerators, denominators)
        ),
        2,
    )


@dataclass
class ShardScale:
    """Knobs controlling benchmark size."""

    name: str = "full"
    zipf_sources: int = 4
    zipf_queries_per_source: int = 75
    zipf_events: int = 40_000
    churn_events: int = 2_000
    churn_initial: int = 6
    churn_shards: int = 2
    repeats: int = 3
    max_batch: int = 4096
    min_speedup: float = TARGET_SPEEDUP

    @classmethod
    def full(cls) -> "ShardScale":
        return cls()

    @classmethod
    def smoke(cls) -> "ShardScale":
        """Reduced scale for the CI smoke job."""
        return cls(
            name="smoke",
            zipf_sources=4,
            zipf_queries_per_source=40,
            zipf_events=8_000,
            churn_events=600,
            churn_initial=4,
            repeats=7,
            min_speedup=SMOKE_SPEEDUP,
        )


# -- partitionable zipf workload -----------------------------------------------------


def zipf_constants(
    num_sources: int, queries_per_source: int, seed: int = 7
) -> list[list[int]]:
    """Per-source Zipf selection constants of the partitionable workload."""
    rng = np.random.default_rng(seed)
    return [
        [int(c) for c in ZipfSampler(0, 999, 1.5, rng).sample(queries_per_source)]
        for __ in range(num_sources)
    ]


def partitionable_zipf_plan(
    num_sources: int, queries_per_source: int, seed: int = 7
) -> tuple[QueryPlan, list]:
    """``num_sources`` independent streams, each with its own Zipf-constant
    selection set — optimizes to one predicate-index m-op per source, i.e.
    ``num_sources`` connected components.  Query ``q{i}_{j}`` is
    ``FROM S{i} WHERE a0 == c`` for the ``j``-th constant of source ``i``."""
    schema = synthetic_schema()
    plan = QueryPlan()
    sources = [plan.add_source(f"S{i}", schema) for i in range(num_sources)]
    constants = zipf_constants(num_sources, queries_per_source, seed)
    for index, source in enumerate(sources):
        for position, constant in enumerate(constants[index]):
            query_id = f"q{index}_{position}"
            out = plan.add_operator(
                Selection(Comparison(attr("a0"), "==", lit(constant))),
                [source],
                query_id=query_id,
            )
            plan.mark_output(out, query_id)
    Optimizer().optimize(plan)
    return plan, sources


def interleaved_zipf_tuples(
    num_sources: int, count: int, seed: int = 8
) -> list[list[StreamTuple]]:
    """Per-source tuple lists with globally interleaved timestamps
    (tuple ``ts`` goes to source ``ts % k`` — the adversarial case for the
    single engine's run coalescing, the natural case for sharding)."""
    schema = synthetic_schema()
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1000, size=(count, len(schema)))
    per_source: list[list[StreamTuple]] = [[] for __ in range(num_sources)]
    for ts in range(count):
        per_source[ts % num_sources].append(
            StreamTuple(schema, tuple(int(v) for v in values[ts]), ts)
        )
    return per_source


def _make_sources(plan, sources, per_source):
    return [
        StreamSource(plan.channel_of(source), tuples)
        for source, tuples in zip(sources, per_source)
    ]


def _require_equivalent(name: str, baseline: RunStats, candidate: RunStats) -> None:
    if baseline.outputs_by_query != candidate.outputs_by_query:
        raise AssertionError(
            f"{name}: outputs diverged from the single-engine baseline"
        )
    if baseline.input_events != candidate.input_events:
        raise AssertionError(
            f"{name}: input accounting diverged "
            f"({baseline.input_events} != {candidate.input_events})"
        )


def _global_merge_run(engine: StreamEngine, sources, max_batch: int) -> RunStats:
    """Feed ``engine`` the one global timestamp merge of ``sources``.

    The same engine as ``StreamEngine.run``, but given the input form a
    caller gets by merging every source itself: interleaved runs that
    ``process_batch`` dispatches as they come.
    """
    stats = RunStats()
    started = time.perf_counter()
    for channel, batch in merge_source_runs(sources, max_batch):
        stats.absorb(engine.process_batch(channel, batch))
    stats.elapsed_seconds = time.perf_counter() - started
    return stats


def _fleet_run(scale: ShardScale, n_shards: int, per_source) -> tuple:
    """Serve the zipf selections on an ``n_shards`` process fleet.

    Queries register as text, each source's set on shard ``i % n_shards``
    (one component per source, placed whole).  The timed drain ships the
    rows in ``max_batch`` runs, round-robin across sources, and ends at a
    ``collect_stats()`` barrier.  Returns ``(stats, wall, captured)``.
    """
    schema = per_source[0][0].schema
    constants = zipf_constants(scale.zipf_sources, scale.zipf_queries_per_source)
    fleet = open_runtime(
        RuntimeConfig(
            sources={f"S{i}": schema for i in range(scale.zipf_sources)},
            shards=n_shards,
            process=True,
            capture_outputs=True,
        )
    )
    try:
        for index, values in enumerate(constants):
            for position, constant in enumerate(values):
                fleet.register(
                    f"FROM S{index} WHERE a0 == {constant}",
                    query_id=f"q{index}_{position}",
                    shard=index % n_shards,
                )
        fleet.collect_stats()
        longest = max(len(tuples) for tuples in per_source)
        started = time.perf_counter()
        for start in range(0, longest, scale.max_batch):
            for index, tuples in enumerate(per_source):
                run = tuples[start : start + scale.max_batch]
                if run:
                    fleet.process_batch(f"S{index}", run)
        stats = fleet.collect_stats()
        wall = time.perf_counter() - started
        return stats, wall, fleet.captured
    finally:
        fleet.close()


def bench_partitionable_zipf(scale: ShardScale) -> dict:
    per_source = interleaved_zipf_tuples(scale.zipf_sources, scale.zipf_events)
    cpus = os.cpu_count() or 1
    result: dict = {
        "sources": scale.zipf_sources,
        "queries": scale.zipf_sources * scale.zipf_queries_per_source,
        "events": scale.zipf_events,
        "cells": {},
    }

    def build():
        return partitionable_zipf_plan(
            scale.zipf_sources, scale.zipf_queries_per_source
        )

    def drain_fresh(drain) -> RunStats:
        plan, sources = build()
        engine = StreamEngine(plan, max_batch=scale.max_batch)
        return drain(engine, _make_sources(plan, sources, per_source))

    # The two cells alternate; cells report their best repeat, the gated
    # ratio is the median of the per-repeat ratios.
    baseline = global_merge = None
    merged_rates: list[float] = []
    global_rates: list[float] = []
    for __ in range(SINGLE_REPEATS):
        stats = drain_fresh(lambda engine, sources: engine.run(sources))
        merged_rates.append(stats.throughput)
        if baseline is None or stats.throughput > baseline.throughput:
            baseline = stats
        stats = drain_fresh(
            lambda engine, sources: _global_merge_run(
                engine, sources, scale.max_batch
            )
        )
        global_rates.append(stats.throughput)
        if global_merge is None or stats.throughput > global_merge.throughput:
            global_merge = stats
    _require_equivalent("zipf/single_global_merge", baseline, global_merge)
    for name, stats in (
        ("single_batched", baseline),
        ("single_global_merge", global_merge),
    ):
        result["cells"][name] = {
            "events_per_sec": round(stats.throughput, 1),
            "elapsed_seconds": round(stats.elapsed_seconds, 6),
            "input_events": stats.input_events,
            "output_events": stats.output_events,
        }
    result["paired_speedups"] = [
        round(merged / max(merged_global, 1e-9), 2)
        for merged, merged_global in zip(merged_rates, global_rates)
    ]
    result["component_merge_speedup"] = paired_speedup(
        merged_rates, global_rates
    )

    plan, sources = build()
    reference = StreamEngine(plan, capture_outputs=True, max_batch=scale.max_batch)
    reference.run(_make_sources(plan, sources, per_source))
    expected = normalize_captured(reference.captured)
    for n_shards in FLEET_SHARDS:
        best = None
        for __ in range(scale.repeats):
            stats, wall, captured = _fleet_run(scale, n_shards, per_source)
            _require_equivalent(f"zipf/fleet_{n_shards}", baseline, stats)
            if normalize_captured(captured) != expected:
                raise AssertionError(
                    f"zipf/fleet_{n_shards}: captured outputs diverged from "
                    f"the single-engine baseline"
                )
            if best is None or wall < best[1]:
                best = (stats, wall)
        stats, wall = best
        events_per_sec = stats.input_events / max(wall, 1e-9)
        speedup = events_per_sec / max(baseline.throughput, 1e-9)
        result["cells"][f"fleet_{n_shards}"] = {
            "events_per_sec": round(events_per_sec, 1),
            "wall_seconds": round(wall, 6),
            "shards": n_shards,
            "cpu_count": cpus,
            "output_events": stats.output_events,
            "speedup": round(speedup, 3),
            "parallel_efficiency": round(speedup / min(n_shards, cpus), 3),
        }
    return result


# -- sharded churn serve -------------------------------------------------------------


def bench_sharded_churn(scale: ShardScale) -> dict:
    """Live serve: single runtime vs sharded runtime with load-levelling
    rebalances; reports wall-clock and verifies output equality."""

    def workload() -> ChurnWorkload:
        return ChurnWorkload(
            arrival_rate=0.02,
            mean_lifetime=600.0,
            horizon=scale.churn_events,
            initial_queries=scale.churn_initial,
            seed=7,
        )

    def serve_single():
        wl = workload()
        runtime = open_runtime(sources={"S": wl.schema, "T": wl.schema})
        started = time.perf_counter()
        for __ in drive_batched(runtime, wl.stream_events(), wl.schedule()):
            pass
        return runtime.stats, time.perf_counter() - started, runtime.stats.migrations

    def serve_sharded():
        wl = workload()
        runtime = open_runtime(
            sources={"S": wl.schema, "T": wl.schema},
            shards=scale.churn_shards,
        )
        with runtime:
            started = time.perf_counter()
            for __ in drive_sharded(
                runtime, wl.stream_events(), wl.schedule(), rebalance_every=5
            ):
                pass
            stats = runtime.collect_stats()
            elapsed = time.perf_counter() - started
        return stats, elapsed, stats.migrations

    cells: dict = {"shards": scale.churn_shards, "modes": {}}
    stats_by_mode = {}
    for mode, serve in (("single", serve_single), ("sharded", serve_sharded)):
        best_stats, best_elapsed, best_extra = None, float("inf"), 0
        for __ in range(scale.repeats):
            stats, elapsed, extra = serve()
            if elapsed < best_elapsed:
                best_stats, best_elapsed, best_extra = stats, elapsed, extra
        cells["modes"][mode] = {
            "events_per_sec": round(
                best_stats.input_events / max(best_elapsed, 1e-9), 1
            ),
            "elapsed_seconds": round(best_elapsed, 6),
            "input_events": best_stats.input_events,
            "output_events": best_stats.output_events,
            "migrations": best_extra,
        }
        stats_by_mode[mode] = best_stats
    if (
        stats_by_mode["single"].outputs_by_query
        != stats_by_mode["sharded"].outputs_by_query
    ):
        raise AssertionError(
            "sharded churn serve diverged from the single-runtime outputs"
        )
    return cells


# -- entry points --------------------------------------------------------------------


def run_benchmark(scale: ShardScale) -> dict:
    zipf = bench_partitionable_zipf(scale)
    churn = bench_sharded_churn(scale)
    speedup = zipf["component_merge_speedup"]
    results = {
        "meta": {
            "benchmark": "component merging and the serving fleet",
            "scale": scale.name,
            "max_batch": scale.max_batch,
            "repeats": scale.repeats,
            "cpu_count": os.cpu_count(),
            "regenerate": "PYTHONPATH=src python -m repro.cli bench-shard",
        },
        "headline": {
            "component_merge_speedup": speedup,
            "target": scale.min_speedup,
        },
        "workloads": {
            "partitionable_zipf": zipf,
            "sharded_churn": churn,
        },
    }
    if speedup < scale.min_speedup:
        raise AssertionError(
            f"component merging must make the single engine ≥"
            f"{scale.min_speedup}x the same engine fed one global merge on "
            f"the partitionable zipf workload, measured {speedup}x"
        )
    return results


def render(results: dict) -> str:
    zipf = results["workloads"]["partitionable_zipf"]
    baseline = zipf["cells"]["single_batched"]["events_per_sec"]
    lines = [
        f"shard benchmark ({results['meta']['scale']} scale, "
        f"{zipf['sources']} sources x "
        f"{zipf['queries'] // zipf['sources']} queries, "
        f"cpu_count={results['meta']['cpu_count']})",
        f"{'cell':<28} {'ev/s':>14} {'vs single':>10} {'efficiency':>11}",
    ]
    for name, cell in zipf["cells"].items():
        efficiency = cell.get("parallel_efficiency")
        lines.append(
            f"{name:<28} {cell['events_per_sec']:>14,.0f} "
            f"{cell['events_per_sec'] / max(baseline, 1e-9):>9.2f}x "
            f"{'-' if efficiency is None else f'{efficiency:.3f}':>11}"
        )
    churn = results["workloads"]["sharded_churn"]["modes"]
    lines.append(
        f"{'churn single':<28} {churn['single']['events_per_sec']:>14,.0f}"
    )
    lines.append(
        f"{'churn sharded':<28} {churn['sharded']['events_per_sec']:>14,.0f}"
    )
    headline = results["headline"]
    lines.append(
        f"headline: component merging {headline['component_merge_speedup']}x "
        f"over one global merge (target ≥{headline['target']}x)"
    )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="shard benchmark: component merging and the serving fleet"
    )
    parser.add_argument(
        "--scale", choices=["full", "smoke"], default="full",
        help="smoke: reduced event counts for CI",
    )
    parser.add_argument(
        "--output", default="BENCH_shard.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    scale = ShardScale.smoke() if args.scale == "smoke" else ShardScale.full()
    results = run_benchmark(scale)
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(render(results))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
