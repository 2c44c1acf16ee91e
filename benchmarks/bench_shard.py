"""Shard benchmark: component merging and the serving fleet.

Thin entry point over :mod:`repro.bench.shard` (importable because the
module also backs the ``repro.cli bench-shard`` subcommand).  On the
partitionable zipf workload (k independent sources, one query set each)
the single engine merging per component is measured against the same
engine fed one global merge, and the process fleet serves the same
queries at 1/2/4 shards; a live churn serve runs on one runtime and on
inline shards.  Every cell re-checks per-query output equality with its
single-engine baseline.

Exit criteria (what a red run means):

- non-zero exit + ``AssertionError: ... diverged ...`` — a correctness
  regression: every cell's outputs must equal the single engine's, no
  tolerance;
- non-zero exit + ``AssertionError: component merging must ...`` — a
  performance regression below the floor (the measured and required
  multiples are printed in the message).

Run standalone (writes ``BENCH_shard.json``)::

    PYTHONPATH=src python benchmarks/bench_shard.py
    PYTHONPATH=src python benchmarks/bench_shard.py --scale smoke

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_shard.py -q -s
"""

from __future__ import annotations

from repro.bench.shard import (
    ShardScale,
    bench_partitionable_zipf,
    main,
    render,
    run_benchmark,
)

# -- pytest entry points ------------------------------------------------------------


def test_shard_smoke():
    """Acceptance: component merging ≥ smoke floor, outputs equal."""
    results = run_benchmark(ShardScale.smoke())
    assert (
        results["headline"]["component_merge_speedup"]
        >= results["headline"]["target"]
    )


def test_shard_point_benchmark(benchmark):
    """pytest-benchmark timing of the partitionable zipf sweep, smoke scale."""
    scale = ShardScale.smoke()
    result = benchmark.pedantic(
        lambda: bench_partitionable_zipf(scale),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["component_merge_speedup"] = result[
        "component_merge_speedup"
    ]


if __name__ == "__main__":
    raise SystemExit(main())
