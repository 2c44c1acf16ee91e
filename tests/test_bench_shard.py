"""bench-shard: workload builders, reference cells, fleet cells and gates.

The benchmark's figures are only worth reading if every cell measures what
it names and is output-identical to its single-engine baseline; these
tests pin both at a scale that runs in well under a second per cell.
"""

import json
import os
import statistics

import pytest

from repro.bench import shard as bench
from repro.bench.shard import (
    ShardScale,
    interleaved_zipf_tuples,
    partitionable_zipf_plan,
    zipf_constants,
)
from repro.engine.executor import StreamEngine
from repro.engine.metrics import RunStats
from repro.serve.replay import normalize_captured


def tiny_scale(**overrides) -> ShardScale:
    knobs = dict(
        name="tiny",
        zipf_queries_per_source=20,
        zipf_events=2_000,
        churn_events=100,
        churn_initial=2,
        repeats=1,
        max_batch=64,
        min_speedup=0.0,
    )
    knobs.update(overrides)
    return ShardScale(**knobs)


def zipf_engine_run(scale, per_source, *, observe=False):
    plan, handles = partitionable_zipf_plan(
        scale.zipf_sources, scale.zipf_queries_per_source
    )
    engine = StreamEngine(
        plan, capture_outputs=True, max_batch=scale.max_batch, observe=observe
    )
    return engine, bench._make_sources(plan, handles, per_source)


class TestZipfWorkload:
    def test_constants_are_seeded(self):
        assert zipf_constants(3, 10) == zipf_constants(3, 10)
        assert zipf_constants(3, 10, seed=1) != zipf_constants(3, 10, seed=2)
        assert [len(values) for values in zipf_constants(3, 10)] == [10, 10, 10]

    @pytest.mark.parametrize("num_sources", [1, 2, 4])
    def test_plan_has_one_component_per_source(self, num_sources):
        plan, handles = partitionable_zipf_plan(num_sources, 10)
        components = plan.channel_components()
        roots = {components[plan.channel_of(h).channel_id] for h in handles}
        assert len(roots) == num_sources
        assert len(set(components.values())) == num_sources
        assert len(plan.mops) == num_sources

    def test_tuples_interleave_round_robin(self):
        per_source = interleaved_zipf_tuples(4, 103)
        assert [len(tuples) for tuples in per_source] == [26, 26, 26, 25]
        for index, tuples in enumerate(per_source):
            assert [t.ts for t in tuples] == list(range(index, 103, 4))


class TestGlobalMergeCell:
    def test_global_merge_matches_engine_run(self):
        scale = tiny_scale()
        per_source = interleaved_zipf_tuples(scale.zipf_sources, scale.zipf_events)
        engine, sources = zipf_engine_run(scale, per_source)
        merged = engine.run(sources)
        reference = normalize_captured(engine.captured)
        engine, sources = zipf_engine_run(scale, per_source)
        stats = bench._global_merge_run(engine, sources, scale.max_batch)
        assert merged.output_events > 0
        assert stats.outputs_by_query == merged.outputs_by_query
        assert stats.input_events == merged.input_events == scale.zipf_events
        assert normalize_captured(engine.captured) == reference

    def test_global_merge_cuts_runs_that_component_merge_keeps(self):
        # The reference cell must measure the input form it names: one
        # global merge of round-robin sources hands every m-op one-tuple
        # runs, while the engine's own drain hands it full runs.
        scale = tiny_scale()
        per_source = interleaved_zipf_tuples(scale.zipf_sources, scale.zipf_events)
        per_mop = scale.zipf_events // scale.zipf_sources

        def dispatch_counts(drain):
            engine, sources = zipf_engine_run(scale, per_source, observe=True)
            drain(engine, sources)
            return [
                (record["batches"], record["per_tuple_calls"])
                for record in engine.mop_stats().values()
            ]

        global_merge = dispatch_counts(
            lambda engine, sources: bench._global_merge_run(
                engine, sources, scale.max_batch
            )
        )
        component_merge = dispatch_counts(
            lambda engine, sources: engine.run(sources)
        )
        full_runs = -(-per_mop // scale.max_batch)
        assert global_merge == [(0, per_mop)] * scale.zipf_sources
        assert component_merge == [(full_runs, 0)] * scale.zipf_sources


class TestRequireEquivalent:
    @staticmethod
    def stats(outputs, inputs):
        stats = RunStats(input_events=inputs)
        stats.outputs_by_query = dict(outputs)
        return stats

    def test_identical_stats_pass(self):
        bench._require_equivalent(
            "cell", self.stats({"q": 3}, 10), self.stats({"q": 3}, 10)
        )

    def test_output_divergence_raises(self):
        with pytest.raises(AssertionError, match="cell: outputs diverged"):
            bench._require_equivalent(
                "cell", self.stats({"q": 3}, 10), self.stats({"q": 2}, 10)
            )

    def test_input_accounting_divergence_raises(self):
        with pytest.raises(AssertionError, match="input accounting"):
            bench._require_equivalent(
                "cell", self.stats({"q": 3}, 10), self.stats({"q": 3}, 9)
            )


class TestFleetCell:
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_fleet_serve_matches_single_engine(self, n_shards):
        scale = tiny_scale(zipf_events=600)
        per_source = interleaved_zipf_tuples(scale.zipf_sources, scale.zipf_events)
        engine, sources = zipf_engine_run(scale, per_source)
        baseline = engine.run(sources)
        stats, wall, captured = bench._fleet_run(scale, n_shards, per_source)
        assert wall > 0
        assert stats.input_events == baseline.input_events == scale.zipf_events
        assert stats.outputs_by_query == baseline.outputs_by_query
        assert normalize_captured(captured) == normalize_captured(engine.captured)


class TestPairedSpeedup:
    def test_median_of_back_to_back_ratios(self):
        assert bench.paired_speedup([10.0, 30.0, 8.0], [5.0, 10.0, 1.0]) == 3.0

    def test_pairs_repeats_not_best_cells(self):
        # Best-of per cell would report 40 / 4 = 10x from two different
        # repeats; the paired median keeps each ratio within its repeat.
        assert bench.paired_speedup([40.0, 20.0, 20.0], [20.0, 4.0, 10.0]) == 2.0


class TestCells:
    def test_partitionable_zipf_cells(self):
        scale = tiny_scale(zipf_events=600)
        result = bench.bench_partitionable_zipf(scale)
        cells = result["cells"]
        assert list(cells) == [
            "single_batched",
            "single_global_merge",
            *(f"fleet_{n}" for n in bench.FLEET_SHARDS),
        ]
        paired = result["paired_speedups"]
        assert len(paired) == bench.SINGLE_REPEATS
        assert min(paired) <= result["component_merge_speedup"] <= max(paired)
        assert result["component_merge_speedup"] == pytest.approx(
            statistics.median(paired), abs=0.006
        )
        cpus = os.cpu_count() or 1
        for n_shards in bench.FLEET_SHARDS:
            cell = cells[f"fleet_{n_shards}"]
            assert cell["cpu_count"] == cpus
            assert cell["shards"] == n_shards
            assert cell["output_events"] == cells["single_batched"]["output_events"]
            assert cell["parallel_efficiency"] == pytest.approx(
                cell["speedup"] / min(n_shards, cpus), abs=2e-3
            )


def canned_results(zipf_speedup=3.0):
    zipf = {
        "sources": 4,
        "queries": 8,
        "cells": {
            "single_batched": {"events_per_sec": 3000.0},
            "single_global_merge": {"events_per_sec": 1000.0},
            "fleet_2": {"events_per_sec": 500.0, "parallel_efficiency": 0.083},
        },
        "component_merge_speedup": zipf_speedup,
    }
    churn = {
        "modes": {
            "single": {"events_per_sec": 10.0},
            "sharded": {"events_per_sec": 12.0},
        }
    }
    return zipf, churn


@pytest.fixture
def canned(monkeypatch):
    """Replace the two workload runs with fixed results."""

    def install(**kwargs):
        zipf, churn = canned_results(**kwargs)
        monkeypatch.setattr(bench, "bench_partitionable_zipf", lambda scale: zipf)
        monkeypatch.setattr(bench, "bench_sharded_churn", lambda scale: churn)

    return install


class TestGates:
    def test_passing_run_records_the_headline(self, canned):
        canned()
        results = bench.run_benchmark(tiny_scale(min_speedup=2.0))
        assert results["headline"] == {
            "component_merge_speedup": 3.0,
            "target": 2.0,
        }
        assert list(results["workloads"]) == [
            "partitionable_zipf",
            "sharded_churn",
        ]

    def test_component_merge_below_floor_raises(self, canned):
        canned(zipf_speedup=1.2)
        with pytest.raises(AssertionError, match="measured 1.2x"):
            bench.run_benchmark(tiny_scale(min_speedup=1.3))

    def test_render_lists_every_cell(self, canned):
        canned()
        text = bench.render(bench.run_benchmark(tiny_scale()))
        for name in (
            "single_batched",
            "single_global_merge",
            "fleet_2",
            "churn sharded",
        ):
            assert name in text
        assert "component merging 3.0x" in text

    def test_main_writes_results(self, canned, tmp_path, capsys):
        canned()
        output = tmp_path / "shard.json"
        assert bench.main(["--scale", "smoke", "--output", str(output)]) == 0
        results = json.loads(output.read_text())
        assert results["meta"]["scale"] == "smoke"
        assert results["headline"]["component_merge_speedup"] == 3.0
        assert f"wrote {output}" in capsys.readouterr().out


def test_tiny_end_to_end_run_is_consistent():
    results = bench.run_benchmark(tiny_scale(zipf_events=600))
    assert results["meta"]["cpu_count"] == os.cpu_count()
    zipf = results["workloads"]["partitionable_zipf"]
    assert results["headline"]["component_merge_speedup"] == (
        zipf["component_merge_speedup"]
    )
    churn = results["workloads"]["sharded_churn"]["modes"]
    assert churn["single"]["output_events"] == churn["sharded"]["output_events"]
