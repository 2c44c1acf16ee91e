"""Tests for the benchmark's own helpers: the percentile rule, span
self-time arithmetic and seed determinism of the generated inputs.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root of
the repository.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from perfbench import host, inputs, metrics, spans, stats


# -- the percentile rule ---------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    samples = list(range(1000))
    assert stats.beyond(99, 1000) == 10
    assert stats.tail_percentile(samples) == (99.0, 989, 1000)


def test_tail_falls_back_when_the_tail_is_thin():
    # 999 samples leave 9 beyond p99, so p95 is the highest with 10.
    p, value, n = stats.tail_percentile(list(range(999)))
    assert (p, n) == (95.0, 999)
    assert value == 949


def test_too_few_samples_for_any_percentile():
    assert stats.tail_percentile(list(range(20)))[0] == 50.0
    with pytest.raises(stats.TooFewSamples):
        stats.tail_percentile(list(range(19)))


def test_timing_lines_name_the_median_and_the_tail():
    assert stats.timing_lines("fresh", list(range(1000))) == [
        ("fresh_p50_ms", 499, 1000),
        ("fresh_p99_ms", 989, 1000),
    ]
    assert stats.timing_lines("fresh", list(range(15))) == [
        ("fresh_p50_ms", 7, 15)
    ]
    assert stats.timing_lines("fresh", []) == []


def test_nearest_rank_percentile_and_median():
    assert stats.percentile([5, 1, 3], 50) == 3
    assert stats.median([4, 1, 3, 2]) == 2
    assert stats.percentile([], 50) == 0.0
    assert stats.percentile([7], 99) == 7


# -- span arithmetic -------------------------------------------------------------


def _span(span_id, parent, start, end, name="shard.call", lane="main"):
    return {
        "trace_id": "t",
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "start": float(start),
        "elapsed_seconds": float(end - start),
        "attrs": {"lane": lane},
    }


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("p", None, 0, 10, "bench.window"),
        _span("a", "p", 1, 4),  # overlaps b on [3, 4]
        _span("b", "p", 3, 6),
        _span("g", "a", 2, 3, "streams.pack"),  # nested in a
        _span("late", "p", 9, 12),  # runs past its parent's end
    ]
    own = spans.self_times(tree)
    assert own["p"] == pytest.approx(10 - 5 - 1)  # [1, 6] and [9, 10]
    assert own["a"] == pytest.approx(2)
    assert own["b"] == pytest.approx(3)
    assert own["g"] == pytest.approx(1)
    assert own["late"] == pytest.approx(3)


def test_union_length_merges_overlaps():
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)
    assert spans.union_length([]) == 0.0


def test_ledger_reconciles_nested_spans_exactly():
    tree = [
        _span("p", None, 1, 6, "bench.window"),
        _span("a", "p", 2, 3),
        _span("b", "p", 3, 5, "serve.send"),
        _span("q", None, 7, 8, "shard.ping", lane="prober"),
    ]
    book = spans.ledger(tree, 0.0, 10.0)
    assert book["wall_s"] == 10.0
    assert book["lanes"] == 2
    assert book["layers"]["bench"] == pytest.approx(2)
    assert book["layers"]["shard"] == pytest.approx(2)
    assert book["layers"]["serve"] == pytest.approx(2)
    assert book["uncovered_s"] == pytest.approx(5 + 9)
    assert book["reconcile_error"] == pytest.approx(0)


def test_ledger_flags_overlapping_siblings():
    tree = [
        _span("p", None, 0, 10, "bench.window"),
        _span("a", "p", 1, 4),
        _span("b", "p", 3, 6),
    ]
    # Siblings overlapping by 1s count that second twice.
    assert spans.ledger(tree, 0.0, 10.0)["reconcile_error"] == pytest.approx(0.1)


def test_tracer_emits_the_program_span_shape():
    from repro.obs.trace import SpanRecorder

    program = SpanRecorder().start("x", "t").as_dict()
    tracer = spans.Tracer(True)
    with tracer.span("bench.window", trace_id="w1"):
        with tracer.span("shard.ping", kind="probe"):
            pass
    child, parent = tracer.spans
    assert set(child) == set(program)
    assert child["parent_id"] == parent["span_id"]
    assert child["trace_id"] == parent["trace_id"] == "w1"
    assert child["attrs"]["kind"] == "probe"
    assert parent["start"] <= child["start"]
    assert child["start"] + child["elapsed_seconds"] <= (
        parent["start"] + parent["elapsed_seconds"]
    )
    assert spans.Tracer(False).span("shard.ping") is spans.Tracer(False).span("x")


# -- seed determinism ------------------------------------------------------------


def _fanin(seed):
    return pickle.dumps(inputs.fanin_inputs(seed, pool_runs=8).__dict__)


def _socket(seed):
    return pickle.dumps(
        inputs.socket_inputs(seed, 2000.0, 0.5, closed_pushes=8).__dict__
    )


def _churn(seed):
    workload = inputs.churn_workload(seed)
    schedule = [
        (e.at, e.kind, e.query_id, repr(e.query)) for e in workload.schedule()
    ]
    events = [(name, t.ts, t.values) for name, t in workload.stream_events()]
    return pickle.dumps((schedule, events))


@pytest.mark.parametrize("generate", [_fanin, _socket, _churn])
def test_same_seed_gives_byte_identical_inputs(generate):
    assert generate(5) == generate(5)
    assert generate(5) != generate(6)


def test_socket_schedule_keeps_its_rate_and_timestamp_order():
    data = inputs.socket_inputs(1, 3200.0, 0.5, closed_pushes=4)
    dues = [due for due, __, __ in data.paced]
    assert dues == sorted(dues)
    assert sum(len(rows) for __, __, rows in data.paced) == 1600
    stamps = [ts for __, __, rows in data.paced for ts, __ in rows]
    assert stamps == list(range(len(stamps)))


# -- host-speed scaling ----------------------------------------------------------


def test_host_slowdown_is_the_median_reference_pass():
    speed = host.HostSpeed()
    speed.samples = [3e-3, 1e-3, 2e-3]
    assert speed.slowdown() == pytest.approx(2e-3 / host.REFERENCE_SECONDS)
    speed.sample(2)
    assert len(speed.samples) == 5 and all(s > 0 for s in speed.samples)


def test_host_scaling_raises_rates_and_lowers_times_on_a_slow_host():
    for name, (phase, exponent) in metrics.HOST_SCALED.items():
        assert phase in ("setup", "drain")
        unit, better = metrics.END_TO_END[name]
        # A slow host (slowdown > 1) must move each figure towards better.
        assert exponent == (1 if better == "higher" else -1), name


# -- the catalogue matches BENCHMARK.json ----------------------------------------


def test_benchmark_json_lists_the_catalogue():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
    } == metrics.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == {name: spec_[:2] for name, spec_ in metrics.PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
