"""Property: forked workers = inline workers = one single engine.

The acceptance contract of the sharded coordinator: over random churn
schedules — queries arriving and departing mid-stream, with at least one
**cross-process rebalance** moving live operator state between worker
processes — the per-query captured outputs (content, timestamps *and*
order) and aggregate counters of a forked fleet
(``open_runtime(process=True)``) match the same coordinator on inline
workers (``open_runtime(shards=N)``) exactly, state size included.

Both are driven by the same deterministic helper
(:func:`strategies.serve_churn_with_rebalance`), whose rebalance decision
depends only on state both expose identically, so any divergence in the
comparison is a real protocol/serialization bug, not test skew.

The independent oracle is one :class:`~repro.runtime.QueryRuntime` fed
the same schedule: sharding is placement, never semantics, so its
normalized captured outputs, per-query counts and input/output event
totals must match both sharded serves.  (Its state size may differ:
sharing is per-shard, so placement changes which queries share m-ops.)
"""

import pytest
from hypothesis import given, settings

from repro.runtime import QueryRuntime, open_runtime
from repro.runtime.config import internal_construction
from repro.serve.replay import normalize_captured
from repro.shard import ProcessShardedRuntime, fork_available
from repro.workloads.churn import ChurnWorkload, drive_batched, drive_sharded
from strategies import churn_workloads, serve_churn_with_rebalance

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process mode requires the fork start method"
)


def _runtimes(workload, n_shards):
    sources = {"S": workload.schema, "T": workload.schema}
    inline = open_runtime(
        sources=sources, shards=n_shards, capture_outputs=True
    )
    proc = open_runtime(
        sources=sources, shards=n_shards, process=True, capture_outputs=True
    )
    return inline, proc


def _single(workload) -> QueryRuntime:
    """The single-engine oracle, fed the same schedule."""
    with internal_construction():
        single = QueryRuntime(
            {"S": workload.schema, "T": workload.schema}, capture_outputs=True
        )
    for __ in drive_batched(
        single, workload.stream_events(), workload.schedule()
    ):
        pass
    return single


def _assert_identical(
    inline: ProcessShardedRuntime, proc: ProcessShardedRuntime
):
    inline_stats = inline.collect_stats()
    proc_stats = proc.collect_stats()
    assert inline_stats.output_events > 0
    assert proc_stats.outputs_by_query == inline_stats.outputs_by_query
    assert proc_stats.input_events == inline_stats.input_events
    assert proc_stats.output_events == inline_stats.output_events
    # Byte-identical captured outputs: same queries, same tuples (schema,
    # values, ts — StreamTuple equality is content-based), same order.
    assert proc.captured == inline.captured
    assert sorted(proc.active_queries) == sorted(inline.active_queries)
    assert proc.state_size == inline.state_size


def _assert_matches_single(single: QueryRuntime, sharded):
    stats = sharded.collect_stats()
    assert normalize_captured(sharded.captured) == normalize_captured(
        single.captured
    )
    assert stats.outputs_by_query == single.stats.outputs_by_query
    assert stats.input_events == single.stats.input_events
    assert stats.output_events == single.stats.output_events


class TestChurnEquivalence:
    @given(workload=churn_workloads())
    @settings(max_examples=5, deadline=None)
    def test_random_churn_with_midstream_rebalance(self, workload):
        inline, proc = _runtimes(workload, n_shards=2)
        with inline, proc:
            applied_inline, moved_inline = serve_churn_with_rebalance(
                inline, workload, rebalance_after=2
            )
            applied_proc, moved_proc = serve_churn_with_rebalance(
                proc, workload, rebalance_after=2
            )
            assert applied_inline == applied_proc
            assert moved_inline == moved_proc
            assert moved_inline, "schedule must include a rebalance"
            assert proc.rebalances == 1
            _assert_identical(inline, proc)
            single = _single(workload)
            _assert_matches_single(single, inline)
            _assert_matches_single(single, proc)

    def test_three_shards_continuous_levelling(self):
        """Deterministic heavier serve: continuous rebalance policy on both
        transports (same load signal → same moves), three workers."""
        workload = ChurnWorkload(
            arrival_rate=0.08,
            mean_lifetime=120.0,
            horizon=500,
            initial_queries=6,
            seed=7,
        )
        inline, proc = _runtimes(workload, n_shards=3)
        with inline, proc:
            applied = [
                sum(
                    1
                    for __ in drive_sharded(
                        runtime,
                        workload.stream_events(),
                        workload.schedule(),
                        rebalance_every=3,
                    )
                )
                for runtime in (inline, proc)
            ]
            assert applied[0] == applied[1]
            assert proc.rebalances == inline.rebalances
            assert proc.rebalances >= 1, "serve must exercise rebalances"
            _assert_identical(inline, proc)
            single = _single(workload)
            _assert_matches_single(single, inline)
            _assert_matches_single(single, proc)
