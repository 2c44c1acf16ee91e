"""Rebalance policies: count levelling, adaptive throughput, oversized alerts."""

import logging

import pytest

from repro.engine.metrics import RunStats
from repro.runtime import open_runtime
from repro.shard import QueryCountPolicy, ThroughputPolicy
from repro.shard.policy import RebalancePolicy
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.workloads.churn import ChurnWorkload, drive_batched, drive_sharded

SCHEMA = Schema.numbered(2)


class FakeRuntime:
    """Minimal runtime facade for policy unit tests."""

    def __init__(
        self, placement, busy, outputs_by_query, components=None, heat=None
    ):
        self.n_shards = len(busy)
        self._placement = dict(placement)  # query_id -> shard
        self._busy = busy
        self._outputs = outputs_by_query
        self._components = components or {}
        self._heat = heat  # query_id -> busy seconds (telemetry signal)

    @property
    def active_queries(self):
        return list(self._placement)

    def shard_of(self, query_id):
        return self._placement[query_id]

    def shard_loads(self):
        loads = [0] * self.n_shards
        for shard in self._placement.values():
            loads[shard] += 1
        return loads

    def queries_on(self, shard):
        return [q for q, s in self._placement.items() if s == shard]

    def shard_ids(self):
        return list(range(self.n_shards))

    def shard_stats(self):
        stats = []
        for shard, busy in enumerate(self._busy):
            entry = RunStats()
            entry.elapsed_seconds = busy
            entry.outputs_by_query = {
                q: n
                for q, n in self._outputs.items()
                if self._placement.get(q) == shard
            }
            stats.append(entry)
        return stats

    def component_queries(self, query_id):
        return self._components.get(query_id, [query_id])

    def shard_telemetry(self):
        heat = self._heat or {}
        return [
            {
                "shard": shard,
                "mop_stats": {},
                "query_heat": {
                    q: seconds
                    for q, seconds in heat.items()
                    if self._placement.get(q) == shard
                },
                "peak_state": 0,
            }
            for shard in range(self.n_shards)
        ]


class TestQueryCountPolicy:
    def test_levels_most_to_least_loaded(self):
        runtime = FakeRuntime(
            {"a": 0, "b": 0, "c": 0, "d": 1}, busy=[0, 0, 0], outputs_by_query={}
        )
        proposals = list(QueryCountPolicy().propose(runtime))
        assert proposals  # donor shard 0 (3 queries) -> shard 2 (0 queries)
        assert all(target == 2 for __, target in proposals)
        assert [q for q, __ in proposals] == ["a", "b", "c"]

    def test_no_move_when_levelled(self):
        runtime = FakeRuntime({"a": 0, "b": 1}, busy=[0, 0], outputs_by_query={})
        assert list(QueryCountPolicy().propose(runtime)) == []

    def test_oversized_component_skipped_and_alerted(self, caplog):
        # One 3-query component owns the whole donor: moving it would just
        # relocate the hot spot, so it is skipped and alerted.
        component = ["a", "b", "c"]
        runtime = FakeRuntime(
            {"a": 0, "b": 0, "c": 0, "d": 1},
            busy=[0, 0],
            outputs_by_query={},
            components={q: component for q in component},
        )
        policy = QueryCountPolicy()
        with caplog.at_level(logging.WARNING, logger="repro.shard.policy"):
            assert list(policy.propose(runtime)) == []
        assert policy.oversized_alerts == 3  # every candidate hit the guard
        assert "oversized component" in caplog.text

    def test_movable_component_not_alerted(self):
        runtime = FakeRuntime(
            {"a": 0, "b": 0, "c": 0}, busy=[0, 0, 0], outputs_by_query={}
        )
        policy = QueryCountPolicy()
        assert list(policy.propose(runtime))
        assert policy.oversized_alerts == 0

    def test_oversized_alert_names_the_anchor_shard_each_time(self, caplog):
        # Every decision that meets the immovable component counts and logs
        # it again, naming its size, the per-shard target and its shard.
        component = ["a", "b", "c"]
        runtime = FakeRuntime(
            {"a": 0, "b": 0, "c": 0, "d": 1},
            busy=[0, 0],
            outputs_by_query={},
            components={q: component for q in component},
        )
        policy = QueryCountPolicy()
        with caplog.at_level(logging.WARNING, logger="repro.shard.policy"):
            list(policy.propose(runtime))
            list(policy.propose(runtime))
        assert policy.oversized_alerts == 6
        assert (
            "oversized component (3 queries, per-shard target 2) "
            "anchored to shard 0" in caplog.text
        )


class TestThroughputPolicy:
    def test_moves_hottest_off_slowest(self):
        runtime = FakeRuntime(
            {"cold": 0, "warm": 0, "hot": 0, "other": 1},
            busy=[3.0, 0.5],
            outputs_by_query={"cold": 1, "warm": 50, "hot": 400, "other": 10},
        )
        proposals = list(ThroughputPolicy().propose(runtime))
        assert proposals[0] == ("hot", 1)
        assert [q for q, __ in proposals] == ["hot", "warm", "cold"]

    def test_deltas_not_cumulative_totals(self):
        runtime = FakeRuntime(
            {"a": 0, "c": 0, "b": 1},
            busy=[10.0, 1.0],
            outputs_by_query={"a": 100, "c": 5, "b": 10},
        )
        policy = ThroughputPolicy()
        assert list(policy.propose(runtime))  # first window: shard 0 is slow
        # Next window: shard 0 went idle; cumulative busy still 10 vs 1,
        # but the *delta* is zero, so no move is proposed.
        assert list(policy.propose(runtime)) == []

    def test_whole_shard_population_is_never_relocated(self):
        # A single-component donor: moving it would only move the hotspot.
        runtime = FakeRuntime(
            {"a": 0, "b": 1}, busy=[10.0, 1.0], outputs_by_query={"a": 100}
        )
        assert list(ThroughputPolicy().propose(runtime)) == []

    def test_quiet_cluster_proposes_nothing(self):
        runtime = FakeRuntime(
            {"a": 0, "b": 1}, busy=[0.001, 0.001], outputs_by_query={}
        )
        policy = ThroughputPolicy(min_busy_seconds=0.1)
        assert list(policy.propose(runtime)) == []

    def test_min_ratio_guards_thrash(self):
        runtime = FakeRuntime(
            {"a": 0, "b": 1}, busy=[1.0, 0.9], outputs_by_query={"a": 5}
        )
        assert list(ThroughputPolicy(min_ratio=1.5).propose(runtime)) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ThroughputPolicy(min_ratio=0.5)
        with pytest.raises(ValueError):
            ThroughputPolicy(heat="latency")
        with pytest.raises(NotImplementedError):
            RebalancePolicy().propose(None)

    def test_deltas_reset_when_shard_count_changes(self):
        # Warm the policy on a 2-shard cluster, then point it at a 3-shard
        # one: stored deltas are shard-indexed, so they must reset to the
        # cumulative baseline instead of zipping against a stale list.
        policy = ThroughputPolicy()
        warm = FakeRuntime(
            {"a": 0, "c": 0, "b": 1},
            busy=[10.0, 1.0],
            outputs_by_query={"a": 100, "c": 5, "b": 10},
        )
        assert list(policy.propose(warm))
        grown = FakeRuntime(
            {"a": 0, "c": 0, "b": 1, "d": 2},
            busy=[10.0, 1.0, 0.5],
            outputs_by_query={"a": 100, "c": 5, "b": 10, "d": 1},
        )
        # Same cumulative busy on shard 0 — a stale delta would be ~zero
        # and propose nothing; the reset treats 10.0s as fresh signal.
        proposals = list(policy.propose(grown))
        assert proposals and proposals[0][0] == "a"
        assert len(policy._previous_busy) == 3

    def test_min_busy_floor_applies_to_deltas_after_warmup(self):
        # Cumulative busy is far above the floor, but the per-window delta
        # is tiny: the floor must gate on the delta, not the total.
        policy = ThroughputPolicy(min_ratio=1.01, min_busy_seconds=0.5)
        first = FakeRuntime(
            {"a": 0, "c": 0, "b": 1},
            busy=[20.0, 1.0],
            outputs_by_query={"a": 100, "c": 5},
        )
        assert list(policy.propose(first))
        barely_warmer = FakeRuntime(
            {"a": 0, "c": 0, "b": 1},
            busy=[20.2, 1.0],
            outputs_by_query={"a": 100, "c": 5},
        )
        assert list(policy.propose(barely_warmer)) == []

    def test_oversized_component_alerted(self, caplog):
        # The donor's hottest component spans all its queries: moving it
        # would relocate the hotspot wholesale, so it is skipped + alerted.
        component = ["a", "c", "e"]
        runtime = FakeRuntime(
            {"a": 0, "c": 0, "e": 0, "b": 1},
            busy=[10.0, 0.1],
            outputs_by_query={"a": 100, "c": 50, "e": 10, "b": 1},
            components={q: component for q in component},
        )
        policy = ThroughputPolicy()
        with caplog.at_level(logging.WARNING, logger="repro.shard.policy"):
            assert list(policy.propose(runtime)) == []
        assert policy.oversized_alerts == 3
        assert "oversized component" in caplog.text

    def test_busy_heat_reranks_donor_candidates(self):
        # Output counts say "chatty" is hottest; sampled busy time says
        # "cruncher" (few outputs, heavy predicate work) is.  heat="busy"
        # must rank by the telemetry signal.
        placement = {"chatty": 0, "cruncher": 0, "idle": 0, "other": 1}
        outputs = {"chatty": 500, "cruncher": 3, "idle": 1, "other": 10}
        heat = {"chatty": 0.2, "cruncher": 5.0, "idle": 0.0, "other": 0.1}
        by_outputs = FakeRuntime(placement, [4.0, 0.5], outputs, heat=heat)
        proposals = list(ThroughputPolicy().propose(by_outputs))
        assert proposals[0][0] == "chatty"
        by_busy = FakeRuntime(placement, [4.0, 0.5], outputs, heat=heat)
        proposals = list(ThroughputPolicy(heat="busy").propose(by_busy))
        assert proposals[0][0] == "cruncher"

    def test_busy_heat_is_delta_based(self):
        placement = {"a": 0, "c": 0, "b": 1}
        outputs = {"a": 1, "c": 2, "b": 1}
        policy = ThroughputPolicy(heat="busy", min_ratio=1.01)
        first = FakeRuntime(
            placement, [5.0, 0.1], outputs, heat={"a": 4.0, "c": 1.0}
        )
        assert list(policy.propose(first))[0][0] == "a"
        # Since then only "c" accumulated busy time: the delta ranking must
        # flip even though cumulative heat still favours "a".
        second = FakeRuntime(
            placement, [9.0, 0.1], outputs, heat={"a": 4.0, "c": 4.5}
        )
        assert list(policy.propose(second))[0][0] == "c"

    def test_busy_heat_empty_falls_back_to_outputs(self):
        # Telemetry present but the runtime is not observing: query_heat is
        # empty everywhere, so ranking falls back to output deltas.
        runtime = FakeRuntime(
            {"cold": 0, "hot": 0, "other": 1},
            busy=[3.0, 0.5],
            outputs_by_query={"cold": 1, "hot": 400, "other": 10},
        )
        proposals = list(ThroughputPolicy(heat="busy").propose(runtime))
        assert proposals[0][0] == "hot"


class TestDriverIntegration:
    def _workload(self):
        return ChurnWorkload(
            arrival_rate=0.05,
            mean_lifetime=150.0,
            horizon=400,
            initial_queries=5,
            seed=17,
        )

    @pytest.mark.parametrize(
        "policy_factory", [QueryCountPolicy, lambda: ThroughputPolicy(min_ratio=1.05)]
    )
    def test_policy_driven_serve_stays_byte_identical(self, policy_factory):
        from repro.runtime import QueryRuntime

        workload = self._workload()
        single = QueryRuntime(
            {"S": workload.schema, "T": workload.schema}, capture_outputs=True
        )
        applied_single = sum(
            1
            for __ in drive_batched(
                single, workload.stream_events(), workload.schedule()
            )
        )
        sharded = open_runtime(
            sources={"S": workload.schema, "T": workload.schema},
            shards=2,
            capture_outputs=True,
        )
        policy = policy_factory()
        applied_sharded = sum(
            1
            for __ in drive_sharded(
                sharded,
                workload.stream_events(),
                workload.schedule(),
                rebalance_every=3,
                policy=policy,
            )
        )
        assert applied_single == applied_sharded
        assert sharded.collect_stats().outputs_by_query == single.stats.outputs_by_query
        assert sharded.captured == single.captured

    def test_throughput_policy_rebalances_under_skewed_load(self):
        # Anchor two hot queries on shard 0 and keep shard 1 idle: the
        # busy-delta signal must trigger at least one component move.
        runtime = open_runtime(
            sources={"S": SCHEMA, "T": SCHEMA}, shards=2, capture_outputs=True
        )
        runtime.register("FROM S AGG avg(a1) OVER 30 BY a0 AS m", query_id="hot", shard=0)
        runtime.register("FROM S WHERE a0 == 1", query_id="warm", shard=0)
        policy = ThroughputPolicy(min_ratio=1.01)
        moved = 0
        for round_ in range(4):
            for ts in range(round_ * 50, round_ * 50 + 50):
                runtime.process("S", StreamTuple(SCHEMA, (ts % 3, ts), ts))
            for query_id, target in policy.propose(runtime):
                runtime.rebalance(query_id, target)
                moved += 1
                break
        assert moved >= 1
        assert runtime.rebalances == moved
        assert set(runtime._query_shard.values()) == {0, 1}
