"""Elastic scale-out/in: resize the fleet mid-serve with zero query loss.

The elastic half of ISSUE 7: :meth:`ProcessShardedRuntime.add_worker`
spawns a fresh shard into a live serve (schema-frame history replayed so
in-flight streams decode immediately), :meth:`remove_worker` drains every
component off a departing shard — checkpoint/restore as the transport —
before stopping it.  The invariants under test:

- resizing never changes results: a grow-then-shrink serve stays
  byte-identical to a static in-process serve of the same schedule, and a
  retired worker's cumulative counters survive it (``collect_stats``
  aggregates include queries that only ever lived on dead shards);
- shard ids are sparse and never reused, and every accessor speaks ids;
- policies steer elasticity (``on_grow`` levels load onto the newcomer,
  ``on_shrink`` picks the drain target);
- elastic topology changes are journaled, so a cold-started coordinator
  reconstructs the post-resize fleet;
- the topology audit trail records every resize.
"""

import pytest

from repro.errors import LifecycleError
from repro.runtime import open_runtime
from repro.shard import ProcessShardedRuntime, fork_available
from repro.shard.policy import QueryCountPolicy, RebalancePolicy
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process mode requires the fork start method"
)

SCHEMA = Schema.of_ints("a0", "a1")
FAST = {"command_timeout": 0.25, "max_retries": 60}

QUERIES = [
    ("q0", "FROM S AGG sum(a1) OVER 30 BY a0 AS m"),
    ("q1", "FROM S JOIN T ON left.a0 == right.a0 WITHIN 20"),
]


def feed(runtime, first, last):
    for ts in range(first, last):
        runtime.process(
            "S" if ts % 2 == 0 else "T", StreamTuple(SCHEMA, (ts % 3, ts), ts)
        )


def make_proc(**options):
    proc = ProcessShardedRuntime(
        {"S": SCHEMA, "T": SCHEMA},
        n_shards=2,
        capture_outputs=True,
        **FAST,
        **options,
    )
    for shard, (query_id, text) in enumerate(QUERIES):
        proc.register(text, query_id=query_id, shard=shard)
    return proc


def make_reference():
    reference = open_runtime(
        sources={"S": SCHEMA, "T": SCHEMA}, shards=2, capture_outputs=True
    )
    for shard, (query_id, text) in enumerate(QUERIES):
        reference.register(text, query_id=query_id, shard=shard)
    return reference


def assert_identical(proc, reference):
    stats = proc.collect_stats()
    assert proc.captured == reference.captured
    expected = reference.collect_stats()
    assert stats.outputs_by_query == expected.outputs_by_query
    assert stats.input_events == expected.input_events
    assert stats.output_events == expected.output_events
    assert sorted(proc.active_queries) == sorted(reference.active_queries)
    assert proc.state_size == reference.state_size


class TestElasticEquivalence:
    def test_grow_then_shrink_is_byte_identical(self):
        """Feed → grow (policy moves load onto the newcomer) → feed →
        retire shard 0 (drains its components) → feed: identical to a
        static serve, zero query loss."""
        reference = make_reference()
        feed(reference, 0, 120)
        proc = make_proc(durable=True, checkpoint_every=5)
        try:
            feed(proc, 0, 40)
            new = proc.add_worker(policy=QueryCountPolicy())
            assert new == 2
            feed(proc, 40, 80)
            result = proc.remove_worker(0)
            assert result["shard"] == 0
            assert 0 not in proc.shard_ids()
            feed(proc, 80, 120)
            assert_identical(proc, reference)
            assert sorted(proc.active_queries) == ["q0", "q1"]
        finally:
            proc.close()

    def test_retired_worker_counters_survive(self):
        """outputs_by_query keeps the full history of a query whose only
        outputs happened on a since-retired shard."""
        reference = make_reference()
        feed(reference, 0, 60)
        proc = make_proc()
        try:
            feed(proc, 0, 60)
            before = proc.collect_stats().outputs_by_query
            proc.add_worker()
            proc.remove_worker(0)
            proc.remove_worker(1)
            after = proc.collect_stats().outputs_by_query
            assert after == before == reference.collect_stats().outputs_by_query
        finally:
            proc.close()

    def test_elastic_topology_survives_cold_start(self, tmp_path):
        """Grow + shrink are journaled: a cold-started coordinator
        reconstructs the resized fleet (sparse ids and all) and keeps
        serving byte-identically."""
        reference = make_reference()
        feed(reference, 0, 160)
        proc = make_proc(journal=str(tmp_path), checkpoint_every=5)
        try:
            feed(proc, 0, 40)
            proc.add_worker(policy=QueryCountPolicy())
            feed(proc, 40, 80)
            proc.remove_worker(0)
            feed(proc, 80, 120)
            proc.collect_stats()
        finally:
            proc.abandon()
        successor = ProcessShardedRuntime.from_journal(str(tmp_path))
        try:
            assert successor.shard_ids() == [1, 2]
            feed(successor, 120, 160)
            assert_identical(successor, reference)
        finally:
            successor.close()


class TestElasticTopology:
    def test_shard_ids_are_sparse_and_never_reused(self):
        proc = make_proc()
        try:
            assert proc.shard_ids() == [0, 1]
            assert proc.add_worker() == 2
            proc.remove_worker(1)
            assert proc.shard_ids() == [0, 2]
            assert proc.add_worker() == 3
            assert proc.shard_ids() == [0, 2, 3]
            assert proc.n_shards == 3
        finally:
            proc.close()

    def test_cannot_remove_the_last_worker(self):
        proc = ProcessShardedRuntime({"S": SCHEMA}, n_shards=1, **FAST)
        try:
            proc.register("FROM S WHERE a0 == 1", query_id="q0", shard=0)
            with pytest.raises(LifecycleError, match="last worker"):
                proc.remove_worker(0)
        finally:
            proc.close()

    def test_dead_shard_ids_are_rejected(self):
        proc = make_proc()
        try:
            proc.add_worker()
            proc.remove_worker(1)
            with pytest.raises(LifecycleError, match="live shards"):
                proc.remove_worker(1)
            with pytest.raises(LifecycleError, match="live shards"):
                proc.rebalance("q0", 1)
            with pytest.raises(LifecycleError, match="live shards"):
                proc.register("FROM S WHERE a0 == 1", query_id="q9", shard=1)
        finally:
            proc.close()

    def test_resizes_ride_the_topology_audit_trail(self):
        proc = make_proc(observe=True)
        try:
            feed(proc, 0, 20)
            new = proc.add_worker()
            proc.remove_worker(new)
            events = proc.events.topology()
            assert [e["kind"] for e in events] == ["scale_up", "scale_down"]
            assert events[0]["shard"] == new
            assert events[1]["shard"] == new
        finally:
            proc.close()


class TestElasticPolicies:
    def test_on_grow_levels_load_onto_the_newcomer(self):
        # Six sources → six independent components (same-source selections
        # would merge into one sharable component and move as a block).
        proc = ProcessShardedRuntime(
            {f"S{i}": SCHEMA for i in range(6)},
            n_shards=2,
            capture_outputs=True,
            **FAST,
        )
        try:
            for i in range(6):
                proc.register(
                    f"FROM S{i} WHERE a0 == 1", query_id=f"q{i}", shard=i % 2
                )
            new = proc.add_worker(policy=QueryCountPolicy())
            loads = {s: len(proc.queries_on(s)) for s in proc.shard_ids()}
            assert sum(loads.values()) == 6, "grow lost queries"
            assert loads[new] == 2, f"on_grow did not level: {loads}"
        finally:
            proc.close()

    def test_on_shrink_chooses_the_drain_target(self):
        class PinnedTarget(RebalancePolicy):
            def propose(self, runtime):
                return []

            def on_shrink(self, runtime, departing, query_id):
                survivors = [s for s in runtime.shard_ids() if s != departing]
                return max(survivors)

        proc = make_proc()
        try:
            new = proc.add_worker()
            assert proc.queries_on(new) == []
            proc.remove_worker(0, policy=PinnedTarget())
            assert proc.shard_of("q0") == new
        finally:
            proc.close()
