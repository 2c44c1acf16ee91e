"""RuntimeConfig + open_runtime: selection, validation, deprecation.

The unified factory replaced divergent constructor surfaces; these tests
pin the selection rules (shards/process → which runtime and which worker
transport), the actionable one-line validation errors, and the
deprecation contract: direct constructor calls warn, factory-built and
internally-built runtimes do not.
"""

import multiprocessing
import warnings

import pytest

from repro import RuntimeConfig, open_runtime
from repro.errors import LifecycleError
from repro.runtime.config import internal_construction
from repro.runtime.runtime import QueryRuntime
from repro.shard import FrameFaults, WorkerFaults, fork_available
from repro.shard.proc import ProcessShardedRuntime
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

SCHEMA = Schema.numbered(2)
SOURCES = {"S": SCHEMA}


class TestSelection:
    def test_default_is_single_engine(self):
        runtime = open_runtime(RuntimeConfig(sources=SOURCES))
        assert type(runtime) is QueryRuntime

    def test_shards_select_in_process_sharded(self):
        runtime = open_runtime(RuntimeConfig(sources=SOURCES, shards=3))
        assert type(runtime) is ProcessShardedRuntime
        assert runtime.inline
        assert runtime.n_shards == 3

    def test_shards_one_is_single_engine(self):
        runtime = open_runtime(RuntimeConfig(sources=SOURCES, shards=1))
        assert type(runtime) is QueryRuntime

    def test_overrides_apply_on_top_of_config(self):
        config = RuntimeConfig(sources=SOURCES)
        runtime = open_runtime(config, shards=2, capture_outputs=True)
        assert type(runtime) is ProcessShardedRuntime
        assert runtime.inline
        # The original config is not mutated.
        assert config.shards is None
        assert config.capture_outputs is False

    def test_kwargs_only_call_site(self):
        runtime = open_runtime(sources=SOURCES, capture_outputs=True)
        runtime.register("FROM S WHERE a0 == 1", query_id="q")
        runtime.process_batch("S", [StreamTuple(SCHEMA, (1, 7), 1)])
        assert len(runtime.captured["q"]) == 1

    def test_resolved_shards_defaulting(self):
        assert RuntimeConfig().resolved_shards == 1
        assert RuntimeConfig(process=True).resolved_shards == 2
        assert RuntimeConfig(process=True, shards=5).resolved_shards == 5


class TestValidation:
    def test_zero_shards(self):
        with pytest.raises(LifecycleError, match="shards must be at least 1"):
            RuntimeConfig(sources=SOURCES, shards=0).validate()

    def test_durable_requires_process(self):
        with pytest.raises(LifecycleError, match="--process"):
            RuntimeConfig(sources=SOURCES, durable=True).validate()

    def test_checkpoint_requires_process(self):
        with pytest.raises(LifecycleError, match="require process mode"):
            RuntimeConfig(sources=SOURCES, checkpoint_every=4).validate()

    def test_journal_requires_process(self):
        with pytest.raises(LifecycleError, match="only the process-mode"):
            RuntimeConfig(sources=SOURCES, journal="/tmp/x").validate()

    def test_resume_requires_journal(self):
        with pytest.raises(
            LifecycleError, match="--coordinator-journal DIR"
        ):
            RuntimeConfig(sources=SOURCES, process=True, resume=True).validate()

    def test_factory_validates(self):
        with pytest.raises(LifecycleError, match="shards must be at least 1"):
            open_runtime(sources=SOURCES, shards=0)

    def test_negative_checkpoint_every(self):
        with pytest.raises(LifecycleError, match="non-negative"):
            RuntimeConfig(
                sources=SOURCES, process=True, checkpoint_every=-1
            ).validate()

    def test_max_batch_floor(self):
        with pytest.raises(LifecycleError, match="max_batch"):
            RuntimeConfig(sources=SOURCES, max_batch=0).validate()


class TestDeprecation:
    def test_direct_query_runtime_warns(self):
        with pytest.warns(DeprecationWarning, match="direct construction"):
            QueryRuntime(SOURCES)

    def test_direct_sharded_runtime_warns(self):
        with pytest.warns(DeprecationWarning, match="open_runtime"):
            ProcessShardedRuntime(SOURCES, n_shards=2, inline=True)

    def test_factory_does_not_warn(self):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            open_runtime(sources=SOURCES, shards=2)
        assert not [
            w for w in seen if issubclass(w.category, DeprecationWarning)
        ]

    def test_internal_construction_suppresses(self):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with internal_construction():
                QueryRuntime(SOURCES)
        assert not seen

    def test_deprecated_constructor_still_works(self):
        """The old surface keeps functioning — warning only, no break."""
        with pytest.warns(DeprecationWarning):
            runtime = QueryRuntime(SOURCES, capture_outputs=True)
        runtime.register("FROM S WHERE a0 == 1", query_id="q")
        runtime.process_batch("S", [StreamTuple(SCHEMA, (1, 2), 1)])
        assert len(runtime.captured["q"]) == 1


@pytest.mark.skipif(
    not fork_available(), reason="process mode requires the fork start method"
)
class TestProcessSelection:
    def test_process_true_opens_worker_fleet(self):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            runtime = open_runtime(
                sources=SOURCES, process=True, capture_outputs=True
            )
        try:
            assert type(runtime) is ProcessShardedRuntime
            assert not runtime.inline
            assert runtime.n_shards == 2
            assert not [
                w for w in seen if issubclass(w.category, DeprecationWarning)
            ]
            runtime.register("FROM S WHERE a0 == 1", query_id="q")
            runtime.process_batch(
                "S", [StreamTuple(SCHEMA, (1, 9), 1)]
            )
            runtime.shard_stats()
            assert len(runtime.captured["q"]) == 1
        finally:
            runtime.close()

    def test_equivalent_outputs_across_selected_runtimes(self):
        """Same inputs through every selection → same outputs."""
        captured = {}
        for label, kwargs in (
            ("single", {}),
            ("sharded", {"shards": 2}),
            ("process", {"process": True}),
        ):
            runtime = open_runtime(
                sources={"S": SCHEMA}, capture_outputs=True, **kwargs
            )
            try:
                runtime.register("FROM S WHERE a0 == 1", query_id="q")
                runtime.register(
                    "FROM S AGG avg(a1) OVER 10 BY a0 AS m", query_id="g"
                )
                for ts in range(40):
                    runtime.process(
                        "S", StreamTuple(SCHEMA, (ts % 3, ts), ts)
                    )
                if hasattr(runtime, "shard_stats"):
                    runtime.shard_stats()
                captured[label] = {
                    qid: [(t.ts, tuple(t.values)) for t in tuples]
                    for qid, tuples in runtime.captured.items()
                }
            finally:
                if hasattr(runtime, "close"):
                    runtime.close()
        assert captured["single"] == captured["sharded"]
        assert captured["single"] == captured["process"]


class TestInlineTransport:
    """``open_runtime(shards=N)`` without ``process``: the coordinator with
    inline workers — no child process, no fork requirement."""

    def _serve(self, runtime):
        with runtime:
            runtime.register("FROM S WHERE a0 == 1", query_id="q0", shard=0)
            runtime.register("FROM S WHERE a0 == 2", query_id="q1", shard=1)
            for ts in range(30):
                runtime.process("S", StreamTuple(SCHEMA, (ts % 3, ts), ts))
            return {
                qid: [t.ts for t in tuples]
                for qid, tuples in runtime.captured.items()
            }

    def test_serves_without_fork(self, monkeypatch):
        import repro.shard.proc as proc_module

        monkeypatch.setattr(proc_module, "fork_available", lambda: False)
        captured = self._serve(
            open_runtime(sources=SOURCES, shards=2, capture_outputs=True)
        )
        assert captured == {
            "q0": list(range(1, 30, 3)),
            "q1": list(range(2, 30, 3)),
        }
        with pytest.raises(LifecycleError, match="fork start method"):
            open_runtime(sources=SOURCES, shards=2, process=True)

    def test_starts_no_child_process(self):
        before = multiprocessing.active_children()
        with open_runtime(sources=SOURCES, shards=3) as runtime:
            runtime.register("FROM S WHERE a0 == 1", query_id="q0")
            runtime.process("S", StreamTuple(SCHEMA, (1, 2), 1))
            assert runtime.collect_stats().output_events == 1
            assert multiprocessing.active_children() == before

    def test_rejects_worker_faults(self):
        with pytest.raises(LifecycleError, match="worker_faults"):
            open_runtime(
                sources=SOURCES,
                shards=2,
                extra={"worker_faults": {0: WorkerFaults(crash_on=("data", 1))}},
            )

    def test_frame_faults_still_apply(self):
        """Dropped and duplicated command frames are retransmitted and
        deduplicated exactly as over the forked transport."""
        faults = FrameFaults(seed=3, drop_rate=0.3, dup_rate=0.2)
        captured = self._serve(
            open_runtime(
                sources=SOURCES,
                shards=2,
                capture_outputs=True,
                command_timeout=0.05,
                extra={"faults": faults},
            )
        )
        assert faults.dropped > 0 and faults.duplicated > 0
        assert captured == {
            "q0": list(range(1, 30, 3)),
            "q1": list(range(2, 30, 3)),
        }
