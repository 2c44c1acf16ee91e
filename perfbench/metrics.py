"""The metric catalogue: every end-to-end and per-layer metric, its unit,
its direction and — for the per-layer ones — which end-to-end metric on
which workload it should move.  ``BENCHMARK.json`` lists the same metrics
(``test_perfbench.py`` checks that the two agree).
"""

from __future__ import annotations

WORKLOADS = ("select_fanin", "churn_mixed", "socket_paced")

#: name → (unit, better).  Measured on every workload, with tracing off.
#: The run also prints ``fresh_p50_ms``, ``lifecycle_p50_ms`` and the timing
#: tails (the highest percentile with ten samples beyond it) by name,
#: unbounded: on a shared two-CPU host the ping and RPC round trips they
#: rest on swing too far between runs to hold a bound.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "drain_eps": ("events/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: End-to-end metrics that are CPU work, reported at the reference host's
#: speed: name → (phase, exponent ``e``), reported value = measured ×
#: slowdown ** e, with the slowdown sampled through that phase (a rate
#: scales up on a slow host, a time scales down).  The shared host's speed
#: drifts by ±15% over minutes; the slowdown (``perfbench/host.py``)
#: cancels that drift.  Latencies stay as measured: timers and
#: cross-process wake-ups, not CPU speed, set them.
HOST_SCALED = {
    "setup_s": ("setup", -1),
    "drain_eps": ("drain", 1),
}

#: name → (unit, better, what it should move).  Measured by the traced run;
#: a layer a workload does not exercise reads 0 there.
PER_LAYER = {
    # serve: the socket front door (socket_paced only).
    "serve.send_ms_p50": ("ms", "lower", "drain_eps @ socket_paced"),
    "serve.send_ms_p99": ("ms", "lower", "drain_eps @ socket_paced"),
    "serve.credit_waits": ("count", "lower", "drain_eps @ socket_paced"),
    "serve.accept_ms_p50": ("ms", "lower", "fresh_* @ socket_paced"),
    "serve.pump_ms_p50": ("ms", "lower", "fresh_* @ socket_paced"),
    "serve.ship_ms_p99": ("ms", "lower", "fresh_* @ socket_paced"),
    "serve.gen_lag_ms_p99": ("ms", "lower", "fresh_* @ socket_paced"),
    # shard: the process coordinator and its workers.
    "shard.ship_us_per_event": ("us", "lower", "drain_eps @ select_fanin"),
    "shard.worker_util": ("ratio", "higher", "drain_eps @ select_fanin"),
    "shard.busy_skew": ("ratio", "lower", "drain_eps @ select_fanin"),
    "shard.ping_ms_p50": ("ms", "lower", "fresh_*, drain_eps @ socket_paced"),
    "shard.ping_ms_p99": ("ms", "lower", "fresh_*, drain_eps @ socket_paced"),
    "shard.worker_busy_s": ("s", "lower", "fresh_*, drain_eps @ socket_paced"),
    "shard.lifecycle_overhead_ms_p50": (
        "ms", "lower", "lifecycle_*, drain_eps @ churn_mixed",
    ),
    # runtime: the in-process lifecycle runtime (the oracle replay).
    "runtime.register_ms_p50": ("ms", "lower", "lifecycle_*, drain_eps @ churn_mixed"),
    "runtime.register_ms_p99": ("ms", "lower", "lifecycle_*, drain_eps @ churn_mixed"),
    "runtime.unregister_ms_p50": ("ms", "lower", "lifecycle_*, drain_eps @ churn_mixed"),
    "runtime.unregister_ms_p99": ("ms", "lower", "lifecycle_*, drain_eps @ churn_mixed"),
    "runtime.migrate_ms_p50": ("ms", "lower", "lifecycle_*, drain_eps @ churn_mixed"),
    "runtime.executors_built_per_op": (
        "count", "lower", "lifecycle_*, drain_eps @ churn_mixed",
    ),
    # core: the optimizer's own reports.
    "core.mops_considered_per_op": (
        "count", "lower", "lifecycle_*, drain_eps @ churn_mixed, setup_s @ select_fanin",
    ),
    "core.sweeps_per_op": (
        "count", "lower", "lifecycle_*, drain_eps @ churn_mixed, setup_s @ select_fanin",
    ),
    "core.rule_applications_per_op": (
        "count", "lower", "lifecycle_*, drain_eps @ churn_mixed, setup_s @ select_fanin",
    ),
    "core.plan_mops": (
        "count", "lower", "lifecycle_*, drain_eps @ churn_mixed, setup_s @ select_fanin",
    ),
    # lang: query text to logical query.
    "lang.parse_us_p50": ("us", "lower", "setup_s, lifecycle_* (small)"),
    # engine: the single-threaded in-process baseline on the same inputs.
    "engine.inline_eps": (
        "events/s", "higher", "ceiling for drain_eps @ select_fanin, socket_paced",
    ),
    "engine.physical_per_input": (
        "ratio", "lower", "ceiling for drain_eps @ select_fanin, socket_paced",
    ),
    # streams: packing runs into columns.
    "streams.pack_us_per_event": ("us", "lower", "drain_eps @ select_fanin"),
    # trace: the traced run's own ledger.
    "trace.self_bench_s": ("s", "lower", "uncovered benchmark work"),
    "trace.self_serve_s": ("s", "lower", "fresh_*, drain_eps @ socket_paced"),
    "trace.self_shard_s": ("s", "lower", "drain_eps, lifecycle_* @ all"),
    "trace.self_runtime_s": ("s", "lower", "lifecycle_*, drain_eps @ churn_mixed"),
    "trace.self_lang_s": ("s", "lower", "setup_s (small)"),
    "trace.self_engine_s": ("s", "lower", "engine.inline_eps"),
    "trace.self_streams_s": ("s", "lower", "streams.pack_us_per_event"),
    "trace.uncovered_s": ("s", "lower", "none: time no span covers"),
    "trace.wall_s": ("s", "lower", "none: self times + uncovered = lanes x wall"),
    "trace.reconcile_error": ("ratio", "lower", "none: ledger check"),
    "trace.overhead_pct": ("%", "lower", "none: traced vs untraced pass"),
}

#: Counted on every run and printed, but not in ``BENCHMARK.json``: it reads 0
#: on a healthy run, and a share of a zero median bounds nothing.
#: ``attempted``/``failed`` in the result line carry the same counts.
ERROR_RATIO = "error_ratio"
