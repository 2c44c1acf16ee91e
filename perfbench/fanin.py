"""``select_fanin``: many equality selections over four sources, closed loop.

Zipf(1.5)-constant selections (paper §5.1 shape) on four streams; events
in runs of 256, spread uniformly over the streams.  The run pool is pushed
closed-loop through ``process_batch`` for ``--seconds``, in windows of
:data:`WINDOW_RUNS` runs, after :data:`WARMUP_WINDOWS` untimed windows;
each window ends with a ``ping()`` barrier, which is also the freshness
probe (last run handed over → ``ping()`` returned).  A window's clock
stops at its barrier; ``drain_eps`` is the median window rate, which a
short stall of the shared host cannot move.  The σ-index makes engine
work per event tiny, so coordinator pack/ship, the ring transport and
worker decode dominate.

Oracle: the same sequence of runs through one in-process ``QueryRuntime``
must give byte-identical per-query outputs; that run is also the
single-threaded baseline ``engine.inline_eps``.
"""

from __future__ import annotations

import time

from perfbench import common, host, inputs
from perfbench.common import UNTRACED, Counter, Outcome
from perfbench.spans import Tracer
from perfbench.stats import median

#: Runs per window; a window ends at a ``ping()`` barrier.
WINDOW_RUNS = 32
#: Windows pushed before the clock starts (their runs reach the oracle too).
WARMUP_WINDOWS = 4


def _drain(
    fleet, runs, first: int, seconds: float, tracer, counter, speed,
    windows: int = 1,
) -> dict:
    """Push ``runs`` cyclically from index ``first`` for ``seconds``, and
    for at least ``windows`` windows, sampling ``speed`` after each
    window's barrier (outside its clock)."""
    fresh, pings, rates = [], [], []
    ship = 0.0
    index = first
    events = 0
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        opened = time.perf_counter()
        window = 0
        with tracer.span("bench.window"):
            for __ in range(WINDOW_RUNS):
                stream, tuples = runs[index % len(runs)]
                index += 1
                handed = time.perf_counter()
                with tracer.span("shard.process_batch"):
                    counter.attempt(fleet.process_batch, stream, tuples)
                ship += time.perf_counter() - handed
                window += len(tuples)
            barrier = time.perf_counter()
            with tracer.span("shard.ping"):
                counter.attempt(fleet.ping)
            now = time.perf_counter()
        pings.append(now - barrier)
        fresh.append(now - handed)
        rates.append(window / (now - opened))
        events += window
        if now >= deadline and len(rates) >= windows:
            break
        speed.sample()
    return {
        "wall": now - started,
        "events": events,
        "next": index,
        "rates": rates,
        "fresh": fresh,
        "pings": pings,
        "ship": ship,
    }


def run(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    from repro.serve.drive import ArrivalLog
    from repro.streams import Schema, StreamTuple

    data = inputs.fanin_inputs(seed)
    schema = Schema.numbered(data.width)
    sources = {name: schema for name in data.streams}
    # One schema object for every tuple: the columnar plane packs only runs
    # whose tuples carry the stream's own schema object.
    runs = [
        (stream, [StreamTuple(schema, values, ts) for ts, values in rows])
        for stream, rows in data.runs
    ]
    out = Outcome()
    counter = Counter()
    lifecycle: list = []
    speed = out.speed["drain"]
    fleet, setups = common.repeated_setups(
        1 if tracer.enabled else common.SETUPS, out.speed["setup"],
        sources, data.queries, tracer, counter, lifecycle,
    )
    try:
        with tracer.span("bench.warmup"):
            warm = _drain(
                fleet, runs, 0, 0.0, UNTRACED, counter, speed, WARMUP_WINDOWS
            )
        # Read here, after a fixed amount of work: past this point memory
        # grows with the outputs captured for the oracle, that is with the
        # number of events the run got through, so a faster program would
        # read as a larger one.
        rss = host.tree_peak_rss_mb()
        if tracer.enabled:
            with tracer.span("bench.untraced_pass"):
                untraced = _drain(
                    fleet, runs, warm["next"], seconds, UNTRACED, counter, speed
                )
            busy_before = common.busy_seconds(fleet)
            measured = _drain(
                fleet, runs, untraced["next"], seconds, tracer, counter, speed
            )
            busy_after = common.busy_seconds(fleet)
        else:
            measured = _drain(
                fleet, runs, warm["next"], seconds, tracer, counter, speed
            )
        captured = fleet.captured
    finally:
        fleet.close()

    # Oracle and single-engine baseline: the same runs, in the same order.
    played = common.Replay(common.open_inline(sources))
    inline = played.runtime
    for text, query_id in data.queries:
        started = time.perf_counter()
        with tracer.span("runtime.register"):
            inline.register(text, query_id)
        played.register.append(time.perf_counter() - started)
    with tracer.span("engine.process_batch_loop"):
        started = time.perf_counter()
        for index in range(measured["next"]):
            stream, tuples = runs[index % len(runs)]
            inline.process_batch(stream, tuples)
        played.data_seconds = time.perf_counter() - started
    played.events = sum(len(runs[i % len(runs)][1]) for i in range(measured["next"]))
    # The pool cycles, so there is no arrival log: the replay above is it.
    outputs = common.verify_per_query(
        captured, inline.captured, ArrivalLog(), sources
    )

    out.attempted, out.failed = counter.attempted, counter.failed
    out.samples = {
        "lifecycle": [s * 1e3 for s in lifecycle],
        "fresh": [s * 1e3 for s in measured["fresh"]],
    }
    if not tracer.enabled:
        out.e2e = {
            "setup_s": median(setups),
            "drain_eps": median(measured["rates"]),
            "peak_rss_mb": rss,
        }
    out.notes.append(
        f"{len(data.queries)} selections on {len(data.streams)} streams, "
        f"{measured['events']} events in {len(measured['fresh'])} windows, "
        f"{outputs} outputs identical to the in-process oracle, which ran "
        f"them at {common.inline_eps(played):.0f} ev/s on one thread"
    )
    if tracer.enabled:
        out.layers.update(
            common.fleet_layer_metrics(
                busy_before, busy_after, measured["wall"], measured["pings"]
            )
        )
        out.layers["shard.ship_us_per_event"] = (
            measured["ship"] / measured["events"] * 1e6
        )
        out.layers.update(common.inline_layer_metrics(played))
        out.layers["shard.lifecycle_overhead_ms_p50"] = (
            median(lifecycle) - median(played.register)
        ) * 1e3
        out.layers["lang.parse_us_p50"] = common.parse_us_p50(data.queries, tracer)
        out.layers["streams.pack_us_per_event"] = common.pack_us_per_event(
            sources, data.runs, tracer
        )
        out.layers["trace.overhead_pct"] = (
            (measured["wall"] / measured["events"])
            / (untraced["wall"] / untraced["events"])
            - 1.0
        ) * 100.0
    return out
