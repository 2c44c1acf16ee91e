"""``churn_mixed``: Poisson register/unregister over a live S/T stream.

The program's ``ChurnWorkload`` schedule is served through the 2-shard
process fleet with synchronous ``register``/``unregister``, interleaved
with the schedule's own events exactly as ``drive_batched`` interleaves
them (a pending run ships before each lifecycle op, runs cap at 256
events).  Every 16th run is followed by a freshness probe: the time from
handing that run to ``process_batch`` until ``ping()`` confirms every
worker applied it.  The clock stops at a final ``ping()``.

Oracle: the recorded op and run order, replayed through one in-process
``QueryRuntime``, must give byte-identical outputs under
``normalize_captured`` (``verify_equivalence``).
"""

from __future__ import annotations

import time

from perfbench import common, host, inputs
from perfbench.common import UNTRACED, Counter, Outcome
from perfbench.spans import Tracer
from perfbench.stats import median

#: Data runs between freshness probes.
PROBE_EVERY = 16
#: Longest run shipped at once (``drive_batched``'s cap, at ingest size).
MAX_RUN = 256


def _split(schedule) -> tuple[list, list]:
    """``(standing, rest)``: the time-0 registrations, which form the
    standing population set up before the clock starts, and every other
    event in schedule order.  A time-0 departure stays in ``rest``: it
    still fires before the first event, after its registration."""
    standing = [e for e in schedule if e.at == 0 and e.kind == "register"]
    rest = [e for e in schedule if not (e.at == 0 and e.kind == "register")]
    return standing, rest


def _serve(
    fleet, events, schedule, active, tracer, counter, lifecycle, speed
) -> dict:
    """Serve the schedule past the standing set, sampling ``speed`` after
    each freshness probe (outside the probe's clock); returns the pass
    record."""
    entries = []
    fresh, pings = [], []
    ship = 0.0
    run, run_name = [], None
    runs_since_probe = 0
    handed = 0.0

    def flush() -> None:
        nonlocal run, ship, handed, runs_since_probe
        if not run:
            return
        handed = time.perf_counter()
        with tracer.span("shard.process_batch", events=len(run)):
            shipped = counter.attempt(fleet.process_batch, run_name, run)
        ship += time.perf_counter() - handed
        if shipped:
            entries.append(("run", run_name, run))
        run = []
        runs_since_probe += 1
        if runs_since_probe == PROBE_EVERY:
            runs_since_probe = 0
            probe()

    def probe() -> None:
        started = time.perf_counter()
        with tracer.span("shard.ping"):
            counter.attempt(fleet.ping)
        now = time.perf_counter()
        pings.append(now - started)
        fresh.append(now - handed)
        speed.sample(2)

    def apply(event) -> None:
        if event.kind == "register":
            call, args = fleet.register, (event.query, event.query_id)
            entry = ("register", event.query, event.query_id)
        elif event.query_id in active:
            call, args = fleet.unregister, (event.query_id,)
            entry = ("unregister", event.query_id)
        else:
            return  # never became active: drive() skips these too
        started = time.perf_counter()
        with tracer.span(f"shard.{event.kind}"):
            applied = counter.attempt(call, *args)
        lifecycle.append(time.perf_counter() - started)
        if applied:
            entries.append(entry)
            if event.kind == "register":
                active.add(event.query_id)
            else:
                active.discard(event.query_id)

    position = 0
    started = time.perf_counter()
    for stream_name, tuple_ in events:
        boundary = position < len(schedule) and schedule[position].at <= tuple_.ts
        if run and (boundary or stream_name != run_name or len(run) >= MAX_RUN):
            flush()
        while position < len(schedule) and schedule[position].at <= tuple_.ts:
            apply(schedule[position])
            position += 1
        run_name = stream_name
        run.append(tuple_)
    flush()
    for event in schedule[position:]:
        apply(event)
    with tracer.span("shard.ping"):
        counter.attempt(fleet.ping)
    wall = time.perf_counter() - started
    return {
        "wall": wall,
        "events": len(events),
        "entries": entries,
        "fresh": fresh,
        "pings": pings,
        "ship": ship,
    }


def _arrival_log(entries):
    from repro.serve.drive import ArrivalLog

    log = ArrivalLog()
    for entry in entries:
        if entry[0] == "run":
            log.record_run(entry[1], [(t.ts, t.values) for t in entry[2]])
        elif entry[0] == "register":
            log.record_register(entry[1], entry[2])
        else:
            log.record_unregister(entry[1])
    return log


def run(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    """One ``churn_mixed`` run; ``seconds`` is unused — the schedule is the
    run's fixed amount of work."""
    workload = inputs.churn_workload(seed)
    schedule = workload.schedule()
    events = workload.stream_events()
    sources = {"S": workload.schema, "T": workload.schema}
    standing, rest = _split(schedule)
    queries = [(event.query, event.query_id) for event in standing]
    out = Outcome()
    counter = Counter()
    passes = []

    def serve_pass(tr: Tracer, setups: int) -> dict:
        lifecycle: list = []
        fleet, setup_seconds = common.repeated_setups(
            setups, out.speed["setup"],
            sources, queries, tr, counter, lifecycle,
        )
        try:
            active = {event.query_id for event in standing}
            busy_before = common.busy_seconds(fleet) if tracer.enabled else None
            record = _serve(
                fleet, events, rest, active, tr, counter, lifecycle,
                out.speed["drain"],
            )
            if tracer.enabled:
                record["busy"] = (busy_before, common.busy_seconds(fleet))
            record["rss"] = host.tree_peak_rss_mb()
            record["captured"] = fleet.captured
        finally:
            fleet.close()
        record["setup"] = setup_seconds
        record["lifecycle"] = lifecycle
        return record

    if tracer.enabled:
        # The untraced twin of the traced pass, for the tracing overhead.
        with tracer.span("bench.untraced_pass"):
            passes.append(serve_pass(UNTRACED, 1))
        passes.append(serve_pass(tracer, 1))
    else:
        passes.append(serve_pass(UNTRACED, common.SETUPS))
    measured = passes[-1]

    log = _arrival_log(
        [("register", query, query_id) for query, query_id in queries]
        + measured["entries"]
    )
    played = common.replay(log.entries, sources, tracer)
    for record in passes:
        outputs = common.verify_per_query(
            record.pop("captured"), played.runtime.captured, log, sources
        )

    out.attempted, out.failed = counter.attempted, counter.failed
    out.samples = {
        "lifecycle": [s * 1e3 for s in measured["lifecycle"]],
        "fresh": [s * 1e3 for s in measured["fresh"]],
    }
    if not tracer.enabled:
        out.e2e = {
            "setup_s": median(measured["setup"]),
            "drain_eps": measured["events"] / measured["wall"],
            "peak_rss_mb": measured["rss"],
        }
    out.notes.append(
        f"{len(rest)} scheduled ops after {len(standing)} standing queries, "
        f"{measured['events']} events, {len(measured['entries'])} applied "
        f"entries, {outputs} outputs identical to the in-process replay "
        f"(its data path: {common.inline_eps(played):.0f} ev/s)"
    )
    if tracer.enabled:
        untraced = passes[0]
        busy_before, busy_after = measured["busy"]
        out.layers.update(
            common.fleet_layer_metrics(
                busy_before, busy_after, measured["wall"], measured["pings"]
            )
        )
        out.layers["shard.ship_us_per_event"] = (
            measured["ship"] / measured["events"] * 1e6
        )
        out.layers.update(common.inline_layer_metrics(played))
        inline_ops = played.register + played.unregister
        out.layers["shard.lifecycle_overhead_ms_p50"] = (
            median(measured["lifecycle"]) - median(inline_ops)
        ) * 1e3
        out.layers["lang.parse_us_p50"] = common.parse_us_p50(
            [(event.query, event.query_id) for event in schedule if event.query],
            tracer,
        )
        out.layers["streams.pack_us_per_event"] = common.pack_us_per_event(
            sources,
            [(e[1], e[2]) for e in log.entries if e[0] == "run"],
            tracer,
        )
        out.layers["trace.overhead_pct"] = (
            (measured["wall"] / untraced["wall"]) - 1.0
        ) * 100.0
    return out
