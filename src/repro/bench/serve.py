"""Live serving benchmark: sustained ingest and command overlap.

Two cells price the serving front door:

``live``
    The full stack — asyncio socket server, credit-based flow control,
    session pump, process-sharded fleet — driven by the zipf loadgen
    schedule at high speedup (so the runtime, not the pacing, is the
    limiter).  Measures sustained ingest events/sec and p50/p99 ship
    latency (enqueue → shipped to workers), then replays the recorded
    arrivals through an offline single-engine runtime and requires the
    outputs to be **byte-identical** — the whole serving stack must add
    nothing and lose nothing.

``overlap``
    The coordinator's pipelined command fan against the historical
    serial fan, on the same multi-worker fleet with the same inputs.
    The serial arm makes synchronous register/unregister round trips —
    each one lands right behind a freshly-shipped data run, so the
    coordinator blocks until the target worker has decoded and
    processed that run before the ack can arrive.  The overlapped arm
    submits lifecycle commands through the pipelined path
    (``submit_register``) and collects acks at the end, so the
    coordinator's encode proceeds while workers decode.  The **gated
    quantity is lifecycle blocking time**: seconds the coordinator
    spends stalled inside lifecycle calls plus the final ack
    collection.  Whole-run wall time and the full command path
    (lifecycle + stats barriers) are reported informationally but not
    gated — on a single-core runner the data pipeline serializes
    identically in both arms and the shared drain cost would only
    dilute the comparison with scheduler noise.  Trials are interleaved
    (serial, overlapped, serial, …) and each arm keeps its best
    lifecycle time; both arms must produce identical captured outputs,
    and the overlapped arm must beat serial on ≥2 worker shards.

Results land in ``BENCH_serve.json``.  Regenerate::

    PYTHONPATH=src python -m repro.cli bench-serve
    PYTHONPATH=src python -m repro.cli bench-serve --scale smoke  # CI

or run the standalone script ``benchmarks/bench_serve.py``.
"""

from __future__ import annotations

import json
import pickle
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.runtime.config import RuntimeConfig, open_runtime
from repro.serve.drive import ServeSession
from repro.serve.ingest import IngestServer
from repro.serve.loadgen import run_loadgen, zipf_schedule
from repro.serve.replay import normalize_captured, replay_log, verify_equivalence
from repro.streams import Schema, StreamTuple

#: Pipelined lifecycle must cut coordinator blocking time by this factor.
OVERLAP_FLOOR = 2.0
SMOKE_OVERLAP_FLOOR = 1.5
#: Sustained socket-ingest floor, events/sec through the full stack.
LIVE_EPS_FLOOR = 1_000.0
SMOKE_LIVE_EPS_FLOOR = 300.0


@dataclass
class ServeScale:
    """Knobs controlling benchmark size."""

    name: str = "full"
    shards: int = 2
    # overlap cell
    runs: int = 200
    run_size: int = 512
    lifecycle_every: int = 3
    stats_every: int = 25
    trials: int = 3
    overlap_floor: float = OVERLAP_FLOOR
    # live cell
    epochs: int = 8
    events_per_epoch: int = 4_000
    epoch_seconds: float = 0.5
    speedup: float = 20.0
    live_eps_floor: float = LIVE_EPS_FLOOR
    seed: int = 0

    @classmethod
    def full(cls) -> "ServeScale":
        return cls()

    @classmethod
    def smoke(cls) -> "ServeScale":
        """Reduced scale for the CI smoke job."""
        return cls(
            name="smoke",
            runs=60,
            run_size=128,
            stats_every=15,
            trials=2,
            overlap_floor=SMOKE_OVERLAP_FLOOR,
            epochs=4,
            events_per_epoch=800,
            speedup=40.0,
            live_eps_floor=SMOKE_LIVE_EPS_FLOOR,
        )


# -- overlap cell -------------------------------------------------------------------


def _overlap_inputs(scale: ServeScale) -> list:
    """Precompute the run sequence once; both arms replay it verbatim."""
    schema = Schema.numbered(2)
    rng = np.random.default_rng(scale.seed)
    runs = []
    ts = 0
    for __ in range(scale.runs):
        values = rng.integers(0, 8, size=(scale.run_size, 2))
        run = []
        for row in values:
            ts += 1
            run.append(StreamTuple(schema, (int(row[0]), int(row[1])), ts))
        runs.append(run)
    return runs


def _overlap_arm(scale: ServeScale, runs: list, pipelined: bool) -> dict:
    """One timed pass: ship every run, interleaving lifecycle + stats.

    The operation sequence is identical in both arms — only the fan
    mechanics differ — so captured outputs must match exactly.
    """
    runtime = open_runtime(
        RuntimeConfig(
            sources={"S": Schema.numbered(2)},
            process=True,
            shards=scale.shards,
            capture_outputs=True,
        )
    )
    try:
        next_query = 0
        active: list[str] = []
        command_seconds = 0.0
        lifecycle_seconds = 0.0
        start = time.perf_counter()
        for i, run in enumerate(runs):
            runtime.process_batch("S", run)
            if i % scale.lifecycle_every == 0:
                # Lifecycle lands right behind a shipped run — the serving
                # pattern.  The sync path blocks until the target worker
                # has decoded and processed that run before it can ack;
                # the pipelined path enqueues behind it and moves on,
                # which is exactly the coordinator-encode / worker-decode
                # overlap this cell prices.  Alternate arrivals and
                # departures once a few queries are live (the churn
                # workloads' shape, at serve cadence).
                t0 = time.perf_counter()
                if len(active) >= 4:
                    victim = active.pop(0)
                    if pipelined:
                        runtime.submit_unregister(victim)
                    else:
                        runtime.unregister(victim)
                query_id = f"q{next_query}"
                predicate = next_query % 8
                if pipelined:
                    runtime.submit_register(
                        f"FROM S WHERE a0 == {predicate}", query_id
                    )
                else:
                    runtime.register(
                        f"FROM S WHERE a0 == {predicate}", query_id
                    )
                blocked = time.perf_counter() - t0
                command_seconds += blocked
                lifecycle_seconds += blocked
                active.append(query_id)
                next_query += 1
            if i % scale.stats_every == scale.stats_every - 1:
                t0 = time.perf_counter()
                runtime.shard_stats(pipelined=pipelined)
                command_seconds += time.perf_counter() - t0
        # Final collection: the pipelined arm settles its outstanding
        # acks here, so its deferred lifecycle cost is counted, not
        # hidden.  (Acks that arrived during earlier stats barriers were
        # already paid for inside those barrier waits — which both arms
        # count identically.)
        t0 = time.perf_counter()
        if pipelined:
            runtime.collect_lifecycle()
        blocked = time.perf_counter() - t0
        command_seconds += blocked
        lifecycle_seconds += blocked
        t0 = time.perf_counter()
        runtime.shard_stats(pipelined=pipelined)  # final barrier
        command_seconds += time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        captured = normalize_captured(runtime.captured)
        runs_by_transport: dict[str, int] = {}
        for sample in runtime.metrics_registry().snapshot()["samples"]:
            if sample["name"] == "rumor_runs_shipped_total":
                transport = sample["labels"]["transport"]
                runs_by_transport[transport] = (
                    runs_by_transport.get(transport, 0) + sample["value"]
                )
    finally:
        runtime.close()
    events = sum(len(run) for run in runs)
    return {
        "elapsed_seconds": elapsed,
        "command_seconds": command_seconds,
        "lifecycle_seconds": lifecycle_seconds,
        "events_per_sec": events / elapsed,
        "captured": captured,
        "runs_by_transport": runs_by_transport,
    }


def run_overlap_cell(scale: ServeScale) -> dict:
    runs = _overlap_inputs(scale)
    best: dict[str, Optional[dict]] = {"serial": None, "overlapped": None}
    for __ in range(scale.trials):
        # Interleaved trials: machine drift hits both arms equally.
        for label, pipelined in (("serial", False), ("overlapped", True)):
            arm = _overlap_arm(scale, runs, pipelined)
            if (
                best[label] is None
                or arm["lifecycle_seconds"] < best[label]["lifecycle_seconds"]
            ):
                best[label] = arm
    serial, overlapped = best["serial"], best["overlapped"]
    if pickle.dumps(serial["captured"]) != pickle.dumps(
        overlapped["captured"]
    ):
        raise AssertionError(
            "pipelined command fan changed query outputs: serial and "
            "overlapped arms diverge on identical inputs"
        )
    speedup = serial["lifecycle_seconds"] / overlapped["lifecycle_seconds"]
    command_speedup = (
        serial["command_seconds"] / overlapped["command_seconds"]
    )
    outputs = sum(len(v) for v in serial["captured"].values())
    return {
        "shards": scale.shards,
        "runs": scale.runs,
        "run_size": scale.run_size,
        "lifecycle_every": scale.lifecycle_every,
        "stats_every": scale.stats_every,
        "trials": scale.trials,
        "serial_lifecycle_seconds": round(serial["lifecycle_seconds"], 4),
        "overlapped_lifecycle_seconds": round(
            overlapped["lifecycle_seconds"], 4
        ),
        "serial_command_seconds": round(serial["command_seconds"], 4),
        "overlapped_command_seconds": round(
            overlapped["command_seconds"], 4
        ),
        "serial_elapsed_seconds": round(serial["elapsed_seconds"], 4),
        "overlapped_elapsed_seconds": round(
            overlapped["elapsed_seconds"], 4
        ),
        "serial_events_per_sec": round(serial["events_per_sec"], 1),
        "overlapped_events_per_sec": round(overlapped["events_per_sec"], 1),
        "speedup": round(speedup, 3),
        "command_speedup": round(command_speedup, 3),
        "floor": scale.overlap_floor,
        "outputs_identical": True,
        "outputs": outputs,
        # Shipped runs per data transport (summed over shards), from the
        # overlapped arm: packable input should never need ``pickle``.
        "runs_by_transport": overlapped["runs_by_transport"],
    }


# -- live cell ----------------------------------------------------------------------


def run_live_cell(scale: ServeScale) -> dict:
    sources = {"S": Schema.numbered(2), "T": Schema.numbered(2)}
    runtime = open_runtime(
        RuntimeConfig(
            sources=sources,
            process=True,
            shards=scale.shards,
            capture_outputs=True,
        )
    )
    try:
        session = ServeSession(runtime, record=True, heartbeat_interval=0.25)
        for i in range(4):
            session.submit_register(f"FROM S WHERE a0 == {i}", f"s{i}")
            session.submit_register(f"FROM T WHERE a0 == {i + 4}", f"t{i}")
        schedule = zipf_schedule(
            ["S", "T"],
            epochs=scale.epochs,
            events_per_epoch=scale.events_per_epoch,
            epoch_seconds=scale.epoch_seconds,
            seed=scale.seed,
        )
        with IngestServer(session, port=0) as server:
            host, port = server.address
            client_stats = run_loadgen(
                host,
                port,
                schedule,
                sources,
                seed=scale.seed,
                speedup=scale.speedup,
            )
            ingest_stats = server.stats()
        report = session.finish()
        replayed = replay_log(session.log, sources)
        equivalence = verify_equivalence(
            runtime.captured, session.log, sources, replayed=replayed
        )
    finally:
        runtime.close()
    return {
        "shards": scale.shards,
        "schedule": "zipf",
        "epochs": scale.epochs,
        "events_per_epoch": scale.events_per_epoch,
        "speedup": scale.speedup,
        "sent_events": client_stats["sent_events"],
        "accepted_events": client_stats["accepted_events"],
        "credit_waits": client_stats["credit_waits"],
        "ingest": ingest_stats,
        "events_per_sec": round(report.events_per_second, 1),
        "floor": scale.live_eps_floor,
        "ship_p50_ms": round(report.ship_p50_ms, 3),
        "ship_p99_ms": round(report.ship_p99_ms, 3),
        "runs": report.runs,
        "lifecycle_ops": report.lifecycle_ops,
        "replay_identical": equivalence["identical"],
        "replay_outputs": equivalence["outputs"],
    }


# -- driver -------------------------------------------------------------------------


def run_benchmark(scale: ServeScale) -> dict:
    live = run_live_cell(scale)
    overlap = run_overlap_cell(scale)
    results = {
        "meta": {
            "benchmark": "live serving: sustained ingest + command overlap",
            "scale": scale.name,
            "shards": scale.shards,
            "regenerate": "PYTHONPATH=src python -m repro.cli bench-serve",
        },
        "headline": {
            "live_events_per_sec": live["events_per_sec"],
            "live_eps_floor": scale.live_eps_floor,
            "ship_p99_ms": live["ship_p99_ms"],
            "overlap_speedup": overlap["speedup"],
            "overlap_floor": scale.overlap_floor,
            "replay_identical": live["replay_identical"],
        },
        "cells": {"live": live, "overlap": overlap},
    }
    if not live["replay_identical"]:
        raise AssertionError(
            "serve outputs must be byte-identical to the offline replay"
        )
    if live["events_per_sec"] < scale.live_eps_floor:
        raise AssertionError(
            f"sustained ingest must clear {scale.live_eps_floor:,.0f} "
            f"events/sec, measured {live['events_per_sec']:,.1f}"
        )
    if overlap["speedup"] < scale.overlap_floor:
        raise AssertionError(
            f"pipelined lifecycle must cut coordinator blocking time by ≥"
            f"{scale.overlap_floor:.2f}x on {scale.shards} shards, "
            f"measured {overlap['speedup']:.3f}x"
        )
    return results


def render(results: dict) -> str:
    live = results["cells"]["live"]
    overlap = results["cells"]["overlap"]
    return "\n".join(
        [
            f"serve benchmark ({results['meta']['scale']} scale, "
            f"{results['meta']['shards']} worker shards)",
            f"live: {live['events_per_sec']:>10,.1f} ev/s sustained "
            f"(floor {live['floor']:,.0f}), ship p50 "
            f"{live['ship_p50_ms']:.2f}ms p99 {live['ship_p99_ms']:.2f}ms, "
            f"{live['credit_waits']} flow-control waits, replay "
            f"{'identical' if live['replay_identical'] else 'DIVERGED'}",
            f"overlap: lifecycle blocking serial "
            f"{overlap['serial_lifecycle_seconds']:.3f}s vs overlapped "
            f"{overlap['overlapped_lifecycle_seconds']:.3f}s -> "
            f"{overlap['speedup']:.3f}x (floor {overlap['floor']:.2f}x, "
            f"command path {overlap['command_speedup']:.3f}x), "
            f"outputs identical over {overlap['outputs']} captured tuples",
        ]
    )


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="live serving benchmark (sustained ingest + overlap)"
    )
    parser.add_argument(
        "--scale",
        choices=["full", "smoke"],
        default="full",
        help="smoke: reduced event counts for CI",
    )
    parser.add_argument(
        "--output",
        default="BENCH_serve.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    scale = ServeScale.smoke() if args.scale == "smoke" else ServeScale.full()
    try:
        results = run_benchmark(scale)
    except AssertionError as error:
        print(f"FAIL: serve benchmark exit criterion violated: {error}")
        return 1
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(render(results))
    print(f"wrote {args.output}")
    return 0
