"""Recovery benchmark: restore-from-checkpoint vs replay-from-start.

Measures what the durable checkpoint subsystem buys on a crash: the same
churn schedule is served through a 2-worker :class:`ProcessShardedRuntime`
with a deterministic mid-stream worker crash
(``WorkerFaults(crash_on=("data", k))``) under three recovery policies —

- ``blank`` — non-durable (the PR-4 baseline): respawn + blank
  re-registration, operator state and captured history dropped;
- ``replay-from-start`` — durable with no checkpoints: the write-ahead log
  replays every tuple ever shipped to the dead shard;
- ``checkpoint@N`` — durable with a checkpoint round every ``N`` batches:
  restore the latest cut, replay only the log suffix.

Reported per policy: recovery wall-clock, tuples replayed (the replay
volume the checkpoint interval bounds), lifecycle commands replayed,
operator state restored from blobs, and whether the post-recovery serve is
byte-identical to a fault-free reference served on inline workers
(``open_runtime(shards=2)``).

Exit criteria — the script exits non-zero, printing ``FAIL:`` and the
violated criterion (all are deterministic structural comparisons, no
timing tolerance):

1. every durable policy's captured outputs are byte-identical to the
   fault-free reference (the blank baseline is *expected* to lose output
   and is asserted to — that is the gap the subsystem closes);
2. every checkpointed policy replays **strictly fewer** tuples than
   replay-from-start on the same crash schedule (the ISSUE 5 acceptance
   criterion);
3. a coordinator killed mid-serve cold-starts from its on-disk journal —
   fleet respawned from checkpoints + WAL suffixes — and the resumed
   serve ends byte-identical to the fault-free reference (the ISSUE 7
   acceptance criterion);
4. differential checkpoint rounds ship **strictly fewer** bytes over the
   wire than full rounds on the same schedule, and stay byte-identical.

Wall-clock columns are informational only.  (Replay volume is *bounded*
by roughly twice the checkpoint interval — last cut before the crash to
first detection after it — but is not monotone in the interval for a
single crash point: the crash's phase relative to the cadence decides
where in that window it lands.)

Run standalone (writes ``BENCH_recovery.json``)::

    PYTHONPATH=src python benchmarks/bench_recovery.py
    PYTHONPATH=src python benchmarks/bench_recovery.py --scale smoke
"""

from __future__ import annotations

import json
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import CoordinatorCrashError
from repro.runtime.config import open_runtime
from repro.shard import (
    CoordinatorFaults,
    ProcessShardedRuntime,
    WorkerFaults,
    fork_available,
)
from repro.workloads.churn import ChurnWorkload, drive_sharded, resume_tail

#: The 4-template pool: sequences, shared aggregates and joins all carry
#: operator state through the crash.
TEMPLATES = ("select", "sequence", "aggregate", "join")

FAST = {"command_timeout": 0.5, "max_retries": 120}


@dataclass
class RecoveryScale:
    name: str
    horizon: int
    arrival_rate: float
    mean_lifetime: float
    initial_queries: int
    crash_at: int  # nth run frame on the doomed shard
    intervals: tuple  # checkpoint_every values to sweep (0 = WAL only)
    coordinator_crash_at: int  # nth journal batch append kills the head
    seed: int = 7

    @classmethod
    def full(cls) -> "RecoveryScale":
        return cls(
            name="full",
            horizon=1500,
            arrival_rate=0.03,
            mean_lifetime=400.0,
            initial_queries=6,
            crash_at=400,
            intervals=(0, 64, 16),
            coordinator_crash_at=30,
        )

    @classmethod
    def smoke(cls) -> "RecoveryScale":
        return cls(
            name="smoke",
            horizon=400,
            arrival_rate=0.04,
            mean_lifetime=150.0,
            initial_queries=4,
            crash_at=80,
            intervals=(0, 32, 8),
            coordinator_crash_at=12,
        )


def _workload(scale: RecoveryScale) -> ChurnWorkload:
    return ChurnWorkload(
        arrival_rate=scale.arrival_rate,
        mean_lifetime=scale.mean_lifetime,
        horizon=scale.horizon,
        initial_queries=scale.initial_queries,
        seed=scale.seed,
        templates=TEMPLATES,
    )


def _reference(scale: RecoveryScale):
    workload = _workload(scale)
    sources = {"S": workload.schema, "T": workload.schema}
    reference = open_runtime(sources=sources, shards=2, capture_outputs=True)
    for __ in drive_sharded(
        reference, workload.stream_events(), workload.schedule()
    ):
        pass
    return reference


def serve_with_crash(
    scale: RecoveryScale, durable: bool, checkpoint_every: int
) -> dict:
    """One crashed serve under one recovery policy; returns its cell."""
    workload = _workload(scale)
    sources = {"S": workload.schema, "T": workload.schema}
    proc = open_runtime(
        sources=sources,
        process=True,
        shards=2,
        capture_outputs=True,
        durable=durable,
        checkpoint_every=checkpoint_every,
        extra={
            "worker_faults": {
                0: WorkerFaults(crash_on=("data", scale.crash_at))
            }
        },
        **FAST,
    )
    try:
        for __ in drive_sharded(
            proc, workload.stream_events(), workload.schedule()
        ):
            pass
        stats = proc.collect_stats()  # forces detection if still pending
        assert proc.crash_recoveries >= 1, (
            f"the seeded crash at data frame {scale.crash_at} never fired; "
            f"lower crash_at for this horizon"
        )
        report = proc.recovery_log[0]
        captured = {
            query_id: list(history)
            for query_id, history in proc.captured.items()
        }
        if durable:
            policy = (
                f"checkpoint@{checkpoint_every}"
                if checkpoint_every
                else "replay-from-start"
            )
        else:
            policy = "blank"
        return {
            "policy": policy,
            "durable": durable,
            "checkpoint_every": checkpoint_every,
            "checkpoint_version": report.checkpoint_version,
            "recovery_seconds": report.elapsed_seconds,
            "tuples_replayed": report.tuples_replayed,
            "lifecycle_replayed": report.lifecycle_replayed,
            "state_restored": report.state_restored,
            "state_lost": report.state_lost,
            "queries_restored": len(report.queries_restored),
            "queries_replayed": len(report.queries_replayed),
            "outputs": {
                query_id: count
                for query_id, count in sorted(stats.outputs_by_query.items())
            },
            "_captured": captured,
        }
    finally:
        proc.close()


def serve_cold_start(scale: RecoveryScale, checkpoint_every: int) -> dict:
    """Kill the coordinator mid-serve, cold-start from the journal, finish.

    Total loss: the fleet is terminated with the coordinator (``abandon``),
    leaving only the on-disk journal + checkpoint store.  The cell reports
    how long :meth:`ProcessShardedRuntime.from_journal` took to respawn the
    fleet (checkpoint restore + WAL suffix replay, measured to the first
    settled RPC) and whether the resumed serve ends byte-identical.
    """
    workload = _workload(scale)
    sources = {"S": workload.schema, "T": workload.schema}
    streams = list(workload.stream_events())
    churn = list(workload.schedule())
    with tempfile.TemporaryDirectory() as journal_dir:
        proc = open_runtime(
            sources=sources,
            process=True,
            shards=2,
            capture_outputs=True,
            checkpoint_every=checkpoint_every,
            journal=journal_dir,
            extra={
                "coordinator_faults": CoordinatorFaults(
                    crash_on=("batch", scale.coordinator_crash_at),
                    when="after",
                )
            },
            **FAST,
        )
        try:
            for __ in drive_sharded(proc, streams, churn):
                pass
        except CoordinatorCrashError:
            pass
        else:
            raise AssertionError(
                f"the seeded coordinator crash at batch append "
                f"{scale.coordinator_crash_at} never fired; lower "
                f"coordinator_crash_at for this horizon"
            )
        proc.abandon()

        started = time.perf_counter()
        successor = ProcessShardedRuntime.from_journal(journal_dir)
        successor.collect_stats()  # forces the respawn + restore to settle
        resume_seconds = time.perf_counter() - started
        try:
            resume_point = successor.input_positions()
            stream_tail, churn_tail = resume_tail(
                streams, churn, resume_point, successor.lifecycle_ops
            )
            for __ in drive_sharded(successor, stream_tail, churn_tail):
                pass
            stats = successor.collect_stats()
            return {
                "policy": f"cold-start@{checkpoint_every}",
                "checkpoint_every": checkpoint_every,
                "resume_seconds": resume_seconds,
                "journal_records": successor._journal.record_count(),
                "events_already_served": sum(resume_point.values()),
                "events_reserved_after_resume": len(stream_tail),
                "outputs": {
                    query_id: count
                    for query_id, count in sorted(
                        stats.outputs_by_query.items()
                    )
                },
                "_captured": {
                    query_id: list(history)
                    for query_id, history in successor.captured.items()
                },
            }
        finally:
            successor.close()


def serve_wire_bytes(scale: RecoveryScale, differential: bool) -> dict:
    """One fault-free durable serve, reporting checkpoint wire volume."""
    workload = _workload(scale)
    sources = {"S": workload.schema, "T": workload.schema}
    interval = min(i for i in scale.intervals if i)
    proc = open_runtime(
        sources=sources,
        process=True,
        shards=2,
        capture_outputs=True,
        durable=True,
        checkpoint_every=interval,
        differential=differential,
        **FAST,
    )
    try:
        for __ in drive_sharded(
            proc, workload.stream_events(), workload.schedule()
        ):
            pass
        proc.collect_stats()
        return {
            "policy": (
                f"differential@{interval}" if differential else f"full@{interval}"
            ),
            "checkpoint_every": interval,
            "differential": differential,
            "checkpoints_stored": proc.checkpoints_stored,
            "wire_bytes": proc.checkpoint_wire_bytes,
            "_captured": {
                query_id: list(history)
                for query_id, history in proc.captured.items()
            },
        }
    finally:
        proc.close()


def run_benchmark(scale: RecoveryScale) -> dict:
    reference = _reference(scale)
    cells = [serve_with_crash(scale, durable=False, checkpoint_every=0)]
    for interval in scale.intervals:
        cells.append(serve_with_crash(scale, durable=True, checkpoint_every=interval))

    for cell in cells:
        identical = cell.pop("_captured") == reference.captured
        cell["byte_identical"] = identical
        if cell["durable"]:
            assert identical, (
                f"{cell['policy']}: post-recovery captured outputs diverged "
                f"from the fault-free reference"
            )
        else:
            assert not identical, (
                "the blank baseline unexpectedly kept every output — the "
                "crash schedule is not exercising state loss"
            )
            assert cell["state_lost"], "blank recovery must report state loss"

    by_policy = {cell["policy"]: cell for cell in cells}
    baseline = by_policy["replay-from-start"]
    checkpointed = [
        cell for cell in cells if cell["durable"] and cell["checkpoint_every"]
    ]
    for cell in checkpointed:
        assert cell["tuples_replayed"] < baseline["tuples_replayed"], (
            f"{cell['policy']} replayed {cell['tuples_replayed']} tuples, "
            f"not strictly fewer than replay-from-start's "
            f"{baseline['tuples_replayed']}"
        )

    best = min(checkpointed, key=lambda cell: cell["tuples_replayed"])

    # ISSUE 7 cells: coordinator cold start + differential wire volume.
    cold = serve_cold_start(scale, checkpoint_every=min(
        interval for interval in scale.intervals if interval
    ))
    cold["byte_identical"] = cold.pop("_captured") == reference.captured
    assert cold["byte_identical"], (
        "cold-start from the coordinator journal diverged from the "
        "fault-free reference"
    )
    full_wire = serve_wire_bytes(scale, differential=False)
    diff_wire = serve_wire_bytes(scale, differential=True)
    for cell in (full_wire, diff_wire):
        cell["byte_identical"] = cell.pop("_captured") == reference.captured
        assert cell["byte_identical"], (
            f"{cell['policy']}: checkpointed serve diverged from the "
            f"fault-free reference"
        )
    assert diff_wire["wire_bytes"] < full_wire["wire_bytes"], (
        f"differential rounds shipped {diff_wire['wire_bytes']} bytes, not "
        f"strictly fewer than full rounds' {full_wire['wire_bytes']}"
    )

    return {
        "benchmark": "recovery",
        "scale": scale.name,
        "crash_at_data_frame": scale.crash_at,
        "coordinator_crash_at_batch": scale.coordinator_crash_at,
        "horizon": scale.horizon,
        "cells": {cell["policy"]: cell for cell in cells},
        "coordinator": {cold["policy"]: cold},
        "checkpoint_wire": {
            cell["policy"]: cell for cell in (full_wire, diff_wire)
        },
        "headline": {
            "replay_from_start_tuples": baseline["tuples_replayed"],
            "best_checkpoint_policy": best["policy"],
            "best_checkpoint_tuples": best["tuples_replayed"],
            "replay_reduction": (
                round(
                    baseline["tuples_replayed"]
                    / max(best["tuples_replayed"], 1),
                    2,
                )
            ),
            "cold_start_resume_ms": round(cold["resume_seconds"] * 1e3, 1),
            "differential_wire_reduction": round(
                full_wire["wire_bytes"] / max(diff_wire["wire_bytes"], 1), 2
            ),
        },
    }


def render(results: dict) -> str:
    lines = [
        f"recovery benchmark ({results['scale']} scale, crash at data frame "
        f"{results['crash_at_data_frame']}, horizon {results['horizon']})",
        f"{'policy':<20} {'replayed':>9} {'lifecycle':>9} {'restored':>9} "
        f"{'recover ms':>11} {'identical':>10}",
    ]
    for policy, cell in results["cells"].items():
        lines.append(
            f"{policy:<20} {cell['tuples_replayed']:>9} "
            f"{cell['lifecycle_replayed']:>9} {cell['state_restored']:>9} "
            f"{cell['recovery_seconds'] * 1e3:>11.1f} "
            f"{str(cell['byte_identical']):>10}"
        )
    for policy, cell in results["coordinator"].items():
        lines.append(
            f"{policy:<20} coordinator killed at batch append "
            f"{results['coordinator_crash_at_batch']}: resumed "
            f"{cell['events_reserved_after_resume']} events after "
            f"{cell['events_already_served']} journaled ones in "
            f"{cell['resume_seconds'] * 1e3:.1f} ms "
            f"(identical={cell['byte_identical']})"
        )
    for policy, cell in results["checkpoint_wire"].items():
        lines.append(
            f"{policy:<20} {cell['checkpoints_stored']} rounds shipped "
            f"{cell['wire_bytes']} bytes "
            f"(identical={cell['byte_identical']})"
        )
    headline = results["headline"]
    lines.append(
        f"headline: {headline['best_checkpoint_policy']} replays "
        f"{headline['best_checkpoint_tuples']} tuples vs "
        f"{headline['replay_from_start_tuples']} from start "
        f"({headline['replay_reduction']}x less replay); cold start resumed "
        f"in {headline['cold_start_resume_ms']} ms; differential rounds "
        f"ship {headline['differential_wire_reduction']}x fewer bytes"
    )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="crash-recovery benchmark (checkpoint restore vs replay)"
    )
    parser.add_argument(
        "--scale", choices=["full", "smoke"], default="full",
        help="smoke: reduced event counts for CI",
    )
    parser.add_argument(
        "--output", default="BENCH_recovery.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    if not fork_available():
        print(
            "SKIP: recovery benchmark requires the fork start method",
            file=sys.stderr,
        )
        return 0
    scale = (
        RecoveryScale.smoke() if args.scale == "smoke" else RecoveryScale.full()
    )
    try:
        results = run_benchmark(scale)
    except AssertionError as error:
        print(
            f"FAIL: recovery benchmark exit criterion violated: {error}",
            file=sys.stderr,
        )
        return 1
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(render(results))
    print(
        "PASS: durable recoveries byte-identical; every checkpoint interval "
        "replays strictly fewer tuples than replay-from-start; coordinator "
        "cold start byte-identical; differential rounds ship strictly "
        "fewer bytes"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
