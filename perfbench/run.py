"""Run one workload of the serving-stack benchmark and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload select_fanin --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records spans
around every call into a layer and prints the per-layer metrics instead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Each run also writes
its full record (host fingerprint, samples, spans) under
``perfbench/results/``.

Exit codes: 0 on success; 1 when the outputs diverge from the oracle or
the measurement is void (open-loop backlog grew); 2 when the program's
sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workload(name: str):
    from perfbench import churn, fanin, socket_paced

    return {
        "select_fanin": fanin.run,
        "churn_mixed": churn.run,
        "socket_paced": socket_paced.run,
    }[name]


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    try:
        import repro
    except ImportError:
        repro = None
    if repro is None or not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(
            f"error: the program's sources are missing: run from the root "
            f"of a checkout that holds src/repro (looked in {src})",
            file=sys.stderr,
        )
        return 2
    from perfbench import host, metrics, spans
    from perfbench.common import OracleError
    from perfbench.stats import timing_lines

    if args.workload not in metrics.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(metrics.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    tracer = spans.Tracer(bool(args.trace))
    started = time.perf_counter()
    try:
        outcome = _workload(args.workload)(args.seed, args.seconds, tracer)
    except OracleError as error:
        print(f"ORACLE DIVERGENCE: {error}", file=sys.stderr)
        return 1
    finished = time.perf_counter()

    slowdown = {phase: speed.slowdown() for phase, speed in outcome.speed.items()}
    if args.trace:
        book = spans.ledger(
            tracer.spans, tracer.wall(started), tracer.wall(finished)
        )
        for layer in ("bench", "serve", "shard", "runtime", "lang", "engine", "streams"):
            outcome.layers[f"trace.self_{layer}_s"] = book["layers"].get(layer, 0.0)
        outcome.layers["trace.uncovered_s"] = book["uncovered_s"]
        outcome.layers["trace.wall_s"] = book["wall_s"]
        outcome.layers["trace.reconcile_error"] = book["reconcile_error"]
        catalogue = metrics.PER_LAYER
        values = {name: outcome.layers.get(name, 0.0) for name in catalogue}
    else:
        book = None
        catalogue = metrics.END_TO_END
        values = {name: outcome.e2e[name] for name in catalogue}
        # A workload samples the host's speed only in the phases it scales.
        scaled = {
            name: slowdown[phase] ** exponent
            for name, (phase, exponent) in metrics.HOST_SCALED.items()
            if phase in slowdown
        }
        for name, factor in scaled.items():
            values[name] *= factor
    error_ratio = outcome.failed / max(1, outcome.attempted)
    fingerprint = host.fingerprint()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("host " + json.dumps(fingerprint, sort_keys=True))
    for note in outcome.notes:
        print(f"  {note}")
    for phase, speed in outcome.speed.items():
        print(
            f"  host slowdown in {phase}: {slowdown[phase]:.4f} (median of "
            f"{len(speed.samples)} reference passes over "
            f"{host.REFERENCE_SECONDS * 1e3:g} ms)"
        )
    for name, value in values.items():
        unit = catalogue[name][0]
        if args.trace:
            note = f"  -> {catalogue[name][2]}"
        elif name in scaled:
            note = f"  (measured {outcome.e2e[name]:.4f})"
        else:
            note = ""
        print(f"  {name:34s} {value:14.4f} {unit}{note}")
    print(
        f"  {metrics.ERROR_RATIO:34s} {error_ratio:14.4f} ratio "
        f"({outcome.failed} failed of {outcome.attempted} attempted)"
    )
    for label, samples in outcome.samples.items():
        for name, value, count in timing_lines(label, samples):
            if name not in values:
                print(f"  {name:34s} {value:14.4f} ms   (n={count}, unbounded)")
    if book is not None:
        print(
            f"  ledger: {len(tracer.spans)} spans over {book['lanes']} lanes, "
            f"wall {book['wall_s']:.3f}s, reconcile error "
            f"{book['reconcile_error']:.2e}"
        )

    results = os.path.join(ROOT, "perfbench", "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    with open(stem + ".json", "w") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "host": fingerprint,
                "valid": outcome.valid,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "error_ratio": error_ratio,
                "host_slowdown": slowdown,
                "metrics": values,
                "measured": outcome.e2e,
                "notes": outcome.notes,
                "samples_ms": outcome.samples,
                "ledger": book,
            },
            handle,
            indent=1,
        )
    if args.trace:
        with open(stem + ".spans.jsonl", "w") as handle:
            handle.write(tracer.to_jsonl())

    print(
        json.dumps(
            {
                "correct": outcome.valid,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": catalogue[name][0]}
                    for name, value in values.items()
                },
            }
        )
    )
    if not outcome.valid:
        print("run invalid: see the notes above", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
