"""Spans recorded around the benchmark's calls into each layer.

A span is a dict in the shape of ``repro.obs.trace.Span.as_dict`` —
``trace_id``, ``span_id``, ``parent_id``, ``name``, ``start`` (wall-clock
seconds), ``elapsed_seconds`` and ``attrs`` — so spans the program records
itself can later join the same trees.  The layer of a span is the part of
its name before the first dot (``shard.process_batch`` → ``shard``); the
benchmark's own work is the ``bench`` layer.

Spans stay in memory and are written out when the run ends.  ``start`` is
derived from ``time.perf_counter`` against one wall-clock anchor, so every
span of a run shares one monotonic clock and nested intervals nest exactly.

A span's *self time* is its duration minus the part of it that its child
spans cover.  :func:`ledger` sums self time per layer along each thread
(a *lane*) and checks that self times plus the time no root span covers
add up to the traced wall time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Iterable, Optional

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "trace_id", "attrs", "span_id", "parent", "t0")

    def __init__(self, tracer: "Tracer", name: str, trace_id, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = tracer._stack()
        self.parent = stack[-1] if stack else None
        if self.parent is not None:
            self.trace_id = self.parent.trace_id
        elif self.trace_id is None:
            self.trace_id = f"{self.name}-{next(tracer._trace_ids)}"
        self.span_id = f"b-{next(tracer._span_ids)}"
        stack.append(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc) -> None:
        t1 = time.perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        attrs = dict(self.attrs, lane=threading.current_thread().name)
        if exc_type is not None:
            attrs["error"] = True
        tracer.spans.append(
            {
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": None if self.parent is None else self.parent.span_id,
                "name": self.name,
                "start": tracer.wall(self.t0),
                "elapsed_seconds": t1 - self.t0,
                "attrs": attrs,
            }
        )


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    ``with tracer.span("shard.ping"):`` opens a span whose parent is the
    innermost span open on the same thread; a span with no parent starts a
    new trace (``trace_id`` names it, else one is minted from the span
    name).  Disabled, :meth:`span` returns a shared null context, so the
    untraced runs pay one method call per boundary.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._local = threading.local()
        self._wall0 = time.time()
        self._perf0 = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wall(self, perf: float) -> float:
        """A ``perf_counter`` reading on the wall-clock scale of ``start``."""
        return self._wall0 + (perf - self._perf0)

    def span(self, name: str, trace_id: Optional[str] = None, **attrs):
        if not self.enabled:
            return _NULL
        return _Span(self, name, trace_id, attrs)

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(span, sort_keys=True) + "\n" for span in self.spans
        )


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _end(span: dict) -> float:
    return span["start"] + span["elapsed_seconds"]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """``span_id → self time``: duration minus the union of its children's
    intervals, each clipped to the parent."""
    children: dict = defaultdict(list)
    for span in spans:
        children[span["parent_id"]].append(span)
    result = {}
    for span in spans:
        start, end = span["start"], _end(span)
        covered = union_length(
            (max(start, child["start"]), min(end, _end(child)))
            for child in children.get(span["span_id"], ())
            if _end(child) > start and child["start"] < end
        )
        result[span["span_id"]] = span["elapsed_seconds"] - covered
    return result


def ledger(spans: list[dict], wall_start: float, wall_end: float) -> dict:
    """Per-layer self time and its reconciliation with the traced wall time.

    Each lane (thread) is reconciled on its own: the self times of its
    spans plus the part of ``[wall_start, wall_end]`` its root spans leave
    uncovered must equal the wall time.  They do exactly when children lie
    inside their parents and siblings do not overlap; the largest relative
    mismatch over the lanes is ``reconcile_error``.
    """
    wall = wall_end - wall_start
    own = self_times(spans)
    ids = {span["span_id"] for span in spans}
    lanes: dict = defaultdict(list)
    for span in spans:
        lanes[span["attrs"].get("lane", "")].append(span)
    layers: dict = defaultdict(float)
    uncovered_total = 0.0
    worst = 0.0
    for lane_spans in lanes.values():
        roots = [s for s in lane_spans if s["parent_id"] not in ids]
        uncovered = wall - union_length(
            (max(wall_start, s["start"]), min(wall_end, _end(s)))
            for s in roots
            if _end(s) > wall_start and s["start"] < wall_end
        )
        lane_self = 0.0
        for span in lane_spans:
            layers[layer_of(span["name"])] += own[span["span_id"]]
            lane_self += own[span["span_id"]]
        uncovered_total += uncovered
        if wall > 0:
            worst = max(worst, abs(lane_self + uncovered - wall) / wall)
    return {
        "wall_s": wall,
        "lanes": len(lanes),
        "layers": dict(layers),
        "uncovered_s": uncovered_total,
        "reconcile_error": worst,
    }
