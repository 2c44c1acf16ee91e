"""Rebalance policies for the sharded coordinator.

A policy looks at a :class:`~repro.shard.proc.ProcessShardedRuntime`
(inline or forked workers — its ``shard_ids`` / ``shard_loads`` /
``queries_on`` / ``shard_stats`` / ``component_queries`` /
``shard_telemetry``) and proposes an ordered iterable of
``(query_id, to_shard)`` candidate moves; the churn driver tries them
until one sticks (a candidate can fail when its component turns out to
co-locate with queries the policy did not know about).  Candidates are
yielded lazily: the per-candidate component lookup — one worker RPC — is
only paid for candidates the caller actually tries.

Two policies:

- :class:`QueryCountPolicy` — the PR-3 behaviour: level active query counts,
  moving one query's component from the most- to the least-loaded shard.
  Extended with the ROADMAP's oversized-component alerting: a component
  whose query count exceeds the per-shard target cannot improve the balance
  by moving (a sharing group is the atomic placement unit), so it is
  skipped, logged, and counted in :attr:`RebalancePolicy.oversized_alerts`.

- :class:`ThroughputPolicy` — the adaptive policy: per-shard
  :class:`~repro.engine.metrics.RunStats` *deltas* since the last decision
  identify the slowest shard (most engine-busy time per decision window)
  and the hottest components on it (most outputs attributed to their
  queries), and the policy proposes moving the hottest component off the
  slowest shard onto the least-busy one.  Busy-time deltas rather than
  cumulative totals keep the signal responsive under churn: a shard that
  *was* hot an hour ago but drained since stops attracting moves.
"""

from __future__ import annotations

import logging
import math
from typing import Optional

logger = logging.getLogger(__name__)


class RebalancePolicy:
    """Base: propose candidate moves; track oversized-component alerts.

    Policies also steer elastic topology changes: :meth:`on_grow` proposes
    the moves that seed a freshly added worker, and :meth:`on_shrink`
    picks where each component of a departing worker should land.
    """

    def __init__(self):
        #: Times a candidate component was skipped because it exceeded the
        #: per-shard target and therefore could not improve the balance.
        self.oversized_alerts = 0

    def propose(self, runtime):
        """Ordered ``(query_id, to_shard)`` candidates (lazy, may be empty)."""
        raise NotImplementedError

    def on_grow(self, runtime, new_shard: int) -> list[tuple[str, int]]:
        """Moves that seed a just-added (empty) worker.

        Default: level query counts — drain the most-loaded shards onto
        the newcomer until it reaches the per-shard target.  Loads are
        tracked locally while choosing, so one call proposes the whole
        seeding batch without re-polling the runtime.
        """
        ids = runtime.shard_ids()
        loads = dict(zip(ids, runtime.shard_loads()))
        loads.setdefault(new_shard, 0)
        total = sum(loads.values())
        target = math.ceil(total / len(loads)) if total else 0
        remaining = {
            shard: list(runtime.queries_on(shard))
            for shard in loads
            if shard != new_shard
        }
        moves: list[tuple[str, int]] = []
        while loads[new_shard] < target:
            donor = max(
                remaining,
                key=lambda shard: (loads[shard], -shard),
            )
            if loads[donor] <= loads[new_shard] + 1 or not remaining[donor]:
                break
            query_id = remaining[donor].pop(0)
            moves.append((query_id, new_shard))
            loads[donor] -= 1
            loads[new_shard] += 1
        return moves

    def on_shrink(self, runtime, departing: int, query_id: str) -> Optional[int]:
        """Target shard for one component draining off ``departing``.

        ``None`` delegates to the runtime's default (least-loaded
        survivor).  Subclasses with a richer signal override this.
        """
        return None

    def _improves(self, donor_load: int, target_load: int, size: int) -> bool:
        """Whether moving a ``size``-query component can improve balance.

        The count-levelling default: the receiver must end up strictly
        less loaded than the donor is now.  The throughput policy relaxes
        this (its signal is busy time, not counts) and only refuses moves
        that would relocate the donor's entire population.
        """
        return target_load + size < donor_load

    def _filter_oversized(
        self, runtime, candidates: list[tuple[str, int]], donor_load: int, target_load: int
    ):
        """Yield candidates whose component could improve the balance.

        Lazy on purpose: the component lookup costs a worker round-trip,
        and the churn driver stops at the first candidate that rebalances
        successfully — later candidates are never priced.
        """
        total = len(runtime.active_queries)
        per_shard_target = math.ceil(total / runtime.n_shards) if total else 0
        for query_id, to_shard in candidates:
            component = runtime.component_queries(query_id)
            size = len(component)
            if not self._improves(donor_load, target_load, size):
                # Moving the whole component cannot improve the balance.
                if size > per_shard_target:
                    self.oversized_alerts += 1
                    logger.warning(
                        "oversized component (%d queries, per-shard target %d) "
                        "anchored to shard %d cannot be rebalanced: %s",
                        size,
                        per_shard_target,
                        runtime.shard_of(query_id),
                        component,
                    )
                continue
            yield query_id, to_shard


class QueryCountPolicy(RebalancePolicy):
    """Level active query counts (the PR-3 drive_sharded heuristic)."""

    def propose(self, runtime) -> list[tuple[str, int]]:
        ids = runtime.shard_ids()
        loads = dict(zip(ids, runtime.shard_loads()))
        donor = max(ids, key=lambda shard: (loads[shard], -shard))
        target = min(ids, key=lambda shard: (loads[shard], shard))
        if donor == target or loads[donor] <= loads[target] + 1:
            return []
        candidates = [
            (query_id, target) for query_id in runtime.queries_on(donor)
        ]
        return self._filter_oversized(
            runtime, candidates, loads[donor], loads[target]
        )


class ThroughputPolicy(RebalancePolicy):
    """Move the hottest component off the slowest shard.

    ``min_ratio`` guards against thrash: no move is proposed unless the
    slowest shard's busy-time delta exceeds the fastest's by that factor
    (with an absolute floor of ``min_busy_seconds`` so cold starts and
    measurement noise do not trigger moves).

    ``heat`` selects how the donor's components are ranked:

    - ``"outputs"`` (default) — per-query output deltas from
      :class:`~repro.engine.metrics.RunStats`, always available.
    - ``"busy"`` — per-query engine busy-time deltas from the telemetry
      subsystem (:meth:`shard_telemetry` / per-m-op sampled busy time,
      attributed to queries).  A sharing group that produces few outputs
      but burns CPU (heavy selections, wide joins) ranks where it belongs.
      Falls back to output deltas when the runtime is not observing.
    """

    def __init__(
        self,
        min_ratio: float = 1.5,
        min_busy_seconds: float = 0.0,
        heat: str = "outputs",
    ):
        super().__init__()
        if min_ratio < 1.0:
            raise ValueError(f"min_ratio must be >= 1.0, got {min_ratio}")
        if heat not in ("outputs", "busy"):
            raise ValueError(f"heat must be 'outputs' or 'busy', got {heat!r}")
        self.min_ratio = min_ratio
        self.min_busy_seconds = min_busy_seconds
        self.heat = heat
        # Keyed by shard id, not position: elastic resizes renumber
        # nothing, so deltas stay attributable across grow/shrink.  A
        # changed id set resets the window (absolute values serve as the
        # first delta, as before).
        self._previous_busy: Optional[dict[int, float]] = None
        self._previous_outputs: Optional[dict[int, dict]] = None
        self._previous_heat: Optional[dict[int, dict]] = None

    def _improves(self, donor_load: int, target_load: int, size: int) -> bool:
        # Busy time, not query count, is the signal: a move helps unless
        # it relocates the donor's whole population (the hotspot would
        # just change shards).
        return size < donor_load

    def propose(self, runtime) -> list[tuple[str, int]]:
        ids = runtime.shard_ids()
        stats = runtime.shard_stats()
        busy = {
            shard: entry.elapsed_seconds for shard, entry in zip(ids, stats)
        }
        outputs = {
            shard: dict(entry.outputs_by_query)
            for shard, entry in zip(ids, stats)
        }
        if (
            self._previous_busy is None
            or set(self._previous_busy) != set(busy)
        ):
            delta_busy = busy
            delta_outputs = outputs
        else:
            delta_busy = {
                shard: now - self._previous_busy[shard]
                for shard, now in busy.items()
            }
            delta_outputs = {
                shard: {
                    query_id: count
                    - self._previous_outputs[shard].get(query_id, 0)
                    for query_id, count in now.items()
                }
                for shard, now in outputs.items()
            }
        self._previous_busy = busy
        self._previous_outputs = outputs
        delta_heat = self._busy_heat_deltas(runtime, ids)
        donor = max(ids, key=lambda shard: (delta_busy[shard], -shard))
        target = min(ids, key=lambda shard: (delta_busy[shard], shard))
        if donor == target:
            return []
        if delta_busy[donor] < self.min_busy_seconds:
            return []
        if delta_busy[donor] <= delta_busy[target] * self.min_ratio:
            return []
        heat = delta_outputs[donor]
        if delta_heat is not None and delta_heat.get(donor):
            heat = delta_heat[donor]
        candidates = sorted(
            runtime.queries_on(donor),
            key=lambda query_id: (-heat.get(query_id, 0), query_id),
        )
        loads = dict(zip(ids, runtime.shard_loads()))
        return self._filter_oversized(
            runtime,
            [(query_id, target) for query_id in candidates],
            loads[donor],
            loads[target],
        )

    def on_shrink(self, runtime, departing: int, query_id: str) -> Optional[int]:
        """Land draining components on the least-busy survivor.

        Uses the last observed busy-time window; falls back to the
        runtime's least-loaded default before the first :meth:`propose`.
        """
        if self._previous_busy is None:
            return None
        survivors = [
            shard
            for shard in runtime.shard_ids()
            if shard != departing and shard in self._previous_busy
        ]
        if not survivors:
            return None
        return min(
            survivors,
            key=lambda shard: (self._previous_busy[shard], shard),
        )

    def _busy_heat_deltas(self, runtime, ids) -> Optional[dict]:
        """Per-shard ``{query_id: busy-seconds delta}`` maps keyed by shard
        id, or ``None`` when busy heat is off."""
        if self.heat != "busy":
            return None
        heat_now = {
            shard: dict(view["query_heat"])
            for shard, view in zip(ids, runtime.shard_telemetry())
        }
        if (
            self._previous_heat is None
            or set(self._previous_heat) != set(heat_now)
        ):
            delta_heat = heat_now
        else:
            delta_heat = {
                shard: {
                    query_id: value
                    - self._previous_heat[shard].get(query_id, 0.0)
                    for query_id, value in now.items()
                }
                for shard, now in heat_now.items()
            }
        self._previous_heat = heat_now
        return delta_heat
