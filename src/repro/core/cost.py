"""An analytical cost model for RUMOR plans (paper §7, future work).

The paper closes by noting that "it is valuable to supplement the rule-based
query optimizer with a cost model, such that the optimizer can drive the rule
applications based on a cost function".  This module provides that
supplement:

- :class:`SelectivityEstimator` — heuristic selectivities for predicates
  (equality through an assumed domain size, inequalities via fixed
  fractions, conjunction via independence);
- :class:`CostModel` — per-tuple processing cost of a plan, derived by
  propagating estimated tuple rates through the m-op DAG with per-m-op-kind
  cost formulas.  The formulas charge exactly the effects the paper's
  heuristics reason about: hash lookups vs sequential scans for selections,
  per-instance state touches for event operators, and the channel
  overhead/savings trade-off of §3.2 (membership handling per tuple vs
  one-evaluation-for-n-queries).

The model is intentionally coarse — its purpose is *ordering* alternative
plans, not predicting wall-clock time.  ``CostModel.plan_cost`` is used by
the ablation benchmarks and by :func:`cheapest_plan` to realize a minimal
cost-based optimizer: build candidate plans under different rule sets and
keep the cheapest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.plan import QueryPlan
from repro.operators.expressions import LEFT, RIGHT
from repro.operators.predicates import (
    And,
    Comparison,
    DurationWithin,
    FalsePredicate,
    Not,
    Or,
    Predicate,
    TruePredicate,
    as_constant_equality,
)


@dataclass
class SelectivityEstimator:
    """Heuristic predicate selectivities.

    ``domain_size`` is the assumed distinct-value count behind equality
    predicates (the paper's synthetic attributes draw from 1000 values).
    """

    domain_size: int = 1000
    inequality_selectivity: float = 1.0 / 3.0
    range_selectivity: float = 0.5

    def selectivity(self, predicate: Predicate) -> float:
        if isinstance(predicate, TruePredicate):
            return 1.0
        if isinstance(predicate, FalsePredicate):
            return 0.0
        if isinstance(predicate, DurationWithin):
            return 1.0  # duration handled through state sizing, not rate
        if isinstance(predicate, And):
            result = 1.0
            for part in predicate.parts:
                result *= self.selectivity(part)
            return result
        if isinstance(predicate, Or):
            result = 1.0
            for part in predicate.parts:
                result *= 1.0 - self.selectivity(part)
            return 1.0 - result
        if isinstance(predicate, Not):
            return 1.0 - self.selectivity(predicate.part)
        if isinstance(predicate, Comparison):
            if predicate.op == "==":
                return 1.0 / max(2, self.domain_size)
            if predicate.op == "!=":
                return 1.0 - 1.0 / max(2, self.domain_size)
            return self.inequality_selectivity
        return self.range_selectivity


#: Relative unit costs of primitive actions (hash lookup ≪ predicate eval).
HASH_LOOKUP_COST = 0.3
PREDICATE_EVAL_COST = 1.0
EMIT_COST = 0.5
MEMBERSHIP_COST = 0.1  # per-tuple channel decode/encode overhead (§3.2)
STATE_TOUCH_COST = 0.8


@dataclass
class CostModel:
    """Per-tuple cost estimation over a query plan."""

    selectivity: SelectivityEstimator = field(default_factory=SelectivityEstimator)

    # -- public API ---------------------------------------------------------------

    def plan_cost(self, plan: QueryPlan) -> float:
        """Expected processing cost per unit of source input.

        Source streams are assigned rate 1; every m-op charges its per-kind
        formula against its input rates and propagates estimated output
        rates downstream (topologically, which plan construction order
        already guarantees).
        """
        rates: dict[int, float] = {}
        for source in plan.sources:
            rates[source.stream_id] = 1.0
        total = 0.0
        for mop in self._topological(plan):
            total += self._mop_cost(plan, mop, rates)
        return total

    def compare(self, first: QueryPlan, second: QueryPlan) -> float:
        """cost(first) - cost(second); negative means ``first`` is cheaper."""
        return self.plan_cost(first) - self.plan_cost(second)

    # -- internals ------------------------------------------------------------------

    def _topological(self, plan: QueryPlan):
        """M-ops in dependency order (inputs before consumers)."""
        produced: set[int] = {source.stream_id for source in plan.sources}
        remaining = list(plan.mops)
        ordered = []
        while remaining:
            progressed = False
            for mop in list(remaining):
                if all(
                    stream.stream_id in produced for stream in mop.input_streams
                ):
                    ordered.append(mop)
                    remaining.remove(mop)
                    produced.update(
                        stream.stream_id for stream in mop.output_streams
                    )
                    progressed = True
            if not progressed:  # cycle-safe fallback; plans are DAGs
                ordered.extend(remaining)
                break
        return ordered

    def _rate_of(self, rates: dict[int, float], stream) -> float:
        return rates.get(stream.stream_id, 0.0)

    def _mop_cost(self, plan: QueryPlan, mop, rates: dict[int, float]) -> float:
        from repro.mops.channel_ops import (
            ChannelProjectionMOp,
            ChannelSelectionMOp,
        )
        from repro.mops.channel_sequence import ChannelSequenceMOp
        from repro.mops.fragment_aggregate import FragmentAggregateMOp
        from repro.mops.precision_join import PrecisionJoinMOp
        from repro.mops.predicate_index import PredicateIndexMOp
        from repro.mops.shared_aggregate import SharedAggregateMOp
        from repro.mops.shared_join import SharedJoinMOp
        from repro.mops.shared_sequence import (
            IndexedSequenceMOp,
            SharedSequenceMOp,
        )
        from repro.mops.shared_window_sequence import SharedWindowSequenceMOp
        from repro.operators.aggregate import SlidingWindowAggregate
        from repro.operators.iterate import Iterate
        from repro.operators.join import SlidingWindowJoin
        from repro.operators.project import Projection
        from repro.operators.select import Selection
        from repro.operators.sequence import Sequence

        instances = mop.instances
        count = len(instances)
        input_rate = sum(
            self._rate_of(rates, stream) for stream in mop.input_streams
        )
        membership = self._membership_overhead(plan, mop)

        if isinstance(mop, PredicateIndexMOp):
            indexed, scanned = self._split_indexable(instances)
            cost = input_rate * (
                HASH_LOOKUP_COST * max(1, len(indexed))
                + PREDICATE_EVAL_COST * len(scanned)
                + membership
            )
        elif isinstance(mop, (ChannelSelectionMOp, ChannelProjectionMOp)):
            # one evaluation per channel tuple regardless of member count
            cost = input_rate * (PREDICATE_EVAL_COST + membership)
        elif isinstance(mop, FragmentAggregateMOp):
            cost = input_rate * (STATE_TOUCH_COST + membership)
        elif isinstance(mop, ChannelSequenceMOp):
            cost = input_rate * (STATE_TOUCH_COST + HASH_LOOKUP_COST + membership)
        elif isinstance(mop, PrecisionJoinMOp):
            cost = input_rate * (
                STATE_TOUCH_COST + HASH_LOOKUP_COST + membership
            )
        elif isinstance(mop, SharedAggregateMOp):
            cost = input_rate * STATE_TOUCH_COST * count
        elif isinstance(mop, SharedJoinMOp):
            cost = input_rate * (STATE_TOUCH_COST + HASH_LOOKUP_COST)
        elif isinstance(mop, (SharedSequenceMOp, SharedWindowSequenceMOp)):
            cost = input_rate * (STATE_TOUCH_COST + HASH_LOOKUP_COST)
        elif isinstance(mop, IndexedSequenceMOp):
            cost = input_rate * (HASH_LOOKUP_COST + STATE_TOUCH_COST)
        else:  # naive m-op: every instance charged individually
            cost = 0.0
            for instance in instances:
                operator = instance.operator
                rate = sum(
                    self._rate_of(rates, stream) for stream in instance.inputs
                )
                if isinstance(operator, Selection):
                    cost += rate * PREDICATE_EVAL_COST
                elif isinstance(operator, Projection):
                    cost += rate * PREDICATE_EVAL_COST
                elif isinstance(operator, SlidingWindowAggregate):
                    cost += rate * STATE_TOUCH_COST
                elif isinstance(operator, (SlidingWindowJoin, Sequence, Iterate)):
                    cost += rate * (STATE_TOUCH_COST + PREDICATE_EVAL_COST)
                else:
                    cost += rate * PREDICATE_EVAL_COST
            cost += input_rate * membership

        self._propagate_rates(plan, mop, rates)
        return cost + self._emit_rate(mop, rates) * EMIT_COST

    def _membership_overhead(self, plan: QueryPlan, mop) -> float:
        """The §3.2 time overhead: membership handling on non-singleton channels."""
        overhead = 0.0
        seen: set[int] = set()
        for stream in mop.input_streams:
            channel = plan.channel_of(stream)
            if channel.channel_id in seen:
                continue
            seen.add(channel.channel_id)
            if not channel.is_singleton:
                overhead += MEMBERSHIP_COST
        return overhead

    def _split_indexable(self, instances):
        indexed, scanned = [], []
        for instance in instances:
            shape = as_constant_equality(instance.operator.predicate)
            if shape is not None and shape[0] == LEFT:
                indexed.append(instance)
            else:
                scanned.append(instance)
        return indexed, scanned

    def _propagate_rates(self, plan: QueryPlan, mop, rates: dict[int, float]):
        from repro.operators.aggregate import SlidingWindowAggregate
        from repro.operators.iterate import Iterate
        from repro.operators.join import SlidingWindowJoin
        from repro.operators.select import Selection
        from repro.operators.sequence import Sequence

        for instance in mop.instances:
            operator = instance.operator
            input_rate = sum(
                self._rate_of(rates, stream) for stream in instance.inputs
            )
            if isinstance(operator, Selection):
                rate = input_rate * self.selectivity.selectivity(operator.predicate)
            elif isinstance(operator, SlidingWindowAggregate):
                rate = self._rate_of(rates, instance.inputs[0])
            elif isinstance(operator, SlidingWindowJoin):
                rate = input_rate * self.selectivity.selectivity(operator.predicate)
            elif isinstance(operator, Sequence):
                rate = input_rate * self.selectivity.selectivity(operator.predicate)
            elif isinstance(operator, Iterate):
                rate = input_rate * self.selectivity.selectivity(operator.forward)
            else:
                rate = input_rate
            existing = rates.get(instance.output.stream_id)
            rates[instance.output.stream_id] = (
                rate if existing is None else max(existing, rate)
            )

    def _emit_rate(self, mop, rates: dict[int, float]) -> float:
        return sum(
            rates.get(stream.stream_id, 0.0) for stream in mop.output_streams
        )


def cheapest_plan(
    plan_factories: Sequence[Callable[[], QueryPlan]],
    model: Optional[CostModel] = None,
) -> tuple[QueryPlan, float, int]:
    """Minimal cost-based optimization: build candidates, keep the cheapest.

    Returns ``(plan, cost, index)`` of the winning factory.  This is the §7
    sketch made concrete: the rule engine produces alternatives (e.g. with
    and without channel rules) and the cost model arbitrates.
    """
    if model is None:
        model = CostModel()
    best = None
    for index, factory in enumerate(plan_factories):
        plan = factory()
        cost = model.plan_cost(plan)
        if best is None or cost < best[1]:
            best = (plan, cost, index)
    if best is None:
        raise ValueError("no plan factories supplied")
    return best
