"""RUMOR — a rule-based multi-query optimization framework for data streams.

A from-scratch Python reproduction of *Rule-Based Multi-Query Optimization*
(Hong, Riedewald, Koch, Gehrke, Demers — EDBT 2009).  The package provides:

- the three RUMOR abstractions — physical multi-operators
  (:class:`~repro.core.MOp`), multi-query transformation rules
  (:class:`~repro.core.MRule`) and channels
  (:class:`~repro.streams.Channel`) — plus the Table 1 rule set and the
  priority-ordered rule engine (:class:`~repro.core.Optimizer`);
- the relational and event operator suite (σ, π, α, ⋈, ``;``, ``µ``);
- a Cayuga-style automaton engine (:mod:`repro.automata`) used as the
  baseline comparator, with prefix state merging and FR/AN/AI indexes;
- a push-based execution engine (:class:`~repro.engine.StreamEngine`) with
  state-preserving live migration (:mod:`repro.engine.migration`);
- an online query lifecycle runtime (:class:`~repro.runtime.QueryRuntime`)
  serving dynamic register/unregister workloads without a rebuild;
- a small query language front end (:mod:`repro.lang`);
- the paper's workloads and datasets (:mod:`repro.workloads`) and the
  benchmark harness regenerating every figure (:mod:`repro.bench`).

Quickstart::

    from repro import (
        QueryPlan, Optimizer, StreamEngine, StreamSource, Schema,
        Selection, attr, lit, Comparison,
    )

    plan = QueryPlan()
    stream = plan.add_source("S", Schema.numbered(2))
    out = plan.add_operator(
        Selection(Comparison(attr("a0"), "==", lit(7))), [stream], query_id="q0"
    )
    plan.mark_output(out, "q0")
    Optimizer().optimize(plan)
    engine = StreamEngine(plan)
"""

from repro.errors import (
    AutomatonError,
    LifecycleError,
    ChannelError,
    ExpressionError,
    OperatorError,
    ParseError,
    PlanError,
    QueryLanguageError,
    RuleError,
    RumorError,
    SchemaError,
    WorkloadError,
)
from repro.streams import (
    Attribute,
    Channel,
    ChannelTuple,
    Schema,
    StreamDef,
    StreamSource,
    StreamTuple,
    merge_source_runs,
    merge_sources,
)
from repro.operators import (
    And,
    Arith,
    AttrRef,
    Comparison,
    DurationWithin,
    FalsePredicate,
    Iterate,
    Literal,
    Not,
    Or,
    Projection,
    Selection,
    Sequence,
    SlidingWindowAggregate,
    SlidingWindowJoin,
    TimeWindow,
    TruePredicate,
    attr,
    conjunction,
    last,
    left,
    lit,
    right,
)
from repro.core import (
    MOp,
    MRule,
    OpInstance,
    OptimizationReport,
    Optimizer,
    QueryPlan,
    default_rules,
    sharable,
    sharability_signature,
)
from repro.engine import MigrationStats, RunStats, StreamEngine, migrate_engine
from repro.runtime import QueryRuntime, RuntimeConfig, open_runtime
from repro.shard import ProcessShardedRuntime

__version__ = "1.1.0"

__all__ = [
    # errors
    "RumorError",
    "SchemaError",
    "ChannelError",
    "PlanError",
    "RuleError",
    "OperatorError",
    "ExpressionError",
    "QueryLanguageError",
    "ParseError",
    "AutomatonError",
    "WorkloadError",
    "LifecycleError",
    # streams
    "Attribute",
    "Schema",
    "StreamTuple",
    "StreamDef",
    "Channel",
    "ChannelTuple",
    "StreamSource",
    "merge_source_runs",
    "merge_sources",
    # operators
    "Selection",
    "Projection",
    "SlidingWindowAggregate",
    "SlidingWindowJoin",
    "Sequence",
    "Iterate",
    "TimeWindow",
    "Comparison",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "FalsePredicate",
    "DurationWithin",
    "conjunction",
    "AttrRef",
    "Literal",
    "Arith",
    "attr",
    "left",
    "right",
    "last",
    "lit",
    # core
    "MOp",
    "OpInstance",
    "MRule",
    "QueryPlan",
    "Optimizer",
    "OptimizationReport",
    "default_rules",
    "sharable",
    "sharability_signature",
    # engine
    "StreamEngine",
    "RunStats",
    "MigrationStats",
    "migrate_engine",
    # runtime
    "QueryRuntime",
    "RuntimeConfig",
    "open_runtime",
    # shard
    "ProcessShardedRuntime",
]
