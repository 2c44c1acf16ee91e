"""The unified runtime entry point: one config, one factory.

There are two runtimes — :class:`~repro.runtime.QueryRuntime`, one live
plan + engine, and :class:`~repro.shard.proc.ProcessShardedRuntime`, the
sharded coordinator over a fleet of workers — and they take different
kwarg sets (``durable=``, ``checkpoint_every=``, ``store=``, ``journal=``,
``observe=`` …).  :class:`RuntimeConfig` is the single declarative surface
and :func:`open_runtime` the single factory, so no caller — CLI,
benchmarks, tests — re-implements the "which runtime do I build" decision:

- ``shards=1`` (no ``process``) → a plain :class:`QueryRuntime`;
- ``shards>1`` → the coordinator with **inline** workers (same frames,
  applied by direct call in this process);
- ``process=True`` → the same coordinator with **forked** worker
  processes (default 2 shards), optionally durable / checkpointed /
  journaled;
- ``resume=True`` → cold-start from ``journal`` via
  :meth:`ProcessShardedRuntime.from_journal`.

Invalid combinations fail in :meth:`RuntimeConfig.validate` with
actionable one-line errors naming both the library field and the CLI flag
that fixes them.

The old constructors keep working but emit a :class:`DeprecationWarning`
when called directly from application code; internal construction (a
sharded runtime building its per-shard engines, a worker process building
its runtime, the factory itself) is exempt via
:func:`internal_construction`.
"""

from __future__ import annotations

import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import LifecycleError

_construction = threading.local()


@contextmanager
def internal_construction():
    """Suppress the direct-construction deprecation warning.

    Used by the factory and by runtimes that build other runtimes as
    implementation detail (per-shard engines, worker processes) — those
    constructions are not application entry points.
    """
    depth = getattr(_construction, "depth", 0)
    _construction.depth = depth + 1
    try:
        yield
    finally:
        _construction.depth = depth


def warn_direct_construction(name: str) -> None:
    """Emit the legacy-constructor deprecation warning (once per site)."""
    if getattr(_construction, "depth", 0):
        return
    warnings.warn(
        f"direct construction of {name} is deprecated; build it through "
        f"repro.open_runtime(RuntimeConfig(...)) so runtime selection and "
        f"option validation live in one place",
        DeprecationWarning,
        stacklevel=3,
    )


@dataclass
class RuntimeConfig:
    """Declarative description of a runtime to open.

    Field names line up with the CLI's shared runtime option group
    (``--shards`` / ``--process`` / ``--durable`` / ``--checkpoint-every``
    / ``--checkpoint-dir`` / ``--coordinator-journal`` / ``--resume`` /
    ``--observe``), so a parsed argument namespace maps onto a config
    1:1.
    """

    #: Source stream name → schema, declared before the first event.
    sources: Optional[dict] = None
    #: Shard count; ``None`` means 1 in-process, 2 with ``process=True``.
    shards: Optional[int] = None
    #: Serve each shard on a forked worker process; without it, shards
    #: are inline workers of the same coordinator.
    process: bool = False
    capture_outputs: bool = False
    track_latency: bool = False
    incremental: bool = True
    observe: bool = False
    max_batch: int = 1024
    #: Process mode: keep per-shard write-ahead logs for crash recovery.
    durable: bool = False
    #: Process mode: checkpoint every N batches (implies ``durable``).
    checkpoint_every: int = 0
    #: Process mode: persist checkpoints under this directory.
    checkpoint_dir: Optional[str] = None
    #: Process mode: coordinator journal directory (implies ``durable``).
    journal: Optional[str] = None
    #: Cold-start from ``journal`` instead of building a fresh fleet.
    resume: bool = False
    differential: bool = True
    full_checkpoint_every: int = 8
    command_timeout: float = 2.0
    max_retries: int = 30
    retry_budget: float = 0.0
    #: Extra keyword arguments forwarded verbatim to the selected
    #: constructor (fault harnesses, custom stores — test-only surface).
    extra: dict = field(default_factory=dict)

    @property
    def resolved_shards(self) -> int:
        """Effective shard count (the CLI's historical defaulting rule)."""
        if self.shards is not None:
            return self.shards
        return 2 if self.process else 1

    def validate(self) -> "RuntimeConfig":
        """Check cross-field consistency; raises actionable one-liners."""
        if self.shards is not None and self.shards < 1:
            raise LifecycleError(
                f"shards must be at least 1, got {self.shards} — pass "
                f"shards=1 (--shards 1) for a single-engine runtime"
            )
        if self.checkpoint_every < 0:
            raise LifecycleError(
                f"checkpoint_every must be non-negative, got "
                f"{self.checkpoint_every}"
            )
        if (
            self.durable or self.checkpoint_every or self.checkpoint_dir
        ) and not self.process:
            raise LifecycleError(
                "durable/checkpoint_every/checkpoint_dir require process "
                "mode — add process=True (--process): in-process workers "
                "cannot be lost apart from the coordinator"
            )
        if (self.journal or self.resume) and not self.process:
            raise LifecycleError(
                "journal/resume require process mode — add process=True "
                "(--process): only the process-mode coordinator journals "
                "its state"
            )
        if self.resume and not self.journal:
            raise LifecycleError(
                "resume needs a coordinator journal directory to resume "
                "from — set journal=DIR (--coordinator-journal DIR)"
            )
        if self.max_batch < 1:
            raise LifecycleError(
                f"max_batch must be at least 1, got {self.max_batch}"
            )
        return self


def open_runtime(config: Optional[RuntimeConfig] = None, **overrides):
    """Open the runtime a :class:`RuntimeConfig` describes.

    ``overrides`` are applied on top of ``config`` (or a default config),
    so quick call sites can write ``open_runtime(sources=..., shards=4)``
    without building the dataclass first.  Returns a
    :class:`~repro.runtime.QueryRuntime` for one in-process shard, else a
    :class:`~repro.shard.proc.ProcessShardedRuntime` whose workers are
    forked with ``process=True`` and inline without it.
    """
    if config is None:
        config = RuntimeConfig()
    if overrides:
        config = replace(config, **overrides)
    config.validate()
    with internal_construction():
        if config.process or config.resolved_shards > 1:
            return _open_sharded(config)
        from repro.runtime.runtime import QueryRuntime

        return QueryRuntime(
            config.sources,
            capture_outputs=config.capture_outputs,
            track_latency=config.track_latency,
            incremental=config.incremental,
            observe=config.observe,
            **config.extra,
        )


def _open_sharded(config: RuntimeConfig):
    from repro.shard.proc import ProcessShardedRuntime

    if config.resume:
        return ProcessShardedRuntime.from_journal(
            config.journal,
            capture_outputs=config.capture_outputs,
            track_latency=config.track_latency,
            observe=config.observe,
            **config.extra,
        )
    store = None
    if config.checkpoint_dir:
        from repro.shard.checkpoint import CheckpointStore

        store = CheckpointStore(path=config.checkpoint_dir)
    return ProcessShardedRuntime(
        config.sources,
        n_shards=config.resolved_shards,
        capture_outputs=config.capture_outputs,
        track_latency=config.track_latency,
        incremental=config.incremental,
        observe=config.observe,
        max_batch=config.max_batch,
        inline=not config.process,
        durable=config.durable,
        checkpoint_every=config.checkpoint_every,
        store=store,
        journal=config.journal,
        differential=config.differential,
        full_checkpoint_every=config.full_checkpoint_every,
        command_timeout=config.command_timeout,
        max_retries=config.max_retries,
        retry_budget=config.retry_budget,
        **config.extra,
    )
