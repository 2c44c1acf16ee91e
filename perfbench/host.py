"""Host provenance, host speed and process-tree memory, read from outside
the program."""

from __future__ import annotations

import os
import platform
import time

from perfbench.stats import median

#: Seconds one pass of :func:`reference_pass` takes on the host that the
#: scaled figures are expressed for (about the median pass on a 2-vCPU
#: Intel Xeon virtual machine with Python 3.11).
REFERENCE_SECONDS = 1e-3


def fingerprint() -> dict:
    """What a result was measured on: CPU count and model, Python, numpy."""
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _children() -> dict[int, list[int]]:
    tree: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # The command name may hold spaces; fields resume after its ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Peak resident memory of this process plus every live descendant
    (the coordinator and its shard workers), in MB."""
    tree = _children()
    total_kb = 0
    pending = [os.getpid()]
    while pending:
        pid = pending.pop()
        total_kb += _peak_rss_kb(pid)
        pending.extend(tree.get(pid, ()))
    return total_kb / 1024.0


def reference_pass() -> float:
    """Time one pass of a fixed pure-Python loop that calls nothing in the
    program, so no change to the program can change its cost."""
    started = time.perf_counter()
    table: dict = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i * i
    sorted((i * 7919) % 1009 for i in range(2000))
    return time.perf_counter() - started


class HostSpeed:
    """Reference passes taken at quiescent points of a run (after a
    barrier, nothing in flight), so they see the host as the fleet saw it
    during the measurement around them.  The vCPUs of a shared host run at
    different speeds from one second to the next, so the passes take turns
    on each CPU the process may use."""

    def __init__(self):
        self.samples: list[float] = []
        self._turn = 0

    def sample(self, count: int = 1) -> None:
        pinnable = hasattr(os, "sched_setaffinity")
        allowed = sorted(os.sched_getaffinity(0)) if pinnable else []
        try:
            for __ in range(count):
                if allowed:
                    os.sched_setaffinity(0, {allowed[self._turn % len(allowed)]})
                    self._turn += 1
                self.samples.append(reference_pass())
        finally:
            if allowed:
                os.sched_setaffinity(0, allowed)

    def slowdown(self) -> float:
        """Median reference pass ÷ :data:`REFERENCE_SECONDS`: above 1 when
        the host ran slower than the reference host."""
        return median(self.samples) / REFERENCE_SECONDS
