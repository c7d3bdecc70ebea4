"""Run environment: versions, CPU count, git revision and a CPU probe.

The probe is a fixed amount of pure-Python and numpy work timed at the
start and end of every run.  On a shared host it shows how fast the
machine was during the run, separately from the program: when the
probe and a metric move together between two runs, the host moved.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np

from perfbench.clock import now
from repro.utils.rng import derive

__all__ = ["cpu_pair", "environment", "git_revision", "pin_process", "probe_ms"]

_PROBE_LOOP = 300_000
_PROBE_SORT = 500_000


def probe_ms(seed: int = 0) -> float:
    """Milliseconds for a fixed Python loop plus a fixed numpy sort."""
    values = derive(seed, "perfbench", "probe").random(_PROBE_SORT)
    start = now()
    acc = 0
    for i in range(_PROBE_LOOP):
        acc += (i * i) % 7
    np.sort(values)
    elapsed = now() - start
    if acc < 0:  # keeps the loop's result live
        raise AssertionError("unreachable")
    return 1000.0 * elapsed


def git_revision(root: Path) -> str:
    """Commit id from ``root/.git`` read as files, or ``"unknown"``.

    Reads only inside ``root``: no git process is started, so a
    checkout without ``.git`` never reaches a repository above it.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict[str, str]:
    """What produced the numbers: interpreter, numpy, CPUs, revision."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": str(cpus),
        "git": git_revision(root),
    }


def cpu_pair() -> tuple[int, int] | None:
    """Two CPUs this process may run on, or ``None`` with only one.

    Call it before pinning the process: afterwards its affinity is the
    one CPU it was pinned to.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


def pin_process(pid: int, cpu: int) -> None:
    """Move every thread of process ``pid`` onto ``cpu``."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(tid), {cpu})
