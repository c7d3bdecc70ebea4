"""The benchmark's clocks.

Every timestamp comes from ``CLOCK_MONOTONIC``, which is one clock for
all processes on a host: the server's ``loop.time()``, a child's
ready stamp and the driver's due times can be subtracted directly.
"""

from __future__ import annotations

import os
import time

__all__ = ["cpu_s", "now"]


def now() -> float:
    """Seconds on the host-wide monotonic clock."""
    return time.monotonic()  # simlint: ignore[SIM002] the benchmark measures wall time; nothing it reads feeds a simulation


def cpu_s() -> float:
    """User plus system CPU seconds of this process."""
    t = os.times()
    return t.user + t.system
