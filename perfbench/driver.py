"""Open-loop HTTP driver with due-time latency accounting.

Arrival times are fixed before the first request is sent (a seeded
Poisson schedule).  A generator task releases each pre-rendered
request at its due time into a FIFO; a fixed set of keep-alive
connections takes requests from it, one in flight per connection.  A
request that falls due while every connection is busy waits in the
FIFO, and that wait counts: latency runs from the due time to the last
byte of the reply, never from the moment of sending.

The generator's own lateness (how long after its due time it released
a request) is recorded separately, so a driver that cannot keep its
schedule is visible instead of hiding queueing.

:func:`run_closed` is the closed-loop counterpart: one connection
sends the next request as soon as the previous reply arrived, for a
fixed time, cycling through the pre-rendered requests so that it never
runs out however fast the server answers.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.serve.http import HttpError, read_response
from repro.utils.rng import derive

__all__ = ["NO_REPLY", "PhaseResult", "poisson_offsets", "run_closed", "run_phase"]

#: Status recorded for a request that got no reply (timeout, reset).
NO_REPLY = -1
#: Seconds between opening the connections and the first due time.
LEAD_S = 0.02


def poisson_offsets(
    seed: int, key: str, n: int, rate: float
) -> np.ndarray:
    """Due offsets (seconds from phase start) of ``n`` Poisson arrivals.

    The unit-rate gaps depend only on ``(seed, key, n)``; ``rate``
    scales them, so probes of one phase at different rates share the
    same arrival pattern.
    """
    if rate <= 0 or n < 1:
        raise ValueError("rate and n must be positive")
    gaps = derive(seed, "perfbench", "arrivals", key).exponential(1.0, size=n)
    offsets: np.ndarray = np.cumsum(gaps) / rate
    return offsets


@dataclass
class PhaseResult:
    """Per-request timestamps of one phase (host monotonic seconds)."""

    due: np.ndarray
    released: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    status: np.ndarray
    bodies: dict[int, bytes] = field(default_factory=dict)

    @property
    def latency_ms(self) -> np.ndarray:
        """Due time to reply (or to giving up, for :data:`NO_REPLY`)."""
        return 1000.0 * (self.done - self.due)

    @property
    def service_ms(self) -> np.ndarray:
        """Send to reply: the latency a closed-loop client sees."""
        return 1000.0 * (self.done - self.sent)

    @property
    def lateness_ms(self) -> np.ndarray:
        """How late the generator released each request."""
        return 1000.0 * (self.released - self.due)

    @property
    def n_ok(self) -> int:
        """Requests answered with HTTP 200."""
        return int(np.count_nonzero(self.status == 200))

    @property
    def n_sent(self) -> int:
        """Requests that went out."""
        return int(self.status.size)


async def _connect(host: str, port: int) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    return await asyncio.open_connection(host, port)


async def run_phase(
    host: str,
    port: int,
    payloads: Sequence[bytes],
    offsets: np.ndarray,
    *,
    connections: int = 2,
    timeout_s: float = 10.0,
    keep: frozenset[int] = frozenset(),
) -> PhaseResult:
    """Send ``payloads[i]`` due at ``start + offsets[i]``; await every reply.

    ``keep`` names the requests whose reply bodies are returned (for
    the correctness sample).  A request without a reply within
    ``timeout_s`` is recorded with status :data:`NO_REPLY` and its
    connection is replaced.
    """
    n = len(payloads)
    if offsets.shape != (n,):
        raise ValueError("one offset per payload")
    loop = asyncio.get_running_loop()
    due = np.empty(n)
    released = np.empty(n)
    sent = np.empty(n)
    done = np.full(n, np.nan)
    status = np.full(n, NO_REPLY, dtype=np.int64)
    bodies: dict[int, bytes] = {}
    ready: asyncio.Queue[int | None] = asyncio.Queue()
    streams = [await _connect(host, port) for _ in range(connections)]
    start = loop.time() + LEAD_S

    async def generate() -> None:
        for i in range(n):
            at = start + float(offsets[i])
            delay = at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            due[i] = at
            released[i] = loop.time()
            ready.put_nowait(i)
        for _ in streams:
            ready.put_nowait(None)

    async def work(slot: int) -> None:
        reader, writer = streams[slot]
        while True:
            i = await ready.get()
            if i is None:
                return
            sent[i] = loop.time()
            try:
                writer.write(payloads[i])
                response = await asyncio.wait_for(read_response(reader), timeout_s)
            except (asyncio.TimeoutError, HttpError, ConnectionError):
                done[i] = loop.time()
                writer.close()
                reader, writer = streams[slot] = await _connect(host, port)
                continue
            done[i] = loop.time()
            status[i] = response.status
            if i in keep:
                bodies[i] = response.body

    try:
        await asyncio.gather(generate(), *(work(s) for s in range(connections)))
    finally:
        for _, writer in streams:
            writer.close()
        for _, writer in streams:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    return PhaseResult(due=due, released=released, sent=sent, done=done,
                       status=status, bodies=bodies)


async def run_closed(
    host: str,
    port: int,
    payloads: Sequence[bytes],
    duration_s: float,
    *,
    timeout_s: float = 10.0,
    keep: frozenset[int] = frozenset(),
) -> PhaseResult:
    """One connection sending back to back for ``duration_s``.

    Request ``i`` sends ``payloads[i % len(payloads)]`` and is due,
    released and sent at the same moment, so its latency is its
    send-to-reply time.  ``keep`` and ``timeout_s`` work as in
    :func:`run_phase`.
    """
    if not payloads:
        raise ValueError("no payloads")
    loop = asyncio.get_running_loop()
    sent: list[float] = []
    done: list[float] = []
    status: list[int] = []
    bodies: dict[int, bytes] = {}
    reader, writer = await _connect(host, port)
    until = loop.time() + duration_s
    try:
        while loop.time() < until:
            i = len(sent)
            sent.append(loop.time())
            try:
                writer.write(payloads[i % len(payloads)])
                response = await asyncio.wait_for(read_response(reader), timeout_s)
            except (asyncio.TimeoutError, HttpError, ConnectionError):
                done.append(loop.time())
                status.append(NO_REPLY)
                writer.close()
                reader, writer = await _connect(host, port)
                continue
            done.append(loop.time())
            status.append(response.status)
            if i in keep:
                bodies[i] = response.body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    times = np.asarray(sent, dtype=np.float64)
    return PhaseResult(due=times, released=times.copy(), sent=times.copy(),
                       done=np.asarray(done, dtype=np.float64),
                       status=np.asarray(status, dtype=np.int64), bodies=bodies)
