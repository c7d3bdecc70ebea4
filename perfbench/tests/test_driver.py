"""The open-loop driver: seeded schedules and due-time accounting."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from perfbench.driver import NO_REPLY, poisson_offsets, run_closed, run_phase
from repro.serve.http import read_request, render_request, render_response


def test_schedule_is_a_function_of_seed_and_key() -> None:
    a = poisson_offsets(3, "phase", 200, 50.0)
    assert np.array_equal(a, poisson_offsets(3, "phase", 200, 50.0))
    assert not np.array_equal(a, poisson_offsets(4, "phase", 200, 50.0))
    assert not np.array_equal(a, poisson_offsets(3, "other", 200, 50.0))
    assert np.all(np.diff(a) > 0)
    # Mean gap is 1/rate (loosely: 200 exponential draws).
    assert np.mean(np.diff(a)) == pytest.approx(1 / 50.0, rel=0.25)


def test_rate_only_rescales_the_schedule() -> None:
    slow = poisson_offsets(1, "probe", 50, 10.0)
    fast = poisson_offsets(1, "probe", 50, 40.0)
    assert np.allclose(slow, 4.0 * fast)


@pytest.mark.parametrize("rate,n", [(0.0, 5), (10.0, 0)])
def test_schedule_rejects_bad_arguments(rate: float, n: int) -> None:
    with pytest.raises(ValueError):
        poisson_offsets(0, "x", n, rate)


async def _slow_server(delay_s: float) -> asyncio.AbstractServer:
    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        while await read_request(reader) is not None:
            await asyncio.sleep(delay_s)
            writer.write(render_response(200, b"{}"))
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def _drive(delay_s: float, offsets: np.ndarray, connections: int, timeout_s: float = 5.0):
    async def go():
        server = await _slow_server(delay_s)
        port = server.sockets[0].getsockname()[1]
        try:
            payloads = [render_request("POST", "/x", b"{}")] * len(offsets)
            return await run_phase("127.0.0.1", port, payloads, offsets,
                                   connections=connections, timeout_s=timeout_s,
                                   keep=frozenset({0}))
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(go())


def test_wait_for_a_busy_connection_counts_as_latency() -> None:
    # Five requests due together, one connection, 50 ms per reply: the
    # k-th waits for the k before it, and its latency shows that wait.
    result = _drive(0.05, np.zeros(5), connections=1)
    lat = result.latency_ms
    assert np.all(result.status == 200)
    for k in range(5):
        assert lat[k] >= 50.0 * (k + 1) * 0.95
    # The generator itself released every request on time.
    assert np.all(result.lateness_ms < 20.0)
    assert result.bodies == {0: b"{}"}


def test_second_connection_halves_the_queue() -> None:
    one = _drive(0.05, np.zeros(4), connections=1).latency_ms
    two = _drive(0.05, np.zeros(4), connections=2).latency_ms
    assert two.max() < 0.75 * one.max()


def test_missing_reply_is_recorded_not_raised() -> None:
    result = _drive(1.0, np.array([0.0]), connections=1, timeout_s=0.1)
    assert result.status[0] == NO_REPLY
    assert result.n_ok == 0
    assert 90.0 <= result.latency_ms[0] < 900.0


def test_closed_loop_cycles_through_its_payloads() -> None:
    async def go():
        async def echo(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            while (request := await read_request(reader)) is not None:
                await asyncio.sleep(0.01)
                writer.write(render_response(200, request.body))
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(echo, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            payloads = [render_request("POST", "/x", b'{"i": %d}' % i) for i in range(2)]
            return await run_closed("127.0.0.1", port, payloads, 0.3, keep=frozenset({0, 5}))
        finally:
            server.close()
            await server.wait_closed()

    result = asyncio.run(go())
    # Far more requests than payloads: the loop never runs dry.
    assert result.n_sent > 5
    assert np.all(result.status == 200)
    assert result.bodies == {0: b'{"i": 0}', 5: b'{"i": 1}'}
    # Back to back: each request goes out when the previous reply is in.
    assert np.all(result.sent[1:] >= result.done[:-1])
    assert np.all(result.service_ms >= 9.0)
    assert np.array_equal(result.latency_ms, result.service_ms)
