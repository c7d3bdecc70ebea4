"""The ``serve_bulk`` workload: ``repro serve`` in its own process,
driven over HTTP.

One run, untraced, launches the server :data:`SETUP_LAUNCHES` times
in turn; each launch is a launch-to-ready sample and serves its share
of the closed loop, so one slow server process cannot decide the run:

1. on the first launch, warm up open-loop at the nominal rate and
   discard it, so the flood and match caches reach their steady state;
   then measure open-loop at the nominal rate, timing each request from
   its due time: p50 and p90 per window of :data:`NOMINAL_WINDOW`
   requests, median across windows (printed, not gated);
2. on every launch, the closed loop (:class:`_ClosedLoop`): one
   connection sends back to back, in segments that swap the server's
   and the driver's CPUs (:data:`CLOSED_SEGMENTS` over the run),
   cycling through one seeded set of :data:`CLOSED_PAYLOADS` requests.
   The gated figures come from this phase: p50 and p90 over the
   distinct requests of each one's fastest send-to-reply time, and the
   completed requests per second of the best window of
   :data:`CLOSED_WINDOW` requests;
3. stop each server, check that no shared-memory segment it mapped
   survived, and compare a seeded sample of replies with a direct
   ``BatchQueryEngine.evaluate_keys`` call in this process.

Every non-200 reply counts as a failed operation.

Why the gated figures come from the closed loop: on a virtual machine
shared with other tenants, an idle server's CPU must be woken by the
host for each request, and how long that takes drifts with the host's
load for minutes at a time.  Over ten runs the open-loop p90 at a
third of capacity spread by 40-70% of its median and the bisected
capacity by 20-40%.  One connection keeps the server busy without
queueing: the server evaluates one request at a time, so a second
connection adds no throughput, only a wait behind the other
connection's request, and the two connections fell into step in some
runs and out of step in others (p50 20 ms or 45 ms at the same
throughput).  Why each request's fastest reply, and why swap CPUs:
each of the host's CPUs alternates between a fast and a slow state (a
fixed CPU loop takes about 31 or about 45 ms), independently of the
other and for seconds to minutes at a time.  Interference only adds
time, so a request's fastest reply is the program's own cost for it,
as long as one of its repetitions met a fast CPU; a median over all
replies follows the host's mix of states.  Quantiles over the fixed
set of requests, not over windows, keep the request mix out of the
figure: the best window of 50 requests was partly the cheapest mix of
50.  Why 100 requests: each is sent about 18 times in a run, and with
150 (about 12 times each) or 300, p90 still spread by 0.28-0.32 over
ten seeds; at 100 it spread by 0.07 where the best window's p90, taken
in the same runs, spread by 0.16.  One cycle of 100 still holds 6,400
queries and sources, beyond both caches.

A traced run measures :data:`TRACED_SEGMENTS` closed-loop segments on
an untraced server and the same segments on one whose layers record
spans; the per-layer split and the counter deltas come from the traced
segments, and the gap between the two p50s is the tracing overhead.  The traced server's open-loop nominal phase gives the
driver's own figures.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from perfbench.clock import cpu_s, now
from perfbench.driver import PhaseResult, poisson_offsets, run_closed, run_phase
from perfbench.env import cpu_pair, pin_process
from perfbench.spans import Span, load_trace, self_times
from perfbench.stats import quantile, tail_point, windowed_quantile
from repro.serve.http import json_bytes, read_response, render_request
from repro.utils.rng import derive

__all__ = ["POOL", "run_serve"]

NODES = 5_000
TTL = 3
#: Queries per ``/search`` request, uniform over :data:`POOL` distinct
#: workload queries, each from a source uniform over all peers: a
#: working set far beyond the 256-entry flood cache and the 4096-entry
#: match LRU.
QUERIES_PER_REQUEST = 64
POOL = 32_768
#: Open-loop rate (requests per second), about a fifth of closed-loop
#: throughput, and requests per quantile window at that rate.
NOMINAL_RATE = 12.0
NOMINAL_WINDOW = 24
#: Replies compared against a direct engine call.
SAMPLE = 12
SETUP_LAUNCHES = 3
#: Shares of ``--seconds`` spent warming up, at the nominal rate, and
#: in the closed loop.
WARMUP_SHARE, NOMINAL_SHARE, CLOSED_SHARE = 0.05, 0.10, 0.85
#: Requests per window of the closed loop.
CLOSED_WINDOW = 50
#: Segments of the closed loop; the server and the driver swap CPUs
#: between segments.  A traced run measures the first
#: :data:`TRACED_SEGMENTS` of them, untraced and traced.
CLOSED_SEGMENTS = 6
TRACED_SEGMENTS = 2
#: Distinct requests of the closed loop, sent cyclically: 6,400
#: queries and sources per cycle keep both caches missing.
CLOSED_PAYLOADS = 100
READY_TIMEOUT_S = 120.0


def _draw(seed: int, key: str, n: int, pool_size: int) -> tuple[np.ndarray, np.ndarray]:
    """``(sources, query indices)`` of ``n`` requests, each ``(n, k)``."""
    rng = derive(seed, "perfbench", "serve_bulk", key)
    shape = (n, QUERIES_PER_REQUEST)
    return rng.integers(0, NODES, size=shape), rng.integers(0, pool_size, size=shape)


def _render(pool: list[list[str]], sources: np.ndarray, queries: np.ndarray) -> list[bytes]:
    """One HTTP ``/search`` request per row."""
    return [
        render_request(
            "POST",
            "/search",
            json_bytes({"sources": row_s.tolist(), "queries": [pool[j] for j in row_q],
                        "ttl": TTL}),
        )
        for row_s, row_q in zip(sources, queries)
    ]


class Server:
    """One ``repro serve`` process started through the launcher."""

    def __init__(self, root: Path, run_dir: Path, env: dict[str, str], tag: str,
                 cpu: int | None, spans: Path | None = None) -> None:
        self._ready_file = run_dir / f"ready-{tag}"
        self._log = run_dir / f"server-{tag}.log"
        argv = [sys.executable, "-m", "perfbench.launcher"]
        if spans is not None:
            argv += ["--spans", str(spans)]
        argv += ["serve", "--nodes", str(NODES), "--port", "0",
                 "--ready-file", str(self._ready_file)]
        self._argv = argv
        self._root = root
        self._env = env
        self.proc: subprocess.Popen[bytes] | None = None
        self.port = 0
        self._cpu = cpu
        #: Shared-memory segments the server had mapped and that still
        #: existed after it exited.
        self.leaked: list[str] = []

    def start(self) -> float:
        """Launch; return seconds from spawn until the port is open."""
        self._ready_file.unlink(missing_ok=True)
        with self._log.open("wb") as log:
            spawned = now()
            self.proc = subprocess.Popen(
                self._argv, cwd=self._root, env=self._env,
                stdout=log, stderr=subprocess.STDOUT,
            )
        if self._cpu is not None:
            os.sched_setaffinity(self.proc.pid, {self._cpu})
        while True:
            if self._ready_file.is_file():
                text = self._ready_file.read_text()
                if text.endswith("\n"):
                    ready = now()
                    self.port = int(text.split()[1])
                    return ready - spawned
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during start-up: {self.log_tail()}")
            if now() - spawned > READY_TIMEOUT_S:
                self.stop()
                raise RuntimeError("server did not become ready")
            time.sleep(0.005)

    def move(self, cpu: int) -> None:
        """Move every thread of the server onto ``cpu``."""
        assert self.proc is not None
        pin_process(self.proc.pid, cpu)

    def log_tail(self) -> str:
        """Last lines of the server's output."""
        try:
            return "\n".join(self._log.read_text().splitlines()[-20:])
        except OSError:
            return ""

    def cpu_s(self) -> float:
        """User plus system CPU seconds of the server process."""
        assert self.proc is not None
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        """Peak resident set of the server process (VmHWM)."""
        assert self.proc is not None
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def _mapped_segments(self) -> set[str]:
        assert self.proc is not None
        names = set()
        for line in Path(f"/proc/{self.proc.pid}/maps").read_text().splitlines():
            _, sep, path = line.partition("/dev/shm/")
            if sep:
                names.add(path.removesuffix(" (deleted)"))
        return names

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs.

        Records in :attr:`leaked` every segment the server had mapped
        that outlives it.
        """
        if self.proc is None or self.proc.poll() is not None:
            return
        mapped = self._mapped_segments()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server did not drain within 60 s") from None
        if code != 0:
            raise RuntimeError(f"server exited with {code}: {self.log_tail()}")
        self.leaked = sorted(n for n in mapped if Path("/dev/shm", n).exists())


async def _get_metrics(port: int) -> dict[str, Any]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(render_request("GET", "/metrics"))
        response = await read_response(reader)
    finally:
        writer.close()
        await writer.wait_closed()
    if response.status != 200:
        raise RuntimeError(f"/metrics answered {response.status}")
    doc: dict[str, Any] = json.loads(response.body)
    return doc


def _counter(doc: dict[str, Any], name: str) -> float:
    return float(doc["counters"].get(name, 0))


@dataclass
class _Tally:
    """Requests sent, and those not answered with a 200, over a run."""

    attempted: int = 0
    failed: int = 0

    def add(self, result: PhaseResult) -> None:
        self.attempted += result.n_sent
        self.failed += result.n_sent - result.n_ok


def _sample(seed: int, key: str, n: int) -> frozenset[int]:
    picks = derive(seed, "perfbench", "serve_bulk", key, "sample").choice(
        n, size=min(n, SAMPLE), replace=False
    )
    return frozenset(int(i) for i in picks)


def _open_loop(port: int, pool: list[list[str]], seed: int, key: str,
               duration: float, tally: _Tally) -> PhaseResult:
    """One open-loop phase at :data:`NOMINAL_RATE` over two connections."""
    n = max(1, round(NOMINAL_RATE * duration))
    sources, queries = _draw(seed, key, n, len(pool))
    payloads = _render(pool, sources, queries)
    offsets = poisson_offsets(seed, f"serve_bulk/{key}", n, NOMINAL_RATE)
    result = asyncio.run(run_phase("127.0.0.1", port, payloads, offsets))
    tally.add(result)
    return result


class _ClosedLoop:
    """The closed loop: one connection sending back to back.

    One seeded set of :data:`CLOSED_PAYLOADS` distinct requests is sent
    cyclically, each segment going on where the last one stopped, across
    segments and server launches, so each request is timed over a dozen
    times.  p50 and p90 are taken over the distinct requests of each
    one's fastest send-to-reply time: interference from the host only
    adds time, and the request mix is the same in every run of a seed.
    Requests per second are the best over windows of
    :data:`CLOSED_WINDOW` consecutive requests.
    """

    def __init__(self, pool: list[list[str]], seed: int, seconds: float) -> None:
        self.pool = pool
        self.sources, self.queries = _draw(seed, "closed", CLOSED_PAYLOADS, len(pool))
        self.payloads = _render(pool, self.sources, self.queries)
        self.segment_s = CLOSED_SHARE * seconds / CLOSED_SEGMENTS
        self.sample = _sample(seed, "closed", CLOSED_PAYLOADS)
        #: Fastest 200 reply per request (``inf`` until one arrives).
        self.fastest_ms = np.full(CLOSED_PAYLOADS, np.inf)
        #: Sampled requests' first 200 reply bodies, by request.
        self.bodies: dict[int, bytes] = {}
        self.rates: list[float] = []
        self.latencies: list[np.ndarray] = []
        self._next = 0

    def run(self, server: Server, pair: tuple[int, int] | None, segments: range,
            tally: _Tally) -> None:
        """Send the numbered ``segments`` to ``server``."""
        for k in segments:
            if pair is not None:
                server.move(pair[(k + 1) % 2])
                pin_process(os.getpid(), pair[k % 2])
            start = self._next
            rotated = self.payloads[start:] + self.payloads[:start]
            keep = frozenset((row - start) % CLOSED_PAYLOADS
                             for row in self.sample if row not in self.bodies)
            result = asyncio.run(run_closed("127.0.0.1", server.port, rotated,
                                            self.segment_s, keep=keep))
            tally.add(result)
            rows = (start + np.arange(result.n_sent)) % CLOSED_PAYLOADS
            ok = result.status == 200
            np.minimum.at(self.fastest_ms, rows[ok], result.service_ms[ok])
            for i, body in result.bodies.items():
                if result.status[i] == 200:
                    self.bodies.setdefault(int(rows[i]), body)
            self.latencies.append(result.service_ms[ok])
            # Requests go out in index order over the one connection.
            self.rates += [
                CLOSED_WINDOW / float(result.done[i + CLOSED_WINDOW - 1] - result.sent[i])
                for i in range(0, result.n_sent - CLOSED_WINDOW + 1, CLOSED_WINDOW)
            ]
            self._next = int(start + result.n_sent) % CLOSED_PAYLOADS
        if pair is not None:
            server.move(pair[1])
            pin_process(os.getpid(), pair[0])

    def _answered(self) -> np.ndarray:
        answered = self.fastest_ms[np.isfinite(self.fastest_ms)]
        if answered.size == 0 or not self.rates:
            raise RuntimeError("the closed loop answered no full window")
        return answered

    @property
    def p50_ms(self) -> float:
        """Median over requests of each one's fastest reply."""
        return quantile(self._answered(), 0.5)

    @property
    def p90_ms(self) -> float:
        """90th percentile over requests of each one's fastest reply."""
        return quantile(self._answered(), 0.9)

    @property
    def rate_per_s(self) -> float:
        """Best window's completed requests per second."""
        self._answered()
        return max(self.rates)

    @property
    def service_ms(self) -> np.ndarray:
        """Every 200 reply's send-to-reply time."""
        return np.concatenate(self.latencies)


def _dump_driver_spans(path: Path, result: PhaseResult) -> None:
    """One driver span per request, keyed by request index: due,
    released by the generator, reply received, status."""
    rows = zip(result.due.tolist(), result.released.tolist(),
               result.done.tolist(), result.status.tolist())
    path.write_text(json.dumps(
        [{"request": i, "due": d, "released": r, "done": e, "status": st}
         for i, (d, r, e, st) in enumerate(rows)]
    ))


def _check_replies(closed: _ClosedLoop, oracle: Any) -> list[str]:
    """Sampled 200 replies must equal a direct engine evaluation."""
    from repro.overlay.batch import BatchQueryEngine
    from repro.serve.protocol import encode_outcome

    topology, content = oracle
    engine = BatchQueryEngine(topology, content)
    errors: list[str] = []
    for row, body in sorted(closed.bodies.items()):
        keys = [content.query_key(list(closed.pool[j])) for j in closed.queries[row]]
        outcome = engine.evaluate_keys(
            closed.sources[row], keys, ttl_schedule=(TTL,), min_results=1
        )
        expected = json.loads(json_bytes(encode_outcome(outcome)))
        if json.loads(body) != expected:
            errors.append(f"reply to request {row} differs from the engine")
    if not closed.bodies:
        errors.append("no 200 reply was sampled")
    return errors


def _layer_split(spans: list[Span], samples: dict[str, list[tuple[float, float]]],
                 t0: float, t1: float) -> dict[str, float]:
    """Per-request means of the traced serving layers inside ``[t0, t1)``."""
    state = {s.sid: s for s in spans if s.name.startswith("state.")}
    window = [s for s in spans if t0 <= s.start < t1]
    own = self_times(window)
    n = max(1, sum(1 for s in window if s.name == "http.dispatch"))

    def total(name: str, self_only: bool = False) -> float:
        return sum(own[s.sid] if self_only else s.duration
                   for s in window if s.name == name)

    def median_ms(name: str) -> float:
        values = [v for t, v in samples.get(name, []) if t0 <= t < t1]
        return 1000.0 * statistics.median(values) if values else 0.0

    state_own = self_times(list(state.values()))
    return {
        "state.load_s": sum(state_own[s.sid] for s in state.values() if s.name == "state.load"),
        "state.publish_s": sum(s.duration for s in state.values() if s.name == "state.publish"),
        "http.self_ms": 1000.0 * total("http.dispatch", self_only=True) / n,
        "protocol.parse_ms": 1000.0 * total("protocol.parse") / n,
        "protocol.encode_ms": 1000.0 * (total("protocol.encode") + total("protocol.json")) / n,
        "service.queue_wait_ms": median_ms("service.queue_wait"),
        "service.latency_ms": median_ms("service.latency"),
        "dispatch_s": total("http.dispatch"),
    }


def _metric_split(m0: dict[str, Any], m1: dict[str, Any], window_s: float) -> dict[str, float]:
    """Per-layer counts from two ``/metrics`` scrapes around a phase."""

    def d(name: str) -> float:
        return _counter(m1, name) - _counter(m0, name)

    def hist(name: str) -> tuple[float, float]:
        a = m0["histograms"].get(name, {"count": 0, "total": 0.0})
        b = m1["histograms"].get(name, {"count": 0, "total": 0.0})
        return b["count"] - a["count"], b["total"] - a["total"]

    def timer(name: str) -> float:
        a = m0["timers"].get(name, {"total_s": 0.0})["total_s"]
        return float(m1["timers"].get(name, {"total_s": 0.0})["total_s"] - a)

    rounds, jobs = hist("serve.batch.jobs")
    evaluate_s = timer("batch.evaluate")
    queries = d("batch.queries")
    f_hits, f_miss = d("flood.cache.hits"), d("flood.cache.misses")
    m_hits, m_miss = d("match.cache.hits"), d("match.cache.misses")
    return {
        "cache.hits": _counter(m1, "artifact_cache.hits"),
        "cache.misses": _counter(m1, "artifact_cache.misses"),
        "http.requests": d("serve.http.requests"),
        "service.admitted": d("serve.admitted"),
        "service.shed": d("serve.shed"),
        "service.timeouts": d("serve.timeouts"),
        "service.jobs_per_round": jobs / rounds if rounds else 0.0,
        "batch.queries": queries,
        "batch.evaluate_s": evaluate_s,
        "batch.us_per_query": 1e6 * evaluate_s / queries if queries else 0.0,
        "batch.busy_share": evaluate_s / window_s,
        "flood_cache.hit_ratio": f_hits / (f_hits + f_miss) if f_hits + f_miss else 0.0,
        "flood_cache.bfs": d("flood.cache.bfs"),
        "match.hit_ratio": m_hits / (m_hits + m_miss) if m_hits + m_miss else 0.0,
        "match.misses": m_miss,
    }


def run_serve(*, root: Path, run_dir: Path, env: dict[str, str], seed: int,
              seconds: float, trace: bool, oracle: Any,
              pool: list[list[str]]) -> dict[str, Any]:
    """One run of ``serve_bulk``; returns metrics, counts and errors."""
    # The driver runs on one CPU and the server on the other, so the
    # server's event loop and engine thread hand requests to each other
    # on one CPU and the driver never takes CPU from them.
    pair = cpu_pair()
    if pair is not None:
        os.sched_setaffinity(0, {pair[0]})
    tally = _Tally()
    errors: list[str] = []
    out: dict[str, Any] = {}
    servers: list[Server] = []

    def launch(tag: str, spans: Path | None = None) -> tuple[Server, float]:
        server = Server(root, run_dir, env, tag, None if pair is None else pair[1], spans)
        servers.append(server)
        return server, server.start()

    def warm_up(server: Server) -> None:
        _open_loop(server.port, pool, seed, "warmup", WARMUP_SHARE * seconds, tally)

    try:
        if not trace:
            # Every launch is a set-up sample and serves its share of
            # the closed loop, so one slow server process cannot decide
            # the run; the first also runs the open-loop phases.
            setups: list[float] = []
            closed = _ClosedLoop(pool, seed, seconds)
            rss: list[float] = []
            per_launch = CLOSED_SEGMENTS // SETUP_LAUNCHES
            for i in range(SETUP_LAUNCHES):
                server, setup = launch(f"launch{i}")
                setups.append(setup)
                if i == 0:
                    warm_up(server)
                    nominal = _open_loop(server.port, pool, seed, "nominal",
                                         NOMINAL_SHARE * seconds, tally).latency_ms
                segments = range(i * per_launch, (i + 1) * per_launch)
                closed.run(server, pair, segments, tally)
                rss.append(server.peak_rss_mib())
                if _counter(asyncio.run(_get_metrics(server.port)), "artifact_cache.misses"):
                    errors.append("the server missed the warm artifact cache")
                server.stop()
            out.update(
                setup_s=statistics.median(setups),
                primary_ms=closed.p50_ms,
                secondary_ms=closed.p90_ms,
                rate_per_s=closed.rate_per_s,
                peak_rss_mib=max(rss),
                info={
                    f"open-loop p50 at {NOMINAL_RATE:g} rps (ms)":
                        windowed_quantile(nominal, 0.5, NOMINAL_WINDOW),
                    f"open-loop p90 at {NOMINAL_RATE:g} rps (ms)":
                        windowed_quantile(nominal, 0.9, NOMINAL_WINDOW),
                },
            )
        else:
            server, _ = launch("untraced")
            warm_up(server)
            untraced = _ClosedLoop(pool, seed, seconds)
            untraced.run(server, pair, range(TRACED_SEGMENTS), tally)
            server.stop()
            spans_path = run_dir / "server-spans.json"
            server, _ = launch("traced", spans_path)
            warm_up(server)
            driver0 = cpu_s()
            nominal = _open_loop(server.port, pool, seed, "nominal",
                                 NOMINAL_SHARE * seconds, tally)
            driver_share = (cpu_s() - driver0) / (NOMINAL_SHARE * seconds)
            _dump_driver_spans(run_dir / "driver-spans.json", nominal)
            m0 = asyncio.run(_get_metrics(server.port))
            cpu0, t0 = server.cpu_s(), now()
            closed = _ClosedLoop(pool, seed, seconds)
            closed.run(server, pair, range(TRACED_SEGMENTS), tally)
            t1, cpu1 = now(), server.cpu_s()
            m1 = asyncio.run(_get_metrics(server.port))
            server.stop()
            spans, samples = load_trace(spans_path)
            window_s = t1 - t0
            layers = _metric_split(m0, m1, window_s)
            split = _layer_split(spans, samples, t0, t1)
            dispatch_s = split.pop("dispatch_s")
            layers.update(split)
            _, tail_ms = tail_point(closed.service_ms)
            layers.update({
                "server.cpu_share": (cpu1 - cpu0) / window_s,
                "driver.cpu_share": driver_share,
                "driver.late_p99_ms": quantile(nominal.lateness_ms, 0.99),
                "request.tail_ms": tail_ms,
                "request.samples": float(closed.service_ms.size),
                "trace.overhead": closed.p50_ms / untraced.p50_ms - 1.0,
                "trace.blocking_share":
                    dispatch_s / (float(np.sum(closed.service_ms)) / 1000.0),
            })
            out["layers"] = layers
            if _counter(m1, "artifact_cache.misses"):
                errors.append("the server missed the warm artifact cache")
    finally:
        for server in servers:
            server.stop()
    leaked = [name for server in servers for name in server.leaked]
    if leaked:
        errors.append(f"shared-memory segments survived the server: {leaked[:4]}")
    mismatches = _check_replies(closed, oracle)
    tally.failed += len(mismatches)
    errors += mismatches
    out.update(attempted=tally.attempted, failed=tally.failed, errors=errors)
    return out
