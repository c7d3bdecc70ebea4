"""One benchmark run: prepare the artifact cache, run a workload, report.

Everything the benchmark writes stays under ``.perfbench/`` in the
checkout: ``cache/`` is the warm artifact cache every workload except
``build`` starts from (``REPRO_CACHE_DIR`` points there, so nothing
reaches ``~/.cache/repro``), ``runs/`` holds one scratch directory per
run (removed at the end), and ``traces/`` keeps the spans of the last
traced run of each workload and seed.

End-to-end metrics are the same five on every workload; what the two
timing metrics and the rate measure depends on the workload (see
:data:`ROLES`).  The per-layer metrics are printed by ``--trace 1``
runs; a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench.clock import now
from perfbench.env import environment, probe_ms

__all__ = ["E2E", "PER_LAYER", "ROLES", "Report", "WORKLOADS", "run"]

WORKLOADS = ("fig8", "build", "serve_bulk")

E2E = (
    ("setup_s", "s"),
    ("primary_ms", "ms"),
    ("secondary_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

#: What the workload-dependent end-to-end metrics measure, by the
#: names the design uses for them.
ROLES = {
    "fig8": {"primary_ms": "fig8_s (one dense Fig. 8)",
             "secondary_ms": "fig8_sharded_s (one 4-shard Fig. 8)",
             "rate_per_s": "replica-set floods per second over one pass of each kernel"},
    "build": {"primary_ms": "build_s (cold 5k build)",
              "secondary_ms": "reload_ms (cache-hit load of the three artifacts)",
              "rate_per_s": "trace instances built per second"},
    "serve_bulk": {"primary_ms": "p50_ms: closed loop (1 connection), median over "
                                  "requests of each one's fastest reply",
                   "secondary_ms": "p90_ms: closed loop, 90th percentile of the same",
                   "rate_per_s": "capacity_qps: closed loop, best window"},
}

PER_LAYER = (
    ("flood_sim.self_s", "s"),
    ("flooding.bfs_calls", "count"),
    ("flooding.bfs_s", "s"),
    ("flooding.messages", "count"),
    ("sharding.bfs_s", "s"),
    ("sharding.exchange_rounds", "count"),
    ("sharding.exchange_messages", "count"),
    ("sharding.partition_s", "s"),
    ("tracegen.catalog_s", "s"),
    ("tracegen.trace_s", "s"),
    ("tracegen.term_counts_s", "s"),
    ("tracegen.workload_s", "s"),
    ("tracegen.instances", "count"),
    ("content.index_s", "s"),
    ("content.terms", "count"),
    ("content.postings", "count"),
    ("topology.build_s", "s"),
    ("cache.write_s", "s"),
    ("cache.bytes", "bytes"),
    ("cache.load_ms.topology", "ms"),
    ("cache.load_ms.bundle", "ms"),
    ("cache.load_ms.content", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("state.load_s", "s"),
    ("state.publish_s", "s"),
    ("http.requests", "count"),
    ("http.self_ms", "ms"),
    ("protocol.parse_ms", "ms"),
    ("protocol.encode_ms", "ms"),
    ("service.admitted", "count"),
    ("service.shed", "count"),
    ("service.timeouts", "count"),
    ("service.jobs_per_round", "jobs"),
    ("service.queue_wait_ms", "ms"),
    ("service.latency_ms", "ms"),
    ("batch.queries", "count"),
    ("batch.evaluate_s", "s"),
    ("batch.us_per_query", "us"),
    ("batch.busy_share", "share"),
    ("flood_cache.hit_ratio", "share"),
    ("flood_cache.bfs", "count"),
    ("match.hit_ratio", "share"),
    ("match.misses", "count"),
    ("server.cpu_share", "share"),
    ("driver.late_p99_ms", "ms"),
    ("driver.cpu_share", "share"),
    ("request.tail_ms", "ms"),
    ("request.samples", "count"),
    ("env.probe_ms", "ms"),
    ("trace.overhead", "share"),
    ("trace.blocking_share", "share"),
)

#: Launches of the batch child per untraced run; each measures for its
#: share of the run, and the median of their set-up times is reported.
#: ``build`` launches twice because one cold build takes over a third
#: of the run.
BATCH_LAUNCHES = {"fig8": 3, "build": 2}
CHILD_TIMEOUT_S = 150.0
FIG8_NODES = 40_000
SERVE_NODES = 5_000


@dataclass
class Report:
    """A finished run: human-readable lines plus the result object."""

    lines: list[str] = field(default_factory=list)
    result: dict[str, Any] = field(default_factory=dict)


def _prepare(cache: Path) -> tuple[Any, Any, Any]:
    """Build (first run) or load the artifacts the workloads start from.

    Returns the 5k serving topology, trace bundle and content index.
    """
    from repro.core.experiment import (
        Fig8TopologyConfig,
        build_content_index,
        build_fig8_topology,
        build_trace_bundle,
    )
    from repro.tracegen.gnutella_trace import GnutellaTraceConfig

    os.environ["REPRO_CACHE_DIR"] = str(cache)
    build_fig8_topology(Fig8TopologyConfig(n_nodes=FIG8_NODES))
    topology = build_fig8_topology(Fig8TopologyConfig(n_nodes=SERVE_NODES, seed=0))
    bundle = build_trace_bundle(trace_config=GnutellaTraceConfig(n_peers=SERVE_NODES, seed=0))
    content = build_content_index(bundle.trace)
    return topology, bundle, content


def _shm_segments() -> set[str]:
    """Names in ``/dev/shm`` (empty where there is none)."""
    shm = Path("/dev/shm")
    return {p.name for p in shm.iterdir()} if shm.is_dir() else set()


def _child_env(root: Path, cache: Path) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(root / "src"), str(root)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REPRO_CACHE_DIR"] = str(cache)
    return env


def _run_batch(workload: str, *, root: Path, run_dir: Path, env: dict[str, str],
               seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Launch the batch child :data:`BATCH_LAUNCHES` times (once when
    traced), each measuring for its share of ``seconds``; merge them."""
    from perfbench.program import merge

    launches = 1 if trace else BATCH_LAUNCHES[workload]
    results: list[dict[str, Any]] = []
    for i in range(launches):
        out = run_dir / f"child-{i}.json"
        log = run_dir / f"child-{i}.log"
        argv = [sys.executable, "-m", "perfbench.program", workload,
                "--seed", str(seed), "--seconds", repr(seconds / launches),
                "--trace", str(int(trace)), "--run-dir", str(run_dir),
                "--out", str(out), "--part", str(i), "--parts", str(launches)]
        with log.open("wb") as handle:
            argv += ["--spawned-at", repr(now())]
            proc = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                                  stderr=handle, timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            tail = "\n".join(log.read_text(errors="replace").splitlines()[-20:])
            raise RuntimeError(f"{workload} child exited with {proc.returncode}:\n{tail}")
        results.append(json.loads(out.read_text()))
    return merge(workload, results)


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> Report:
    """Run ``workload`` once and return its report."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    state = root / ".perfbench"
    cache = state / "cache"
    run_dir = state / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env_info = environment(root)
    shm_before = _shm_segments()
    probe_start = probe_ms()
    try:
        topology, bundle, content = _prepare(cache)
        env = _child_env(root, cache)
        if workload in ("fig8", "build"):
            result = _run_batch(workload, root=root, run_dir=run_dir, env=env,
                                seed=seed, seconds=seconds, trace=trace)
        else:
            from perfbench.serve_bench import POOL, run_serve
            from repro.serve.load import build_query_pool

            result = run_serve(root=root, run_dir=run_dir, env=env, seed=seed,
                               seconds=seconds, trace=trace, oracle=(topology, content),
                               pool=build_query_pool(bundle.workload, POOL))
        if trace:
            traces = state / "traces"
            traces.mkdir(exist_ok=True)
            for spans in run_dir.glob("*spans.json"):
                shutil.copyfile(spans, traces / f"{workload}-seed{seed}-{spans.name}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    leaked = sorted(_shm_segments() - shm_before)
    if leaked:
        result["errors"].append(f"shared-memory segments outlived the run: {leaked[:4]}")
    probe_end = probe_ms()
    return _report(workload, seed, seconds, trace, env_info, probe_start, probe_end, result)


def _report(workload: str, seed: int, seconds: float, trace: bool,
            env_info: dict[str, str], probe_start: float, probe_end: float,
            result: dict[str, Any]) -> Report:
    report = Report()
    report.lines.append(
        f"perfbench workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}"
    )
    report.lines.append(
        "env " + " ".join(f"{k}={v}" for k, v in env_info.items())
        + f" probe_start_ms={probe_start:.2f} probe_end_ms={probe_end:.2f}"
    )
    metrics: dict[str, dict[str, Any]] = {}
    if not trace:
        roles = ROLES[workload]
        for name, unit in E2E:
            value = float(result[name])
            metrics[name] = {"value": value, "unit": unit}
            role = roles.get(name, "")
            report.lines.append(f"  {name:<14} {value:>14.4f} {unit:<5} {role}")
    else:
        layers = {name: 0.0 for name, _ in PER_LAYER}
        unknown = set(result.get("layers", {})) - set(layers)
        if unknown:
            raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
        layers.update(result.get("layers", {}))
        layers["env.probe_ms"] = 0.5 * (probe_start + probe_end)
        for name, unit in PER_LAYER:
            value = float(layers[name])
            metrics[name] = {"value": value, "unit": unit}
            report.lines.append(f"  {name:<28} {value:>16.4f} {unit}")
    for label, value in result.get("info", {}).items():
        shown = " ".join(f"{v:.4f}" for v in value) if isinstance(value, list) else f"{value:.4f}"
        report.lines.append(f"  (not gated) {label}: {shown}")
    errors = list(result.get("errors", []))
    for error in errors:
        report.lines.append(f"  check failed: {error}")
    report.result = {
        "correct": not errors,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    return report
