"""Child process of the batch workloads (``fig8`` and ``build``).

The harness starts this module several times per run (``--part`` of
``--parts``), one after the other; each launch sets up, measures for
its share of the run and writes one JSON result to ``--out``, and
:func:`merge` combines them.  Spreading the repetitions over several
processes keeps one slow process from deciding the run.  Set-up time
runs from the harness's spawn stamp (``--spawned-at``, host monotonic
clock) to the ready stamp here, so interpreter start and imports count.

With ``--trace 1`` the child first runs the workload untraced as a
reference, then installs span wrappers around the layers' public entry
points and runs it again; the per-layer split comes from the second
run and the gap between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from perfbench.clock import now
from perfbench.env import cpu_pair
from perfbench.spans import Recorder, Span, self_times, totals

__all__ = ["main"]

FIG8_TTLS = (1, 2, 3, 4, 5)
FIG8_OBJECTS = 150
FIG8_UNIFORM = (1, 4, 9, 19, 39)
FIG8_SHARDS = 4
BUILD_PEERS = 5_000
#: Cache-hit reloads of the three build artifacts, at least.
MIN_RELOADS = 3
#: Seconds kept free for the reloads when deciding on another build.
RELOAD_RESERVE_S = 1.0
#: Reloads timed in a traced build run.
TRACED_RELOADS = 5

Result = dict[str, Any]


def _counters() -> dict[str, int]:
    from repro.obs import metrics

    return dict(metrics().snapshot().counters)


def _delta(after: dict[str, int], before: dict[str, int], name: str) -> int:
    return after.get(name, 0) - before.get(name, 0)


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = now()
    value = fn()
    return now() - start, value


def _run_on(cpus: tuple[int, int] | None, k: int) -> None:
    """Move this process to ``cpus[k % 2]`` (nowhere when ``None``).

    Each of a shared host's CPUs is slowed by other tenants for seconds
    to minutes at a time, independently of the other; repetitions that
    alternate between them give the fastest one a calm CPU more often.
    """
    if cpus is not None:
        os.sched_setaffinity(0, {cpus[k % 2]})


def _blocking_self_s(spans: list[Span], roots: set[str]) -> float:
    """Self time of every span below the named roots."""
    own = self_times(spans)
    return sum(own[s.sid] for s in spans if s.name not in roots)


# -- fig8 -------------------------------------------------------------


def _fig8_shape_errors(curves: list[Any]) -> list[str]:
    """The paper's Fig. 8 shape: Zipf hugs the lowest replication."""
    by_label = {c.label: np.asarray(c.success) for c in curves}
    zipf = by_label["Zipf"]
    uniform = [by_label[f"Uniform ({r} replicas)"] for r in FIG8_UNIFORM]
    errors: list[str] = []
    for label, success in by_label.items():
        if np.any(np.diff(success) < 0):
            errors.append(f"{label} success decreases with TTL")
    for low, high in zip(uniform[:-1], uniform[1:]):
        if np.any(low > high):
            errors.append("uniform curves are not ordered by replication")
    ttl3 = FIG8_TTLS.index(3)
    # At TTL 1-2 a single heavily replicated object can lift the Zipf
    # average over the 9-replica curve; the claim is about TTL >= 3.
    if np.any(zipf[ttl3:] >= uniform[2][ttl3:]):
        errors.append("Zipf curve reaches the 9-replica curve at TTL >= 3")
    if not 0.01 <= zipf[ttl3] <= 0.15:
        errors.append(f"TTL-3 Zipf success {zipf[ttl3]:.4f} is not a few percent")
    if abs(zipf[ttl3] - uniform[0][ttl3]) >= abs(zipf[ttl3] - uniform[2][ttl3]):
        errors.append("Zipf TTL-3 success is nearer 9 replicas than 1")
    return errors


def _same_curves(a: list[Any], b: list[Any]) -> bool:
    return len(a) == len(b) and all(
        x.label == y.label and np.array_equal(x.success, y.success)
        for x, y in zip(a, b)
    )


def _fig8(args: argparse.Namespace) -> Result:
    from repro.core import flood_sim
    from repro.core.experiment import Fig8TopologyConfig, build_fig8_topology
    from repro.overlay import sharding
    from repro.runtime import shards

    rec = Recorder() if args.trace else None
    if rec is not None:
        rec.patch(shards, "partition_topology", "sharding.partition")
    topology = build_fig8_topology(Fig8TopologyConfig())
    runner = shards.ShardedFloodRunner(
        topology, n_shards=FIG8_SHARDS, n_workers=1
    )
    ready = now()
    result: Result = {"setup_s": ready - args.spawned_at}
    specs = [flood_sim.PlacementSpec()] + [
        flood_sim.PlacementSpec(kind="uniform", n_replicas=r)
        for r in FIG8_UNIFORM
    ]

    def curve(spec: Any, by: Any) -> Any:
        return flood_sim.run_flood_success(
            topology,
            spec,
            ttls=FIG8_TTLS,
            n_eval_objects=FIG8_OBJECTS,
            seed=args.seed,
            runner=by,
        )

    def traced(i: int, by: Any) -> None:
        """Curve ``i`` again with every layer wrapped in spans."""
        nonlocal attempted, failed
        assert rec is not None
        restore = [
            rec.patch(flood_sim, "run_flood_success", "flood_sim"),
            rec.patch(flood_sim, "flood_depths", "flooding.bfs"),
            rec.patch(runner, "flood_depths", "sharding.bfs"),
            rec.patch(sharding, "_serial_expand", "sharding.exchange"),
            rec.patch(sharding, "expand_shard", "sharding.expand"),
        ]
        before = _counters()
        try:
            with rec.span("fig8.dense" if by is None else "fig8.sharded"):
                got = curve(specs[i], by)
        finally:
            for undo in restore:
                undo()
        after = _counters()
        for name in counted:
            counted[name] += _delta(after, before, name)
        attempted += 1
        if not _same_curves([got], [reference[i]]):
            errors.append(f"{specs[i].label()}: traced curve differs from untraced")
            failed += 1

    errors: list[str] = []
    failed = attempted = 0
    # This launch (``--part`` of ``--parts``) computes every curve once
    # with the dense kernel and every ``parts``-th curve, from its own
    # part on, with the sharded one (about five times dearer).  Then,
    # untraced, it repeats the dense kernel alone, each curve whose
    # last time still fits before the deadline.  Repetitions and
    # launches alternate between the CPUs; :func:`merge` takes each
    # curve's fastest repetition over all launches.  Traced, each
    # untraced computation is followed at once by a traced one, so the
    # two see the same state of the host.
    dense: list[list[float]] = [[] for _ in specs]
    sharded: list[list[float]] = [[] for _ in specs]
    reference: list[Any] = []
    deadline = ready + args.seconds

    def compute(i: int, times: list[float], by: Any, cpu: int) -> None:
        nonlocal attempted, failed
        _run_on(args.cpus, cpu)
        elapsed, got = _timed(lambda: curve(specs[i], by))
        times.append(elapsed)
        attempted += 1
        if len(reference) == i:
            reference.append(got)
        elif not _same_curves([got], [reference[i]]):
            errors.append(f"{specs[i].label()}: sharded or repeated curve differs")
            failed += 1

    #: Counter increments during the traced computations.
    counted = dict.fromkeys(("flood.calls", "flood.messages", "shard.exchange.messages"), 0)
    for i in range(len(specs)):
        compute(i, dense[i], None, args.part)
        if rec is not None:
            traced(i, None)
        if i % args.parts == args.part:
            compute(i, sharded[i], runner, args.part + 1)
            if rec is not None:
                traced(i, runner)
    ran = rec is None
    while ran:
        ran = False
        for i in range(len(specs)):
            if now() + dense[i][-1] <= deadline:
                ran = True
                compute(i, dense[i], None, args.part + len(dense[i]))
    errors += _fig8_shape_errors(reference)
    result.update(
        dense=dense,
        sharded=sharded,
        curves=[np.asarray(c.success).tolist() for c in reference],
    )
    if rec is not None:
        dense_s = sum(min(t) for t in dense)
        sharded_s = sum(min(t) for t in sharded)
        untraced_s = dense_s + sharded_s
        roots = {"fig8.dense", "fig8.sharded"}
        timed = [s for s in rec.spans if s.name != "sharding.partition"]
        traced_s = sum(s.duration for s in timed if s.name in roots)
        inclusive = totals(timed, self_only=False)
        own = totals(timed, self_only=True)
        result["layers"] = {
            "flood_sim.self_s": own.get("flood_sim", 0.0),
            "flooding.bfs_calls": counted["flood.calls"],
            "flooding.bfs_s": inclusive.get("flooding.bfs", 0.0),
            "flooding.messages": counted["flood.messages"],
            "sharding.bfs_s": inclusive.get("sharding.bfs", 0.0),
            "sharding.exchange_rounds": sum(
                1 for s in timed if s.name == "sharding.exchange"
            ),
            "sharding.exchange_messages": counted["shard.exchange.messages"],
            "sharding.partition_s": totals(rec.spans, self_only=False).get(
                "sharding.partition", 0.0
            ),
            "trace.overhead": traced_s / untraced_s - 1.0,
            "trace.blocking_share": _blocking_self_s(timed, roots) / untraced_s,
        }
    runner.close()
    counters = _counters()
    if counters.get("artifact_cache.misses", 0):
        errors.append("the warm artifact cache missed")
    if "layers" in result:
        result["layers"]["cache.hits"] = counters.get("artifact_cache.hits", 0)
        result["layers"]["cache.misses"] = counters.get("artifact_cache.misses", 0)
    result.update(attempted=attempted, failed=failed, errors=errors)
    return result


# -- build ------------------------------------------------------------


def _arrays(obj: Any, path: str = "", depth: int = 0) -> Iterator[tuple[str, np.ndarray]]:
    """Every ndarray reachable through an artifact's pickled state."""
    if isinstance(obj, np.ndarray):
        yield path, obj
        return
    if depth > 4:
        return
    if isinstance(obj, (list, tuple)):
        if len(obj) <= 64:
            for i, item in enumerate(obj):
                yield from _arrays(item, f"{path}[{i}]", depth + 1)
        return
    if isinstance(obj, dict):
        # Large dicts are lookup tables of scalars (term ids), not
        # containers of arrays.
        items = obj.items() if len(obj) <= 64 else ()
    elif hasattr(obj, "__dict__"):
        # The pickled state is what the cache stores; it leaves out
        # runtime memos such as the content index's match cache.
        getstate = getattr(obj, "__getstate__", None)
        state = getstate() if getstate is not None else vars(obj)
        items = state.items() if isinstance(state, dict) else ()
    else:
        return
    for key, value in sorted(items, key=lambda kv: str(kv[0])):
        yield from _arrays(value, f"{path}.{key}", depth + 1)


def _artifact_mismatches(built: list[dict[str, np.ndarray]],
                         loaded: tuple[Any, ...]) -> list[str]:
    """Paths of arrays in a reloaded artifact that differ from the built
    one (``built`` holds each built artifact's arrays by path)."""
    bad: list[str] = []
    for name, reference, r in zip(("bundle", "content", "topology"), built, loaded):
        found = list(_arrays(r))
        if not found:
            bad.append(f"{name}: no arrays reloaded")
        for path, array in found:
            if path not in reference or not np.array_equal(reference[path], array):
                bad.append(f"{name}{path}")
    return bad


def _digest(arrays: list[dict[str, np.ndarray]]) -> str:
    """SHA-256 over every array of the built artifacts, by path."""
    h = hashlib.sha256()
    for by_path in arrays:
        for path, array in sorted(by_path.items()):
            h.update(path.encode())
            h.update(str(array.dtype).encode())
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _build(args: argparse.Namespace) -> Result:
    from repro.core import experiment
    from repro.runtime import cache
    from repro.tracegen.gnutella_trace import GnutellaTraceConfig

    run_dir = Path(args.run_dir)
    trace_cfg = GnutellaTraceConfig(n_peers=BUILD_PEERS, seed=args.seed)
    topo_cfg = experiment.Fig8TopologyConfig(n_nodes=BUILD_PEERS, seed=args.seed)
    ready = now()
    result: Result = {"setup_s": ready - args.spawned_at}

    def use_cache(name: str) -> Path:
        directory = run_dir / name
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(directory)
        return directory

    def build_all() -> tuple[list[float], tuple[Any, Any, Any]]:
        """Seconds for, and the artifacts of, the bundle, the content
        index and the topology: built on a cache miss, loaded on a hit."""
        t_bundle, bundle = _timed(
            lambda: experiment.build_trace_bundle(trace_config=trace_cfg)
        )
        t_content, content = _timed(
            lambda: experiment.build_content_index(bundle.trace)
        )
        t_topology, topology = _timed(
            lambda: experiment.build_fig8_topology(topo_cfg)
        )
        return [t_bundle, t_content, t_topology], (bundle, content, topology)

    errors: list[str] = []
    failed = 0
    rec = Recorder() if args.trace else None
    if rec is not None:
        # Untraced reference build, then the same build traced.
        use_cache("reference-cache")
        untraced_s, _ = _timed(build_all)
        shutil.rmtree(run_dir / "reference-cache", ignore_errors=True)
        gc.collect()
        for attr, name in (
            ("build_trace_bundle", "tracegen.bundle"),
            ("build_content_index", "content.build"),
            ("build_fig8_topology", "topology.fig8"),
            ("MusicCatalog", "tracegen.catalog"),
            ("GnutellaShareTrace", "tracegen.trace"),
            ("file_term_peer_counts", "tracegen.term_counts"),
            ("QueryWorkload", "tracegen.workload"),
            ("SharedContentIndex", "content.index"),
            ("two_tier_gnutella", "topology.build"),
        ):
            rec.patch(experiment, attr, name)
        rec.patch(cache, "_write_blob", "cache.write")
    # Cold builds, each into an empty cache, while another one fits
    # before the deadline with time left for the reloads (one build
    # when traced); then cache-hit reloads of the last one until the
    # deadline.  Repetitions and launches alternate between the two
    # CPUs; :func:`merge` takes each artifact's fastest repetition over
    # all launches.
    deadline = ready + args.seconds
    builds: list[list[float]] = []
    built_arrays: list[dict[str, np.ndarray]] = []
    while not builds or (rec is None and now() + sum(builds[-1]) + RELOAD_RESERVE_S <= deadline):
        if builds:
            shutil.rmtree(directory, ignore_errors=True)
        directory = use_cache(f"cold-cache-{len(builds)}")
        _run_on(args.cpus, args.part + len(builds))
        before = _counters()
        if rec is not None:
            with rec.span("build.cold"):
                times, built = build_all()
        else:
            times, built = build_all()
        builds.append(times)
        misses = _delta(_counters(), before, "artifact_cache.misses")
        if misses != 3:
            errors.append(f"cold build missed the cache {misses} times, not 3")
        if not built_arrays:
            built_arrays = [dict(_arrays(artifact)) for artifact in built]
            bundle, content, _ = built
        else:
            mismatches = _artifact_mismatches(built_arrays, built)
            if mismatches:
                failed += 1
                errors.append("rebuild differs from build: " + ", ".join(mismatches[:4]))
        del built
    cache_bytes = sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())
    reloads: list[list[float]] = []
    while len(reloads) < (TRACED_RELOADS if rec is not None else MIN_RELOADS) or (
        rec is None and now() + sum(reloads[-1]) <= deadline
    ):
        hits_before = _counters()
        _run_on(args.cpus, args.part + len(reloads))
        times, loaded = build_all()
        reloads.append(times)
        mismatches = _artifact_mismatches(built_arrays, loaded)
        if _delta(_counters(), hits_before, "artifact_cache.misses"):
            mismatches.append("reload missed the cache")
        if mismatches:
            failed += 1
            errors.append("reload differs from build: " + ", ".join(mismatches[:4]))
        del loaded
    n_instances = int(bundle.trace.n_instances)
    result.update(
        builds=builds,
        reloads=reloads,
        instances=n_instances,
        digest=_digest(built_arrays),
        attempted=len(builds) + len(reloads),
        failed=failed,
        errors=errors,
    )
    if rec is not None:
        fastest_reload = [min(t) for t in zip(*reloads)]
        build_s = sum(builds[0])
        counters = _counters()
        (root,) = [s for s in rec.spans if s.name == "build.cold"]
        spans = [s for s in rec.spans if root.start <= s.start < root.end]
        inclusive = totals(spans, self_only=False)
        result["layers"] = {
            "tracegen.catalog_s": inclusive.get("tracegen.catalog", 0.0),
            "tracegen.trace_s": inclusive.get("tracegen.trace", 0.0),
            "tracegen.term_counts_s": inclusive.get("tracegen.term_counts", 0.0),
            "tracegen.workload_s": inclusive.get("tracegen.workload", 0.0),
            "tracegen.instances": n_instances,
            "content.index_s": inclusive.get("content.index", 0.0),
            "content.terms": int(content.term_index.n_terms),
            "content.postings": int(content.dense_postings().posting_offsets[-1]),
            "topology.build_s": inclusive.get("topology.build", 0.0),
            "cache.write_s": inclusive.get("cache.write", 0.0),
            "cache.bytes": cache_bytes,
            "cache.load_ms.bundle": 1000.0 * fastest_reload[0],
            "cache.load_ms.content": 1000.0 * fastest_reload[1],
            "cache.load_ms.topology": 1000.0 * fastest_reload[2],
            "cache.hits": _delta(counters, before, "artifact_cache.hits"),
            "cache.misses": _delta(counters, before, "artifact_cache.misses"),
            "trace.overhead": build_s / untraced_s - 1.0,
            "trace.blocking_share": _blocking_self_s(spans, {"build.cold"}) / untraced_s,
        }
    shutil.rmtree(directory, ignore_errors=True)
    return result


def merge(workload: str, parts: list[Result]) -> Result:
    """One run's result from the results of its launches."""
    errors = [e for r in parts for e in r["errors"]]
    out: Result = {
        "setup_s": statistics.median(r["setup_s"] for r in parts),
        "peak_rss_mib": max(r["peak_rss_mib"] for r in parts),
        "attempted": sum(r["attempted"] for r in parts),
        "failed": sum(r["failed"] for r in parts),
        "errors": errors,
    }
    if "layers" in parts[0]:
        out["layers"] = parts[0]["layers"]
    if workload == "fig8":
        if any(r["curves"] != parts[0]["curves"] for r in parts):
            errors.append("launches computed different Fig. 8 curves")
            out["failed"] += 1
        n = len(parts[0]["dense"])
        dense_s = sum(min(t for r in parts for t in r["dense"][i]) for i in range(n))
        sharded_s = sum(min(t for r in parts for t in r["sharded"][i]) for i in range(n))
        out.update(
            primary_ms=1000.0 * dense_s,
            secondary_ms=1000.0 * sharded_s,
            rate_per_s=2 * n * FIG8_OBJECTS / (dense_s + sharded_s),
            info={"dense repetitions per curve": [
                float(sum(len(r["dense"][i]) for r in parts)) for i in range(n)
            ]},
        )
        return out
    if any(r["digest"] != parts[0]["digest"] for r in parts):
        errors.append("launches built different artifacts")
        out["failed"] += 1
    build_s = sum(min(b[k] for r in parts for b in r["builds"]) for k in range(3))
    reload_s = sum(min(b[k] for r in parts for b in r["reloads"]) for k in range(3))
    out.update(
        primary_ms=1000.0 * build_s,
        secondary_ms=1000.0 * reload_s,
        rate_per_s=parts[0]["instances"] / build_s,
        info={"cold builds (s)": [sum(b) for r in parts for b in r["builds"]]},
    )
    return out


def main(argv: list[str] | None = None) -> int:
    """Run one batch workload child; write its result JSON to ``--out``."""
    parser = argparse.ArgumentParser(prog="perfbench.program")
    parser.add_argument("workload", choices=("fig8", "build"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    args.cpus = cpu_pair()
    result = _fig8(args) if args.workload == "fig8" else _build(args)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mib"] = usage.ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
