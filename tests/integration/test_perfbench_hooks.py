"""The benchmark's tracing hooks still find what they wrap.

``perfbench`` traces a run by replacing module globals and methods of
the program with span wrappers (``Recorder.patch(owner, attr, name)``).
A refactor that renames one of them, or stops looking one up at call
time, would silently empty a per-layer metric of ``--trace 1``; these
tests fail instead.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.core import flood_sim
from repro.overlay import sharding
from repro.overlay.topology import two_tier_gnutella
from repro.runtime import shards

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: What each owner expression of a ``rec.patch`` call in perfbench names.
OWNERS = {
    "flood_sim": "repro.core.flood_sim",
    "sharding": "repro.overlay.sharding",
    "shards": "repro.runtime.shards",
    "runner": "repro.runtime.shards.ShardedFloodRunner",
    "experiment": "repro.core.experiment",
    "cache": "repro.runtime.cache",
    "server": "repro.serve.server",
    "server.OverlayQueryServer": "repro.serve.server.OverlayQueryServer",
    "service": "repro.serve.service",
    "batch.BatchQueryEngine": "repro.overlay.batch.BatchQueryEngine",
    "state.ServiceState": "repro.serve.state.ServiceState",
}


def _resolve(dotted: str) -> Any:
    """Import the longest module prefix of ``dotted``, then getattr."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return target
    raise ModuleNotFoundError(dotted)


def _loop_values(tree: ast.AST, var: str) -> list[str]:
    """First elements of ``for var, ... in ((...), ...)`` tuple loops."""
    values = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.For)
            and isinstance(node.target, ast.Tuple)
            and isinstance(node.target.elts[0], ast.Name)
            and node.target.elts[0].id == var
            and isinstance(node.iter, ast.Tuple)
        ):
            for item in node.iter.elts:
                assert isinstance(item, ast.Tuple)
                values.append(ast.literal_eval(item.elts[0]))
    return values


def patched_names() -> list[tuple[str, str]]:
    """Every ``(owner expression, attribute)`` perfbench patches."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch"
                and len(node.args) == 3
            ):
                continue
            owner, attr = ast.unparse(node.args[0]), node.args[1]
            if isinstance(attr, ast.Constant):
                found.append((owner, attr.value))
            else:
                assert isinstance(attr, ast.Name)
                found.extend((owner, value) for value in _loop_values(tree, attr.id))
    return found


def test_every_patched_name_exists():
    names = patched_names()
    # The parse must see the fig8 hooks, or this test proves nothing.
    assert ("sharding", "_serial_expand") in names
    assert ("experiment", "two_tier_gnutella") in names
    missing = [
        f"{owner}.{attr}"
        for owner, attr in names
        if not hasattr(_resolve(OWNERS[owner]), attr)
    ]
    assert missing == []


def test_fig8_hooks_see_every_call(monkeypatch):
    """Wrappers installed the way perfbench does are the ones called."""
    calls: dict[str, int] = {}

    def wrap(owner: Any, attr: str) -> None:
        original = getattr(owner, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[attr] = calls.get(attr, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, traced)

    wrap(shards, "partition_topology")
    wrap(sharding, "_serial_expand")
    wrap(sharding, "expand_shard")
    wrap(flood_sim, "flood_depths")
    topo = two_tier_gnutella(400, seed=3)
    with shards.ShardedFloodRunner(topo, n_shards=4, n_workers=1) as runner:
        assert calls.pop("partition_topology") == 1
        depth, messages = runner.flood_depths(np.array([0, 7]), 4)
        # One exchange per level; each touches one to four shards.
        levels = calls.pop("_serial_expand")
        assert 1 <= levels <= 4
        assert levels <= calls.pop("expand_shard") <= 4 * levels
        spec = flood_sim.PlacementSpec(kind="uniform", n_replicas=2)
        sharded = flood_sim.run_flood_success(
            topo, spec, ttls=(1, 2), n_eval_objects=3, runner=runner
        )
        assert calls.pop("_serial_expand") > 0 and "flood_depths" not in calls
        dense = flood_sim.run_flood_success(topo, spec, ttls=(1, 2), n_eval_objects=3)
        assert calls.pop("flood_depths") == 3
    reference = flood_sim.flood_depths(topo, np.array([0, 7]), 4)
    assert np.array_equal(depth, reference[0]) and messages == reference[1]
    np.testing.assert_array_equal(sharded.success, dense.success)

