"""The v3 array-analysis layer: lattice, inference, SIM015-SIM017, mem budget.

Three blocks: unit tests of the :mod:`repro.lint.arrays` abstract
domain (join, dtype resolution, environments, return summaries), the
fixture-package checks for each rule (true positives, true negatives,
and pragma discipline), and the memory-budget golden test pinned to
the seed topology structures after the int32/int16 shrink.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint import LintConfig, find_pyproject, lint_file, load_config, run_lint
from repro.lint.arrays import (
    ArrayInference,
    ArrayValue,
    TOP,
    fits_dtype,
    hot_functions,
    join,
    narrowest_int_dtype,
)
from repro.lint.membudget import build_report, check_budget, render_report

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parents[2]
SRC = REPO_ROOT / "src"


def repo_config():
    return load_config(find_pyproject(SRC))


def _fixture_lines(name: str, code: str) -> list[int]:
    config = LintConfig(
        select=frozenset({code}), hot_roots=(f"{name}.hot_kernel",)
    )
    return [d.line for d in lint_file(FIXTURES / f"{name}.py", config)]


def _index_source(tmp_path: Path, source: str, config: LintConfig | None = None):
    f = tmp_path / "mod.py"
    f.write_text(source)
    run = run_lint([f], config or LintConfig())
    assert run.project is not None
    return run.project.index


# -- the abstract domain ----------------------------------------------


class TestLattice:
    def test_join_agreeing_values_keeps_everything(self) -> None:
        a = ArrayValue(dtype="int32", vmin=0, vmax=5, array=True)
        b = ArrayValue(dtype="int32", vmin=-1, vmax=3, array=True)
        merged = join(a, b)
        assert merged == ArrayValue(dtype="int32", vmin=-1, vmax=5, array=True)

    def test_join_disagreement_degrades_fields_independently(self) -> None:
        a = ArrayValue(dtype="int32", vmin=0, vmax=5, array=True)
        b = ArrayValue(dtype="int64", vmin=0, vmax=5, array=False)
        merged = join(a, b)
        assert merged.dtype is None  # dtypes disagree
        assert (merged.vmin, merged.vmax) == (0, 5)  # bounds still agree
        assert merged.array  # either side being an array taints

    def test_join_with_top_loses_bounds(self) -> None:
        a = ArrayValue(dtype="int16", vmin=0, vmax=1, array=True)
        merged = join(a, TOP)
        assert merged.dtype is None and not merged.has_bounds

    def test_fits_and_narrowest_dtype(self) -> None:
        assert fits_dtype(0, 200, "int16")
        assert not fits_dtype(0, 2**40, "int32")
        assert narrowest_int_dtype(0, 200) == "int16"
        assert narrowest_int_dtype(-1, 40_000) == "int32"
        assert narrowest_int_dtype(0, 2**40) == "int64"


# -- dtype resolution and environments --------------------------------


class TestInference:
    def test_resolve_dtype_chains_strings_and_builtins(self, tmp_path) -> None:
        index = _index_source(
            tmp_path,
            "import numpy as np\n"
            "a = np.zeros(4, dtype=np.int32)\n"
            "b = np.zeros(4, dtype='uint16')\n"
            "c = np.zeros(4, dtype=bool)\n"
            "d = np.zeros(4, dtype=np.dtype(np.int8))\n"
            "def f():\n"
            "    return a, b, c, d\n",
        )
        inference = ArrayInference(index)
        module = next(iter(index.modules.values()))
        exprs = {
            t.targets[0].id: t.value.keywords[0].value  # type: ignore[attr-defined]
            for t in module.tree.body
            if isinstance(t, ast.Assign)
        }
        resolved = {
            name: inference.resolve_dtype(node, module)
            for name, node in exprs.items()
        }
        assert resolved == {
            "a": "int32", "b": "uint16", "c": "bool", "d": "int8"
        }

    def test_module_constant_dtype_resolves(self, tmp_path) -> None:
        index = _index_source(
            tmp_path,
            "import numpy as np\n"
            "MY_DTYPE = np.dtype(np.int16)\n"
            "def f(n):\n"
            "    out = np.full(n, -1, dtype=MY_DTYPE)\n"
            "    return out\n",
        )
        inference = ArrayInference(index)
        summary = inference.returns("mod.f")
        assert summary and summary[0].dtype == "int16"

    def test_env_tracks_loop_bounds_and_mutation_widening(self, tmp_path) -> None:
        index = _index_source(
            tmp_path,
            "import numpy as np\n"
            "def f(n, blob):\n"
            "    a = np.zeros(n, dtype=np.int64)\n"
            "    for i in range(8):\n"
            "        a[i] = i\n"
            "    b = np.zeros(n, dtype=np.int64)\n"
            "    b[0] = blob.sum()\n"
            "    return a, b\n",
        )
        env = ArrayInference(index).env("mod.f")
        assert env["a"].dtype == "int64"
        assert (env["a"].vmin, env["a"].vmax) == (0, 7)
        assert env["b"].dtype == "int64" and not env["b"].has_bounds

    def test_bare_ndarray_annotation_seeds_arrayness(self, tmp_path) -> None:
        index = _index_source(
            tmp_path,
            "import numpy as np\n"
            "def f(xs: np.ndarray, n: int):\n"
            "    return xs\n",
        )
        env = ArrayInference(index).env("mod.f")
        assert env["xs"].array and env["xs"].dtype is None
        assert "n" not in env

    def test_return_summary_joins_branches(self, tmp_path) -> None:
        index = _index_source(
            tmp_path,
            "import numpy as np\n"
            "def f(flag, n):\n"
            "    if flag:\n"
            "        return np.zeros(n, dtype=np.int32)\n"
            "    return np.ones(n, dtype=np.int32)\n",
        )
        summary = ArrayInference(index).returns("mod.f")
        assert summary and summary[0].dtype == "int32"
        assert (summary[0].vmin, summary[0].vmax) == (0, 1)


# -- the hot set ------------------------------------------------------


class TestHotSet:
    def test_roots_and_reachable_callees_are_hot(self, tmp_path) -> None:
        config = LintConfig(hot_roots=("mod.entry",))
        index = _index_source(
            tmp_path,
            "def entry(n):\n"
            "    return helper(n)\n"
            "def helper(n):\n"
            "    return n + 1\n"
            "def unrelated(n):\n"
            "    return n\n",
            config,
        )
        hot = hot_functions(index, config)
        assert "mod.entry" in hot and "mod.helper" in hot
        assert "mod.unrelated" not in hot

    def test_extra_entries_extend_the_default_roots(self, tmp_path) -> None:
        config = LintConfig(hot_roots=(), hot_extra=("mod.only",))
        index = _index_source(
            tmp_path, "def only(n):\n    return n\n", config
        )
        assert hot_functions(index, config) == frozenset({"mod.only"})

    def test_repo_hot_set_covers_the_three_kernel_roots(self) -> None:
        run = run_lint([SRC], repo_config())
        assert run.project is not None
        hot = hot_functions(run.project.index, run.project.config)
        assert "repro.overlay.flooding.flood_depths" in hot
        assert "repro.overlay.batch._evaluate_keys" in hot
        assert "repro.overlay.content.SharedContentIndex.match_batch" in hot
        # configured extras, plus reachability into shared helpers
        assert "repro.overlay.flooding.FloodDepthCache.entry" in hot
        assert "repro.overlay.flooding.FloodDepthCache._bfs_with" in hot


# -- SIM015 -----------------------------------------------------------


class TestSim015:
    def test_flags_provably_narrow_hot_allocations(self) -> None:
        lines = _fixture_lines("sim015_bad", "SIM015")
        assert len(lines) == 3  # loop-bounded, constant fill, refused pragma

    def test_negatives_stay_silent(self) -> None:
        # Wide values, killed bounds, out= aliasing, already-narrow
        # dtypes, reasoned pragmas, and cold functions: all clean.
        assert _fixture_lines("sim015_ok", "SIM015") == []

    def test_reasonless_pragma_is_refused(self) -> None:
        config = LintConfig(
            select=frozenset({"SIM015"}),
            hot_roots=("sim015_bad.hot_kernel",),
        )
        diags = lint_file(FIXTURES / "sim015_bad.py", config)
        refused = [d for d in diags if "pragma refused" in d.message]
        assert len(refused) == 1


# -- SIM016 -----------------------------------------------------------


class TestSim016:
    def test_flags_all_four_hidden_copy_shapes(self) -> None:
        lines = _fixture_lines("sim016_bad", "SIM016")
        assert len(lines) == 4  # unique-in-loop, a[i][j], astype, shm .T

    def test_shm_transport_check_applies_outside_hot_set(self) -> None:
        config = LintConfig(select=frozenset({"SIM016"}), hot_roots=())
        diags = lint_file(FIXTURES / "sim016_bad.py", config)
        assert len(diags) == 1 and ".T" in diags[0].message

    def test_negatives_stay_silent(self) -> None:
        assert _fixture_lines("sim016_ok", "SIM016") == []

    def test_sorted_unique_in_hot_loop_is_flagged(self, tmp_path: Path) -> None:
        module = tmp_path / "mod.py"
        module.write_text(
            "from repro.utils.stats import sorted_unique\n"
            "\n"
            "def hot_kernel(frontier):\n"
            "    for _ in range(3):\n"
            "        frontier = sorted_unique(frontier)\n"
            "    return frontier\n"
        )
        config = LintConfig(
            select=frozenset({"SIM016"}), hot_roots=("mod.hot_kernel",)
        )
        diags = lint_file(module, config)
        assert [d.line for d in diags] == [5]
        assert "sorted_unique inside a loop" in diags[0].message


# -- SIM017 -----------------------------------------------------------


class TestSim017:
    def test_flags_pure_element_loops(self) -> None:
        lines = _fixture_lines("sim017_bad", "SIM017")
        assert len(lines) == 2  # read loop and write loop

    def test_negatives_stay_silent(self) -> None:
        # Vectorized forms, loops that call helpers, object loops,
        # reasoned pragmas, and cold functions: all clean.
        assert _fixture_lines("sim017_ok", "SIM017") == []


# -- the memory budget ------------------------------------------------


class TestMemBudget:
    @pytest.fixture(scope="class")
    def report(self):
        run = run_lint([SRC], repo_config())
        assert run.project is not None
        return build_report(run.project)

    def test_seed_structures_report_shrunk_dtypes(self, report) -> None:
        """Golden: the committed kernels' inferred dtypes, post-shrink."""
        arrays = {
            f"{a['structure']}.{a['array']}": a
            for g in report["groups"].values()
            for a in g["arrays"]
        }
        assert arrays["Topology.offsets"]["dtype"] == "int32"
        assert arrays["Topology.offsets"]["inferred"]
        assert arrays["Topology.neighbors"]["dtype"] == "int32"
        assert arrays["Topology.forwards"]["dtype"] == "bool"
        assert arrays["DepthEntry.depth"]["dtype"] == "int16"
        assert arrays["DepthEntry.depth"]["inferred"]
        assert arrays["GnutellaShareTrace.peer_of_instance"]["dtype"] == "int32"
        assert arrays["GnutellaShareTrace.peer_of_instance"]["inferred"]
        assert arrays["SharedContentIndex._posting_instances"]["dtype"] == "int32"
        assert arrays["SharedContentIndex._posting_instances"]["inferred"]
        assert arrays["PostingShard.offsets"]["dtype"] == "int32"

    def test_csr_depth_group_meets_the_shrink_target(self, report) -> None:
        group = report["groups"]["csr_depth"]
        assert group["bytes_per_node"] == pytest.approx(33.4)
        assert group["ratio_vs_seed"] <= 0.6  # the acceptance bar

    def test_totals_scale_linearly(self, report) -> None:
        totals = {t["nodes"]: t["bytes"] for t in report["totals"]}
        assert set(totals) == {40_000, 1_000_000, 10_000_000}
        assert totals[10_000_000] == pytest.approx(
            250 * totals[40_000], rel=1e-6
        )

    def test_render_mentions_every_array(self, report) -> None:
        text = render_report(report)
        assert "csr_depth" in text and "postings" in text
        assert "Topology.neighbors: int32 (inferred)" in text

    def test_check_budget_flags_regression_and_missing_group(self, report) -> None:
        committed = {
            "schema": 1,
            "groups": {"csr_depth": {"bytes_per_node": 20.0}},
        }
        problems = check_budget(report, committed, tolerance=0.02)
        assert any("csr_depth" in p and "exceeding" in p for p in problems)
        assert any("postings" in p and "not in the committed" in p for p in problems)

    def test_check_budget_accepts_within_tolerance(self, report) -> None:
        committed = {
            "schema": 1,
            "groups": {
                name: {"bytes_per_node": g["bytes_per_node"]}
                for name, g in report["groups"].items()
            },
        }
        assert check_budget(report, committed, tolerance=0.02) == []

    def test_committed_budget_matches_head(self) -> None:
        """The CI gate's invariant: lint/mem-budget.json is current."""
        run = run_lint([SRC], repo_config())
        assert run.project is not None
        config = run.project.config
        path = config.mem_budget_path
        assert path is not None and path.is_file(), (
            "lint/mem-budget.json is missing; run "
            "`python -m repro.lint src --write-mem-budget`"
        )
        import json

        committed = json.loads(path.read_text())
        report = build_report(run.project)
        problems = check_budget(
            report, committed, tolerance=config.mem_budget_tolerance
        )
        assert problems == [], "\n".join(problems)
