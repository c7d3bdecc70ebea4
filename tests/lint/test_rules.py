"""Per-rule positive/negative coverage over the fixture snippets.

Each SIM rule must fire on its ``*_bad`` fixture and stay silent on its
``*_ok`` fixture.  Fixtures are linted with a default config and the
findings filtered by code, so unrelated rules (e.g. SIM005 on a fixture
without ``__all__``) cannot mask the case under test.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import Diagnostic, LintConfig, lint_file, registered_rules

FIXTURES = Path(__file__).parent / "fixtures"


def findings(name: str, code: str) -> list[Diagnostic]:
    diags = lint_file(FIXTURES / name, LintConfig())
    return [d for d in diags if d.code == code]


def test_registry_has_all_builtin_rules() -> None:
    codes = set(registered_rules())
    assert {f"SIM00{i}" for i in range(1, 9)} <= codes


@pytest.mark.parametrize(
    ("code", "bad", "n_min"),
    [
        ("SIM001", "sim001_bad.py", 6),
        ("SIM002", "sim002_bad.py", 4),
        ("SIM003", "sim003_bad.py", 4),
        ("SIM004", "sim004_bad.py", 3),
        ("SIM006", "sim006_bad.py", 3),
        ("SIM007", "sim007_bad.py", 2),
        ("SIM008", "sim008_bad.py", 3),
    ],
)
def test_bad_fixture_triggers_rule(code: str, bad: str, n_min: int) -> None:
    diags = findings(bad, code)
    assert len(diags) >= n_min, f"{code} found only {diags}"
    assert all(d.path.endswith(bad) and d.line >= 1 for d in diags)


@pytest.mark.parametrize(
    ("code", "ok"),
    [
        ("SIM001", "sim001_ok.py"),
        ("SIM002", "sim002_ok.py"),
        ("SIM003", "sim003_ok.py"),
        ("SIM004", "sim004_ok.py"),
        ("SIM005", "sim005_ok.py"),
        ("SIM006", "sim006_ok.py"),
        ("SIM007", "sim007_ok.py"),
        ("SIM008", "sim008_ok.py"),
    ],
)
def test_ok_fixture_is_clean(code: str, ok: str) -> None:
    assert findings(ok, code) == []


def test_sim005_missing_all() -> None:
    diags = findings("sim005_missing.py", "SIM005")
    assert len(diags) == 1
    assert "does not declare __all__" in diags[0].message


def test_sim005_stale_name() -> None:
    diags = findings("sim005_stale.py", "SIM005")
    assert len(diags) == 1
    assert "'ghost'" in diags[0].message


def test_sim005_dynamic_all() -> None:
    diags = findings("sim005_dynamic.py", "SIM005")
    assert len(diags) == 1
    assert "literal list" in diags[0].message


def test_sim007_distinguishes_missing_from_untyped() -> None:
    diags = findings("sim007_bad.py", "SIM007")
    messages = " | ".join(d.message for d in diags)
    assert "sample_sizes" in messages and "no seed/rng parameter" in messages
    assert "jitter" in messages and "type annotation" in messages


def test_sim001_exempts_the_rng_module() -> None:
    # The blessed module itself calls np.random.default_rng freely.
    rng_py = Path(__file__).parents[2] / "src" / "repro" / "utils" / "rng.py"
    diags = [d for d in lint_file(rng_py, LintConfig()) if d.code == "SIM001"]
    assert diags == []


def test_sim002_exempts_benchmark_globs() -> None:
    config = LintConfig(wallclock_exempt=("*/fixtures/*",))
    diags = lint_file(FIXTURES / "sim002_bad.py", config)
    assert [d for d in diags if d.code == "SIM002"] == []


def test_sim008_exempts_print_allowed_globs() -> None:
    # CLI/reporting modules print by design; the allowlist silences SIM008.
    config = LintConfig(print_allowed=("*/fixtures/*",))
    diags = lint_file(FIXTURES / "sim008_bad.py", config)
    assert [d for d in diags if d.code == "SIM008"] == []


def test_sim008_stderr_redirect_is_allowed() -> None:
    # The ok fixture routes its one print() to stderr explicitly.
    assert findings("sim008_ok.py", "SIM008") == []


def _in_repro_package(tmp_path: Path, fixture: str, *package: str) -> Path:
    """Copy a fixture into a ``repro`` package tree under ``tmp_path``."""
    directory = tmp_path
    for part in ("repro", *package):
        directory = directory / part
        directory.mkdir()
        (directory / "__init__.py").write_text("")
    target = directory / fixture
    target.write_text((FIXTURES / fixture).read_text())
    return target


def _sim022(path: Path) -> list[Diagnostic]:
    return [d for d in lint_file(path, LintConfig()) if d.code == "SIM022"]


def test_sim022_flags_bare_unique_in_repro(tmp_path: Path) -> None:
    diags = _sim022(_in_repro_package(tmp_path, "sim022_bad.py", "overlay"))
    assert [d.line for d in diags] == [15, 19, 24]
    assert all("sorted_unique" in d.message for d in diags)


def test_sim022_ok_fixture_is_clean(tmp_path: Path) -> None:
    assert _sim022(_in_repro_package(tmp_path, "sim022_ok.py", "overlay")) == []


def test_sim022_only_checks_the_repro_package(tmp_path: Path) -> None:
    # Tests, benchmarks and the linter use np.unique as an oracle.
    assert _sim022(FIXTURES / "sim022_bad.py") == []
    assert _sim022(_in_repro_package(tmp_path, "sim022_bad.py", "lint")) == []


def test_sim022_pragma_needs_a_reason(tmp_path: Path) -> None:
    target = _in_repro_package(tmp_path, "sim022_bad.py")
    source = target.read_text().replace(
        "return np.unique(pairs)",
        "return np.unique(pairs)  # simlint: ignore[SIM022]",
    )
    target.write_text(source)
    diags = _sim022(target)
    assert len(diags) == 3 and "pragma refused" in diags[0].message
    target.write_text(
        source.replace("ignore[SIM022]", "ignore[SIM022] float keys fold NaN")
    )
    assert len(_sim022(target)) == 2
