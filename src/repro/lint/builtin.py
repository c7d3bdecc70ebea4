"""The built-in per-file simlint rules (SIM001-SIM008, SIM022).

These encode the invariants the reproduction's statistical claims rest
on — chiefly the seed-determinism discipline of
:mod:`repro.utils.rng` — plus a few classic Python footguns that have
outsized blast radius in long-running simulations.  Each rule is one
registered class; see docs/static-analysis.md for the rationale and
the recipe for adding new rules.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.index import (
    dotted_name,
    import_aliases,
    module_name_for,
    resolve_alias,
    tree_nodes,
)
from repro.lint.rules import FileContext, register_rule

__all__ = [
    "RngDisciplineRule",
    "WallClockRule",
    "MutableDefaultRule",
    "OverbroadExceptRule",
    "DunderAllRule",
    "FloatEqualityRule",
    "SeedParameterRule",
    "PrintDisciplineRule",
    "BareUniqueRule",
]

# Shared syntactic helpers live in repro.lint.index (the phase-1 symbol
# table uses the same resolution); these names keep the rule bodies
# readable.
_dotted_name = dotted_name
_import_aliases = import_aliases
_resolve = resolve_alias


def _diag(ctx: FileContext, node: ast.AST, code: str, message: str) -> Diagnostic:
    return Diagnostic(
        path=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        code=code,
        message=message,
    )


@register_rule
class RngDisciplineRule:
    """SIM001 — all randomness flows through ``repro.utils.rng``.

    Outside the blessed RNG module, flags (a) any import of the stdlib
    :mod:`random` module, (b) any import from :mod:`numpy.random`, and
    (c) any *call* into ``numpy.random`` (``default_rng``, ``seed``,
    legacy distributions like ``np.random.choice``).  Type annotations
    such as ``np.random.Generator`` are attribute reads, not calls, and
    are untouched.
    """

    code = "SIM001"
    summary = "randomness must flow through repro.utils.rng (make_rng/spawn/derive)"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.has_path_suffix(ctx.config.rng_modules):
            return
        aliases = _import_aliases(ctx.tree)
        for node in tree_nodes(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top == "random":
                        yield _diag(
                            ctx, node, self.code,
                            "stdlib 'random' is not seed-disciplined; "
                            "use repro.utils.rng.make_rng and pass the Generator",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                top = node.module.split(".")[0]
                if top == "random":
                    yield _diag(
                        ctx, node, self.code,
                        "stdlib 'random' is not seed-disciplined; "
                        "use repro.utils.rng.make_rng and pass the Generator",
                    )
                elif node.module == "numpy.random" or node.module.startswith(
                    "numpy.random."
                ):
                    yield _diag(
                        ctx, node, self.code,
                        "import RNG constructors only inside repro.utils.rng; "
                        "elsewhere accept an rng: np.random.Generator parameter",
                    )
            elif isinstance(node, ast.Call):
                chain = _dotted_name(node.func)
                if chain is None:
                    continue
                resolved = _resolve(chain, aliases)
                if resolved.startswith("numpy.random.") or resolved.startswith(
                    "random."
                ):
                    yield _diag(
                        ctx, node, self.code,
                        f"direct call to {resolved}() bypasses the seed tree; "
                        "use make_rng/spawn/derive or a passed-in Generator",
                    )


@register_rule
class WallClockRule:
    """SIM002 — no wall-clock reads inside simulation code.

    Simulated time must come from the event loop / trace timestamps;
    a wall-clock read makes results depend on host speed and run date.
    Benchmark harnesses (which *measure* wall time) are exempted via
    ``wallclock_exempt`` globs.
    """

    code = "SIM002"
    summary = "no wall-clock (time.time / perf_counter / datetime.now) in simulation code"

    _TIME_FUNCS = frozenset(
        {
            "time", "time_ns", "perf_counter", "perf_counter_ns",
            "monotonic", "monotonic_ns", "process_time", "process_time_ns",
            "clock_gettime", "clock_gettime_ns",
        }
    )
    _DATETIME_CALLS = frozenset(
        {
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.matches_any(ctx.config.wallclock_exempt):
            return
        aliases = _import_aliases(ctx.tree)
        for node in tree_nodes(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted_name(node.func)
            if chain is None:
                continue
            resolved = _resolve(chain, aliases)
            module, _, func = resolved.rpartition(".")
            if (module == "time" and func in self._TIME_FUNCS) or (
                resolved in self._DATETIME_CALLS
            ):
                yield _diag(
                    ctx, node, self.code,
                    f"wall-clock read {resolved}() makes simulation output "
                    "host/run-time dependent; use simulated time",
                )


@register_rule
class MutableDefaultRule:
    """SIM003 — no mutable default arguments.

    A shared default list/dict/set mutated across calls is
    order-dependent hidden state — precisely what seed-reproducible
    experiments cannot tolerate.
    """

    code = "SIM003"
    summary = "no mutable default arguments"

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
         "OrderedDict"}
    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            chain = _dotted_name(node.func)
            return chain is not None and chain.split(".")[-1] in self._MUTABLE_CALLS
        return False

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in tree_nodes(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield _diag(
                        ctx, default, self.code,
                        f"mutable default argument in {node.name}(); "
                        "use None and construct inside the body",
                    )


@register_rule
class OverbroadExceptRule:
    """SIM004 — no bare or overbroad exception handlers.

    ``except:`` / ``except BaseException:`` swallow KeyboardInterrupt
    and SystemExit; ``except Exception:`` hides simulation bugs as
    silently-degraded statistics.  Catching ``Exception`` is allowed
    only when the handler re-raises (wrap-and-raise is legitimate).
    """

    code = "SIM004"
    summary = "no bare/overbroad except clauses"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in tree_nodes(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield _diag(
                    ctx, node, self.code,
                    "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
                    "catch the specific exception",
                )
                continue
            name = _dotted_name(node.type)
            if name == "BaseException":
                yield _diag(
                    ctx, node, self.code,
                    "'except BaseException' swallows interpreter exits; "
                    "catch the specific exception",
                )
            elif name == "Exception" and not any(
                isinstance(inner, ast.Raise) for inner in ast.walk(node)
            ):
                yield _diag(
                    ctx, node, self.code,
                    "'except Exception' without re-raise hides simulation "
                    "bugs; catch the specific exception or re-raise",
                )


@register_rule
class DunderAllRule:
    """SIM005 — ``__all__`` export hygiene.

    Every public module (stem not starting with ``_``) must declare a
    literal ``__all__``, and every listed name must be bound at module
    level.  Stale exports break ``from repro.x import *`` and mislead
    readers about the public surface.
    """

    code = "SIM005"
    summary = "public modules declare __all__ and every listed name exists"

    def _module_bindings(self, tree: ast.Module) -> tuple[set[str], bool]:
        """All module-level names, plus whether a star import was seen."""
        names: set[str] = set()
        has_star = False

        def visit_body(body: list[ast.stmt]) -> None:
            nonlocal has_star
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        names.update(_target_names(target))
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    names.update(_target_names(stmt.target))
                elif isinstance(stmt, ast.Import):
                    for alias in stmt.names:
                        names.add(alias.asname or alias.name.split(".")[0])
                elif isinstance(stmt, ast.ImportFrom):
                    for alias in stmt.names:
                        if alias.name == "*":
                            has_star = True
                        else:
                            names.add(alias.asname or alias.name)
                elif isinstance(stmt, (ast.If, ast.Try)):
                    visit_body(stmt.body)
                    for handler in getattr(stmt, "handlers", []):
                        visit_body(handler.body)
                    visit_body(stmt.orelse)
                    visit_body(getattr(stmt, "finalbody", []))
                elif isinstance(stmt, (ast.For, ast.While, ast.With)):
                    if isinstance(stmt, ast.For):
                        names.update(_target_names(stmt.target))
                    if isinstance(stmt, ast.With):
                        for item in stmt.items:
                            if item.optional_vars is not None:
                                names.update(_target_names(item.optional_vars))
                    visit_body(stmt.body)
                    visit_body(getattr(stmt, "orelse", []))

        visit_body(tree.body)
        return names, has_star

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        stem = ctx.posix_path.rsplit("/", 1)[-1].removesuffix(".py")
        if stem.startswith("_") and stem != "__init__":
            return
        export_node: ast.expr | None = None
        assign: ast.stmt | None = None
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                export_node, assign = stmt.value, stmt
            elif (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__all__"
                and stmt.value is not None
            ):
                export_node, assign = stmt.value, stmt
        if export_node is None:
            yield _diag(
                ctx, ctx.tree, self.code,
                "public module does not declare __all__",
            )
            return
        if not isinstance(export_node, (ast.List, ast.Tuple)) or not all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in export_node.elts
        ):
            yield _diag(
                ctx, assign or ctx.tree, self.code,
                "__all__ must be a literal list/tuple of strings",
            )
            return
        bindings, has_star = self._module_bindings(ctx.tree)
        if has_star:
            return  # star import: cannot prove a name missing
        for element in export_node.elts:
            assert isinstance(element, ast.Constant)
            if element.value not in bindings:
                yield _diag(
                    ctx, element, self.code,
                    f"__all__ lists {element.value!r} but the module never "
                    "defines it",
                )


def _target_names(target: ast.expr) -> set[str]:
    """Names bound by an assignment target (unpacking included)."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: set[str] = set()
        for element in target.elts:
            names.update(_target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return set()


@register_rule
class FloatEqualityRule:
    """SIM006 — no ``==``/``!=`` against float literals.

    Probabilities, rates and thresholds accumulate rounding error;
    exact comparison against ``0.3`` silently never fires.  Use
    ``math.isclose`` / ``np.isclose`` or an inequality.
    """

    code = "SIM006"
    summary = "no ==/!= comparison with float literals"

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, float)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in tree_nodes(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if self._is_float_literal(left) or self._is_float_literal(right):
                    yield _diag(
                        ctx, node, self.code,
                        "==/!= against a float literal is rounding-fragile; "
                        "use math.isclose/np.isclose or an inequality",
                    )
                    break


@register_rule
class SeedParameterRule:
    """SIM007 — public functions that consume randomness must expose it.

    If a public module- or class-level function draws randomness (calls
    ``make_rng``/``spawn``/``derive`` or methods on an ``rng`` object),
    its seed must be caller-controlled: the generator/seed must arrive
    through a parameter (``rng=...``, ``seed=...``, or a config object
    like ``derive(cfg.seed, ...)``) or through ``self``/``cls`` state
    injected at construction.  Parameters named ``seed``/``rng``/
    ``rngs`` must additionally carry a type annotation.  Nested helper
    functions are implementation details and exempt.
    """

    code = "SIM007"
    summary = "public randomness-consuming functions take an annotated seed/rng param"

    _CONSTRUCTORS = frozenset({"make_rng", "spawn", "derive"})
    _RNG_NAMES = frozenset({"rng", "rngs", "_rng", "_rngs"})
    _PARAM_NAMES = frozenset({"seed", "rng", "rngs"})

    def _api_functions(
        self, tree: ast.Module
    ) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        """Module-level functions and methods — the public API surface."""
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield stmt
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield sub

    def _own_nodes(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[ast.AST]:
        """Walk the function body, not descending into nested defs."""
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _root(node: ast.expr) -> str | None:
        chain = _dotted_name(node)
        return chain.split(".")[0] if chain else None

    def _propagate_locals(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        sourced_roots: set[str],
    ) -> None:
        """Cheap local dataflow: ``cfg = config or Config()`` makes the
        local ``cfg`` caller-sourced when any name in the right-hand
        side is.  Fixed point over simple single-target assignments.
        """
        assignments: list[tuple[str, ast.expr]] = []
        for node in self._own_nodes(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                assignments.append((node.targets[0].id, node.value))
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.value is not None
            ):
                assignments.append((node.target.id, node.value))
        changed = True
        while changed:
            changed = False
            for name, value in assignments:
                if name in sourced_roots:
                    continue
                value_roots = {
                    n.id for n in ast.walk(value) if isinstance(n, ast.Name)
                }
                if value_roots & sourced_roots:
                    sourced_roots.add(name)
                    changed = True

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.has_path_suffix(ctx.config.rng_modules):
            return
        for func in self._api_functions(ctx.tree):
            if func.name.startswith("_"):
                continue
            params = (
                func.args.posonlyargs + func.args.args + func.args.kwonlyargs
            )
            param_names = {p.arg for p in params}
            sourced_roots = param_names | {"self", "cls"}
            self._propagate_locals(func, sourced_roots)

            has_ctor = False
            ctor_ok = True  # every constructor call is caller/self-seeded
            use_roots: set[str] = set()
            for node in self._own_nodes(func):
                if not isinstance(node, ast.Call):
                    continue
                chain = _dotted_name(node.func)
                if chain is None:
                    continue
                # Constructor evidence only for bare names (the repo
                # imports make_rng/spawn/derive directly); attribute
                # calls like seq.spawn(n) are SeedSequence methods.
                if "." not in chain and chain in self._CONSTRUCTORS:
                    has_ctor = True
                    args: list[ast.expr] = list(node.args) + [
                        kw.value for kw in node.keywords
                    ]
                    # Stream keys (string/int constants) are neutral;
                    # the seed itself must come from a param or self.
                    if not any(
                        self._root(arg) in sourced_roots for arg in args
                    ):
                        ctor_ok = False
                elif isinstance(node.func, ast.Attribute):
                    obj_chain = _dotted_name(node.func.value)
                    if obj_chain is not None and (
                        obj_chain.split(".")[-1] in self._RNG_NAMES
                    ):
                        use_roots.add(obj_chain.split(".")[0])
            if not has_ctor and not use_roots:
                continue  # no randomness consumed

            for param in params:
                if param.arg in self._PARAM_NAMES and param.annotation is None:
                    yield _diag(
                        ctx, param, self.code,
                        f"parameter {param.arg!r} of {func.name}() needs a "
                        "type annotation (int seed or np.random.Generator)",
                    )

            if has_ctor:
                # A local rng built in-function inherits the
                # constructor's provenance.
                caller_controlled = ctor_ok
            else:
                caller_controlled = use_roots <= sourced_roots
            if not caller_controlled and not (param_names & self._PARAM_NAMES):
                yield _diag(
                    ctx, func, self.code,
                    f"public function {func.name}() consumes randomness but "
                    "has no seed/rng parameter; determinism must be "
                    "caller-controlled",
                )


@register_rule
class PrintDisciplineRule:
    """SIM008 — library code logs; only CLI/reporting modules print.

    stdout is command output: tables, CSV, JSON that scripts pipe
    elsewhere.  A ``print()`` buried in a library module corrupts that
    stream and is invisible to log-level control, so diagnostics must
    go through :mod:`repro.obs.log` instead.  Modules whose *job* is
    console output (the ``print_allowed`` globs — CLI entry points and
    the reporting helpers) are exempt, as are explicit
    ``print(..., file=sys.stderr)`` calls, which already stay off
    stdout.
    """

    code = "SIM008"
    summary = "bare print() outside CLI/reporting modules; use repro.obs.log"

    @staticmethod
    def _prints_to_stderr(node: ast.Call) -> bool:
        for kw in node.keywords:
            if kw.arg == "file":
                chain = _dotted_name(kw.value)
                return chain != "sys.stdout"
        return False

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.matches_any(ctx.config.print_allowed):
            return
        for node in tree_nodes(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
                and not self._prints_to_stderr(node)
            ):
                yield _diag(
                    ctx, node, self.code,
                    "bare print() writes diagnostics to stdout, which is "
                    "reserved for command output; use "
                    "repro.obs.log.get_logger(__name__) instead",
                )


@register_rule
class BareUniqueRule:
    """SIM022 — no bare ``np.unique`` in the ``repro`` package.

    On numpy >= 2.3, ``np.unique`` without a ``return_*`` flag takes a
    hash path that is 25-70x slower on integer input than sorting plus
    an adjacent-difference mask; it decided the cold trace/index build.
    :func:`repro.utils.stats.sorted_unique` is that sort, bitwise-equal
    for integer and bool input.  Calls with ``return_index``,
    ``return_inverse``, ``return_counts`` (those stay on the fast path)
    or ``axis`` (row dedup, which the helper does not do) are not
    flagged.  Only modules of the ``repro`` package are checked, not
    ``repro.lint``: tests and benchmarks use ``np.unique`` as the
    oracle.
    """

    code = "SIM022"
    summary = "bare np.unique in the repro package; use repro.utils.stats.sorted_unique"

    _EXEMPT_KEYWORDS = frozenset(
        {"return_index", "return_inverse", "return_counts", "axis"}
    )

    def _in_scope(self, ctx: FileContext) -> bool:
        module = module_name_for(Path(ctx.path))
        return module.startswith("repro.") and not (
            module == "repro.lint" or module.startswith("repro.lint.")
        )

    def _is_bare(self, node: ast.Call) -> bool:
        if len(node.args) > 1:  # return_index passed positionally
            return False
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs: cannot tell
                return False
            if kw.arg in self._EXEMPT_KEYWORDS and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is False
            ):
                return False
        return True

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if "unique" not in ctx.source:
            return
        aliases = _import_aliases(ctx.tree)
        in_scope: bool | None = None
        for node in tree_nodes(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted_name(node.func)
            if chain is None or _resolve(chain, aliases) != "numpy.unique":
                continue
            if in_scope is None:
                in_scope = self._in_scope(ctx)
            if not in_scope:
                return
            if self._is_bare(node):
                yield _diag(
                    ctx, node, self.code,
                    "bare np.unique() takes numpy's hash path, 25-70x slower "
                    "than a sort on integer input; use "
                    "repro.utils.stats.sorted_unique",
                )
