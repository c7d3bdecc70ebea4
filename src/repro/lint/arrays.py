"""simlint v3: array-aware scale-readiness analysis (SIM015-SIM017).

The million-node roadmap item lives or dies on array width: a 64-bit
CSR index where 32 bits provably suffice doubles the memory ceiling of
every flood, and a hidden copy or per-element Python loop inside a hot
kernel erases the batched engine's throughput.  This module teaches
simlint enough numpy to police that — a small abstract domain
(:class:`ArrayValue`: element dtype plus an inclusive integer value
range) propagated flow-insensitively through assignments, in-place
stores, and indexed function returns along the phase-1 call graph.

The analysis is deliberately conservative in the same sense as
:mod:`repro.lint.dataflow`: ``None`` means "unknown", every join
degrades toward unknown, and a rule only fires on facts the inference
actually proved.  Escape hatches, in order of preference: narrow the
dtype, annotate the parameter (``NDArray[np.int32]``), or suppress
with ``# simlint: ignore[SIM01x] <reason>`` (a reason is mandatory).

Hot set
-------
SIM015-SIM017 only police *hot* functions: everything reachable in the
call graph from the flood/match/batch kernel roots
(``[tool.simlint].hot.roots``, defaulting to ``flood_depths``,
``match_batch`` and ``_evaluate_keys``) plus an explicit
``[tool.simlint].hot`` extra list for entry points the resolver cannot
see (e.g. methods invoked through duck-typed parameters).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.dataflow import (
    free_names,
    mutation_sites,
    own_nodes,
    walk_shallow,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.index import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    dotted_name,
    resolve_alias,
)
from repro.lint.rules import ProjectContext, register_rule

__all__ = [
    "ITEMSIZE",
    "ArrayInference",
    "ArrayValue",
    "fits_dtype",
    "hot_functions",
    "narrowest_int_dtype",
]

#: Canonical numpy element sizes in bytes (the subset the repo uses).
ITEMSIZE: dict[str, int] = {
    "bool": 1,
    "int8": 1,
    "uint8": 1,
    "int16": 2,
    "uint16": 2,
    "float16": 2,
    "int32": 4,
    "uint32": 4,
    "float32": 4,
    "int64": 8,
    "uint64": 8,
    "float64": 8,
    "intp": 8,
    "complex64": 8,
    "complex128": 16,
}

_INT_RANGES: dict[str, tuple[int, int]] = {
    "int8": (-(2**7), 2**7 - 1),
    "int16": (-(2**15), 2**15 - 1),
    "int32": (-(2**31), 2**31 - 1),
    "int64": (-(2**63), 2**63 - 1),
    "uint8": (0, 2**8 - 1),
    "uint16": (0, 2**16 - 1),
    "uint32": (0, 2**32 - 1),
    "uint64": (0, 2**64 - 1),
}

#: Aliases normalized to canonical dtype names (builtin names included:
#: ``dtype=bool`` / ``dtype=int`` / ``dtype=float`` are numpy idiom).
_DTYPE_ALIASES = {
    "intp": "int64",
    "int": "int64",
    "float": "float64",
    "bool_": "bool",
}
_BUILTIN_DTYPES = {"bool": "bool", "int": "int64", "float": "float64"}


def fits_dtype(vmin: int, vmax: int, dtype: str) -> bool:
    """Whether the inclusive range fits the integer dtype exactly."""
    bounds = _INT_RANGES.get(dtype)
    return bounds is not None and bounds[0] <= vmin and vmax <= bounds[1]


def narrowest_int_dtype(vmin: int, vmax: int) -> str | None:
    """Narrowest dtype (16 then 32 bits, signed preferred) holding the range."""
    for name in ("int16", "uint16", "int32", "uint32", "int64"):
        if fits_dtype(vmin, vmax, name):
            return name
    return None


@dataclass(frozen=True)
class ArrayValue:
    """Abstract value: element dtype + inclusive integer value range.

    ``None`` fields mean "unknown"; ``array`` distinguishes ndarray
    values from scalar constants (whose bounds feed fills and BinOps).
    """

    dtype: str | None = None
    vmin: int | None = None
    vmax: int | None = None
    array: bool = False

    @property
    def has_bounds(self) -> bool:
        return self.vmin is not None and self.vmax is not None


#: The no-information element (every join with it stays unknown-ish).
TOP = ArrayValue()


def _scalar(value: int) -> ArrayValue:
    return ArrayValue(dtype=None, vmin=value, vmax=value, array=False)


def join(a: ArrayValue, b: ArrayValue) -> ArrayValue:
    """Least upper bound: agreement survives, disagreement degrades."""
    dtype = a.dtype if a.dtype == b.dtype else None
    if a.has_bounds and b.has_bounds:
        vmin: int | None = min(a.vmin, b.vmin)  # type: ignore[type-var]
        vmax: int | None = max(a.vmax, b.vmax)  # type: ignore[type-var]
    else:
        vmin = vmax = None
    return ArrayValue(dtype=dtype, vmin=vmin, vmax=vmax, array=a.array or b.array)


def hot_functions(index: ProjectIndex, config: LintConfig) -> frozenset[str]:
    """Qualnames of the hot set: roots + everything reachable from them."""
    hot: set[str] = set()
    for root in tuple(config.hot_roots) + tuple(config.hot_extra):
        if root not in index.functions:
            continue
        hot.add(root)
        hot |= index.reachable_from(root)
    return frozenset(name for name in hot if name in index.functions)


#: numpy callables whose result copies dtype and bounds from arg 0.
_BASE_PRESERVING = frozenset(
    {
        "asarray",
        "array",
        "ascontiguousarray",
        "atleast_1d",
        "unique",
        "sort",
        "ravel",
        "repeat",
        "tile",
        "copy",
    }
)

#: numpy callables returning platform-int index arrays.
_INDEX_PRODUCING = frozenset(
    {"flatnonzero", "argsort", "searchsorted", "bincount", "argmax", "argmin"}
)

#: ndarray methods whose result keeps the receiver's dtype and bounds.
_METHOD_PRESERVING = frozenset(
    {"copy", "ravel", "flatten", "reshape", "squeeze", "take"}
)

#: Allocation callables SIM015 treats as array creation sites, mapped
#: to their default dtype (``None`` = inferred from arguments).
_ALLOC_DEFAULT_DTYPE: dict[str, str | None] = {
    "zeros": "float64",
    "empty": "float64",
    "ones": "float64",
    "full": None,
    "arange": None,
    "zeros_like": None,
    "empty_like": None,
    "ones_like": None,
    "full_like": None,
}


class ArrayInference:
    """Interprocedural dtype / value-range inference over one index.

    Per-function environments are computed on demand and cached;
    return summaries follow resolved call edges with a recursion guard
    (cycles degrade to unknown, never loop).
    """

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self._env_cache: dict[str, dict[str, ArrayValue]] = {}
        self._return_cache: dict[str, tuple[ArrayValue, ...]] = {}
        self._env_active: set[str] = set()
        self._return_active: set[str] = set()
        self._const_active: set[tuple[str, str]] = set()

    # -- public queries ------------------------------------------------

    def env(self, qualname: str) -> dict[str, ArrayValue]:
        """The inferred local environment of one indexed function."""
        cached = self._env_cache.get(qualname)
        if cached is not None:
            return cached
        func = self.index.functions.get(qualname)
        if func is None or qualname in self._env_active:
            return {}
        module = self.index.modules[func.module]
        self._env_active.add(qualname)
        try:
            result = self._compute_env(func, module)
        finally:
            self._env_active.discard(qualname)
        self._env_cache[qualname] = result
        return result

    def returns(self, qualname: str) -> tuple[ArrayValue, ...]:
        """Element-wise join of every ``return`` of one function.

        A single-value return summarizes to a 1-tuple; ``return a, b``
        to a 2-tuple; mismatched arities or unresolvable functions to
        the empty tuple (unknown).
        """
        cached = self._return_cache.get(qualname)
        if cached is not None:
            return cached
        func = self.index.functions.get(qualname)
        if func is None or qualname in self._return_active:
            return ()
        module = self.index.modules[func.module]
        self._return_active.add(qualname)
        try:
            env = self.env(qualname)
            summary: tuple[ArrayValue, ...] | None = None
            for node in own_nodes(func.node):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                if isinstance(node.value, ast.Tuple):
                    vals = tuple(
                        self.infer(e, env, module, func) for e in node.value.elts
                    )
                else:
                    vals = (self.infer(node.value, env, module, func),)
                if summary is None:
                    summary = vals
                elif len(summary) != len(vals):
                    summary = ()
                    break
                else:
                    summary = tuple(join(a, b) for a, b in zip(summary, vals))
            result = summary if summary is not None else ()
        finally:
            self._return_active.discard(qualname)
        self._return_cache[qualname] = result
        return result

    def attribute_values(self, qualname: str) -> dict[str, ArrayValue]:
        """``self.<attr> = ...`` stores of one method, inferred.

        The memory-footprint estimator reads instance-attribute arrays
        (``self._posting_offsets``) straight out of ``__init__`` bodies.
        """
        func = self.index.functions.get(qualname)
        if func is None:
            return {}
        module = self.index.modules[func.module]
        env = self.env(qualname)
        out: dict[str, ArrayValue] = {}
        for node in own_nodes(func.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    value = self.infer(node.value, env, module, func)
                    prior = out.get(target.attr)
                    out[target.attr] = value if prior is None else join(prior, value)
        return out

    def resolve_dtype(self, node: ast.expr, module: ModuleInfo) -> str | None:
        """Canonical dtype name of a dtype-position expression, if provable.

        Handles ``"int32"`` strings, ``np.int32`` chains, ``np.dtype(X)``
        wrappers, and module-level dtype constants (``INDEX_DTYPE``),
        including constants imported from other indexed modules.
        """
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = _DTYPE_ALIASES.get(node.value, node.value)
            return name if name in ITEMSIZE else None
        if isinstance(node, ast.Call):
            chain = self.index.qualified_chain(node.func, module)
            if chain is not None and chain.rpartition(".")[2] == "dtype" and node.args:
                return self.resolve_dtype(node.args[0], module)
            return None
        chain = dotted_name(node)
        if chain is None:
            return None
        resolved = resolve_alias(chain, module.aliases)
        if resolved in _BUILTIN_DTYPES:
            return _BUILTIN_DTYPES[resolved]
        tail = resolved.rpartition(".")[2]
        if resolved.startswith("numpy."):
            tail = _DTYPE_ALIASES.get(tail, tail)
            return tail if tail in ITEMSIZE else None
        # A module-level constant, local or imported from an indexed module.
        found = self._find_constant_expr(chain, module)
        if found is not None:
            const_module, const_name, expr = found
            key = (const_module.name, const_name)
            if key in self._const_active:
                return None
            self._const_active.add(key)
            try:
                return self.resolve_dtype(expr, const_module)
            finally:
                self._const_active.discard(key)
        return None

    # -- expression inference ------------------------------------------

    def infer(
        self,
        node: ast.expr,
        env: dict[str, ArrayValue],
        module: ModuleInfo,
        func: FunctionInfo | None,
    ) -> ArrayValue:
        """Abstract value of one expression under ``env``."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, int):
                return TOP
            return _scalar(node.value)
        if isinstance(node, ast.Name):
            known = env.get(node.id)
            if known is not None:
                return known
            return self._constant_value(node.id, module)
        if isinstance(node, ast.Attribute):
            if node.attr == "T":
                return self.infer(node.value, env, module, func)
            chain = dotted_name(node)
            if chain is not None:
                return self._constant_value(chain, module)
            return TOP
        if isinstance(node, ast.Subscript):
            base = self.infer(node.value, env, module, func)
            return base if base.array else TOP
        if isinstance(node, ast.UnaryOp):
            operand = self.infer(node.operand, env, module, func)
            if isinstance(node.op, ast.UAdd):
                return operand
            if isinstance(node.op, ast.USub) and operand.has_bounds:
                return replace(
                    operand,
                    vmin=-operand.vmax,  # type: ignore[operator]
                    vmax=-operand.vmin,  # type: ignore[operator]
                )
            if isinstance(node.op, ast.USub):
                return replace(operand, vmin=None, vmax=None)
            return TOP
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node, env, module, func)
        if isinstance(node, ast.Compare):
            any_array = any(
                self.infer(side, env, module, func).array
                for side in [node.left, *node.comparators]
            )
            return ArrayValue(dtype="bool", vmin=0, vmax=1, array=any_array)
        if isinstance(node, ast.IfExp):
            return join(
                self.infer(node.body, env, module, func),
                self.infer(node.orelse, env, module, func),
            )
        if isinstance(node, (ast.List, ast.Tuple)):
            values = [self.infer(e, env, module, func) for e in node.elts]
            if values and all(v.has_bounds for v in values):
                return ArrayValue(
                    dtype=None,
                    vmin=min(v.vmin for v in values),  # type: ignore[type-var]
                    vmax=max(v.vmax for v in values),  # type: ignore[type-var]
                    array=False,
                )
            return TOP
        if isinstance(node, ast.Call):
            return self._infer_call(node, env, module, func)
        return TOP

    def _infer_binop(
        self,
        node: ast.BinOp,
        env: dict[str, ArrayValue],
        module: ModuleInfo,
        func: FunctionInfo | None,
    ) -> ArrayValue:
        left = self.infer(node.left, env, module, func)
        right = self.infer(node.right, env, module, func)
        is_array = left.array or right.array
        # NEP 50: array op python-int-scalar keeps the array's dtype;
        # array op array keeps it only when both sides agree.
        if left.array and right.array:
            dtype = left.dtype if left.dtype == right.dtype else None
        elif left.array:
            dtype = left.dtype if not right.array and right.dtype is None else None
        elif right.array:
            dtype = right.dtype if left.dtype is None else None
        else:
            dtype = None
        vmin = vmax = None
        if left.has_bounds and right.has_bounds:
            la, ha, lb, hb = left.vmin, left.vmax, right.vmin, right.vmax
            if isinstance(node.op, ast.Add):
                vmin, vmax = la + lb, ha + hb  # type: ignore[operator]
            elif isinstance(node.op, ast.Sub):
                vmin, vmax = la - hb, ha - lb  # type: ignore[operator]
            elif isinstance(node.op, ast.Mult):
                products = [la * lb, la * hb, ha * lb, ha * hb]  # type: ignore[operator]
                vmin, vmax = min(products), max(products)
        return ArrayValue(dtype=dtype, vmin=vmin, vmax=vmax, array=is_array)

    def _infer_call(
        self,
        node: ast.Call,
        env: dict[str, ArrayValue],
        module: ModuleInfo,
        func: FunctionInfo | None,
    ) -> ArrayValue:
        # Project-internal call: use the callee's return summary.
        resolved = self.index.resolve_call(node, module, func)
        if resolved is not None and resolved[1] == "function":
            summary = self.returns(resolved[0])
            return summary[0] if len(summary) == 1 else TOP

        # Method call on a local value (x.astype(...), rng.integers(...)).
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            chain = self.index.qualified_chain(node.func, module)
            is_numpy = chain is not None and chain.startswith("numpy.")
            if not is_numpy:
                if attr == "astype":
                    base = self.infer(node.func.value, env, module, func)
                    dtype = (
                        self.resolve_dtype(node.args[0], module)
                        if node.args
                        else None
                    )
                    return ArrayValue(
                        dtype=dtype, vmin=base.vmin, vmax=base.vmax, array=True
                    )
                if attr in _METHOD_PRESERVING:
                    base = self.infer(node.func.value, env, module, func)
                    return replace(base, array=True) if base.array else base
                if attr in ("max", "min"):
                    base = self.infer(node.func.value, env, module, func)
                    return replace(base, array=False)
                if attr == "integers":
                    return self._infer_integers(node, env, module, func)
                return TOP
            return self._infer_numpy(
                chain.rpartition(".")[2], node, env, module, func  # type: ignore[union-attr]
            )

        chain = self.index.qualified_chain(node.func, module)
        if chain is not None and chain.startswith("numpy."):
            return self._infer_numpy(
                chain.rpartition(".")[2], node, env, module, func
            )
        return TOP

    def _infer_integers(
        self,
        node: ast.Call,
        env: dict[str, ArrayValue],
        module: ModuleInfo,
        func: FunctionInfo | None,
    ) -> ArrayValue:
        """``rng.integers(lo, hi)``: dtype kwarg or int64; bounds if const."""
        dtype = self._dtype_kwarg(node, module) or "int64"
        endpoint = any(k.arg == "endpoint" for k in node.keywords)
        args = [self.infer(a, env, module, func) for a in node.args[:2]]
        vmin = vmax = None
        if len(args) >= 1 and args[0].has_bounds and not endpoint:
            if len(args) == 1:
                vmin, vmax = 0, args[0].vmax - 1  # type: ignore[operator]
            elif args[1].has_bounds:
                vmin, vmax = args[0].vmin, args[1].vmax - 1  # type: ignore[operator]
        return ArrayValue(dtype=dtype, vmin=vmin, vmax=vmax, array=True)

    def _dtype_kwarg(self, node: ast.Call, module: ModuleInfo) -> str | None:
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                return self.resolve_dtype(keyword.value, module)
        return None

    def _infer_numpy(
        self,
        name: str,
        node: ast.Call,
        env: dict[str, ArrayValue],
        module: ModuleInfo,
        func: FunctionInfo | None,
    ) -> ArrayValue:
        dtype_kw = self._dtype_kwarg(node, module)
        if name in ("zeros", "empty", "ones"):
            dtype = dtype_kw or "float64"
            if name == "zeros":
                return ArrayValue(dtype=dtype, vmin=0, vmax=0, array=True)
            if name == "ones":
                return ArrayValue(dtype=dtype, vmin=1, vmax=1, array=True)
            return ArrayValue(dtype=dtype, array=True)
        if name == "full":
            fill = (
                self.infer(node.args[1], env, module, func)
                if len(node.args) >= 2
                else TOP
            )
            dtype = dtype_kw or ("int64" if fill.has_bounds else None)
            return ArrayValue(
                dtype=dtype, vmin=fill.vmin, vmax=fill.vmax, array=True
            )
        if name == "arange":
            args = [self.infer(a, env, module, func) for a in node.args]
            dtype = dtype_kw or "int64"
            if (
                1 <= len(args) <= 2
                and all(a.has_bounds for a in args)
                and not any(isinstance(a, ast.Starred) for a in node.args)
            ):
                if len(args) == 1:
                    return ArrayValue(
                        dtype=dtype, vmin=0, vmax=max(0, args[0].vmax - 1),  # type: ignore[operator]
                        array=True,
                    )
                return ArrayValue(
                    dtype=dtype,
                    vmin=args[0].vmin,
                    vmax=max(args[0].vmin, args[1].vmax - 1),  # type: ignore[operator,type-var]
                    array=True,
                )
            return ArrayValue(dtype=dtype, array=True)
        if name in _BASE_PRESERVING:
            base = (
                self.infer(node.args[0], env, module, func) if node.args else TOP
            )
            dtype = dtype_kw or base.dtype
            keep_bounds = base.has_bounds and (
                dtype_kw is None
                or fits_dtype(base.vmin, base.vmax, dtype_kw)  # type: ignore[arg-type]
            )
            return ArrayValue(
                dtype=dtype,
                vmin=base.vmin if keep_bounds else None,
                vmax=base.vmax if keep_bounds else None,
                array=True,
            )
        if name == "where" and len(node.args) == 3:
            picked = join(
                self.infer(node.args[1], env, module, func),
                self.infer(node.args[2], env, module, func),
            )
            return replace(picked, array=True)
        if name in ("concatenate", "hstack", "vstack", "stack") and node.args:
            parts = node.args[0]
            if isinstance(parts, (ast.List, ast.Tuple)) and parts.elts:
                merged = self.infer(parts.elts[0], env, module, func)
                for element in parts.elts[1:]:
                    merged = join(merged, self.infer(element, env, module, func))
                return replace(merged, array=True)
            return TOP
        if name in ("minimum", "maximum") and len(node.args) == 2:
            merged = join(
                self.infer(node.args[0], env, module, func),
                self.infer(node.args[1], env, module, func),
            )
            return merged
        if name == "abs" and node.args:
            base = self.infer(node.args[0], env, module, func)
            if base.has_bounds:
                high = max(abs(base.vmin), abs(base.vmax))  # type: ignore[arg-type]
                return replace(base, vmin=0, vmax=high)
            return base
        if name in ("cumsum", "diff") and node.args:
            base = self.infer(node.args[0], env, module, func)
            return ArrayValue(dtype=base.dtype, array=True)
        if name in _INDEX_PRODUCING:
            return ArrayValue(dtype="int64", array=True)
        return TOP

    # -- environments --------------------------------------------------

    def _compute_env(
        self, func: FunctionInfo, module: ModuleInfo
    ) -> dict[str, ArrayValue]:
        node = func.node
        params: dict[str, ArrayValue] = {}
        all_args = (
            node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        )
        for arg in all_args:
            seeded = self._annotation_value(arg.annotation, module)
            if seeded is not None:
                params[arg.arg] = seeded

        statements: list[tuple[ast.expr, ast.expr, bool]] = []
        for stmt in own_nodes(node):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    statements.append((target, stmt.value, False))
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                statements.append((stmt.target, stmt.value, False))
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                statements.append((stmt.target, stmt.iter, True))

        env: dict[str, ArrayValue] = dict(params)
        for _ in range(4):
            new_env: dict[str, ArrayValue] = dict(params)

            def merge(name: str, value: ArrayValue) -> None:
                prior = new_env.get(name)
                new_env[name] = value if prior is None else join(prior, value)

            lookup = {**env}
            for target, value, is_loop in statements:
                lookup.update(new_env)
                if is_loop:
                    self._bind_loop(target, value, lookup, new_env, merge, module, func)
                    continue
                if isinstance(target, ast.Name):
                    merge(target.id, self.infer(value, lookup, module, func))
                elif isinstance(target, ast.Tuple) and all(
                    isinstance(e, ast.Name) for e in target.elts
                ):
                    self._bind_tuple(target, value, lookup, merge, module, func)
            self._apply_mutations(func, new_env, module)
            if new_env == env:
                break
            env = new_env
        return env

    def _bind_loop(
        self,
        target: ast.expr,
        iterable: ast.expr,
        lookup: dict[str, ArrayValue],
        env: dict[str, ArrayValue],
        merge: object,
        module: ModuleInfo,
        func: FunctionInfo,
    ) -> None:
        """Bind a for-loop target from its iterable (range or array)."""
        if not isinstance(target, ast.Name):
            return
        bind = merge  # typed narrow for mypy
        if (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id == "range"
        ):
            args = [self.infer(a, lookup, module, func) for a in iterable.args]
            if 1 <= len(args) <= 2 and all(a.has_bounds for a in args):
                if len(args) == 1:
                    value = ArrayValue(vmin=0, vmax=max(0, args[0].vmax - 1))  # type: ignore[operator]
                else:
                    value = ArrayValue(
                        vmin=args[0].vmin,
                        vmax=max(args[0].vmin, args[1].vmax - 1),  # type: ignore[operator,type-var]
                    )
            else:
                value = TOP
            bind(target.id, value)  # type: ignore[operator]
            return
        iter_value = self.infer(iterable, lookup, module, func)
        if iter_value.array:
            bind(  # type: ignore[operator]
                target.id,
                ArrayValue(
                    dtype=iter_value.dtype,
                    vmin=iter_value.vmin,
                    vmax=iter_value.vmax,
                    array=False,
                ),
            )
        else:
            bind(target.id, TOP)  # type: ignore[operator]

    def _bind_tuple(
        self,
        target: ast.Tuple,
        value: ast.expr,
        lookup: dict[str, ArrayValue],
        merge: object,
        module: ModuleInfo,
        func: FunctionInfo,
    ) -> None:
        """``a, b = f(...)`` / ``a, b = x, y`` unpacking."""
        values: tuple[ArrayValue, ...] = ()
        if isinstance(value, ast.Call):
            resolved = self.index.resolve_call(value, module, func)
            if resolved is not None and resolved[1] == "function":
                values = self.returns(resolved[0])
        elif isinstance(value, ast.Tuple):
            values = tuple(self.infer(e, lookup, module, func) for e in value.elts)
        if len(values) != len(target.elts):
            values = tuple(TOP for _ in target.elts)
        for element, element_value in zip(target.elts, values):
            if isinstance(element, ast.Name):
                merge(element.id, element_value)  # type: ignore[operator]

    def _apply_mutations(
        self,
        func: FunctionInfo,
        env: dict[str, ArrayValue],
        module: ModuleInfo,
    ) -> None:
        """Widen (or forget) bounds for names mutated in place.

        A subscript store widens the target's range by the stored
        value's range when both are known; any mutation the analysis
        cannot bound (augmented assignment, unknown stored value, or a
        name handed to a callee that may write through it — ``out=``)
        forgets the range entirely.
        """
        for name, stored in mutation_sites(func.node):
            current = env.get(name)
            if current is None:
                continue
            if stored is None:
                env[name] = replace(current, vmin=None, vmax=None)
                continue
            value = self.infer(stored, env, module, func)
            if current.has_bounds and value.has_bounds:
                env[name] = replace(
                    current,
                    vmin=min(current.vmin, value.vmin),  # type: ignore[type-var]
                    vmax=max(current.vmax, value.vmax),  # type: ignore[type-var]
                )
            else:
                env[name] = replace(current, vmin=None, vmax=None)

    def _annotation_value(
        self, annotation: ast.expr | None, module: ModuleInfo
    ) -> ArrayValue | None:
        """Array-typed parameter annotations seed the environment.

        ``NDArray[np.int32]`` pins both array-ness and dtype; a bare
        ``np.ndarray`` (the codebase's dominant style) pins array-ness
        only, which is enough for the copy/loop rules to engage.
        """
        if annotation is None:
            return None
        if isinstance(annotation, ast.Subscript):
            chain = self.index.qualified_chain(annotation.value, module)
            if chain is None:
                return None
            tail = chain.rpartition(".")[2]
            if tail not in ("NDArray", "ndarray"):
                return None
            return ArrayValue(
                dtype=self.resolve_dtype(annotation.slice, module), array=True
            )
        chain = self.index.qualified_chain(annotation, module)
        if chain is None:
            return None
        if chain.rpartition(".")[2] in ("NDArray", "ndarray"):
            return ArrayValue(array=True)
        return None

    # -- constants -----------------------------------------------------

    def _find_constant_expr(
        self, chain: str, module: ModuleInfo
    ) -> tuple[ModuleInfo, str, ast.expr] | None:
        """Locate the defining ``NAME = <expr>`` of a constant chain."""
        root, _, rest = chain.partition(".")
        if not rest and root in module.const_exprs:
            return module, root, module.const_exprs[root]
        resolved = resolve_alias(chain, module.aliases)
        head, _, tail = resolved.rpartition(".")
        if tail and head in self.index.modules:
            other = self.index.modules[head]
            if tail in other.const_exprs:
                return other, tail, other.const_exprs[tail]
        return None

    def _constant_value(self, chain: str, module: ModuleInfo) -> ArrayValue:
        """Abstract value of a module-level constant reference."""
        root, _, rest = chain.partition(".")
        if not rest and root in module.int_constants:
            return _scalar(module.int_constants[root])
        resolved = resolve_alias(chain, module.aliases)
        head, _, tail = resolved.rpartition(".")
        if tail and head in self.index.modules:
            other = self.index.modules[head]
            if tail in other.int_constants:
                return _scalar(other.int_constants[tail])
        found = self._find_constant_expr(chain, module)
        if found is None:
            return TOP
        const_module, const_name, expr = found
        key = (const_module.name, const_name)
        if key in self._const_active:
            return TOP
        self._const_active.add(key)
        try:
            return self.infer(expr, {}, const_module, None)
        finally:
            self._const_active.discard(key)

    # -- allocation recognition (SIM015) -------------------------------

    def allocation_dtype(
        self, node: ast.Call, module: ModuleInfo, func: FunctionInfo | None
    ) -> str | None:
        """Element dtype of an array *allocation* call, else ``None``.

        Only genuine creation sites count (``np.zeros``/``empty``/
        ``ones``/``full``/``arange``/``*_like``, ``rng.integers``) —
        views and casts of existing arrays are the producer's problem.
        """
        if isinstance(node.func, ast.Attribute) and node.func.attr == "integers":
            chain = self.index.qualified_chain(node.func, module)
            if chain is None or not chain.startswith("numpy."):
                return self._dtype_kwarg(node, module) or "int64"
        chain = self.index.qualified_chain(node.func, module)
        if chain is None or not chain.startswith("numpy."):
            return None
        name = chain.rpartition(".")[2]
        if name not in _ALLOC_DEFAULT_DTYPE:
            return None
        dtype_kw = self._dtype_kwarg(node, module)
        if dtype_kw is not None:
            return dtype_kw
        if name == "full":
            fill = self.infer(node.args[1], {}, module, func) if len(node.args) >= 2 else TOP
            return "int64" if fill.has_bounds else None
        if name == "arange":
            return "int64"
        return _ALLOC_DEFAULT_DTYPE[name]


# -- rule helpers ------------------------------------------------------


def _captured_names(func: FunctionInfo) -> set[str]:
    """Names read by closures nested inside ``func`` (aliasing hazard)."""
    captured: set[str] = set()
    for node in own_nodes(func.node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            captured |= free_names(node)
    return captured


def _passed_to_call(
    name: str, func: ast.FunctionDef | ast.AsyncFunctionDef
) -> bool:
    """Whether ``name`` appears inside any call argument of ``func``.

    A callee holding the array (or a view of it, e.g. ``out=x[1:]``)
    may store values the local bounds analysis never saw, so inferred
    ranges cannot be trusted.  Narrower than :func:`dataflow.escapes`:
    returning the array does not invalidate its *bounds*, only its
    ownership — and SIM015 cares about the former.
    """
    for node in own_nodes(func):
        if not isinstance(node, ast.Call):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if any(
                isinstance(n, ast.Name) and n.id == name
                for n in ast.walk(arg)
            ):
                return True
    return False


def _diag(func: FunctionInfo, node: ast.AST, code: str, message: str) -> Diagnostic:
    return Diagnostic(
        path=func.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        code=code,
        message=message,
    )


# -- SIM015: hot-path 64-bit arrays with provably narrow ranges --------


@register_rule
class HotWideArrayRule:
    """64-bit allocation in a hot function whose values fit 16/32 bits.

    Fires only when the inference *proves* the narrower range: the
    array is created 64-bit and every store into it has known bounds.
    Returning the array is fine (narrowing it is exactly the interface
    change the rule asks for), but handing the name to another callable
    or a closure is not — an ``out=`` alias or helper may write values
    the local analysis never sees, so the rule stands down.  At 10M
    nodes each provably-narrow int64 array wastes 40-60 MB per
    instance — see docs/performance.md's memory budget.
    """

    code = "SIM015"
    summary = "hot-path 64-bit array whose proven value range fits a narrower dtype"

    def check_project(self, ctx: ProjectContext) -> Iterator[Diagnostic]:
        hot = hot_functions(ctx.index, ctx.config)
        if not hot:
            return
        inference = ArrayInference(ctx.index)
        for qualname in sorted(hot):
            func = ctx.index.functions[qualname]
            module = ctx.index.modules[func.module]
            env = inference.env(qualname)
            captured = _captured_names(func)
            for node in own_nodes(func.node):
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                ):
                    continue
                name = node.targets[0].id
                alloc_dtype = inference.allocation_dtype(node.value, module, func)
                if alloc_dtype not in ("int64", "uint64"):
                    continue
                final = env.get(name)
                if final is None or final.dtype != alloc_dtype or not final.has_bounds:
                    continue
                narrow = narrowest_int_dtype(final.vmin, final.vmax)  # type: ignore[arg-type]
                if narrow is None or ITEMSIZE[narrow] >= ITEMSIZE[alloc_dtype]:
                    continue
                if name in captured or _passed_to_call(name, func.node):
                    continue
                yield _diag(
                    func,
                    node,
                    self.code,
                    f"'{name}' is allocated as {alloc_dtype} in hot function "
                    f"'{qualname}' but provably holds only "
                    f"[{final.vmin}, {final.vmax}]; allocate with "
                    f"dtype=np.{narrow}",
                )


# -- SIM016: hidden copies in hot paths --------------------------------

# Sorting dedups SIM016 flags inside hot loops, with their display names.
_SORTING_DEDUPS = {
    "numpy.unique": "np.unique",
    "repro.utils.stats.sorted_unique": "sorted_unique",
}


@register_rule
class HiddenCopyRule:
    """Constructs that silently copy whole arrays inside hot kernels.

    Four shapes: ``np.unique`` or ``sorted_unique`` inside a loop
    (sorts and copies every iteration — use mask-based dedup, see
    ``flood_depths``); chained fancy indexing ``a[i][j]`` (the inner
    gather materializes a full temporary — fuse the indices);
    ``x.astype(d)`` when ``x`` already has dtype ``d`` without
    ``copy=False`` (a full redundant copy); and non-contiguous views
    (stepped slices, transposes) handed to the shm transport, which
    must then materialize them.
    """

    code = "SIM016"
    summary = "hidden-copy construct in a hot path"

    _SHM_PREFIX = "repro.runtime.shm."

    def check_project(self, ctx: ProjectContext) -> Iterator[Diagnostic]:
        hot = hot_functions(ctx.index, ctx.config)
        inference = ArrayInference(ctx.index)
        for qualname in sorted(ctx.index.functions):
            func = ctx.index.functions[qualname]
            module = ctx.index.modules[func.module]
            is_hot = qualname in hot
            env = inference.env(qualname) if is_hot else {}
            reported: set[tuple[int, int]] = set()
            for node in own_nodes(func.node):
                if is_hot and isinstance(node, (ast.For, ast.While)):
                    yield from self._unique_in_loop(func, module, node, reported)
                if is_hot and isinstance(node, ast.Subscript):
                    yield from self._fancy_chain(
                        func, module, node, env, inference, reported
                    )
                if is_hot and isinstance(node, ast.Call):
                    yield from self._redundant_astype(
                        func, module, node, env, inference, reported
                    )
                if isinstance(node, ast.Call):
                    yield from self._noncontiguous_shm(
                        func, module, node, ctx, reported
                    )

    def _unique_in_loop(
        self,
        func: FunctionInfo,
        module: ModuleInfo,
        loop: ast.For | ast.While,
        reported: set[tuple[int, int]],
    ) -> Iterator[Diagnostic]:
        bodies = list(loop.body) + list(loop.orelse)
        for stmt in bodies:
            for node in walk_shallow(stmt):
                if not isinstance(node, ast.Call):
                    continue
                chain = (
                    self._qualified(func, module, node.func)
                    if isinstance(node.func, (ast.Name, ast.Attribute))
                    else None
                )
                if chain in _SORTING_DEDUPS:
                    key = (node.lineno, node.col_offset)
                    if key in reported:
                        continue
                    reported.add(key)
                    yield _diag(
                        func,
                        node,
                        self.code,
                        f"{_SORTING_DEDUPS[chain]} inside a loop in hot function "
                        f"'{func.qualname}' sorts and copies every "
                        f"iteration; deduplicate with a boolean mask "
                        f"(see flood_depths) or hoist it out of the loop",
                    )

    def _qualified(
        self, func: FunctionInfo, module: ModuleInfo, node: ast.expr
    ) -> str | None:
        chain = dotted_name(node)
        if chain is None:
            return None
        return resolve_alias(chain, module.aliases)

    def _fancy_chain(
        self,
        func: FunctionInfo,
        module: ModuleInfo,
        node: ast.Subscript,
        env: dict[str, ArrayValue],
        inference: ArrayInference,
        reported: set[tuple[int, int]],
    ) -> Iterator[Diagnostic]:
        inner = node.value
        if not isinstance(inner, ast.Subscript):
            return
        if self._trivial_index(node.slice) or self._trivial_index(inner.slice):
            return
        base = inner.value
        if not isinstance(base, ast.Name):
            return
        base_value = env.get(base.id)
        if base_value is None or not base_value.array:
            return
        key = (node.lineno, node.col_offset)
        if key in reported:
            return
        reported.add(key)
        yield _diag(
            func,
            node,
            self.code,
            f"chained fancy indexing on '{base.id}' in hot function "
            f"'{func.qualname}' materializes the intermediate gather; "
            f"fuse the index arrays into a single subscript",
        )

    @staticmethod
    def _trivial_index(index: ast.expr) -> bool:
        """Constant subscripts and plain slices don't copy (views)."""
        if isinstance(index, ast.Slice):
            return True
        if isinstance(index, ast.Constant):
            return True
        if isinstance(index, ast.UnaryOp) and isinstance(
            index.operand, ast.Constant
        ):
            return True
        return False

    def _redundant_astype(
        self,
        func: FunctionInfo,
        module: ModuleInfo,
        node: ast.Call,
        env: dict[str, ArrayValue],
        inference: ArrayInference,
        reported: set[tuple[int, int]],
    ) -> Iterator[Diagnostic]:
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
        ):
            return
        if any(keyword.arg == "copy" for keyword in node.keywords):
            return
        target = inference.resolve_dtype(node.args[0], module)
        if target is None:
            return
        base = inference.infer(node.func.value, env, module, func)
        if not base.array or base.dtype != target:
            return
        key = (node.lineno, node.col_offset)
        if key in reported:
            return
        reported.add(key)
        yield _diag(
            func,
            node,
            self.code,
            f".astype(np.{target}) in hot function '{func.qualname}' "
            f"copies an array that already has dtype {target}; pass "
            f"copy=False (or drop the cast)",
        )

    def _noncontiguous_shm(
        self,
        func: FunctionInfo,
        module: ModuleInfo,
        node: ast.Call,
        ctx: ProjectContext,
        reported: set[tuple[int, int]],
    ) -> Iterator[Diagnostic]:
        # Resolve through the alias map alone: the shm module need not
        # itself be part of the linted tree for its callers to be.
        chain = (
            ctx.index.qualified_chain(node.func, module)
            if isinstance(node.func, (ast.Name, ast.Attribute))
            else None
        )
        if chain is None or not chain.startswith(self._SHM_PREFIX):
            return
        for arg in list(node.args) + [keyword.value for keyword in node.keywords]:
            bad = self._noncontiguous_shape(arg)
            if bad is None:
                continue
            key = (node.lineno, node.col_offset)
            if key in reported:
                continue
            reported.add(key)
            yield _diag(
                func,
                node,
                self.code,
                f"{bad} passed to shm transport '{chain}' is "
                f"non-contiguous; the transport must materialize a "
                f"copy — pass np.ascontiguousarray(...) explicitly at "
                f"the producer where the copy is visible",
            )

    @staticmethod
    def _noncontiguous_shape(node: ast.expr) -> str | None:
        if isinstance(node, ast.Attribute) and node.attr == "T":
            return "a transpose (.T)"
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
            step = node.slice.step
            if step is not None and not (
                isinstance(step, ast.Constant) and step.value in (1, None)
            ):
                return "a stepped slice"
        return None


# -- SIM017: per-element Python loops in hot kernels -------------------


@register_rule
class ScalarLoopRule:
    """A Python ``for`` iterating per element over arrays in a hot path.

    Fires only when the loop body is pure array element access — it
    subscripts a known array by the loop variable and calls nothing —
    so a vectorized primitive (fancy indexing, ufuncs, ``np.bincount``)
    is guaranteed to exist.  Loops that call helpers per element are
    left alone: the fix there is restructuring, not mechanical
    vectorization, and that judgement stays human.
    """

    code = "SIM017"
    summary = "per-element Python loop over arrays in a hot function"

    def check_project(self, ctx: ProjectContext) -> Iterator[Diagnostic]:
        hot = hot_functions(ctx.index, ctx.config)
        if not hot:
            return
        inference = ArrayInference(ctx.index)
        for qualname in sorted(hot):
            func = ctx.index.functions[qualname]
            module = ctx.index.modules[func.module]
            env = inference.env(qualname)
            for node in own_nodes(func.node):
                if not isinstance(node, ast.For):
                    continue
                if not isinstance(node.target, ast.Name):
                    continue
                diagnostic = self._check_loop(func, module, node, env, inference)
                if diagnostic is not None:
                    yield diagnostic

    def _check_loop(
        self,
        func: FunctionInfo,
        module: ModuleInfo,
        loop: ast.For,
        env: dict[str, ArrayValue],
        inference: ArrayInference,
    ) -> Diagnostic | None:
        assert isinstance(loop.target, ast.Name)
        variable = loop.target.id
        iter_is_range = (
            isinstance(loop.iter, ast.Call)
            and isinstance(loop.iter.func, ast.Name)
            and loop.iter.func.id == "range"
        )
        if not iter_is_range:
            iter_value = inference.infer(loop.iter, env, module, func)
            if not iter_value.array:
                return None
        subscripted: list[str] = []
        for stmt in loop.body:
            for node in walk_shallow(stmt):
                if isinstance(node, ast.Call):
                    if iter_is_range and node is loop.iter:
                        continue
                    return None  # body calls something; not mechanical
                if (
                    isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Name)
                    and any(
                        isinstance(n, ast.Name) and n.id == variable
                        for n in ast.walk(node.slice)
                    )
                ):
                    base = env.get(node.value.id)
                    if base is not None and base.array:
                        subscripted.append(node.value.id)
        if not subscripted:
            return None
        arrays = ", ".join(sorted(set(subscripted)))
        return _diag(
            func,
            loop,
            self.code,
            f"per-element Python loop over array(s) {arrays} in hot "
            f"function '{func.qualname}'; replace with vectorized "
            f"indexing/ufuncs (the body does pure element access)",
        )
