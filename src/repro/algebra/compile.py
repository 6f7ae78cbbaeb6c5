"""Row-compiled execution backend: expressions and operators → closures.

The interpreted evaluator (:mod:`repro.algebra.evaluate`) walks the scalar
and predicate trees once *per row* and materializes a ``dict(zip(names,
row))`` for every tuple it touches. This module compiles each expression
shape once per session into specialized Python functions that read tuple
positions directly:

* :func:`compile_scalar` / :func:`compile_predicate` /
  :func:`compile_row_mapper` turn expression trees into one code object
  over the row tuple — no dicts, no tree walks;
* operator kernels fuse whole Select→Project chains (and chains sitting
  directly on a Join's probe loop) into a single per-row loop;
* :class:`PlanCache` memoizes compiled artifacts keyed by the canonical
  (structurally hashed) expression, so each shape compiles once; it is a
  bounded, thread-safe LRU (the maintainer keeps its update tracks in one
  too).

**Cost transparency.** Compilation never touches the storage layer: every
``IOCounter`` charge is made by exactly the same ``scan``/``probe``/
``apply_delta`` calls as before, so measured page I/Os are bit-for-bit
identical between backends — only wall clock moves. The hypothesis property
in ``tests/property/test_compile_equivalence.py`` enforces both halves:
identical :class:`~repro.algebra.multiset.Multiset` results and identical
``IOCounter`` totals.

The interpreted path remains the reference semantics: select the backend
globally with :func:`set_default_backend` (or the ``REPRO_EXEC_BACKEND``
environment variable), or per call via ``evaluate(..., backend=...)``.
An unknown ``REPRO_EXEC_BACKEND`` value falls back to the compiled backend
with a ``RuntimeWarning`` and a WARNING event, ``compile.backend_fallback``,
on the ``repro.algebra.compile`` logger.
Unknown operator/scalar/predicate subclasses fall back to their
interpreted ``eval`` transparently, so third-party extensions keep working.
"""

from __future__ import annotations

import logging
import math
import os
import threading
import warnings
from collections import OrderedDict
from itertools import chain
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.algebra.multiset import Multiset, Row
from repro.algebra.operators import (
    AggSpec,
    Difference,
    GroupAggregate,
    Join,
    Project,
    RelExpr,
    Scan,
    Select,
    Union,
)
from repro.algebra.predicates import And, Compare, Not, Or, Predicate, TruePred
from repro.algebra.scalar import Arith, Col, Const, Scalar

Kernel = Callable[[Multiset], Multiset]
JoinKernel = Callable[[Multiset, Multiset], Multiset]


class CompileError(Exception):
    """Raised when an expression cannot be compiled (internal errors only;
    unknown node types fall back to the interpreter instead)."""


# -- backend selection ---------------------------------------------------------------

BACKENDS = ("compiled", "interpreted")

_log = logging.getLogger("repro.algebra.compile")


def _backend_from_env() -> str:
    value = os.environ.get("REPRO_EXEC_BACKEND")
    if value is None or value == "":
        return "compiled"
    if value not in BACKENDS:
        warnings.warn(
            f"ignoring unknown REPRO_EXEC_BACKEND value {value!r}; "
            f"expected one of {BACKENDS}",
            RuntimeWarning,
            stacklevel=2,
        )
        event = "compile.backend_fallback"
        _log.warning(
            "%s value=%r backend='compiled'", event, value,
            extra={"event": event, "value": value, "backend": "compiled"},
        )
        return "compiled"
    return value


_default_backend = _backend_from_env()


def default_backend() -> str:
    """The session-wide execution backend (one of :data:`BACKENDS`)."""
    return _default_backend


def set_default_backend(name: str) -> None:
    global _default_backend
    if name not in BACKENDS:
        raise ValueError(f"unknown execution backend {name!r}; expected one of {BACKENDS}")
    _default_backend = name


# -- plan cache ----------------------------------------------------------------------


#: Most compiled artifacts the session cache keeps. A literal is part of an
#: expression's key, so reads that pin nothing a probe can answer (``WHERE
#: Salary > n``) add one entry per distinct literal; the least recently used
#: entry goes past this many.
PLAN_CACHE_CAPACITY = 1024


class PlanCacheStats(NamedTuple):
    """A :class:`PlanCache`'s counts when :attr:`PlanCache.stats` was read."""

    entries: int
    hits: int
    misses: int
    evictions: int


class PlanCache:
    """Bounded, thread-safe LRU of plans, keyed by canonical shape.

    The session cache (:func:`plan_cache`) holds compiled artifacts keyed
    by canonical expression: operators, predicates and scalars hash
    structurally (schemas are excluded from their identity), so two views
    built independently from the same shape share one compiled kernel.
    Keys are ``(tag, ...)`` tuples to keep the different artifact kinds
    (plans, kernels, row functions) apart. A maintainer keeps one more,
    of ``capacity`` update tracks keyed by transaction shape.

    Thread-safe: reader threads compile reads while the commit thread
    compiles maintenance kernels. A build runs outside the lock (builds
    nest), so two threads may build one key; the later store wins.
    """

    def __init__(self, capacity: int | None = None) -> None:
        capacity = PLAN_CACHE_CAPACITY if capacity is None else capacity
        if capacity < 1:
            raise ValueError("PlanCache capacity must be positive")
        self.capacity = capacity
        self._plans: OrderedDict[tuple, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple, build: Callable[[], Any]) -> Any:
        """The plan stored under ``key``, refreshed as most recent; on a
        miss, ``build()``'s result, stored (evicting the least recent)."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                return plan
            self.misses += 1
        plan = build()
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.evictions += 1
        return plan

    def invalidate(self, key: tuple) -> bool:
        """Drop one cached artifact; returns whether it was present."""
        with self._lock:
            return self._plans.pop(key, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: tuple) -> bool:
        return key in self._plans

    @property
    def stats(self) -> PlanCacheStats:
        return PlanCacheStats(len(self._plans), self.hits, self.misses, self.evictions)


_SESSION_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    """The process-wide plan cache (one compilation per shape per session)."""
    return _SESSION_CACHE


# -- code generation ----------------------------------------------------------------


def _raise(exc: BaseException) -> Any:
    raise exc


class _Ctx:
    """Accumulates the closure environment for one generated function."""

    def __init__(self) -> None:
        self.env: dict[str, Any] = {"_Multiset": Multiset}
        self._n = 0

    def bind(self, value: Any, prefix: str = "b") -> str:
        name = f"_{prefix}{self._n}"
        self._n += 1
        self.env[name] = value
        return name

    def fresh(self, prefix: str) -> str:
        name = f"_{prefix}{self._n}"
        self._n += 1
        return name


def _exec_fn(name: str, lines: Sequence[str], ctx: _Ctx) -> Callable:
    source = "\n".join(lines)
    code = compile(source, "<repro.algebra.compile>", "exec")
    namespace = dict(ctx.env)
    exec(code, namespace)  # noqa: S102 - self-generated trusted source
    fn = namespace[name]
    fn.__repro_source__ = source  # introspection / debugging aid
    return fn


def resolve_position(name: str, names: tuple[str, ...]) -> int | None:
    """Static replica of ``Col.eval``'s name resolution over a fixed row
    layout: exact match first, then unique bare-name (suffix) match."""
    if name in names:
        return names.index(name)
    bare = name.rsplit(".", 1)[-1]
    matches = [
        i for i, k in enumerate(names) if k == bare or k.rsplit(".", 1)[-1] == bare
    ]
    if len(matches) == 1:
        return matches[0]
    return None


class _TupleEnv:
    """Column-name resolution over a single row-tuple variable."""

    __slots__ = ("names", "rv")

    def __init__(self, names: tuple[str, ...], rv: str) -> None:
        self.names = names
        self.rv = rv

    def resolve(self, name: str) -> str | None:
        pos = resolve_position(name, self.names)
        return None if pos is None else f"{self.rv}[{pos}]"

    def mapping_src(self, ctx: _Ctx) -> str:
        nm = ctx.bind(self.names, "n")
        return f"dict(zip({nm}, {self.rv}))"

    def describe(self) -> list[str]:
        return sorted(self.names)


class _MultiEnv:
    """Column-name resolution over several bound row variables — the
    environment inside a fused join cascade, where each column reads from
    whichever operand's row variable provides it."""

    __slots__ = ("sources",)

    def __init__(self, sources: dict[str, str]) -> None:
        self.sources = sources

    def resolve(self, name: str) -> str | None:
        if name in self.sources:
            return self.sources[name]
        bare = name.rsplit(".", 1)[-1]
        matches = [
            k for k in self.sources if k == bare or k.rsplit(".", 1)[-1] == bare
        ]
        if len(matches) == 1:
            return self.sources[matches[0]]
        return None

    def mapping_src(self, ctx: _Ctx) -> str:
        items = ", ".join(f"{k!r}: {v}" for k, v in self.sources.items())
        return "{" + items + "}"

    def describe(self) -> list[str]:
        return sorted(self.sources)


def _scalar_src(scalar: Scalar, env: "_TupleEnv | _MultiEnv", ctx: _Ctx) -> str:
    if isinstance(scalar, Col):
        src = env.resolve(scalar.name)
        if src is None:
            # Mirror the interpreter: the KeyError surfaces per evaluated
            # row, not at compile time (an empty input raises nothing).
            err = ctx.bind(
                KeyError(
                    f"column {scalar.name!r} not found (or ambiguous) in row {env.describe()}"
                ),
                "e",
            )
            raiser = ctx.bind(_raise, "x")
            return f"{raiser}({err})"
        return src
    if isinstance(scalar, Const):
        value = scalar.value
        if value is None or isinstance(value, (bool, int, str)):
            return repr(value)
        if isinstance(value, float) and math.isfinite(value):
            return repr(value)
        return ctx.bind(value, "c")
    if isinstance(scalar, Arith):
        left = _scalar_src(scalar.left, env, ctx)
        right = _scalar_src(scalar.right, env, ctx)
        return f"({left} {scalar.op} {right})"
    # Unknown scalar subclass: fall back to its interpreted eval.
    fn = ctx.bind(scalar.eval, "f")
    return f"{fn}({env.mapping_src(ctx)})"


_CMP_TO_PY = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _pred_src(pred: Predicate, env: "_TupleEnv | _MultiEnv", ctx: _Ctx) -> str:
    if isinstance(pred, TruePred):
        return "True"
    if isinstance(pred, Compare):
        left = _scalar_src(pred.left, env, ctx)
        right = _scalar_src(pred.right, env, ctx)
        return f"({left} {_CMP_TO_PY[pred.op]} {right})"
    if isinstance(pred, Not):
        return f"(not {_pred_src(pred.inner, env, ctx)})"
    if isinstance(pred, And):
        if not pred.parts:
            return "True"
        return "(" + " and ".join(_pred_src(p, env, ctx) for p in pred.parts) + ")"
    if isinstance(pred, Or):
        left = _pred_src(pred.left, env, ctx)
        right = _pred_src(pred.right, env, ctx)
        return f"({left} or {right})"
    # Unknown predicate subclass: interpreted fallback.
    fn = ctx.bind(pred.eval, "f")
    return f"{fn}({env.mapping_src(ctx)})"


def _tuple_src(var: str, positions: Sequence[int]) -> str:
    return "(" + "".join(f"{var}[{i}], " for i in positions) + ")"


# -- compiled row functions ----------------------------------------------------------


def compile_scalar(scalar: Scalar, names: tuple[str, ...]) -> Callable[[Row], Any]:
    """Compile one scalar into ``row -> value`` over the given row layout."""
    ctx = _Ctx()
    src = _scalar_src(scalar, _TupleEnv(names, "_r"), ctx)
    return _exec_fn("_s", ["def _s(_r):", f"    return {src}"], ctx)


def compile_predicate(pred: Predicate, names: tuple[str, ...]) -> Callable[[Row], bool]:
    """Compile one predicate into ``row -> bool`` over the given row layout."""
    ctx = _Ctx()
    src = _pred_src(pred, _TupleEnv(names, "_r"), ctx)
    return _exec_fn("_p", ["def _p(_r):", f"    return {src}"], ctx)


def compile_row_mapper(
    outputs: tuple[tuple[str, Scalar], ...], names: tuple[str, ...]
) -> Callable[[Row], Row]:
    """Compile a projection list into ``row -> projected_row``."""
    ctx = _Ctx()
    env = _TupleEnv(names, "_r")
    srcs = "".join(f"{_scalar_src(s, env, ctx)}, " for _, s in outputs)
    return _exec_fn("_m", ["def _m(_r):", f"    return ({srcs})"], ctx)


def compile_tuple_getter(positions: Sequence[int]) -> Callable[[Row], tuple]:
    """Compile ``row -> (row[i] for i in positions)`` as one code object."""
    ctx = _Ctx()
    return _exec_fn(
        "_g", ["def _g(_r):", f"    return {_tuple_src('_r', positions)}"], ctx
    )


# -- fused operator kernels ----------------------------------------------------------


def _pipeline_body(
    ops_bottom_up: Sequence[RelExpr],
    in_names: tuple[str, ...],
    ctx: _Ctx,
    rv: str,
) -> tuple[list[str], str]:
    """Emit per-row statements applying a Select/plain-Project chain to the
    row in ``rv``; returns the statements and the final row variable."""
    lines: list[str] = []
    env = _TupleEnv(in_names, rv)
    for op in ops_bottom_up:
        if isinstance(op, Select):
            if op.predicate.conjuncts():
                lines.append(f"if not {_pred_src(op.predicate, env, ctx)}: continue")
        elif isinstance(op, Project):
            srcs = "".join(f"{_scalar_src(s, env, ctx)}, " for _, s in op.outputs)
            nrv = ctx.fresh("r")
            lines.append(f"{nrv} = ({srcs})")
            rv = nrv
            env = _TupleEnv(tuple(name for name, _ in op.outputs), nrv)
        else:  # pragma: no cover - callers only pass Select/Project
            raise CompileError(f"cannot fuse {type(op).__name__} into a pipeline")
    return lines, rv


def _compile_rowloop(ops_top_down: Sequence[RelExpr], in_names: tuple[str, ...]) -> Kernel:
    """One loop over ``(row, count)`` applying a fused unary chain."""
    ctx = _Ctx()
    body, rv = _pipeline_body(list(reversed(ops_top_down)), in_names, ctx, "_r0")
    lines = [
        "def _k(_in):",
        "    _acc = {}",
        "    _get = _acc.get",
        "    for _r0, _n in _in.items():",
        *[f"        {stmt}" for stmt in body],
        f"        _acc[{rv}] = _get({rv}, 0) + _n",
        "    _out = _Multiset()",
        "    _out._counts = {k: v for k, v in _acc.items() if v}",
        "    return _out",
    ]
    return _exec_fn("_k", lines, ctx)


def _compile_join(join: Join, ops_top_down: Sequence[RelExpr]) -> JoinKernel:
    """Hash-join kernel with the residual predicate and any Select/Project
    chain sitting above the join fused into the probe loop.

    Matches the interpreter bit for bit: build side chosen by distinct
    size, counts multiply, output columns follow the join's canonical
    order.
    """
    ctx = _Ctx()
    left_schema, right_schema = join.left.schema, join.right.schema
    shared = join.join_columns
    left_key = [left_schema.index_of(c) for c in shared]
    right_key = [right_schema.index_of(c) for c in shared]
    out_src: list[tuple[bool, int]] = []
    for name in join.schema.names:
        if name in left_schema:
            out_src.append((True, left_schema.index_of(name)))
        else:
            out_src.append((False, right_schema.index_of(name)))
    merged_names = join.schema.names
    has_residual = bool(join.residual.conjuncts())
    ops_bottom_up = list(reversed(ops_top_down))

    def key_src(var: str, idx: list[int]) -> str:
        # Single-column keys hash as bare scalars: no tuple allocation on
        # either the build or the probe side.
        if len(idx) == 1:
            return f"{var}[{idx[0]}]"
        return _tuple_src(var, idx)

    def branch(build_left: bool, build_var: str, probe_var: str) -> list[str]:
        build_idx = left_key if build_left else right_key
        probe_idx = right_key if build_left else left_key
        merged = "".join(
            (f"_b[{idx}], " if from_left == build_left else f"_p[{idx}], ")
            for from_left, idx in out_src
        )
        lines = [
            "_t = {}",
            f"for _b, _bn in {build_var}.items():",
            f"    _bk = {key_src('_b', build_idx)}",
            "    _e = _t.get(_bk)",
            "    if _e is None: _t[_bk] = [(_b, _bn)]",
            "    else: _e.append((_b, _bn))",
            "_tget = _t.get",
            f"for _p, _pn in {probe_var}.items():",
            f"    _e = _tget({key_src('_p', probe_idx)})",
            "    if _e is None: continue",
            "    for _b, _bn in _e:",
            f"        _m = ({merged})",
        ]
        inner: list[str] = []
        if has_residual:
            inner.append(
                f"if not {_pred_src(join.residual, _TupleEnv(merged_names, '_m'), ctx)}: continue"
            )
        body, rv = _pipeline_body(ops_bottom_up, merged_names, ctx, "_m")
        inner.extend(body)
        # Strip exact cancellations inline (a zero sum means the key was
        # present with the opposite count, so the del cannot miss).
        inner.append(f"_c = _get({rv}, 0) + _pn * _bn")
        inner.append(f"if _c == 0: del _acc[{rv}]")
        inner.append(f"else: _acc[{rv}] = _c")
        lines.extend(f"        {stmt}" for stmt in inner)
        return lines

    lines = [
        "def _k(_L, _R):",
        "    _acc = {}",
        "    _get = _acc.get",
        "    if _L.distinct_size <= _R.distinct_size:",
        *[f"        {stmt}" for stmt in branch(True, "_L", "_R")],
        "    else:",
        *[f"        {stmt}" for stmt in branch(False, "_R", "_L")],
        "    _out = _Multiset()",
        "    _out._counts = _acc",
        "    return _out",
    ]
    return _exec_fn("_k", lines, ctx)


def _compile_probe_join(join: Join, shape: str) -> Callable[[Multiset, Mapping, Mapping], Multiset]:
    """Probe-side join kernel ``(left_rows, right_buckets, rows) -> result``.

    ``right_buckets`` maps join-key tuples (over the sorted join columns, the
    index key layout) to what :meth:`HashIndex.probe_buckets` returns for
    them, in ``shape``: ``"buckets"``, a multiset of matching right rows;
    ``"refs"``, a bucket of first-key values, each resolved through
    ``rows`` (the right relation's key map); ``"keyed"``, the one matching
    row itself (the index is a declared key's map). The index already
    hashed the right side by exactly this key, so the kernel has no build
    phase: it probes the borrowed buckets directly.
    """
    ctx = _Ctx()
    left_schema, right_schema = join.left.schema, join.right.schema
    left_key = [left_schema.index_of(c) for c in join.join_columns]
    merged = ""
    for name in join.schema.names:
        if name in left_schema:
            merged += f"_p[{left_schema.index_of(name)}], "
        else:
            merged += f"_b[{right_schema.index_of(name)}], "
    inner = [f"_m = ({merged})"]
    if join.residual.conjuncts():
        inner.append(
            f"if not {_pred_src(join.residual, _TupleEnv(join.schema.names, '_m'), ctx)}: continue"
        )
    inner.extend([
        f"_c = _get(_m, 0) + {'_pn * _bn' if shape == 'buckets' else '_pn'}",
        "if _c == 0: del _acc[_m]",
        "else: _acc[_m] = _c",
    ])
    if shape == "keyed":
        probe = [
            f"        _b = _bget({_tuple_src('_p', left_key)})",
            "        if _b is None: continue",
            *[f"        {stmt}" for stmt in inner],
        ]
    else:
        each = "_b, _bn in _e._counts.items()" if shape == "buckets" else "_b in map(_rget, _e)"
        probe = [
            f"        _e = _bget({_tuple_src('_p', left_key)})",
            "        if _e is None: continue",
            f"        for {each}:",
            *[f"            {stmt}" for stmt in inner],
        ]
    lines = [
        "def _k(_P, _B, _R):",
        "    _acc = {}",
        "    _get = _acc.get",
        "    _bget = _B.get",
        *(["    _rget = _R.__getitem__"] if shape == "refs" else []),
        "    for _p, _pn in _P.items():",
        *probe,
        "    _out = _Multiset()",
        "    _out._counts = _acc",
        "    return _out",
    ]
    return _exec_fn("_k", lines, ctx)


def _compile_modify_join(join: Join, from_left: bool, shape: str) -> Callable:
    """Modify-pair join kernel ``(pairs, other, rows) -> [(old ⋈ o, new ⋈ o), …]``.

    ``pairs`` are (old, new) rows of one input that keep the join columns;
    each is joined with every matching row ``o`` of the other input, once
    per copy of ``o``. ``other`` is shaped as ``shape`` says: ``"rows"``, a
    multiset of the other input's rows (hashed here); otherwise the
    ``{join_key: bucket}`` of an index's ``probe_buckets`` in that index's
    shape (``"buckets"``, ``"refs"`` resolved through ``rows``, or
    ``"keyed"``; see :func:`_compile_probe_join`). The join has no residual
    predicate.
    """
    ctx = _Ctx()
    left_schema, right_schema = join.left.schema, join.right.schema
    own, other = (left_schema, right_schema) if from_left else (right_schema, left_schema)
    own_key = [own.index_of(c) for c in join.join_columns]
    other_key = [other.index_of(c) for c in join.join_columns]

    def merged(var: str) -> str:
        # Shared columns come from the pair's own row (they are kept).
        return "(" + "".join(
            f"{var}[{own.index_of(name)}], " if name in own else f"_b[{other.index_of(name)}], "
            for name in join.schema.names
        ) + ")"

    emit = [f"_mo = {merged('_o')}", f"_mn = {merged('_n')}"]
    counted = [
        *emit,
        "if _bn == 1: _app((_mo, _mn))",
        "else: _out.extend([(_mo, _mn)] * _bn)",
    ]
    match = "_b" if shape == "keyed" else "_e"
    if shape == "keyed":
        body = [*emit, "_app((_mo, _mn))"]
    elif shape == "refs":
        body = ["for _b in map(_rget, _e):", *[f"    {stmt}" for stmt in emit]]
        body.append("    _app((_mo, _mn))")
    elif shape == "buckets":
        body = ["for _b, _bn in _e._counts.items():", *[f"    {stmt}" for stmt in counted]]
    else:
        # A key's one match is its (row, count) pair; two or more, a list.
        body = [
            "if _e.__class__ is tuple:",
            "    _b, _bn = _e",
            *[f"    {stmt}" for stmt in counted],
            "else:",
            "    for _b, _bn in _e:",
            *[f"        {stmt}" for stmt in counted],
        ]
    if shape == "rows":
        build = [
            "    _t = {}",
            "    for _x in _O._counts.items():",
            f"        _bk = {_tuple_src('_x[0]', other_key)}",
            "        _e = _t.get(_bk)",
            "        if _e is None: _t[_bk] = _x",
            "        elif _e.__class__ is tuple: _t[_bk] = [_e, _x]",
            "        else: _e.append(_x)",
            "    _oget = _t.get",
        ]
    else:
        build = ["    _oget = _O.get"]
        if shape == "refs":
            build.append("    _rget = _R.__getitem__")
    lines = [
        "def _k(_pairs, _O, _R):",
        "    _out = []",
        "    _app = _out.append",
        *build,
        "    for _o, _n in _pairs:",
        f"        {match} = _oget({_tuple_src('_o', own_key)})",
        f"        if {match} is None: continue",
        *[f"        {stmt}" for stmt in body],
        "    return _out",
    ]
    return _exec_fn("_k", lines, ctx)


def _join_spine(join: Join) -> tuple[list[Join], list[RelExpr]]:
    """Decompose a left-deep cascade of joins into (joins bottom-up,
    operands left-to-right). ``operands[0]`` is the leftmost non-join input
    and ``operands[i + 1]`` is ``joins[i].right`` (which may itself be any
    subtree — including a bushy right join, compiled as its own plan)."""
    joins: list[Join] = []
    node: RelExpr = join
    while isinstance(node, Join):
        joins.append(node)
        node = node.left
    joins.reverse()
    operands: list[RelExpr] = [node] + [j.right for j in joins]
    return joins, operands


def _chain_steps(
    operands: Sequence[RelExpr], order: Sequence[int]
) -> list[tuple[int, tuple[str, ...]]] | None:
    """Per-operand probe keys for one binding order, or ``None`` when a
    non-driver step would have no bound key (a cartesian blow-up).

    Natural-join semantics make all spine operands sharing a column name
    pairwise equal on it, so probing each operand on *all* of its
    already-bound columns enforces exactly the cascade's join conditions,
    in any binding order.
    """
    bound: set[str] = set()
    steps: list[tuple[int, tuple[str, ...]]] = []
    for pos, idx in enumerate(order):
        cols = set(operands[idx].schema.names)
        if pos > 0:
            key = tuple(sorted(cols & bound))
            if not key:
                return None
            steps.append((idx, key))
        else:
            steps.append((idx, ()))
        bound |= cols
    return steps


def _compile_chain_join(
    joins: Sequence[Join],
    operands: Sequence[RelExpr],
    ops_top_down: Sequence[RelExpr],
) -> Callable[..., Multiset]:
    """Fuse a left-deep join cascade into one nested probe loop.

    No intermediate multiset is ever materialized: hash tables are built on
    the non-driver operands, one driver loop chases matches through all of
    them, and only the final output tuple is constructed. When an operand's
    probe columns cover one of its candidate keys, its bucket holds a single
    ``(row, count)`` pair and the inner loop disappears entirely.

    Binding order prefers the backward chase (driver = rightmost operand),
    which in foreign-key chains makes every probe key-covered; the forward
    chase is the always-valid fallback.
    """
    k = len(operands)
    top = joins[-1]

    def key_coverage(steps: list[tuple[int, tuple[str, ...]]]) -> int:
        return sum(
            1
            for idx, key in steps[1:]
            if operands[idx].schema.has_key(key)
        )

    candidates = [
        s
        for s in (
            _chain_steps(operands, range(k - 1, -1, -1)),
            _chain_steps(operands, range(k)),
        )
        if s is not None
    ]
    steps = max(candidates, key=key_coverage)

    ctx = _Ctx()
    lines = [f"def _k({', '.join(f'_in{i}' for i in range(k))}):"]
    pad = "    "

    # Hash tables for the probed operands. A bucket is a single (row, count)
    # when the probe columns cover a candidate key of the operand (at most
    # one distinct row per key), else a list of pairs.
    singleton: dict[int, bool] = {}
    for idx, key in steps[1:]:
        schema = operands[idx].schema
        positions = [schema.index_of(c) for c in key]
        ksrc = (
            f"_r[{positions[0]}]"
            if len(positions) == 1
            else _tuple_src("_r", positions)
        )
        singleton[idx] = schema.has_key(key)
        lines.append(f"{pad}_t{idx} = {{}}")
        lines.append(f"{pad}for _r, _n in _in{idx}._counts.items():")
        if singleton[idx]:
            lines.append(f"{pad}    _t{idx}[{ksrc}] = (_r, _n)")
        else:
            lines.append(f"{pad}    _e = _t{idx}.get({ksrc})")
            lines.append(f"{pad}    if _e is None: _t{idx}[{ksrc}] = [(_r, _n)]")
            lines.append(f"{pad}    else: _e.append((_r, _n))")

    # With all-nonnegative inputs no contribution can cancel, so the final
    # zero-strip pass (needed for signed deltas) is skipped.
    ins = ", ".join(f"_in{i}" for i in range(k))
    lines.append(
        f"{pad}_neg = any(min(_m._counts.values(), default=0) < 0 for _m in ({ins},))"
    )
    lines.append(f"{pad}_acc = {{}}")
    lines.append(f"{pad}_get = _acc.get")

    # Residual predicates fire at the earliest step where all their columns
    # are bound.
    residuals = [j.residual for j in joins if j.residual.conjuncts()]
    pending = list(residuals)
    sources: dict[str, str] = {}

    def bind_operand(idx: int) -> None:
        schema = operands[idx].schema
        for pos, name in enumerate(schema.names):
            sources.setdefault(name, f"_r{idx}[{pos}]")

    def ready_residual_lines(depth: str) -> list[str]:
        env = _MultiEnv(sources)
        out = []
        for pred in list(pending):
            if all(env.resolve(c) is not None for c in pred.columns()):
                pending.remove(pred)
                out.append(f"{depth}if not {_pred_src(pred, env, ctx)}: continue")
        return out

    driver = steps[0][0]
    bind_operand(driver)
    lines.append(f"{pad}for _r{driver}, _n{driver} in _in{driver}._counts.items():")
    depth = pad + "    "
    lines.extend(ready_residual_lines(depth))
    count_var = f"_n{driver}"
    for idx, key in steps[1:]:
        env = _MultiEnv(sources)
        key_parts = [sources[c] for c in key]
        ksrc = key_parts[0] if len(key_parts) == 1 else "(" + ", ".join(key_parts) + ",)"
        lines.append(f"{depth}_e{idx} = _t{idx}.get({ksrc})")
        lines.append(f"{depth}if _e{idx} is None: continue")
        if singleton[idx]:
            lines.append(f"{depth}_r{idx}, _n{idx} = _e{idx}")
        else:
            lines.append(f"{depth}for _r{idx}, _n{idx} in _e{idx}:")
            depth += "    "
        nc = ctx.fresh("c")
        lines.append(f"{depth}{nc} = {count_var} * _n{idx}")
        count_var = nc
        bind_operand(idx)
        lines.extend(ready_residual_lines(depth))

    merged = "".join(f"{sources[name]}, " for name in top.schema.names)
    mv = ctx.fresh("m")
    lines.append(f"{depth}{mv} = ({merged})")
    body, rv = _pipeline_body(
        list(reversed(ops_top_down)), top.schema.names, ctx, mv
    )
    lines.extend(f"{depth}{stmt}" for stmt in body)
    lines.append(f"{depth}_acc[{rv}] = _get({rv}, 0) + {count_var}")

    lines.append(f"{pad}_out = _Multiset()")
    lines.append(f"{pad}if _neg:")
    lines.append(f"{pad}    _out._counts = {{k: v for k, v in _acc.items() if v}}")
    lines.append(f"{pad}else:")
    lines.append(f"{pad}    _out._counts = _acc")
    lines.append(f"{pad}return _out")
    return _exec_fn("_k", lines, ctx)


def _dedup_ms(ms: Multiset) -> Multiset:
    counts = ms._counts
    for value in counts.values():
        if value < 0:
            raise ValueError("cannot deduplicate a multiset with negative counts")
    out = Multiset()
    out._counts = {row: 1 for row, value in counts.items() if value > 0}
    return out


def _compile_aggregate(expr: GroupAggregate) -> Kernel:
    in_names = expr.input.schema.names
    in_schema = expr.input.schema
    keyf = compile_tuple_getter([in_schema.index_of(g) for g in expr.group_by])
    agg_fns = [_compile_agg_fn(spec, in_names) for spec in expr.aggregates]
    grand = not expr.group_by

    def _k(input_: Multiset) -> Multiset:
        counts = input_._counts
        for value in counts.values():
            if value < 0:
                raise ValueError("cannot aggregate a multiset with negative counts")
        groups: dict[tuple, list[tuple[Row, int]]] = {}
        get = groups.get
        for row, count in counts.items():
            key = keyf(row)
            entry = get(key)
            if entry is None:
                groups[key] = [(row, count)]
            else:
                entry.append((row, count))
        out = Multiset()
        if grand and not groups:
            # Grand aggregate over empty input: no row (GROUP BY semantics),
            # mirroring the interpreter.
            return out
        oc = out._counts
        for key, rows in groups.items():
            oc[key + tuple(fn(rows) for fn in agg_fns)] = 1
        return out

    return _k


def _compile_agg_fn(
    spec: AggSpec, names: tuple[str, ...]
) -> Callable[[list[tuple[Row, int]]], Any]:
    """One aggregate over a group's ``(row, count)`` list, folding in the
    same order as the interpreter (bit-identical floats)."""
    if spec.func == "count":
        # COUNT(arg) and COUNT(*) both sum the counts; the interpreter's
        # per-row arg evaluation contributes nothing to the result.
        def _count(rows: list[tuple[Row, int]]) -> int:
            return sum(count for _, count in rows)

        return _count
    assert spec.arg is not None
    argf = compile_scalar(spec.arg, names)
    if spec.func == "sum":

        def _sum(rows: list[tuple[Row, int]]) -> Any:
            total = 0
            for row, count in rows:
                total += argf(row) * count
            return total

        return _sum
    if spec.func == "avg":

        def _avg(rows: list[tuple[Row, int]]) -> Any:
            total = 0
            n = 0
            for row, count in rows:
                total += argf(row) * count
                n += count
            return total / n

        return _avg
    if spec.func == "min":
        return lambda rows: min(argf(row) for row, _ in rows)
    if spec.func == "max":
        return lambda rows: max(argf(row) for row, _ in rows)
    raise CompileError(f"unknown aggregate function {spec.func!r}")  # pragma: no cover


# -- whole-plan compilation ----------------------------------------------------------


def _plan(expr: RelExpr) -> Callable[[Any], Multiset]:
    return _SESSION_CACHE.get(("plan", expr), lambda: _build_plan(expr))


def _build_plan(expr: RelExpr) -> Callable[[Any], Multiset]:
    if isinstance(expr, Scan):
        name = expr.name
        return lambda source: source.multiset(name)
    if isinstance(expr, Project) and expr.dedup:
        inner = _plan(Project(expr.input, expr.outputs, dedup=False))
        return lambda source: _dedup_ms(inner(source))
    if isinstance(expr, (Select, Project)):
        ops: list[RelExpr] = []
        node: RelExpr = expr
        while isinstance(node, Select) or (isinstance(node, Project) and not node.dedup):
            ops.append(node)
            node = node.input
        if isinstance(node, Join):
            return _build_join_plan(node, ops)
        child = _plan(node)
        loop = _compile_rowloop(ops, node.schema.names)
        return lambda source: loop(child(source))
    if isinstance(expr, Join):
        return _build_join_plan(expr, ())
    if isinstance(expr, GroupAggregate):
        agg = _compile_aggregate(expr)
        child = _plan(expr.input)
        return lambda source: agg(child(source))
    if isinstance(expr, Union):
        left, right = _plan(expr.left), _plan(expr.right)
        return lambda source: left(source) + right(source)
    if isinstance(expr, Difference):
        left, right = _plan(expr.left), _plan(expr.right)
        return lambda source: left(source).monus(right(source))
    # Unknown operator subclass: evaluate this subtree with the interpreter
    # (which raises its own TypeError for truly unknown nodes).

    def _fallback(source: Any) -> Multiset:
        from repro.algebra.evaluate import _eval

        return _eval(expr, source)

    return _fallback


def _build_join_plan(
    join: Join, ops_top_down: Sequence[RelExpr]
) -> Callable[[Any], Multiset]:
    joins, operands = _join_spine(join)
    if len(operands) >= 3:
        kernel = _compile_chain_join(joins, operands, ops_top_down)
        children = [_plan(o) for o in operands]
        return lambda source: kernel(*[c(source) for c in children])
    kernel = _compile_join(join, ops_top_down)
    left, right = _plan(join.left), _plan(join.right)
    return lambda source: kernel(left(source), right(source))


def compiled_evaluate(expr: RelExpr, source: Any) -> Multiset:
    """Evaluate ``expr`` with the compiled backend (plans cached per shape)."""
    if isinstance(source, Mapping):
        from repro.algebra.evaluate import MappingSource

        source = MappingSource(source)
    return _plan(expr)(source)


# -- backend-dispatching operator kernels (the IVM runtime's entry points) -----------


def _build_select_kernel(expr: Select) -> Kernel:
    if not expr.predicate.conjuncts():
        return lambda ms: ms.copy()
    return _compile_rowloop([expr], expr.input.schema.names)


def apply_select(expr: Select, input_: Multiset) -> Multiset:
    if _default_backend == "interpreted":
        from repro.algebra.evaluate import eval_select

        return eval_select(expr, input_)
    return _SESSION_CACHE.get(("select", expr), lambda: _build_select_kernel(expr))(input_)


def _build_project_kernel(expr: Project) -> Kernel:
    plain = _compile_rowloop(
        [expr if not expr.dedup else Project(expr.input, expr.outputs, dedup=False)],
        expr.input.schema.names,
    )
    if expr.dedup:
        return lambda ms: _dedup_ms(plain(ms))
    return plain


def apply_project(expr: Project, input_: Multiset) -> Multiset:
    if _default_backend == "interpreted":
        from repro.algebra.evaluate import eval_project

        return eval_project(expr, input_)
    return _SESSION_CACHE.get(("project", expr), lambda: _build_project_kernel(expr))(input_)


def apply_join(expr: Join, left: Multiset, right: Multiset) -> Multiset:
    if _default_backend == "interpreted":
        from repro.algebra.evaluate import eval_join

        return eval_join(expr, left, right)
    kernel = _SESSION_CACHE.get(("join", expr), lambda: _compile_join(expr, ()))
    return kernel(left, right)


def apply_join_fetched(
    expr: Join,
    left: Multiset,
    right_buckets: Mapping,
    shape: str = "buckets",
    rows: Mapping | None = None,
) -> Multiset:
    """Join ``left`` against index buckets fetched for its keys.

    ``right_buckets`` is the borrowed ``{join_key: bucket}`` mapping of an
    index's ``probe_buckets`` (keys over the sorted join columns), in the
    index's ``shape``; a ``"refs"`` bucket is resolved through ``rows``
    (see :func:`_compile_probe_join`). The compiled kernel probes the
    buckets in place; the interpreted reference flattens them (distinct
    keys have disjoint buckets) and joins normally. Results are
    bit-identical, and no I/O is charged here — the fetch already paid for
    every bucket.
    """
    if _default_backend == "interpreted":
        from repro.algebra.evaluate import eval_join

        return eval_join(expr, left, _flatten_buckets(right_buckets, shape, rows))
    kernel = _SESSION_CACHE.get(
        ("probe_join", expr, shape), lambda: _compile_probe_join(expr, shape)
    )
    return kernel(left, right_buckets, rows)


def _flatten_buckets(buckets: Mapping, shape: str, rows: Mapping | None) -> Multiset:
    """The rows of fetched buckets as one multiset, in bucket order
    (distinct keys have disjoint buckets; a keyed mapping holds one row
    per key, a ``"refs"`` bucket first-key values of rows)."""
    out = Multiset()
    if shape == "keyed":
        out._counts = dict.fromkeys(buckets.values(), 1)
    elif shape == "refs":
        out._counts = dict.fromkeys(map(rows.__getitem__, chain.from_iterable(buckets.values())), 1)
    else:
        for bucket in buckets.values():
            out._counts.update(bucket._counts)
    return out


def apply_join_modifies(
    expr: Join,
    pairs: Sequence[tuple[Row, Row]],
    other: Multiset | Mapping,
    from_left: bool,
    shape: str = "rows",
    rows: Mapping | None = None,
) -> list[tuple[Row, Row]]:
    """Join modify pairs of one input with the other input's matching rows:
    ``(old ⋈ o, new ⋈ o)`` for each pair and each matching ``o``, once per
    copy of ``o``. ``other`` is a multiset of rows (``shape="rows"``) or a
    fetched bucket mapping in an index's shape (see
    :func:`apply_join_fetched`). Every pair keeps the join columns and the
    join has no residual; no I/O is charged here.
    """
    if _default_backend == "interpreted":
        from repro.algebra.evaluate import eval_join_modifies

        if shape != "rows":
            other = _flatten_buckets(other, shape, rows)
        return eval_join_modifies(expr, pairs, other, from_left)
    kernel = _SESSION_CACHE.get(
        ("modify_join", expr, from_left, shape),
        lambda: _compile_modify_join(expr, from_left, shape),
    )
    return kernel(pairs, other, rows)


def apply_group_aggregate(expr: GroupAggregate, input_: Multiset) -> Multiset:
    if _default_backend == "interpreted":
        from repro.algebra.evaluate import eval_group_aggregate

        return eval_group_aggregate(expr, input_)
    return _SESSION_CACHE.get(("aggregate", expr), lambda: _compile_aggregate(expr))(input_)


# -- backend-dispatching row functions ----------------------------------------------


def row_predicate(pred: Predicate, names: tuple[str, ...]) -> Callable[[Row], bool]:
    """``row -> bool`` for one predicate over a fixed layout (backend-aware)."""
    if _default_backend == "interpreted":
        return lambda row: pred.eval(dict(zip(names, row)))
    return _SESSION_CACHE.get(
        ("pred", pred, names), lambda: compile_predicate(pred, names)
    )


def row_mapper(
    outputs: tuple[tuple[str, Scalar], ...], names: tuple[str, ...]
) -> Callable[[Row], Row]:
    """``row -> projected_row`` for a projection list (backend-aware)."""
    if _default_backend == "interpreted":
        return lambda row: tuple(
            scalar.eval(dict(zip(names, row))) for _, scalar in outputs
        )
    return _SESSION_CACHE.get(
        ("mapper", outputs, names), lambda: compile_row_mapper(outputs, names)
    )


def scalar_fn(scalar: Scalar, names: tuple[str, ...]) -> Callable[[Row], Any]:
    """``row -> value`` for one scalar over a fixed layout (backend-aware)."""
    if _default_backend == "interpreted":
        return lambda row: scalar.eval(dict(zip(names, row)))
    return _SESSION_CACHE.get(
        ("scalar", scalar, names), lambda: compile_scalar(scalar, names)
    )


def aggregate_fn(
    spec: AggSpec, names: tuple[str, ...]
) -> Callable[[list[tuple[Row, int]]], Any]:
    """One aggregate over a group's ``(row, count)`` list (backend-aware)."""
    if _default_backend == "interpreted":
        from repro.algebra.evaluate import compute_aggregate

        return lambda rows: compute_aggregate(spec, rows, names)
    return _SESSION_CACHE.get(
        ("agg", spec, names), lambda: _compile_agg_fn(spec, names)
    )


def tuple_getter(positions: Sequence[int]) -> Callable[[Row], tuple]:
    """Compiled positional extractor (backend-independent: same semantics,
    used by both backends' runtime plumbing)."""
    key = ("getter", tuple(positions))
    return _SESSION_CACHE.get(key, lambda: compile_tuple_getter(positions))
