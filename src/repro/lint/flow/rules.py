"""simflow rule pack: SIM010-SIM014, the dataflow half of simlint.

* ``SIM010`` — mixed-time-unit arithmetic/comparison/assignment/argument
  (``t_ns + t_us``): the classic silent corrupter of latency anatomy.
* ``SIM011`` — cross-dimension mixing: time vs size, or two different
  size units (``capacity_bytes + total_pages``).
* ``SIM012`` — address-space confusion: a logical page/block address
  (lpn/lba) used where a physical one (ppa/ppn/pba) is expected —
  assigned, passed, compared, or used to index the wrong mapping table
  (``l2p`` is indexed by LPN, ``p2l`` by PPA).
* ``SIM013`` — unit-ambiguous public sim API: an exported function whose
  time/size parameter (``timeout``, ``offset``, ...) carries neither a
  unit suffix nor a :mod:`repro.units` annotation.
* ``SIM014`` — stale state across a yield: a generator process caches a
  volatile shared attribute (queue depth, occupancy, in-flight count)
  before a ``yield`` and reuses it after, where the engine may have run
  other processes and advanced that state.

SIM010-012 share one interprocedural inference engine; an argument
flowing into a callee parameter with a conflicting tag is a finding even
when definition and use live in different modules.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.callgraph import (
    CallTarget,
    FunctionInfo,
    ModuleLike,
    Project,
    annotation_dim,
    merge_return_dim,
    refine_return_dims,
    resolve_call,
    return_exprs,
)
from repro.lint.flow.cfg import (
    _SCOPE_NODES,
    _walk_same_scope,
    build_cfg,
    is_generator,
)
from repro.lint.flow.dims import (
    DIMLESS,
    Dim,
    SIZE_BLOCKS,
    SIZE_BYTES,
    SIZE_PAGES,
    SIZE_SECTORS,
    UNKNOWN,
    conflict_kind,
    dim_of_name,
    join,
    scaled_time_unit,
)

#: (code -> (name, summary)) — merged into the simlint rule table.
FLOW_RULES: Dict[str, Tuple[str, str]] = {
    "SIM010": (
        "mixed-time-units",
        "arithmetic/comparison/assignment mixing time units (ns vs us)",
    ),
    "SIM011": (
        "cross-dimension",
        "time/size cross-dimension (or mismatched size-unit) arithmetic",
    ),
    "SIM012": (
        "address-space-confusion",
        "logical (lpn/lba) vs physical (ppa/ppn/pba) address crossing",
    ),
    "SIM013": (
        "unit-ambiguous-api",
        "public sim API parameter with no unit suffix or annotation",
    ),
    "SIM014": (
        "stale-state-across-yield",
        "volatile shared state cached before a yield and reused after",
    ),
}

_FAMILY_CODE = {"time": "SIM010", "cross": "SIM011", "addr": "SIM012"}

_FIX_BY_FAMILY = {
    "time": "convert explicitly (repro.units.us_to_ns & friends)",
    "cross": "convert explicitly (repro.units.bytes_to_pages & friends)",
    "addr": (
        "translate through the mapping (l2p: LPN->PPA) instead of "
        "reinterpreting the raw integer"
    ),
}

#: Mapping-table naming convention: what indexes it, what it stores.
_ADDR_MAPS: Dict[str, Tuple[Dim, Dim]] = {
    "l2p": (Dim("addr", "logical"), Dim("addr", "physical")),
    "p2l": (Dim("addr", "physical"), Dim("addr", "logical")),
}

#: `x // page_size` yields pages; `pages * page_size` yields bytes.
#: ``unit_size`` is this repo's name for bytes-per-mapping-unit (a page).
_GEOMETRY_UNITS = {
    "page": SIZE_PAGES,
    "unit": SIZE_PAGES,
    "sector": SIZE_SECTORS,
    "block": SIZE_BLOCKS,
}

#: Numeric builtins that pass their argument's dimension through.
_PASSTHROUGH_CALLS = frozenset({"int", "float", "round", "abs", "sum"})
_JOIN_CALLS = frozenset({"max", "min"})

_LADDER_FACTORS = frozenset({1_000, 1_000_000, 1_000_000_000})


def _terminal_name(expr: ast.expr) -> Optional[str]:
    """The identifier that names ``expr``: Name id, Attribute attr, or
    the called function's terminal name."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _map_signature(expr: ast.expr) -> Optional[Tuple[Dim, Dim]]:
    """(index dim, value dim) when ``expr`` names an address map."""
    name = _terminal_name(expr)
    if name is None:
        return None
    return _ADDR_MAPS.get(name.strip("_").lower())


def _geometry_unit(expr: ast.expr) -> Optional[Dim]:
    """The count unit implied by a ``*_size`` geometry divisor name."""
    name = _terminal_name(expr)
    if name is None:
        return None
    segments = name.strip("_").lower().split("_")
    if len(segments) >= 2 and segments[-1] == "size":
        return _GEOMETRY_UNITS.get(segments[-2])
    return None


def _literal_factor(expr: ast.expr) -> Optional[float]:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, (int, float)):
        value = float(expr.value)
        if value > 0:
            return value
    return None


class _Reporter:
    """Dedup + collect diagnostics for one run of the flow pass."""

    def __init__(self, select: Optional[Set[str]]) -> None:
        self.select = select
        self.diagnostics: List[Diagnostic] = []
        self._seen: Set[Tuple[str, int, int, str, str]] = set()

    def emit(self, display: str, node: ast.AST, code: str, message: str) -> None:
        if self.select is not None and code not in self.select:
            return
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        key = (display, line, col, code, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.diagnostics.append(
            Diagnostic(path=display, line=line, col=col, code=code, message=message)
        )


# ----------------------------------------------------------------------
# Expression dimension inference (shared by SIM010/011/012).
# ----------------------------------------------------------------------


class DimInference:
    """Infer dims for expressions inside one function, reporting
    arithmetic/comparison conflicts as it goes."""

    def __init__(
        self,
        project: Project,
        info: FunctionInfo,
        reporter: Optional[_Reporter],
    ) -> None:
        self.project = project
        self.info = info
        self.reporter = reporter
        self.display = info.module.display
        self.env: Dict[str, Dim] = dict(info.param_dims)
        self._memo: Dict[int, Dim] = {}
        self._build_env()

    # -- environment ---------------------------------------------------

    def _build_env(self) -> None:
        """Two passes over assignments so chained locals settle."""
        statements = list(self._own_statements())
        for _ in range(2):
            for stmt in statements:
                self._memo.clear()
                if isinstance(stmt, ast.Assign):
                    value_dim = self.infer(stmt.value, report=False)
                    for target in stmt.targets:
                        self._bind(target, stmt.value, value_dim)
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    value_dim = self.infer(stmt.value, report=False)
                    self._bind(stmt.target, stmt.value, value_dim)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    if isinstance(stmt.target, ast.Name):
                        element = self._element_dim(stmt.iter)
                        self._bind(stmt.target, None, element)
        self._memo.clear()

    def _bind(
        self, target: ast.expr, value: Optional[ast.expr], value_dim: Dim
    ) -> None:
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            for t, v in zip(target.elts, value.elts):
                self._bind(t, v, self.infer(v, report=False))
            return
        if not isinstance(target, ast.Name):
            return
        declared = dim_of_name(target.id)
        if declared.known:
            self.env[target.id] = declared
            return
        previous = self.env.get(target.id)
        if previous is None:
            self.env[target.id] = value_dim
        elif previous != value_dim:
            self.env[target.id] = join(previous, value_dim)

    def _element_dim(self, iterable: ast.expr) -> Dim:
        """Dim of one element of ``iterable`` (plural suffixes carry the
        element unit: iterating ``lpns`` yields logical addresses)."""
        name = _terminal_name(iterable)
        if name is not None:
            return dim_of_name(name)
        if isinstance(iterable, ast.Call):
            # range(total_pages) yields page indices -> dimensionless
            # positions; don't tag.
            return UNKNOWN
        return UNKNOWN

    def _own_statements(self):
        stack: List[ast.AST] = list(self.info.node.body)
        while stack:
            node = stack.pop()
            if isinstance(node, _SCOPE_NODES):
                continue
            if isinstance(node, ast.stmt):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    # -- inference -----------------------------------------------------

    def infer(self, expr: ast.expr, *, report: bool = True) -> Dim:
        key = id(expr)
        if key in self._memo and not report:
            return self._memo[key]
        result = self._infer(expr, report)
        self._memo[key] = result
        return result

    def _report(self, node: ast.AST, family: str, message: str) -> None:
        if self.reporter is not None:
            self.reporter.emit(self.display, node, _FAMILY_CODE[family], message)

    def _conflict(
        self, node: ast.AST, a: Dim, b: Dim, verb: str, report: bool
    ) -> Optional[str]:
        family = conflict_kind(a, b)
        if family is None:
            return None
        if report:
            self._report(
                node,
                family,
                f"{a.describe()} {verb} {b.describe()}: "
                f"{_FIX_BY_FAMILY[family]}",
            )
        return family

    def _infer(self, expr: ast.expr, report: bool) -> Dim:
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool) or not isinstance(
                expr.value, (int, float)
            ):
                return UNKNOWN
            return DIMLESS
        if isinstance(expr, ast.Name):
            if expr.id in self.env:
                return self.env[expr.id]
            return dim_of_name(expr.id)
        if isinstance(expr, ast.Attribute):
            return dim_of_name(expr.attr)
        if isinstance(expr, ast.Subscript):
            signature = _map_signature(expr.value)
            if signature is not None:
                return signature[1]
            name = _terminal_name(expr.value)
            if name is not None:
                return dim_of_name(name)
            return UNKNOWN
        if isinstance(expr, ast.UnaryOp):
            return self.infer(expr.operand, report=report)
        if isinstance(expr, ast.IfExp):
            return join(
                self.infer(expr.body, report=report),
                self.infer(expr.orelse, report=report),
            )
        if isinstance(expr, ast.BinOp):
            return self._infer_binop(expr, report)
        if isinstance(expr, ast.Compare):
            self._check_compare(expr, report)
            return UNKNOWN
        if isinstance(expr, ast.Call):
            return self._infer_call(expr, report)
        if isinstance(expr, (ast.Yield, ast.YieldFrom, ast.Await)):
            # `yield sim.sleep(delay)` is the idiomatic blocking call in
            # generator processes — the yielded call's arguments must
            # still be checked even though the yield itself has no dim.
            if expr.value is not None:
                self.infer(expr.value, report=report)
            return UNKNOWN
        return UNKNOWN

    def _infer_binop(self, expr: ast.BinOp, report: bool) -> Dim:
        left = self.infer(expr.left, report=report)
        right = self.infer(expr.right, report=report)
        op = expr.op

        if isinstance(op, (ast.Add, ast.Sub)):
            family = self._conflict(
                expr, left, right,
                "+" if isinstance(op, ast.Add) else "-", report,
            )
            if family is not None:
                return UNKNOWN
            if left.kind == "addr" and right.kind == "addr":
                # end_lpn - start_lpn is a page count.
                return SIZE_PAGES if isinstance(op, ast.Sub) else UNKNOWN
            if left.kind == "addr" or right.kind == "addr":
                return left if left.kind == "addr" else right
            if left.known and right in (DIMLESS, UNKNOWN):
                return left
            if right.known and left in (DIMLESS, UNKNOWN):
                return right
            return left if left.known else right

        if isinstance(op, ast.Mult):
            geometry = _geometry_unit(expr.left) or _geometry_unit(expr.right)
            if geometry is not None:
                other = right if _geometry_unit(expr.left) is None else left
                if other.kind != "time":
                    return SIZE_BYTES
            for value, source in ((expr.right, left), (expr.left, right)):
                factor = _literal_factor(value)
                if factor is not None and source.kind == "time":
                    unit = scaled_time_unit(source.unit, factor, multiply=True)
                    if unit is not None:
                        return Dim("time", unit)
                    return source  # non-ladder literal: replication
                if factor is not None and source.kind == "size":
                    return source
            return UNKNOWN

        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if left.known and left == right:
                return DIMLESS  # a ratio of like quantities
            geometry = _geometry_unit(expr.right)
            if geometry is not None and left.kind != "time":
                return geometry
            factor = _literal_factor(expr.right)
            if factor is not None and left.kind == "time":
                unit = scaled_time_unit(left.unit, factor, multiply=False)
                if unit is not None:
                    return Dim("time", unit)
                return left
            if factor is not None and left.kind == "size":
                return left
            return UNKNOWN

        if isinstance(op, ast.Mod):
            if left.kind == "time" and right in (DIMLESS, UNKNOWN):
                return left
            return UNKNOWN

        return UNKNOWN

    def _check_compare(self, expr: ast.Compare, report: bool) -> None:
        operands = [expr.left] + list(expr.comparators)
        for index, op in enumerate(expr.ops):
            if isinstance(op, (ast.In, ast.NotIn, ast.Is, ast.IsNot)):
                continue
            a = self.infer(operands[index], report=report)
            b = self.infer(operands[index + 1], report=report)
            self._conflict(expr, a, b, "compared with", report)

    def _infer_call(self, expr: ast.Call, report: bool) -> Dim:
        for arg in expr.args:
            self.infer(arg, report=report)
        for keyword in expr.keywords:
            self.infer(keyword.value, report=report)

        func_name = _terminal_name(expr.func)
        if func_name == "len":
            return DIMLESS
        if func_name in _PASSTHROUGH_CALLS and expr.args:
            return self.infer(expr.args[0], report=False)
        if func_name in _JOIN_CALLS and expr.args:
            dims = [self.infer(a, report=False) for a in expr.args]
            result = dims[0]
            for d in dims[1:]:
                result = join(result, d)
            return result

        target = resolve_call(self.project, self.info, expr)
        if target is not None:
            if report:
                self._check_call_args(expr, target)
            if target.converter is not None:
                return target.converter[1]
            if target.info is not None:
                return target.info.return_dim
        if func_name is not None:
            # `timing.transfer_ns(...)` — the method's own suffix.
            return dim_of_name(func_name)
        return UNKNOWN

    # -- call-argument checking (the interprocedural edge) -------------

    def _check_call_args(self, expr: ast.Call, target: CallTarget) -> None:
        if target.converter is not None:
            expected, _result = target.converter
            if expr.args:
                got = self.infer(expr.args[0], report=False)
                family = conflict_kind(expected, got)
                if family is not None:
                    name = _terminal_name(expr.func) or "converter"
                    self._report(
                        expr,
                        family,
                        f"{name}() expects {expected.describe()}, got "
                        f"{got.describe()}: the value is already in the "
                        "target unit or needs a different converter",
                    )
            return
        info = target.info
        if info is None:
            return
        callee = info.qualname.rsplit("::", 1)[-1]
        for index, arg in enumerate(expr.args):
            if isinstance(arg, ast.Starred):
                break
            param = info.positional_param(index, bound=target.bound)
            if param is None:
                continue
            self._check_one_arg(arg, param, info, callee)
        for keyword in expr.keywords:
            if keyword.arg is not None and keyword.arg in info.param_dims:
                self._check_one_arg(keyword.value, keyword.arg, info, callee)

    def _check_one_arg(
        self, arg: ast.expr, param: str, info: FunctionInfo, callee: str
    ) -> None:
        expected = info.param_dims.get(param, UNKNOWN)
        got = self.infer(arg, report=False)
        family = conflict_kind(expected, got)
        if family is not None:
            self._report(
                arg,
                family,
                f"argument '{param}' of {callee}() expects "
                f"{expected.describe()}, got {got.describe()}: "
                f"{_FIX_BY_FAMILY[family]}",
            )


# ----------------------------------------------------------------------
# The checking pass over one function (SIM010/011/012).
# ----------------------------------------------------------------------


class UnitChecker:
    def __init__(
        self, project: Project, info: FunctionInfo, reporter: _Reporter
    ) -> None:
        self.project = project
        self.info = info
        self.reporter = reporter
        self.inference = DimInference(project, info, reporter)

    def run(self) -> None:
        for stmt in self.inference._own_statements():
            self._check_stmt(stmt)

    def _check_stmt(self, stmt: ast.stmt) -> None:
        infer = self.inference.infer
        if isinstance(stmt, ast.Assign):
            value_dim = infer(stmt.value)
            for target in stmt.targets:
                self._check_target(target, stmt.value, value_dim)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            declared = annotation_dim(
                stmt.annotation, self.project.imports[self.info.module.display]
            )
            if not declared.known and isinstance(stmt.target, ast.Name):
                declared = dim_of_name(stmt.target.id)
            elif not declared.known and isinstance(stmt.target, ast.Attribute):
                declared = dim_of_name(stmt.target.attr)
            value_dim = infer(stmt.value)
            self._assign_conflict(stmt, declared, value_dim)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.op, (ast.Add, ast.Sub)):
                target_dim = self._declared_target_dim(stmt.target)
                value_dim = infer(stmt.value)
                self._assign_conflict(stmt, target_dim, value_dim)
            else:
                infer(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value_dim = infer(stmt.value)
                declared = self.info.declared_return
                family = conflict_kind(declared, value_dim)
                if family is not None:
                    self.reporter.emit(
                        self.info.module.display,
                        stmt,
                        _FAMILY_CODE[family],
                        f"returning {value_dim.describe()} from "
                        f"{self.info.node.name}() declared as "
                        f"{declared.describe()}: {_FIX_BY_FAMILY[family]}",
                    )
        else:
            # Visit every expression hanging off this statement's own
            # scope so comparisons/arithmetic/calls anywhere get checked.
            for field, value in ast.iter_fields(stmt):
                for child in (value if isinstance(value, list) else [value]):
                    if isinstance(child, ast.expr):
                        infer(child)
        # Subscript index checks apply wherever they appear.
        self._check_subscripts(stmt)

    def _declared_target_dim(self, target: ast.expr) -> Dim:
        if isinstance(target, ast.Name):
            return dim_of_name(target.id)
        if isinstance(target, ast.Attribute):
            return dim_of_name(target.attr)
        return UNKNOWN

    def _check_target(
        self, target: ast.expr, value: ast.expr, value_dim: Dim
    ) -> None:
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            for t, v in zip(target.elts, value.elts):
                self._check_target(t, v, self.inference.infer(v, report=False))
            return
        declared = self._declared_target_dim(target)
        self._assign_conflict(target, declared, value_dim)

    def _assign_conflict(self, node: ast.AST, declared: Dim, got: Dim) -> None:
        family = conflict_kind(declared, got)
        if family is not None:
            self.reporter.emit(
                self.info.module.display,
                node,
                _FAMILY_CODE[family],
                f"assigning {got.describe()} to a {declared.describe()} "
                f"target: {_FIX_BY_FAMILY[family]}",
            )

    def _check_subscripts(self, stmt: ast.stmt) -> None:
        stack: List[ast.AST] = [stmt]
        while stack:
            node = stack.pop()
            if isinstance(node, _SCOPE_NODES):
                continue
            if isinstance(node, ast.Subscript):
                signature = _map_signature(node.value)
                if signature is not None and not isinstance(
                    node.slice, (ast.Slice, ast.Tuple)
                ):
                    expected, _value = signature
                    got = self.inference.infer(node.slice, report=False)
                    family = conflict_kind(expected, got)
                    if family is not None:
                        map_name = _terminal_name(node.value) or "map"
                        self.reporter.emit(
                            self.info.module.display,
                            node,
                            "SIM012",
                            f"{map_name} is indexed by "
                            f"{expected.describe()}, got {got.describe()}: "
                            "wrong side of the address mapping",
                        )
            stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# SIM013 — unit-ambiguous public API parameters.
# ----------------------------------------------------------------------

_AMBIGUOUS_TIME_WORDS = frozenset(
    {"timeout", "latency", "delay", "duration", "interval", "period",
     "deadline", "elapsed"}
)
_AMBIGUOUS_SIZE_WORDS = frozenset({"size", "offset", "capacity", "length"})


def _check_ambiguous_api(
    project: Project, info: FunctionInfo, reporter: _Reporter
) -> None:
    node = info.node
    name = node.name
    if name.startswith("_") and name != "__init__":
        return
    if info.class_name is not None and info.class_name.startswith("_"):
        return
    args = node.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        if arg.arg in ("self", "cls"):
            continue
        # A known dim satisfies the rule; so does an explicit DIMLESS
        # (a `Count`-annotated slot/retry count is deliberate).
        if info.param_dims.get(arg.arg, UNKNOWN) != UNKNOWN:
            continue
        segments = arg.arg.lower().strip("_").split("_")
        hits = [s for s in segments if s in _AMBIGUOUS_TIME_WORDS]
        kind = "time"
        if not hits:
            hits = [s for s in segments if s in _AMBIGUOUS_SIZE_WORDS]
            kind = "size"
        if not hits:
            continue
        suffix = "_ns" if kind == "time" else "_bytes"
        alias = "Ns" if kind == "time" else "Bytes"
        reporter.emit(
            info.module.display,
            arg,
            "SIM013",
            f"parameter '{arg.arg}' of public sim API {name}() is a "
            f"{kind} quantity with no unit: add a unit suffix "
            f"(e.g. '{arg.arg}{suffix}') or annotate with "
            f"repro.units.{alias}",
        )


# ----------------------------------------------------------------------
# SIM014 — stale shared state across a yield.
# ----------------------------------------------------------------------

#: Attribute names that read as *counts* of engine-advanced state.  Bare
#: "pending"/"outstanding" are deliberately absent from the attribute
#: set: `request.pending` is usually an object reference (stable across
#: yields), while `queue_depth`/`occupancy` are always live quantities.
_VOLATILE_SUBSTRINGS = (
    "depth", "occupancy", "inflight", "in_flight", "backlog", "queued",
)
_QUEUEISH_NAMES = frozenset(
    {"queue", "pending", "waiting", "waiters", "batches", "backlog", "ring",
     "inflight", "outstanding"}
)

_FRESH, _STALE = 0, 1


def _volatile_reason(expr: ast.expr) -> Optional[str]:
    """A human-readable description when ``expr`` reads volatile shared
    state (engine-advanced between yields), else None."""
    if isinstance(expr, ast.Call):
        func = expr.func
        if (
            isinstance(func, ast.Name)
            and func.id == "len"
            and len(expr.args) == 1
            and isinstance(expr.args[0], ast.Attribute)
        ):
            attr = expr.args[0].attr.strip("_").lower()
            if attr in _QUEUEISH_NAMES or any(
                s in attr for s in _VOLATILE_SUBSTRINGS
            ) or "queue" in attr:
                return f"len(...{expr.args[0].attr})"
        if isinstance(func, ast.Attribute):
            attr = func.attr.strip("_").lower()
            if any(s in attr for s in _VOLATILE_SUBSTRINGS) or attr == "qsize":
                return f"{func.attr}()"
        return None
    if isinstance(expr, ast.Attribute):
        attr = expr.attr.strip("_").lower()
        if any(s in attr for s in _VOLATILE_SUBSTRINGS):
            return expr.attr
    return None


def _stmt_names(stmt: ast.stmt):
    """(loads, stores) of simple Names in this statement's own scope
    (compound statements contribute their headers only)."""
    loads: List[ast.Name] = []
    stores: List[str] = []
    for node in _walk_same_scope(stmt):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                loads.append(node)
            else:
                stores.append(node.id)
        elif isinstance(node, ast.NamedExpr) and isinstance(
            node.target, ast.Name
        ):
            stores.append(node.target.id)
    return loads, stores


def _check_stale_across_yield(info: FunctionInfo, reporter: _Reporter) -> None:
    if not is_generator(info.node):
        return
    cfg = build_cfg(info.node)

    # Per-node transfer inputs, precomputed.
    volatile_defs: Dict[int, Dict[str, str]] = {}  # node -> {var: reason}
    plain_defs: Dict[int, List[str]] = {}
    for node in cfg.statement_nodes():
        stmt = node.stmt
        volatile: Dict[str, str] = {}
        plain: List[str] = []
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        elif isinstance(stmt, ast.AugAssign):
            targets, value = [stmt.target], None
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            targets, value = [stmt.target], None
        for target in targets:
            if isinstance(target, ast.Name):
                reason = _volatile_reason(value) if value is not None else None
                if reason is not None:
                    volatile[target.id] = reason
                else:
                    plain.append(target.id)
            elif isinstance(target, ast.Tuple):
                plain.extend(
                    t.id for t in target.elts if isinstance(t, ast.Name)
                )
        _loads, stores = _stmt_names(stmt)
        plain.extend(s for s in stores if s not in volatile)
        volatile_defs[node.index] = volatile
        plain_defs[node.index] = plain

    # Forward dataflow: var -> (_FRESH|_STALE, reason).  Merge keeps the
    # stalest state seen on any path.
    states_in: Dict[int, Dict[str, Tuple[int, str]]] = {cfg.entry.index: {}}

    def transfer(index: int, state: Dict[str, Tuple[int, str]]):
        node = cfg.nodes[index]
        out = dict(state)
        if node.stmt is None:
            return out
        if node.has_yield:
            out = {
                var: (_STALE, reason) for var, (_level, reason) in out.items()
            }
        for var in plain_defs.get(index, ()):
            out.pop(var, None)
        for var, reason in volatile_defs.get(index, {}).items():
            out[var] = (_FRESH, reason)
        return out

    worklist = [cfg.entry.index]
    while worklist:
        index = worklist.pop()
        out = transfer(index, states_in.get(index, {}))
        for succ in cfg.nodes[index].succs:
            merged = dict(states_in.get(succ, {}))
            changed = succ not in states_in
            for var, (level, reason) in out.items():
                old = merged.get(var)
                if old is None or level > old[0]:
                    merged[var] = (level, reason)
                    changed = True
            if changed:
                states_in[succ] = merged
                worklist.append(succ)

    # Report: any load of a stale-tracked var.
    for node in cfg.statement_nodes():
        state = states_in.get(node.index)
        if not state:
            continue
        loads, _stores = _stmt_names(node.stmt)
        for load in loads:
            tracked = state.get(load.id)
            if tracked is None or tracked[0] != _STALE:
                continue
            reporter.emit(
                info.module.display,
                load,
                "SIM014",
                f"'{load.id}' caches {tracked[1]} from before a yield: "
                "the engine may have advanced that state while this "
                "process slept — re-read it after resuming",
            )


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------


def run_flow(
    modules: Sequence[ModuleLike],
    select: Optional[Set[str]] = None,
) -> List[Diagnostic]:
    """Run SIM010-SIM014 over a set of parsed modules."""
    if select is not None and not (set(FLOW_RULES) & select):
        return []
    project = Project(modules)
    reporter = _Reporter(select)

    def infer_return(info: FunctionInfo):
        inference = DimInference(project, info, None)
        return merge_return_dim(
            [inference.infer(e, report=False) for e in return_exprs(info.node)]
        )

    refine_return_dims(project, infer_return)

    for info in project.all_functions:
        UnitChecker(project, info, reporter).run()
        if info.module.is_sim_layer:
            _check_ambiguous_api(project, info, reporter)
            _check_stale_across_yield(info, reporter)
    return reporter.diagnostics
