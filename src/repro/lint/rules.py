"""The simlint rule pack: determinism & invariant checks for the sim stack.

Every rule targets a way the testbed's bit-identical-rerun guarantee has
actually been (or could be) broken:

* ``SIM001`` — wall-clock reads inside simulation layers.  Sim code must
  derive every timestamp from ``Simulator.now``; a ``time.time()`` call in
  an ``ssd``/``ftl``/... module leaks host time into results.
* ``SIM002`` — global-state RNG (``random.random()``, ``numpy.random.seed``).
  All randomness must flow from seeded per-layer generators
  (``np.random.default_rng(seed)``, ``random.Random(seed)``) so streams
  are independent and reproducible.
* ``SIM003`` — iteration over ``set``/``frozenset`` (or dicts built from
  them) where order reaches output: Python set order varies with hash
  randomization, silently breaking byte-identity of exports and cache keys.
* ``SIM004`` — float accumulation over unordered containers: float addition
  is not associative, so ``sum(a_set)`` can differ between runs even when
  the *elements* are identical.
* ``SIM005`` — mutable default arguments: shared mutable state across calls
  makes results depend on call history.
* ``SIM006`` — bare ``except:`` and swallowed exceptions (``except X: pass``):
  an event handler that eats an error turns a loud failure into a silent
  divergence between runs.
* ``SIM009`` — ad-hoc wall-time measurement: ``time.perf_counter`` /
  ``time.monotonic`` (and their ``_ns`` forms) anywhere outside the two
  sanctioned homes — the perf harness (:mod:`repro.perf`) and the
  self-profiler (:mod:`repro.obs.prof`).  Scattered timing reaches no
  suite document or profile; centralized timing stays comparable across
  runs.
  (Inside sim layers every wall-clock read is already SIM001.)

Engine-level codes (emitted by :mod:`repro.lint.engine`, not rules here):
``SIM000`` (file does not parse), ``SIM007`` (suppression comment without a
reason), ``SIM008`` (suppression that suppresses nothing).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.diagnostics import Diagnostic

# ----------------------------------------------------------------------
# Name resolution: map an AST call target to a canonical dotted name,
# following import aliases (`import numpy as np` -> np.random.seed is
# numpy.random.seed).  Only names rooted at an actual import count, so a
# local variable that happens to be called `random` is not a finding.
# ----------------------------------------------------------------------


class ImportMap:
    """Alias -> canonical dotted prefix, built from a module's imports."""

    def __init__(self, tree: ast.AST) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        self.aliases[top] = top
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue  # relative import: never a stdlib/numpy root
                module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.aliases[bound] = f"{module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name for ``node``, or None.

        Returns a name only when its root is an imported alias — calls on
        locals, attributes of ``self``, etc. resolve to ``None``.
        """
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, sep, rest = dotted.partition(".")
        if head not in self.aliases:
            return None
        resolved = self.aliases[head]
        return f"{resolved}.{rest}" if sep else resolved


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


# ----------------------------------------------------------------------
# Set-ish inference: is this expression (syntactically) an unordered
# container?  Covers literals, set()/frozenset() calls, set algebra, and
# one level of local-name / self-attribute assignment within the module.
# ----------------------------------------------------------------------

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)


class SetishIndex:
    """Names and ``self.<attr>`` targets assigned set-valued expressions."""

    def __init__(self, tree: ast.AST) -> None:
        self.names: Set[str] = set()
        self.self_attrs: Set[str] = set()
        # Two passes so `a = set(); b = a` infers b on the second pass.
        for _ in range(2):
            for node in ast.walk(tree):
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None or not self.is_setish(value):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.names.add(target.id)
                    elif (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        self.self_attrs.add(target.attr)

    def is_setish(self, node: ast.expr) -> bool:
        """True when ``node`` syntactically evaluates to a set/frozenset."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self.is_setish(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_setish(node.left) or self.is_setish(node.right)
        if isinstance(node, ast.IfExp):
            return self.is_setish(node.body) and self.is_setish(node.orelse)
        if isinstance(node, ast.Name):
            return node.id in self.names
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr in self.self_attrs
        if isinstance(node, ast.Subscript):
            # e.g. self._closed[die] where self._closed holds sets: only
            # inferred when the *container* name was assigned a list/dict
            # of sets — too deep for syntax; handled by direct review.
            return False
        return False


# ----------------------------------------------------------------------
# Module context handed to every rule.
# ----------------------------------------------------------------------


class ModuleContext:
    """Everything a rule needs to check one parsed module."""

    def __init__(self, *, display: str, tree: ast.AST, is_sim_layer: bool) -> None:
        self.display = display
        self.tree = tree
        self.is_sim_layer = is_sim_layer
        self.imports = ImportMap(tree)
        self.setish = SetishIndex(tree)

    def diag(self, node: ast.AST, code: str, message: str) -> Diagnostic:
        return Diagnostic(
            path=self.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )


# ----------------------------------------------------------------------
# Rule registry.
# ----------------------------------------------------------------------


class Rule:
    """Base class: subclasses set ``code``/``name``/``summary`` and ``check``."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Rule {self.code} {self.name}>"


RULES: Dict[str, Rule] = {}

#: Codes emitted by the engine itself rather than a rule below.
ENGINE_CODES: Dict[str, str] = {
    "SIM000": "file does not parse (syntax error)",
    "SIM007": "simlint suppression without a reason string",
    "SIM008": "simlint suppression that suppresses nothing",
}


def register(cls: type) -> type:
    rule = cls()
    if rule.code in RULES or rule.code in ENGINE_CODES:
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES[rule.code] = rule
    return cls


def _flow_rules() -> Dict[str, Tuple[str, str]]:
    """Metadata for the dataflow rule pack (SIM010-SIM014).

    Imported lazily: the flow package uses this module's ImportMap, so a
    top-level import here would be circular.
    """
    from repro.lint.flow.rules import FLOW_RULES

    return FLOW_RULES


def all_codes() -> List[str]:
    return sorted(set(RULES) | set(ENGINE_CODES) | set(_flow_rules()))


# ----------------------------------------------------------------------
# SIM001 — wall-clock reads inside simulation layers.
# ----------------------------------------------------------------------

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class WallClockRule(Rule):
    code = "SIM001"
    name = "wall-clock-in-sim"
    summary = "wall-clock read inside a simulation layer"

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if not ctx.is_sim_layer:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.imports.resolve(node.func)
            if resolved in _WALL_CLOCK:
                yield ctx.diag(
                    node,
                    self.code,
                    f"{resolved}() in a sim layer: simulated code must "
                    "take time from the simulator clock (Simulator.now)",
                )


# ----------------------------------------------------------------------
# SIM002 — global-state RNG calls.
# ----------------------------------------------------------------------

_RANDOM_GLOBAL_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "binomialvariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "getrandbits",
        "randbytes",
        "seed",
        "setstate",
    }
)

_NUMPY_GLOBAL_FNS = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "random_integers",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "poisson",
        "binomial",
        "beta",
        "gamma",
        "bytes",
        "get_state",
        "set_state",
    }
)


@register
class GlobalRngRule(Rule):
    code = "SIM002"
    name = "global-rng"
    summary = "global-state RNG call (unseeded / shared stream)"

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.imports.resolve(node.func)
            if resolved is None:
                continue
            hit = None
            if resolved.startswith("random."):
                fn = resolved[len("random."):]
                if fn in _RANDOM_GLOBAL_FNS:
                    hit = resolved
            elif resolved.startswith("numpy.random."):
                fn = resolved.rsplit(".", 1)[-1]
                if fn in _NUMPY_GLOBAL_FNS:
                    hit = resolved
            if hit is not None:
                yield ctx.diag(
                    node,
                    self.code,
                    f"{hit}() uses interpreter-global RNG state: derive "
                    "randomness from a seeded per-layer generator "
                    "(np.random.default_rng(seed) / random.Random(seed))",
                )


# ----------------------------------------------------------------------
# SIM003 — ordering hazards: iterating sets (or building dicts from them).
# ----------------------------------------------------------------------

# Call targets that materialize their argument's iteration order.
_ORDER_SENSITIVE_CALLS: Dict[str, Tuple[int, ...]] = {
    "list": (0,),
    "tuple": (0,),
    "iter": (0,),
    "next": (0,),
    "enumerate": (0,),
    "zip": (0, 1, 2, 3),
    "map": (1, 2, 3),
    "filter": (1,),
    "dict.fromkeys": (0,),
}

_FIX_HINT = "wrap in sorted() to pin a deterministic order"

# Reductions whose result does not depend on iteration order: a
# comprehension feeding these directly is not an ordering hazard.
# (``sum`` over floats IS order-dependent — that is SIM004's job.)
_ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"any", "all", "min", "max", "len", "set", "frozenset", "sorted"}
)


@register
class UnorderedIterationRule(Rule):
    code = "SIM003"
    name = "unordered-iteration"
    summary = "iteration order taken from a set/frozenset"

    def _exempt_comprehensions(self, ctx: ModuleContext) -> Set[int]:
        """ids of comprehension nodes consumed by order-insensitive calls."""
        exempt: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.imports.resolve(node.func)
            if name is None and isinstance(node.func, ast.Name):
                name = node.func.id
            if name not in _ORDER_INSENSITIVE_CONSUMERS:
                continue
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                    exempt.add(id(arg))
        return exempt

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        setish = ctx.setish.is_setish
        exempt = self._exempt_comprehensions(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and setish(node.iter):
                yield ctx.diag(
                    node.iter,
                    self.code,
                    "for-loop over a set: iteration order is not "
                    f"deterministic across runs; {_FIX_HINT}",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if id(node) in exempt:
                    continue
                kind = (
                    "dict built from a set"
                    if isinstance(node, ast.DictComp)
                    else "sequence built from a set"
                )
                for gen in node.generators:
                    if setish(gen.iter):
                        yield ctx.diag(
                            gen.iter,
                            self.code,
                            f"{kind}: element order is not deterministic "
                            f"across runs; {_FIX_HINT}",
                        )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_call(
        self, ctx: ModuleContext, node: ast.Call
    ) -> Iterator[Diagnostic]:
        setish = ctx.setish.is_setish
        func = node.func
        # "sep".join(S) — any .join whose argument is a set.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and node.args
            and setish(node.args[0])
        ):
            yield ctx.diag(
                node.args[0],
                self.code,
                f"str.join over a set: output order varies; {_FIX_HINT}",
            )
            return
        name = ctx.imports.resolve(func)
        if name is None and isinstance(func, ast.Name):
            name = func.id  # builtins are not imports
        if name is None and isinstance(func, ast.Attribute):
            dotted = _dotted(func)
            if dotted == "dict.fromkeys":
                name = dotted
        positions = _ORDER_SENSITIVE_CALLS.get(name or "")
        if not positions:
            return
        for position in positions:
            if position < len(node.args) and setish(node.args[position]):
                yield ctx.diag(
                    node.args[position],
                    self.code,
                    f"{name}() materializes set iteration order, which is "
                    f"not deterministic across runs; {_FIX_HINT}",
                )


# ----------------------------------------------------------------------
# SIM004 — float accumulation over unordered containers.
# ----------------------------------------------------------------------

_FLOAT_ACCUMULATORS: Dict[str, int] = {
    "sum": 0,
    "math.fsum": 0,
    "statistics.mean": 0,
    "statistics.fmean": 0,
    "statistics.median": 0,
    "statistics.stdev": 0,
    "statistics.pstdev": 0,
}


@register
class FloatOverUnorderedRule(Rule):
    code = "SIM004"
    name = "float-accumulation-unordered"
    summary = "float reduction over an unordered container"

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        setish = ctx.setish.is_setish
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.imports.resolve(node.func)
            if name is None and isinstance(node.func, ast.Name):
                name = node.func.id
            if name not in _FLOAT_ACCUMULATORS:
                continue
            position = _FLOAT_ACCUMULATORS[name]
            if position >= len(node.args):
                continue
            arg = node.args[position]
            hazard = setish(arg) or (
                isinstance(arg, (ast.GeneratorExp, ast.ListComp))
                and any(setish(gen.iter) for gen in arg.generators)
            )
            if hazard:
                yield ctx.diag(
                    arg,
                    self.code,
                    f"{name}() over a set accumulates floats in hash order; "
                    "float addition is order-dependent — sort first "
                    "(sum(sorted(s)) or math.fsum(sorted(s)))",
                )


# ----------------------------------------------------------------------
# SIM005 — mutable default arguments.
# ----------------------------------------------------------------------

_MUTABLE_FACTORIES = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.Counter",
        "collections.deque",
        "collections.OrderedDict",
    }
)


@register
class MutableDefaultRule(Rule):
    code = "SIM005"
    name = "mutable-default"
    summary = "mutable default argument"

    def _is_mutable(self, ctx: ModuleContext, node: ast.expr) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            name = ctx.imports.resolve(node.func)
            if name is None and isinstance(node.func, ast.Name):
                name = node.func.id
            return name in _MUTABLE_FACTORIES
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            args = node.args
            defaults: Iterable[Optional[ast.expr]] = list(args.defaults) + list(
                args.kw_defaults
            )
            for default in defaults:
                if default is not None and self._is_mutable(ctx, default):
                    yield ctx.diag(
                        default,
                        self.code,
                        "mutable default argument is shared across calls, "
                        "making behavior depend on call history; default "
                        "to None and construct inside the function",
                    )


# ----------------------------------------------------------------------
# SIM006 — bare except / swallowed exceptions.
# ----------------------------------------------------------------------


def _swallows(body: List[ast.stmt]) -> bool:
    """True when a handler body does nothing (only pass/.../docstring)."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or bare `...`
        return False
    return True


@register
class BareExceptRule(Rule):
    code = "SIM006"
    name = "bare-or-swallowed-except"
    summary = "bare except or silently swallowed exception"

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.diag(
                    node,
                    self.code,
                    "bare except catches SystemExit/KeyboardInterrupt too; "
                    "name the exceptions this handler is for",
                )
            elif _swallows(node.body):
                yield ctx.diag(
                    node,
                    self.code,
                    "exception swallowed (handler body does nothing): a "
                    "silent failure here becomes a silent divergence "
                    "between runs — handle, log, or use "
                    "contextlib.suppress at the call site",
                )


# ----------------------------------------------------------------------
# SIM009 — ad-hoc wall-time measurement outside its sanctioned homes.
# ----------------------------------------------------------------------

_MONOTONIC_CLOCKS = frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
    }
)


def _is_timing_home(display: str) -> bool:
    """True for the modules allowed to read monotonic clocks: anything
    under a ``perf`` package directory, and ``obs/prof.py``."""
    parts = display.replace("\\", "/").split("/")
    if "perf" in parts[:-1]:
        return True
    return parts[-1] == "prof.py" and "obs" in parts[:-1]


@register
class AdHocTimingRule(Rule):
    code = "SIM009"
    name = "adhoc-wall-timing"
    summary = "monotonic-clock read outside repro.perf / repro.obs.prof"

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if ctx.is_sim_layer:
            return  # every wall-clock read there is already SIM001
        if _is_timing_home(ctx.display):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.imports.resolve(node.func)
            if resolved in _MONOTONIC_CLOCKS:
                yield ctx.diag(
                    node,
                    self.code,
                    f"{resolved}() outside repro.perf / repro.obs.prof: "
                    "route wall-time measurement through "
                    "repro.perf.PerfSession or the self-profiler so it "
                    "is reported with every other timing",
                )


def rules_table() -> List[Tuple[str, str]]:
    """(code, summary) rows for every code simlint can emit."""
    rows = [(code, rule.summary) for code, rule in RULES.items()]
    rows.extend(ENGINE_CODES.items())
    rows.extend(
        (code, summary) for code, (_name, summary) in _flow_rules().items()
    )
    return sorted(rows)
