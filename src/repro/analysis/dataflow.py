"""Intraprocedural taint analysis for nondeterminism sources.

The pass abstractly interprets one function at a time, tracking which
local names hold *nondeterministic* values and which hold *unordered
collections* (sets), and records an event whenever such a value reaches
a determinism-critical sink.  The DET010+ rules in
:mod:`repro.analysis.rules_dataflow` turn those events into findings;
the call-graph fixpoint that propagates taint across functions lives
there too.

Sources
    wall-clock reads (``time.time``/``perf_counter``/...), module-level
    ``random``/``numpy.random`` draws, unseeded ``default_rng()``/
    ``random.Random()``, ``id()``, filesystem enumeration order
    (``os.listdir``/``glob``), set iteration order (``for x in s``,
    ``list(s)``, ``s.pop()``, comprehensions over sets, ``str.join``).

Sanitizers
    ``sorted()`` (imposes an order), ``len()`` (order-independent),
    ``min``/``max`` (order-independent over unordered input).

Sinks
    trace events (``TraceEvent(...)``), cache-key derivation
    (``key_for``/``*_shard_key``/``_canonical``), event-heap insertion
    (``heappush`` or a ``_schedule`` helper), simulator request fields
    (``Send``/``Recv``/``Compute`` arguments that steer routing, tags or
    charges), and simulator state (``self.<attr> = ...`` under
    ``repro/simulator/``).

Float accumulation over an unordered collection (``sum(s)`` or an
``x += ...`` loop over a set) is recorded as its own event kind: even
when every element is visited, float addition is not associative, so
the *result* — not just the order — depends on iteration order.
"""

from __future__ import annotations

import ast
import weakref
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.analysis.astutil import ImportMap, dotted_name
from repro.analysis.core import ModuleSource

__all__ = [
    "Taint",
    "TaintEvent",
    "FunctionTaintSummary",
    "TaintAnalyzer",
    "module_summaries",
    "SINK_DESCRIPTIONS",
]

#: resolves a call target to a fully-qualified dotted name (or None)
Resolver = Callable[[ast.expr], "str | None"]

WALL_CLOCK_ORIGINS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.date.today",
})

GLOBAL_RNG_ORIGINS = frozenset({
    "random.random", "random.randint", "random.randrange", "random.choice",
    "random.choices", "random.sample", "random.shuffle", "random.uniform",
    "random.gauss", "random.normalvariate", "random.betavariate",
    "numpy.random.rand", "numpy.random.randn", "numpy.random.randint",
    "numpy.random.random", "numpy.random.random_sample", "numpy.random.choice",
    "numpy.random.shuffle", "numpy.random.permutation", "numpy.random.normal",
    "numpy.random.uniform", "numpy.random.standard_normal",
})

#: nondeterministic only when called with no seed argument
UNSEEDED_RNG_ORIGINS = frozenset({"numpy.random.default_rng", "random.Random"})

FS_ORDER_ORIGINS = frozenset({
    "os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob",
})

#: builtins that consume iteration order of their (set-typed) argument
_ITER_CONSUMERS = frozenset({"list", "tuple", "iter", "enumerate", "reversed", "next"})

#: call tails that derive cache/checkpoint identity
_CACHE_KEY_TAILS = frozenset({
    "key_for", "cache_key", "shard_key", "block_shard_key", "_canonical", "canonical",
})

#: simulator request constructors and their order-sensitive keywords
_REQUEST_TAILS = frozenset({"Send", "Recv", "SendAll", "Compute", "Barrier"})
_REQUEST_SENSITIVE_KWARGS = frozenset({"dst", "src", "tag", "nwords", "cost", "ranks"})

SINK_DESCRIPTIONS = {
    "trace-event": "a TraceEvent (the simulator's timing record)",
    "cache-key": "cache-key derivation",
    "event-heap": "event-heap insertion (heappush or a _schedule helper)",
    "request-field": "a simulator request field (dst/src/tag/nwords/cost)",
    "simulator-state": "simulator state (self.<attr> assignment)",
}


@dataclass(frozen=True)
class Taint:
    """Why a value is nondeterministic."""

    kind: str  # wall-clock | global-rng | id | set-order | fs-order | float-accum | callee
    detail: str  # human-readable origin, e.g. "time.perf_counter()"


@dataclass(frozen=True)
class TaintEvent:
    """A tainted value reaching a sink (or a float-accumulation site)."""

    node: ast.AST
    sink: str  # a SINK_DESCRIPTIONS key, or "float-accum"
    taint: Taint


@dataclass
class FunctionTaintSummary:
    """Result of analyzing one function."""

    qualname: str
    events: list[TaintEvent]
    returns: Taint | None  # taint of the return/yield value, if any


class TaintAnalyzer:
    """Flow-sensitive interpreter over one function body.

    ``callee_taints`` maps fully-qualified function names to the taint
    their return value carries; the rules' call-graph fixpoint grows it
    until stable, which is what turns this intraprocedural pass into a
    whole-program one.
    """

    def __init__(
        self,
        resolve: Resolver,
        *,
        in_simulator: bool = False,
        callee_taints: "dict[str, Taint] | None" = None,
    ):
        self._resolve = resolve
        self._in_simulator = in_simulator
        self._callee_taints = callee_taints or {}
        self._taints: dict[str, Taint] = {}
        self._sets: set[str] = set()
        self._events: list[TaintEvent] = []
        self._returns: Taint | None = None

    # ------------------------------------------------------------------
    # entry point

    def analyze(
        self, fn: "ast.FunctionDef | ast.AsyncFunctionDef", qualname: str = ""
    ) -> FunctionTaintSummary:
        self._taints = {}
        self._sets = set()
        self._events = []
        self._returns = None
        self._exec_block(fn.body)
        return FunctionTaintSummary(
            qualname=qualname or fn.name, events=self._events, returns=self._returns
        )

    # ------------------------------------------------------------------
    # statements

    def _exec_block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions are analyzed as their own functions
        if isinstance(stmt, ast.Assign):
            taint, is_set = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, taint, is_set)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                taint, is_set = self._eval(stmt.value)
                self._bind(stmt.target, taint, is_set)
        elif isinstance(stmt, ast.AugAssign):
            taint, _ = self._eval(stmt.value)
            target = stmt.target
            if taint is not None:
                if isinstance(stmt.op, ast.Add) and taint.kind in ("set-order", "fs-order"):
                    # accumulating values drawn in arbitrary order: the sum
                    # itself becomes order-dependent (float non-associativity)
                    taint = Taint("float-accum", f"accumulation over {taint.detail}")
                    self._events.append(TaintEvent(stmt, "float-accum", taint))
                self._bind(target, taint, False)
            elif isinstance(target, ast.Name) and target.id in self._taints:
                pass  # already tainted; stays tainted
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint, is_set = self._eval(stmt.iter)
            if is_set:
                taint = Taint("set-order", "iteration over an unordered set")
            self._bind(stmt.target, taint, False)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint, is_set = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taint, is_set)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                taint, _ = self._eval(stmt.value)
                if taint is not None and self._returns is None:
                    self._returns = taint
        elif isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, (ast.Yield, ast.YieldFrom)) and value.value is not None:
                taint, _ = self._eval(value.value)
                if taint is not None and self._returns is None:
                    self._returns = taint
            else:
                self._eval(value)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self._taints.pop(target.id, None)
                    self._sets.discard(target.id)
        else:
            # Match and friends: evaluate child expressions, walk child bodies
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._exec(child)
                elif isinstance(child, ast.expr):
                    self._eval(child)

    def _bind(self, target: ast.expr, taint: Taint | None, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            if taint is None:
                self._taints.pop(target.id, None)
            else:
                self._taints[target.id] = taint
            if is_set:
                self._sets.add(target.id)
            else:
                self._sets.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taint, False)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint, False)
        elif isinstance(target, ast.Attribute):
            if (
                taint is not None
                and self._in_simulator
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self._events.append(TaintEvent(target, "simulator-state", taint))
        elif isinstance(target, ast.Subscript):
            # container[k] = tainted -> the container is tainted
            if taint is not None and isinstance(target.value, ast.Name):
                self._taints[target.value.id] = taint

    # ------------------------------------------------------------------
    # expressions

    def _eval(self, node: ast.expr) -> tuple[Taint | None, bool]:
        if isinstance(node, ast.Name):
            return self._taints.get(node.id), node.id in self._sets
        if isinstance(node, ast.Constant):
            return None, False
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            taint, _ = self._eval(node.value)
            return taint, False
        if isinstance(node, ast.Subscript):
            taint, _ = self._eval(node.value)
            self._eval(node.slice)
            return taint, False
        if isinstance(node, ast.BinOp):
            lt, ls = self._eval(node.left)
            rt, rs = self._eval(node.right)
            set_result = (ls or rs) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
            )
            return lt or rt, set_result
        if isinstance(node, ast.BoolOp):
            taints = [self._eval(v) for v in node.values]
            return next((t for t, _ in taints if t), None), any(s for _, s in taints)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            for comp in node.comparators:
                self._eval(comp)
            return None, False
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            bt, bs = self._eval(node.body)
            ot, os_ = self._eval(node.orelse)
            return bt or ot, bs or os_
        if isinstance(node, (ast.Tuple, ast.List)):
            taints = [self._eval(e) for e in node.elts]
            return next((t for t, _ in taints if t), None), False
        if isinstance(node, ast.Set):
            taints = [self._eval(e) for e in node.elts]
            return next((t for t, _ in taints if t), None), True
        if isinstance(node, ast.Dict):
            taints = [self._eval(v) for v in (*node.keys, *node.values) if v is not None]
            return next((t for t, _ in taints if t), None), False
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            return self._eval_comprehension(node)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    taint, _ = self._eval(value.value)
                    if taint is not None:
                        return taint, False
            return None, False
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self._eval(node.value)
            return None, False  # the resumed-with value is the engine's, clean
        if isinstance(node, ast.NamedExpr):
            taint, is_set = self._eval(node.value)
            self._bind(node.target, taint, is_set)
            return taint, is_set
        if isinstance(node, ast.Lambda):
            return None, False
        return None, False

    def _eval_comprehension(
        self,
        node: "ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp",
    ) -> tuple[Taint | None, bool]:
        order_taint: Taint | None = None
        for gen in node.generators:
            taint, is_set = self._eval(gen.iter)
            if is_set:
                order_taint = Taint("set-order", "comprehension over an unordered set")
            target_taint = order_taint or taint
            self._bind(gen.target, target_taint, False)
            for cond in gen.ifs:
                self._eval(cond)
        if isinstance(node, ast.DictComp):
            kt, _ = self._eval(node.key)
            vt, _ = self._eval(node.value)
            elt_taint = kt or vt
        else:
            elt_taint, _ = self._eval(node.elt)
        is_set_result = isinstance(node, ast.SetComp)
        # a set comprehension's *value* is unordered but reproducible; a
        # list/generator built over a set inherits the arbitrary order
        if isinstance(node, ast.SetComp):
            return elt_taint, True
        return order_taint or elt_taint, is_set_result

    # ------------------------------------------------------------------
    # calls: sources, sanitizers, sinks

    def _eval_call(self, node: ast.Call) -> tuple[Taint | None, bool]:
        arg_info = [self._eval(a) for a in node.args]
        kw_info = [(kw.arg, *self._eval(kw.value)) for kw in node.keywords]
        arg_taint = next((t for t, _ in arg_info if t), None)
        kw_taint = next((t for _, t, _ in kw_info if t), None)
        any_set_arg = any(s for _, s in arg_info)

        resolved = self._resolve(node.func)
        dotted = resolved or dotted_name(node.func)
        tail = dotted.split(".")[-1] if dotted else None
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else None

        # --- sanitizers -------------------------------------------------
        if tail == "len":
            return None, False
        if tail in ("sorted", "min", "max"):
            passthrough = arg_taint or kw_taint
            if passthrough is not None and passthrough.kind in ("set-order", "fs-order"):
                passthrough = None  # an order-independent reduction of unordered input
            return passthrough, False

        # --- sources ----------------------------------------------------
        taint: Taint | None = None
        if resolved in WALL_CLOCK_ORIGINS:
            taint = Taint("wall-clock", f"{resolved}()")
        elif resolved in GLOBAL_RNG_ORIGINS:
            taint = Taint("global-rng", f"{resolved}()")
        elif resolved in UNSEEDED_RNG_ORIGINS and not node.args and not node.keywords:
            taint = Taint("global-rng", f"unseeded {resolved}()")
        elif resolved in FS_ORDER_ORIGINS:
            taint = Taint("fs-order", f"{resolved}() (filesystem order)")
        elif dotted == "id":
            taint = Taint("id", "id() (address-dependent)")
        elif attr == "pop" and isinstance(node.func, ast.Attribute):
            _, base_is_set = self._eval(node.func.value)
            if base_is_set:
                taint = Taint("set-order", "set.pop() (arbitrary element)")
        elif tail in _ITER_CONSUMERS and any_set_arg:
            taint = Taint("set-order", f"{tail}() over an unordered set")
        elif attr == "join" and any_set_arg:
            taint = Taint("set-order", "str.join over an unordered set")
        elif tail == "sum" and any_set_arg:
            taint = Taint("float-accum", "sum() over an unordered set")
            self._events.append(TaintEvent(node, "float-accum", taint))

        # --- interprocedural: calls to known-tainted functions ----------
        if taint is None and resolved is not None and resolved in self._callee_taints:
            origin = self._callee_taints[resolved]
            taint = Taint("callee", f"{resolved}() (returns {origin.kind}: {origin.detail})")

        # --- sinks ------------------------------------------------------
        incoming = arg_taint or kw_taint
        if incoming is not None and tail is not None:
            if tail == "TraceEvent":
                self._events.append(TaintEvent(node, "trace-event", incoming))
            elif tail in _CACHE_KEY_TAILS:
                self._events.append(TaintEvent(node, "cache-key", incoming))
            elif tail in ("heappush", "_schedule"):
                self._events.append(TaintEvent(node, "event-heap", incoming))
            elif tail in _REQUEST_TAILS:
                sensitive = arg_taint or next(
                    (t for name, t, _ in kw_info if t and name in _REQUEST_SENSITIVE_KWARGS),
                    None,
                )
                if sensitive is not None:
                    self._events.append(TaintEvent(node, "request-field", sensitive))

        # --- result -----------------------------------------------------
        if taint is None:
            taint = arg_taint or kw_taint  # taint flows through unknown calls
        is_set_result = tail in ("set", "frozenset") or (
            attr in ("union", "intersection", "difference", "symmetric_difference", "copy")
            and isinstance(node.func, ast.Attribute)
            and self._eval(node.func.value)[1]
        )
        return taint, bool(is_set_result)


# ----------------------------------------------------------------------
# module-level driver + memoization

_module_cache: "weakref.WeakKeyDictionary[ModuleSource, list[FunctionTaintSummary]]" = (
    weakref.WeakKeyDictionary()
)


def _iter_defs(
    tree: ast.AST,
) -> Iterator[tuple[str, "ast.FunctionDef | ast.AsyncFunctionDef"]]:
    stack: list[tuple[str, ast.AST]] = [("", tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                yield name, child
                stack.append((f"{name}.", child))
            elif isinstance(child, ast.ClassDef):
                stack.append((f"{prefix}{child.name}.", child))
            elif isinstance(child, (ast.If, ast.Try, ast.With)):
                stack.append((prefix, child))


def module_summaries(
    module: ModuleSource,
    *,
    callee_taints: "dict[str, Taint] | None" = None,
) -> list[FunctionTaintSummary]:
    """Taint summaries for every function in *module*.

    The no-``callee_taints`` form (used by the per-module DET010/DET012
    rules) is memoized per module; the interprocedural fixpoint passes
    its own growing map and is not cached.
    """
    if not callee_taints:
        cached = _module_cache.get(module)
        if cached is not None:
            return cached
    imports = ImportMap(module.tree)
    in_sim = "repro/simulator/" in module.posix_path
    analyzer = TaintAnalyzer(
        imports.resolve, in_simulator=in_sim, callee_taints=callee_taints
    )
    out = [analyzer.analyze(fn, qualname=name) for name, fn in _iter_defs(module.tree)]
    if not callee_taints:
        _module_cache[module] = out
    return out
