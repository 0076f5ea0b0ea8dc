"""Determinism flow analysis: the VIS20x rule group of ``visapult check``.

The whole reproduction rests on bitwise-reproducible seeded simulation,
so values whose *content or order* differs run to run must never reach
a loop, a name, a seed or a NetLogger field.  The PR 2 linter catches
syntactic escapes (``time`` imports in sim code); this pass tracks the
values themselves through assignments and function returns within a
module -- a worklist dataflow over a per-module def-use graph, not a
pattern match.

Taint kinds
    ``set-order``
        values with nondeterministic iteration order: ``set`` /
        ``frozenset`` displays, comprehensions and constructors, set
        algebra, ``os.listdir`` / ``glob.glob``.  ``sorted()`` and
        order-insensitive reducers (``len``/``min``/``max``/``sum``/
        ``any``/``all``) launder it; ``list()`` / ``tuple()`` do not.
    ``id-value``
        CPython identities: ``id()`` and ``hash()`` results (default
        ``object.__hash__`` *is* the identity, and str hashes are
        salted per process).
    ``wall-clock``
        ``time.time()`` / ``perf_counter()`` / ``datetime.now()``
        results.

Rules
    ``VIS201``
        a ``set-order`` value feeds a ``for`` loop, comprehension,
        ``enumerate``/``zip``/``map``, ``str.join`` or a NetLogger
        ``.log(...)`` call.
    ``VIS202``
        an ``id-value`` flows into a string format, an explicit
        ``name=``/``seed=``/``label=``/``key=`` argument, an RNG seed,
        a ``.log(...)`` field, or identity-keyed container state
        (``.add``, dict keys, subscript stores, ``in`` tests).
    ``VIS203``
        an unseeded RNG: ``random.Random()`` with no seed, the
        module-global ``random.*`` functions, ``numpy.random.*``
        module-global functions, ``default_rng()`` with no seed.
    ``VIS204``
        a ``wall-clock`` value flows into a seed or an explicit
        ``name=`` argument (wall-clock escaping into identity).

Proven-safe sinks are suppressed in place with an allowlist pragma
(``# vis: allow[VIS202] reason``); see
:mod:`~repro.analysis.staticbase`.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set

from repro.analysis.staticbase import (
    CheckFinding,
    FunctionRecord,
    ParsedModule,
)

SET_ORDER = "set-order"
ID_VALUE = "id-value"
WALL_CLOCK = "wall-clock"

Taints = FrozenSet[str]
_EMPTY: Taints = frozenset()

#: canonical dotted callables producing wall-clock readings
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: canonical dotted callables producing set-ordered sequences
_SET_ORDER_CALLS = frozenset(
    {"set", "frozenset", "os.listdir", "os.scandir", "glob.glob",
     "glob.iglob"}
)

#: set-algebra methods whose result iterates in set order
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

#: builtins that consume an iterable order-insensitively
_ORDER_INSENSITIVE = frozenset(
    {"len", "min", "max", "sum", "any", "all", "sorted", "frozenset",
     "set"}
)

#: builtins whose result preserves the argument's iteration order
_ORDER_PRESERVING = frozenset({"list", "tuple", "iter", "reversed"})

#: ``random`` module-level functions that use the global unseeded RNG
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "getrandbits", "choice",
        "choices", "shuffle", "sample", "uniform", "triangular",
        "betavariate", "expovariate", "gammavariate", "gauss",
        "lognormvariate", "normalvariate", "vonmisesvariate",
        "paretovariate", "weibullvariate", "randbytes",
    }
)

#: ``numpy.random`` module-level functions bound to the global state
_NP_GLOBAL_FNS = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "normal",
        "uniform", "standard_normal", "exponential", "poisson", "seed",
        "bytes",
    }
)

#: keyword names that denote identity/seed sinks
_SINK_KWARGS = frozenset({"name", "seed", "label", "key"})


def _pretty(node: ast.AST) -> str:
    """A short source rendering of ``node`` for finding messages."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure
        return "<expr>"
    return text if len(text) <= 40 else text[:37] + "..."


class _Scope:
    """One lexical scope's def-use environment (name -> taints)."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.env: Dict[str, Taints] = {}

    def lookup(self, name: str) -> Taints:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.env:
                return scope.env[name]
            scope = scope.parent
        return _EMPTY

    def bind(self, name: str, taints: Taints) -> bool:
        """Union ``taints`` into ``name``; True if the binding grew."""
        old = self.env.get(name, _EMPTY)
        new = old | taints
        if new != old:
            self.env[name] = new
            return True
        return False


#: expressions whose taints are those of their ``.value`` operand
_VALUE_OF = (
    ast.Attribute, ast.Subscript, ast.Starred, ast.FormattedValue,
    ast.NamedExpr, ast.Await, ast.YieldFrom, ast.Yield,
)

#: expressions whose taints are the union over every operand
_UNION_OF = (
    ast.BinOp, ast.BoolOp, ast.Tuple, ast.List, ast.Dict, ast.JoinedStr,
)


def _class_name(record: FunctionRecord) -> Optional[str]:
    """The class whose ``self`` a def sees: its direct owner only."""
    return record.owner.name if record.owner is not None else None


class ModuleDataflow:
    """Per-module taint propagation to fixpoint, then sink detection."""

    def __init__(self, module: ParsedModule):
        self.module = module
        #: function qualname -> return-value taints (the summaries)
        self.summaries: Dict[str, Taints] = {}
        #: class name -> {attr name -> taints} (``self.attr`` state)
        self.class_attrs: Dict[str, Dict[str, Taints]] = {}
        self.module_scope = _Scope()
        #: one scope per def, chained to the enclosing def's (class
        #: bodies are not scopes a nested def can see)
        self.scopes: Dict[FunctionRecord, _Scope] = {}
        self._findings: Set[CheckFinding] = set()
        for record in module.functions:
            self.scopes[record] = _Scope(
                self.scopes[record.parent]
                if record.parent is not None
                else self.module_scope
            )
            self.summaries.setdefault(record.qualname, _EMPTY)

    # -- fixpoint driver ----------------------------------------------
    def analyze(self) -> List[CheckFinding]:
        """Propagate taints to fixpoint, then report sink violations."""
        for _ in range(20):
            changed = _BindVisitor(self, self.module_scope, None).sweep(
                self.module.tree
            )
            for record in self.module.functions:
                changed |= self._propagate_function(record)
            if not changed:
                break
        _SinkVisitor(self, self.module_scope, None).sweep(self.module.tree)
        for record, scope in self.scopes.items():
            _SinkVisitor(self, scope, _class_name(record)).sweep(record.node)
        return sorted(
            self._findings, key=lambda f: (f.line, f.col, f.code, f.message)
        )

    def _propagate_function(self, record: FunctionRecord) -> bool:
        scope, class_name = self.scopes[record], _class_name(record)
        changed = _BindVisitor(self, scope, class_name).sweep(record.node)
        # Return summary: union over every ``return expr``.
        ret = _EMPTY
        for node in ast.walk(record.node):
            if isinstance(node, ast.Return) and node.value is not None:
                ret |= self.eval_taints(node.value, scope, class_name)
        if ret != self.summaries[record.qualname]:
            self.summaries[record.qualname] |= ret
            changed = True
        return changed

    # -- expression taint evaluation ----------------------------------
    def eval_taints(
        self, node: Optional[ast.AST], scope: _Scope, class_name: Optional[str]
    ) -> Taints:
        """The taint set of one expression under ``scope``."""
        if isinstance(node, ast.Name):
            return scope.lookup(node.id)
        if isinstance(node, (ast.Set, ast.SetComp)):
            return frozenset({SET_ORDER})
        if isinstance(node, ast.Call):
            return self._eval_call(node, scope, class_name)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and class_name is not None
        ):
            return self.class_attrs.get(class_name, {}).get(node.attr, _EMPTY)
        if isinstance(node, _VALUE_OF):
            return self.eval_taints(node.value, scope, class_name)
        operands: List[ast.AST]
        if isinstance(node, ast.IfExp):
            # the test picks a branch; it does not flow into the value
            operands = [node.body, node.orelse]
        elif isinstance(node, _UNION_OF):
            operands = list(ast.iter_child_nodes(node))
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            # Elements of a set lose the *order* taint but keep value
            # taints; the iteration itself is the sink (VIS201).
            return self.eval_taints(node.elt, scope, class_name) - {SET_ORDER}
        elif isinstance(node, ast.DictComp):
            return (
                self.eval_taints(node.key, scope, class_name)
                | self.eval_taints(node.value, scope, class_name)
            ) - {SET_ORDER}
        else:
            return _EMPTY
        out = _EMPTY
        for operand in operands:
            out |= self.eval_taints(operand, scope, class_name)
        return out

    def _eval_call(
        self, node: ast.Call, scope: _Scope, class_name: Optional[str]
    ) -> Taints:
        args = _EMPTY
        for arg in node.args:
            args |= self.eval_taints(arg, scope, class_name)
        for kw in node.keywords:
            args |= self.eval_taints(kw.value, scope, class_name)
        dotted = self.module.dotted(node.func)
        if dotted is not None:
            if dotted in ("id", "hash"):
                return frozenset({ID_VALUE}) | args
            if dotted in _WALL_CLOCK_CALLS:
                return frozenset({WALL_CLOCK})
            if dotted in _SET_ORDER_CALLS:
                return frozenset({SET_ORDER}) | (args - {SET_ORDER})
            if dotted in _ORDER_INSENSITIVE:
                return args - {SET_ORDER}
            if dotted in _ORDER_PRESERVING:
                return args
            if dotted == "str":
                return args
        # Local function/method summaries: the interprocedural edge.
        summary = self._call_summary(node, class_name)
        if summary is not None:
            return summary | (args & {ID_VALUE, WALL_CLOCK})
        if isinstance(node.func, ast.Attribute):
            recv = self.eval_taints(node.func.value, scope, class_name)
            if node.func.attr in _SET_METHODS and SET_ORDER in recv:
                return frozenset({SET_ORDER}) | (args - {SET_ORDER})
            if node.func.attr == "copy":
                return recv
            # Unknown method on a tainted receiver: value taints
            # survive, order rarely does.
            return (recv | args) - {SET_ORDER}
        # Unknown call: value taints flow through, order does not.
        return args - {SET_ORDER}

    def _call_summary(
        self, node: ast.Call, class_name: Optional[str]
    ) -> Optional[Taints]:
        func = node.func
        if isinstance(func, ast.Name):
            qual = func.id
            if qual in self.summaries:
                return self.summaries[qual]
            return None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and class_name is not None
        ):
            return self.summaries.get(f"{class_name}.{func.attr}")
        return None


class _ScopeVisitor(ast.NodeVisitor):
    """A sweep over one scope's own statements under its environment."""

    def __init__(
        self,
        flow: ModuleDataflow,
        scope: _Scope,
        class_name: Optional[str],
    ):
        self.flow = flow
        self.module = flow.module
        self.scope = scope
        self.class_name = class_name
        self.changed = False

    def sweep(self, root: ast.AST) -> bool:
        """Visit the body of ``root`` (a def or the module); returns
        True if a binding grew."""
        for stmt in root.body:  # type: ignore[attr-defined]
            self.visit(stmt)
        return self.changed

    # Nested defs are swept as scopes of their own, and a class body is
    # no scope its methods can see: don't descend into either.
    def visit_FunctionDef(self, node: ast.AST) -> None:
        return

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef

    def _eval(self, node: ast.AST) -> Taints:
        return self.flow.eval_taints(node, self.scope, self.class_name)


class _BindVisitor(_ScopeVisitor):
    """One propagation sweep: fold assignments into the scope env."""

    def _bind_target(self, target: ast.AST, taints: Taints) -> None:
        if isinstance(target, ast.Name):
            self.changed |= self.scope.bind(target.id, taints)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, taints)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, taints)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self.class_name is not None
        ):
            attrs = self.flow.class_attrs.setdefault(self.class_name, {})
            old = attrs.get(target.attr, _EMPTY)
            new = old | taints
            if new != old:
                attrs[target.attr] = new
                self.changed = True

    def visit_Assign(self, node: ast.Assign) -> None:
        taints = self._eval(node.value)
        for target in node.targets:
            self._bind_target(target, taints)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind_target(node.target, self._eval(node.value))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._bind_target(node.target, self._eval(node.value))
        self.generic_visit(node)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self._bind_target(node.target, self._eval(node.value))
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        # Loop variables carry the element taints; iterating is the
        # sink (checked separately), the elements shed the order taint.
        self._bind_target(node.target, self._eval(node.iter) - {SET_ORDER})
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._bind_target(
                    item.optional_vars, self._eval(item.context_expr)
                )
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._bind_target(node.target, self._eval(node.iter) - {SET_ORDER})
        self.generic_visit(node)


class _SinkVisitor(_ScopeVisitor):
    """Post-fixpoint sweep reporting tainted values reaching sinks."""

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.flow._findings.add(self.module.finding(node, code, message))

    # -- VIS201: iteration-order sinks --------------------------------
    def _check_iter(self, iter_node: ast.AST) -> None:
        if not self.module.determinism_scoped:
            return
        if SET_ORDER in self._eval(iter_node):
            self._report(
                iter_node,
                "VIS201",
                f"iteration over set-ordered value "
                f"`{_pretty(iter_node)}`; order is nondeterministic -- "
                "sort it or use a stable unique sequence",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp

    # -- VIS202: id-value format sinks --------------------------------
    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        for value in node.values:
            if not isinstance(value, ast.FormattedValue):
                continue
            taints = self._eval(value.value)
            if ID_VALUE in taints:
                self._report(
                    node,
                    "VIS202",
                    f"id()/hash() value `{_pretty(value.value)}` "
                    "formatted into a string; derived names/labels "
                    "differ run to run",
                )
            elif WALL_CLOCK in taints and self.module.determinism_scoped:
                self._report(
                    node,
                    "VIS204",
                    f"wall-clock value `{_pretty(value.value)}` "
                    "formatted into a string in deterministic code",
                )
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Mod) and ID_VALUE in self._eval(
            node.right
        ):
            self._report(
                node,
                "VIS202",
                "id()/hash() value %-formatted into a string; derived "
                "names/labels differ run to run",
            )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
            if ID_VALUE in self._eval(node.left):
                self._report(
                    node,
                    "VIS202",
                    f"membership test on id()/hash() value "
                    f"`{_pretty(node.left)}`; identity-keyed state is "
                    "not reproducible across runs",
                )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript) and ID_VALUE in self._eval(
                target.slice
            ):
                self._report(
                    target,
                    "VIS202",
                    f"id()/hash() value `{_pretty(target.slice)}` used "
                    "as a container key; identity-keyed state is not "
                    "reproducible across runs",
                )
        self.generic_visit(node)

    # -- call sinks ----------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.module.dotted(node.func)
        self._check_unseeded_rng(node, dotted)
        self._check_call_sinks(node, dotted)
        self.generic_visit(node)

    def _check_call_sinks(
        self, node: ast.Call, dotted: Optional[str]
    ) -> None:
        attr = (
            node.func.attr if isinstance(node.func, ast.Attribute) else None
        )
        # Seeding an RNG from identity or the clock.
        is_seeding = (
            dotted in ("random.Random", "numpy.random.default_rng")
            or attr == "seed"
        )
        if is_seeding:
            for arg in node.args:
                taints = self._eval(arg)
                if ID_VALUE in taints:
                    self._report(
                        arg,
                        "VIS202",
                        f"RNG seeded from id()/hash() value "
                        f"`{_pretty(arg)}`; seeds must be deterministic",
                    )
                if WALL_CLOCK in taints:
                    self._report(
                        arg,
                        "VIS204",
                        f"RNG seeded from wall-clock value "
                        f"`{_pretty(arg)}`; seeds must be deterministic",
                    )
        # Explicit identity keywords anywhere.
        for kw in node.keywords:
            if kw.arg is None or kw.arg not in _SINK_KWARGS:
                continue
            taints = self._eval(kw.value)
            if ID_VALUE in taints:
                self._report(
                    kw.value,
                    "VIS202",
                    f"id()/hash() value `{_pretty(kw.value)}` passed as "
                    f"{kw.arg}=; derived identities differ run to run",
                )
            if WALL_CLOCK in taints:
                self._report(
                    kw.value,
                    "VIS204",
                    f"wall-clock value `{_pretty(kw.value)}` passed as "
                    f"{kw.arg}=; derived identities differ run to run",
                )
        # NetLogger emits: every field must be reproducible.
        if attr == "log":
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                taints = self._eval(arg)
                if SET_ORDER in taints and self.module.determinism_scoped:
                    self._report(
                        arg,
                        "VIS201",
                        f"set-ordered value `{_pretty(arg)}` passed to a "
                        ".log(...) emit; event fields must serialize "
                        "deterministically",
                    )
                if ID_VALUE in taints:
                    self._report(
                        arg,
                        "VIS202",
                        f"id()/hash() value `{_pretty(arg)}` passed to a "
                        ".log(...) emit; log fields differ run to run",
                    )
        # Identity flowing into container state.
        if attr == "add" and node.args:
            if ID_VALUE in self._eval(node.args[0]):
                self._report(
                    node.args[0],
                    "VIS202",
                    f"id()/hash() value `{_pretty(node.args[0])}` added "
                    "to a container; identity-keyed state is not "
                    "reproducible across runs",
                )
        # Order-sensitive consumers of set-ordered iterables.
        if self.module.determinism_scoped:
            if dotted in ("enumerate", "zip", "map") or attr == "join":
                check_args = (
                    node.args[1:] if dotted == "map" else node.args
                )
                for arg in check_args:
                    if SET_ORDER in self._eval(arg):
                        self._report(
                            arg,
                            "VIS201",
                            f"set-ordered value `{_pretty(arg)}` consumed "
                            f"in iteration order by "
                            f"{attr or dotted}(); sort it first",
                        )

    # -- VIS203: unseeded RNGs ----------------------------------------
    def _check_unseeded_rng(
        self, node: ast.Call, dotted: Optional[str]
    ) -> None:
        if not self.module.determinism_scoped or dotted is None:
            return
        no_args = not node.args and not node.keywords
        none_arg = (
            len(node.args) == 1
            and not node.keywords
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value is None
        )
        if dotted == "random.Random" and (no_args or none_arg):
            self._report(
                node,
                "VIS203",
                "random.Random() constructed without a seed; pass a "
                "deterministic seed",
            )
        elif dotted in (
            "numpy.random.default_rng",
            "numpy.random.Generator.default_rng",
        ) and (no_args or none_arg):
            self._report(
                node,
                "VIS203",
                "default_rng() constructed without a seed; pass a "
                "deterministic seed",
            )
        elif dotted == "numpy.random.SeedSequence" and no_args:
            self._report(
                node,
                "VIS203",
                "SeedSequence() constructed without entropy; pass a "
                "deterministic seed",
            )
        elif dotted.startswith("random.") and dotted.split(".", 1)[1] in (
            _GLOBAL_RANDOM_FNS
        ):
            self._report(
                node,
                "VIS203",
                f"{dotted}() draws from the process-global RNG; use a "
                "seeded random.Random / numpy Generator instance",
            )
        elif dotted.startswith("numpy.random.") and dotted.rsplit(
            ".", 1
        )[1] in _NP_GLOBAL_FNS:
            self._report(
                node,
                "VIS203",
                f"{dotted}() uses numpy's global RNG state; use a "
                "seeded Generator from repro.util.rng",
            )


def analyze_module(module: ParsedModule) -> List[CheckFinding]:
    """Run the determinism dataflow rules over one parsed module."""
    return ModuleDataflow(module).analyze()
