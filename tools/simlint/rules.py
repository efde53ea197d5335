"""SimLint rule plugins: one AST visitor class per rule, each with a stable id.

A rule subclasses :class:`Rule`, declares its ``id``/``title``/``scope`` and
reports findings through :meth:`Rule.report`.  The runner instantiates every
registered rule per file with a shared :class:`ModuleAnalysis` (import alias
table + set-valued symbol table), so individual rules stay small.

Rules scoped ``sim_core_only`` fire only on simulator-core modules — files
under ``repro/sim`` or files carrying an explicit ``# simlint: sim-core``
marker (how the test fixtures opt in).  See ``docs/correctness.md`` for each
rule's rationale and fix pattern.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Type

from .report import Finding

__all__ = ["ModuleAnalysis", "Rule", "ALL_RULES", "rule_index"]


#: Wall-clock entry points forbidden inside the simulator core (SIM001).
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
})

#: Global-state RNG entry points (SIM002).  Seeded generator *constructors*
#: (``random.Random``, ``numpy.random.default_rng``, ``RandomState``) are the
#: sanctioned alternative and are not listed.
_GLOBAL_RANDOM = frozenset({
    "random.random", "random.randint", "random.randrange", "random.uniform",
    "random.choice", "random.choices", "random.shuffle", "random.sample",
    "random.gauss", "random.normalvariate", "random.expovariate",
    "random.betavariate", "random.triangular", "random.seed", "random.getrandbits",
    "numpy.random.rand", "numpy.random.randn", "numpy.random.random",
    "numpy.random.random_sample", "numpy.random.randint", "numpy.random.choice",
    "numpy.random.shuffle", "numpy.random.permutation", "numpy.random.normal",
    "numpy.random.uniform", "numpy.random.seed", "numpy.random.standard_normal",
    "numpy.random.exponential", "numpy.random.poisson",
})

#: Name components that mark an identifier as a simulated timestamp (SIM004).
_TIME_TOKENS = frozenset({
    "time", "now", "clock", "start", "end", "until", "arrival",
    "finish", "deadline", "timestamp", "ts", "makespan",
})

_SNAKE_SPLIT = re.compile(r"[_\W]+")

#: Constructors whose call produces a fresh mutable container (SIM005).
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray",
    "collections.defaultdict", "collections.deque", "collections.OrderedDict",
    "collections.Counter",
})

#: Annotations that declare a set-typed field (SIM003's declaration check).
_SET_ANNOTATIONS = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet",
    "typing.Set", "typing.FrozenSet", "typing.MutableSet", "typing.AbstractSet",
})


class ModuleAnalysis:
    """Shared per-file facts the rules consult: aliases and set symbols.

    ``aliases`` maps local names to fully dotted import paths (``np`` ->
    ``numpy``; ``pc`` -> ``time.perf_counter``), so rules match against
    canonical names no matter how the module spelled its imports.  Set
    symbols — names assigned a ``set``-valued expression — are collected
    *per function scope* (plus module scope), so a local called ``machines``
    holding a list in one method is not confused with a set of the same
    name in another.  ``self.*`` attributes are pooled module-wide.
    """

    def __init__(self, tree: ast.AST):
        """Run the collection passes over ``tree``."""
        self.aliases: Dict[str, str] = {}
        #: scope key (id of enclosing function node, None = module) -> names
        self.scoped_sets: Dict[Optional[int], Set[str]] = {}
        #: ``self.x`` attributes assigned/declared as sets, module-wide.
        self.attr_symbols: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".", 1)[0]] = (
                        alias.name if alias.asname else alias.name.split(".", 1)[0])
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        _SetSymbolCollector(self).visit(tree)

    def is_set_symbol(self, symbol: str, scope: Optional[int]) -> bool:
        """Whether ``symbol`` holds a set in ``scope`` (or at module level)."""
        if symbol.startswith("self."):
            return symbol in self.attr_symbols
        return (symbol in self.scoped_sets.get(scope, ())
                or symbol in self.scoped_sets.get(None, ()))

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of ``node``, or None when it is not one.

        Only names rooted in an *imported* module or object resolve — a
        local variable that happens to be called ``random`` stays None.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.aliases.get(current.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


def _symbol_of(target: ast.AST) -> Optional[str]:
    """``x`` or ``self.x`` rendering of an assignment target, else None."""
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) \
            and target.value.id == "self":
        return f"self.{target.attr}"
    return None


def _is_set_expression(node: ast.AST, analysis: "ModuleAnalysis",
                       scope: Optional[int]) -> bool:
    """Whether ``node`` statically evaluates to a ``set``/``frozenset``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    symbol = _symbol_of(node)
    return symbol is not None and analysis.is_set_symbol(symbol, scope)


class _SetSymbolCollector(ast.NodeVisitor):
    """Single forward pass recording which symbols hold sets, per scope."""

    def __init__(self, analysis: ModuleAnalysis):
        self.analysis = analysis
        self._stack: List[Optional[int]] = [None]

    def _scope(self) -> Optional[int]:
        return self._stack[-1]

    def _enter(self, node) -> None:
        self._stack.append(id(node))
        self.generic_visit(node)
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._enter(node)

    def _record(self, target: ast.AST) -> None:
        symbol = _symbol_of(target)
        if symbol is None:
            return
        if symbol.startswith("self."):
            self.analysis.attr_symbols.add(symbol)
        else:
            self.analysis.scoped_sets.setdefault(self._scope(), set()).add(symbol)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expression(node.value, self.analysis, self._scope()):
            for target in node.targets:
                self._record(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        is_set = _is_set_annotation(node.annotation, self.analysis) or (
            node.value is not None
            and _is_set_expression(node.value, self.analysis, self._scope()))
        if is_set:
            self._record(node.target)
        self.generic_visit(node)


def _is_set_annotation(node: ast.AST, analysis: "ModuleAnalysis") -> bool:
    """Whether an annotation declares a set type (``set``, ``Set[...]``, ...)."""
    if isinstance(node, ast.Subscript):
        return _is_set_annotation(node.value, analysis)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        head = node.value.split("[", 1)[0].strip()
        return head in _SET_ANNOTATIONS
    if isinstance(node, ast.Name):
        return node.id in _SET_ANNOTATIONS
    if isinstance(node, ast.Attribute):
        dotted = analysis.resolve(node)
        if dotted is not None:
            return dotted in _SET_ANNOTATIONS
        return node.attr in ("Set", "FrozenSet", "MutableSet", "AbstractSet")
    return False


def _is_time_like(node: ast.AST) -> bool:
    """Whether an expression reads like a simulated timestamp (SIM004)."""
    if isinstance(node, ast.Name):
        return _name_is_time_like(node.id)
    if isinstance(node, ast.Attribute):
        return _name_is_time_like(node.attr) or _is_time_like(node.value)
    if isinstance(node, ast.BinOp):
        return _is_time_like(node.left) or _is_time_like(node.right)
    if isinstance(node, ast.Call):
        # ``job.finish_time()`` style accessors: judge the callee's name.
        return _is_time_like(node.func)
    return False


def _name_is_time_like(identifier: str) -> bool:
    return any(token in _TIME_TOKENS for token in _SNAKE_SPLIT.split(identifier.lower()))


class Rule(ast.NodeVisitor):
    """Base class every SimLint rule plugs into.

    Subclasses set the class attributes and implement ``visit_*`` methods;
    :meth:`report` records a finding with ``file:line:col`` provenance.
    """

    #: Stable rule id (``SIMxxx``) — what suppressions and baselines key on.
    id: str = ""
    #: One-line human description shown by ``--list-rules``.
    title: str = ""
    #: When True the rule only fires on simulator-core modules.
    sim_core_only: bool = False

    def __init__(self, path: str, lines: Tuple[str, ...], analysis: ModuleAnalysis,
                 findings: List[Finding]):
        """Bind the rule to one file's source, shared analysis and sink."""
        self.path = path
        self.lines = lines
        self.analysis = analysis
        self.findings = findings

    def check(self, tree: ast.AST) -> None:
        """Run the rule over the parsed module."""
        self.visit(tree)

    def report(self, node: ast.AST, message: str) -> None:
        """Record one finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        self.findings.append(Finding(path=self.path, line=line, col=col,
                                     rule=self.id, message=message, snippet=snippet))


class WallClockRule(Rule):
    """SIM001: no wall-clock reads inside the simulator core.

    Simulated time must flow from the event loop (``start_time`` + event
    times); a ``time.time()``/``perf_counter()``/``datetime.now()`` read
    makes results depend on host speed and run-to-run wall-clock jitter.
    """

    id = "SIM001"
    title = "no wall-clock reads in repro.sim (sim time flows from the event loop)"
    sim_core_only = True

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.analysis.resolve(node.func)
        if dotted in _WALL_CLOCK:
            self.report(node, f"wall-clock read {dotted}() in simulator core; "
                              "derive time from the event loop instead")
        self.generic_visit(node)


class UnseededRandomRule(Rule):
    """SIM002: no unseeded global ``random`` / ``numpy.random`` state.

    Global-RNG calls draw from interpreter-wide hidden state that any other
    component can perturb; reproducible components own a seeded generator
    (``random.Random(seed)`` / ``numpy.random.default_rng(seed)``) instead.
    """

    id = "SIM002"
    title = "no unseeded global random / numpy.random state"
    sim_core_only = False

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.analysis.resolve(node.func)
        if dotted in _GLOBAL_RANDOM:
            self.report(node, f"global-RNG call {dotted}(); use a seeded generator "
                              "(random.Random(seed) / numpy.random.default_rng(seed))")
        self.generic_visit(node)


class UnorderedIterationRule(Rule):
    """SIM003: unordered-iteration hazard in the simulator core.

    Iterating a ``set`` yields a hash-order-dependent sequence; when the
    elements feed event scheduling, heap pushes or output ordering, the run
    becomes ``PYTHONHASHSEED``-dependent.  The rule flags (a) iteration over
    statically known set expressions and (b) ``set``-annotated field
    declarations — a set field on a sim-core class is one refactor away from
    being iterated, so it must be an insertion-ordered structure (e.g. a
    ``Dict[str, None]`` used as an ordered set) or justify membership-only
    use inline.
    """

    id = "SIM003"
    title = "unordered set iteration / set-typed field in the simulator core"
    sim_core_only = True

    def check(self, tree: ast.AST) -> None:
        self._stack: List[Optional[int]] = [None]
        self.visit(tree)

    def _enter(self, node) -> None:
        self._stack.append(id(node))
        self.generic_visit(node)
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._enter(node)

    def _check_iterated(self, node: ast.AST) -> None:
        if _is_set_expression(node, self.analysis, self._stack[-1]):
            self.report(node, "iterating a set: order is hash-dependent; wrap in "
                              "sorted(...) or use an insertion-ordered structure")

    def visit_For(self, node: ast.For) -> None:
        self._check_iterated(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iterated(node.iter)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # list(s) / tuple(s) materialize the hash order just like a loop.
        if isinstance(node.func, ast.Name) and node.func.id in ("list", "tuple") \
                and len(node.args) == 1:
            self._check_iterated(node.args[0])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _is_set_annotation(node.annotation, self.analysis):
            self.report(node, "set-typed field in the simulator core: use an "
                              "insertion-ordered structure (Dict[key, None]) or "
                              "justify membership-only use")
        self.generic_visit(node)


class FloatTimeEqualityRule(Rule):
    """SIM004: float ``==`` / ``!=`` on simulated timestamps.

    Timestamps are accumulated floats; exact comparison silently flips on
    the last ulp.  Use :func:`repro.sim.simtime.times_close` (tolerance) —
    or, where bit-exactness *is* the contract (fast-forward replay), keep
    ``==`` and justify it with an inline suppression.
    """

    id = "SIM004"
    title = "float == / != on simulated timestamps (use simtime.times_close)"
    sim_core_only = True

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if any(isinstance(side, ast.Constant)
                   and not isinstance(side.value, (int, float))
                   for side in (left, right)):
                continue  # comparisons against None/str are identity-ish, not timing
            if _is_time_like(left) or _is_time_like(right):
                self.report(node, "exact float comparison on simulated timestamps; "
                                  "use repro.sim.simtime.times_close(a, b) or justify "
                                  "bit-exactness inline")
                break
        self.generic_visit(node)


class MutableDefaultRule(Rule):
    """SIM005: mutable default arguments.

    A mutable default is created once at definition time and shared across
    calls — state leaks between invocations (and between simulated runs).
    Default to ``None`` and construct inside the function.
    """

    id = "SIM005"
    title = "mutable default argument"
    sim_core_only = False

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [d for d in node.args.kw_defaults
                                               if d is not None]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set,
                                    ast.ListComp, ast.DictComp, ast.SetComp)):
                self.report(default, "mutable default argument; use None and "
                                     "construct inside the function")
            elif isinstance(default, ast.Call):
                name = None
                if isinstance(default.func, ast.Name):
                    name = default.func.id
                dotted = self.analysis.resolve(default.func)
                if name in _MUTABLE_FACTORIES or dotted in _MUTABLE_FACTORIES:
                    self.report(default, "mutable default argument; use None and "
                                         "construct inside the function")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


class PublicApiRule(Rule):
    """SIM006: the simulator core's public API is annotated and documented.

    The sim package is the repo's load-bearing subsystem; its public surface
    (module docstrings, public classes, public functions/methods and
    ``__init__``) must carry docstrings and complete type annotations so the
    invariants other layers rely on are written down where they are defined.
    """

    id = "SIM006"
    title = "missing annotations/docstrings on repro.sim public API"
    sim_core_only = True

    def check(self, tree: ast.AST) -> None:
        if not isinstance(tree, ast.Module):
            return
        if ast.get_docstring(tree) is None:
            anchor = tree.body[0] if tree.body else ast.Module(body=[], type_ignores=[])
            self.report(anchor, "module is missing a docstring")
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                self._check_class(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not node.name.startswith("_"):
                self._check_function(node, is_method=False)

    def _check_class(self, node: ast.ClassDef) -> None:
        if ast.get_docstring(node) is None:
            self.report(node, f"public class {node.name!r} is missing a docstring")
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            public = not item.name.startswith("_") or item.name == "__init__"
            if public:
                self._check_function(item, is_method=True, owner=node.name)

    def _check_function(self, node, is_method: bool, owner: str = "") -> None:
        label = f"{owner}.{node.name}" if owner else node.name
        if ast.get_docstring(node) is None:
            self.report(node, f"public function {label!r} is missing a docstring")
        args = list(node.args.posonlyargs) + list(node.args.args)
        if is_method and args and args[0].arg in ("self", "cls"):
            args = args[1:]
        missing = [arg.arg for arg in args + list(node.args.kwonlyargs)
                   if arg.annotation is None]
        for extra in (node.args.vararg, node.args.kwarg):
            if extra is not None and extra.annotation is None:
                missing.append(extra.arg)
        if missing:
            self.report(node, f"public function {label!r} is missing parameter "
                              f"annotations: {', '.join(missing)}")
        if node.returns is None and node.name != "__init__":
            self.report(node, f"public function {label!r} is missing a return annotation")


#: The layer table (SIM007): the other ``repro`` packages each ``src/repro``
#: package may import.  ``""`` is the root ``repro/__init__.py``, which any
#: package may import.  Stated once here; ``docs/architecture.md`` points at it.
_LOWEST = ("nn", "data", "metrics", "quantization", "ckpt", "sim")
LAYERS: Dict[str, FrozenSet[str]] = {
    **{package: frozenset() for package in ("",) + _LOWEST},
    "optim": frozenset({"nn"}),
    "models": frozenset({"nn", "optim"}),
    "core": frozenset({"nn", "optim", "data", "metrics", "quantization", "sim"}),
    "analysis": frozenset({"nn", "core"}),
    "baselines": frozenset({"nn", "optim", "data", "core", "sim"}),
    "experiments": frozenset(_LOWEST + ("optim", "models", "core", "analysis", "baselines")),
}
LAYERS["cli"] = frozenset(LAYERS) - {""}


def repro_module(path: str) -> Optional[Tuple[str, ...]]:
    """Dotted parts of the ``repro`` module a file path holds, else None.

    Reads the path from its last ``repro`` directory: ``src/repro/sim/engine.py``
    is ``("repro", "sim", "engine")`` and a package's ``__init__.py`` is the
    package itself.
    """
    parts = path.replace("\\", "/").split("/")
    if "repro" not in parts[:-1] or not parts[-1].endswith(".py"):
        return None
    start = len(parts) - 1 - parts[:-1][::-1].index("repro") - 1
    module = parts[start:-1] + [parts[-1][:-3]]
    return tuple(module[:-1] if module[-1] == "__init__" else module)


class LayerImportRule(Rule):
    """SIM007: every ``repro`` import follows the layer table.

    :data:`LAYERS` says which ``repro`` packages each package may import;
    anything else is a cycle or an upward dependency that the table forbids.
    Every import counts — module level, inside a function and under
    ``TYPE_CHECKING`` — since a lazy import is still a dependency.  Files
    outside a known ``repro`` package are not checked.
    """

    id = "SIM007"
    title = "repro package imports a package the layer table does not allow"
    sim_core_only = False

    def check(self, tree: ast.AST) -> None:
        module = repro_module(self.path)
        package = module[1] if module is not None and len(module) > 1 else ""
        if module is None or package not in LAYERS:
            return
        # The package relative imports start from.
        here = list(module if self.path.endswith("__init__.py") else module[:-1])
        for node in ast.walk(tree):
            for target in self._targets(node, here):
                if target not in (package, "") and target not in LAYERS[package]:
                    where = f"repro.{package}" if package else "repro"
                    allowed = ", ".join(sorted(LAYERS[package])) or "no other package"
                    self.report(node, f"{where} may not import repro.{target}; the layer "
                                      f"table allows {allowed}")

    @staticmethod
    def _targets(node: ast.AST, here: List[str]) -> List[str]:
        """The ``repro`` packages one import statement reaches (root: ``""``)."""
        if isinstance(node, ast.Import):
            dotted = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = here[:max(len(here) - node.level + 1, 0)] if node.level else []
            base += node.module.split(".") if node.module else []
            # ``from repro import sim`` names the package in the alias.
            dotted = [base + [alias.name] for alias in node.names] if base == ["repro"] \
                else [base]
        else:
            return []
        return [parts[1] if len(parts) > 1 else "" for parts in dotted
                if parts and parts[0] == "repro"]


class UnreadImportRule(Rule):
    """SIM008: every imported name is read.

    A name an import binds and nothing reads is a dependency nobody uses:
    it costs import time and hides which module really needs what.  A name
    counts as read when the module loads it anywhere (a quoted annotation
    included) or lists it in ``__all__``.  Package ``__init__.py`` files are
    exempt — their imports are the package's re-exports — and so are
    ``from __future__`` imports.
    """

    id = "SIM008"
    title = "imported name never read"
    sim_core_only = False

    def check(self, tree: ast.AST) -> None:
        if self.path.replace("\\", "/").endswith("__init__.py"):
            return
        read: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, (ast.arg, ast.AnnAssign)):
                read.update(_quoted_names(node.annotation))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                read.update(_quoted_names(node.returns))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                read.update(element.value for element in getattr(node.value, "elts", ())
                            if isinstance(element, ast.Constant))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    if bound != "*" and bound not in read:
                        self.report(node, f"imported name {bound!r} is never read")


def _quoted_names(annotation: Optional[ast.AST]) -> Set[str]:
    """The names a quoted (string) annotation inside ``annotation`` loads."""
    names: Set[str] = set()
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(sub.id for sub in ast.walk(parsed) if isinstance(sub, ast.Name))
    return names


#: Every registered rule, in id order — the runner instantiates each per file.
ALL_RULES: Tuple[Type[Rule], ...] = (
    WallClockRule,
    UnseededRandomRule,
    UnorderedIterationRule,
    FloatTimeEqualityRule,
    MutableDefaultRule,
    PublicApiRule,
    LayerImportRule,
    UnreadImportRule,
)


def rule_index() -> Dict[str, Type[Rule]]:
    """``rule id -> rule class`` for every registered rule."""
    return {rule.id: rule for rule in ALL_RULES}
