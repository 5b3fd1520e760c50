"""Determinism & concurrency linter for the parallel compiler.

``python -m repro lint src/repro`` statically checks the toolchain's own
sources for the bug classes that break reproducibility or parallel safety
in this codebase — the properties the runtime verifiers
(:mod:`repro.analysis.verify`) cannot observe:

DET001  **unseeded-rng** — a call into the *global* ``random`` /
        ``numpy.random`` state outside :mod:`repro.seeding`.  Every
        stochastic stage must draw from an explicitly seeded generator
        (``random.Random(seed)``, ``np.random.default_rng(seed)``) so the
        same request compiles bit-identically on every worker.
DET002  **unsorted-set-iteration** — iterating a ``set``/``frozenset`` in
        the order-sensitive stages (``pnr/``, ``partition/``, ``mapper/``)
        where the iteration feeds an ordered structure.  Set order varies
        with insertion history and hash seed; wrap it in ``sorted(...)``.
        Iterations consumed order-insensitively (``sum``/``min``/``max``/
        ``any``/``all``/``len``/``sorted``/``set``/``frozenset``) are
        exempt, as are set/dict comprehensions (unordered targets).
DET003  **impure-fingerprint** — wall-clock (``time.*``, ``datetime.now``),
        entropy (``os.urandom``, ``uuid.uuid1/uuid4``) or address-space
        (``id()``) dependence inside a function whose name marks it as a
        content address (``*fingerprint*``, ``*cache_key*``, ``*run_id*``,
        ``*digest*``).  Content addresses must depend on content alone.
CONC001 **shared-mutation-in-worker** — a function dispatched to an
        executor (``pool.submit(fn, ...)`` / ``executor.map(fn, ...)``)
        that writes ``global``/``nonlocal`` state or mutates a free
        variable.  Workers may run in other processes (mutation silently
        lost) or threads (data race); results must flow through return
        values.
ERR001  **builtin-raise** — raising a bare builtin (``ValueError``,
        ``TypeError``, ``KeyError``, ``RuntimeError``, ``Exception``)
        instead of a typed :class:`~repro.errors.FPSAError` subclass.
        Typed errors carry stable codes over the wire; the subclasses also
        derive the builtins, so converting never breaks callers.

A finding is silenced with a trailing comment on the offending line (or
the line above)::

    order = list(nodes)  # repro-lint: disable=DET002
    # repro-lint: disable=all
    raise KeyError(name)

The linter is ``ast``-based, needs no third-party packages, and exits
nonzero when findings remain — wire ``python -m repro lint src/repro``
into CI next to the test suite.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass

from ..wire import WireRecord

__all__ = ["Finding", "RULES", "lint_source", "lint_file", "lint_paths"]

#: rule id -> one-line description (the catalog the CLI validates against).
RULES: dict[str, str] = {
    "DET001": "call into the global random/np.random state (unseeded RNG)",
    "DET002": "set iteration feeding an ordered structure without sorted()",
    "DET003": "wall-clock/entropy/id() inside a fingerprint or cache-key",
    "CONC001": "shared-state mutation in an executor-dispatched function",
    "ERR001": "raise of a bare builtin instead of an FPSAError subclass",
}

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")

#: global-state entry points of the stdlib ``random`` module.  Constructing
#: an owned generator (``Random``, ``SystemRandom``) is the fix, not a bug.
_RANDOM_GLOBAL_FNS = frozenset({
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "seed", "gauss", "normalvariate", "betavariate",
    "expovariate", "gammavariate", "lognormvariate", "paretovariate",
    "triangular", "vonmisesvariate", "weibullvariate", "getrandbits",
    "randbytes", "binomialvariate",
})
#: ``numpy.random`` attributes that are explicit-seed constructors, not
#: global-state calls.
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})

#: consumers for which element order cannot affect the result.
_ORDER_INSENSITIVE = frozenset({
    "sum", "max", "min", "any", "all", "len", "sorted", "set", "frozenset",
})

_BUILTIN_RAISES = frozenset({
    "ValueError", "TypeError", "KeyError", "RuntimeError", "Exception",
    # a bare TimeoutError loses the job id / deadline a typed
    # DeadlineExceededError carries into the wire-level ErrorPayload
    "TimeoutError",
})

#: function-name markers of content-address computations (DET003 scope).
_FINGERPRINT_MARKERS = ("fingerprint", "cache_key", "run_id", "digest")

#: path fragments naming the order-sensitive stages (DET002 scope).
_ORDER_SENSITIVE_DIRS = ("pnr", "partition", "mapper")

#: calls that read wall-clock / entropy / addresses (DET003 targets).
_IMPURE_CALLS = {
    ("time", "time"), ("time", "time_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("os", "urandom"), ("uuid", "uuid1"),
    ("uuid", "uuid4"), ("datetime", "now"), ("datetime", "utcnow"),
    ("date", "today"),
}


@dataclass(frozen=True)
class Finding(WireRecord):
    """One lint violation, pinned to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _suppressed_rules(lines: list[str], lineno: int) -> set[str]:
    """Rules disabled for 1-based ``lineno`` (same line or the line above)."""
    rules: set[str] = set()
    for idx in (lineno - 1, lineno - 2):
        if 0 <= idx < len(lines):
            match = _SUPPRESS_RE.search(lines[idx])
            if match:
                rules |= {
                    r.strip().upper()
                    for r in match.group(1).split(",")
                    if r.strip()
                }
    return rules


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` as a string for Name/Attribute chains, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ImportTracker:
    """Maps local names back to the modules/objects they import."""

    def __init__(self, tree: ast.Module):
        #: local alias -> imported module path (``import numpy as np``)
        self.modules: dict[str, str] = {}
        #: local alias -> (module, original name) (``from x import y as z``)
        self.objects: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.objects[alias.asname or alias.name] = (
                        node.module, alias.name
                    )


def _is_setish(node: ast.AST, set_vars: set[str]) -> bool:
    """Whether ``node`` statically looks like a set/frozenset value."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name) and node.id in set_vars:
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in (
            "set", "frozenset"
        ):
            return True
        # set-producing methods on an already-known set variable
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union", "intersection", "difference", "symmetric_difference",
            "copy",
        ):
            return _is_setish(node.func.value, set_vars)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra: either operand being a known set marks the result
        return _is_setish(node.left, set_vars) or _is_setish(
            node.right, set_vars
        )
    return False


class _Linter(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.Module,
        select: set[str] | None,
    ):
        self.path = path
        self.lines = source.splitlines()
        self.tree = tree
        self.select = select
        self.findings: list[Finding] = []
        self.imports = _ImportTracker(tree)
        basename = os.path.basename(path)
        parts = {p for p in path.replace(os.sep, "/").split("/") if p}
        self.is_seeding_module = basename == "seeding.py"
        self.order_sensitive = any(d in parts for d in _ORDER_SENSITIVE_DIRS)
        #: names assigned set-ish values, per enclosing function scope.
        self._set_vars_stack: list[set[str]] = [set()]
        #: enclosing function names (for DET003's marker test).
        self._func_stack: list[str] = []
        #: names of functions dispatched to executors (CONC001 targets).
        self.worker_fns = self._collect_worker_fns()

    # -- plumbing ------------------------------------------------------

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        if self.select is not None and rule not in self.select:
            return
        lineno = getattr(node, "lineno", 1)
        suppressed = _suppressed_rules(self.lines, lineno)
        if rule in suppressed or "ALL" in suppressed:
            return
        self.findings.append(
            Finding(
                path=self.path,
                line=lineno,
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    def _collect_worker_fns(self) -> set[str]:
        """Names passed as the callable to ``.submit(fn, ...)``/``.map(fn, ...)``."""
        names: set[str] = set()
        for node in ast.walk(self.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map")
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                names.add(node.args[0].id)
        return names

    # -- scope tracking ------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        self._func_stack.append(node.name)
        self._set_vars_stack.append(set())
        if node.name in self.worker_fns:
            self._check_worker_body(node)
        self.generic_visit(node)
        self._set_vars_stack.pop()
        self._func_stack.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_setish(node.value, self._set_vars_stack[-1]):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_vars_stack[-1].add(target.id)
        else:
            # reassignment to a non-set value clears the mark
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_vars_stack[-1].discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            node.value is not None
            and isinstance(node.target, ast.Name)
            and _is_setish(node.value, self._set_vars_stack[-1])
        ):
            self._set_vars_stack[-1].add(node.target.id)
        self.generic_visit(node)

    # -- DET001: unseeded global RNG -----------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_unseeded_rng(node)
        self._check_impure_fingerprint(node)
        self.generic_visit(node)

    def _check_unseeded_rng(self, node: ast.Call) -> None:
        if self.is_seeding_module:
            return
        dotted = _dotted(node.func)
        if dotted is None:
            return
        head, _, rest = dotted.partition(".")
        # `import random` / `import numpy as np`
        module = self.imports.modules.get(head)
        if module == "random" and rest in _RANDOM_GLOBAL_FNS:
            self._emit(
                node, "DET001",
                f"random.{rest}() uses the shared global RNG; draw from an "
                f"explicitly seeded random.Random(seed) instead",
            )
            return
        if module == "numpy" and rest.startswith("random."):
            attr = rest.split(".", 1)[1]
            if attr not in _NP_RANDOM_OK and "." not in attr:
                self._emit(
                    node, "DET001",
                    f"np.random.{attr}() uses the shared global RNG; use "
                    f"np.random.default_rng(seed) instead",
                )
            return
        if module == "numpy.random" and rest and rest not in _NP_RANDOM_OK:
            self._emit(
                node, "DET001",
                f"{head}.{rest}() uses the shared global RNG; use "
                f"default_rng(seed) instead",
            )
            return
        # `from random import shuffle`
        if not rest and head in self.imports.objects:
            source_module, original = self.imports.objects[head]
            if source_module == "random" and original in _RANDOM_GLOBAL_FNS:
                self._emit(
                    node, "DET001",
                    f"{head}() (from random) uses the shared global RNG; "
                    f"draw from an explicitly seeded random.Random(seed)",
                )
            elif (
                source_module in ("numpy.random", "numpy")
                and original not in _NP_RANDOM_OK
                and source_module == "numpy.random"
            ):
                self._emit(
                    node, "DET001",
                    f"{head}() (from numpy.random) uses the shared global "
                    f"RNG; use default_rng(seed) instead",
                )

    # -- DET002: unsorted set iteration --------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self.order_sensitive and _is_setish(
            node.iter, self._set_vars_stack[-1]
        ):
            self._emit(
                node.iter, "DET002",
                "for-loop over a set: iteration order varies with insertion "
                "history; iterate sorted(...) when order can reach an "
                "ordered structure",
            )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comp(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comp(node)
        self.generic_visit(node)

    def _check_comp(self, node) -> None:
        # SetComp/DictComp land in unordered targets and are exempt by
        # construction; list comprehensions and genexps preserve order.
        if not self.order_sensitive:
            return
        if not node.generators:
            return
        first = node.generators[0]
        if not _is_setish(first.iter, self._set_vars_stack[-1]):
            return
        if self._consumed_order_insensitively(node):
            return
        self._emit(
            first.iter, "DET002",
            "comprehension over a set feeds an ordered structure; iterate "
            "sorted(...) instead",
        )

    def _consumed_order_insensitively(self, node) -> bool:
        """Whether the comprehension is the sole argument of an
        order-insensitive consumer (``sum(x for x in s)`` and friends)."""
        parent = self._parents().get(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INSENSITIVE
            and len(parent.args) >= 1
            and parent.args[0] is node
        )

    _parent_map: dict | None = None

    def _parents(self) -> dict:
        if self._parent_map is None:
            self._parent_map = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parent_map[child] = parent
        return self._parent_map

    # -- DET003: impure fingerprints -----------------------------------

    def _check_impure_fingerprint(self, node: ast.Call) -> None:
        if not any(
            marker in name
            for name in self._func_stack
            for marker in _FINGERPRINT_MARKERS
        ):
            return
        if isinstance(node.func, ast.Name) and node.func.id == "id":
            self._emit(
                node, "DET003",
                "id() is an address-space value: it differs across processes "
                "and runs, so it must not reach a fingerprint/cache key",
            )
            return
        dotted = _dotted(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        if len(parts) >= 2 and (parts[-2], parts[-1]) in _IMPURE_CALLS:
            self._emit(
                node, "DET003",
                f"{dotted}() injects wall-clock/entropy into a "
                f"fingerprint/cache key; content addresses must depend on "
                f"content alone",
            )

    # -- CONC001: shared mutation in worker functions ------------------

    def _check_worker_body(self, node) -> None:
        params = {a.arg for a in node.args.args}
        params |= {a.arg for a in node.args.posonlyargs}
        params |= {a.arg for a in node.args.kwonlyargs}
        if node.args.vararg:
            params.add(node.args.vararg.arg)
        if node.args.kwarg:
            params.add(node.args.kwarg.arg)
        local_names = set(params)
        declared_shared: set[str] = set()
        for stmt in ast.walk(node):
            if isinstance(stmt, (ast.Global, ast.Nonlocal)):
                declared_shared |= set(stmt.names)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        local_names.add(target.id)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(stmt.target, ast.Name):
                    local_names.add(stmt.target.id)
            elif isinstance(stmt, ast.For):
                if isinstance(stmt.target, ast.Name):
                    local_names.add(stmt.target.id)
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    if isinstance(item.optional_vars, ast.Name):
                        local_names.add(item.optional_vars.id)
        for stmt in ast.walk(node):
            if isinstance(stmt, (ast.Global, ast.Nonlocal)):
                kind = "global" if isinstance(stmt, ast.Global) else "nonlocal"
                self._emit(
                    stmt, "CONC001",
                    f"worker function {node.name!r} declares "
                    f"{kind} {', '.join(stmt.names)}: executor-dispatched "
                    f"work must not mutate shared state (lost in processes, "
                    f"racy in threads); return the value instead",
                )
            elif isinstance(stmt, (ast.Assign, ast.AugAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    base = target
                    while isinstance(base, (ast.Attribute, ast.Subscript)):
                        base = base.value
                    if (
                        isinstance(base, ast.Name)
                        and base is not target  # attribute/subscript store
                        and base.id not in local_names
                        and base.id != "self"
                    ):
                        self._emit(
                            stmt, "CONC001",
                            f"worker function {node.name!r} mutates free "
                            f"variable {base.id!r}: executor-dispatched work "
                            f"must not write shared state; return the value "
                            f"instead",
                        )

    # -- ERR001: bare builtin raises -----------------------------------

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in _BUILTIN_RAISES:
            self._emit(
                node, "ERR001",
                f"raise of bare {name}: raise a typed FPSAError subclass "
                f"(repro.errors) so the service surfaces a stable error "
                f"code; the subclasses also derive {name}, so callers "
                f"keep working",
            )
        self.generic_visit(node)


def lint_source(
    source: str, path: str = "<string>", select: set[str] | None = None
) -> list[Finding]:
    """Lint one Python source string; returns the findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                rule="PARSE",
                message=f"syntax error: {exc.msg}",
            )
        ]
    linter = _Linter(path, source, tree, select)
    linter.visit(tree)
    return linter.findings


def lint_file(path: str, select: set[str] | None = None) -> list[Finding]:
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path=path, select=select)


def lint_paths(
    paths: list[str] | tuple[str, ...], select: set[str] | None = None
) -> list[Finding]:
    """Lint files and directories (walked recursively for ``*.py``).

    Findings come back sorted by path, then line — a deterministic order,
    as befits a determinism linter.
    """
    files: list[str] = []
    for entry in paths:
        if os.path.isdir(entry):
            for root, dirs, names in os.walk(entry):
                dirs[:] = sorted(
                    d for d in dirs if d not in ("__pycache__", ".git")
                )
                files.extend(
                    os.path.join(root, n)
                    for n in sorted(names)
                    if n.endswith(".py")
                )
        else:
            files.append(entry)
    findings: list[Finding] = []
    for path in files:
        findings.extend(lint_file(path, select=select))
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings
