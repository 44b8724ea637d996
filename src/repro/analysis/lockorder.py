"""Lock-order pass (rule ``lock-order``).

Extracts the lock-acquisition structure of the concurrent modules
(:data:`repro.analysis.trustmap.LOCK_MODULES`) and enforces three
things:

1. **pinned acquisition order** — locks belong to *families* (``store``
   < ``worker`` < ``health`` < ``alloc`` < ``commit``); acquiring a lock
   whose family sorts before one already held is a finding, and the
   global edge graph is additionally checked for cycles;
2. **ascending worker locks** — several ``worker`` locks may be held
   at once only when acquired through an ``ExitStack`` loop over a
   provably ascending iterable (``sorted(...)`` or ``self.workers``);
   any other same-family nesting cannot be statically ordered and is
   flagged;
3. **guarded shared state** — attributes listed in
   :data:`repro.analysis.trustmap.GUARDED_ATTRS` may only be mutated
   while a lock of their family is held, on any path reachable from a
   public method (construction/teardown methods are exempt).

The held-lock set is propagated interprocedurally through
``self.method(...)`` calls within a class, so helpers documented as
"caller holds the lock" are analyzed under their real callers.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis import trustmap
from repro.analysis.findings import Finding

RULE = "lock-order"
DOC_URL = "docs/INTERNALS.md#static-analysis-shieldlint"
REMEDIATION = (
    "Acquire worker locks in ascending index order only, and guard "
    "shared pool state with the pool lock before mutating it."
)

_MUTATING_CONTAINER_METHODS = frozenset(
    {"add", "discard", "clear", "append", "pop", "update", "remove",
     "insert", "setdefault", "extend"}
)

_MAX_CALL_DEPTH = 8


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover
        return ""


def family_of(expr_text: str) -> Optional[str]:
    """Classify an acquired lock expression into a family, or None."""
    for fragment, family in trustmap.LOCK_FAMILY_PATTERNS:
        if fragment in expr_text:
            return family
    return None


def _order_index(family: str) -> int:
    try:
        return trustmap.LOCK_ORDER.index(family)
    except ValueError:
        return len(trustmap.LOCK_ORDER)


class _ClassAnalysis:
    """Interprocedural walk of one class's methods."""

    def __init__(
        self,
        path: str,
        klass: ast.ClassDef,
        findings: List[Finding],
        edges: Set[Tuple[str, str]],
        edge_sites: Dict[Tuple[str, str], Tuple[str, int]],
    ) -> None:
        self.path = path
        self.klass = klass
        self.findings = findings
        self.edges = edges
        self.edge_sites = edge_sites
        self.methods: Dict[str, ast.AST] = {
            stmt.name: stmt
            for stmt in klass.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.guarded = trustmap.GUARDED_ATTRS.get(klass.name, {})
        # Guarded attributes of *other* classes this class manipulates
        # (e.g. the pool mutating _WorkerHandle counters).
        self.foreign_guarded: Dict[str, str] = {}
        for name, attrs in trustmap.GUARDED_ATTRS.items():
            if name != klass.name:
                self.foreign_guarded.update(attrs)
        self._memo: Set[Tuple[str, FrozenSet[str]]] = set()
        self._reported: Set[Tuple[int, str]] = set()

    # -- public driver -------------------------------------------------------
    def run(self) -> None:
        for name, func in self.methods.items():
            if name.startswith("_"):
                continue
            if name in trustmap.CONSTRUCTION_METHODS:
                continue
            self._run_method(name, frozenset(), depth=0)

    # -- helpers -------------------------------------------------------------
    def _report(self, line: int, message: str) -> None:
        if (line, message) in self._reported:
            return
        self._reported.add((line, message))
        self.findings.append(Finding(RULE, self.path, line, message))

    def _guard_family(self, attr: str) -> Optional[str]:
        if attr in self.guarded:
            return self.guarded[attr]
        return self.foreign_guarded.get(attr)

    def _record_edge(self, holder: str, acquired: str, line: int) -> None:
        self.edges.add((holder, acquired))
        self.edge_sites.setdefault((holder, acquired), (self.path, line))
        if _order_index(holder) > _order_index(acquired):
            self._report(
                line,
                f"lock family `{acquired}` acquired while holding "
                f"`{holder}`; the pinned order is "
                + " < ".join(trustmap.LOCK_ORDER),
            )

    # -- method walk ---------------------------------------------------------
    def _run_method(
        self, name: str, held: FrozenSet[str], depth: int
    ) -> None:
        key = (name, held)
        if key in self._memo or depth > _MAX_CALL_DEPTH:
            return
        self._memo.add(key)
        func = self.methods[name]
        assigns = {
            t.id: stmt.value
            for stmt in ast.walk(func)
            if isinstance(stmt, ast.Assign)
            for t in stmt.targets
            if isinstance(t, ast.Name)
        }
        self._walk_body(list(func.body), set(held), assigns, depth, in_loop=False)

    def _walk_body(
        self,
        body: List[ast.stmt],
        held: Set[str],
        assigns: Dict[str, ast.AST],
        depth: int,
        in_loop: bool,
        ascending_loop: bool = False,
    ) -> None:
        for stmt in body:
            self._walk_stmt(stmt, held, assigns, depth, in_loop, ascending_loop)

    def _shallow_exprs(self, stmt: ast.stmt) -> List[ast.AST]:
        """Expression parts of ``stmt`` that execute at *this* nesting
        level — compound statements' bodies are walked separately, so
        only their headers (test/iter/context) are examined here."""
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return [item.context_expr for item in stmt.items]
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        if isinstance(stmt, (ast.While, ast.If)):
            return [stmt.test]
        if isinstance(stmt, ast.Try):
            return []
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return []
        return [stmt]

    def _walk_stmt(
        self,
        stmt: ast.stmt,
        held: Set[str],
        assigns: Dict[str, ast.AST],
        depth: int,
        in_loop: bool,
        ascending_loop: bool,
    ) -> None:
        shallow = self._shallow_exprs(stmt)
        self._check_mutations(stmt, held)
        for node in shallow:
            self._check_calls(node, held, depth, in_loop, ascending_loop)
        if isinstance(stmt, ast.With):
            inner = set(held)
            for item in stmt.items:
                family = family_of(_unparse(item.context_expr))
                if family is None:
                    continue
                self._acquire(
                    family, inner, stmt.lineno, via_stack=False,
                    ascending_loop=False,
                )
                inner.add(family)
            self._walk_body(
                list(stmt.body), inner, assigns, depth, in_loop, ascending_loop
            )
        elif isinstance(stmt, ast.If):
            self._walk_body(list(stmt.body), set(held), assigns, depth, in_loop, ascending_loop)
            self._walk_body(list(stmt.orelse), set(held), assigns, depth, in_loop, ascending_loop)
        elif isinstance(stmt, (ast.For, ast.While)):
            ascending = ascending_loop
            if isinstance(stmt, ast.For):
                ascending = self._iterable_is_ascending(stmt.iter, assigns)
            # enter_context acquisitions persist past the loop body, so
            # walk with a shared held-set.
            self._walk_body(
                list(stmt.body), held, assigns, depth, in_loop=True,
                ascending_loop=ascending,
            )
            self._walk_body(
                list(stmt.orelse), held, assigns, depth, in_loop, ascending_loop
            )
        elif isinstance(stmt, ast.Try):
            for sub in (
                [list(stmt.body)]
                + [list(h.body) for h in stmt.handlers]
                + [list(stmt.orelse), list(stmt.finalbody)]
            ):
                self._walk_body(sub, set(held), assigns, depth, in_loop, ascending_loop)

    def _iterable_is_ascending(
        self, iter_node: ast.AST, assigns: Dict[str, ast.AST]
    ) -> bool:
        text = _unparse(iter_node)
        if text in trustmap.ASCENDING_ITERABLES:
            return True
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in ("sorted", "range", "enumerate")
        ):
            return True
        if isinstance(iter_node, ast.Name):
            value = assigns.get(iter_node.id)
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("sorted", "range")
            ):
                return True
        return False

    def _acquire(
        self,
        family: str,
        held: Set[str],
        line: int,
        via_stack: bool,
        ascending_loop: bool,
    ) -> None:
        for holder in held:
            if holder == family:
                if family == "worker" and via_stack and ascending_loop:
                    continue  # proven ascending multi-acquisition
                self._report(
                    line,
                    f"second `{family}` lock acquired while one is already "
                    "held; multiple worker locks must come from an "
                    "ExitStack loop over sorted(...) or self.workers "
                    "(ascending partition index)",
                )
            else:
                self._record_edge(holder, family, line)

    def _check_calls(
        self,
        root: ast.AST,
        held: Set[str],
        depth: int,
        in_loop: bool,
        ascending_loop: bool,
    ) -> None:
        for node in ast.walk(root):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # stack.enter_context(<lock>) — persistent acquisition.
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "enter_context"
                and node.args
            ):
                family = family_of(_unparse(node.args[0]))
                if family is not None:
                    if family == "worker" and in_loop and not ascending_loop:
                        self._report(
                            node.lineno,
                            "worker locks acquired in a loop whose iterable "
                            "is not provably ascending; iterate "
                            "sorted(...) or self.workers",
                        )
                    self._acquire(
                        family, held, node.lineno, via_stack=True,
                        ascending_loop=ascending_loop,
                    )
                    held.add(family)
                continue
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else None
            )
            if name in trustmap.IMPLIED_WORKER_ACQUIRE:
                if held:
                    for holder in held:
                        if holder != "worker":
                            self._record_edge(holder, "worker", node.lineno)
                continue
            # self.method(...) — propagate the held set into the callee.
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and name in self.methods
            ):
                self._run_method_at(name, frozenset(held), depth + 1)

    def _run_method_at(
        self, name: str, held: FrozenSet[str], depth: int
    ) -> None:
        key = (name, held)
        if key in self._memo or depth > _MAX_CALL_DEPTH:
            return
        self._memo.add(key)
        func = self.methods[name]
        assigns = {
            t.id: stmt.value
            for stmt in ast.walk(func)
            if isinstance(stmt, ast.Assign)
            for t in stmt.targets
            if isinstance(t, ast.Name)
        }
        self._walk_body(list(func.body), set(held), assigns, depth, in_loop=False)

    # -- guarded shared-state mutations --------------------------------------
    def _check_mutations(self, stmt: ast.stmt, held: Set[str]) -> None:
        targets: List[Tuple[str, int]] = []
        if isinstance(stmt, (ast.Assign, ast.AugAssign)):
            raw_targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in raw_targets:
                if isinstance(target, ast.Attribute):
                    targets.append((target.attr, stmt.lineno))
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        if isinstance(elt, ast.Attribute):
                            targets.append((elt.attr, stmt.lineno))
        # container mutations: self._degraded.add(...), etc. — only at
        # this nesting level (bodies are walked separately).
        for root in self._shallow_exprs(stmt):
            for node in ast.walk(root):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATING_CONTAINER_METHODS
                    and isinstance(node.func.value, ast.Attribute)
                ):
                    targets.append((node.func.value.attr, node.lineno))
        for attr, line in targets:
            family = self._guard_family(attr)
            if family is None:
                continue
            if family not in held:
                self._report(
                    line,
                    f"shared state `{attr}` mutated without holding its "
                    f"`{family}` lock (concurrent parent threads may race)",
                )


def run_module(
    path: str,
    tree: ast.Module,
    edges: Set[Tuple[str, str]],
    edge_sites: Dict[Tuple[str, str], Tuple[str, int]],
) -> List[Finding]:
    if not trustmap.is_lock_module(path):
        return []
    findings: List[Finding] = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            _ClassAnalysis(path, stmt, findings, edges, edge_sites).run()
    return findings


def cycle_findings(
    edges: Set[Tuple[str, str]],
    edge_sites: Dict[Tuple[str, str], Tuple[str, int]],
) -> List[Finding]:
    """Detect cycles in the global lock-acquisition graph."""
    graph: Dict[str, Set[str]] = {}
    for holder, acquired in edges:
        graph.setdefault(holder, set()).add(acquired)

    findings: List[Finding] = []
    visiting: List[str] = []
    done: Set[str] = set()

    def dfs(node: str) -> None:
        if node in done:
            return
        if node in visiting:
            cycle = visiting[visiting.index(node) :] + [node]
            edge = (cycle[0], cycle[1])
            path, line = edge_sites.get(edge, ("<lock-graph>", 0))
            findings.append(
                Finding(
                    RULE,
                    path,
                    line,
                    "lock-acquisition cycle: " + " -> ".join(cycle),
                )
            )
            return
        visiting.append(node)
        for succ in sorted(graph.get(node, ())):
            dfs(succ)
        visiting.pop()
        done.add(node)

    for node in sorted(graph):
        dfs(node)
    return findings
