"""Trust-boundary taint pass (rule ``trust-boundary``).

A forward, intraprocedural may-taint analysis over every function of a
trusted or boundary module.  *Taint* marks values that carry enclave
plaintext: client keys/values entering the trusted API surface,
results of decrypt/unseal calls, and in-enclave key material.

Taint propagates through assignments, arithmetic/concatenation,
subscripts, f-strings and ordinary calls; it is *cleared* by sanitizers
(encrypt/seal/MAC/keyed-hash — their outputs are safe ciphertext or
digests) and by declassifiers (``len`` and friends, which keep no
plaintext bytes).  A finding is emitted when a tainted expression is an
argument of an untrusted sink:

* pipe/socket sends (``send_bytes``, ``sendall``, ``_send_frame``...);
* writes into simulated memory (``mem.write`` / ``raw_write`` — the
  store's table lives in the untrusted region);
* subscript stores into shared memory (``self.shm[a:b] = x`` — the
  ring buffers of the shm data plane are host-visible);
* host-visible output (``print``, ``logging``);
* exception constructors — raised errors cross the worker pipe and can
  reach logs, so their messages must not embed plaintext.

Branches merge with set-union (may-analysis): a value tainted on any
path is treated as tainted afterwards.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis import trustmap
from repro.analysis.findings import Finding

RULE = "trust-boundary"
DOC_URL = "docs/INTERNALS.md#static-analysis-shieldlint"
REMEDIATION = (
    "Pass the value through an encrypt/seal/MAC call before it reaches "
    "an untrusted sink, or reclassify the module in trustmap if the "
    "data is genuinely public."
)


def _call_name(call: ast.Call) -> Optional[str]:
    """The called attribute or plain name, if syntactically evident."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _receiver_text(call: ast.Call) -> str:
    if isinstance(call.func, ast.Attribute):
        try:
            return ast.unparse(call.func.value)
        except Exception:  # pragma: no cover - unparse is total on asts
            return ""
    return ""


def _is_sanitizer(call: ast.Call) -> bool:
    name = _call_name(call)
    if name in trustmap.SANITIZER_METHODS:
        # ``seal``/``mac``... are attribute calls on suites/channels;
        # a bare name of the same spelling still counts (helpers).
        return True
    return False


def _is_source(call: ast.Call) -> bool:
    name = _call_name(call)
    if name not in trustmap.TAINT_SOURCE_METHODS:
        return False
    # Only attribute calls: the builtin ``open(path)`` is a plain name.
    return isinstance(call.func, ast.Attribute)


def _is_declassifier(call: ast.Call) -> bool:
    return (
        isinstance(call.func, ast.Name)
        and call.func.id in trustmap.DECLASSIFIERS
    )


def _sink_label(call: ast.Call) -> Optional[str]:
    """Non-None when ``call`` moves bytes out of the trusted domain."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id in trustmap.SINK_FUNCTIONS:
            return func.id
        return None
    if not isinstance(func, ast.Attribute):
        return None
    name = func.attr
    if name in trustmap.SINK_METHODS:
        return f"{_receiver_text(call)}.{name}"
    if name in trustmap.LOG_METHODS:
        receiver = _receiver_text(call)
        if "log" in receiver.lower():
            return f"{receiver}.{name}"
        return None
    if name == "write":
        receiver = _receiver_text(call)
        lowered = receiver.lower()
        if any(hint in lowered for hint in trustmap.WRITE_SINK_RECEIVER_HINT):
            return f"{receiver}.write"
    return None


def _shm_store_label(target: ast.expr) -> Optional[str]:
    """Non-None when an assignment target stores into shared memory."""
    if not isinstance(target, ast.Subscript):
        return None
    try:
        receiver = ast.unparse(target.value)
    except Exception:  # pragma: no cover - unparse is total on asts
        return None
    lowered = receiver.lower()
    if any(hint in lowered for hint in trustmap.SHM_SINK_RECEIVER_HINT):
        return receiver
    return None


class _FunctionTaint:
    """Taint state and finding collection for one function body."""

    def __init__(
        self, path: str, findings: List[Finding], trusted: bool
    ) -> None:
        self.path = path
        self.findings = findings
        self.trusted = trusted
        self.tainted: Set[str] = set()

    # -- expression query ----------------------------------------------------
    def is_tainted(self, node: Optional[ast.AST]) -> bool:
        if node is None:
            return False
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Attribute):
            if node.attr in trustmap.SECRET_ATTRS:
                return True
            return self.is_tainted(node.value)
        if isinstance(node, ast.Call):
            if _is_source(node):
                return True
            if _is_sanitizer(node) or _is_declassifier(node):
                return False
            # a method call on a tainted receiver keeps its bytes
            # (``record.encode()``, ``value.hex()``)
            if isinstance(node.func, ast.Attribute) and self.is_tainted(
                node.func.value
            ):
                return True
            return any(self.is_tainted(a) for a in node.args) or any(
                self.is_tainted(kw.value) for kw in node.keywords
            )
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            return False  # boolean results carry no plaintext bytes
        if isinstance(node, ast.IfExp):
            return self.is_tainted(node.body) or self.is_tainted(node.orelse)
        if isinstance(node, ast.JoinedStr):
            return any(self.is_tainted(v) for v in node.values)
        if isinstance(node, ast.FormattedValue):
            return self.is_tainted(node.value)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return any(self.is_tainted(e) for e in node.elts)
        if isinstance(node, ast.Dict):
            return any(self.is_tainted(v) for v in node.values if v) or any(
                self.is_tainted(k) for k in node.keys if k
            )
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.is_tainted(node.elt) or any(
                self.is_tainted(g.iter) for g in node.generators
            )
        if isinstance(node, ast.DictComp):
            return (
                self.is_tainted(node.key)
                or self.is_tainted(node.value)
                or any(self.is_tainted(g.iter) for g in node.generators)
            )
        if isinstance(node, ast.BinOp):
            return self.is_tainted(node.left) or self.is_tainted(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.is_tainted(node.operand)
        if isinstance(node, ast.Subscript):
            return self.is_tainted(node.value)
        if isinstance(node, ast.Starred):
            return self.is_tainted(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom, ast.Yield)):
            return self.is_tainted(getattr(node, "value", None))
        if isinstance(node, ast.Slice):
            return False
        if isinstance(node, ast.Constant):
            return False
        # Conservative default for rarely-seen nodes: not tainted.
        return False

    # -- sink checks ---------------------------------------------------------
    def check_sinks(self, stmt: ast.stmt) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                label = _sink_label(node)
                if label is None:
                    continue
                args = list(node.args) + [kw.value for kw in node.keywords]
                if any(self.is_tainted(a) for a in args):
                    self.findings.append(
                        Finding(
                            RULE,
                            self.path,
                            node.lineno,
                            f"plaintext-bearing value reaches untrusted sink "
                            f"`{label}` without passing through an "
                            "encrypt/seal/MAC call",
                        )
                    )

    def check_shm_store(self, targets: List[ast.expr], value: ast.expr) -> None:
        """Flag tainted subscript stores into shared-memory buffers."""
        for target in targets:
            label = _shm_store_label(target)
            if label is not None and self.is_tainted(value):
                self.findings.append(
                    Finding(
                        RULE,
                        self.path,
                        target.lineno,
                        f"plaintext-bearing value stored into host-visible "
                        f"shared memory `{label}[...]` without passing "
                        "through an encrypt/seal/MAC call",
                    )
                )

    def check_raise(self, stmt: ast.Raise) -> None:
        exc = stmt.exc
        if exc is None:
            return
        if isinstance(exc, ast.Call):
            args = list(exc.args) + [kw.value for kw in exc.keywords]
            if any(self.is_tainted(a) for a in args):
                self.findings.append(
                    Finding(
                        RULE,
                        self.path,
                        stmt.lineno,
                        "plaintext-bearing value embedded in an exception: "
                        "error messages cross the worker pipe and host logs; "
                        "redact with keyring.redact() or drop the value",
                    )
                )

    # -- assignment / statement processing ----------------------------------
    def _assign_target(self, target: ast.expr, tainted: bool) -> None:
        if isinstance(target, ast.Name):
            if tainted:
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, tainted)
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, tainted)
        # attribute/subscript stores: no per-name tracking

    def run_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self.run_stmt(stmt)

    def run_stmt(self, stmt: ast.stmt) -> None:
        self.check_sinks(stmt)
        if isinstance(stmt, ast.Raise):
            self.check_raise(stmt)
            return
        if isinstance(stmt, ast.Assign):
            self.check_shm_store(stmt.targets, stmt.value)
            tainted = self.is_tainted(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, tainted)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.check_shm_store([stmt.target], stmt.value)
                self._assign_target(stmt.target, self.is_tainted(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self.check_shm_store([stmt.target], stmt.value)
            already = self.is_tainted(stmt.target)
            self._assign_target(
                stmt.target, already or self.is_tainted(stmt.value)
            )
        elif isinstance(stmt, ast.If):
            self._run_branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._assign_target(stmt.target, self.is_tainted(stmt.iter))
            # Two passes reach loop-carried taint; union keeps may-taint.
            for _ in range(2):
                self._run_branches([stmt.body])
            self._run_branches([stmt.orelse])
        elif isinstance(stmt, ast.While):
            for _ in range(2):
                self._run_branches([stmt.body])
            self._run_branches([stmt.orelse])
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._assign_target(
                        item.optional_vars, self.is_tainted(item.context_expr)
                    )
            self.run_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._run_branches(
                [stmt.body]
                + [h.body for h in stmt.handlers]
                + [stmt.orelse, stmt.finalbody]
            )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            analyze_function(stmt, self.path, self.findings, self.trusted)
        # Return / Expr / Pass / Delete / imports: sinks already checked.

    def _run_branches(self, branches: List[List[ast.stmt]]) -> None:
        """Run each branch from the current state; merge with union."""
        before = set(self.tainted)
        merged = set(before)
        for body in branches:
            if not body:
                continue
            self.tainted = set(before)
            self.run_body(body)
            merged |= self.tainted
        self.tainted = merged


def analyze_function(
    func: ast.AST, path: str, findings: List[Finding], trusted: bool
) -> None:
    state = _FunctionTaint(path, findings, trusted)
    if trusted:
        args = func.args
        params = (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        )
        for param in params:
            if param.arg in trustmap.PLAINTEXT_PARAMS or param.arg in (
                "items",
                "keys",
            ):
                state.tainted.add(param.arg)
    state.run_body(list(func.body))


def run(path: str, tree: ast.Module) -> List[Finding]:
    """Run the taint pass over one trusted or boundary module."""
    trusted = trustmap.is_trusted(path)
    if not trusted and not trustmap.is_boundary(path):
        return []
    findings: List[Finding] = []

    module_state = _FunctionTaint(path, findings, trusted)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            analyze_function(stmt, path, findings, trusted)
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    analyze_function(sub, path, findings, trusted)
                else:
                    module_state.run_stmt(sub)
        else:
            module_state.run_stmt(stmt)
    return findings
