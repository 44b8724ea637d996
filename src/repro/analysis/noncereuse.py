"""Nonce-reuse must-analysis (rule ``nonce-reuse``).

CTR-mode confidentiality dies the moment a (key, counter-block) pair
repeats: XORing two ciphertexts under the same keystream yields the XOR
of the plaintexts.  The modules that hold counter state — the cipher
substrate, the secure channels, the WAL, the shm rings, the store's IV
allocator and the sealing service — therefore treat every sequence
number and counter as a *monotone lattice value*: it may only move up
while its key lives, and may only return to zero together with a key
rotation.

The pass checks that discipline syntactically, per function, over the
modules listed in :data:`NONCE_MODULES`:

* **reset without rotation** — an assignment of a constant to a
  counter-named attribute (``self._seq = 0``) outside ``__init__`` is
  flagged unless the same function also rotates key material (assigns a
  ``*suite*``/``*key*`` attribute or calls a rekey/rotate helper): the
  counter restarted but the key did not change.
* **counter decrement** — ``-=`` or ``x = x - n`` on a counter-named
  attribute can never be monotone.
* **single-block IV stepping** — a bare ``increment_iv_ctr(iv)`` call
  outside the defining module advances the combined IV/counter by ONE
  keystream block, which only yields a fresh (key, IV) span for
  payloads of at most one block; multi-block payloads overlap the
  previous span.  Callers must advance by the payload's block count or
  allocate from a monotone per-instance allocator.

Counter-ness is name-based: an attribute whose ``_``-split components
contain one of :data:`COUNTER_TOKENS` (``seq``, ``ctr``, ``counter``).
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.findings import Finding

RULE = "nonce-reuse"
DOC_URL = "docs/INTERNALS.md#nonce-monotonicity-nonce-reuse"
REMEDIATION = (
    "counters only reset together with a key rotation; advance IVs by "
    "the payload's block count, never by a fixed single block"
)

# Modules whose counter discipline the pass enforces (repo-relative).
NONCE_MODULES = (
    "crypto/ctr.py",
    "crypto/suite.py",
    "crypto/fast.py",
    "net/message.py",
    "core/wal.py",
    "core/shmring.py",
    "core/store.py",
    "sim/sealing.py",
)

# The module that *defines* increment_iv_ctr (exempt from the
# single-block-stepping check — it implements the primitive).
_DEFINING_MODULE = "crypto/ctr.py"

COUNTER_TOKENS = frozenset({"seq", "ctr", "counter"})

# Attribute-name fragments whose assignment counts as key rotation.
_ROTATION_FRAGMENTS = ("suite", "key")

# Called names that rotate key material.
_ROTATION_CALLS = frozenset(
    {"rekey", "rotate", "_suite_for", "_derive_channel", "make_suite"}
)

# Methods that may initialize counters from scratch: the object is not
# yet shared and its key material is being set up in the same breath.
_CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "reset", "close"})


def is_nonce_module(path: str) -> bool:
    return path in NONCE_MODULES


def _is_counter_attr(node: ast.expr) -> Optional[str]:
    """The attribute name when ``node`` is a counter-named attribute."""
    if not isinstance(node, ast.Attribute):
        return None
    parts = [p for p in node.attr.lower().split("_") if p]
    if any(part in COUNTER_TOKENS for part in parts):
        return node.attr
    return None


def _rotates_keys(func: ast.AST) -> bool:
    """Does this function also rotate key material somewhere?"""
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Attribute) and any(
                    fragment in target.attr.lower()
                    for fragment in _ROTATION_FRAGMENTS
                ):
                    return True
        if isinstance(node, ast.Call):
            func_node = node.func
            name = (
                func_node.attr
                if isinstance(func_node, ast.Attribute)
                else func_node.id
                if isinstance(func_node, ast.Name)
                else None
            )
            if name in _ROTATION_CALLS:
                return True
    return False


def _decrements(value: ast.expr, target: ast.Attribute) -> bool:
    """Is ``value`` of the form ``<target> - k``?"""
    if not isinstance(value, ast.BinOp) or not isinstance(value.op, ast.Sub):
        return False
    left = value.left
    return (
        isinstance(left, ast.Attribute) and left.attr == target.attr
    )


def _check_function(path: str, func: ast.AST, name: str) -> List[Finding]:
    findings: List[Finding] = []
    exempt_reset = name in _CONSTRUCTION_METHODS
    rotates = _rotates_keys(func)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = (
                    _is_counter_attr(target)
                    if isinstance(target, ast.Attribute)
                    else None
                )
                if attr is None:
                    continue
                assert isinstance(target, ast.Attribute)
                if (
                    isinstance(node.value, ast.Constant)
                    and not exempt_reset
                    and not rotates
                ):
                    findings.append(
                        Finding(
                            RULE,
                            path,
                            node.lineno,
                            f"counter {attr!r} reset to a constant in "
                            f"{name}() without rotating key material: the "
                            "next seal reuses (key, IV) pairs",
                        )
                    )
                if _decrements(node.value, target):
                    findings.append(
                        Finding(
                            RULE,
                            path,
                            node.lineno,
                            f"counter {attr!r} decremented in {name}(): "
                            "counters are monotone while their key lives",
                        )
                    )
        elif isinstance(node, ast.AugAssign):
            attr = (
                _is_counter_attr(node.target)
                if isinstance(node.target, ast.Attribute)
                else None
            )
            if attr is not None and isinstance(node.op, ast.Sub):
                findings.append(
                    Finding(
                        RULE,
                        path,
                        node.lineno,
                        f"counter {attr!r} decremented in {name}(): "
                        "counters are monotone while their key lives",
                    )
                )
        elif isinstance(node, ast.Call):
            func_node = node.func
            called = (
                func_node.id
                if isinstance(func_node, ast.Name)
                else func_node.attr
                if isinstance(func_node, ast.Attribute)
                else None
            )
            if (
                called == "increment_iv_ctr"
                and path != _DEFINING_MODULE
                and len(node.args) == 1
                and not node.keywords
            ):
                findings.append(
                    Finding(
                        RULE,
                        path,
                        node.lineno,
                        "increment_iv_ctr(iv) advances ONE keystream "
                        "block; a multi-block payload overlaps the "
                        "previous span — advance by the payload's block "
                        "count or use a per-instance IV allocator",
                    )
                )
    return findings


def run(path: str, tree: ast.AST) -> List[Finding]:
    """Check one module's counter discipline (no-op outside the scope)."""
    if not is_nonce_module(path):
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(_check_function(path, node, node.name))
    return findings
