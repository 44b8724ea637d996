"""shieldlint: repo-specific static analysis for the ShieldStore tree.

The paper's security argument (§3) rests on invariants the code could
silently break: plaintext never flows from enclave code into untrusted
memory or transports, untrusted entries are MAC-verified before use,
and the multiprocess engine's locks are taken in one pinned order.
This package turns those invariants into executable AST checks:

* :mod:`repro.analysis.taint`     — trust-boundary taint pass (rule
  ``trust-boundary``): plaintext-bearing values in trusted modules must
  pass through an encrypt/seal/MAC call before reaching an untrusted
  sink (pipe, socket, untrusted memory write, log, exception message);
* :mod:`repro.analysis.verifyuse` — verify-before-use pass (rule
  ``verify-before-use``): decrypted untrusted-memory data must be
  covered by a verification call before it escapes a public API or
  feeds a mutation of the authenticated structure;
* :mod:`repro.analysis.lockorder` — lock-order pass (rule
  ``lock-order``): extracts the lock-acquisition graph of the
  concurrent modules, pins the documented ascending-worker-lock order,
  and flags unguarded mutation of shared pool state.

The **shieldcrypt** rule family covers the key schedule and nonce
discipline (§4.2's encryption is only as strong as its IVs):

* :mod:`repro.analysis.cryptomap`  — key-domain registry (rule
  ``key-domain``): every ``derive_key`` label in the tree must match a
  registered domain; the registry itself is proven collision-free,
  prefix-free and purpose-unique, and persistent domains must bind an
  incarnation component or declare an incarnation-unique IV regime;
* :mod:`repro.analysis.noncereuse` — nonce monotonicity (rule
  ``nonce-reuse``): counters feeding CTR IVs in the crypto-bearing
  modules may only grow; a reset or decrement without a key rotation
  in the same function is flagged;
* :mod:`repro.analysis.consttime`  — constant-time comparisons (rule
  ``ct-compare``): MAC/tag/token/digest values must be compared with
  ``hmac.compare_digest``, never ``==``/``!=``.

:mod:`repro.analysis.sanitizer` is the runtime counterpart: an opt-in
hook (``SHIELDSTORE_CRYPTO_SANITIZER=1``) that journals every
``(key, IV-counter-span)`` a cipher suite consumes and raises
:class:`repro.errors.NonceReuseError` on any overlap — across worker
respawns and snapshot/WAL restores too, via per-process journals and
:func:`repro.analysis.sanitizer.global_check`.

Run it with ``python -m repro lint``; see ``docs/INTERNALS.md`` for the
trust map, per-rule examples, and the suppression syntax
(``# shieldlint: ignore[rule] -- justification``).
"""

import importlib
from typing import Any

# Resolved on first use (PEP 562): every serving process runs this file
# (``crypto/suite.py`` imports the sanitizer), only ``repro lint`` and
# the tests need the engine and rule modules behind these names.
_LAZY = {
    "key_domain_table": "repro.analysis.cryptomap",
    "ALL_RULES": "repro.analysis.engine",
    "RULE_DOCS": "repro.analysis.engine",
    "AnalysisError": "repro.analysis.engine",
    "Report": "repro.analysis.engine",
    "run_analysis": "repro.analysis.engine",
    "Finding": "repro.analysis.findings",
}


def __getattr__(name: str) -> Any:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_LAZY[name]), name)


__all__ = [
    "ALL_RULES",
    "RULE_DOCS",
    "AnalysisError",
    "Finding",
    "Report",
    "key_domain_table",
    "run_analysis",
]
