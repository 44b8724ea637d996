"""Import path of :class:`~repro.sim.attestation.AttestationService` for
shieldbench, and nothing else.

``benchmarks/shieldbench/{harness,serve_child,traced}.py`` import the
class from here and only a benchmark PR may edit them; the one that
re-points them at :mod:`repro.sim` deletes this module.  The served
session itself is ``tcp._Conn.channel``, keyed by
:func:`repro.sim.attestation.derive_session_suite`.
"""

from repro.sim.attestation import AttestationService

__all__ = ["AttestationService"]
