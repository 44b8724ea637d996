"""The adversary of the paper's threat model (§3.3).

The attacker controls privileged software and has physical access to
DRAM: it can read and modify any byte of *untrusted* memory (cold-boot,
bus probing, malicious kernel), but the processor package is trusted, so
enclave memory is out of reach — attempting it raises
:class:`~repro.errors.EnclaveError`, mirroring the hardware abort.

Security tests drive this class to mount the attacks the paper defends
against: entry tampering, stale-entry replay, key-hint corruption
(availability, §5.4), and chain-pointer redirection into the enclave
range (§7).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import EnclaveError
from repro.sim.memory import REGION_UNTRUSTED, SimMemory


class Attacker:
    """Privileged adversary with full access to untrusted memory."""

    def __init__(self, memory: SimMemory):
        self._memory = memory

    def read(self, addr: int, size: int) -> bytes:
        """Dump untrusted bytes.  The enclave refusal is this check, standing in
        for the hardware: ``raw_read`` / ``raw_write`` underneath have none."""
        if self._memory.in_enclave_range(addr):
            raise EnclaveError(
                "attacker cannot read enclave memory: EPC is encrypted and "
                "integrity-protected by the processor"
            )
        return self._memory.raw_read(addr, size)

    def write(self, addr: int, data: bytes) -> None:
        """Overwrite untrusted bytes."""
        if self._memory.in_enclave_range(addr):
            raise EnclaveError(
                "attacker cannot write enclave memory: the MEE would detect it"
            )
        self._memory.raw_write(addr, data)

    def flip_bit(self, addr: int, bit: int = 0) -> None:
        """Flip one bit at ``addr`` (classic tampering probe)."""
        byte = self.read(addr, 1)[0]
        self.write(addr, bytes([byte ^ (1 << (bit & 7))]))

    def snapshot(self, addr: int, size: int) -> Tuple[int, bytes]:
        """Record bytes for a later replay."""
        return addr, self.read(addr, size)

    def replay(self, recorded: Tuple[int, bytes]) -> None:
        """Write previously recorded bytes back (rollback/replay attack)."""
        addr, data = recorded
        self.write(addr, data)

    def untrusted_allocations(self) -> List[Tuple[int, int]]:
        """Enumerate (base, size) of all untrusted allocations — the
        attacker can scan physical memory, so layout is not a secret."""
        return sorted(
            (a.base, a.size)
            for a in self._memory._allocs.values()
            if a.region == REGION_UNTRUSTED
        )
