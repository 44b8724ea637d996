"""Shared last-level cache model.

The i7-7700's 8 MB L3 is the reason skewed workloads stay fast even when
the backing structure pages or decrypts expensively: a line resident in
the LLC is served on-chip — no DRAM access, no MEE, no EPC fault (SGX
data is plaintext inside the cache hierarchy, §2.1).  The model is a
plain LRU over 64-byte line tags, shared by all threads of a machine.

:class:`~repro.sim.memory.SimMemory` applies the hit arm of
:meth:`LLCache.access` to ``lines`` in its own frame (one call per
cacheline was the largest host cost of the simulator); misses, and
everyone else, go through ``access``.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.sim.cycles import CACHELINE, CostModel


class LLCache:
    """LRU tag store for the shared last-level cache."""

    def __init__(self, cost: CostModel):
        self.capacity_lines = max(16, cost.llc_bytes // CACHELINE)
        self.lines: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, line: int) -> bool:
        """Touch one line tag; returns True on hit."""
        lines = self.lines
        if line in lines:
            lines.move_to_end(line)
            self.hits += 1
            return True
        if len(lines) >= self.capacity_lines:
            lines.popitem(last=False)
        lines[line] = None
        self.misses += 1
        return False

    def flush(self) -> None:
        """Drop all cached tags."""
        self.lines.clear()
