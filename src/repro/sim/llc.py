"""Shared last-level cache model.

The i7-7700's 8 MB L3 is the reason skewed workloads stay fast even when
the backing structure pages or decrypts expensively: a line resident in
the LLC is served on-chip — no DRAM access, no MEE, no EPC fault (SGX
data is plaintext inside the cache hierarchy, §2.1).  The model is one
exact LRU over 64-byte line tags, shared by all threads of a machine.
Until its first eviction it is ``stamps``: per group of ``GROUP_LINES``
lines an ``array('q')`` of last-touch stamps (0 = absent; each touch
takes the next ``touches``), ≈ 20 B of host heap per tag where an
``OrderedDict`` node costs ≈ 130 B, and nothing reads the order.  The
first eviction sorts the resident lines by stamp into ``lines``, an
``OrderedDict`` in exactly the LRU order those touches left, which it
stays until :meth:`LLCache.flush`; ``lines is None`` tells the two apart.

:class:`~repro.sim.memory.SimMemory` applies the hit arm of
:meth:`LLCache.access` in its own frame to an access of one or two lines
(one call per cacheline was the largest host cost of the simulator);
misses, and everyone else, go through ``access``.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Dict, Optional

from repro.sim.cycles import CACHELINE, CostModel

GROUP_SHIFT = 4  # 16-line groups keep a fill of one line per page within 3x the OrderedDict
GROUP_MASK = (1 << GROUP_SHIFT) - 1
ABSENT = array("q", bytes(8 << GROUP_SHIFT))  # the group no line is in; never written


class LLCache:
    """LRU tag store for the shared last-level cache."""

    __slots__ = ("capacity_lines", "stamps", "lines", "touches", "resident", "hits", "misses")

    def __init__(self, cost: CostModel):
        self.capacity_lines = max(16, cost.llc_bytes // CACHELINE)
        self.stamps: Dict[int, array] = {}
        self.lines: Optional["OrderedDict[int, None]"] = None
        self.touches = 0
        self.resident = 0  # lines in ``stamps``
        self.hits = 0
        self.misses = 0

    def access(self, line: int) -> bool:
        """Touch one line tag; returns True on hit."""
        lines = self.lines
        if lines is None:
            group = self.stamps.get(line >> GROUP_SHIFT)
            if group is None:
                group = self.stamps[line >> GROUP_SHIFT] = ABSENT[:]
            elif group[line & GROUP_MASK]:
                self.touches = group[line & GROUP_MASK] = self.touches + 1
                self.hits += 1
                return True
            if self.resident < self.capacity_lines:
                self.touches = group[line & GROUP_MASK] = self.touches + 1
                self.resident += 1
                self.misses += 1
                return False
            # The first eviction: resident lines, least recently touched first.
            by_stamp = sorted(
                (stamp, key << GROUP_SHIFT | offset)
                for key, held in self.stamps.items()
                for offset, stamp in enumerate(held)
                if stamp
            )
            lines = OrderedDict.fromkeys(tag for _, tag in by_stamp)
            self.flush()
            self.lines = lines
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
        self.stamps.clear()
        self.lines = None
        self.resident = 0
