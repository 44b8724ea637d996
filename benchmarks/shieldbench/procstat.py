"""CPU time, peak memory and liveness of a process tree, from /proc."""

from __future__ import annotations

import os
import time
from typing import List

_TICK = os.sysconf("SC_CLK_TCK")


def tree_pids(root: int) -> List[int]:
    """``root`` and every live descendant."""
    pids, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        pids.append(pid)
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{pid}/task/{task}/children") as fh:
                    frontier.extend(int(child) for child in fh.read().split())
            except OSError:
                pass
    return pids


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as fh:
        # The command name may hold spaces; fields resume after ")".
        return fh.read().rsplit(")", 1)[1].split()


def cpu_seconds(pids: List[int]) -> float:
    """CPU seconds (user plus system) the processes' live threads have
    used so far.

    Read from each task's ``schedstat`` (nanoseconds on the CPU): the
    ``utime``/``stime`` of ``stat`` tick at 10 ms, which is a percent of
    a one-second segment.  Falls back to the ticks where the kernel
    keeps no schedstats.
    """
    total = 0.0
    for pid in pids:
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
            nanos = 0
            for task in tasks:
                with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
                    nanos += int(fh.read().split()[0])
            total += nanos / 1e9
        except (OSError, ValueError, IndexError):
            try:
                fields = _stat_fields(pid)
            except OSError:
                continue
            total += (int(fields[11]) + int(fields[12])) / _TICK   # utime, stime
    return total


def peak_rss_mib(pids: List[int]) -> float:
    """Sum of the processes' resident-set high-water marks."""
    kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
                        break
        except OSError:
            pass
    return kib / 1024.0


class StealMeter:
    """Share of all CPU time the hypervisor gave to someone else since
    this object was made: the sandbox's slow episodes show up here."""

    def __init__(self) -> None:
        self._stolen, self._total = self._read()

    @staticmethod
    def _read():
        with open("/proc/stat") as fh:
            jiffies = [int(x) for x in fh.readline().split()[1:9]]
        return jiffies[7], sum(jiffies)

    def ratio(self) -> float:
        stolen, total = self._read()
        elapsed = total - self._total
        return (stolen - self._stolen) / elapsed if elapsed else 0.0


def group_members(pgid: int) -> List[int]:
    """Live processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def wait_group_gone(pgid: int, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while group_members(pgid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True
