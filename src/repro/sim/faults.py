"""shieldfault: deterministic fault injection at every boundary crossing.

ShieldStore's design lives on hostile boundaries — untrusted memory,
OCALLs, worker pipes, a network the §2.3 threat model hands to the
adversary outright.  This module makes every failure mode of those
boundaries *reproducible on demand*: each crossing in the codebase
calls :func:`check` with a **named injection point**, and an installed
:class:`FaultPlan` decides — from a seeded, scripted schedule — whether
that particular crossing drops, delays, tampers, crashes or errors.

Nothing here simulates enclave semantics; it scripts the *host's*
misbehavior, which the threat model already grants.  With no plan
installed every hook is a near-free ``None`` check, so production paths
pay one attribute load.

Injection points (the registry)
-------------------------------
One point per host crossing each way — the network, the worker IPC and
the disk the §2.3 threat model hands the host.  Codecs (the session
channel, the snapshot serializer) and the two worker data planes call
no hook: their bytes are faulted at the one crossing they ride.

========================  ====================================================
point                     crossing
========================  ====================================================
``tcp.client.connect``    client TCP connect + attested handshake
``tcp.client.send``       client -> server wire frame (handshake + requests)
``tcp.client.recv``       server -> client wire frame
``tcp.server.accept``     server accepting one connection
``tcp.server.send``       server -> client wire frame (replies)
``tcp.server.recv``       client -> server wire frame
``procpool.spawn``        parent spawning one partition worker process
``procpool.send``         parent -> worker sealed frame (either data plane)
``procpool.recv``         worker -> parent sealed frame (either data plane)
``shmring.doorbell``      ring readiness doorbell (drop = wake via poll only)
``snapshot.write``        SnapshotDaemon (core/checkpoint.py) writing one file
``snapshot.read``         reading a checkpoint file back from disk
``wal.append``            sealing one frame into a write-ahead-log segment
``wal.fsync``             group-commit fsync of a write-ahead-log segment
``wal.replay``            reading one WAL segment back during recovery
========================  ====================================================

Fault kinds
-----------
* ``delay``  — sleep ``delay_s`` at the crossing, then proceed
  (handled entirely inside :func:`check`);
* ``error``  — raise the exception class named by the rule's ``error``
  field (default ``OSError``), handled inside :func:`check`;
* ``tamper`` — flip ``flips`` bit(s) of the crossing's payload at
  rule-RNG-chosen positions; :func:`check` returns the mutated bytes
  and the call site sends/consumes them in place of the original;
* ``drop``   — the call site discards the payload (a sender skips the
  send, a receiver treats the frame as never having arrived);
* ``crash``  — the call site invokes its ``on_crash`` callback (kill
  the worker process, sever the socket, truncate the half-written
  file...) and then lets its ordinary failure handling observe the
  wreckage.  Sites without a callback get ``ConnectionResetError``;
* ``partition`` — cut the network between named node groups: the rule
  lists ``groups`` (e.g. ``[["a"], ["b", "c"]]``) and fires — as a
  ``drop`` — at every ``tcp.*`` crossing whose **link** connects nodes
  in *different* groups, until the partition heals (``heal_after_s``
  wall-clock seconds after the plan is installed, or an explicit
  ``plan.heal()``).  Call sites identify the edge by passing
  ``link=(local, peer)`` to :func:`check`; crossings without a link
  label are never partitioned.  Partition rules ignore the hit-schedule
  fields — a cut cable fails every packet, not every third one.

``drop`` and ``crash`` need site cooperation, so :func:`check` returns
a :class:`Hit` describing them; ``delay``/``error``/``tamper`` need
none beyond using the returned payload.  Crossings that carry bytes
call :func:`cross`, which is :func:`check` plus that unwrapping: it
returns the bytes to go on with, or :data:`DROPPED`.

Determinism
-----------
Every rule owns a private ``random.Random`` seeded from the plan seed
and the rule's index, and its own hit counter; with a fixed seed and a
single-client drive the full fire sequence is reproducible run to run.
The plan is per-process: spawned partition workers do not inherit it
(their faults are injected from the parent side of the data plane,
which is where the §2.3 adversary sits anyway).
"""

from __future__ import annotations

import fnmatch
import json
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError, SnapshotError, StoreError

INJECTION_POINTS = frozenset(
    {
        "tcp.client.connect",
        "tcp.client.send",
        "tcp.client.recv",
        "tcp.server.accept",
        "tcp.server.send",
        "tcp.server.recv",
        "procpool.spawn",
        "procpool.send",
        "procpool.recv",
        "shmring.doorbell",
        "snapshot.write",
        "snapshot.read",
        "wal.append",
        "wal.fsync",
        "wal.replay",
    }
)

FAULT_KINDS = ("drop", "delay", "tamper", "crash", "error", "partition")

# Exception classes a rule's ``error`` field may name.  Transport-ish
# classes for socket/pipe points; protocol/snapshot/store classes stand
# for what the codec behind a crossing raises on bytes it refuses.
ERROR_CLASSES = {
    "OSError": OSError,
    "ConnectionError": ConnectionResetError,
    "TimeoutError": TimeoutError,
    "ProtocolError": ProtocolError,
    "SnapshotError": SnapshotError,
    "StoreError": StoreError,
}


class FaultPlanError(StoreError):
    """A fault plan is malformed (bad point, kind, or schedule)."""


@dataclass
class FaultRule:
    """One scripted fault: where, what, and on which hits.

    ``point`` is an ``fnmatch`` pattern over the registry (so
    ``tcp.client.*`` scripts every client-side crossing).  The schedule
    fields compose: a hit must clear ``after``, then fire if it is in
    ``hits``, or lands on an ``every`` multiple, or wins the seeded
    ``probability`` roll; a rule with no schedule fields fires on every
    hit.  ``limit`` caps total fires.
    """

    point: str
    kind: str
    hits: Optional[Sequence[int]] = None   # explicit 0-based hit indices
    every: Optional[int] = None            # fire each Nth hit (1-based)
    probability: Optional[float] = None    # seeded per-rule RNG roll
    after: int = 0                         # ignore this many leading hits
    limit: Optional[int] = None            # max total fires
    delay_s: float = 0.05                  # for ``delay``
    error: str = "OSError"                 # class name for ``error``
    flips: int = 1                         # bits flipped by ``tamper``
    groups: Optional[Sequence[Sequence[str]]] = None  # ``partition`` sides
    heal_after_s: Optional[float] = None   # ``partition`` scheduled heal

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if not any(fnmatch.fnmatch(p, self.point) for p in INJECTION_POINTS):
            raise FaultPlanError(
                f"pattern {self.point!r} matches no registered injection "
                f"point; see repro.sim.faults.INJECTION_POINTS"
            )
        if self.kind == "partition":
            if not self.groups or len(self.groups) < 2:
                raise FaultPlanError(
                    "partition rules need 'groups': at least two lists "
                    "of node names"
                )
            for group in self.groups:
                if not group or not all(isinstance(n, str) for n in group):
                    raise FaultPlanError(
                        "each partition group must be a non-empty list "
                        "of node-name strings"
                    )
            matched = [
                p for p in INJECTION_POINTS if fnmatch.fnmatch(p, self.point)
            ]
            if any(not p.startswith("tcp.") for p in matched):
                raise FaultPlanError(
                    "partition rules only apply to tcp.* injection points "
                    "(links are labeled at the TCP layer)"
                )
            if self.heal_after_s is not None and self.heal_after_s < 0:
                raise FaultPlanError(
                    f"heal_after_s={self.heal_after_s} must be >= 0"
                )
        elif self.groups is not None or self.heal_after_s is not None:
            raise FaultPlanError(
                "'groups'/'heal_after_s' are only valid on partition rules"
            )
        if self.error not in ERROR_CLASSES:
            raise FaultPlanError(
                f"unknown error class {self.error!r}; "
                f"known: {sorted(ERROR_CLASSES)}"
            )
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"probability {self.probability} outside [0, 1]"
            )
        if self.every is not None and self.every <= 0:
            raise FaultPlanError(f"every={self.every} must be positive")
        if self.flips <= 0:
            raise FaultPlanError(f"flips={self.flips} must be positive")


@dataclass
class Hit:
    """What :func:`check` decided for one crossing."""

    kind: str
    point: str
    payload: Optional[bytes] = None


@dataclass
class _RuleState:
    """Mutable per-rule bookkeeping (separate so rules stay declarative)."""

    rng: random.Random
    hits: int = 0
    fires: int = 0


class FaultPlan:
    """A seeded, scripted schedule of boundary faults.

    Thread-safe: schedule decisions and counters sit behind one mutex,
    so concurrent handler threads draw from the same deterministic
    sequence (their interleaving is the only nondeterminism, and a
    single synchronous client removes even that).
    """

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0):
        self.seed = seed
        self.rules: List[FaultRule] = list(rules)
        for rule in self.rules:
            rule.validate()
        self._states = [
            _RuleState(rng=random.Random((seed * 1_000_003 + i) ^ 0xFA01F))
            for i, rule in enumerate(self.rules)
        ]
        self._mutex = threading.Lock()
        self.point_hits: Dict[str, int] = {}
        self.fired: Dict[Tuple[str, str], int] = {}
        # Partition lifecycle: scheduled heals count wall-clock seconds
        # from plan *activation* (install time), explicit heal() wins.
        self._activated_at: Optional[float] = None
        self._healed = False

    # -- construction --------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict) or "rules" not in data:
            raise FaultPlanError("fault plan must be an object with 'rules'")
        known = {f.name for f in FaultRule.__dataclass_fields__.values()}
        rules = []
        for i, raw in enumerate(data["rules"]):
            if not isinstance(raw, dict):
                raise FaultPlanError(f"rule {i} is not an object")
            unknown = set(raw) - known
            if unknown:
                raise FaultPlanError(
                    f"rule {i} has unknown field(s) {sorted(unknown)}"
                )
            try:
                rules.append(FaultRule(**raw))
            except TypeError as exc:
                raise FaultPlanError(f"rule {i}: {exc}") from None
        return cls(rules, seed=int(data.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    # -- partition lifecycle -------------------------------------------------
    def activate(self) -> None:
        """Start the partition heal clocks (called by :func:`install`)."""
        with self._mutex:
            if self._activated_at is None:
                self._activated_at = time.monotonic()

    def heal(self) -> None:
        """Heal every partition rule immediately."""
        with self._mutex:
            self._healed = True

    def _partition_cuts(self, rule: FaultRule, link) -> bool:
        """True iff this un-healed partition rule severs ``link``."""
        if link is None or rule.groups is None or self._healed:
            return False
        if rule.heal_after_s is not None and self._activated_at is not None:
            if time.monotonic() - self._activated_at >= rule.heal_after_s:
                return False
        local, peer = link

        def side_of(name):
            for i, group in enumerate(rule.groups):
                if name in group:
                    return i
            return None

        local_side, peer_side = side_of(local), side_of(peer)
        return (
            local_side is not None
            and peer_side is not None
            and local_side != peer_side
        )

    # -- the decision --------------------------------------------------------
    def decide(
        self, point: str, link=None
    ) -> Optional[Tuple[FaultRule, _RuleState]]:
        """Count one hit at ``point``; first matching rule that fires wins."""
        with self._mutex:
            self.point_hits[point] = self.point_hits.get(point, 0) + 1
            for rule, state in zip(self.rules, self._states):
                if not fnmatch.fnmatch(point, rule.point):
                    continue
                if rule.kind == "partition":
                    # No schedule: a cut cable fails every crossing of
                    # the severed edge until the partition heals.
                    if not self._partition_cuts(rule, link):
                        continue
                    state.hits += 1
                    state.fires += 1
                    key = (point, rule.kind)
                    self.fired[key] = self.fired.get(key, 0) + 1
                    return rule, state
                index = state.hits
                state.hits += 1
                if index < rule.after:
                    continue
                if rule.limit is not None and state.fires >= rule.limit:
                    continue
                scheduled = rule.hits is None and rule.every is None and (
                    rule.probability is None
                )
                if rule.hits is not None and (index - rule.after) in set(rule.hits):
                    scheduled = True
                if rule.every is not None and (
                    (index - rule.after + 1) % rule.every == 0
                ):
                    scheduled = True
                if rule.probability is not None and (
                    state.rng.random() < rule.probability
                ):
                    scheduled = True
                if not scheduled:
                    continue
                state.fires += 1
                key = (point, rule.kind)
                self.fired[key] = self.fired.get(key, 0) + 1
                return rule, state
            return None

    @staticmethod
    def tamper_bytes(rule: FaultRule, state: _RuleState, payload: bytes) -> bytes:
        """Flip ``rule.flips`` bits of ``payload`` deterministically."""
        mutated = bytearray(payload)
        for _ in range(rule.flips):
            position = state.rng.randrange(len(mutated))
            mutated[position] ^= 1 << state.rng.randrange(8)
        return bytes(mutated)

    # -- reporting -----------------------------------------------------------
    def fires(self, point: Optional[str] = None, kind: Optional[str] = None) -> int:
        """Total fires, optionally filtered by point and/or kind."""
        with self._mutex:
            return sum(
                count
                for (p, k), count in self.fired.items()
                if (point is None or p == point) and (kind is None or k == kind)
            )

    def snapshot(self) -> dict:
        """Stable dict of hits and fires for reports and ``repro stats``."""
        with self._mutex:
            report = {
                "seed": self.seed,
                "rules": len(self.rules),
                "hits": dict(sorted(self.point_hits.items())),
                "fires": {
                    f"{point}:{kind}": count
                    for (point, kind), count in sorted(self.fired.items())
                },
                "total_fires": sum(self.fired.values()),
            }
            partitions = [r for r in self.rules if r.kind == "partition"]
            if partitions:
                report["partitions"] = {
                    "rules": len(partitions),
                    "healed": self._healed,
                }
            return report


# ---------------------------------------------------------------------------
# the ambient (per-process) plane
# ---------------------------------------------------------------------------
_ACTIVE: Optional[FaultPlan] = None
_INSTALL_MUTEX = threading.Lock()


def install(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process's active fault plan (replaces any)."""
    global _ACTIVE
    plan.activate()
    with _INSTALL_MUTEX:
        _ACTIVE = plan
    return plan


def uninstall() -> None:
    """Remove the active plan; every hook returns to its no-op path."""
    global _ACTIVE
    with _INSTALL_MUTEX:
        _ACTIVE = None


def active() -> Optional[FaultPlan]:
    return _ACTIVE


@contextmanager
def injected(plan: FaultPlan):
    """Install ``plan`` for the duration of a ``with`` block (tests)."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


def check(
    point: str,
    payload: Optional[bytes] = None,
    on_crash=None,
    link=None,
) -> Optional[Hit]:
    """The hook every boundary crossing calls.

    Returns ``None`` to proceed normally (the overwhelmingly common
    case), or a :class:`Hit` the site must act on:

    * ``Hit("tamper", ...)`` — use ``hit.payload`` instead of the
      original bytes;
    * ``Hit("drop", ...)``   — discard the payload (skip the send /
      pretend the frame never arrived);
    * ``Hit("crash", ...)``  — ``on_crash`` already ran; proceed and
      let ordinary failure handling observe the damage.

    ``delay`` sleeps here; ``error`` raises here; ``crash`` with no
    ``on_crash`` raises ``ConnectionResetError``.  ``link`` is the
    ``(local, peer)`` node-name pair of the edge being crossed (TCP
    sites with named endpoints); ``partition`` rules fire only against
    it and surface as ``drop`` hits, so sites need no new handling.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    if point not in INJECTION_POINTS:
        raise FaultPlanError(f"unregistered injection point {point!r}")
    decision = plan.decide(point, link=link)
    if decision is None:
        return None
    rule, state = decision
    if rule.kind == "delay":
        time.sleep(rule.delay_s)
        return Hit("delay", point, payload)
    if rule.kind == "error":
        raise ERROR_CLASSES[rule.error](f"injected {rule.error} at {point}")
    if rule.kind == "tamper":
        if not payload:
            return None  # nothing to corrupt at this crossing
        return Hit("tamper", point, plan.tamper_bytes(rule, state, payload))
    if rule.kind == "crash":
        if on_crash is None:
            raise ConnectionResetError(f"injected crash at {point}")
        on_crash()
        return Hit("crash", point, payload)
    return Hit("drop", point, payload)


DROPPED = None  # what cross() returns for a dropped crossing


def cross(point: str, payload: bytes, on_crash=None, link=None) -> Optional[bytes]:
    """:func:`check` for a crossing that carries bytes: returns the bytes
    to go on with (``payload`` or its tampered copy) or :data:`DROPPED`,
    which each site answers in its own way (skip the send, time out,
    drop the connection); one with nothing to drop writes
    ``cross(point, blob) or blob``."""
    if _ACTIVE is None:
        return payload
    hit = check(point, payload, on_crash, link)
    if hit is None:
        return payload
    return DROPPED if hit.kind == "drop" else hit.payload


def fires(point: Optional[str] = None, kind: Optional[str] = None) -> int:
    """Fire count of the active plan (0 when none is installed)."""
    plan = _ACTIVE
    return 0 if plan is None else plan.fires(point, kind)
