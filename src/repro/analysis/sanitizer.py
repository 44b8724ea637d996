"""Runtime crypto sanitizer: global (key, IV/counter-block) uniqueness.

The static passes prove the *structure* of the key schedule; this module
checks the actual executions.  When enabled, every CTR encryption in the
built-in cipher suites reports its (key, starting IV, payload length)
here; the sanitizer converts the payload to its keystream block span and
asserts that no two encryptions under the same key ever consume
overlapping blocks — in this process *and*, via on-disk journals, across
every process of an instrumented tree (procpool worker respawns,
snapshot/WAL recovery runs).

Enablement is inherited: :func:`enable` exports
``SHIELDSTORE_CRYPTO_SANITIZER=1`` (and the journal directory) into
``os.environ``, which multiprocessing's spawn method copies into worker
processes, so respawned partition workers instrument themselves without
any plumbing through the pool.  Each process appends
``keyid start blocks`` lines to its own journal file;
:func:`global_check` merges every journal and re-asserts uniqueness over
the whole tree.

A *record-mode* encryption of the fast suite (one XOF stream per IV,
see :mod:`repro.crypto.suite`) reports itself as the single point
``(key, IV)`` — a one-block span whatever the record's length: a
repeated IV overlaps itself and raises, adjacent IVs are independent
streams and do not.

Only *encryption* records spans — decryption legitimately revisits the
same (key, IV) pair and consumes no fresh keystream.

Overhead when disabled is one module-level boolean test per encrypt
call; the hooks live in :mod:`repro.crypto.suite`.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, IO, List, Optional, Tuple

from repro.errors import NonceReuseError

ENV_FLAG = "SHIELDSTORE_CRYPTO_SANITIZER"
ENV_DIR = "SHIELDSTORE_SANITIZER_DIR"

_IV_BITS = 128
_IV_MOD = 1 << _IV_BITS

# Module-level fast path: suite hooks test this before calling record().
active = False

_lock = threading.Lock()


def _key_id(key: bytes) -> str:
    return hashlib.sha256(b"shieldcrypt-keyid\x00" + key).hexdigest()[:16]


@dataclass
class _State:
    """Per-process sanitizer state (spans merged per key)."""

    journal_dir: Optional[str] = None
    journal: Optional[IO[str]] = None
    # keyid -> sorted, disjoint [start, end) spans (block units).
    spans: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)
    key_ids: Dict[bytes, str] = field(default_factory=dict)
    recorded: int = 0


_state: Optional[_State] = None


def _blocks_for(nbytes: int, block_size: int) -> int:
    return (nbytes + block_size - 1) // block_size


def _insert_span(
    spans: List[Tuple[int, int]], start: int, end: int, keyid: str
) -> None:
    """Insert [start, end) keeping ``spans`` sorted and disjoint."""
    index = bisect.bisect_left(spans, (start, start))
    if index > 0 and spans[index - 1][1] > start:
        prev = spans[index - 1]
        raise NonceReuseError(
            f"key {keyid}: keystream blocks [{start}, {end}) overlap "
            f"previously consumed span [{prev[0]}, {prev[1]}) — "
            "a (key, IV) pair was reused"
        )
    if index < len(spans) and spans[index][0] < end:
        nxt = spans[index]
        raise NonceReuseError(
            f"key {keyid}: keystream blocks [{start}, {end}) overlap "
            f"previously consumed span [{nxt[0]}, {nxt[1]}) — "
            "a (key, IV) pair was reused"
        )
    # Merge with contiguous neighbours so monotone allocators (the
    # store's IV allocator, channel sequence streams) stay O(1) spans.
    merged_start, merged_end = start, end
    if index > 0 and spans[index - 1][1] == start:
        merged_start = spans[index - 1][0]
        index -= 1
        del spans[index]
    if index < len(spans) and spans[index][0] == end:
        merged_end = spans[index][1]
        del spans[index]
    spans.insert(index, (merged_start, merged_end))


def _bootstrap_locked() -> _State:
    """Create per-process state (journal file included) on first use."""
    global _state
    if _state is None:
        state = _State()
        directory = os.environ.get(ENV_DIR)
        if directory:
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(directory, f"crypto-{os.getpid()}.journal")
            state.journal = open(path, "a", buffering=1, encoding="ascii")
            state.journal_dir = directory
        _state = state
    return _state


def enabled() -> bool:
    """Is the sanitizer recording in this process?"""
    return active


def enable(journal_dir: Optional[str] = None) -> None:
    """Start recording; export the setting to child processes.

    ``journal_dir`` makes the check cross-process: every instrumented
    process appends its spans there and :func:`global_check` merges
    them.  Without it the check is per-process only.
    """
    global active, _state
    with _lock:
        os.environ[ENV_FLAG] = "1"
        if journal_dir is not None:
            os.environ[ENV_DIR] = journal_dir
        _state = None  # re-bootstrap with the (possibly new) journal dir
        active = True


def disable() -> None:
    """Stop recording and drop state; clears the inherited env flags."""
    global active, _state
    with _lock:
        active = False
        os.environ.pop(ENV_FLAG, None)
        os.environ.pop(ENV_DIR, None)
        if _state is not None and _state.journal is not None:
            _state.journal.close()
        _state = None


def maybe_enable_from_env() -> None:
    """Self-enable when spawned with the inherited env flag set."""
    global active
    if os.environ.get(ENV_FLAG) == "1" and not active:
        with _lock:
            active = True


def record(key: bytes, iv_ctr: bytes, nbytes: int, block_size: int) -> None:
    """Account one encryption's keystream span; raise on any overlap."""
    if not active:
        return
    blocks = _blocks_for(nbytes, block_size)
    if blocks == 0:
        return  # empty payload consumes no keystream
    start = int.from_bytes(iv_ctr, "big")
    with _lock:
        state = _bootstrap_locked()
        keyid = state.key_ids.get(key)
        if keyid is None:
            keyid = state.key_ids[key] = _key_id(key)
        spans = state.spans.setdefault(keyid, [])
        end = start + blocks
        if end > _IV_MOD:  # counter wraps modulo 2^128
            _insert_span(spans, start, _IV_MOD, keyid)
            _insert_span(spans, 0, end - _IV_MOD, keyid)
        else:
            _insert_span(spans, start, end, keyid)
        state.recorded += 1
        if state.journal is not None:
            state.journal.write(f"{keyid} {start} {blocks}\n")


def stats() -> Dict[str, int]:
    """Per-process accounting: records seen, keys seen, live spans."""
    with _lock:
        if _state is None:
            return {"recorded": 0, "keys": 0, "spans": 0}
        return {
            "recorded": _state.recorded,
            "keys": len(_state.spans),
            "spans": sum(len(s) for s in _state.spans.values()),
        }


@dataclass
class GlobalReport:
    """Outcome of a cross-process journal merge."""

    processes: int
    records: int
    keys: int


def global_check(journal_dir: Optional[str] = None) -> GlobalReport:
    """Merge every process journal; raise on any cross-process overlap.

    Call from the parent once the instrumented workload (including
    worker respawns and recovery runs) has finished.
    """
    directory = journal_dir or os.environ.get(ENV_DIR)
    if not directory:
        raise NonceReuseError(
            "global_check needs a journal directory: enable(journal_dir=...)"
        )
    merged: Dict[str, List[Tuple[int, int]]] = {}
    processes = 0
    records = 0
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".journal"):
            continue
        processes += 1
        with open(os.path.join(directory, name), encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) != 3:
                    continue  # torn final line of a killed process
                keyid, start_s, blocks_s = parts
                start, blocks = int(start_s), int(blocks_s)
                spans = merged.setdefault(keyid, [])
                end = start + blocks
                if end > _IV_MOD:
                    _insert_span(spans, start, _IV_MOD, keyid)
                    _insert_span(spans, 0, end - _IV_MOD, keyid)
                else:
                    _insert_span(spans, start, end, keyid)
                records += 1
    return GlobalReport(
        processes=processes, records=records, keys=len(merged)
    )


# A process spawned with the flag already in its environment (procpool
# workers, recovery subprocesses) instruments itself on import.
maybe_enable_from_env()
