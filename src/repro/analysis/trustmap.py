"""The declared trust map: which module plays which role (paper §3).

shieldlint is a *repo-specific* analyzer, so the threat model lives
here as plain data instead of being inferred:

* **trusted** modules are the enclave: the crypto substrate, the store
  core that handles plaintext, and the enclave-side simulation
  services.  Plaintext born here (client keys/values, decrypt results,
  key material) must be encrypted, sealed or MACed before it reaches a
  sink that leaves the enclave.
* **boundary** modules move bytes between the enclave and the host:
  the networked front-ends and the multiprocess partition engine.
  They may *transport* plaintext they received from a secure channel,
  but only sealed bytes may go back out.
* everything else (experiments, workloads, baselines, the attacker,
  the host-side simulation substrate) is untrusted scaffolding and is
  not taint-checked — it never holds enclave plaintext by design.

Paths are repo-relative to the analyzed root (``src/repro``), always
with forward slashes.
"""

from __future__ import annotations

import fnmatch
from typing import Iterable, Tuple

# -- module roles ------------------------------------------------------------
TRUSTED_MODULES: Tuple[str, ...] = (
    "crypto/*.py",
    "core/entry.py",
    "core/store.py",
    "core/mactree.py",
    "core/macbucket.py",
    "core/cache.py",
    "core/maccache.py",
    "core/wal.py",
    # PartitionHost: the store + sealed WAL + sealing lifecycle runs
    # inside the enclave; only sealed sections and log frames leave it.
    "core/host.py",
    "sim/enclave.py",
    "sim/sealing.py",
)

BOUNDARY_MODULES: Tuple[str, ...] = (
    "net/tcp.py",
    "core/checkpoint.py",  # snapshot blobs to and from the host's disk
    "net/server.py",
    "core/procpool.py",
    "core/shmring.py",
    # Replication fan-out/anti-entropy: versioned records and set
    # contents cross to peer enclaves, but only inside attested sealed
    # sessions (the peer links are TCPShieldClients).
    "ext/replication.py",
)

# Modules whose lock discipline the lock-order pass analyzes.
# ``core/host.py`` is absent on purpose: a PartitionHost takes no lock —
# a worker drives it from one thread, and a served in-process engine is
# only entered under the TCP server's ``store_lock``.  Its log's
# commit lock (committer fsync vs handle swap) is a leaf: last in the order.
LOCK_MODULES: Tuple[str, ...] = (
    "core/procpool.py",
    "core/partition.py",
    "core/checkpoint.py",
    "core/wal.py",
    "net/tcp.py",
)


def _matches(path: str, patterns: Iterable[str]) -> bool:
    return any(fnmatch.fnmatch(path, pattern) for pattern in patterns)


def is_trusted(path: str) -> bool:
    return _matches(path, TRUSTED_MODULES)


def is_boundary(path: str) -> bool:
    return _matches(path, BOUNDARY_MODULES)


def is_lock_module(path: str) -> bool:
    return _matches(path, LOCK_MODULES)


# -- taint pass configuration ------------------------------------------------
# Parameters of trusted-module functions that carry plaintext by
# definition (client keys/values and key material entering the enclave
# API surface).
PLAINTEXT_PARAMS = frozenset(
    {
        "key",
        "value",
        "suffix",
        "expected",
        "new_value",
        "plaintext",
        "plain",
        "master_secret",
        "master",
    }
)

# Attribute accesses that denote in-enclave key material.
SECRET_ATTRS = frozenset(
    {"master", "enc_key", "mac_key", "index_key", "hint_key", "master_secret",
     "_master_secret"}
)

# Method names whose call results are plaintext (decrypt paths).  ``open``
# means SecureChannel.open — only attribute calls count, so the builtin
# ``open(path)`` (a plain name) is never matched.
TAINT_SOURCE_METHODS = frozenset(
    {"decrypt", "decrypt_many", "decrypt_record", "unseal", "open", "iter_items"}
)

# Calls that turn plaintext into something safe to exfiltrate: ciphertext,
# MACs, keyed hashes / digests, sealed blobs.
SANITIZER_METHODS = frozenset(
    {
        "encrypt",
        "encrypt_record",
        "_encrypt_entry",  # returns (header, ciphertext, mac) — all safe
        "seal",
        "mac",
        "keyed_bucket_hash",
        "key_hint",
        "redact",
        "digest",
        "hexdigest",
        "write_section",
    }
)

# Calls whose results carry no plaintext bytes even when fed plaintext.
DECLASSIFIERS = frozenset({"len", "type", "id", "bool", "isinstance", "hash"})

# Attribute names of calls that move bytes out of the trusted domain.
SINK_METHODS = frozenset({"send_bytes", "sendall", "send", "raw_write"})

# ``.write(...)`` is a sink only when the receiver looks like memory, a
# file or a socket — plenty of innocent ``write`` methods exist.
WRITE_SINK_RECEIVER_HINT = ("mem", "stdout", "stderr", "sock", "conn", "fh", "file")

# Subscript stores whose receiver looks like shared memory are sinks:
# the ring buffers live in host-visible shared memory (core/shmring.py
# stores through its mapping ``self.shm``), so only sealed bytes may be
# stored there (``self.shm[a:b] = plaintext`` is an enclave leak even
# though no call is involved).
SHM_SINK_RECEIVER_HINT = ("shm", "shared_memory")

# Plain-name calls that are sinks (host-visible output).
SINK_FUNCTIONS = frozenset({"print", "_send_frame", "send_frame"})

# Logging-style attribute calls (host-visible output).
LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)

# -- verify-before-use configuration -----------------------------------------
# Producer primitives: calls that read-and-decrypt untrusted entries.
PRODUCER_METHODS = frozenset({"decrypt", "decrypt_many"})

# Verifier primitives: a call to any of these (or to a method whose name
# starts with ``_verify``) authenticates what was read.
VERIFIER_METHODS = frozenset({"verify_set", "verify", "audit"})

# Mutators of the authenticated structure: a public operation must have
# verified the covering state before calling these.
MUTATOR_METHODS = frozenset({"_update_entry", "_insert_entry", "_remove_entry"})

# -- lock-order configuration -------------------------------------------------
# Lock families, identified by the attribute path of the acquired object
# (checked against the unparsed context-manager expression).  Order in
# LOCK_ORDER is the pinned acquisition order: a lock may only be taken
# while holding locks of strictly earlier families.
LOCK_FAMILY_PATTERNS: Tuple[Tuple[str, str], ...] = (
    ("store_lock", "store"),
    ("_pool_lock", "pool"),
    ("_alloc_lock", "alloc"),
    ("_commit_lock", "commit"),
)

LOCK_ORDER: Tuple[str, ...] = ("store", "pool", "alloc", "commit")

# Calls that conceptually acquire the ``pool`` family (they fan into
# ProcessPartitionPool round trips), used for cross-module edges such
# as the TCP server executing a request under store_lock.
IMPLIED_POOL_ACQUIRE = frozenset(
    {"execute_request", "take_snapshot", "snapshot_all",
     # PartitionedShieldStore's batch seam into its engine (the pool's
     # fan_out scatters under its pool lock).
     "fan_out"}
)

# Shared attributes that may only be mutated while holding a lock of the
# named family, per class.  This is the "unguarded shared-state
# mutation" half of the lock-order pass.
GUARDED_ATTRS = {
    "ProcessPartitionPool": {
        "recoveries": "pool",
        "ops_lost": "pool",
        "_degraded": "pool",
        "_recovered": "pool",
        "_snapshot_sections": "pool",
        "_snapshot_counter": "pool",
        "_closed": "pool",
        "_broken": "pool",
    },
    "_WorkerHandle": {"ops_since_snapshot": "pool"},
}

# Methods that run before the object is shared between threads (or tear
# it down after) — exempt from the guarded-mutation check.
CONSTRUCTION_METHODS = frozenset(
    {"__init__", "__del__", "_spawn", "_terminate_all"}
)
