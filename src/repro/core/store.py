"""ShieldStore: the paper's shielded key-value store (§4, §5).

The store runs "inside" a simulated enclave: its secrets (key ring,
bucket-set MAC hashes) live in enclave memory, while the main hash table
— bucket slots, entry records, MAC buckets — lives in untrusted memory
as real, attacker-visible bytes.  Every operation does the actual
cryptographic work (encrypt, decrypt, MAC, verify) and charges the
simulated cycle costs of the accesses it performs.

Operation anatomy (``get``; ``set``/``delete`` add a mutation phase):

1. keyed-hash the client key to a bucket and a 1-byte hint (§4.2, §5.4);
2. walk the untrusted chain, decrypting only hint-matching candidates;
3. collect every entry MAC of the covering bucket set — from MAC buckets
   (§5.2) or by pointer-chasing chains — and verify the in-enclave
   bucket-set hash (§4.3, replay defense);
4. verify the found entry's own MAC, then return the plaintext value.

With ``mac_cache_bytes`` configured, step 3's O(bucket-set) gather +
keyed-hash recompute collapses to an O(1) lookup in an enclave-resident
cache of already-verified MAC lists (:mod:`repro.core.maccache`); step 4
then compares against that in-enclave ground truth directly.
"""

from __future__ import annotations

import os
import struct
from hmac import compare_digest
from time import perf_counter
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.core.allocator import make_allocator
from repro.core.cache import EnclaveCache
from repro.core.config import StoreConfig
from repro.core.entry import (
    HEADER_SIZE,
    MAC_SIZE,
    EntryHeader,
    HeaderFields,
    entry_total_size,
    mac_message,
    mac_span,
    mac_splice,
    pack_header,
    unpack_header,
    unpack_header_fields,
)
from repro.core.hashindex import BucketTable, enclave_pointer_error
from repro.core.macbucket import MacBucketStore
from repro.core.maccache import MacSetCache
from repro.core.mactree import MacTree
from repro.core.stats import StoreStats
from repro.crypto.keys import KeyRing
from repro.crypto.suite import make_suite
from repro.errors import IntegrityError, KeyNotFoundError, SnapshotError, StoreError
from repro.net.message import (
    Request,
    encode_cas_value,
    encode_multi_items,
    encode_multi_keys,
)
from repro.reader import U32, U64, Reader
from repro.sim.enclave import Enclave, ExecContext, Machine
from repro.sim.memory import ENCLAVE_BASE, ENCLAVE_END

_MAX_CHAIN = 1_000_000  # cycle guard against corrupted untrusted chains

# MRENCLAVE of the reference ShieldStore enclave build (any fixed 32 bytes).
DEFAULT_MEASUREMENT = bytes(range(32))


class FoundEntry(NamedTuple):
    """Result of a successful chain search."""

    addr: int
    prev_addr: int      # 0 when the entry is the chain head
    index: int          # position within the chain (0 = head)
    header: HeaderFields  # an EntryHeader or its plain tuple: unpack it
    key: bytes
    value: bytes
    enc_kv: bytes


class ShieldStore:
    """A single-partition shielded key-value store.

    Parameters
    ----------
    config:
        The :class:`~repro.core.config.StoreConfig` to build with.
    machine:
        Simulated host; a fresh single-thread machine is created when
        omitted.
    enclave:
        Enclave to run in; created on ``machine`` when omitted.
    thread_id:
        The simulated thread that serves this store's operations
        (partitioned stores assign one store per thread, §5.3).
    master_secret:
        32-byte enclave master secret; drawn from the machine RNG when
        omitted.  Sealing restores it across restarts.
    """

    def __init__(
        self,
        config: StoreConfig,
        machine: Optional[Machine] = None,
        enclave: Optional[Enclave] = None,
        thread_id: int = 0,
        master_secret: Optional[bytes] = None,
    ):
        self.config = config
        self.machine = machine if machine is not None else Machine(seed=config.seed)
        self.enclave = (
            enclave
            if enclave is not None
            else Enclave(self.machine, DEFAULT_MEASUREMENT)
        )
        self.thread_id = thread_id
        self._memory = self.machine.memory
        self._ctx = self.enclave.context(thread_id)
        if master_secret is None:
            master_secret = bytes(
                self.machine.rng.getrandbits(8) for _ in range(32)
            )
        self.keyring = KeyRing(master_secret)
        self.suite = make_suite(
            config.suite_name, self.keyring.enc_key, self.keyring.mac_key
        )
        self.allocator = make_allocator(
            self.enclave, config.use_extra_heap, config.heap_chunk_bytes
        )
        self.buckets = BucketTable(self.enclave, config.num_buckets)
        self.mactree = MacTree(
            self.enclave, config.num_mac_hashes, config.num_buckets
        )
        self.macbuckets = (
            MacBucketStore(self.enclave, self.allocator, config.mac_bucket_capacity)
            if config.mac_bucketing
            else None
        )
        self.cache = (
            EnclaveCache(self.enclave, config.cache_bytes)
            if config.cache_bytes > 0
            else None
        )
        self.maccache = (
            MacSetCache(self.enclave, config.mac_cache_bytes)
            if config.mac_cache_bytes > 0
            else None
        )
        self.stats = StoreStats()
        self.count = 0
        # Entry-IV allocator: a per-instance entropy salt (top 64 bits)
        # plus a monotone keystream-block counter (bottom 64 bits).
        # Every encryption takes a fresh, disjoint block span, so (key,
        # IV) pairs never repeat — not within this store, and (with
        # 2^-64 salt-collision probability) not across incarnations
        # that re-derive the same entry key from a restored master.
        # The deterministic machine RNG must NOT supply IVs: a respawned
        # worker or restored snapshot replays the same "random" stream
        # under the same key.
        self._iv_salt = int.from_bytes(os.urandom(8), "big")
        self._iv_seq = 0
        # Optional sealed write-ahead log (repro.core.wal): when
        # attached, every mutating op appends a sealed frame *before*
        # applying, so acknowledged writes survive a crash as
        # snapshot + replayable log tail.
        self.wal = None

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _context(self, ctx: Optional[ExecContext]) -> ExecContext:
        return ctx if ctx is not None else self._ctx

    def _charge_copy(self, ctx: ExecContext, nbytes: int, write: bool) -> None:
        # Copying request/response payloads across the enclave boundary
        # (the paper's "copying data back and forth from an enclave").
        ctx.charge(self.machine.cost.mem_cycles(nbytes, write, in_epc=True))

    def _alloc_iv(self, nbytes: int) -> bytes:
        """A fresh IV/counter block covering ``nbytes`` of keystream.

        Advances the monotone block counter by the payload's worst-case
        block count (16-byte AES blocks; the fast suite's 32-byte chunks
        consume at most as many), so consecutive allocations hand out
        disjoint keystream spans.  Cycle accounting stays at the call
        sites: inserts charge the one-block ``sgx_read_rand`` cost real
        ShieldStore pays per fresh entry IV; updates charge nothing,
        like the counter bump they replace.
        """
        iv_ctr = struct.pack(">QQ", self._iv_salt, self._iv_seq)
        self._iv_seq += (nbytes + 15) // 16
        return iv_ctr

    def _wal_append(self, op: str, key: bytes, value: bytes = b"") -> None:
        """Seal one mutating request into the WAL *before* applying it.

        With no log attached this is one attribute check.  The append
        precedes every state change, so a crash at any later point
        leaves the operation replayable; an op that goes on to fail
        deterministically (miss, type error) fails the same way on
        replay.
        """
        if self.wal is not None:
            self.wal.append(Request(op, key, value))

    # -- entry record I/O ---------------------------------------------------
    def _read_header(self, ctx: ExecContext, addr: int) -> EntryHeader:
        header = unpack_header(self._memory.read(ctx, addr, HEADER_SIZE))
        if self.config.pointer_check and ENCLAVE_BASE <= header.next_ptr < ENCLAVE_END:
            raise enclave_pointer_error(header.next_ptr)
        return header

    def _read_enc_kv(self, ctx: ExecContext, addr: int, header: EntryHeader) -> bytes:
        return self._memory.read(
            ctx, addr + HEADER_SIZE, header.key_size + header.val_size
        )

    def _read_entry_mac(self, ctx: ExecContext, addr: int, header: EntryHeader) -> bytes:
        return self._memory.read(
            ctx, addr + HEADER_SIZE + header.key_size + header.val_size, MAC_SIZE
        )

    def _write_entry(
        self,
        ctx: ExecContext,
        addr: int,
        header: EntryHeader,
        enc_kv: bytes,
        mac: bytes,
    ) -> None:
        self._memory.write(ctx, addr, pack_header(header) + enc_kv + mac)

    def _encrypt_entry(
        self,
        ctx: ExecContext,
        key: bytes,
        value: bytes,
        iv_ctr: bytes,
        next_ptr: int,
        hint: Optional[int],
    ) -> Tuple[EntryHeader, bytes, bytes]:
        """Seal one entry.  ``hint`` is the key hint the lookup already
        computed, or None when hints are off and the lookup made none
        — the entry stores its real hint either way."""
        if hint is None:
            hint = self.keyring.key_hint(key)
        header = EntryHeader(
            next_ptr=next_ptr,
            key_hint=hint,
            key_size=len(key),
            val_size=len(value),
            iv_ctr=iv_ctr,
        )
        ctx.charge_aes(len(key) + len(value))
        enc_kv = self.suite.encrypt(iv_ctr, key + value)
        ctx.charge_cmac(len(enc_kv) + 25)
        mac = self.suite.mac(mac_message(header, enc_kv))
        return header, enc_kv, mac

    # ------------------------------------------------------------------
    # chain search
    # ------------------------------------------------------------------
    # A walk returns ``(found, chain_len, candidates, macs)``.
    # ``candidates`` are entries that were decrypted but did not match
    # the requested key (hint collisions — or tampered ciphertexts, which
    # is why :meth:`_verify_walk` verifies their MACs before a miss is
    # reported).  ``chain_len`` is the full chain length on a miss (the
    # walk reached the end) and -1 on a hit.  ``macs`` is the chain's MAC
    # blob when the walk had to collect it (no MAC buckets), else ``None``.
    def _walk(
        self, ctx: ExecContext, bucket: int, key: bytes, hint: Optional[int], use_hints: bool
    ):
        """Walk one bucket chain looking for ``key`` (MAC-bucket
        configuration): candidates are decrypted inline, so the walk
        stops at the match — MAC buckets provide the MACs of the chain
        tail it skips (§5.2)."""
        read = self._memory.read
        stats = self.stats
        check = self.config.pointer_check
        key_len = len(key)
        candidates: List[Tuple[int, HeaderFields, bytes]] = []
        prev = index = 0
        addr = self.buckets.read_head(ctx, bucket, check)
        while addr:
            if index >= _MAX_CHAIN:
                raise IntegrityError("hash chain cycle detected (corrupted table)")
            fields = unpack_header_fields(read(ctx, addr, HEADER_SIZE))
            next_ptr, key_hint, key_size, val_size, iv_ctr = fields
            if next_ptr and check and ENCLAVE_BASE <= next_ptr < ENCLAVE_END:
                raise enclave_pointer_error(next_ptr)
            stats.chain_steps += 1
            if key_size != key_len:
                pass
            elif use_hints and key_hint != hint:
                stats.hint_skips += 1
            else:
                enc_kv = read(ctx, addr + HEADER_SIZE, key_size + val_size)
                ctx.charge_aes(len(enc_kv))
                self.machine.counters.decryptions += 1
                stats.search_decryptions += 1
                plain = self.suite.decrypt(iv_ctr, enc_kv)
                if plain.startswith(key):
                    found = FoundEntry(
                        addr, prev, index, fields, key, plain[key_size:], enc_kv
                    )
                    return found, -1, candidates, None
                candidates.append((index, fields, enc_kv))
            prev = addr
            addr = next_ptr
            index += 1
        return None, index, candidates, None

    def _walk_collecting(
        self, ctx: ExecContext, bucket: int, key: bytes, hint: Optional[int], use_hints: bool
    ):
        """Walk one bucket chain looking for ``key`` when the entries hold
        the only copy of their MACs: every entry is visited and its MAC
        collected, and candidate decryption is deferred to the suite's
        batched keystream primitive (:meth:`_decrypt_candidates`)."""
        macs = b""
        candidates: List[Tuple[int, HeaderFields, bytes]] = []
        pending: List[Tuple[int, int, int, EntryHeader]] = []
        prev = index = 0
        addr = self.buckets.read_head(ctx, bucket, self.config.pointer_check)
        while addr:
            if index >= _MAX_CHAIN:
                raise IntegrityError("hash chain cycle detected (corrupted table)")
            header = self._read_header(ctx, addr)
            self.stats.chain_steps += 1
            macs += self._read_entry_mac(ctx, addr, header)
            if header.key_size != len(key):
                pass
            elif use_hints and header.key_hint != hint:
                self.stats.hint_skips += 1
            else:
                pending.append((index, addr, prev, header))
            prev = addr
            addr = header.next_ptr
            index += 1
        if pending:
            found = self._decrypt_candidates(ctx, key, pending, candidates)
            if found is not None:
                return found, -1, candidates, macs
        return None, index, candidates, macs

    # Candidates decrypted per batched-keystream call; chunking keeps
    # the early stop at a match from speculating far past it.
    _DECRYPT_CHUNK = 8

    def _decrypt_candidates(
        self,
        ctx: ExecContext,
        key: bytes,
        pending: List[Tuple[int, int, int, EntryHeader]],
        candidates: List[Tuple[int, HeaderFields, bytes]],
    ) -> Optional[FoundEntry]:
        """Decrypt deferred walk candidates through ``decrypt_many``.

        Candidates are processed in chain order, one fixed-size chunk
        per batched keystream call, stopping after the chunk containing
        the plaintext key match.  Ciphertext reads and AES cycles are
        charged per decrypted entry, exactly as the inline path would
        charge them; every decrypted non-match lands in ``candidates``
        so :meth:`_verify_walk` verifies it before a miss or hit
        is reported.
        """
        for start in range(0, len(pending), self._DECRYPT_CHUNK):
            chunk = pending[start : start + self._DECRYPT_CHUNK]
            enc_kvs = [
                self._read_enc_kv(ctx, addr, header)
                for _index, addr, _prev, header in chunk
            ]
            for (_i, _a, _p, header), enc_kv in zip(chunk, enc_kvs):
                ctx.charge_aes(len(enc_kv))
                self.machine.counters.decryptions += 1
                self.stats.search_decryptions += 1
            plains = self.suite.decrypt_many(
                [
                    (header.iv_ctr, enc_kv)
                    for (_i, _a, _p, header), enc_kv in zip(chunk, enc_kvs)
                ]
            )
            found: Optional[FoundEntry] = None
            for (index, addr, prev, header), enc_kv, plain in zip(
                chunk, enc_kvs, plains
            ):
                plain_key = plain[: header.key_size]
                if found is None and plain_key == key:
                    found = FoundEntry(
                        addr, prev, index, header,
                        plain_key, plain[header.key_size :], enc_kv,
                    )
                else:
                    candidates.append((index, header, enc_kv))
            if found is not None:
                return found
        return None

    # ------------------------------------------------------------------
    # integrity plumbing
    # ------------------------------------------------------------------
    def _chase_bucket_macs(self, ctx: ExecContext, bucket: int) -> bytes:
        """``bucket``'s entry MACs in chain order, read off the entries
        themselves (the configuration without MAC buckets)."""
        macs = b""
        addr = self.buckets.read_head(ctx, bucket, self.config.pointer_check)
        steps = 0
        while addr:
            if steps >= _MAX_CHAIN:
                raise IntegrityError("hash chain cycle detected (corrupted table)")
            header = self._read_header(ctx, addr)
            macs += self._read_entry_mac(ctx, addr, header)
            addr = header.next_ptr
            steps += 1
        return macs

    def _update_set(
        self, ctx: ExecContext, set_id: int, by_bucket: Dict[int, bytes]
    ) -> None:
        self.mactree.update_set(ctx, self.suite, set_id, b"".join(by_bucket.values()))
        if self.maccache is not None:
            # Write-through: every mutation path funnels here, so the
            # enclave-resident verified copy can never go stale relative
            # to what was just written to untrusted memory.
            self.maccache.store(ctx, set_id, by_bucket)
            self.stats.mac_cache_evictions = self.maccache.evictions

    def _verify_covering_set(
        self,
        ctx: ExecContext,
        bucket: int,
        own_macs: Optional[bytes] = None,
        verified_sets: Optional[Dict[int, Dict[int, bytes]]] = None,
        audit: bool = False,
    ) -> Tuple[int, Dict[int, bytes]]:
        """Authenticated MAC blobs for ``bucket``'s covering set: one
        contiguous blob per member bucket, chain order, members ascending
        — so the §4.3 set-hash message is the blobs joined as they sit.

        Fast path: the enclave-resident :class:`MacSetCache` already
        holds the verified blobs — enclave memory is ground truth, so
        neither the untrusted re-gather nor the keyed set-hash
        recomputation is needed (the caller still authenticates the
        entries it uses against the returned blobs).  On a miss the
        full §4.3 gather + verification runs and repopulates the cache.
        ``own_macs`` stands in for ``bucket``'s blob when the caller
        already collected it.

        A batch passes its ``verified_sets``: the first operation
        touching a set gathers and verifies it, later ones reuse the
        authenticated (and batch-locally maintained) blobs.  Dirty sets
        must NOT be re-verified mid-batch — their stored hashes are
        stale until the batch flushes — which holds structurally: a set
        stays in ``verified_sets`` from first touch, and because
        mutations replace blobs in the shared dict and ``verified_sets``
        is seeded with the cached dict itself, a mid-batch cache hit on
        a dirty set returns the maintained blobs, never a stale copy.

        ``audit`` re-derives trust from untrusted memory and the
        in-enclave hash alone: the cache is neither consulted nor
        filled, and a never-written set (no MACs under an all-zero hash)
        has nothing to hash.
        """
        stats = self.stats
        mactree = self.mactree
        set_id = mactree.set_of(bucket)
        maccache = None if audit else self.maccache
        if maccache is not None:
            by_bucket = maccache.lookup(ctx, set_id)
            if by_bucket is not None:
                stats.mac_cache_hits += 1
                if verified_sets is not None:
                    verified_sets.setdefault(set_id, by_bucket)
                return set_id, by_bucket
        if verified_sets is not None and set_id in verified_sets:
            stats.batch_verifications_saved += 1
            return set_id, verified_sets[set_id]
        if maccache is not None:
            stats.mac_cache_misses += 1
        started = perf_counter()  # stage_verify_s: what a cache hit skips
        check = self.config.pointer_check
        macbuckets = self.macbuckets
        by_bucket = {}
        for member in mactree.buckets_of(set_id):
            if member == bucket and own_macs is not None:
                by_bucket[member] = own_macs
            elif macbuckets is None:
                by_bucket[member] = self._chase_bucket_macs(ctx, member)
            else:
                head = self.buckets.read_mac_ptr(ctx, member, check)
                by_bucket[member] = macbuckets.read(ctx, head, check) if head else b""
        message = b"".join(by_bucket.values())
        if message or not audit or not compare_digest(
            mactree.read_hash(ctx, set_id), bytes(16)
        ):
            stats.integrity_checks += 1
            mactree.verify_set(ctx, self.suite, set_id, message)
        stats.stage_verify_s += perf_counter() - started
        if maccache is not None:
            maccache.store(ctx, set_id, by_bucket)
            stats.mac_cache_evictions = maccache.evictions
        if verified_sets is not None:
            stats.batch_sets_verified += 1
            verified_sets[set_id] = by_bucket
        return set_id, by_bucket

    def _lookup(
        self,
        ctx: ExecContext,
        key: bytes,
        verified_sets: Optional[Dict[int, Dict[int, bytes]]] = None,
    ) -> Tuple[int, int, Dict[int, bytes], Optional[FoundEntry], Optional[int]]:
        """Every operation's read prologue: search the chain (hint-guided,
        with the §5.4 two-step fallback), obtain the authenticated
        covering-set MAC blobs, and authenticate what the walk concluded
        — the found entry included.  Returns ``(bucket, set_id,
        by_bucket, found, hint)``; ``hint`` is None when hints are off,
        and an insert seals the entry with it.
        """
        config = self.config
        ctx.charge_keyed_hash()
        bucket = self.keyring.keyed_bucket_hash(key, config.num_buckets)
        use_hints = config.key_hint_enabled
        hint = None
        if use_hints:
            ctx.charge_keyed_hash()
            hint = self.keyring.key_hint(key)
        stats = self.stats
        walk = self._walk if self.macbuckets is not None else self._walk_collecting
        started = perf_counter()
        found, chain_len, candidates, macs = walk(ctx, bucket, key, hint, use_hints)
        if found is None and use_hints and config.two_step_search:
            # Hints may have been corrupted (availability attack, §5.4):
            # re-walk decrypting everything before concluding absence.
            stats.full_searches += 1
            found, chain_len, candidates, macs = walk(ctx, bucket, key, hint, False)
        stats.stage_walk_s += perf_counter() - started
        set_id, by_bucket = self._verify_covering_set(ctx, bucket, macs, verified_sets)
        started = perf_counter()
        blob = by_bucket[bucket]
        if candidates or found is None:
            self._verify_walk(ctx, blob, chain_len, candidates)
        if found is not None:
            self._verify_found(ctx, found, blob)
        stats.stage_crypto_s += perf_counter() - started
        return bucket, set_id, by_bucket, found, hint

    def _verify_found(self, ctx: ExecContext, found: FoundEntry, blob: bytes) -> None:
        """Check the found entry's own MAC against the authenticated copy.

        ``blob`` is ground truth either way it was obtained — a
        just-verified §4.3 gather, or the enclave-cached copy (the O(1)
        hit path) — so this one constant-time comparison at the entry's
        chain position is the entire per-entry authentication.
        :meth:`_lookup` makes it for every hit; the read-modify-write
        verbs (append, increment, compare-and-swap) make it once more
        right before they rewrite the entry they computed from, a second
        entry MAC the simulated ledger has always charged them.
        """
        ctx.charge_cmac(len(found.enc_kv) + 25)
        computed = self.suite.mac(mac_message(found.header, found.enc_kv))
        expected = blob[mac_span(found.index)]
        if not expected:
            raise IntegrityError(
                "entry is missing from its MAC bucket (tampered metadata)"
            )
        if not compare_digest(computed, expected):
            raise IntegrityError(
                f"entry MAC mismatch for key {self.keyring.redact(found.key)}: "
                "untrusted entry bytes were tampered with"
            )

    def _verify_walk(
        self,
        ctx: ExecContext,
        blob: bytes,
        chain_len: int,
        candidates: List[Tuple[int, HeaderFields, bytes]],
    ) -> None:
        """Authenticate what a walk concluded beside the entry it found
        (hardening beyond the paper; see DESIGN.md).

        * Decrypted-but-unmatched candidates are verified, so a flipped
          ciphertext cannot masquerade as a different key and turn into a
          silent authenticated miss.
        * On a miss (``chain_len >= 0``: the walk reached the end), the
          observed chain length must equal the authenticated MAC count —
          in MAC-bucket mode a truncated chain would otherwise hide
          entries while the set hash still matched.
        """
        for index, header, enc_kv in candidates:
            ctx.charge_cmac(len(enc_kv) + 25)
            computed = self.suite.mac(mac_message(header, enc_kv))
            if not compare_digest(computed, blob[mac_span(index)]):
                raise IntegrityError(
                    f"chain entry at position {index} failed verification: "
                    "untrusted entry bytes were tampered with"
                )
        if chain_len >= 0 and chain_len * MAC_SIZE != len(blob):
            raise IntegrityError(
                f"chain length {chain_len} does not match the "
                f"authenticated MAC count {len(blob) // MAC_SIZE}: entries were "
                "hidden or injected"
            )

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    def get(self, key: bytes, ctx: Optional[ExecContext] = None) -> bytes:
        """Return the value stored under ``key``.

        Raises :class:`KeyNotFoundError` when absent,
        :class:`IntegrityError`/:class:`ReplayError` when untrusted state
        fails verification.
        """
        if ctx is None:
            ctx = self._ctx
        cost = self.machine.cost
        ctx.charge(cost.op_dispatch_cycles)
        stats = self.stats
        stats.gets += 1
        key = bytes(key)
        if self.cache is not None:
            cached = self.cache.lookup(ctx, key)
            if cached is not None:
                stats.cache_hits += 1
                stats.hits += 1
                return cached
            stats.cache_misses += 1
        found = self._lookup(ctx, key)[3]
        if found is None:
            stats.misses += 1
            # shieldlint: ignore[trust-boundary] -- structured miss signal: the key rides as the exception argument, every boundary catches it (execute_request maps it to STATUS_MISS) and only redacted text may enter transported messages
            raise KeyNotFoundError(key)
        value = found.value
        ctx.charge(cost.mem_cycles(len(value), True, True))  # copy-out, as _charge_copy
        if self.cache is not None:
            self.cache.store(ctx, key, value)
        stats.hits += 1
        return value

    def set(self, key: bytes, value: bytes, ctx: Optional[ExecContext] = None) -> None:
        """Insert or update ``key`` -> ``value``."""
        ctx = self._context(ctx)
        ctx.charge(self.machine.cost.op_dispatch_cycles)
        self.stats.sets += 1
        key, value = bytes(key), bytes(value)
        self._wal_append("set", key, value)
        self._charge_copy(ctx, len(key) + len(value), write=False)
        bucket, set_id, by_bucket, found, hint = self._lookup(ctx, key)
        if found is not None:
            self._update_entry(ctx, bucket, set_id, by_bucket, found, value)
            self.stats.updates += 1
        else:
            self._insert_entry(ctx, bucket, set_id, by_bucket, key, value, hint)
            self.stats.inserts += 1
        if self.cache is not None:
            self.cache.store(ctx, key, value)

    def delete(self, key: bytes, ctx: Optional[ExecContext] = None) -> None:
        """Remove ``key``; raises :class:`KeyNotFoundError` when absent."""
        ctx = self._context(ctx)
        ctx.charge(self.machine.cost.op_dispatch_cycles)
        self.stats.deletes += 1
        key = bytes(key)
        self._wal_append("delete", key)
        bucket, set_id, by_bucket, found, _hint = self._lookup(ctx, key)
        if found is None:
            self.stats.misses += 1
            # shieldlint: ignore[trust-boundary] -- structured miss signal: the key rides as the exception argument, every boundary catches it (execute_request maps it to STATUS_MISS) and only redacted text may enter transported messages
            raise KeyNotFoundError(key)
        self._remove_entry(ctx, bucket, set_id, by_bucket, found)

    def append(self, key: bytes, suffix: bytes, ctx: Optional[ExecContext] = None) -> bytes:
        """Append ``suffix`` to the value (server-side op, §6.2).

        Creates the key when absent (Redis ``APPEND`` semantics).
        Returns the new value.
        """
        ctx = self._context(ctx)
        ctx.charge(self.machine.cost.op_dispatch_cycles)
        self.stats.appends += 1
        key, suffix = bytes(key), bytes(suffix)
        self._wal_append("append", key, suffix)
        self._charge_copy(ctx, len(key) + len(suffix), write=False)
        bucket, set_id, by_bucket, found, hint = self._lookup(ctx, key)
        if found is None:
            self._insert_entry(ctx, bucket, set_id, by_bucket, key, suffix, hint)
            self.stats.inserts += 1
            new_value = suffix
        else:
            new_value = found.value + suffix
            self._verify_found(ctx, found, by_bucket[bucket])
            self._update_entry(ctx, bucket, set_id, by_bucket, found, new_value)
            self.stats.updates += 1
        if self.cache is not None:
            self.cache.store(ctx, key, new_value)
        return new_value

    def increment(
        self, key: bytes, delta: int = 1, ctx: Optional[ExecContext] = None
    ) -> int:
        """Add ``delta`` to an ASCII-integer value (server-side op, §3.2).

        Creates the key at ``delta`` when absent (Redis ``INCRBY``).
        Returns the new integer value.
        """
        ctx = self._context(ctx)
        ctx.charge(self.machine.cost.op_dispatch_cycles)
        self.stats.increments += 1
        key = bytes(key)
        self._wal_append("increment", key, str(delta).encode())
        bucket, set_id, by_bucket, found, hint = self._lookup(ctx, key)
        if found is None:
            new_int = delta
            self._insert_entry(
                ctx, bucket, set_id, by_bucket, key, str(new_int).encode(), hint
            )
            self.stats.inserts += 1
        else:
            try:
                new_int = int(found.value.decode("ascii")) + delta
            except (UnicodeDecodeError, ValueError):
                raise StoreError(
                    f"value under {self.keyring.redact(key)} is not an "
                    "ASCII integer"
                ) from None
            self._verify_found(ctx, found, by_bucket[bucket])
            self._update_entry(
                ctx, bucket, set_id, by_bucket, found, str(new_int).encode()
            )
            self.stats.updates += 1
        if self.cache is not None:
            self.cache.store(ctx, key, str(new_int).encode())
        return new_int

    def compare_and_swap(
        self,
        key: bytes,
        expected: bytes,
        new_value: bytes,
        ctx: Optional[ExecContext] = None,
    ) -> bool:
        """Atomically replace ``key``'s value iff it equals ``expected``.

        Another §3.2 server-side operation: the comparison happens on the
        plaintext *inside the enclave*, so the client never round-trips
        the current value, and the host observes only that an entry was
        rewritten.  Returns True on swap, False on value mismatch; raises
        :class:`KeyNotFoundError` when absent.
        """
        ctx = self._context(ctx)
        ctx.charge(self.machine.cost.op_dispatch_cycles)
        key, expected, new_value = bytes(key), bytes(expected), bytes(new_value)
        self._wal_append("cas", key, encode_cas_value(expected, new_value))
        self._charge_copy(ctx, len(key) + len(expected) + len(new_value), write=False)
        bucket, set_id, by_bucket, found, _hint = self._lookup(ctx, key)
        if found is None:
            self.stats.misses += 1
            # shieldlint: ignore[trust-boundary] -- structured miss signal: the key rides as the exception argument, every boundary catches it (execute_request maps it to STATUS_MISS) and only redacted text may enter transported messages
            raise KeyNotFoundError(key)
        if found.value != expected:
            return False
        self._verify_found(ctx, found, by_bucket[bucket])
        self._update_entry(ctx, bucket, set_id, by_bucket, found, new_value)
        self.stats.sets += 1
        self.stats.updates += 1
        if self.cache is not None:
            self.cache.store(ctx, key, new_value)
        return True

    def contains(self, key: bytes, ctx: Optional[ExecContext] = None) -> bool:
        """Membership test with full integrity verification."""
        try:
            self.get(key, ctx)
            return True
        except KeyNotFoundError:
            return False

    def multi_get(
        self, keys, ctx: Optional[ExecContext] = None
    ) -> Dict[bytes, Optional[bytes]]:
        """Batched lookup (memcached ``get_multi`` semantics).

        Returns a dict with one entry per requested key; absent keys map
        to ``None``.  Keys that share a bucket set amortize the set-hash
        verification: the integrity read covering the whole set is done
        once per set instead of once per key.
        """
        ctx = self._context(ctx)
        self.stats.batches += 1
        results: Dict[bytes, Optional[bytes]] = {}
        verified_sets: Dict[int, Dict[int, bytes]] = {}
        for key in keys:
            key = bytes(key)
            ctx.charge(self.machine.cost.op_dispatch_cycles // 2)
            self.stats.gets += 1
            self.stats.batch_ops += 1
            if self.cache is not None:
                cached = self.cache.lookup(ctx, key)
                if cached is not None:
                    self.stats.cache_hits += 1
                    self.stats.hits += 1
                    results[key] = cached
                    continue
                self.stats.cache_misses += 1
            found = self._lookup(ctx, key, verified_sets)[3]
            if found is None:
                self.stats.misses += 1
                results[key] = None
                continue
            self._charge_copy(ctx, len(found.value), write=True)
            if self.cache is not None:
                self.cache.store(ctx, key, found.value)
            self.stats.hits += 1
            results[key] = found.value
        return results

    def multi_set(self, items, ctx: Optional[ExecContext] = None) -> None:
        """Batched insert/update (memcached ``set_multi`` semantics).

        ``items`` is a dict or an iterable of ``(key, value)`` pairs;
        later pairs for a repeated key win.  Batching amortizes the
        per-set integrity work twice over:

        * like :meth:`multi_get`, each touched bucket set is gathered
          and verified once per batch instead of once per operation;
        * per-set **dirty tracking** — mutations update the untrusted
          bytes and the batch-local authenticated MAC lists immediately,
          but the in-enclave set hash is recomputed and stored once per
          dirty set when the batch completes, not once per write.

        Untrusted state is momentarily ahead of the enclave set hashes
        mid-batch; the flush in the ``finally`` block restores the
        invariant even when verification fails part-way, so every
        operation the batch did apply remains readable afterwards.
        """
        ctx = self._context(ctx)
        if isinstance(items, dict):
            items = items.items()
        pairs = [(bytes(key), bytes(value)) for key, value in items]
        if pairs and self.wal is not None:
            self._wal_append("mset", b"", encode_multi_items(pairs))
        self.stats.batches += 1
        verified_sets: Dict[int, Dict[int, bytes]] = {}
        dirty_sets: set = set()
        mutations = 0
        try:
            for key, value in pairs:
                ctx.charge(self.machine.cost.op_dispatch_cycles // 2)
                self.stats.sets += 1
                self.stats.batch_ops += 1
                self._charge_copy(ctx, len(key) + len(value), write=False)
                bucket, set_id, by_bucket, found, hint = self._lookup(
                    ctx, key, verified_sets
                )
                if found is not None:
                    self._update_entry(
                        ctx, bucket, set_id, by_bucket, found, value,
                        update_set=False,
                    )
                    self.stats.updates += 1
                else:
                    self._insert_entry(
                        ctx, bucket, set_id, by_bucket, key, value, hint,
                        update_set=False,
                    )
                    self.stats.inserts += 1
                dirty_sets.add(set_id)
                mutations += 1
                if self.cache is not None:
                    self.cache.store(ctx, key, value)
        finally:
            for set_id in sorted(dirty_sets):
                self._update_set(ctx, set_id, verified_sets[set_id])
            self.stats.batch_set_updates_saved += max(
                0, mutations - len(dirty_sets)
            )

    def multi_delete(
        self, keys, ctx: Optional[ExecContext] = None
    ) -> Dict[bytes, bool]:
        """Batched removal; returns ``{key: was_present}``.

        Unlike single-key :meth:`delete`, absent keys do not raise —
        they report ``False`` — so one cold key cannot abort the rest of
        the batch.  Integrity failures still raise immediately.  Set
        hashes are flushed once per dirty set (same dirty-tracking
        discipline as :meth:`multi_set`).
        """
        ctx = self._context(ctx)
        keys = [bytes(key) for key in keys]
        if keys and self.wal is not None:
            self._wal_append("mdelete", b"", encode_multi_keys(keys))
        self.stats.batches += 1
        results: Dict[bytes, bool] = {}
        verified_sets: Dict[int, Dict[int, bytes]] = {}
        dirty_sets: set = set()
        mutations = 0
        try:
            for key in keys:
                ctx.charge(self.machine.cost.op_dispatch_cycles // 2)
                self.stats.deletes += 1
                self.stats.batch_ops += 1
                bucket, set_id, by_bucket, found, _hint = self._lookup(
                    ctx, key, verified_sets
                )
                if found is None:
                    self.stats.misses += 1
                    # A duplicate of a key already deleted earlier in the
                    # batch keeps its True outcome.
                    results.setdefault(key, False)
                    continue
                self._remove_entry(
                    ctx, bucket, set_id, by_bucket, found,
                    update_set=False,
                )
                dirty_sets.add(set_id)
                mutations += 1
                results[key] = True
        finally:
            for set_id in sorted(dirty_sets):
                self._update_set(ctx, set_id, verified_sets[set_id])
            self.stats.batch_set_updates_saved += max(
                0, mutations - len(dirty_sets)
            )
        return results

    def __len__(self) -> int:
        return self.count

    def audit(self, ctx: Optional[ExecContext] = None) -> int:
        """Full-table integrity audit; returns the number of entries checked.

        Verifies every bucket-set hash *and* every entry's own MAC — the
        strongest offline check available (an admin operation, e.g. after
        a restore or on a schedule).  Deliberately bypasses the MAC
        cache: an audit's job is to re-derive trust from the in-enclave
        set hashes alone.  Raises the usual
        :class:`~repro.errors.ReplayError`/:class:`~repro.errors.IntegrityError`
        on the first inconsistency.
        """
        ctx = self._context(ctx)
        checked = 0
        for set_id in range(self.config.num_mac_hashes):
            by_bucket = self._verify_covering_set(ctx, set_id, audit=True)[1]
            for bucket, blob in by_bucket.items():
                addr = self.buckets.read_head(ctx, bucket, self.config.pointer_check)
                index = 0
                while addr:
                    header = self._read_header(ctx, addr)
                    enc_kv = self._read_enc_kv(ctx, addr, header)
                    ctx.charge_cmac(len(enc_kv) + 25)
                    computed = self.suite.mac(mac_message(header, enc_kv))
                    if not compare_digest(computed, blob[mac_span(index)]):
                        raise IntegrityError(
                            f"audit: entry {index} of bucket {bucket} fails "
                            "verification"
                        )
                    addr = header.next_ptr
                    index += 1
                    checked += 1
                if index * MAC_SIZE != len(blob):
                    raise IntegrityError(
                        f"audit: bucket {bucket} chain length {index} != "
                        f"authenticated MAC count {len(blob) // MAC_SIZE}"
                    )
        return checked

    # ------------------------------------------------------------------
    # mutation internals
    # ------------------------------------------------------------------
    def _update_entry(
        self,
        ctx: ExecContext,
        bucket: int,
        set_id: int,
        by_bucket: Dict[int, bytes],
        found: FoundEntry,
        new_value: bytes,
        update_set: bool = True,
    ) -> None:
        # A fresh disjoint span, NOT increment_iv_ctr(old_iv): advancing
        # one block would overlap the old ciphertext's keystream span
        # for any record longer than one block (two-time pad).
        # The found entry's hint is authenticated (its MAC covers it),
        # so the rewrite keeps it instead of hashing the key again.
        next_ptr, hint, key_size, val_size, _iv_ctr = found.header
        new_iv = self._alloc_iv(key_size + len(new_value))
        header, enc_kv, mac = self._encrypt_entry(
            ctx, found.key, new_value, new_iv, next_ptr, hint
        )
        if len(new_value) == val_size:
            # Same size: rewrite the record in place.
            self._write_entry(ctx, found.addr, header, enc_kv, mac)
        else:
            # Size changed: reallocate and splice into the same position.
            self.allocator.free(ctx, found.addr, entry_total_size(key_size, val_size))
            new_addr = self.allocator.alloc(ctx, header.total_size)
            self._write_entry(ctx, new_addr, header, enc_kv, mac)
            if found.prev_addr:
                self._memory.write(
                    ctx, found.prev_addr, new_addr.to_bytes(8, "little")
                )
            else:
                self.buckets.write_head(ctx, bucket, new_addr)
        if self.macbuckets is not None:
            head = self.buckets.read_mac_ptr(ctx, bucket, self.config.pointer_check)
            self.macbuckets.replace(
                ctx, head, found.index, mac, self.config.pointer_check
            )
        by_bucket[bucket] = mac_splice(by_bucket[bucket], found.index, mac)
        if update_set:
            self._update_set(ctx, set_id, by_bucket)
        self._sync_alloc_stats()

    def _insert_entry(
        self,
        ctx: ExecContext,
        bucket: int,
        set_id: int,
        by_bucket: Dict[int, bytes],
        key: bytes,
        value: bytes,
        hint: Optional[int],
        update_set: bool = True,
    ) -> None:
        iv_ctr = self._alloc_iv(len(key) + len(value))
        ctx.charge_rand(16)  # the per-entry IV cost real ShieldStore pays
        old_head = self.buckets.read_head(ctx, bucket, self.config.pointer_check)
        header, enc_kv, mac = self._encrypt_entry(
            ctx, key, value, iv_ctr, old_head, hint
        )
        addr = self.allocator.alloc(ctx, header.total_size)
        self._write_entry(ctx, addr, header, enc_kv, mac)
        self.buckets.write_head(ctx, bucket, addr)
        if self.macbuckets is not None:
            head = self.buckets.read_mac_ptr(ctx, bucket, self.config.pointer_check)
            new_head = self.macbuckets.insert_front(
                ctx, head, mac, self.config.pointer_check
            )
            if new_head != head:
                self.buckets.write_mac_ptr(ctx, bucket, new_head)
        by_bucket[bucket] = mac + by_bucket[bucket]
        if update_set:
            self._update_set(ctx, set_id, by_bucket)
        self.count += 1
        self._sync_alloc_stats()

    def _remove_entry(
        self,
        ctx: ExecContext,
        bucket: int,
        set_id: int,
        by_bucket: Dict[int, bytes],
        found: FoundEntry,
        update_set: bool = True,
    ) -> None:
        """Unlink a verified entry and retire its MAC (shared by
        ``delete`` and ``multi_delete``)."""
        next_ptr, _hint, key_size, val_size, _iv_ctr = found.header
        if found.prev_addr:
            self._memory.write(ctx, found.prev_addr, next_ptr.to_bytes(8, "little"))
        else:
            self.buckets.write_head(ctx, bucket, next_ptr)
        self.allocator.free(ctx, found.addr, entry_total_size(key_size, val_size))
        if self.macbuckets is not None:
            head = self.buckets.read_mac_ptr(ctx, bucket, self.config.pointer_check)
            new_head = self.macbuckets.remove(
                ctx, head, found.index, self.config.pointer_check
            )
            if new_head != head:
                self.buckets.write_mac_ptr(ctx, bucket, new_head)
        by_bucket[bucket] = mac_splice(by_bucket[bucket], found.index)
        if update_set:
            self._update_set(ctx, set_id, by_bucket)
        if self.cache is not None:
            self.cache.invalidate(found.key)
        self.count -= 1
        self._sync_alloc_stats()

    def _sync_alloc_stats(self) -> None:
        self.stats.alloc_ocalls = self.allocator.ocalls
        self.stats.alloc_requests = self.allocator.requests

    # ------------------------------------------------------------------
    # iteration (snapshots, tests)
    # ------------------------------------------------------------------
    def iter_raw_entries(self) -> Iterator[Tuple[int, bytes]]:
        """Yield (bucket, raw_record_bytes) without charging cycles.

        Used by the snapshot child process, which reads the untrusted
        region directly (the entries are already encrypted, §4.4).
        """
        mem = self._memory
        for bucket in range(self.config.num_buckets):
            addr_raw = mem.raw_read(self.buckets.slot_addr(bucket), 8)
            addr = int.from_bytes(addr_raw, "little")
            steps = 0
            while addr:
                if steps >= _MAX_CHAIN:
                    raise IntegrityError("hash chain cycle during snapshot walk")
                header = unpack_header(mem.raw_read(addr, HEADER_SIZE))
                record = mem.raw_read(addr, header.total_size)
                yield bucket, record
                addr = header.next_ptr
                steps += 1

    def iter_items(
        self, ctx: Optional[ExecContext] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Decrypt-iterate all (key, value) pairs (charged enclave work).

        Each bucket chain is MAC-verified against its covering set hash
        before its plaintext is yielded (verify-before-use, §4.3).
        Entries are decrypted through the suite's batched keystream path
        in fixed-size chunks; the per-entry AES cycle charges are
        unchanged (batching saves Python overhead, not modeled work).
        """
        ctx = self._context(ctx)
        chain: List[Tuple[EntryHeader, bytes]] = []
        current = -1
        for bucket, record in self.iter_raw_entries():
            if bucket != current:
                yield from self._emit_verified_bucket(ctx, current, chain)
                chain, current = [], bucket
            header = unpack_header(record[:HEADER_SIZE])
            enc_kv = record[HEADER_SIZE : HEADER_SIZE + header.kv_size]
            ctx.charge_aes(len(enc_kv))
            chain.append((header, enc_kv))
        yield from self._emit_verified_bucket(ctx, current, chain)

    def iter_set_items(
        self, set_id: int, ctx: Optional[ExecContext] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Decrypt-iterate one MAC set's (key, value) pairs, verified.

        Replication anti-entropy descends into exactly the bucket sets
        whose logical digests diverge, so it needs a per-set walk: each
        chain covered by ``set_id`` is MAC-verified against its set
        hash before plaintext is yielded, same as :meth:`iter_items`.
        """
        if not 0 <= set_id < self.mactree.num_hashes:
            raise StoreError(f"MAC set id {set_id} out of range")
        ctx = self._context(ctx)
        mem = self._memory
        for bucket in self.mactree.buckets_of(set_id):
            addr = int.from_bytes(mem.raw_read(self.buckets.slot_addr(bucket), 8), "little")
            chain: List[Tuple[EntryHeader, bytes]] = []
            steps = 0
            while addr:
                if steps >= _MAX_CHAIN:
                    raise IntegrityError("hash chain cycle during set walk")
                header = unpack_header(mem.raw_read(addr, HEADER_SIZE))
                record = mem.raw_read(addr, header.total_size)
                enc_kv = record[HEADER_SIZE : HEADER_SIZE + header.kv_size]
                ctx.charge_aes(len(enc_kv))
                chain.append((header, enc_kv))
                addr = header.next_ptr
                steps += 1
            yield from self._emit_verified_bucket(ctx, bucket, chain)

    def _emit_verified_bucket(
        self,
        ctx: ExecContext,
        bucket: int,
        entries: List[Tuple[EntryHeader, bytes]],
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Authenticate one bucket chain, then decrypt-yield its entries.

        Mirrors the read path: the chain's entry MACs are checked
        against the covering set hash (and, in MAC-bucket mode, against
        the authenticated per-entry MAC list) before any plaintext
        leaves this method — a tampered or truncated chain raises
        :class:`IntegrityError` instead of yielding forged items.
        """
        if not entries:
            return
        own_macs = b""
        for header, enc_kv in entries:
            ctx.charge_cmac(len(enc_kv) + 25)
            own_macs += self.suite.mac(mac_message(header, enc_kv))
        # On a MAC-cache hit by_bucket is the enclave-resident verified
        # copy, so the comparison below authenticates the recomputed
        # chain MACs in every configuration; without a hit it falls back
        # to the full set-hash verification as before.
        _sid, by_bucket = self._verify_covering_set(
            ctx, bucket, own_macs=own_macs if self.macbuckets is None else None
        )
        authenticated = by_bucket[bucket]
        if not compare_digest(own_macs, authenticated):
            raise IntegrityError(
                f"bucket {bucket} chain does not match its authenticated "
                "MACs: untrusted entries were tampered with or reordered"
            )
        for start in range(0, len(entries), 64):
            yield from self._decrypt_chunk(entries[start : start + 64])

    def _decrypt_chunk(self, chunk) -> Iterator[Tuple[bytes, bytes]]:
        plains = self.suite.decrypt_many(
            [(header.iv_ctr, enc_kv) for header, enc_kv in chunk]
        )
        for (header, _enc_kv), plain in zip(chunk, plains):
            yield plain[: header.key_size], plain[header.key_size :]

    # ------------------------------------------------------------------
    # snapshot plumbing (see repro.core.persistence for the manager)
    # ------------------------------------------------------------------
    def metadata_blob(self) -> bytes:
        """Serialize in-enclave metadata for sealing (§4.4)."""
        master, tree = self.keyring.master, self.mactree.dump()
        return U32.pack(len(master)) + master + U64.pack(self.count) + tree

    def load_metadata_blob(self, blob: bytes) -> None:
        """Load sealed metadata into a *fresh* store (inverse of
        :meth:`metadata_blob`; the enclave caches are still cold)."""
        reader = Reader(blob, SnapshotError, "sealed metadata")
        master = reader.take(reader.u32())
        self.count = reader.u64()
        self.keyring = KeyRing(master)
        self.suite = make_suite(
            self.config.suite_name, self.keyring.enc_key, self.keyring.mac_key
        )
        self.mactree.load(reader.rest())

    def untrusted_bytes_live(self) -> int:
        """Bytes of untrusted memory currently holding store data."""
        return self.allocator.bytes_live + self.config.num_buckets * 16
