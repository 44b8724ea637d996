"""Enclave-resident cache of verified bucket-set MAC lists.

The §4.3 replay defense forces every operation to re-read **every entry
MAC of the covering bucket set** from untrusted memory and recompute the
keyed set hash — even when nothing in the set changed since the last
verified read.  This cache trades spare enclave memory for that work
(the same EPC-size tradeoff the paper explores in §4.3/Fig. 15 and
§6.3): once a set's MAC lists have been gathered and verified, the
authenticated copy is kept *inside the enclave*, and subsequent
operations on the set verify only what they actually use — the found
entry's recomputed MAC against the cached copy at its chain position —
in O(1) instead of O(bucket-set).

Soundness (see docs/INTERNALS.md for the full argument): the cached
lists live in enclave memory the host cannot write, so they are ground
truth exactly like the in-enclave set hashes they stand in for.  Every
mutation write-throughs the cached list on the same code path that
recomputes the set hash (:meth:`ShieldStore._update_set`), and snapshot
restore flushes the cache, so a hit can never compare against stale
state.  A miss or eviction simply falls back to the full §4.3 gather +
keyed-hash verification and repopulates.

Like :class:`~repro.core.cache.EnclaveCache`, it is an
:class:`~repro.core.cache.EnclaveLRU`: backed by a real enclave
allocation, every hit/store touching addresses inside it, so its EPC
cost (and paging, when oversized) emerges from the simulator rather
than being assumed.
"""

from __future__ import annotations

from typing import Dict

from repro.core.cache import EnclaveLRU

# Accounting overheads (bytes) beyond the raw MAC material: per-bucket
# list headers and the per-set map/LRU bookkeeping.
_PER_BUCKET_OVERHEAD = 8
_PER_SET_OVERHEAD = 48


class MacSetCache(EnclaveLRU):
    """Byte-budgeted LRU of verified per-set MAC lists, in enclave memory.

    Values are the same ``{bucket: MAC blob}`` dicts (ascending buckets,
    one ``bytes`` of contiguous MACs each) the store's verification
    plumbing passes around.  The store deliberately caches the *live
    dict* — a mutation replaces the bucket's blob in it before the set
    hash is recomputed, which is what keeps the cached copy coherent
    through batched (dirty-set) mutation windows; each entry keeps the
    cost snapshot of its last :meth:`store`, and re-storing re-accounts.

    Callers of :meth:`store` must only pass lists that were just
    authenticated (full §4.3 verification) or that descend from an
    authenticated copy through the store's own mutation write-through.
    :meth:`clear` is required on snapshot restore / checkpoint install,
    where untrusted memory was replaced wholesale.
    """

    def _cost_bytes(self, _set_id: int, by_bucket: Dict[int, bytes]) -> int:
        return self._set_cost_bytes(by_bucket)

    @staticmethod
    def _set_cost_bytes(by_bucket: Dict[int, bytes]) -> int:
        return (
            sum(map(len, by_bucket.values()))
            + len(by_bucket) * _PER_BUCKET_OVERHEAD
            + _PER_SET_OVERHEAD
        )
