"""Property-based testing: ShieldStore vs a reference dict model.

Hypothesis drives random operation sequences against a live store and a
plain dict; any divergence in results, membership, or final contents is
a bug.  Runs against both the optimized and the unoptimized (ShieldBase)
configurations so every search/integrity path is exercised.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ShieldStore, shield_base, shield_opt
from repro.errors import KeyNotFoundError

_KEYS = st.sampled_from([f"key-{i}".encode() for i in range(12)])
_VALUES = st.binary(min_size=0, max_size=48)

_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), _KEYS, _VALUES),
        st.tuples(st.just("get"), _KEYS, st.just(b"")),
        st.tuples(st.just("delete"), _KEYS, st.just(b"")),
        st.tuples(st.just("append"), _KEYS, st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("contains"), _KEYS, st.just(b"")),
    ),
    max_size=40,
)

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _apply(store, model, op, key, value):
    if op == "set":
        store.set(key, value)
        model[key] = value
    elif op == "get":
        if key in model:
            assert store.get(key) == model[key]
        else:
            with pytest.raises(KeyNotFoundError):
                store.get(key)
    elif op == "delete":
        if key in model:
            store.delete(key)
            del model[key]
        else:
            with pytest.raises(KeyNotFoundError):
                store.delete(key)
    elif op == "append":
        new = store.append(key, value)
        model[key] = model.get(key, b"") + value
        assert new == model[key]
    elif op == "contains":
        assert store.contains(key) == (key in model)


class TestModelEquivalence:
    @given(ops=_OPERATIONS)
    @_SETTINGS
    def test_shield_opt_matches_dict(self, ops):
        # Tiny bucket count maximizes collisions and chain churn.
        store = ShieldStore(shield_opt(num_buckets=4, num_mac_hashes=2))
        model = {}
        for op, key, value in ops:
            _apply(store, model, op, key, value)
        assert len(store) == len(model)
        assert dict(store.iter_items()) == model

    @given(ops=_OPERATIONS)
    @_SETTINGS
    def test_shield_base_matches_dict(self, ops):
        store = ShieldStore(shield_base(num_buckets=4, num_mac_hashes=2))
        model = {}
        for op, key, value in ops:
            _apply(store, model, op, key, value)
        assert dict(store.iter_items()) == model

    @given(ops=_OPERATIONS)
    @_SETTINGS
    def test_cached_store_matches_dict(self, ops):
        store = ShieldStore(
            shield_opt(num_buckets=4, num_mac_hashes=2, cache_bytes=4096)
        )
        model = {}
        for op, key, value in ops:
            _apply(store, model, op, key, value)
        assert dict(store.iter_items()) == model


class TestInvariants:
    @given(ops=_OPERATIONS)
    @_SETTINGS
    def test_mac_tree_always_consistent(self, ops):
        """After any operation sequence, every bucket set verifies."""
        store = ShieldStore(shield_opt(num_buckets=4, num_mac_hashes=2))
        model = {}
        for op, key, value in ops:
            _apply(store, model, op, key, value)
        ctx = store.enclave.context()
        for set_id in range(store.config.num_mac_hashes):
            store._verify_covering_set(ctx, set_id, audit=True)

    @given(ops=_OPERATIONS)
    @_SETTINGS
    def test_allocator_balance(self, ops):
        """Live allocator bytes never go negative and shrink on delete."""
        store = ShieldStore(shield_opt(num_buckets=4, num_mac_hashes=2))
        model = {}
        for op, key, value in ops:
            _apply(store, model, op, key, value)
            assert store.allocator.bytes_live >= 0
