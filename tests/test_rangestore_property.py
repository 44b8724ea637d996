"""Model-based testing of the ordered range store vs a sorted dict."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import KeyNotFoundError
from repro.ext.rangestore import RangeShieldStore

_KEYS = st.sampled_from([f"k{i:02d}".encode() for i in range(16)])
_VALUES = st.binary(min_size=0, max_size=24)

_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), _KEYS, _VALUES),
        st.tuples(st.just("get"), _KEYS, st.just(b"")),
        st.tuples(st.just("delete"), _KEYS, st.just(b"")),
        st.tuples(st.just("range"), _KEYS, st.just(b"")),
    ),
    max_size=30,
)

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRangeStoreModel:
    @given(ops=_OPERATIONS, segment=st.sampled_from([1, 3, 8]))
    @_SETTINGS
    def test_matches_sorted_dict(self, ops, segment):
        store = RangeShieldStore(segment_size=segment)
        model = {}
        for op, key, value in ops:
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
            elif op == "range":
                end = key + b"~"
                got = list(store.range(key, end))
                expected = sorted(
                    (k, v) for k, v in model.items() if key <= k < end
                )
                assert got == expected
        assert len(store) == len(model)
        full = list(store.range(b"", b"\xff"))
        assert full == sorted(model.items())

    @given(ops=_OPERATIONS)
    @_SETTINGS
    def test_segments_always_verify(self, ops):
        """After any op sequence every segment hash must be consistent."""
        store = RangeShieldStore(segment_size=4)
        for op, key, value in ops:
            try:
                if op == "set":
                    store.set(key, value)
                elif op == "get":
                    store.get(key)
                elif op == "delete":
                    store.delete(key)
                else:
                    list(store.range(key, key + b"~"))
            except KeyNotFoundError:
                pass
        ctx = store.enclave.context()
        total_segments = -(-store.count // store.segment_size) if store.count else 0
        for segment in range(total_segments):
            store._verify_segment(ctx, segment)
