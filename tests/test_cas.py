"""Compare-and-swap semantics."""

import pytest

from repro.core import PartitionedShieldStore, ShieldStore, shield_opt
from repro.errors import KeyNotFoundError
from repro.sim import Machine


@pytest.fixture
def store():
    s = ShieldStore(shield_opt(num_buckets=16, num_mac_hashes=8))
    s.set(b"k", b"v1")
    return s


class TestCas:
    def test_swap_on_match(self, store):
        assert store.compare_and_swap(b"k", b"v1", b"v2") is True
        assert store.get(b"k") == b"v2"

    def test_no_swap_on_mismatch(self, store):
        assert store.compare_and_swap(b"k", b"WRONG", b"v2") is False
        assert store.get(b"k") == b"v1"

    def test_missing_key_raises(self, store):
        with pytest.raises(KeyNotFoundError):
            store.compare_and_swap(b"absent", b"a", b"b")

    def test_size_change(self, store):
        assert store.compare_and_swap(b"k", b"v1", b"a-much-longer-value")
        assert store.get(b"k") == b"a-much-longer-value"
        assert len(store) == 1

    def test_optimistic_loop(self, store):
        """The classic CAS retry loop for lock-free read-modify-write."""
        store.set(b"cnt", b"0")
        for _ in range(10):
            while True:
                current = store.get(b"cnt")
                desired = str(int(current) + 1).encode()
                if store.compare_and_swap(b"cnt", current, desired):
                    break
        assert store.get(b"cnt") == b"10"

    def test_partitioned(self):
        ps = PartitionedShieldStore(
            shield_opt(num_buckets=64, num_mac_hashes=32),
            machine=Machine(num_threads=2),
        )
        ps.set(b"k", b"v1")
        assert ps.compare_and_swap(b"k", b"v1", b"v2")
        assert ps.get(b"k") == b"v2"

    def test_cache_coherent(self):
        s = ShieldStore(
            shield_opt(num_buckets=16, num_mac_hashes=8, cache_bytes=16 * 1024)
        )
        s.set(b"k", b"v1")
        s.get(b"k")  # cached
        assert s.compare_and_swap(b"k", b"v1", b"v2")
        assert s.get(b"k") == b"v2"  # cache must not serve v1


class TestCasOverWire:
    def test_sim_server(self):
        from repro.core import ShieldStore, shield_opt
        from repro.net import FRONTEND_HOTCALLS, NetworkedServer, Request
        from repro.net.message import encode_cas_value

        store = ShieldStore(shield_opt(num_buckets=16, num_mac_hashes=8))
        server = NetworkedServer(store, frontend=FRONTEND_HOTCALLS)

        def cas(expected, new):
            request = Request("cas", b"k", encode_cas_value(expected, new))
            return server.handle(request).value

        server.handle(Request("set", b"k", b"v1"))
        assert cas(b"v1", b"v2") == b"1"
        assert cas(b"v1", b"v3") == b"0"
        assert server.handle(Request("get", b"k")).value == b"v2"

    def test_tcp_server(self):
        from repro.core import ShieldStore, shield_opt
        from repro.net import TCPShieldClient, TCPShieldServer
        from repro.sim import AttestationService

        service = AttestationService(b"cas-tcp-ias-secret")
        store = ShieldStore(shield_opt(num_buckets=16, num_mac_hashes=8))
        server = TCPShieldServer(store, service)
        server.start()
        try:
            client = TCPShieldClient(
                server.address, service, store.enclave.measurement, bytes(range(32))
            )
            client.set(b"k", b"v1")
            assert client.compare_and_swap(b"k", b"v1", b"v2") is True
            assert client.compare_and_swap(b"k", b"nope", b"v3") is False
            assert client.get(b"k") == b"v2"
            client.close()
        finally:
            server.close()

    def test_cas_value_codec_errors(self):
        import pytest as _pytest

        from repro.errors import ProtocolError
        from repro.net.message import decode_cas_value, encode_cas_value

        expected, new = decode_cas_value(encode_cas_value(b"a", b"bb"))
        assert (expected, new) == (b"a", b"bb")
        with _pytest.raises(ProtocolError):
            decode_cas_value(b"")
        with _pytest.raises(ProtocolError):
            decode_cas_value(b"\xff\xff\xff\xff--")
