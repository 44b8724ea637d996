"""Multi-client session management."""

import pytest

from repro.errors import AttestationError, ProtocolError
from repro.net.sessions import SessionManager
from repro.sim import AttestationService, Enclave, Machine


@pytest.fixture
def manager():
    machine = Machine()
    enclave = Enclave(machine, bytes(range(32)))
    service = AttestationService(b"ias-secret-sessions")
    return SessionManager(enclave, service, idle_timeout_us=80_000.0), enclave


class TestSessions:
    def test_independent_sessions(self, manager):
        mgr, enclave = manager
        ctx = enclave.context()
        sid_a, chan_a = mgr.open_session(ctx, bytes(range(32)))
        sid_b, chan_b = mgr.open_session(ctx, bytes(range(32, 64)))
        assert sid_a != sid_b
        sealed_a = chan_a.seal(b"from-a")
        sealed_b = chan_b.seal(b"from-b")
        assert mgr.open_record(ctx, sid_a, sealed_a) == b"from-a"
        assert mgr.open_record(ctx, sid_b, sealed_b) == b"from-b"

    def test_cross_session_records_rejected(self, manager):
        """A record sealed for session A cannot be laundered through B."""
        mgr, enclave = manager
        ctx = enclave.context()
        sid_a, chan_a = mgr.open_session(ctx, bytes(range(32)))
        sid_b, _chan_b = mgr.open_session(ctx, bytes(range(32, 64)))
        sealed = chan_a.seal(b"for-a-only")
        with pytest.raises(ProtocolError):
            mgr.open_record(ctx, sid_b, sealed)

    def test_quote_must_bind_the_offered_dh_key(self, manager):
        """A validly signed quote whose report data is not the hash of
        the DH key on offer (a swapped key) opens no session."""
        mgr, enclave = manager

        class UnboundQuotes(AttestationService):
            def quote(self, ctx, enclave, report_data):
                return super().quote(ctx, enclave, b"\x00" * 32)

        mgr.attestation = UnboundQuotes(b"ias-secret-sessions")
        with pytest.raises(AttestationError, match="bind"):
            mgr.open_session(enclave.context(), bytes(range(32)))
        assert len(mgr) == 0

    def test_response_path(self, manager):
        mgr, enclave = manager
        ctx = enclave.context()
        sid, chan = mgr.open_session(ctx, bytes(range(32)))
        sealed_out = mgr.seal_record(ctx, sid, b"response")
        assert chan.open(sealed_out) == b"response"

    def test_unknown_session(self, manager):
        mgr, enclave = manager
        ctx = enclave.context()
        with pytest.raises(ProtocolError):
            mgr.open_record(ctx, 999, b"x" * 32)

    def test_idle_expiry(self, manager):
        mgr, enclave = manager
        ctx = enclave.context()
        sid, chan = mgr.open_session(ctx, bytes(range(32)))
        ctx.charge_us(100_000.0)  # advance simulated time past the timeout
        with pytest.raises(ProtocolError):
            mgr.open_record(ctx, sid, chan.seal(b"late"))
        assert mgr.expired_sessions == 1

    def test_active_session_survives(self, manager):
        mgr, enclave = manager
        ctx = enclave.context()
        sid, chan = mgr.open_session(ctx, bytes(range(32)))
        for _ in range(5):
            ctx.charge_us(20_000.0)  # under the timeout between uses
            assert mgr.open_record(ctx, sid, chan.seal(b"ping")) == b"ping"

    def test_revocation(self, manager):
        mgr, enclave = manager
        ctx = enclave.context()
        sid, chan = mgr.open_session(ctx, bytes(range(32)))
        mgr.revoke(sid)
        with pytest.raises(ProtocolError):
            mgr.open_record(ctx, sid, chan.seal(b"zombie"))
        assert mgr.revoked_sessions == 1

    def test_rekey_invalidates_old_keys(self, manager):
        mgr, enclave = manager
        ctx = enclave.context()
        sid, old_chan = mgr.open_session(ctx, bytes(range(32)))
        new_chan = mgr.rekey(ctx, sid, bytes(range(64, 96)))
        assert mgr.open_record(ctx, sid, new_chan.seal(b"fresh")) == b"fresh"
        with pytest.raises(ProtocolError):
            mgr.open_record(ctx, sid, old_chan.seal(b"stale-keys"))

    def test_capacity_evicts_oldest(self, manager):
        mgr, enclave = manager
        mgr.max_sessions = 3
        ctx = enclave.context()
        sids = []
        for i in range(4):
            ctx.charge_us(10.0)
            sid, _ = mgr.open_session(ctx, bytes(range(i, i + 32)))
            sids.append(sid)
        assert len(mgr) <= 3
        assert mgr.session_info(sids[0]) is None  # oldest evicted

    def test_many_concurrent_sessions(self, manager):
        """The paper drives 256 concurrent clients; sessions must not
        interfere at that count."""
        mgr, enclave = manager
        mgr.idle_timeout_us = 1e12
        ctx = enclave.context()
        channels = {}
        for i in range(256):
            sid, chan = mgr.open_session(ctx, i.to_bytes(4, "big") * 8)
            channels[sid] = chan
        for sid, chan in channels.items():
            payload = f"client-{sid}".encode()
            assert mgr.open_record(ctx, sid, chan.seal(payload)) == payload
