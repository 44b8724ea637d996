"""Multi-client session management for the networked server.

The paper's networked evaluation drives the server with 256 concurrent
clients (§6.1); each client holds its own attested session (§3.2).  This
module provides the session layer the single-channel
:class:`~repro.net.server.NetworkedServer` elides:

* :class:`SessionManager` — enclave-side registry of live sessions, each
  with its own channel keys derived from its own DH exchange;
* per-session sequence state, so one client's replay cannot be laundered
  through another's session;
* idle expiry and explicit revocation (key compromise response);
* rekeying: a session can be rotated to fresh keys without re-attesting.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.crypto.keys import derive_key
from repro.crypto.suite import make_suite
from repro.errors import ProtocolError
from repro.net.message import SecureChannel
from repro.sim.attestation import (
    AttestationService,
    DHKeyPair,
    handshake_accept,
    handshake_finish,
    handshake_offer,
)
from repro.sim.enclave import Enclave, ExecContext
from repro.sim.sdk import sgx_read_rand


@dataclass
class Session:
    """One live client session inside the enclave."""

    session_id: int
    channel: SecureChannel
    established_us: float
    last_used_us: float
    rekeys: int = 0
    requests: int = 0
    # "client" for ordinary clients, "peer" for replication-group links
    # (repro.ext.replication) — peers replicate through the same
    # attested sessions, but operators want to see them separately.
    kind: str = "client"


class SessionManager:
    """Enclave-side registry of attested client sessions."""

    def __init__(
        self,
        enclave: Enclave,
        attestation: AttestationService,
        idle_timeout_us: float = 60_000_000.0,
        max_sessions: int = 1024,
    ):
        self.enclave = enclave
        self.attestation = attestation
        self.idle_timeout_us = idle_timeout_us
        self.max_sessions = max_sessions
        self._sessions: Dict[int, Session] = {}
        self._next_id = 1
        self.expired_sessions = 0
        self.revoked_sessions = 0

    # -- establishment ---------------------------------------------------
    def open_session(
        self, ctx: ExecContext, client_entropy: bytes, kind: str = "client"
    ) -> Tuple[int, SecureChannel]:
        """Run the §3.2 handshake; returns (session_id, client_channel).

        The returned channel is what the *client* holds; the server-side
        twin is stored in the registry under the new session id.
        """
        if len(self._sessions) >= self.max_sessions:
            self._expire_idle(ctx, force_oldest=True)
        server_dh, quote = handshake_offer(self.attestation, ctx, self.enclave)
        # Client side: verify (quote and key binding) before keying anything.
        client_public, shared_client = handshake_accept(
            self.attestation, quote, server_dh.public_bytes,
            self.enclave.measurement, client_entropy,
        )
        shared_server = handshake_finish(server_dh, client_public)
        session_id = self._next_id
        self._next_id += 1
        server_channel = self._derive_channel(shared_server, session_id, "server")
        client_channel = self._derive_channel(shared_client, session_id, "client")
        if kind not in ("client", "peer"):
            raise ProtocolError(f"unknown session kind {kind!r}")
        now = ctx.machine.elapsed_us()
        self._sessions[session_id] = Session(
            session_id, server_channel, established_us=now, last_used_us=now,
            kind=kind,
        )
        return session_id, client_channel

    @staticmethod
    def _derive_channel(shared: bytes, session_id: int, role: str) -> SecureChannel:
        root = hashlib.sha256(shared + session_id.to_bytes(8, "little")).digest()
        suite = make_suite(
            "fast-hashlib", derive_key(root, "sess/enc"), derive_key(root, "sess/mac")
        )
        return SecureChannel(suite, role)

    # -- request path ----------------------------------------------------
    def open_record(self, ctx: ExecContext, session_id: int, sealed: bytes) -> bytes:
        """Decrypt one request record under its session's keys."""
        session = self._lookup(ctx, session_id)
        plaintext = session.channel.open(sealed)
        session.requests += 1
        session.last_used_us = ctx.machine.elapsed_us()
        return plaintext

    def seal_record(self, ctx: ExecContext, session_id: int, payload: bytes) -> bytes:
        """Encrypt one response record under its session's keys."""
        session = self._lookup(ctx, session_id)
        return session.channel.seal(payload)

    def _lookup(self, ctx: ExecContext, session_id: int) -> Session:
        self._expire_idle(ctx)
        session = self._sessions.get(session_id)
        if session is None:
            raise ProtocolError(f"no such session {session_id} (expired or revoked)")
        return session

    # -- lifecycle ---------------------------------------------------------
    def _expire_idle(self, ctx: ExecContext, force_oldest: bool = False) -> None:
        now = ctx.machine.elapsed_us()
        stale = [
            sid
            for sid, session in self._sessions.items()
            if now - session.last_used_us > self.idle_timeout_us
        ]
        for sid in stale:
            del self._sessions[sid]
            self.expired_sessions += 1
        if force_oldest and len(self._sessions) >= self.max_sessions:
            oldest = min(self._sessions.values(), key=lambda s: s.last_used_us)
            del self._sessions[oldest.session_id]
            self.expired_sessions += 1

    def revoke(self, session_id: int) -> None:
        """Drop a session immediately (suspected key compromise)."""
        if self._sessions.pop(session_id, None) is not None:
            self.revoked_sessions += 1

    def rekey(
        self, ctx: ExecContext, session_id: int, client_entropy: bytes
    ) -> SecureChannel:
        """Rotate a live session to fresh keys (new DH, same attestation).

        Returns the client's new channel; the old keys stop working.
        """
        session = self._lookup(ctx, session_id)
        server_dh = DHKeyPair(sgx_read_rand(ctx, 32))
        client_dh = DHKeyPair(client_entropy)
        epoch = session.rekeys + 1
        server_channel = self._derive_channel(
            server_dh.shared_secret(client_dh.public),
            session_id * 1_000 + epoch,
            "server",
        )
        client_channel = self._derive_channel(
            client_dh.shared_secret(server_dh.public),
            session_id * 1_000 + epoch,
            "client",
        )
        session.channel = server_channel
        session.rekeys = epoch
        session.last_used_us = ctx.machine.elapsed_us()
        return client_channel

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def session_info(self, session_id: int) -> Optional[Session]:
        """Read-only session record (None when absent)."""
        return self._sessions.get(session_id)
