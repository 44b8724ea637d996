#!/usr/bin/env python3
"""Scenario: a session cache for a web tier on an untrusted cloud host.

The motivating deployment from the paper's introduction: a
memcached-style cache holding session tokens and per-user state on a
machine whose OS and operator you do not trust.  This example runs the
full production path:

1. the client *remote-attests* the server enclave before trusting it;
2. requests flow over the attested session with authenticated
   encryption (replays of captured requests are rejected);
3. rate limiting runs *server-side* via ``increment`` — the counter
   never leaves the enclave in plaintext;
4. the workload is measured on the simulated cost model, comparing the
   ShieldStore server against the naive in-enclave baseline.
"""

from repro import AttestationService, ShieldStore, shield_opt
from repro.errors import ProtocolError
from repro.experiments.common import make_machine, scaled
from repro.net import (
    FRONTEND_HOTCALLS,
    NetworkedServer,
    Request,
    make_secure_channels,
)
from repro.net.message import encode_request
from repro.sim import attested_handshake


def build_attested_server(num_buckets=8192):
    store = ShieldStore(shield_opt(num_buckets=num_buckets, num_mac_hashes=num_buckets // 2))
    ias = AttestationService(b"deployment-attestation-secret")
    # The client verifies the enclave measurement and binds a session.
    client_suite, server_suite = attested_handshake(
        ias, store.enclave.context(), store.enclave, client_entropy=bytes(range(32))
    )
    client_channel, server_channel = make_secure_channels(client_suite, server_suite)
    return NetworkedServer(
        store,
        frontend=FRONTEND_HOTCALLS,
        server_channel=server_channel,
        client_channel=client_channel,
    )


def main() -> None:
    server = build_attested_server()

    print("== session workflow over the attested channel ==")
    server.handle(Request("set", b"session:7f3a", b"user=alice;roles=admin;csrf=x91k"))
    server.handle(Request("set", b"session:99c1", b"user=bob;roles=viewer;csrf=m3qa"))
    print("lookup 7f3a ->", server.handle(Request("get", b"session:7f3a")).value)

    print("\n== server-side rate limiting ==")
    for _ in range(3):
        reply = server.handle(Request("increment", b"ratelimit:alice:/api/export", b"1"))
    count = int(reply.value)
    print("alice export calls this window:", count)
    if count > 2:
        print("-> 429 Too Many Requests (decided without exposing the counter)")

    print("\n== captured-request replay is rejected ==")
    # The attacker sniffs a legitimate (sealed) request off the wire...
    captured = server.client_channel.seal(
        encode_request(Request("increment", b"ratelimit:alice:/api/export", b"1"))
    )
    server.server_channel.open(captured)  # ...which the server serves once.
    try:
        server.server_channel.open(captured)  # replaying the same frame
        print("-> REPLAY ACCEPTED (bug!)")
    except ProtocolError as exc:
        print(f"-> replay rejected: {exc}")

    print("\n== simulated throughput: ShieldStore vs naive baseline ==")
    from repro.experiments.common import (
        SYSTEM_BASELINE,
        SYSTEM_SHIELDOPT,
        build_system,
        preload,
        run_workload,
    )
    from repro.workloads import OperationStream, RD95_Z, SMALL

    scale = 0.002
    for name in (SYSTEM_BASELINE, SYSTEM_SHIELDOPT):
        machine = make_machine(1, scale)
        system = build_system(name, machine, scale)
        stream = OperationStream(RD95_Z, SMALL, scaled(10_000_000, scale))
        preload(system, stream)
        result = run_workload(system, name, stream, 1500)
        print(f"  {name:10s}: {result.kops:8.1f} Kop/s (simulated)")


if __name__ == "__main__":
    main()
