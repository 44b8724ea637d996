"""Ablation — reference AES suite vs fast hashlib suite.

The two backends must agree functionally and be charged identical
simulated costs (the cost model keys on byte counts, not the backend);
only *host* wall-clock differs.  The same holds for the *record mode*
the session channel uses (AES-CTR in the reference suite, one XOF call
per record in the fast one): the ciphertexts differ, the record layout
and the round trip do not.
"""

import time

from conftest import record_table

from repro.core import ShieldStore, shield_opt
from repro.crypto.suite import make_suite
from repro.experiments.common import TableResult
from repro.net.message import SecureChannel

RECORD_SIZES = (0, 1, 33, 1024, 10240)


def record_round_trips(suite: str) -> list:
    """Sealed-record lengths of one channel pair, every record opened."""
    keys = bytes(range(16)), bytes(range(16, 32))
    client = SecureChannel(make_suite(suite, *keys), "client")
    server = SecureChannel(make_suite(suite, *keys), "server")
    lengths = []
    for size in RECORD_SIZES:
        payload = bytes(i & 0xFF for i in range(size))
        sealed = client.seal(payload)
        assert server.open(sealed) == payload
        assert client.open(server.seal(payload)) == payload
        lengths.append(len(sealed))
    return lengths


def run_ablation():
    rows = []
    for suite in ("aes-reference", "fast-hashlib"):
        store = ShieldStore(
            shield_opt(num_buckets=64, num_mac_hashes=32, suite_name=suite)
        )
        wall_start = time.perf_counter()
        for i in range(250):
            store.set(f"key-{i:04d}".encode(), b"value-" + bytes([i % 250]) * 26)
        for i in range(250):
            assert store.get(f"key-{i:04d}".encode())[:6] == b"value-"
        wall = time.perf_counter() - wall_start
        rows.append(
            [
                suite,
                store.machine.elapsed_us(),
                store.machine.counters.aes_calls,
                round(wall * 1000, 1),
                sum(record_round_trips(suite)),
            ]
        )
    return TableResult(
        "Ablation cipher-suite",
        "Reference AES vs fast suite: identical simulated cost, different host cost",
        ["suite", "simulated us", "aes calls", "host ms", "sealed record bytes"],
        rows,
        [
            "simulated columns must match exactly; host wall-clock differs",
            "record mode: every channel record round-trips in both suites "
            f"at the same sealed sizes (payloads {RECORD_SIZES})",
        ],
    )


def test_cipher_suite_ablation(benchmark):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    record_table(result)
    reference, fast = result.rows
    assert reference[1] == fast[1]  # identical simulated time
    assert reference[2] == fast[2]  # identical crypto call counts
    assert reference[4] == fast[4]  # identical record layout in record mode
