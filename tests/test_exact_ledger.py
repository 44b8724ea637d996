"""Exact-ledger golden pins: the simulated ledger and the untrusted bytes
of a fixed op script, to the cycle and to the byte.

``test_cost_regression.py`` pins canonical costs to ±35%; that catches a
dropped or doubled charge, not a host-side shortcut through the charging
path that is off by one cacheline, one LLC touch or one float rounding.
This file is the pin that makes such shortcuts reviewable: every
checkpoint records ``CycleCounters.snapshot()``, the machine clock as a
``repr``-exact float, LLC hits/misses, EPC residency, and sha256 of every
untrusted allocation and of the in-enclave MAC-hash array.  The numbers
in ``GOLDEN`` were produced by the commit *before* the accounting fast
path existed (``python tests/test_exact_ledger.py`` prints them) and must
never be regenerated to make a performance change pass — a change that
moves them has changed what the paper's figures are computed from.
"""

import hashlib
import random
from dataclasses import replace
from time import perf_counter

import pytest

from repro.core import ShieldStore, shield_base, shield_opt
from repro.errors import EnclaveError, EnclaveMemoryError, KeyNotFoundError
from repro.sim import Attacker, Enclave, Machine
from repro.sim.cycles import DEFAULT_COST_MODEL, PAGE_SIZE
from repro.sim.memory import REGION_UNTRUSTED

MASTER = bytes(range(32, 64))
IV_SALT = 0x5EED_0F_1ED6E2
PAIRS = 400
# Small caches so the script leaves the all-resident regime: LLC lines
# are evicted, the MAC-hash array (16 pages) pages through a 6-page EPC.
COST = replace(DEFAULT_COST_MODEL, llc_bytes=32 * 1024, epc_effective_bytes=6 * PAGE_SIZE)
GEOMETRY = dict(num_buckets=4096, num_mac_hashes=4096, heap_chunk_bytes=64 * 1024)


def _key(index):
    return b"key-%06d" % index


def _value(index, version=0):
    size = (16, 16, 128, 128, 512)[index % 5]
    return (b"v%d.%d|" % (index, version)) * (size // 4)


def _checkpoint(store, machine):
    """Everything the ledger and the host can observe, as plain values."""
    memory = machine.memory
    untrusted = hashlib.sha256()
    for base, size in Attacker(memory).untrusted_allocations():
        untrusted.update(b"%d:%d:" % (base, size))
        untrusted.update(memory.raw_read(base, size))
    pages = range(
        store.mactree.base // PAGE_SIZE,
        (store.mactree.base + store.mactree.num_hashes * 16 - 1) // PAGE_SIZE + 1,
    )
    return {
        "counters": machine.counters.snapshot(),
        "cycles": repr(machine.clock.elapsed_cycles()),
        "llc": [memory.llc.hits, memory.llc.misses],
        "epc": [machine.epc.resident_pages]
        + [int(machine.epc.is_resident(page)) for page in pages],
        "untrusted_sha256": untrusted.hexdigest(),
        "mactree_sha256": hashlib.sha256(store.mactree.dump()).hexdigest(),
        "count": len(store),
    }


def _store_script(config):
    """Bulk load, skewed get/set, a miss, a delete, a resized update — with
    a measurement reset in the middle — and the two checkpoints."""
    machine = Machine(cost=COST)
    store = ShieldStore(config, machine=machine, master_secret=MASTER)
    store._iv_salt = IV_SALT  # the one nondeterministic input (os.urandom)
    current = {_key(i): _value(i) for i in range(PAIRS)}
    pairs = list(current.items())
    for start in range(0, PAIRS, 64):
        store.multi_set(pairs[start : start + 64])
    rng = random.Random(15)

    def traffic(ops):
        for step in range(ops):
            r = rng.random()
            index = int(PAIRS * r * r * r)
            if rng.random() < 0.8:
                assert store.get(_key(index)) == current[_key(index)]
            else:
                current[_key(index)] = _value(index, step + 1)
                store.set(_key(index), current[_key(index)])

    traffic(300)
    with pytest.raises(KeyNotFoundError):
        store.get(b"absent-key-000")
    doomed = _key(PAIRS)                     # outside the range traffic() draws from
    store.set(doomed, _value(PAIRS))
    store.delete(doomed)
    with pytest.raises(KeyNotFoundError):
        store.get(doomed)
    current[_key(3)] = b"resized" * 40       # 128 B -> 280 B: reallocates
    store.set(_key(3), current[_key(3)])
    assert store.multi_get([_key(3), doomed, _key(11)]) == {
        _key(3): current[_key(3)], doomed: None, _key(11): current[_key(11)],
    }
    before_reset = _checkpoint(store, machine)
    # reset_measurement swaps the counters object: a path that captured
    # the old one would leave the second checkpoint's counters at zero.
    machine.reset_measurement()
    traffic(200)
    store.set(_key(PAIRS + 1), _value(PAIRS + 1))   # a fresh insert
    store.set(_key(3), _value(3))                    # back to 128 B
    assert store.audit() == len(store)
    return {"before_reset": before_reset, "end": _checkpoint(store, machine)}


def _memory_script():
    """The charged-access primitives directly, refusals included."""
    machine = Machine(cost=COST)
    enclave = Enclave(machine, bytes(32))
    memory = machine.memory
    inside, outside = enclave.context(), machine.context(0)
    a = memory.alloc(100, REGION_UNTRUSTED)          # 100 -> 112 aligned: a gap
    b = memory.alloc(1000, REGION_UNTRUSTED)
    virtual = memory.alloc(8192, REGION_UNTRUSTED, materialize=False)
    secret = enclave.alloc(8 * PAGE_SIZE)            # the EPC holds 6

    def state():
        return {
            "counters": machine.counters.snapshot(),
            "cycles": repr(machine.clock.elapsed_cycles()),
            "llc": [memory.llc.hits, memory.llc.misses],
            "epc": [machine.epc.resident_pages]
            + [int(machine.epc.is_resident(secret // PAGE_SIZE + i)) for i in range(8)],
        }

    memory.write(outside, a, b"x" * 100)             # two lines, cold
    assert memory.read(outside, a + 60, 8) == b"x" * 8   # straddles a line, warm
    assert memory.read(inside, a, 0) == b""          # zero bytes still touch a line
    assert memory.read(outside, b + 999, 1) == b"\0"     # last byte, exactly to the end
    memory.write(inside, b + 100, bytes(range(200)))
    assert memory.read(inside, b + 100, 200) == bytes(range(200))
    memory.touch(outside, virtual + 100, 300, True)
    memory.touch(outside, virtual + 100, 0, False)
    assert memory.read(outside, virtual + 4000, 200) == bytes(200)
    assert memory.read(None, a, 4) == b"xxxx"        # no context: counted, not charged
    # One enclave access over a page boundary: both pages fault, in order.
    memory.write(inside, secret + PAGE_SIZE - 100, b"s" * 300)
    assert memory.read(inside, secret + PAGE_SIZE - 100, 300) == b"s" * 300
    for page in range(2, 8):                         # evicts; page 0 faults again
        memory.touch(inside, secret + page * PAGE_SIZE + 64, 16, page % 2 == 0)
    memory.write(inside, secret + 8, b"t" * 16)
    charged = state()

    for ctx in (outside, None):                      # enclave memory, wrong privilege
        with pytest.raises(EnclaveError):
            memory.read(ctx, secret + 8, 16)
        with pytest.raises(EnclaveError):
            memory.write(ctx, secret + 8, b"pwn")
    with pytest.raises(EnclaveError):
        memory.touch(outside, secret, 8, False)
    with pytest.raises(EnclaveError):
        Attacker(memory).read(secret, 16)
    with pytest.raises(EnclaveMemoryError):          # overrun by one byte
        memory.read(outside, b + 999, 2)
    with pytest.raises(EnclaveMemoryError):
        memory.write(inside, a + 96, b"12345")
    with pytest.raises(EnclaveMemoryError):          # the alignment gap after `a`
        memory.read(outside, a + 104, 1)
    with pytest.raises(EnclaveMemoryError):          # overrun checked before privilege
        memory.read(outside, secret + 8 * PAGE_SIZE - 4, 8)
    assert memory.read(outside, b, 4) == bytes(4)    # `b` is the last allocation hit
    memory.free(b)
    with pytest.raises(EnclaveMemoryError):          # ...and is gone after free()
        memory.read(outside, b, 4)
    with pytest.raises(EnclaveMemoryError):
        memory.write(outside, b + 500, b"late")
    refused = state()

    machine.reset_measurement()
    assert memory.read(inside, secret + 8, 16) == b"t" * 16
    assert memory.read(outside, a + 60, 8) == b"x" * 8
    c = memory.alloc(64, REGION_UNTRUSTED)           # never reuses b's range
    memory.write(outside, c, b"c" * 64)
    return {"charged": charged, "refused": refused, "after_reset": state()}


OVERFLOW_PAIRS = 28


def _overflow_run(config):
    """§5.2 overflow nodes end to end: two MAC slots per node, four
    buckets under two set hashes, so every chain spans 3+ nodes and every
    set two buckets."""
    machine = Machine(cost=COST)
    store = ShieldStore(config, machine=machine, master_secret=MASTER)
    store._iv_salt = IV_SALT
    current = {_key(i): _value(i) for i in range(OVERFLOW_PAIRS)}
    chains = {}                              # bucket -> keys, chain head first
    for key, value in current.items():
        store.set(key, value)
        chains.setdefault(store.keyring.keyed_bucket_hash(key, 4), []).insert(0, key)
    chain = max(chains.values(), key=len)
    assert len(chain) >= 7                   # four nodes
    current[chain[1]] = bytes(reversed(current[chain[1]]))   # same size: in place
    store.set(chain[1], current[chain[1]])
    current[chain[2]] = b"resized" * 9                        # reallocates
    store.set(chain[2], current[chain[2]])
    for doomed in (chain[len(chain) // 2], chain[0], chain[-1]):   # middle, head, tail
        store.delete(doomed)
        del current[doomed]
    with pytest.raises(KeyNotFoundError):
        store.get(chain[0])
    batch = {_key(i): _value(i, 7) for i in range(OVERFLOW_PAIRS - 4, OVERFLOW_PAIRS + 6)}
    store.multi_set(batch)
    current.update(batch)
    wanted = [chain[1], chain[0], _key(OVERFLOW_PAIRS + 5), chain[2]]
    assert store.multi_get(wanted) == {key: current.get(key) for key in wanted}
    gone = [chain[3], chain[-1], _key(OVERFLOW_PAIRS + 1)]
    assert store.multi_delete(gone) == {key: key in current for key in gone}
    for key in gone:
        current.pop(key, None)
    assert sorted(store.iter_items()) == sorted(current.items())
    assert store.audit() == len(current)
    if store.maccache is not None:
        assert store.maccache.evictions > 0
    for key, value in current.items():
        assert store.get(key) == value
    return _checkpoint(store, machine)


def _overflow_script():
    geometry = dict(num_buckets=4, num_mac_hashes=2, mac_bucket_capacity=2,
                    heap_chunk_bytes=64 * 1024)
    return {
        "plain": _overflow_run(shield_opt(**geometry)),
        # One set's MACs fit the budget, both do not.
        "evicting_cache": _overflow_run(shield_opt(mac_cache_bytes=400, **geometry)),
    }


SCRIPTS = {
    "shield_opt": lambda: _store_script(shield_opt(**GEOMETRY)),
    "mac_cache": lambda: _store_script(shield_opt(mac_cache_bytes=24 * 1024, **GEOMETRY)),
    "shield_base": lambda: _store_script(
        shield_base(num_buckets=256, num_mac_hashes=128)
    ),
    "memory": _memory_script,
    "overflow_nodes": _overflow_script,
}

GOLDEN = {
    'mac_cache': {
        'before_reset': {
            'counters': {'mem_reads': 4173, 'mem_writes': 3134, 'epc_faults': 484,
                'epc_evictions': 478, 'ecalls': 0, 'ocalls': 6, 'hotcalls': 0, 'aes_calls': 798,
                'aes_bytes': 214316, 'cmac_calls': 1694, 'cmac_bytes': 243039, 'decryptions':
                329, 'mem_cycles': 4570274.800000012, 'fault_cycles': 104112000.0,
                'crypto_cycles': 1471340.0, 'crossing_cycles': 72000.0},
            'cycles': '114802137.40000011',
            'llc': [5744, 6569],
            'epc': [6, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 0],
            'untrusted_sha256':
                '54f8aa19289610c20fccd99835452979378da4dc86dccdc94b80149a6d1b0494',
            'mactree_sha256':
                '09ff0b664950b6c83c0be00b11670d5602e83204754b82fa66595983ea529563',
            'count': 400,
        },
        'end': {
            'counters': {'mem_reads': 14852, 'mem_writes': 198, 'epc_faults': 95,
                'epc_evictions': 95, 'ecalls': 0, 'ocalls': 0, 'hotcalls': 0, 'aes_calls': 240,
                'aes_bytes': 57244, 'cmac_calls': 1075, 'cmac_bytes': 197475, 'decryptions':
                202, 'mem_cycles': 3899879.9999999995, 'fault_cycles': 20634000.0,
                'crypto_cycles': 800692.0, 'crossing_cycles': 0.0},
            'cycles': '26562274.999999978',
            'llc': [18092, 12515],
            'epc': [6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
            'untrusted_sha256':
                '30ba8ac342c3ab71b16266bd939e2ee3b8f407605dfe29ce85c817cc6b9b6ab8',
            'mactree_sha256':
                '5d3400520b40dcd4a9c87bad39bb8860d27c8b96e0401b73c5cec14d5724fb13',
            'count': 401,
        },
    },
    'memory': {
        'charged': {
            'counters': {'mem_reads': 11, 'mem_writes': 8, 'epc_faults': 9, 'epc_evictions': 3,
                'ecalls': 0, 'ocalls': 0, 'hotcalls': 0, 'aes_calls': 0, 'aes_bytes': 0,
                'cmac_calls': 0, 'cmac_bytes': 0, 'decryptions': 0, 'mem_cycles': 24847.0,
                'fault_cycles': 2082000.0, 'crypto_cycles': 0.0, 'crossing_cycles': 0.0},
            'cycles': '2106847.0',
            'llc': [14, 29],
            'epc': [6, 1, 0, 0, 1, 1, 1, 1, 1],
        },
        'refused': {
            'counters': {'mem_reads': 12, 'mem_writes': 8, 'epc_faults': 9, 'epc_evictions': 3,
                'ecalls': 0, 'ocalls': 0, 'hotcalls': 0, 'aes_calls': 0, 'aes_bytes': 0,
                'cmac_calls': 0, 'cmac_bytes': 0, 'decryptions': 0, 'mem_cycles': 24861.0,
                'fault_cycles': 2082000.0, 'crypto_cycles': 0.0, 'crossing_cycles': 0.0},
            'cycles': '2106861.0',
            'llc': [15, 29],
            'epc': [6, 1, 0, 0, 1, 1, 1, 1, 1],
        },
        'after_reset': {
            'counters': {'mem_reads': 2, 'mem_writes': 1, 'epc_faults': 0, 'epc_evictions': 0,
                'ecalls': 0, 'ocalls': 0, 'hotcalls': 0, 'aes_calls': 0, 'aes_bytes': 0,
                'cmac_calls': 0, 'cmac_bytes': 0, 'decryptions': 0, 'mem_cycles': 528.0,
                'fault_cycles': 0.0, 'crypto_cycles': 0.0, 'crossing_cycles': 0.0},
            'cycles': '528.0',
            'llc': [18, 31],
            'epc': [6, 1, 0, 0, 1, 1, 1, 1, 1],
        },
    },
    'overflow_nodes': {
        'plain': {
            'counters': {'mem_reads': 2591, 'mem_writes': 244, 'epc_faults': 1, 'epc_evictions':
                0, 'ecalls': 0, 'ocalls': 1, 'hotcalls': 0, 'aes_calls': 269, 'aes_bytes':
                57750, 'cmac_calls': 410, 'cmac_bytes': 91369, 'decryptions': 199, 'mem_cycles':
                87040.0, 'fault_cycles': 206000.0, 'crypto_cycles': 455716.0, 'crossing_cycles':
                12000.0},
            'cycles': '1196154.4000000006',
            'llc': [4052, 151],
            'epc': [1, 1],
            'untrusted_sha256':
                '79a7faf55e3900b814a14c45c561c5f9c1a40552aedaf107150ba0fcb95f555e',
            'mactree_sha256':
                'ac36d552e13bbd7e6ff02a3f0c7a8de45e27e5a05eadff6c6f46d3d28b60acf0',
            'count': 30,
        },
        'evicting_cache': {
            'counters': {'mem_reads': 1855, 'mem_writes': 304, 'epc_faults': 1, 'epc_evictions':
                0, 'ecalls': 0, 'ocalls': 1, 'hotcalls': 0, 'aes_calls': 269, 'aes_bytes':
                57750, 'cmac_calls': 360, 'cmac_bytes': 82169, 'decryptions': 199, 'mem_cycles':
                94469.79999999999, 'fault_cycles': 206000.0, 'crypto_cycles': 427016.0,
                'crossing_cycles': 12000.0},
            'cycles': '1174884.2000000004',
            'llc': [3716, 157],
            'epc': [1, 1],
            'untrusted_sha256':
                '79a7faf55e3900b814a14c45c561c5f9c1a40552aedaf107150ba0fcb95f555e',
            'mactree_sha256':
                'ac36d552e13bbd7e6ff02a3f0c7a8de45e27e5a05eadff6c6f46d3d28b60acf0',
            'count': 30,
        },
    },
    'shield_base': {
        'before_reset': {
            'counters': {'mem_reads': 7009, 'mem_writes': 1313, 'epc_faults': 1,
                'epc_evictions': 0, 'ecalls': 0, 'ocalls': 504, 'hotcalls': 0, 'aes_calls':
                1597, 'aes_bytes': 427902, 'cmac_calls': 2617, 'cmac_bytes': 512339,
                'decryptions': 1128, 'mem_cycles': 2322582.0, 'fault_cycles': 206000.0,
                'crypto_cycles': 2854220.0, 'crossing_cycles': 6048000.0},
            'cycles': '15621724.59999999',
            'llc': [7653, 7994],
            'epc': [1, 1],
            'untrusted_sha256':
                'fa48b154069a0a658cacde45bd24a54397cecc85a2f5894eec2cdb5879b4d185',
            'mactree_sha256':
                'fd9c6cd46df255b39e5eb300d613fb0ec1b1bdbd93aa45116fa03d54ded847e8',
            'count': 400,
        },
        'end': {
            'counters': {'mem_reads': 4948, 'mem_writes': 104, 'epc_faults': 0, 'epc_evictions':
                0, 'ecalls': 0, 'ocalls': 55, 'hotcalls': 0, 'aes_calls': 563, 'aes_bytes':
                130406, 'cmac_calls': 1323, 'cmac_bytes': 292520, 'decryptions': 525,
                'mem_cycles': 1297630.0, 'fault_cycles': 0.0, 'crypto_cycles': 1282292.0,
                'crossing_cycles': 660000.0},
            'cycles': '4408884.999999998',
            'llc': [12596, 12548],
            'epc': [1, 1],
            'untrusted_sha256':
                '762071edf2ba427a6650fda545ae187c738337ec5049a3b0d74823c487ec385a',
            'mactree_sha256':
                'c9f373bd3c60f8a399a6fab112bad63868f8979a8d848f7566fbd764b2989b4d',
            'count': 401,
        },
    },
    'shield_opt': {
        'before_reset': {
            'counters': {'mem_reads': 4984, 'mem_writes': 2237, 'epc_faults': 392,
                'epc_evictions': 386, 'ecalls': 0, 'ocalls': 6, 'hotcalls': 0, 'aes_calls': 798,
                'aes_bytes': 214316, 'cmac_calls': 1967, 'cmac_bytes': 248207, 'decryptions':
                329, 'mem_cycles': 2323510.0, 'fault_cycles': 81550000.0, 'crypto_cycles':
                1526720.0, 'crossing_cycles': 72000.0},
            'cycles': '90048752.6000001',
            'llc': [5639, 5484],
            'epc': [6, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0],
            'untrusted_sha256':
                '54f8aa19289610c20fccd99835452979378da4dc86dccdc94b80149a6d1b0494',
            'mactree_sha256':
                '09ff0b664950b6c83c0be00b11670d5602e83204754b82fa66595983ea529563',
            'count': 400,
        },
        'end': {
            'counters': {'mem_reads': 15404, 'mem_writes': 142, 'epc_faults': 90,
                'epc_evictions': 90, 'ecalls': 0, 'ocalls': 0, 'hotcalls': 0, 'aes_calls': 240,
                'aes_bytes': 57244, 'cmac_calls': 1259, 'cmac_bytes': 200883, 'decryptions':
                202, 'mem_cycles': 3700764.0, 'fault_cycles': 18540000.0, 'crypto_cycles':
                837800.0, 'crossing_cycles': 0.0},
            'cycles': '24306267.000000007',
            'llc': [18347, 11320],
            'epc': [6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
            'untrusted_sha256':
                '30ba8ac342c3ab71b16266bd939e2ee3b8f407605dfe29ce85c817cc6b9b6ab8',
            'mactree_sha256':
                '5d3400520b40dcd4a9c87bad39bb8860d27c8b96e0401b73c5cec14d5724fb13',
            'count': 401,
        },
    },
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_ledger_is_exact(name):
    observed = SCRIPTS[name]()
    for checkpoint, expected in GOLDEN[name].items():
        for field, value in expected.items():
            assert observed[checkpoint][field] == value, (name, checkpoint, field)
    assert observed.keys() == GOLDEN[name].keys()


# Deterministic StoreStats of _stats_script, recorded on the commit before
# the lookup path was straight-lined (ed16f43); benchmarks/shieldbench/
# traced.py divides these and the stage timers by the op count.
STATS_FIELDS = (
    "gets", "hits", "misses", "chain_steps", "search_decryptions", "hint_skips",
    "full_searches", "integrity_checks", "mac_cache_hits", "mac_cache_misses",
)
STATS_GOLDEN = {
    "mac_cache": {
        "gets": 75, "hits": 51, "misses": 25, "chain_steps": 503, "search_decryptions": 252,
        "hint_skips": 251, "full_searches": 146, "integrity_checks": 101,
        "mac_cache_hits": 103, "mac_cache_misses": 85,
    },
    "shield_base": {
        "gets": 75, "hits": 51, "misses": 25, "chain_steps": 405, "search_decryptions": 405,
        "hint_skips": 0, "full_searches": 0, "integrity_checks": 115,
        "mac_cache_hits": 0, "mac_cache_misses": 0,
    },
    "shield_opt": {
        "gets": 75, "hits": 51, "misses": 25, "chain_steps": 503, "search_decryptions": 252,
        "hint_skips": 251, "full_searches": 146, "integrity_checks": 115,
        "mac_cache_hits": 0, "mac_cache_misses": 0,
    },
}


def _stats_script(config):
    store = ShieldStore(config, master_secret=MASTER)
    started = perf_counter()
    store.multi_set([(_key(i), _value(i)) for i in range(120)])
    for i in range(0, 150, 3):               # single gets, the last ten miss
        if i < 120:
            assert store.get(_key(i)) == _value(i)
        else:
            assert not store.contains(_key(i))
    for i in range(0, 130, 7):               # updates (one resized) and inserts
        store.set(_key(i), _value(i + 1))
    for i in (5, 6, 200):
        assert store.multi_delete([_key(i)]) == {_key(i): i != 200}
    store.delete(_key(8))
    found = store.multi_get([_key(i) for i in range(110, 135)])
    assert sum(value is not None for value in found.values()) == 11
    assert store.audit() == len(store)
    return store.stats, perf_counter() - started


STATS_CONFIGS = {
    "shield_opt": shield_opt(num_buckets=64, num_mac_hashes=16),
    "mac_cache": shield_opt(num_buckets=64, num_mac_hashes=16, mac_cache_bytes=1024),
    "shield_base": shield_base(num_buckets=64, num_mac_hashes=16),
}


@pytest.mark.parametrize("name", sorted(STATS_CONFIGS))
def test_store_stats_and_stage_timers_are_pinned(name):
    stats, wall_s = _stats_script(STATS_CONFIGS[name])
    assert {field: getattr(stats, field) for field in STATS_FIELDS} == STATS_GOLDEN[name]
    stages = (stats.stage_walk_s, stats.stage_verify_s, stats.stage_crypto_s)
    assert all(stage > 0 for stage in stages)
    assert sum(stages) <= wall_s


def test_refused_accesses_charge_nothing():
    """The refusals sit between two checkpoints; only the one legal read
    of ``b`` (a warm line: 14 cycles, one LLC hit) may separate them."""
    charged, refused = GOLDEN["memory"]["charged"], GOLDEN["memory"]["refused"]
    assert refused["counters"]["mem_reads"] == charged["counters"]["mem_reads"] + 1
    assert refused["counters"]["mem_writes"] == charged["counters"]["mem_writes"]
    assert float(refused["cycles"]) - float(charged["cycles"]) == 14.0
    assert refused["llc"] == [charged["llc"][0] + 1, charged["llc"][1]]
    assert refused["epc"] == charged["epc"]


if __name__ == "__main__":
    import textwrap

    print("GOLDEN = {")
    for name, script in sorted(SCRIPTS.items()):
        print(f"    {name!r}: {{")
        for checkpoint, fields in script().items():
            print(f"        {checkpoint!r}: {{")
            for field, value in fields.items():
                print(textwrap.fill(
                    f"{field!r}: {value!r},", 96,
                    initial_indent=" " * 12, subsequent_indent=" " * 16,
                    break_long_words=False,
                ))
            print("        },")
        print("    },")
    print("}")
