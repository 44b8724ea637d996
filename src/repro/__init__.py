"""ShieldStore reproduction: shielded in-memory key-value storage on SGX.

Reproduction of *ShieldStore: Shielded In-memory Key-value Storage with
SGX* (Kim et al., EuroSys 2019) as a pure-Python library over a
cycle-accounting SGX simulator.  See DESIGN.md for the system inventory
and EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import ShieldStore, shield_opt

    store = ShieldStore(shield_opt(num_buckets=4096, num_mac_hashes=2048))
    store.set(b"user:42", b"alice")
    assert store.get(b"user:42") == b"alice"

Packages:

* :mod:`repro.core` — ShieldStore itself (the paper's contribution);
* :mod:`repro.sim` — the simulated SGX platform (EPC, enclaves,
  sealing, attestation, the attacker of the threat model);
* :mod:`repro.crypto` — from-scratch AES-128/CTR/CMAC substrate;
* :mod:`repro.baselines` — insecure / naive-SGX / Graphene-memcached /
  Eleos comparators;
* :mod:`repro.net` — networked front-ends (simulated + real TCP);
* :mod:`repro.workloads` — YCSB-style workload generators;
* :mod:`repro.experiments` — one module per paper table/figure;
* :mod:`repro.ext` — replication, sharding and §7's range queries.
"""

from repro.core import (
    PartitionSnapshotter,
    PartitionedShieldStore,
    ShieldStore,
    SnapshotPolicy,
    SnapshotScheduler,
    StoreConfig,
    shield_base,
    shield_opt,
)
from repro.errors import (
    AttestationError,
    CryptoError,
    IntegrityError,
    KeyNotFoundError,
    PointerSafetyError,
    ReplayError,
    ReproError,
    RollbackError,
    SealingError,
    SnapshotError,
    StoreError,
    UnsupportedConfigError,
)
from repro.sim import Attacker, AttestationService, Enclave, Machine, SealingService

__version__ = "1.0.0"

__all__ = [
    "Attacker",
    "AttestationError",
    "AttestationService",
    "CryptoError",
    "Enclave",
    "IntegrityError",
    "KeyNotFoundError",
    "Machine",
    "PartitionSnapshotter",
    "PartitionedShieldStore",
    "PointerSafetyError",
    "ReplayError",
    "ReproError",
    "RollbackError",
    "SealingError",
    "SealingService",
    "ShieldStore",
    "SnapshotError",
    "SnapshotPolicy",
    "SnapshotScheduler",
    "StoreConfig",
    "StoreError",
    "UnsupportedConfigError",
    "shield_base",
    "shield_opt",
    "__version__",
]
