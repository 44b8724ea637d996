"""ShieldStore core: the paper's primary contribution.

Public surface:

* :class:`~repro.core.store.ShieldStore` — single-partition store.
* :class:`~repro.core.partition.PartitionedShieldStore` — §5.3
  hash-partitioned multi-threaded store.
* :class:`~repro.core.config.StoreConfig` with the
  :func:`~repro.core.config.shield_base` / :func:`~repro.core.config.shield_opt`
  paper variants.
* :class:`~repro.core.persistence.PartitionSnapshotter` /
  :class:`~repro.core.persistence.SnapshotScheduler` — §4.4 persistence.
* :class:`~repro.core.host.PartitionHost` — one partition's store +
  sealed WAL lifecycle (build, which is recovery; checkpoint).
* :class:`~repro.core.checkpoint.SnapshotDaemon` — periodic checkpoint
  files of a served store; :func:`open_store` starts a node from one.
"""

from repro.core.allocator import ExtraHeapAllocator, OcallAllocator, make_allocator
from repro.core.cache import EnclaveCache
from repro.core.checkpoint import SnapshotDaemon, open_store
from repro.core.config import StoreConfig, shield_base, shield_opt
from repro.core.entry import (
    HEADER_SIZE,
    MAC_SIZE,
    EntryHeader,
    entry_total_size,
    mac_message,
    pack_header,
    unpack_header,
)
from repro.core.hashindex import BucketTable
from repro.core.host import PartitionHost
from repro.core.macbucket import MacBucketStore
from repro.core.maccache import MacSetCache
from repro.core.mactree import MacTree
from repro.core.partition import (
    MODE_PROCESSES,
    MODE_SEQUENTIAL,
    PartitionedShieldStore,
)
from repro.core.planner import CapacityPlan, plan
from repro.core.procpool import ProcessPartitionPool, process_mode_supported
from repro.core.persistence import (
    MODE_NAIVE,
    MODE_NONE,
    MODE_OPTIMIZED,
    PartitionSnapshotter,
    SnapshotPolicy,
    SnapshotScheduler,
    default_platform_secret,
    snapshot_counter,
)
from repro.core.stats import StoreStats
from repro.core.store import DEFAULT_MEASUREMENT, FoundEntry, ShieldStore
from repro.core.wal import (
    DEFAULT_SYNC_MS,
    WriteAheadLog,
    apply_request,
    fsync_directory,
)

__all__ = [
    "BucketTable",
    "CapacityPlan",
    "DEFAULT_MEASUREMENT",
    "DEFAULT_SYNC_MS",
    "EnclaveCache",
    "EntryHeader",
    "ExtraHeapAllocator",
    "FoundEntry",
    "HEADER_SIZE",
    "MAC_SIZE",
    "MODE_NAIVE",
    "MODE_NONE",
    "MODE_OPTIMIZED",
    "MODE_PROCESSES",
    "MODE_SEQUENTIAL",
    "MacBucketStore",
    "MacSetCache",
    "MacTree",
    "OcallAllocator",
    "PartitionHost",
    "PartitionSnapshotter",
    "PartitionedShieldStore",
    "ProcessPartitionPool",
    "default_platform_secret",
    "process_mode_supported",
    "snapshot_counter",
    "ShieldStore",
    "SnapshotDaemon",
    "SnapshotPolicy",
    "SnapshotScheduler",
    "StoreConfig",
    "StoreStats",
    "WriteAheadLog",
    "apply_request",
    "entry_total_size",
    "fsync_directory",
    "mac_message",
    "make_allocator",
    "open_store",
    "pack_header",
    "plan",
    "shield_base",
    "shield_opt",
    "unpack_header",
]
