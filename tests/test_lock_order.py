"""Runtime lock discipline of the multiprocess partition pool.

shieldlint's lock-order pass checks statically that the pool's one lock,
``_pool_lock``, is taken in the pinned family order and never re-taken
by its holder.  This module checks the same discipline *dynamically*:
the pool lock is wrapped in a recording proxy and the plane crossings
(``_send`` / ``_recv`` / the shutdown ``send_raw``) in a spy, and a
concurrent scatter/request/snapshot/stats stress run, then ``close()``,
must never observe

* a plane crossing by a thread that does not hold the pool lock, or
* the holder of the pool lock acquiring it again (a ``threading.Lock``
  never re-enters: that would deadlock).
"""

import threading

import pytest

from repro.core import process_mode_supported, shield_opt
from repro.core.procpool import OP_PING, ProcessPartitionPool

SECRET = bytes(range(32))
WORKERS = 3

needs_processes = pytest.mark.skipif(
    not process_mode_supported(),
    reason="platform cannot run the multiprocess engine",
)


class _TrackingLock:
    """Duck-types threading.Lock for ``with`` use; records its holder."""

    def __init__(self, inner):
        self._inner = inner
        self.holder = None
        self.acquisitions = 0
        self.crossings = 0
        self.violations = []

    def acquire(self, *args, **kwargs):
        if self.holder == threading.get_ident():
            self.violations.append("pool lock re-acquired by its holder")
            raise RuntimeError("pool lock re-acquired by its holder")
        acquired = self._inner.acquire(*args, **kwargs)
        if acquired:
            self.holder = threading.get_ident()
            self.acquisitions += 1
        return acquired

    def release(self):
        self.holder = None
        self._inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False

    def spy(self, crossing):
        """Wrap a plane crossing: it must run under the pool lock."""

        def checked(*args, **kwargs):
            self.crossings += 1
            if self.holder != threading.get_ident():
                self.violations.append(
                    f"{crossing.__name__} ran without holding the pool lock"
                )
            return crossing(*args, **kwargs)

        return checked


def _instrument(pool: ProcessPartitionPool) -> _TrackingLock:
    tracker = pool._pool_lock = _TrackingLock(pool._pool_lock)
    pool._send = tracker.spy(pool._send)
    pool._recv = tracker.spy(pool._recv)
    for handle in pool.workers:  # close()'s sealed shutdown frames
        handle.plane.send_raw = tracker.spy(handle.plane.send_raw)
    return tracker


@needs_processes
class TestRuntimeLockOrder:
    def test_concurrent_stress_keeps_ascending_order(self):
        pool = ProcessPartitionPool(
            shield_opt(num_buckets=128, num_mac_hashes=32),
            WORKERS,
            master_secret=SECRET,
        )
        tracker = _instrument(pool)
        errors = []
        start = threading.Barrier(4)

        def hammer(seed: int) -> None:
            try:
                start.wait()
                for step in range(12):
                    action = (seed + step) % 4
                    if action == 0:
                        pool.scatter(
                            {i: b"" for i in range(WORKERS)}, OP_PING
                        )
                    elif action == 1:
                        pool.request(step % WORKERS, OP_PING)
                    elif action == 2:
                        pool.snapshot_all(seed * 100 + step)
                    else:
                        pool.gather_stats()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(seed,), daemon=True)
            for seed in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            pool.gather_stats()
        finally:
            pool.close()

        assert not errors, errors
        assert tracker.violations == [], "\n".join(tracker.violations)
        # The stress must actually have taken turns on the lock and
        # crossed the planes under it.
        assert tracker.acquisitions >= 4 * 12
        assert tracker.crossings >= 2 * 4 * 12

    def test_close_acquires_every_worker_ascending(self):
        pool = ProcessPartitionPool(
            shield_opt(num_buckets=32, num_mac_hashes=8),
            WORKERS,
            master_secret=SECRET,
        )
        tracker = _instrument(pool)
        pool.close()
        assert tracker.violations == [], "\n".join(tracker.violations)
        assert tracker.acquisitions == 1
        assert tracker.crossings == WORKERS
        assert tracker.holder is None
