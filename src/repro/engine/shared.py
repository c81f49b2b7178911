"""Zero-copy shared-memory backing for the engine's ``shared`` strategy.

Naive process-pool dispatch pays twice for every chunk: a fresh
``ProcessPoolExecutor`` per ``pairwise``/``cross``/``pairs`` call, and the
full point arrays of every pair pickled to the workers — for a pairwise
matrix each trajectory is shipped once per pair it participates in, an O(n)
amplification of the actual data volume.  This module removes both costs:

* :class:`TrajectoryArena` — all point arrays of one engine call flattened
  into a single contiguous float64 buffer published through
  :mod:`multiprocessing.shared_memory`.  A small header (an
  ``(offset, length, dim)`` table) makes every trajectory recoverable as a
  zero-copy NumPy view, so chunk dispatch ships only integer pair indices
  and per-chunk threshold slices;
* a **persistent worker pool** (:func:`get_shared_pool`) — started lazily on
  the first ``shared``-strategy call, reused across calls and engines with
  the same worker count, and shut down via ``atexit`` (or explicitly through
  :func:`shutdown_shared_pools` / ``MatrixEngine.close``);
* :func:`attach_pairs` — the worker-side attach: map the arena (cached per
  worker process, so a call's many chunks attach once) and resolve a chunk's
  slot vectors to read-only zero-copy views.

Lifecycle: for a per-call arena the parent packs, waits for every chunk
future to settle, then closes *and unlinks* the segment in a ``finally``
block — an exception in any worker can never leak shared memory.  Arenas
owned by the :mod:`~repro.engine.arena_cache` instead persist across calls
(keyed by content fingerprint, with append slack for index deltas) and are
unlinked on LRU eviction / ``clear()`` / atexit.  Workers keep a small LRU of
attachments open, which is safe on POSIX: an unlinked segment stays mapped
until the last attachment closes.

The task format — what a chunk ships and what the worker runs on it — is the
engine's (:mod:`repro.engine.executor`); this module only owns the segment,
the pool and the attach.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory as _shared_memory

import numpy as np

from ..resilience import faults

__all__ = [
    "ArenaCapacityError",
    "TrajectoryArena",
    "attach_pairs",
    "get_shared_pool",
    "reset_shared_pool",
    "shutdown_shared_pools",
    "live_arena_names",
]

#: Arena header scalar type; offsets are in float64 *elements* into the payload.
_HEADER_DTYPE = np.int64


# ----------------------------------------------------------------- the arena

#: Names of arenas created by this process that are not yet unlinked.  The
#: robustness suite asserts this drains back to empty even on exception paths.
_LIVE_ARENAS: set[str] = set()


class ArenaCapacityError(RuntimeError):
    """Raised when :meth:`TrajectoryArena.append` outgrows the reserved space."""


class TrajectoryArena:
    """Point arrays packed into one shared segment, with optional append slack.

    Layout (native byte order)::

        int64               count                    trajectories currently packed
        int64               capacity                 table rows reserved
        int64[capacity, 3]  table                    (offset, length, dim) rows
        float64[reserved]   payload                  concatenated point data

    ``offset`` indexes float64 elements into the payload, so trajectory ``i``
    is ``payload[offset:offset + length * dim].reshape(length, dim)`` — a
    zero-copy view for whoever attaches.

    ``reserve_slots``/``reserve_bytes`` over-allocate table rows and payload so
    the arena cache can :meth:`append` the delta of a mutated index instead of
    re-packing the whole database.  Appends write table rows and payload first
    and publish the new ``count`` last, so a concurrently attached reader only
    ever sees fully written trajectories.
    """

    def __init__(self, arrays, reserve_slots: int = 0, reserve_bytes: int = 0):
        count = len(arrays)
        lengths = np.array([a.shape[0] for a in arrays], dtype=_HEADER_DTYPE)
        dims = np.array([a.shape[1] for a in arrays], dtype=_HEADER_DTYPE)
        sizes = lengths * dims
        offsets = np.concatenate(([0], np.cumsum(sizes[:-1]))) if count \
            else np.zeros(0, dtype=_HEADER_DTYPE)
        capacity = count + max(int(reserve_slots), 0)
        total = int(sizes.sum())
        self._payload_capacity = total + (max(int(reserve_bytes), 0) + 7) // 8
        self.count = count
        self.capacity = capacity
        self._payload_used = total
        self.size = 8 * (2 + 3 * capacity + self._payload_capacity)
        self._shm = _shared_memory.SharedMemory(create=True, size=max(self.size, 16))
        try:
            header = np.ndarray((2,), dtype=_HEADER_DTYPE, buffer=self._shm.buf)
            header[0] = count
            header[1] = capacity
            table = np.ndarray((capacity, 3), dtype=_HEADER_DTYPE,
                               buffer=self._shm.buf, offset=16)
            table[:count, 0] = offsets
            table[:count, 1] = lengths
            table[:count, 2] = dims
            table[count:] = 0
            payload = np.ndarray((total,), dtype=np.float64, buffer=self._shm.buf,
                                 offset=8 * (2 + 3 * capacity))
            for offset, size, array in zip(offsets, sizes, arrays):
                payload[offset:offset + size] = array.reshape(-1)
            del header, table, payload  # drop buffer exports before any close()
        except BaseException:
            self._shm.close()
            self._shm.unlink()
            raise
        self.name = self._shm.name
        _LIVE_ARENAS.add(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TrajectoryArena(name={self.name!r}, size={self.size}, "
                f"count={self.count}/{self.capacity})")

    def can_append(self, arrays) -> bool:
        """Whether ``arrays`` fit in the reserved table rows and payload slack."""
        if self._shm is None:
            return False
        total = sum(a.shape[0] * a.shape[1] for a in arrays)
        return (self.count + len(arrays) <= self.capacity
                and self._payload_used + total <= self._payload_capacity)

    def append(self, arrays) -> np.ndarray:
        """Pack ``arrays`` into the reserved slack; returns their slot indices.

        Table rows and payload land before the header ``count`` is bumped, so a
        reader attached mid-append never observes a half-written trajectory.
        """
        faults.fault_point("arena_append_fail")
        if self._shm is None:
            raise RuntimeError("arena is closed")
        if not self.can_append(arrays):
            raise ArenaCapacityError(
                f"appending {len(arrays)} trajectories exceeds the arena's "
                f"reserved capacity ({self.count}/{self.capacity} slots, "
                f"{self._payload_used}/{self._payload_capacity} payload elements)")
        start = self.count
        offset = self._payload_used
        table = np.ndarray((self.capacity, 3), dtype=_HEADER_DTYPE,
                           buffer=self._shm.buf, offset=16)
        payload = np.ndarray((self._payload_capacity,), dtype=np.float64,
                             buffer=self._shm.buf,
                             offset=8 * (2 + 3 * self.capacity))
        for slot, array in enumerate(arrays, start=start):
            size = array.shape[0] * array.shape[1]
            payload[offset:offset + size] = array.reshape(-1)
            table[slot] = (offset, array.shape[0], array.shape[1])
            offset += size
        header = np.ndarray((2,), dtype=_HEADER_DTYPE, buffer=self._shm.buf)
        header[0] = start + len(arrays)
        del header, table, payload  # drop buffer exports before any close()
        self.count = start + len(arrays)
        self._payload_used = offset
        return np.arange(start, self.count, dtype=np.int64)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` already ran (the cache's double-unlink guard)."""
        return self._shm is None

    def close(self) -> None:
        """Close and unlink the segment (idempotent, exception-safe)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass
        _LIVE_ARENAS.discard(self.name)

    def __enter__(self) -> "TrajectoryArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def unpack_views(buffer) -> list[np.ndarray]:
    """Read-only zero-copy trajectory views over a packed arena buffer."""
    header = np.ndarray((2,), dtype=_HEADER_DTYPE, buffer=buffer)
    count, capacity = int(header[0]), int(header[1])
    payload_offset = 8 * (2 + 3 * capacity)
    table = np.ndarray((count, 3), dtype=_HEADER_DTYPE, buffer=buffer, offset=16)
    views = []
    for offset, length, dim in table:
        view = np.ndarray((int(length), int(dim)), dtype=np.float64, buffer=buffer,
                          offset=payload_offset + 8 * int(offset))
        view.flags.writeable = False
        views.append(view)
    return views


def live_arena_names() -> frozenset[str]:
    """Arenas created by this process that are still linked (leak detector)."""
    return frozenset(_LIVE_ARENAS)


# ------------------------------------------------------------- worker side

#: The worker's attachment cache: ``{arena_name: (SharedMemory, views)}``.
#: A small LRU — cached arenas persist across calls, so a worker serving
#: several indexes keeps each database segment mapped instead of re-attaching
#: per call; the per-call (non-cached) arenas churn through the same slots.
_ATTACHED: dict[str, tuple[object, list[np.ndarray]]] = {}

#: How many arena attachments a worker keeps mapped at once.
_ATTACH_CAPACITY = 4


def _release_attachment(name: str) -> None:
    shm, views = _ATTACHED.pop(name)
    views.clear()
    try:
        shm.close()
    except BufferError:  # pragma: no cover - a stray view still references buf
        pass


def _attach_arena(name: str, min_slots: int = 0) -> list[np.ndarray]:
    """Attach to ``name`` (cached, LRU) and return its trajectory views.

    ``min_slots`` is the highest slot index the caller is about to touch plus
    one: a cached attachment with fewer views re-reads the header — the parent
    appended to the arena since this worker attached, and append publishes
    ``count`` last, so the refreshed views are complete.
    """
    faults.fault_point("shm_attach_fail")
    cached = _ATTACHED.pop(name, None)
    if cached is not None:
        shm, views = cached
        if min_slots > len(views):
            views = unpack_views(shm.buf)
        _ATTACHED[name] = (shm, views)  # re-insert: most recently used
        return views
    while len(_ATTACHED) >= _ATTACH_CAPACITY:
        _release_attachment(next(iter(_ATTACHED)))
    shm = _shared_memory.SharedMemory(name=name)
    views = unpack_views(shm.buf)
    _ATTACHED[name] = (shm, views)
    return views


def attach_pairs(name: str, idx_a: np.ndarray, idx_b: np.ndarray,
                 extras=()) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Both sides of a chunk as read-only views over arena ``name``.

    ``idx_a``/``idx_b`` are arena slots; a negative slot ``-1 - e`` addresses
    ``extras[e]``, the few arrays shipped alongside rather than packed (the
    query of a refinement batch riding a cached database arena).  This is the
    ``shm_attach_fail`` injection site, one per chunk.
    """
    min_slots = int(max(idx_a.max(initial=-1), idx_b.max(initial=-1))) + 1
    arrays = _attach_arena(name, min_slots)

    def resolve(slot: int) -> np.ndarray:
        return arrays[slot] if slot >= 0 else extras[-1 - slot]

    return ([resolve(int(i)) for i in idx_a], [resolve(int(j)) for j in idx_b])


# ------------------------------------------------------- the persistent pool

_POOLS: dict[int, ProcessPoolExecutor] = {}
_ATEXIT_REGISTERED = False


def get_shared_pool(max_workers: int) -> ProcessPoolExecutor:
    """The persistent pool for ``max_workers`` (created lazily, reused)."""
    global _ATEXIT_REGISTERED
    pool = _POOLS.get(max_workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=max_workers)
        _POOLS[max_workers] = pool
        if not _ATEXIT_REGISTERED:
            atexit.register(shutdown_shared_pools)
            _ATEXIT_REGISTERED = True
    return pool


def reset_shared_pool(max_workers: int) -> None:
    """Discard the pool for ``max_workers`` (after e.g. a killed worker)."""
    pool = _POOLS.pop(max_workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_shared_pools() -> None:
    """Shut down every persistent pool (registered with ``atexit``)."""
    for max_workers in list(_POOLS):
        pool = _POOLS.pop(max_workers)
        pool.shutdown(wait=True, cancel_futures=True)

