"""Process-wide pool of content-addressed shared-memory trajectory arenas.

Under the ``shared`` strategy every multi-chunk engine call used to pack its
point arrays into a fresh :class:`~repro.engine.shared.TrajectoryArena` and
unlink it when the call returned — correct, but for query serving the arrays
are the *same database trajectories* on every refinement batch of every query.
This module generalises the :class:`~repro.engine.cache.MatrixCache` pattern
(content fingerprint → cached artefact) to shared memory:

* :class:`CachedArena` — one packed arena plus the identity map from array
  object to arena slot, so the executor resolves slots with dict lookups
  instead of re-hashing or re-packing.  Arenas are packed with slack
  (``reserve_slots``/``reserve_bytes``) so an index ``insert`` appends only
  the delta; the new content fingerprint simply becomes an alias of the same
  entry.
* :class:`ArenaCache` — an LRU over cached arenas bounded by a byte budget
  (``REPRO_ARENA_CACHE_BYTES``, default 256 MiB; ``0`` disables caching).
  Entries are reference-counted via :meth:`~ArenaCache.pin` /
  :meth:`~ArenaCache.unpin`: eviction (LRU pressure, explicit
  :meth:`~ArenaCache.evict`, :meth:`~ArenaCache.clear`) closes-and-unlinks
  unpinned entries immediately and marks pinned ones *doomed* so the last
  unpin unlinks them — a worker dying mid-query therefore never leaks a
  segment, and ``live_arena_names()`` drains at atexit.

Telemetry: ``engine.arena.hits`` / ``misses`` / ``appends`` / ``evictions``
counters and the ``engine.arena.bytes`` gauge.
"""

from __future__ import annotations

import atexit
from collections import OrderedDict

import numpy as np

from ..config import env_int
from ..obs import counter, gauge
from .cache import fingerprint_trajectories
from . import shared as _shared

__all__ = [
    "ARENA_CACHE_ENV",
    "DEFAULT_ARENA_CACHE_BYTES",
    "CachedArena",
    "ArenaCache",
    "get_arena_cache",
    "reset_arena_cache",
]

ARENA_CACHE_ENV = "REPRO_ARENA_CACHE_BYTES"

#: Default byte budget for cached arenas (a few hundred city-scale databases).
DEFAULT_ARENA_CACHE_BYTES = 256 * 1024 * 1024


def _default_max_bytes() -> int:
    return env_int(ARENA_CACHE_ENV, DEFAULT_ARENA_CACHE_BYTES)


class CachedArena:
    """One cached arena: the packed segment plus the array-identity slot map.

    ``slot_of`` keys on ``id(array)`` — safe because the entry keeps strong
    references to every packed array, so ids cannot be recycled while the
    entry lives.  :class:`~repro.search.TrajectoryIndex` keeps the same array
    objects across ``insert``/``evict``, which is what makes identity the
    right (and cheapest) join key between an index and its arena.
    """

    __slots__ = ("arena", "fingerprints", "pins", "doomed", "_slots", "_arrays")

    def __init__(self, fingerprint: str, arrays, reserve_slots: int,
                 reserve_bytes: int):
        self.arena = _shared.TrajectoryArena(arrays, reserve_slots=reserve_slots,
                                             reserve_bytes=reserve_bytes)
        self.fingerprints = {fingerprint}
        self.pins = 0
        self.doomed = False
        self._arrays = list(arrays)
        self._slots = {id(array): slot for slot, array in enumerate(self._arrays)}

    @property
    def name(self) -> str:
        return self.arena.name

    @property
    def nbytes(self) -> int:
        return self.arena.size

    def slot_of(self, array) -> int | None:
        """Arena slot of ``array`` (by object identity), or None."""
        return self._slots.get(id(array))

    def missing(self, arrays) -> list:
        """The sub-list of ``arrays`` not yet packed (deduped, order kept)."""
        seen: set[int] = set()
        out = []
        for array in arrays:
            key = id(array)
            if key not in self._slots and key not in seen:
                seen.add(key)
                out.append(array)
        return out

    def absorb(self, fingerprint: str, arrays) -> None:
        """Append ``arrays`` into the slack and alias ``fingerprint`` here."""
        if arrays:
            slots = self.arena.append(arrays)
            for slot, array in zip(slots, arrays):
                self._arrays.append(array)
                self._slots[id(array)] = int(slot)
        self.fingerprints.add(fingerprint)

    def close(self) -> None:
        # TrajectoryArena.close is itself idempotent; delegating keeps a
        # double-evicted (or evicted-then-atexit-cleared) entry harmless.
        self.arena.close()

    @property
    def closed(self) -> bool:
        return self.arena.closed


def _estimate_bytes(arrays, reserve_slots: int, reserve_bytes: int) -> int:
    """Segment size a pack of ``arrays`` with this slack would allocate."""
    total = sum(a.shape[0] * a.shape[1] for a in arrays)
    payload = total + (reserve_bytes + 7) // 8
    return 8 * (2 + 3 * (len(arrays) + reserve_slots) + payload)


class ArenaCache:
    """LRU byte-budgeted pool of :class:`CachedArena` entries.

    Not thread-safe (like the rest of the engine layer); one instance per
    process via :func:`get_arena_cache`.
    """

    def __init__(self, max_bytes: int | None = None):
        self.max_bytes = _default_max_bytes() if max_bytes is None else int(max_bytes)
        self._entries: OrderedDict[str, CachedArena] = OrderedDict()
        self._by_fingerprint: dict[str, CachedArena] = {}
        self.hits = 0
        self.misses = 0
        self.appends = 0
        self.evictions = 0

    # ----------------------------------------------------------- introspection
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    @property
    def total_bytes(self) -> int:
        return sum(entry.nbytes for entry in self._entries.values())

    def stats(self) -> dict:
        return {"entries": len(self._entries), "bytes": self.total_bytes,
                "max_bytes": self.max_bytes, "hits": self.hits,
                "misses": self.misses, "appends": self.appends,
                "evictions": self.evictions}

    # ----------------------------------------------------------------- pinning
    def pin(self, arrays, fingerprint: str | None = None) -> CachedArena | None:
        """A pinned arena covering ``arrays``, or None when caching is off.

        Lookup order: exact fingerprint hit → delta-append onto an entry that
        already packs some of ``arrays`` (the incremental re-pack after an
        index mutation) → fresh pack.  The returned entry is pinned — it
        cannot be unlinked until the matching :meth:`unpin` — so it stays
        valid across a ``BrokenProcessPool`` retry and across every chunk of
        the call.  A database too large for the whole budget is not cached
        (the engine falls back to its per-call arena).
        """
        if not self.enabled:
            return None
        if fingerprint is None:
            fingerprint = fingerprint_trajectories(arrays)
        entry = self._by_fingerprint.get(fingerprint)
        if entry is not None:
            self.hits += 1
            counter("engine.arena.hits").add(1)
            self._entries.move_to_end(entry.name)
            entry.pins += 1
            return entry
        # Incremental path: an entry already holding some of these arrays (by
        # identity — i.e. an earlier generation of the same index) absorbs
        # just the delta instead of a full re-pack.
        for name in reversed(self._entries):
            candidate = self._entries[name]
            delta = candidate.missing(arrays)
            if len(delta) < len(arrays) and candidate.arena.can_append(delta):
                try:
                    candidate.absorb(fingerprint, delta)
                except _shared.ArenaCapacityError:
                    # The append failed (an injected fault, or the slack raced
                    # away).  ``append`` mutates nothing before raising, so the
                    # entry stays valid for its existing aliases; fall through
                    # to a fresh pack for this fingerprint.
                    counter("engine.arena.append_failures").add(1)
                    break
                self._by_fingerprint[fingerprint] = candidate
                self.appends += 1
                counter("engine.arena.appends").add(1)
                self._entries.move_to_end(name)
                self._publish_gauge()
                candidate.pins += 1
                return candidate
        self.misses += 1
        counter("engine.arena.misses").add(1)
        # Pack with slack proportional to the database so a follow-up insert
        # of a few percent of the fleet appends instead of re-packing.
        reserve_slots = max(len(arrays) // 4, 8)
        reserve_bytes = sum(a.nbytes for a in arrays) // 4
        if _estimate_bytes(arrays, reserve_slots, reserve_bytes) > self.max_bytes:
            return None
        entry = CachedArena(fingerprint, arrays, reserve_slots, reserve_bytes)
        self._entries[entry.name] = entry
        self._by_fingerprint[fingerprint] = entry
        entry.pins += 1
        self._evict_over_budget()
        self._publish_gauge()
        return entry

    def unpin(self, entry: CachedArena) -> None:
        """Release one pin; a doomed entry unlinks at its last unpin.

        Idempotent past zero: pins clamp at 0 (an error-path double-unpin must
        not push the count negative and resurrect-then-unlink a live entry)
        and the unlink itself is guarded by ``entry.closed``, so calling this
        after the entry already unlinked — double close, close after atexit —
        is a no-op.
        """
        entry.pins = max(entry.pins - 1, 0)
        if entry.doomed and entry.pins == 0 and not entry.closed:
            entry.close()
            self.evictions += 1
            counter("engine.arena.evictions").add(1)
            self._publish_gauge()

    # ---------------------------------------------------------------- eviction
    def evict(self, fingerprint: str) -> bool:
        """Drop the entry aliased to ``fingerprint``; True when it unlinked now.

        A pinned entry is doomed instead: it leaves the cache immediately (no
        new pins can reach it) and unlinks when its current pins drain.
        """
        entry = self._by_fingerprint.get(fingerprint)
        if entry is None:
            return False
        return self._drop(entry)

    def clear(self) -> None:
        """Evict everything (atexit hook; tests call it via reset_arena_cache)."""
        for entry in list(self._entries.values()):
            self._drop(entry)

    def _drop(self, entry: CachedArena) -> bool:
        self._entries.pop(entry.name, None)
        for fingerprint in entry.fingerprints:
            if self._by_fingerprint.get(fingerprint) is entry:
                del self._by_fingerprint[fingerprint]
        if entry.pins > 0:
            entry.doomed = True
            self._publish_gauge()
            return False
        if not entry.closed:
            entry.close()
            self.evictions += 1
            counter("engine.arena.evictions").add(1)
        self._publish_gauge()
        return True

    def _evict_over_budget(self) -> None:
        while self.total_bytes > self.max_bytes:
            victim = next((entry for entry in self._entries.values()
                           if entry.pins == 0), None)
            if victim is None:
                break  # everything live is pinned; budget is advisory until unpin
            self._drop(victim)

    def _publish_gauge(self) -> None:
        gauge("engine.arena.bytes").set(self.total_bytes)


_process_cache: ArenaCache | None = None
_ATEXIT_REGISTERED = False


def get_arena_cache() -> ArenaCache:
    """The process-wide arena cache (created lazily; atexit-drained)."""
    global _process_cache, _ATEXIT_REGISTERED
    if _process_cache is None:
        _process_cache = ArenaCache()
        if not _ATEXIT_REGISTERED:
            atexit.register(_atexit_clear)
            _ATEXIT_REGISTERED = True
    return _process_cache


def reset_arena_cache(max_bytes: int | None = None) -> ArenaCache:
    """Replace the process cache (clearing the old one); tests and tooling."""
    global _process_cache
    if _process_cache is not None:
        _process_cache.clear()
    _process_cache = ArenaCache(max_bytes)
    return _process_cache


def _atexit_clear() -> None:
    if _process_cache is not None:
        _process_cache.clear()
