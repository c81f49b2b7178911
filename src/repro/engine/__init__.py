"""``repro.engine`` — pluggable compute engine for matrix construction.

The engine layer sits between the distance measures and everything that consumes
distance matrices (training, violation analysis, experiments).  It owns:

* :class:`MatrixEngine` — selectable execution strategies (``serial`` reference
  loop, ``chunked`` batched kernels, zero-copy ``shared`` pool) behind one
  API;
* vectorized wavefront kernels for the DP distances (:mod:`repro.engine.kernels`),
  registered alongside the reference implementations;
* a packed shared-memory trajectory arena and persistent worker pool backing
  the ``shared`` strategy (:mod:`repro.engine.shared`);
* a content-addressed matrix cache (:mod:`repro.engine.cache`);
* pluggable kernel backends (:mod:`repro.engine.backends`) — the numpy
  wavefront kernels as the bitwise reference plus compiled (numba) per-pair
  DP loops, selected via ``MatrixEngine(backend=...)``, :func:`set_backend`
  or ``REPRO_KERNEL_BACKEND``;
* a stateful :class:`StreamingEngine` (:mod:`repro.engine.streaming`) that
  persists per-pair DP frontiers so appending points to a live stream costs
  one new column per point instead of a full recompute, bitwise identical to
  the batch kernels.

``get_default_engine()`` returns the process-wide engine used by the thin wrappers
in :mod:`repro.distances.matrix`.
"""

from .cache import MatrixCache, cache_key, fingerprint_trajectories
from . import kernels  # noqa: F401 — importing registers the vectorized kernels
from .kernels import (
    available_batch_kernels,
    get_batch_kernel,
    dtw_batch,
    erp_batch,
    edr_batch,
    lcss_batch,
    frechet_batch,
    dita_batch,
)
from .backends import (
    BACKEND_ENV,
    KernelBackend,
    active_backend,
    available_backends,
    backend_available,
    backend_provenance,
    register_backend,
    resolve_backend,
    set_backend,
)
from .executor import (
    STRATEGIES,
    DEFAULT_CHUNK_BYTES,
    CanonicalArrays,
    MatrixEngine,
    as_canonical_arrays,
    get_default_engine,
    set_default_engine,
)
from .shared import (
    ArenaCapacityError,
    TrajectoryArena,
    get_shared_pool,
    live_arena_names,
    reset_shared_pool,
    shutdown_shared_pools,
)
from .arena_cache import (
    ARENA_CACHE_ENV,
    DEFAULT_ARENA_CACHE_BYTES,
    ArenaCache,
    CachedArena,
    get_arena_cache,
    reset_arena_cache,
)
from .streaming import (
    DEFAULT_CHECKPOINT,
    STREAM_MEASURES,
    StreamingEngine,
)

__all__ = [
    "MatrixCache", "cache_key", "fingerprint_trajectories",
    "available_batch_kernels", "get_batch_kernel",
    "dtw_batch", "erp_batch", "edr_batch", "lcss_batch", "frechet_batch", "dita_batch",
    "BACKEND_ENV", "KernelBackend", "active_backend", "available_backends",
    "backend_available", "backend_provenance", "register_backend",
    "resolve_backend", "set_backend",
    "STRATEGIES", "DEFAULT_CHUNK_BYTES", "MatrixEngine",
    "CanonicalArrays", "as_canonical_arrays",
    "get_default_engine", "set_default_engine",
    "ArenaCapacityError", "TrajectoryArena",
    "get_shared_pool", "reset_shared_pool", "shutdown_shared_pools",
    "live_arena_names",
    "ARENA_CACHE_ENV", "DEFAULT_ARENA_CACHE_BYTES", "ArenaCache", "CachedArena",
    "get_arena_cache", "reset_arena_cache",
    "DEFAULT_CHECKPOINT", "STREAM_MEASURES", "StreamingEngine",
]
