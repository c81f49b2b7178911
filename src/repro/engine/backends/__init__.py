"""Pluggable kernel backends: numpy reference vs compiled (numba) DP kernels.

:mod:`repro.engine.kernels` maps a *measure name* to a batch kernel; this
package adds the orthogonal axis — *which implementation family* the engine
uses.  A backend offers one contract: batch kernels (a single pair is a
one-pair batch) plus :meth:`KernelBackend.sweep_table`, the stacked table
fill the streaming engine advances every frontier through.

* ``numpy`` — the anti-diagonal wavefront batch kernels and sweep of
  :mod:`repro.engine.kernels`.  Always available; the bitwise reference.
* ``numba`` — ``@njit``-compiled row-major DP loops
  (:mod:`repro.engine.backends.numba_kernels`) covering all nine measures,
  with the ``thresholds=`` early-abandoning contract inside the jitted loop,
  and a per-row table fill sharing those loops' recurrences.  Selectable
  only when numba is importable.
* ``auto`` (the default) — ``numba`` when importable, else ``numpy`` with a
  single process-wide warning.

Resolution order for every engine call: the engine's explicit ``backend=``
argument, then :func:`set_backend`'s process-wide override, then the
``REPRO_KERNEL_BACKEND`` environment variable, then ``auto``.  Third-party
backends plug in through :func:`register_backend`.

Worker processes of the ``shared`` strategy receive the parent's
*resolved* backend name with each chunk and re-resolve it on attach
(non-strict: a worker without numba falls back to numpy with a warning rather
than poisoning the pool), calling :meth:`KernelBackend.warmup` once per worker
so JIT compilation never rides inside a timed chunk.
"""

from __future__ import annotations

import warnings
from typing import Callable

from ...config import EnvError, env_raw
from .. import kernels

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "NumbaBackend",
    "BACKEND_ENV",
    "register_backend",
    "available_backends",
    "backend_available",
    "set_backend",
    "get_backend_name",
    "resolve_backend",
    "active_backend",
    "backend_provenance",
    "numba_version",
]

BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: Resolution pseudo-name: numba when importable, else numpy (one warning).
AUTO = "auto"


class KernelBackend:
    """Interface every kernel backend implements.

    A backend maps measure names to batch kernels (``(list_a, list_b,
    thresholds=None, **kwargs) -> (P,) float64``); returning ``None`` makes
    the engine fall through to the numpy batch kernel, then to the reference
    implementation, so a backend may cover any subset of measures.
    :meth:`sweep_table` defaults to the numpy sweep.
    """

    name: str = "?"
    #: Whether kernels run as compiled native code (drives backend-aware
    #: defaults like :data:`repro.search.knn.COMPILED_ABANDON_MEASURES`).
    compiled: bool = False

    def available(self) -> bool:
        """Whether this backend can run in this process."""
        return True

    def batch_kernel(self, measure: str) -> Callable | None:
        """Batch kernel for ``measure`` or None."""
        return None

    def sweep_table(self, mode: str, table, data, gap_cost_a=None,
                    gap_cost_b=None) -> None:
        """Fill stacked, already-bordered DP tables in place.

        ``mode`` is a recurrence (``"dtw"``, ``"erp"``, ``"edr"``, ``"lcss"``,
        ``"frechet"``; DITA fills with ``"dtw"``), ``table`` a C-contiguous
        ``(rows, n+1, width+1)`` array whose row 0 and column 0 hold the
        borders, ``data`` the ``(rows, n, width)`` cost or match tensor and
        the gap costs ERP's.  Arguments as :func:`repro.engine.kernels.
        _sweep_table`, which is this default; every backend must fill
        bitwise the same tables.
        """
        kernels._sweep_table(mode, table, data, gap_cost_a, gap_cost_b)

    def warmup(self) -> float:
        """Prepare the backend (JIT compilation); returns the seconds it took.

        Idempotent — repeat calls return the recorded first-call duration.
        """
        return 0.0


class NumpyBackend(KernelBackend):
    """The anti-diagonal wavefront kernels — always available, bitwise reference."""

    name = "numpy"
    compiled = False

    def batch_kernel(self, measure: str) -> Callable | None:
        return kernels.get_batch_kernel(measure)


class NumbaBackend(KernelBackend):
    """``@njit`` DP kernels for all nine measures."""

    name = "numba"
    compiled = True

    def _module(self):
        from . import numba_kernels

        return numba_kernels

    def available(self) -> bool:
        return bool(self._module().NUMBA_AVAILABLE)

    def batch_kernel(self, measure: str) -> Callable | None:
        return self._module().BATCH_KERNELS.get(measure.lower())

    def sweep_table(self, mode: str, table, data, gap_cost_a=None,
                    gap_cost_b=None) -> None:
        self._module().sweep_table(mode, table, data, gap_cost_a, gap_cost_b)

    def warmup(self) -> float:
        return self._module().warmup()


# ------------------------------------------------------------------ registry

_FACTORIES: dict[str, Callable[[], KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}
_ACTIVE: str | None = None
_FALLBACK_WARNED = False


def register_backend(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register a backend factory under ``name`` (case-insensitive, unique)."""
    key = name.lower()
    if key == AUTO:
        raise ValueError(f"'{AUTO}' is reserved for the resolution default")
    if key in _FACTORIES:
        raise KeyError(f"kernel backend '{name}' already registered")
    _FACTORIES[key] = factory


def _instance(name: str) -> KernelBackend:
    backend = _INSTANCES.get(name)
    if backend is None:
        backend = _INSTANCES[name] = _FACTORIES[name]()
    return backend


def available_backends() -> list[str]:
    """Names of registered backends usable in this process."""
    return sorted(name for name in _FACTORIES if _instance(name).available())


def backend_available(name: str) -> bool:
    """Whether ``name`` is registered and usable in this process."""
    key = name.lower()
    return key in _FACTORIES and _instance(key).available()


def _backend_options() -> tuple:
    return (AUTO, *sorted(_FACTORIES))


def _validate_name(name: str) -> str:
    key = str(name).lower()
    if key != AUTO and key not in _FACTORIES:
        raise KeyError(f"unknown kernel backend '{name}'; "
                       f"options: {_backend_options()}")
    return key


def _env_backend() -> str | None:
    """Backend name from ``REPRO_KERNEL_BACKEND`` (None when unset/blank)."""
    name = env_raw(BACKEND_ENV)
    if name is not None and name.lower() not in _backend_options():
        raise EnvError(f"{BACKEND_ENV} must be one of {_backend_options()}, "
                       f"got {name!r}")
    return name


def set_backend(name: str | None) -> None:
    """Process-wide backend override (None resets to env/auto resolution).

    Selecting an unavailable backend (e.g. ``numba`` without numba installed)
    raises immediately rather than failing on first use.
    """
    global _ACTIVE
    if name is None:
        _ACTIVE = None
        return
    key = _validate_name(name)
    if key != AUTO and not _instance(key).available():
        raise RuntimeError(f"kernel backend '{key}' is not available in this "
                           f"process (is its dependency installed?)")
    _ACTIVE = key


def get_backend_name() -> str | None:
    """The :func:`set_backend` override currently in force (None when unset)."""
    return _ACTIVE


def _warn_fallback(requested: str) -> None:
    global _FALLBACK_WARNED
    if not _FALLBACK_WARNED:
        _FALLBACK_WARNED = True
        warnings.warn(f"kernel backend '{requested}' requested but numba is "
                      f"not importable; falling back to the numpy backend "
                      f"(set {BACKEND_ENV}=numpy to silence)",
                      RuntimeWarning, stacklevel=3)


def resolve_backend(spec=None, strict: bool = True) -> KernelBackend:
    """Resolve a backend spec to an instance.

    ``spec`` may be a :class:`KernelBackend` (returned as-is), a name, or
    None — which falls through :func:`set_backend`'s override, then the
    ``REPRO_KERNEL_BACKEND`` environment variable, then ``auto``.  ``auto``
    resolves to numba when importable, else numpy with a one-time warning.
    An explicitly named backend that is unavailable raises when ``strict``
    (the parent process fails loudly) and warns + falls back to numpy when
    not (pool workers degrade gracefully instead of poisoning the pool).
    """
    if isinstance(spec, KernelBackend):
        return spec
    name = spec if spec is not None else (
        _ACTIVE or _env_backend() or AUTO)
    key = _validate_name(name)
    if key == AUTO:
        if backend_available("numba"):
            return _instance("numba")
        _warn_fallback(AUTO)
        return _instance("numpy")
    backend = _instance(key)
    if not backend.available():
        if strict:
            raise RuntimeError(f"kernel backend '{key}' is not available in "
                               f"this process (is its dependency installed?)")
        _warn_fallback(key)
        return _instance("numpy")
    return backend


def active_backend() -> KernelBackend:
    """The backend the engine would use right now (override → env → auto)."""
    return resolve_backend(None, strict=False)


def numba_version() -> str:
    """Installed numba version, or ``"absent"``."""
    from . import numba_kernels

    return numba_kernels.NUMBA_VERSION or "absent"


def backend_provenance(warmup: bool = True) -> dict:
    """Provenance record for benchmark JSONs: active backend, numba version,
    and (when ``warmup``) the JIT warm-up seconds this process paid."""
    backend = active_backend()
    record = {
        "kernel_backend": backend.name,
        "numba_version": numba_version(),
    }
    if warmup:
        record["warmup_seconds"] = float(backend.warmup())
    return record


register_backend("numpy", NumpyBackend)
register_backend("numba", NumbaBackend)
