"""Lightweight span API: nested, tagged durations gated by ``REPRO_OBS``.

A span brackets one operation::

    with span("engine.pairs", measure="dtw", backend="numba"):
        ...

Names follow the ``layer.operation`` convention (``engine.pairs``,
``search.refine``, ``train.epoch``).  Tags qualify a span without exploding
the namespace; a finished span records its elapsed seconds into a registry
histogram keyed ``name{tag=value,...}`` (tags sorted, so the key is stable
regardless of call-site keyword order).

Three modes, selected by the ``REPRO_OBS`` environment variable (or
:func:`set_obs_mode` for tests):

* ``off`` (default) — :func:`span` returns a module-level no-op singleton
  whose ``__enter__``/``__exit__`` do nothing.  The only cost is one
  integer comparison and a constant return: no allocation, no clock read.
* ``on`` — spans time themselves with ``perf_counter`` and feed the
  ``name{tags}`` duration histogram.
* ``trace`` — additionally emits one JSONL event per finished span (kind
  ``"span"``, with name, tags, duration and nesting depth) through
  :mod:`repro.obs.export`, for offline flame-style inspection.

Any other ``REPRO_OBS`` spelling raises :class:`~repro.config.EnvError`.

Nesting depth is tracked per-thread; spans on different threads never see
each other's depth.  Mode is captured once per process at import; pool
workers take the parent's mode from each chunk's dispatch context, not from
env re-reads.
"""

from __future__ import annotations

import threading
import time

from ..config import EnvError, env_raw
from .registry import histogram

__all__ = [
    "OBS_ENV",
    "OBS_OFF",
    "OBS_ON",
    "OBS_TRACE",
    "MODE_NAMES",
    "obs_mode",
    "obs_mode_name",
    "obs_enabled",
    "set_obs_mode",
    "span",
    "Span",
]

OBS_ENV = "REPRO_OBS"

OBS_OFF = 0
OBS_ON = 1
OBS_TRACE = 2

MODE_NAMES = {OBS_OFF: "off", OBS_ON: "on", OBS_TRACE: "trace"}

_MODE_ALIASES = {
    "off": OBS_OFF, "0": OBS_OFF, "false": OBS_OFF, "no": OBS_OFF, "": OBS_OFF,
    "on": OBS_ON, "1": OBS_ON, "true": OBS_ON, "yes": OBS_ON,
    "trace": OBS_TRACE, "2": OBS_TRACE,
}


def _mode_from_env() -> int:
    raw = env_raw(OBS_ENV)
    if raw is None:
        return OBS_OFF
    try:
        return _MODE_ALIASES[raw.lower()]
    except KeyError:
        raise EnvError(f"{OBS_ENV} must be one of "
                       f"{sorted(spelling for spelling in _MODE_ALIASES if spelling)}, "
                       f"got {raw!r}") from None


_mode = _mode_from_env()

_local = threading.local()


def obs_mode() -> int:
    """Current mode as an int (``OBS_OFF`` / ``OBS_ON`` / ``OBS_TRACE``)."""
    return _mode


def obs_mode_name() -> str:
    """Current mode as its ``REPRO_OBS`` spelling (``off``/``on``/``trace``)."""
    return MODE_NAMES[_mode]


def obs_enabled() -> bool:
    """True when spans and timing instrumentation are recording."""
    return _mode != OBS_OFF


def set_obs_mode(mode: int | str | None) -> int:
    """Set the process-wide mode; ``None`` re-reads ``REPRO_OBS``.

    Accepts the int constants or any ``REPRO_OBS`` spelling.  Returns the
    mode that took effect.  This is how tests and pool workers (which may
    have been forked before the parent decided) get switched without
    touching the environment.
    """
    global _mode
    if mode is None:
        _mode = _mode_from_env()
    elif isinstance(mode, str):
        try:
            _mode = _MODE_ALIASES[mode.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown obs mode {mode!r}; expected one of "
                             f"{sorted(set(MODE_NAMES.values()))}") from None
    else:
        if mode not in MODE_NAMES:
            raise ValueError(f"unknown obs mode {mode!r}")
        _mode = mode
    return _mode


def _depth() -> int:
    return getattr(_local, "depth", 0)


def span_key(name: str, tags: dict) -> str:
    """Histogram key for a span: ``name{k=v,...}`` with sorted tags."""
    if not tags:
        return name
    inner = ",".join(f"{key}={tags[key]}" for key in sorted(tags))
    return f"{name}{{{inner}}}"


class Span:
    """A live span; created by :func:`span` when observability is on."""

    __slots__ = ("name", "tags", "_start", "elapsed")

    def __init__(self, name: str, tags: dict):
        self.name = name
        self.tags = tags
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Span":
        _local.depth = _depth() + 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._start
        depth = _depth()
        _local.depth = depth - 1
        histogram(span_key(self.name, self.tags)).observe(self.elapsed)
        if _mode >= OBS_TRACE:
            from . import export
            export.write_event("span", {
                "name": self.name,
                "tags": self.tags,
                "seconds": self.elapsed,
                "depth": depth,
            })


class _NullSpan:
    """Shared do-nothing span handed out while ``REPRO_OBS=off``."""

    __slots__ = ()

    elapsed = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(name: str, **tags):
    """Context manager timing ``name`` with ``tags`` — no-op when disabled."""
    if _mode == OBS_OFF:
        return _NULL_SPAN
    return Span(name, tags)
