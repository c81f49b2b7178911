"""Process-wide telemetry registry: counters, gauges and log-bucket histograms.

The registry is the single substrate every layer's instrumentation lands in:
the engine's DP cell-work counters, the search layer's phase histograms, the
service's cache hit/miss traffic and the trainer's per-epoch timings all live
here under dotted ``layer.operation`` names.  Three instrument kinds:

* :class:`Counter` — a monotonically increasing integer (``add``), reset only
  explicitly.  Counters are **always on**: incrementing one costs a dict-free
  lock acquisition, cheap enough for the per-diagonal cell accounting of the
  DP kernels, so work statistics stay exact whatever ``REPRO_OBS`` says.
* :class:`Gauge` — a last-write-wins float (``set``) for point-in-time values
  (pool sizes, cache occupancy).
* :class:`Histogram` — fixed **log-scale buckets** (powers of two from 2⁻³⁰ to
  2¹⁰, one underflow-inclusive first bucket and one overflow bucket), plus
  exact count/sum/min/max.  The bucket boundaries are a module constant, so
  histograms from different processes are always mergeable and bucket merging
  is elementwise integer addition — associative and commutative, which the
  worker-delta aggregation below relies on.

**Worker aggregation.**  The ``shared`` engine strategy runs kernels in
pool workers whose registries the parent cannot see.  A worker
takes a :meth:`Registry.checkpoint` before a chunk, computes, and returns
:meth:`Registry.delta_since` — a plain-dict, picklable delta of every counter
increment and histogram bucket added by the chunk.  The parent folds deltas
with :meth:`Registry.merge_delta` after the whole dispatch settles (so a
``BrokenProcessPool`` retry can never double-count).  Counter deltas are exact;
a delta histogram's min/max are the worker's running min/max (a superset of
the delta window), which only ever widens the parent's min/max to values that
genuinely occurred in that worker.

Everything is guarded by one registry-wide reentrant lock: coarse, but the
instruments are touched per-diagonal / per-chunk / per-query, never per-cell,
so contention is irrelevant next to the work being measured.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "BUCKET_BOUNDS",
    "NUM_BUCKETS",
    "bucket_index",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "reset_metrics",
]

#: Smallest / largest power-of-two bucket boundary exponents.  2⁻³⁰ ≈ 0.93 ns
#: and 2¹⁰ = 1024 bracket every duration (seconds) and count this codebase
#: observes; everything past either end lands in the first / overflow bucket.
_BUCKET_LOW = -30
_BUCKET_HIGH = 10

#: Upper bucket boundaries (``value <= bound``), shared by every histogram so
#: any two histograms merge bucket-for-bucket.
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    2.0 ** exponent for exponent in range(_BUCKET_LOW, _BUCKET_HIGH + 1))

#: Bucket count: one per boundary plus the overflow bucket.
NUM_BUCKETS = len(BUCKET_BOUNDS) + 1


def bucket_index(value: float) -> int:
    """Index of the log-scale bucket ``value`` falls into.

    Bucket ``i < len(BUCKET_BOUNDS)`` covers ``value <= BUCKET_BOUNDS[i]``
    (the first bucket absorbs zero and negatives); the last bucket is
    overflow.  Computed via ``math.frexp`` instead of a bisect: a value in
    ``(2^(e-1), 2^e]`` has frexp exponent ``e`` unless it is exactly
    ``2^(e-1)`` (mantissa 0.5), which belongs to the lower bucket.
    """
    if value <= BUCKET_BOUNDS[0]:
        return 0
    if value > BUCKET_BOUNDS[-1]:
        return NUM_BUCKETS - 1
    mantissa, exponent = math.frexp(value)
    if mantissa == 0.5:
        exponent -= 1
    return exponent - _BUCKET_LOW


class Counter:
    """Monotonic integer counter (thread-safe through the registry lock)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self._value = 0
        self._lock = lock

    def add(self, amount: int = 1) -> None:
        with self._lock:
            self._value += int(amount)

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """Last-write-wins float gauge."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self._value})"


class Histogram:
    """Fixed log-bucket histogram with exact count/sum/min/max.

    All histograms share :data:`BUCKET_BOUNDS`, so two histograms (or a
    histogram and a serialized delta) merge by adding bucket counts
    elementwise — an associative, commutative fold.
    """

    __slots__ = ("name", "_lock", "count", "total", "minimum", "maximum",
                 "buckets")

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self._lock = lock
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.buckets = [0] * NUM_BUCKETS

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
            self.buckets[bucket_index(value)] += 1

    def state(self) -> dict:
        """Serializable full state (the mergeable representation)."""
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "min": self.minimum if self.count else None,
                "max": self.maximum if self.count else None,
                "buckets": list(self.buckets),
            }

    def merge_state(self, state: dict) -> None:
        """Fold a :meth:`state` / delta dict into this histogram."""
        if not state or not state.get("count"):
            return
        with self._lock:
            self.count += int(state["count"])
            self.total += float(state["sum"])
            if state.get("min") is not None and state["min"] < self.minimum:
                self.minimum = float(state["min"])
            if state.get("max") is not None and state["max"] > self.maximum:
                self.maximum = float(state["max"])
            for index, added in enumerate(state["buckets"]):
                if added:
                    self.buckets[index] += int(added)

    def summary(self) -> dict:
        """Human-scale digest: count, sum, min/mean/max (None when empty)."""
        with self._lock:
            if not self.count:
                return {"count": 0, "sum": 0.0, "min": None, "max": None,
                        "mean": None}
            return {
                "count": self.count,
                "sum": self.total,
                "min": self.minimum,
                "max": self.maximum,
                "mean": self.total / self.count,
            }

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.minimum = math.inf
            self.maximum = -math.inf
            self.buckets = [0] * NUM_BUCKETS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count})"


class Registry:
    """Named instruments behind one lock, with snapshot/delta/merge plumbing.

    The module-level default registry (:func:`get_registry`) is what the hot
    paths use; subsystems that want isolated scopes (``SearchService``) hold
    their own instance and mirror into the default one.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------ instruments
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    instrument = self._counters[name] = Counter(name, self._lock)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    instrument = self._gauges[name] = Gauge(name, self._lock)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    instrument = self._histograms[name] = Histogram(name,
                                                                    self._lock)
        return instrument

    # --------------------------------------------------------------- export
    def snapshot(self) -> dict:
        """JSON-serializable snapshot of every instrument.

        Zero-valued counters and empty histograms are included — a name's
        presence documents that the code path registered it.
        """
        with self._lock:
            return {
                "counters": {name: c.value for name, c in
                             sorted(self._counters.items())},
                "gauges": {name: g.value for name, g in
                           sorted(self._gauges.items())},
                "histograms": {name: h.state() for name, h in
                               sorted(self._histograms.items())},
            }

    # ---------------------------------------------------------- worker deltas
    def checkpoint(self) -> dict:
        """Cheap mark of current instrument values, for :meth:`delta_since`."""
        with self._lock:
            return {
                "counters": {name: c.value for name, c in
                             self._counters.items()},
                "histograms": {name: (h.count, h.total, list(h.buckets))
                               for name, h in self._histograms.items()},
            }

    def delta_since(self, checkpoint: dict) -> dict:
        """Picklable delta of everything recorded since ``checkpoint``.

        Counter deltas are exact differences.  Histogram deltas subtract
        count/sum/buckets; their min/max are the *running* min/max (see the
        module docstring for why that stays sound under merging).  Gauges are
        point-in-time and shipped as-is.
        """
        base_counters = checkpoint.get("counters", {})
        base_histograms = checkpoint.get("histograms", {})
        with self._lock:
            counters = {}
            for name, instrument in self._counters.items():
                delta = instrument.value - base_counters.get(name, 0)
                if delta:
                    counters[name] = delta
            histograms = {}
            for name, instrument in self._histograms.items():
                base_count, base_sum, base_buckets = base_histograms.get(
                    name, (0, 0.0, None))
                added = instrument.count - base_count
                if not added:
                    continue
                if base_buckets is None:
                    buckets = list(instrument.buckets)
                else:
                    buckets = [current - before for current, before in
                               zip(instrument.buckets, base_buckets)]
                histograms[name] = {
                    "count": added,
                    "sum": instrument.total - base_sum,
                    "min": instrument.minimum,
                    "max": instrument.maximum,
                    "buckets": buckets,
                }
            gauges = {name: g.value for name, g in self._gauges.items()}
            return {"counters": counters, "histograms": histograms,
                    "gauges": gauges}

    def merge_delta(self, delta: dict | None) -> None:
        """Fold a :meth:`delta_since` dict (e.g. from a pool worker) in."""
        if not delta:
            return
        for name, amount in delta.get("counters", {}).items():
            self.counter(name).add(amount)
        for name, state in delta.get("histograms", {}).items():
            self.histogram(name).merge_state(state)
        for name, value in delta.get("gauges", {}).items():
            self.gauge(name).set(value)

    # ----------------------------------------------------------------- reset
    def reset(self, prefix: str | None = None) -> None:
        """Zero every instrument, or only those whose name starts with ``prefix``."""
        with self._lock:
            for family in (self._counters, self._gauges, self._histograms):
                for name, instrument in family.items():
                    if prefix is None or name.startswith(prefix):
                        instrument.reset()


_DEFAULT = Registry()


def get_registry() -> Registry:
    """The process-wide default registry every hot path records into."""
    return _DEFAULT


def counter(name: str) -> Counter:
    """Get-or-create a counter on the default registry."""
    return _DEFAULT.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create a gauge on the default registry."""
    return _DEFAULT.gauge(name)


def histogram(name: str) -> Histogram:
    """Get-or-create a histogram on the default registry."""
    return _DEFAULT.histogram(name)


def snapshot() -> dict:
    """Snapshot of the default registry."""
    return _DEFAULT.snapshot()


def reset_metrics(prefix: str | None = None) -> None:
    """Reset the default registry (optionally only a dotted-name prefix)."""
    _DEFAULT.reset(prefix)
