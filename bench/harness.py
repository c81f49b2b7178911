"""Measurement primitives shared by the benchmark's workloads and tools.

Everything here is independent of :mod:`repro`: sample summaries (median,
quartiles and the tail-percentile rule), an in-memory span tracer that wraps
public entry points from the outside, and the process's peak memory.

Tail rule.  A latency is reported as its median plus the *highest percentile
that has at least ten samples beyond it*, from the ladder
:data:`TAIL_LADDER`; with fewer than twenty samples no percentile qualifies
and the tail is the maximum.  Workloads pick the percentile from their fixed
minimum sample count, so a run that happens to finish a few more requests
never switches the percentile it reports.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

__all__ = ["TAIL_LADDER", "tail_percentile", "summarize", "quartile_spread",
           "Tracer", "peak_rss_mb"]

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least ten of ``count`` samples beyond it."""
    for level in TAIL_LADDER:
        # The epsilon absorbs the rounding of 100 - 99.9.
        if count * (100.0 - level) / 100.0 >= 10.0 - 1e-9:
            return level
    return None


def summarize(values, tail_count: int | None = None) -> dict:
    """Count, median, quartiles and tail of a sample.

    The tail percentile is :func:`tail_percentile` of ``tail_count``
    (default: this sample's size), so callers can pin it to a fixed minimum
    sample count.  The tail falls back to the maximum when no percentile
    qualifies.
    """
    values = [float(value) for value in values]
    if not values:
        raise ValueError("cannot summarize an empty sample")
    tail_level = tail_percentile(len(values) if tail_count is None else tail_count)
    low, high = _quartiles(values)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": low,
        "q3": high,
        "tail_percentile": tail_level,
        "tail": float(np.percentile(values, tail_level)) if tail_level is not None
        else max(values),
    }


def _quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    values = [float(value) for value in values]
    low, high = _quartiles(values)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if high == low else float("inf")
    return (high - low) / abs(median)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (``ru_maxrss``)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


class Tracer:
    """In-memory spans recorded by wrappers around public entry points.

    :meth:`wrap` swaps ``owner.attr`` for a wrapper that records a span
    ``(name, start, end, parent, request)`` while :attr:`enabled` is true and
    calls straight through otherwise; :meth:`restore` puts every original
    back.  Wrap an instance attribute where the program calls the method on
    an instance, and a class attribute only where it calls through the class.
    :meth:`request` opens the root span of one traced request; every span
    opened inside it shares the request id.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._request = -1
        self._patches: list[tuple] = []

    # ----------------------------------------------------------- recording
    def call(self, name: str, func, *args, **kwargs):
        """Run ``func`` under a span named ``name`` (plain call when disabled)."""
        if not self.enabled:
            return func(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._request)

    @contextmanager
    def request(self, kind: str):
        """Root span of one request; a no-op while the tracer is disabled."""
        if not self.enabled:
            yield
            return
        self._request += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = ("request." + kind, start, end, -1, self._request)

    # ------------------------------------------------------------- patching
    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper (see :meth:`restore`)."""
        own = vars(owner)
        had_own = attr in own
        # Taken from the owner's own dict where it lives there, so a
        # staticmethod is restored as the staticmethod object itself.
        original = own[attr] if had_own else getattr(owner, attr)
        target = original.__func__ if isinstance(original, staticmethod) else original
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, target, *args, **kwargs)

        wrapper.__wrapped__ = target
        setattr(owner, attr, staticmethod(wrapper)
                if isinstance(original, staticmethod) else wrapper)
        self._patches.append((owner, attr, original, had_own))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------- analysis
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Every span opens and closes on the one client thread, so the direct
        children of a span never overlap and their durations simply add up.
        """
        result = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                result[parent] -= end - start
        return result

    def totals(self, within: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: summed ``wall`` and ``self`` seconds and ``calls``.

        With ``within``, only spans that have an ancestor named ``within``
        count (for example a layer's calls made during training, not
        evaluation).
        """
        selfs = self.self_times()
        totals: dict[str, dict[str, float]] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if within is not None and not self._has_ancestor(index, within):
                continue
            entry = totals.setdefault(name, {"wall": 0.0, "self": 0.0, "calls": 0})
            entry["wall"] += end - start
            entry["self"] += selfs[index]
            entry["calls"] += 1
        return totals

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def coverage(self) -> float:
        """Share of traced request wall time that some wrapped layer accounts for.

        Sums the self time of every non-root span and divides by the summed
        wall time of the request roots (1.0 when no request was traced).
        """
        selfs = self.self_times()
        layered = root = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if parent < 0 and name.startswith("request."):
                root += end - start
            else:
                layered += selfs[index]
        return layered / root if root > 0 else 1.0

    def records(self):
        """Spans as JSON-ready dicts, in the order they were opened."""
        for index, (name, start, end, parent, request) in enumerate(self.spans):
            yield {"id": index, "name": name, "start": start, "end": end,
                   "parent": parent, "request": request}
