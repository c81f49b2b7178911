"""The graceful strategy-degradation ladder (a circuit breaker over rungs).

The engine's execution strategies already form a ladder of decreasing
ambition and increasing self-sufficiency::

    shared  →  chunked  →  serial
    (persistent pool,     (in-process      (in-process
     shared memory)        batch kernels)   reference loop)

Every rung computes **bit-identical values** (pinned by the parity suite), so
stepping down trades only throughput, never correctness — which is what makes
automatic degradation safe.  :class:`DegradationLadder` tracks consecutive
failed dispatches per engine: after ``breaker_threshold`` failures it steps
one rung down (emitting a single :class:`RuntimeWarning` on the first
degradation and counting ``resilience.degradations``), and after
``probe_interval`` consecutive successes at a degraded rung it steps one rung
back up — the next call *is* the probe, and if the pool is still sick the
failure path simply steps back down (``resilience.breaker_trips`` counts
every threshold crossing).

The ladder only ever engages for pool-bound work: only a ``shared`` engine
consults it, single-chunk calls cannot trip it, and an engine whose policy
sets ``degrade=False`` never constructs one.
"""

from __future__ import annotations

import warnings

from ..obs import counter

__all__ = ["LADDER", "DegradationLadder"]

#: Rung order, most to least ambitious.
LADDER = ("shared", "chunked", "serial")


class DegradationLadder:
    """Per-engine breaker state: current offset below the top rung."""

    def __init__(self, breaker_threshold: int = 1, probe_interval: int = 4):
        self.breaker_threshold = int(breaker_threshold)
        self.probe_interval = int(probe_interval)
        #: How many rungs below ``shared`` the engine runs at.
        self.offset = 0
        self._consecutive_failures = 0
        self._success_streak = 0
        self._warned = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DegradationLadder(offset={self.offset}, "
                f"failures={self._consecutive_failures}, "
                f"streak={self._success_streak})")

    @property
    def degraded(self) -> bool:
        return self.offset > 0

    def effective_strategy(self) -> str:
        """The rung the next call should run at."""
        return LADDER[self.offset]

    def record_failure(self) -> None:
        """A dispatch at the current rung burned its retry budget.

        Steps down when the failure streak crosses the threshold.  The caller
        finishes the work in-process either way; the rung change governs
        where the next call starts.
        """
        self._success_streak = 0
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.breaker_threshold:
            self._consecutive_failures = 0
            counter("resilience.breaker_trips").add(1)
            if self.offset < len(LADDER) - 1:
                self.offset += 1
                counter("resilience.degradations").add(1)
                if not self._warned:
                    self._warned = True
                    warnings.warn(
                        f"engine pool dispatch keeps failing; degrading "
                        f"strategy {LADDER[0]!r} -> "
                        f"{self.effective_strategy()!r} (the ladder probes "
                        f"back up after {self.probe_interval} clean calls; "
                        f"results stay bit-identical)",
                        RuntimeWarning, stacklevel=4)

    def record_success(self) -> None:
        """A pool-eligible call completed without burning its retry budget.

        At a degraded rung, ``probe_interval`` consecutive successes step one
        rung back up — the next call probes the healthier strategy.
        """
        self._consecutive_failures = 0
        if self.offset == 0:
            return
        self._success_streak += 1
        if self._success_streak >= self.probe_interval:
            self._success_streak = 0
            self.offset -= 1
            counter("resilience.recoveries").add(1)

    def reset(self) -> None:
        """Forget all breaker state (tests and explicit operator resets)."""
        self.offset = 0
        self._consecutive_failures = 0
        self._success_streak = 0
        self._warned = False
