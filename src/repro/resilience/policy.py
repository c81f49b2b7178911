"""Deadlines, bounded retries and deterministic backoff for pool dispatch.

A :class:`ResiliencePolicy` travels with a :class:`~repro.engine.MatrixEngine`
(and, through it, with every :class:`~repro.search.SearchService` flush) and
bounds how long and how often the engine fights a failing worker pool:

* ``deadline`` — wall-clock seconds one dispatch may take end to end,
  enforced through future timeouts; blowing it raises
  :class:`~repro.resilience.DeadlineExceededError` (never retried — a
  deadline is a promise to the caller, not a hint).
* ``max_retries`` — how many *rounds* of re-dispatch a single call may spend
  recovering from retryable failures (``BrokenProcessPool``, injected or real
  :class:`~repro.resilience.TransientFaultError`).  Each round retries only
  the chunks that never completed; finished chunks keep their results and
  their telemetry deltas are folded exactly once.
* exponential backoff with **deterministic jitter** — retry ``n`` sleeps
  ``backoff_base * backoff_factor**(n-1)`` (capped at ``backoff_max``),
  stretched by up to ``jitter`` of itself using a hash of ``(seed, n)``
  instead of a clock or global RNG, so a chaos run replays bit-identically.

Environment knobs (explicit constructor arguments win):

* ``REPRO_ENGINE_DEADLINE`` — seconds, ``<= 0`` or unset disables;
* ``REPRO_ENGINE_RETRIES`` — non-negative integer retry budget (default 2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..config import env_float, env_int

__all__ = ["DEADLINE_ENV", "RETRIES_ENV", "DEFAULT_MAX_RETRIES",
           "ResiliencePolicy"]

DEADLINE_ENV = "REPRO_ENGINE_DEADLINE"
RETRIES_ENV = "REPRO_ENGINE_RETRIES"

#: Retry rounds one dispatch may spend before the ladder (or the caller)
#: takes over.  The pre-resilience engine hard-coded a single whole-dispatch
#: retry; two rounds of *unfinished-chunk* retries strictly dominate it.
DEFAULT_MAX_RETRIES = 2


@dataclass(frozen=True)
class ResiliencePolicy:
    """How one engine call behaves under failure.  Frozen: share freely."""

    #: Wall-clock seconds one dispatch may take (None: no deadline).
    deadline: float | None = None
    #: Retry rounds per dispatch for retryable failures.
    max_retries: int = DEFAULT_MAX_RETRIES
    #: Seconds slept before the first retry round.
    backoff_base: float = 0.05
    #: Multiplier applied per additional round.
    backoff_factor: float = 2.0
    #: Ceiling on any single backoff sleep.
    backoff_max: float = 1.0
    #: Fraction of the delay added as deterministic jitter (0 disables).
    jitter: float = 0.25
    #: Seed for the jitter hash — same seed, same sleeps, same chaos replay.
    seed: int = 0
    #: Whether the engine may step down the strategy ladder after repeated
    #: pool failures (shared → chunked → serial).
    degrade: bool = True
    #: Consecutive failed dispatches at a rung before stepping down.  One
    #: failed dispatch already burned the whole retry budget, so 1 is right
    #: for serving; raise it to tolerate sporadic hard failures.
    breaker_threshold: int = 1
    #: Successful pool-eligible calls at a degraded rung before probing one
    #: rung back up.
    probe_interval: int = 4

    def __post_init__(self):
        if self.deadline is not None and self.deadline <= 0:
            object.__setattr__(self, "deadline", None)
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")

    @classmethod
    def from_env(cls, **overrides) -> "ResiliencePolicy":
        """Policy from ``REPRO_ENGINE_DEADLINE`` / ``REPRO_ENGINE_RETRIES``;
        keyword overrides beat the environment."""
        policy = cls(deadline=env_float(DEADLINE_ENV),
                     max_retries=env_int(RETRIES_ENV, DEFAULT_MAX_RETRIES,
                                         minimum=0))
        return replace(policy, **overrides) if overrides else policy

    def backoff_delay(self, attempt: int) -> float:
        """Sleep before retry round ``attempt`` (1-based), jitter included.

        Deterministic by construction: the jitter fraction is a fixed integer
        hash of ``(seed, attempt)`` — no RNG, no clock — so a replay with the
        same policy sleeps the same schedule.
        """
        if attempt < 1 or self.backoff_base <= 0:
            return 0.0
        delay = min(self.backoff_base * self.backoff_factor ** (attempt - 1),
                    self.backoff_max)
        if self.jitter > 0:
            unit = ((self.seed * 1000003 + attempt * 10007) % 997) / 997.0
            delay *= 1.0 + self.jitter * unit
        return min(delay, self.backoff_max * (1.0 + self.jitter))
