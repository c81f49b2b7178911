"""``repro.resilience`` — fault injection, retry policy and degradation.

The serving stack's failure-handling subsystem, three pieces sharing one
design rule: **resilience changes when and where work runs, never what it
computes** — a query that completes is bit-identical to the serial no-fault
reference, whatever crashed along the way.

* :mod:`repro.resilience.faults` — deterministic, seeded fault injection
  behind the ``REPRO_FAULTS`` environment variable.  Off by default with a
  near-zero-overhead guard; the chaos suite and ``benchmarks/chaos_smoke.py``
  drive the whole stack through reproducible crash/slowdown/attach-failure
  schedules.
* :mod:`repro.resilience.policy` — :class:`ResiliencePolicy`: per-dispatch
  deadlines, a bounded retry budget (only unfinished chunks re-run; telemetry
  deltas fold exactly once) and exponential backoff with deterministic
  jitter.
* :mod:`repro.resilience.breaker` — :class:`DegradationLadder`: after
  repeated pool failures the engine steps shared → chunked → serial with a
  one-time ``RuntimeWarning``, then probes its way back up
  once calls run clean.

Typed errors (:class:`DeadlineExceededError`, :class:`OverloadedError`,
:class:`RetryBudgetExceededError`, :class:`TransientFaultError`) are this
layer's contract with its callers: every handleable failure has a type,
nothing is string-matched.

Telemetry: ``resilience.retries``, ``resilience.deadline_hits``,
``resilience.breaker_trips``, ``resilience.degradations``,
``resilience.recoveries``, ``resilience.fallback_chunks``,
``resilience.overloaded`` and ``resilience.faults_injected`` (plus per-kind
``resilience.faults.*``) in the process-wide registry.
"""

from .errors import (
    DeadlineExceededError,
    OverloadedError,
    ResilienceError,
    RetryBudgetExceededError,
    TransientFaultError,
)
from .faults import (
    FAULT_KINDS,
    FAULTS_ENV,
    FaultPlan,
    FaultRule,
    clear_fault_plan,
    current_spec,
    ensure_plan,
    fault_point,
    faults_active,
    install_fault_plan,
)
from .policy import (
    DEADLINE_ENV,
    DEFAULT_MAX_RETRIES,
    RETRIES_ENV,
    ResiliencePolicy,
)
from .breaker import LADDER, DegradationLadder

__all__ = [
    "ResilienceError", "TransientFaultError", "DeadlineExceededError",
    "RetryBudgetExceededError", "OverloadedError",
    "FAULTS_ENV", "FAULT_KINDS", "FaultPlan", "FaultRule",
    "fault_point", "faults_active", "current_spec",
    "install_fault_plan", "clear_fault_plan", "ensure_plan",
    "DEADLINE_ENV", "RETRIES_ENV", "DEFAULT_MAX_RETRIES", "ResiliencePolicy",
    "LADDER", "DegradationLadder",
]
