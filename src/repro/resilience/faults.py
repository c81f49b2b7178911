"""Deterministic fault injection for the serving stack.

A :class:`FaultPlan` is a seeded schedule of failures parsed from the
``REPRO_FAULTS`` environment variable (or installed programmatically by the
chaos suite).  The grammar is a semicolon-joined list of rules::

    REPRO_FAULTS="worker_crash@call=3;slow_worker@p=0.1,delay=0.05;shm_attach_fail@call=7"
    REPRO_FAULTS="seed=42;worker_crash@p=0.02"

Each rule is ``kind@option[,option...]``; options are ``key=value`` pairs:

* ``call=N`` — fire on exactly the N-th invocation (1-based) of that kind's
  injection site in the current process.  Repeat the rule to fire on several
  calls (``worker_crash@call=3;worker_crash@call=7``).
* ``p=X`` — fire with probability ``X`` per invocation, drawn from a
  per-kind ``random.Random`` seeded by ``(seed, kind)`` — the decision
  sequence is fully reproducible given the seed.
* ``delay=S`` — for ``slow_worker``: seconds to sleep when the rule fires
  (default 0.05).

The bare rule ``seed=N`` sets the plan seed (default 0).

Fault kinds and where their hooks live:

=================== ==========================================================
``worker_crash``    pool worker entrypoint (``engine.executor._worker_chunk``),
                    right after the arena attach — ``os._exit``,
                    indistinguishable from a SIGKILL'd worker
``slow_worker``     same entrypoint, after ``worker_crash`` — sleeps ``delay``
                    seconds before working
``shm_attach_fail`` worker arena attach (``engine.shared._attach_arena``), the
                    entrypoint's first site — raises
                    :class:`~repro.resilience.TransientFaultError`
``arena_append_fail`` ``TrajectoryArena.append`` — raises
                    :class:`~repro.engine.ArenaCapacityError` at entry, before
                    any mutation, exercising the cache's fresh-pack fallback
=================== ==========================================================

**Overhead contract.**  Injection is off by default and the disabled hook is
one module-global load and one ``is None`` comparison — the same budget as a
disabled obs span, pinned by the overhead guard in ``tests/test_resilience.py``.

**Determinism across processes.**  ``call=`` counters and ``p=`` RNG streams
are per-process: a forked pool worker inherits the parent's plan *state* at
fork time and then advances its own copy, so a schedule is reproducible given
the pool layout.  The active ``(spec, seed)`` token additionally rides in
every task's dispatch context (next to the obs mode), so workers forked
before the plan was installed — or spawned fresh after a pool reset — align
via :func:`ensure_plan` before touching any injection site.
"""

from __future__ import annotations

import os
import random
import time
import warnings

from ..obs import counter
from .errors import TransientFaultError

__all__ = [
    "FAULTS_ENV",
    "FAULT_KINDS",
    "DEFAULT_SLOW_DELAY",
    "FaultRule",
    "FaultPlan",
    "fault_point",
    "faults_active",
    "current_spec",
    "install_fault_plan",
    "clear_fault_plan",
    "ensure_plan",
]

FAULTS_ENV = "REPRO_FAULTS"

#: Injection sites the engine exposes; parsing rejects anything else so a
#: typo'd kind fails loudly instead of silently never firing.
FAULT_KINDS = ("worker_crash", "slow_worker", "shm_attach_fail",
               "arena_append_fail")

#: Sleep applied by a firing ``slow_worker`` rule without an explicit delay.
DEFAULT_SLOW_DELAY = 0.05


class FaultRule:
    """One parsed rule: a kind plus its trigger (``call=`` or ``p=``)."""

    __slots__ = ("kind", "call", "probability", "delay")

    def __init__(self, kind: str, call: int | None = None,
                 probability: float | None = None, delay: float | None = None):
        self.kind = kind
        self.call = call
        self.probability = probability
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        trigger = f"call={self.call}" if self.call is not None \
            else f"p={self.probability}"
        return f"FaultRule({self.kind}@{trigger})"


def _parse_error(spec: str, detail: str) -> ValueError:
    return ValueError(f"invalid {FAULTS_ENV} spec {spec!r}: {detail}")


class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    State (per-kind invocation counters and RNG streams) lives on the plan,
    so installing a fresh plan resets the schedule and two plans never
    interfere.  ``fired`` counts injections per kind in *this* process — the
    chaos suite reads it directly; cross-process totals flow through the
    ``resilience.faults_injected`` registry counter where the worker survives
    to report (a crashed worker takes its delta with it, by design).
    """

    def __init__(self, rules: list[FaultRule], seed: int = 0,
                 spec: str | None = None):
        self.rules = list(rules)
        self.seed = int(seed)
        self.spec = spec if spec is not None else self._format()
        self._calls: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        self._rngs: dict[str, random.Random] = {}
        self._by_kind: dict[str, list[FaultRule]] = {}
        for rule in self.rules:
            self._by_kind.setdefault(rule.kind, []).append(rule)

    def _format(self) -> str:
        parts = [f"seed={self.seed}"] if self.seed else []
        for rule in self.rules:
            options = []
            if rule.call is not None:
                options.append(f"call={rule.call}")
            if rule.probability is not None:
                options.append(f"p={rule.probability}")
            if rule.delay is not None:
                options.append(f"delay={rule.delay}")
            parts.append(f"{rule.kind}@{','.join(options)}")
        return ";".join(parts)

    # ------------------------------------------------------------------ parse
    @classmethod
    def parse(cls, spec: str, seed: int | None = None) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar; raises ``ValueError`` with the
        offending fragment on anything malformed."""
        rules: list[FaultRule] = []
        plan_seed = 0 if seed is None else int(seed)
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            if "@" not in part:
                key, _, value = part.partition("=")
                if key.strip() != "seed" or not value.strip():
                    raise _parse_error(spec, f"expected 'kind@option,...' or "
                                             f"'seed=N', got {part!r}")
                try:
                    plan_seed = int(value)
                except ValueError:
                    raise _parse_error(spec, f"seed must be an integer, "
                                             f"got {value!r}") from None
                continue
            kind, _, options = part.partition("@")
            kind = kind.strip()
            if kind not in FAULT_KINDS:
                raise _parse_error(spec, f"unknown fault kind {kind!r}; "
                                         f"options: {FAULT_KINDS}")
            call = probability = delay = None
            for option in options.split(","):
                key, _, value = option.partition("=")
                key, value = key.strip(), value.strip()
                if not value:
                    raise _parse_error(spec, f"option {option!r} of {kind!r} "
                                             f"must be key=value")
                if key == "call":
                    try:
                        call = int(value)
                    except ValueError:
                        raise _parse_error(spec, f"call= must be an integer, "
                                                 f"got {value!r}") from None
                    if call < 1:
                        raise _parse_error(spec, f"call= must be >= 1, "
                                                 f"got {value!r}")
                elif key == "p":
                    try:
                        probability = float(value)
                    except ValueError:
                        raise _parse_error(spec, f"p= must be a number, "
                                                 f"got {value!r}") from None
                    if not 0.0 <= probability <= 1.0:
                        raise _parse_error(spec, f"p= must be in [0, 1], "
                                                 f"got {value!r}")
                elif key == "delay":
                    try:
                        delay = float(value)
                    except ValueError:
                        raise _parse_error(spec, f"delay= must be a number, "
                                                 f"got {value!r}") from None
                    if delay < 0:
                        raise _parse_error(spec, f"delay= must be >= 0, "
                                                 f"got {value!r}")
                else:
                    raise _parse_error(spec, f"unknown option {key!r} for "
                                             f"{kind!r} (call=/p=/delay=)")
            if call is None and probability is None:
                raise _parse_error(spec, f"rule for {kind!r} needs a trigger "
                                         f"(call=N or p=X)")
            rules.append(FaultRule(kind, call=call, probability=probability,
                                   delay=delay))
        if seed is not None:
            plan_seed = int(seed)
        return cls(rules, seed=plan_seed, spec=spec)

    # ------------------------------------------------------------- evaluation
    def _rng(self, kind: str) -> random.Random:
        rng = self._rngs.get(kind)
        if rng is None:
            rng = self._rngs[kind] = random.Random(f"{self.seed}:{kind}")
        return rng

    def fired(self, kind: str | None = None) -> int:
        """Injections so far in this process (one kind, or the total)."""
        if kind is not None:
            return self._fired.get(kind, 0)
        return sum(self._fired.values())

    def evaluate(self, kind: str) -> FaultRule | None:
        """Advance ``kind``'s invocation counter and return a firing rule.

        ``call=`` rules compare against the new counter value; ``p=`` rules
        draw from the kind's seeded stream *only when present*, so plans
        without probabilistic rules stay RNG-free (and bit-reproducible
        regardless of invocation interleaving).
        """
        rules = self._by_kind.get(kind)
        if not rules:
            return None
        count = self._calls.get(kind, 0) + 1
        self._calls[kind] = count
        for rule in rules:
            if rule.call is not None and rule.call == count:
                return rule
            if rule.probability is not None and \
                    self._rng(kind).random() < rule.probability:
                return rule
        return None

    def trigger(self, kind: str) -> None:
        """Evaluate ``kind`` and carry out the firing rule's effect, if any."""
        rule = self.evaluate(kind)
        if rule is None:
            return
        self._fired[kind] = self._fired.get(kind, 0) + 1
        counter("resilience.faults_injected").add(1)
        counter(f"resilience.faults.{kind}").add(1)
        if kind == "worker_crash":
            # Exit without cleanup, exactly like a SIGKILL'd worker: the pool
            # notices the dead process and marks itself broken.
            os._exit(13)
        elif kind == "slow_worker":
            time.sleep(DEFAULT_SLOW_DELAY if rule.delay is None else rule.delay)
        elif kind == "shm_attach_fail":
            raise TransientFaultError(
                "shm_attach_fail", "injected shared-memory attach failure")
        elif kind == "arena_append_fail":
            from ..engine.shared import ArenaCapacityError

            raise ArenaCapacityError("injected arena append failure")


# ------------------------------------------------------------- process state

def _plan_from_env() -> FaultPlan | None:
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return None
    try:
        return FaultPlan.parse(spec)
    except ValueError as error:
        # A malformed spec in the environment must not brick the whole stack
        # at import time; warn once and run fault-free.
        warnings.warn(f"ignoring malformed {FAULTS_ENV}: {error}",
                      RuntimeWarning, stacklevel=3)
        return None


#: The installed plan, or None.  ``fault_point`` reads this once per call;
#: None is the off-by-default fast path.
_PLAN: FaultPlan | None = _plan_from_env()


def fault_point(kind: str) -> None:
    """Injection hook: a no-op (one load + one ``is None`` test) without a plan."""
    plan = _PLAN
    if plan is None:
        return
    plan.trigger(kind)


def faults_active() -> bool:
    """Whether a fault plan is currently installed in this process."""
    return _PLAN is not None


def current_spec() -> tuple[str, int] | None:
    """The installed plan as a picklable ``(spec, seed)`` token (None: no plan).

    This is what the engine ships in each pool task's dispatch context so
    worker processes align their plans with the parent's, next to the obs
    mode.
    """
    plan = _PLAN
    if plan is None:
        return None
    return (plan.spec, plan.seed)


def install_fault_plan(plan: FaultPlan | str | None,
                       seed: int | None = None) -> FaultPlan | None:
    """Install ``plan`` (a :class:`FaultPlan`, a spec string, or None to clear).

    Returns the installed plan.  Installing resets all schedule state — call
    counters restart at zero.
    """
    global _PLAN
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan, seed=seed)
    _PLAN = plan
    return plan


def clear_fault_plan() -> None:
    """Remove any installed plan (the injection hooks return to no-ops)."""
    install_fault_plan(None)


def ensure_plan(token: tuple[str, int] | None) -> None:
    """Align this process's plan with a :func:`current_spec` token.

    Called at worker entry: a worker forked before the parent installed (or
    cleared) a plan re-aligns here.  A token matching the installed plan is a
    no-op, so a worker's schedule state survives across the many chunks of a
    call — only an actual spec/seed *change* resets counters.
    """
    global _PLAN
    if token is None:
        if _PLAN is not None:
            _PLAN = None
        return
    spec, seed = token
    if _PLAN is not None and _PLAN.spec == spec and _PLAN.seed == seed:
        return
    _PLAN = FaultPlan.parse(spec, seed=seed)
