"""Chaos suite for the resilience layer: faults, retries, deadlines, ladder.

The invariant every scenario here re-asserts, whatever is injected: **a query
that completes returns values bit-identical to the serial no-fault
reference**, telemetry cell counts match a clean run (retried chunks fold
exactly once), the retry budget is respected, and no shared-memory segment
outlives its call.  Faults come from :mod:`repro.resilience.faults` —
deterministic, seeded, off by default — plus real ``SIGKILL``s for the
worker-death paths the injector cannot fake better than the OS can.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.shared as shared_module
from repro.config import EnvError, env_flag, env_float, env_int
from repro.engine import (
    MatrixEngine,
    live_arena_names,
    reset_shared_pool,
)
from repro.engine.arena_cache import reset_arena_cache
from repro.obs.registry import get_registry
from repro.resilience import (
    DEADLINE_ENV,
    FAULTS_ENV,
    LADDER,
    RETRIES_ENV,
    DeadlineExceededError,
    DegradationLadder,
    FaultPlan,
    OverloadedError,
    ResiliencePolicy,
    RetryBudgetExceededError,
    TransientFaultError,
    clear_fault_plan,
    current_spec,
    ensure_plan,
    fault_point,
    install_fault_plan,
)
from repro.resilience import faults as faults_module
from repro.search import SearchService, StreamMonitor
from repro.search.service import MAX_PENDING_ENV

@pytest.fixture(autouse=True)
def _fault_free():
    """No fault plan — and no cached arena from earlier modules — leaks in.

    Draining the process-wide arena cache up front makes the suite's
    ``live_arena_names() == frozenset()`` asserts mean "this test leaked
    nothing" rather than "nobody before me cached anything".
    """
    clear_fault_plan()
    reset_arena_cache()
    yield
    clear_fault_plan()


@pytest.fixture(scope="module")
def spatial():
    rng = np.random.default_rng(7)
    return [rng.random((int(rng.integers(4, 12)), 2)) for _ in range(10)]


def serial_reference(spatial, measure="dtw", **kwargs):
    return MatrixEngine(strategy="serial", cache=None).pairwise(
        spatial, measure, **kwargs)


def counter_value(name: str) -> int:
    return get_registry().counter(name).value


# ---------------------------------------------------------------------- parsing

class TestFaultPlanParsing:
    def test_grammar_round_trip(self):
        plan = FaultPlan.parse(
            "seed=42;worker_crash@call=3;slow_worker@p=0.1,delay=0.2")
        assert plan.seed == 42
        kinds = [rule.kind for rule in plan.rules]
        assert kinds == ["worker_crash", "slow_worker"]
        assert plan.rules[0].call == 3
        assert plan.rules[1].probability == 0.1
        assert plan.rules[1].delay == 0.2

    @pytest.mark.parametrize("spec", [
        "explode@call=1",            # unknown kind
        "worker_crash",              # missing trigger
        "worker_crash@call=zero",    # non-integer call
        "worker_crash@call=0",       # call < 1
        "slow_worker@p=1.5",         # p out of range
        "slow_worker@p=0.1,delay=-1",  # negative delay
        "worker_crash@boom=1",       # unknown option
        "seed=abc",                  # bad seed
        "frobnicate",                # not a rule at all
    ])
    def test_malformed_specs_name_the_variable(self, spec):
        with pytest.raises(ValueError, match=FAULTS_ENV):
            FaultPlan.parse(spec)

    def test_call_rule_fires_on_exactly_the_nth_invocation(self):
        plan = FaultPlan.parse("worker_crash@call=3")
        assert [plan.evaluate("worker_crash") is not None
                for _ in range(5)] == [False, False, True, False, False]

    def test_probabilistic_rules_replay_bit_identically(self):
        decisions = []
        for _ in range(2):
            plan = FaultPlan.parse("seed=9;slow_worker@p=0.3")
            decisions.append([plan.evaluate("slow_worker") is not None
                              for _ in range(64)])
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_unrelated_kinds_stay_rng_free(self):
        plan = FaultPlan.parse("seed=9;slow_worker@p=0.5")
        for _ in range(10):
            assert plan.evaluate("worker_crash") is None
        assert plan._rngs.keys() <= {"slow_worker"}

    def test_malformed_env_warns_and_runs_fault_free(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "garbage@nope")
        with pytest.warns(RuntimeWarning, match=FAULTS_ENV):
            assert faults_module._plan_from_env() is None

    def test_ensure_plan_preserves_state_on_matching_token(self):
        plan = install_fault_plan("worker_crash@call=3")
        plan.evaluate("worker_crash")
        token = current_spec()
        ensure_plan(token)  # matching token: no-op, counters survive
        assert faults_module._PLAN is plan
        assert plan._calls["worker_crash"] == 1
        ensure_plan(("worker_crash@call=5", 0))  # changed: fresh plan
        assert faults_module._PLAN is not plan
        ensure_plan(None)
        assert faults_module._PLAN is None

    def test_trigger_counts_and_raises(self):
        install_fault_plan("shm_attach_fail@call=1")
        before = counter_value("resilience.faults_injected")
        with pytest.raises(TransientFaultError) as info:
            fault_point("shm_attach_fail")
        assert info.value.kind == "shm_attach_fail"
        assert counter_value("resilience.faults_injected") == before + 1
        fault_point("shm_attach_fail")  # call 2: no rule, no fault


# ------------------------------------------------------------- disabled overhead

class TestDisabledOverhead:
    def test_disabled_fault_point_overhead_is_negligible(self):
        # Same contract (and same guard style) as a disabled obs span: one
        # module-global load plus one ``is None`` test.  Budget is relative
        # (20x an empty function call) with an absolute 1.5us floor so a slow
        # shared box does not flake.
        clear_fault_plan()
        iterations = 50_000

        def timed(fn):
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(iterations):
                    fn()
                best = min(best, time.perf_counter() - start)
            return best / iterations

        def noop(_kind="worker_crash"):
            return None

        baseline = timed(lambda: noop("worker_crash"))
        disabled = timed(lambda: fault_point("worker_crash"))
        assert disabled < max(1.5e-6, 20.0 * baseline), (
            f"disabled fault_point costs {disabled * 1e9:.0f}ns/call "
            f"(baseline {baseline * 1e9:.0f}ns)")


# ----------------------------------------------------------------------- policy

class TestResiliencePolicy:
    def test_defaults_and_normalisation(self):
        policy = ResiliencePolicy()
        assert policy.deadline is None and policy.max_retries == 2
        assert ResiliencePolicy(deadline=0).deadline is None
        assert ResiliencePolicy(deadline=-3).deadline is None
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)

    def test_from_env_reads_and_overrides(self, monkeypatch):
        monkeypatch.setenv(DEADLINE_ENV, "1.5")
        monkeypatch.setenv(RETRIES_ENV, "5")
        policy = ResiliencePolicy.from_env()
        assert policy.deadline == 1.5 and policy.max_retries == 5
        assert ResiliencePolicy.from_env(max_retries=0).max_retries == 0

    @pytest.mark.parametrize("env,value", [(DEADLINE_ENV, "soon"),
                                           (RETRIES_ENV, "-1"),
                                           (RETRIES_ENV, "many")])
    def test_env_errors_name_the_variable(self, monkeypatch, env, value):
        monkeypatch.setenv(env, value)
        with pytest.raises(ValueError, match=env):
            ResiliencePolicy.from_env()

    def test_backoff_is_deterministic_and_bounded(self):
        policy = ResiliencePolicy(backoff_base=0.05, backoff_factor=2.0,
                                  backoff_max=0.4, jitter=0.25, seed=3)
        delays = [policy.backoff_delay(n) for n in range(1, 6)]
        assert delays == [policy.backoff_delay(n) for n in range(1, 6)]
        assert all(d <= 0.4 * 1.25 + 1e-12 for d in delays)
        assert policy.backoff_delay(0) == 0.0
        # Different seeds jitter differently (the point of seeding at all).
        other = ResiliencePolicy(backoff_base=0.05, backoff_max=0.4, seed=4)
        assert other.backoff_delay(1) != policy.backoff_delay(1)


# ----------------------------------------------------------------------- ladder

class TestDegradationLadder:
    def test_steps_down_then_probes_back_up(self):
        ladder = DegradationLadder(breaker_threshold=2, probe_interval=3)
        assert ladder.effective_strategy() == "shared"
        ladder.record_failure()  # streak 1 of 2: no step yet
        assert not ladder.degraded
        with pytest.warns(RuntimeWarning, match="degrading"):
            ladder.record_failure()
        assert ladder.degraded
        assert ladder.effective_strategy() == "chunked"
        # The warning is one-time per ladder.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ladder.record_failure()
            ladder.record_failure()
        assert ladder.effective_strategy() == "serial"
        for _ in range(3):
            ladder.record_success()
        assert ladder.effective_strategy() == "chunked"
        for _ in range(3):
            ladder.record_success()
        assert not ladder.degraded

    def test_clamps_at_serial(self):
        ladder = DegradationLadder(breaker_threshold=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(10):
                ladder.record_failure()
        assert ladder.effective_strategy() == "serial"
        assert ladder.offset == len(LADDER) - 1

    def test_reset(self):
        ladder = DegradationLadder(breaker_threshold=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ladder.record_failure()
        ladder.reset()
        assert not ladder.degraded
        assert ladder.effective_strategy() == "shared"


# ---------------------------------------------------------- engine under faults

def resilient_engine(strategy: str, **policy_overrides) -> MatrixEngine:
    defaults = dict(max_retries=2, backoff_base=0.01, backoff_max=0.05)
    defaults.update(policy_overrides)
    return MatrixEngine(strategy=strategy, cache=None, chunk_size=3,
                        max_workers=2, policy=ResiliencePolicy(**defaults))


class TestEngineUnderFaults:
    def test_transient_attach_fault_is_retried_bit_identically(self, spatial):
        expected = serial_reference(spatial)
        engine = resilient_engine("shared")
        install_fault_plan("shm_attach_fail@call=1")
        before = counter_value("resilience.retries")
        np.testing.assert_array_equal(engine.pairwise(spatial, "dtw"), expected)
        assert counter_value("resilience.retries") > before
        assert engine.last_dispatch["retries"] <= engine.policy.max_retries
        assert live_arena_names() == frozenset()
        assert engine._breaker is not None and not engine._breaker.degraded

    def test_retried_chunks_never_double_count_cells(self, spatial):
        # The no-double-count matrix, extended to retried-chunk recovery:
        # whatever subset of chunks completed before each crash, total DP
        # cells equal a clean run because each chunk's delta folds exactly
        # once — harvested, retried or ladder-fallback alike.
        expected = serial_reference(spatial)
        clean = MatrixEngine(strategy="shared", cache=None, chunk_size=3,
                             max_workers=2)
        before = counter_value("engine.dp_cells")
        np.testing.assert_array_equal(clean.pairwise(spatial, "dtw"), expected)
        clean_cells = counter_value("engine.dp_cells") - before
        engine = resilient_engine("shared")
        install_fault_plan("worker_crash@call=2")
        before = counter_value("engine.dp_cells")
        with warnings.catch_warnings():
            # The ladder may legitimately degrade if the budget drains.
            warnings.simplefilter("ignore", RuntimeWarning)
            np.testing.assert_array_equal(engine.pairwise(spatial, "dtw"),
                                          expected)
        assert counter_value("engine.dp_cells") - before == clean_cells
        assert live_arena_names() == frozenset()

    def test_hard_down_pool_degrades_with_one_warning_then_recovers(self, spatial):
        # worker_crash@call=1 crashes every fresh worker's first chunk: the
        # pool is deterministically unusable, the budget drains, and the
        # ladder must finish the call in-process and step down.
        expected = serial_reference(spatial)
        engine = resilient_engine("shared", max_retries=1)
        install_fault_plan("worker_crash@call=1")
        trips = counter_value("resilience.breaker_trips")
        fallback = counter_value("resilience.fallback_chunks")
        with pytest.warns(RuntimeWarning, match="degrading"):
            np.testing.assert_array_equal(engine.pairwise(spatial, "dtw"),
                                          expected)
        assert engine._breaker.degraded
        assert engine._breaker.effective_strategy() == "chunked"
        assert counter_value("resilience.breaker_trips") > trips
        assert counter_value("resilience.fallback_chunks") > fallback
        assert live_arena_names() == frozenset()
        # Still sick, but the degraded rung (in-process chunked) cannot
        # fault: its calls succeed and count toward the probe streak.
        recoveries = counter_value("resilience.recoveries")
        for _ in range(engine.policy.probe_interval):
            np.testing.assert_array_equal(engine.pairwise(spatial, "dtw"),
                                          expected)
        assert engine._breaker.effective_strategy() == "shared"
        assert counter_value("resilience.recoveries") == recoveries + 1
        # Fault cleared: the probe call runs on the pool and stays there.
        clear_fault_plan()
        np.testing.assert_array_equal(engine.pairwise(spatial, "dtw"),
                                      expected)
        assert not engine._breaker.degraded
        assert live_arena_names() == frozenset()

    def test_deadline_exceeded_raises_typed_error(self, spatial):
        engine = resilient_engine("shared", deadline=0.05)
        install_fault_plan("slow_worker@p=1,delay=0.5")
        hits = counter_value("resilience.deadline_hits")
        with pytest.raises(DeadlineExceededError) as info:
            engine.pairwise(spatial, "dtw")
        assert info.value.deadline == 0.05
        assert counter_value("resilience.deadline_hits") == hits + 1
        assert live_arena_names() == frozenset()
        # A deadline is not pool sickness: the ladder must not have tripped.
        assert not engine._breaker.degraded
        clear_fault_plan()
        reset_shared_pool(engine.max_workers)  # drain the sleepy workers

    def test_budget_exceeded_without_ladder_raises_with_partials(self, spatial):
        engine = resilient_engine("shared", max_retries=1, degrade=False)
        assert engine._breaker is None
        install_fault_plan("worker_crash@call=1")
        with pytest.raises(RetryBudgetExceededError) as info:
            engine.pairwise(spatial, "dtw")
        assert info.value.retries == 1
        assert info.value.pending  # the chunks that never landed
        assert live_arena_names() == frozenset()

    def test_repeated_worker_kills_with_pinned_arena(self, spatial):
        # Satellite: SIGKILL a shared-pool worker mid-query, twice in a row,
        # while the dispatch rides a pinned cached arena.  The query must
        # still complete bitwise-exactly within the retry budget, and closing
        # the cache must drain every segment.
        cache = reset_arena_cache()
        arrays = [np.ascontiguousarray(t, dtype=np.float64) for t in spatial]
        engine = MatrixEngine(strategy="shared", cache=None, chunk_size=2,
                              max_workers=2,
                              policy=ResiliencePolicy(max_retries=3,
                                                      backoff_base=0.01))
        reversed_arrays = list(reversed(arrays))
        expected = MatrixEngine(strategy="serial", cache=None).pairs(
            arrays, reversed_arrays, "dtw")
        entry = cache.pin(arrays)
        assert entry is not None
        # Stretch every chunk so the kills land mid-dispatch.
        install_fault_plan("slow_worker@p=1,delay=0.05")
        kills = []

        def killer():
            for _ in range(2):
                pool = None
                for _ in range(400):
                    pool = shared_module._POOLS.get(engine.max_workers)
                    if pool is not None and pool._processes:
                        break
                    time.sleep(0.005)
                else:
                    return
                victim = next(iter(pool._processes))
                try:
                    os.kill(victim, signal.SIGKILL)
                    kills.append(victim)
                except ProcessLookupError:  # pragma: no cover - worker won
                    return
                for _ in range(400):  # wait for the broken pool to be replaced
                    if shared_module._POOLS.get(engine.max_workers) is not pool:
                        break
                    time.sleep(0.005)

        before = counter_value("resilience.retries")
        thread = threading.Thread(target=killer)
        thread.start()
        try:
            values = engine.pairs(arrays, reversed_arrays, "dtw", arena=entry)
        finally:
            thread.join(timeout=30)
        np.testing.assert_array_equal(values, expected)
        assert kills, "the killer thread never found a worker to kill"
        assert counter_value("resilience.retries") - before <= \
            engine.policy.max_retries
        cache.unpin(entry)
        reset_arena_cache()
        assert live_arena_names() == frozenset()

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           crash_p=st.sampled_from([0.0, 0.1]),
           attach_p=st.sampled_from([0.0, 0.3]))
    def test_randomized_fault_schedules_stay_bit_identical(
            self, spatial, seed, crash_p, attach_p):
        # Property form of the whole contract: any seeded mix of crashes,
        # slowdowns and attach failures either completes bit-identically or
        # degrades and *then* completes bit-identically.  Never a wrong
        # answer, never a leaked segment.
        expected = serial_reference(spatial)
        engine = resilient_engine("shared")
        spec = (f"seed={seed};worker_crash@p={crash_p};"
                f"slow_worker@p=0.2,delay=0.002;shm_attach_fail@p={attach_p}")
        install_fault_plan(spec)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                values = engine.pairwise(spatial, "dtw")
        finally:
            clear_fault_plan()
        np.testing.assert_array_equal(values, expected)
        assert live_arena_names() == frozenset()


# ------------------------------------------------------- service and monitor

class TestServiceResilience:
    def test_admission_control_turns_away_at_the_bound(self, spatial):
        service = SearchService(spatial, k=2, batch_size=100, max_pending=2,
                                arena_reuse=False)
        service.submit(spatial[0])
        service.submit(spatial[1])
        with pytest.raises(OverloadedError) as info:
            service.submit(spatial[2])
        assert info.value.pending == 2 and info.value.limit == 2
        assert service.registry.counter("service.overloaded").value == 1
        service.flush()  # draining the queue re-admits work
        handle = service.submit(spatial[2])
        assert handle.result().indices.size > 0

    def test_service_accepts_a_resilience_policy(self, spatial):
        policy = ResiliencePolicy(max_retries=0, degrade=False)
        service = SearchService(spatial, k=2, policy=policy, arena_reuse=False)
        assert service.engine.policy is policy
        with pytest.raises(ValueError, match="policy"):
            SearchService(spatial, k=2, engine=service.engine, policy=policy)

    def test_max_pending_env_knob(self, monkeypatch, spatial):
        monkeypatch.setenv(MAX_PENDING_ENV, "1")
        service = SearchService(spatial, k=2, batch_size=100, arena_reuse=False)
        assert service.max_pending == 1
        monkeypatch.setenv(MAX_PENDING_ENV, "0")
        assert SearchService(spatial, k=2, arena_reuse=False).max_pending is None
        monkeypatch.setenv(MAX_PENDING_ENV, "lots")
        with pytest.raises(ValueError, match=MAX_PENDING_ENV):
            SearchService(spatial, k=2, arena_reuse=False)

    def test_service_close_is_idempotent_under_cache_churn(self, spatial):
        reset_arena_cache()
        engine = MatrixEngine(strategy="shared", cache=None, chunk_size=2,
                              max_workers=2)
        service = SearchService(spatial, k=2, engine=engine, batch_size=2,
                                refine_batch_size=64, arena_reuse=True)
        service.search(spatial[0])
        service.close()
        service.close()  # double close: no-op
        reset_arena_cache()  # the atexit-style drain
        service.close()  # close after the cache already drained: still a no-op
        assert live_arena_names() == frozenset()

    def test_monitor_tick_skips_and_catches_up(self):
        rng = np.random.default_rng(11)
        from repro.data import BoundingBox

        windows = [np.cumsum(rng.normal(scale=0.05, size=(8, 2)), axis=0)
                   for _ in range(6)]
        pattern = np.cumsum(rng.normal(scale=0.05, size=(6, 2)), axis=0)
        region = BoundingBox(-5, -5, 5, 5)
        monitor = StreamMonitor([w.copy() for w in windows], pattern, region, k=2)
        reference = StreamMonitor([w.copy() for w in windows], pattern, region, k=2)
        monitor.tick()
        reference.tick()
        # Break exactly one re-screen, transiently.
        original = monitor.index.range_query
        state = {"fail": True}

        def flaky(query_region):
            if state["fail"]:
                state["fail"] = False
                raise TransientFaultError("shm_attach_fail")
            return original(query_region)

        monitor.index.range_query = flaky
        appends = {0: windows[0][-1] + rng.normal(scale=0.05, size=(2, 2))}
        skipped = counter_value("monitor.skipped_ticks")
        alerts = monitor.tick(appends)
        assert alerts == []  # the skipped tick alerts nothing...
        assert counter_value("monitor.skipped_ticks") == skipped + 1
        assert isinstance(monitor.last_tick_error, TransientFaultError)
        reference.tick(appends)
        # ...and the next clean tick catches up to the reference exactly.
        monitor.tick()
        reference.tick()
        assert monitor.last_tick_error is None
        assert monitor.topk() == reference.topk()
        assert monitor.tick_count == reference.tick_count

    def test_monitor_still_raises_genuine_bugs(self):
        rng = np.random.default_rng(12)
        from repro.data import BoundingBox

        monitor = StreamMonitor([rng.random((5, 2))], rng.random((4, 2)),
                                BoundingBox(-5, -5, 5, 5), k=1)

        def broken(query_region):
            raise ZeroDivisionError("a bug, not a fault")

        monitor.index.range_query = broken
        with pytest.raises(ZeroDivisionError):
            monitor.tick()


# ------------------------------------------------------------ arena hardening

class TestArenaHardening:
    def test_injected_append_failure_falls_back_to_fresh_pack(self, spatial):
        cache = reset_arena_cache()
        arrays = [np.ascontiguousarray(t, dtype=np.float64) for t in spatial]
        first = cache.pin(arrays[:9])
        assert first is not None
        cache.unpin(first)
        install_fault_plan("arena_append_fail@call=1")
        failures = counter_value("engine.arena.append_failures")
        # A one-array delta fits the pack-time slack, so the pin takes the
        # absorb path; the injected fault makes the append fail and the pin
        # must fall back to a fresh full pack.
        second = cache.pin(arrays)
        assert second is not None and second is not first
        assert counter_value("engine.arena.append_failures") == failures + 1
        assert all(second.slot_of(a) is not None for a in arrays)
        # The first entry survived the failed absorb untouched.
        assert all(first.slot_of(a) is not None for a in arrays[:9])
        cache.unpin(second)
        reset_arena_cache()
        assert live_arena_names() == frozenset()

    def test_evict_and_unpin_are_idempotent(self, spatial):
        cache = reset_arena_cache()
        arrays = [np.ascontiguousarray(t, dtype=np.float64) for t in spatial]
        from repro.engine.cache import fingerprint_trajectories

        fingerprint = fingerprint_trajectories(arrays)
        entry = cache.pin(arrays, fingerprint=fingerprint)
        assert cache.evict(fingerprint) is False  # pinned: doomed, not gone
        assert cache.evict(fingerprint) is False  # second evict: no-op
        evictions = cache.evictions
        cache.unpin(entry)  # last pin: the doomed entry unlinks now
        assert entry.closed
        assert cache.evictions == evictions + 1
        cache.unpin(entry)  # over-unpin: clamped, no double unlink, no count
        assert entry.pins == 0
        assert cache.evictions == evictions + 1
        assert live_arena_names() == frozenset()


# ------------------------------------------------------------------ env knobs

class TestConfigHelpers:
    def test_messages_always_name_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "abc")
        with pytest.raises(EnvError, match="REPRO_TEST_KNOB"):
            env_int("REPRO_TEST_KNOB")
        with pytest.raises(EnvError, match="REPRO_TEST_KNOB"):
            env_float("REPRO_TEST_KNOB")
        with pytest.raises(EnvError, match="REPRO_TEST_KNOB"):
            env_flag("REPRO_TEST_KNOB")

    def test_blank_means_default_and_minimum_is_enforced(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "   ")
        assert env_int("REPRO_TEST_KNOB", 7) == 7
        monkeypatch.setenv("REPRO_TEST_KNOB", "0")
        with pytest.raises(EnvError, match="at least 1"):
            env_int("REPRO_TEST_KNOB", minimum=1)
        monkeypatch.setenv("REPRO_TEST_KNOB", "nan")
        with pytest.raises(EnvError, match="REPRO_TEST_KNOB"):
            env_float("REPRO_TEST_KNOB")
        monkeypatch.setenv("REPRO_TEST_KNOB", "on")
        assert env_flag("REPRO_TEST_KNOB") is True

    def test_env_error_is_a_value_error(self):
        assert issubclass(EnvError, ValueError)
