"""Shared fixtures for the benchmark suite.

Each benchmark runs its experiment exactly once (``rounds=1``) — the experiments are
full train/evaluate pipelines, not micro-benchmarks — and saves the formatted table
under ``benchmarks/results/`` so the reproduction artefacts survive the run.

While a *benchmark* test runs, the process-wide default engine is routed through
an **on-disk** ``MatrixCache`` under ``benchmarks/.matrix_cache/``: ground-truth
matrices are the dominant cost of every harness and are identical across
tables/figures that share a dataset, so repeated tier-1 runs reuse them across
processes instead of recomputing.  The engine is installed per test and the
previous default restored afterwards, so the cache never bleeds into ``tests/``
when both directories are collected in one session.  (The cache is keyed by
data + measure only — delete ``benchmarks/.matrix_cache/`` after changing
distance/kernel code to avoid serving matrices computed by the old code.)
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.engine import MatrixCache, MatrixEngine, get_default_engine, set_default_engine
from repro.engine.executor import _default_strategy

RESULTS_DIR = Path(__file__).parent / "results"

MATRIX_CACHE_DIR = Path(__file__).parent / ".matrix_cache"


@pytest.fixture(scope="session")
def cached_engine() -> MatrixEngine:
    """One engine (and one on-disk cache handle) shared by the whole session."""
    return MatrixEngine(strategy=_default_strategy(),
                        cache=MatrixCache(MATRIX_CACHE_DIR, max_entries=64))


@pytest.fixture(autouse=True)
def persistent_matrix_cache(cached_engine):
    """Back the default engine with the on-disk matrix cache for this test only."""
    previous = get_default_engine()
    set_default_engine(cached_engine)
    yield cached_engine
    set_default_engine(previous)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir):
    """Callable that persists (and echoes) an experiment's formatted table."""

    def _save(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print("\n" + text)
        return path

    return _save


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
