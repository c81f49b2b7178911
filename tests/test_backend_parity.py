"""Cross-backend parity suite: compiled (numba) kernels vs the numpy reference.

Without numba installed the compiled kernels run as plain Python through the
no-op ``njit`` stub — same arithmetic, same code paths — so this suite pins
the backend layer's contracts on every box:

* every measure agrees with the numpy reference (bitwise for the DP measures
  and Hausdorff; 1e-12 relative for the mean-based SSPD/TP, whose summation
  order differs) under every engine strategy;
* the ``thresholds=`` contract holds in the jitted loops: +inf and exact-tie
  thresholds never abandon, finite survivors are bit-identical, every ``+inf``
  is sound, and abandoning never computes *more* DP cells than numpy;
* the registry resolves engine argument → ``set_backend`` → environment →
  auto, falls back to numpy with a single warning when numba is missing, and
  the module-level import gate survives a blocked ``import numba``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.engine.backends as backends
from repro.config import EnvError
from repro.engine import (
    CanonicalArrays,
    MatrixEngine,
    as_canonical_arrays,
    get_batch_kernel,
)
from repro.engine.backends import numba_kernels
from repro.distances.base import get_distance
from repro.obs import get_registry


def dp_cell_count() -> int:
    return get_registry().counter("engine.dp_cells").value

MEASURES = ("dtw", "erp", "edr", "lcss", "frechet", "dita", "hausdorff", "sspd", "tp")

#: Measures whose compiled values must equal numpy bitwise; the rest (SSPD,
#: TP) differ only in ``np.mean`` pairwise-vs-sequential summation order.
BITWISE = frozenset({"dtw", "erp", "edr", "lcss", "frechet", "dita", "hausdorff"})

#: Measures whose compiled kernels abandon on a threshold (SSPD/TP accept and
#: validate ``thresholds=`` but always return exact distances).
ABANDONING = numba_kernels.THRESHOLD_MEASURES

MEASURE_KWARGS = {"edr": {"epsilon": 0.25}, "lcss": {"epsilon": 0.25}}
SPATIOTEMPORAL = {"dita", "tp"}


def _pair_lists(seed: int = 0):
    """Ragged pairs: single points, an exact duplicate, skewed lengths."""
    rng = np.random.default_rng(seed)
    lengths_a = [1, 1, 2, 3, 5, 9, 17, 21, 21]
    lengths_b = [1, 21, 2, 7, 5, 3, 17, 21, 1]
    list_a = [rng.uniform(0.0, 2.0, size=(n, 3)) for n in lengths_a]
    list_b = [rng.uniform(0.0, 2.0, size=(m, 3)) for m in lengths_b]
    list_b[4] = list_a[4].copy()  # exact duplicate → distance 0
    for points in list_a + list_b:
        points[:, 2] = np.sort(points[:, 2])
    return list_a, list_b


def _spatial(measure, trajectories):
    if measure in SPATIOTEMPORAL:
        return trajectories
    return [t[:, :2] for t in trajectories]


def _reference(measure, list_a, list_b, thresholds=None):
    """Numpy-side values: batch kernel when registered, else the reference loop."""
    kwargs = MEASURE_KWARGS.get(measure, {})
    batch = get_batch_kernel(measure)
    if batch is not None:
        if thresholds is not None:
            return np.asarray(batch(list_a, list_b, thresholds=thresholds, **kwargs))
        return np.asarray(batch(list_a, list_b, **kwargs))
    func = get_distance(measure)
    return np.array([func(a, b, **kwargs) for a, b in zip(list_a, list_b)])


def _assert_agree(measure, reference, compiled):
    if measure in BITWISE:
        np.testing.assert_array_equal(reference, compiled)
    else:
        np.testing.assert_allclose(reference, compiled, rtol=1e-12, atol=0)


@pytest.fixture
def numba_selectable(monkeypatch):
    """Pretend numba imported, so the registry lets tests pick the compiled
    backend (its kernels run as pure Python through the njit stub here)."""
    monkeypatch.setattr(numba_kernels, "NUMBA_AVAILABLE", True)
    yield


@pytest.fixture
def clean_registry(monkeypatch):
    """Isolate process-wide registry state (override + one-time warning)."""
    monkeypatch.setattr(backends, "_ACTIVE", None)
    monkeypatch.setattr(backends, "_FALLBACK_WARNED", False)
    monkeypatch.delenv(backends.BACKEND_ENV, raising=False)
    yield


# ---------------------------------------------------------- kernel parity

@pytest.mark.parametrize("measure", MEASURES)
def test_batch_kernel_matches_reference(measure):
    list_a, list_b = _pair_lists()
    pa, pb = _spatial(measure, list_a), _spatial(measure, list_b)
    kwargs = MEASURE_KWARGS.get(measure, {})
    reference = _reference(measure, pa, pb)
    compiled = np.asarray(numba_kernels.BATCH_KERNELS[measure](pa, pb, **kwargs))
    _assert_agree(measure, reference, compiled)


def test_banded_dtw_matches_reference():
    list_a, list_b = _pair_lists()
    pa, pb = _spatial("dtw", list_a), _spatial("dtw", list_b)
    for band in (0, 1, 3):
        reference = _reference("dtw", pa, pb, None)
        reference = np.asarray(get_batch_kernel("dtw")(pa, pb, band=band))
        compiled = np.asarray(numba_kernels.dtw_batch(pa, pb, band=band))
        np.testing.assert_array_equal(reference, compiled)


@pytest.mark.parametrize("measure", MEASURES)
def test_infinite_thresholds_are_a_noop(measure):
    list_a, list_b = _pair_lists()
    pa, pb = _spatial(measure, list_a), _spatial(measure, list_b)
    kwargs = MEASURE_KWARGS.get(measure, {})
    full = np.asarray(numba_kernels.BATCH_KERNELS[measure](pa, pb, **kwargs))
    inf = np.asarray(numba_kernels.BATCH_KERNELS[measure](
        pa, pb, thresholds=np.full(len(pa), np.inf), **kwargs))
    np.testing.assert_array_equal(full, inf)


@pytest.mark.parametrize("measure", sorted(ABANDONING))
def test_finite_thresholds_sound_and_survivors_exact(measure):
    list_a, list_b = _pair_lists()
    pa, pb = _spatial(measure, list_a), _spatial(measure, list_b)
    kwargs = MEASURE_KWARGS.get(measure, {})
    full = np.asarray(numba_kernels.BATCH_KERNELS[measure](pa, pb, **kwargs))
    taus = full * 0.6
    out = np.asarray(numba_kernels.BATCH_KERNELS[measure](
        pa, pb, thresholds=taus, **kwargs))
    finite = np.isfinite(out)
    # Survivors are the exact distance, bit for bit.
    np.testing.assert_array_equal(out[finite], full[finite])
    # Every +inf is sound: the true distance really exceeds that pair's τ.
    assert np.all(full[~finite] > taus[~finite])


@pytest.mark.parametrize("measure", sorted(ABANDONING))
def test_exact_tie_thresholds_never_abandon(measure):
    list_a, list_b = _pair_lists()
    pa, pb = _spatial(measure, list_a), _spatial(measure, list_b)
    kwargs = MEASURE_KWARGS.get(measure, {})
    full = np.asarray(numba_kernels.BATCH_KERNELS[measure](pa, pb, **kwargs))
    out = np.asarray(numba_kernels.BATCH_KERNELS[measure](
        pa, pb, thresholds=full.copy(), **kwargs))
    assert np.isfinite(out).all()
    np.testing.assert_array_equal(out, full)


@pytest.mark.parametrize("measure", ["dtw", "erp", "edr", "lcss", "frechet"])
def test_abandoning_cell_work_not_above_numpy(measure):
    """Row-wise compiled abandoning computes ≤ the numpy wavefront's cells."""
    list_a, list_b = _pair_lists()
    pa, pb = _spatial(measure, list_a), _spatial(measure, list_b)
    kwargs = MEASURE_KWARGS.get(measure, {})
    full = np.asarray(numba_kernels.BATCH_KERNELS[measure](pa, pb, **kwargs))
    taus = full * 0.3
    before = dp_cell_count()
    get_batch_kernel(measure)(pa, pb, thresholds=taus, **kwargs)
    numpy_cells = dp_cell_count() - before
    before = dp_cell_count()
    numba_kernels.BATCH_KERNELS[measure](pa, pb, thresholds=taus, **kwargs)
    numba_cells = dp_cell_count() - before
    assert numba_cells <= numpy_cells


# ------------------------------------------------- engine strategy threading

@pytest.mark.parametrize("strategy", ["serial", "chunked", "shared"])
@pytest.mark.parametrize("measure", MEASURES)
def test_engine_strategies_agree_across_backends(measure, strategy,
                                                 numba_selectable):
    list_a, list_b = _pair_lists()
    pa, pb = _spatial(measure, list_a), _spatial(measure, list_b)
    kwargs = MEASURE_KWARGS.get(measure, {})
    reference = MatrixEngine(strategy=strategy, cache=None,
                             backend="numpy").pairs(pa, pb, measure, **kwargs)
    compiled = MatrixEngine(strategy=strategy, cache=None,
                            backend="numba").pairs(pa, pb, measure, **kwargs)
    _assert_agree(measure, reference, compiled)


@pytest.mark.parametrize("strategy", ["serial", "chunked", "shared"])
def test_engine_thresholds_through_strategies(strategy, numba_selectable):
    list_a, list_b = _pair_lists()
    pa, pb = _spatial("dtw", list_a), _spatial("dtw", list_b)
    engine = MatrixEngine(strategy=strategy, cache=None, backend="numba")
    full = engine.pairs(pa, pb, "dtw")
    taus = np.asarray(full) * 0.6
    out = engine.pairs(pa, pb, "dtw", thresholds=taus)
    finite = np.isfinite(out)
    np.testing.assert_array_equal(np.asarray(out)[finite], np.asarray(full)[finite])
    assert np.all(np.asarray(full)[~finite] > taus[~finite])


def test_engine_pairwise_matrix_identical(numba_selectable):
    list_a, _ = _pair_lists()
    pa = _spatial("dtw", list_a)
    reference = MatrixEngine(cache=None, backend="numpy").pairwise(pa, "dtw")
    compiled = MatrixEngine(cache=None, backend="numba").pairwise(pa, "dtw")
    np.testing.assert_array_equal(reference, compiled)


def test_unknown_backend_name_fails_fast():
    with pytest.raises(KeyError):
        MatrixEngine(backend="cuda")


def test_explicit_numba_without_numba_raises(clean_registry):
    engine = MatrixEngine(cache=None, backend="numba")
    list_a, list_b = _pair_lists()
    with pytest.raises(RuntimeError, match="not available"):
        engine.pairs(_spatial("dtw", list_a), _spatial("dtw", list_b), "dtw")


# ------------------------------------------------------------ the registry

def test_resolution_order(clean_registry, monkeypatch, numba_selectable):
    # auto prefers numba when importable
    assert backends.resolve_backend().name == "numba"
    # env overrides auto
    monkeypatch.setenv(backends.BACKEND_ENV, "numpy")
    assert backends.resolve_backend().name == "numpy"
    # set_backend overrides env
    backends.set_backend("numba")
    assert backends.resolve_backend().name == "numba"
    # explicit spec overrides everything
    assert backends.resolve_backend("numpy").name == "numpy"
    backends.set_backend(None)
    assert backends.resolve_backend().name == "numpy"  # env again


def test_bad_env_backend_names_the_variable(clean_registry, monkeypatch):
    monkeypatch.setenv(backends.BACKEND_ENV, "bogus")
    with pytest.raises(EnvError, match="REPRO_KERNEL_BACKEND.*numpy"):
        backends.resolve_backend()
    # an explicit name still wins over the environment
    assert backends.resolve_backend("numpy").name == "numpy"


def test_auto_falls_back_to_numpy_with_one_warning(clean_registry):
    with pytest.warns(RuntimeWarning, match="falling back to the numpy backend"):
        assert backends.resolve_backend().name == "numpy"
    # second resolution stays silent
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        assert backends.resolve_backend().name == "numpy"


def test_set_backend_rejects_unavailable(clean_registry):
    with pytest.raises(RuntimeError, match="not available"):
        backends.set_backend("numba")
    with pytest.raises(KeyError):
        backends.set_backend("tpu")


def test_nonstrict_resolution_degrades_to_numpy(clean_registry):
    with pytest.warns(RuntimeWarning):
        assert backends.resolve_backend("numba", strict=False).name == "numpy"


def test_backend_provenance_keys(clean_registry):
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        record = backends.backend_provenance()
    assert record["kernel_backend"] in ("numpy", "numba")
    assert isinstance(record["numba_version"], str)
    assert record["warmup_seconds"] >= 0.0


def test_register_backend_rejects_duplicates_and_auto():
    with pytest.raises(KeyError):
        backends.register_backend("numpy", backends.NumpyBackend)
    with pytest.raises(ValueError):
        backends.register_backend("auto", backends.NumpyBackend)


# ------------------------------------------------------ no-numba import gate

def test_module_imports_with_numba_blocked():
    """The kernels module must import (and work) when ``import numba`` fails."""

    class _Block:
        def find_spec(self, name, path=None, target=None):
            if name == "numba" or name.startswith("numba."):
                raise ImportError("numba blocked for test")
            return None

    blocker = _Block()
    sys.meta_path.insert(0, blocker)
    try:
        path = Path(numba_kernels.__file__)
        spec = importlib.util.spec_from_file_location(
            "repro.engine.backends._numba_kernels_blocked", path)
        fresh = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fresh)
    finally:
        sys.meta_path.remove(blocker)
    assert fresh.NUMBA_AVAILABLE is False
    assert fresh.NUMBA_VERSION is None
    # The stubbed kernels still compute correct values.
    list_a, list_b = _pair_lists()
    pa, pb = _spatial("dtw", list_a), _spatial("dtw", list_b)
    np.testing.assert_array_equal(_reference("dtw", pa, pb),
                                  np.asarray(fresh.dtw_batch(pa, pb)))


# ------------------------------------------------- backend-aware kNN default

def test_default_abandon_measures_backend_aware(clean_registry, numba_selectable):
    from repro.search import (COMPILED_ABANDON_MEASURES, DEFAULT_ABANDON_MEASURES,
                              default_abandon_measures)

    # The module constants are stable (compat for callers that import them).
    assert "dtw" in DEFAULT_ABANDON_MEASURES
    assert "erp" not in DEFAULT_ABANDON_MEASURES
    assert {"erp", "edr", "lcss"} <= COMPILED_ABANDON_MEASURES
    assert default_abandon_measures(backends.resolve_backend("numpy")) \
        == DEFAULT_ABANDON_MEASURES
    assert default_abandon_measures(backends.resolve_backend("numba")) \
        == COMPILED_ABANDON_MEASURES
    # None resolves the active backend (numba via the fixture's auto).
    assert default_abandon_measures() == COMPILED_ABANDON_MEASURES


def test_knn_search_records_backend_and_stays_exact(numba_selectable):
    from repro.data import generate_dataset
    from repro.distances import knn_from_matrix
    from repro.search import TrajectoryIndex, knn_search

    dataset = generate_dataset("chengdu", size=24, seed=3)
    trajectories = dataset.point_arrays(spatial_only=True)
    engine = MatrixEngine(cache=None, backend="numba")
    matrix = engine.cross(trajectories[:4], trajectories, "erp")
    expected = knn_from_matrix(matrix, 5, exclude_self=True)
    index = TrajectoryIndex(trajectories)
    for query in range(4):
        result = knn_search(index, trajectories[query], 5, measure="erp",
                            engine=engine, exclude=query, batch_size=2)
        assert result.stats.kernel_backend == "numba"
        np.testing.assert_array_equal(result.indices, expected[query])
        np.testing.assert_array_equal(result.distances,
                                      matrix[query][result.indices])


def test_search_stats_merge_keeps_first_backend():
    from repro.search import SearchStats

    total = SearchStats()
    total.merge(SearchStats(kernel_backend="numba"))
    total.merge(SearchStats(kernel_backend="numpy"))
    assert total.kernel_backend == "numba"
    assert total.as_dict()["kernel_backend"] == "numba"


# -------------------------------------------------- canonical-array coercion

def test_as_canonical_arrays_no_copy_on_canonical_input():
    canonical = np.ascontiguousarray(np.random.default_rng(0).random((7, 2)))
    out = as_canonical_arrays([canonical])
    assert out[0] is canonical  # already C-contiguous float64 → same object
    again = as_canonical_arrays(out)
    assert again is out  # tagged collections pass through untouched


def test_as_canonical_arrays_coerces_noncontiguous():
    base = np.random.default_rng(0).random((8, 4))
    sliced = base[:, :2]  # non-contiguous view
    out = as_canonical_arrays([sliced, base.astype(np.float32)])
    for array in out:
        assert array.flags["C_CONTIGUOUS"]
        assert array.dtype == np.float64
    np.testing.assert_array_equal(out[0], sliced)
    assert isinstance(out, CanonicalArrays)
