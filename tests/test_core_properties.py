"""Property-based tests (hypothesis) for the LH-plugin core invariants."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    LHPlugin,
    LHPluginConfig,
    cosh_projection,
    is_on_hyperboloid,
    lorentz_distance,
    lorentz_inner,
    project,
    projection_scalars,
    vanilla_projection,
)

SETTINGS = dict(max_examples=40, deadline=None)


def embeddings(dim_min=1, dim_max=4, magnitude=1.5):
    # Magnitudes stay moderate: with c = 1 the compressed norm equals the squared norm,
    # and cosh of a large argument loses the hyperboloid identity to floating-point
    # cancellation (the library guards membership checks, but exact-value properties
    # such as the self-distance need well-conditioned inputs).
    return st.integers(dim_min, dim_max).flatmap(
        lambda d: arrays(np.float64, (d,),
                         elements=st.floats(-magnitude, magnitude, allow_nan=False, width=32)))


betas = st.sampled_from([0.25, 0.5, 1.0, 2.0])
compressions = st.sampled_from([1.0, 2.0, 4.0, 8.0])


@given(embeddings(), betas)
@settings(**SETTINGS)
def test_vanilla_projection_membership(x, beta):
    assert is_on_hyperboloid(vanilla_projection(x, beta=beta), beta=beta).all()


@given(embeddings(), betas, compressions)
@settings(**SETTINGS)
def test_cosh_projection_membership(x, beta, c):
    assert is_on_hyperboloid(cosh_projection(x, beta=beta, c=c), beta=beta).all()


@given(embeddings(), embeddings(), betas, compressions)
@settings(**SETTINGS)
def test_lorentz_distance_nonnegative_on_projected_points(x, y, beta, c):
    if len(x) != len(y):
        y = np.resize(y, len(x))
    a = cosh_projection(x, beta=beta, c=c)
    b = cosh_projection(y, beta=beta, c=c)
    assert lorentz_distance(a, b, beta=beta) >= -1e-9


@given(embeddings(), betas, compressions)
@settings(**SETTINGS)
def test_lorentz_self_distance_zero(x, beta, c):
    a = cosh_projection(x, beta=beta, c=c)
    assert float(lorentz_distance(a, a, beta=beta)) == pytest.approx(0.0, abs=1e-7)


@given(embeddings(), embeddings(), betas)
@settings(**SETTINGS)
def test_lorentz_distance_symmetry(x, y, beta):
    if len(x) != len(y):
        y = np.resize(y, len(x))
    a = vanilla_projection(x, beta=beta)
    b = vanilla_projection(y, beta=beta)
    assert float(lorentz_distance(a, b, beta=beta)) == pytest.approx(
        float(lorentz_distance(b, a, beta=beta)), rel=1e-9, abs=1e-9)


@given(embeddings(), embeddings())
@settings(**SETTINGS)
def test_lorentz_inner_bilinear_symmetry(x, y):
    if len(x) != len(y):
        y = np.resize(y, len(x))
    a = vanilla_projection(x)
    b = vanilla_projection(y)
    assert float(lorentz_inner(a, b)) == pytest.approx(float(lorentz_inner(b, a)), rel=1e-9)


@given(embeddings(dim_min=2), betas, compressions,
       st.sampled_from(["vanilla", "cosh"]))
@settings(**SETTINGS)
def test_projection_scalars_reconstruct_projection(x, beta, c, method):
    time_like, scale = projection_scalars(x[None, :], beta=beta, c=c, method=method)
    full = project(x[None, :], beta=beta, c=c, method=method)
    np.testing.assert_allclose(time_like, full[:, 0], atol=1e-8)
    np.testing.assert_allclose(scale[:, None] * x[None, :], full[:, 1:], atol=1e-8)


@given(st.floats(0.1, 8.0), st.floats(0.1, 3.0))
@settings(**SETTINGS)
def test_cosh_distance_never_below_vanilla_for_far_collinear_pairs(offset, gap):
    """The cosh projection's raison d'être: no distance collapse for far-away pairs."""
    a = np.array([offset])
    b = np.array([offset + gap])
    vanilla = float(lorentz_distance(vanilla_projection(a), vanilla_projection(b)))
    cosh = float(lorentz_distance(cosh_projection(a, c=2.0), cosh_projection(b, c=2.0)))
    assert cosh >= vanilla - 1e-9


@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
@settings(**SETTINGS)
def test_theorem7_closed_form(a_value, b_value):
    a = cosh_projection(np.array([a_value]), beta=1.0, c=2.0)
    b = cosh_projection(np.array([b_value]), beta=1.0, c=2.0)
    expected = np.cosh(a_value - b_value) - 1.0
    assert float(lorentz_distance(a, b)) == pytest.approx(expected, rel=1e-6, abs=1e-8)


# ------------------------------------------------- plugin retrieval, bit for bit
@functools.lru_cache(maxsize=None)
def _plugin(method, c, beta, use_fusion):
    return LHPlugin(LHPluginConfig(projection=method, compression=c, beta=beta,
                                   use_fusion=use_fusion, factor_dim=3, fusion_hidden=4))


def _plain_distance_matrix(plugin, query, database):
    """The retrieval expression written out: full temporaries, norms recomputed."""
    config = plugin.config
    scalars = dict(beta=config.beta, c=config.compression, method=config.projection)
    time_q, scale_q = projection_scalars(query["euclidean"], **scalars)
    time_d, scale_d = projection_scalars(database["euclidean"], **scalars)
    gram = query["euclidean"] @ database["euclidean"].T
    lorentz = np.abs(np.outer(scale_q, scale_d) * gram - np.outer(time_q, time_d)) - config.beta
    if plugin.fusion is None:
        return lorentz
    squared = ((query["euclidean"] ** 2).sum(axis=1)[:, None]
               + (database["euclidean"] ** 2).sum(axis=1)[None, :])
    euclidean = np.sqrt(np.maximum(squared - 2.0 * gram, 0.0))
    (q_lo, q_eu), (d_lo, d_eu) = query["factors"], database["factors"]
    lorentz_term = q_lo @ d_lo.T
    alpha = lorentz_term / (lorentz_term + q_eu @ d_eu.T)
    return alpha * lorentz + (1.0 - alpha) * euclidean


def _entry_arrays(entry):
    return [value for item in entry.values()
            for value in (item if isinstance(item, tuple) else (item,))]


@st.composite
def retrieval_cases(draw):
    dim = draw(st.integers(1, 5))
    rows = st.integers(1, 6)
    values = st.floats(-3.0, 3.0, allow_nan=False, width=32)
    query = draw(arrays(np.float64, (draw(rows), dim), elements=values))
    database = draw(st.none() | arrays(np.float64, (draw(rows), dim), elements=values))
    if draw(st.booleans()):
        query[draw(st.integers(0, len(query) - 1))] = 0.0
    return query, database


@given(retrieval_cases(), st.sampled_from(["cosh", "vanilla"]), compressions,
       st.sampled_from([0.25, 1.0, 2.5]), st.booleans(), st.integers(0, 2 ** 16))
@settings(max_examples=150, deadline=None)
def test_distance_matrix_bitwise_equals_plain_expression(case, method, c, beta,
                                                         use_fusion, seed):
    query_x, database_x = case
    plugin = _plugin(method, c, beta, use_fusion)
    rng = np.random.default_rng(seed)
    query = plugin.embed_database(query_x, [rng.random((3, 2)) for _ in query_x])
    database = None if database_x is None else plugin.embed_database(
        database_x, [rng.random((3, 2)) for _ in database_x])
    inputs = _entry_arrays(query) + ([] if database is None else _entry_arrays(database))
    before = [array.copy() for array in inputs]

    matrix = plugin.distance_matrix(query, database)

    expected = _plain_distance_matrix(plugin, query, query if database is None else database)
    assert np.array_equal(matrix, expected)
    assert all(np.array_equal(array, copy) for array, copy in zip(inputs, before))
    assert not any(np.shares_memory(matrix, array) for array in inputs)
