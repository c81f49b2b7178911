"""Euclidean → hyperbolic projections: the Vanilla and Cosh projections (Section IV).

An ``n``-dimensional Euclidean embedding is lifted to a point of the ``(n+1)``-
dimensional hyperboloid ``H(β)``:

* **Vanilla projection** ``φ`` — keep the Euclidean coordinates and solve the
  time-like coordinate: ``x₀ = sqrt(Σ xᵢ² + β)``.  Theorem 6 shows the Lorentz
  distance between such projections collapses to zero as the embedding norms grow,
  which hurts exactly the hard case (discriminating among nearby objects).
* **Cosh projection** ``φ_cosh`` — re-parameterise the norm through the hyperbolic
  angle: ``x₀ = √β·cosh(m)`` and ``xᵢ ← xᵢ·√β·sinh(m)/‖x‖`` where
  ``m = γ_c(Σ xᵢ²) = (Σ xᵢ²)^{1/c}`` is the norm compressed by the exponent ``c``
  (``c = 2`` recovers the plain norm).  Theorems 7–9 show the resulting Lorentz
  distance is non-diminishing.

Both projections are exact hyperboloid maps: the produced points satisfy
``⟨x, x⟩_L = −β`` for every input (up to floating point error), for any ``c``.
NumPy and differentiable ``Tensor`` versions are provided.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor, as_tensor, concat

__all__ = [
    "norm_compression",
    "vanilla_projection",
    "cosh_projection",
    "vanilla_projection_t",
    "cosh_projection_t",
    "project",
    "project_t",
    "projection_scalars",
    "space_scale",
    "time_like_coordinate",
]

_EPS = 1e-12


def norm_compression(squared_norm: np.ndarray, c: float) -> np.ndarray:
    """The γ_c compression of the squared norm: ``(Σ xᵢ²)^{1/c}``."""
    if c <= 0:
        raise ValueError("compression exponent c must be positive")
    return np.maximum(squared_norm, 0.0) ** (1.0 / c)


# --------------------------------------------------------------------- NumPy path
def time_like_coordinate(squared_norm: np.ndarray, beta: float = 1.0, c: float = 4.0,
                         method: str = "cosh") -> np.ndarray:
    """The time-like coordinate ``x₀`` of a projection, from the squared norm ``‖x‖²``.

    ``√β·cosh((‖x‖²)^{1/c})`` for the cosh projection, ``sqrt(‖x‖² + β)`` for the
    vanilla one.  :func:`projection_scalars` and the plugin's retrieval path both
    derive ``x₀`` here, so a stored ``‖x‖²`` reproduces it bit for bit.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if method == "vanilla":
        return np.sqrt(squared_norm + beta)
    if method == "cosh":
        return np.sqrt(beta) * np.cosh(norm_compression(squared_norm, c))
    raise ValueError(f"unknown projection method '{method}'")


def space_scale(squared_norm: np.ndarray, beta: float = 1.0, c: float = 4.0,
                method: str = "cosh") -> np.ndarray:
    """The space-like scale ``s`` of a projection, from the squared norm ``‖x‖²``.

    ``√β·sinh((‖x‖²)^{1/c})/‖x‖`` for the cosh projection (``0`` at ``‖x‖ = 0``),
    ``1`` for the vanilla one.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if method == "vanilla":
        return np.ones_like(squared_norm)
    if method == "cosh":
        magnitude = norm_compression(squared_norm, c)
        # sinh(m)/‖x‖ is a finite float for every nonzero norm (denormals included),
        # so only ‖x‖ = 0 needs guarding — and there sinh(m) = 0 already zeroes the
        # spatial block.  A fixed _EPS floor on the denominator would push points
        # with 0 < ‖x‖ < _EPS off the hyperboloid by sinh²(m): large-c compression
        # keeps m non-negligible for norms far below any constant threshold.
        euclidean_norm = np.sqrt(squared_norm)
        safe_norm = np.where(euclidean_norm > 0.0, euclidean_norm, 1.0)
        return np.sqrt(beta) * np.sinh(magnitude) / safe_norm
    raise ValueError(f"unknown projection method '{method}'")


def vanilla_projection(x: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """Vanilla hyperbolic projection ``φ(x)``: prepend ``sqrt(‖x‖² + β)``."""
    x = np.asarray(x, dtype=np.float64)
    squared = (x ** 2).sum(axis=-1, keepdims=True)
    return np.concatenate([time_like_coordinate(squared, beta=beta, method="vanilla"), x],
                          axis=-1)


def cosh_projection(x: np.ndarray, beta: float = 1.0, c: float = 4.0) -> np.ndarray:
    """Cosh hyperbolic projection ``φ_cosh(x)`` with norm compression ``γ_c``.

    The time-like coordinate is ``√β·cosh(m)`` and the space-like block is scaled by
    ``k = √β·sinh(m)/‖x‖`` so that ``⟨x, x⟩_L = β·cosh²(m) − k²‖x‖² = −(−β)`` holds
    exactly — i.e. membership of ``H(β)`` does not depend on ``c``.
    """
    x = np.asarray(x, dtype=np.float64)
    squared = (x ** 2).sum(axis=-1, keepdims=True)
    time_like = time_like_coordinate(squared, beta=beta, c=c, method="cosh")
    scale = space_scale(squared, beta=beta, c=c, method="cosh")
    return np.concatenate([time_like, x * scale], axis=-1)


def project(x: np.ndarray, beta: float = 1.0, c: float = 4.0,
            method: str = "cosh") -> np.ndarray:
    """Dispatch to the vanilla or cosh projection by name."""
    if method == "cosh":
        return cosh_projection(x, beta=beta, c=c)
    if method == "vanilla":
        return vanilla_projection(x, beta=beta)
    raise ValueError(f"unknown projection method '{method}'")


def projection_scalars(x: np.ndarray, beta: float = 1.0, c: float = 4.0,
                       method: str = "cosh") -> tuple[np.ndarray, np.ndarray]:
    """Compact form of a projection: the time-like coordinate and the space-like scale.

    Every projection in this module maps ``x`` to ``(x₀, s·x)`` for scalars ``x₀`` and
    ``s`` that depend only on ``‖x‖``, and the Lorentz Gram matrix can be rebuilt from
    the Euclidean Gram matrix as ``s_a·s_b·(X_a·X_bᵀ) − x₀ₐ·x₀ᵦᵀ``.  The plugin's
    pre-embedded entry keeps two floats per trajectory, ``‖x‖²`` and ``s``: ``x₀`` is
    derived from ``‖x‖²`` by :func:`time_like_coordinate` when it is needed.
    """
    x = np.asarray(x, dtype=np.float64)
    squared = (x ** 2).sum(axis=-1)
    return (time_like_coordinate(squared, beta=beta, c=c, method=method),
            space_scale(squared, beta=beta, c=c, method=method))


# ------------------------------------------------------------------- Tensor path
def vanilla_projection_t(x: Tensor, beta: float = 1.0) -> Tensor:
    """Differentiable vanilla projection."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    x = as_tensor(x)
    squared = (x * x).sum(axis=-1, keepdims=True)
    time_like = (squared + beta).sqrt()
    return concat([time_like, x], axis=-1)


def cosh_projection_t(x: Tensor, beta: float = 1.0, c: float = 4.0) -> Tensor:
    """Differentiable cosh projection with norm compression ``γ_c``."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if c <= 0:
        raise ValueError("compression exponent c must be positive")
    x = as_tensor(x)
    squared = (x * x).sum(axis=-1, keepdims=True)
    magnitude = (squared + _EPS) ** (1.0 / c)
    euclidean_norm = (squared + _EPS).sqrt()
    sqrt_beta = float(np.sqrt(beta))
    time_like = magnitude.cosh() * sqrt_beta
    scale = magnitude.sinh() * sqrt_beta / euclidean_norm
    return concat([time_like, x * scale], axis=-1)


def project_t(x: Tensor, beta: float = 1.0, c: float = 4.0, method: str = "cosh") -> Tensor:
    """Differentiable dispatch to the vanilla or cosh projection."""
    if method == "cosh":
        return cosh_projection_t(x, beta=beta, c=c)
    if method == "vanilla":
        return vanilla_projection_t(x, beta=beta)
    raise ValueError(f"unknown projection method '{method}'")
