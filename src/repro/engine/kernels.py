"""NumPy-vectorized distance kernels (anti-diagonal wavefront DP).

The reference implementations in :mod:`repro.distances` fill their dynamic-programming
tables one cell at a time in Python.  The kernels here compute the same tables by
sweeping anti-diagonals: every cell on diagonal ``d = i + j`` depends only on cells of
diagonals ``d-1`` and ``d-2``, so a whole diagonal is one fancy-indexed NumPy update.
On top of that, the batch variants stack the cost matrices of many trajectory pairs
into one ``(batch, n, m)`` tensor and sweep all pairs simultaneously, which amortises
the per-operation NumPy overhead across the batch — this is what the engine's
``chunked`` and ``shared`` strategies use.

Every kernel performs cell-for-cell the same arithmetic as its reference
implementation, so results agree to floating-point round-off (the parity suite
enforces 1e-9).  Kernels are looked up by measure name (:func:`get_batch_kernel`);
there is no per-pair variant — a single pair is a one-pair batch, which is how the
engine's ``serial`` strategy runs it.

Each recurrence exists once: a per-mode table set-up (:func:`_initial_table`) and a
per-mode diagonal step (:data:`_STEPS`) shared by the plain and the τ-aware path of
the one sweep, :func:`_sweep`.  The plain fill, :func:`_sweep_table`, is also the
numpy backend's :meth:`~repro.engine.backends.KernelBackend.sweep_table`, which the
streaming engine runs over stacked tables seeded with each pair's DP frontier.

``dtw`` additionally accepts a Sakoe–Chiba ``band`` radius: cells with
``|i - j| > band`` get ``+inf`` cost, so their table cells stay ``+inf`` exactly as if
they were never opened; they still run through the stacked sweep and count as
computed DP cells.  The radius is widened per pair to ``|n - m|`` when the two
sequences differ in length by more than the requested radius, so the result is always
finite.

**τ-aware early abandoning.**  Every batch kernel accepts ``thresholds``, a
``(batch,)`` vector of per-pair abandon thresholds (typically the kNN heap's
running k-th distance τ).  After each anti-diagonal sweep the kernel computes an
*admissible* per-pair lower bound on the final value from the DP frontier — the
minimum over the last two diagonals for the min-plus and min-max measures, the
analogous edit-count / remaining-match bounds for EDR and LCSS — and marks pairs
whose bound *strictly* exceeds their threshold as abandoned.  Abandoned (and
finished) pairs are compacted out of the active batch so they stop consuming
cells; abandoned pairs report ``+inf``.  Because the bound is a true lower bound
and the comparison is strict, a pair is only abandoned when its exact distance
provably exceeds its threshold, so consumers that treat ``+inf`` like a pruned
candidate (``knn_search``) keep bit-identical results.  Survivors run through the
same per-diagonal arithmetic as the unthresholded sweep, so their values are
bit-identical too.  ``thresholds=None`` (or all ``+inf``) is a no-op.

Every kernel also counts the DP cells it actually computed in the
:mod:`repro.obs` registry, which is how ``benchmarks/prune_speedup.py``
measures the work early abandoning saves: ``engine.dp_cells`` is the total,
``engine.dp_cells.<measure>`` splits it per measure (the split partitions the
total exactly), and ``engine.abandoned.<measure>`` counts pairs the τ-sweep
abandoned.  Pool workers return their counts as registry deltas, which the
parent merges.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from ..distances.base import as_points
from ..distances.spatiotemporal import spatiotemporal_point_cost
from ..obs import registry as obs_registry

__all__ = [
    "dtw_batch",
    "erp_batch",
    "edr_batch",
    "lcss_batch",
    "frechet_batch",
    "dita_batch",
    "get_batch_kernel",
    "available_batch_kernels",
]

_BATCH_KERNELS: dict[str, callable] = {}


def _register_batch(name: str):
    def decorator(func):
        _BATCH_KERNELS[name.lower()] = func
        return func

    return decorator


def get_batch_kernel(name: str):
    """Batch kernel for ``name`` (lists of trajectories → distance vector), or None."""
    return _BATCH_KERNELS.get(name.lower())


def available_batch_kernels() -> list[str]:
    """Names of every measure with a batch kernel."""
    return sorted(_BATCH_KERNELS)


# ------------------------------------------------------------ DP cell accounting

_CELLS_TOTAL = obs_registry.counter("engine.dp_cells")


@lru_cache(maxsize=None)
def _measure_cell_counter(measure: str):
    return obs_registry.counter(f"engine.dp_cells.{measure}")


@lru_cache(maxsize=None)
def _measure_abandon_counter(measure: str):
    return obs_registry.counter(f"engine.abandoned.{measure}")


def _count_cells(cells: int, measure: str) -> None:
    _CELLS_TOTAL.add(cells)
    _measure_cell_counter(measure).add(cells)


def _count_abandoned(pairs: int, measure: str) -> None:
    """Record ``pairs`` τ-abandoned pairs for ``measure``."""
    if pairs:
        _measure_abandon_counter(measure).add(pairs)


# --------------------------------------------------------------------- helpers

def _pad_points(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length point arrays into a zero-padded (batch, n, d) tensor.

    Padded rows are garbage by construction but provably unused: every DP below only
    reads cells ``(i, j)`` with ``i ≤ len(a)`` and ``j ≤ len(b)``, and forward DP cells
    never depend on later rows/columns.
    """
    lengths = np.array([len(a) for a in arrays], dtype=np.intp)
    width = arrays[0].shape[1]
    padded = np.zeros((len(arrays), int(lengths.max()), width))
    for index, array in enumerate(arrays):
        padded[index, : len(array)] = array
    return padded, lengths


def _euclidean_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(batch, n, m) tensor of point distances between padded point tensors.

    Computed coordinate-by-coordinate (no (batch, n, m, d) temporary) with the same
    left-to-right summation order as :func:`repro.distances.base.point_distance_matrix`,
    so the costs — and therefore every DP result built on them — match the reference
    bit for bit.
    """
    squared = None
    for axis in range(a.shape[-1]):
        delta = a[:, :, None, axis] - b[:, None, :, axis]
        delta *= delta
        if squared is None:
            squared = delta
        else:
            squared += delta
    return np.sqrt(squared, out=squared)


@lru_cache(maxsize=512)
def _diagonal_slices(n: int, m: int) -> tuple:
    """Constant-stride slices addressing each anti-diagonal of the flattened tables.

    A cell ``(i, j = d − i)`` of the padded ``(n+1, m+1)`` table sits at flat offset
    ``d + i·m``, so an anti-diagonal — and each of its three DP predecessors — is a
    plain strided slice of the flattened array.  Slices are views: the sweep never
    materialises index arrays or gather copies.  Per diagonal the tuple holds slices
    for (current, up, left, diagonal) in the table, the matching cost-matrix cells
    (flat offset ``(d−m−1) + i·(m−1)``), and the ``i−1`` / ``j−1`` ranges used by
    ERP's gap costs.
    """
    entries = []
    for d in range(2, n + m + 1):
        lo, hi = max(1, d - m), min(n, d - 1)
        length = hi - lo + 1
        table_step = m if length > 1 else 1
        cost_step = (m - 1) if length > 1 else 1
        start = d + lo * m
        stop = d + hi * m + 1
        current = slice(start, stop, table_step)
        up = slice(start - (m + 1), stop - (m + 1), table_step)
        left = slice(start - 1, stop - 1, table_step)
        diagonal = slice(start - (m + 2), stop - (m + 2), table_step)
        cost_cells = slice((d - m - 1) + lo * (m - 1),
                           (d - m - 1) + hi * (m - 1) + 1, cost_step)
        gap_a = slice(lo - 1, hi)
        gap_b_stop = d - hi - 2
        gap_b = slice(d - lo - 1, None if gap_b_stop < 0 else gap_b_stop, -1)
        entries.append((current, up, left, diagonal, cost_cells, gap_a, gap_b))
    return tuple(entries)


def _flatten(table: np.ndarray) -> np.ndarray:
    return table.reshape(table.shape[0], -1)


def _spatial_batch(trajectories: Sequence) -> list[np.ndarray]:
    return [as_points(t) for t in trajectories]


def _spatiotemporal_batch(trajectories: Sequence, name: str) -> list[np.ndarray]:
    arrays = [as_points(t, spatial_only=False) for t in trajectories]
    for array in arrays:
        if array.shape[1] < 3:
            raise ValueError(f"{name} requires trajectories with a time column (lon, lat, t)")
    return arrays


def _check_batch(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise ValueError("batch kernels need equally long trajectory lists")
    if len(a) == 0:
        raise ValueError("batch kernels need at least one trajectory pair")


#: Safety slack for in-kernel abandon comparisons.  The remaining-work suffix
#: sums are rounded differently than the DP recurrence, so a bound can exceed
#: the true value by a few ulps; abandoning only past ``τ + atol + rtol·|τ|``
#: keeps exactly-tied candidates (bound == τ) alive under floating point.  The
#: slack dwarfs accumulated rounding (≲ 1e-13 relative for 1e4-step sums) while
#: staying far below any meaningful distance gap.
_ABANDON_ATOL = 1e-10
_ABANDON_RTOL = 1e-12


def _abandon_cutoff(tau):
    """Threshold vector (or scalar) padded by the floating-point safety slack."""
    return tau + (_ABANDON_ATOL + _ABANDON_RTOL * np.abs(tau))


def _as_thresholds(thresholds, batch: int) -> np.ndarray | None:
    """Coerce ``thresholds`` to a ``(batch,)`` float vector (scalars broadcast)."""
    if thresholds is None:
        return None
    array = np.asarray(thresholds, dtype=np.float64)
    if array.ndim == 0:
        array = np.full(batch, float(array))
    if array.shape != (batch,):
        raise ValueError(f"thresholds must be a scalar or a ({batch},) vector, "
                         f"got shape {array.shape}")
    return array


# ------------------------------------------------------------ the recurrences

def _initial_table(mode: str, batch: int, n: int, m: int,
                   gap_cost_a: np.ndarray | None,
                   gap_cost_b: np.ndarray | None) -> np.ndarray:
    """The ``(batch, n+1, m+1)`` DP table of ``mode`` with its borders filled in."""
    if mode in ("dtw", "frechet"):
        table = np.full((batch, n + 1, m + 1), np.inf)
        table[:, 0, 0] = 0.0
        return table
    # LCSS uses a float table too: its counts are small integers, exactly
    # representable, so ``1 − common/shorter`` is the same as over int64.
    table = np.zeros((batch, n + 1, m + 1))
    if mode == "erp":
        table[:, 1:, 0] = np.cumsum(gap_cost_a, axis=1)
        table[:, 0, 1:] = np.cumsum(gap_cost_b, axis=1)
    elif mode == "edr":
        table[:, :, 0] = np.arange(n + 1)
        table[:, 0, :] = np.arange(m + 1)
    return table


# Diagonal steps: for each entry of ``diagonals`` (in order), fill the
# ``current`` slice of the flattened table from its ``up`` / ``left`` /
# ``diagonal`` predecessors and the ``cells`` slice of the flattened cost (or
# match) tensor; ``gap_a`` / ``gap_b`` index ERP's gap costs.  The plain sweep
# hands a step every diagonal at once, the τ-sweep one diagonal per call.

def _dtw_step(flat, data, gap_cost_a, gap_cost_b, diagonals) -> None:
    for current, up, left, diagonal, cells, gap_a, gap_b in diagonals:
        best = np.minimum(flat[:, up], flat[:, left])
        np.minimum(best, flat[:, diagonal], out=best)
        best += data[:, cells]
        flat[:, current] = best


def _frechet_step(flat, data, gap_cost_a, gap_cost_b, diagonals) -> None:
    for current, up, left, diagonal, cells, gap_a, gap_b in diagonals:
        reachable = np.minimum(flat[:, up], flat[:, left])
        np.minimum(reachable, flat[:, diagonal], out=reachable)
        np.maximum(reachable, data[:, cells], out=reachable)
        flat[:, current] = reachable


def _erp_step(flat, data, gap_cost_a, gap_cost_b, diagonals) -> None:
    for current, up, left, diagonal, cells, gap_a, gap_b in diagonals:
        substitution = flat[:, diagonal] + data[:, cells]
        delete_a = flat[:, up] + gap_cost_a[:, gap_a]
        delete_b = flat[:, left] + gap_cost_b[:, gap_b]
        np.minimum(delete_a, delete_b, out=delete_a)
        np.minimum(substitution, delete_a, out=substitution)
        flat[:, current] = substitution


def _edr_step(flat, data, gap_cost_a, gap_cost_b, diagonals) -> None:
    for current, up, left, diagonal, cells, gap_a, gap_b in diagonals:
        substitution = flat[:, diagonal] + np.where(data[:, cells], 0.0, 1.0)
        gap = np.minimum(flat[:, up], flat[:, left])
        gap += 1.0
        np.minimum(substitution, gap, out=substitution)
        flat[:, current] = substitution


def _lcss_step(flat, data, gap_cost_a, gap_cost_b, diagonals) -> None:
    for current, up, left, diagonal, cells, gap_a, gap_b in diagonals:
        flat[:, current] = np.where(data[:, cells], flat[:, diagonal] + 1,
                                    np.maximum(flat[:, up], flat[:, left]))


#: One diagonal step per sweep mode (DITA sweeps with ``"dtw"``).
_STEPS = {
    "dtw": _dtw_step,
    "frechet": _frechet_step,
    "erp": _erp_step,
    "edr": _edr_step,
    "lcss": _lcss_step,
}


# ---------------------------------------------------------------- the sweep

def _suffix_sums(values: np.ndarray) -> np.ndarray:
    """(B, n) → (B, n+1) with ``out[:, i] = values[:, i:].sum(axis=1)``."""
    out = np.zeros((values.shape[0], values.shape[1] + 1))
    out[:, :-1] = np.cumsum(values[:, ::-1], axis=1)[:, ::-1]
    return out


def _suffix_max(values: np.ndarray) -> np.ndarray:
    """(B, n) → (B, n+1) with ``out[:, i] = values[:, i:].max(axis=1)`` (0 past the end)."""
    out = np.zeros((values.shape[0], values.shape[1] + 1))
    out[:, :-1] = np.maximum.accumulate(values[:, ::-1], axis=1)[:, ::-1]
    return out


def _sweep_table(mode: str, table: np.ndarray, data: np.ndarray,
                 gap_cost_a: np.ndarray | None = None,
                 gap_cost_b: np.ndarray | None = None) -> None:
    """Fill ``table`` in place: ``mode``'s step over every anti-diagonal.

    ``table`` is a C-contiguous ``(batch, n+1, m+1)`` table whose row 0 and
    column 0 already hold the borders, ``data`` the ``(batch, n, m)`` cost (or
    match) tensor.  The plain batch sweep starts from :func:`_initial_table`;
    the streaming engine starts from each pair's frontier column.
    """
    _STEPS[mode](_flatten(table), _flatten(data), gap_cost_a, gap_cost_b,
                 _diagonal_slices(data.shape[1], data.shape[2]))


def _sweep(mode: str, data: np.ndarray, lengths_a: np.ndarray,
           lengths_b: np.ndarray, thresholds: np.ndarray | None,
           gap_cost_a: np.ndarray | None = None,
           gap_cost_b: np.ndarray | None = None,
           measure: str | None = None) -> np.ndarray:
    """Anti-diagonal sweep of a stacked batch, optionally with early abandoning.

    ``mode`` selects the recurrence: ``"dtw"`` (min-plus over a cost tensor,
    shared by DITA), ``"frechet"`` (min-max), ``"erp"`` (min-plus with gap
    borders), ``"edr"`` / ``"lcss"`` (edit / match counting over a boolean match
    tensor).  ``data`` is the stacked ``(batch, n, m)`` cost (or match) tensor;
    ``lengths_a`` / ``lengths_b`` are each pair's real lengths.

    With ``thresholds=None`` the sweep is plain: it counts ``batch·n·m`` cells,
    runs the mode's step over every anti-diagonal and reads each pair's final
    cell ``(n_p, m_p)`` (LCSS converts its common length to ``1 − common /
    min(n_p, m_p)``).

    Otherwise ``thresholds`` is the ``(batch,)`` abandon vector and the same
    step runs under per-pair early abandoning with batch compaction.  After
    sweeping diagonal ``d`` the final cell of every unfinished pair lies
    strictly beyond the cells with ``i + j ∈ {d−1, d}``, and every monotone DP
    path must visit one of those cells (steps advance ``i + j`` by 1 or 2), so
    they form a *cut*.  For the min-plus / min-max measures the accumulated
    value is non-decreasing along a path, hence the minimum over the cut —
    restricted to each pair's real ``(≤ n_p, ≤ m_p)`` rectangle and including
    the real border cells where the table has them (ERP's cumulative gap costs,
    EDR's edit counts) — lower-bounds the final value.  EDR adds the
    still-unavoidable ``|remaining length difference|`` edits; LCSS tracks the
    admissible *upper* bound ``table + min(remaining rows, remaining cols)`` on
    the final common length, which converts to a lower bound on the distance.

    On top of the cut value, every cut cell ``(i, j)`` adds an admissible
    *remaining-work* term in the spirit of the UCR suite's cascading bounds.
    The remaining path still consumes every remaining row and every remaining
    column, so (taking the larger of the row- and column-side estimates):

    * min-plus (DTW/DITA): each remaining interior row costs at least its
      row-minimum point cost (restricted to the pair's real columns), and the
      forced final cell costs exactly ``cost[n_p−1, m_p−1]`` — a suffix sum;
    * ERP: a remaining row is matched (≥ its row-minimum cost) or gapped
      (≥ its gap cost), so each contributes the smaller of the two;
    * Fréchet: the running maximum must still absorb every remaining row's
      minimum cost — a suffix maximum;
    * EDR: remaining edits are at least the remaining length difference, the
      number of remaining rows with no ε-matchable partner, and the final-pair
      mismatch — combined with ``max``, never summed (they can share steps);
    * LCSS: the remaining common length is capped by the remaining row/column
      counts and by the number of remaining rows/columns that are ε-matchable
      at all.

    The remaining terms only apply to *alive* pairs — their cut lies strictly
    before the final cell — so a finished pair's last step is never
    double-counted.

    Pairs whose bound strictly exceeds their threshold are marked dead, as are
    pairs whose final cell was just computed (their value is recorded).  Once an
    eighth (or, for the small batches the kNN refiner sends, one) of the
    physical rows are dead, the batch is compacted so dead pairs stop consuming
    cells.  Row compaction never changes per-row arithmetic, so surviving pairs
    match the unthresholded sweep bit for bit.

    Returns the final distances with ``+inf`` for abandoned pairs.

    ``measure`` tags the telemetry counters (cells / abandons); it defaults to
    ``mode`` but differs when a measure borrows another's recurrence (DITA
    sweeps with ``mode="dtw"`` yet counts as ``"dita"``).
    """
    measure = measure or mode
    step = _STEPS[mode]
    batch, n, m = data.shape
    table = _initial_table(mode, batch, n, m, gap_cost_a, gap_cost_b)
    if thresholds is None:
        _count_cells(batch * n * m, measure)
        _sweep_table(mode, table, data, gap_cost_a, gap_cost_b)
        values = table[np.arange(batch), lengths_a, lengths_b]
        if mode == "lcss":
            return 1.0 - values / np.minimum(lengths_a, lengths_b)
        return values

    flat = _flatten(table)
    flat_data = _flatten(data)
    la = lengths_a.astype(np.int64)
    lb = lengths_b.astype(np.int64)
    tau = _abandon_cutoff(thresholds)
    out = np.full(batch, np.inf)
    positions = np.arange(batch)
    alive = np.ones(batch, dtype=bool)
    shorter = np.minimum(la, lb).astype(np.float64) if mode == "lcss" else None
    # Remaining-work suffix arrays (see the docstring): ``row_rem[:, i]`` is an
    # admissible estimate of the cost the path still pays after a cut cell in
    # table row ``i`` (column twin ``col_rem[:, j]``), indexed 0..n / 0..m.
    rows_idx = np.arange(batch)
    row_valid = np.arange(n)[None, :] < la[:, None]
    col_valid = np.arange(m)[None, :] < lb[:, None]
    if mode in ("dtw", "frechet", "erp"):
        rowmin = np.where(col_valid[:, None, :], data, np.inf).min(axis=2)
        colmin = np.where(row_valid[:, :, None], data, np.inf).min(axis=1)
        tail = data[rows_idx, la - 1, lb - 1]
    if mode == "dtw":
        # Interior rows i..la−2 each pay ≥ their row minimum; the forced final
        # cell pays exactly ``tail``.
        row_rem = _suffix_sums(
            np.where(np.arange(n)[None, :] < (la - 1)[:, None], rowmin, 0.0))
        row_rem += tail[:, None]
        col_rem = _suffix_sums(
            np.where(np.arange(m)[None, :] < (lb - 1)[:, None], colmin, 0.0))
        col_rem += tail[:, None]
    elif mode == "erp":
        row_rem = _suffix_sums(
            np.where(row_valid, np.minimum(rowmin, gap_cost_a), 0.0))
        col_rem = _suffix_sums(
            np.where(col_valid, np.minimum(colmin, gap_cost_b), 0.0))
    elif mode == "frechet":
        row_rem = _suffix_max(
            np.where(np.arange(n)[None, :] < (la - 1)[:, None], rowmin, 0.0))
        np.maximum(row_rem, tail[:, None], out=row_rem)
        col_rem = _suffix_max(
            np.where(np.arange(m)[None, :] < (lb - 1)[:, None], colmin, 0.0))
        np.maximum(col_rem, tail[:, None], out=col_rem)
    elif mode == "edr":
        matchable_rows = (data & col_valid[:, None, :]).any(axis=2)
        matchable_cols = (data & row_valid[:, :, None]).any(axis=1)
        row_rem = _suffix_sums(np.where(row_valid & ~matchable_rows, 1.0, 0.0))
        col_rem = _suffix_sums(np.where(col_valid & ~matchable_cols, 1.0, 0.0))
        tail = np.where(data[rows_idx, la - 1, lb - 1], 0.0, 1.0)
    else:  # lcss: remaining common length is capped by ε-matchable rows/columns
        matchable_rows = (data & col_valid[:, None, :]).any(axis=2)
        matchable_cols = (data & row_valid[:, :, None]).any(axis=1)
        row_rem = _suffix_sums(np.where(row_valid & matchable_rows, 1.0, 0.0))
        col_rem = _suffix_sums(np.where(col_valid & matchable_cols, 1.0, 0.0))
        tail = None
    # Pad the suffix arrays past each pair's real lengths with ±inf: a cut cell
    # outside the pair's rectangle then bounds to ±inf on its own, which lets
    # the per-diagonal statistics below skip validity masks entirely (an inf
    # never wins a min, a −inf never wins a max).
    dead_value = -np.inf if mode == "lcss" else np.inf
    row_rem[np.arange(n + 1)[None, :] > la[:, None]] = dead_value
    col_rem[np.arange(m + 1)[None, :] > lb[:, None]] = dead_value
    # Frontier statistic of diagonal 1 — its only cells are (0, 1) and (1, 0),
    # real whenever the table stores borders (always, since lengths ≥ 1).
    if mode in ("dtw", "frechet"):
        prev_stat = np.full(batch, np.inf)
    elif mode == "erp":
        prev_stat = np.minimum(
            gap_cost_b[:, 0] + np.maximum(row_rem[:, 0], col_rem[:, 1]),
            gap_cost_a[:, 0] + np.maximum(row_rem[:, 1], col_rem[:, 0]))
    elif mode == "edr":
        prev_stat = 1.0 + np.minimum(
            np.maximum.reduce([np.abs(la - lb + 1).astype(np.float64),
                               row_rem[:, 0], col_rem[:, 1], tail]),
            np.maximum.reduce([np.abs(la - lb - 1).astype(np.float64),
                               row_rem[:, 1], col_rem[:, 0], tail]))
    else:  # lcss: best common count still achievable through diagonal 1
        prev_stat = np.maximum(
            np.minimum.reduce([la.astype(np.float64), (lb - 1).astype(np.float64),
                               row_rem[:, 0], col_rem[:, 1]]),
            np.minimum.reduce([(la - 1).astype(np.float64), lb.astype(np.float64),
                               row_rem[:, 1], col_rem[:, 0]]))

    for d, slices in enumerate(_diagonal_slices(n, m), start=2):
        lo, hi = max(1, d - m), min(n, d - 1)
        i_vec = np.arange(lo, hi + 1)
        j_vec = d - i_vec
        _count_cells(flat.shape[0] * len(i_vec), measure)
        step(flat, flat_data, gap_cost_a, gap_cost_b, (slices,))
        current = slices[0]

        finishing = alive & (la + lb == d)
        if finishing.any():
            rows_idx = np.nonzero(finishing)[0]
            values = flat[rows_idx, d + la[rows_idx] * m]
            if mode == "lcss":
                values = 1.0 - values / shorter[rows_idx]
            out[positions[rows_idx]] = values
            alive[finishing] = False

        if alive.any():
            cur = flat[:, current]
            row_part = row_rem[:, i_vec]
            col_part = col_rem[:, j_vec]
            # No validity masks: cut cells past a pair's real rectangle pick up
            # ±inf from the padded suffix arrays and drop out of the reduction
            # (garbage table values stay finite or inf, never NaN).
            if mode == "lcss":
                cap = np.minimum.reduce([
                    (la[:, None] - i_vec[None, :]).astype(np.float64),
                    (lb[:, None] - j_vec[None, :]).astype(np.float64),
                    row_part, col_part])
                stat = (cur + cap).max(axis=1)
                if d <= m:
                    border = np.minimum.reduce([
                        la.astype(np.float64), (lb - d).astype(np.float64),
                        row_rem[:, 0], col_rem[:, d]])
                    np.maximum(stat, border, out=stat)
                if d <= n:
                    border = np.minimum.reduce([
                        (la - d).astype(np.float64), lb.astype(np.float64),
                        row_rem[:, d], col_rem[:, 0]])
                    np.maximum(stat, border, out=stat)
                bound = 1.0 - np.maximum(stat, prev_stat) / shorter
            elif mode == "edr":
                remaining = np.maximum.reduce([
                    np.abs((la[:, None] - i_vec[None, :])
                           - (lb[:, None] - j_vec[None, :])).astype(np.float64),
                    row_part, col_part,
                    np.broadcast_to(tail[:, None], row_part.shape)])
                stat = (cur + remaining).min(axis=1)
                if d <= m:
                    border = d + np.maximum.reduce([
                        np.abs(la - lb + d).astype(np.float64),
                        row_rem[:, 0], col_rem[:, d], tail])
                    np.minimum(stat, border, out=stat)
                if d <= n:
                    border = d + np.maximum.reduce([
                        np.abs(la - d - lb).astype(np.float64),
                        row_rem[:, d], col_rem[:, 0], tail])
                    np.minimum(stat, border, out=stat)
                bound = np.minimum(stat, prev_stat)
            elif mode == "frechet":
                stat = np.maximum(cur, np.maximum(row_part, col_part)).min(axis=1)
                bound = np.minimum(stat, prev_stat)
            else:  # dtw / erp: min-plus with additive remaining work
                stat = (cur + np.maximum(row_part, col_part)).min(axis=1)
                if mode == "erp":
                    if d <= m:
                        np.minimum(stat, flat[:, d]
                                   + np.maximum(row_rem[:, 0], col_rem[:, d]),
                                   out=stat)
                    if d <= n:
                        np.minimum(stat, flat[:, d * (m + 1)]
                                   + np.maximum(row_rem[:, d], col_rem[:, 0]),
                                   out=stat)
                bound = np.minimum(stat, prev_stat)
            prev_stat = stat
            dead = alive & (bound > tau)
            if dead.any():
                # A pair is marked dead at most once (then compacted out or
                # excluded by ``alive``), so summing here counts each
                # abandoned pair exactly once.
                _count_abandoned(int(np.count_nonzero(dead)), measure)
                alive[dead] = False

        if not alive.any():
            return out
        dead_rows = alive.size - int(np.count_nonzero(alive))
        if dead_rows and dead_rows * 8 >= alive.size:
            keep = alive
            flat = flat[keep]
            flat_data = flat_data[keep]
            la, lb = la[keep], lb[keep]
            tau = tau[keep]
            positions = positions[keep]
            prev_stat = prev_stat[keep]
            row_rem = row_rem[keep]
            col_rem = col_rem[keep]
            if tail is not None:
                tail = tail[keep]
            if gap_cost_a is not None:
                gap_cost_a = gap_cost_a[keep]
                gap_cost_b = gap_cost_b[keep]
            if shorter is not None:
                shorter = shorter[keep]
            alive = np.ones(flat.shape[0], dtype=bool)
    return out


# ------------------------------------------------------------------------- DTW

@_register_batch("dtw")
def dtw_batch(trajectories_a: Sequence, trajectories_b: Sequence,
              band: int | None = None, thresholds=None) -> np.ndarray:
    """DTW distances for a batch of trajectory pairs."""
    _check_batch(trajectories_a, trajectories_b)
    thresholds = _as_thresholds(thresholds, len(trajectories_a))
    a, lengths_a = _pad_points(_spatial_batch(trajectories_a))
    b, lengths_b = _pad_points(_spatial_batch(trajectories_b))
    cost = _euclidean_cost(a, b)
    if band is not None:
        # Sakoe–Chiba band, widened per pair to |n_p − m_p|: out-of-band cells
        # cost +inf, so their table cells stay +inf as if never opened.
        radius = np.maximum(int(band), np.abs(lengths_a - lengths_b))
        offset = np.abs(np.arange(cost.shape[1])[:, None]
                        - np.arange(cost.shape[2])[None, :])
        cost[offset[None] > radius[:, None, None]] = np.inf
    return _sweep("dtw", cost, lengths_a, lengths_b, thresholds)


# ------------------------------------------------------------------------- ERP

@_register_batch("erp")
def erp_batch(trajectories_a: Sequence, trajectories_b: Sequence,
              gap=None, thresholds=None) -> np.ndarray:
    """ERP distances for a batch of trajectory pairs."""
    _check_batch(trajectories_a, trajectories_b)
    thresholds = _as_thresholds(thresholds, len(trajectories_a))
    gap_point = np.zeros(2) if gap is None else np.asarray(gap, dtype=np.float64)[:2]
    a, lengths_a = _pad_points(_spatial_batch(trajectories_a))
    b, lengths_b = _pad_points(_spatial_batch(trajectories_b))
    gap_cost_a = np.sqrt(((a - gap_point) ** 2).sum(axis=-1))
    gap_cost_b = np.sqrt(((b - gap_point) ** 2).sum(axis=-1))
    cost = _euclidean_cost(a, b)
    return _sweep("erp", cost, lengths_a, lengths_b, thresholds,
                  gap_cost_a=gap_cost_a, gap_cost_b=gap_cost_b)


# ------------------------------------------------------------------- EDR, LCSS

def _match_tensor(a: np.ndarray, b: np.ndarray, epsilon: float) -> np.ndarray:
    """(batch, n, m) mask of points matching within ``epsilon`` on every coordinate."""
    match = None
    for axis in range(a.shape[-1]):
        delta = a[:, :, None, axis] - b[:, None, :, axis]
        np.abs(delta, out=delta)
        close = delta <= epsilon
        if match is None:
            match = close
        else:
            match &= close
    return match


@_register_batch("edr")
def edr_batch(trajectories_a: Sequence, trajectories_b: Sequence,
              epsilon: float = 0.25, thresholds=None) -> np.ndarray:
    """EDR distances for a batch of trajectory pairs."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _check_batch(trajectories_a, trajectories_b)
    thresholds = _as_thresholds(thresholds, len(trajectories_a))
    a, lengths_a = _pad_points(_spatial_batch(trajectories_a))
    b, lengths_b = _pad_points(_spatial_batch(trajectories_b))
    match = _match_tensor(a, b, epsilon)
    return _sweep("edr", match, lengths_a, lengths_b, thresholds)


@_register_batch("lcss")
def lcss_batch(trajectories_a: Sequence, trajectories_b: Sequence,
               epsilon: float = 0.25, thresholds=None) -> np.ndarray:
    """LCSS distances (``1 − LCSS/min(n, m)``) for a batch of trajectory pairs."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _check_batch(trajectories_a, trajectories_b)
    thresholds = _as_thresholds(thresholds, len(trajectories_a))
    a, lengths_a = _pad_points(_spatial_batch(trajectories_a))
    b, lengths_b = _pad_points(_spatial_batch(trajectories_b))
    match = _match_tensor(a, b, epsilon)
    return _sweep("lcss", match, lengths_a, lengths_b, thresholds)


# --------------------------------------------------------------------- Fréchet

@_register_batch("frechet")
def frechet_batch(trajectories_a: Sequence, trajectories_b: Sequence,
                  thresholds=None) -> np.ndarray:
    """Discrete Fréchet distances for a batch of trajectory pairs.

    Uses the padded-table formulation: with an ``inf`` border and a single zero
    sentinel at ``(0, 0)``, the recurrence ``max(min(up, left, diag), cost)``
    reproduces the reference's explicit first-row/column cumulative maxima.
    """
    _check_batch(trajectories_a, trajectories_b)
    thresholds = _as_thresholds(thresholds, len(trajectories_a))
    a, lengths_a = _pad_points(_spatial_batch(trajectories_a))
    b, lengths_b = _pad_points(_spatial_batch(trajectories_b))
    cost = _euclidean_cost(a, b)
    return _sweep("frechet", cost, lengths_a, lengths_b, thresholds)


# ------------------------------------------------------------------------ DITA

@_register_batch("dita")
def dita_batch(trajectories_a: Sequence, trajectories_b: Sequence,
               lambda_spatial: float = 0.5, time_scale: float = 1.0,
               thresholds=None) -> np.ndarray:
    """DITA spatio-temporal distances for a batch of trajectory pairs."""
    _check_batch(trajectories_a, trajectories_b)
    thresholds = _as_thresholds(thresholds, len(trajectories_a))
    arrays_a = _spatiotemporal_batch(trajectories_a, "dita_distance")
    arrays_b = _spatiotemporal_batch(trajectories_b, "dita_distance")
    a, lengths_a = _pad_points(arrays_a)
    b, lengths_b = _pad_points(arrays_b)
    batch = len(arrays_a)
    cost = np.stack([
        spatiotemporal_point_cost(a[index], b[index], lambda_spatial, time_scale)
        for index in range(batch)
    ])
    # DITA shares DTW's min-plus recurrence over its blended cost tensor, but
    # its telemetry counts under its own measure name.
    return _sweep("dtw", cost, lengths_a, lengths_b, thresholds, measure="dita")
