"""Numba-JIT row-major DP kernels — the ``numba`` kernel backend.

The numpy wavefront kernels in :mod:`repro.engine.kernels` amortise interpreter
overhead across anti-diagonals and batches, but every diagonal still costs a
handful of Python-level NumPy calls — which is why τ-aware abandoning *removes*
DP cells yet loses wall-clock there (``prune_speedup.json``).  The kernels here
run each pair's whole DP table inside one ``@njit``-compiled function: plain
row-major loops with zero interpreter overhead per cell, where UCR-style
row-wise early abandoning finally pays for itself.

**One contract.**  The backend exposes batch kernels (:data:`BATCH_KERNELS`,
lists of trajectories → distance vector; a single pair is a one-pair batch)
and one stacked table fill, :func:`sweep_table`, for the streaming engine.
Each DP recurrence is written once per measure as a jitted ``_*_fill`` over
an already-bordered table: a batch kernel's ``_*_dp`` loop runs it when no
threshold applies, and :func:`sweep_table` runs it once per stacked row of
the tables :class:`repro.engine.streaming.StreamingEngine` builds.

**Parity contract.**  Every kernel performs cell-for-cell the same floating-
point arithmetic, in the same order, as the numpy reference — point costs
accumulate squared per-coordinate deltas left to right, DP cells reduce their
predecessors in the reference's min/max order — so unabandoned values are
*bitwise identical* to the numpy backend (the parity suite asserts it).  The
non-DP point-set measures (SSPD, TP) differ only in summation order of their
final means (sequential here vs numpy's pairwise ``mean``), which the suite
bounds at 1e-12 relative.

**Abandoning contract.**  Batch kernels accept the same ``thresholds=`` vector
as the numpy kernels: a pair may report ``+inf`` instead of its exact value,
but only when an *admissible* lower bound on the final value strictly exceeds
its threshold (padded by the same fp safety slack as the numpy sweep, so exact
ties never abandon).  After each DP row ``i`` the bound is
``min_j table[i, j] + remaining-work(i, j)`` — every monotone path visits row
``i``, values are monotone along paths, and the remaining-work suffixes
(row/column minimum-cost sums for the min-plus measures, suffix maxima for
Fréchet, unmatchable-point / length-difference terms for EDR, matchable caps
for LCSS) are true lower bounds on what any path still pays.  Because the two
backends bound at different granularities (rows here, anti-diagonals there)
they may abandon *different* pairs; both only ever abandon pairs whose exact
distance provably exceeds τ, so τ-consumers (``knn_search``) get bit-identical
results either way.

**Cell accounting.**  Every jitted DP function returns ``(value, cells)``;
the Python wrappers fold the per-pair cell counts into the ``engine.dp_cells``
registry counters through :mod:`repro.engine.kernels`, so cell accounting
works identically under both backends and all engine strategies.

**Import contract.**  This module imports *without* numba: ``njit`` degrades
to a no-op decorator and the kernels run as (slow) pure Python.  That keeps
the kernel logic testable everywhere; whether the ``numba`` *backend* is
selectable is decided by :data:`NUMBA_AVAILABLE` in the backend registry.
An explicit :func:`warmup` compiles every kernel once (per process — pool
workers call it when they attach) so benchmarks never time compilation.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
    from numba import njit

    NUMBA_AVAILABLE = True
    NUMBA_VERSION: str | None = _numba.__version__
except ImportError:
    NUMBA_AVAILABLE = False
    NUMBA_VERSION = None

    def njit(*args, **kwargs):  # noqa: D103 - no-op stand-in
        if args and callable(args[0]):
            return args[0]

        def decorator(func):
            return func

        return decorator

from ...distances.spatiotemporal import check_spatiotemporal_args
from ..kernels import (
    _abandon_cutoff,
    _as_thresholds,
    _check_batch,
    _count_abandoned,
    _count_cells,
    _spatial_batch,
    _spatiotemporal_batch,
)

__all__ = [
    "NUMBA_AVAILABLE",
    "NUMBA_VERSION",
    "BATCH_KERNELS",
    "THRESHOLD_MEASURES",
    "sweep_table",
    "warmup",
    "warmup_seconds",
]

_INF = np.inf


# ------------------------------------------------------------- jitted helpers

@njit(cache=True)
def _cost_matrix(a, b):
    """Euclidean point-cost matrix, accumulated per coordinate like the reference."""
    n, m, d = a.shape[0], b.shape[0], a.shape[1]
    out = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for ax in range(d):
                delta = a[i, ax] - b[j, ax]
                s += delta * delta
            out[i, j] = np.sqrt(s)
    return out


@njit(cache=True)
def _st_cost_matrix(a, b, lambda_spatial, time_scale):
    """DITA/TP blended spatio-temporal cost, same expression order as the reference."""
    n, m = a.shape[0], b.shape[0]
    out = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            dx = a[i, 0] - b[j, 0]
            dy = a[i, 1] - b[j, 1]
            spatial = np.sqrt(dx * dx + dy * dy)
            temporal = abs(a[i, 2] - b[j, 2]) / time_scale
            out[i, j] = lambda_spatial * spatial + (1.0 - lambda_spatial) * temporal
    return out


@njit(cache=True)
def _match_matrix(a, b, epsilon):
    """Boolean per-pair point matches: within ``epsilon`` on every coordinate."""
    n, m, d = a.shape[0], b.shape[0], a.shape[1]
    out = np.empty((n, m), dtype=np.bool_)
    for i in range(n):
        for j in range(m):
            ok = True
            for ax in range(d):
                if abs(a[i, ax] - b[j, ax]) > epsilon:
                    ok = False
                    break
            out[i, j] = ok
    return out


@njit(cache=True)
def _minplus_suffixes(cost):
    """Remaining-work suffixes for DTW/DITA: ``(row_rem, col_rem)``.

    ``row_rem[i]`` lower-bounds what a path pays after visiting table row ``i``:
    each interior cost row ``i..n-2`` still pays at least its row minimum and
    the forced final cell pays exactly ``cost[n-1, m-1]``; ``row_rem[n] = 0``
    (all rows consumed).  ``col_rem`` is the column twin.
    """
    n, m = cost.shape
    rowmin = np.empty(n)
    colmin = np.full(m, _INF)
    for i in range(n):
        best = _INF
        for j in range(m):
            c = cost[i, j]
            if c < best:
                best = c
            if c < colmin[j]:
                colmin[j] = c
        rowmin[i] = best
    tail = cost[n - 1, m - 1]
    row_rem = np.zeros(n + 1)
    acc = tail
    for i in range(n - 1, -1, -1):
        row_rem[i] = acc
        if i >= 1:
            acc += rowmin[i - 1]
    col_rem = np.zeros(m + 1)
    acc = tail
    for j in range(m - 1, -1, -1):
        col_rem[j] = acc
        if j >= 1:
            acc += colmin[j - 1]
    return row_rem, col_rem


# ----------------------------------------------------------------- DTW / DITA

@njit(cache=True)
def _dtw_fill(table, cost, w):
    """Min-plus fill of a bordered ``(n+1, m+1)`` table, row by row, over the
    columns within ``w`` of the diagonal (``w >= n + m``: every column).
    Returns the number of cells filled."""
    n, m = cost.shape
    cells = 0
    for i in range(1, n + 1):
        jlo = i - w if i - w > 1 else 1
        jhi = i + w if i + w < m else m
        for j in range(jlo, jhi + 1):
            best = table[i - 1, j]
            if table[i, j - 1] < best:
                best = table[i, j - 1]
            if table[i - 1, j - 1] < best:
                best = table[i - 1, j - 1]
            table[i, j] = best + cost[i - 1, j - 1]
        cells += jhi - jlo + 1
    return cells


@njit(cache=True)
def _dtw_dp(cost, band, cutoff):
    """Row-wise (optionally banded) min-plus DP with per-cell pruned windows.

    ``band < 0`` disables the Sakoe–Chiba band; otherwise it is widened to
    ``|n - m|`` exactly like the reference.  ``cutoff`` is τ plus the fp
    safety slack; ``+inf`` disables abandoning and runs the plain
    :func:`_dtw_fill`.  Returns ``(value, cells)`` with ``value = +inf`` when
    abandoned.

    Pruning (PrunedDTW-style): a cell is *doomed* when its value plus the
    admissible remaining-work bound ``max(row_rem[i], col_rem[j])`` exceeds
    the cutoff; doomed cells are stored as ``+inf`` and each row only visits
    the window of columns reachable from the previous row's alive span.  The
    pair is abandoned the moment a row's alive span empties.  Survivors stay
    bitwise exact: the value-achieving path of any pair with distance ≤ τ
    never touches a doomed cell (its prefix + admissible bound ≤ τ < cutoff),
    so removing doomed candidates from the ``min`` cannot change the result.
    """
    n, m = cost.shape
    w = n + m  # no band: every cell is in range
    if band >= 0:
        diff = n - m if n > m else m - n
        w = band if band > diff else diff
    table = np.full((n + 1, m + 1), _INF)
    table[0, 0] = 0.0
    if not np.isfinite(cutoff):
        cells = _dtw_fill(table, cost, w)
        return table[n, m], cells
    cells = 0
    row_rem, col_rem = _minplus_suffixes(cost)
    # Border: every path starts at (0, 0).
    rem0 = row_rem[0] if row_rem[0] > col_rem[0] else col_rem[0]
    if rem0 > cutoff:
        return _INF, cells
    lo_prev = 0
    hi_prev = 0
    for i in range(1, n + 1):
        jlo = i - w if i - w > 1 else 1
        jhi = i + w if i + w < m else m
        start = jlo if jlo > lo_prev else lo_prev
        lo_cur = -1
        hi_cur = -1
        for j in range(start, jhi + 1):
            if j > hi_prev + 1 and not table[i, j - 1] < _INF:
                break  # no predecessor can reach any further cell in this row
            best = table[i - 1, j]
            if table[i, j - 1] < best:
                best = table[i, j - 1]
            if table[i - 1, j - 1] < best:
                best = table[i - 1, j - 1]
            value = best + cost[i - 1, j - 1]
            cells += 1
            rem = row_rem[i]
            if col_rem[j] > rem:
                rem = col_rem[j]
            if value + rem > cutoff:
                table[i, j] = _INF  # doomed: no completion can stay within τ
            else:
                table[i, j] = value
                if lo_cur < 0:
                    lo_cur = j
                hi_cur = j
        if lo_cur < 0:
            return _INF, cells
        lo_prev = lo_cur
        hi_prev = hi_cur
    return table[n, m], cells


# ------------------------------------------------------------------------ ERP

@njit(cache=True)
def _erp_fill(table, cost, gap_a, gap_b):
    """Min-plus fill of a bordered ERP table: substitute, or gap either side."""
    n, m = cost.shape
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = table[i - 1, j - 1] + cost[i - 1, j - 1]
            da = table[i - 1, j] + gap_a[i - 1]
            db = table[i, j - 1] + gap_b[j - 1]
            if db < da:
                da = db
            if da < sub:
                sub = da
            table[i, j] = sub


@njit(cache=True)
def _erp_dp(cost, gap_a, gap_b, cutoff):
    """Row-wise ERP DP with per-cell pruned windows (gap borders are real
    cells: they are doom-checked too, and an alive left border re-opens the
    row from column 1)."""
    n, m = cost.shape
    do_bound = np.isfinite(cutoff)
    if do_bound:
        table = np.full((n + 1, m + 1), _INF)
        table[0, 0] = 0.0
    else:
        table = np.zeros((n + 1, m + 1))
    acc = 0.0
    for i in range(1, n + 1):
        acc += gap_a[i - 1]
        table[i, 0] = acc
    acc = 0.0
    for j in range(1, m + 1):
        acc += gap_b[j - 1]
        table[0, j] = acc
    if not do_bound:
        _erp_fill(table, cost, gap_a, gap_b)
        return table[n, m], n * m
    cells = 0
    # A remaining row is matched (>= its row-minimum cost) or gapped
    # (>= its gap cost): each contributes the smaller of the two.
    row_rem = np.zeros(n + 1)
    col_rem = np.zeros(m + 1)
    acc = 0.0
    for i in range(n - 1, -1, -1):
        rmin = gap_a[i]
        for j in range(m):
            if cost[i, j] < rmin:
                rmin = cost[i, j]
        acc += rmin
        row_rem[i] = acc
    acc = 0.0
    for j in range(m - 1, -1, -1):
        cmin = gap_b[j]
        for i in range(n):
            if cost[i, j] < cmin:
                cmin = cost[i, j]
        acc += cmin
        col_rem[j] = acc
    # Doom-mark the borders (they are real path cells but not counted as DP
    # work, matching the reference's cell accounting).
    lo_prev = m + 1
    hi_prev = -1
    for j in range(m + 1):
        rem = row_rem[0]
        if col_rem[j] > rem:
            rem = col_rem[j]
        if table[0, j] + rem > cutoff:
            table[0, j] = _INF
        else:
            if lo_prev > j:
                lo_prev = j
            hi_prev = j
    for i in range(1, n + 1):
        rem = row_rem[i]
        if col_rem[0] > rem:
            rem = col_rem[0]
        if table[i, 0] + rem > cutoff:
            table[i, 0] = _INF
    for i in range(1, n + 1):
        border_alive = table[i, 0] < _INF
        lo_cur = 0 if border_alive else -1
        hi_cur = 0 if border_alive else -1
        start = 1 if (border_alive or lo_prev < 1) else lo_prev
        for j in range(start, m + 1):
            if j > hi_prev + 1 and not table[i, j - 1] < _INF:
                break  # no predecessor can reach any further cell in this row
            sub = table[i - 1, j - 1] + cost[i - 1, j - 1]
            da = table[i - 1, j] + gap_a[i - 1]
            db = table[i, j - 1] + gap_b[j - 1]
            if db < da:
                da = db
            if da < sub:
                sub = da
            cells += 1
            rem = row_rem[i]
            if col_rem[j] > rem:
                rem = col_rem[j]
            if sub + rem > cutoff:
                table[i, j] = _INF  # doomed: no completion can stay within τ
            else:
                table[i, j] = sub
                if lo_cur < 0:
                    lo_cur = j
                hi_cur = j
        if hi_cur < 0:
            return _INF, cells
        lo_prev = lo_cur
        hi_prev = hi_cur
    return table[n, m], cells


# ------------------------------------------------------------------------ EDR

@njit(cache=True)
def _edr_rem(row_rem, col_rem, tail, n, m, i, j):
    """Admissible remaining-cost bound for EDR cell ``(i, j)``: the
    length-difference, unmatchable-point and final-pair terms can share edit
    steps so they combine with ``max``, never a sum.  The ``tail`` term is
    inadmissible only at the terminal cell (its pair is already consumed)."""
    ld = (n - i) - (m - j)
    if ld < 0:
        ld = -ld
    rem = float(ld)
    if row_rem[i] > rem:
        rem = row_rem[i]
    if col_rem[j] > rem:
        rem = col_rem[j]
    if tail > rem and not (i == n and j == m):
        rem = tail
    return rem


@njit(cache=True)
def _edr_fill(table, match):
    """Edit-count fill of a bordered EDR table over a boolean match matrix."""
    n, m = match.shape
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = table[i - 1, j - 1]
            if not match[i - 1, j - 1]:
                sub += 1.0
            gap = table[i - 1, j]
            if table[i, j - 1] < gap:
                gap = table[i, j - 1]
            gap += 1.0
            if gap < sub:
                sub = gap
            table[i, j] = sub


@njit(cache=True)
def _edr_dp(match, cutoff):
    """Row-wise EDR DP with per-cell pruned windows; borders are real cells
    (doom-checked, not counted) and an alive left border re-opens the row."""
    n, m = match.shape
    do_bound = np.isfinite(cutoff)
    if do_bound:
        table = np.full((n + 1, m + 1), _INF)
    else:
        table = np.zeros((n + 1, m + 1))
    for i in range(n + 1):
        table[i, 0] = i
    for j in range(m + 1):
        table[0, j] = j
    if not do_bound:
        _edr_fill(table, match)
        return table[n, m], n * m
    cells = 0
    row_rem = np.zeros(n + 1)
    col_rem = np.zeros(m + 1)
    acc = 0.0
    for i in range(n - 1, -1, -1):
        has = False
        for j in range(m):
            if match[i, j]:
                has = True
                break
        if not has:
            acc += 1.0
        row_rem[i] = acc
    acc = 0.0
    for j in range(m - 1, -1, -1):
        has = False
        for i in range(n):
            if match[i, j]:
                has = True
                break
        if not has:
            acc += 1.0
        col_rem[j] = acc
    tail = 0.0 if match[n - 1, m - 1] else 1.0
    lo_prev = m + 1
    hi_prev = -1
    for j in range(m + 1):
        if table[0, j] + _edr_rem(row_rem, col_rem, tail, n, m, 0, j) > cutoff:
            table[0, j] = _INF
        else:
            if lo_prev > j:
                lo_prev = j
            hi_prev = j
    for i in range(1, n + 1):
        if table[i, 0] + _edr_rem(row_rem, col_rem, tail, n, m, i, 0) > cutoff:
            table[i, 0] = _INF
    for i in range(1, n + 1):
        border_alive = table[i, 0] < _INF
        lo_cur = 0 if border_alive else -1
        hi_cur = 0 if border_alive else -1
        start = 1 if (border_alive or lo_prev < 1) else lo_prev
        for j in range(start, m + 1):
            if j > hi_prev + 1 and not table[i, j - 1] < _INF:
                break  # no predecessor can reach any further cell in this row
            sub = table[i - 1, j - 1]
            if not match[i - 1, j - 1]:
                sub += 1.0
            gap = table[i - 1, j]
            if table[i, j - 1] < gap:
                gap = table[i, j - 1]
            gap += 1.0
            if gap < sub:
                sub = gap
            cells += 1
            if sub + _edr_rem(row_rem, col_rem, tail, n, m, i, j) > cutoff:
                table[i, j] = _INF  # doomed: no completion can stay within τ
            else:
                table[i, j] = sub
                if lo_cur < 0:
                    lo_cur = j
                hi_cur = j
        if hi_cur < 0:
            return _INF, cells
        lo_prev = lo_cur
        hi_prev = hi_cur
    return table[n, m], cells


# ----------------------------------------------------------------------- LCSS

@njit(cache=True)
def _lcss_fill(table, match):
    """Common-length fill of a bordered LCSS table over a boolean match matrix."""
    n, m = match.shape
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if match[i - 1, j - 1]:
                table[i, j] = table[i - 1, j - 1] + 1.0
            else:
                up = table[i - 1, j]
                left = table[i, j - 1]
                table[i, j] = up if up > left else left


@njit(cache=True)
def _lcss_dp(match, cutoff):
    """Row-wise LCSS DP; tracks the admissible *upper* bound on the remaining
    common length (capped by remaining rows/columns and ε-matchable counts),
    converted to a lower bound on the distance ``1 - common/shorter``."""
    n, m = match.shape
    shorter = float(n if n < m else m)
    if not np.isfinite(cutoff):
        table = np.zeros((n + 1, m + 1))
        _lcss_fill(table, match)
        return 1.0 - table[n, m] / shorter, n * m
    # LCSS maximizes, so the dead marker is -inf (never wins a max, and a
    # match step through a dead diagonal stays dead).
    table = np.full((n + 1, m + 1), -_INF)
    table[0, :] = 0.0
    table[:, 0] = 0.0
    cells = 0
    row_rem = np.zeros(n + 1)
    col_rem = np.zeros(m + 1)
    acc = 0.0
    for i in range(n - 1, -1, -1):
        for j in range(m):
            if match[i, j]:
                acc += 1.0
                break
        row_rem[i] = acc
    acc = 0.0
    for j in range(m - 1, -1, -1):
        for i in range(n):
            if match[i, j]:
                acc += 1.0
                break
        col_rem[j] = acc
    # A cell is doomed when even the admissible *upper* bound on the total
    # common length through it keeps the distance above the cutoff.
    lo_prev = m + 1
    hi_prev = -1
    for j in range(m + 1):
        cap = float(n)
        if float(m - j) < cap:
            cap = float(m - j)
        if row_rem[0] < cap:
            cap = row_rem[0]
        if col_rem[j] < cap:
            cap = col_rem[j]
        if 1.0 - (table[0, j] + cap) / shorter > cutoff:
            table[0, j] = -_INF
        else:
            if lo_prev > j:
                lo_prev = j
            hi_prev = j
    for i in range(1, n + 1):
        cap = float(n - i)
        if float(m) < cap:
            cap = float(m)
        if row_rem[i] < cap:
            cap = row_rem[i]
        if col_rem[0] < cap:
            cap = col_rem[0]
        if 1.0 - (table[i, 0] + cap) / shorter > cutoff:
            table[i, 0] = -_INF
    for i in range(1, n + 1):
        border_alive = table[i, 0] > -_INF
        lo_cur = 0 if border_alive else -1
        hi_cur = 0 if border_alive else -1
        start = 1 if (border_alive or lo_prev < 1) else lo_prev
        for j in range(start, m + 1):
            if j > hi_prev + 1 and not table[i, j - 1] > -_INF:
                break  # no predecessor can reach any further cell in this row
            if match[i - 1, j - 1]:
                value = table[i - 1, j - 1] + 1.0
            else:
                up = table[i - 1, j]
                left = table[i, j - 1]
                value = up if up > left else left
            cells += 1
            cap = float(n - i)
            if float(m - j) < cap:
                cap = float(m - j)
            if row_rem[i] < cap:
                cap = row_rem[i]
            if col_rem[j] < cap:
                cap = col_rem[j]
            if 1.0 - (value + cap) / shorter > cutoff:
                table[i, j] = -_INF  # doomed: distance through here exceeds τ
            else:
                table[i, j] = value
                if lo_cur < 0:
                    lo_cur = j
                hi_cur = j
        if hi_cur < 0:
            return _INF, cells
        lo_prev = lo_cur
        hi_prev = hi_cur
    if not table[n, m] > -_INF:
        return _INF, cells
    return 1.0 - table[n, m] / shorter, cells


# -------------------------------------------------------------------- Fréchet

@njit(cache=True)
def _frechet_fill(table, cost):
    """Min-max fill of a bordered discrete-Fréchet table."""
    n, m = cost.shape
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            reach = table[i - 1, j]
            if table[i, j - 1] < reach:
                reach = table[i, j - 1]
            if table[i - 1, j - 1] < reach:
                reach = table[i - 1, j - 1]
            c = cost[i - 1, j - 1]
            table[i, j] = reach if reach > c else c


@njit(cache=True)
def _frechet_dp(cost, cutoff):
    """Row-wise min-max DP; the running maximum must still absorb every
    remaining row/column minimum (suffix maxima), plus the exact final cell."""
    n, m = cost.shape
    table = np.full((n + 1, m + 1), _INF)
    table[0, 0] = 0.0
    if not np.isfinite(cutoff):
        _frechet_fill(table, cost)
        return table[n, m], n * m
    rowmin = np.empty(n)
    colmin = np.full(m, _INF)
    for i in range(n):
        best = _INF
        for j in range(m):
            c = cost[i, j]
            if c < best:
                best = c
            if c < colmin[j]:
                colmin[j] = c
        rowmin[i] = best
    tail = cost[n - 1, m - 1]
    row_rem = np.zeros(n + 1)
    col_rem = np.zeros(m + 1)
    acc = tail
    for i in range(n - 1, -1, -1):
        row_rem[i] = acc
        if i >= 1 and rowmin[i - 1] > acc:
            acc = rowmin[i - 1]
    acc = tail
    for j in range(m - 1, -1, -1):
        col_rem[j] = acc
        if j >= 1 and colmin[j - 1] > acc:
            acc = colmin[j - 1]
    cells = 0
    # Border: every path starts at (0, 0).
    rem0 = row_rem[0] if row_rem[0] > col_rem[0] else col_rem[0]
    if rem0 > cutoff:
        return _INF, cells
    lo_prev = 0
    hi_prev = 0
    for i in range(1, n + 1):
        start = 1 if lo_prev < 1 else lo_prev
        lo_cur = -1
        hi_cur = -1
        for j in range(start, m + 1):
            if j > hi_prev + 1 and not table[i, j - 1] < _INF:
                break  # no predecessor can reach any further cell in this row
            reach = table[i - 1, j]
            if table[i, j - 1] < reach:
                reach = table[i, j - 1]
            if table[i - 1, j - 1] < reach:
                reach = table[i - 1, j - 1]
            c = cost[i - 1, j - 1]
            value = reach if reach > c else c
            cells += 1
            rem = row_rem[i]
            if col_rem[j] > rem:
                rem = col_rem[j]
            bound = value if value > rem else rem
            if bound > cutoff:
                table[i, j] = _INF  # doomed: no completion can stay within τ
            else:
                table[i, j] = value
                if lo_cur < 0:
                    lo_cur = j
                hi_cur = j
        if lo_cur < 0:
            return _INF, cells
        lo_prev = lo_cur
        hi_prev = hi_cur
    return table[n, m], cells


# --------------------------------------------------- point-set (non-DP) pairs

@njit(cache=True)
def _hausdorff_value(a, b, cutoff):
    """Symmetric Hausdorff with early exit once the running max exceeds cutoff."""
    n, m, d = a.shape[0], b.shape[0], a.shape[1]
    worst = 0.0
    colmin = np.full(m, _INF)
    for i in range(n):
        best = _INF
        for j in range(m):
            s = 0.0
            for ax in range(d):
                delta = a[i, ax] - b[j, ax]
                s += delta * delta
            c = np.sqrt(s)
            if c < best:
                best = c
            if c < colmin[j]:
                colmin[j] = c
        if best > worst:
            worst = best
        if worst > cutoff:
            # worst already lower-bounds the final max — abandon.
            return _INF
    for j in range(m):
        if colmin[j] > worst:
            worst = colmin[j]
    return worst


@njit(cache=True)
def _point_to_segments(px, py, pts):
    """Minimum distance from ``(px, py)`` to any segment of polyline ``pts``."""
    best = _INF
    for s in range(pts.shape[0] - 1):
        sx = pts[s + 1, 0] - pts[s, 0]
        sy = pts[s + 1, 1] - pts[s, 1]
        length_sq = sx * sx + sy * sy
        safe = length_sq if length_sq > 0.0 else 1.0
        t = ((px - pts[s, 0]) * sx + (py - pts[s, 1]) * sy) / safe
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        if length_sq > 0.0:
            qx = pts[s, 0] + t * sx
            qy = pts[s, 1] + t * sy
        else:
            qx = pts[s, 0]
            qy = pts[s, 1]
        dx = px - qx
        dy = py - qy
        dist = np.sqrt(dx * dx + dy * dy)
        if dist < best:
            best = dist
    return best


@njit(cache=True)
def _sspd_one_sided(a, b):
    n = a.shape[0]
    if b.shape[0] == 1:
        total = 0.0
        for i in range(n):
            dx = a[i, 0] - b[0, 0]
            dy = a[i, 1] - b[0, 1]
            total += np.sqrt(dx * dx + dy * dy)
        return total / n
    total = 0.0
    for i in range(n):
        total += _point_to_segments(a[i, 0], a[i, 1], b)
    return total / n


@njit(cache=True)
def _sspd_value(a, b):
    return 0.5 * (_sspd_one_sided(a, b) + _sspd_one_sided(b, a))


@njit(cache=True)
def _tp_value(a, b, lambda_spatial, time_scale):
    """TP: symmetric mean closest-pair blend over spatio-temporal point costs."""
    n, m = a.shape[0], b.shape[0]
    colmin = np.full(m, _INF)
    forward = 0.0
    for i in range(n):
        best = _INF
        for j in range(m):
            dx = a[i, 0] - b[j, 0]
            dy = a[i, 1] - b[j, 1]
            spatial = np.sqrt(dx * dx + dy * dy)
            temporal = abs(a[i, 2] - b[j, 2]) / time_scale
            c = lambda_spatial * spatial + (1.0 - lambda_spatial) * temporal
            if c < best:
                best = c
            if c < colmin[j]:
                colmin[j] = c
        forward += best
    backward = 0.0
    for j in range(m):
        backward += colmin[j]
    return 0.5 * (forward / n + backward / m)


# ----------------------------------------------------------- python wrappers

def _contiguous(array: np.ndarray) -> np.ndarray:
    """C-contiguous float64 view or copy (jitted kernels index row-major)."""
    return np.ascontiguousarray(array, dtype=np.float64)


def _cutoffs(thresholds, batch: int):
    """Per-pair abandon cutoffs (+inf when thresholds is None)."""
    taus = _as_thresholds(thresholds, batch)
    if taus is None:
        return np.full(batch, _INF)
    return np.asarray(_abandon_cutoff(taus), dtype=np.float64)


def dtw_batch(trajectories_a: Sequence, trajectories_b: Sequence,
              band: int | None = None, thresholds=None) -> np.ndarray:
    """Compiled DTW (optionally banded) for a batch of trajectory pairs."""
    _check_batch(trajectories_a, trajectories_b)
    cutoffs = _cutoffs(thresholds, len(trajectories_a))
    arrays_a = [_contiguous(a) for a in _spatial_batch(trajectories_a)]
    arrays_b = [_contiguous(b) for b in _spatial_batch(trajectories_b)]
    band_arg = -1 if band is None else int(band)
    out = np.empty(len(arrays_a))
    total = 0
    for index, (a, b) in enumerate(zip(arrays_a, arrays_b)):
        value, cells = _dtw_dp(_cost_matrix(a, b), band_arg, cutoffs[index])
        out[index] = value
        total += cells
    _count_cells(total, "dtw")
    if thresholds is not None:
        _count_abandoned(int(np.isinf(out).sum()), "dtw")
    return out


def erp_batch(trajectories_a: Sequence, trajectories_b: Sequence,
              gap=None, thresholds=None) -> np.ndarray:
    """Compiled ERP for a batch of trajectory pairs."""
    _check_batch(trajectories_a, trajectories_b)
    cutoffs = _cutoffs(thresholds, len(trajectories_a))
    gap_point = np.zeros(2) if gap is None else np.asarray(gap, dtype=np.float64)[:2]
    arrays_a = [_contiguous(a) for a in _spatial_batch(trajectories_a)]
    arrays_b = [_contiguous(b) for b in _spatial_batch(trajectories_b)]
    out = np.empty(len(arrays_a))
    total = 0
    for index, (a, b) in enumerate(zip(arrays_a, arrays_b)):
        gap_a = np.sqrt(((a - gap_point) ** 2).sum(axis=1))
        gap_b = np.sqrt(((b - gap_point) ** 2).sum(axis=1))
        value, cells = _erp_dp(_cost_matrix(a, b), gap_a, gap_b, cutoffs[index])
        out[index] = value
        total += cells
    _count_cells(total, "erp")
    if thresholds is not None:
        _count_abandoned(int(np.isinf(out).sum()), "erp")
    return out


def edr_batch(trajectories_a: Sequence, trajectories_b: Sequence,
              epsilon: float = 0.25, thresholds=None) -> np.ndarray:
    """Compiled EDR for a batch of trajectory pairs."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _check_batch(trajectories_a, trajectories_b)
    cutoffs = _cutoffs(thresholds, len(trajectories_a))
    arrays_a = [_contiguous(a) for a in _spatial_batch(trajectories_a)]
    arrays_b = [_contiguous(b) for b in _spatial_batch(trajectories_b)]
    out = np.empty(len(arrays_a))
    total = 0
    for index, (a, b) in enumerate(zip(arrays_a, arrays_b)):
        value, cells = _edr_dp(_match_matrix(a, b, epsilon), cutoffs[index])
        out[index] = value
        total += cells
    _count_cells(total, "edr")
    if thresholds is not None:
        _count_abandoned(int(np.isinf(out).sum()), "edr")
    return out


def lcss_batch(trajectories_a: Sequence, trajectories_b: Sequence,
               epsilon: float = 0.25, thresholds=None) -> np.ndarray:
    """Compiled LCSS (``1 - LCSS/min(n, m)``) for a batch of trajectory pairs."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _check_batch(trajectories_a, trajectories_b)
    cutoffs = _cutoffs(thresholds, len(trajectories_a))
    arrays_a = [_contiguous(a) for a in _spatial_batch(trajectories_a)]
    arrays_b = [_contiguous(b) for b in _spatial_batch(trajectories_b)]
    out = np.empty(len(arrays_a))
    total = 0
    for index, (a, b) in enumerate(zip(arrays_a, arrays_b)):
        value, cells = _lcss_dp(_match_matrix(a, b, epsilon), cutoffs[index])
        out[index] = value
        total += cells
    _count_cells(total, "lcss")
    if thresholds is not None:
        _count_abandoned(int(np.isinf(out).sum()), "lcss")
    return out


def frechet_batch(trajectories_a: Sequence, trajectories_b: Sequence,
                  thresholds=None) -> np.ndarray:
    """Compiled discrete Fréchet for a batch of trajectory pairs."""
    _check_batch(trajectories_a, trajectories_b)
    cutoffs = _cutoffs(thresholds, len(trajectories_a))
    arrays_a = [_contiguous(a) for a in _spatial_batch(trajectories_a)]
    arrays_b = [_contiguous(b) for b in _spatial_batch(trajectories_b)]
    out = np.empty(len(arrays_a))
    total = 0
    for index, (a, b) in enumerate(zip(arrays_a, arrays_b)):
        value, cells = _frechet_dp(_cost_matrix(a, b), cutoffs[index])
        out[index] = value
        total += cells
    _count_cells(total, "frechet")
    if thresholds is not None:
        _count_abandoned(int(np.isinf(out).sum()), "frechet")
    return out


def dita_batch(trajectories_a: Sequence, trajectories_b: Sequence,
               lambda_spatial: float = 0.5, time_scale: float = 1.0,
               thresholds=None) -> np.ndarray:
    """Compiled DITA (DTW recurrence over blended spatio-temporal costs)."""
    check_spatiotemporal_args(lambda_spatial, time_scale)
    _check_batch(trajectories_a, trajectories_b)
    cutoffs = _cutoffs(thresholds, len(trajectories_a))
    arrays_a = [_contiguous(a) for a in
                _spatiotemporal_batch(trajectories_a, "dita_distance")]
    arrays_b = [_contiguous(b) for b in
                _spatiotemporal_batch(trajectories_b, "dita_distance")]
    out = np.empty(len(arrays_a))
    total = 0
    for index, (a, b) in enumerate(zip(arrays_a, arrays_b)):
        cost = _st_cost_matrix(a, b, float(lambda_spatial), float(time_scale))
        value, cells = _dtw_dp(cost, -1, cutoffs[index])
        out[index] = value
        total += cells
    _count_cells(total, "dita")
    if thresholds is not None:
        _count_abandoned(int(np.isinf(out).sum()), "dita")
    return out


def hausdorff_batch(trajectories_a: Sequence, trajectories_b: Sequence,
                    thresholds=None) -> np.ndarray:
    """Compiled symmetric Hausdorff (abandons once the running max exceeds τ)."""
    _check_batch(trajectories_a, trajectories_b)
    cutoffs = _cutoffs(thresholds, len(trajectories_a))
    arrays_a = [_contiguous(a) for a in _spatial_batch(trajectories_a)]
    arrays_b = [_contiguous(b) for b in _spatial_batch(trajectories_b)]
    out = np.array([
        _hausdorff_value(a, b, cutoffs[index])
        for index, (a, b) in enumerate(zip(arrays_a, arrays_b))
    ])
    if thresholds is not None:
        _count_abandoned(int(np.isinf(out).sum()), "hausdorff")
    return out


def sspd_batch(trajectories_a: Sequence, trajectories_b: Sequence,
               thresholds=None) -> np.ndarray:
    """Compiled SSPD.  ``thresholds`` accepted but unused (means bound weakly);
    a finite result is always the exact distance, which honours the contract."""
    _check_batch(trajectories_a, trajectories_b)
    _as_thresholds(thresholds, len(trajectories_a))  # validate shape only
    arrays_a = [_contiguous(a) for a in _spatial_batch(trajectories_a)]
    arrays_b = [_contiguous(b) for b in _spatial_batch(trajectories_b)]
    return np.array([_sspd_value(a, b) for a, b in zip(arrays_a, arrays_b)])


def tp_batch(trajectories_a: Sequence, trajectories_b: Sequence,
             lambda_spatial: float = 0.5, time_scale: float = 1.0,
             thresholds=None) -> np.ndarray:
    """Compiled TP.  ``thresholds`` accepted but unused (mean-based measure)."""
    check_spatiotemporal_args(lambda_spatial, time_scale)
    _check_batch(trajectories_a, trajectories_b)
    _as_thresholds(thresholds, len(trajectories_a))  # validate shape only
    arrays_a = [_contiguous(a) for a in
                _spatiotemporal_batch(trajectories_a, "tp_distance")]
    arrays_b = [_contiguous(b) for b in
                _spatiotemporal_batch(trajectories_b, "tp_distance")]
    return np.array([
        _tp_value(a, b, float(lambda_spatial), float(time_scale))
        for a, b in zip(arrays_a, arrays_b)
    ])


#: Batch kernels by measure name — the numba backend's kernel table.
BATCH_KERNELS = {
    "dtw": dtw_batch,
    "erp": erp_batch,
    "edr": edr_batch,
    "lcss": lcss_batch,
    "frechet": frechet_batch,
    "dita": dita_batch,
    "hausdorff": hausdorff_batch,
    "sspd": sspd_batch,
    "tp": tp_batch,
}

#: Measures whose compiled kernels honour the in-kernel abandoning contract
#: (SSPD and TP accept ``thresholds`` but always compute exactly).
THRESHOLD_MEASURES = frozenset({
    "dtw", "erp", "edr", "lcss", "frechet", "dita", "hausdorff",
})


# ------------------------------------------------------- stacked table fill

_FILLS = {"edr": _edr_fill, "lcss": _lcss_fill, "frechet": _frechet_fill}


def sweep_table(mode: str, table: np.ndarray, data: np.ndarray,
                gap_cost_a: np.ndarray | None = None,
                gap_cost_b: np.ndarray | None = None) -> None:
    """Fill each stacked table of ``table`` in place with ``mode``'s jitted fill.

    The compiled counterpart of :func:`repro.engine.kernels._sweep_table`,
    with its arguments: ``table`` is ``(rows, n+1, width+1)`` with row 0 and
    column 0 already bordered, ``data`` the ``(rows, n, width)`` cost (or
    match) tensor, ``gap_cost_a`` ``(rows or 1, n)`` and ``gap_cost_b``
    ``(rows, width)`` ERP's gap costs.  Out-of-band DTW costs arrive as
    ``+inf``, so the DTW fill runs every column.  Same cells, same
    arithmetic per cell: the filled tables are bitwise the sweep's.
    """
    rows, n, width = data.shape
    for row in range(rows):
        if mode == "dtw":
            _dtw_fill(table[row], data[row], n + width)
        elif mode == "erp":
            _erp_fill(table[row], data[row],
                      gap_cost_a[row if len(gap_cost_a) > 1 else 0],
                      gap_cost_b[row])
        else:
            _FILLS[mode](table[row], data[row])


# -------------------------------------------------------------------- warm-up

_WARMED = False
_WARMUP_SECONDS = 0.0


def warmup_seconds() -> float:
    """JIT compile time paid by :func:`warmup` in this process (0.0 before/without)."""
    return _WARMUP_SECONDS


def warmup() -> float:
    """Compile every jitted kernel once (idempotent), returning the seconds spent.

    Called explicitly by benchmarks (so timed sections never include
    compilation) and once per pool worker when a compiled chunk first
    arrives.  Runs the raw jitted functions on two-point dummies — bypassing
    the wrappers keeps the process-local DP cell counter untouched.
    """
    global _WARMED, _WARMUP_SECONDS
    if _WARMED:
        return _WARMUP_SECONDS
    start = time.perf_counter()
    a = np.ascontiguousarray(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    s = np.ascontiguousarray(a[:, :2])
    cost = _cost_matrix(s, s)
    gaps = np.sqrt((s ** 2).sum(axis=1))
    match = _match_matrix(s, s, 0.25)
    for cutoff in (_INF, 1.0):
        _dtw_dp(cost, -1, cutoff)
        _dtw_dp(cost, 1, cutoff)
        _erp_dp(cost, gaps, gaps, cutoff)
        _edr_dp(match, cutoff)
        _lcss_dp(match, cutoff)
        _frechet_dp(cost, cutoff)
        _hausdorff_value(s, s, cutoff)
    _st_cost_matrix(a, a, 0.5, 1.0)
    _sspd_value(s, s)
    _tp_value(a, a, 0.5, 1.0)
    table = np.zeros((1, 3, 3))
    for mode, data in (("dtw", cost), ("frechet", cost), ("edr", match),
                       ("lcss", match)):
        sweep_table(mode, table, data[None])
    sweep_table("erp", table, cost[None], gaps[None], gaps[None])
    _WARMUP_SECONDS = time.perf_counter() - start
    _WARMED = True
    return _WARMUP_SECONDS
