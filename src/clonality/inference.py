"""Likelihood-ratio machinery for the clonal-relatedness test.

Two statistics are provided. The conditional statistic restricts attention
to the markers mutated in at least one tumor (set E) and models each match
indicator as Bernoulli with probability ``q_i(xi) = match_probabilities(p_i,
xi)``; the statistic is the log-likelihood ratio ``l(xi_hat) - l(0)``. The
unconditional statistic uses the full marker universe, scoring every marker
by its matched / singly-mutated / unmutated outcome probability.

The conditional statistic is computed in the "q-form" (log-ratio of
Bernoulli likelihoods). For interior ``xi_hat`` it is algebraically equal to
the weight form

    sum_{matched} log[(xi/(1-xi))/p + 1] - sum_{E} log[(xi/(1-xi))/(2-p) + 1]

which :func:`weight_form_statistic` exposes as a cross-check; unlike the
weight form, the q-form has a finite limit when every observed mutation is
matched (``xi_hat = 1``), namely ``sum_{matched} log((2-p)/p)``.

The constrained MLE of ``xi`` on [0, 1] is found by a 101-point grid scan
followed by golden-section refinement of the bracketing interval (absolute
tolerance 1e-6). The scan/refinement is vectorized across many match
patterns at once because the null-distribution builders need to fit
thousands of simulated patterns. A fit of many rows takes one
golden-section step per likelihood call, both of its points for every row;
a fit of a few rows takes its steps in rounds, one likelihood call
evaluating every point the next several steps can reach, which the steps
then walk. The grid scan works
``_GRID_SLAB`` rows at a time and the likelihood kernel ``_ROW_SLAB``, so
their temporaries do not grow with a batch's size. Markers are grouped by
distinct ``p`` in one function, :func:`group_by_probability`, which the
observed fits, both nulls and the simulation harness share, so each
likelihood evaluation is O(#groups). The batch kernels take their arrays
as given: a test's counts are checked once, by
:func:`~clonality.nullref.counts_test`, before any fit.

A p-value only needs to know whether each null pattern's statistic
reaches the observed one, and l is concave in xi: with a = 1 - p and D =
2 - p - a xi, q = (p + a xi) / D and 1 - q = 2a(1 - xi) / D, so (log q)''
= a^2/D^2 - a^2/(p + a xi)^2 and (log(1 - q))'' = a^2/D^2 - 1/(1 - xi)^2,
both <= 0 since D >= p + a xi and D >= a(1 - xi). So l lies below each of
its tangents, and l, l' at an interval's two ends bound it there by where
the tangents meet (:func:`_tangent_bound`). A pattern is proven extreme
when a grid value, which the fit is at least as good as, reaches the
threshold, and not extreme when such a bound falls short of it, each to a
margin far above the rounding of the sums. :func:`bound_tables` and
:func:`settle_by_bounds` prove most patterns of a null from sums of
per-group columns at every tenth grid point; :func:`conditional_exceeds`
decides the rest by the fit's own steps, dropping a pattern once the
tangents at its golden-section bracket's ends prove it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import match_probabilities, outcome_cells, validate_probability

_COARSE_POINTS = 101
_XI_TOL = 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
# Iterations needed to shrink the 0.02-wide grid bracket below _XI_TOL.
_GOLDEN_ITER = math.ceil(math.log(_XI_TOL / 0.02) / math.log(_INVPHI))
_GRID = np.linspace(0.0, 1.0, _COARSE_POINTS)
# Finite stand-in for log(0) so matrix products stay NaN-free; any row that
# actually has weight on such a cell ends up astronomically negative.
_LOG_ZERO = -1e30
# Margin on the proofs of conditional_exceeds and settle_by_bounds, far above
# a log-likelihood sum's rounding and far below the 1e-9 tie tolerance, plus
# _MAGNITUDE_ULP of a row's magnitude: near p = 1e-6, q'/q is about 1e6.
_BOUND_SLACK, _MAGNITUDE_ULP = 1e-10, 2.0 ** -40
# Points of the bound tables: every tenth grid point short of xi = 1, and
# their rows: l there, l' there, the misses and the magnitude.
_COARSE = _GRID[:-1:10]
_VALUES, _SLOPES, _MISSES, _MAGNITUDE = slice(0, 10), slice(10, 20), 20, 21
# Rows per slab of the grid scan and of the conditional likelihood kernel, so
# that no (K, 101) grid table or (K, G) kernel temporary of a large batch is
# held at once. A row's values do not depend on its batch, so neither do they
# on its slab.
_ROW_SLAB = 1 << 10
# Rows per slab of the grid scan and of ll0, never more than _ROW_SLAB: at
# 1,024 rows the grid's (rows, 101) table and product temporary took 1.6 MiB,
# at 256 rows 0.4 MiB; ll0 over 1,024-row slabs raised case-exact peak RSS by
# about 0.2 MB, over 256-row slabs it did not.
_GRID_SLAB = 1 << 8
# Row-points per golden-section round of a fit: while a batch's rows times the
# points of two or more levels of their bracket trees fit, one kernel call
# evaluates them all (at most 6 levels, 126 points, for one row). A larger
# batch, and every null decision, takes one step per call.
_ROUND_POINTS = 1 << 7


@dataclass(frozen=True)
class ConditionalData:
    """Match indicators and probabilities for the markers in E."""

    markers: tuple[tuple[float, bool], ...]

    def __post_init__(self):
        clean = tuple((validate_probability(p), bool(x)) for p, x in self.markers)
        object.__setattr__(self, "markers", clean)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, bool]]) -> "ConditionalData":
        return cls(tuple((p, x) for p, x in pairs))

    def __len__(self) -> int:
        return len(self.markers)


@dataclass(frozen=True)
class FitResult:
    """Constrained MLE of the clonality signal and its LR statistic."""

    xi_hat: float
    statistic: float


# ---------------------------------------------------------------------------
# Vectorized likelihood kernels.
# ---------------------------------------------------------------------------

def _rows_of(value, rows, shared_ndim):
    """``value`` at ``rows`` if it holds one entry per row, else ``value`` itself.

    A per-row value has one axis more than a shared one (``shared_ndim``):
    sizes (K, G) against (G,), thresholds (K,) against a scalar. A shared
    value is passed on whole, never expanded to the rows.
    """
    return value[rows] if np.ndim(value) > shared_ndim else value


def _row_sums(terms, sizes):
    """``terms.sum(axis=-1)``, each row summed over its nonzero-size columns only.

    ``terms`` is (K, G), or (2, K, G) with each plane summed as a (K, G)
    block is. Numpy sums a row of 8 or more terms pairwise, so a zero-size
    column of per-row ``sizes`` (K, G) would regroup the sum. Rows are
    summed as a one-row call over their own columns sums them, so a row's
    bits do not depend on the columns that other rows add.
    """
    if sizes.ndim == 1 or terms.shape[-1] < 8:
        return terms.sum(axis=-1)
    present = sizes > 0
    width = present.sum(axis=1)
    sums = np.zeros(terms.shape[:-1])
    for w in set(width[width > 0].tolist()):  # a set: plain np.unique imports numpy.ma
        rows = width == w
        # a stacked pick comes out in Fortran order, and numpy sums that in another order
        picked = np.ascontiguousarray(terms[..., rows, :][..., present[rows]])
        sums[..., rows] = picked.reshape(*terms.shape[:-2], -1, w).sum(axis=-1)
    return sums


def _slope_factors(pg, xi):
    """``(q'/q, q'/(1 - q))`` at ``xi``: l' sums the first over matches less the second over misses."""
    a = 1.0 - pg
    den = (2.0 - pg) - a * xi
    with np.errstate(divide="ignore"):
        return 2.0 * a / (den * (pg + a * xi)), 1.0 / (den * (1.0 - xi))


def _cond_loglik_rows(pg, sizes, matched, xi_rows, slopes=False):
    """Conditional log-likelihood of each row's counts at its own xi.

    pg: (G,); sizes: (G,), or (K, G) per row; matched: (K, G); xi_rows:
    (K,), or (2, K) for two points per row in one call. Returns
    ``xi_rows``' shape, each plane with the bits of its own (K,) call, or
    with ``slopes`` l and l' stacked on a new first axis, l with the same
    bits. More than ``_ROW_SLAB`` rows are evaluated ``_ROW_SLAB`` at a time.
    """
    if matched.shape[0] > _ROW_SLAB:
        out = np.empty((2, *np.shape(xi_rows)) if slopes else np.shape(xi_rows))
        for start in range(0, matched.shape[0], _ROW_SLAB):
            rows = slice(start, start + _ROW_SLAB)
            out[..., rows] = _cond_loglik_rows(pg, _rows_of(sizes, rows, 1), matched[rows], xi_rows[..., rows],
                                               slopes)
        return out
    q = match_probabilities(pg, xi_rows[..., None])
    unmatched = sizes - matched
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (np.where(matched > 0, matched * np.log(q), 0.0)
                 + np.where(unmatched > 0, unmatched * np.log1p(-q), 0.0))
        if slopes:
            per_match, per_miss = _slope_factors(pg, xi_rows[..., None])
            terms = np.stack([terms, matched * per_match - np.where(unmatched > 0, unmatched * per_miss, 0.0)])
    return _row_sums(terms, sizes)


def _tangent_bound(values, slopes, h):
    """An upper bound on a concave l over ``[lo, lo + h]`` from l and l' at both ends, (2, ...) each.

    Where l' turns from positive to negative, the higher tangent where the
    two meet (so rounding the meeting point cannot lower it); else, l being
    monotone, the larger end value. A high end at xi = 1 with a miss (l =
    l' = -inf) leaves the low end's tangent at lo + h.
    """
    (l_lo, l_hi), (d_lo, d_hi) = values, slopes
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.fmax(np.fmin((l_hi - l_lo - d_hi * h) / (d_lo - d_hi), h), 0.0)  # NaN (no high tangent): h
        meet = np.fmax(l_lo + d_lo * t, l_hi + d_hi * (t - h))
    return np.where((d_lo > 0.0) & (d_hi < 0.0), meet, np.fmax(l_lo, l_hi))


def _golden_max(loglik_rows, lo, hi, keep=None):
    """Vectorized golden-section maximization over per-row brackets.

    ``loglik_rows(xi, sel)`` evaluates the rows ``sel`` (an index array, or
    ``slice(None)`` for all) each at its own xi, (P, K) for P points per
    row, and ``loglik_rows(xi, sel, True)`` l and l' too, as
    :func:`_cond_loglik_rows` does. ``keep(sel, bound)``, if given, drops
    rows by the :func:`_tangent_bound` over each bracket, whose ends are
    points already evaluated; a dropped row takes no further step. Without
    ``keep``, a batch takes its steps in rounds (:func:`_golden_round`)
    while ``_ROUND_POINTS`` allows two or more steps in one call, and one
    step per call after that. Every bracket and point is computed as a
    one-step loop computes it. Returns ``(sel, xi)``: the rows refined to
    the end and their maximizers.
    """
    sel = slice(None) if keep is None else np.arange(lo.size)
    ends = None if keep is None else loglik_rows(np.array([lo, hi]), sel, True)
    steps = 0
    while steps < _GOLDEN_ITER and lo.size:
        levels = min(_GOLDEN_ITER - steps, (_ROUND_POINTS // (2 * lo.size) + 1).bit_length() - 1)
        if keep is None and levels > 1:
            lo, hi = _golden_round(loglik_rows, lo, hi, levels)
            steps += levels
            continue
        steps += 1
        if keep is not None:
            kept = keep(sel, _tangent_bound(*ends, hi - lo))
            sel, lo, hi, ends = sel[kept], lo[kept], hi[kept], ends[..., kept]
            if not sel.size:
                break
        h = hi - lo
        xi = np.array([lo + _INVPHI2 * h, lo + _INVPHI * h])
        points = loglik_rows(xi, sel) if keep is None else loglik_rows(xi, sel, True)
        left = np.greater_equal(*(points if keep is None else points[0]))
        lo, hi = np.where(left, lo, xi[0]), np.where(left, xi[1], hi)
        if keep is not None:  # the new bracket, [lo, x2] or [x1, hi], ends at evaluated points
            ends = np.where(left, np.stack([ends[:, 0], points[:, 1]], 1), np.stack([points[:, 0], ends[:, 1]], 1))
    return sel, (lo + hi) / 2.0


def _golden_round(loglik_rows, lo, hi, levels):
    """``levels`` golden-section steps of every row in one kernel call: ``(lo, hi)`` after them.

    Each row's bracket tree is built and walked in Python floats, whose
    ``+``, ``-`` and ``*`` round as numpy's float64 ufuncs do, so every
    bracket and point has the bits of the one-step loop; every
    log-likelihood still comes from the kernel. A tree lists its brackets
    in heap order: bracket b's children are 2b + 1, its left bracket
    ``[lo, x2]``, and 2b + 2, its right bracket ``[x1, hi]``.
    """
    n = (1 << levels) - 1
    trees, xi = [], []  # per row
    for row_lo, row_hi in zip(lo.tolist(), hi.tolist()):
        los, his, x1s, x2s = [row_lo], [row_hi], [], []
        for b in range(n):
            h = his[b] - los[b]
            x1s.append(los[b] + _INVPHI2 * h)
            x2s.append(los[b] + _INVPHI * h)
            los += [los[b], x1s[b]]
            his += [x2s[b], his[b]]
        trees.append((los, his))
        xi.append(x1s + x2s)
    lo, hi = [], []
    for row_ll, (los, his) in zip(loglik_rows(np.array(xi).T).T.tolist(), trees):
        b = 0
        for _ in range(levels):
            b = 2 * b + (1 if row_ll[b] >= row_ll[n + b] else 2)  # NaN goes right
        lo.append(los[b])
        hi.append(his[b])
    return np.array(lo), np.array(hi)


def _grid_scan(terms):
    """``(best, value)``: each row's grid argmax and its value in ``sum(counts @ log_table.T)``.

    ``terms`` pairs (K, G) counts with (len(_GRID), G) log tables. The (K,
    len(_GRID)) sum is built ``_GRID_SLAB`` rows at a time, the first product
    with each further one added in place, which gives the bits of the whole
    sum; only each slab's argmax and its value are kept.
    """
    (counts, table), *rest = terms
    best = np.empty(counts.shape[0], dtype=np.intp)
    value = np.empty(counts.shape[0])
    step = min(_GRID_SLAB, _ROW_SLAB)
    for start in range(0, counts.shape[0], step):
        rows = slice(start, start + step)
        grid = counts[rows] @ table.T
        for more, more_table in rest:
            grid += more[rows] @ more_table.T
        best[rows] = np.argmax(grid, axis=1)
        value[rows] = grid[np.arange(grid.shape[0]), best[rows]]
    return best, value


def _fit_rows(loglik_rows, best, keep=None):
    """Golden refinement from each row's grid argmax ``best``, then the final comparison.

    ``keep`` goes to :func:`_golden_max`. Returns ``(sel, xi_hat, ll)`` for
    the rows ``sel`` refined to the end: of each row's grid argmax and
    golden-section result, evaluated in one call, the one with the larger
    log-likelihood, and that log-likelihood.
    """
    lo, hi = _GRID[np.maximum(best - 1, 0)], _GRID[np.minimum(best + 1, _COARSE_POINTS - 1)]  # its neighbours
    sel, refined = _golden_max(loglik_rows, lo, hi, keep)
    candidates = np.stack([_GRID[best[sel]], refined])
    cand_ll = loglik_rows(candidates, sel)
    pick = np.argmax(cand_ll, axis=0)
    rows = np.arange(len(pick))
    return sel, candidates[pick, rows], cand_ll[pick, rows]


def _conditional_stage(pg, sizes, matched):
    """The part of a conditional fit that every row needs.

    ``sizes`` is shared (G,) or per row (K, G); a zero-size column adds
    exact zeros to every sum of a row. Returns ``(pg, sizes, matched, ll0,
    full, full_stat, mixed, grid)`` as float arrays: ``ll0`` is each
    row's log-likelihood at xi = 0, ``full_stat`` the q-form limit
    statistic of the fully matched rows ``full``, and ``grid`` the
    :func:`_grid_scan` of the coarse-grid log-likelihood of the rows
    ``mixed`` that are neither fully matched nor without any match (None
    when there are none).
    """
    pg = np.asarray(pg, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    matched = np.atleast_2d(np.asarray(matched, dtype=float))

    q0 = match_probabilities(pg, 0.0)
    log_q0, log_miss0 = np.log(q0), np.log1p(-q0)
    # summed per row left to right, not by a matrix product: BLAS rounds a
    # row differently in batches of different sizes, and a pattern's
    # statistic must not depend on which other patterns share its batch.
    # _GRID_SLAB rows at a time, no (K, G) temporary is allocated.
    ll0 = np.empty(matched.shape[0])
    step = min(_GRID_SLAB, _ROW_SLAB)
    for start in range(0, matched.shape[0], step):
        rows = slice(start, start + step)
        terms = matched[rows] * log_q0 + (_rows_of(sizes, rows, 1) - matched[rows]) * log_miss0
        ll0[rows] = np.cumsum(terms, axis=1, out=terms)[:, -1]

    total_matched = matched.sum(axis=1)
    none = total_matched == 0
    full = total_matched == sizes.sum(axis=-1)
    # ll at xi=1 is 0 for fully matched patterns (every q_i = 1)
    full_stat = _row_sums(matched[full] * np.log((2.0 - pg) / pg), _rows_of(sizes, full, 1))

    mixed = ~(none | full)
    grid = None
    if mixed.any():
        m_mixed = matched[mixed]
        rem = _rows_of(sizes, mixed, 1) - m_mixed
        with np.errstate(divide="ignore"):
            q_grid = match_probabilities(pg[None, :], _GRID[:, None])
            log_q = np.log(q_grid)
            log_1mq = np.log1p(-q_grid)
        log_1mq[np.isneginf(log_1mq)] = _LOG_ZERO
        grid = _grid_scan([(m_mixed, log_q), (rem, log_1mq)])
    return pg, sizes, matched, ll0, full, full_stat, mixed, grid


def fit_conditional_batch(
    pg: np.ndarray, sizes: np.ndarray, matched: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fit the clonality signal for many match-count patterns at once.

    Arguments:
        pg: distinct marker probabilities, shape (G,).
        sizes: markers of each probability present in E, shape (G,), or
            per pattern, shape (K, G), where a zero-size column leaves a
            pattern's fit as it is without that column.
        matched: matched counts per pattern, shape (K, G).

    Returns ``(xi_hat, statistic)``, each shape (K,). Patterns
    with no matches pin ``xi_hat = 0``; fully matched patterns pin
    ``xi_hat = 1`` with the finite q-form limit statistic.
    """
    pg, sizes, matched, ll0, full, full_stat, mixed, grid = _conditional_stage(
        pg, sizes, matched)
    K = matched.shape[0]

    xi_hat = np.zeros(K)
    stat = np.zeros(K)
    xi_hat[full] = 1.0
    stat[full] = full_stat

    if grid is not None:
        m_mixed, s_mixed = matched[mixed], _rows_of(sizes, mixed, 1)

        def rows(xi, sel=slice(None)):
            return _cond_loglik_rows(pg, _rows_of(s_mixed, sel, 1), m_mixed[sel], xi)

        _, xi_m, ll_m = _fit_rows(rows, grid[0])
        xi_hat[mixed] = xi_m
        stat[mixed] = np.maximum(ll_m - ll0[mixed], 0.0)

    return xi_hat, stat


def conditional_exceeds(
    pg: np.ndarray, sizes: np.ndarray, matched: np.ndarray, threshold, known=None
) -> np.ndarray:
    """Whether each pattern's statistic reaches ``threshold``, shape (K,).

    ``sizes`` is shared (G,) or per pattern (K, G), as in
    :func:`fit_conditional_batch`, and ``threshold`` a scalar or one per
    pattern (K,). Row for row equal to ``fit_conditional_batch(pg, sizes,
    matched)[1] >= threshold``, but a row is refined only until its answer
    is proven. A mixed row whose grid value, which differs from the fit's
    value there only by summation rounding, reaches the threshold with a
    ``_BOUND_SLACK`` margin is extreme. The other rows take the fit's own
    golden-section steps, and a row is dropped, not extreme, once the
    :func:`_tangent_bound` over its bracket, which holds every value the
    fit may still take, falls short by :func:`settle_by_bounds`' margin.
    Rows refined to the end are decided by the fit's final comparison.

    ``known``, if given, is a (K,) mask of rows the caller has proven to
    reach ``threshold``. A known mixed row is decided extreme at the grid
    check, with no golden-section step, so where the proof holds the
    result is the call's without the mask, OR the mask. When no row is
    left open, nothing is evaluated past the grid.
    """
    pg, sizes, matched, ll0, full, full_stat, mixed, grid = _conditional_stage(
        pg, sizes, matched)
    exceeds = np.full(matched.shape[0], 0.0 >= threshold)  # no match: statistic 0
    exceeds[full] = full_stat >= _rows_of(threshold, full, 0)
    if grid is None:
        return exceeds

    ll0_mixed, t_mixed = ll0[mixed], _rows_of(threshold, mixed, 0)
    best, grid_max = grid
    decided = grid_max - ll0_mixed >= t_mixed + _BOUND_SLACK
    if known is not None:
        decided |= known[mixed]
    open_rows = np.flatnonzero(~decided)
    if open_rows.size:
        m_open, ll0_open = matched[mixed][open_rows], ll0_mixed[open_rows]
        s_open, t_open = _rows_of(_rows_of(sizes, mixed, 1), open_rows, 1), _rows_of(t_mixed, open_rows, 0)
        margin = _BOUND_SLACK + _MAGNITUDE_ULP * (s_open @ bound_tables(pg)[1][_MAGNITUDE])

        def rows(xi, sel=slice(None), slopes=False):
            return _cond_loglik_rows(pg, _rows_of(s_open, sel, 1), m_open[sel], xi, slopes)

        def keep(sel, bound):
            return bound - ll0_open[sel] >= _rows_of(t_open, sel, 0) - _rows_of(margin, sel, 0)

        left, _, ll = _fit_rows(rows, best[open_rows], keep)
        decided[open_rows[left]] = np.maximum(ll - ll0_open[left], 0.0) >= _rows_of(t_open, left, 0)
    exceeds[mixed] = decided
    return exceeds


def bound_tables(pg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(slope, intercept)``, each (22, G): group g's column for c of its s markers is ``c * slope + s * intercept``.

    A term c log q + (s - c) log(1 - q), and its slope, are linear in c, so
    a pattern's sums are ``slope @ matched + intercept @ sizes``. Rows: l
    and l' at xi = 0, 0.1, ..., 0.9, the misses and the magnitude, s times
    the largest |log q| + |log(1 - q)| + q/(1 - q) + (q'/q + q'/(1 - q)) /
    10 there, which bounds the rounding of l and of a tangent carried 0.1
    (log1p(-q) of a q an ulp off is q/(1 - q) ulps off), and within a small
    factor the refinement's. xi = 1 is left out: with a miss, l = -inf.
    """
    pg = np.asarray(pg, dtype=float)[:, None]
    q = match_probabilities(pg, _COARSE)
    log_q, log_miss = np.log(q), np.log1p(-q)
    per_match, per_miss = _slope_factors(pg, _COARSE)
    magnitude = (np.abs(log_q) - log_miss + q / (1.0 - q) + _COARSE[1] * (per_match + per_miss)).max(axis=1)
    ones = np.ones(pg.shape[0])
    slope = np.vstack([(log_q - log_miss).T, (per_match + per_miss).T, -ones, 0.0 * ones])
    return slope, np.vstack([log_miss.T, -per_miss.T, ones, magnitude])


def settle_by_bounds(sums: np.ndarray, threshold) -> tuple[np.ndarray, np.ndarray]:
    """Patterns whose answer the bound tables prove: ``(extreme, open_rows)``.

    Column k of ``sums`` (22, K) is pattern k's sum of its groups'
    :func:`bound_tables` columns, and ``threshold`` a scalar or (K,). With
    the value at xi = 0 as ``ll0``, and to a margin of ``_BOUND_SLACK`` plus
    ``_MAGNITUDE_ULP`` of the magnitude, a pattern is extreme when the
    threshold is at most 0 or a value at a coarse point or at xi = 1 (0
    without a miss) reaches ``ll0 + threshold``. It is not extreme when the
    :func:`_tangent_bound` where l peaks falls short of that: between the
    first coarse point with l' < 0 and the one before (at xi = 0 if that is
    the first), or past 0.9, where a miss makes l'(1) -inf, and without one
    l rises to 0. ``open_rows`` indexes the patterns neither proves.
    """
    ll0, top = sums[0], np.where(sums[_MISSES] > 0, -np.inf, 0.0)  # l at xi = 1
    margin = _BOUND_SLACK + _MAGNITUDE_ULP * sums[_MAGNITUDE]
    extreme = (np.fmax(sums[_VALUES].max(axis=0), top) - ll0 >= threshold + margin) | (0.0 >= threshold)
    hi = np.vstack([sums[_SLOPES] < 0.0, np.ones(ll0.shape, dtype=bool)]).argmax(axis=0)  # first l' < 0, or 1
    ends, cols = np.stack([np.maximum(hi - 1, 0), np.minimum(hi, _COARSE.size - 1)]), np.arange(hi.size)
    values, slopes = sums[ends, cols], sums[_SLOPES.start + ends, cols]
    past = hi == _COARSE.size  # l at xi = 1, and 0 in place of l' > 0 without a miss
    values[1, past] = slopes[1, past] = top[past]
    bound = _tangent_bound(values, slopes, _GRID[10 * hi] - _GRID[10 * ends[0]])
    return extreme, np.flatnonzero(~extreme & (bound - ll0 >= threshold - margin))


def _uncond_loglik_rows(pg, n_markers, matched, single, xi_rows):
    """Unconditional log-likelihood of each row's counts at its own xi, (K,) or (2, K)."""
    both_p, single_p, neither_p = outcome_cells(pg, xi_rows[..., None])
    unmut = n_markers - matched - single
    with np.errstate(divide="ignore", invalid="ignore"):
        t_b = np.where(matched > 0, matched * np.log(both_p), 0.0)
        t_s = np.where(single > 0, single * np.log(single_p), 0.0)
        t_n = np.where(unmut > 0, unmut * np.log(neither_p), 0.0)
    return (t_b + t_s + t_n).sum(axis=-1)


def fit_unconditional_batch(
    pg: np.ndarray, n_markers: np.ndarray, matched: np.ndarray, single: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fit the unconditional likelihood for many outcome-count patterns.

    pg, n_markers: (G,); matched, single: (K, G).
    Returns ``(xi_hat, statistic)``.
    """
    pg = np.asarray(pg, dtype=float)
    n_markers = np.asarray(n_markers, dtype=float)
    matched = np.atleast_2d(np.asarray(matched, dtype=float))
    single = np.atleast_2d(np.asarray(single, dtype=float))
    unmut = n_markers[None, :] - matched - single

    with np.errstate(divide="ignore"):
        b, s, n = outcome_cells(pg[None, :], _GRID[:, None])
        log_b, log_s, log_n = np.log(b), np.log(s), np.log(n)
    log_s[np.isneginf(log_s)] = _LOG_ZERO
    best, _ = _grid_scan([(matched, log_b), (single, log_s), (unmut, log_n)])

    def rows(xi, sel=slice(None)):
        return _uncond_loglik_rows(pg, n_markers, matched[sel], single[sel], xi)

    _, xi_hat, ll_mle = _fit_rows(rows, best)
    ll0 = rows(np.zeros(matched.shape[0]))
    return xi_hat, np.maximum(ll_mle - ll0, 0.0)


# ---------------------------------------------------------------------------
# Scalar API.
# ---------------------------------------------------------------------------

def group_by_probability(p, *counts):
    """Merge entries of equal probability: ``(pg, *summed_counts)``.

    ``p`` and every count column hold one entry per marker (or per group of
    markers); ``pg`` is the sorted distinct probabilities and each returned
    column sums its input over the entries sharing that probability, as
    floats.
    """
    pg, inverse = np.unique(np.asarray(p, dtype=float), return_inverse=True)
    if pg.size == 0:
        raise ValueError("need at least one marker probability")
    for extreme in (pg[0], pg[-1]):  # sorted, NaN last
        validate_probability(extreme)
    return (pg, *(np.bincount(inverse, weights=c, minlength=pg.size) for c in counts))


def _require_nonempty(data: ConditionalData):
    if len(data) == 0:
        raise ValueError("conditional data is empty; the test is undefined")


def conditional_statistic(data: ConditionalData) -> FitResult:
    """Conditional LR statistic ``l(xi_hat) - l(0)`` and its MLE."""
    _require_nonempty(data)
    pg, sizes, matched = group_by_probability(
        [p for p, _ in data.markers], np.ones(len(data)), [x for _, x in data.markers])
    xi_hat, stat = fit_conditional_batch(pg, sizes, matched[None, :])
    return FitResult(xi_hat=float(xi_hat[0]), statistic=float(stat[0]))


def weight_form_statistic(data: ConditionalData, xi: float) -> float:
    """Weight-form of the conditional statistic (interior xi only).

    Algebraically identical to the q-form ratio ``l(xi) - l(0)`` that
    :func:`conditional_statistic` maximizes; kept as an independent
    cross-check of the q-form computation.
    """
    _require_nonempty(data)
    if not (0.0 < xi < 1.0):
        raise ValueError(f"weight form requires xi strictly inside (0, 1), got {xi}")
    odds = xi / (1.0 - xi)
    matched_term = sum(math.log(odds / p + 1.0) for p, x in data.markers if x)
    union_term = sum(math.log(odds / (2.0 - p) + 1.0) for p, _ in data.markers)
    return matched_term - union_term
