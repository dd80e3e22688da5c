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
thousands of simulated patterns; each golden-section step evaluates both
of its points for every row in one likelihood call. The grid scan works
``_GRID_SLAB`` rows at a time and the likelihood kernel ``_ROW_SLAB``, so
their temporaries do not grow with a batch's size. Markers are grouped by
distinct ``p`` in one function, :func:`group_by_probability`, which the
observed fits, both nulls and the simulation harness share, so each
likelihood evaluation is O(#groups). The batch kernels take their arrays
as given: a test's counts are checked once, by
:func:`~clonality.nullref.counts_test`, before any fit.

An exact p-value only needs to know, for each null pattern, whether its
statistic reaches the observed one. :func:`conditional_exceeds` answers that
exactly as the fit would, but stops refining a pattern as soon as its answer
is proven: by the grid value from below, or by a bound on the
log-likelihood over the current golden-section bracket from above. Both it
and :func:`fit_conditional_batch` run the one golden-section loop.
Before it, :func:`bound_tables` and :func:`settle_by_bounds` settle most
patterns of an exact null without the grid: per group and match count, the
log-likelihood term at every tenth grid point and its upper bound between
them, summed per pattern and reduced by :func:`bound_maxima` to three
values, prove many patterns extreme or not.
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
# Margin on the bounds used by conditional_exceeds and settle_by_bounds: far
# above the rounding error of a log-likelihood sum, far below the 1e-9 tie
# tolerance.
_BOUND_SLACK = 1e-10
# Points of the bound tables: every tenth grid point, xi = 0 first.
_COARSE = _GRID[::10]
# Rows per slab of the grid scan and of the conditional likelihood kernel, so
# that no (K, 101) grid table or (K, G) kernel temporary of a large batch is
# held at once. A row's values do not depend on its batch, so neither do they
# on its slab.
_ROW_SLAB = 1 << 10
# Rows per slab of the grid scan, never more than _ROW_SLAB: at 1,024 rows
# its (rows, 101) table and product temporary took 1.6 MiB, at 256 rows
# 0.4 MiB.
_GRID_SLAB = 1 << 8


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
    for w in np.unique(width[width > 0]):
        rows = width == w
        # a stacked pick comes out in Fortran order, and numpy sums that in another order
        picked = np.ascontiguousarray(terms[..., rows, :][..., present[rows]])
        sums[..., rows] = picked.reshape(*terms.shape[:-2], -1, w).sum(axis=-1)
    return sums


def _cond_loglik_rows(pg, sizes, matched, xi_rows, xi_miss=None):
    """Conditional log-likelihood of each row's counts at its own xi.

    pg: (G,); sizes: (G,), or (K, G) per row; matched: (K, G); xi_rows:
    (K,), or (2, K) for two points per row in one call. Returns
    ``xi_rows``' shape, each plane with the bits of its own (K,) call.
    ``xi_miss``, if given, replaces ``xi_rows`` in the unmatched terms only.
    Since q rises with xi, ``xi_rows = hi`` with ``xi_miss = lo`` bounds the
    log-likelihood from above over every xi in ``[lo, hi]``. More than
    ``_ROW_SLAB`` rows are evaluated ``_ROW_SLAB`` rows at a time.
    """
    if matched.shape[0] > _ROW_SLAB:
        out = np.empty(np.shape(xi_rows))
        for start in range(0, matched.shape[0], _ROW_SLAB):
            rows = slice(start, start + _ROW_SLAB)
            out[..., rows] = _cond_loglik_rows(pg, _rows_of(sizes, rows, 1), matched[rows], xi_rows[..., rows],
                                               None if xi_miss is None else xi_miss[..., rows])
        return out
    q = match_probabilities(pg, xi_rows[..., None])
    q_miss = q if xi_miss is None else match_probabilities(pg, xi_miss[..., None])
    unmatched = sizes - matched
    with np.errstate(divide="ignore", invalid="ignore"):
        t_match = np.where(matched > 0, matched * np.log(q), 0.0)
        t_miss = np.where(unmatched > 0, unmatched * np.log1p(-q_miss), 0.0)
    return _row_sums(t_match + t_miss, sizes)


def _golden_max(loglik_rows, lo, hi, keep=None):
    """Vectorized golden-section maximization over per-row brackets.

    ``loglik_rows(xi, sel)`` evaluates the rows ``sel`` (an index array, or
    ``slice(None)`` for all) each at its own xi, (K,) or (2, K); a step
    evaluates both golden points in one (2, K) call. ``keep(sel, lo, hi)``,
    if given, runs before every iteration and says which of the remaining
    rows still need refining; the others are dropped. A kept row's bracket takes
    exactly the steps it takes without ``keep``, and brackets nest.
    Returns ``(sel, xi)``: the rows refined to the end and their maximizers.
    """
    sel = slice(None) if keep is None else np.arange(lo.size)
    for _ in range(_GOLDEN_ITER):
        if keep is not None:
            kept = keep(sel, lo, hi)
            sel, lo, hi = sel[kept], lo[kept], hi[kept]
            if not sel.size:
                break
        h = hi - lo
        x1 = lo + _INVPHI2 * h
        x2 = lo + _INVPHI * h
        ll1, ll2 = loglik_rows(np.stack([x1, x2]), sel)
        left = ll1 >= ll2
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
    return sel, (lo + hi) / 2.0


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


def _grid_bracket(best):
    """The bracket of the two grid neighbours of each row's grid argmax ``best``."""
    return _GRID[np.maximum(best - 1, 0)], _GRID[np.minimum(best + 1, _COARSE_POINTS - 1)]


def _fit_rows(loglik_rows, best):
    """Golden refinement from each row's grid argmax ``best``, and candidate comparison.

    Returns (xi_hat, ll_at_mle) with ll_at_mle >= the row's grid value.
    """
    lo, hi = _grid_bracket(best)
    _, refined = _golden_max(loglik_rows, lo, hi)
    candidates = np.stack([_GRID[best], refined])
    cand_ll = loglik_rows(candidates)
    pick = np.argmax(cand_ll, axis=0)
    rows = np.arange(len(pick))
    return candidates[pick, rows], cand_ll[pick, rows]


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
    # summed per row, not by a matrix product: BLAS rounds a row differently
    # in batches of different sizes, and a pattern's statistic must not
    # depend on which other patterns share its batch. Column by column, no
    # (K, G) temporary is allocated.
    ll0 = np.zeros(matched.shape[0])
    for g, (log_q, log_miss) in enumerate(zip(np.log(q0), np.log1p(-q0))):
        ll0 += matched[:, g] * log_q + (sizes[..., g] - matched[:, g]) * log_miss

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

        xi_m, ll_m = _fit_rows(rows, grid[0])
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
    is proven. The fitted log-likelihood of a mixed row is the larger of
    its values at the grid argmax (``c0``) and at the golden-section
    result, so ``c0`` alone can prove a row extreme; the grid value, which
    differs from ``c0`` only by summation rounding, does so for most rows
    with a ``_BOUND_SLACK`` margin. The other rows take the fit's own
    golden-section steps, and a row is dropped once its log-likelihood
    bound over the current bracket falls short of the threshold by more
    than ``_BOUND_SLACK``. Rows refined to the end are decided by the fit's
    final comparison.

    ``known``, if given, is a (K,) mask of rows the caller has proven to
    reach ``threshold``. A known mixed row is decided extreme at the grid
    check, with no ``c0`` call and no golden-section step, so where the
    proof holds the result is the call's without the mask, OR the mask.
    When no row is left open, nothing is evaluated past the grid.
    """
    pg, sizes, matched, ll0, full, full_stat, mixed, grid = _conditional_stage(
        pg, sizes, matched)
    exceeds = np.full(matched.shape[0], 0.0 >= threshold)  # no match: statistic 0
    exceeds[full] = full_stat >= _rows_of(threshold, full, 0)
    if grid is None:
        return exceeds

    m_mixed, ll0_mixed = matched[mixed], ll0[mixed]
    s_mixed, t_mixed = _rows_of(sizes, mixed, 1), _rows_of(threshold, mixed, 0)
    best, grid_max = grid
    lo, hi = _grid_bracket(best)
    decided = grid_max - ll0_mixed >= t_mixed + _BOUND_SLACK
    if known is not None:
        decided |= known[mixed]
    open_rows = np.flatnonzero(~decided)
    if not open_rows.size:
        exceeds[mixed] = decided
        return exceeds
    c0 = _cond_loglik_rows(pg, _rows_of(s_mixed, open_rows, 1), m_mixed[open_rows],
                           _GRID[best[open_rows]])
    proven = np.maximum(c0 - ll0_mixed[open_rows], 0.0) >= _rows_of(t_mixed, open_rows, 0)
    decided[open_rows[proven]] = True
    open_rows, c0_open = open_rows[~proven], c0[~proven]
    m_open, ll0_open = m_mixed[open_rows], ll0_mixed[open_rows]
    s_open, t_open = _rows_of(s_mixed, open_rows, 1), _rows_of(t_mixed, open_rows, 0)

    def rows(xi, sel=slice(None)):
        return _cond_loglik_rows(pg, _rows_of(s_open, sel, 1), m_open[sel], xi)

    def keep(sel, lo, hi):
        bound = _cond_loglik_rows(pg, _rows_of(s_open, sel, 1), m_open[sel], hi, lo)
        return bound - ll0_open[sel] >= _rows_of(t_open, sel, 0) - _BOUND_SLACK

    left, refined = _golden_max(rows, lo[open_rows], hi[open_rows], keep)
    ll_left = np.maximum(c0_open[left], rows(refined, left))
    decided[open_rows[left]] = np.maximum(ll_left - ll0_open[left], 0.0) >= _rows_of(t_open, left, 0)
    exceeds[mixed] = decided
    return exceeds


def bound_tables(pg: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """Per-group terms of the coarse log-likelihood and of its interval bounds.

    One table per probability group g, shape (21, size_g + 1); column c is
    for c matched markers. Rows 0-10 hold the group's log-likelihood term
    at the coarse points xi = 0, 0.1, ..., 1 (every tenth grid point). Rows
    11-20 hold ``c log q(hi) + (size_g - c) log1p(-q(lo))`` for each
    interval [lo, hi] between them: q rises with xi, so this bounds the
    term over the interval from above, as the refinement's bound does. A
    pattern's sums of its groups' columns go through :func:`bound_maxima`
    to :func:`settle_by_bounds`.
    """
    pg = np.asarray(pg, dtype=float)
    with np.errstate(divide="ignore"):
        q = match_probabilities(pg[:, None], _COARSE[None, :])
        log_q = np.log(q)
        log_miss = np.log1p(-q)
    log_miss[np.isneginf(log_miss)] = _LOG_ZERO  # xi = 1 with a miss
    tables = []
    for g, size in enumerate(np.asarray(sizes, dtype=int)):
        matched = np.arange(size + 1.0)
        missed = size - matched
        tables.append(np.vstack([np.outer(log_q[g], matched) + np.outer(log_miss[g], missed),
                                 np.outer(log_q[g, 1:], matched) + np.outer(log_miss[g, :-1], missed)]))
    return tables


def bound_maxima(sums: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` (3, K) what :func:`settle_by_bounds` reads of (21, K) table sums.

    Column k of ``sums`` is pattern k's sum of its groups' columns of
    :func:`bound_tables`; the rows of ``out`` become its value at xi = 0
    (``ll0``), its largest coarse value and its largest interval bound.
    """
    out[0] = sums[0]
    sums[:_COARSE.size].max(axis=0, out=out[1])
    sums[_COARSE.size:].max(axis=0, out=out[2])


def settle_by_bounds(bounds: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Patterns whose answer the bound tables prove: ``(extreme, open_rows)``.

    ``bounds`` (3, K) holds in column k, as :func:`bound_maxima` writes it,
    pattern k's table sum at xi = 0, which stands in for ``ll0``, its
    largest coarse value and its largest interval bound. A pattern is
    extreme, statistic >= ``threshold``, when its largest coarse value
    reaches ``ll0 + threshold + _BOUND_SLACK``: coarse points are grid
    points, and the fit is at least as good as its best grid point. It is
    not extreme when its largest interval bound falls below ``ll0 +
    threshold - _BOUND_SLACK``. Both hold as well for patterns with no
    match and fully matched ones, and the slack is far above the rounding
    by which the sums differ from the fit's. ``extreme`` marks the proven
    extreme patterns; ``open_rows`` indexes the rest, for
    :func:`conditional_exceeds`.
    """
    ll0, coarse, interval = bounds
    extreme = coarse - ll0 >= threshold + _BOUND_SLACK
    ruled_out = interval - ll0 < threshold - _BOUND_SLACK
    return extreme, np.flatnonzero(~(extreme | ruled_out))


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

    xi_hat, ll_mle = _fit_rows(rows, best)
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
