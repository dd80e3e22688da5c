import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonality import inference
from clonality.inference import (
    ConditionalData,
    conditional_exceeds,
    conditional_statistic,
    fit_conditional_batch,
    fit_unconditional_batch,
    group_by_probability,
    settle_by_bounds,
    weight_form_statistic,
)
from clonality.model import PROB_CEIL, PROB_FLOOR

from conftest import table_sums


# --- independent oracles -------------------------------------------------

def oracle_cond_loglik(markers, xi):
    """Plain-float conditional log-likelihood, independent of the package kernels."""
    total = 0.0
    for p, matched in markers:
        q = (p + xi * (1.0 - p)) / ((2.0 - p) - xi * (1.0 - p))
        q = min(q, 1.0)
        if matched:
            total += math.log(q)
        elif q == 1.0:
            return -math.inf  # unmatched mutation is impossible under full clonality
        else:
            total += math.log1p(-q)
    return total


def oracle_grid_mle(markers, n_points=10001):
    """Brute-force grid maximization of the conditional likelihood."""
    best_xi, best_ll = 0.0, -math.inf
    for i in range(n_points):
        xi = i / (n_points - 1)
        ll = oracle_cond_loglik(markers, xi)
        if ll > best_ll:
            best_xi, best_ll = xi, ll
    return best_xi, best_ll


def oracle_uncond_loglik(groups, xi):
    total = 0.0
    for p, n, matched, single in groups:
        both = xi * p + (1 - xi) * p * p
        one = 2 * (1 - xi) * p * (1 - p)
        neither = xi * (1 - p) + (1 - xi) * (1 - p) ** 2
        if matched:
            total += matched * math.log(both)
        if single:
            total += single * math.log(one) if one > 0 else -math.inf
        if n - matched - single:
            total += (n - matched - single) * math.log(neither)
    return total


def oracle_uncond_grid(groups, n_points=10001):
    best_xi, best_ll = 0.0, -math.inf
    for i in range(n_points):
        xi = i / (n_points - 1)
        ll = oracle_uncond_loglik(groups, xi)
        if ll > best_ll:
            best_xi, best_ll = xi, ll
    return best_xi, best_ll


def random_mixed_data(gen, max_markers=12):
    """Random ConditionalData with at least one match and one non-match."""
    m = int(gen.integers(2, max_markers + 1))
    ps = gen.uniform(0.005, 0.5, size=m)
    matched = gen.random(m) < 0.4
    matched[0] = True
    matched[1] = False
    return ConditionalData.from_pairs(zip(ps, matched))


TABLE1_MUCINOUS = ConditionalData.from_pairs(
    [(0.081, True)] + [(0.004, False)] * 9
)


# --- conditional likelihood ----------------------------------------------

def test_conditional_log_likelihood_values():
    def loglik(p, matched, xi):
        return inference._cond_loglik_rows(np.array([p]), np.ones(1), np.array([[float(matched)]]),
                                           np.array([xi]))[0]

    assert loglik(0.081, True, 0.0) == pytest.approx(math.log(0.081 / 1.919), rel=1e-12)
    assert loglik(0.081, True, 1.0) == 0.0
    assert loglik(0.1, False, 1.0) == -math.inf


def test_mle_boundary_short_circuits():
    no_match = ConditionalData.from_pairs([(0.1, False), (0.02, False)])
    assert conditional_statistic(no_match).xi_hat == 0.0
    all_match = ConditionalData.from_pairs([(0.1, True), (0.02, True)])
    assert conditional_statistic(all_match).xi_hat == 1.0


def test_mle_agrees_with_grid_oracle_on_case_data():
    xi_hat = conditional_statistic(TABLE1_MUCINOUS).xi_hat
    oracle_xi, oracle_ll = oracle_grid_mle(TABLE1_MUCINOUS.markers)
    assert xi_hat == pytest.approx(oracle_xi, abs=1e-4)
    # the fitted likelihood dominates every grid point
    assert oracle_cond_loglik(TABLE1_MUCINOUS.markers, xi_hat) >= oracle_ll - 1e-10


def test_mle_agrees_with_grid_oracle_randomized():
    gen = np.random.default_rng(20240817)
    for _ in range(40):
        data = random_mixed_data(gen)
        xi_hat = conditional_statistic(data).xi_hat
        oracle_xi, oracle_ll = oracle_grid_mle(data.markers)
        assert xi_hat == pytest.approx(oracle_xi, abs=1e-4)
        assert oracle_cond_loglik(data.markers, xi_hat) >= oracle_ll - 1e-10


def test_conditional_statistic_single_match():
    fit = conditional_statistic(ConditionalData.from_pairs([(0.081, True)]))
    assert fit.xi_hat == 1.0
    assert fit.statistic == pytest.approx(math.log(1.919 / 0.081), rel=1e-12)
    assert fit.statistic == pytest.approx(3.165, abs=1e-3)


def test_conditional_statistic_of_no_markers_is_refused():
    with pytest.raises(ValueError, match="conditional data is empty"):
        conditional_statistic(ConditionalData(()))


def test_conditional_statistic_no_match_is_zero():
    fit = conditional_statistic(ConditionalData.from_pairs([(0.1, False), (0.3, False)]))
    assert fit.xi_hat == 0.0
    assert fit.statistic == 0.0


def test_conditional_statistic_three_rare_matches():
    # three matched markers, nothing unmatched: statistic is the q-form limit
    data = ConditionalData.from_pairs([(0.004, True), (0.008, True), (0.023, True)])
    fit = conditional_statistic(data)
    expected = math.log(499.0) + math.log(249.0) + math.log(1.977 / 0.023)
    assert fit.xi_hat == 1.0
    assert fit.statistic == pytest.approx(expected, rel=1e-12)
    assert fit.statistic == pytest.approx(16.184, abs=1e-3)


def test_statistic_nonnegative_randomized():
    gen = np.random.default_rng(7)
    for _ in range(200):
        m = int(gen.integers(1, 10))
        data = ConditionalData.from_pairs(
            zip(gen.uniform(0.005, 0.6, m), gen.random(m) < 0.3)
        )
        assert conditional_statistic(data).statistic >= 0.0


def test_qform_matches_weight_form():
    gen = np.random.default_rng(99)
    checked = 0
    while checked < 1000:
        data = random_mixed_data(gen)
        fit = conditional_statistic(data)
        if not (0.0 < fit.xi_hat < 1.0):
            continue
        assert fit.statistic == pytest.approx(
            weight_form_statistic(data, fit.xi_hat), abs=1e-9
        )
        checked += 1


def test_match_weight_decreasing_in_p():
    # the weight-form statistic of one matched marker: its match weight less its union term
    for xi in (0.05, 0.3, 0.7, 0.95):
        weights = [weight_form_statistic(ConditionalData.from_pairs([(p, True)]), xi)
                   for p in np.linspace(0.005, 0.95, 40)]
        assert all(b < a for a, b in zip(weights, weights[1:]))
    with pytest.raises(ValueError):
        weight_form_statistic(ConditionalData.from_pairs([(0.1, True)]), 1.0)


def test_permutation_invariance():
    gen = np.random.default_rng(4)
    data = random_mixed_data(gen)
    shuffled = list(data.markers)
    gen.shuffle(shuffled)
    assert conditional_statistic(data) == conditional_statistic(
        ConditionalData.from_pairs(shuffled)
    )


# --- unconditional likelihood ---------------------------------------------

def test_unconditional_loglik_independence_reduction():
    groups = ((0.1, 50, 2, 7), (0.004, 200, 0, 3))
    pg, n_markers, matched, single = np.array(groups, dtype=float).T
    value = inference._uncond_loglik_rows(pg, n_markers, matched[None], single[None], np.zeros(1))[0]
    expected = 0.0
    for p, n, m, s in groups:
        expected += m * math.log(p * p) + s * math.log(2 * p * (1 - p))
        expected += (n - m - s) * math.log((1 - p) ** 2)
    assert value == pytest.approx(expected, rel=1e-12)


def test_unconditional_loglik_single_group_example():
    value = inference._uncond_loglik_rows(np.array([0.1]), np.array([1.0]), np.array([[1.0]]),
                                          np.array([[0.0]]), np.array([0.25]))[0]
    assert value == pytest.approx(math.log(0.0325), rel=1e-12)


def test_unconditional_statistic_all_null_matches_grid_oracle():
    groups = ((0.1, 5, 0, 0),)
    (xi_hat,), (stat,) = fit_unconditional_batch(*np.array(groups, dtype=float).T)
    oracle_xi, oracle_ll = oracle_uncond_grid(groups)
    assert stat >= 0.0
    assert xi_hat == pytest.approx(oracle_xi, abs=1e-4)
    assert stat == pytest.approx(oracle_ll - oracle_uncond_loglik(groups, 0.0), abs=1e-4)


def test_unconditional_statistic_all_matched_hits_boundary():
    groups = ((0.1, 3, 3, 0), (0.02, 4, 4, 0))
    assert fit_unconditional_batch(*np.array(groups, dtype=float).T)[0][0] == 1.0


def test_unconditional_statistic_simulated_pair_vs_oracle():
    # one tumor pair from the mean-5 universe shape, counts fixed by seed
    gen = np.random.default_rng(123)
    groups = []
    for p, n in ((0.1, 10), (4.0 / 9990.0, 9990)):
        both = p * p
        one = 2 * p * (1 - p)
        draws = gen.multinomial(n, [both, one, 1 - both - one])
        groups.append((p, n, int(draws[0]), int(draws[1])))
    (xi_hat,), (stat,) = fit_unconditional_batch(*np.array(groups, dtype=float).T)
    oracle_xi, oracle_ll = oracle_uncond_grid(groups)
    assert stat == pytest.approx(oracle_ll - oracle_uncond_loglik(groups, 0.0), abs=1e-4)
    assert xi_hat == pytest.approx(oracle_xi, abs=1e-4)


def test_group_by_probability_sums_columns():
    pg, n, matched = group_by_probability([0.1, 0.004, 0.1, 0.02], [1, 2, 3, 4], [1, 0, 1, 1])
    assert pg.tolist() == [0.004, 0.02, 0.1]
    assert n.tolist() == [2.0, 4.0, 4.0]
    assert matched.tolist() == [0.0, 1.0, 2.0]
    for bad in ([], [0.1, 0.0], [1.0], [float("nan")]):
        with pytest.raises(ValueError):
            group_by_probability(bad, [1] * len(bad))


# --- decision kernel ------------------------------------------------------

@st.composite
def pattern_batches(draw):
    """Distinct or shared probabilities and every match-count pattern over them."""
    n_groups = draw(st.integers(1, 7))
    pg = sorted(draw(st.lists(st.floats(1e-4, 0.6), min_size=n_groups,
                              max_size=n_groups, unique=True)))
    shared = draw(st.booleans())
    sizes = [draw(st.integers(1, 3)) if shared else 1 for _ in pg]
    axes = np.meshgrid(*[np.arange(n + 1) for n in sizes], indexing="ij")
    patterns = np.column_stack([a.ravel() for a in axes]).astype(float)
    return np.array(pg), np.array(sizes, dtype=float), patterns


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batch=pattern_batches(), pick=st.integers(0, 10 ** 6),
       free=st.floats(-1.0, 30.0))
def test_conditional_exceeds_matches_full_fit(batch, pick, free):
    pg, sizes, patterns = batch
    stats = fit_conditional_batch(pg, sizes, patterns)[1]
    s = float(stats[pick % stats.size])
    for threshold in (s, s - 1e-9, s + 1e-9, np.nextafter(s, np.inf), 0.0, free):
        decided = conditional_exceeds(pg, sizes, patterns, threshold)
        assert np.array_equal(decided, stats >= threshold), threshold


@st.composite
def fit_batches(draw):
    """Random count patterns over up to 30 probabilities, some fully matched."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_groups = int(gen.integers(1, 31))
    pg = np.sort(gen.uniform(1e-4, 0.6, n_groups))
    sizes = gen.integers(1, 5, n_groups).astype(float)
    patterns = np.floor(gen.random((int(gen.integers(2, 2000)), n_groups)) * (sizes + 1))
    patterns[gen.random(patterns.shape[0]) < 0.05] = sizes
    return pg, sizes, patterns, gen


@settings(max_examples=40, deadline=None, derandomize=True)
@given(batch=fit_batches())
def test_fit_does_not_depend_on_its_batch(batch):
    pg, sizes, patterns, gen = batch
    xi, stat = fit_conditional_batch(pg, sizes, patterns)
    perm = gen.permutation(patterns.shape[0])
    xi_perm, stat_perm = fit_conditional_batch(pg, sizes, patterns[perm])
    assert np.array_equal(xi_perm, xi[perm]) and np.array_equal(stat_perm, stat[perm])
    subset = np.flatnonzero(gen.random(patterns.shape[0]) < 0.3)
    xi_sub, stat_sub = fit_conditional_batch(pg, sizes, patterns[subset])
    assert np.array_equal(xi_sub, xi[subset]) and np.array_equal(stat_sub, stat[subset])
    for row in gen.choice(patterns.shape[0], 5):
        xi_one, stat_one = fit_conditional_batch(pg, sizes, patterns[row])
        assert xi_one[0] == xi[row] and stat_one[0] == stat[row]


@st.composite
def unconditional_batches(draw):
    """Outcome counts of random pairs over up to 60 groups, at a random signal per row."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_groups = int(gen.integers(1, 61))
    pg = np.sort(gen.uniform(1e-6, 0.5, n_groups))
    n_markers = gen.integers(1, 5000, n_groups)
    xi = gen.choice([0.0, 1.0, *gen.random(8)], (int(gen.integers(1, 1500)), 1))
    both = xi * pg + (1 - xi) * pg * pg
    single_given_not_both = 2 * (1 - xi) * pg * (1 - pg) / (1 - both)
    matched = gen.binomial(n_markers, both)
    single = gen.binomial(n_markers - matched, np.minimum(single_given_not_both, 1.0))
    return pg, n_markers.astype(float), matched.astype(float), single.astype(float), gen


@settings(max_examples=40, deadline=None, derandomize=True)
@given(batch=unconditional_batches())
def test_unconditional_fit_does_not_depend_on_its_batch(batch):
    # the grid product is BLAS and only chooses each row's bracket
    pg, n_markers, matched, single, gen = batch
    xi, stat = fit_unconditional_batch(pg, n_markers, matched, single)
    perm = gen.permutation(matched.shape[0])
    xi_perm, stat_perm = fit_unconditional_batch(pg, n_markers, matched[perm], single[perm])
    assert np.array_equal(xi_perm, xi[perm]) and np.array_equal(stat_perm, stat[perm])
    subset = np.flatnonzero(gen.random(matched.shape[0]) < 0.3)
    xi_sub, stat_sub = fit_unconditional_batch(pg, n_markers, matched[subset], single[subset])
    assert np.array_equal(xi_sub, xi[subset]) and np.array_equal(stat_sub, stat[subset])
    for row in gen.choice(matched.shape[0], 5):
        xi_one, stat_one = fit_unconditional_batch(pg, n_markers, matched[row], single[row])
        assert xi_one[0] == xi[row] and stat_one[0] == stat[row]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(batch=fit_batches(), pick=st.integers(0, 10 ** 6))
def test_conditional_exceeds_does_not_depend_on_its_batch(batch, pick):
    """A pattern gets the same decision alone, in a subset and in a permuted batch.

    Only the 101-point grid is a matrix product whose rounding may depend on
    the batch, and it only picks the golden-section bracket; only an exact
    tie between two grid values could change a bracket.
    """
    pg, sizes, patterns, gen = batch
    stats = fit_conditional_batch(pg, sizes, patterns)[1]
    threshold = float(stats[pick % stats.size])
    decided = conditional_exceeds(pg, sizes, patterns, threshold)
    perm = gen.permutation(patterns.shape[0])
    assert np.array_equal(conditional_exceeds(pg, sizes, patterns[perm], threshold), decided[perm])
    subset = np.flatnonzero(gen.random(patterns.shape[0]) < 0.3)
    assert np.array_equal(conditional_exceeds(pg, sizes, patterns[subset], threshold),
                          decided[subset])
    for row in [pick % stats.size, *gen.choice(patterns.shape[0], 5)]:
        assert conditional_exceeds(pg, sizes, patterns[row], threshold)[0] == decided[row]


def test_row_slabs_give_the_results_of_one_slab(monkeypatch):
    """Batches of 1-60 rows fitted and decided in slabs of 7 rows equal one slab's results.

    The decisions take per-row sizes with zero-size columns, per-row
    thresholds at or near each row's statistic and a ``known`` mask.
    """
    gen = np.random.default_rng(36)
    cases = []
    for trial in range(40):
        n_groups, n_rows = int(gen.integers(1, 31)), int(gen.integers(1, 61))
        pg = np.sort(gen.uniform(1e-4, 0.6, n_groups))
        sizes = gen.integers(0, 5, (n_rows, n_groups)).astype(float)
        sizes[np.arange(n_rows), gen.integers(0, n_groups, n_rows)] += 1  # no empty row
        if trial % 2:
            sizes = np.broadcast_to(sizes[0], sizes.shape)
        matched = np.floor(gen.random(sizes.shape) * (sizes + 1))
        stats = fit_conditional_batch(pg, sizes if trial % 2 == 0 else sizes[0], matched)[1]
        thresholds = stats + gen.choice([0.0, -1e-9, 1e-9, -0.5, 0.5], n_rows)
        known = (stats >= thresholds) & (gen.random(n_rows) < 0.3)
        n_markers = gen.integers(1, 5000, n_groups).astype(float)
        both = gen.binomial(n_markers.astype(int), pg, (n_rows, n_groups)).astype(float)
        single = np.floor(gen.random(both.shape) * (n_markers - both + 1))
        cases.append((pg, sizes, matched, thresholds, known, n_markers, both, single))

    def results():
        out = []
        for pg, sizes, matched, thresholds, known, n_markers, both, single in cases:
            out += fit_conditional_batch(pg, sizes[0], matched)
            out += fit_conditional_batch(pg, sizes, matched)
            out.append(conditional_exceeds(pg, sizes, matched, thresholds, known))
            out.append(conditional_exceeds(pg, sizes, matched, thresholds))
            out += fit_unconditional_batch(pg, n_markers, both, single)
        return out

    one_slab = results()
    monkeypatch.setattr(inference, "_ROW_SLAB", 7)
    assert all(np.array_equal(a, b) for a, b in zip(results(), one_slab, strict=True))


@st.composite
def padded_batches(draw):
    """Rows over their own probabilities, padded to up to 30 columns with zero sizes.

    Some rows have no match and some are fully matched. Each row's
    threshold sits at, just around or far from its own statistic.
    """
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_groups = int(gen.integers(1, 31))
    pg = np.sort(gen.uniform(1e-4, 0.6, n_groups))
    n_rows = int(gen.integers(1, 80))
    sizes = gen.integers(1, 5, (n_rows, n_groups)) * (gen.random((n_rows, n_groups)) < gen.uniform(0.1, 1.0))
    sizes[np.arange(n_rows), gen.integers(0, n_groups, n_rows)] += 1  # no empty row
    sizes = sizes.astype(float)
    patterns = np.floor(gen.random(sizes.shape) * (sizes + 1))
    patterns[gen.random(n_rows) < 0.1] = 0.0
    full = gen.random(n_rows) < 0.1
    patterns[full] = sizes[full]
    return pg, sizes, patterns, gen


@settings(max_examples=40, deadline=None, derandomize=True)
@given(batch=padded_batches())
def test_rows_with_zero_size_columns_equal_their_own_one_row_calls(batch):
    pg, sizes, patterns, gen = batch
    xi, stat = fit_conditional_batch(pg, sizes, patterns)
    offsets = gen.choice([0.0, -1e-9, 1e-9, 0.5, -0.5], patterns.shape[0])
    thresholds = stat + offsets
    thresholds[offsets == 0.5] = np.nextafter(stat[offsets == 0.5], np.inf)
    decided = conditional_exceeds(pg, sizes, patterns, thresholds)
    for row in range(patterns.shape[0]):
        own = sizes[row] > 0
        args = pg[own], sizes[row, own], patterns[row, own]
        xi_one, stat_one = fit_conditional_batch(*args)
        assert (xi_one[0], stat_one[0]) == (xi[row], stat[row])
        assert conditional_exceeds(*args, thresholds[row])[0] == decided[row]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(batch=st.one_of(fit_batches(), padded_batches()), pick=st.integers(0, 10 ** 6))
def test_known_rows_are_ored_into_the_decision(batch, pick):
    """Rows known to reach the threshold: the call without the mask, OR the mask.

    Shared (G,) sizes with one threshold and per-row (K, G) sizes with one
    threshold per row, over the whole batch, a permutation and a subset.
    """
    pg, sizes, patterns, gen = batch
    stats = fit_conditional_batch(pg, sizes, patterns)[1]
    per_row = sizes.ndim == 2
    if per_row:
        thresholds = stats + gen.choice([0.0, -1e-9, 1e-9, 0.5, -0.5], stats.size)
    else:
        thresholds = float(stats[pick % stats.size])
    reach = stats >= thresholds
    for rows in (np.arange(stats.size), gen.permutation(stats.size),
                 np.flatnonzero(gen.random(stats.size) < 0.3)):
        args = (pg, sizes[rows] if per_row else sizes, patterns[rows],
                thresholds[rows] if per_row else thresholds)
        plain = conditional_exceeds(*args)
        for known in (reach[rows], reach[rows] & (gen.random(rows.size) < 0.5)):
            assert np.array_equal(conditional_exceeds(*args, known), plain | known)


def test_known_rows_take_no_refinement(monkeypatch):
    """Rows all known at their own statistics evaluate nothing past the grid."""
    gen = np.random.default_rng(3203)
    pg = np.sort(gen.uniform(1e-3, 0.4, 6))
    sizes = np.array([3.0, 1.0, 2.0, 4.0, 1.0, 2.0])
    patterns = np.floor(gen.random((400, 6)) * (sizes + 1))
    stats = fit_conditional_batch(pg, sizes, patterns)[1]
    calls = []
    loglik = inference._cond_loglik_rows
    monkeypatch.setattr(inference, "_cond_loglik_rows", lambda *a: calls.append(a) or loglik(*a))
    assert conditional_exceeds(pg, sizes, patterns, stats).all() and calls
    calls.clear()
    assert conditional_exceeds(pg, sizes, patterns, stats, np.ones(stats.size, dtype=bool)).all()
    assert not calls


def stacked_cases(gen):
    """(pg, sizes, matched, xi) with xi (2, K): shared (G,) sizes, then per-row (K, G) ones.

    The per-row sizes have 8 to 30 columns, some of zero size, so their rows
    take ``_row_sums``' per-width path. Some xi are exactly 0 or 1.
    """
    for per_row in (False, True):
        for _ in range(40):
            n_groups = int(gen.integers(8, 31) if per_row else gen.integers(1, 31))
            n_rows = int(gen.integers(1, 60))
            pg = np.sort(gen.uniform(1e-4, 0.6, n_groups))
            shape = (n_rows, n_groups) if per_row else (n_groups,)
            sizes = gen.integers(1, 6, shape) * (gen.random(shape) < gen.uniform(0.2, 1.0))
            if per_row:
                sizes[np.arange(n_rows), gen.integers(0, n_groups, n_rows)] += 1
            sizes = sizes.astype(float)
            matched = np.floor(gen.random((n_rows, n_groups)) * (sizes + 1))
            xi = gen.choice([0.0, 1.0, *gen.random(6)], (2, n_rows))
            yield pg, sizes, matched, xi


def test_stacked_kernels_equal_their_two_one_point_calls():
    gen = np.random.default_rng(311)
    for pg, sizes, matched, xi in stacked_cases(gen):
        for slopes in (False, True):
            stacked = inference._cond_loglik_rows(pg, sizes, matched, xi, slopes)
            assert stacked.shape == ((2, *xi.shape) if slopes else xi.shape)
            assert np.array_equal(stacked, np.stack([inference._cond_loglik_rows(
                pg, sizes, matched, xi[j], slopes) for j in (0, 1)], axis=-2), equal_nan=True)
        values = inference._cond_loglik_rows(pg, sizes, matched, xi)
        assert np.array_equal(inference._cond_loglik_rows(pg, sizes, matched, xi, True)[0], values)
        if sizes.ndim == 1:
            n_markers = sizes + gen.integers(0, 40, sizes.size)
            single = np.floor(gen.random(matched.shape) * (n_markers - matched + 1))
            stacked = inference._uncond_loglik_rows(pg, n_markers, matched, single, xi)
            assert np.array_equal(stacked, np.stack(
                [inference._uncond_loglik_rows(pg, n_markers, matched, single, xi[j]) for j in (0, 1)]))


def round_cases(gen):
    """(pg, sizes, matched) batches of 1 to 120 rows for the golden-section rounds.

    Shared (G,) sizes first, then per-row (K, G) ones with zero-size columns
    and 8 or more nonzero columns per row, which take ``_row_sums``'
    per-width path. Row 0 has one match, so its grid bracket often touches
    xi = 0; in a third of the batches column 0 holds 20-80 markers and row
    1 (or row 0 alone) misses one marker of another column, so its bracket
    touches xi = 1.
    """
    for per_row in (False, True):
        for case in range(36):
            n_groups = int(gen.integers(8, 20) if per_row else gen.integers(2, 16))
            n_rows = int(gen.choice([1, 1, 2, 3, 5, 12, 29, 60, 120]))
            pg = np.sort(gen.uniform(1e-3, 0.6, n_groups))
            shape = (n_rows, n_groups) if per_row else (n_groups,)
            sizes = gen.integers(1, 5, shape) * (gen.random(shape) < 0.7)
            sizes[..., :8] = np.maximum(sizes[..., :8], 1)
            if case % 3 == 0:
                sizes[..., 0] = gen.integers(20, 81)
            sizes = sizes.astype(float)
            matched = np.floor(gen.random((n_rows, n_groups)) * (sizes + 1))
            if case % 3 == 0:
                row = min(1, n_rows - 1)
                matched[row] = sizes if sizes.ndim == 1 else sizes[row]
                matched[row, int(gen.integers(1, min(8, n_groups)))] -= 1.0
            if case % 3 != 0 or n_rows > 1:
                matched[0] = 0.0
                matched[0, int(gen.integers(0, n_groups))] = 1.0
            yield pg, sizes, matched


def round_outputs(gen, pg, sizes, matched):
    """Fits, decisions at thresholds at and 1e-9 from fitted statistics, with and without ``known``."""
    xi, stat = fit_conditional_batch(pg, sizes, matched)
    out = [xi, stat]
    for shift in (-1e-9, 0.0, 1e-9):
        thresholds = stat + shift
        out.append(conditional_exceeds(pg, sizes, matched, thresholds))
        out.append(conditional_exceeds(pg, sizes, matched, float(thresholds[gen.integers(stat.size)])))
        known = (stat >= thresholds) & (gen.random(stat.size) < 0.5)
        out.append(conditional_exceeds(pg, sizes, matched, thresholds, known))
    if sizes.ndim == 1:
        n_markers = sizes + gen.integers(0, 40, sizes.size)
        single = np.floor(gen.random(matched.shape) * (n_markers - matched + 1))
        out.extend(fit_unconditional_batch(pg, n_markers, matched, single))
    return out


def test_golden_rounds_equal_the_one_step_loop(monkeypatch):
    """Fits in rounds, and decisions, are ``==`` those of one golden-section step per kernel call.

    With ``_ROUND_POINTS`` at 0 every step is one call, as before rounds.
    Fits of up to 21 rows take rounds, larger ones single steps; a
    decision's ``keep`` rule takes single steps at any size, its bound in
    a call before each.
    """
    gen = np.random.default_rng(3911)
    near_0 = near_1 = False
    golden, refined = inference._golden_max, []

    def golden_spy(loglik_rows, lo, hi, keep=None):
        sel, xi = golden(loglik_rows, lo, hi, keep)
        refined.extend([np.arange(lo.size)[sel], xi])  # which rows were refined to the end, too
        return sel, xi

    monkeypatch.setattr(inference, "_golden_max", golden_spy)
    for pg, sizes, matched in round_cases(gen):
        seed = int(gen.integers(2 ** 32))
        with monkeypatch.context() as one_step:
            one_step.setattr(inference, "_ROUND_POINTS", 0)
            want = round_outputs(np.random.default_rng(seed), pg, sizes, matched) + refined
        refined.clear()
        got = round_outputs(np.random.default_rng(seed), pg, sizes, matched) + refined
        refined.clear()
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        xi = want[0][want[1] > 0]
        near_0 |= bool((xi <= 0.02).any())
        near_1 |= bool((xi >= 0.98).any())
    assert near_0 and near_1


def test_golden_rounds_break_ties_left_and_send_nan_right(monkeypatch):
    """On log-likelihoods with plateaus and NaN, rounds walk each bracket as the one-step loop does."""
    def loglik(xi, sel=slice(None), slopes=False):
        values = np.round(-(xi - 0.3) ** 2, 3)  # plateaus: ll1 == ll2 goes left
        values[np.floor(xi * 1e4) % 7 == 0] = np.nan  # NaN goes right
        return np.stack([values, -2.0 * (xi - 0.3)]) if slopes else values

    def keep(sel, bound):
        return bound >= -0.02

    gen = np.random.default_rng(3913)
    for n_rows in (1, 2, 3, 7, 50):
        lo = gen.uniform(0.0, 0.5, n_rows)
        hi = np.minimum(lo + gen.uniform(0.001, 0.5, n_rows), 1.0)
        for rule in (None, keep):
            with monkeypatch.context() as one_step:
                one_step.setattr(inference, "_ROUND_POINTS", 0)
                want_sel, want_xi = inference._golden_max(loglik, lo, hi, rule)
            sel, xi = inference._golden_max(loglik, lo, hi, rule)
            assert np.array_equal(np.arange(n_rows)[sel], np.arange(n_rows)[want_sel])
            assert np.array_equal(xi, want_xi)


def test_one_row_fit_takes_a_few_kernel_calls(monkeypatch):
    """A one-row fit's 21 golden-section steps take four rounds, then one call for the candidates."""
    calls = []
    loglik = inference._cond_loglik_rows
    monkeypatch.setattr(inference, "_cond_loglik_rows", lambda *a: calls.append(a) or loglik(*a))
    xi, _ = fit_conditional_batch(np.array([0.01, 0.05, 0.2]), np.array([2.0, 3.0, 1.0]),
                                  np.array([[1.0, 1.0, 0.0]]))
    assert 0.0 < xi[0] < 1.0
    assert len(calls) == 5
    assert [a[3].shape for a in calls] == [(126, 1)] * 3 + [(14, 1), (2, 1)]


def test_a_decision_calls_the_kernel_for_two_points_per_row(monkeypatch):
    """Each kernel call of a null decision evaluates two points per row: bracket ends, a step or the end.

    Batches of at most 14 rows, near ties over per-row sizes, with and
    without a ``known`` mask. The root brackets' ends and every step's two
    points come with slopes, for the tangent bound, in one call each; the
    final comparison's two candidates come without. No call evaluates a
    bound of its own, one point per row or several steps' points at once.
    """
    gen = np.random.default_rng(4301)
    calls = []
    loglik = inference._cond_loglik_rows

    def spy(pg, sizes, matched, xi_rows, slopes=False):
        calls.append((np.shape(xi_rows), slopes, matched.shape[0]))
        return loglik(pg, sizes, matched, xi_rows, slopes)

    for case in range(24):
        n_groups, n_rows = int(gen.integers(2, 12)), int(gen.integers(1, 15))
        pg = np.sort(gen.uniform(1e-3, 0.5, n_groups))
        sizes = gen.integers(1, 5, (n_rows, n_groups)) * (gen.random((n_rows, n_groups)) < 0.7)
        sizes[:, 0] += 1
        sizes = sizes.astype(float)
        matched = np.floor(gen.random(sizes.shape) * (sizes + 1))
        stats = fit_conditional_batch(pg, sizes, matched)[1]
        thresholds = stats + gen.choice([0.0, -1e-9, 1e-9, 1e-3], n_rows)
        known = (stats >= thresholds) & (gen.random(n_rows) < 0.3) if case % 2 else None
        with monkeypatch.context() as patch:
            patch.setattr(inference, "_cond_loglik_rows", spy)
            decided = conditional_exceeds(pg, sizes, matched, thresholds, known)
        assert np.array_equal(decided, stats >= thresholds)
    assert any(slopes for _, slopes, _ in calls) and not all(slopes for _, slopes, _ in calls)
    assert all(xi == (2, rows) for xi, _, rows in calls)


def test_bound_tables_equal_their_outer_products():
    """A group's column for c of s markers, c * slope + s * intercept, holds l, l', the misses and the magnitude.

    At every coarse point, against one group's kernel value and slope
    (within rounding), for sizes up to 60 and p at ``PROB_FLOOR`` and
    ``PROB_CEIL``; the magnitude bounds every column's |l| + |l'| / 10.
    """
    gen = np.random.default_rng(3912)
    pg = np.sort(np.concatenate([gen.uniform(1e-3, 0.9, 7), [PROB_FLOOR, PROB_CEIL]]))
    slope, intercept = inference.bound_tables(pg)
    assert slope.shape == intercept.shape == (22, pg.size)
    for g, size in enumerate([1.0, 3.0, 60.0, 7.0, 12.0, 1.0, 2.0, 60.0, 5.0]):
        matched = np.arange(size + 1.0)
        table = np.outer(slope[:, g], matched) + np.outer(intercept[:, g], np.full(matched.size, size))
        for j, xi in enumerate(inference._COARSE):
            want = inference._cond_loglik_rows(pg[g:g + 1], np.array([size]), matched[:, None],
                                               np.full(matched.size, xi), True)
            scale = 1e-12 * table[inference._MAGNITUDE]
            assert np.all(np.abs(table[j] - want[0]) <= scale)
            assert np.all(np.abs(table[inference._SLOPES][j] - want[1]) <= scale)
            assert np.all(np.abs(want[0]) + 0.1 * np.abs(want[1]) <= table[inference._MAGNITUDE])
        assert np.array_equal(table[inference._MISSES], size - matched)


def test_the_conditional_log_likelihood_is_concave():
    """l' is non-increasing on 2,001 points in [0, 1) over random rows, and l' is l's derivative.

    Rows over up to 12 groups of up to 60 markers, some at ``PROB_FLOOR``
    or ``PROB_CEIL``, some without a match or fully matched; l' agrees
    with central differences of l at interior points.
    """
    gen = np.random.default_rng(4701)
    xi = np.arange(2001) / 2001.0
    for case in range(60):
        n_groups = int(gen.integers(1, 13))
        pg = gen.uniform(1e-3, 0.9, n_groups)
        pg[gen.random(n_groups) < 0.2] = PROB_FLOOR
        pg[gen.random(n_groups) < 0.1] = PROB_CEIL
        pg = np.unique(pg)
        sizes = gen.integers(1, 61, pg.size).astype(float)
        matched = np.floor(gen.random((4, pg.size)) * (sizes + 1))
        matched[1], matched[2] = 0.0, sizes
        rows = np.repeat(matched, xi.size, axis=0)
        l, d = inference._cond_loglik_rows(pg, sizes, rows, np.tile(xi, 4), True).reshape(2, 4, xi.size)
        magnitude = sizes @ inference.bound_tables(pg)[1][inference._MAGNITUDE]
        assert np.all(np.diff(d, axis=1) <= 1e-12 * magnitude * (1.0 / (1.0 - xi[1:])))
        # log1p(-q) at PROB_CEIL keeps about 10 digits, too few for differences
        h, inner, fine = 2e-5, xi[(xi > 0.01) & (xi < 0.99)][::50], pg < PROB_CEIL
        for row in matched[:, fine]:
            at = np.concatenate([inner + k * h for k in (-2, -1, 1, 2)])
            ends = inference._cond_loglik_rows(pg[fine], sizes[fine], np.tile(row, (at.size, 1)), at)
            ends = ends.reshape(4, -1)
            central = (ends[0] - 8.0 * ends[1] + 8.0 * ends[2] - ends[3]) / (12.0 * h)
            slope = inference._cond_loglik_rows(pg[fine], sizes[fine], np.tile(row, (inner.size, 1)), inner,
                                                True)[1]
            rounding = 1e-13 * np.abs(ends).max() / h  # of differences of sums of that size
            assert np.all(np.abs(slope - central) <= 1e-6 * np.abs(slope) + rounding)


def test_a_miss_makes_l_and_its_slope_minus_inf_at_xi_1():
    """At xi = 1 a row with a miss has l = l' = -inf, a fully matched row l = 0 and l' > 0."""
    pg = np.array([PROB_FLOOR, 0.05, 0.4, PROB_CEIL])
    sizes = np.array([3.0, 60.0, 2.0, 1.0])
    matched = np.array([sizes, sizes - [0, 1, 0, 0], sizes - [0, 0, 0, 1], np.zeros(4)])
    l, d = inference._cond_loglik_rows(pg, sizes, matched, np.ones(4), True)
    assert l[0] == 0.0 and 0.0 < d[0] < np.inf
    assert np.all(l[1:] == -np.inf) and np.all(d[1:] == -np.inf)


def settle_rows(values, slopes, misses):
    """(22, K) table sums with the given l and l' at the coarse points, the misses and no magnitude."""
    return np.vstack([values, slopes, misses, np.zeros_like(misses)])


def test_settle_bounds_l_where_its_first_slope_turns_negative():
    """The bound comes from the first coarse point with l' < 0 and the one before it, not a later turn.

    Row 0's slopes turn negative at xi = 0.1 and back: the tangents at 0 and
    0.1 meet at 0.05 above l(0), so the bound is l(0) + 0.05. Row 1 rises to
    0.9 with a miss: the tangent at 0.9 bounds it, l(0.9) + 0.1 l'(0.9). Row
    2 rises to 0.9 without a miss: l(1) = 0 bounds it, and proves it extreme.
    Row 3 falls from 0: its statistic is 0.
    """
    flat = np.full(10, -10.0)
    values = np.column_stack([flat, flat, flat, flat])
    slopes = np.column_stack([[1.0, -1.0] + [5.0] * 8, np.full(10, 2.0), np.full(10, 2.0), np.full(10, -1.0)])
    sums = settle_rows(values, slopes, np.array([3.0, 1.0, 0.0, 2.0]))
    for row, bound in enumerate([0.05, 0.2, 10.0, 0.0]):
        one = sums[:, row:row + 1]
        for threshold in (bound - 1e-3, bound + 1e-3):
            extreme, open_rows = settle_by_bounds(one, threshold)
            ruled_out = not extreme[0] and open_rows.size == 0
            assert ruled_out == (threshold > bound), (row, threshold)
            assert extreme[0] == (threshold <= 0.0 or (row == 2 and threshold <= 10.0)), (row, threshold)
    extreme, open_rows = settle_by_bounds(sums, np.array([0.06, 0.21, 10.1, 1e-3]))
    assert not extreme.any() and open_rows.size == 0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(batch=st.one_of(pattern_batches(), fit_batches().map(lambda b: b[:3])),
       pick=st.integers(0, 10 ** 6))
def test_bound_tables_settle_only_what_the_fit_decides(batch, pick):
    pg, sizes, patterns = batch
    stats = fit_conditional_batch(pg, sizes, patterns)[1]
    bounds = table_sums(pg, sizes, patterns)
    s = float(stats[pick % stats.size])
    for threshold in (s, s - 1e-9, s + 1e-9, np.nextafter(s, np.inf), np.nextafter(s, -np.inf), 0.0):
        extreme, open_rows = settle_by_bounds(bounds, threshold)
        ruled_out = ~extreme
        ruled_out[open_rows] = False
        assert (stats[extreme] >= threshold).all(), threshold
        assert (stats[ruled_out] < threshold).all(), threshold


def test_bound_tables_settle_rows_without_match_and_fully_matched():
    pg = np.array([0.004, 0.019, 0.081])
    sizes = np.array([9.0, 1.0, 2.0])
    patterns = np.array([[0.0, 0.0, 0.0], sizes])
    stats = fit_conditional_batch(pg, sizes, patterns)[1]
    assert stats[0] == 0.0 and stats[1] > 10.0
    bounds = table_sums(pg, sizes, patterns)
    for threshold, extreme_rows in ((-1.0, [0, 1]), (1.0, [1]), (stats[1] + 1e-9, [])):
        extreme, open_rows = settle_by_bounds(bounds, threshold)
        assert np.flatnonzero(extreme).tolist() == extreme_rows and open_rows.size == 0
