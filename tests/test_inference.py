import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonality.inference import (
    ConditionalData,
    UnconditionalSummary,
    conditional_exceeds,
    conditional_log_likelihood,
    conditional_statistic,
    fit_conditional_batch,
    group_by_probability,
    match_weight,
    mle_xi_conditional,
    unconditional_log_likelihood,
    unconditional_statistic,
    weight_form_statistic,
)


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
    single = ConditionalData.from_pairs([(0.081, True)])
    assert conditional_log_likelihood(single, 0.0) == pytest.approx(
        math.log(0.081 / 1.919), rel=1e-12
    )
    assert conditional_log_likelihood(single, 1.0) == 0.0

    unmatched = ConditionalData.from_pairs([(0.1, False)])
    assert conditional_log_likelihood(unmatched, 1.0) == -math.inf


def test_conditional_log_likelihood_empty():
    with pytest.raises(ValueError):
        conditional_log_likelihood(ConditionalData(()), 0.5)


def test_mle_boundary_short_circuits():
    no_match = ConditionalData.from_pairs([(0.1, False), (0.02, False)])
    assert mle_xi_conditional(no_match) == 0.0
    all_match = ConditionalData.from_pairs([(0.1, True), (0.02, True)])
    assert mle_xi_conditional(all_match) == 1.0


def test_mle_agrees_with_grid_oracle_on_case_data():
    xi_hat = mle_xi_conditional(TABLE1_MUCINOUS)
    oracle_xi, oracle_ll = oracle_grid_mle(TABLE1_MUCINOUS.markers)
    assert xi_hat == pytest.approx(oracle_xi, abs=1e-4)
    # the fitted likelihood dominates every grid point
    assert oracle_cond_loglik(TABLE1_MUCINOUS.markers, xi_hat) >= oracle_ll - 1e-10


def test_mle_agrees_with_grid_oracle_randomized():
    gen = np.random.default_rng(20240817)
    for _ in range(40):
        data = random_mixed_data(gen)
        xi_hat = mle_xi_conditional(data)
        oracle_xi, oracle_ll = oracle_grid_mle(data.markers)
        assert xi_hat == pytest.approx(oracle_xi, abs=1e-4)
        assert oracle_cond_loglik(data.markers, xi_hat) >= oracle_ll - 1e-10


def test_conditional_statistic_single_match():
    fit = conditional_statistic(ConditionalData.from_pairs([(0.081, True)]))
    assert fit.xi_hat == 1.0
    assert fit.statistic == pytest.approx(math.log(1.919 / 0.081), rel=1e-12)
    assert fit.statistic == pytest.approx(3.165, abs=1e-3)


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
    for xi in (0.05, 0.3, 0.7, 0.95):
        weights = [match_weight(p, xi) for p in np.linspace(0.005, 0.95, 40)]
        assert all(b < a for a, b in zip(weights, weights[1:]))
    with pytest.raises(ValueError):
        match_weight(0.1, 1.0)


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
    value = unconditional_log_likelihood(UnconditionalSummary(groups), 0.0)
    expected = 0.0
    for p, n, m, s in groups:
        expected += m * math.log(p * p) + s * math.log(2 * p * (1 - p))
        expected += (n - m - s) * math.log((1 - p) ** 2)
    assert value == pytest.approx(expected, rel=1e-12)


def test_unconditional_loglik_single_group_example():
    summary = UnconditionalSummary(((0.1, 1, 1, 0),))
    assert unconditional_log_likelihood(summary, 0.25) == pytest.approx(
        math.log(0.0325), rel=1e-12
    )


def test_unconditional_statistic_all_null_matches_grid_oracle():
    summary = UnconditionalSummary(((0.1, 5, 0, 0),))
    fit = unconditional_statistic(summary)
    oracle_xi, oracle_ll = oracle_uncond_grid(summary.groups)
    assert fit.statistic >= 0.0
    assert fit.xi_hat == pytest.approx(oracle_xi, abs=1e-4)
    assert fit.statistic == pytest.approx(
        oracle_ll - oracle_uncond_loglik(summary.groups, 0.0), abs=1e-4
    )


def test_unconditional_statistic_all_matched_hits_boundary():
    summary = UnconditionalSummary(((0.1, 3, 3, 0), (0.02, 4, 4, 0)))
    assert unconditional_statistic(summary).xi_hat == 1.0


def test_unconditional_statistic_simulated_pair_vs_oracle():
    # one tumor pair from the mean-5 universe shape, counts fixed by seed
    gen = np.random.default_rng(123)
    groups = []
    for p, n in ((0.1, 10), (4.0 / 9990.0, 9990)):
        both = p * p
        one = 2 * p * (1 - p)
        draws = gen.multinomial(n, [both, one, 1 - both - one])
        groups.append((p, n, int(draws[0]), int(draws[1])))
    summary = UnconditionalSummary(tuple(groups))
    fit = unconditional_statistic(summary)
    oracle_xi, oracle_ll = oracle_uncond_grid(summary.groups)
    assert fit.statistic == pytest.approx(
        oracle_ll - oracle_uncond_loglik(summary.groups, 0.0), abs=1e-4
    )
    assert fit.xi_hat == pytest.approx(oracle_xi, abs=1e-4)


def test_group_by_probability_sums_columns():
    pg, n, matched = group_by_probability([0.1, 0.004, 0.1, 0.02], [1, 2, 3, 4], [1, 0, 1, 1])
    assert pg.tolist() == [0.004, 0.02, 0.1]
    assert n.tolist() == [2.0, 4.0, 4.0]
    assert matched.tolist() == [0.0, 1.0, 2.0]
    for bad in ([], [0.1, 0.0], [1.0], [float("nan")]):
        with pytest.raises(ValueError):
            group_by_probability(bad, [1] * len(bad))


def test_unconditional_summary_validation():
    with pytest.raises(ValueError):
        UnconditionalSummary(((0.1, 2, 2, 1),))  # matched + single > n


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
