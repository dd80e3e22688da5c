"""Acceptance suite: one test per release criterion, at its stated tolerance.

The heavy scenario runs share a module-scoped cache so each configuration is
simulated once. All runs are deterministic under the fixed root seed.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from clonality.inference import ConditionalData, conditional_statistic
from clonality.model import MutationProfile, PairObservation, derive_pair_observation
from clonality.nullref import conditional_test, exact_conditional_null, p_value, sample_conditional_null
from clonality.rng import RngStream
from clonality.simulation import (
    normal_quantile,
    preset_scenario,
    run_calibrated_comparison,
    run_size_power,
)

from conftest import independent_pairs

SEED = 20250808
REPLICATES = 500
SIMS = 2000

# analytic per-tumor mutation means and match means for the three universes
UNIVERSES = {
    "table2-m5": ((0.1, 10), (4.0 / 9990.0, 9990)),
    "table2-m10": ((0.1, 20), (8.0 / 9980.0, 9980)),
    "table2-m20": ((0.1, 40), (16.0 / 9960.0, 9960)),
}


def sum_p(preset):
    return sum(p * n for p, n in UNIVERSES[preset])


def sum_p_sq(preset):
    return sum(p * p * n for p, n in UNIVERSES[preset])


def note(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


@pytest.fixture(scope="module")
def harness():
    cache = {}

    def scaled(preset, xi):
        return dataclasses.replace(
            preset_scenario(preset, xi), replicates=REPLICATES, sims=SIMS
        )

    def power(preset, xi):
        key = ("power", preset, xi)
        if key not in cache:
            cache[key] = run_size_power(scaled(preset, xi), RngStream(SEED))
        return cache[key]

    def comparison(preset, xi):
        key = ("comparison", preset, xi)
        if key not in cache:
            cache[key] = run_calibrated_comparison(scaled(preset, xi), RngStream(SEED))
        return cache[key]

    return power, comparison


# -------------------------------------------------------------------------
# Criterion 1: published case p-values, exact mode, < 1 s.
# -------------------------------------------------------------------------

def test_criterion_1_published_case_pvalues(table1, table5):
    start = time.perf_counter()
    tumors1, catalog1 = table1
    tumors5, catalog5 = table5

    def test_pair(tumors, catalog, a, b):
        obs = derive_pair_observation(
            MutationProfile(a, frozenset(tumors[a])),
            MutationProfile(b, frozenset(tumors[b])),
            catalog,
        )
        return conditional_test(obs)

    kras_only = conditional_test(
        PairObservation(shared=(("KRAS G12D", 0.081),), unshared=())
    )
    assert kras_only.method == "exact"
    assert kras_only.p_value == pytest.approx(0.0422, abs=1e-3)

    mucinous = test_pair(tumors1, catalog1, "T3", "Left/Mucinous")
    assert mucinous.method == "exact"
    assert mucinous.p_value == pytest.approx(0.063, abs=4e-3)

    tubular = test_pair(tumors1, catalog1, "T3", "Left/Tubular")
    assert tubular.p_value == pytest.approx(0.067, abs=4e-3)

    p6_p1 = test_pair(tumors5, catalog5, "P6", "P1")
    assert p6_p1.p_value == pytest.approx(0.018, abs=4e-3)
    assert p6_p1.p_value <= 0.025

    metastases = ("B1", "M5", "M38", "M40")
    met_ps = []
    for i, first in enumerate(metastases):
        for second in metastases[i + 1:]:
            met_ps.append(test_pair(tumors5, catalog5, first, second).p_value)
    assert max(met_ps) < 0.001

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    note(1, f"0.0422 / {mucinous.p_value:.4f} / {tubular.p_value:.4f} / "
            f"{p6_p1.p_value:.4f} / max metastasis p {max(met_ps):.2e} "
            f"in {elapsed:.2f}s")


# -------------------------------------------------------------------------
# Criterion 2: Monte Carlo agrees with exact enumeration, < 1 min.
# -------------------------------------------------------------------------

def test_criterion_2_exact_vs_monte_carlo():
    start = time.perf_counter()
    n_sims = 200_000
    gen = np.random.default_rng(SEED)
    worst = 0.0
    for instance in range(50):
        m = int(gen.integers(1, 13))
        ps = list(gen.uniform(0.005, 0.3, size=m))
        matched = gen.random(m) < 0.35
        data = ConditionalData.from_pairs(zip(ps, matched))
        observed = conditional_statistic(data).statistic

        exact_p = p_value(observed, exact_conditional_null(ps))
        mc_p = p_value(
            observed, sample_conditional_null(ps, n_sims, RngStream(SEED, instance))
        )
        tolerance = 4.0 * math.sqrt(exact_p * (1.0 - exact_p) / n_sims)
        assert abs(mc_p - exact_p) <= tolerance, (
            f"instance {instance}: exact {exact_p} vs MC {mc_p}"
        )
        if tolerance > 0:
            worst = max(worst, abs(mc_p - exact_p) / tolerance)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    note(2, f"50 instances, worst |MC-exact| at {worst:.2f} of tolerance, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# Criterion 3: size validity on the scaled-down universes.
# -------------------------------------------------------------------------

def test_criterion_3_size_validity(harness):
    power, _ = harness
    bound = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / REPLICATES)
    sizes = {}
    for preset in ("table2-m5", "table2-m10", "table2-m20"):
        report = power(preset, 0.0)
        sizes[preset] = report.rejection_rate
        assert report.rejection_rate <= bound
        # randomization calibration pins the null rate at alpha exactly
        assert report.calibrated_rejection_rate == pytest.approx(0.05, abs=1e-12)
    note(3, f"sizes {sizes} all <= {bound:.3f}")


# -------------------------------------------------------------------------
# Criterion 4: power against the published operating characteristics.
# -------------------------------------------------------------------------

def test_criterion_4_power(harness):
    power, comparison = harness
    m10 = power("table2-m10", 0.25)
    assert m10.rejection_rate == pytest.approx(0.89, abs=0.06)
    m20 = power("table2-m20", 0.1)
    assert m20.rejection_rate == pytest.approx(0.81, abs=0.06)

    m5 = comparison("table2-m5", 0.25)
    gap = abs(m5.calibrated_conditional_power - m5.calibrated_unconditional_power)
    assert gap <= 0.05
    note(4, f"power m10/0.25 {m10.rejection_rate:.3f}, m20/0.1 {m20.rejection_rate:.3f}; "
            f"calibrated cond {m5.calibrated_conditional_power:.3f} vs "
            f"uncond {m5.calibrated_unconditional_power:.3f} (gap {gap:.3f})")


# -------------------------------------------------------------------------
# Criterion 5: matching-mutation means.
# -------------------------------------------------------------------------

def test_criterion_5_mean_matches(harness):
    power, _ = harness
    printed_null_means = {"table2-m5": 0.10, "table2-m10": 0.21, "table2-m20": 0.45}
    for preset, printed in printed_null_means.items():
        report = power(preset, 0.0)
        expected = sum_p_sq(preset)
        # match count is a sum of rare indicators: variance ~ its mean
        se = math.sqrt(expected / REPLICATES)
        assert abs(report.mean_matches - expected) <= 4.0 * se
        assert printed == pytest.approx(expected, abs=0.03)

    for preset, xi in (("table2-m10", 0.25), ("table2-m20", 0.1)):
        report = power(preset, xi)
        analytic = xi * sum_p(preset) + (1.0 - xi) * sum_p_sq(preset)
        assert abs(report.mean_matches - analytic) <= 0.15
    note(5, "null means track sum(p^2), clonal means track xi*sum(p)+(1-xi)*sum(p^2)")


# -------------------------------------------------------------------------
# Criterion 6: misspecified probabilities.
# -------------------------------------------------------------------------

def test_criterion_6_misspecification(harness):
    power, _ = harness
    inflated = power("table3-inflate", 0.1)
    assert inflated.rejection_rate == pytest.approx(0.37, abs=0.07)

    inflated_null = power("table3-inflate", 0.0)
    assert inflated_null.rejection_rate <= 0.01 + 3.0 * math.sqrt(0.01 * 0.99 / REPLICATES)

    noisy = power("table3-noise", 0.1)
    true_run = power("table2-m10", 0.1)
    drift = abs(noisy.rejection_rate - true_run.rejection_rate)
    assert drift <= 0.05
    note(6, f"inflation power {inflated.rejection_rate:.3f} (size "
            f"{inflated_null.rejection_rate:.3f}); noise drift {drift:.3f}")


# -------------------------------------------------------------------------
# Criterion 7: correlated markers.
# -------------------------------------------------------------------------

def test_criterion_7_correlation(harness):
    power, _ = harness
    exclusive = power("table4-exclusive", 0.1)
    uncorrelated = power("table2-m10", 0.1)
    gap = abs(exclusive.rejection_rate - uncorrelated.rejection_rate)
    assert gap <= 0.07

    high_corr = power("table4-corr(0.9)", 0.1)
    assert high_corr.rejection_rate == pytest.approx(0.40, abs=0.07)
    note(7, f"exclusive {exclusive.rejection_rate:.3f} vs uncorrelated "
            f"{uncorrelated.rejection_rate:.3f}; rho=0.9 power {high_corr.rejection_rate:.3f}")


# -------------------------------------------------------------------------
# Criterion 8: condensed property suites.
# -------------------------------------------------------------------------

def test_criterion_8_property_suites():
    # generator marginal preservation (independent groups, three signals)
    n, size = 20, 100_000
    for p, xi in ((0.1, 0.0), (0.05, 0.25), (0.1, 1.0)):
        gen = RngStream(SEED, 1000 + int(100 * p) + int(10 * xi)).generator()
        matched, a_only, b_only = independent_pairs(gen, n, p, xi, size)
        counts = matched + a_only
        tol = 4.0 * counts.std() / math.sqrt(size) / n
        assert abs(counts.mean() / n - p) <= tol + 1e-12

    # q-form statistic equals printed weight form for interior MLEs
    from clonality.inference import weight_form_statistic

    gen = np.random.default_rng(SEED + 1)
    checked = 0
    while checked < 200:
        m = int(gen.integers(2, 13))
        data = ConditionalData.from_pairs(
            zip(gen.uniform(0.005, 0.5, m), np.append(gen.random(m - 2) < 0.4, [True, False]))
        )
        fit = conditional_statistic(data)
        if not (0.0 < fit.xi_hat < 1.0):
            continue
        assert fit.statistic == pytest.approx(
            weight_form_statistic(data, fit.xi_hat), abs=1e-9
        )
        checked += 1

    # MLE against a 10,001-point grid oracle
    def oracle(markers):
        best_xi, best_ll = 0.0, -math.inf
        for i in range(10001):
            xi = i / 10000.0
            ll = 0.0
            for p, x in markers:
                q = min((p + xi * (1 - p)) / ((2 - p) - xi * (1 - p)), 1.0)
                if x:
                    ll += math.log(q)
                elif q == 1.0:
                    ll = -math.inf
                    break
                else:
                    ll += math.log1p(-q)
            if ll > best_ll:
                best_xi, best_ll = xi, ll
        return best_xi

    gen = np.random.default_rng(SEED + 2)
    for _ in range(10):
        m = int(gen.integers(2, 10))
        data = ConditionalData.from_pairs(
            zip(gen.uniform(0.01, 0.5, m), np.append(gen.random(m - 2) < 0.4, [True, False]))
        )
        assert conditional_statistic(data).xi_hat == pytest.approx(oracle(data.markers), abs=1e-4)

    # normal quantile accuracy
    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    for u in np.concatenate([[1e-10, 1e-6], np.linspace(0.01, 0.99, 197), [1 - 1e-6, 1 - 1e-10]]):
        assert abs(cdf(normal_quantile(float(u))) - u) <= 1e-9

    # determinism under varying worker counts
    spec = dataclasses.replace(preset_scenario("table2-m5", 0.25), replicates=30, sims=300)
    assert run_size_power(spec, RngStream(SEED), threads=1) == run_size_power(
        spec, RngStream(SEED), threads=3
    )
    note(8, "marginals, statistic identity, MLE oracle, quantile accuracy, thread determinism")
