from fractions import Fraction

import numpy as np
import pytest

from clonality.priors import FrequencyRecord, estimate_marginal_probability


def test_never_seen_mutation_gets_one_over_cohort():
    # not in the reference cohort of 249, observed once in a 1-case study
    record = FrequencyRecord("XPA G74V", ref_mutated=0, ref_total=249,
                             study_mutated=1, study_total=1)
    assert estimate_marginal_probability(record) == 1.0 / 250.0
    assert estimate_marginal_probability(record) == float("0.004")


def test_pooled_fraction_example():
    record = FrequencyRecord("KRAS G12D", 20, 248, 0, 1)
    assert estimate_marginal_probability(record) == 20.0 / 249.0
    assert estimate_marginal_probability(record) == pytest.approx(0.0803, abs=5e-5)


def test_degenerate_all_mutated_clamps_high():
    record = FrequencyRecord("X", 50, 50)
    assert estimate_marginal_probability(record) == 1.0 - 1e-6


def test_zero_denominator_rejected():
    record = FrequencyRecord("X", 0, 0, 0, 0)
    with pytest.raises(ValueError, match="no cohort observations"):
        estimate_marginal_probability(record)


def test_zero_numerator_warns_and_floors():
    record = FrequencyRecord("X", 0, 249, 0, 1)
    with pytest.warns(RuntimeWarning, match="floored"):
        assert estimate_marginal_probability(record) == 1e-6


def test_record_validation():
    with pytest.raises(ValueError):
        FrequencyRecord("X", 5, 3)
    with pytest.raises(ValueError):
        FrequencyRecord("X", -1, 3)
    with pytest.raises(ValueError):
        FrequencyRecord("", 1, 3)


def test_estimate_monotonicity():
    gen = np.random.default_rng(2)
    for _ in range(50):
        total = int(gen.integers(10, 500))
        mutated = int(gen.integers(1, total))
        base = estimate_marginal_probability(FrequencyRecord("X", mutated, total))
        more_hits = estimate_marginal_probability(FrequencyRecord("X", mutated + 1, total + 1))
        bigger_cohort = estimate_marginal_probability(FrequencyRecord("X", mutated, total + 25))
        assert more_hits >= base
        assert bigger_cohort <= base


def test_estimate_equals_pooled_rational():
    gen = np.random.default_rng(3)
    for _ in range(100):
        ref_total = int(gen.integers(1, 1000))
        ref_mut = int(gen.integers(1, ref_total + 1))
        study_total = int(gen.integers(0, 20))
        study_mut = int(gen.integers(0, study_total + 1)) if study_total else 0
        record = FrequencyRecord("X", ref_mut, ref_total, study_mut, study_total)
        exact = Fraction(ref_mut + study_mut, ref_total + study_total)
        if 1e-6 <= exact <= 1 - Fraction(1, 10**6):
            assert estimate_marginal_probability(record) == float(exact)
