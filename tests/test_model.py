import re
import struct

import numpy as np
import pytest

from clonality.errors import CatalogMissError
from clonality.model import (
    PROB_CEIL,
    PROB_FLOOR,
    MarkerCatalog,
    MutationProfile,
    PairObservation,
    clamp_probability,
    derive_pair_observation,
    match_probabilities,
    outcome_cells,
    validate_probability,
    validate_xi,
)


def test_catalog_clamps_probabilities():
    cat = MarkerCatalog({"a": 1e-12, "b": 1.0, "c": 0.081})
    assert cat.probability("a") == 1e-6
    assert cat.probability("b") == 1.0 - 1e-6
    assert cat.probability("c") == 0.081


def test_catalog_rejects_bad_entries():
    with pytest.raises(ValueError):
        MarkerCatalog({"": 0.1})
    with pytest.raises(ValueError):
        MarkerCatalog({"a": float("nan")})


# the clamps, their float neighbours, signed zeros and subnormals, values past
# the unit interval, and a numpy float and an int
CATALOG_EDGES = [
    (PROB_FLOOR, PROB_FLOOR), (PROB_CEIL, PROB_CEIL),
    (np.nextafter(PROB_FLOOR, 0.0), PROB_FLOOR), (np.nextafter(PROB_FLOOR, 1.0), np.nextafter(PROB_FLOOR, 1.0)),
    (np.nextafter(PROB_CEIL, 0.0), np.nextafter(PROB_CEIL, 0.0)), (np.nextafter(PROB_CEIL, 1.0), PROB_CEIL),
    (-0.0, PROB_FLOOR), (0.0, PROB_FLOOR), (5e-324, PROB_FLOOR), (1e-310, PROB_FLOOR), (-5e-324, PROB_FLOOR),
    (1.0, PROB_CEIL), (1.5, PROB_CEIL), (-3.0, PROB_FLOOR), (np.float64(0.081), 0.081), (1, PROB_CEIL),
]


def test_catalog_clamps_each_edge_value_as_clamp_probability_does():
    cat = MarkerCatalog({f"m{k}": value for k, (value, _) in enumerate(CATALOG_EDGES)})
    assert list(cat.probabilities) == [f"m{k}" for k in range(len(CATALOG_EDGES))]
    for k, (value, expected) in enumerate(CATALOG_EDGES):
        got = cat.probability(f"m{k}")
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", expected) == struct.pack(
            "<d", clamp_probability(value)), (value, got)


@pytest.mark.parametrize("entries, message", [
    ({"": 0.1}, "marker ids must be nonempty strings"),
    ({"a": float("nan")}, "probability must be finite, got nan"),
    ({"a": 0.1, "b": float("inf"), "": 0.2}, "probability must be finite, got inf"),
    ({"a": 0.1, "": float("nan")}, "marker ids must be nonempty strings"),
    ({"a": -np.inf, "b": np.nan}, "probability must be finite, got -inf"),
], ids=["empty-id", "nan", "inf-before-empty-id", "empty-id-with-nan", "minus-inf-before-nan"])
def test_catalog_raises_at_its_first_bad_entry(entries, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MarkerCatalog(entries)


def test_catalog_miss_names_marker():
    cat = MarkerCatalog({"KRAS G12D": 0.081})
    with pytest.raises(CatalogMissError, match="BRAF V600E"):
        cat.probability("BRAF V600E")


def test_clamp_rejects_nonfinite():
    with pytest.raises(ValueError):
        clamp_probability(float("inf"))


T3 = MutationProfile("T3", {"KRAS G12D", "XPA G74V", "PIK3CA Q546P",
                            "FBXW7 R465C", "APC R283*", "APC R499*"})
MUCINOUS = MutationProfile("Left/Mucinous", {"KRAS G12D", "IKZF1 M301I",
                                             "PRKDC R364H", "ZNF521 L1136V", "ALK E405*"})
CASE_CATALOG = MarkerCatalog({
    "KRAS G12D": 0.081, "XPA G74V": 0.004, "PIK3CA Q546P": 0.004,
    "FBXW7 R465C": 0.004, "APC R283*": 0.004, "APC R499*": 0.004,
    "IKZF1 M301I": 0.004, "PRKDC R364H": 0.004, "ZNF521 L1136V": 0.004,
    "ALK E405*": 0.004,
})


@pytest.mark.parametrize("value, message", [
    (True, "must be a number, got True"), ("0.1", "must be a number, got '0.1'"),
    (None, "must be a number, got None"), (float("nan"), "must be finite, got nan"),
    (float("inf"), "must be finite, got inf"),
], ids=["bool", "str", "None", "nan", "inf"])
def test_scalar_validators_refuse_non_numbers(value, message):
    with pytest.raises(ValueError, match=f"^p {re.escape(message)}"):
        validate_probability(value)
    with pytest.raises(ValueError, match=f"^xi {re.escape(message)}"):
        validate_xi(value)


def test_scalar_validators_take_numbers_in_range():
    assert validate_probability(np.float64(0.25)) == 0.25 and validate_probability(0.5, "q") == 0.5
    assert validate_xi(0) == 0.0 and type(validate_xi(1)) is float
    with pytest.raises(ValueError, match="strictly inside"):
        validate_probability(1)
    with pytest.raises(ValueError, match=r"in \[0, 1\]"):
        validate_xi(1.5)


def test_derive_pair_observation_colon_lung_case():
    obs = derive_pair_observation(T3, MUCINOUS, CASE_CATALOG)
    assert obs.shared == (("KRAS G12D", 0.081),)
    assert len(obs.unshared) == 9
    assert all(p == 0.004 for _, p in obs.unshared)
    assert obs.union_size == 10
    assert obs.n_matches == 1


def test_derive_pair_observation_identity_and_disjoint():
    cat = MarkerCatalog({"X": 0.1, "Y": 0.2})
    same = derive_pair_observation(MutationProfile("a", {"X"}),
                                   MutationProfile("b", {"X"}), cat)
    assert same.shared == (("X", 0.1),)
    assert same.unshared == ()
    assert same.union_size == 1

    disjoint = derive_pair_observation(MutationProfile("a", {"X"}),
                                       MutationProfile("b", {"Y"}), cat)
    assert disjoint.shared == ()
    assert disjoint.union_size == 2


def test_derive_pair_observation_unknown_marker():
    cat = MarkerCatalog({"X": 0.1})
    with pytest.raises(CatalogMissError, match="'Z'"):
        derive_pair_observation(MutationProfile("a", {"X"}),
                                MutationProfile("b", {"Z"}), cat)


def test_derive_pair_observation_symmetric():
    gen = np.random.default_rng(1)
    markers = [f"m{i}" for i in range(30)]
    cat = MarkerCatalog({m: p for m, p in zip(markers, gen.uniform(0.01, 0.4, 30))})
    for _ in range(25):
        mut_a = frozenset(gen.choice(markers, size=gen.integers(0, 10), replace=False))
        mut_b = frozenset(gen.choice(markers, size=gen.integers(0, 10), replace=False))
        a, b = MutationProfile("a", mut_a), MutationProfile("b", mut_b)
        assert derive_pair_observation(a, b, cat) == derive_pair_observation(b, a, cat)


def test_pair_observation_rejects_overlap():
    with pytest.raises(ValueError):
        PairObservation(shared=(("X", 0.1),), unshared=(("X", 0.1),))


def test_pair_outcome_probabilities_examples():
    both, exactly_one, neither = outcome_cells(0.1, 0.0)
    assert both == pytest.approx(0.01, rel=1e-12)
    assert exactly_one == pytest.approx(0.18, rel=1e-12)
    assert neither == pytest.approx(0.81, rel=1e-12)

    both, exactly_one, neither = outcome_cells(0.1, 1.0)
    assert both == pytest.approx(0.1, rel=1e-12)
    assert exactly_one == 0.0
    assert neither == pytest.approx(0.9, rel=1e-12)

    both, exactly_one, neither = outcome_cells(0.1, 0.25)
    assert both == pytest.approx(0.0325, rel=1e-12)
    assert exactly_one == pytest.approx(0.135, rel=1e-12)
    assert neither == pytest.approx(0.8325, rel=1e-12)


def test_pair_outcome_probabilities_sum_and_marginal():
    for p in np.linspace(0.001, 0.999, 41):
        for xi in np.linspace(0.0, 1.0, 21):
            both, exactly_one, neither = outcome_cells(p, xi)
            assert min(both, exactly_one, neither) >= 0.0
            assert both + exactly_one + neither == pytest.approx(1.0, abs=1e-12)
            # each tumor's marginal mutation probability stays p
            assert both + exactly_one / 2.0 == pytest.approx(p, abs=1e-12)


def test_match_probability_examples():
    assert match_probabilities(0.081, 0.0) == pytest.approx(0.081 / 1.919, rel=1e-12)
    assert match_probabilities(0.081, 0.0) == pytest.approx(0.042, abs=5e-4)
    for p in (0.01, 0.3, 0.9):
        assert match_probabilities(p, 1.0) == 1.0
    assert match_probabilities(0.1, 0.25) == pytest.approx(0.325 / 1.675, rel=1e-12)


def test_match_probability_null_form_and_monotonicity():
    xis = np.linspace(0.0, 1.0, 51)
    for p in (0.004, 0.081, 0.3, 0.7):
        assert match_probabilities(p, 0.0) == pytest.approx(p / (2.0 - p), abs=1e-12)
        values = [match_probabilities(p, xi) for xi in xis]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_match_probability_consistent_with_outcomes():
    for p in (0.01, 0.1, 0.5):
        for xi in (0.0, 0.3, 0.9):
            both, exactly_one, _ = outcome_cells(p, xi)
            assert match_probabilities(p, xi) == pytest.approx(both / (both + exactly_one), rel=1e-12)
