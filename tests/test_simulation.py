import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from clonality import nullref, simulation
from clonality.inference import (
    ConditionalData,
    UnconditionalSummary,
    fit_unconditional_batch,
    group_by_probability,
)
from clonality.model import derive_pair_observation
from clonality.rng import RngStream
from clonality.simulation import (
    MarkerGroup,
    Perturbation,
    ScenarioSpec,
    _draw_group,
    _equicorrelated_pair_mutations,
    _exclusive_pair_cells,
    _independent_pair_counts,
    _latent_block,
    inflate_rare,
    normal_quantile,
    perturb_probabilities_logit,
    preset_scenario,
    run_calibrated_comparison,
    run_size_power,
    sample_tumor_pair,
    scenario_catalog,
    scenario_from_json_dict,
    scenario_to_json_dict,
)


def small_spec(**overrides):
    base = dict(
        groups=(
            MarkerGroup("independent", 10, 0.1),
            MarkerGroup("independent", 200, 0.005),
        ),
        xi=0.25,
        replicates=40,
        sims=400,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# --- normal quantile ----------------------------------------------------------

def test_normal_quantile_reference_points():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert normal_quantile(0.9) == pytest.approx(1.2815515655446004, abs=1e-9)
    assert normal_quantile(0.1) == pytest.approx(-1.2815515655446004, abs=1e-9)


def test_normal_quantile_accuracy_sweep():
    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    us = np.concatenate([
        [1e-12, 1e-9, 1e-6, 1e-4, 0.02425, 0.024251],
        np.linspace(0.001, 0.999, 997),
        [1 - 1e-4, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12],
    ])
    for u in us:
        assert abs(cdf(normal_quantile(float(u))) - u) <= 1e-9


def test_normal_quantile_domain():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            normal_quantile(bad)


# --- probability misspecification ------------------------------------------------

def test_perturb_logit_sigma_zero_is_identity():
    ps = [0.1, 0.004, 0.5]
    assert perturb_probabilities_logit(ps, 0.0, RngStream(1)) == ps


def test_perturb_logit_matches_formula():
    ps = [0.1, 0.02, 0.3, 0.004]
    stream = RngStream(8, 2)
    result = perturb_probabilities_logit(ps, 0.5, stream)
    eps = stream.generator().normal(0.0, 0.5, size=len(ps))
    for p, e, out in zip(ps, eps, result):
        expected = 1.0 / (1.0 + math.exp(-(math.log(p / (1 - p)) + e)))
        assert out == pytest.approx(expected, rel=1e-12)


def test_perturb_logit_is_centered():
    n = 20_000
    ps = [0.1] * n
    result = np.array(perturb_probabilities_logit(ps, 0.5, RngStream(4)))
    shifts = np.log(result / (1 - result)) - math.log(0.1 / 0.9)
    assert abs(shifts.mean()) <= 4.0 * 0.5 / math.sqrt(n)
    assert shifts.std() == pytest.approx(0.5, abs=0.02)


def test_perturb_example_value():
    # logit(0.1) + 0.5 maps back to ~0.1548
    expected = 1.0 / (1.0 + math.exp(-(math.log(0.1 / 0.9) + 0.5)))
    assert expected == pytest.approx(0.15480, abs=5e-5)


def test_inflate_rare():
    assert inflate_rare([0.0008], 10.0, 0.01)[0] == pytest.approx(0.008, rel=1e-12)
    assert inflate_rare([0.1], 10.0, 0.01) == [0.1]
    ps = [0.004, 0.1, 0.2]
    assert inflate_rare(ps, 1.0, 0.01) == ps
    assert inflate_rare([0.3], 10.0, 0.5)[0] == 1.0 - 1e-6  # capped
    with pytest.raises(ValueError):
        inflate_rare([0.1], 0.5, 0.01)


# --- group validation and presets --------------------------------------------------

def test_marker_group_validation():
    with pytest.raises(ValueError):
        MarkerGroup("exclusive-block", 10, 0.2)  # 10 * 0.2 > 1
    with pytest.raises(ValueError):
        MarkerGroup("independent", 10, 0.1, rho=0.3)
    with pytest.raises(ValueError):
        MarkerGroup("equicorrelated-block", 10, 0.1, rho=1.0)
    with pytest.raises(ValueError):
        MarkerGroup("pathway", 10, 0.1)
    for n_markers in (10.5, True):  # JSON carries floats and booleans
        with pytest.raises(ValueError, match="n_markers must be an integer"):
            MarkerGroup("independent", n_markers, 0.1)
    assert MarkerGroup("independent", np.int64(10), 0.1).n_markers == 10


def test_preset_universes_hit_target_means():
    for name, mean in (("table2-m5", 5.0), ("table2-m10", 10.0), ("table2-m20", 20.0)):
        spec = preset_scenario(name, 0.0)
        total = sum(g.n_markers * g.p for g in spec.groups)
        assert total == pytest.approx(mean, abs=1e-9)
        assert spec.n_markers == 10_000


def test_preset_block_layouts():
    spec = preset_scenario("table4-corr(0.9)", 0.1)
    common = [g for g in spec.groups if g.p == 0.1]
    rare_blocks = [g for g in spec.groups if g.kind == "equicorrelated-block" and g.p != 0.1]
    independent = [g for g in spec.groups if g.kind == "independent"]
    assert len(common) == 2 and all(g.n_markers == 10 for g in common)
    assert len(rare_blocks) == 50 and all(g.n_markers == 100 for g in rare_blocks)
    assert len(independent) == 1 and independent[0].n_markers == 4980
    assert all(g.rho == 0.9 for g in common + rare_blocks)
    assert spec.n_markers == 10_000

    excl = preset_scenario("table4-exclusive", 0.1)
    assert sum(1 for g in excl.groups if g.kind == "exclusive-block") == 52
    assert excl.n_markers == 10_000


def test_preset_perturbations():
    noise = preset_scenario("table3-noise", 0.1)
    assert noise.perturbation == Perturbation("logit-noise", sigma=0.5)
    inflate = preset_scenario("table3-inflate", 0.1)
    assert inflate.perturbation.kind == "rare-inflation"
    assert inflate.perturbation.factor == 10.0


def test_preset_unknown_name():
    # a malformed correlation is an unknown name too, not a float parse error
    for name in ("table9-m5", "table4-corr(.)", "table4-corr(0.3.3)"):
        with pytest.raises(ValueError, match=r"unknown preset .*table2-m5"):
            preset_scenario(name, 0.0)


PRESET_KINDS = ("table2-m5", "table2-m10", "table2-m20", "table3-noise", "table3-inflate",
                "table4-exclusive", "table4-corr(0.3)", "table4-corr(0.9)")


def test_scenario_json_round_trip():
    spec = preset_scenario("table4-corr(0.3)", 0.25)
    doc = scenario_to_json_dict(spec)
    assert scenario_from_json_dict(doc) == spec
    noise = dataclasses.replace(preset_scenario("table3-noise", 0.1), replicates=7)
    assert scenario_from_json_dict(scenario_to_json_dict(noise)) == noise
    for name in PRESET_KINDS:
        spec = preset_scenario(name, 0.25)
        assert scenario_from_json_dict(scenario_to_json_dict(spec)) == spec, name


def test_scenario_json_image_is_the_fields_in_order():
    spec = ScenarioSpec(
        groups=(
            MarkerGroup("independent", 50, 0.1),
            MarkerGroup("exclusive-block", 10, 0.05),
            MarkerGroup("equicorrelated-block", 8, 0.2, rho=0.5),
        ),
        xi=0.3,
        perturbation=Perturbation("rare-inflation", factor=10.0, threshold=0.02),
        replicates=7,
        sims=11,
        alpha=0.1,
    )
    expected = {
        "groups": [
            {"kind": "independent", "n_markers": 50, "p": 0.1, "rho": 0.0},
            {"kind": "exclusive-block", "n_markers": 10, "p": 0.05, "rho": 0.0},
            {"kind": "equicorrelated-block", "n_markers": 8, "p": 0.2, "rho": 0.5},
        ],
        "xi": 0.3,
        "perturbation": {"kind": "rare-inflation", "sigma": 0.0, "factor": 10.0, "threshold": 0.02},
        "replicates": 7,
        "sims": 11,
        "alpha": 0.1,
    }
    doc = scenario_to_json_dict(spec)
    assert doc == expected
    assert json.dumps(doc) == json.dumps(expected)  # key order, at every level


def test_scenario_json_defaults_and_unknown_keys():
    doc = {"groups": [{"kind": "independent", "n_markers": 5, "p": 0.1}], "xi": 0.2}
    before = copy.deepcopy(doc)
    assert scenario_from_json_dict(doc) == ScenarioSpec(
        groups=(MarkerGroup("independent", 5, 0.1, rho=0.0),),
        xi=0.2,
        perturbation=Perturbation("none", sigma=0.0, factor=1.0, threshold=0.01),
        replicates=1000,
        sims=5000,
        alpha=0.05,
    )
    typos = [
        ("replicate", {**doc, "replicate": 10}),
        ("rh0", {**doc, "groups": [{**doc["groups"][0], "rh0": 0.3}]}),
        ("sigm", {**doc, "perturbation": {"kind": "logit-noise", "sigm": 0.5}}),
    ]
    for key, typo in typos:
        with pytest.raises(TypeError, match=f"'{key}'"):
            scenario_from_json_dict(typo)
    assert doc == before


def test_scenario_json_float_fields_refuse_booleans_and_strings():
    doc = {"groups": [{"kind": "independent", "n_markers": 10, "p": 0.1}],
           "replicates": 3, "sims": 5}
    bad = [
        ("xi", {**doc, "xi": True}),
        ("xi", {**doc, "xi": "0.1"}),
        ("sigma", {**doc, "xi": 0.1, "perturbation": {"kind": "logit-noise", "sigma": True}}),
        ("alpha", {**doc, "xi": 0.1, "alpha": "0.05"}),
        ("p", {**doc, "xi": 0.1, "groups": [{**doc["groups"][0], "p": False}]}),
        ("threshold", {**doc, "xi": 0.1,
                       "perturbation": {"kind": "rare-inflation", "factor": 10, "threshold": None}}),
    ]
    for name, scenario in bad:
        with pytest.raises(ValueError, match=f"^{name} must be a number"):
            scenario_from_json_dict(scenario)
    assert scenario_from_json_dict({**doc, "xi": 0}).xi == 0  # an integer is a number


# --- generators ----------------------------------------------------------------

def test_sample_pair_fully_clonal_profiles_identical():
    spec = ScenarioSpec(
        groups=(
            MarkerGroup("independent", 50, 0.1),
            MarkerGroup("exclusive-block", 10, 0.1),
            MarkerGroup("equicorrelated-block", 10, 0.2, rho=0.5),
        ),
        xi=1.0,
        replicates=1,
        sims=1,
    )
    for k in range(20):
        a, b = sample_tumor_pair(spec, RngStream(6, k))
        assert a.mutations == b.mutations


def test_sample_pair_deterministic():
    spec = small_spec()
    a1, b1 = sample_tumor_pair(spec, RngStream(9, 1))
    a2, b2 = sample_tumor_pair(spec, RngStream(9, 1))
    assert a1 == a2 and b1 == b2


def test_exclusive_block_exactly_one_mutation_when_saturated():
    # ten cells of 0.1 leave no mass for the no-mutation cell
    spec = ScenarioSpec(groups=(MarkerGroup("exclusive-block", 10, 0.1),),
                        xi=0.0, replicates=1, sims=1)
    for k in range(50):
        a, b = sample_tumor_pair(spec, RngStream(2, k))
        assert len(a.mutations) == 1 and len(b.mutations) == 1


def test_exclusive_block_at_most_one_mutation():
    spec = ScenarioSpec(groups=(MarkerGroup("exclusive-block", 100, 0.004),),
                        xi=0.3, replicates=1, sims=1)
    for k in range(100):
        a, b = sample_tumor_pair(spec, RngStream(3, k))
        assert len(a.mutations) <= 1 and len(b.mutations) <= 1


def test_exclusive_cells_share_outcome_when_clonal():
    gen = RngStream(12).generator()
    ca, cb = _exclusive_pair_cells(gen, 10, 0.1, 1.0, 2000)
    assert np.array_equal(ca, cb)


def block_draws(gen, n, size):
    """A latent block's draws for ``size`` pairs: uniforms, then per role
    (shared, A, B) a (size, 1) factor and a (size, n) noise draw."""
    uniform = gen.random(size)
    normals = [np.hstack([gen.normal(size=(size, 1)), gen.normal(size=(size, n))]) for _ in range(3)]
    return uniform, np.stack(normals, axis=1)


def test_equicorrelated_blocks_share_outcome_when_clonal():
    gen = RngStream(13).generator()
    a, b = _equicorrelated_pair_mutations(*block_draws(gen, 20, 500), 0.1, 0.9, 1.0)
    assert np.array_equal(a, b)


def test_independent_counts_marginal_preservation():
    n, size = 20, 100_000
    for p in (0.05, 0.2):
        for xi in (0.0, 0.25, 1.0):
            gen = RngStream(21).generator()
            matched, a_only, b_only = _independent_pair_counts(gen, n, p, xi, size)
            counts_a = matched + a_only
            tol = 4.0 * counts_a.std() / math.sqrt(size) / n
            assert abs(counts_a.mean() / n - p) <= tol + 1e-12
            counts_b = matched + b_only
            assert abs(counts_b.mean() / n - p) <= tol + 1e-12


def test_independent_counts_match_rate_under_independence():
    n, p, size = 10, 0.1, 100_000
    gen = RngStream(22).generator()
    matched, _, _ = _independent_pair_counts(gen, n, p, 0.0, size)
    tol = 4.0 * matched.std() / math.sqrt(size) / n
    assert abs(matched.mean() / n - p * p) <= tol


def test_independent_counts_clonal_match_rate():
    n, p, xi, size = 10, 0.1, 0.25, 100_000
    gen = RngStream(23).generator()
    matched, _, _ = _independent_pair_counts(gen, n, p, xi, size)
    expected = xi * p + (1 - xi) * p * p
    tol = 4.0 * matched.std() / math.sqrt(size) / n
    assert abs(matched.mean() / n - expected) <= tol


def test_exclusive_cells_marginal_preservation():
    n, p, size = 10, 0.1, 100_000
    for xi in (0.0, 0.25, 1.0):
        gen = RngStream(24).generator()
        ca, cb = _exclusive_pair_cells(gen, n, p, xi, size)
        for cells in (ca, cb):
            freq = np.mean(cells == 3)  # any single cell stands in for all
            assert abs(freq - p) <= 4.0 * math.sqrt(p * (1 - p) / size)


def test_equicorrelated_marginal_preservation():
    n, p, rho, size = 10, 0.1, 0.9, 100_000
    for xi in (0.0, 0.25, 1.0):
        gen = RngStream(25).generator()
        a, b = _equicorrelated_pair_mutations(*block_draws(gen, n, size), p, rho, xi)
        for mat in (a, b):
            freq = mat.mean()
            # block correlation inflates the variance of the per-draw count
            tol = 4.0 * mat.sum(axis=1).std() / math.sqrt(size) / n
            assert abs(freq - p) <= tol


def test_latent_block_pairwise_correlation():
    size, n = 40_000, 8
    for rho in (0.3, 0.9):
        gen = RngStream(26).generator()
        x = _latent_block(gen.normal(size=(size, 1)), gen.normal(size=(size, n)), rho)
        corr = np.corrcoef(x.T)
        off_diagonal = corr[~np.eye(n, dtype=bool)]
        # Fisher-z standard error for each pairwise estimate
        tol = 4.0 * (1 - rho ** 2) / math.sqrt(size)
        assert abs(off_diagonal.mean() - rho) <= tol
        assert np.allclose(np.diag(corr), 1.0)


def lone_pair_draw(gen, group, xi):
    """Counts (both, A only, B only) and marks of one pair, by the per-pair calls
    the harness has always made on the pair's stream."""
    n, p = group.n_markers, group.p
    if group.kind == "independent":
        n_clonal = gen.binomial(n, xi, size=1)
        shared = gen.binomial(n_clonal, p)
        pool = n - n_clonal
        k_a = gen.binomial(pool, p)
        k_b = gen.binomial(pool, p)
        overlap = gen.hypergeometric(k_a, pool - k_a, k_b) if k_a[0] and k_b[0] else np.zeros(1, int)
        counts = [int(v[0]) for v in (shared + overlap, k_a - overlap, k_b - overlap)]
        ids = gen.choice(n, size=sum(counts), replace=False) if sum(counts) else np.zeros(0, int)
        return counts, ids
    clonal = gen.random(1) < xi
    if group.kind == "exclusive-block":
        probs = np.append(np.full(n, p), 1.0 - n * p).clip(0.0)
        shared, a, b = (gen.choice(n + 1, size=1, p=probs / probs.sum()) for _ in range(3))
        mut_a = np.arange(n) == np.where(clonal, shared, a)
        mut_b = np.arange(n) == np.where(clonal, shared, b)
    else:
        shared, a, b = (math.sqrt(group.rho) * gen.normal(size=(1, 1))
                        + math.sqrt(1.0 - group.rho) * gen.normal(size=(1, n)) for _ in range(3))
        threshold = normal_quantile(1.0 - p)
        mut_a = np.where(clonal, shared[0], a[0]) > threshold
        mut_b = np.where(clonal, shared[0], b[0]) > threshold
    counts = [int(m.sum()) for m in (mut_a & mut_b, mut_a & ~mut_b, mut_b & ~mut_a)]
    return counts, (mut_a, mut_b)


@pytest.mark.parametrize("xi", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("group", [
    MarkerGroup("independent", 40, 0.05),
    MarkerGroup("exclusive-block", 10, 0.05),
    MarkerGroup("equicorrelated-block", 12, 0.3, rho=0.5),
], ids=lambda group: group.kind)
def test_group_kernel_draws_each_stream_as_lone_pairs(group, xi):
    # K pairs over K generators: each stream meets a lone pair's calls in
    # their order, twice running, and is left where two lone pairs leave it
    streams = [RngStream(61, k) for k in range(12)]
    gens = [stream.generator() for stream in streams]
    lones = [stream.generator() for stream in streams]
    for _ in range(2):
        counts, marks = _draw_group(group, xi, gens)
        assert counts.shape == (len(gens), 3) and counts.dtype == np.int64
        assert counts.sum() > 0
        for k, lone in enumerate(lones):
            want_counts, want_marks = lone_pair_draw(lone, group, xi)
            assert counts[k].tolist() == want_counts
            if group.kind == "independent":
                assert np.array_equal(marks[k], want_marks)
            else:
                assert all(np.array_equal(mask[k], want) for mask, want in zip(marks, want_marks))
    assert [gen.random() for gen in gens] == [lone.random() for lone in lones]


def test_scenario_catalog_covers_universe():
    spec = small_spec()
    catalog = scenario_catalog(spec)
    assert len(catalog) == spec.n_markers
    assert catalog.probability("g0:0") == 0.1
    assert catalog.probability("g1:199") == 0.005


def test_sampled_profiles_resolve_against_catalog():
    spec = small_spec()
    catalog = scenario_catalog(spec)
    a, b = sample_tumor_pair(spec, RngStream(30))
    obs = derive_pair_observation(a, b, catalog)
    assert obs.union_size == len(a.mutations | b.mutations)


# --- harness ----------------------------------------------------------------------

def mixed_spec(perturbation=Perturbation()):
    """All three group kinds, shared probabilities and more than ten groups."""
    groups = (
        MarkerGroup("independent", 40, 0.05),
        MarkerGroup("exclusive-block", 10, 0.05),
        MarkerGroup("equicorrelated-block", 12, 0.08, rho=0.5),
        MarkerGroup("independent", 300, 0.004),
        MarkerGroup("exclusive-block", 20, 0.02),
        MarkerGroup("equicorrelated-block", 25, 0.02, rho=0.3),
        MarkerGroup("independent", 200, 0.01),
        MarkerGroup("independent", 50, 0.03),
        MarkerGroup("exclusive-block", 5, 0.1),
        MarkerGroup("equicorrelated-block", 8, 0.004, rho=0.9),
        MarkerGroup("independent", 100, 0.006),
        MarkerGroup("independent", 60, 0.015),
    )
    return ScenarioSpec(groups=groups, xi=0.3, perturbation=perturbation,
                        replicates=20, sims=20)


def labelled_summary(a, b, catalog):
    """Unconditional summary by walking every catalog marker."""
    per_p = {}
    for marker, p in catalog.probabilities.items():
        n, m, s = per_p.get(p, (0, 0, 0))
        in_a, in_b = marker in a.mutations, marker in b.mutations
        per_p[p] = (n + 1, m + (in_a and in_b), s + (in_a != in_b))
    return UnconditionalSummary(tuple((p, *per_p[p]) for p in sorted(per_p)))


def labelled_data(obs, perturbation, noise):
    """Analysis data of an observation, perturbed in sorted-label order."""
    ps = [p for _, p in obs.shared] + [p for _, p in obs.unshared]
    if perturbation.kind == "logit-noise":
        ps = perturb_probabilities_logit(ps, perturbation.sigma, noise)
    elif perturbation.kind == "rare-inflation":
        ps = inflate_rare(ps, perturbation.factor, perturbation.threshold)
    flags = [True] * obs.n_matches + [False] * (obs.union_size - obs.n_matches)
    return ConditionalData.from_pairs(zip(ps, flags))


@pytest.mark.parametrize("perturbation", [
    Perturbation(),
    Perturbation("logit-noise", sigma=0.5),
    Perturbation("rare-inflation", factor=10.0, threshold=0.01),
], ids=lambda pert: pert.kind)
def test_harness_counts_equal_labelled_pairs(monkeypatch, perturbation):
    # the harness works on per-group counts; the labelled profiles of
    # sample_tumor_pair on the same streams must give the same analysis inputs
    spec = mixed_spec(perturbation)
    seen_counts, seen_calls, seen_batches = {}, [], []

    def conditional(pg, sizes, matched, **kwargs):
        # each row's nonzero-size columns, by its null stream
        streams = kwargs["stream_index"]
        seen_calls.append(streams)
        rows = zip(np.atleast_1d(streams), np.atleast_2d(sizes), np.atleast_2d(matched), strict=True)
        for stream, row_sizes, row_matched in rows:
            present = row_sizes > 0
            seen_counts[int(stream)] = (pg[present], row_sizes[present], row_matched[present])
        return nullref.counts_test(pg, sizes, matched, **kwargs)

    def unconditional(pg, n_markers, matched, single):
        seen_batches.append((pg, n_markers, matched, single))
        return fit_unconditional_batch(pg, n_markers, matched, single)

    monkeypatch.setattr(simulation, "counts_test", conditional)
    monkeypatch.setattr(simulation, "fit_unconditional_batch", unconditional)
    rng = RngStream(57, 3)
    _, _, matches, _ = simulation._replicate_arrays(
        spec, rng, 0, nullref.sample_unconditional_null([(0.1, 1)], 10, RngStream(0)))
    assert matches.sum() > 0
    [(pg, n_markers, uncond_matched, uncond_single)] = seen_batches  # one batch per run
    if perturbation.kind == "logit-noise":  # no probabilities shared by the run
        assert len(seen_calls) == len(seen_counts) > 1
    else:
        assert len(seen_calls) == 1  # one conditional batch per run

    catalog = scenario_catalog(spec)
    for i in range(spec.replicates):
        base = rng.stream_index + i * simulation._STRIDE
        a, b = sample_tumor_pair(spec, RngStream(rng.seed, base + simulation._ROLE_DATA))
        rows = tuple(zip(pg, n_markers, uncond_matched[i], uncond_single[i]))
        assert UnconditionalSummary(rows) == labelled_summary(a, b, catalog)
        obs = derive_pair_observation(a, b, catalog)
        counts = seen_counts.pop(base + simulation._ROLE_NULL_SAMPLER, None)
        if obs.union_size == 0:
            assert counts is None
            continue
        data = labelled_data(obs, perturbation, RngStream(rng.seed, base + simulation._ROLE_NOISE))
        want = group_by_probability([p for p, _ in data.markers], np.ones(len(data)),
                                    [x for _, x in data.markers])
        assert all(np.array_equal(got, col) for got, col in zip(counts, want, strict=True))
    assert not seen_counts


def test_comparison_null_universe_uses_clamped_probabilities(monkeypatch):
    spec = small_spec(
        groups=(MarkerGroup("independent", 30, 0.1), MarkerGroup("independent", 500, 1e-7)),
        replicates=4, sims=50,
    )
    universes = []

    def build(universe, n_sims, rng):
        universes.append([(float(p), int(n)) for p, n in universe])
        return nullref.sample_unconditional_null(universe, n_sims, rng)

    monkeypatch.setattr(simulation, "sample_unconditional_null", build)
    run_calibrated_comparison(spec, RngStream(58))
    # built once, for the alternative and the zero-signal run alike
    assert universes == [[(1e-6, 500), (0.1, 30)]]


def test_run_size_power_null_scenario_calibrates_to_alpha():
    report = run_size_power(small_spec(xi=0.0), RngStream(51))
    assert report.calibrated_rejection_rate == pytest.approx(0.05, abs=1e-12)
    assert 0.0 <= report.rejection_rate <= 0.2
    assert report.replicates == 40


def test_run_size_power_detects_strong_signal():
    spec = small_spec(
        groups=(MarkerGroup("independent", 200, 0.02),), xi=0.9, replicates=30
    )
    report = run_size_power(spec, RngStream(52))
    assert report.rejection_rate >= 0.8
    assert report.mean_matches > 1.0
    assert report.mean_mutations_per_tumor > 1.0


def test_run_size_power_thread_count_invariance():
    spec = small_spec(replicates=24, sims=300)
    sequential = run_size_power(spec, RngStream(53), threads=1)
    threaded = run_size_power(spec, RngStream(53), threads=4)
    assert sequential == threaded


def test_run_size_power_perturbation_paired_data():
    # same seed => same generated data; only the analysis probabilities move,
    # so the rejection rates stay close
    clean = small_spec(xi=0.25, replicates=30)
    noisy = dataclasses.replace(
        clean, perturbation=Perturbation("logit-noise", sigma=0.25)
    )
    r_clean = run_size_power(clean, RngStream(54))
    r_noisy = run_size_power(noisy, RngStream(54))
    assert r_clean.mean_matches == r_noisy.mean_matches
    assert abs(r_clean.rejection_rate - r_noisy.rejection_rate) <= 0.2


def test_run_calibrated_comparison_smoke():
    spec = small_spec(xi=0.5, replicates=30, sims=300)
    cmp = run_calibrated_comparison(spec, RngStream(55))
    assert 0.0 <= cmp.calibrated_conditional_power <= 1.0
    assert 0.0 <= cmp.calibrated_unconditional_power <= 1.0
    with pytest.raises(ValueError):
        run_calibrated_comparison(
            dataclasses.replace(spec, perturbation=Perturbation("logit-noise", sigma=0.5)),
            RngStream(55),
        )


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        small_spec(xi=1.5)
    with pytest.raises(ValueError):
        small_spec(replicates=0)
    with pytest.raises(ValueError):
        small_spec(alpha=0.0)
    with pytest.raises(ValueError):
        Perturbation("logit-noise", sigma=0.0)
    with pytest.raises(ValueError):
        Perturbation("rare-inflation", factor=1.0)
    with pytest.raises(ValueError, match="at least one marker group"):
        scenario_from_json_dict({"groups": [], "xi": 0.1, "replicates": 3, "sims": 5})
    group = {"kind": "independent", "n_markers": 10, "p": 0.1}
    for field, value in (("replicates", 2.5), ("sims", 5.5)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            scenario_from_json_dict({"groups": [group], "xi": 0.1, "replicates": 3, "sims": 5,
                                     field: value})
    assert small_spec(replicates=np.int64(3), sims=np.int32(5)).sims == 5


@pytest.mark.parametrize("fields, message", [
    (dict(kind="none", sigma=0.5), "sigma is only read by logit-noise"),
    (dict(kind="rare-inflation", sigma=0.5, factor=10.0), "sigma is only read by logit-noise"),
    (dict(kind="none", factor=2.0), "only read by rare-inflation"),
    (dict(kind="none", threshold=0.02), "only read by rare-inflation"),
    (dict(kind="logit-noise", sigma=0.5, factor=10.0), "only read by rare-inflation"),
    (dict(kind="logit-noise", sigma=0.5, threshold=0.05), "only read by rare-inflation"),
], ids=["none sigma", "rare-inflation sigma", "none factor", "none threshold",
        "logit-noise factor", "logit-noise threshold"])
def test_perturbation_rejects_a_field_its_kind_does_not_read(fields, message):
    with pytest.raises(ValueError, match=message):
        Perturbation(**fields)
