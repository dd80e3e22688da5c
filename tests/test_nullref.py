import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonality import inference, nullref
from clonality.errors import ClonalityError
from clonality.inference import (
    ConditionalData,
    conditional_statistic,
    fit_conditional_batch,
    fit_unconditional_batch,
    group_by_probability,
    settle_by_bounds,
)
from clonality.model import (
    PROB_CEIL,
    PROB_FLOOR,
    PairObservation,
    clamp_probability,
    derive_pair_observation,
    outcome_cells,
)
from clonality.nullref import (
    EXACT_ATOM_LIMIT,
    NullDistribution,
    calibrated_rejection,
    conditional_test,
    exact_conditional_null,
    exact_p_value,
    monte_carlo_p_value,
    p_value,
    sample_conditional_null,
    sample_unconditional_null,
)
from clonality.rng import RngStream
from clonality.simulation import preset_scenario

from conftest import profile, table_sums

MUCINOUS_PS = [0.081] + [0.004] * 9


def observation(shared_ps, unshared_ps):
    return PairObservation(
        shared=tuple((f"s{i}", p) for i, p in enumerate(shared_ps)),
        unshared=tuple((f"u{i}", p) for i, p in enumerate(unshared_ps)),
    )


def brute_force_pvalue(ps, matched):
    """Independent enumeration: every match vector, plain-float probabilities."""
    q = [p / (2.0 - p) for p in ps]
    s_obs = conditional_statistic(ConditionalData.from_pairs(zip(ps, matched))).statistic
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(ps)):
        prob = 1.0
        for qi, b in zip(q, bits):
            prob *= qi if b else 1.0 - qi
        s = conditional_statistic(ConditionalData.from_pairs(zip(ps, bits))).statistic
        if s >= s_obs - 1e-9:
            total += prob
    return total


# --- exact null -------------------------------------------------------------

def test_exact_null_single_marker_atoms():
    null = exact_conditional_null([0.081])
    assert null.total == 1.0
    assert null.n == 2
    by_stat = dict(zip(np.round(null.statistics, 6), null.weights))
    q = 0.081 / 1.919
    assert by_stat[0.0] == pytest.approx(1.0 - q, rel=1e-12)
    assert by_stat[round(math.log(1.919 / 0.081), 6)] == pytest.approx(q, rel=1e-12)


def test_exact_null_half_probability_marker():
    null = exact_conditional_null([0.5])
    match_mass = null.weights[null.statistics > 0].sum()
    assert match_mass == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_exact_null_case_pair_has_1024_atoms():
    null = exact_conditional_null(MUCINOUS_PS)
    assert null.n == 1024
    assert null.weights.sum() == pytest.approx(1.0, abs=1e-12)
    s_obs = conditional_statistic(
        ConditionalData.from_pairs([(0.081, True)] + [(0.004, False)] * 9)
    ).statistic
    # exact tail mass; the published 0.063 was read off a finite Monte Carlo run
    assert p_value(s_obs, null) == pytest.approx(0.059346433338968926, rel=1e-10)


def test_exact_null_matches_brute_force_enumeration():
    gen = np.random.default_rng(31)
    for _ in range(8):
        m = int(gen.integers(1, 6))
        ps = list(gen.uniform(0.01, 0.4, m))
        matched = list(gen.random(m) < 0.5)
        null = exact_conditional_null(ps)
        assert null.n == 2 ** m
        s_obs = conditional_statistic(ConditionalData.from_pairs(zip(ps, matched))).statistic
        assert p_value(s_obs, null) == pytest.approx(brute_force_pvalue(ps, matched), rel=1e-9)


def test_exact_null_size_guard():
    with pytest.raises(ClonalityError, match="Monte Carlo"):
        exact_conditional_null([0.01] * 21)
    exact_conditional_null([0.01] * 5, exact_max=5)  # boundary is allowed


def test_exact_null_atom_budget_refused_before_allocation():
    n = EXACT_ATOM_LIMIT.bit_length()  # one marker past the limit
    ps = list(np.linspace(0.001, 0.3, n + 5))  # distinct: 2^|E| count patterns
    for markers in (ps[:n], ps):
        with pytest.raises(ClonalityError, match=rf"2\^{len(markers)} = .*--exact-max"):
            exact_conditional_null(markers, exact_max=40)
        with pytest.raises(ClonalityError, match="--exact-max"):
            exact_p_value(1.0, markers, exact_max=40)
    # at the limit, one shared probability needs only |E|+1 count patterns
    at_limit = [0.01] * (n - 1)
    s_full = conditional_statistic(ConditionalData.from_pairs((p, True) for p in at_limit)).statistic
    assert exact_p_value(s_full, at_limit, exact_max=n - 1) == pytest.approx(
        (0.01 / 1.99) ** (n - 1), rel=1e-9)


def random_case(gen, shared):
    """(probabilities, match indicators) of a random pair, distinct or shared p."""
    m = int(gen.integers(1, 11))
    if shared:
        levels = gen.uniform(0.002, 0.3, int(gen.integers(1, 4)))
        ps = list(gen.choice(levels, m))
    else:
        ps = list(gen.uniform(0.002, 0.3, m))
    return ps, list(gen.random(m) < 0.4)


def test_exact_p_value_equals_p_value_of_exact_null():
    gen = np.random.default_rng(2015)
    for trial in range(40):
        ps, matched = random_case(gen, shared=trial % 2 == 1)
        null = exact_conditional_null(ps)
        s_obs = conditional_statistic(ConditionalData.from_pairs(zip(ps, matched))).statistic
        atoms = np.unique(null.statistics)
        for s in (s_obs, 0.0, float(atoms[len(atoms) // 2]), float(atoms[-1]) + 1.0):
            assert exact_p_value(s, ps) == p_value(s, null)


def test_observed_pattern_atom_reproduces_observed_statistic():
    gen = np.random.default_rng(77)
    for trial in range(30):
        ps, matched = random_case(gen, shared=trial % 2 == 1)
        s_obs = conditional_statistic(ConditionalData.from_pairs(zip(ps, matched))).statistic
        pg, sizes = group_by_probability(ps, np.ones(len(ps)))
        chunks = nullref._exact_patterns(pg, sizes, 20)
        counts = [sum(x for p, x in zip(ps, matched) if p == g) for g in pg]
        for patterns, *_ in chunks:
            row = np.flatnonzero((patterns == counts).all(axis=1))
            if row.size:
                s_null = fit_conditional_batch(pg, sizes, patterns)[1][row[0]]
                assert abs(s_null - s_obs) <= 1e-12
                break
        else:
            pytest.fail("observed count pattern not enumerated")


def test_exact_p_value_over_several_chunks_and_a_split(monkeypatch):
    """Chunks that start inside a block, settled in several slabs, against per-pattern bounds.

    At the observed statistic and 1e-9 either side of it, a chunk's settle
    leaves open only patterns that their own bounds leave open, proves
    extreme every pattern that they prove extreme, and rules out only
    patterns that they rule out; each pattern it adds as extreme is extreme
    by its fit. Whole blocks are settled by their corner alone, so fewer
    columns are reduced than there are patterns. Unit multiplicities come
    as None.
    """
    monkeypatch.setattr(nullref, "_FIT_CHUNK", 1000)
    monkeypatch.setattr(nullref, "_BOUND_SLAB", 200)  # a chunk reduces its bounds in several slabs
    reduced = []

    def spy(sums, threshold):
        reduced.append(sums.shape[1])
        return settle_by_bounds(sums, threshold)

    monkeypatch.setattr(nullref, "settle_by_bounds", spy)
    gen = np.random.default_rng(1114)
    cut_blocks = settled = 0
    for trial in range(8):
        m = int(gen.integers(11, 15))
        if trial % 2:
            ps = list(gen.choice(gen.uniform(0.002, 0.3, int(gen.integers(4, 8))), m))
        else:
            ps = list(gen.uniform(0.002, 0.3, m))
        matched = list(gen.random(m) < gen.uniform(0.1, 0.6))
        pg, sizes = group_by_probability(ps, np.ones(len(ps)))
        chunks = nullref._exact_patterns(pg, sizes, 20)
        lead, trail = nullref._split_patterns(sizes.astype(int))
        assert lead.shape[1] and trail.shape[1]
        shape = tuple(sizes.astype(int) + 1)
        flat = np.column_stack(np.unravel_index(np.arange(math.prod(shape)), shape)).astype(float)
        enumerated = list(chunks)
        assert all(patterns.flags.c_contiguous for patterns, *_ in enumerated)
        assert np.array_equal(np.concatenate([patterns for patterns, *_ in enumerated]), flat)
        assert all((reps is None) == (trial % 2 == 0) for _, _, reps, _ in enumerated)
        cut_blocks += sum(start % trail.shape[0] > 0 for start in range(0, flat.shape[0], 1000))
        s_obs = conditional_statistic(ConditionalData.from_pairs(zip(ps, matched))).statistic
        cut = lead.shape[1]  # the parts' sums, added as the chunks add them
        for patterns, _, _, settle in enumerated:
            sums = (table_sums(pg[:cut], sizes[:cut], patterns[:, :cut])
                    + table_sums(pg[cut:], sizes[cut:], patterns[:, cut:]))
            for threshold in (s_obs, s_obs - 1e-9, s_obs + 1e-9):
                want_extreme, want_open = settle_by_bounds(sums, threshold)
                reduced.clear()
                extreme, open_rows = settle(threshold)
                settled += extreme.size - sum(reduced)
                assert extreme.shape == want_extreme.shape and np.isin(open_rows, want_open).all()
                assert not (want_extreme & ~extreme).any() and not extreme[open_rows].any()
                ruled_out = np.ones(extreme.size, dtype=bool)
                ruled_out[open_rows], ruled_out[extreme] = False, False
                assert not ruled_out[want_open].any() and not ruled_out[want_extreme].any()
                more = extreme & ~want_extreme
                assert (fit_conditional_batch(pg, sizes, patterns[more])[1] >= threshold).all()
        assert trial % 2 or len(enumerated) > 2
        null = exact_conditional_null(ps)
        atoms = np.unique(null.statistics)
        for s in (s_obs, np.nextafter(s_obs, np.inf), 0.0, float(atoms[len(atoms) // 2]),
                  float(atoms[-1]) + 1.0):
            assert exact_p_value(s, ps) == p_value(s, null)
    assert cut_blocks and settled > 0


def test_repeat_sum_equals_numpy_sum_of_the_repeat():
    gen = np.random.default_rng(2016)
    cases = []
    for k in range(320):
        m = int(gen.integers(1, 300))
        kind = k % 8
        if kind == 0:
            r = np.ones(m, dtype=np.int64)
        elif kind == 1:  # a single run
            r = gen.integers(1, 300_000, 1)
        elif kind == 2:  # runs near the 128-atom blocks
            r = gen.choice([1, 7, 8, 9, 120, 127, 128, 129, 255, 256, 257], m)
        elif kind == 3:  # runs near the 2^16-atom leaves
            r = gen.choice([1, 3, 65_535, 65_536, 65_537, 131_071, 131_073], int(gen.integers(1, 12)))
        elif kind == 4:
            r = gen.integers(1, 40_000, m)
        else:
            r = gen.integers(1, 300, m)
        w = gen.random(r.size) * 10.0 ** gen.uniform(-15, 0, r.size)
        cases.append((np.ones(r.size) if kind == 5 else w, r))
    assert sum(int(r.sum()) > 1 << 17 for _, r in cases) > 40
    for w, r in cases:
        assert nullref._repeat_sum(w, r) == np.repeat(w, r).sum()
    assert nullref._repeat_sum(np.empty(0), np.empty(0, dtype=np.int64)) == 0.0


def test_exact_p_value_sums_shared_atoms_without_repeating_them():
    ps = [0.01] * 5 + [0.05] * 5 + [0.1] * 6 + [0.2] * 6  # 2^22 atoms in 1,764 patterns
    threshold = 1e-3  # most atoms are extreme, and the no-match one is not
    exact_p_value(threshold, ps, exact_max=22)
    tracemalloc.start()
    try:
        p = exact_p_value(threshold, ps, exact_max=22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < p < 1.0
    assert peak < 8 << 21  # half of the 2^22 atoms' float64 masses


def test_exact_null_of_16_distinct_markers_holds_little_beside_its_mass_block():
    for seed in range(3):
        gen = np.random.default_rng(seed)
        pg, sizes, matched = np.sort(gen.uniform(0.002, 0.25, 16)), np.ones(16), np.zeros(16)
        matched[gen.choice(16, 5, replace=False)] = 1.0
        nullref.counts_test(pg, sizes, matched)
        tracemalloc.start()
        try:
            result = nullref.counts_test(pg, sizes, matched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.method == "exact"
        assert peak < 12.5 * (1 << 20)  # the (65,536, 16) float64 mass block is 8 MiB


def test_bound_tables_settle_most_exact_patterns():
    gen = np.random.default_rng(14)
    for shared in (False, True):
        ps = list(gen.choice(gen.uniform(0.002, 0.3, 4), 14) if shared else gen.uniform(0.002, 0.3, 14))
        matched = list(gen.random(14) < 0.3)
        s_obs = conditional_statistic(ConditionalData.from_pairs(zip(ps, matched))).statistic
        chunks = nullref._exact_patterns(*group_by_probability(ps, np.ones(len(ps))), 20)
        settled = [settle(s_obs - nullref.TIE_TOLERANCE) for *_, settle in chunks]
        n_patterns = sum(extreme.size for extreme, _ in settled)
        assert sum(open_rows.size for _, open_rows in settled) < 0.15 * n_patterns


# --- Monte Carlo null ---------------------------------------------------------

def test_sampled_null_single_marker_frequencies():
    n_sims = 50_000
    null = sample_conditional_null([0.081], n_sims, RngStream(42))
    assert null.total == n_sims and np.array_equal(null.weights, np.ones(n_sims))
    assert null.n == n_sims
    values = set(np.round(null.statistics, 6))
    assert values == {0.0, round(math.log(1.919 / 0.081), 6)}
    q = 0.081 / 1.919
    freq = np.mean(null.statistics > 0)
    assert abs(freq - q) <= 4.0 * math.sqrt(q * (1 - q) / n_sims)


def test_sampled_null_rare_markers_all_zero():
    null = sample_conditional_null([1e-6] * 5, 10_000, RngStream(1))
    assert np.mean(null.statistics == 0.0) > 0.99


def test_sampled_null_deterministic_per_stream():
    a = sample_conditional_null(MUCINOUS_PS, 5000, RngStream(7, 3))
    b = sample_conditional_null(MUCINOUS_PS, 5000, RngStream(7, 3))
    c = sample_conditional_null(MUCINOUS_PS, 5000, RngStream(7, 4))
    assert np.array_equal(a.statistics, b.statistics)
    assert not np.array_equal(a.statistics, c.statistics)


def test_sampled_null_requires_positive_sims():
    for n_sims in (0, 2.5, True):
        message = rf"n_sims must be an integer >= 1, got {n_sims!r}"
        with pytest.raises(ValueError, match=message):
            sample_conditional_null([0.1], n_sims, RngStream(1))
        with pytest.raises(ValueError, match=message):
            monte_carlo_p_value(0.5, [0.1], n_sims, RngStream(1))
        with pytest.raises(ValueError, match=message):
            sample_unconditional_null([(0.1, 5)], n_sims, RngStream(0))


def test_unconditional_null_refuses_a_probability_that_is_not_a_number():
    for p in ("0.1", True, None):
        with pytest.raises(ValueError, match=rf"^p must be a number, got {re.escape(repr(p))}"):
            sample_unconditional_null([(p, 3)], 10, RngStream(1))


def large_case(gen, shared):
    """(probabilities, match indicators) of a random pair past the exact limit."""
    m = int(gen.integers(21, 36))
    if shared:
        levels = gen.uniform(0.002, 0.6, int(gen.integers(1, 6)))
        ps = list(gen.choice(levels, m))
    else:
        ps = list(gen.uniform(0.002, 0.6, m))
    return ps, list(gen.random(m) < gen.uniform(0.05, 0.6))


def test_monte_carlo_p_value_equals_p_value_of_sampled_null():
    gen = np.random.default_rng(1987)
    for trial in range(42):
        ps, matched = large_case(gen, shared=trial % 2 == 1)
        n_sims = (1, 500, 20_000)[trial % 3]
        stream = (int(gen.integers(2 ** 32)), trial)
        null = sample_conditional_null(ps, n_sims, RngStream(*stream))
        s_obs = conditional_statistic(ConditionalData.from_pairs(zip(ps, matched))).statistic
        for s in (s_obs, 0.0, float(np.quantile(null.statistics, 0.9))):
            assert monte_carlo_p_value(s, ps, n_sims, RngStream(*stream)) == p_value(s, null)


def test_monte_carlo_p_value_over_several_chunks(monkeypatch):
    monkeypatch.setattr(nullref, "_FIT_CHUNK", 1000)
    ps = list(np.linspace(0.3, 0.8, 16))
    pg, sizes = group_by_probability(ps, np.ones(len(ps)))
    chunks = nullref._drawn_chunks(*nullref._drawn_rows(pg, sizes, 20_000, RngStream(8)))
    assert sum(patterns.shape[0] for patterns, *_ in chunks) > 3 * nullref._FIT_CHUNK
    null = sample_conditional_null(ps, 20_000, RngStream(8))
    for q in (0.5, 0.9, 0.999):
        s = float(np.quantile(null.statistics, q))
        assert monte_carlo_p_value(s, ps, 20_000, RngStream(8)) == p_value(s, null)


def test_tie_tolerance_counts_an_atom_up_to_1e_9_below_the_observed_statistic():
    ps = [0.081, 0.004, 0.004, 0.02, 0.3, 0.15]
    exact = exact_conditional_null(ps)
    drawn = sample_conditional_null(ps, 5000, RngStream(3, 1))
    cases = [  # an atom of each null (8.5177 and 0.6700), its decide-and-sum and p-values
        (exact, np.unique(exact.statistics)[24], lambda s: exact_p_value(s, ps), (1.7526e-5, 1.4645e-5)),
        (drawn, np.unique(drawn.statistics)[3],
         lambda s: monte_carlo_p_value(s, ps, 5000, RngStream(3, 1)), (0.0674, 0.0364)),
    ]
    for null, atom, decide, pinned in cases:
        near, far = decide(atom + 0.5e-9), decide(atom + 2e-9)
        assert near == p_value(atom + 0.5e-9, null) and far == p_value(atom + 2e-9, null)
        assert near > far
        assert (near, far) == pytest.approx(pinned, rel=1e-4)


def binomial_calls(pg, sizes, n_sims, gen):
    """(n_sims, G) counts of one ``gen.binomial`` call per group, as the draws were first made."""
    q0 = pg / (2.0 - pg)
    return np.column_stack([gen.binomial(int(sizes[g]), q0[g], size=n_sims) for g in range(len(pg))])


def raw_draws(ps, n_sims, rng):
    """Grouped probabilities, sizes and the ``n_sims`` drawn count rows, in draw order."""
    pg, sizes = group_by_probability(ps, np.ones(len(ps)))
    return pg, sizes, binomial_calls(pg, sizes, n_sims, rng.generator())


@pytest.mark.parametrize("n_distinct", [1, 5, 62, 63, 64])
def test_pattern_counts_equal_numpy_unique(n_distinct):
    gen = np.random.default_rng(n_distinct)
    for shared in (False, True):
        ps = list(gen.uniform(0.05, 0.9, n_distinct))
        if shared:
            ps += list(gen.choice(ps, 3 * n_distinct))
        pg, sizes, matched = raw_draws(ps, 1000, RngStream(n_distinct))
        if not shared:  # from 63 distinct probabilities on, the mixed-radix key leaves int64
            assert (math.prod(int(n) + 1 for n in sizes) >= 2 ** 63) == (n_distinct >= 63)
        patterns, counts = nullref._pattern_counts(sizes, [(np.arange(sizes.size), matched.T)], 1000)
        want_patterns, want_counts = np.unique(matched, axis=0, return_counts=True)
        assert np.array_equal(patterns, want_patterns)
        assert np.array_equal(counts, want_counts)
        assert counts.sum() == 1000
        null = sample_conditional_null(ps, 1000, RngStream(n_distinct))
        s = float(np.quantile(null.statistics, 0.8))
        assert monte_carlo_p_value(s, ps, 1000, RngStream(n_distinct)) == p_value(s, null)


@pytest.mark.parametrize("n_groups", [4, 64])  # int64 keys, then the table (keys would leave int64)
def test_pattern_counts_start_over_where_a_block_names_a_column_again(n_groups):
    """A second pass over some columns gives its own patterns alone: the other columns are 0."""
    gen = np.random.default_rng(n_groups)
    sizes = gen.integers(1, 4, n_groups)
    assert (math.prod(int(n) + 1 for n in sizes) >= 2 ** 63) == (n_groups == 64)
    first, second = (gen.integers(0, sizes[:, None] + 1, (n_groups, 300)) for _ in range(2))
    again = np.arange(0, n_groups, 2)
    blocks = ([([g], first[[g]]) for g in range(n_groups)]
              + [(again[:1], second[again[:1]]), (again[1:], second[again[1:]])])
    patterns, draws = nullref._pattern_counts(sizes.astype(float), blocks, 300)
    table = np.zeros_like(second)
    table[again] = second[again]
    want_patterns, want_draws = np.unique(table.T, axis=0, return_counts=True)
    assert np.array_equal(patterns, want_patterns) and np.array_equal(draws, want_draws)


@pytest.mark.parametrize("n_groups", [2, 32])  # at 32 groups the keys would leave int64
def test_pattern_counts_of_matched_and_single_blocks_equal_numpy_unique(n_groups):
    """Blocks ``[g, G + g]`` of multinomial draws, as the unconditional null passes them."""
    gen = np.random.default_rng(n_groups)
    ng = gen.integers(1, 6, n_groups)
    assert (math.prod(int(n) + 1 for n in ng) ** 2 >= 2 ** 63) == (n_groups == 32)
    cells = [gen.multinomial(int(n), [0.1, 0.3, 0.6], size=400) for n in ng]
    blocks = [([g, n_groups + g], c[:, :2].T) for g, c in enumerate(cells)]
    patterns, draws = nullref._pattern_counts(np.concatenate([ng, ng]).astype(float), blocks, 400)
    table = np.vstack([[c[:, 0] for c in cells], [c[:, 1] for c in cells]])  # (2G, n)
    want_patterns, want_draws = np.unique(table.T, axis=0, return_counts=True)
    assert np.array_equal(patterns, want_patterns) and np.array_equal(draws, want_draws)

def test_one_fill_draws_equal_numpy_binomial_calls():
    """The inversion kernel gives each call's integers and leaves the stream where the calls do.

    Random groups with null match probabilities above and below 1/2, zero
    sizes, a group numpy draws by BTPE (the kernel refuses it) and 64
    distinct probabilities (the patterns' key leaves int64). A numpy whose
    binomial draws differently fails here.
    """
    gen = np.random.default_rng(2121)
    inverted = 0
    for trial in range(80):
        n_groups = 64 if trial % 10 == 9 else int(gen.integers(1, 16))
        pg = np.sort(gen.uniform(0.002, 0.98, n_groups))
        sizes = (1.0 if n_groups == 64 else gen.integers(0, 9, n_groups) * (gen.random(n_groups) < 0.8))
        sizes = np.broadcast_to(sizes, pg.shape).astype(float)
        sizes[int(gen.integers(n_groups))] += 1
        if trial % 10 == 4:
            pg[0], sizes[0] = 0.3, 200.0  # n q0 = 35 > 30
        n_sims = int(gen.integers(1, 4000))
        rng = RngStream(trial, 3)
        calls = rng.generator()
        matched = binomial_calls(pg, sizes, n_sims, calls)
        patterns, draws = nullref._drawn_rows(pg, sizes, n_sims, rng)
        want_patterns, want_draws = np.unique(matched, axis=0, return_counts=True)
        assert np.array_equal(patterns, want_patterns) and np.array_equal(draws, want_draws)
        present = sizes > 0
        fill = rng.generator()
        rows = nullref._inverted_rows(fill, sizes[present], pg[present] / (2.0 - pg[present]), n_sims)
        if trial % 10 == 4:
            assert rows is None
            continue
        inverted += 1
        assert np.array_equal(rows, matched.T[present])
        assert fill.random() == calls.random()
    assert inverted == 72


def test_inversion_past_its_bound_takes_the_calls():
    """A draw that numpy would restart on a fresh uniform makes the kernel give up."""
    class Stub:
        def random(self, shape):
            return np.full(shape, 1.0 - 2.0 ** -53)

    assert nullref._inverted_rows(Stub(), np.array([200.0]), np.array([0.001]), 5) is None


@pytest.mark.parametrize("groups_per_fill", [1, 2, 5])
def test_draws_across_fills_equal_numpy_binomial_calls(monkeypatch, groups_per_fill):
    """Fills of 1, 2 or 5 groups' uniforms give the patterns and counts of the calls.

    Zero-size groups sit among the drawn ones. The other cases: a group numpy
    draws by BTPE in the last fill (no fill is made), the inversion giving up
    on the second fill (both take the calls on a fresh generator), and 64
    groups, whose keys leave int64.
    """
    inverted = nullref._inverted_rows
    gen = np.random.default_rng(36 + groups_per_fill)
    for trial in range(12):
        kind = ("plain", "btpe", "gives up", "wide")[trial % 4]
        n_groups = 64 if kind == "wide" else 12
        pg = np.sort(gen.uniform(0.002, 0.98, n_groups))
        sizes = np.ones(n_groups) if kind == "wide" else gen.integers(1, 9, n_groups).astype(float)
        if kind != "wide":
            sizes[[2, 7]] = 0.0  # 10 drawn groups
        if kind == "btpe":
            pg[-1], sizes[-1] = 0.3, 200.0  # n q0 = 35 > 30
        n_sims = int(gen.integers(2000, 6000))
        monkeypatch.setattr(nullref, "_DRAW_SLAB", groups_per_fill * n_sims + int(gen.integers(n_sims)))
        fills = []

        def spy(fill, n, q, sims):
            fills.append(n.size)
            return None if kind == "gives up" and len(fills) == 2 else inverted(fill, n, q, sims)

        monkeypatch.setattr(nullref, "_inverted_rows", spy)
        rng = RngStream(trial, 9)
        patterns, draws = nullref._drawn_rows(pg, sizes, n_sims, rng)
        matched = binomial_calls(pg, sizes, n_sims, rng.generator())
        want_patterns, want_draws = np.unique(matched, axis=0, return_counts=True)
        assert np.array_equal(patterns, want_patterns) and np.array_equal(draws, want_draws)
        n_drawn = np.count_nonzero(sizes)
        if kind == "btpe":
            assert not fills
            continue
        assert max(fills) == min(groups_per_fill, n_drawn)
        assert len(fills) == (2 if kind == "gives up" else -(-n_drawn // groups_per_fill))


def test_monte_carlo_null_of_millions_of_draws_holds_no_draw_table():
    gen = np.random.default_rng(29)
    pg, sizes, matched = np.sort(gen.uniform(0.002, 0.3, 29)), np.ones(29), (gen.random(29) < 0.3) * 1.0
    tracemalloc.start()
    try:
        result = nullref.counts_test(pg, sizes, matched, sims=4_000_000, exact_max=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.method == "monte-carlo" and result.n_sims == 4_000_000
    assert peak < 128 << 20  # the (29, 4e6) uniform fill alone is 885 MiB


def test_drawn_chunks_of_a_million_draws_are_decided_in_little_memory(monkeypatch):
    gen = np.random.default_rng(29)
    pg, sizes, matched = np.sort(gen.uniform(0.002, 0.3, 29)), np.ones(29), (gen.random(29) < 0.3) * 1.0
    tracemalloc.start()
    try:
        result = nullref.counts_test(pg, sizes, matched, sims=1_000_000, exact_max=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20  # deciding 65,536 drawn patterns at a time peaked at 83 MiB
    monkeypatch.setattr(nullref, "_DRAWN_CHUNK", 1 << 16)
    assert nullref.counts_test(pg, sizes, matched, sims=1_000_000, exact_max=0) == result


def test_monte_carlo_decision_holds_no_grid_table():
    gen = np.random.default_rng(0)
    pg, sizes, matched = np.sort(gen.uniform(0.002, 0.3, 29)), np.ones(29), (gen.random(29) < 0.3) * 1.0
    assert nullref._drawn_rows(pg, sizes, 20_000, RngStream(0))[0].shape[0] >= 3_500
    nullref.counts_test(pg, sizes, matched, sims=20_000, exact_max=0)
    tracemalloc.start()
    try:
        nullref.counts_test(pg, sizes, matched, sims=20_000, exact_max=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20  # a (K, 101) float64 grid table of its 6,516 patterns is 5 MiB


def test_sampled_null_holds_the_fit_of_every_draw():
    gen = np.random.default_rng(2024)
    for trial in range(8):
        ps, _ = large_case(gen, shared=trial % 2 == 1)
        n_sims = (1, 7, 500, 3000)[trial % 4]
        pg, sizes, matched = raw_draws(ps, n_sims, RngStream(trial, 5))
        null = sample_conditional_null(ps, n_sims, RngStream(trial, 5))
        want = fit_conditional_batch(pg, sizes, matched)[1]
        assert np.array_equal(np.sort(null.statistics), np.sort(want))


# --- the test core against the oracle nulls -------------------------------------

@st.composite
def grouped_pairs(draw):
    """``(pg, sizes, matched, exact_max)`` of a random pair, grouped by probability.

    Up to 30 groups, shared probabilities (tied null outcomes) or distinct
    ones, some at the clamps; no, some or every marker matched; |E| at,
    below or above ``exact_max``, the exact side kept to at most 12 markers.
    """
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    exact = draw(st.booleans())
    levels = gen.uniform(0.002, 0.6, int(gen.integers(1, 9 if exact else 31)))
    clamp = gen.random(levels.size)
    levels[clamp < 0.1], levels[clamp > 0.9] = PROB_FLOOR, PROB_CEIL
    pg = np.unique(levels)
    sizes = gen.integers(1, 4 if draw(st.booleans()) else 2, pg.size).astype(float)
    while exact and sizes.sum() > 12:
        sizes[np.argmax(sizes)] -= 1
    share = draw(st.sampled_from(["none", "some", "all"]))
    matched = {"none": 0.0 * sizes, "some": np.floor(gen.random(pg.size) * (sizes + 1)),
               "all": sizes}[share]
    n = int(sizes.sum())
    exact_max = int(gen.integers(n, n + 3)) if exact else int(gen.integers(0, n))
    return pg, sizes, matched, exact_max


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=grouped_pairs(), sims=st.sampled_from([1, 200, 2000]),
       stream=st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 40)))
def test_counts_test_equals_p_value_of_oracle_null(case, sims, stream):
    pg, sizes, matched, exact_max = case
    result = nullref.counts_test(pg, sizes, matched, sims=sims, exact_max=exact_max,
                                 seed=stream[0], stream_index=stream[1])
    ps = list(np.repeat(pg, sizes.astype(int)))
    if sizes.sum() <= exact_max:
        assert (result.method, result.n_sims, result.seed) == ("exact", 0, None)
        null = exact_conditional_null(ps, exact_max)
    else:
        assert (result.method, result.n_sims, result.seed) == ("monte-carlo", sims, stream[0])
        null = sample_conditional_null(ps, sims, RngStream(*stream))
    assert result.statistic == fit_conditional_batch(pg, sizes, matched[None, :])[1][0]
    assert result.p_value == p_value(result.statistic, null)


def test_counts_test_over_rows_equals_one_row_calls(monkeypatch):
    # a small chunk, so that the rows' stacked drawn patterns straddle chunk boundaries
    monkeypatch.setattr(nullref, "_FIT_CHUNK", 50)
    gen = np.random.default_rng(1602)
    pg = np.sort(gen.uniform(0.002, 0.6, 12))
    sizes = (gen.integers(1, 5, (30, 12)) * (gen.random((30, 12)) < 0.4)).astype(float)
    sizes[:, 0] += 1
    matched = np.floor(gen.random(sizes.shape) * (sizes + 1))
    matched[:3], matched[3:6] = 0.0, sizes[3:6]
    streams = [int(s) for s in gen.integers(0, 2 ** 40, 30)]
    options = dict(sims=400, exact_max=8, seed=77)
    results = nullref.counts_test(pg, sizes, matched, stream_index=streams, **options)
    drawn = [nullref._drawn_rows(pg, sizes[k], 400, RngStream(77, streams[k]))[0].shape[0]
             for k in range(30) if sizes[k].sum() > 8]
    starts = np.cumsum([0, *drawn[:-1]])
    assert sum(drawn) > 3 * nullref._FIT_CHUNK and (starts % nullref._FIT_CHUNK).any()
    assert {r.method for r in results} == {"exact", "monte-carlo"}
    for k, result in enumerate(results):
        own = sizes[k] > 0
        alone = nullref.counts_test(pg[own], sizes[k, own], matched[k, own],
                                    stream_index=streams[k], **options)
        assert dataclasses.asdict(result) == dataclasses.asdict(alone)
    [one] = nullref.counts_test(pg, sizes[7:8], matched[7:8], stream_index=streams[7:8], **options)
    assert one == results[7]
    with pytest.raises(ValueError, match="30 rows need as many stream indices, got 29"):
        nullref.counts_test(pg, sizes, matched, stream_index=streams[1:], **options)
    with pytest.raises(ValueError, match="30 rows need as many stream indices, got 1"):
        nullref.counts_test(pg, sizes, matched, **options)


@pytest.mark.parametrize("pg, sizes, matched, options, message", [
    ([0.0, 1.2], [1, 1], [1, 0], {}, r"strictly inside \(0, 1\)"),
    ([0.1, 0.2], [1, 1], [-1, 1], {}, "0 <= matched <= sizes"),
    ([0.1, 0.2], [1.5, 1], [1, 0], {}, "whole numbers"),
    ([0.1, 0.2], [0, 0], [0, 0], {}, "^no mutations observed; test undefined$"),
    ([0.1, 0.2], [1, 1, 1], [1, 0, 0], {}, r"\(G,\) or \(K, G\) with G = 2"),
    ([0.1, 0.2], [[1, 1], [0, 0]], [[1, 0], [0, 0]], {}, "^row 1: no mutations observed"),
    ([0.1, 0.2], [10, 12], [1, 2], dict(sims=2.5, exact_max=0), "^sims must be an integer >= 1, got 2.5$"),
    ([0.1, 0.2], [10, 12], [1, 2], dict(sims=0), "^sims must be an integer >= 1, got 0$"),
    ([0.1, 0.2], [10, 12], [1, 2], dict(exact_max=-3), "^exact_max must be an integer >= 0, got -3$"),
    ([0.1, 0.2], [10, 12], [1, 2], dict(exact_max=True), "^exact_max must be an integer >= 0, got True$"),
    *[([0.1, 0.2], [1, 1], [1, 0], {"stream_index": 0, name: value},
       f"^{name} must be a 64-bit unsigned integer, got {value}$")
      for name in ("seed", "stream_index") for value in (True, 2.5, -1)],
], ids=["pg-outside", "negative-matched", "fractional-size", "empty-row", "column-mismatch",
        "empty-kth-row", "fractional-sims", "zero-sims-exact", "negative-exact-max", "boolean-exact-max",
        *[f"{name}-{label}" for name in ("seed", "stream-index") for label in ("boolean", "fractional",
                                                                                "negative")]])
def test_counts_test_refuses_malformed_counts(pg, sizes, matched, options, message):
    options = {"stream_index": [0, 1], **options}
    with pytest.raises(ValueError, match=message):
        nullref.counts_test(np.array(pg), np.array(sizes), np.array(matched), **options)


def test_counts_test_result_holds_python_scalars():
    """Numpy integer options give the result of Python ints, which dumps to JSON as ``test`` prints it."""
    pg, sizes, matched = np.array([0.1, 0.2]), np.array([10, 12]), np.array([1, 2])
    result = nullref.counts_test(pg, sizes, matched, sims=np.int64(500), seed=np.uint64(7))
    assert result == nullref.counts_test(pg, sizes, matched, sims=500, seed=7)
    assert result.method == "monte-carlo"
    assert json.loads(json.dumps(dataclasses.asdict(result)))["n_sims"] == 500
    assert type(result.n_sims) is int and type(result.seed) is int


@pytest.fixture
def golden_step_rows(monkeypatch):
    """Match counts of every row that a golden-section step of a null decision evaluates.

    A null decision is a ``_golden_max`` call with a ``keep`` rule; the
    observed fit's call has none and is not recorded. The bracket bounds
    that ``keep`` reads, each in a call before its step, are recorded too.
    """
    rows, stepping = set(), []
    loglik, golden = inference._cond_loglik_rows, inference._golden_max

    def loglik_spy(pg, sizes, matched, xi_rows, xi_miss=None):
        if stepping:
            rows.update(map(tuple, np.atleast_2d(matched).tolist()))
        return loglik(pg, sizes, matched, xi_rows, xi_miss)

    def golden_spy(loglik_rows, lo, hi, keep=None):
        if keep is None:
            return golden(loglik_rows, lo, hi)

        def step(xi, sel=slice(None), xi_miss=None):
            stepping.append(True)
            try:
                return loglik_rows(xi, sel, xi_miss)
            finally:
                stepping.pop()

        return golden(step, lo, hi, keep)

    monkeypatch.setattr(inference, "_cond_loglik_rows", loglik_spy)
    monkeypatch.setattr(inference, "_golden_max", golden_spy)
    return rows


def table1_golden_counts(table1):
    """``(pg, sizes, matched)`` of the golden ``test`` pair, grouped as ``conditional_test`` groups it."""
    tumors, catalog = table1
    obs = derive_pair_observation(profile(tumors, "T3"), profile(tumors, "Left/Mucinous"), catalog)
    ps = [p for _, p in obs.shared + obs.unshared]
    return group_by_probability(ps, np.ones(len(ps)), np.arange(len(ps)) < obs.n_matches)


# six probabilities over 24 markers: 2,000 draws hold the observed pattern, and
# the decision refines some of the other drawn patterns
SHARED_MC_PAIR = ([0.104, 0.112, 0.114, 0.162, 0.191, 0.296], [3, 2, 2, 5, 5, 7], [1, 0, 1, 0, 1, 2])


@pytest.mark.parametrize("case", ["golden-exact", "golden-monte-carlo", "shared-monte-carlo"])
def test_observed_pattern_never_enters_a_golden_step(case, table1, golden_step_rows):
    """The observed pattern is a tie, decided extreme without being refined in its own null."""
    if case == "shared-monte-carlo":
        pg, sizes, matched = map(np.array, SHARED_MC_PAIR)
    else:
        pg, sizes, matched = table1_golden_counts(table1)
    options = {} if case == "golden-exact" else dict(exact_max=0, sims=2000, seed=5)
    if options:
        drawn, _ = nullref._drawn_rows(pg, sizes.astype(float), 2000, RngStream(5, 0))
        assert (drawn == matched).all(axis=1).any()
    result = nullref.counts_test(pg, sizes, matched, **options)
    ps = list(np.repeat(pg, sizes.astype(int)))
    null = (exact_conditional_null(ps) if case == "golden-exact"
            else sample_conditional_null(ps, 2000, RngStream(5, 0)))
    assert result.p_value == p_value(result.statistic, null)
    assert tuple(matched.tolist()) not in golden_step_rows
    assert golden_step_rows or case != "shared-monte-carlo"  # other drawn patterns do step


def test_extreme_share_stores_multiplicities_from_the_first_one_above_1(monkeypatch):
    """Unit multiplicities are summed as ``w.sum()``; a buffer starts at the first kept one above 1.

    The three-marker group leads the enumeration, so in chunks of 8 the
    first chunk's patterns, all without a match in it, stand for one match
    vector each, and the next two chunks' for three.
    """
    monkeypatch.setattr(nullref, "_FIT_CHUNK", 8)
    repeat_sum, summed = nullref._repeat_sum, []

    def spy(w, r):
        summed.append(r.tolist())
        return repeat_sum(w, r)

    monkeypatch.setattr(nullref, "_repeat_sum", spy)
    gen = np.random.default_rng(1606)
    for ps in ([0.01] * 3 + [0.05, 0.1, 0.2], *(list(gen.uniform(0.002, 0.3, 6)) for _ in range(4))):
        summed.clear()
        null = exact_conditional_null(ps)
        for s in np.unique(null.statistics):
            for threshold in (s, np.nextafter(s, np.inf)):
                assert exact_p_value(threshold, ps) == p_value(threshold, null)
        distinct = len(set(ps)) == len(ps)
        assert not summed if distinct else any(r[0] == 1 and 3 in r for r in summed)


# --- p-values ------------------------------------------------------------------

def test_p_value_examples():
    null = exact_conditional_null([0.081])
    assert p_value(math.log(1.919 / 0.081), null) == pytest.approx(0.042209484106, rel=1e-9)
    assert p_value(0.0, null) == 1.0

    metastasis_null = exact_conditional_null([0.004, 0.008, 0.023])
    s = math.log(499.0) + math.log(249.0) + math.log(1.977 / 0.023)
    expected = (0.004 / 1.996) * (0.008 / 1.992) * (0.023 / 1.977)
    assert p_value(s, metastasis_null) == pytest.approx(expected, rel=1e-9)
    assert p_value(s, metastasis_null) < 0.001

    # a NaN statistic reaches no atom; it is refused, not taken as the most significant
    for take in (lambda: p_value(math.nan, null), lambda: exact_p_value(math.nan, [0.1, 0.2]),
                 lambda: monte_carlo_p_value(math.nan, [0.1, 0.2], 100, RngStream(1))):
        with pytest.raises(ValueError, match="statistic is NaN"):
            take()


def test_p_value_is_one_without_matches():
    obs = observation([], [0.1, 0.004, 0.02])
    result = conditional_test(obs)
    assert result.p_value == 1.0
    assert result.statistic == 0.0


# --- end-to-end conditional test -------------------------------------------------

def test_conditional_test_published_cases():
    kras_only = conditional_test(observation([0.081], []))
    assert kras_only.method == "exact"
    assert kras_only.n_sims == 0 and kras_only.seed is None
    assert kras_only.p_value == pytest.approx(0.0422094841, rel=1e-8)

    mucinous = conditional_test(observation([0.081], [0.004] * 9))
    assert mucinous.p_value == pytest.approx(0.0593464333, rel=1e-8)
    assert (mucinous.n_matches, mucinous.n_union) == (1, 10)

    tubular = conditional_test(observation([0.081], [0.004] * 11))
    assert tubular.p_value == pytest.approx(0.0631128102, rel=1e-8)

    p6_vs_p1 = conditional_test(observation([0.023], [0.004, 0.008]))
    assert p6_vs_p1.p_value == pytest.approx(0.01757587, rel=1e-6)


def test_conditional_test_monotone_evidence_across_case_pairs():
    p_kras = conditional_test(observation([0.081], [])).p_value
    p_muc = conditional_test(observation([0.081], [0.004] * 9)).p_value
    p_tub = conditional_test(observation([0.081], [0.004] * 11)).p_value
    assert p_kras < p_muc < p_tub


def test_conditional_test_empty_union():
    with pytest.raises(ValueError, match="no mutations observed"):
        conditional_test(observation([], []))


def test_conditional_test_monte_carlo_determinism():
    obs = observation([0.081], [0.004] * 9)
    a = conditional_test(obs, exact_max=0, sims=20_000, seed=99)
    b = conditional_test(obs, exact_max=0, sims=20_000, seed=99)
    assert a == b
    assert a.method == "monte-carlo"
    assert a.n_sims == 20_000 and a.seed == 99


def test_conditional_test_exact_vs_monte_carlo():
    obs = observation([0.05, 0.02], [0.1, 0.004, 0.03])
    exact = conditional_test(obs)
    mc = conditional_test(obs, exact_max=0, sims=200_000, seed=5)
    se = math.sqrt(exact.p_value * (1 - exact.p_value) / 200_000)
    assert abs(mc.p_value - exact.p_value) <= 4.0 * se


# --- unconditional null -----------------------------------------------------------

def test_unconditional_null_single_half_marker():
    n_sims = 40_000
    null = sample_unconditional_null([(0.5, 1)], n_sims, RngStream(13))
    # single marker at p=0.5: a lone mutation scores 0 (prob 1/2); a match or
    # a double absence both score log 2 (prob 1/4 each)
    zero_mass = np.mean(null.statistics == 0.0)
    log2_mass = np.mean(np.isclose(null.statistics, math.log(2.0)))
    assert abs(zero_mass - 0.5) <= 4.0 * math.sqrt(0.25 / n_sims)
    assert abs(log2_mass - 0.5) <= 4.0 * math.sqrt(0.25 / n_sims)


def test_unconditional_null_deterministic_and_cached():
    # a caller builds the null once and reuses it, so equal streams give equal nulls
    universe = [(0.1, 10), (0.004, 500)]
    a = sample_unconditional_null(universe, 2000, RngStream(3, 8))
    b = sample_unconditional_null(universe, 2000, RngStream(3, 8))
    assert np.array_equal(a.statistics, b.statistics)
    assert a.total == 2000 and np.array_equal(a.weights, np.ones(2000))
    s = float(np.median(a.statistics))
    assert p_value(s, a) == p_value(s, b) == np.mean(a.statistics >= s - nullref.TIE_TOLERANCE)


def test_unconditional_null_percentile_stable_across_seeds():
    universe = [(0.1, 10), (4.0 / 9990.0, 9990)]
    a = sample_unconditional_null(universe, 4000, RngStream(101))
    b = sample_unconditional_null(universe, 4000, RngStream(202))
    qa, qb = np.percentile(a.statistics, 95), np.percentile(b.statistics, 95)
    # bootstrap standard error of the 95th percentile from one run
    gen = np.random.default_rng(0)
    boot = [
        np.percentile(gen.choice(a.statistics, size=a.n, replace=True), 95)
        for _ in range(200)
    ]
    assert abs(qa - qb) <= 4.0 * math.sqrt(2.0) * max(np.std(boot), 1e-3)


def test_unconditional_null_refuses_an_empty_universe():
    with pytest.raises(ValueError, match="universe must hold at least one"):
        sample_unconditional_null([], 10, RngStream(0))


@pytest.mark.parametrize("n_markers", [2.5, True, 0, -3])
def test_unconditional_null_refuses_a_count_that_is_not_a_whole_number_of_markers(n_markers):
    message = re.escape(f"n_markers must be a whole number >= 1, got {n_markers!r}")
    with pytest.raises(ValueError, match=message):
        sample_unconditional_null([(0.1, 5), (0.2, n_markers)], 10, RngStream(0))


def test_unconditional_null_takes_a_whole_float_count():
    # group_by_probability sums the counts of a universe as floats
    a = sample_unconditional_null([(0.1, 10.0), (0.02, 40.0)], 50, RngStream(4))
    b = sample_unconditional_null([(0.1, 10), (0.02, 40)], 50, RngStream(4))
    assert np.array_equal(a.statistics, b.statistics)


TABLE2_M5 = preset_scenario("table2-m5", 0.0).groups
UNIVERSES = {
    "table2-m5": list(zip(*group_by_probability([clamp_probability(g.p) for g in TABLE2_M5],
                                                [g.n_markers for g in TABLE2_M5]))),
    # (n + 1)^2 per group passes 2^63: the mixed-radix keys leave int64
    "twelve groups": [(p, 1000) for p in (0.001, 0.002, 0.004, 0.006, 0.01, 0.015,
                                          0.02, 0.03, 0.05, 0.08, 0.1, 0.2)],
}


@pytest.mark.parametrize("name, n_sims", [("table2-m5", 2000), ("twelve groups", 1000)])
def test_unconditional_null_fits_each_distinct_draw_once(name, n_sims, monkeypatch):
    universe = UNIVERSES[name]
    assert (math.prod((n + 1) ** 2 for _, n in universe) >= 1 << 63) == (name == "twelve groups")
    fitted_rows = []

    def fit(pg, ng, matched, single):
        fitted_rows.append(len(matched))
        return fit_unconditional_batch(pg, ng, matched, single)

    monkeypatch.setattr(nullref, "fit_unconditional_batch", fit)
    null = sample_unconditional_null(universe, n_sims, RngStream(7, 3))
    gen = RngStream(7, 3).generator()  # the same multinomial calls, every row in draw order
    draws = [gen.multinomial(int(n), outcome_cells(p, 0.0), size=n_sims) for p, n in universe]
    matched = np.column_stack([d[:, 0] for d in draws]).astype(float)
    single = np.column_stack([d[:, 1] for d in draws]).astype(float)
    pg, ng = (np.array(column, dtype=float) for column in zip(*universe))
    every = fit_unconditional_batch(pg, ng, matched, single)[1]
    assert np.array_equal(np.sort(null.statistics), np.sort(every))
    assert fitted_rows == [len(np.unique(np.hstack([matched, single]), axis=0))]
    if name == "table2-m5":
        assert fitted_rows[0] < n_sims // 5
    in_draw_order = NullDistribution(every, np.ones(n_sims), n_sims)
    values = np.unique(every)
    grid = np.concatenate([values, np.nextafter(values, np.inf), (values[1:] + values[:-1]) / 2,
                           values - 2e-9, [-1.0, values[-1] + 1.0]])
    assert [p_value(s, null) for s in grid] == [p_value(s, in_draw_order) for s in grid]


# --- calibrated rejection -----------------------------------------------------------

def test_calibrated_rejection_discrete_uniform():
    null_p = [round(0.01 * k, 2) for k in range(1, 101)]
    rule = calibrated_rejection(null_p, null_p, 0.05)
    assert rule.threshold == 0.05
    assert rule.randomized_boundary_prob == 0.0
    assert rule.calibrated_power == pytest.approx(0.05, abs=1e-12)


def test_calibrated_rejection_dominant_alternative():
    null_p = np.linspace(0.2, 1.0, 50)
    alt_p = np.full(80, 0.001)
    rule = calibrated_rejection(null_p, alt_p, 0.05)
    assert rule.calibrated_power == 1.0


def test_calibrated_rejection_self_size_is_alpha():
    gen = np.random.default_rng(17)
    for alpha in (0.01, 0.05, 0.2):
        null_p = np.round(gen.uniform(0, 1, size=137), 2)  # heavy ties
        rule = calibrated_rejection(null_p, null_p, alpha)
        size = np.mean(null_p <= rule.threshold)
        if rule.randomized_boundary_prob > 0.0:
            above = null_p[null_p > rule.threshold]
            boundary = above.min()
            size += rule.randomized_boundary_prob * np.mean(null_p == boundary)
        assert size == pytest.approx(alpha, abs=1e-12)
        assert rule.calibrated_power == pytest.approx(alpha, abs=1e-12)


def test_calibrated_rejection_dominant_smallest_atom():
    # 30 % of the null p-values sit on the smallest value, more than alpha:
    # only smaller p-values are rejected outright, that atom with alpha / 0.3
    gen = np.random.default_rng(3)
    rest = gen.uniform(0.02, 1.0, 140)
    for smallest in (0.0, 0.01):
        null_p = np.concatenate([np.full(60, smallest), rest])
        rule = calibrated_rejection(null_p, null_p, 0.05)
        assert rule.threshold < smallest
        assert rule.randomized_boundary_prob == pytest.approx(0.05 / 0.3, rel=1e-12)
        assert rule.calibrated_power == pytest.approx(0.05, abs=1e-12)
        alt_p = np.concatenate([np.full(10, smallest), np.full(10, 0.5)])
        power = calibrated_rejection(null_p, alt_p, 0.05).calibrated_power
        assert power == pytest.approx(0.5 * 0.05 / 0.3, rel=1e-12)
    assert calibrated_rejection(null_p, [0.001, 0.002], 0.05).calibrated_power == 1.0


def test_calibrated_rejection_between_threshold_and_boundary():
    # threshold 0.01 (size 0.02), boundary 0.03 randomized with 0.03 / 0.1:
    # 0.02 lies below the boundary and is rejected outright
    null_p = [0.01] * 2 + [0.03] * 10 + [0.5] * 88
    expected = {0.005: 1.0, 0.01: 1.0, 0.02: 1.0, 0.029: 1.0, 0.03: 0.3, 0.04: 0.0, 0.5: 0.0}
    for alt, power in expected.items():
        rule = calibrated_rejection(null_p, [alt], 0.05)
        assert rule.threshold == 0.01
        assert rule.calibrated_power == pytest.approx(power, abs=1e-12), alt
    grid = np.linspace(0.0, 1.0, 201)
    powers = [calibrated_rejection(null_p, [alt], 0.05).calibrated_power for alt in grid]
    assert all(a >= b for a, b in zip(powers, powers[1:]))
    assert calibrated_rejection(null_p, null_p, 0.05).calibrated_power == pytest.approx(0.05)
    # size alpha at the threshold: the gap below the next null p-value is
    # rejected, that value is not (randomized with probability 0)
    at_alpha = [0.01] * 5 + [0.5] * 95
    powers = [calibrated_rejection(at_alpha, [alt], 0.05).calibrated_power for alt in (0.2, 0.5)]
    assert powers == [1.0, 0.0]


def test_calibrated_rejection_validation():
    with pytest.raises(ValueError):
        calibrated_rejection([], [0.1], 0.05)
    with pytest.raises(ValueError):
        calibrated_rejection([0.1], [0.1], 1.5)
    for alpha in (math.nan, "0.05", True):
        with pytest.raises(ValueError, match="alpha must be"):
            calibrated_rejection([0.1], [0.1], alpha)
    for bad in ([math.nan] * 3, [0.1, math.nan], [1.5], [-0.1]):
        with pytest.raises(ValueError, match=r"null p-values must lie in \[0, 1\]"):
            calibrated_rejection(bad, [0.1], 0.05)
        with pytest.raises(ValueError, match=r"alternative p-values must lie in \[0, 1\]"):
            calibrated_rejection([0.1], bad, 0.05)
    rule = calibrated_rejection([0.0, 1.0], [0.0, 1.0], 0.5)  # the ends of [0, 1] are p-values
    assert rule.threshold == 0.0


# --- NullDistribution validation ------------------------------------------------------

def test_null_distribution_validation():
    with pytest.raises(ValueError, match="sum to"):
        NullDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="sum to"):
        NullDistribution(np.array([0.0, 1.0]), np.ones(2), 3)
    with pytest.raises(ValueError, match="align"):
        NullDistribution(np.array([0.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="empty"):
        NullDistribution(np.array([]), np.array([]), 0)
    for weights in ([0.5, math.nan], [1.5, -0.5], [math.inf, 1.0]):
        with pytest.raises(ValueError, match="finite and non-negative"):
            NullDistribution(np.array([0.0, 1.0]), np.array(weights))
    for total in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="total mass must be finite and positive"):
            NullDistribution(np.array([0.0, 1.0]), np.zeros(2), total)
