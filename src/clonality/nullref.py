"""Null reference distributions, p-values and calibrated rejection rules.

The conditional null fixes the observed mutated marker set E and resamples
only the match indicators, each Bernoulli with the null match probability
``q_i = p_i / (2 - p_i)``. Markers sharing a probability are exchangeable,
so the null works on per-probability match counts, over the groups that
:func:`~clonality.inference.group_by_probability` makes once per pair and
the observed fit shares. Two sources yield count patterns in chunks,
``(patterns, weights, reps, settle)``, a pattern standing for ``reps`` atoms
of weight ``weights`` (``reps`` is None where every one is 1), and
``settle(threshold)`` proving what sums of per-group bound tables prove
(:func:`~clonality.inference.settle_by_bounds`). For small E,
:func:`_exact_patterns` enumerates all 2^|E| match vectors (up to
``EXACT_ATOM_LIMIT``) in chunks of ``_FIT_CHUNK`` patterns weighted by one
vector's mass. The patterns that share their leading groups' counts form a
block, and one proof at the block's corner settles a whole block extreme: at
the observed statistic of a distinct-p pair (p ~ U(0.002, 0.3), 30 %
matched), 56-63 % of the blocks at |E| = 14-16, and 33-60 % over four shared
probabilities. Otherwise :func:`_drawn_rows` counts the distinct patterns of
Monte Carlo draws that it takes block by block from :func:`_drawn_blocks`,
by their keys (:func:`_pattern_counts`), and :func:`_drawn_chunks` yields
them ``_DRAWN_CHUNK`` at a time, weight 1, with their draw counts. A p-value
needs only whether each pattern's statistic reaches the observed one, so the
one decide-and-sum, :func:`_extreme_share`, settles what a chunk's closure
proves (all but 0.1 % of the case benchmark's exact patterns and 6 % of the
cohort benchmark's drawn ones) and passes the rest to
:func:`~clonality.inference.conditional_exceeds`, which stops refining a
pattern once its answer is proven. A pattern equal to the observed counts is
the observed outcome itself, a tie, so it is passed on as known extreme and
never refined. It returns the same float as :func:`p_value` on the null the
one oracle, :func:`_fitted_null`, fits in full
(:func:`exact_conditional_null`, :func:`sample_conditional_null`), which
tests use as the reference. Memory follows count patterns, not atoms: the
only chunk-sized arrays of an exact chunk are its (K, G) patterns, their
masses and, over shared probabilities, their multiplicities; table sums are
reduced ``_BOUND_SLAB`` patterns at a time. The decide-and-sum keeps one
weight per extreme pattern and a multiplicity only where one exceeds 1, and
:func:`_repeat_sum` sums the atoms without repeating them. A Monte Carlo
null holds one int64 key per draw and one fill of at most ``_DRAW_SLAB``
uniforms, not a (G, sims) table, and the fits and decisions work
``inference._ROW_SLAB`` rows at a time.

:func:`counts_test` is the one test core: it takes the match counts of one
pair, or of K pairs sharing one set of probabilities, already grouped by
probability; it fits every observed statistic at once, chooses each pair's
exact or Monte Carlo source and builds one :class:`TestResult` per pair.
The decide-and-sum takes the drawn patterns of all Monte Carlo pairs in
one pass, each pair against its own statistic, and sums each pair's
extreme mass apart, so each p-value is that of the pair tested alone.
It checks its own arrays and options, so it is the one place where a
test's input is validated. :func:`conditional_test` groups an observed pair's markers
straight into it, and the simulation harness calls it once per run on the
counts it draws.

The unconditional null simulates whole tumor pairs over ``(p, n_markers)``
groups under zero clonality signal; it does not depend on the observed
data, so a caller builds it once and passes it to every p-value. It, too,
counts its draws with :func:`_pattern_counts`, each group's multinomial
draws one block (matched counts in column g, single counts in column G +
g), so wherever the keys fit int64 it holds them and one group's draws,
not a (2G, sims) table; it fits each distinct pattern once.

Every null is a :class:`NullDistribution` of weighted atoms: an exact null
weights each outcome vector by its probability, a Monte Carlo null each
draw by 1, and :func:`p_value` reads the same mass over total from both.

P-values count null statistics greater than or equal to the observed one
(ties are extreme): the published single-locus p-value equals the
probability of the tied outcome itself, which a strict rule would drop. A
1e-9 tie tolerance absorbs float rounding across code paths; callers pass
observed statistics, and only :func:`_extreme_share` and :func:`p_value`
apply the rule.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ClonalityError
from .inference import (
    bound_tables,
    conditional_exceeds,
    fit_conditional_batch,
    fit_unconditional_batch,
    group_by_probability,
    settle_by_bounds,
)
from .model import (
    PairObservation, check_real, match_probabilities, outcome_cells, validate_count, validate_probability,
)
from .rng import DEFAULT_SEED, RngStream

TIE_TOLERANCE = 1e-9
EXACT_MAX_DEFAULT = 20
SIMS_DEFAULT = 100_000
_FIT_CHUNK = 1 << 16
# Patterns per drawn chunk, which bounds the (K, G) copies and (22, K) table
# sums of deciding it: a 29-marker distinct-p pair at 10^6 sims peaked
# (tracemalloc) at 38.7 MiB with 4,096 and with 8,192, and 41.5 MiB with
# 65,536; 4,096 is a _BOUND_SLAB.
_DRAWN_CHUNK = 1 << 12
# Uniforms per fill of the inverted Monte Carlo draws (8 MiB of float64): a
# whole number of groups' rows, one row at least. 29 groups of 20,000 draws
# stay one fill; fills of 2^17 cost page faults and system time there
# without lowering the peak RSS.
_DRAW_SLAB = 1 << 20
_BOUND_SLAB = 1 << 12  # patterns per (22, n) table-sum temporary of an exact chunk
_SUM_LEAF = 1 << 16  # atoms per repeated piece of _repeat_sum
# Most atoms (2^|E|) an exact null may enumerate, for exact_p_value and the
# oracle exact_conditional_null alike. At the limit the oracle's 16.8M atoms
# take 256 MB as statistics and probabilities, and about 1 GB while being
# built. exact_p_value keeps one weight per extreme pattern, a multiplicity
# only where one exceeds 1, and no atoms: in one process per case (about 30 MB
# of it imports), a distinct-p case (p ~ U(0.002, 0.3), 30 % matched, at its
# observed statistic) peaked at 68, 95 and 196 MB RSS at |E| = 20, 22 and 24,
# and shared p at |E| = 24 over 4 levels at 37 MB.
EXACT_ATOM_LIMIT = 1 << 24


@dataclass(frozen=True)
class NullDistribution:
    """Reference distribution of a test statistic under independence.

    Weighted atoms: ``statistics[k]`` carries ``weights[k]`` of a mass
    ``total``. An exact null has one atom per outcome vector weighted by its
    probability (total 1); a Monte Carlo null has one atom per draw with
    weight 1 (total n, the number of draws). Weights are finite and
    non-negative, and the total is finite and positive.
    """

    statistics: np.ndarray
    weights: np.ndarray
    total: float = 1.0

    def __post_init__(self):
        stats = np.asarray(self.statistics, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if stats.size == 0:
            raise ValueError("null distribution is empty")
        if weights.shape != stats.shape:
            raise ValueError("atom weights must align with statistics")
        if not (np.isfinite(weights).all() and (weights >= 0.0).all()):
            raise ValueError("atom weights must be finite and non-negative")
        if not (math.isfinite(self.total) and self.total > 0.0):
            raise ValueError(f"total mass must be finite and positive, got {self.total}")
        if abs(weights.sum() - self.total) > 1e-9 * self.total:
            raise ValueError(f"atom weights sum to {weights.sum()}, not {self.total}")
        object.__setattr__(self, "statistics", stats)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return int(self.statistics.size)


@dataclass(frozen=True)
class TestResult:
    """Outcome of one clonal-relatedness test; the fields are in ``test`` JSON key order."""

    n_union: int
    n_matches: int
    xi_hat: float
    statistic: float
    p_value: float
    method: str
    n_sims: int
    seed: Optional[int]


@dataclass(frozen=True)
class CalibratedRule:
    """Randomized rejection rule with size exactly alpha on the null sample.

    The boundary is the smallest null p-value above ``threshold``. P-values
    below the boundary are rejected, and the boundary itself with
    probability ``randomized_boundary_prob``. No null p-value lies strictly
    between ``threshold`` and the boundary, so the null size is alpha.
    """

    threshold: float
    randomized_boundary_prob: float
    calibrated_power: float


def _pattern_counts(sizes: np.ndarray, blocks, n: int):
    """``(patterns, draws)``: the distinct (G,) count patterns of ``n`` draws and how often each came.

    ``blocks`` yield ``(columns, rows)``: the draws' counts of the columns
    ``columns`` (indices), as (len(columns), n) rows, column g <=
    ``sizes[g]``. A column that no block names is 0 in every pattern; a
    block that names a column a second time starts the draws over. Each row
    is added into the draws' int64 keys in mixed radix ``sizes + 1``, column
    0 most significant, so the working memory is the keys and one block, and
    patterns come in the order of their keys, as
    ``np.unique(table, axis=0, return_counts=True)`` of the (n, G) table
    gives them. ``np.unique`` counts the keys by a sort (``return_index`` or
    ``return_inverse`` would argsort). Keys that would leave int64 fill that
    table and take its row-wise form.
    """
    radix = [int(size) + 1 for size in sizes]
    wide = math.prod(radix) >= 1 << 63
    place = None if wide else np.array([math.prod(radix[g + 1:]) for g in range(len(radix))], dtype=np.int64)
    drawn = np.zeros((len(radix), n) if wide else n, dtype=np.int64)  # the (G, n) table, or the keys
    named = np.zeros(len(radix), dtype=bool)
    for columns, rows in blocks:
        if named[columns].any():  # the draws start over
            drawn[:], named[:] = 0, False
        named[columns] = True
        if wide:
            drawn[columns] = rows
        else:
            for step, row in zip(place[columns], rows):
                drawn += step * row
    if wide:
        return np.unique(drawn.T, axis=0, return_counts=True)
    keys, draws = np.unique(drawn, return_counts=True)
    return keys[:, None] // place % radix, draws


def _by_btpe(n: np.ndarray, q: np.ndarray) -> bool:
    """Whether numpy draws a binomial of some group ``(n, q)`` by BTPE: n·min(q, 1 − q) > 30."""
    return bool((np.minimum(q, 1.0 - q) * n > 30.0).any())


def _inverted_rows(gen: np.random.Generator, n: np.ndarray, q: np.ndarray, n_sims: int):
    """``gen.binomial(n[g], q[g], size=n_sims)`` for g in order, as (G, n_sims) rows; every n >= 1.

    Numpy inverts a binomial with n·p <= 30, p = min(q, 1 − q): X counts the steps while
    its uniform U > px, from px = (1 − p)^n, each doing U −= px, px = (n − X + 1)·p·px /
    (X·(1 − p)); for q > 1/2 the draw is n − X. One fill and the same float operations
    give the same integers and leave ``gen`` where the calls do. The first two steps,
    which end most draws, run over all draws. None where numpy uses BTPE, or restarts a
    draw past floor(min(n, np + 10·sqrt(np(1 − p) + 1))) on a fresh uniform.
    """
    if _by_btpe(n, q):
        return None
    flip = q > 0.5
    p = np.where(flip, 1.0 - q, q)
    c = 1.0 - p
    px = np.array([math.exp(m * math.log(x)) for m, x in zip(n.tolist(), c.tolist())])
    bound = np.minimum(n, n * p + 10.0 * np.sqrt(n * p * c + 1))  # >= 1, so step 1 stays inside

    def next_px(px, x):
        return ((n - x + 1) * p * px) / (x * c)

    u = gen.random((n.size, n_sims))
    going = u > px[:, None]
    steps = going.astype(np.min_scalar_type(int(n.max())))
    u -= px[:, None]
    px = next_px(px, 1)
    going &= u > px[:, None]
    steps += going
    x, draw, flat = 2, np.flatnonzero(going), steps.reshape(-1)
    g, left = draw // n_sims, u.ravel()[draw]
    while draw.size:
        if (bound[g] < x).any():
            return None
        left -= px[g]
        px = next_px(px, x)
        x += 1
        more = left > px[g]
        draw, g, left = draw[more], g[more], left[more]
        flat[draw] = x
    steps[flip] = n[flip, None] - steps[flip]
    return steps


def _drawn_blocks(n: np.ndarray, q0: np.ndarray, n_sims: int, rng: RngStream):
    """The null draws of groups ``(n, q0)`` on stream ``rng``, as ``(groups, rows)`` blocks.

    ``groups`` is a slice of the groups and ``rows`` their (g, ``n_sims``)
    counts. From 10^4 draws on, :func:`_inverted_rows` gives them from
    consecutive ``gen.random((g, n_sims))`` fills of at most ``_DRAW_SLAB``
    uniforms (one group's row at least) on one generator, which together are
    the one row-major (G, n_sims) fill. Below that (where the calls cost
    less), with a group numpy draws by BTPE, or where it gives up on any
    fill, one ``gen.binomial`` call per group on a fresh generator gives the
    rows from group 0 on, so its first block names a group already drawn
    where a fill was, which starts the draws over (:func:`_pattern_counts`).
    """
    if n.size * n_sims >= 10_000 and not _by_btpe(n, q0):
        gen, step = rng.generator(), max(1, _DRAW_SLAB // n_sims)
        for first in range(0, n.size, step):
            groups = slice(first, first + step)
            rows = _inverted_rows(gen, n[groups], q0[groups], n_sims)
            if rows is None:
                break
            yield groups, rows
        else:
            return
    gen = rng.generator()
    for g, (size, q) in enumerate(zip(n, q0)):
        yield slice(g, g + 1), gen.binomial(int(size), q, size=n_sims)[None]


def _drawn_rows(pg: np.ndarray, sizes: np.ndarray, n_sims: int, rng: RngStream):
    """``(patterns, draws)``: the distinct count patterns of ``n_sims`` null draws.

    Draws the nonzero-size groups of ``(pg, sizes)`` on stream ``rng`` as
    ``gen.binomial(size, q0, n_sims)`` per group would, block by block
    (:func:`_drawn_blocks`), and counts them by :func:`_pattern_counts`: a
    zero-size group is named by no block, so its column of every pattern is
    0, and the fallback's blocks, which name group 0 again, start the draws
    over.
    """
    validate_count("n_sims", n_sims, 1)
    drawn = np.flatnonzero(sizes > 0)
    blocks = _drawn_blocks(sizes[drawn], match_probabilities(pg[drawn], 0.0), n_sims, rng)
    return _pattern_counts(sizes, ((drawn[groups], rows) for groups, rows in blocks), n_sims)


def _drawn_chunks(pg: np.ndarray, sizes: np.ndarray, patterns: np.ndarray, draws: np.ndarray, row_of=None):
    """Drawn patterns as ``(patterns, ones, draws, settle)`` per ``_DRAWN_CHUNK`` patterns.

    ``sizes`` (K, G) holds each row's own, pattern j being drawn for row
    ``row_of[j]`` (row 0 when K is 1). ``settle`` settles the chunk's table
    sums, two products, by :func:`~clonality.inference.settle_by_bounds`. A
    chunk is never longer than ``_FIT_CHUNK``; a drawn pattern's decision
    does not depend on its batch.
    """
    slope, intercept = bound_tables(pg)
    step = min(_DRAWN_CHUNK, _FIT_CHUNK)
    for start in range(0, patterns.shape[0], step):
        rows = slice(start, start + step)
        chunk_sizes = sizes[:1] if len(sizes) == 1 else sizes[row_of[rows]]
        sums = slope @ patterns[rows].T + intercept @ chunk_sizes.T
        yield patterns[rows], np.ones(draws[rows].size), draws[rows], functools.partial(settle_by_bounds, sums)


def _split_patterns(counts: Sequence[int]) -> list[np.ndarray]:
    """Count patterns of a leading and a trailing run of groups, as ints.

    Patterns are enumerated in mixed radix over ``counts + 1``, group 0 most
    significant, as ``np.unravel_index`` orders them. So pattern ``k`` is
    row ``k // B`` of the leading patterns next to row ``k % B`` of the
    trailing ones, B being the number of trailing rows. The cut balances
    the two row counts, so each is near the square root of the total.
    """
    radix = [int(c) + 1 for c in counts]
    cut = min(range(len(radix) + 1),
              key=lambda j: max(math.prod(radix[:j]), math.prod(radix[j:])))
    return [np.indices(shape).reshape(len(shape), math.prod(shape)).T
            for shape in (radix[:cut], radix[cut:])]


def _exact_patterns(pg: np.ndarray, sizes: np.ndarray, exact_max: int):
    """Count patterns of the exact null over groups ``(pg, sizes)``.

    Raises before allocating anything when ``|E| = sizes.sum()`` exceeds
    ``exact_max`` or 2^|E| exceeds ``EXACT_ATOM_LIMIT``. Yields
    ``(patterns, weights, reps, settle)`` for up to ``_FIT_CHUNK`` patterns
    at a time, in one fixed order: the per-probability match counts, the
    product-Bernoulli mass of one match vector with those counts, the number
    of match vectors sharing them (None when every group has one marker, so
    every number is 1) and a closure ``settle(threshold) -> (extreme,
    open_rows)``, which proves what
    :func:`~clonality.inference.settle_by_bounds` proves pattern by pattern,
    and more: the patterns of one leading row of :func:`_split_patterns`
    form a block, and a block whose corner (next to the trailing row
    without a match) is proven extreme is extreme whole.

    Patterns, multiplicities and table sums are computed once per row of
    each part of :func:`_split_patterns`; a chunk combines the two parts'
    rows by broadcasting, and its closure sums the tables of at most
    ``_BOUND_SLAB`` patterns at a time, only over the blocks that their
    corner leaves unsettled. The mass is one matrix-vector product over the
    chunk's patterns and one over their misses, whose rounding, and with it
    every p-value's, may depend on the batch, so the chunks stay those of
    the flat enumeration. The misses ``sizes - patterns`` are written into
    the pattern block and back, which is exact for these whole numbers, and
    the masses are exponentiated in place, so a chunk allocates one (K, G)
    block and one (K,) float array.
    """
    n = int(sizes.sum())
    if n > exact_max:
        raise ClonalityError(
            f"exact enumeration over {n} markers exceeds exact_max={exact_max}; "
            "use Monte Carlo sampling instead"
        )
    if 2 ** n > EXACT_ATOM_LIMIT:
        raise ClonalityError(
            f"exact enumeration over {n} markers needs 2^{n} = "
            f"{2 ** n:,} atoms, over the limit of {EXACT_ATOM_LIMIT:,}; lower "
            f"--exact-max (exact_max) to {EXACT_ATOM_LIMIT.bit_length() - 1} or less "
            "so that larger sets use Monte Carlo sampling"
        )
    q0 = match_probabilities(pg, 0.0)
    log_match, log_miss = np.log(q0), np.log1p(-q0)
    counts = sizes.astype(int)
    choose = [np.array([math.comb(c, k) for k in range(c + 1)], dtype=np.int64) for c in counts]
    slope, intercept = bound_tables(pg)
    # per part: float patterns, multiplicities and table sums
    parts, first = [], 0
    for part in _split_patterns(counts):
        reps = np.ones(part.shape[0], dtype=np.int64)
        sums = np.zeros((slope.shape[0], part.shape[0]))
        for j, g in enumerate(range(first, first + part.shape[1])):
            reps *= choose[g][part[:, j]]
            sums += slope[:, g, None] * part[:, j] + sizes[g] * intercept[:, g, None]
        parts.append((part.astype(float), reps, sums))
        first += part.shape[1]
    (lead, lead_reps, lead_sums), (trail, trail_reps, trail_sums) = parts
    width = trail.shape[0]
    n_patterns = lead.shape[0] * width
    slab = max(1, _BOUND_SLAB // width)  # leading rows per table-sum slab
    unit = lead_reps.max() == 1 and trail_reps.max() == 1  # every group of size 1

    def settle(rows, span, threshold):
        """``(extreme, open_rows)`` of a chunk's patterns, as the bound tables prove them.

        The chunk is ``span`` of the flattened (leading ``rows``) x (every
        trailing row) patterns, as ``chunks`` computes both. A block's
        corner has the block's smallest coarse value above ``ll0``: for xi >
        0, ll(xi) - ll(0) rises with every group's match count, and the
        sizes alone set the margin, so a corner proven extreme settles its
        whole block. Only the other blocks' patterns get their table sums,
        ``slab`` leading rows at a time.
        """
        whole = settle_by_bounds(lead_sums[:, rows] + trail_sums[:, :1], threshold)[0]
        extreme, rest = np.repeat(whole, width), np.flatnonzero(~whole)  # over the chunk's blocks
        open_rows = [np.empty(0, dtype=np.intp)]
        for first in range(0, rest.size, slab):
            lead_rows = rest[first:first + slab]
            sums = lead_sums[:, rows.start + lead_rows, None] + trail_sums[:, None, :]
            hit, left = settle_by_bounds(sums.reshape(sums.shape[0], -1), threshold)
            at = (lead_rows[:, None] * width + np.arange(width)).ravel()
            extreme[at] = hit
            open_rows.append(at[left])
        open_rows = np.concatenate(open_rows) - span.start
        return extreme[span], open_rows[(open_rows >= 0) & (open_rows < span.stop - span.start)]

    def chunks():
        for start in range(0, n_patterns, _FIT_CHUNK):
            stop = min(start + _FIT_CHUNK, n_patterns)
            # the chunk is a span of (leading rows it touches) x (every trailing row)
            top, skip = divmod(start, width)
            rows = slice(top, -(-stop // width))
            span = slice(skip, skip + stop - start)
            block = np.empty((rows.stop - top, width, len(counts)))
            block[:, :, :lead.shape[1]] = lead[rows, None]
            block[:, :, lead.shape[1]:] = trail
            patterns = block.reshape(-1, len(counts))[span]
            log_vector_prob = patterns @ log_match
            np.subtract(sizes, patterns, out=patterns)
            log_vector_prob += patterns @ log_miss
            np.subtract(sizes, patterns, out=patterns)
            reps = None if unit else np.outer(lead_reps[rows], trail_reps).ravel()[span]
            yield (patterns, np.exp(log_vector_prob, out=log_vector_prob), reps,
                   functools.partial(settle, rows, span))

    return chunks()


def _repeat_sum(w: np.ndarray, r: np.ndarray) -> float:
    """``np.repeat(w, r).sum()`` bit for bit, without the repeat; every ``r`` >= 1.

    Numpy sums a contiguous float64 array pairwise: more than 128 values are
    split at n/2 rounded down to a multiple of 8, and the two halves' sums
    added. This follows that tree down to pieces of at most ``_SUM_LEAF``
    atoms, which it repeats and reduces by numpy itself. Every multiplicity
    1 is ``w.sum()``; every weight 1, as on a Monte Carlo null, is the exact
    integer count.
    """
    atoms = int(r.sum())
    if atoms == r.size:
        return w.sum()
    if (w == 1.0).all():
        return float(atoms)
    ends = np.cumsum(r)

    def tree(lo, n):
        if n > _SUM_LEAF:
            half = n // 2 - n // 2 % 8
            return tree(lo, half) + tree(lo + half, n - half)
        first, last = np.searchsorted(ends, (lo, lo + n - 1), side="right")
        runs = r[first:last + 1].copy()
        runs[-1] = lo + n - (ends[last] - r[last])
        runs[0] -= lo - (ends[first] - r[first])
        return np.add.reduce(np.repeat(w[first:last + 1], runs), initial=0.0)

    return tree(0, atoms)


def _share(weights: np.ndarray, reps, total: float) -> float:
    """``min(mass / total, 1)``, an extreme mass's share, as :func:`p_value` and :func:`_extreme_share` take it.

    The mass is that of atoms ``weights`` repeated ``reps`` times (None:
    once each): ``weights.sum()``, or ``np.repeat(weights, reps).sum()`` as
    :func:`_repeat_sum` gives it bit for bit.
    """
    return min((weights.sum() if reps is None else _repeat_sum(weights, reps)) / total, 1.0)


def _ties(patterns, counts, owner):
    """Which ``patterns`` equal their row's observed ``counts`` (K, G); None without counts.

    Pattern j belongs to row ``owner[j]``, or to row ``owner`` if an int.
    Compared column by column, so no (n, G) copy of the counts is made.
    """
    if counts is None:
        return None
    tie = np.ones(len(patterns), dtype=bool)
    for g, column in enumerate(patterns.T):
        tie &= column == counts[owner, g]
    return tie


def _extreme_share(pg, sizes, chunks, observed, n_patterns: int, total: float = 1.0,
                   row_of=None, counts=None) -> np.ndarray:
    """Per row, the mass over ``total`` of its patterns with statistic >= its observed one.

    ``chunks`` yield the ``n_patterns`` patterns of K rows stacked in row
    order, pattern j belonging to row ``row_of[j]``; ``sizes`` (K, G) and
    ``observed`` (K,) hold each row's own; the tie rule lives here and in
    :func:`p_value`: a pattern is extreme from ``observed - TIE_TOLERANCE``
    up. One row needs no ``row_of``; its sizes and threshold are passed on
    whole, and ``count_nonzero`` counts it (``np.bincount`` took 0.70 ms
    per 65,536-pattern exact chunk, against 6 µs).
    Each pattern is decided as the full fit would decide it: by its
    chunk's ``settle`` where that proves it, else by
    :func:`conditional_exceeds`. ``counts`` (K, G), if given, holds the
    match counts whose statistics ``observed`` are: a pattern equal to its
    row's counts is the observed outcome, a tie, passed on as known extreme
    and never refined; its fit would give it the observed statistic up to
    rounding far inside the tolerance, so this moves no decision.
    The extreme patterns' weights go into one buffer of ``n_patterns``,
    and their multiplicities (1 where a chunk has none) into another from
    the first kept one above 1 on. A row's share is :func:`_share` of
    them, the rule :func:`p_value` applies to its atoms, so each of the K
    results is the same float as :func:`p_value` on that row's null alone.
    """
    thresholds = np.asarray(observed, dtype=float) - TIE_TOLERANCE
    k_rows = len(thresholds)
    weights, reps = np.empty(n_patterns), None
    n_extreme = np.zeros(k_rows, dtype=np.int64)
    n_seen = np.array([n_patterns]) if k_rows == 1 else np.bincount(row_of, minlength=k_rows)
    start = filled = 0
    for patterns, weight, rep, settle in chunks:
        owner = None if k_rows == 1 else row_of[start:start + len(patterns)]
        start += len(patterns)
        extreme, open_rows = settle(thresholds[0 if owner is None else owner])
        at = 0 if owner is None else owner[open_rows]  # the open patterns' rows
        open_patterns = patterns[open_rows]
        extreme[open_rows] = conditional_exceeds(pg, sizes[at], open_patterns, thresholds[at],
                                                 _ties(open_patterns, counts, at))
        kept = np.count_nonzero(extreme)
        np.compress(extreme, weight, out=weights[filled:filled + kept])
        kept_reps = 1 if rep is None else rep[extreme]
        if reps is None and np.max(kept_reps, initial=1) > 1:
            reps = np.empty(n_patterns, dtype=np.int64)
            reps[:filled] = 1
        if reps is not None:
            reps[filled:filled + kept] = kept_reps
        filled += kept
        n_extreme += kept if owner is None else np.bincount(owner[extreme], minlength=k_rows)
    ends = np.cumsum(n_extreme)
    shares = np.ones(k_rows)
    for k in np.flatnonzero(n_extreme < n_seen):  # a row with every pattern extreme has 1
        atoms = slice(ends[k] - n_extreme[k], ends[k])
        shares[k] = _share(weights[atoms], None if reps is None else reps[atoms], total)
    return shares


def _fitted_null(pg, sizes, chunks, total: float = 1.0) -> NullDistribution:
    """The null of ``chunks`` fully fitted: each pattern's statistic once per atom."""
    stats, weights = [], []
    for patterns, weight, rep, _ in chunks:
        stat = fit_conditional_batch(pg, sizes, patterns)[1]
        stats.append(stat if rep is None else np.repeat(stat, rep))
        weights.append(weight if rep is None else np.repeat(weight, rep))
    return NullDistribution(np.concatenate(stats), np.concatenate(weights), total)


def exact_conditional_null(ps: Sequence[float], exact_max: int = EXACT_MAX_DEFAULT) -> NullDistribution:
    """Exact null: every match vector over E with its product-Bernoulli mass.

    One atom per outcome vector (2^|E| atoms); vectors with identical
    per-probability match counts share a statistic, so the fit cost is one
    per distinct count pattern.
    """
    pg, sizes = group_by_probability(ps, np.ones(len(ps)))
    return _fitted_null(pg, sizes, _exact_patterns(pg, sizes, exact_max))


def sample_conditional_null(ps: Sequence[float], n_sims: int, rng: RngStream) -> NullDistribution:
    """Monte Carlo null of the conditional statistic over the marker set E.

    Each simulation draws the match indicator of every marker from its null
    probability ``q_i`` and refits the clonality signal. Markers sharing a
    probability are exchangeable, so only the per-probability match counts
    are fitted (one fit per distinct pattern). The atoms, one per draw, come
    grouped by pattern in the patterns' sorted order, not in draw order.
    """
    pg, sizes = group_by_probability(ps, np.ones(len(ps)))
    return _fitted_null(pg, sizes, _drawn_chunks(pg, sizes[None, :], *_drawn_rows(pg, sizes, n_sims, rng)), n_sims)


def _require_statistic(observed: float) -> None:
    """Raise ``ValueError`` for a NaN observed statistic, which no p-value can be taken of."""
    if math.isnan(observed):
        raise ValueError("the observed statistic is NaN")


def p_value(observed: float, null: NullDistribution) -> float:
    """Share of the null's mass at statistics >= observed (ties count as extreme).

    On a Monte Carlo null this is the share b/n of the n draws that reach
    the observed statistic, as in the paper. So 0 means that fewer than 1
    in n draws did, i.e. p < 1/n, not that p is 0. A NaN statistic raises
    ``ValueError``: no atom compares with it.
    """
    _require_statistic(observed)
    extreme = null.statistics >= observed - TIE_TOLERANCE
    if extreme.all():
        return 1.0  # avoids 1-ulp shortfalls from float atom sums
    return float(_share(null.weights[extreme], None, null.total))


def exact_p_value(observed: float, ps: Sequence[float], exact_max: int = EXACT_MAX_DEFAULT) -> float:
    """``p_value(observed, exact_conditional_null(ps, exact_max))``, deciding, not fitting."""
    _require_statistic(observed)
    pg, sizes = group_by_probability(ps, np.ones(len(ps)))
    chunks = _exact_patterns(pg, sizes, exact_max)
    return float(_extreme_share(pg, sizes[None, :], chunks, [observed], int(np.prod(sizes + 1)))[0])


def monte_carlo_p_value(observed: float, ps: Sequence[float], n_sims: int, rng: RngStream) -> float:
    """``p_value(observed, sample_conditional_null(ps, n_sims, rng))``, deciding, not fitting.

    Like :func:`p_value`, this is the paper's b/n: 0 means that none of the
    ``n_sims`` draws reached the observed statistic, i.e. p < 1/n_sims.
    """
    _require_statistic(observed)
    pg, sizes = group_by_probability(ps, np.ones(len(ps)))
    patterns, draws = _drawn_rows(pg, sizes, n_sims, rng)
    chunks = _drawn_chunks(pg, sizes[None, :], patterns, draws)
    return float(_extreme_share(pg, sizes[None, :], chunks, [observed], draws.size, n_sims)[0])


def counts_test(
    pg: np.ndarray,
    sizes: np.ndarray,
    matched: np.ndarray,
    *,
    sims: int = SIMS_DEFAULT,
    exact_max: int = EXACT_MAX_DEFAULT,
    seed: int = DEFAULT_SEED,
    stream_index=0,
):
    """Conditional tests of K pairs from their match counts grouped by probability.

    ``pg`` (G,) holds distinct probabilities, and each row of ``sizes`` and
    ``matched`` (K, G) a pair's mutated markers E per probability and the
    matched ones among them, as
    :func:`~clonality.inference.group_by_probability` returns them; a
    zero-size column is a probability the pair does not have. Returns one
    :class:`TestResult` per row, or one result for a single pair given as
    (G,) rows and one ``stream_index``.

    A row with ``|E| <= exact_max`` is tested by exact enumeration over its
    own nonzero-size columns, one row at a time (``exact_max=0`` forces
    Monte Carlo). Every other row draws ``sims`` null patterns from its own
    stream ``(seed, stream_index[k])``, and one decision pass over all
    rows' patterns gives each row's p-value. The observed statistics come
    from one fit of every row, and each row's observed counts go with it to
    the decision, which counts a null pattern equal to them as a tie
    without refining it. Each result equals that of the row tested alone.

    Raises ``ValueError`` before any fit unless ``sims`` is an integer >= 1, ``exact_max``
    an integer >= 0 (booleans are neither), ``pg`` is 1-D and strictly inside (0, 1),
    ``sizes`` and ``matched`` share one shape, (G,) or (K, G), of whole numbers with
    ``0 <= matched <= sizes``, every row has a mutated marker and a stream index, and
    ``seed`` and each index are integers in 0 ... 2^64 − 1.
    """
    validate_count("sims", sims, 1)
    validate_count("exact_max", exact_max, 0)
    pg, sizes, matched = (np.asarray(a, dtype=float) for a in (pg, sizes, matched))
    if pg.ndim != 1 or not np.all((pg > 0.0) & (pg < 1.0)):
        raise ValueError(f"pg must be 1-D and strictly inside (0, 1), got {pg}")
    if sizes.shape != matched.shape or sizes.shape[-1:] != pg.shape or sizes.ndim > 2:
        raise ValueError(f"sizes {sizes.shape} and matched {matched.shape} must both be "
                         f"(G,) or (K, G) with G = {pg.size}")
    if not np.all(np.isfinite(sizes) & (sizes == np.round(sizes)) & (matched == np.round(matched))
                  & (0.0 <= matched) & (matched <= sizes)):
        raise ValueError("sizes and matched must be whole numbers with 0 <= matched <= sizes")
    one = matched.ndim == 1
    sizes, matched = np.atleast_2d(sizes), np.atleast_2d(matched)
    empty = np.flatnonzero(sizes.sum(axis=1) == 0)
    if empty.size:
        raise ValueError(("" if one else f"row {empty[0]}: ") + "no mutations observed; test undefined")
    streams = [stream_index] if one or np.ndim(stream_index) == 0 else list(stream_index)
    if len(streams) != matched.shape[0]:
        raise ValueError(f"{matched.shape[0]} rows need as many stream indices, got {len(streams)}")
    streams = [RngStream(seed, index) for index in streams]
    xi_hat, stat = fit_conditional_batch(pg, sizes[0] if one else sizes, matched)
    n_union = sizes.sum(axis=1)
    exact = n_union <= exact_max
    p = np.empty(len(streams))
    for k in np.flatnonzero(exact):
        present = sizes[k] > 0
        pg_k, sizes_k = pg[present], sizes[k, present]
        chunks = _exact_patterns(pg_k, sizes_k, exact_max)
        p[k] = _extreme_share(pg_k, sizes_k[None, :], chunks, stat[k:k + 1], int(np.prod(sizes_k + 1)),
                              counts=matched[k, present][None, :])[0]
    drawn = np.flatnonzero(~exact)
    if drawn.size:
        rows = [_drawn_rows(pg, sizes[k], sims, streams[k]) for k in drawn]
        patterns, draws = rows[0] if len(rows) == 1 else map(np.concatenate, zip(*rows))
        row_of = np.repeat(np.arange(len(rows)), [row_draws.size for _, row_draws in rows])
        chunks = _drawn_chunks(pg, sizes[drawn], patterns, draws, row_of)
        p[drawn] = _extreme_share(pg, sizes[drawn], chunks, stat[drawn], draws.size, sims, row_of, matched[drawn])
    results = [TestResult(statistic=float(stat[k]), xi_hat=float(xi_hat[k]), p_value=float(p[k]),
                          method="exact" if exact[k] else "monte-carlo",
                          n_sims=0 if exact[k] else int(sims), seed=None if exact[k] else int(seed),
                          n_matches=int(matched[k].sum()), n_union=int(n_union[k]))
               for k in range(len(streams))]
    return results[0] if one else results


def conditional_test(obs: PairObservation, **options) -> TestResult:
    """:func:`counts_test` of one tumor pair's matched and unmatched markers.

    ``options`` are the keyword options of :func:`counts_test`.
    """
    if obs.union_size == 0:
        raise ValueError("no mutations observed; test undefined")
    ps = [p for _, p in obs.shared + obs.unshared]
    return counts_test(*group_by_probability(ps, np.ones(len(ps)), np.arange(len(ps)) < obs.n_matches),
                       **options)


def sample_unconditional_null(
    universe: Sequence[tuple[float, int]], n_sims: int, rng: RngStream
) -> NullDistribution:
    """Monte Carlo null of the unconditional statistic over a marker universe.

    ``universe`` lists ``(p, n_markers)`` groups, each ``n_markers`` a whole
    number >= 1. Pairs are simulated under zero signal; per-group outcome
    counts are multinomial, which is all the grouped likelihood needs. Like
    the conditional Monte Carlo null, it fits each distinct (matched,
    single) count pattern once, and its atoms, one per draw, come grouped by
    pattern in the patterns' sorted order, not in draw order.
    """
    validate_count("n_sims", n_sims, 1)
    if not universe:
        raise ValueError("universe must hold at least one (p, n_markers) group")
    for _, n in universe:
        whole = isinstance(n, numbers.Real) and not isinstance(n, bool) and float(n).is_integer()
        if not (whole and n >= 1):
            raise ValueError(f"n_markers must be a whole number >= 1, got {n!r}")
    pg = np.array([validate_probability(p) for p, _ in universe])
    ng = np.array([n for _, n in universe], dtype=float)
    gen = rng.generator()
    # per group, its matched counts in column g and its single counts in column G + g
    blocks = (([g, ng.size + g], gen.multinomial(int(n), outcome_cells(p, 0.0), size=n_sims)[:, :2].T)
              for g, (p, n) in enumerate(zip(pg, ng)))
    patterns, draws = _pattern_counts(np.concatenate([ng, ng]), blocks, n_sims)
    stats = fit_unconditional_batch(pg, ng, patterns[:, :ng.size], patterns[:, ng.size:])[1]
    return NullDistribution(np.repeat(stats, draws), np.ones(n_sims), n_sims)


def calibrated_rejection(
    null_pvalues: Sequence[float], alt_pvalues: Sequence[float], alpha: float
) -> CalibratedRule:
    """Randomize the rejection threshold so the null rejection rate is alpha.

    ``threshold`` is the largest null p-value whose null mass at or below it
    does not exceed alpha (or, when the smallest null p-value alone holds
    more than alpha, the float just below it). P-values below the next null
    p-value, the boundary, are rejected, and the boundary with exactly the
    probability that brings the size to alpha.
    """
    check_real("alpha", alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    null_p = np.sort(np.asarray(null_pvalues, dtype=float))
    alt_p = np.asarray(alt_pvalues, dtype=float)
    if null_p.size == 0 or alt_p.size == 0:
        raise ValueError("both p-value samples must be nonempty")
    for name, sample in (("null", null_p), ("alternative", alt_p)):
        outside = ~((sample >= 0.0) & (sample <= 1.0))  # NaN too
        if outside.any():
            raise ValueError(f"{name} p-values must lie in [0, 1], got {sample[outside][0]}")

    # with counts, np.unique sorts; its plain form imports numpy.ma
    values, counts = np.unique(null_p, return_counts=True)
    frac_at_or_below = np.cumsum(counts) / null_p.size
    eligible = frac_at_or_below <= alpha
    if eligible.any():
        threshold = float(values[eligible][-1])
        size_at_threshold = float(frac_at_or_below[eligible][-1])
    else:
        threshold = float(np.nextafter(values[0], -np.inf))
        size_at_threshold = 0.0

    # the largest null p-value holds mass 1 > alpha, so a boundary exists
    boundary = float(values[values > threshold][0])
    gamma = (alpha - size_at_threshold) / float(np.mean(null_p == boundary))
    power = float(np.mean(alt_p < boundary)) + gamma * float(np.mean(alt_p == boundary))
    return CalibratedRule(
        threshold=threshold,
        randomized_boundary_prob=gamma,
        calibrated_power=power,
    )
