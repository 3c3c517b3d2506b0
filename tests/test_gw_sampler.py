import copy
import hashlib
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from treesnake import gw_sampler, plane_tree
from treesnake.exact_enum import (
    _walk_point_mass,
    conditional_label_law,
    labelled_atoms,
    q_weight,
    tree_weight,
)
from treesnake.gw_sampler import (
    MEASURES,
    NegativeRootLabel,
    OffspringDistribution,
    RejectionBudgetExhausted,
    SIZED_MEASURES,
    SizeOverflow,
    StepDistribution,
    UnreachableSize,
    _conditioned_rows,
    _forest,
    _forest_labels,
    _label_blocks,
    _marks,
    _q_count_rows,
    _reroot_rows,
    _rerooted_rows,
    _rotate_rows,
    _sized_count_rows,
    _tilted_rows,
    estimate_positive_probability,
    sample_label_extrema,
    sample_leaf_counts,
    sample_measure,
    sample_reroot_importance,
    spawn_rngs,
)
from treesnake.plane_tree import PlaneTree, build_tree, enumerate_trees, leaves
from treesnake.spatial_tree import SpatialTree, reroot_at
from tree_addresses import addresses

GEO = OffspringDistribution.geometric_half()
U3 = StepDistribution.uniform3()
PM1 = StepDistribution.uniform_pm1()
HALF = Fraction(1, 2)
BINARY = OffspringDistribution({0: HALF, 2: HALF})


def rng_of(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def tuples(draw) -> tuple[list, list | None]:
    """sample_measure's (counts, starts, labels) arrays as per-tree tuples:
    (count tuples, label tuples, or None for the plain-tree measures)."""
    counts, starts, labels = draw
    spans = list(zip(starts[:-1].tolist(), starts[1:].tolist()))
    trees = [tuple(counts[a:b].tolist()) for a, b in spans]
    return trees, None if labels is None else [tuple(labels[a:b].tolist()) for a, b in spans]


# Upper 0.001 quantiles of chi-square, by degrees of freedom (0 df: all mass at 0).
CHI2_999 = {0: 0.0, 1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47, 8: 26.12, 9: 27.88, 10: 29.59,
            11: 31.26, 12: 32.91, 13: 34.53, 41: 74.74, 53: 90.57, 54: 91.87, 55: 93.17,
            63: 103.44, 66: 107.26, 157: 217.5, 377: 467.58}


def tv_bound(cells: int, draws: int) -> float:
    """Total variation a correct sampler exceeds with chance about 0.001.

    Cauchy-Schwarz gives 2 TV <= sqrt(X^2 / draws) for Pearson's X^2 over
    the cells, so the chi-square critical value carries over.
    """
    return 0.5 * math.sqrt(CHI2_999[cells - 1] / draws)


def tv_to_law(draws: list, law: dict) -> float:
    """Total variation between the empirical law of draws and an exact law,
    after checking that every draw is an atom of it."""
    seen = Counter(draws)
    assert set(seen) <= set(law)
    return sum(abs(seen[k] / len(draws) - float(p)) for k, p in law.items()) / 2


class TestOffspringValidation:
    def test_geometric_moments(self):
        assert GEO.exact_pmf(0) == HALF
        assert GEO.exact_pmf(3) == Fraction(1, 16)
        assert GEO.variance == 2
        assert GEO.sigma == pytest.approx(math.sqrt(2))

    def test_subcritical_rejected(self):
        with pytest.raises(ValueError):
            OffspringDistribution({0: HALF, 1: HALF})

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            OffspringDistribution({0: HALF, 2: Fraction(1, 4)})

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            OffspringDistribution({1: 1})

    def test_describe(self):
        assert GEO.describe() == "geometric-half"
        assert BINARY.describe() == {"0": "1/2", "2": "1/2"}


class TestStepValidation:
    def test_builtin_laws(self):
        assert U3.variance == Fraction(2, 3)
        assert PM1.variance == 1
        assert U3.rho == pytest.approx(math.sqrt(2 / 3))
        assert U3.describe() == "uniform3"
        assert PM1.describe() == "uniform-pm1"

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            StepDistribution({-1: Fraction(1, 3), 1: Fraction(2, 3)})

    def test_point_mass_rejected(self):
        with pytest.raises(ValueError):
            StepDistribution({0: 1})

    @pytest.mark.parametrize("pmf", [
        {-0.5: HALF, 0.5: HALF},
        {Fraction(-1, 2): HALF, Fraction(1, 2): HALF},
    ], ids=["float", "fraction"])
    def test_non_integer_values_rejected(self, pmf):
        with pytest.raises(ValueError, match="step values must be integers"):
            StepDistribution(pmf)

    def test_non_integer_offspring_counts_rejected(self):
        # not truncated to the binary law {0, 2}
        with pytest.raises(ValueError, match="offspring counts must be integers"):
            OffspringDistribution({0: HALF, 2.7: HALF})

    def test_numpy_integer_values_accepted(self):
        law = StepDistribution({np.int64(-1): HALF, np.int64(1): HALF})
        assert law.support == PM1.support and law.variance == 1
        assert law.describe() == "uniform-pm1"

    @pytest.mark.parametrize("pmf", [
        {-1: -HALF, 0: 2, 1: -HALF},
        {-2: Fraction(-1, 4), -1: Fraction(3, 4), 1: Fraction(3, 4), 2: Fraction(-1, 4)},
    ], ids=["variance-1", "variance-half"])
    def test_negative_masses_rejected(self, pmf):
        # symmetric, of total one and nonzero variance, yet no probability law
        with pytest.raises(ValueError, match="probabilities must be nonnegative"):
            StepDistribution(pmf)

    @pytest.mark.parametrize("law, pmf", [
        (StepDistribution, {-1: math.inf, 1: 0.5}),
        (StepDistribution, {-1: math.nan, 1: math.nan}),
        (OffspringDistribution, {0: math.inf, 2: 0.5}),
        (OffspringDistribution, {0: 0.5, 2: math.nan}),
    ], ids=["step-inf", "step-nan", "offspring-inf", "offspring-nan"])
    def test_non_finite_masses_rejected(self, law, pmf):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            law(pmf)

    @pytest.mark.parametrize("std", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_normal_spread_must_be_finite_and_positive(self, std):
        with pytest.raises(ValueError, match="normal spread must be finite and positive"):
            StepDistribution.normal(std)

    def test_normal_has_no_exact_support(self):
        g = StepDistribution.normal(2.0)
        assert g.variance == pytest.approx(4.0)
        with pytest.raises(ValueError):
            g.exact_items()

    def test_sampling_matches_support(self):
        rng = rng_of(1)
        draws = U3.sample(rng, 1000)
        assert set(np.unique(draws)) <= {-1, 0, 1}
        draws = PM1.sample(rng, 1000)
        assert set(np.unique(draws)) <= {-1, 1}

    def test_sampling_follows_a_lazy_law_on_three_points(self):
        # a law on {-1, 0, 1} other than the uniform one draws 0 at its own
        # probability 1/2, within 4 standard errors
        lazy = StepDistribution({-1: Fraction(1, 4), 0: HALF, 1: Fraction(1, 4)})
        draws = 200_000
        share = np.count_nonzero(lazy.sample(rng_of(3), draws) == 0) / draws
        assert abs(share - 0.5) < 4 * (0.25 / draws) ** 0.5


def forest_draws(monkeypatch, draw, trees: int, seed: int) -> list:
    """trees draws of draw(16, rng), which returns 16 unsized trees cut from
    one count stream, under a budget of 1000 vertices a tree.

    A call that raises SizeOverflow is dropped, so the trees kept are
    i.i.d. under the law conditioned on at most 1000 vertices, and the
    calls still cut up to 16 trees from a stream of several chunks.
    """
    monkeypatch.setattr(plane_tree, "MAX_VERTICES", 1000)
    rng = rng_of(seed)
    out: list = []
    while len(out) < trees:
        try:
            out += draw(16, rng)
        except SizeOverflow:
            pass
    return out[:trees]


def size_masses(budget: int) -> list[Fraction]:
    """P(a tree has v vertices) for v = 1..budget under the geometric law,
    Catalan(v - 1) / 2^(2v - 1), by the ratio of consecutive terms."""
    out = [Fraction(1, 2)]
    for v in range(1, budget):
        out.append(out[-1] * Fraction(2 * v - 1, 2 * (v + 1)))
    return out


class TestUnconditioned:
    """Unsized trees cut from one count stream (_forest).  Seeds, draw
    counts and bounds were fixed before the first run."""

    def test_small_size_frequencies(self, monkeypatch):
        # sizes 1..8 (criterion 03's exact law), then three bins up to the
        # budget of 1000, under the law conditioned on at most 1000 vertices
        masses = size_masses(1000)
        assert masses[:8] == [_walk_point_mass(GEO, v) / v for v in range(1, 9)]
        cells = list(range(1, 9)) + [32, 128, 1000]  # each cell's largest size

        def cell(v):
            return next(c for c in cells if v <= c)

        law = Counter()
        for v, p in enumerate(masses, start=1):
            law[cell(v)] += p
        law = {c: p / sum(masses) for c, p in law.items()}
        draws = 100_000
        sizes = forest_draws(
            monkeypatch, lambda k, rng: np.diff(_forest(GEO, k, rng)[1]).tolist(), draws, 7)
        assert tv_to_law([cell(v) for v in sizes], law) <= tv_bound(len(law), draws)

    def test_overflow_raises(self, monkeypatch):
        # a draw whose largest tree has exactly the budget passes, and one
        # vertex less raises before the draw ends
        counts, starts = _forest(GEO, 50, rng_of(3))
        largest = int(np.diff(starts).max())
        assert largest > 1
        monkeypatch.setattr(plane_tree, "MAX_VERTICES", largest)
        again = _forest(GEO, 50, rng_of(3))
        assert np.array_equal(again[0], counts) and np.array_equal(again[1], starts)
        monkeypatch.setattr(plane_tree, "MAX_VERTICES", largest - 1)
        with pytest.raises(SizeOverflow, match=f"exceed the budget of {largest - 1}"):
            _forest(GEO, 50, rng_of(3))

    def test_determinism(self):
        a = _forest(GEO, 50, rng_of(11))
        b = _forest(GEO, 50, rng_of(11))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert _forest(GEO, 0, rng_of(11))[0].shape == (0,)

    def test_trees_are_valid_and_labels_follow_the_recursion(self):
        # one draw of 2000 trees over several chunks: every tree is a valid
        # preorder row (a wrong carry across a chunk boundary breaks one),
        # and its labels are the parent recursion of the steps, drawn one a
        # vertex in stream order (a root's unused) as one call would
        rng = rng_of(2000)
        counts, starts = _forest(GEO, 2000, rng)
        assert len(starts) == 2001 and starts[0] == 0 and starts[-1] == len(counts)
        steps = U3.sample(copy.deepcopy(rng), len(counts)).tolist()
        labels = _forest_labels(counts, starts, U3, 1, rng).tolist()
        assert len(labels) == len(counts)
        for a, b in zip(starts[:-1].tolist(), starts[1:].tolist()):
            t = PlaneTree(tuple(counts[a:b].tolist()))  # validates the counts
            want = [1] * t.size
            for i in range(1, t.size):
                want[i] = want[t.parent_index[i]] + steps[a + i]
            assert labels[a:b] == want

    def test_labelling_memory_stays_within_a_few_groups(self):
        # 20,000 trees of 100 vertices; labelled all at once, the 2 million
        # vertices would peak near 100 MB, while a group of at most 2**18
        # vertices keeps the temporaries under 16 words a group vertex
        # beside the one word a vertex of the labels returned
        counts = _sized_count_rows(GEO, 99, rng_of(3), 20_000).ravel()
        starts = np.arange(0, len(counts) + 1, 100)
        _forest_labels(counts[:1000], starts[:11], U3, 0, rng_of(4))  # first-call allocations
        tracemalloc.start()
        try:
            _forest_labels(counts, starts, U3, 0, rng_of(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(counts) + 16 * 8 * (plane_tree._BLOCK_ENTRIES + 1)


def unsized_law(measure: str, gamma: StepDistribution, x) -> dict:
    """Exact law of one tree of Pi, P-x or Q conditioned on at most 1000
    vertices below the Q root: each atom with at most 3 edges, then "rest"."""
    law: dict = {}
    kept = sum(size_masses(1000))
    for n in range(4):
        if measure == "Pi":
            atoms = (((t.counts, None), tree_weight(t, GEO)) for t in enumerate_trees(n + 1))
        else:
            single = measure == "Q"
            atoms = (((s.tree.counts, s.labels), w)
                     for s, w in labelled_atoms(n, GEO, gamma, x, root_single_child=single))
        for key, w in atoms:
            law[key] = w / kept
    law["rest"] = 1 - sum(law.values())
    return law


class TestUnsizedLaws:
    """sample_measure's unsized draws against their exact atoms.  Seeds,
    draw counts and bounds were fixed before the first run."""

    @pytest.mark.parametrize("measure, gamma, x, seed", [
        ("Pi", U3, 0, 800), ("P-x", U3, 2, 801), ("Q", U3, 0, 802),
    ], ids=["Pi", "P-x", "Q"])
    def test_atoms_up_to_three_edges(self, monkeypatch, measure, gamma, x, seed):
        def draw(k, rng):
            counts, labels = tuples(sample_measure(measure, GEO, gamma, None, x, k, rng))
            return [(c, l) if len(c) <= 4 else "rest"
                    for c, l in zip(counts, labels or [None] * k)]

        draws = 20_000
        law = unsized_law(measure, gamma, x)
        got = forest_draws(monkeypatch, draw, draws, seed)
        assert tv_to_law(got, law) <= tv_bound(len(law), draws)


class TestSizedSampler:
    def test_edge_cases(self):
        assert tuples(sample_measure("Pi-n", GEO, U3, 0, 0, 1, rng_of(0)))[0] == [(0,)]
        assert tuples(sample_measure("Pi-n", GEO, U3, 1, 0, 1, rng_of(0)))[0] == [(1, 0)]

    def test_rotation_worked_example(self):
        rows = np.array([[0, 2, 0]])
        assert _rotate_rows(rows).tolist() == [[2, 0, 0]]

    def test_rotation_unique_validity(self):
        # among all rotations of a count vector summing to len-1, exactly
        # one is a valid preorder, and the rotation picks it
        import itertools

        for counts in itertools.product(range(4), repeat=5):
            if sum(counts) != 4:
                continue
            valid = []
            for r in range(5):
                rot = counts[r:] + counts[:r]
                try:
                    PlaneTree(rot)
                    valid.append(rot)
                except ValueError:
                    pass
            assert len(valid) == 1
            got = _rotate_rows(np.array([counts]))[0]
            assert tuple(got) == valid[0]

    @pytest.mark.parametrize("n", [3, 5])
    def test_uniform_over_shapes_geometric(self, n):
        # under the geometric law the sized tree is uniform over all shapes
        rng = rng_of(5)
        n_draws = 100_000
        rows = _sized_count_rows(GEO, n, rng, n_draws)
        freq = Counter(map(tuple, rows.tolist()))
        shapes = [t.counts for t in enumerate_trees(n + 1)]
        assert set(freq) == set(shapes)
        p = 1 / len(shapes)
        se = math.sqrt(p * (1 - p) / n_draws)
        for shape in shapes:
            assert abs(freq[shape] / n_draws - p) < 4 * se

    def test_leaf_counts_are_narayana_at_n_2000(self):
        # a uniform tree with n edges has k leaves with chance
        # C(n, k) C(n, k - 1) / (n Cat(n)); k is grouped into ten cells of
        # near-equal mass as in the tilted test, and Pearson's X^2 is held
        # to its 0.001 critical value.  Draws, seed and bound were fixed
        # before the first run; shifting every count by one leaf
        # (0.06 sd) would give a noncentrality of about 77
        n, draws = 2000, 20_000
        logfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, 2 * n + 1)))])
        k = np.arange(1, n + 1)
        logcat = logfact[2 * n] - logfact[n] - logfact[n + 1]
        law = np.exp(2 * logfact[n] - logfact[k] - logfact[n - k] - logfact[k - 1]
                     - logfact[n + 1 - k] - math.log(n) - logcat)
        assert abs(law.sum() - 1) < 1e-8
        ends = np.searchsorted(np.cumsum(law), np.arange(1, 10) / 10) + 1
        expect = draws * np.bincount(np.searchsorted(ends, k), weights=law, minlength=10)
        seen = np.bincount(
            np.searchsorted(ends, sample_leaf_counts(GEO, n, draws, rng_of(650))), minlength=10)
        assert ((seen - expect) ** 2 / expect).sum() <= CHI2_999[9]

    def test_block_path_matches_exact_law(self):
        # binary offspring law, 4 edges: two shapes, equal exact weights
        rng = rng_of(9)
        n_draws = 20_000
        rows = _sized_count_rows(BINARY, 4, rng, n_draws)
        freq = Counter(map(tuple, rows.tolist()))
        shapes = [t.counts for t in enumerate_trees(5) if set(t.counts) <= {0, 2}]
        assert set(freq) == set(shapes)
        p = 1 / len(shapes)
        se = math.sqrt(p * (1 - p) / n_draws)
        for shape in shapes:
            assert abs(freq[shape] / n_draws - p) < 4 * se

    def test_unreachable_size(self):
        with pytest.raises(UnreachableSize):
            sample_measure("Pi-n", BINARY, U3, 3, 0, 1, rng_of(0))

    def test_determinism(self):
        a = tuples(sample_measure("Pi-n", GEO, U3, 40, 0, 1, rng_of(123)))
        b = tuples(sample_measure("Pi-n", GEO, U3, 40, 0, 1, rng_of(123)))
        assert a == b


def forest_of(trees) -> tuple[np.ndarray, np.ndarray]:
    """counts and starts, as _forest returns them, of the given trees."""
    counts = np.array([c for t in trees for c in t.counts], dtype=np.int64)
    return counts, np.cumsum([0] + [t.size for t in trees])


class TestLabels:
    def test_labels_follow_edges(self):
        t = build_tree((2, 3, 0, 2, 0, 0, 0, 0))
        labels = _forest_labels(*forest_of([t]), U3, 5, rng_of(2)).tolist()
        vs = addresses(t.counts)
        for k, v in enumerate(vs[1:], 1):
            step = labels[k] - labels[vs.index(v[:-1])]
            assert step in (-1, 0, 1)
        assert labels[0] == 5

    def test_singleton(self):
        assert _forest_labels(*forest_of([build_tree((0,))]), U3, 3, rng_of(0)).tolist() == [3]

    def test_row_labels_match_object_route(self):
        rng = rng_of(4)
        for n in (1, 2, 5, 9):
            rows = _sized_count_rows(GEO, n, rng, 8)
            incs = U3.sample(copy.deepcopy(rng), (8, n))
            [(_, labels)] = _label_blocks(rows, U3, 1, rng)
            for row, inc, got in zip(rows.tolist(), incs.tolist(), labels.tolist()):
                t = PlaneTree(tuple(row))
                expect = [1] * t.size
                for i in range(1, t.size):
                    expect[i] = expect[t.parent_index[i]] + inc[i - 1]
                assert got == expect

    @pytest.mark.parametrize("gamma", [U3, PM1], ids=["uniform3", "pm1"])
    def test_forest_labels_follow_the_recursion_on_small_trees(self, gamma):
        # all 2056 trees with at most 9 vertices, one forest per size, whose
        # steps come one a vertex in preorder, a root's unused
        for size in range(1, 10):
            trees = list(enumerate_trees(size))
            steps = gamma.sample(rng_of(size), (len(trees), size)).tolist()
            got = _forest_labels(*forest_of(trees), gamma, 2, rng_of(size))
            assert got.shape == (len(trees) * size,)
            for t, step, labels in zip(trees, steps, got.reshape(-1, size).tolist()):
                want = [2] * t.size
                for i in range(1, t.size):
                    want[i] = want[t.parent_index[i]] + step[i]
                assert labels == want

    def test_normal_labels_agree_with_the_recursion(self):
        rng = rng_of(8)
        for n in (1, 10, 500, 2000):
            rows = _sized_count_rows(GEO, n, rng, 10)
            incs = StepDistribution.normal().sample(copy.deepcopy(rng), (10, n))
            [(_, labels)] = _label_blocks(rows, StepDistribution.normal(), 0.5, rng)
            for row, inc, got in zip(rows.tolist(), incs.tolist(), labels):
                parent = PlaneTree(tuple(row)).parent_index
                expect = [0.5] * (n + 1)
                for i in range(1, n + 1):
                    expect[i] = expect[parent[i]] + inc[i - 1]
                assert np.abs(got - expect).max() <= 1e-12


class TestConditioned:
    def test_one_edge_law(self):
        n_draws = 20_000
        _, labels, _ = _conditioned_rows(GEO, U3, 1, 1, n_draws, rng_of(6))
        freq = Counter(map(tuple, labels.tolist()))
        assert set(freq) == {(1, 1), (1, 2)}
        se = math.sqrt(0.25 / n_draws)
        assert abs(freq[(1, 1)] / n_draws - 0.5) < 4 * se

    def test_zero_edges_vacuous(self):
        rows, labels, attempts = _conditioned_rows(GEO, U3, 0, 0, 1, rng_of(0))
        assert (rows.tolist(), labels.tolist(), attempts) == ([[0]], [[0]], 1)

    def test_negative_root_rejected(self, monkeypatch):
        monkeypatch.setattr(gw_sampler, "REJECTION_BUDGET", 10)
        with pytest.raises(NegativeRootLabel):
            _conditioned_rows(GEO, U3, 2, -1, 1, rng_of(0))

    def test_negative_root_rejected_before_any_attempt(self):
        # no child of a root at -1 is positive under uniform3, so rejection
        # would spend the whole of REJECTION_BUDGET
        with pytest.raises(NegativeRootLabel):
            _conditioned_rows(GEO, U3, 3, -1, 2, rng_of(0))

    def test_budget_exhaustion(self, monkeypatch):
        # x = 0 keeps Pbar-n-x on the rejection route
        monkeypatch.setattr(gw_sampler, "REJECTION_BUDGET", 3)
        with pytest.raises(RejectionBudgetExhausted):
            sample_measure("Pbar-n-x", GEO, U3, 100, 0, 1, rng_of(1))
        with pytest.raises(RejectionBudgetExhausted, match="0 of 1 positive draws at n=100"):
            _conditioned_rows(GEO, U3, 100, 0, 1, rng_of(1))

    def test_attempts_end_at_the_last_acceptance(self, monkeypatch):
        # attempts count the rows up to the last accepted one, so a budget of
        # exactly that many reproduces the draw and one fewer raises
        rows, labels, attempts = _conditioned_rows(GEO, U3, 20, 1, 30, rng_of(5))
        assert rows.shape == labels.shape == (30, 21) and attempts > 30
        monkeypatch.setattr(gw_sampler, "REJECTION_BUDGET", attempts)
        again = _conditioned_rows(GEO, U3, 20, 1, 30, rng_of(5))
        assert [a.tobytes() for a in again[:2]] == [rows.tobytes(), labels.tobytes()]
        assert again[2] == attempts
        monkeypatch.setattr(gw_sampler, "REJECTION_BUDGET", attempts - 1)
        with pytest.raises(RejectionBudgetExhausted, match=f"29 of 30 .* in {attempts - 1} attempts"):
            _conditioned_rows(GEO, U3, 20, 1, 30, rng_of(5))

    def test_batch_route_matches_exact_law(self):
        # total variation against the enumerated conditional law at n=2
        law = conditional_label_law(2, GEO, U3, x=1)
        n_draws = 50_000
        rows, labels, attempts = _conditioned_rows(GEO, U3, 2, 1, n_draws, rng_of(8))
        assert attempts >= n_draws
        freq = Counter(zip(map(tuple, rows.tolist()), map(tuple, labels.tolist())))
        tv = sum(
            abs(freq.get(k, 0) / n_draws - float(p)) for k, p in law.items()
        ) + sum(freq[k] / n_draws for k in freq if k not in law)
        assert tv / 2 < 0.02

    def test_acceptance_estimate_matches_exact(self):
        # at n=1, x=1: positive labels need a step in {0, +1}
        attempts = 30_000
        acc = estimate_positive_probability(GEO, U3, 1, 1, attempts, rng_of(12))
        p = 2 / 3
        se = math.sqrt(p * (1 - p) / attempts)
        assert abs(acc / attempts - p) < 4 * se


class TestPipelines:
    def test_extrema_pipeline(self):
        mins, maxs = sample_label_extrema(GEO, U3, 30, 0, 200, rng_of(3))
        assert mins.shape == (200,)
        assert np.all(mins <= 0) and np.all(maxs >= 0)

    def test_extrema_keep_a_large_root_label(self):
        # labels past 2^53 are not rounded: the extrema come in the labels' dtype
        x = 2**60 + 1
        mins, maxs = sample_label_extrema(GEO, U3, 3, x, 50, rng_of(3))
        assert mins.dtype == maxs.dtype == np.int64
        assert (x - 3 <= mins).all() and (mins <= x).all()
        assert (x <= maxs).all() and (maxs <= x + 3).all()
        assert set(maxs.tolist()) > {x}

    @pytest.mark.parametrize("n", [0, 5])
    def test_negative_attempt_count_rejected(self, n):
        # also at n = 0, where every draw is vacuously positive
        with pytest.raises(ValueError, match="attempt count must be nonnegative"):
            estimate_positive_probability(GEO, U3, n, 1, -5, rng_of(0))

    @pytest.mark.parametrize(
        "draw",
        [
            lambda n, rng: sample_label_extrema(GEO, U3, n, 0, 5, rng),
            lambda n, rng: sample_leaf_counts(GEO, n, 5, rng),
            lambda n, rng: estimate_positive_probability(GEO, U3, n, 1, 5, rng),
        ],
        ids=["sample_label_extrema", "sample_leaf_counts", "estimate_positive_probability"],
    )
    def test_extrema_reject_negative_size(self, draw):
        with pytest.raises(ValueError, match="edge count must be nonnegative"):
            draw(-1, rng_of(0))

    def test_leaf_counts_match_objects(self):
        rng = rng_of(14)
        counts = sample_leaf_counts(GEO, 12, 300, rng)
        assert counts.shape == (300,)
        assert np.all((1 <= counts) & (counts <= 12))
        rng2 = rng_of(14)
        rows = _sized_count_rows(GEO, 12, rng2, 300)
        expect = [len(leaves(PlaneTree(tuple(r)))) for r in rows.tolist()]
        assert counts.tolist() == expect

    def test_conditioned_rows_zero_edges(self):
        rows, labels, attempts = _conditioned_rows(GEO, U3, 0, 2, 3, rng_of(0))
        assert rows.tolist() == [[0]] * 3 and labels.tolist() == [[2]] * 3
        assert attempts == 3


class TestRowBlocks:
    """The batch kernels fill their output one row block at a time; the
    block size changes no draw and leaves the generator in the same state."""

    @staticmethod
    def assert_block_free(monkeypatch, draw):
        rng = rng_of(21)
        want = draw(rng), rng.random(4).tobytes()
        monkeypatch.setattr(plane_tree, "_BLOCK_ENTRIES", 1)  # one row a block
        rng = rng_of(21)
        assert (draw(rng), rng.random(4).tobytes()) == want

    @pytest.mark.parametrize("n", [500, 2000])
    def test_count_rows(self, monkeypatch, n):
        self.assert_block_free(monkeypatch, lambda rng: _sized_count_rows(GEO, n, rng, 150).tobytes())

    @pytest.mark.parametrize("gamma", [U3, StepDistribution.normal()], ids=["uniform3", "normal"])
    def test_label_extrema(self, monkeypatch, gamma):
        self.assert_block_free(
            monkeypatch,
            lambda rng: [a.tobytes() for a in sample_label_extrema(GEO, gamma, 2000, 0, 300, rng)],
        )

    def test_unsized_labels(self, monkeypatch):
        # one tree a group, each group drawing its own steps
        self.assert_block_free(
            monkeypatch, lambda rng: tuples(sample_measure("P-x", GEO, U3, None, 1, 50, rng)))

    def test_conditioned_rows_and_their_attempts(self, monkeypatch):
        self.assert_block_free(
            monkeypatch,
            lambda rng: [np.asarray(a).tobytes() for a in _conditioned_rows(GEO, U3, 300, 1, 5, rng)],
        )

    def test_label_extrema_memory_stays_near_the_count_rows(self):
        # n = 2000 draws 1000 samples in a chunk of 999 count rows, which is
        # the only array of the chunk's size: the labels are built beside it
        # one row block at a time (the whole-chunk kernels held six)
        sample_label_extrema(GEO, U3, 2000, 0, 1000, rng_of(1))  # first-call allocations
        tracemalloc.start()
        try:
            sample_label_extrema(GEO, U3, 2000, 0, 1000, rng_of(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 999 * 2001 * 8


class TestStreamBytes:
    """sha256 of sampler outputs, then of four more draws of the generator,
    recorded before the rejection route and the batch reductions shared
    one row contract: the contract changes no draw.  Recorded again when
    the sized count rows first drew their bars with _marks, a new stream
    of the same law."""

    # x = 2 keeps Pbar-n-x on the rejection route; 600 rows at n = 300 take
    # 15939 attempts in 72 chunks, from 1200 rows (two label blocks) down to 16
    CONDITIONED_ATTEMPTS = 15939

    def test_conditioned_rows(self):
        rng = rng_of(24)
        draw = tuples(sample_measure("Pbar-n-x", GEO, U3, 300, 2, 600, rng))
        assert hashlib.sha256(repr(draw).encode() + rng.random(4).tobytes()).hexdigest() == (
            "70bb56d71e0c3c30c2d8ddc53cd43353ff2c4306d400921051033254d612199c")
        assert _conditioned_rows(GEO, U3, 300, 2, 600, rng_of(24))[-1] == self.CONDITIONED_ATTEMPTS

    def test_conditioned_rows_end_at_their_budget(self, monkeypatch):
        # a budget of exactly the attempts draws the same rows, one fewer raises
        want = tuples(sample_measure("Pbar-n-x", GEO, U3, 300, 2, 600, rng_of(24)))
        monkeypatch.setattr(gw_sampler, "REJECTION_BUDGET", self.CONDITIONED_ATTEMPTS)
        assert tuples(sample_measure("Pbar-n-x", GEO, U3, 300, 2, 600, rng_of(24))) == want
        monkeypatch.setattr(gw_sampler, "REJECTION_BUDGET", self.CONDITIONED_ATTEMPTS - 1)
        with pytest.raises(RejectionBudgetExhausted):
            sample_measure("Pbar-n-x", GEO, U3, 300, 2, 600, rng_of(24))

    # n = 2000 and 2500 draws: chunks of 999, 999 and 502 rows
    @pytest.mark.parametrize("draw, digest", [
        (lambda rng: repr(estimate_positive_probability(GEO, U3, 2000, 1, 2500, rng)).encode(),
         "6fe546b88c7ddbdee4a7041c0358504e35bce020795201cf784c8af82b4fa7da"),
        (lambda rng: sample_leaf_counts(GEO, 2000, 2500, rng).tobytes(),
         "1d0edb3b747bb94b8cc0c9f2f4d097d8710d9d6f02d4c593af5660bf3701c960"),
        # the extrema in int64, their labels' dtype; the float64 view of the
        # same arrays hashes to the digest recorded before, 7e31022c...
        (lambda rng: b"".join(a.tobytes() for a in sample_label_extrema(GEO, U3, 2000, 0, 2500, rng)),
         "e01bca1b34e511435e6bc984fd5456dc18c70ffb855e13e8b71bd18bcc66376a"),
    ], ids=["estimate_positive_probability", "sample_leaf_counts", "sample_label_extrema"])
    def test_chunked_reductions(self, draw, digest):
        rng = rng_of(25)
        assert hashlib.sha256(draw(rng) + rng.random(4).tobytes()).hexdigest() == digest


class TestQMeasures:
    def test_q_tree_root_degree(self):
        for n in (1, 2, 8):
            rows = _q_count_rows(GEO, n, rng_of(n), 5)
            assert rows.shape == (5, n + 1) and (rows[:, 0] == 1).all()
            for r in rows.tolist():
                assert PlaneTree(tuple(r)).n_edges == n

    def test_q_needs_an_edge(self):
        with pytest.raises(ValueError):
            _q_count_rows(GEO, 0, rng_of(0), 1)

    def test_sample_measure_types(self):
        def draw(measure, n=None, x=0, count=3):
            arrays = sample_measure(measure, GEO, U3, n, x, count, rng_of(100))
            flat, starts, flat_labels = arrays
            assert flat.dtype == starts.dtype == np.int64 and len(starts) == count + 1
            assert starts[0] == 0 and starts[-1] == len(flat)
            assert flat_labels is None or flat_labels.shape == flat.shape
            counts, labels = tuples(arrays)
            assert len(counts) == count
            assert labels is None or len(labels) == count
            for c, l in zip(counts, labels or counts):
                assert isinstance(c, tuple) and isinstance(l, tuple)
                PlaneTree(c)  # validates the preorder counts
                assert len(l) == len(c)
            return counts, labels

        assert draw("Pi")[1] is None
        counts, labels = draw("Pi-n", n=5)
        assert labels is None and {len(c) for c in counts} == {6}
        assert {l[0] for l in draw("P-x", x=2)[1]} == {2}
        counts, labels = draw("P-n-x", n=5, x=2)
        assert {len(c) for c in counts} == {6} and {l[0] for l in labels} == {2}
        _, labels = draw("Pbar-n-x", n=3, x=1)
        assert {l[0] for l in labels} == {1} and all(v > 0 for l in labels for v in l[1:])
        counts, labels = draw("Q")
        assert {c[0] for c in counts} == {1} and {l[0] for l in labels} == {0}
        counts, labels = draw("Q-n", n=4, x=2)
        assert {c[:1] + (len(c),) for c in counts} == {(1, 5)} and {l[0] for l in labels} == {0}
        counts, labels = draw("Qbar-n", n=3)
        assert {c[0] for c in counts} == {1}
        assert {l[0] for l in labels} == {0} and all(v > 0 for l in labels for v in l[1:])
        for measure in MEASURES:
            assert draw(measure, n=2, x=1, count=0) == ([], None if "Pi" in measure else [])

    @pytest.mark.parametrize("gamma", [U3, StepDistribution.normal()], ids=["uniform3", "normal"])
    @pytest.mark.parametrize("measure", [m for m in MEASURES if not m.startswith("Pi")])
    @pytest.mark.parametrize("n, x, count", [
        (5, 1, 3), (5, 0, 0), (0, 1, 3), (0, 0, 0), (5, 1.0, 3)])
    def test_labels_take_the_step_law_dtype(self, gamma, measure, n, x, count):
        # whatever the route (the re-rooting one at a float x = 1.0 too),
        # and with no draw or no edge to take it from; Q is rooted at 0
        if measure in SIZED_MEASURES:
            n = max(n, SIZED_MEASURES[measure])
        else:
            n = None
        labels = sample_measure(measure, GEO, gamma, n, x, count, rng_of(7))[2]
        root = 0 if measure.startswith("Q") else x
        assert labels.dtype == np.result_type(gamma.dtype, root)

    def test_batched_sized_rows_equal_per_draw_rows(self):
        for n in (0, 1, 7, 500):
            counts, _ = tuples(sample_measure("Pi-n", GEO, U3, n, 0, 40, rng_of(n)))
            rng = rng_of(n)
            assert counts == [tuple(_sized_count_rows(GEO, n, rng, 1)[0]) for _ in range(40)]

    def test_bad_config(self):
        with pytest.raises(ValueError, match="unknown measure"):
            sample_measure("nope", GEO, U3, 3, 0, 1, rng_of(0))
        with pytest.raises(ValueError, match="needs n"):
            sample_measure("Pi-n", GEO, U3, None, 0, 1, rng_of(0))
        with pytest.raises(ValueError, match="at least 1"):
            sample_measure("Qbar-n", GEO, U3, 0, 0, 1, rng_of(0))
        with pytest.raises(NegativeRootLabel):
            sample_measure("Pbar-n-x", GEO, U3, 3, -1, 1, rng_of(0))


def qbar_law(n: int, gamma: StepDistribution) -> dict:
    """Exact Qbar_n over (counts, labels): the single-child-root law at root
    label 0 restricted to positive non-root labels, normalised."""
    law: dict = {}
    for s, w in labelled_atoms(n, GEO, gamma, x=0, root_single_child=True):
        if all(v > 0 for v in s.labels[1:]):
            law[s.tree.counts, s.labels] = law.get((s.tree.counts, s.labels), 0) + w
    total = sum(law.values())
    return {k: w / total for k, w in law.items()}


class TestMarks:
    """Uniform k-subsets of a row's slots from sorted 32-bit keys.

    Seeds, draw counts and bounds were fixed before the first run.
    """

    def test_every_row_has_exactly_its_count(self):
        rng = rng_of(30)
        for size in (1, 2, 7, 501):
            k = np.concatenate([[0, size], rng.integers(0, size + 1, 200)])
            mask = _marks(k, size, rng)
            assert mask.shape == (202, size) and mask.dtype == bool
            assert np.array_equal(mask.sum(axis=1), k)
        assert _marks(np.zeros(3, dtype=np.int64), 0, rng).shape == (3, 0)

    def test_subsets_are_uniform(self):
        # k cycles through 0..6 over the rows, so each subset S of the six
        # slots has mass 1 / (7 C(6, |S|)): 64 cells
        size, draws = 6, 140_000
        k = np.arange(draws) % (size + 1)
        mask = _marks(k, size, rng_of(31))
        seen = (mask * (1 << np.arange(size))).sum(axis=1).tolist()
        law = {s: Fraction(1, (size + 1) * math.comb(size, s.bit_count())) for s in range(64)}
        assert tv_to_law(seen, law) <= tv_bound(64, draws)

    def test_a_tie_at_the_kth_key_redraws_its_row(self):
        # row 0's second and third smallest keys tie, so only row 0 is drawn
        # again; row 1 keeps its first keys
        class Stub:
            def __init__(self):
                self.keys = [np.array([[7, 3, 3, 9, 1], [5, 1, 2, 8, 4]], dtype=np.uint32),
                             np.array([[10, 20, 30, 40, 50]], dtype=np.uint32)]
                self.sizes = []

            def integers(self, low, high, size, dtype):
                assert (low, high, dtype) == (0, 2**32, np.uint32)
                self.sizes.append(size)
                return self.keys.pop(0)

        stub = Stub()
        mask = _marks(np.array([2, 3]), 5, stub)
        assert stub.sizes == [(2, 5), (1, 5)]
        assert mask.tolist() == [[True, True, False, False, False],
                                 [False, True, True, False, True]]


class TestRerootedRows:
    """The re-rooting sampler of Qbar_n against exact enumeration.

    Seeds, draw counts and bounds were fixed before the first run.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_shapes_are_tilted_by_one_over_the_leaf_count(self, n):
        draws = 200_000
        weights = {
            t.counts: q_weight(t, GEO) / len(leaves(t))
            for t in enumerate_trees(n + 1, root_single_child=True)
        }
        total = sum(weights.values())
        law = {k: w / total for k, w in weights.items()}
        below = _tilted_rows(n - 1, rng_of(600 + n), draws)
        rows = np.concatenate([np.ones((draws, 1), dtype=np.int64), below], axis=1)
        assert tv_to_law(list(map(tuple, rows.tolist())), law) <= tv_bound(len(law), draws)

    def test_leaf_counts_at_n_500(self):
        # the leaf count j of a tilted tree with n edges has weight
        # C(n, j) C(n + 1, j); j is grouped into ten cells of near-equal
        # mass, cell c ending at the least j whose distribution function
        # reaches (c + 1) / 10.  The draws are enough to tell this law from
        # the untilted one, at a TV of 0.0126 against a bound of 0.0059
        n, draws = 500, 200_000
        weights = [math.comb(n, j) * math.comb(n + 1, j) for j in range(1, n + 1)]
        total = sum(weights)
        ends = np.searchsorted(np.cumsum([w / total for w in weights]), np.arange(1, 10) / 10) + 1
        law = Counter()
        for j, w in enumerate(weights, start=1):
            law[int(np.searchsorted(ends, j))] += Fraction(w, total)
        assert len(law) == 10
        rng = rng_of(640)
        seen = []
        for _ in range(100):
            rows = _tilted_rows(n, rng, draws // 100)
            walk = np.cumsum(rows - 1, axis=1)
            assert (walk[:, :-1] >= 0).all() and (walk[:, -1] == -1).all()  # preorder rows
            seen += np.searchsorted(ends, np.count_nonzero(rows == 0, axis=1)).tolist()
        assert tv_to_law(seen, law) <= tv_bound(10, draws)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("gamma", [U3, PM1], ids=["uniform3", "pm1"])
    def test_rerooted_draws_are_qbar(self, gamma, n):
        draws = 20_000
        law = qbar_law(n, gamma)
        counts, labels = tuples(sample_measure("Qbar-n", GEO, gamma, n, 0, draws, rng_of(500 + n)))
        assert tv_to_law(list(zip(counts, labels)), law) <= tv_bound(len(law), draws)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("gamma", [U3, PM1], ids=["uniform3", "pm1"])
    def test_qbar_without_its_root_edge_is_pbar_at_one(self, gamma, n):
        draws = 10_000
        law = conditional_label_law(n, GEO, gamma, 1)
        counts, labels = tuples(
            sample_measure("Pbar-n-x", GEO, gamma, n, 1, draws, rng_of(550 + n)))
        assert tv_to_law(list(zip(counts, labels)), law) <= tv_bound(len(law), draws)

    def test_kept_draws_have_one_minimum_at_a_leaf(self):
        rows, labels, argmin, attempts = _rerooted_rows(U3, 60, 200, rng_of(7))
        assert rows.shape == labels.shape == (200, 61)
        assert attempts >= 200
        for r, l, k in zip(rows.tolist(), labels.tolist(), argmin.tolist()):
            PlaneTree(tuple(r))  # a valid preorder row
            assert r[0] == 1 and l[0] == 0
            assert r[k] == 0 and l.count(min(l)) == 1 and l[k] == min(l)
        again = _rerooted_rows(U3, 60, 200, rng_of(7))
        for a, b in zip(again, (rows, labels, argmin, attempts)):
            assert np.array_equal(a, b)

    def test_rows_fill_through_one_row_blocks(self, monkeypatch):
        monkeypatch.setattr(plane_tree, "_BLOCK_ENTRIES", 1)
        rows, labels, argmin, attempts = _rerooted_rows(PM1, 9, 30, rng_of(8))
        assert len(rows) == len(labels) == len(argmin) == 30
        assert (rows[np.arange(30), argmin] == 0).all()
        assert attempts >= 30

    def test_spent_budget_raises(self, monkeypatch):
        monkeypatch.setattr(gw_sampler, "REJECTION_BUDGET", 40)
        with pytest.raises(RejectionBudgetExhausted, match="Qbar-n draws at n=50"):
            _rerooted_rows(U3, 50, 100, rng_of(9))

    def test_other_laws_keep_rejection(self, monkeypatch):
        # finite-support offspring, and Pbar at another root label or with
        # normal steps, never reach the re-rooting kernel
        def unused(*_args):
            raise AssertionError("re-rooting kernel called")

        monkeypatch.setattr(gw_sampler, "_rerooted_rows", unused)
        counts, labels = tuples(sample_measure("Qbar-n", BINARY, U3, 5, 0, 20, rng_of(10)))
        assert all(v > 0 for l in labels for v in l[1:])
        counts, labels = tuples(sample_measure("Pbar-n-x", GEO, U3, 4, 2, 20, rng_of(11)))
        assert {l[0] for l in labels} == {2} and all(v > 0 for l in labels for v in l[1:])
        normal = StepDistribution.normal()
        counts, labels = tuples(sample_measure("Pbar-n-x", GEO, normal, 4, 1, 5, rng_of(12)))
        assert all(v > 0 for l in labels for v in l[1:])


def rerooted_by_objects(rows, labels, leaf) -> list:
    """(counts, labels) of each row re-rooted at its leaf by reroot_at."""
    out = []
    for c, l, k in zip(rows.tolist(), labels.tolist(), leaf.tolist()):
        s = SpatialTree(PlaneTree(tuple(c)), tuple(l))
        r = reroot_at(s, k)
        out.append((r.tree.counts, r.labels))
    return out


def rerooted_by_rows(rows, labels, leaf) -> list:
    got_rows, got_labels = _reroot_rows(rows, labels, leaf)
    return [(tuple(c), tuple(l)) for c, l in zip(got_rows.tolist(), got_labels.tolist())]


class TestRerootRows:
    """The row re-rooting against the object route reroot_at."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_qbar_atom(self, n):
        # the Q_n atoms whose label minimum is at one vertex, a leaf below
        # the root: re-rooted there they are every atom of Qbar_n
        rows, labels, leaf = [], [], []
        for s, _ in labelled_atoms(n, GEO, U3, x=0, root_single_child=True):
            low = min(s.labels)
            k = s.labels.index(low)
            if low < 0 and s.labels.count(low) == 1 and s.tree.counts[k] == 0:
                rows.append(s.tree.counts)
                labels.append(s.labels)
                leaf.append(k)
        rows, labels, leaf = np.array(rows), np.array(labels), np.array(leaf)
        got = rerooted_by_rows(rows, labels, leaf)
        assert got == rerooted_by_objects(rows, labels, leaf)
        assert set(got) == set(qbar_law(n, U3))

    @pytest.mark.parametrize("gamma", [U3, PM1], ids=["uniform3", "pm1"])
    def test_kept_draws_at_n_500(self, gamma):
        kept = _rerooted_rows(gamma, 500, 200, rng_of(41))[:3]
        assert rerooted_by_rows(*kept) == rerooted_by_objects(*kept)

    def test_one_row_blocks(self, monkeypatch):
        kept = _rerooted_rows(U3, 200, 40, rng_of(42))[:3]
        want = [a.tobytes() for a in _reroot_rows(*kept)]
        monkeypatch.setattr(plane_tree, "_BLOCK_ENTRIES", 1)
        assert [a.tobytes() for a in _reroot_rows(*kept)] == want


def importance_by_objects(gamma, n, draws, seed) -> list:
    """(counts, labels, weight) of each draw of sample_reroot_importance,
    from the same random numbers: the Q_n rows, then one increment per
    edge, labelled by a parent pass and re-rooted by reroot_at."""
    rng = rng_of(seed)
    rows = _q_count_rows(GEO, n, rng, draws)
    incs = gamma.sample(rng, (draws, n))
    out = []
    for row, inc in zip(rows.tolist(), incs.tolist()):
        t = PlaneTree(tuple(row))
        labels = [0] * (n + 1)
        for i in range(1, n + 1):
            labels[i] = labels[t.parent_index[i]] + inc[i - 1]
        s = SpatialTree(t, tuple(labels))
        low = min(s.labels)
        k = s.labels.index(low)
        if low < 0 and s.labels.count(low) == 1 and t.counts[k] == 0:
            r = reroot_at(s, k)
            out.append((r.tree.counts, r.labels, 1.0 / len(leaves(r.tree))))
        else:
            out.append((s.tree.counts, s.labels, 0.0))
    return out


class TestImportanceSampler:
    """The batch importance sampler: Q_n draws kept by the keep test of
    _rerooted_rows, re-rooted on rows and weighted by one over the leaf
    count.  Seeds, draw counts and bounds were fixed before the first run.
    """

    def test_structure_of_draws(self):
        rows, labels, weights = sample_reroot_importance(GEO, U3, 30, 10_000, rng_of(21))
        assert rows.shape == labels.shape == (10_000, 31) and weights.shape == (10_000,)
        assert (rows[:, 0] == 1).all() and (labels[:, 0] == 0).all()
        kept = weights > 0
        assert 0 < kept.sum() < 10_000
        assert (labels[kept, 1:] > 0).all()
        for r in rows[:500].tolist():
            PlaneTree(tuple(r))  # a valid preorder row

    def test_weight_is_inverse_leaf_count(self):
        rows, _, weights = sample_reroot_importance(GEO, U3, 10, 200, rng_of(22))
        assert weights.any()
        for r, w in zip(rows.tolist(), weights.tolist()):
            if w:
                assert w == 1.0 / len(leaves(PlaneTree(tuple(r))))

    @pytest.mark.parametrize("gamma", [U3, PM1], ids=["uniform3", "pm1"])
    def test_draws_match_the_object_route(self, gamma):
        # kept draws are reroot_at of the draw at its minimum leaf, the
        # others come back as drawn with weight 0
        rows, labels, weights = sample_reroot_importance(GEO, gamma, 12, 500, rng_of(24))
        got = list(zip(map(tuple, rows.tolist()), map(tuple, labels.tolist()), weights.tolist()))
        want = importance_by_objects(gamma, 12, 500, 24)
        assert 0 < sum(w > 0 for *_, w in want) < 500
        assert got == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("gamma", [U3, PM1], ids=["uniform3", "pm1"])
    def test_weighted_law_against_enumeration(self, gamma, n):
        # the weight on an atom of Qbar_n estimates its Q_n mass; with
        # weights at most 1 each cell's variance is at most the multinomial
        # one, and without a sum constraint the chi-square bound takes one
        # more degree of freedom: the bound for one more cell
        draws = 50_000
        atoms = list(labelled_atoms(n, GEO, gamma, x=0, root_single_child=True))
        total = sum(w for _, w in atoms)
        mass = {
            (s.tree.counts, s.labels): float(w / total)
            for s, w in atoms
            if all(v > 0 for v in s.labels[1:])
        }
        rows, labels, weights = sample_reroot_importance(GEO, gamma, n, draws, rng_of(700 + n))
        est = Counter()
        for r, l, w in zip(rows.tolist(), labels.tolist(), weights.tolist()):
            if w:
                est[tuple(r), tuple(l)] += w / draws
        assert set(est) <= set(mass)
        tv = sum(abs(est[k] - p) for k, p in mass.items()) / 2
        assert tv <= tv_bound(len(mass) + 1, draws)

    def test_unbiased_against_enumeration(self):
        # estimate the positive-label share of the single-child-root law at
        # n=2 and compare with exhaustive enumeration
        atoms = list(labelled_atoms(2, GEO, U3, x=0, root_single_child=True))
        total = sum(w for _, w in atoms)
        target = sum(
            w for s, w in atoms if all(v > 0 for v in s.labels[1:])
        ) / total

        n_draws = 40_000
        _, _, vals = sample_reroot_importance(GEO, U3, 2, n_draws, rng_of(23))
        est = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(n_draws)
        assert abs(est - float(target)) < 4 * se

    def test_determinism(self):
        a = sample_reroot_importance(GEO, U3, 12, 50, rng_of(31))
        b = sample_reroot_importance(GEO, U3, 12, 50, rng_of(31))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_one_row_blocks(self, monkeypatch):
        TestRowBlocks.assert_block_free(
            monkeypatch,
            lambda rng: [a.tobytes() for a in sample_reroot_importance(GEO, U3, 40, 300, rng)],
        )


class TestSeeding:
    def test_spawned_streams_differ(self):
        rngs = spawn_rngs(42, 3)
        assert len(rngs) == 3
        draws = [r.random(4).tolist() for r in rngs]
        assert draws[0] != draws[1] != draws[2]

    def test_spawn_reproducible(self):
        a = [r.random(4).tolist() for r in spawn_rngs(42, 3)]
        b = [r.random(4).tolist() for r in spawn_rngs(42, 3)]
        assert a == b
