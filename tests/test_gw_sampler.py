import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from treesnake import gw_sampler, plane_tree
from treesnake.exact_enum import conditional_label_law, labelled_atoms, q_weight
from treesnake.gw_sampler import (
    MEASURES,
    NegativeRootLabel,
    OffspringDistribution,
    RejectionBudgetExhausted,
    SizeOverflow,
    StepDistribution,
    UnreachableSize,
    _conditioned_rows,
    _label_rows,
    _q_count_rows,
    _reroot_rows,
    _rerooted_rows,
    _rotate_rows,
    _sized_count_rows,
    _tilted_rows,
    estimate_positive_probability,
    sample_gw,
    sample_gw_sized,
    sample_label_extrema,
    sample_leaf_counts,
    sample_measure,
    sample_q_tree,
    sample_reroot_importance,
    sample_spatial,
    spawn_rngs,
)
from treesnake.plane_tree import PlaneTree, _subtree_ends, build_tree, enumerate_trees, leaves
from treesnake.spatial_tree import SpatialTree, reroot_at
from tree_addresses import addresses

GEO = OffspringDistribution.geometric_half()
U3 = StepDistribution.uniform3()
PM1 = StepDistribution.uniform_pm1()
HALF = Fraction(1, 2)
BINARY = OffspringDistribution.from_pmf({0: HALF, 2: HALF})


def rng_of(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# Upper 0.001 quantiles of chi-square, by degrees of freedom (0 df: all mass at 0).
CHI2_999 = {0: 0.0, 1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47, 8: 26.12, 9: 27.88, 11: 31.26,
            12: 32.91, 13: 34.53, 41: 74.74, 53: 90.57, 54: 91.87, 55: 93.17, 377: 467.58}


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
        assert GEO.mean == 1 and GEO.variance == 2
        assert GEO.sigma == pytest.approx(math.sqrt(2))
        assert GEO.aperiodic

    def test_step_law(self):
        assert GEO.step_pmf(-1) == HALF
        assert GEO.step_pmf(0) == Fraction(1, 4)
        assert BINARY.step_pmf(-1) == HALF
        assert BINARY.step_pmf(1) == HALF

    def test_subcritical_rejected(self):
        with pytest.raises(ValueError):
            OffspringDistribution.from_pmf({0: HALF, 1: HALF})

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            OffspringDistribution.from_pmf({0: HALF, 2: Fraction(1, 4)})

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            OffspringDistribution.from_pmf({1: 1})

    def test_binary_is_periodic(self):
        assert BINARY.aperiodic is False
        third = Fraction(1, 3)
        tri = OffspringDistribution.from_pmf({0: third, 1: third, 2: third})
        assert tri.aperiodic is True

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
            StepDistribution.from_pmf({-1: Fraction(1, 3), 1: Fraction(2, 3)})

    def test_point_mass_rejected(self):
        with pytest.raises(ValueError):
            StepDistribution.from_pmf({0: 1})

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
        lazy = StepDistribution.from_pmf({-1: Fraction(1, 4), 0: HALF, 1: Fraction(1, 4)})
        draws = 200_000
        share = np.count_nonzero(lazy.sample(rng_of(3), draws) == 0) / draws
        assert abs(share - 0.5) < 4 * (0.25 / draws) ** 0.5


class TestUnconditioned:
    def test_small_size_frequencies(self):
        rng = rng_of(7)
        n_draws = 100_000
        sizes = Counter()
        for _ in range(n_draws):
            try:
                sizes[sample_gw(GEO, rng, max_size=1000).size] += 1
            except SizeOverflow:
                sizes["big"] += 1
        for size, p in ((1, 0.5), (2, 0.125)):
            se = math.sqrt(p * (1 - p) / n_draws)
            assert abs(sizes[size] / n_draws - p) < 4 * se

    def test_overflow_raises(self):
        rng = rng_of(3)
        raised = 0
        for _ in range(50):
            try:
                sample_gw(GEO, rng, max_size=1)
            except SizeOverflow:
                raised += 1
        assert raised > 0

    def test_determinism(self):
        a = [sample_gw(GEO, rng_of(11)).counts for _ in range(1)]
        b = [sample_gw(GEO, rng_of(11)).counts for _ in range(1)]
        assert a == b


class TestSizedSampler:
    def test_edge_cases(self):
        assert sample_gw_sized(GEO, 0, rng_of(0)).counts == (0,)
        assert sample_gw_sized(GEO, 1, rng_of(0)).counts == (1, 0)

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
            sample_gw_sized(BINARY, 3, rng_of(0))

    def test_determinism(self):
        a = sample_gw_sized(GEO, 40, rng_of(123))
        b = sample_gw_sized(GEO, 40, rng_of(123))
        assert a == b


class TestLabels:
    def test_labels_follow_edges(self):
        t = build_tree((2, 3, 0, 2, 0, 0, 0, 0))
        s = sample_spatial(t, U3, 5, rng_of(2))
        vs = addresses(t.counts)
        for k, v in enumerate(vs[1:], 1):
            step = s.labels[k] - s.labels[vs.index(v[:-1])]
            assert step in (-1, 0, 1)
        assert s.root_label == 5

    def test_singleton(self):
        s = sample_spatial(build_tree((0,)), U3, 3, rng_of(0))
        assert s.labels == (3,)

    def test_row_labels_match_object_route(self):
        rng = rng_of(4)
        for n in (1, 2, 5, 9):
            rows = _sized_count_rows(GEO, n, rng, 8)
            incs = U3.sample(rng, (8, n))
            labels = _label_rows(_subtree_ends(rows), incs, 1)
            for row, inc, got in zip(rows.tolist(), incs.tolist(), labels.tolist()):
                t = PlaneTree(tuple(row))
                expect = [1] * t.size
                for i in range(1, t.size):
                    expect[i] = expect[t.parent_index[i]] + inc[i - 1]
                assert got == expect

    @pytest.mark.parametrize("gamma", [U3, PM1], ids=["uniform3", "pm1"])
    def test_batch_labels_equal_sample_spatial_on_small_trees(self, gamma):
        # all 2056 trees with at most 9 vertices, one batch per size; tree i
        # gets the increments sample_spatial draws from generator i
        for size in range(1, 10):
            trees = list(enumerate_trees(size))
            incs = np.array([gamma.sample(rng_of(i), size - 1) for i in range(len(trees))])
            labels = _label_rows(_subtree_ends(np.array([t.counts for t in trees])), incs, 2)
            for i, (t, got) in enumerate(zip(trees, labels.tolist())):
                assert tuple(got) == sample_spatial(t, gamma, 2, rng_of(i)).labels

    def test_normal_labels_agree_with_the_recursion(self):
        rng = rng_of(8)
        for n in (1, 10, 500, 2000):
            rows = _sized_count_rows(GEO, n, rng, 10)
            incs = StepDistribution.normal().sample(rng, (10, n))
            labels = _label_rows(_subtree_ends(rows), incs, 0.5)
            for row, inc, got in zip(rows.tolist(), incs.tolist(), labels):
                parent = PlaneTree(tuple(row)).parent_index
                expect = [0.5] * (n + 1)
                for i in range(1, n + 1):
                    expect[i] = expect[parent[i]] + inc[i - 1]
                assert np.abs(got - expect).max() <= 1e-12


class TestConditioned:
    def test_one_edge_law(self):
        n_draws = 20_000
        batch, _ = _conditioned_rows(GEO, U3, 1, 1, n_draws, rng_of(6))
        freq = Counter(labels for _, labels in batch)
        assert set(freq) == {(1, 1), (1, 2)}
        se = math.sqrt(0.25 / n_draws)
        assert abs(freq[(1, 1)] / n_draws - 0.5) < 4 * se

    def test_zero_edges_vacuous(self):
        batch, _ = _conditioned_rows(GEO, U3, 0, 0, 1, rng_of(0))
        assert batch == [((0,), (0,))]

    def test_negative_root_rejected(self):
        with pytest.raises(NegativeRootLabel):
            _conditioned_rows(GEO, U3, 2, -1, 1, rng_of(0), max_attempts=10)

    def test_negative_root_rejected_before_any_attempt(self):
        # no child of a root at -1 is positive under uniform3, so rejection
        # would spend the whole budget, REJECTION_BUDGET when none is given
        with pytest.raises(NegativeRootLabel):
            _conditioned_rows(GEO, U3, 3, -1, 2, rng_of(0), max_attempts=200_000)
        with pytest.raises(NegativeRootLabel):
            _conditioned_rows(GEO, U3, 3, -1, 2, rng_of(0))

    def test_budget_exhaustion(self, monkeypatch):
        # x = 0 keeps Pbar-n-x on the rejection route
        monkeypatch.setattr(gw_sampler, "REJECTION_BUDGET", 3)
        with pytest.raises(RejectionBudgetExhausted):
            sample_measure("Pbar-n-x", GEO, U3, 100, 0, 1, rng_of(1))

    def test_attempts_end_at_the_last_acceptance(self):
        # attempts count the rows up to the last accepted one, so a budget of
        # exactly that many reproduces the draw and one fewer loses its last row
        rows, attempts = _conditioned_rows(GEO, U3, 20, 1, 30, rng_of(5))
        assert len(rows) == 30 and attempts > 30
        assert _conditioned_rows(GEO, U3, 20, 1, 30, rng_of(5), max_attempts=attempts) == (
            rows, attempts)
        cut, spent = _conditioned_rows(GEO, U3, 20, 1, 30, rng_of(5), max_attempts=attempts - 1)
        assert (cut, spent) == (rows[:-1], attempts - 1)

    def test_batch_route_matches_exact_law(self):
        # total variation against the enumerated conditional law at n=2
        law = conditional_label_law(2, GEO, U3, x=1)
        n_draws = 50_000
        batch, attempts = _conditioned_rows(GEO, U3, 2, 1, n_draws, rng_of(8))
        assert attempts >= n_draws
        freq = Counter(batch)
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
        rows, attempts = _conditioned_rows(GEO, U3, 0, 2, 3, rng_of(0))
        assert rows == [((0,), (2,))] * 3
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

    def test_conditioned_rows_and_their_attempts(self, monkeypatch):
        self.assert_block_free(
            monkeypatch, lambda rng: _conditioned_rows(GEO, U3, 300, 1, 5, rng, max_attempts=900)
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


class TestQMeasures:
    def test_q_tree_root_degree(self):
        for n in (1, 2, 8):
            rows = _q_count_rows(GEO, n, rng_of(n), 5)
            assert rows.shape == (5, n + 1) and (rows[:, 0] == 1).all()
            for r in rows.tolist():
                assert PlaneTree(tuple(r)).n_edges == n
        assert sample_q_tree(GEO, rng_of(0)).counts[0] == 1

    def test_q_needs_an_edge(self):
        with pytest.raises(ValueError):
            _q_count_rows(GEO, 0, rng_of(0), 1)

    def test_sample_measure_types(self):
        def draw(measure, n=None, x=0, count=3):
            counts, labels = sample_measure(measure, GEO, U3, n, x, count, rng_of(100))
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

    def test_batched_sized_rows_equal_per_draw_rows(self):
        for n in (0, 1, 7, 500):
            counts, _ = sample_measure("Pi-n", GEO, U3, n, 0, 40, rng_of(n))
            rng = rng_of(n)
            assert counts == [sample_gw_sized(GEO, n, rng).counts for _ in range(40)]

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("gamma", [U3, PM1], ids=["uniform3", "pm1"])
    def test_rerooted_draws_are_qbar(self, gamma, n):
        draws = 20_000
        law = qbar_law(n, gamma)
        counts, labels = sample_measure("Qbar-n", GEO, gamma, n, 0, draws, rng_of(500 + n))
        assert tv_to_law(list(zip(counts, labels)), law) <= tv_bound(len(law), draws)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("gamma", [U3, PM1], ids=["uniform3", "pm1"])
    def test_qbar_without_its_root_edge_is_pbar_at_one(self, gamma, n):
        draws = 10_000
        law = conditional_label_law(n, GEO, gamma, 1)
        counts, labels = sample_measure("Pbar-n-x", GEO, gamma, n, 1, draws, rng_of(550 + n))
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
        counts, labels = sample_measure("Qbar-n", BINARY, U3, 5, 0, 20, rng_of(10))
        assert all(v > 0 for l in labels for v in l[1:])
        counts, labels = sample_measure("Pbar-n-x", GEO, U3, 4, 2, 20, rng_of(11))
        assert {l[0] for l in labels} == {2} and all(v > 0 for l in labels for v in l[1:])
        normal = StepDistribution.normal()
        counts, labels = sample_measure("Pbar-n-x", GEO, normal, 4, 1, 5, rng_of(12))
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
