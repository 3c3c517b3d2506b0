import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from treesnake.exact_enum import conditional_label_law
from treesnake.gw_sampler import (
    MEASURES,
    ImportanceSample,
    NegativeRootLabel,
    OffspringDistribution,
    RejectionBudgetExhausted,
    SizeOverflow,
    StepDistribution,
    UnreachableSize,
    _conditioned_rows,
    _label_rows,
    _q_count_rows,
    _rotate_rows,
    _sized_count_rows,
    estimate_positive_probability,
    sample_conditioned_batch,
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

GEO = OffspringDistribution.geometric_half()
U3 = StepDistribution.uniform3()
PM1 = StepDistribution.uniform_pm1()
HALF = Fraction(1, 2)
BINARY = OffspringDistribution.from_pmf({0: HALF, 2: HALF})


def rng_of(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


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
        for v in t.vertices[1:]:
            step = s.label_of(v) - s.label_of(v[:-1])
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
        batch, _ = sample_conditioned_batch(GEO, U3, 1, 1, n_draws, rng_of(6))
        freq = Counter(s.labels for s in batch)
        assert set(freq) == {(1, 1), (1, 2)}
        se = math.sqrt(0.25 / n_draws)
        assert abs(freq[(1, 1)] / n_draws - 0.5) < 4 * se

    def test_zero_edges_vacuous(self):
        batch, _ = sample_conditioned_batch(GEO, U3, 0, 0, 1, rng_of(0))
        assert batch[0].labels == (0,)

    def test_negative_root_rejected(self):
        with pytest.raises(NegativeRootLabel):
            sample_conditioned_batch(GEO, U3, 2, -1, 1, rng_of(0), max_attempts=10)

    def test_negative_root_rejected_before_any_attempt(self):
        # no child of a root at -1 is positive under uniform3, so rejection
        # would spend the whole budget (and, with none, never return)
        with pytest.raises(NegativeRootLabel):
            sample_conditioned_batch(GEO, U3, 3, -1, 2, rng_of(0), max_attempts=200_000)
        with pytest.raises(NegativeRootLabel):
            _conditioned_rows(GEO, U3, 3, -1, 2, rng_of(0))

    def test_budget_exhaustion(self):
        with pytest.raises(RejectionBudgetExhausted):
            sample_conditioned_batch(GEO, U3, 100, 0, 1, rng_of(1), max_attempts=3)

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
        batch, attempts = sample_conditioned_batch(GEO, U3, 2, 1, n_draws, rng_of(8))
        assert attempts >= n_draws
        freq = Counter((s.tree.counts, s.labels) for s in batch)
        tv = sum(
            abs(freq.get(k, 0) / n_draws - float(p)) for k, p in law.items()
        ) + sum(freq[k] / n_draws for k in freq if k not in law)
        assert tv / 2 < 0.02

    def test_nonstrict_conditioning(self):
        batch, _ = sample_conditioned_batch(GEO, U3, 3, 0, 50, rng_of(10), strict=False)
        assert len(batch) == 50
        assert all(x >= 0 for s in batch for x in s.labels[1:])
        assert any(0 in s.labels[1:] for s in batch)

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

    def test_extrema_reject_negative_size(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sample_label_extrema(GEO, U3, -1, 0, 5, rng_of(0))

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


class TestQMeasures:
    def test_q_tree_root_degree(self):
        for n in (1, 2, 8):
            t = sample_q_tree(GEO, rng_of(n), n)
            assert t.counts[0] == 1
            assert t.n_edges == n
        t = sample_q_tree(GEO, rng_of(0))
        assert t.counts[0] == 1

    def test_q_needs_an_edge(self):
        with pytest.raises(ValueError):
            sample_q_tree(GEO, rng_of(0), 0)

    def test_q_tree_draws_the_q_rows(self):
        # one Q row per draw takes the same random numbers as sample_q_tree
        for n in (1, 2, 8, 40):
            row = _q_count_rows(GEO, n, rng_of(n), 1)[0]
            assert sample_q_tree(GEO, rng_of(n), n).counts == tuple(row.tolist())

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


class TestImportanceSampler:
    def test_structure_of_draws(self):
        rng = rng_of(21)
        n_valid = 0
        for _ in range(10_000):
            out = sample_reroot_importance(GEO, U3, 30, rng)
            assert out.tree.root_label == 0
            if out.valid:
                n_valid += 1
                assert out.weight > 0
                assert all(v > 0 for v in out.tree.labels[1:])
                assert out.tree.tree.counts[0] == 1
            else:
                assert out.weight == 0.0
        assert 0 < n_valid < 10_000

    def test_weight_is_inverse_leaf_count(self):
        rng = rng_of(22)
        for _ in range(200):
            out = sample_reroot_importance(GEO, U3, 10, rng)
            if out.valid:
                assert out.weight == pytest.approx(
                    1.0 / len(leaves(out.tree.tree))
                )

    def test_unbiased_against_enumeration(self):
        # estimate the positive-label share of the single-child-root law at
        # n=2 and compare with exhaustive enumeration
        from treesnake.exact_enum import labelled_atoms

        atoms = list(labelled_atoms(2, GEO, U3, x=0, root_single_child=True))
        total = sum(w for _, w in atoms)
        target = sum(
            w for s, w in atoms if all(v > 0 for v in s.labels[1:])
        ) / total

        rng = rng_of(23)
        n_draws = 40_000
        vals = np.empty(n_draws)
        for i in range(n_draws):
            out = sample_reroot_importance(GEO, U3, 2, rng)
            vals[i] = out.weight
        est = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(n_draws)
        assert abs(est - float(target)) < 4 * se

    def test_determinism(self):
        a = sample_reroot_importance(GEO, U3, 12, rng_of(31))
        b = sample_reroot_importance(GEO, U3, 12, rng_of(31))
        assert a == b


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
