"""Tests for the quadrangulation encoding of well-labelled trees."""

from __future__ import annotations

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from treesnake.exact_enum import count_well_labelled
from treesnake.gw_sampler import (
    OffspringDistribution,
    StepDistribution,
    sample_conditioned_batch,
    sample_gw_sized,
    sample_spatial,
)
from treesnake.plane_tree import build_tree, enumerate_trees
from treesnake.quadmap import (
    DistanceProfile,
    NotAQuadrangulation,
    NotWellLabelled,
    PlanarQuadrangulation,
    _CORNER_BUDGET,
    _arc_distances,
    _bfs_distances,
    _pointed_build,
    _pointed_draws,
    canonical_code,
    cvs_build,
    cvs_inverse,
    distances,
    enumerate_well_labelled,
    sample_radius_and_distance,
    sample_uniform_quad,
    sample_uniform_quads,
)
from treesnake.snake_limit import ks_two_sample
from treesnake.spatial_tree import SpatialTree

GEO = OffspringDistribution.geometric_half()
U3 = StepDistribution.uniform3()


def one_edge_tree(child_label):
    return SpatialTree(build_tree((1, 0)), (1, child_label))


def labelled_trees(n):
    """Every tree with n edges, root label 0 and steps in {-1, 0, 1}."""
    for tree in enumerate_trees(n + 1):
        parent = tree.parent_index
        for incs in itertools.product((-1, 0, 1), repeat=n):
            labels = [0] * (n + 1)
            for i in range(1, n + 1):
                labels[i] = labels[parent[i]] + incs[i - 1]
            yield SpatialTree(tree, tuple(labels))


def radius_and_distance(q, pick):
    """Radius from the root vertex, and the distance to non-root vertex pick."""
    root = q.vertex_of[q.root_dart]
    dist = _bfs_distances(q, root)
    return dist.max(), dist[pick if pick < root else pick + 1]


class TestWellLabelledValidation:
    def test_root_label_must_be_one(self):
        with pytest.raises(NotWellLabelled):
            cvs_build(SpatialTree(build_tree((1, 0)), (2, 1)))

    def test_labels_must_be_positive(self):
        with pytest.raises(NotWellLabelled):
            cvs_build(SpatialTree(build_tree((1, 0)), (1, 0)))

    def test_labels_must_not_jump(self):
        with pytest.raises(NotWellLabelled):
            cvs_build(SpatialTree(build_tree((1, 0)), (1, 3)))

    def test_labels_must_be_integers(self):
        with pytest.raises(NotWellLabelled):
            cvs_build(SpatialTree(build_tree((1, 0)), (1, 1.5)))

    def test_singleton_has_no_encoding(self):
        with pytest.raises(NotWellLabelled):
            cvs_build(SpatialTree(build_tree((0,)), (1,)))

    def test_edge_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="edges"):
            cvs_build(one_edge_tree(1), 5)


class TestOneFaceMaps:
    """Both one-face quadrangulations, worked out by hand."""

    def test_flat_labels_give_radius_one(self):
        q = cvs_build(one_edge_tree(1), 1)
        q.validate()
        profile = distances(q)
        assert profile.radius == 1
        assert profile.counts == {0: 1, 1: 2}

    def test_rising_labels_give_radius_two(self):
        q = cvs_build(one_edge_tree(2), 1)
        q.validate()
        profile = distances(q)
        assert profile.radius == 2
        assert profile.counts == {0: 1, 1: 1, 2: 1}

    def test_the_two_maps_are_distinct(self):
        codes = {
            canonical_code(cvs_build(one_edge_tree(c), 1)) for c in (1, 2)
        }
        assert len(codes) == 2


class TestEncodingBattery:
    """Exhaustive checks over every well-labelled tree with up to 5 edges."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_build_validate_distance_roundtrip(self, n):
        seen = 0
        for wt in enumerate_well_labelled(n):
            seen += 1
            q = cvs_build(wt, n)
            q.validate()
            assert q.n_vertices == n + 2
            assert len(q.faces) == n

            profile = distances(q)
            want = Counter(wt.labels)
            want[0] += 1
            assert profile.counts == dict(want)
            assert profile.radius == max(wt.labels)

            back = cvs_inverse(q)
            assert back.tree.counts == wt.tree.counts
            assert back.labels == wt.labels
        total, positive, _ = count_well_labelled(n)
        assert seen == positive

    @pytest.mark.parametrize("n,count", [(1, 2), (2, 9), (3, 54), (4, 378)])
    def test_codes_are_injective(self, n, count):
        codes = {canonical_code(cvs_build(wt, n)) for wt in enumerate_well_labelled(n)}
        assert len(codes) == count


class TestPointedEncoding:
    """Labelled trees with a sign against rooted maps with a marked vertex."""

    @pytest.mark.parametrize("n,maps", [(1, 2), (2, 9), (3, 54), (4, 378), (5, 2916)])
    def test_each_rooted_map_is_hit_n_plus_2_times(self, n, maps):
        codes = Counter()
        for wt in labelled_trees(n):
            for sign in (1, -1):
                q = _pointed_build(wt, sign)
                q.validate()
                codes[canonical_code(q)] += 1
        assert len(codes) == maps
        assert set(codes.values()) == {n + 2}
        assert set(codes) == {canonical_code(cvs_build(wt, n)) for wt in enumerate_well_labelled(n)}

    @staticmethod
    def check_point_distances(wt, sign):
        q = _pointed_build(wt, sign)
        shifted = [l - min(wt.labels) + 1 for l in wt.labels]
        order = wt.tree.contour_order[:-1]
        corner_of = {v: t for t, v in enumerate(order)}  # dart 2t leaves vertex v
        point = q.vertex_of[2 * corner_of[shifted.index(1)] + 1]
        dist = _bfs_distances(q, point)
        assert dist[point] == 0
        for v, t in corner_of.items():
            assert dist[q.vertex_of[2 * t]] == shifted[v]
        root_label = dist[q.vertex_of[q.root_dart]]
        assert root_label == (shifted[0] if sign == 1 else shifted[0] - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_point_distances_are_the_shifted_labels(self, n):
        for wt in labelled_trees(n):
            for sign in (1, -1):
                self.check_point_distances(wt, sign)

    def test_point_distances_on_large_random_trees(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            wt = sample_spatial(sample_gw_sized(GEO, 300, rng), U3, 0, rng)
            self.check_point_distances(wt, int(rng.choice((1, -1))))

    def test_sign_must_be_plus_or_minus_one(self):
        with pytest.raises(ValueError, match="sign"):
            _pointed_build(one_edge_tree(1), 0)

    def test_pointed_labels_may_not_jump(self):
        with pytest.raises(NotWellLabelled):
            _pointed_build(SpatialTree(build_tree((1, 0)), (0, 2)), 1)

    def test_pointed_labels_must_be_integers(self):
        with pytest.raises(NotWellLabelled):
            _pointed_build(SpatialTree(build_tree((1, 0)), (0, 0.5)), 1)

    def test_minus_sign_on_a_well_labelled_tree_is_the_plain_encoding(self):
        for wt in enumerate_well_labelled(3):
            assert _pointed_build(wt, -1) == cvs_build(wt)

    def test_radius_and_distance_law_matches_rejection(self):
        # two-sample KS at 2000 maps a side; the 1% critical value is 0.0515,
        # and fixing the sign to +1 or -1 gives 0.07 to 0.12
        n, maps = 100, 2000
        radii, dists, attempts = sample_radius_and_distance(
            n, maps, np.random.default_rng(100)
        )
        assert attempts == maps
        rng = np.random.default_rng(101)
        trees, _ = sample_conditioned_batch(GEO, U3, n, 1, maps, rng, strict=True)
        picks = rng.integers(0, n + 1, size=maps)
        ref = np.array(
            [radius_and_distance(cvs_build(wt, n), k) for wt, k in zip(trees, picks)]
        )
        assert ks_two_sample(radii, ref[:, 0]) < 0.0515
        assert ks_two_sample(dists, ref[:, 1]) < 0.0515


class TestCanonicalCode:
    def test_invariant_under_dart_relabelling(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            q = sample_uniform_quad(8, rng)
            perm = rng.permutation(4 * q.n)
            inv = np.argsort(perm)
            sigma = tuple(int(perm[q.sigma[inv[d]]]) for d in range(4 * q.n))
            alpha = tuple(int(perm[q.alpha[inv[d]]]) for d in range(4 * q.n))
            relabelled = PlanarQuadrangulation(
                q.n, sigma, alpha, int(perm[q.root_dart])
            )
            relabelled.validate()
            assert canonical_code(relabelled) == canonical_code(q)

    def test_moving_the_root_changes_the_code(self):
        # the two one-face maps differ only in where the root dart points
        q = cvs_build(one_edge_tree(2), 1)
        moved = PlanarQuadrangulation(q.n, q.sigma, q.alpha, q.alpha[q.root_dart])
        moved.validate()
        assert canonical_code(moved) != canonical_code(q)


class TestStructuralValidation:
    def test_torus_square_fails_euler(self):
        # one vertex, two edges, one degree-4 face: V - E + F = 0
        q = PlanarQuadrangulation(1, (1, 2, 3, 0), (2, 3, 0, 1), 0)
        with pytest.raises(NotAQuadrangulation, match="Euler"):
            q.validate()

    def test_fixed_point_alpha_rejected(self):
        q = cvs_build(one_edge_tree(1), 1)
        bad = PlanarQuadrangulation(1, q.sigma, (0, 1, 3, 2), q.root_dart)
        with pytest.raises(NotAQuadrangulation, match="involution"):
            bad.validate()

    def test_wrong_face_degree_rejected(self):
        # two vertices joined by two parallel edges: both faces have degree 2
        q = PlanarQuadrangulation(1, (2, 3, 0, 1), (1, 0, 3, 2), 0)
        with pytest.raises(NotAQuadrangulation, match="degree"):
            q.validate()

    def test_disconnected_darts_rejected(self):
        # two one-face maps numbered as one: every face has degree four
        q = cvs_build(one_edge_tree(1), 1)
        both = PlanarQuadrangulation(
            2,
            q.sigma + tuple(d + 4 for d in q.sigma),
            q.alpha + tuple(d + 4 for d in q.alpha),
            q.root_dart,
        )
        assert [len(f) for f in both.faces] == [4, 4]
        with pytest.raises(NotAQuadrangulation, match="not connected"):
            both.validate()

    def test_inverse_validates_its_input(self):
        with pytest.raises(NotAQuadrangulation):
            cvs_inverse(PlanarQuadrangulation(1, (1, 2, 3, 0), (2, 3, 0, 1), 0))


class TestDistanceProfile:
    def test_equals_the_unique_count_profile(self):
        for wt in enumerate_well_labelled(4):
            q = cvs_build(wt)
            dist = _bfs_distances(q, q.vertex_of[q.root_dart])
            vals, counts = np.unique(dist, return_counts=True)
            want = DistanceProfile(
                q.n, int(dist.max()), {int(v): int(c) for v, c in zip(vals, counts)}
            )
            assert distances(q) == want
            assert q.root_distances == tuple(dist.tolist())


class TestRescaledProfile:
    def test_masses_sum_to_one_without_the_root(self):
        q = cvs_build(one_edge_tree(2), 1)
        support, mass = distances(q).rescaled()
        assert mass.sum() == pytest.approx(1.0)
        assert 0.0 not in support
        np.testing.assert_allclose(support, np.array([1.0, 2.0]))

    def test_support_scales_like_the_fourth_root(self):
        profile = DistanceProfile(16, 4, {0: 1, 2: 10, 4: 7})
        support, mass = profile.rescaled()
        np.testing.assert_allclose(support, np.array([1.0, 2.0]))
        np.testing.assert_allclose(mass, np.array([10 / 17, 7 / 17]))


class TestUniformSampling:
    def test_two_face_frequencies_are_uniform(self):
        # the rejection oracle and the pointed draw, each against the same bound
        draws = 100_000
        trees, _ = sample_conditioned_batch(
            GEO, U3, 2, 1, draws, np.random.default_rng(2026), strict=True
        )
        rejection = (cvs_build(wt, 2) for wt in trees)
        pointed = sample_uniform_quads(2, draws, np.random.default_rng(2026))
        se = (draws * (1 / 9) * (8 / 9)) ** 0.5
        for maps in (rejection, pointed):
            freq = Counter(canonical_code(q) for q in maps)
            assert len(freq) == 9
            for count in freq.values():
                assert abs(count - draws / 9) < 4 * se

    def test_sample_uniform_quad_is_valid_and_reproducible(self):
        q1 = sample_uniform_quad(25, np.random.default_rng(99))
        q2 = sample_uniform_quad(25, np.random.default_rng(99))
        q1.validate()
        assert q1.sigma == q2.sigma
        assert q1.root_dart == q2.root_dart

    def test_radius_and_distance_pipeline(self):
        rng = np.random.default_rng(5)
        radii, dists, attempts = sample_radius_and_distance(40, 50, rng)
        assert radii.shape == dists.shape == (50,)
        assert attempts == 50
        assert (radii >= 1).all()
        assert (dists >= 1).all()
        assert (dists <= radii).all()

    def test_no_faces_is_rejected(self):
        with pytest.raises(ValueError, match="face"):
            sample_uniform_quad(0, np.random.default_rng(1))
        with pytest.raises(ValueError, match="face"):
            sample_radius_and_distance(0, 5, np.random.default_rng(1))


class TestArcKernel:
    """Distances from arc lists against the rotation-system route."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_distances_match_the_rotation_system(self, n):
        pairs = [(wt, sign) for wt in labelled_trees(n) for sign in (1, -1)]
        rows = np.array([wt.tree.counts for wt, _ in pairs])
        incs = np.array(
            [
                [wt.labels[i] - wt.labels[wt.tree.parent_index[i]] for i in range(1, n + 1)]
                for wt, _ in pairs
            ]
        )
        dist, root = _arc_distances(rows, incs, np.array([sign for _, sign in pairs]))
        for (wt, sign), d, r in zip(pairs, dist, root):
            q = _pointed_build(wt, sign)
            assert r == q.vertex_of[q.root_dart]
            assert d.tolist() == _bfs_distances(q, r).tolist()

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize(
        "n,maps", [(1, 40), (2, 40), (3, 40), (50, 40), (500, 25), (5001, 2)]
    )
    def test_sampler_matches_per_map_reference(self, n, maps, seed):
        # at n = 500 the maps span three kernel batches; above n = 5000 the
        # corner budget holds less than one map, so each batch holds one
        assert n < 500 or maps > 2 * (_CORNER_BUDGET // (2 * n))
        radii, dists, attempts = sample_radius_and_distance(
            n, maps, np.random.default_rng(seed)
        )
        rng = np.random.default_rng(seed)
        picks = rng.integers(0, n + 1, size=maps)
        ref = np.array(
            [radius_and_distance(q, k) for q, k in zip(sample_uniform_quads(n, maps, rng), picks)]
        )
        assert attempts == maps
        assert radii.tolist() == ref[:, 0].tolist()
        assert dists.tolist() == ref[:, 1].tolist()

    def test_steps_must_stay_within_one(self):
        with pytest.raises(NotWellLabelled):
            _arc_distances(np.array([[1, 0]]), np.array([[2]]), np.array([1]))

    def test_a_frontier_that_keeps_visited_vertices_raises(self, monkeypatch):
        # the level cap turns a kernel fault that would loop forever into an error
        rows, incs, signs = next(_pointed_draws(50, 4, np.random.default_rng(1)))

        def everything_unvisited(a, b, out):
            out[...] = True
            return out

        monkeypatch.setattr(np, "less", everything_unvisited)
        with pytest.raises(RuntimeError, match="arc kernel fault"):
            _arc_distances(rows, incs, signs)

    def test_batch_memory_is_linear_in_its_corners(self):
        # one full batch at n = 500; the kernel that sorted (map, label, time)
        # keys peaked at 178 bytes a corner here (numpy 2.4)
        n = 500
        batch = _CORNER_BUDGET // (2 * n)
        rows, incs, signs = next(_pointed_draws(n, batch, np.random.default_rng(1)))
        _arc_distances(rows, incs, signs)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            _arc_distances(rows, incs, signs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * batch * 2 * n
