"""Tests for the quadrangulation encoding of well-labelled trees."""

from __future__ import annotations

import hashlib
import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from treesnake.exact_enum import count_well_labelled
from treesnake.gw_sampler import (
    OffspringDistribution,
    StepDistribution,
    _conditioned_rows,
    _rerooted_rows,
    sample_measure,
)
from treesnake.plane_tree import PlaneTree, build_tree, enumerate_trees
from treesnake.quadmap import (
    DistanceProfile,
    NotAQuadrangulation,
    NotWellLabelled,
    PlanarQuadrangulation,
    _bfs_distances,
    _pairs_darts,
    alpha_of,
    canonical_code,
    cvs_build,
    cvs_inverse,
    distances,
    enumerate_well_labelled,
    sample_radius_and_distance,
    sample_uniform_quads,
)
from treesnake.snake_limit import ks_two_sample
from treesnake.spatial_tree import SpatialTree, reroot_at

GEO = OffspringDistribution.geometric_half()
U3 = StepDistribution.uniform3()


def tuples(draw) -> tuple[list, list]:
    """sample_measure's (counts, starts, labels) arrays of labelled draws as
    per-tree (count tuples, label tuples)."""
    counts, starts, labels = draw
    spans = list(zip(starts[:-1].tolist(), starts[1:].tolist()))
    return ([tuple(counts[a:b].tolist()) for a, b in spans],
            [tuple(labels[a:b].tolist()) for a, b in spans])


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


def rejection_trees(n, count, rng):
    """count well-labelled trees with n edges by positivity rejection."""
    rows, labels, _ = _conditioned_rows(GEO, U3, n, 1, count, rng)
    return [SpatialTree(PlaneTree(tuple(c)), tuple(l))
            for c, l in zip(rows.tolist(), labels.tolist())]


def renumbered(q, rng):
    """The same rooted map with its darts renumbered by a random permutation."""
    perm = rng.permutation(4 * q.n)
    inv = np.argsort(perm)
    sigma = tuple(int(perm[q.sigma[inv[d]]]) for d in range(4 * q.n))
    alpha = tuple(int(perm[q.alpha[inv[d]]]) for d in range(4 * q.n))
    return PlanarQuadrangulation(q.n, sigma, alpha, int(perm[q.root_dart]))


def radius_and_distance(q, pick):
    """Radius from the root vertex, and the distance to non-root vertex pick."""
    root = q.vertex_of[q.root_dart]
    dist = _bfs_distances(q, root)
    return max(dist), dist[pick if pick < root else pick + 1]


class TestWellLabelledValidation:
    def test_root_label_must_be_one(self):
        with pytest.raises(NotWellLabelled, match=r"^root label 2, want 1$"):
            cvs_build(SpatialTree(build_tree((1, 0)), (2, 1)))

    def test_labels_must_be_positive(self):
        with pytest.raises(NotWellLabelled, match=r"^label 0 at vertex 1$"):
            cvs_build(SpatialTree(build_tree((1, 0)), (1, 0)))

    def test_labels_must_not_jump(self):
        with pytest.raises(NotWellLabelled, match=r"^labels jump by 2 along an edge$"):
            cvs_build(SpatialTree(build_tree((1, 0)), (1, 3)))

    def test_labels_must_be_integers(self):
        with pytest.raises(NotWellLabelled, match=r"^label 1\.5 at vertex 1$"):
            cvs_build(SpatialTree(build_tree((1, 0)), (1, 1.5)))

    def test_singleton_has_no_encoding(self):
        with pytest.raises(NotWellLabelled, match=r"^need at least one edge$"):
            cvs_build(SpatialTree(build_tree((0,)), (1,)))


class TestOneFaceMaps:
    """Both one-face quadrangulations, worked out by hand."""

    def test_flat_labels_give_radius_one(self):
        q = cvs_build(one_edge_tree(1))
        q.validate()
        profile = distances(q)
        assert profile.radius == 1
        assert profile.counts == {0: 1, 1: 2}

    def test_rising_labels_give_radius_two(self):
        q = cvs_build(one_edge_tree(2))
        q.validate()
        profile = distances(q)
        assert profile.radius == 2
        assert profile.counts == {0: 1, 1: 1, 2: 1}

    def test_the_two_maps_are_distinct(self):
        codes = {
            canonical_code(cvs_build(one_edge_tree(c))) for c in (1, 2)
        }
        assert len(codes) == 2


class TestEncodingBattery:
    """Exhaustive checks over every well-labelled tree with up to 5 edges."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_build_validate_distance_roundtrip(self, n):
        seen = 0
        for wt in enumerate_well_labelled(n):
            seen += 1
            q = cvs_build(wt)
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

    def test_every_rerooting_round_trips(self):
        # each map re-rooted at every dart, 728 rooted maps in all, most of
        # them with a dart numbering that cvs_build never produces
        seen = 0
        for n in (1, 2, 3):
            for wt in enumerate_well_labelled(n):
                q = cvs_build(wt)
                for root in range(4 * n):
                    moved = PlanarQuadrangulation(n, q.sigma, q.alpha, root)
                    assert canonical_code(cvs_build(cvs_inverse(moved))) == canonical_code(moved)
                    seen += 1
        assert seen == 728

    def test_every_dart_renumbering_round_trips(self):
        # every map with up to 4 faces, its darts renumbered at random: the
        # inverse walks rotations from slots that cvs_build's numbering
        # never produces
        rng = np.random.default_rng(12)
        seen = 0
        for n in (1, 2, 3, 4):
            for wt in enumerate_well_labelled(n):
                back = cvs_inverse(renumbered(cvs_build(wt), rng))
                assert back.tree == wt.tree
                assert back.labels == wt.labels
                seen += 1
        assert seen == 443

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_enumeration_order_is_the_filtered_product(self, n):
        # the pruned depth-first extension against every increment tuple
        # of every shape, filtered: the same trees in the same order
        want = []
        for tree in enumerate_trees(n + 1):
            parent = tree.parent_index
            for incs in itertools.product((-1, 0, 1), repeat=n):
                labels = [1] * (n + 1)
                for i in range(1, n + 1):
                    labels[i] = labels[parent[i]] + incs[i - 1]
                if min(labels) >= 1:
                    want.append((tree.counts, tuple(labels)))
        got = [(wt.tree.counts, wt.labels) for wt in enumerate_well_labelled(n)]
        assert got == want

    @pytest.mark.parametrize("n,count", [(1, 2), (2, 9), (3, 54), (4, 378)])
    def test_codes_are_injective(self, n, count):
        codes = {canonical_code(cvs_build(wt)) for wt in enumerate_well_labelled(n)}
        assert len(codes) == count


class TestCanonicalCode:
    def test_invariant_under_dart_relabelling(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            q = next(sample_uniform_quads(8, 1, rng))
            relabelled = renumbered(q, rng)
            relabelled.validate()
            assert canonical_code(relabelled) == canonical_code(q)

    def test_moving_the_root_changes_the_code(self):
        # the two one-face maps differ only in where the root dart points
        q = cvs_build(one_edge_tree(2))
        moved = PlanarQuadrangulation(q.n, q.sigma, q.alpha, q.alpha[q.root_dart])
        moved.validate()
        assert canonical_code(moved) != canonical_code(q)


class TestStructuralValidation:
    def test_torus_square_fails_euler(self):
        # one vertex, two edges, one degree-4 face: V - E + F = 0
        q = PlanarQuadrangulation(1, (1, 2, 3, 0), (2, 3, 0, 1), 0)
        with pytest.raises(NotAQuadrangulation, match=r"^Euler count fails, the map is not planar$"):
            q.validate()

    def test_fixed_point_alpha_rejected(self):
        q = cvs_build(one_edge_tree(1))
        bad = PlanarQuadrangulation(1, q.sigma, (0, 1, 3, 2), q.root_dart)
        with pytest.raises(NotAQuadrangulation, match=r"^alpha is not a fixed-point-free involution$"):
            bad.validate()

    def test_wrong_face_degree_rejected(self):
        # two vertices joined by two parallel edges: both faces have degree 2
        q = PlanarQuadrangulation(1, (2, 3, 0, 1), (1, 0, 3, 2), 0)
        with pytest.raises(NotAQuadrangulation, match=r"^face of degree 2, want 4$"):
            q.validate()

    def test_disconnected_darts_rejected(self):
        # two one-face maps numbered as one: every face has degree four
        q = cvs_build(one_edge_tree(1))
        both = PlanarQuadrangulation(
            2,
            q.sigma + tuple(d + 4 for d in q.sigma),
            q.alpha + tuple(d + 4 for d in q.alpha),
            q.root_dart,
        )
        assert [len(f) for f in both.faces] == [4, 4]
        with pytest.raises(NotAQuadrangulation, match=r"^map is not connected$"):
            both.validate()

    def test_inverse_validates_its_input(self):
        with pytest.raises(NotAQuadrangulation, match=r"^Euler count fails"):
            cvs_inverse(PlanarQuadrangulation(1, (1, 2, 3, 0), (2, 3, 0, 1), 0))

    def test_sigma_must_be_a_permutation(self):
        q = cvs_build(one_edge_tree(1))
        bad = PlanarQuadrangulation(1, (0, 0, 1, 2), q.alpha, q.root_dart)
        with pytest.raises(NotAQuadrangulation, match=r"^sigma is not a permutation$"):
            bad.validate()
        with pytest.raises(NotAQuadrangulation, match=r"^sigma is not a permutation$"):
            cvs_inverse(bad)

    # the orbit walk of _rotations is the permutation check: the walk would
    # read the -3 in (-3, 2, 3, 0) as dart 1 and close, and in (0, 0, 1, 2)
    # the orbit of 0 closes at once while the walk from 1 runs into it
    @pytest.mark.parametrize("sigma", [(-3, 2, 3, 0), (1, 2, 3, 4), (0, 0, 1, 2)],
                             ids=["negative", "past-the-darts", "open-orbit"])
    def test_every_sigma_that_is_not_a_permutation_raises(self, sigma):
        q = cvs_build(one_edge_tree(1))
        bad = PlanarQuadrangulation(1, sigma, q.alpha, q.root_dart)
        for check in (bad.validate, lambda: bad.vertex_of, lambda: bad.root_distances,
                      lambda: cvs_inverse(bad)):
            with pytest.raises(NotAQuadrangulation, match=r"^sigma is not a permutation$"):
                check()

    def test_sigma_is_checked_before_alpha(self):
        bad = PlanarQuadrangulation(1, (0, 0, 1, 2), (0, 1, 2, 3), 0)
        with pytest.raises(NotAQuadrangulation, match=r"^sigma is not a permutation$"):
            bad.validate()

    @pytest.mark.parametrize("alpha", [(4, 0, 3, 2), (1, 2, 3, 0)], ids=["range", "not-involution"])
    def test_alpha_must_pair_the_darts(self, alpha):
        q = cvs_build(one_edge_tree(1))
        bad = PlanarQuadrangulation(1, q.sigma, alpha, q.root_dart)
        # no verdict is remembered: every call checks again
        for _ in range(2):
            with pytest.raises(NotAQuadrangulation, match=r"^alpha is not a fixed-point-free involution$"):
                bad.validate()

    def test_a_pairing_other_than_alpha_of_passes(self):
        rng = np.random.default_rng(3)
        for wt in enumerate_well_labelled(3):
            q = renumbered(cvs_build(wt), rng)
            assert q.alpha != alpha_of(12)
            q.validate()
            assert cvs_inverse(q) == wt

    @pytest.mark.parametrize("m", range(4, 41, 4))
    def test_alpha_of_is_a_fixed_point_free_involution(self, m):
        # validate skips the pairing check for this shared tuple
        alpha = alpha_of(m)
        assert sorted(alpha) == list(range(m))
        assert all(alpha[alpha[d]] == d != alpha[d] for d in range(m))
        assert _pairs_darts(alpha)

    @pytest.mark.parametrize("n, sigma, root, message", [
        (0, (), 0, "need at least one face"),
        (1, (1, 2, 3), 0, "expected 4 darts"),
        (1, (1, 2, 3, 0), 4, "root dart out of range"),
    ], ids=["no-face", "darts", "root"])
    def test_construction_checks_the_dart_counts(self, n, sigma, root, message):
        with pytest.raises(NotAQuadrangulation, match=f"^{message}$"):
            PlanarQuadrangulation(n, sigma, (1, 0, 3, 2)[: len(sigma)], root)


class TestDistanceProfile:
    def test_equals_the_unique_count_profile(self):
        for wt in enumerate_well_labelled(4):
            q = cvs_build(wt)
            dist = _bfs_distances(q, q.vertex_of[q.root_dart])
            vals, counts = np.unique(dist, return_counts=True)
            want = DistanceProfile(
                q.n, max(dist), {int(v): int(c) for v, c in zip(vals, counts)}
            )
            assert distances(q) == want
            assert q.root_distances == dist


class TestRescaledProfile:
    def test_masses_sum_to_one_without_the_root(self):
        q = cvs_build(one_edge_tree(2))
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
        # the rejection oracle and the sampler's trees, each against the
        # same bound; a map is built once per distinct drawn tree
        draws = 100_000
        rejection = zip(*(a.tolist() for a in
                          _conditioned_rows(GEO, U3, 2, 1, draws, np.random.default_rng(2026))[:2]))
        sampled = zip(*tuples(sample_measure("Pbar-n-x", GEO, U3, 2, 1, draws,
                                             np.random.default_rng(2026))))
        se = (draws * (1 / 9) * (8 / 9)) ** 0.5
        for trees in (rejection, sampled):
            freq: Counter = Counter()
            for (c, l), count in Counter((tuple(c), tuple(l)) for c, l in trees).items():
                freq[canonical_code(cvs_build(SpatialTree(PlaneTree(c), l)))] += count
            assert len(freq) == 9
            for count in freq.values():
                assert abs(count - draws / 9) < 4 * se

    def test_uniform_quads_are_maps_of_the_measure_draws(self):
        # the production route: cvs_build of sample_measure's Pbar_{2,1} draws
        got = sample_uniform_quads(2, 300, np.random.default_rng(7))
        counts, labels = tuples(sample_measure("Pbar-n-x", GEO, U3, 2, 1, 300,
                                               np.random.default_rng(7)))
        want = [cvs_build(SpatialTree(PlaneTree(c), l)) for c, l in zip(counts, labels)]
        assert [canonical_code(q) for q in got] == [canonical_code(q) for q in want]

    def test_radius_and_distance_law_matches_rejection(self):
        # two-sample KS at 2000 maps a side; the 1% critical value is 0.0515
        n, maps = 100, 2000
        radii, dists, attempts = sample_radius_and_distance(
            n, maps, np.random.default_rng(100)
        )
        assert attempts >= maps
        rng = np.random.default_rng(101)
        trees = rejection_trees(n, maps, rng)
        picks = rng.integers(0, n + 1, size=maps)
        ref = np.array(
            [radius_and_distance(cvs_build(wt), k) for wt, k in zip(trees, picks)]
        )
        assert ks_two_sample(radii, ref[:, 0]) < 0.0515
        assert ks_two_sample(dists, ref[:, 1]) < 0.0515

    def test_sample_uniform_quad_is_valid_and_reproducible(self):
        q1 = next(sample_uniform_quads(25, 1, np.random.default_rng(99)))
        q2 = next(sample_uniform_quads(25, 1, np.random.default_rng(99)))
        q1.validate()
        assert q1.sigma == q2.sigma
        assert q1.root_dart == q2.root_dart

    def test_radius_and_distance_pipeline(self):
        rng = np.random.default_rng(5)
        radii, dists, attempts = sample_radius_and_distance(40, 50, rng)
        assert radii.shape == dists.shape == (50,)
        assert attempts >= 50
        assert (radii >= 1).all()
        assert (dists >= 1).all()
        assert (dists <= radii).all()

    # sha256 of the radii, distances and attempts (as int64), recorded when
    # _tilted_rows first drew its zero slots and cuts with _marks; the law
    # tests of the tilted shapes and of Qbar_n pin down what they draw
    @pytest.mark.parametrize("seed, digest", [
        (1, "fc0599c52b16c8abda85560701946cbbeaea061e0e6c27c994bba70df6265ed2"),
        (2, "661544bedf0f7448ed25ad2f54fae1d2f0da5daa6bec3887e784ab1f334dafa4"),
    ], ids=["1", "2"])
    def test_radius_and_distance_keep_their_bytes(self, seed, digest):
        radii, dists, attempts = sample_radius_and_distance(500, 100, np.random.default_rng(seed))
        data = radii.tobytes() + dists.tobytes() + np.int64(attempts).tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_no_faces_is_rejected(self):
        with pytest.raises(ValueError, match="face"):
            next(sample_uniform_quads(0, 1, np.random.default_rng(1)))
        with pytest.raises(ValueError, match="face"):
            sample_radius_and_distance(0, 5, np.random.default_rng(1))


def below_the_root(s: SpatialTree, k: int) -> SpatialTree:
    """A single-child-root tree re-rooted at its vertex k, without the new
    root edge: the well-labelled tree of the map that a kept draw of
    _rerooted_rows stands for, when k is its minimum."""
    r = reroot_at(s, k)
    return SpatialTree(PlaneTree(r.tree.counts[1:]), r.labels[1:])


def joint_law(n: int) -> dict:
    """Exact law of (radius, distance to a uniform non-root vertex) of a
    uniform rooted quadrangulation with n faces."""
    law: dict = {}
    for wt in enumerate_well_labelled(n):
        profile = distances(cvs_build(wt))
        for d, c in profile.counts.items():
            if d:
                key = (profile.radius, d)
                law[key] = law.get(key, 0) + Fraction(c, n + 1)
    total = sum(law.values())
    return {k: w / total for k, w in law.items()}


# Upper 0.001 quantiles of chi-square, by degrees of freedom.
CHI2_999 = {2: 13.82, 5: 20.52, 9: 27.88, 14: 36.12}


class TestRadiusAndDistanceLaw:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_joint_law_is_exact(self, n):
        # seed, draws and bound fixed before the first run; Cauchy-Schwarz
        # gives 2 TV <= sqrt(X^2 / draws) for Pearson's X^2 over the cells
        draws = 100_000
        law = joint_law(n)
        rng = np.random.default_rng(700 + n)
        radii, dists, attempts = sample_radius_and_distance(n, draws, rng)
        assert attempts >= draws
        seen = Counter(zip(radii.tolist(), dists.tolist()))
        assert set(seen) <= set(law)
        tv = sum(abs(seen[k] / draws - float(p)) for k, p in law.items()) / 2
        assert tv <= 0.5 * (CHI2_999[len(law) - 1] / draws) ** 0.5


class TestArcKernel:
    """Radii and distances read off the labels of kept _rerooted_rows draws
    against breadth-first distances over the arcs of the maps that
    cvs_build draws for them."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_distances_match_the_rotation_system(self, n):
        # every labelled single-child-root tree with n + 1 edges whose label
        # minimum is one leaf, which is what the sampler keeps
        kept = 0
        for s in labelled_trees(n + 1):
            low = min(s.labels)
            k = s.labels.index(low)
            if s.tree.counts[0] != 1 or s.labels.count(low) > 1 or s.tree.counts[k]:
                continue
            kept += 1
            q = cvs_build(below_the_root(s, k))
            dist = _bfs_distances(q, q.vertex_of[q.root_dart])
            assert sorted(dist) == sorted(l - low for l in s.labels)
        assert kept > 0

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize(
        "n,maps", [(1, 40), (2, 40), (3, 40), (50, 40), (500, 25), (5001, 2)]
    )
    def test_sampler_matches_per_map_reference(self, n, maps, seed):
        radii, dists, attempts = sample_radius_and_distance(
            n, maps, np.random.default_rng(seed)
        )
        # the same draws, each map built and searched
        rng = np.random.default_rng(seed)
        rows, labels, argmin, again = _rerooted_rows(U3, n + 1, maps, rng)
        picks = rng.integers(0, n + 1, size=maps)
        assert attempts == again >= maps
        for b in range(maps):
            s = SpatialTree(PlaneTree(tuple(rows[b].tolist())), tuple(labels[b].tolist()))
            q = cvs_build(below_the_root(s, int(argmin[b])))
            dist = _bfs_distances(q, q.vertex_of[q.root_dart])
            shifted = labels[b] - labels[b, argmin[b]]
            assert sorted(dist) == sorted(shifted.tolist())
            assert radii[b] == max(dist)
            # the picked vertex is one of the n + 1 off the minimum
            assert dists[b] == shifted[picks[b] + (picks[b] >= argmin[b])]

    def test_batch_memory_is_linear_in_its_corners(self):
        # 100 maps at n = 500 take several kernel blocks; beyond the kept
        # rows and labels (16 bytes a vertex), the traced peak held 41 bytes
        # a vertex of one block here (numpy 2.4), and 58 when a block's
        # arrays lived on into the next block's draw
        n, maps = 500, 100
        sample_radius_and_distance(n, maps, np.random.default_rng(1))  # first-call allocations
        tracemalloc.start()
        try:
            sample_radius_and_distance(n, maps, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 2**18 // (8 * (n + 1))
        assert peak <= 48 * block * (n + 1) + 16 * maps * (n + 2)
