import math
from fractions import Fraction

import pytest

from treesnake import exact_enum
from treesnake.exact_enum import (
    _FAMILIES,
    IrrationalMass,
    _apply_plan,
    _functional_report,
    _frac,
    _pushforward,
    _reroot_plan,
    conditional_label_law,
    count_well_labelled,
    default_functionals,
    labelled_atoms,
    q_weight,
    reroot_measures,
    tree_weight,
    verify_reroot_identity,
    verify_reroot_identity_closed,
    verify_size_law,
)
from treesnake.gw_sampler import OffspringDistribution, StepDistribution
from treesnake.plane_tree import PlaneTree, build_tree, enumerate_trees, leaves
from treesnake.quadmap import enumerate_well_labelled
from treesnake.spatial_tree import SpatialTree, reroot_at


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


GEO = OffspringDistribution.geometric_half()
BINARY = OffspringDistribution({0: Fraction(1, 2), 2: Fraction(1, 2)})
U3 = StepDistribution.uniform3()
PM1 = StepDistribution.uniform_pm1()


class TestWeights:
    def test_example_tree_weight(self):
        t = build_tree((2, 3, 0, 2, 0, 0, 0, 0))
        assert tree_weight(t, GEO) == Fraction(1, 2**15)

    def test_all_same_size_trees_equal_mass_geometric(self):
        # prod 2^-(c+1) depends only on the vertex count
        for t in enumerate_trees(5):
            assert tree_weight(t, GEO) == Fraction(1, 2**9)

    def test_q_weight_drops_root_factor(self):
        path = build_tree((1, 0))
        assert q_weight(path, GEO) == Fraction(1, 2)
        cherry = build_tree((2, 0, 0))
        assert q_weight(cherry, GEO) == 0

    def test_finite_law_weight(self):
        half = Fraction(1, 2)
        binary = OffspringDistribution({0: half, 2: half})
        t = build_tree((2, 0, 0))
        assert tree_weight(t, binary) == Fraction(1, 8)
        assert tree_weight(build_tree((1, 0)), binary) == 0


class TestSizeLaw:
    def test_exact_up_to_eight(self):
        report = verify_size_law(GEO, 8)
        assert report["equal"] is True
        assert report["entries"][0]["lhs"] == "1/2"
        assert report["entries"][1]["lhs"] == "1/8"
        assert report["entries"][2]["lhs"] == "1/16"

    def test_exact_for_binary_law(self):
        half = Fraction(1, 2)
        binary = OffspringDistribution({0: half, 2: half})
        report = verify_size_law(binary, 8)
        assert report["equal"] is True
        # even sizes are impossible for a {0,2} offspring law
        assert report["entries"][1]["lhs"] == "0/1"
        assert report["entries"][1]["rhs"] == "0/1"

    def test_geometric_size_mass_closed_form(self):
        # with geometric offspring every n-vertex tree has mass 2^(1-2n)
        report = verify_size_law(GEO, 7)
        for e in report["entries"]:
            n = e["n"]
            expect = Fraction(catalan(n - 1), 2 ** (2 * n - 1))
            assert e["lhs"] == f"{expect.numerator}/{expect.denominator}"


class TestRerootIdentities:
    @pytest.mark.parametrize("gamma", [U3, PM1], ids=["uniform3", "pm1"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_open_identity(self, n, gamma):
        report = verify_reroot_identity(n, GEO, gamma)
        assert report["equal"] is True
        assert all(f["equal"] for f in report["functionals"])

    @pytest.mark.parametrize("gamma", [U3, PM1], ids=["uniform3", "pm1"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_identity(self, n, gamma):
        report = verify_reroot_identity_closed(n, GEO, gamma)
        assert report["equal"] is True

    def test_identity_for_binary_offspring(self):
        half = Fraction(1, 2)
        binary = OffspringDistribution({0: half, 2: half})
        assert verify_reroot_identity(3, binary, U3)["equal"] is True
        assert verify_reroot_identity_closed(3, binary, U3)["equal"] is True

    def test_closed_dominates_open(self):
        lo, _, _ = reroot_measures(3, GEO, U3, closed=False)
        lc, _, _ = reroot_measures(3, GEO, U3, closed=True)
        for key, w in lo.items():
            assert lc.get(key, Fraction(0)) >= w
        # ties in the minimum appear with a 0 step, so the closed side is
        # strictly heavier somewhere
        assert sum(lc.values()) > sum(lo.values())

    def test_closed_equals_open_without_ties_at_leaves(self):
        # a two-point step law never ties root and leaf... it does tie two
        # leaves, so only compare totals through the reports
        a = verify_reroot_identity(2, GEO, PM1)
        b = verify_reroot_identity_closed(2, GEO, PM1)
        assert a["equal"] and b["equal"]

    def test_term_counts(self):
        assert verify_reroot_identity(3, GEO, U3)["terms"] == 2 * 27
        assert verify_reroot_identity(5, GEO, PM1)["terms"] == catalan(4) * 2**5

    def test_report_shape(self):
        r = verify_reroot_identity(2, GEO, U3)
        assert r["identity"] == "reroot"
        assert r["mu"] == "geometric-half"
        assert r["gamma"] == "uniform3"
        names = [f["name"] for f in r["functionals"]]
        assert names == [
            "total-mass",
            "shape=1,1,0",
            "leaves=1",
            "labels=0,1,1",
            "labels=0,1,2",
            "head-label=1",
            "atom=1,1,0|0,1,1",
            "atom=1,1,0|0,1,2",
        ]


class TestRerootPlans:
    @pytest.mark.parametrize("gamma", [U3, PM1], ids=["uniform3", "pm1"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_plan_equals_reroot_at_at_every_leaf(self, n, gamma):
        checked = 0
        for s, _ in labelled_atoms(n, GEO, gamma):
            for v in range(1, s.size):
                if s.tree.counts[v] == 0:
                    want = reroot_at(s, v)
                    got = _apply_plan(_reroot_plan(s.tree, v), s.labels)
                    assert got == (want.tree.counts, want.labels)
                    checked += 1
        assert checked >= catalan(n - 1) * len(gamma.exact_items()) ** n

    def test_a_broken_reroot_at_is_caught(self, monkeypatch):
        def reversed_labels(s, v0):
            r = reroot_at(s, v0)
            return SpatialTree(r.tree, r.labels[::-1])

        monkeypatch.setattr(exact_enum, "reroot_at", reversed_labels)
        assert verify_reroot_identity(3, GEO, U3)["equal"] is False


class TestCensus:
    def test_frozen_small_counts(self):
        assert count_well_labelled(1) == (3, 2, Fraction(2, 3))
        assert count_well_labelled(2) == (18, 9, Fraction(1, 2))
        assert count_well_labelled(3) == (135, 54, Fraction(2, 5))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_total_is_shapes_times_steps(self, n):
        total, _, _ = count_well_labelled(n)
        assert total == 3**n * catalan(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_ratio_closed_form(self, n):
        _, _, ratio = count_well_labelled(n)
        assert ratio == Fraction(2, n + 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_positive_count_matches_map_census(self, n):
        _, pos, _ = count_well_labelled(n)
        maps = Fraction(2 * 3**n * math.comb(2 * n, n), (n + 1) * (n + 2))
        assert maps.denominator == 1
        assert pos == maps.numerator

    def test_zero_edges(self):
        assert count_well_labelled(0) == (1, 1, Fraction(1))

    # the label DP against the labellings it replaced and the map census
    @pytest.mark.parametrize("k", range(1, 8))
    def test_dp_counts_the_enumerated_labellings(self, k):
        assert count_well_labelled(k)[1] == sum(1 for _ in enumerate_well_labelled(k))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_dp_counts_the_maps(self, k):
        assert count_well_labelled(k)[1] == 2 * 3**k * catalan(k) // (k + 2)


def mean_leaves(mu, n):
    """Mean leaf count of the size-conditioned shape law, from the leaves family."""
    shapes = {(t.counts, (0,) * t.size): tree_weight(t, mu) for t in enumerate_trees(n + 1)}
    _, total, sums = _pushforward(shapes)
    return Fraction(sum(k * m for k, m in sums["leaves"].items()), total)


class TestLeafStatistics:
    def test_exact_small_value(self):
        assert mean_leaves(GEO, 4) == Fraction(5, 2)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_leaf_share_near_half(self, n):
        share = mean_leaves(GEO, n) / (n + 1)
        assert abs(share - Fraction(1, 2)) <= Fraction(1, 10)


class TestConditionalLaw:
    def test_one_edge_law(self):
        law = conditional_label_law(1, GEO, U3, x=1)
        assert law == {
            ((1, 0), (1, 1)): Fraction(1, 2),
            ((1, 0), (1, 2)): Fraction(1, 2),
        }

    def test_three_edge_support_size(self):
        law = conditional_label_law(3, GEO, U3, x=1)
        assert len(law) == 54
        assert sum(law.values()) == 1

    def test_normal_steps_rejected(self):
        with pytest.raises(IrrationalMass):
            list(labelled_atoms(2, GEO, StepDistribution.normal(1.0)))


class TestFunctionalFamily:
    def test_generated_from_support(self):
        _, rhs, _ = reroot_measures(2, GEO, U3)
        fns = default_functionals(rhs)
        names = [n for n, _ in fns]
        assert len(names) == len(set(names))
        total = [fn for name, fn in fns if name == "total-mass"][0]
        assert total(None) == 1

    def test_indicators_return_ints(self):
        _, rhs, _ = reroot_measures(3, GEO, U3)
        counts, labels = next(iter(rhs))
        s = SpatialTree(PlaneTree(counts), labels)
        assert all(type(fn(s)) is int for _, fn in default_functionals(rhs))


def reference_values(measure, functionals):
    """Each functional summed atom by atom in plain Fraction arithmetic."""
    out = []
    for _, fn in functionals:
        total = Fraction(0)
        for (counts, labels), w in measure.items():
            total += w * fn(SpatialTree(PlaneTree(counts), labels))
        out.append(total)
    return out


class TestMeasureValues:
    @pytest.mark.parametrize(
        "mu,gamma", [(GEO, U3), (GEO, PM1), (BINARY, U3)], ids=["uniform3", "pm1", "binary"]
    )
    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_the_fraction_sum(self, n, closed, mu, gamma):
        # the report's pushforward masses against the same indicators called
        # on every atom
        lhs, rhs, _ = reroot_measures(n, mu, gamma, closed=closed)
        fns = default_functionals(rhs if rhs else lhs)
        rows = _functional_report(lhs, rhs)
        assert [row["name"] for row in rows] == [name for name, _ in fns]
        for side, measure in (("lhs", lhs), ("rhs", rhs)):
            want = [_frac(v) for v in reference_values(measure, fns)]
            assert [row[side] for row in rows] == want

    def test_sides_are_kept_apart(self):
        # open and closed pushforwards differ (ties at 0 steps), so a report
        # that read one side twice would show
        lo, _, _ = reroot_measures(3, GEO, U3, closed=False)
        lc, _, _ = reroot_measures(3, GEO, U3, closed=True)
        fns = default_functionals(lc)
        rows = _functional_report(lo, lc)
        assert [row["lhs"] for row in rows] == [_frac(v) for v in reference_values(lo, fns)]
        assert [row["rhs"] for row in rows] == [_frac(v) for v in reference_values(lc, fns)]
        assert rows[0]["equal"] is False

    def test_weights_have_several_denominators(self):
        _, rhs, _ = reroot_measures(4, GEO, U3)
        assert len({w.denominator for w in rhs.values()}) > 1

    def test_empty_measure(self):
        # a single-child root with binary offspring needs an odd edge count
        lhs, rhs, _ = reroot_measures(2, BINARY, U3)
        assert lhs == rhs == {}
        assert _pushforward({}) == (1, 0, {family: {} for family in _FAMILIES})
        assert _functional_report({}, {}) == [
            {"name": "total-mass", "lhs": "0/1", "rhs": "0/1", "equal": True}
        ]


def test_leaf_count_matches_the_leaf_set():
    trees = [t for k in range(1, 10) for t in enumerate_trees(k)]
    assert len(trees) == 2056
    leaf_count = _FAMILIES["leaves"][0]
    for t in trees:
        assert leaf_count((t.counts, ())) == len(leaves(t))
