from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesnake.plane_tree import (
    build_tree,
    enumerate_trees,
    leaves,
    truncate_at,
)
from treesnake.spatial_tree import (
    EmptyVertex,
    RootNotAllowed,
    SingletonTree,
    SpatialTree,
    companion_vertex,
    min_label,
    reroot_at,
    spatial_contour,
)
from treesnake.spatial_tree import VertexNotInTree

# the labelled eight-vertex example: same shape as in test_plane_tree,
# labels in preorder for (), (1), (1,1), (1,2), (1,2,1), (1,2,2), (1,3), (2)
EX_COUNTS = (2, 3, 0, 2, 0, 0, 0, 0)
EX_LABELS = (1, 3, 2, 1, -1, 0, 3, -1)
EX_SPATIAL_CONTOUR = (1, 3, 2, 3, 1, -1, 1, 0, 1, 3, 3, 3, 1, -1, 1)


def example() -> SpatialTree:
    return SpatialTree(build_tree(EX_COUNTS), EX_LABELS)


@st.composite
def random_spatial(draw, max_size: int = 25, single_child_root: bool = False):
    n = draw(st.integers(min_value=2, max_value=max_size))
    children: list[list[int]] = [[] for _ in range(n)]
    lo = 1 if single_child_root else 0
    for i in range(1, n):
        p = 0 if (single_child_root and i == 1) else draw(
            st.integers(min_value=lo if i > 1 else 0, max_value=i - 1)
        )
        children[p].append(i)
    counts = []
    order = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        counts.append(len(children[v]))
        stack.extend(reversed(children[v]))
    tree = build_tree(counts)
    labels = tuple(
        draw(st.integers(min_value=-5, max_value=5)) for _ in range(n)
    )
    return SpatialTree(tree, labels)


class TestBasics:
    def test_label_lookup(self):
        s = example()
        assert s.root_label == 1
        assert s.label_of((1, 2, 1)) == -1
        assert s.by_vertex[(1, 3)] == 3

    def test_from_mapping(self):
        t = build_tree((1, 0))
        s = SpatialTree.from_mapping(t, {(): 0, (1,): 5})
        assert s.labels == (0, 5)
        with pytest.raises(ValueError):
            SpatialTree.from_mapping(t, {(): 0})

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SpatialTree(build_tree((1, 0)), (0,))

    def test_spatial_contour_example(self):
        assert spatial_contour(example()).values == EX_SPATIAL_CONTOUR

    def test_missing_vertex(self):
        with pytest.raises(VertexNotInTree):
            example().label_of((7,))


class TestMinLabel:
    def test_example(self):
        got = min_label(example())
        assert got.value == -1
        assert got.argmin == ((1, 2, 1), (2,))
        assert got.first == (1, 2, 1)

    def test_exclude_root(self):
        s = SpatialTree(build_tree((1, 0)), (-3, 4))
        assert min_label(s).value == -3
        assert min_label(s, include_root=False).value == 4

    def test_singleton(self):
        s = SpatialTree(build_tree((0,)), (2,))
        assert min_label(s).value == 2
        with pytest.raises(SingletonTree):
            min_label(s, include_root=False)

    def test_argmin_is_lexicographic(self):
        s = example()
        got = min_label(s)
        assert list(got.argmin) == sorted(got.argmin)


class TestCompanion:
    def test_examples(self):
        assert companion_vertex((3, 2)) == (1, 2)
        assert companion_vertex((1, 4, 2)) == (1, 2, 4)
        assert companion_vertex((5,)) == (1,)

    def test_root_rejected(self):
        with pytest.raises(EmptyVertex):
            companion_vertex(())

    def test_same_depth(self):
        for v in [(1,), (2, 1), (3, 1, 4), (1, 2, 3, 4)]:
            assert len(companion_vertex(v)) == len(v)


class TestReroot:
    def test_two_vertex_example(self):
        s = SpatialTree(build_tree((1, 0)), (0, 5))
        r = reroot_at(s, (1,))
        assert r.tree.counts == (1, 0)
        assert r.labels == (0, -5)

    def test_example_at_deep_leaf(self):
        r = reroot_at(example(), (1, 2, 1))
        assert r.size == 8
        assert r.root_label == 0
        assert Counter(r.labels) == Counter((2, 4, 0, 3, 2, 4, 0, 1))

    def test_rerooting_at_root_rejected(self):
        with pytest.raises(RootNotAllowed):
            reroot_at(example(), ())

    def test_missing_vertex(self):
        with pytest.raises(VertexNotInTree):
            reroot_at(example(), (4,))

    def test_size_matches_truncation(self):
        s = example()
        for v in s.tree.vertices[1:]:
            r = reroot_at(s, v)
            assert r.size == truncate_at(s.tree, v).size

    def test_label_multiset_is_shifted_truncation(self):
        s = example()
        for v in s.tree.vertices[1:]:
            r = reroot_at(s, v)
            shift = s.label_of(v)
            kept = truncate_at(s.tree, v)
            expect = Counter(
                s.label_of(w) - shift for w in kept.vertices
            )
            assert Counter(r.labels) == expect

    def test_old_root_lands_at_companion(self):
        s = example()
        for v in s.tree.vertices[1:]:
            r = reroot_at(s, v)
            cv = companion_vertex(v)
            assert r.label_of(cv) == s.root_label - s.label_of(v)

    def test_new_root_has_one_child(self):
        s = example()
        for v in s.tree.vertices[1:]:
            assert reroot_at(s, v).tree.counts[0] == 1

    @given(random_spatial())
    @settings(max_examples=150, deadline=None)
    def test_reroot_properties_random(self, s):
        for v in s.tree.vertices[1:]:
            r = reroot_at(s, v)
            assert r.root_label == 0
            assert r.size == truncate_at(s.tree, v).size
            assert r.label_of(companion_vertex(v)) == s.root_label - s.label_of(v)

    @given(random_spatial(single_child_root=True))
    @settings(max_examples=150, deadline=None)
    def test_leaf_reroot_involution_on_single_child_trees(self, s):
        # holds when the original root has one child: the old root is then a
        # leaf of the re-rooted tree, so re-rooting there drops nothing
        for v in leaves(s.tree):
            r = reroot_at(s, v)
            back = reroot_at(r, companion_vertex(v))
            assert back.tree == s.tree
            # both re-rootings pin their root at 0, so the recovered labels
            # are the originals shifted to make the root label vanish
            assert back.labels == tuple(x - s.root_label for x in s.labels)

    def test_leaf_involution_fails_on_wide_root(self):
        # cherry: re-rooting at one leaf tucks the other below the old root,
        # whose companion address is then no longer a leaf
        s = SpatialTree(build_tree((2, 0, 0)), (0, 1, 2))
        r = reroot_at(s, (1,))
        assert r.tree.counts == (1, 1, 0)
        back = reroot_at(r, companion_vertex((1,)))
        assert back.size < s.size
