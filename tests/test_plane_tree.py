import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesnake.plane_tree import (
    ContourFunction,
    InvalidContour,
    InvalidPreorder,
    PlaneTree,
    VertexNotInTree,
    _row_contours,
    _subtree_ends,
    build_tree,
    contour_of,
    enumerate_trees,
    leaves,
    tree_from_line,
    tree_of_contour,
    tree_to_line,
    truncate_at,
    visit_times,
)

# Eight-vertex worked example used throughout: root with children (1) and (2),
# vertex (1) with children (1,1), (1,2), (1,3), and (1,2) with two children.
EX_COUNTS = (2, 3, 0, 2, 0, 0, 0, 0)
EX_CONTOUR = (0, 1, 2, 1, 2, 3, 2, 3, 2, 1, 2, 1, 0, 1, 0)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@st.composite
def random_trees(draw, max_size: int = 40) -> PlaneTree:
    """Random plane tree via a uniform attachment sequence."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        p = draw(st.integers(min_value=0, max_value=i - 1))
        children[p].append(i)
    counts = []
    stack = [0]
    while stack:
        v = stack.pop()
        counts.append(len(children[v]))
        stack.extend(reversed(children[v]))
    return build_tree(counts)


class TestConstruction:
    def test_example_vertices_in_preorder(self):
        t = build_tree(EX_COUNTS)
        assert t.vertices == (
            (),
            (1,),
            (1, 1),
            (1, 2),
            (1, 2, 1),
            (1, 2, 2),
            (1, 3),
            (2,),
        )

    def test_preorder_is_lexicographic_with_prefix_first(self):
        t = build_tree(EX_COUNTS)
        assert list(t.vertices) == sorted(t.vertices)

    def test_singleton(self):
        t = build_tree([0])
        assert t.size == 1 and t.zeta == 0
        assert t.vertices == ((),)

    @pytest.mark.parametrize(
        "bad",
        [(), (1,), (0, 0), (2, 0), (1, 0, 0), (-1,), (2, 0, 0, 0)],
    )
    def test_invalid_preorder_rejected(self, bad):
        with pytest.raises(InvalidPreorder):
            build_tree(bad)

    def test_counts_sum(self):
        for n in range(1, 8):
            for t in enumerate_trees(n):
                assert sum(t.counts) == t.size - 1


class TestContour:
    def test_example_contour(self):
        t = build_tree(EX_COUNTS)
        assert contour_of(t).values == EX_CONTOUR

    def test_contour_length_and_steps(self):
        for n in range(1, 8):
            for t in enumerate_trees(n):
                c = contour_of(t).values
                assert len(c) == 2 * t.size - 1
                assert c[0] == 0 and c[-1] == 0
                assert all(abs(a - b) == 1 for a, b in zip(c, c[1:]))

    def test_round_trip_small(self):
        for n in range(1, 9):
            for t in enumerate_trees(n):
                assert tree_of_contour(contour_of(t)) == t

    def test_contour_at_first_visit_is_depth(self):
        for n in range(1, 8):
            for t in enumerate_trees(n):
                c = contour_of(t).values
                for v in t.vertices:
                    k, _ = visit_times(t, v)
                    assert c[k] == len(v)

    @pytest.mark.parametrize(
        "bad",
        [
            (0, 1),  # even length
            (1, 0, 0),  # starts above 0
            (0, 1, 1, 1, 0),  # step of size 0 is impossible with these values
            (0, -1, 0),  # dips below the root
            (0, 2, 0),  # jump of 2
        ],
    )
    def test_invalid_contours_rejected(self, bad):
        with pytest.raises(InvalidContour):
            tree_of_contour(bad)

    def test_accepts_plain_sequences(self):
        assert tree_of_contour(list(EX_CONTOUR)) == build_tree(EX_COUNTS)

    def test_count_arrays_match_the_addresses(self):
        # parent, depth and contour order come from one stack pass over the
        # counts; here they are read off the tuple addresses instead
        for n in range(1, 10):
            for t in enumerate_trees(n):
                idx = t.index_of
                order: list[int] = []

                def walk(v):
                    order.append(idx[v])
                    for j in range(1, t.counts[idx[v]] + 1):
                        walk(v + (j,))
                        order.append(idx[v])

                walk(())
                assert t.parent_index == tuple(-1 if not v else idx[v[:-1]] for v in t.vertices)
                assert t.depth == tuple(len(v) for v in t.vertices)
                assert t.contour_order == tuple(order)

    def test_batch_kernel_matches_the_stack_pass(self):
        # one batch per size, all 2056 trees with at most 9 vertices
        for n in range(1, 10):
            trees = list(enumerate_trees(n))
            end = _subtree_ends(np.array([t.counts for t in trees]))
            depth, parent, contour = _row_contours(end)
            for t, e, d, p, c in zip(trees, end, depth, parent, contour):
                assert e.tolist() == [i + s for i, s in enumerate(t.subtree_sizes)]
                assert tuple(d) == t.depth
                assert tuple(p) == t.parent_index
                assert tuple(c) == t.contour_order


class TestVisitTimes:
    def test_example_times(self):
        t = build_tree(EX_COUNTS)
        assert visit_times(t, (1, 2)) == (4, 8)
        assert visit_times(t, (1, 1)) == (2, 2)

    def test_root_spans_whole_walk(self):
        for n in range(1, 7):
            for t in enumerate_trees(n):
                assert visit_times(t, ()) == (0, t.zeta)

    def test_single_visit_iff_leaf(self):
        for n in range(2, 7):
            for t in enumerate_trees(n):
                leafset = leaves(t)
                for v in t.vertices:
                    k, l = visit_times(t, v)
                    assert (k == l) == (v in leafset or t.size == 1)

    def test_missing_vertex(self):
        t = build_tree(EX_COUNTS)
        with pytest.raises(VertexNotInTree):
            visit_times(t, (3,))


class TestLeavesAndSubtrees:
    def test_example_leaves(self):
        t = build_tree(EX_COUNTS)
        assert leaves(t) == {(1, 1), (1, 2, 1), (1, 2, 2), (1, 3), (2,)}

    def test_singleton_has_no_leaves(self):
        assert leaves(build_tree([0])) == frozenset()

    def test_truncate_example(self):
        t = build_tree(EX_COUNTS)
        assert truncate_at(t, (1,)).counts == (2, 0, 0)
        assert truncate_at(t, (2,)) == t

    def test_subtree_errors(self):
        t = build_tree(EX_COUNTS)
        with pytest.raises(VertexNotInTree):
            truncate_at(t, (9,))
        with pytest.raises(VertexNotInTree):
            truncate_at(t, (1, 4))


class TestEnumeration:
    def test_catalan_counts(self):
        for n in range(1, 10):
            assert sum(1 for _ in enumerate_trees(n)) == catalan(n - 1)

    def test_single_child_counts(self):
        assert sum(1 for _ in enumerate_trees(1, root_single_child=True)) == 0
        for n in range(2, 10):
            got = sum(1 for _ in enumerate_trees(n, root_single_child=True))
            assert got == catalan(n - 2)

    def test_no_duplicates(self):
        for n in range(1, 9):
            ts = [t.counts for t in enumerate_trees(n)]
            assert len(ts) == len(set(ts))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            list(enumerate_trees(0))


class TestSerialization:
    def test_line_round_trip(self):
        for n in range(1, 7):
            for t in enumerate_trees(n):
                assert tree_from_line(tree_to_line(t)) == t

    def test_example_line(self):
        assert tree_to_line(build_tree(EX_COUNTS)) == "2,3,0,2,0,0,0,0"

    def test_bad_line(self):
        with pytest.raises(InvalidPreorder):
            tree_from_line("2,x,0")
        with pytest.raises(InvalidPreorder):
            tree_from_line("1,0,0")


class TestProperties:
    @given(random_trees())
    @settings(max_examples=200, deadline=None)
    def test_contour_round_trip(self, t):
        assert tree_of_contour(contour_of(t)) == t

    @given(random_trees())
    @settings(max_examples=100, deadline=None)
    def test_subtree_sizes_agree(self, t):
        for v in t.vertices:
            below = sum(1 for u in t.vertices if u[: len(v)] == v)
            assert below == t.subtree_sizes[t.index_of[v]]
        assert leaves(t) == {
            v for i, v in enumerate(t.vertices) if t.counts[i] == 0 and v != ()
        }

    @given(random_trees())
    @settings(max_examples=100, deadline=None)
    def test_truncate_then_subtree_partition(self, t):
        for v in t.vertices:
            trunc = truncate_at(t, v)
            assert trunc.size + t.subtree_sizes[t.index_of[v]] - 1 == t.size
