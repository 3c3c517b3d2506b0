import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesnake.gw_sampler import OffspringDistribution, _sized_count_rows
from treesnake.plane_tree import (
    ContourFunction,
    InvalidContour,
    InvalidPreorder,
    PlaneTree,
    VertexNotInTree,
    _first_returns,
    _path_sums,
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


def stack_first_returns(walk: list[int]) -> dict[int, int]:
    """First later time at walk[i] - 1, for the times i where there is one.

    The pending times on the stack have nondecreasing levels, so a time at
    level v answers exactly the pending times on top at level v + 1.
    """
    found: dict[int, int] = {}
    pending: list[int] = []
    for j, v in enumerate(walk):
        while pending and walk[pending[-1]] - 1 >= v:
            found[pending.pop()] = j
        pending.append(j)
    return found


class TestFirstReturns:
    """The linear first-return kernel against a stack pass, where the walk returns."""

    @staticmethod
    def check(walk: np.ndarray) -> None:
        got = _first_returns(walk)
        found = stack_first_returns(walk.tolist())
        assert got.shape == walk.shape
        assert {i: int(got[i]) for i in found} == found
        # entries that never return still index the walk
        assert ((0 <= got) & (got < walk.size)).all()

    @given(st.integers(-50, 50), st.lists(st.integers(-1, 1), max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_lazy_random_walks(self, start, steps):
        self.check(np.cumsum([start, *steps]))

    @given(st.lists(random_trees(max_size=30), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_lukasiewicz_forest_walks(self, forest):
        # the walk _subtree_ends reads: partial sums of count - 1 over the rows in turn
        counts = [c for t in forest for c in t.counts]
        self.check(np.cumsum([0, *(c - 1 for c in counts)]))

    @given(st.lists(random_trees(max_size=30), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_reversed_depth_rows(self, forest):
        # the walk _row_contours reads parents from
        self.check(np.array([d for t in forest for d in t.depth][::-1]))

    def test_one_entry(self):
        assert _first_returns(np.array([7])).tolist() == [0]

    def test_a_span_past_sixteen_bits(self):
        # levels wider than 16 bits go through the same stable sort on uint32
        rng = np.random.default_rng(5)
        steps = np.where(rng.random(200_000) < 0.02, rng.integers(1, 5000, 200_000), -1)
        walk = np.cumsum(np.concatenate([[0], steps]))
        assert walk.max() - walk.min() > 65_535
        self.check(walk)

    def test_memory_on_a_range_batch(self):
        # one block of the range pipeline: 999 sized geometric rows at
        # n = 2000; the kernel that sorted (level, time) keys and searched
        # them peaked at 32.0 bytes an entry here, the grouping by level at
        # 20.0 (numpy 2.4)
        geometric = OffspringDistribution.geometric_half()
        rows = _sized_count_rows(geometric, 2000, np.random.default_rng(1), 999)
        walk = np.cumsum(np.concatenate([[0], rows.ravel() - 1]))
        _first_returns(walk)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            _first_returns(walk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 33 * walk.size


class TestPathSums:
    def test_memory_on_a_range_label_block(self):
        # one label block of the range pipeline: 131 sized geometric rows at
        # n = 2000 (2**18 entries); with an int64 flat index beside the
        # accumulator and the sums in a new array the call peaked at 16.3
        # bytes an entry, with an int32 index and the sums in place at 12.5
        # (numpy 2.4)
        geometric = OffspringDistribution.geometric_half()
        rows = _sized_count_rows(geometric, 2000, np.random.default_rng(1), 131)
        end = _subtree_ends(rows)
        w = np.random.default_rng(2).integers(-1, 2, rows.shape)
        _path_sums(end, w)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            _path_sums(end, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * rows.size


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
