"""Rooted plane trees and their contour walks.

A plane tree is a finite rooted tree in which the children of every vertex
are ordered.  Vertices are named by their index in depth-first preorder,
the root being 0, so a tree is stored as the tuple of child counts read
off in that order, and every array on the tree (parents, depths, labels)
is indexed the same way.

The contour walk records the height of a particle that traverses the tree
left to right at unit speed, visiting each edge twice.  A tree with n
vertices yields 2n - 1 height values, starting and ending at 0 with steps
of +-1, and the encoding is a bijection: the heights are the depths read
along contour_order, and tree_of_contour decodes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np


class InvalidPreorder(ValueError):
    """Child-count sequence is not the preorder encoding of any plane tree."""


class InvalidContour(ValueError):
    """Height sequence is not the contour walk of any plane tree."""


class VertexNotInTree(ValueError):
    """The requested vertex index does not occur in the tree."""


def _check_counts(counts: tuple[int, ...]) -> None:
    if not counts:
        raise InvalidPreorder("empty count sequence, a tree has at least its root")
    running = 0
    last = len(counts) - 1
    for i, c in enumerate(counts):
        if c < 0:
            raise InvalidPreorder(f"negative child count {c} at position {i}")
        running += c - 1
        if running <= -1 and i < last:
            raise InvalidPreorder(
                f"count sequence closes the tree after position {i} "
                f"but {last - i} entries remain"
            )
    if running != -1:
        raise InvalidPreorder(
            f"counts sum to {running + len(counts)} children for {len(counts)} "
            "vertices; a tree needs exactly one less"
        )


def contour_arrays(counts: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """Parent index, depth and contour order of valid preorder counts, in one stack pass.

    The contour order lists the vertex index under the particle at each
    time 0..zeta; the counts are not checked.
    """
    parent = [-1] * len(counts)
    depth = [0] * len(counts)
    order = [0]
    path = [0]  # the current vertex and its ancestors
    owed = [counts[0]]  # children still to visit, per path entry
    for i in range(1, len(counts)):
        while not owed[-1]:
            path.pop()
            owed.pop()
            order.append(path[-1])
        owed[-1] -= 1
        parent[i] = path[-1]
        depth[i] = len(path)
        order.append(i)
        path.append(i)
        owed.append(counts[i])
    order.extend(reversed(path[:-1]))
    return parent, depth, order


# ---------------------------------------------------------------------------
# the same arrays for a batch of count rows at once

_BLOCK_ENTRIES = 1 << 18  # entries per row block of a batch kernel's temporaries


def _block_rows(width: int) -> int:
    """Rows of the given width in one row block: at most _BLOCK_ENTRIES
    entries, and at least one row."""
    return max(1, _BLOCK_ENTRIES // max(1, width))


def _row_blocks(count: int, width: int) -> Iterator[tuple[int, int]]:
    """Consecutive (start, stop) row blocks that cover a batch of count rows.

    A kernel that fills its output one such block at a time keeps its
    temporaries to a few blocks, whatever the batch size.
    """
    step = _block_rows(width)
    for start in range(0, count, step):
        yield start, min(start + step, count)


def _first_returns(walk: np.ndarray) -> np.ndarray:
    """For each time i of a walk stepping down by at most 1, the first later
    time at walk[i] - 1.  Where the walk never gets there the entry is still
    a time in [0, t), so callers may gather with it before they discard it.

    A step down of at most 1 cannot jump over a level, so the walk first
    reaches walk[i] - 1 one step after the first time k >= i at level
    walk[i] whose next step goes down.  With the times grouped by level, in
    time order within a level, that k is the next marked time of i's group,
    so one grouping suffices: a stable argsort of the levels, which numpy
    radix-sorts in O(t) when their span fits 16 bits (a wider span takes
    the same call as a comparison sort), and a running count of the marks.
    Counts are int32, so t stays below 2**31.
    """
    t = walk.size
    lo = walk.min()
    # levels from 0 in the narrowest unsigned type, cast without an int64 copy
    level = np.empty(t, dtype=np.min_scalar_type(walk.max() - lo))
    np.subtract(walk, lo, out=level, casting="unsafe")
    order = np.argsort(level, kind="stable")
    down = np.zeros(t, dtype=bool)  # the next step goes down
    np.less(level[1:], level[:-1], out=down[:-1])
    del level
    down = down[order]
    # one past each marked time, in the grouped order, then a 0 for the
    # entries past the last mark, which never return
    marks = np.count_nonzero(down)
    after = np.zeros(marks + 1, dtype=np.int32)
    np.compress(down, order, out=after[:marks])
    after[:marks] += 1
    # entry p of the grouped order takes the first mark at or after p,
    # whose index in after is the number of marks before p
    before = np.cumsum(down, dtype=np.int32)
    before -= down
    del down
    found = after[before]
    del after, before
    out = np.empty(t, dtype=np.int64)
    out[order] = found
    return out


def _subtree_ends(rows: np.ndarray) -> np.ndarray:
    """One past the last preorder index of each vertex's subtree, for
    valid count rows of shape (b, n+1).

    Read one after another the rows are a forest, whose Lukasiewicz walk
    (partial sums of count - 1) leaves vertex k's subtree when it first
    returns one below its level at k.
    """
    b, n1 = rows.shape
    walk = np.zeros(b * n1 + 1, dtype=np.int64)
    np.cumsum(rows.ravel() - 1, out=walk[1:])
    return _first_returns(walk)[:-1].reshape(b, n1) - n1 * np.arange(b)[:, None]


def _path_sums(end: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum of w over each vertex and its ancestors, given the subtree ends.

    w[k] is added at k and taken back at end[k], so a running sum holds at
    each vertex exactly the weights of the subtrees that contain it: w = 1
    gives depth + 1, the root label and the edge increments give labels.
    """
    b, n1 = end.shape
    acc = np.zeros((b, n1 + 1), dtype=w.dtype)
    acc[:, :n1] = w
    # one flat index per entry (ufunc.at is much slower on index tuples), as
    # int32, which ufunc.at takes without a copy; b (n1 + 1) stays below 2**31
    flat = np.empty((b, n1), dtype=np.int32)
    np.add(end, (n1 + 1) * np.arange(b)[:, None], out=flat, casting="unsafe")
    np.subtract.at(acc.reshape(-1), flat.ravel(), w.ravel())
    del flat  # before the sums, which are taken in place
    np.cumsum(acc, axis=1, out=acc)
    return acc[:, :n1]


def _row_contours(end: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Depth, parent index and contour order of a batch, from its subtree ends.

    The batch form of contour_arrays: the particle first reaches vertex k
    at time 2k - depth[k] and is back at its parent at 2 end[k] - depth[k] - 1.
    """
    b, n1 = end.shape
    rows = np.arange(b)[:, None]
    depth = _path_sums(end, np.ones((b, n1), dtype=np.int64)) - 1
    # the parent is the last vertex before k one level up: the first return
    # of the depths read backwards, which step down by at most 1
    back = _first_returns(depth.ravel()[::-1])[::-1].reshape(b, n1)
    parent = b * n1 - 1 - back - n1 * rows
    parent[:, 0] = -1
    k = np.arange(n1)
    contour = np.empty((b, 2 * n1 - 1), dtype=np.int64)
    contour[rows, 2 * k - depth] = k
    contour[rows, 2 * end[:, 1:] - depth[:, 1:] - 1] = parent[:, 1:]
    return depth, parent, contour


def _reroot_walk(walk: np.ndarray, star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of cyclic walks (last entry equal to the first) re-read from
    column star[i] of row i: the new rows and the columns u they read.

    Entry j of a new row is w[star] + w[u] - 2 min w over the plain
    (non-cyclic) interval between star and u, with u = (star + j) mod
    (width - 1): on a contour or a lifetime, the tree distance between the
    points at times star and u, which is the walk of the tree re-rooted at
    star.  Rotated to start at star, that interval is a prefix of the row
    while star + j < width - 1, and a suffix after.
    """
    width = walk.shape[1]
    j = np.arange(width)
    u = star[:, None] + j
    u %= width - 1
    w = np.take_along_axis(walk, u, axis=1)
    low = np.minimum.accumulate(w, axis=1)
    suffix = np.minimum.accumulate(w[:, ::-1], axis=1)[:, ::-1]
    tail = j >= width - 1 - star[:, None]
    low[tail] = suffix[tail]
    del suffix, tail
    return w[:, :1] + w - 2 * low, u


@dataclass(frozen=True)
class PlaneTree:
    """A plane tree, canonically stored as preorder child counts."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_counts(self.counts)

    @property
    def size(self) -> int:
        return len(self.counts)

    @property
    def n_edges(self) -> int:
        return len(self.counts) - 1

    @property
    def zeta(self) -> int:
        """Contour walk duration, twice the edge count."""
        return 2 * (len(self.counts) - 1)

    @cached_property
    def _arrays(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        return tuple(tuple(a) for a in contour_arrays(self.counts))

    @property
    def parent_index(self) -> tuple[int, ...]:
        return self._arrays[0]

    @property
    def depth(self) -> tuple[int, ...]:
        return self._arrays[1]

    @property
    def contour_order(self) -> tuple[int, ...]:
        """Index of the vertex under the particle at each contour time 0..zeta."""
        return self._arrays[2]

    @cached_property
    def _visits(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        first = [-1] * self.size
        last = [-1] * self.size
        for t, i in enumerate(self.contour_order):
            if first[i] < 0:
                first[i] = t
            last[i] = t
        return tuple(first), tuple(last)

    @cached_property
    def corners(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's corners: the contour times 0..zeta-1 at which the
        particle sits at it, in order (the root's closing time zeta is not
        a corner)."""
        out: list[list[int]] = [[] for _ in range(self.size)]
        order = self.contour_order
        for t in range(self.zeta):
            out[order[t]].append(t)
        return tuple(map(tuple, out))

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:
        return f"PlaneTree({','.join(map(str, self.counts))})"


def build_tree(counts: Sequence[int]) -> PlaneTree:
    """Make a tree from preorder child counts, checking they close properly."""
    return PlaneTree(tuple(int(c) for c in counts))


def tree_of_contour(values: Sequence[int]) -> PlaneTree:
    """Decode a contour walk back into the tree that produced it."""
    if len(values) % 2 != 1:
        raise InvalidContour(f"contour length {len(values)} is even")
    if values[0] != 0 or values[-1] != 0:
        raise InvalidContour("contour must start and end at height 0")
    counts = [0]
    stack = [0]
    for i in range(1, len(values)):
        step = values[i] - values[i - 1]
        if step == 1:
            counts[stack[-1]] += 1
            counts.append(0)
            stack.append(len(counts) - 1)
        elif step == -1:
            if len(stack) == 1:
                raise InvalidContour(f"contour dips below 0 at time {i}")
            stack.pop()
        else:
            raise InvalidContour(f"step {step} at time {i}, only +-1 allowed")
    if len(stack) != 1:
        raise InvalidContour("contour walk does not return to the root")
    return PlaneTree(tuple(counts))


def visit_times(t: PlaneTree, k: int) -> tuple[int, int]:
    """First and last time the contour particle sits at vertex k."""
    if not 0 <= k < t.size:
        raise VertexNotInTree(f"vertex {k} not in {t!r}")
    first, last = t._visits
    return first[k], last[k]


def leaves(t: PlaneTree) -> frozenset[int]:
    """Childless non-root vertices (for a singleton tree, nothing)."""
    return frozenset(k for k in range(1, t.size) if t.counts[k] == 0)


def _forests(n: int) -> Iterator[tuple[int, ...]]:
    """Concatenated count sequences of ordered forests with n vertices total."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for head in _tree_counts(first):
            for rest in _forests(n - first):
                yield head + rest


def _tree_counts(n: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        yield (0,)
        return
    for forest in _forests(n - 1):
        k = 0
        running = 0
        # number of trees in the forest = number of times the running
        # child-count balance returns to zero
        for c in forest:
            running += c - 1
            if running == -k - 1:
                k += 1
        yield (k,) + forest


def enumerate_trees(n_vertices: int, root_single_child: bool = False) -> Iterator[PlaneTree]:
    """All plane trees with the given number of vertices, one by one.

    With root_single_child=True only trees whose root has exactly one child
    are produced (none exist for a single vertex).
    """
    if n_vertices < 1:
        raise ValueError(f"need at least one vertex, got {n_vertices}")
    if root_single_child:
        if n_vertices >= 2:
            for sub in _tree_counts(n_vertices - 1):
                yield PlaneTree((1,) + sub)
        return
    for counts in _tree_counts(n_vertices):
        yield PlaneTree(counts)


def tree_to_line(t: PlaneTree) -> str:
    """One-line serialization: comma-separated preorder child counts."""
    return ",".join(map(str, t.counts))


def tree_from_line(line: str) -> PlaneTree:
    try:
        counts = [int(part) for part in line.strip().split(",")]
    except ValueError as exc:
        raise InvalidPreorder(f"unparseable tree line {line!r}") from exc
    return build_tree(counts)
