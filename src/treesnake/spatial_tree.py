"""Plane trees carrying a real label on every vertex.

Labels play the role of spatial positions: a labelled tree is a pair (T, U)
with U defined on the vertices of T.  The label walk V is the label read
along the contour of T, the discrete analogue of the head of a path-valued
process.  The central operation here is re-rooting: given a non-root
vertex v0, named like every vertex by its preorder index, the tree is
re-read from v0's first visit, producing a new tree whose root is v0, whose
labels are shifted so the new root sits at 0, and which drops the strict
descendants of v0.  Everything is computed from the two contour sequences
in linear time.

Labels may be ints, Fractions or floats; the transforms only add and
subtract, so exact types stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from treesnake.plane_tree import PlaneTree, tree_of_contour, visit_times

Label = Union[int, float, Fraction]


class RootNotAllowed(ValueError):
    """Re-rooting at the current root is a no-op and is rejected."""


@dataclass(frozen=True)
class SpatialTree:
    """A plane tree together with one label per vertex, in preorder."""

    tree: PlaneTree
    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != self.tree.size:
            raise ValueError(
                f"{len(self.labels)} labels for {self.tree.size} vertices"
            )

    @property
    def root_label(self) -> Label:
        return self.labels[0]

    @property
    def size(self) -> int:
        return self.tree.size


def reroot_at(s: SpatialTree, v0: int) -> SpatialTree:
    """Re-read (T, U) from the first visit of the vertex with preorder index v0.

    The result has v0 as its root with label 0, keeps every vertex of T that
    is not a strict descendant of v0 (labels shifted by -U(v0)), and reverses
    the ancestral line of v0.  Runs in time linear in the contour length.
    """
    if v0 == 0:
        raise RootNotAllowed("already the root")
    t = s.tree
    k, l = visit_times(t, v0)
    zeta = t.zeta
    depth = t.depth
    contour = [depth[i] for i in t.contour_order]
    values = [s.labels[i] for i in t.contour_order]
    zhat = zeta - (l - k)

    new_c: list[int] = []
    new_v: list[Label] = []
    # first leg: contour times u = k, k-1, ..., 0; the walked interval is
    # [u, k] and its running minimum extends one step at a time
    running = contour[k]
    for u in range(k, -1, -1):
        if contour[u] < running:
            running = contour[u]
        new_c.append(contour[k] + contour[u] - 2 * running)
        new_v.append(values[u] - values[k])
    # second leg: u = zeta-1 down to l, interval [k, u], minima precomputed
    if zhat > k:
        minfrom = [0] * (zeta + 1)
        running = contour[k]
        for j in range(k, zeta + 1):
            if contour[j] < running:
                running = contour[j]
            minfrom[j] = running
        for u in range(zeta - 1, l - 1, -1):
            new_c.append(contour[k] + contour[u] - 2 * minfrom[u])
            new_v.append(values[u] - values[k])
    # new_c was built in time order already: index t' runs 0..zhat
    assert len(new_c) == zhat + 1
    that = tree_of_contour(new_c)
    first, _ = that._visits
    labels = tuple(new_v[first[i]] for i in range(that.size))
    # every visit of a vertex must read the same label
    if __debug__:
        for time, i in enumerate(that.contour_order):
            assert new_v[time] == labels[i]
    return SpatialTree(that, labels)
