"""Plane trees carrying a real label on every vertex.

Labels play the role of spatial positions: a labelled tree is a pair (T, U)
with U defined on the vertices of T.  The label walk V is the label read
along the contour of T, the discrete analogue of the head of a path-valued
process.  The central operation here is re-rooting: given a distinguished
vertex v0, the tree is re-read from v0's first visit, producing a new tree
whose root is v0, whose labels are shifted so the new root sits at 0, and
which drops the strict descendants of v0.  Everything is computed from the
two contour sequences in linear time.

Labels may be ints, Fractions or floats; the transforms only add and
subtract, so exact types stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, NamedTuple, Union

from treesnake.plane_tree import (
    ROOT,
    PlaneTree,
    Vertex,
    VertexNotInTree,
    tree_of_contour,
    visit_times,
)

Label = Union[int, float, Fraction]


class SingletonTree(ValueError):
    """Operation needs at least one non-root vertex."""


class EmptyVertex(ValueError):
    """The root has no companion address."""


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

    @classmethod
    def from_mapping(cls, tree: PlaneTree, labels: Mapping[Vertex, Label]) -> "SpatialTree":
        try:
            seq = tuple(labels[v] for v in tree.vertices)
        except KeyError as exc:
            raise ValueError(f"no label for vertex {exc.args[0]}") from exc
        return cls(tree, seq)

    @property
    def root_label(self) -> Label:
        return self.labels[0]

    @cached_property
    def by_vertex(self) -> dict[Vertex, Label]:
        return dict(zip(self.tree.vertices, self.labels))

    def label_of(self, v: Vertex) -> Label:
        i = self.tree.index_of.get(tuple(v))
        if i is None:
            raise VertexNotInTree(f"vertex {v} not in {self.tree!r}")
        return self.labels[i]

    @property
    def size(self) -> int:
        return self.tree.size


@dataclass(frozen=True)
class SpatialContour:
    """Labels under the contour particle at integer times 0..zeta."""

    values: tuple[Label, ...]

    def __len__(self) -> int:
        return len(self.values)


class MinLabel(NamedTuple):
    value: Label
    argmin: tuple[Vertex, ...]
    first: Vertex


def spatial_contour(s: SpatialTree) -> SpatialContour:
    labels = s.labels
    return SpatialContour(tuple(labels[i] for i in s.tree.contour_order))


def min_label(s: SpatialTree, include_root: bool = True) -> MinLabel:
    """Minimum label, the set of vertices attaining it, and the first of them.

    With include_root=False the minimum runs over the non-root vertices only,
    which is undefined on a singleton tree.
    """
    start = 0 if include_root else 1
    if start >= s.size:
        raise SingletonTree("no non-root vertices to minimize over")
    best = min(s.labels[start:])
    arg = tuple(
        s.tree.vertices[i]
        for i in range(start, s.size)
        if s.labels[i] == best
    )
    return MinLabel(best, arg, arg[0])


def companion_vertex(v0: Vertex) -> Vertex:
    """Address of the old root after re-rooting at v0 = (j1, ..., jp)."""
    v0 = tuple(v0)
    if not v0:
        raise EmptyVertex("the root does not move, it has no companion")
    return (1,) + tuple(reversed(v0[1:]))


def reroot_at(s: SpatialTree, v0: Vertex) -> SpatialTree:
    """Re-read (T, U) from the first visit of v0.

    The result has v0 as its root with label 0, keeps every vertex of T that
    is not a strict descendant of v0 (labels shifted by -U(v0)), and reverses
    the ancestral line of v0.  Runs in time linear in the contour length.
    """
    v0 = tuple(v0)
    if v0 == ROOT:
        raise RootNotAllowed("already the root")
    t = s.tree
    if v0 not in t.index_of:
        raise VertexNotInTree(f"vertex {v0} not in {t!r}")
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
