"""Rooted planar quadrangulations and their well-labelled tree encoding.

A rooted map is stored combinatorially: darts 0..4n-1, a rotation sigma
giving the next dart around its vertex, a fixed-point-free involution
alpha pairing the two darts of each edge, and a distinguished root dart.
Faces are the orbits of sigma composed with alpha; a quadrangulation with
n faces has every face of degree four, 2n edges and, by Euler's count,
n + 2 vertices.

The forward construction turns a well-labelled tree (n edges, root label
1, every label at least 1, labels changing by at most 1 along edges) into
a quadrangulation: each of the 2n tree corners, read along the contour,
shoots an arc to the next corner with label one lower, label-1 corners
aiming at one extra vertex.  Those arcs are the edges of the map; the tree
edges are scaffolding only.  The local arc order follows from drawing the
arcs without crossings in the region around the tree: arc ends at a corner
sort by how far away their other endpoint sits along the contour cycle.
The inverse walks the faces of the map: each face contributes exactly one
tree edge, read off its label pattern around the face, and the tree is
reassembled by one walk around each vertex's rotation.  The handedness
(children kept in order, each vertex's edge ends read in rotation order
from its edge up, a simple face's tree edge leaving the corner after its
lowest one) is pinned by the round-trip and distance battery in the
tests; flipping any part of it breaks face degrees or the round trip on
small cases.

Distances in the map from the extra vertex coincide with the tree labels,
which is what makes the encoding useful for metric questions.

The object route (maps, validation, distances, both directions of the
encoding) is plain Python, with no array round trips; numpy serves only
the batch samplers below and the arrays of DistanceProfile.rescaled.

A uniform rooted quadrangulation with n faces is cvs_build of a uniform
well-labelled tree with n edges, which is Qbar_{n+1} (geometric law,
uniform steps) less its root edge, the Pbar_{n,1} draws of
gw_sampler.sample_measure: sample_uniform_quads builds its maps from
their count and label arrays, one row of n + 1 entries a tree.  Radii
and root distances of sampled maps need no map, so
sample_radius_and_distance reads both off the labels of the Qbar_{n+1}
draws of gw_sampler._rerooted_rows.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from treesnake.gw_sampler import (
    OffspringDistribution,
    StepDistribution,
    _rerooted_rows,
    sample_measure,
)
from treesnake.plane_tree import PlaneTree, cached, enumerate_trees
from treesnake.spatial_tree import SpatialTree


class NotWellLabelled(ValueError):
    """Input tree is not well-labelled (root 1, labels >= 1, steps within 1)."""


class NotAQuadrangulation(ValueError):
    """Dart structure is not a rooted planar quadrangulation."""


@dataclass(frozen=True)
class PlanarQuadrangulation:
    """Rooted quadrangulation with n faces as a dart rotation system."""

    n: int
    sigma: tuple[int, ...]
    alpha: tuple[int, ...]
    root_dart: int

    def __post_init__(self) -> None:
        m = 4 * self.n
        if self.n < 1:
            raise NotAQuadrangulation("need at least one face")
        if len(self.sigma) != m or len(self.alpha) != m:
            raise NotAQuadrangulation(f"expected {m} darts")
        if not (0 <= self.root_dart < m):
            raise NotAQuadrangulation("root dart out of range")

    @cached
    def _rotations(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """One pass over the sigma orbits: each dart's vertex id (ids in
        discovery order) and each vertex's degree.

        The pass is also the check that sigma is a permutation: with every
        entry a dart, each orbit walk must close on its start before it
        meets a dart already walked, for such a dart has two preimages.
        """
        m = 4 * self.n
        sigma = self.sigma
        # a negative entry would index from the end instead of failing
        if min(sigma) < 0 or max(sigma) >= m:
            raise NotAQuadrangulation("sigma is not a permutation")
        origin = [-1] * m
        degree: list[int] = []
        for d in range(m):
            if origin[d] >= 0:
                continue
            v = len(degree)
            origin[d] = v
            e = sigma[d]
            i = 1
            while e != d:
                if origin[e] >= 0:
                    raise NotAQuadrangulation("sigma is not a permutation")
                origin[e] = v
                i += 1
                e = sigma[e]
            degree.append(i)
        return tuple(origin), tuple(degree)

    @property
    def vertex_of(self) -> tuple[int, ...]:
        """Id of each dart's origin vertex, ids in discovery order of sigma
        orbits; raises NotAQuadrangulation if sigma is not a permutation."""
        return self._rotations[0]

    @property
    def n_vertices(self) -> int:
        return len(self._rotations[1])

    @cached
    def root_distances(self) -> tuple[int, ...]:
        """Graph distance from the root vertex to each vertex, by vertex id."""
        return _bfs_distances(self, self.vertex_of[self.root_dart])

    @cached
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the face permutation (alpha then sigma)."""
        sigma, alpha = self.sigma, self.alpha
        seen = [False] * (4 * self.n)
        out = []
        for d in range(4 * self.n):
            if seen[d]:
                continue
            cyc = []
            e = d
            while not seen[e]:
                seen[e] = True
                cyc.append(e)
                e = sigma[alpha[e]]
            out.append(tuple(cyc))
        return tuple(out)

    def validate(self) -> None:
        """Full structural check; raises NotAQuadrangulation on any failure."""
        self._rotations  # raises unless sigma is a permutation
        # every cvs_build map shares the pairing of alpha_of, built to pass
        if self.alpha is not alpha_of(4 * self.n) and not _pairs_darts(self.alpha):
            raise NotAQuadrangulation("alpha is not a fixed-point-free involution")
        # the darts of a vertex share a sigma orbit, so the dart graph is
        # connected exactly when the root BFS over alpha reaches every
        # vertex; it raises otherwise, and distances and cvs_inverse reuse it
        self.root_distances
        for f in self.faces:
            if len(f) != 4:
                raise NotAQuadrangulation(f"face of degree {len(f)}, want 4")
        v = self.n_vertices
        if v - 2 * self.n + len(self.faces) != 2:
            raise NotAQuadrangulation("Euler count fails, the map is not planar")


def enumerate_well_labelled(n: int) -> Iterator[SpatialTree]:
    """Every well-labelled tree with n edges, in plane-tree enumeration order.

    The labels of a shape are extended depth-first in preorder, increments
    -1, 0, 1 in turn, and a branch is cut as soon as a label falls below 1:
    the order of the filtered increment tuples of itertools.product.
    """
    if n < 1:
        raise ValueError("need at least one edge")
    for tree in enumerate_trees(n + 1):
        parent = tree.parent_index
        labels = [1] * (n + 1)
        stack = [(0, 1)]  # (vertex, label), the next to try on top
        while stack:
            i, l = stack.pop()
            labels[i] = l
            if i == n:
                yield SpatialTree(tree, tuple(labels))
                continue
            base = labels[parent[i + 1]]
            stack.append((i + 1, base + 1))
            stack.append((i + 1, base))
            if base > 1:
                stack.append((i + 1, base - 1))


def cvs_build(wt: SpatialTree) -> PlanarQuadrangulation:
    """Quadrangulation encoded by a well-labelled tree: n edges give n faces,
    so the map's size is read off the tree.

    NotWellLabelled is raised for a tree without edges, a root off label 1,
    a label that is not a positive integer, or a jump of more than 1 along
    an edge.  The root dart is the extra-vertex end of the root corner's arc, so the
    root vertex of the map is the extra vertex.
    """
    labels = wt.labels
    if wt.tree.n_edges < 1:
        raise NotWellLabelled("need at least one edge")
    parent = wt.tree.parent_index
    for i in range(wt.tree.size):
        l = labels[i]
        if not isinstance(l, (int, np.integer)) or l < 1:
            raise NotWellLabelled(f"label {l!r} at vertex {i}")
        if i and abs(l - labels[parent[i]]) > 1:
            raise NotWellLabelled(
                f"labels jump by {abs(l - labels[parent[i]])} along an edge"
            )
    if labels[0] != 1:
        raise NotWellLabelled(f"root label {labels[0]}, want 1")
    return _successor_arcs(wt)


def _successor_arcs(wt: SpatialTree) -> PlanarQuadrangulation:
    """The successor-arc map of a checked well-labelled tree.

    Arc j belongs to corner j and carries darts 2j (at the corner) and
    2j+1 (at the successor corner, or at the extra vertex for label-1
    corners).  Root dart 1 is the far end of the root corner's arc.
    """
    n = wt.tree.n_edges
    two_n = 2 * n
    order = wt.tree.contour_order  # vertex index per corner, then the root again
    labels = wt.labels

    # each arc leaves its corner hugging the contour's forward direction and
    # lands at the opening of its successor corner (the next corner, going
    # round, one label lower), freshly started arcs sliding in closest to
    # the tree, so a corner meets its landed arcs latest-started first.  A
    # backward sweep lists them so; labels step by at most 1 and the root
    # closes the contour at label 1, so only label-2 corners wrap, to corner
    # 0.  The extra vertex takes its spokes in reverse corner order: later
    # spokes had less far to travel and arrive nearest the tree.
    landed: list[list[int]] = [[] for _ in range(two_n)]
    spokes: list[int] = []
    latest = [0] * (n + 2)  # per label, the latest corner seen in the sweep
    for t in range(two_n - 1, -1, -1):
        l = labels[order[t]]
        if l == 1:
            spokes.append(2 * t + 1)
        else:
            landed[latest[l - 1]].append(2 * t + 1)
        latest[l] = t

    # rotations are written in sweep order, the orientation for which the
    # composite of the edge pairing followed by the rotation traces faces:
    # each dart points to the next, the last of a cycle back to its first
    m = 4 * n
    sigma = [0] * m
    for corners in wt.tree.corners:
        prev = 2 * corners[-1]
        for t in corners:
            for d in landed[t]:
                sigma[prev] = prev = d
            sigma[prev] = prev = 2 * t
    prev = spokes[-1]
    for d in spokes:
        sigma[prev] = prev = d

    return PlanarQuadrangulation(n, tuple(sigma), alpha_of(m), 1)


@lru_cache(maxsize=8)
def alpha_of(m: int) -> tuple[int, ...]:
    """The pairing 2i <-> 2i+1 of the successor-arc map's dart numbering,
    built once per dart count."""
    return tuple(d ^ 1 for d in range(m))


def _pairs_darts(alpha: tuple[int, ...]) -> bool:
    """Whether alpha is a fixed-point-free involution of its darts: a
    permutation that squares to the identity and moves every dart."""
    darts = list(range(len(alpha)))
    return (sorted(alpha) == darts and [alpha[a] for a in alpha] == darts
            and not any(map(operator.eq, alpha, darts)))


def _bfs_distances(q: PlanarQuadrangulation, start_vertex: int) -> tuple[int, ...]:
    """Graph distance from start_vertex to each vertex, by vertex id: each
    vertex's neighbours are read off a walk of its degree around its
    rotation, whose orbit walk has checked sigma."""
    origin, degree = q._rotations
    sigma, alpha = q.sigma, q.alpha
    dist = [-1] * len(degree)
    dist[start_vertex] = 0
    queue = [origin.index(start_vertex)]
    for d in queue:
        near = dist[origin[d]] + 1
        for _ in range(degree[origin[d]]):
            e = alpha[d]
            if dist[origin[e]] < 0:
                dist[origin[e]] = near
                queue.append(e)
            d = sigma[d]
    if -1 in dist:
        raise NotAQuadrangulation("map is not connected")
    return tuple(dist)


@dataclass(frozen=True)
class DistanceProfile:
    """Distances from the root vertex: radius and counts per distance."""

    n: int
    radius: int
    counts: dict[int, int]

    def rescaled(self) -> tuple[np.ndarray, np.ndarray]:
        """Support scaled by n^(-1/4), masses over the n+1 non-root vertices."""
        ks = np.array(sorted(k for k in self.counts if k > 0), dtype=np.float64)
        mass = np.array([self.counts[int(k)] for k in ks], dtype=np.float64)
        return ks / self.n**0.25, mass / (self.n + 1)


def distances(q: PlanarQuadrangulation) -> DistanceProfile:
    dist = q.root_distances
    counts = [0] * (max(dist) + 1)
    for d in dist:
        counts[d] += 1
    # no breadth-first layer below the radius is empty
    return DistanceProfile(q.n, len(counts) - 1, dict(enumerate(counts)))


def canonical_code(q: PlanarQuadrangulation) -> bytes:
    """Root-preserving isomorphism invariant: rotation-respecting traversal.

    Vertices are numbered in discovery order starting from the root dart;
    each visited vertex emits the numbers of its neighbours in rotation
    order starting from its entry dart.  Two maps get the same code exactly
    when a root-dart-preserving isomorphism matches them.
    """
    origin = q.vertex_of
    num = {origin[q.root_dart]: 0}
    queue = deque([q.root_dart])
    chunks: list[str] = []
    while queue:
        d0 = queue.popleft()
        row = []
        d = d0
        while True:
            w = origin[q.alpha[d]]
            if w not in num:
                num[w] = len(num)
                queue.append(q.alpha[d])
            row.append(num[w])
            d = q.sigma[d]
            if d == d0:
                break
        chunks.append(",".join(map(str, row)))
    return (f"q{q.n}:" + ";".join(chunks)).encode()


# ---------------------------------------------------------------------------
# inverse construction


def cvs_inverse(q: PlanarQuadrangulation) -> SpatialTree:
    """Well-labelled tree encoding a quadrangulation, inverse of cvs_build.

    Labels are graph distances from the root vertex.  Every face donates
    one tree edge read from its label pattern: a face seen from its lowest
    corner reads (l, l+1, l+2, l+1) (the edge joins the l+2 corner to one
    of its l+1 neighbours) or (l, l+1, l, l+1) (the edge is the diagonal
    between the two l+1 corners).  Each edge end sits in a slot of its
    vertex's rotation, 2d for dart d or 2d+1 for the corner after dart d;
    the embedded tree is reassembled by one walk around each vertex's
    rotation, from the slot of its edge up (for the root, the root edge).
    """
    q.validate()
    origin = q.vertex_of
    sigma, alpha = q.sigma, q.alpha
    dist = q.root_distances
    lab = [dist[v] for v in origin]  # each dart's origin label

    # one tree edge per face, edge e with ends 2e and 2e + 1 at the slots
    # ends[2e] and ends[2e + 1]
    ends: list[int] = []
    for face in q.faces:
        w, x, y, z = face  # validated: four darts each
        labs = [lab[w], lab[x], lab[y], lab[z]]
        l = min(labs)
        i = labs.index(l)
        # the three corners after the lowest one, by negative index
        a, b, c = face[i - 3], face[i - 2], face[i - 1]
        if lab[a] != l + 1 or lab[c] != l + 1 or lab[b] not in (l, l + 2):
            raise NotAQuadrangulation(
                f"face label pattern {labs[i:] + labs[:i]} is impossible"
            )
        if lab[b] == l + 2:
            # the edge along dart a, from the first l+1 corner up to l+2
            ends += (2 * a, 2 * alpha[a])
        else:
            # the two l+1 corners, each after the dart arriving there
            ends += (2 * alpha[face[i]] + 1, 2 * alpha[b] + 1)
    root = origin[q.root_dart]
    if len(ends) != 2 * q.n or any(origin[s >> 1] == root for s in ends):
        raise NotAQuadrangulation("face edges do not avoid the root vertex")
    end_at = [-1] * (8 * q.n)  # each slot's end
    for j, s in enumerate(ends):
        end_at[s] = j

    up = alpha[q.root_dart]
    if lab[up] != 1:
        raise NotWellLabelled(f"root label {lab[up]}, want 1")

    # rebuild the embedded tree from the root, children in rotation order
    # after the edge up: slots after slot s run 2d+1 when s = 2d, then
    # 2e, 2e+1 for e = sigma(d), sigma^2(d), ... back round to d, then 2d
    # when s = 2d+1.  Labels are distances, so only their steps along tree
    # edges need a check
    counts: list[int] = []
    labels: list[int] = []
    stack = [2 * up]  # the slot of each vertex's edge up
    while stack:
        s = stack.pop()
        d = s >> 1
        here = lab[d]
        kids = []
        if not s & 1 and (j := end_at[s + 1]) >= 0:
            kids.append(j)
        e = sigma[d]
        while e != d:
            if (j := end_at[2 * e]) >= 0:
                kids.append(j)
            if (j := end_at[2 * e + 1]) >= 0:
                kids.append(j)
            e = sigma[e]
        if s & 1 and (j := end_at[s - 1]) >= 0:
            kids.append(j)
        counts.append(len(kids))
        labels.append(here)
        for j in reversed(kids):
            t = ends[j ^ 1]
            if abs(lab[t >> 1] - here) > 1:
                raise NotWellLabelled(f"labels jump by {abs(lab[t >> 1] - here)} along an edge")
            stack.append(t)
        if len(counts) > q.n + 1:
            raise NotAQuadrangulation("face edges do not form a tree")
    if len(counts) != q.n + 1:
        raise NotAQuadrangulation("face edges do not span the map")
    return SpatialTree(PlaneTree(tuple(counts)), tuple(labels))


# ---------------------------------------------------------------------------
# sampling

_GEO = OffspringDistribution.geometric_half()
_U3 = StepDistribution.uniform3()


def sample_uniform_quads(
    n: int, count: int, rng: np.random.Generator
) -> Iterator[PlanarQuadrangulation]:
    """Independent uniform rooted quadrangulations with n faces.

    Each map is cvs_build of a uniform well-labelled tree with n edges, a
    Pbar_{n,1} draw of sample_measure under the geometric law and uniform
    steps in {-1, 0, 1}, which takes it from exact Qbar_{n+1} draws; its
    flat arrays are read back as count rows of n + 1 entries.  The trees
    are drawn, and n checked, when the function is called; the maps are
    built one at a time as the returned iterator is read.
    """
    if n < 1:
        raise ValueError(f"need at least one face, not n={n}")
    counts, _, labels = sample_measure("Pbar-n-x", _GEO, _U3, n, 1, count, rng)
    rows = zip(counts.reshape(count, n + 1).tolist(), labels.reshape(count, n + 1).tolist())
    return (cvs_build(SpatialTree(PlaneTree(tuple(c)), tuple(l))) for c, l in rows)


def sample_radius_and_distance(
    n: int,
    samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Radii and root-to-uniform-vertex distances of uniform quadrangulations.

    Returns (radii, distances, attempts): per map, its radius and the
    distance from the root vertex to a uniform other vertex, and the
    attempts of _rerooted_rows.  No map is built: the map is cvs_build of a
    uniform well-labelled tree with n edges, which is Qbar_{n+1} (uniform
    steps) without its root edge, so the distances are the labels of the
    un-re-rooted Qbar_{n+1} draws less their minimum.
    """
    if n < 1:
        raise ValueError(f"need at least one face, not n={n}")
    _, labels, argmin, attempts = _rerooted_rows(_U3, n + 1, samples, rng)
    every = np.arange(samples)
    low = labels[every, argmin]
    picks = rng.integers(0, n + 1, size=samples)
    picks += picks >= argmin
    return labels.max(axis=1) - low, labels[every, picks] - low, attempts
