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
tree edge, read off its label pattern around the face.  The handedness
(children kept in order, inverse fans read by ascending angular offset, a
simple face's tree edge leaving the corner after its lowest one) is pinned
by the round-trip and distance battery in the tests; flipping any part of
it breaks face degrees or the round trip on small cases.

Distances in the map from the extra vertex coincide with the tree labels,
which is what makes the encoding useful for metric questions.

A uniform rooted quadrangulation with n faces is cvs_build of a uniform
well-labelled tree with n edges, which is Qbar_{n+1} (geometric law,
uniform steps) less its root edge, the Pbar_{n,1} draws of
gw_sampler.sample_measure: sample_uniform_quads builds its maps from
those.  Radii and root distances of sampled maps need no map, so
sample_radius_and_distance reads both off the labels of the Qbar_{n+1}
draws of gw_sampler._rerooted_rows.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Optional

import numpy as np

from treesnake.gw_sampler import (
    OffspringDistribution,
    StepDistribution,
    _rerooted_rows,
    sample_measure,
)
from treesnake.plane_tree import PlaneTree, enumerate_trees
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

    @cached_property
    def _rotations(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """One pass over the sigma orbits: each dart's vertex id (ids in
        discovery order), its position in its orbit counted from the orbit's
        first dart, and each vertex's degree."""
        m = 4 * self.n
        origin = [-1] * m
        pos = [0] * m
        degree: list[int] = []
        for d in range(m):
            if origin[d] >= 0:
                continue
            v = len(degree)
            e = d
            i = 0
            while origin[e] < 0:
                origin[e] = v
                pos[e] = i
                i += 1
                e = self.sigma[e]
            degree.append(i)
        return tuple(origin), tuple(pos), tuple(degree)

    @property
    def vertex_of(self) -> tuple[int, ...]:
        """Vertex id of each dart's origin, ids in discovery order of sigma orbits."""
        return self._rotations[0]

    @property
    def n_vertices(self) -> int:
        return len(self._rotations[2])

    @cached_property
    def root_distances(self) -> tuple[int, ...]:
        """Graph distance from the root vertex to each vertex, by vertex id."""
        return tuple(_bfs_distances(self, self.vertex_of[self.root_dart]).tolist())

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the face permutation (alpha then sigma)."""
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
                e = self.sigma[self.alpha[e]]
            out.append(tuple(cyc))
        return tuple(out)

    def validate(self) -> None:
        """Full structural check; raises NotAQuadrangulation on any failure."""
        m = 4 * self.n
        if sorted(self.sigma) != list(range(m)):
            raise NotAQuadrangulation("sigma is not a permutation")
        for d in range(m):
            a = self.alpha[d]
            if not (0 <= a < m) or a == d or self.alpha[a] != d:
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
    """Every well-labelled tree with n edges, in plane-tree enumeration order."""
    if n < 1:
        raise ValueError("need at least one edge")
    for tree in enumerate_trees(n + 1):
        parent = tree.parent_index
        for incs in itertools.product((-1, 0, 1), repeat=n):
            labels = [1] + [0] * n
            for i in range(1, n + 1):
                l = labels[parent[i]] + incs[i - 1]
                if l < 1:
                    break
                labels[i] = l
            else:
                yield SpatialTree(tree, tuple(labels))


def cvs_build(wt: SpatialTree, n: Optional[int] = None) -> PlanarQuadrangulation:
    """Quadrangulation with n faces encoded by a well-labelled tree with n edges.

    The root dart is the extra-vertex end of the root corner's arc, so the
    root vertex of the map is the extra vertex.
    """
    labels = wt.labels
    if wt.tree.n_edges < 1:
        raise NotWellLabelled("need at least one edge")
    parent = wt.tree.parent_index
    for i in range(wt.tree.size):
        l = labels[i]
        if not isinstance(l, (int, np.integer)) or l < 1:
            raise NotWellLabelled(f"label {l!r} at vertex {wt.tree.vertices[i]}")
        if i and abs(l - labels[parent[i]]) > 1:
            raise NotWellLabelled(
                f"labels jump by {abs(l - labels[parent[i]])} along an edge"
            )
    if labels[0] != 1:
        raise NotWellLabelled(f"root label {labels[0]}, want 1")
    if n is None:
        n = wt.tree.n_edges
    elif n != wt.tree.n_edges:
        raise ValueError(f"tree has {wt.tree.n_edges} edges, not {n}")
    return _successor_arcs(wt, n)


def _successor_arcs(wt: SpatialTree, n: int) -> PlanarQuadrangulation:
    """The successor-arc map of a checked well-labelled tree.

    Arc j belongs to corner j and carries darts 2j (at the corner) and
    2j+1 (at the successor corner, or at the extra vertex for label-1
    corners).  Root dart 1 is the far end of the root corner's arc.
    """
    two_n = 2 * n
    order = wt.tree.contour_order  # vertex index per corner, then the root again
    labels = wt.labels
    lab = [labels[order[t]] for t in range(two_n)]

    # successor corner: next corner cyclically with label one lower
    succ: list[int] = [-1] * two_n
    next_at: dict[int, int] = {}
    for t in range(2 * two_n - 1, -1, -1):
        tt = t % two_n
        if t < two_n and lab[tt] >= 2:
            succ[tt] = next_at[lab[tt] - 1]
        next_at[lab[tt]] = tt

    # each arc leaves its corner hugging the contour's forward direction and
    # lands at the opening of its successor corner, freshly started arcs
    # sliding in closest to the tree; sweeping a corner in contour direction
    # therefore meets landed arcs from the latest-started inward, then the
    # corner's own outgoing arc on the far flank
    landed: list[list[tuple[int, int]]] = [[] for _ in range(two_n)]
    to_a0: list[int] = []
    for t in range(two_n):
        if lab[t] == 1:
            to_a0.append(2 * t + 1)
        else:
            s = succ[t]
            landed[s].append(((t - s) % two_n, 2 * t + 1))

    m = 4 * n
    sigma = [-1] * m

    def close_cycle(darts: list[int]) -> None:
        for i, d in enumerate(darts):
            sigma[d] = darts[(i + 1) % len(darts)]

    # rotations are written in sweep order, the orientation for which the
    # composite of the edge pairing followed by the rotation traces faces;
    # the extra vertex collects its spokes in reverse corner order because
    # later spokes had less far to travel and arrive nearest the tree
    for corners in wt.tree.corners:
        rot: list[int] = []
        for t in corners:
            rot.extend(d for _, d in sorted(landed[t], reverse=True))
            rot.append(2 * t)
        close_cycle(rot)
    close_cycle(to_a0[::-1])

    return PlanarQuadrangulation(n, tuple(sigma), alpha_of(m), 1)


@lru_cache(maxsize=8)
def alpha_of(m: int) -> tuple[int, ...]:
    """The pairing 2i <-> 2i+1 of the successor-arc map's dart numbering,
    built once per dart count."""
    return tuple(d ^ 1 for d in range(m))


def _bfs_distances(q: PlanarQuadrangulation, start_vertex: int) -> np.ndarray:
    origin = q.vertex_of
    nv = q.n_vertices
    adj: list[list[int]] = [[] for _ in range(nv)]
    for d in range(4 * q.n):
        adj[origin[d]].append(origin[q.alpha[d]])
    dist = [-1] * nv
    dist[start_vertex] = 0
    todo = deque([start_vertex])
    while todo:
        v = todo.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                todo.append(w)
    if -1 in dist:
        raise NotAQuadrangulation("map is not connected")
    return np.array(dist, dtype=np.int64)


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
    counts = np.bincount(q.root_distances).tolist()
    return DistanceProfile(q.n, len(counts) - 1, {k: c for k, c in enumerate(counts) if c})


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
    between the two l+1 corners).  The embedded tree is reassembled from
    the angular positions of those edge ends around each vertex.
    """
    q.validate()
    # each dart's vertex and position in its rotation cycle, and the cycle lengths
    origin, pos, cycle_len = q._rotations
    a0 = origin[q.root_dart]
    dist = q.root_distances

    # one tree edge per face: ends are (vertex, angular key)
    edges: list[tuple[tuple[int, float], tuple[int, float]]] = []
    for face in q.faces:
        labs = [dist[origin[d]] for d in face]
        imin = min(range(4), key=lambda i: labs[i])
        l = labs[imin]
        rot = [face[(imin + i) % 4] for i in range(4)]
        pattern = [labs[(imin + i) % 4] for i in range(4)]
        if pattern == [l, l + 1, l + 2, l + 1]:
            d = rot[1]
            edges.append(
                (
                    (origin[d], float(pos[d])),
                    (origin[q.alpha[d]], float(pos[q.alpha[d]])),
                )
            )
        elif pattern == [l, l + 1, l, l + 1]:
            ends = []
            for i in (1, 3):
                e = q.alpha[rot[i - 1]]  # arriving dart at the corner vertex
                ends.append((origin[rot[i]], pos[e] + 0.5))
            edges.append((ends[0], ends[1]))
        else:
            raise NotAQuadrangulation(f"face label pattern {pattern} is impossible")

    # group edge ends around each vertex
    fan: dict[int, list[tuple[float, int, int]]] = {}
    for eid, (end_a, end_b) in enumerate(edges):
        for (v, key), (w, _) in ((end_a, end_b), (end_b, end_a)):
            fan.setdefault(v, []).append((key, eid, w))
    if a0 in fan or len(edges) != q.n:
        raise NotAQuadrangulation("face edges do not avoid the root vertex")

    root = origin[q.alpha[q.root_dart]]
    if dist[root] != 1:
        raise NotWellLabelled(f"root label {dist[root]}, want 1")

    def ordered_from(v: int, start: float, skip_eid: int) -> list[tuple[int, int]]:
        """Edges at v in rotation order strictly after the angular start."""
        items = fan.get(v, [])
        period = cycle_len[v]

        out = sorted(
            ((key - start) % period, eid, w) for key, eid, w in items if eid != skip_eid
        )
        return [(eid, w) for _, eid, w in out]

    # rebuild the embedded tree from the root, children in rotation order;
    # labels are distances, so only their steps along tree edges need a check
    counts: list[int] = []
    labels: list[int] = []
    start_key = float(pos[q.alpha[q.root_dart]])
    stack = [(root, start_key, -1)]
    order_guard = 0
    while stack:
        v, start, skip = stack.pop()
        kids = ordered_from(v, start, skip)
        counts.append(len(kids))
        labels.append(dist[v])
        for eid, w in reversed(kids):
            if abs(dist[w] - dist[v]) > 1:
                raise NotWellLabelled(f"labels jump by {abs(dist[w] - dist[v])} along an edge")
            # the child's own fan starts from this edge's key at the child
            (va, ka), (vb, kb) = edges[eid]
            child_key = ka if (va == w) else kb
            stack.append((w, child_key, eid))
        order_guard += 1
        if order_guard > q.n + 1:
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
    steps in {-1, 0, 1}, which takes it from exact Qbar_{n+1} draws.
    """
    if n < 1:
        raise ValueError(f"need at least one face, not n={n}")
    counts, labels = sample_measure("Pbar-n-x", _GEO, _U3, n, 1, count, rng)
    for c, l in zip(counts, labels):
        yield cvs_build(SpatialTree(PlaneTree(c), l), n)


def sample_uniform_quad(n: int, rng: np.random.Generator) -> PlanarQuadrangulation:
    """One uniform rooted quadrangulation with n faces."""
    return next(sample_uniform_quads(n, 1, rng))


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
