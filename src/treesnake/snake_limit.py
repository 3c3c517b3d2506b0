"""Discretized Brownian snake: excursion lifetime, Gaussian head, re-rooting.

The snake is simulated on a regular grid of [0,1].  The lifetime process is
a normalized Brownian excursion, generated as a Brownian bridge cyclically
rotated at its minimum.  Conditionally on the lifetime e, the head Z is a
centered Gaussian process with cov(Z(s), Z(s')) equal to the minimum of e
between s and s'; it is sampled exactly on the grid by maintaining the
breakpoints of the historical path as a stack of (level, value) anchors.
Dropping to a level strictly between two anchors pins the value there by a
Brownian bridge in the level variable, and rising from a level adds fresh
centered Gaussian displacement.

A batch of samples advances in lock step.  Its anchor stacks live in two
flat slot-major arrays (anchor s of sample j at s * count + j) with one top
pointer per sample, the two normals of each step are drawn for a block of
steps at once in the order of two per-step calls, and only the samples
whose lifetime steps down pay for popping anchors and for the bridge.

Re-rooting at the spatial minimum turns the signed head into a nonnegative
one while permuting head values, so path ranges are preserved sample by
sample; the distribution of the re-rooted pair is the positive
(conditioned) snake, which is the continuum reference object for the
scaling comparisons.  The re-rooted lifetime comes from
plane_tree._reroot_walk, which re-roots the sampled trees' contours too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from treesnake.plane_tree import ContourFunction, _reroot_walk, _row_blocks
from treesnake.spatial_tree import SpatialContour


_HEAD_BLOCK = 128  # head steps per block of normals and per stack-growth check


class NonUniqueMinimum(ValueError):
    """The grid minimum of the head is attained more than once."""


class LengthMismatch(ValueError):
    """Contour sequences do not have the expected grid length."""


class EmptySample(ValueError):
    """A sample set handed to a statistic is empty."""


def _read_only(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def _check_lifetime(e: np.ndarray) -> None:
    """Reject a lifetime that is not a grid excursion (0 at both ends, never
    negative), which the head sampler's anchor stacks rely on."""
    if len(e) < 2 or e[0] != 0.0 or e[-1] != 0.0 or (e < 0).any():
        raise ValueError("lifetime must be a nonnegative excursion")


@dataclass(frozen=True)
class SnakePath:
    """Grid snake: lifetime e and head Z on times i/m, started at Z(0) = r."""

    grid_size: int
    excursion: np.ndarray
    head: np.ndarray
    initial: float = 0.0

    def __post_init__(self) -> None:
        e = _read_only(self.excursion)
        z = _read_only(self.head)
        m = self.grid_size
        if m < 1 or len(e) != m + 1 or len(z) != m + 1:
            raise LengthMismatch(f"want {m + 1} grid values, got {len(e)} and {len(z)}")
        _check_lifetime(e)
        if z[0] != self.initial:
            raise ValueError("head must start at the initial value")
        object.__setattr__(self, "excursion", e)
        object.__setattr__(self, "head", z)


@dataclass(frozen=True)
class RescaledPath:
    """Rescaled contour pair on the time grid j/(2n), with its constants."""

    times: np.ndarray
    contour: np.ndarray
    head: np.ndarray
    sigma: float
    rho: float
    kappa: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", _read_only(self.times))
        object.__setattr__(self, "contour", _read_only(self.contour))
        object.__setattr__(self, "head", _read_only(self.head))
        object.__setattr__(
            self, "kappa", (1.0 / self.rho) * math.sqrt(self.sigma / 2.0)
        )

    def contour_at(self, t) -> np.ndarray:
        return np.interp(t, self.times, self.contour)

    def head_at(self, t) -> np.ndarray:
        return np.interp(t, self.times, self.head)


def _excursion_rows(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of grid excursions: bridge, rotate at the argmin, shift to 0.

    The walk is drawn one row block at a time into one buffer (consecutive
    standard_normal calls draw what one call for all rows would), scaled,
    summed and turned into the bridge in place, and each of its rows is
    rotated into the result by two slice copies, so the result is the only
    array of the batch's size.
    """
    rows = np.empty((count, m + 1))
    ramp = np.arange(1, m) / m
    buf = None  # every block's walk, sized by the first block, the largest
    for start, stop in _row_blocks(count, m):
        if buf is None:
            buf = np.empty((stop - start, m))
        walk = rng.standard_normal(out=buf[: stop - start])
        walk /= math.sqrt(m)
        np.cumsum(walk, axis=1, out=walk)
        # walk[:, t] becomes the bridge at time t < m: 0, then the walk less
        # its drift towards the end value, with the result rows as scratch
        block = rows[start:stop]
        drift = block[:, : m - 1]
        np.multiply(walk[:, -1:], ramp, out=drift)
        np.subtract(walk[:, :-1], drift, out=drift)
        walk[:, 1:] = drift
        walk[:, 0] = 0.0
        k = np.argmin(walk, axis=1)
        for row, b, kj in zip(block, walk, k.tolist()):
            np.subtract(b[kj:], b[kj], out=row[: m - kj])
            np.subtract(b[:kj], b[kj], out=row[m - kj : m])
    rows[:, m] = 0.0
    return rows


def sample_excursion(m: int, rng: np.random.Generator) -> np.ndarray:
    """One normalized Brownian excursion on the grid i/m, i = 0..m."""
    if m < 2:
        raise ValueError("need a grid with at least two steps")
    return _excursion_rows(m, 1, rng)[0]


def _snake_head_rows(
    e: np.ndarray,
    r: float,
    rng: np.random.Generator,
    keep_paths: bool = True,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Head rows for excursion rows e, all samples advanced in lock step.

    With keep_paths the full (count, m+1) head array comes back; without it
    only the per-sample running (min, max) pair, which keeps memory flat
    for large batches.  Exactly two standard normals per sample per step
    are consumed either way, the bridge normal and then the rise normal of
    step i drawn as standard_normal((steps, 2, count)) for a block of
    _HEAD_BLOCK steps, the same stream as two standard_normal(count) calls
    a step; so output is reproducible for a given rng.

    The rows of e must start at 0 and stay nonnegative, as excursion rows
    do.  The anchor stacks are two flat slot-major arrays, anchor s of
    sample j at s * count + j, with pos the flat index of each sample's top
    anchor.  After step i every top anchor is (e[:, i+1], Z(i+1)): a step
    down pops the top and whatever else lies above the new level, and then
    every step pushes its end point.  A push at an existing level repeats
    that anchor's value, so it changes no later draw.  Only the rows that
    step down run the pop loop and the bridge, and since a step adds at
    most one anchor the stacks are checked once a block and grown to what
    the block needs plus one block more.
    """
    count, mp1 = e.shape
    m = mp1 - 1
    depth = 1
    levels = np.zeros(count)
    values = np.full(count, float(r))
    pos = np.arange(count)

    z_block = np.empty((_HEAD_BLOCK + 1, count))
    z_block[0] = r
    if keep_paths:
        z = np.empty((count, mp1))
        z[:, 0] = r
    else:
        z_min = np.full(count, float(r))
        z_max = z_min.copy()

    for start in range(0, m, _HEAD_BLOCK):
        steps = min(_HEAD_BLOCK, m - start)
        need = int(pos.max()) // count + steps + 1
        if need > depth:
            grown = need + _HEAD_BLOCK
            levels = np.concatenate([levels, np.zeros((grown - depth) * count)])
            values = np.concatenate([values, np.zeros((grown - depth) * count)])
            depth = grown

        normals = rng.standard_normal((steps, 2, count))
        ends = np.ascontiguousarray(e[:, start : start + steps + 1].T)
        e_next = ends[1:]
        down = e_next < ends[:-1]
        rise = np.sqrt(e_next - np.minimum(ends[:-1], e_next)) * normals[:, 1]

        for i in range(steps):
            z_next = z_block[i + 1]
            np.add(z_block[i], rise[i], out=z_next)
            d = down[i].nonzero()[0]
            if d.size:
                level = e_next[i, d]
                # pop the top, then every anchor above the step minimum; the
                # lowest one popped sits just above the survivor
                p = pos[d] - count
                k = (levels[p] > level).nonzero()[0]
                while k.size:
                    pk = p[k] - count
                    p[k] = pk
                    k = k[levels[pk] > level[k]]
                # value at the step minimum: a bridge in the level variable
                # between the surviving anchor and the lowest popped one
                q = p + count
                h0 = levels[p]
                h1 = levels[q]
                w0 = values[p]
                w1 = values[q]
                span = h1 - h0
                gap = level - h0
                w = w0 + gap / span * (w1 - w0)
                w += np.sqrt(gap * (h1 - level) / span) * normals[i, 0, d]
                z_next[d] = w
                pos[d] = p
            pos += count
            levels[pos] = e_next[i]
            values[pos] = z_next

        heads = z_block[1 : steps + 1]
        if keep_paths:
            z[:, start + 1 : start + steps + 1] = heads.T
        else:
            np.minimum(z_min, heads.min(axis=0), out=z_min)
            np.maximum(z_max, heads.max(axis=0), out=z_max)
        z_block[0] = z_block[steps]

    if keep_paths:
        return z
    return z_min, z_max


def sample_snake(m: int, rng: np.random.Generator, r: float = 0.0) -> SnakePath:
    """Fresh excursion and a head that is exact on the grid given it."""
    e = sample_excursion(m, rng)
    return SnakePath(m, e, _snake_head_rows(e[None, :], r, rng)[0], r)


def verwaat_reroot(p: SnakePath) -> SnakePath:
    """Re-root the snake at the spatial minimum of its head.

    The new head reads the old one cyclically from the argmin, shifted to
    start at 0, and the new lifetime at offset j is the tree distance
    between the old positions: plane_tree._reroot_walk, the formula that
    re-roots the discrete trees too.  Requires a path started at 0 and a
    unique grid argmin.
    """
    if p.initial != 0.0:
        raise ValueError("re-rooting is defined for paths started at 0")
    e = p.excursion
    z = p.head
    m = p.grid_size
    low = z.min()
    hits = np.nonzero(z[:m] == low)[0]
    if len(hits) != 1:
        raise NonUniqueMinimum(f"head minimum attained {len(hits)} times on the grid")
    star = hits[:1]

    e_new, u = _reroot_walk(e[None, :], star)
    return SnakePath(m, e_new[0], z[u[0]] - z[star], 0.0)


def sample_positive_snake(
    m: int, rng: np.random.Generator, max_regenerations: int = 8
) -> SnakePath:
    """Nonnegative snake: re-rooted draw, regenerating on grid argmin ties."""
    for _ in range(max_regenerations):
        try:
            return verwaat_reroot(sample_snake(m, rng))
        except NonUniqueMinimum:
            continue
    raise NonUniqueMinimum(
        f"grid minimum still tied after {max_regenerations} regenerations"
    )


def sample_extrema(
    m: int,
    count: int,
    rng: np.random.Generator,
    batch: int = 2048,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (sup, inf) of the head over count independent snakes.

    Works in batches so the paths themselves are never all in memory; the
    sup and inf determine the range and, through the re-rooting identity,
    the sup of the positive snake as well.
    """
    sups = np.empty(count)
    infs = np.empty(count)
    done = 0
    while done < count:
        take = min(batch, count - done)
        e = _excursion_rows(m, take, rng)
        z_min, z_max = _snake_head_rows(e, 0.0, rng, keep_paths=False)
        sups[done : done + take] = z_max
        infs[done : done + take] = z_min
        done += take
    return sups, infs


def rescale_discrete(
    c: ContourFunction,
    v: SpatialContour,
    n: int,
    sigma: float,
    rho: float,
) -> RescaledPath:
    """Rescaled versions of a discrete contour pair on the grid j/(2n).

    The contour is shrunk by (sigma/2) n^(-1/2) and the spatial contour by
    kappa n^(-1/4) with kappa = (1/rho) sqrt(sigma/2); between grid points
    the rescaled path is evaluated by linear interpolation.
    """
    cv = np.asarray(c.values, dtype=np.float64)
    vv = np.asarray(v.values, dtype=np.float64)
    if len(cv) != 2 * n + 1 or len(vv) != 2 * n + 1:
        raise LengthMismatch(
            f"want {2 * n + 1} contour values for n={n}, got {len(cv)} and {len(vv)}"
        )
    kappa = (1.0 / rho) * math.sqrt(sigma / 2.0)
    times = np.arange(2 * n + 1) / (2 * n)
    return RescaledPath(
        times,
        (sigma / 2.0) * cv / math.sqrt(n),
        kappa * vv / n**0.25,
        sigma,
        rho,
    )


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, the sup gap of empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        raise EmptySample("both sample sets must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


def to_lattice(values: np.ndarray, scale: float) -> np.ndarray:
    """Nearest integer to values * scale, as int64.

    A lattice-valued sample (labels, graph distances) compared by KS with a
    continuous one can never score below half its largest point mass,
    whatever the two laws are.  Mapping the continuous reference onto the
    same lattice first, with scale the inverse lattice spacing (n^(1/4) for
    statistics rescaled by n^(-1/4)), removes that floor:
    ks_two_sample(cells, to_lattice(reference, scale)) compares the two
    laws cell by cell and draws no random numbers.
    """
    return np.rint(np.asarray(values, dtype=np.float64) * scale).astype(np.int64)


def ks_report(a: np.ndarray, b: np.ndarray, threshold: float) -> dict:
    """Comparison report in the shape used by the command line tools."""
    stat = ks_two_sample(a, b)
    return {
        "statistic": stat,
        "n_a": int(len(np.asarray(a))),
        "n_b": int(len(np.asarray(b))),
        "threshold": threshold,
        "pass": bool(stat <= threshold),
    }


@dataclass(frozen=True)
class SnakeFunctionals:
    """Path functionals: extremes and the grid occupation measures."""

    sup: float
    inf: float
    range: float
    occupation: tuple[np.ndarray, np.ndarray]
    shifted_occupation: tuple[np.ndarray, np.ndarray]


def functionals(p: SnakePath, bins: int = 64) -> SnakeFunctionals:
    """Sup, inf, range of the head plus its occupation histograms.

    The occupation measure puts mass 1/m on the head value at each grid
    time left of a step; the shifted variant does the same for the head
    minus its infimum.  Both histograms therefore sum to 1.
    """
    z = p.head
    lo = float(z.min())
    hi = float(z.max())
    left = z[:-1]
    weights = np.full(len(left), 1.0 / p.grid_size)
    occ = np.histogram(left, bins=bins, weights=weights)
    shifted = np.histogram(left - lo, bins=bins, weights=weights)
    return SnakeFunctionals(hi, lo, hi - lo, occ, shifted)


def samples_csv(values: np.ndarray) -> str:
    """One-column CSV of sample values."""
    lines = ["value"]
    lines.extend(repr(float(v)) for v in np.asarray(values))
    return "\n".join(lines) + "\n"
