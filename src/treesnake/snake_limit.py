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
pointer per sample, the one normal of each sample and step is drawn for a
block of 32 steps at once, and only the samples whose lifetime steps down
pay for popping anchors and for the bridge.  Besides the excursion rows the
head holds only its stacks, grown in place one at a time, and one block of
scratch allocated once per call, which one generator (_head_blocks) hands
out block by block: sample_extrema folds the blocks into running extrema,
and _snake_head_rows writes them into head rows.

Re-rooting at the spatial minimum turns the signed head into a nonnegative
one while permuting head values, so path ranges are preserved sample by
sample; the distribution of the re-rooted pair is the positive
(conditioned) snake, which is the continuum reference object for the
scaling comparisons.  sample_positive_snake draws it as rows, re-rooted
in place one row block at a time; the re-rooted lifetime comes from
plane_tree._reroot_walk, which re-roots the sampled trees' contours too.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from treesnake.plane_tree import _check_vertices, _reroot_walk, _row_blocks


_HEAD_BLOCK = 32  # head steps per block of normals and per stack-growth check
_EXTREMA_BATCH = 2048  # snakes sample_extrema draws and reduces together


class NonUniqueMinimum(ValueError):
    """The grid minimum of the head is attained more than once."""


class EmptySample(ValueError):
    """A sample set handed to a statistic is empty."""


def _check_grid(m: int) -> None:
    if m < 2:
        raise ValueError("need a grid with at least two steps")
    _check_vertices(m + 1)  # a row of grid values, the contour of m / 2 edges


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"sample count must be nonnegative, got {count}")


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


def _head_blocks(e: np.ndarray, rng: np.random.Generator) -> Iterator[tuple[int, np.ndarray]]:
    """Head rows for excursion rows e, started at 0, all samples advanced in
    lock step, one block of _HEAD_BLOCK steps at a time.

    Yields (start, heads) per block, heads[i, j] being the head of sample j
    at time start + 1 + i; heads is a view of scratch that the next block
    overwrites, so a caller reads it before asking for the next one.
    Exactly one standard normal per sample per step is consumed, drawn as
    standard_normal((steps, count)) for a block, the same stream as one
    standard_normal(count) call a step; so output is reproducible for a
    given rng.  A sample whose lifetime steps down spends its normal on the
    bridge, any other on the rise sqrt(e_next - e): the head has one free
    coordinate a step, and the rise of a step down is zero.

    The rows of e must start at 0 and stay nonnegative, as excursion rows
    do.  The anchor stacks are two flat slot-major arrays, anchor s of
    sample j at s * count + j, with pos the flat index of each sample's top
    anchor.  After step i every top anchor is (e[:, i+1], Z(i+1)): a step
    down pops the top and whatever else lies above the new level, and then
    every step pushes its end point.  A push at an existing level repeats
    that anchor's value, so it changes no later draw.  Only the rows that
    step down run the pop loop and the bridge, and since a step adds at
    most one anchor the stacks are checked once a block and grown to what
    the block needs plus one block more, one stack at a time and in place
    where the allocator can extend it (ndarray.resize), so two copies of
    both stacks never coexist.  The block's normals, transposed lifetimes,
    rises and step-down mask are buffers with a row per step of a block,
    allocated once per call and refilled in place block after block.
    """
    count, mp1 = e.shape
    m = mp1 - 1
    depth = 1
    levels = np.zeros(count)
    values = np.zeros(count)
    pos = np.arange(count)

    block = min(_HEAD_BLOCK, m)  # rows of scratch, one per step of a block
    normals = np.empty((block, count))
    ends = np.empty((block + 1, count))
    rise = np.empty((block, count))
    down = np.empty((block, count), dtype=bool)
    z_block = np.zeros((block + 1, count))

    for start in range(0, m, _HEAD_BLOCK):
        steps = min(_HEAD_BLOCK, m - start)
        # slots the deepest stack needs; initial= and max() admit a batch of 0 rows
        need = int(pos.max(initial=0)) // max(count, 1) + steps + 1
        if need > depth:
            # in place where the allocator can extend the memory; no view
            # of either stack exists, every index into them is fancy
            depth = need + _HEAD_BLOCK
            levels.resize(depth * count, refcheck=False)
            values.resize(depth * count, refcheck=False)

        # the buffers' first steps rows hold this block
        normal = rng.standard_normal(out=normals[:steps])
        end = ends[: steps + 1]
        np.copyto(end, e[:, start : start + steps + 1].T)
        e_next = end[1:]
        up = rise[:steps]
        np.subtract(e_next, end[:-1], out=up)
        np.less(up, 0.0, out=down[:steps])
        # zero on a step down, whose normal goes to the bridge instead
        np.maximum(up, 0.0, out=up)
        np.sqrt(up, out=up)
        up *= normal

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
                w += np.sqrt(gap * (h1 - level) / span) * normals[i, d]
                z_next[d] = w
                pos[d] = p
            pos += count
            levels[pos] = e_next[i]
            values[pos] = z_next

        yield start, z_block[1 : steps + 1]
        z_block[0] = z_block[steps]


def _snake_head_rows(e: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The (count, m+1) head rows of _head_blocks for excursion rows e."""
    z = np.zeros(e.shape)
    for start, heads in _head_blocks(e, rng):
        z[:, start + 1 : start + 1 + len(heads)] = heads.T
    return z


def _reroot_at_minimum(e: np.ndarray, z: np.ndarray) -> None:
    """Re-root lifetime rows e and head rows z at each head's grid argmin,
    in place, one row block at a time.

    The new head reads the old one cyclically from the argmin, less the
    minimum, and the new lifetime at offset j is the tree distance between
    the old times: plane_tree._reroot_walk, the formula that re-roots the
    discrete trees too.  A row whose minimum is attained at more than one
    grid time raises NonUniqueMinimum.
    """
    count, mp1 = e.shape
    m = mp1 - 1
    for start, stop in _row_blocks(count, mp1):
        head = z[start:stop]
        star = np.argmin(head[:, :m], axis=1)
        low = head[np.arange(stop - start), star][:, None]
        ties = np.count_nonzero(head[:, :m] == low, axis=1)
        tied = (ties > 1).nonzero()[0]
        if tied.size:
            i = tied[0]
            raise NonUniqueMinimum(
                f"head minimum of row {start + i} attained {ties[i]} times on the grid"
            )
        e[start:stop], u = _reroot_walk(e[start:stop], star)
        np.subtract(np.take_along_axis(head, u, axis=1), low, out=head)


def sample_positive_snake(
    m: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """count grid snakes re-rooted at the minimum of their heads: rows of
    lifetimes and of nonnegative heads, each (count, m+1).

    A tied grid minimum, which has probability zero for Gaussian heads,
    raises NonUniqueMinimum.
    """
    _check_grid(m)
    _check_count(count)
    e = _excursion_rows(m, count, rng)
    z = _snake_head_rows(e, rng)
    _reroot_at_minimum(e, z)
    return e, z


def sample_extrema(
    m: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (sup, inf) of the head over count independent snakes.

    The snakes come in batches of _EXTREMA_BATCH, and each batch folds its
    head blocks into running extrema, so no head path is ever held; the sup
    and inf determine the range and, through the re-rooting identity, the
    sup of the positive snake as well.
    """
    _check_grid(m)
    _check_count(count)
    sups = np.zeros(count)
    infs = np.zeros(count)
    for done in range(0, count, _EXTREMA_BATCH):
        at = slice(done, min(done + _EXTREMA_BATCH, count))
        e = _excursion_rows(m, at.stop - done, rng)
        for _, heads in _head_blocks(e, rng):
            np.maximum(sups[at], heads.max(axis=0), out=sups[at])
            np.minimum(infs[at], heads.min(axis=0), out=infs[at])
    return sups, infs


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


def samples_csv(values: np.ndarray) -> str:
    """One-column CSV of sample values."""
    lines = ["value"]
    lines.extend(repr(float(v)) for v in np.asarray(values))
    return "\n".join(lines) + "\n"
