"""Samplers for critical Galton-Watson trees with spatial displacements.

Offspring laws are critical (mean one) with finite nonzero variance; the
supported families are geometric(1/2) on {0, 1, 2, ...} and explicit finite
probability vectors.  Displacement laws along edges are centered: finite
symmetric vectors on the integers, or a centered normal when exactness is
not required.

Size-conditioned trees are drawn through their preorder child counts: a
count vector (c_1, ..., c_{n+1}) summing to n, rotated by the cycle lemma
so that the rotation starting right after the first minimum of the partial
sums of (c_i - 1) is the unique valid preorder encoding.  For the geometric
law the conditioned count vector is uniform over weak compositions of n
into n+1 parts, drawn as stars and bars (n bars in 2n slots, by _marks);
other laws resample i.i.d. blocks until the sum condition holds.

Labels are root-path sums of edge increments, on the numpy kernel of
plane_tree (_subtree_ends, then _path_sums), for count rows (_label_blocks)
and for the unsized measures' forests alike: their trees are cut from one
count stream at the new minima of its Lukasiewicz walk (_forest), and
labelled in groups, each group one forest row (_forest_labels).  Every
route allocates its labels up front in the step law's dtype
(StepDistribution.dtype: int64, or float64 for normal steps) promoted
with the root label's type, so a route that draws nothing returns the
same dtype as one that does.

Memory: the batch kernels fill their output one row block of at most
2**18 entries at a time (plane_tree._row_blocks): the sized count rows, and
the labels that _conditioned_rows and the batch reductions reduce block by
block.  The reductions walk one generator of sized count rows in chunks
(_sized_chunks), so a chunk's count rows are its only array of the chunk's
size (16 MB for 999 rows at n = 2000, where sample_label_extrema's traced
peak is about 29 MB).  The blocks change no draw: consecutive blocks of
rng.random, standard_normal or integers draw what one call would, and the
chunk sizes fix the order of the draws, save a _marks row whose k-th and
(k+1)-th keys tie: it is drawn again before the next block's keys.

sample_measure is the one route from a measure token to its draws.  Every
route hands it count and label arrays, rows or a forest, and it returns
them flat beside the trees' start offsets, each root at the label asked
for: one array representation of labelled trees, which cli writes and
quadmap maps.  The sized measures (Pi-n, P-n-x, Pbar-n-x, Q-n, Qbar-n)
take a whole block of rows from one kernel call.  The
positivity-conditioned ones come from the paper's re-rooting identity under
the geometric law (_rerooted_rows, at an acceptance flat in n), otherwise
by rejection (_conditioned_rows); both return their rows, labels and
attempts, and raise RejectionBudgetExhausted once REJECTION_BUDGET attempts
are spent.  The kept draws are re-rooted at their minimum leaf on rows
(_reroot_rows), by the formula of plane_tree._reroot_walk that also
re-roots the grid snake; so are the weighted draws of
sample_reroot_importance, and one keep test (_minimum_leaf) picks the draws
that both re-root.  The object route of spatial_tree stays exact_enum's
alone, an independent check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from treesnake.plane_tree import (
    SizeOverflow,
    _block_rows,
    _check_vertices,
    _path_sums,
    _reroot_walk,
    _row_blocks,
    _row_contours,
    _subtree_ends,
    _tree_blocks,
)
from treesnake.spatial_tree import Label

Numeric = Union[int, float, Fraction]


class UnreachableSize(ValueError):
    """The offspring law gives the requested size probability zero."""


class NegativeRootLabel(ValueError):
    """Positivity conditioning asked for a negative root label."""


class RejectionBudgetExhausted(RuntimeError):
    """Conditioned sampler used up its rejection budget."""


def _as_fraction(x: Numeric) -> Fraction:
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    return Fraction(x)


class OffspringDistribution:
    """Critical offspring law, exact where possible.

    Either the geometric(1/2) law mu(k) = 2^-(k+1), or a finite vector of
    exact probabilities.  Construction validates total mass one, mean one,
    mu(1) < 1 and positive variance.
    """

    def __init__(self, pmf: Optional[Mapping[int, Numeric]] = None, *, _geometric: bool = False):
        self.is_geometric = _geometric
        if _geometric:
            self.support: Optional[tuple[int, ...]] = None
            self.variance = Fraction(2)
            return
        if pmf is None:
            raise ValueError("need a probability vector or the geometric tag")
        items = sorted((int(k), _as_fraction(p)) for k, p in pmf.items())
        items = [(k, p) for k, p in items if p != 0]
        if any(k < 0 for k, _ in items):
            raise ValueError("offspring counts must be nonnegative")
        if any(p < 0 for _, p in items):
            raise ValueError("probabilities must be nonnegative")
        total = sum(p for _, p in items)
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        mean = sum(k * p for k, p in items)
        if mean != 1:
            raise ValueError(f"offspring mean is {mean}, the law must be critical")
        pm1 = dict(items).get(1, Fraction(0))
        if pm1 == 1:
            raise ValueError("mu(1) = 1 is the degenerate single-path law")
        var = sum(k * k * p for k, p in items) - 1
        if var <= 0:
            raise ValueError("offspring variance must be positive")
        self.support = tuple(k for k, _ in items)
        self.variance = var
        self._values = np.array(self.support, dtype=np.int64)
        self._cum = np.cumsum([float(p) for _, p in items])
        self._cum[-1] = 1.0
        self._pmf = dict(items)

    @classmethod
    def geometric_half(cls) -> "OffspringDistribution":
        return cls(_geometric=True)

    @property
    def sigma(self) -> float:
        return math.sqrt(float(self.variance))

    def exact_pmf(self, k: int) -> Fraction:
        if k < 0:
            return Fraction(0)
        if self.is_geometric:
            return Fraction(1, 2 ** (k + 1))
        return self._pmf.get(k, Fraction(0))

    def step_pmf(self, k: int) -> Fraction:
        """Law of the associated walk step, nu(k) = mu(k + 1) for k >= -1."""
        return self.exact_pmf(k + 1)

    def sample_counts(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.is_geometric:
            return rng.geometric(0.5, size=size) - 1
        u = rng.random(size)
        return self._values[np.searchsorted(self._cum, u, side="right").clip(0, len(self._values) - 1)]

    def describe(self):
        if self.is_geometric:
            return "geometric-half"
        return {str(k): f"{p.numerator}/{p.denominator}" for k, p in self._pmf.items()}

    def __repr__(self) -> str:
        return f"OffspringDistribution({self.describe()})"


class StepDistribution:
    """Centered displacement law for labels along edges.

    Finite symmetric vectors keep exact probabilities and integer values;
    normal(std) is available for purely numeric work.  dtype is that of the
    steps drawn: int64, or float64 for normal steps.
    """

    def __init__(
        self,
        pmf: Optional[Mapping[int, Numeric]] = None,
        *,
        _normal_std: Optional[float] = None,
    ):
        self.normal_std = _normal_std
        if _normal_std is not None:
            if _normal_std <= 0:
                raise ValueError("normal spread must be positive")
            self.support: Optional[tuple[int, ...]] = None
            self.variance: Numeric = _normal_std**2
            self.exact = False
            return
        if pmf is None:
            raise ValueError("need a probability vector or a normal spread")
        if not all(isinstance(v, int) for v in pmf):
            raise ValueError("step values must be integers")
        vals = [(v, _as_fraction(p)) for v, p in pmf.items()]
        vals = [(v, p) for v, p in vals if p != 0]
        vals.sort(key=lambda vp: vp[0])
        total = sum(p for _, p in vals)
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        asdict = dict(vals)
        for v, p in vals:
            if asdict.get(-v, Fraction(0)) != p:
                raise ValueError(f"law is not symmetric at {v}")
        var = sum(v * v * p for v, p in vals)
        if var == 0:
            raise ValueError("displacement law concentrated at 0")
        self.support = tuple(v for v, _ in vals)
        self.variance = var
        self.exact = True
        self._pmf = asdict
        self._values = np.array(self.support, dtype=np.int64)
        self._cum = np.cumsum([float(p) for _, p in vals])
        self._cum[-1] = 1.0

    @classmethod
    def uniform3(cls) -> "StepDistribution":
        third = Fraction(1, 3)
        return cls({-1: third, 0: third, 1: third})

    @classmethod
    def uniform_pm1(cls) -> "StepDistribution":
        return cls({-1: Fraction(1, 2), 1: Fraction(1, 2)})

    @classmethod
    def normal(cls, std: float = 1.0) -> "StepDistribution":
        return cls(_normal_std=std)

    @property
    def rho(self) -> float:
        return math.sqrt(float(self.variance))

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the steps drawn, and of labels at an integer root."""
        return np.dtype(np.int64 if self.exact else np.float64)

    def exact_items(self) -> list[tuple[int, Fraction]]:
        if not self.exact:
            raise ValueError("normal displacement has no exact finite support")
        return sorted(self._pmf.items(), key=lambda vp: vp[0])

    def exact_pmf(self, v: int) -> Fraction:
        if not self.exact:
            raise ValueError("normal displacement has no exact pmf")
        return self._pmf.get(v, Fraction(0))

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.normal_std is not None:
            return rng.normal(0.0, self.normal_std, size=size)
        # uniform3 and pm1 draw integers directly, any other law by its cdf
        if self.support == (-1, 0, 1) and self._pmf[0] == Fraction(1, 3):
            return rng.integers(-1, 2, size=size)
        if self.support == (-1, 1):
            out = rng.integers(0, 2, size=size)
            out *= 2
            out -= 1
            return out
        u = rng.random(size)
        return self._values[np.searchsorted(self._cum, u, side="right").clip(0, len(self._values) - 1)]

    def describe(self):
        if self.normal_std is not None:
            return {"normal": self.normal_std}
        if self.support == (-1, 0, 1) and self._pmf[0] == Fraction(1, 3):
            return "uniform3"
        if self.support == (-1, 1):
            return "uniform-pm1"
        return {str(v): f"{p.numerator}/{p.denominator}" for v, p in self._pmf.items()}

    def __repr__(self) -> str:
        return f"StepDistribution({self.describe()})"


MEASURES = ("Pi", "Pi-n", "P-x", "P-n-x", "Pbar-n-x", "Q", "Q-n", "Qbar-n")

# The measures conditioned on the edge count n, each with the least n it
# accepts: the Q family's root has exactly one child.
SIZED_MEASURES = {"Pi-n": 0, "P-n-x": 0, "Pbar-n-x": 0, "Q-n": 1, "Qbar-n": 1}

# Attempts one sample_measure call may spend on positivity rejection.
REJECTION_BUDGET = 50_000_000

# int64 words a vertex charged to each _rerooted_rows block: five are live at
# its peak (count rows, subtree ends, steps, path sums and one temporary), and
# the margin keeps a block of 2**18 / 8 vertices near 1.3 MB; _reroot_rows
# takes blocks of the same rows, whose contour arrays peak near 24 words a
# vertex (6 MB)
_KERNEL_WORDS = 8


# ---------------------------------------------------------------------------
# unconditioned and size-conditioned tree draws


def _forest(
    mu: OffspringDistribution, trees: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Preorder counts of i.i.d. unconditioned trees read one after another,
    and the index where each tree starts, then the total.

    The trees are cut from one i.i.d. count stream where its Lukasiewicz
    walk (partial sums of count - 1) first reaches -1, -2, ...: steps go
    down by at most 1, so each new running minimum closes one tree (Le Gall,
    "Random trees and applications", Probab. Surveys 2 (2005), section 1).
    The stream comes in chunks doubling up to 2**20 counts; a chunk goes on
    from the last walk value, and closes a tree below the running minimum.
    A tree past MAX_VERTICES, closed or still open, raises SizeOverflow.
    """
    chunks, starts = [np.zeros(0, dtype=np.int64)], [np.zeros(1, dtype=np.int64)]
    drawn = start = closed = walk = low = 0  # low: the walk's running minimum
    size = max(64, trees)
    while closed < trees:
        counts = mu.sample_counts(rng, size)
        chunk = np.cumsum(counts - 1) + walk
        minima = np.minimum(np.minimum.accumulate(chunk), low)
        cut = np.flatnonzero(np.diff(minima, prepend=low))[: trees - closed] + drawn + 1
        closed += len(cut)
        sizes = np.diff(cut, prepend=start)
        start = int(cut[-1]) if len(cut) else start
        drawn += size
        _check_vertices(int(sizes.max(initial=drawn - start if closed < trees else 0)))
        chunks.append(counts)
        starts.append(cut)
        walk, low, size = chunk[-1], minima[-1], min(2 * size, 1 << 20)
    return np.concatenate(chunks)[:start], np.concatenate(starts)


def _rotate_rows(rows: np.ndarray) -> np.ndarray:
    """Cycle-lemma rotation of count rows, each summing to one less than its length.

    The rotation starting right after the first minimum of the partial sums
    of (c - 1) is the unique one that encodes a tree in preorder.
    """
    b, m = rows.shape
    partial = rows - 1
    np.cumsum(partial, axis=1, out=partial)
    jstar = np.argmin(partial, axis=1)  # first position of the minimum
    del partial
    # a rotated row is the window of length m at jstar + 1 of the row twice over
    windows = sliding_window_view(np.concatenate([rows, rows], axis=1), m, axis=1)
    return windows[np.arange(b), jstar + 1]


def _check_size_reachable(mu: OffspringDistribution, n: int) -> None:
    if mu.is_geometric or n == 0:
        return
    parts = [k for k in mu.support if k > 0]
    reach = [False] * (n + 1)
    reach[0] = True
    for s in range(1, n + 1):
        for k in parts:
            if k <= s and reach[s - k]:
                reach[s] = True
                break
    if not reach[n]:
        raise UnreachableSize(
            f"no tree with {n} edges has positive probability under {mu!r}"
        )


def _sized_count_rows(
    mu: OffspringDistribution,
    n: int,
    rng: np.random.Generator,
    rows: int,
) -> np.ndarray:
    """Rotated preorder count rows of trees with n edges, one tree per row.

    The rows are drawn and rotated into the result one block at a time, so
    the draw's temporaries stay within a few row blocks.
    """
    _check_vertices(n + 1)
    _check_size_reachable(mu, n)
    if n == 0:
        return np.zeros((rows, 1), dtype=np.int64)
    out = np.empty((rows, n + 1), dtype=np.int64)
    if mu.is_geometric:
        # stars and bars: n bars in 2n slots, then one that closes part n
        for start, stop in _row_blocks(rows, 2 * n):
            bars = np.ones((stop - start, 2 * n + 1), dtype=bool)
            bars[:, :-1] = _marks(np.full(stop - start, n), 2 * n, rng)
            counts = np.diff(np.flatnonzero(bars), prepend=-1) - 1
            out[start:stop] = _rotate_rows(counts.reshape(-1, n + 1))
        return out
    have = 0
    # aim for enough raw blocks that each batch lands a healthy number of hits
    hit = 1.0 / max(1.0, math.sqrt(2 * math.pi * float(mu.variance) * (n + 1)))
    while have < rows:
        want = rows - have
        batch = int(min(max(256, want / hit * 1.3), max(256, 4_000_000 // (n + 1))))
        block = mu.sample_counts(rng, batch * (n + 1)).reshape(batch, n + 1)
        good = block[block.sum(axis=1) == n][:want]
        out[have : have + len(good)] = _rotate_rows(good)
        have += len(good)
    return out


def _q_count_rows(
    mu: OffspringDistribution,
    n: int,
    rng: np.random.Generator,
    rows: int,
) -> np.ndarray:
    """Preorder count rows of trees with n edges whose root has one child:
    the root's count 1, then a tree with n - 1 edges hanging from the child."""
    if n < 1:
        raise ValueError("a single-child root needs at least one edge")
    _check_vertices(n + 1)
    sub = _sized_count_rows(mu, n - 1, rng, rows)
    return np.concatenate([np.ones((rows, 1), dtype=sub.dtype), sub], axis=1)


def _marks(k: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Boolean rows of size slots, row r marking a uniform k[r]-subset.

    It draws the geometric stars and bars' bars (_sized_count_rows) and a
    tilted shape's zero slots and cuts (_tilted_rows).

    Every slot gets a uniform 32-bit key, and a row marks the slots at or
    below its k-th smallest key.  A row whose k-th and (k + 1)-th smallest
    keys tie is drawn again; that event does not depend on the order of the
    keys, so the marked subset stays uniform, and it has exactly k slots.
    (float32 keys would take only 2**24 values and tie in most rows near
    MAX_VERTICES slots.)
    """
    mask = np.zeros((len(k), size), dtype=bool)
    todo = np.flatnonzero((k > 0) & (k < size))
    mask[k >= size] = True
    while len(todo):
        keys = rng.integers(0, 2**32, size=(len(todo), size), dtype=np.uint32)
        low = np.sort(keys, axis=1)
        every = np.arange(len(todo))
        at = k[todo]
        limit = low[every, at - 1]
        tie = low[every, at] == limit
        del low  # freed before the compare allocates
        mask[todo] = keys <= limit[:, None]
        todo = todo[tie]
    return mask


def _tilted_rows(n: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Count rows of trees with n edges, the geometric law's shapes tilted
    by one over the leaf count.

    Narayana(n, j) of the equally likely shapes have j leaves, so j is drawn
    with weight C(n, j) C(n + 1, j), proportional to Narayana(n, j) / j; then
    zeros go in j uniform slots of n + 1 and a uniform composition of n into
    positive parts, cut at n - j uniform gaps of n - 1, fills the others
    (both subsets drawn by _marks).  The cycle-lemma rotation gives each
    shape with j leaves alike: a shape's n + 1 rotations are distinct, as
    in Devroye, "Simulating size-constrained Galton-Watson trees" (SIAM
    J. Comput. 41, 2012).
    """
    if n == 0:
        return np.zeros((rows, 1), dtype=np.int64)
    # log C(n, j) + log C(n + 1, j) for j = 1..n, as running sums
    i = np.arange(1, n + 1, dtype=np.float64)
    logw = np.cumsum(np.log((n + 1 - i) * (n + 2 - i) / (i * i)))
    cdf = np.cumsum(np.exp(logw - logw.max()))
    cdf /= cdf[-1]
    j = np.searchsorted(cdf, rng.random(rows), side="right") + 1
    zero = _marks(j, n + 1, rng)
    # cuts after the marked units of n; the last unit always ends a part
    cut = np.ones((rows, n), dtype=bool)
    cut[:, :-1] = _marks(n - j, n - 1, rng)
    # read row by row, the cut positions step by each row's parts in order
    out = np.zeros((rows, n + 1), dtype=np.int64)
    out.ravel()[np.flatnonzero(~zero)] = np.diff(np.flatnonzero(cut), prepend=-1)
    return _rotate_rows(out)


# ---------------------------------------------------------------------------
# labels


def _label_blocks(
    rows: np.ndarray, gamma: StepDistribution, x: Label, rng: np.random.Generator
) -> Iterator[tuple[int, np.ndarray]]:
    """Labels of a batch of count rows at root label x, one row block at a time.

    Yields (start, labels) per block, labels[i] being the labels of
    rows[start + i].  Each block draws its increments with one gamma.sample
    call of shape (block rows, max(1, n)), increment k - 1 of a row on the
    edge into vertex k and a zero-edge row ignoring its one draw;
    consecutive calls draw what one call for all rows would, so the labels
    do not depend on the block size.
    """
    n1 = rows.shape[1]
    for start, stop in _row_blocks(len(rows), n1):
        incs = gamma.sample(rng, (stop - start, max(1, n1 - 1)))
        w = np.empty((stop - start, n1), dtype=np.result_type(gamma.dtype, x))
        w[:, 0] = x
        w[:, 1:] = incs[:, : n1 - 1]
        yield start, _path_sums(_subtree_ends(rows[start:stop]), w)


def _forest_labels(
    counts: np.ndarray, starts: np.ndarray, gamma: StepDistribution, x: Label,
    rng: np.random.Generator,
) -> np.ndarray:
    """Labels of the trees of a forest from _forest, rooted at x: one array
    aligned with counts.

    Each group of _tree_blocks is one count row, a forest, labelled by one
    _subtree_ends and _path_sums call: a tree root has weight x, any other
    vertex the step on its edge.  Steps come one a vertex in stream order,
    a root's unused, as one call would.
    """
    out = np.empty(len(counts), dtype=np.result_type(gamma.dtype, x))
    for first, stop in _tree_blocks(starts):
        row = counts[starts[first] : starts[stop]]
        w = gamma.sample(rng, len(row)).astype(out.dtype, copy=False)
        w[starts[first:stop] - starts[first]] = x
        out[starts[first] : starts[stop]] = _path_sums(_subtree_ends(row[None]), w[None])[0]
    return out


def _positive(labels: np.ndarray) -> np.ndarray:
    """Rows whose non-root labels are all positive."""
    return labels[:, 1:].min(axis=1) > 0


def _conditioned_rows(
    mu: OffspringDistribution,
    gamma: StepDistribution,
    n: int,
    x: Label,
    count: int,
    rng: np.random.Generator,
    count_rows=_sized_count_rows,
) -> tuple[np.ndarray, np.ndarray, int]:
    """count draws with positive non-root labels by rejection: (rows,
    labels, attempts).

    The attempts are trees count_rows(mu, n, rng, k) draws, the
    size-conditioned law by default, labelled from root label x, which must
    be nonnegative; a zero-edge draw is vacuously kept.  Attempts, counted
    up to the last kept draw, come in chunks of max(16, min(cap, twice the
    draws still wanted)) rows, every label block of a chunk drawn, so where
    the wanted count is reached changes no draw.  RejectionBudgetExhausted
    is raised once REJECTION_BUDGET attempts keep fewer than count draws.
    """
    if x < 0:
        raise NegativeRootLabel("root label must be nonnegative for positivity conditioning")
    if n == 0 or count == 0:  # vacuously positive, or nothing wanted
        labels = np.full((count, n + 1), x, dtype=np.result_type(gamma.dtype, x))
        return np.zeros((count, n + 1), dtype=np.int64), labels, count
    kept_rows, kept_labels = [], []
    kept = attempts = 0
    cap = max(64, min(8192, 1_000_000 // (n + 1)))
    while kept < count:
        if attempts >= REJECTION_BUDGET:
            raise RejectionBudgetExhausted(
                f"{kept} of {count} positive draws at n={n} kept in {attempts} attempts")
        chunk = max(16, min(cap, 2 * (count - kept)))
        rows = count_rows(mu, n, rng, chunk)
        look = min(chunk, REJECTION_BUDGET - attempts)  # the attempts left
        last = -1
        for start, labels in _label_blocks(rows, gamma, x, rng):
            hits = np.flatnonzero(_positive(labels[: max(0, look - start)]))[: count - kept]
            if len(hits):
                last = start + int(hits[-1])
            kept_rows.append(rows[start + hits])
            kept_labels.append(labels[hits])
            kept += len(hits)
        attempts += last + 1 if kept == count else look
    return np.concatenate(kept_rows), np.concatenate(kept_labels), attempts


def _sized_chunks(
    mu: OffspringDistribution, n: int, total: int, rng: np.random.Generator,
    least: int, most: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """(done, rows): total sized count rows with n edges in consecutive
    chunks of max(least, min(most, 2_000_000 // (n + 1))) rows, done rows
    before each."""
    if n < 0:
        raise ValueError("edge count must be nonnegative")
    chunk = max(least, min(most, 2_000_000 // (n + 1)))
    for done in range(0, total, chunk):
        yield done, _sized_count_rows(mu, n, rng, min(chunk, total - done))


def estimate_positive_probability(
    mu: OffspringDistribution,
    gamma: StepDistribution,
    n: int,
    x: Label,
    attempts: int,
    rng: np.random.Generator,
) -> int:
    """How many of the given number of conditioned draws keep labels positive."""
    if n == 0:
        return attempts
    accepted = 0
    for _, rows in _sized_chunks(mu, n, attempts, rng, 64, 16384):
        for _, labels in _label_blocks(rows, gamma, x, rng):
            accepted += int(_positive(labels).sum())
    return accepted


def sample_label_extrema(
    mu: OffspringDistribution,
    gamma: StepDistribution,
    n: int,
    x: Label,
    samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (min, max) label over the whole tree under the sized law."""
    mins = np.empty(samples)
    maxs = np.empty(samples)
    for done, rows in _sized_chunks(mu, n, samples, rng, 16, 8192):
        for start, labels in _label_blocks(rows, gamma, x, rng):
            at = slice(done + start, done + start + len(labels))
            mins[at] = labels.min(axis=1)
            maxs[at] = labels.max(axis=1)
    return mins, maxs


def sample_leaf_counts(
    mu: OffspringDistribution,
    n: int,
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Leaf counts of size-conditioned trees (childless non-root vertices)."""
    out = np.empty(samples, dtype=np.int64)
    for done, rows in _sized_chunks(mu, n, samples, rng, 16, 8192):
        out[done : done + len(rows)] = (rows == 0).sum(axis=1) - (rows[:, 0] == 0)
    return out


# ---------------------------------------------------------------------------
# measures with a single-child root and the re-rooting importance sampler


def _minimum_leaf(end: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's label minimum column, and whether the row is kept there.

    The rows are the labels of the tree hanging from a root at label 0 by
    its root edge, with end its subtree ends (the root left out).  A row is
    kept when its minimum is below the root, at one vertex, and a leaf:
    the draws that re-rooting at the minimum leaf turns into Qbar_n.
    """
    at = labels.argmin(axis=1)
    every = np.arange(len(labels))
    low = labels[every, at]
    keep = (low < 0) & (end[every, at] == at + 1)  # below the root, at a leaf
    keep &= np.count_nonzero(labels == low[:, None], axis=1) == 1
    return at, keep


def _rerooted_rows(
    gamma: StepDistribution, n: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """count draws of Q_n, geometric law, whose re-rooting at the label
    minimum is exactly Qbar_n: (rows, labels, argmin, attempts).

    An attempt hangs a _tilted_rows tree below the root's child, labelled
    from root label 0, and is kept when its minimum label is at one vertex,
    a leaf.  Re-rooting kept draws gives L Qbar_n (criterion 02's identity)
    with L the leaf count, which re-rooting at a leaf keeps, so the 1/L
    tilt leaves Qbar_n.  Attempts, counted up to the last kept draw, come
    in blocks sized by the acceptance so far, of at most
    _block_rows(_KERNEL_WORDS * n) rows and REJECTION_BUDGET in all.
    """
    _check_vertices(n + 1)
    rows_out = np.empty((count, n + 1), dtype=np.int64)
    rows_out[:, 0] = 1
    argmin = np.empty(count, dtype=np.int64)
    labels_out = np.zeros((0, n + 1), dtype=gamma.dtype)  # count rows from the first block on
    have = attempts = 0
    while have < count:
        if attempts >= REJECTION_BUDGET:
            raise RejectionBudgetExhausted(
                f"{have} of {count} Qbar-n draws at n={n} kept in {attempts} attempts")
        want = count - have
        # draws per kept one estimated from the draws so far, a third before any
        take = min(_block_rows(_KERNEL_WORDS * n), REJECTION_BUDGET - attempts,
                   want * (attempts + 3) // (have + 1) + 16)
        rows = _tilted_rows(n - 1, rng, take)
        end = _subtree_ends(rows)
        # the root edge's step is the root label of the tree below; the root,
        # at 0, is a minimum unless a label below it is lower
        labels = _path_sums(end, gamma.sample(rng, (take, n)))
        at, keep = _minimum_leaf(end, labels)
        hits = np.flatnonzero(keep)[:want]
        if len(labels_out) < count:
            # allocated above the block's temporaries on the heap, so that
            # freeing them keeps their pages: allocated before the loop, it
            # cost a quad-n500 op 1400 minor page faults against 420
            labels_out = np.zeros((count, n + 1), dtype=gamma.dtype)
        got = slice(have, have + len(hits))
        rows_out[got, 1:] = rows[hits]
        labels_out[got, 1:] = labels[hits]
        argmin[got] = at[hits] + 1
        have += len(hits)
        attempts += int(hits[-1]) + 1 if have == count else take
        del rows, end, labels  # before the next block's draw
    return rows_out, labels_out, argmin, attempts


def _reroot_rows(
    rows: np.ndarray, labels: np.ndarray, leaf: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Count rows and labels of trees re-rooted at a leaf, one row block at
    a time, in the orientation of spatial_tree's object route.

    The new contour is the old one read backwards from the leaf's one
    visit (_reroot_walk), so the new preorder is the leaf, then the vertex
    at each up-step.  Every vertex keeps its neighbours: its count is its
    degree less its new parent, and the new root, a leaf, has 1.  Labels
    are shifted by minus the leaf's.
    """
    count, n1 = rows.shape
    rows_out = np.empty_like(rows)
    labels_out = np.empty_like(labels)
    for start, stop in _row_blocks(count, _KERNEL_WORDS * n1):
        every = np.arange(stop - start)[:, None]
        k = leaf[start:stop]
        depth, _, contour = _row_contours(_subtree_ends(rows[start:stop]))
        back = contour[:, ::-1]  # the object route's orientation
        # the leaf's one visit, at time 2k - depth[k], read backwards
        star = 2 * (n1 - 1) - 2 * k + depth[every[:, 0], k]
        height, u = _reroot_walk(depth[every, back], star)
        seen = back[every, u]  # the old vertex at each new time
        new = np.empty((stop - start, n1), dtype=np.int64)
        new[:, 0] = k
        new[:, 1:] = seen[:, 1:][height[:, 1:] > height[:, :-1]].reshape(-1, n1 - 1)
        degree = rows[start:stop] + 1
        degree[:, 0] -= 1  # the old root has no parent
        rows_out[start:stop] = degree[every, new] - 1
        rows_out[start:stop, 0] = 1
        block = labels[start:stop]
        labels_out[start:stop] = block[every, new] - block[every, k[:, None]]
    return rows_out, labels_out


def sample_reroot_importance(
    mu: OffspringDistribution,
    gamma: StepDistribution,
    n: int,
    draws: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """draws Q_n draws at root label 0, each kept one re-rooted at its
    minimum leaf: (rows, labels, weights).

    A draw is kept when its label minimum, root included, is at one vertex
    and that vertex is a leaf (_minimum_leaf).  It comes back re-rooted
    there with weight one over its leaf count, which re-rooting at a leaf
    keeps, so the weighted mean of a functional of the output estimates its
    Q_n mean over the draws with positive non-root labels (criterion 02's
    identity).  Every other draw comes back as drawn, with weight 0.
    """
    rows = _q_count_rows(mu, n, rng, draws)
    end = _subtree_ends(rows[:, 1:])
    below = _path_sums(end, gamma.sample(rng, (draws, n)))
    at, keep = _minimum_leaf(end, below)
    labels = np.zeros(rows.shape, dtype=below.dtype)
    labels[:, 1:] = below
    del end, below
    kept = np.flatnonzero(keep)
    rows[kept], labels[kept] = _reroot_rows(rows[kept], labels[kept], at[kept] + 1)
    weights = np.zeros(draws)
    weights[kept] = 1.0 / np.count_nonzero(rows[kept] == 0, axis=1)
    return rows, labels, weights


def sample_measure(
    measure: str,
    mu: OffspringDistribution,
    gamma: StepDistribution,
    n: Optional[int],
    x: Label,
    count: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """count draws from the named measure: (counts, starts, labels), tree i
    taking entries starts[i] to starts[i + 1] of the flat preorder counts
    and labels (None for the plain-tree measures Pi and Pi-n).

    The unsized measures cut their trees from one count stream (_forest,
    _forest_labels), a Q tree adding a root above a tree of the stream; the
    sized ones draw rows.  Under the geometric law Qbar-n comes from
    _rerooted_rows, re-rooted by _reroot_rows, and so does Pbar-n-x at x = 1
    for steps in {-1, 0, 1}, as Qbar_{n+1} without its root edge; the other
    Pbar-n-x and Qbar-n draws are rejections (_conditioned_rows).  Either
    route raises RejectionBudgetExhausted past REJECTION_BUDGET attempts.
    Every tree's root entry is set to the root label asked for, 0 for the
    single-child-root family Q and x otherwise, since float steps leave
    rounding residue in the labels of a forest's roots.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, pick from {MEASURES}")
    root = 0 if measure.startswith("Q") else x
    if measure in ("Pi", "P-x", "Q"):
        counts, starts = _forest(mu, count, rng)
        if measure == "Q":  # a root with one child above each tree
            counts = np.insert(counts, starts[:-1], 1)
            starts += np.arange(count + 1)
        labels = None if measure == "Pi" else _forest_labels(counts, starts, gamma, root, rng)
    else:
        if n is None or n < SIZED_MEASURES[measure]:
            raise ValueError(f"measure {measure} needs n at least {SIZED_MEASURES[measure]}")
        # with steps in {-1, 0, 1} the root's child in Qbar_{n+1} is at
        # label 1, and the tree below it is Pbar_{n,1}
        unit = gamma.exact and set(gamma.support) <= {-1, 0, 1}
        cut = int(measure == "Pbar-n-x")  # the root edge to drop
        count_rows = _q_count_rows if measure.startswith("Q") else _sized_count_rows
        if mu.is_geometric and (measure == "Qbar-n" or (cut and x == 1 and unit)):
            rows, labels = _reroot_rows(*_rerooted_rows(gamma, n + cut, count, rng)[:3])
            rows, labels = rows[:, cut:], labels[:, cut:]
        elif measure in ("Pbar-n-x", "Qbar-n"):
            rows, labels, _ = _conditioned_rows(mu, gamma, n, root, count, rng, count_rows)
        else:
            rows = count_rows(mu, n, rng, count)
            labels = None
            if measure != "Pi-n":
                labels = np.empty(rows.shape, dtype=np.result_type(gamma.dtype, root))
                for start, block in _label_blocks(rows, gamma, root, rng):
                    labels[start : start + len(block)] = block
        counts, starts = rows.ravel(), rows.shape[1] * np.arange(count + 1)
        labels = None if labels is None else labels.ravel()
    if labels is not None:
        labels[starts[:-1]] = root
    return counts, starts, labels


def spawn_rngs(seed: int, streams: int) -> list[np.random.Generator]:
    """Independent child generators derived from one seed, one per stream."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(streams)]
