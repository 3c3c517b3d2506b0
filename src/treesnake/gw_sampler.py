"""Samplers for critical Galton-Watson trees with spatial displacements.

Offspring laws are critical (mean one) with finite nonzero variance; the
supported families are geometric(1/2) on {0, 1, 2, ...} and explicit finite
probability vectors.  Displacement laws along edges are centered: finite
symmetric vectors, or a centered normal when exactness is not required.

Size-conditioned trees are drawn through their preorder child counts: a
count vector (c_1, ..., c_{n+1}) summing to n, rotated by the cycle lemma
so that the rotation starting right after the first minimum of the partial
sums of (c_i - 1) is the unique valid preorder encoding.  For the geometric
law the conditioned count vector is uniform over weak compositions of n
into n+1 parts, so it is drawn directly by stars and bars; other laws
resample i.i.d. blocks until the sum condition holds.

Labels are root-path sums of edge increments.  A single tree gets them
on the object route (sample_spatial, one Python pass over the PlaneTree's
parents); a batch of count rows gets them from _label_rows, on the numpy
kernel of plane_tree, which the Monte Carlo pipelines use.  The split
follows the input: sample_spatial labels the unsized measures P-x and Q
of sample_measure, whose trees come one at a time, each of its own random
size, from sample_gw and sample_q_tree, while the pipelines label
thousands of rows of one size at once.  Tests hold the two routes to the
same labels.

Memory: the batch kernels fill their output one row block of at most
2**18 entries at a time (plane_tree._row_blocks): the sized count rows, and
the labels that sample_label_extrema, estimate_positive_probability and
_conditioned_rows reduce block by block.  A chunk's count rows are then its
only array of the chunk's size (16 MB for 999 rows at n = 2000, where
sample_label_extrema's traced peak is about 29 MB).  The blocks change no
draw: consecutive blocks of rng.random, standard_normal or integers draw
what one call would, and the chunk sizes, which fix the order of the
draws, are unchanged.

sample_measure is the one route from a measure token to its draws.  The
sized measures (Pi-n, P-n-x, Pbar-n-x, Q-n, Qbar-n) take a whole block of
count rows and label rows from one kernel call.  The positivity-conditioned
ones come from the paper's re-rooting identity under the geometric law
(_rerooted_rows, at an acceptance flat in n), otherwise by
rejection, both under an explicit attempt budget.  The kept draws are
re-rooted at their minimum leaf on rows (_reroot_rows), by the formula of
plane_tree._reroot_walk that also re-roots the grid snake; so are the
weighted draws of sample_reroot_importance, and one keep test
(_minimum_leaf) picks the draws that both re-root.  The object route of
spatial_tree stays exact_enum's alone, an independent check.  Only
the unsized measures (Pi, P-x, Q) are drawn tree by tree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Union

import numpy as np

from treesnake.plane_tree import (
    PlaneTree,
    _block_rows,
    _path_sums,
    _reroot_walk,
    _row_blocks,
    _row_contours,
    _subtree_ends,
)
from treesnake.spatial_tree import Label, SpatialTree

Numeric = Union[int, float, Fraction]


class SizeOverflow(RuntimeError):
    """Unconditioned tree grew past the configured cap."""


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
            self.mean = Fraction(1)
            self.variance = Fraction(2)
            self._values = None
            self._probs = None
            self._cum = None
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
        self.mean = Fraction(1)
        self.variance = var
        self._values = np.array(self.support, dtype=np.int64)
        probs = [p for _, p in items]
        self._probs = np.array([float(p) for p in probs])
        self._cum = np.cumsum(self._probs)
        self._cum[-1] = 1.0
        self._pmf = dict(items)

    @classmethod
    def geometric_half(cls) -> "OffspringDistribution":
        return cls(_geometric=True)

    @classmethod
    def from_pmf(cls, pmf: Mapping[int, Numeric]) -> "OffspringDistribution":
        return cls(pmf)

    @property
    def sigma(self) -> float:
        return math.sqrt(float(self.variance))

    @property
    def aperiodic(self) -> bool:
        """Whether the step walk k -> k-1 generates the full integer lattice."""
        if self.is_geometric:
            return True
        ks = self.support
        g = 0
        for k in ks:
            g = math.gcd(g, k - ks[0])
        return g == 1

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

    Finite symmetric vectors keep exact probabilities and integer or
    rational values; normal(std) is available for purely numeric work.
    """

    def __init__(
        self,
        pmf: Optional[Mapping[Numeric, Numeric]] = None,
        *,
        _normal_std: Optional[float] = None,
    ):
        self.normal_std = _normal_std
        if _normal_std is not None:
            if _normal_std <= 0:
                raise ValueError("normal spread must be positive")
            self.support: Optional[tuple[Numeric, ...]] = None
            self.variance: Numeric = _normal_std**2
            self.exact = False
            return
        if pmf is None:
            raise ValueError("need a probability vector or a normal spread")
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
        var = sum(_as_fraction(v) * _as_fraction(v) * p for v, p in vals)
        if var == 0:
            raise ValueError("displacement law concentrated at 0")
        self.support = tuple(v for v, _ in vals)
        self.variance = var
        self.exact = True
        self._pmf = asdict
        self._int_valued = all(isinstance(v, int) for v in self.support)
        self._values = np.array([float(v) for v in self.support])
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
    def from_pmf(cls, pmf: Mapping[Numeric, Numeric]) -> "StepDistribution":
        return cls(pmf)

    @classmethod
    def normal(cls, std: float = 1.0) -> "StepDistribution":
        return cls(_normal_std=std)

    @property
    def rho(self) -> float:
        return math.sqrt(float(self.variance))

    def exact_items(self) -> list[tuple[Numeric, Fraction]]:
        if not self.exact:
            raise ValueError("normal displacement has no exact finite support")
        return sorted(self._pmf.items(), key=lambda vp: vp[0])

    def exact_pmf(self, v: Numeric) -> Fraction:
        if not self.exact:
            raise ValueError("normal displacement has no exact pmf")
        return self._pmf.get(v, Fraction(0))

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.normal_std is not None:
            return rng.normal(0.0, self.normal_std, size=size)
        # integers returns int64 already, so there is no cast to copy; only
        # the uniform law on {-1, 0, 1} (describe's uniform3) takes it
        if (
            self._int_valued
            and self.support == (-1, 0, 1)
            and self._pmf[0] == Fraction(1, 3)
        ):
            return rng.integers(-1, 2, size=size)
        if self._int_valued and self.support == (-1, 1):
            out = rng.integers(0, 2, size=size)
            out *= 2
            out -= 1
            return out
        u = rng.random(size)
        idx = np.searchsorted(self._cum, u, side="right").clip(0, len(self._values) - 1)
        out = self._values[idx]
        if self._int_valued:
            return out.astype(np.int64)
        return out

    def describe(self):
        if self.normal_std is not None:
            return {"normal": self.normal_std}
        if self.support == (-1, 0, 1) and self._pmf[0] == Fraction(1, 3):
            return "uniform3"
        if self.support == (-1, 1):
            return "uniform-pm1"
        out = {}
        for v, p in self._pmf.items():
            key = str(v) if not isinstance(v, Fraction) else f"{v.numerator}/{v.denominator}"
            out[key] = f"{p.numerator}/{p.denominator}"
        return out

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


def sample_gw(
    mu: OffspringDistribution,
    rng: np.random.Generator,
    max_size: int = 10_000_000,
) -> PlaneTree:
    """One tree from the unconditioned critical law, built in preorder."""
    counts: list[int] = []
    draws = mu.sample_counts(rng, 64)
    pos = 0
    stack = [1]
    while stack:
        if stack[-1] == 0:
            stack.pop()
            continue
        stack[-1] -= 1
        if pos == len(draws):
            draws = mu.sample_counts(rng, min(2 * len(draws), 1 << 20))
            pos = 0
        c = int(draws[pos])
        pos += 1
        counts.append(c)
        if len(counts) > max_size:
            raise SizeOverflow(f"tree exceeded {max_size} vertices")
        if c:
            stack.append(c)
    return PlaneTree(tuple(counts))


def _rotate_rows(rows: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Cycle-lemma rotation of count rows, each summing to one less than its length.

    The rotation starting right after the first minimum of the partial sums
    of (c - 1) is the unique one that encodes a tree in preorder.  It is
    written into out when given, a C-contiguous array of the rows' shape.
    """
    b, m = rows.shape
    partial = rows - 1
    np.cumsum(partial, axis=1, out=partial)
    jstar = np.argmin(partial, axis=1)  # first position of the minimum
    del partial
    # flat index of entry t of a rotated row: (jstar + 1 + t) mod m in its row
    idx = np.arange(1, m + 1) + jstar[:, None]
    idx %= m
    idx += m * np.arange(b)[:, None]
    # the indices are in range; mode="clip" lets take write out unbuffered
    return np.take(rows, idx, out=out, mode="clip")


def _composition_rows(n: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Uniform weak compositions of n into n+1 parts, one per row."""
    if n == 0:
        return np.zeros((rows, 1), dtype=np.int64)
    slots = 2 * n
    u = rng.random((rows, slots))
    bars = np.argpartition(u, n - 1, axis=1)[:, :n]
    del u  # freed before the sort allocates
    bars = np.sort(bars, axis=1)
    out = np.empty((rows, n + 1), dtype=np.int64)
    out[:, 0] = bars[:, 0]
    if n > 1:
        out[:, 1:n] = np.diff(bars, axis=1) - 1
    out[:, n] = slots - 1 - bars[:, n - 1]
    return out


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
    _check_size_reachable(mu, n)
    if n == 0:
        return np.zeros((rows, 1), dtype=np.int64)
    out = np.empty((rows, n + 1), dtype=np.int64)
    if mu.is_geometric:
        # consecutive rng.random blocks draw what one call for all rows would
        for start, stop in _row_blocks(rows, 2 * n):
            _rotate_rows(_composition_rows(n, rng, stop - start), out[start:stop])
        return out
    have = 0
    # aim for enough raw blocks that each batch lands a healthy number of hits
    hit = 1.0 / max(1.0, math.sqrt(2 * math.pi * float(mu.variance) * (n + 1)))
    while have < rows:
        want = rows - have
        batch = int(min(max(256, want / hit * 1.3), max(256, 4_000_000 // (n + 1))))
        block = mu.sample_counts(rng, batch * (n + 1)).reshape(batch, n + 1)
        good = block[block.sum(axis=1) == n][:want]
        _rotate_rows(good, out[have : have + len(good)])
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
    sub = _sized_count_rows(mu, n - 1, rng, rows)
    return np.concatenate([np.ones((rows, 1), dtype=sub.dtype), sub], axis=1)


def _tilted_rows(n: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Count rows of trees with n edges, the geometric law's shapes tilted
    by one over the leaf count.

    Narayana(n, j) of the equally likely shapes have j leaves, so j is drawn
    with weight C(n, j) C(n + 1, j), proportional to Narayana(n, j) / j; then
    zeros go in j uniform slots of n + 1, a uniform composition of n into
    positive parts (n - j uniform cuts of n - 1 gaps) fills the others, and
    the cycle-lemma rotation gives each shape with j leaves alike.
    """
    if n == 0:
        return np.zeros((rows, 1), dtype=np.int64)
    # log C(n, j) + log C(n + 1, j) for j = 1..n, as running sums
    i = np.arange(1, n + 1, dtype=np.float64)
    logw = np.cumsum(np.log((n + 1 - i) * (n + 2 - i) / (i * i)))
    cdf = np.cumsum(np.exp(logw - logw.max()))
    cdf /= cdf[-1]
    j = np.searchsorted(cdf, rng.random(rows), side="right") + 1
    # slots of a uniform permutation below j hold the zeros
    zero = rng.permuted(np.broadcast_to(np.arange(n + 1), (rows, n + 1)), axis=1) < j[:, None]
    # cuts after the marked units of n; the last unit always ends a part
    cut = np.ones((rows, n), dtype=bool)
    cuts = rng.permuted(np.broadcast_to(np.arange(n - 1), (rows, n - 1)), axis=1)
    np.less(cuts, (n - j)[:, None], out=cut[:, :-1])
    del cuts
    # read row by row, the cut positions step by each row's parts in order
    out = np.zeros((rows, n + 1), dtype=np.int64)
    out.ravel()[np.flatnonzero(~zero)] = np.diff(np.flatnonzero(cut), prepend=-1)
    return _rotate_rows(out)


def sample_gw_sized(
    mu: OffspringDistribution, n: int, rng: np.random.Generator
) -> PlaneTree:
    """One tree with exactly n edges under the conditioned critical law."""
    if n < 0:
        raise ValueError("edge count must be nonnegative")
    row = _sized_count_rows(mu, n, rng, 1)[0]
    return PlaneTree(tuple(int(c) for c in row))


# ---------------------------------------------------------------------------
# labels


def sample_spatial(
    t: PlaneTree,
    gamma: StepDistribution,
    x: Label,
    rng: np.random.Generator,
) -> SpatialTree:
    """Attach labels: the root gets x, every edge an independent step."""
    if t.size == 1:
        return SpatialTree(t, (x,))
    incs = gamma.sample(rng, t.size - 1).tolist()
    labels: list[Label] = [x] * t.size
    parent = t.parent_index
    for i in range(1, t.size):
        labels[i] = labels[parent[i]] + incs[i - 1]
    return SpatialTree(t, tuple(labels))


def _label_rows(end: np.ndarray, incs: np.ndarray, x: Label) -> np.ndarray:
    """Preorder labels of a batch of trees given by their subtree ends
    (_subtree_ends of the count rows), root label x.

    incs[:, k - 1] is the increment on the edge into vertex k; columns past
    the trees' edge count are ignored.
    """
    w = np.empty(end.shape, dtype=np.result_type(incs, x))
    w[:, 0] = x
    w[:, 1:] = incs[:, : end.shape[1] - 1]
    return _path_sums(end, w)


def _label_blocks(
    rows: np.ndarray, gamma: StepDistribution, x: Label, rng: np.random.Generator
) -> Iterator[tuple[int, np.ndarray]]:
    """Labels of a batch of count rows at root label x, one row block at a time.

    Yields (start, labels) per block, labels[i] being the labels of
    rows[start + i].  Each block draws its increments with one gamma.sample
    call of shape (block rows, max(1, n)), a zero-edge row ignoring its one
    draw; consecutive calls draw what one call for all rows would, so the
    labels do not depend on the block size.
    """
    n1 = rows.shape[1]
    for start, stop in _row_blocks(len(rows), n1):
        incs = gamma.sample(rng, (stop - start, max(1, n1 - 1)))
        yield start, _label_rows(_subtree_ends(rows[start:stop]), incs, x)


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
    max_attempts: Optional[int] = None,
    count_rows=_sized_count_rows,
) -> tuple[list[tuple[tuple, tuple]], int]:
    """Accepted (counts, labels) rows with positivity, and the attempt total.

    Rejection from the trees count_rows(mu, n, rng, k) draws, the
    size-conditioned law by default, spending at most max_attempts
    attempts (REJECTION_BUDGET when left out), so fewer than count rows
    come back when the budget runs out.  The root label x must be
    nonnegative, and a zero-edge draw is vacuously accepted.
    """
    if x < 0:
        raise NegativeRootLabel("root label must be nonnegative for positivity conditioning")
    if n == 0:
        return [((0,), (x,)) for _ in range(count)], count
    budget = REJECTION_BUDGET if max_attempts is None else max_attempts
    out: list[tuple[tuple, tuple]] = []
    attempts = 0
    cap = max(64, min(8192, 1_000_000 // (n + 1)))
    while len(out) < count and attempts < budget:
        chunk = max(16, min(cap, 2 * (count - len(out))))
        rows = count_rows(mu, n, rng, chunk)
        # rows are attempts in order, up to the wanted count or the budget;
        # every block is labelled, so the chunk's draws do not depend on
        # where the wanted count is reached
        look = min(chunk, budget - attempts)
        last = -1
        for start, labels in _label_blocks(rows, gamma, x, rng):
            ok = _positive(labels[: max(0, look - start)])
            hits = np.flatnonzero(ok)[: count - len(out)]
            if len(hits):
                last = start + int(hits[-1])
            out.extend(
                (tuple(rows[start + i].tolist()), (x, *labels[i, 1:].tolist())) for i in hits
            )
        attempts += last + 1 if len(out) == count else look
    return out, attempts


def estimate_positive_probability(
    mu: OffspringDistribution,
    gamma: StepDistribution,
    n: int,
    x: Label,
    attempts: int,
    rng: np.random.Generator,
) -> int:
    """How many of the given number of conditioned draws keep labels positive."""
    if n < 0:
        raise ValueError("edge count must be nonnegative")
    if n == 0:
        return attempts
    accepted = 0
    done = 0
    chunk = max(64, min(16384, 2_000_000 // (n + 1)))
    while done < attempts:
        take = min(chunk, attempts - done)
        rows = _sized_count_rows(mu, n, rng, take)
        for _, labels in _label_blocks(rows, gamma, x, rng):
            accepted += int(_positive(labels).sum())
        done += take
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
    if n < 0:
        raise ValueError("edge count must be nonnegative")
    mins = np.empty(samples)
    maxs = np.empty(samples)
    done = 0
    chunk = max(16, min(8192, 2_000_000 // (n + 1)))
    while done < samples:
        take = min(chunk, samples - done)
        rows = _sized_count_rows(mu, n, rng, take)
        for start, labels in _label_blocks(rows, gamma, x, rng):
            at = slice(done + start, done + start + len(labels))
            mins[at] = labels.min(axis=1)
            maxs[at] = labels.max(axis=1)
        done += take
    return mins, maxs


def sample_leaf_counts(
    mu: OffspringDistribution,
    n: int,
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Leaf counts of size-conditioned trees (childless non-root vertices)."""
    if n < 0:
        raise ValueError("edge count must be nonnegative")
    out = np.empty(samples, dtype=np.int64)
    done = 0
    chunk = max(16, min(8192, 2_000_000 // (n + 1)))
    while done < samples:
        take = min(chunk, samples - done)
        rows = _sized_count_rows(mu, n, rng, take)
        out[done : done + take] = (rows == 0).sum(axis=1) - (rows[:, 0] == 0)
        done += take
    return out


# ---------------------------------------------------------------------------
# measures with a single-child root and the re-rooting importance sampler


def sample_q_tree(mu: OffspringDistribution, rng: np.random.Generator) -> PlaneTree:
    """A tree whose root has exactly one child, below it an unconditioned tree."""
    return PlaneTree((1,) + sample_gw(mu, rng).counts)


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
    rows_out = np.empty((count, n + 1), dtype=np.int64)
    rows_out[:, 0] = 1
    labels_out = None
    argmin = np.empty(count, dtype=np.int64)
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
        if labels_out is None:
            labels_out = np.zeros((count, n + 1), dtype=labels.dtype)
        got = slice(have, have + len(hits))
        rows_out[got, 1:] = rows[hits]
        labels_out[got, 1:] = labels[hits]
        argmin[got] = at[hits] + 1
        have += len(hits)
        attempts += int(hits[-1]) + 1 if have == count else take
        del rows, end, labels  # before the next block's draw
    if labels_out is None:
        labels_out = np.zeros((0, n + 1), dtype=np.int64)
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
) -> tuple[list[tuple[int, ...]], Optional[list[tuple]]]:
    """count draws from the named measure: preorder count rows, and label
    rows (None for the plain-tree measures Pi and Pi-n).

    The sized measures draw the whole block through the row kernel.  Under
    the geometric law, Qbar-n comes from _rerooted_rows, re-rooted by
    _reroot_rows, and so does Pbar-n-x at x = 1 for steps in {-1, 0, 1},
    as Qbar_{n+1} without its root edge; the other Pbar-n-x and Qbar-n
    draws are positivity rejections.  Either way at most REJECTION_BUDGET
    attempts are spent.  The unsized measures draw tree by tree.  The
    single-child-root family Q is rooted at label 0, the others at x.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, pick from {MEASURES}")
    root = 0 if measure.startswith("Q") else x
    if measure == "Pi":
        return [sample_gw(mu, rng).counts for _ in range(count)], None
    if measure in ("P-x", "Q"):
        tree = sample_q_tree if measure == "Q" else sample_gw
        draws = [sample_spatial(tree(mu, rng), gamma, root, rng) for _ in range(count)]
        return [s.tree.counts for s in draws], [s.labels for s in draws]
    if n is None or n < SIZED_MEASURES[measure]:
        raise ValueError(f"measure {measure} needs n at least {SIZED_MEASURES[measure]}")
    # with steps in {-1, 0, 1} the root's child in Qbar_{n+1} is at label 1,
    # and the tree below it is Pbar_{n,1}
    unit = gamma.exact and set(gamma.support) <= {-1, 0, 1}
    if mu.is_geometric and (measure == "Qbar-n" or (measure == "Pbar-n-x" and x == 1 and unit)):
        cut = int(measure == "Pbar-n-x")  # the root edge to drop
        rows, labels = _reroot_rows(*_rerooted_rows(gamma, n + cut, count, rng)[:3])
        return ([tuple(r[cut:]) for r in rows.tolist()],
                [tuple(l[cut:]) for l in labels.tolist()])
    count_rows = _q_count_rows if measure.startswith("Q") else _sized_count_rows
    if measure in ("Pbar-n-x", "Qbar-n"):
        got, attempts = _conditioned_rows(mu, gamma, n, root, count, rng, count_rows=count_rows)
        if len(got) < count:
            raise RejectionBudgetExhausted(
                f"{len(got)} accepted of {count} wanted in {attempts} attempts"
                f" of {measure} at n={n}"
            )
        return [c for c, _ in got], [l for _, l in got]
    rows = count_rows(mu, n, rng, count)
    counts = [tuple(r) for r in rows.tolist()]
    if measure == "Pi-n":
        return counts, None
    labels = _label_rows(_subtree_ends(rows), gamma.sample(rng, (count, n)), root)
    return counts, [(root, *r[1:]) for r in labels.tolist()]


def spawn_rngs(seed: int, streams: int) -> list[np.random.Generator]:
    """Independent child generators derived from one seed, one per stream."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(streams)]
