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
follows the input: the exact checks build many tiny trees, for which a
numpy call costs far more than the Python pass, while the pipelines label
thousands of large rows at once.  Tests hold the two routes to the same
labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

import numpy as np

from treesnake.plane_tree import PlaneTree, _path_sums, _subtree_ends, leaves
from treesnake.spatial_tree import Label, SpatialTree, min_label, reroot_at

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

    def pmf(self, k: int) -> float:
        return float(self.exact_pmf(k))

    def step_pmf(self, k: int) -> Fraction:
        """Law of the associated walk step, nu(k) = mu(k + 1) for k >= -1."""
        return self.exact_pmf(k + 1)

    def sample_counts(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.is_geometric:
            return rng.geometric(0.5, size=size).astype(np.int64) - 1
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
        vals = []
        for v, p in pmf.items():
            fv = v if isinstance(v, (int, Fraction)) else v
            vals.append((fv, _as_fraction(p)))
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
        if self._int_valued and self.support == (-1, 0, 1):
            return rng.integers(-1, 2, size=size).astype(np.int64)
        if self._int_valued and self.support == (-1, 1):
            return 2 * rng.integers(0, 2, size=size).astype(np.int64) - 1
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


@dataclass(frozen=True)
class SampleConfig:
    """What to draw: a measure token, its parameters, and the seed."""

    measure: str
    seed: int
    n: Optional[int] = None
    x: Label = 0
    max_rejections: int = 50_000_000

    def __post_init__(self) -> None:
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}, pick from {MEASURES}")
        if self.measure.endswith("-n") or "-n-" in self.measure:
            if self.n is None:
                raise ValueError(f"measure {self.measure} needs n")


@dataclass(frozen=True)
class ImportanceSample:
    """One re-rooted draw with its unbiasing weight.

    Invalid draws (the label minimum is not unique, or is attained off the
    leaves) carry weight 0 and return the un-rerooted tree.
    """

    tree: SpatialTree
    weight: float
    valid: bool


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


def _rotate_rows(rows: np.ndarray) -> np.ndarray:
    """Cycle-lemma rotation of count rows, each summing to one less than its length.

    The rotation starting right after the first minimum of the partial sums
    of (c - 1) is the unique one that encodes a tree in preorder.
    """
    m = rows.shape[1]
    partial = np.cumsum(rows - 1, axis=1)
    jstar = np.argmin(partial, axis=1)  # first position of the minimum
    start = (jstar + 1) % m
    idx = (start[:, None] + np.arange(m)[None, :]) % m
    return np.take_along_axis(rows, idx, axis=1)


def _composition_rows(n: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Uniform weak compositions of n into n+1 parts, one per row."""
    if n == 0:
        return np.zeros((rows, 1), dtype=np.int64)
    slots = 2 * n
    u = rng.random((rows, slots))
    bars = np.sort(np.argpartition(u, n - 1, axis=1)[:, :n], axis=1)
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
    """Rotated preorder count rows of trees with n edges, one tree per row."""
    _check_size_reachable(mu, n)
    if mu.is_geometric:
        return _rotate_rows(_composition_rows(n, rng, rows))
    if n == 0:
        return np.zeros((rows, 1), dtype=np.int64)
    got: list[np.ndarray] = []
    have = 0
    # aim for enough raw blocks that each batch lands a healthy number of hits
    hit = 1.0 / max(1.0, math.sqrt(2 * math.pi * float(mu.variance) * (n + 1)))
    while have < rows:
        want = rows - have
        batch = int(min(max(256, want / hit * 1.3), max(256, 4_000_000 // (n + 1))))
        block = mu.sample_counts(rng, batch * (n + 1)).reshape(batch, n + 1)
        good = block[block.sum(axis=1) == n]
        if len(good):
            got.append(good[:want])
            have += min(len(good), want)
    return _rotate_rows(np.concatenate(got, axis=0) if len(got) > 1 else got[0])


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


def _positive(labels: np.ndarray, strict: bool) -> np.ndarray:
    """Rows whose non-root labels are all positive (or all nonnegative)."""
    return labels[:, 1:].min(axis=1) > (0 if strict else -1)


def sample_conditioned(
    mu: OffspringDistribution,
    gamma: StepDistribution,
    n: int,
    x: Label,
    rng: np.random.Generator,
    strict: bool = True,
    max_rejections: int = 50_000_000,
) -> SpatialTree:
    """One labelled tree with n edges, all non-root labels positive.

    Rejection from the size-conditioned law; with strict=False the labels
    only need to be nonnegative.  The root label x must be nonnegative, and
    a zero-edge draw is vacuously accepted.
    """
    if x < 0:
        raise NegativeRootLabel("root label must be nonnegative for positivity conditioning")
    batch, attempts = _conditioned_rows(
        mu, gamma, n, x, 1, rng, strict=strict, max_attempts=max_rejections
    )
    if not batch:
        raise RejectionBudgetExhausted(
            f"no accepted draw in {max_rejections} attempts at n={n}"
        )
    counts, labels = batch[0]
    return SpatialTree(PlaneTree(counts), labels)


def _conditioned_rows(
    mu: OffspringDistribution,
    gamma: StepDistribution,
    n: int,
    x: Label,
    count: int,
    rng: np.random.Generator,
    strict: bool = True,
    max_attempts: Optional[int] = None,
) -> tuple[list[tuple[tuple, tuple]], int]:
    """Accepted (counts, labels) rows with positivity, and the attempt total."""
    if n == 0:
        return [((0,), (x,)) for _ in range(count)], count
    out: list[tuple[tuple, tuple]] = []
    attempts = 0
    cap = max(64, min(8192, 1_000_000 // (n + 1)))
    while len(out) < count:
        if max_attempts is not None and attempts >= max_attempts:
            break
        chunk = max(16, min(cap, 2 * (count - len(out))))
        rows = _sized_count_rows(mu, n, rng, chunk)
        labels = _label_rows(_subtree_ends(rows), gamma.sample(rng, (chunk, n)), x)
        # rows are attempts in order, up to the wanted count or the budget
        look = chunk if max_attempts is None else min(chunk, max_attempts - attempts)
        hits = np.flatnonzero(_positive(labels[:look], strict))[: count - len(out)]
        attempts += int(hits[-1]) + 1 if len(out) + len(hits) == count else look
        out.extend((tuple(rows[i].tolist()), (x, *labels[i, 1:].tolist())) for i in hits)
    return out, attempts


def sample_conditioned_batch(
    mu: OffspringDistribution,
    gamma: StepDistribution,
    n: int,
    x: Label,
    count: int,
    rng: np.random.Generator,
    strict: bool = True,
    max_attempts: Optional[int] = None,
) -> tuple[list[SpatialTree], int]:
    """Array-pipeline version of repeated sample_conditioned draws."""
    rows, attempts = _conditioned_rows(
        mu, gamma, n, x, count, rng, strict=strict, max_attempts=max_attempts
    )
    if len(rows) < count:
        raise RejectionBudgetExhausted(
            f"{len(rows)} accepted of {count} wanted in {attempts} attempts"
        )
    return [SpatialTree(PlaneTree(c), l) for c, l in rows], attempts


def estimate_positive_probability(
    mu: OffspringDistribution,
    gamma: StepDistribution,
    n: int,
    x: Label,
    attempts: int,
    rng: np.random.Generator,
    strict: bool = True,
) -> int:
    """How many of the given number of conditioned draws keep labels positive."""
    if n == 0:
        return attempts
    accepted = 0
    done = 0
    chunk = max(64, min(16384, 2_000_000 // (n + 1)))
    while done < attempts:
        take = min(chunk, attempts - done)
        rows = _sized_count_rows(mu, n, rng, take)
        labels = _label_rows(_subtree_ends(rows), gamma.sample(rng, (take, n)), x)
        accepted += int(_positive(labels, strict).sum())
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
        labels = _label_rows(_subtree_ends(rows), gamma.sample(rng, (take, max(1, n))), x)
        mins[done : done + take] = labels.min(axis=1)
        maxs[done : done + take] = labels.max(axis=1)
        done += take
    return mins, maxs


def sample_leaf_counts(
    mu: OffspringDistribution,
    n: int,
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Leaf counts of size-conditioned trees (childless non-root vertices)."""
    out = np.empty(samples, dtype=np.int64)
    done = 0
    chunk = max(16, min(8192, 2_000_000 // (n + 1)))
    while done < samples:
        take = min(chunk, samples - done)
        rows = _sized_count_rows(mu, n, rng, take)
        zero = rows == 0
        if n == 0:
            out[done : done + take] = 0
        else:
            out[done : done + take] = zero.sum(axis=1) - (rows[:, 0] == 0)
        done += take
    return out


# ---------------------------------------------------------------------------
# measures with a single-child root and the re-rooting importance sampler


def sample_q_tree(mu: OffspringDistribution, rng: np.random.Generator, n: Optional[int] = None) -> PlaneTree:
    """A tree whose root has exactly one child; with n, exactly n edges."""
    if n is None:
        sub = sample_gw(mu, rng)
    else:
        if n < 1:
            raise ValueError("a single-child root needs at least one edge")
        sub = sample_gw_sized(mu, n - 1, rng)
    return PlaneTree((1,) + sub.counts)


def sample_reroot_importance(
    mu: OffspringDistribution,
    gamma: StepDistribution,
    n: int,
    rng: np.random.Generator,
) -> ImportanceSample:
    """Draw from the single-child-root law at root label 0, then re-root.

    The draw is valid when the overall label minimum (root included) is
    attained at a unique vertex and that vertex is a leaf; the re-rooted
    tree is returned with weight one over its leaf count, so that weighted
    means of functionals of the output estimate the corresponding
    positive-label expectations.  Invalid draws carry weight zero.
    """
    t = sample_q_tree(mu, rng, n)
    s = sample_spatial(t, gamma, 0, rng)
    ml = min_label(s, include_root=True)
    i = s.tree.index_of[ml.first]
    valid = len(ml.argmin) == 1 and i != 0 and s.tree.counts[i] == 0
    if not valid:
        return ImportanceSample(s, 0.0, False)
    r = reroot_at(s, ml.first)
    return ImportanceSample(r, 1.0 / len(leaves(r.tree)), True)


def draw_measure(
    config: SampleConfig,
    mu: OffspringDistribution,
    gamma: StepDistribution,
    rng: np.random.Generator,
) -> Union[PlaneTree, SpatialTree]:
    """One draw from the measure named in the config.

    Plain-tree measures return a PlaneTree; the labelled ones return a
    SpatialTree.  The single-child-root family is rooted at label 0.
    """
    m = config.measure
    if m == "Pi":
        return sample_gw(mu, rng)
    if m == "Pi-n":
        return sample_gw_sized(mu, config.n, rng)
    if m == "P-x":
        return sample_spatial(sample_gw(mu, rng), gamma, config.x, rng)
    if m == "P-n-x":
        return sample_spatial(sample_gw_sized(mu, config.n, rng), gamma, config.x, rng)
    if m == "Pbar-n-x":
        return sample_conditioned(
            mu, gamma, config.n, config.x, rng, max_rejections=config.max_rejections
        )
    if m == "Q":
        return sample_spatial(sample_q_tree(mu, rng), gamma, 0, rng)
    if m == "Q-n":
        return sample_spatial(sample_q_tree(mu, rng, config.n), gamma, 0, rng)
    if m == "Qbar-n":
        for _ in range(config.max_rejections):
            s = sample_spatial(sample_q_tree(mu, rng, config.n), gamma, 0, rng)
            if all(x > 0 for x in s.labels[1:]):
                return s
        raise RejectionBudgetExhausted(f"budget spent on {m} at n={config.n}")
    raise ValueError(f"unknown measure {m!r}")


def spawn_rngs(seed: int, streams: int) -> list[np.random.Generator]:
    """Independent child generators derived from one seed, one per stream."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(streams)]
