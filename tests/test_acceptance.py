"""Acceptance suite: ten pinned criteria, one per test, each printing a
single pass/fail line with the measured quantity.

The tolerances are frozen; nothing here adapts to the data.  Criteria 7-9
compare lattice-valued statistics of finite trees and maps (label ranges,
graph distances: integers, rescaled by n^(-1/4)) with grid samples of the
continuum limit at fixed sizes.  A plain two-sample KS of an integer sample
against a continuous one can never fall below half the largest point mass
of the integer sample, whatever the two laws are, and at the pinned sizes
that floor alone exceeds the thresholds.  So the asserted statistic is the
KS on the lattice: the continuum reference times n^(1/4) is mapped to its
nearest integer (``to_lattice``) and compared with the integer sample.  The
raw KS of the rescaled sample and its floor p_max/2 are printed beside it
as diagnostics only.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from treesnake.exact_enum import (
    count_well_labelled,
    default_functionals,
    labelled_atoms,
    verify_reroot_identity,
    verify_reroot_identity_closed,
    verify_size_law,
)
from treesnake.gw_sampler import (
    OffspringDistribution,
    StepDistribution,
    estimate_positive_probability,
    sample_label_extrema,
    sample_leaf_counts,
    sample_reroot_importance,
)
from treesnake.plane_tree import PlaneTree
from treesnake.quadmap import (
    cvs_build,
    cvs_inverse,
    distances,
    enumerate_well_labelled,
    sample_radius_and_distance,
)
from treesnake.snake_limit import ks_two_sample, sample_extrema, to_lattice
from treesnake.spatial_tree import SpatialTree

GEO = OffspringDistribution.geometric_half()
UNIFORM3 = StepDistribution.uniform3()
PM1 = StepDistribution.uniform_pm1()
CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430)
KAPPA = (9.0 / 8.0) ** 0.25


def report(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def lattice_comparison(
    cells: np.ndarray, ref: np.ndarray, n: int
) -> tuple[float, float, float]:
    """KS of integer cells against ref on the lattice, with the raw KS and floor.

    Returns (lattice KS, raw KS of cells/n^(1/4) against ref, p_max/2).
    """
    scale = n**0.25
    ks = ks_two_sample(cells, to_lattice(ref, scale))
    raw = ks_two_sample(cells / scale, ref)
    floor = np.unique(cells, return_counts=True)[1].max() / len(cells) / 2
    return ks, raw, floor


@pytest.fixture(scope="module")
def continuum():
    """(sup, inf) pairs of the snake head: grid 2^12, 10^4 samples."""
    return sample_extrema(4096, 10_000, np.random.default_rng(20240817))


@pytest.fixture(scope="module")
def quad_500():
    """Radius and uniform non-root distance over 5000 maps with 500 faces."""
    return sample_radius_and_distance(500, 5000, np.random.default_rng(20240818))


def test_criterion_01_exact_counts():
    rows = []
    ok = True
    for n in range(1, 7):
        total, positive, ratio = count_well_labelled(n)
        ok &= total == 3**n * CATALAN[n]
        ok &= ratio == Fraction(2, n + 2)
        if n <= 3:
            ok &= positive == (2, 9, 54)[n - 1]
        rows.append(f"n={n}:{total}/{positive}")
    line = report(1, ok, "counts and ratios exact for n=1..6 (" + " ".join(rows) + ")")
    assert ok, line


def test_criterion_02_reroot_identities():
    ok = True
    for gamma, name in ((UNIFORM3, "uniform3"), (PM1, "pm1")):
        for n in range(1, 6):
            ok &= verify_reroot_identity(n, GEO, gamma)["equal"]
            ok &= verify_reroot_identity_closed(n, GEO, gamma)["equal"]
    line = report(2, ok, "open and closed re-rooting identities exact, n<=5, both step laws")
    assert ok, line


def test_criterion_03_size_law():
    result = verify_size_law(GEO, 8)
    ok = result["equal"]
    line = report(3, ok, f"size law exact for sizes 1..8 ({result['terms']} trees)")
    assert ok, line


def test_criterion_04_bijection_battery():
    checked = 0
    bad = 0
    for n in range(1, 6):
        for wt in enumerate_well_labelled(n):
            q = cvs_build(wt)
            q.validate()
            prof = distances(q)
            want = dict(Counter(wt.labels) + Counter({0: 1}))
            back = cvs_inverse(q)
            good = (
                dict(prof.counts) == want
                and back.tree == wt.tree
                and tuple(back.labels) == tuple(wt.labels)
            )
            bad += not good
            checked += 1
    ok = bad == 0 and checked == 2 + 9 + 54 + 378 + 2916
    line = report(4, ok, f"quadrangulation battery on {checked} trees, {bad} failures")
    assert ok, line


def test_criterion_05_positive_probability():
    rng = np.random.default_rng(20240815)
    attempts = 1_000_000
    acc = estimate_positive_probability(GEO, UNIFORM3, 50, 1, attempts, rng)
    est = acc / attempts
    target = 1.0 / 26.0
    se = math.sqrt(target * (1 - target) / attempts)
    ok = abs(est - target) < 3 * se
    brackets = []
    for n in (20, 50, 100):
        tries = 200_000
        scaled = n * estimate_positive_probability(GEO, UNIFORM3, n, 1, tries, rng) / tries
        brackets.append(scaled)
        ok &= 1.0 <= scaled <= 3.0
    line = report(
        5,
        ok,
        f"P(positive)={est:.6f} vs 1/26={target:.6f} (3SE={3 * se:.6f}); "
        f"n*est={','.join(f'{b:.2f}' for b in brackets)}",
    )
    assert ok, line


def test_criterion_06_leaf_fraction():
    counts = sample_leaf_counts(GEO, 200, 10_000, np.random.default_rng(20240816))
    frac = counts.mean() / 201.0
    ok = abs(frac - 0.5) < 0.02
    line = report(6, ok, f"mean leaf fraction {frac:.4f} vs 1/2 within 0.02")
    assert ok, line


def test_criterion_07_contour_range_law(continuum):
    sups, infs = continuum
    disc_min, disc_max = sample_label_extrema(
        GEO, UNIFORM3, 2000, 0, 10_000, np.random.default_rng(20240819)
    )
    ks, raw, floor = lattice_comparison(disc_max - disc_min, (sups - infs) / KAPPA, 2000)
    ok = ks <= 0.05
    line = report(
        7, ok, f"lattice KS(range, continuum range/kappa) = {ks:.4f} "
        f"(threshold 0.05; raw KS {raw:.4f}, floor p_max/2 {floor:.4f})"
    )
    assert ok, line


def test_criterion_08_radius_law(continuum, quad_500):
    sups, infs = continuum
    radii, _, _ = quad_500
    ks, raw, floor = lattice_comparison(radii, (sups - infs) / KAPPA, 500)
    ok = ks <= 0.07
    line = report(
        8, ok, f"lattice KS(radius, continuum range/kappa) = {ks:.4f} "
        f"(threshold 0.07; raw KS {raw:.4f}, floor p_max/2 {floor:.4f})"
    )
    assert ok, line


def test_criterion_09_distance_law(continuum, quad_500):
    sups, _ = continuum
    _, dists, _ = quad_500
    ks, raw, floor = lattice_comparison(dists, sups / KAPPA, 500)
    ok = ks <= 0.07
    line = report(
        9, ok, f"lattice KS(root distance, continuum sup/kappa) = {ks:.4f} "
        f"(threshold 0.07; raw KS {raw:.4f}, floor p_max/2 {floor:.4f})"
    )
    assert ok, line


def test_criterion_10_importance_sampler():
    n = 4
    atoms = list(labelled_atoms(n, GEO, UNIFORM3, x=0, root_single_child=True))
    total = sum(w for _, w in atoms)
    measure = {(s.tree.counts, s.labels): w / total for s, w in atoms}
    fns = default_functionals(measure)

    # Keep only functionals whose conditioned expectation is nonzero, so the
    # comparison is never a vacuous 0 == 0, then spread five picks across them.
    informative = []
    for name, fn in fns:
        val = sum(
            (w / total) * fn(s)
            for s, w in atoms
            if min(s.labels[1:]) > 0
        )
        if val != 0:
            informative.append((name, fn, float(val)))
    picks = sorted({0, 1, len(informative) // 3, 2 * len(informative) // 3, len(informative) - 1})
    assert len(picks) == 5
    chosen = [(informative[i][0], informative[i][1]) for i in picks]
    exact = [informative[i][2] for i in picks]

    draws = 100_000
    rows, labels, weights = sample_reroot_importance(
        GEO, UNIFORM3, n, draws, np.random.default_rng(20240821)
    )
    # each functional once per distinct atom, then spread to the draws
    atoms, inverse = np.unique(np.hstack([rows, labels]), axis=0, return_inverse=True)
    trees = [SpatialTree(PlaneTree(tuple(a[: n + 1])), tuple(a[n + 1 :])) for a in atoms.tolist()]
    values = np.array([[float(fn(t)) for _, fn in chosen] for t in trees])
    vals = weights[:, None] * values[inverse.ravel()]

    ok = True
    details = []
    for k, (name, _) in enumerate(chosen):
        mean = vals[:, k].mean()
        se = vals[:, k].std() / math.sqrt(draws)
        good = abs(mean - exact[k]) <= 3 * se
        ok &= good
        details.append(f"{name}:{mean:.4f}~{exact[k]:.4f}")
    line = report(10, ok, "importance estimates vs exact: " + "; ".join(details))
    assert ok, line
