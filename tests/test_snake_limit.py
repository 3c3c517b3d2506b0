"""Tests for the discretized Brownian snake and its rescaling helpers.

The distributional oracles here were frozen after brute-force runs from the
bridge definition.  Two constants matter and are easy to mix up: the
excursion marginal at time 1/2 has mean sqrt(2/pi) (Maxwell law scaled by
1/2), while sqrt(pi/8) is the expected area under the excursion, equal to
the mean at a uniformly chosen time.  The grid construction rotates at the
discrete bridge argmin, which sits above the continuum minimum by about
0.5826/sqrt(m) on average, so grid averages sit below the continuum
constants by that same offset; the frozen bands account for it.
"""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from treesnake import plane_tree
from treesnake.plane_tree import build_tree, contour_of
from treesnake.spatial_tree import SpatialTree, spatial_contour
from treesnake.snake_limit import (
    EmptySample,
    LengthMismatch,
    NonUniqueMinimum,
    RescaledPath,
    SnakePath,
    _excursion_rows,
    _snake_head_rows,
    functionals,
    ks_report,
    ks_two_sample,
    rescale_discrete,
    sample_excursion,
    sample_extrema,
    sample_positive_snake,
    sample_snake,
    samples_csv,
    to_lattice,
    verwaat_reroot,
)

GRID_MIN_OFFSET = 0.5826  # mean gap between discrete and continuum bridge minima, per unit step sd


def reference_excursion_rows(m, count, rng):
    """The bridge-and-rotate construction with a modulo index, as an oracle."""
    walk = rng.standard_normal((count, m)) / math.sqrt(m)
    np.cumsum(walk, axis=1, out=walk)
    drift = walk[:, -1:] * (np.arange(1, m + 1) / m)
    bridge = np.empty((count, m + 1))
    bridge[:, 0] = 0.0
    bridge[:, 1:] = walk - drift
    bridge[:, m] = 0.0
    k = np.argmin(bridge[:, :m], axis=1)
    idx = (k[:, None] + np.arange(m + 1)) % m
    rows = np.take_along_axis(bridge[:, :m], idx, axis=1)
    rows -= bridge[np.arange(count), k][:, None]
    rows[:, m] = 0.0
    return rows


def reference_head_rows(e, r, rng):
    """One sample at a time with a plain anchor list, as an oracle.

    The normals are drawn in the documented order, the bridge normals and
    then the rise normals of all samples, two standard_normal(count) calls
    a step.
    """
    count, mp1 = e.shape
    normals = [(rng.standard_normal(count), rng.standard_normal(count)) for _ in range(mp1 - 1)]
    out = np.empty((count, mp1))
    for j in range(count):
        anchors = [(0.0, float(r))]
        out[j, 0] = r
        for i, (bridge_normal, rise_normal) in enumerate(normals):
            level = min(e[j, i], e[j, i + 1])
            dropped = None
            while anchors[-1][0] > level:
                dropped = anchors.pop()
            h0, w0 = anchors[-1]
            w = w0
            if dropped is not None:
                h1, w1 = dropped
                span = h1 - h0
                w = w0 + (level - h0) / span * (w1 - w0)
                w += math.sqrt((level - h0) * (h1 - level) / span) * bridge_normal[j]
            if level > h0:
                anchors.append((level, w))
            z = w + math.sqrt(e[j, i + 1] - level) * rise_normal[j]
            if e[j, i + 1] > level:
                anchors.append((e[j, i + 1], z))
            out[j, i + 1] = z
    return out


@pytest.fixture(scope="module")
def excursion_batch():
    """10^5 excursions at m = 2^12, reduced to the columns the tests need."""
    m = 4096
    total = 100_000
    rng = np.random.default_rng(20240811)
    mid = np.empty(total)
    quarter = np.empty(total)
    three_quarter = np.empty(total)
    area = np.empty(total)
    done = 0
    while done < total:
        take = min(4096, total - done)
        rows = _excursion_rows(m, take, rng)
        mid[done : done + take] = rows[:, m // 2]
        quarter[done : done + take] = rows[:, m // 4]
        three_quarter[done : done + take] = rows[:, 3 * m // 4]
        area[done : done + take] = rows[:, :m].mean(axis=1)
        done += take
    return m, mid, quarter, three_quarter, area


class TestExcursion:
    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            sample_excursion(1, np.random.default_rng(0))

    def test_endpoints_and_sign(self):
        rng = np.random.default_rng(3)
        for m in (2, 3, 16, 257):
            e = sample_excursion(m, rng)
            assert len(e) == m + 1
            assert e[0] == 0.0 and e[m] == 0.0
            assert e.min() == 0.0

    def test_reproducible(self):
        a = sample_excursion(64, np.random.default_rng(11))
        b = sample_excursion(64, np.random.default_rng(11))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("m", [2, 3, 257, 4096])
    @pytest.mark.parametrize("count", [1, 255, 257, 600])
    def test_rows_equal_the_modulo_index_construction(self, m, count):
        got = _excursion_rows(m, count, np.random.default_rng(m + count))
        want = reference_excursion_rows(m, count, np.random.default_rng(m + count))
        assert got.tobytes() == want.tobytes()

    def test_memory_stays_under_three_result_arrays(self):
        # the walk and the result are the batch-sized arrays; the modulo
        # index construction held about five of them at once
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            _excursion_rows(4096, 512, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 512 * 4097 * 8

    def test_memory_stays_under_five_quarters_of_the_result(self):
        # the walk is drawn one row block at a time into the result rows
        _excursion_rows(4096, 512, np.random.default_rng(1))  # first-call allocations
        tracemalloc.start()
        try:
            _excursion_rows(4096, 512, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 512 * 4097 * 8

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: [_excursion_rows(4096, 130, rng).tobytes()],
            lambda rng: [a.tobytes() for a in sample_extrema(256, 30, rng)],
        ],
        ids=["excursion_rows", "sample_extrema"],
    )
    def test_rows_do_not_depend_on_the_block(self, monkeypatch, draw):
        rng = np.random.default_rng(21)
        want = draw(rng), rng.random(4).tobytes()
        monkeypatch.setattr(plane_tree, "_BLOCK_ENTRIES", 1)  # one row a block
        rng = np.random.default_rng(21)
        assert (draw(rng), rng.random(4).tobytes()) == want

    def test_midpoint_mean(self, excursion_batch):
        # continuum marginal mean is sqrt(2/pi); the grid argmin offset
        # pulls the whole path down by about GRID_MIN_OFFSET/sqrt(m)
        m, mid, _, _, _ = excursion_batch
        target = math.sqrt(2.0 / math.pi) - GRID_MIN_OFFSET / math.sqrt(m)
        se = mid.std() / math.sqrt(len(mid))
        assert abs(mid.mean() - target) < 4 * se
        gap = mid.mean() - math.sqrt(2.0 / math.pi)
        assert -0.013 < gap < -0.004

    def test_area_mean(self, excursion_batch):
        # expected area under the excursion is sqrt(pi/8), biased down by
        # the same argmin offset as every fixed-time average
        m, _, _, _, area = excursion_batch
        target = math.sqrt(math.pi / 8.0) - GRID_MIN_OFFSET / math.sqrt(m)
        se = area.std() / math.sqrt(len(area))
        assert abs(area.mean() - target) < 4 * se

    def test_time_reversal_marginal(self, excursion_batch):
        _, _, quarter, three_quarter, _ = excursion_batch
        assert ks_two_sample(quarter, three_quarter) < 0.02


class TestSnakePathValidation:
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            SnakePath(4, np.zeros(4), np.zeros(5))

    def test_lifetime_must_be_excursion(self):
        with pytest.raises(ValueError):
            SnakePath(2, np.array([0.0, -1.0, 0.0]), np.zeros(3))
        with pytest.raises(ValueError):
            SnakePath(2, np.array([0.0, 1.0, 0.5]), np.zeros(3))

    def test_head_starts_at_initial(self):
        with pytest.raises(ValueError):
            SnakePath(2, np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]), 0.0)

    def test_arrays_frozen(self):
        p = sample_snake(8, np.random.default_rng(0))
        with pytest.raises(ValueError):
            p.head[0] = 5.0


class TestSnakeHead:
    def test_degenerate_lifetime_gives_constant_head(self):
        z = _snake_head_rows(np.zeros((1, 2)), 1.5, np.random.default_rng(2))[0]
        p = SnakePath(1, np.zeros(2), z, 1.5)
        assert np.array_equal(p.head, np.array([1.5, 1.5]))

    @pytest.mark.parametrize("e", [[0.0, -1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.5]])
    def test_rejects_a_lifetime_that_is_not_an_excursion(self, e):
        with pytest.raises(ValueError, match="nonnegative excursion"):
            SnakePath(len(e) - 1, np.array(e), np.zeros(len(e)))

    def test_reproducible(self):
        a = sample_snake(32, np.random.default_rng(6))
        b = sample_snake(32, np.random.default_rng(6))
        assert np.array_equal(a.excursion, b.excursion)
        assert np.array_equal(a.head, b.head)

    def test_covariance_matches_interval_minima(self):
        # fixed sawtooth lifetime; empirical cov(Z(s), Z(s')) must equal
        # the minimum of e between s and s'
        e = np.array([0.0, 0.5, 1.0, 0.75, 1.25, 0.25, 0.6, 0.3, 0.0])
        count = 100_000
        rows = np.tile(e, (count, 1))
        z = _snake_head_rows(rows, 0.0, np.random.default_rng(41))
        pairs = [(1, 3), (2, 4), (1, 7), (3, 5), (4, 6)]
        for i, j in pairs:
            want = e[i : j + 1].min()
            prod = z[:, i] * z[:, j]
            got = prod.mean()
            se = prod.std() / math.sqrt(count)
            assert abs(got - want) < 3 * se, (i, j, got, want)

    def test_variance_matches_lifetime(self):
        e = np.array([0.0, 0.5, 1.0, 0.75, 1.25, 0.25, 0.6, 0.3, 0.0])
        count = 100_000
        z = _snake_head_rows(np.tile(e, (count, 1)), 0.0, np.random.default_rng(43))
        for s in (2, 4, 6):
            var = z[:, s].var()
            se = np.sqrt(2.0 / count) * e[s]  # sd of a chi-square mean estimate
            assert abs(var - e[s]) < 4 * se

    @pytest.mark.parametrize(
        "case",
        ["tall_tent", "one_step", "m300", "r1.5", "flat_steps", "excursions_257x300"],
    )
    def test_rows_equal_the_scalar_walker(self, case):
        r = 0.0
        if case == "tall_tent":
            # 300 rises in a row: the stacks outgrow their first allocations
            tent = np.concatenate([np.arange(301), np.arange(299, -1, -1)]) / 300.0
            e = np.stack([tent, tent**2, np.sqrt(tent)])
        elif case == "one_step":
            e = np.zeros((3, 2))
        elif case == "m300":
            e = _excursion_rows(300, 5, np.random.default_rng(1))
        elif case == "r1.5":
            e = _excursion_rows(64, 7, np.random.default_rng(2))
            r = 1.5
        elif case == "flat_steps":
            e = np.array(
                [
                    [0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0, 3.0, 3.0, 0.5, 0.5, 1.0, 0.0],
                    [0.0, 0.5, 1.0, 0.5, 0.5, 1.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.5, 0.5, 0.0],
                ]
            )
        else:
            e = _excursion_rows(300, 257, np.random.default_rng(3))
        rng, ref_rng = np.random.default_rng(40), np.random.default_rng(40)
        got = _snake_head_rows(e, r, rng)
        want = reference_head_rows(e, r, ref_rng)
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()
        z_min, z_max = _snake_head_rows(e, r, np.random.default_rng(40), keep_paths=False)
        assert z_min.tobytes() == want.min(axis=1).tobytes()
        assert z_max.tobytes() == want.max(axis=1).tobytes()

    def test_extrema_batch_matches_full_paths(self):
        sups, infs = sample_extrema(64, 300, np.random.default_rng(9), batch=100)
        rng = np.random.default_rng(9)
        e = _excursion_rows(64, 100, rng)
        z = _snake_head_rows(e, 0.0, rng)
        assert np.array_equal(sups[:100], z.max(axis=1))
        assert np.array_equal(infs[:100], z.min(axis=1))


class TestVerwaatReroot:
    def test_requires_zero_start(self):
        p = sample_snake(2, np.random.default_rng(1), r=2.0)
        with pytest.raises(ValueError):
            verwaat_reroot(p)

    def test_detects_tied_minimum(self):
        p = SnakePath(
            4,
            np.array([0.0, 1.0, 2.0, 1.0, 0.0]),
            np.array([0.0, -1.0, 0.0, -1.0, 0.0]),
        )
        with pytest.raises(NonUniqueMinimum):
            verwaat_reroot(p)

    def test_per_sample_identities(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            p = sample_snake(48, rng)
            q = verwaat_reroot(p)
            assert q.initial == 0.0
            assert q.head[0] == 0.0
            assert q.head.min() == 0.0
            assert abs(q.head.max() - (p.head.max() - p.head.min())) < 1e-12
            assert q.excursion[0] == 0.0 and q.excursion[-1] == 0.0
            assert (q.excursion >= 0.0).all()

    def test_lifetime_is_tree_distance_to_argmin(self):
        rng = np.random.default_rng(77)
        p = sample_snake(32, rng)
        q = verwaat_reroot(p)
        e, z, m = p.excursion, p.head, 32
        star = int(np.argmin(z[:m]))
        for j in range(m + 1):
            u = (star + j) % m
            lo, hi = min(star, u), max(star, u)
            want = e[star] + e[u] - 2.0 * e[lo : hi + 1].min()
            if j in (0, m):
                want = 0.0
            assert abs(q.excursion[j] - want) < 1e-12

    # sha256 of the lifetime then head bytes, recorded from the code that
    # computed the interval minima in verwaat_reroot itself, before the
    # shared re-rooting kernel: the kernel changes no bit
    @pytest.mark.parametrize("seed, digest", [
        (1, "4082ff4d114103e27095ad9a70296508faf911ea6f26c3250cce2cd1ea7a5595"),
        (2, "e111cb6c601ddbb3d237fc5a6f8b8fd2c7a53ea0152c416dc54a85518788873e"),
        (3, "f2ad1af4b22b9f808a74e2e6fb80a92def3463dde67294bb98adaa6a207205fd"),
    ])
    def test_arrays_keep_their_bytes(self, seed, digest):
        q = verwaat_reroot(sample_snake(1024, np.random.default_rng(seed)))
        assert hashlib.sha256(q.excursion.tobytes() + q.head.tobytes()).hexdigest() == digest

    def test_positive_pipeline(self):
        q = sample_positive_snake(64, np.random.default_rng(21))
        assert q.head.min() == 0.0 and q.head[0] == 0.0

    def test_regeneration_budget(self):
        with pytest.raises(NonUniqueMinimum):
            sample_positive_snake(16, np.random.default_rng(0), max_regenerations=0)


def two_edge_cherry():
    tree = build_tree((2, 0, 0))
    return SpatialTree(tree, (0, 1, -1))


class TestRescaleDiscrete:
    def test_length_mismatch(self):
        wt = two_edge_cherry()
        c = contour_of(wt.tree)
        v = spatial_contour(wt)
        with pytest.raises(LengthMismatch):
            rescale_discrete(c, v, 3, math.sqrt(2.0), math.sqrt(2.0 / 3.0))

    def test_constants_and_endpoints(self):
        wt = two_edge_cherry()
        r = rescale_discrete(
            contour_of(wt.tree), spatial_contour(wt), 2, math.sqrt(2.0), math.sqrt(2.0 / 3.0)
        )
        assert r.contour[0] == 0.0 and r.contour[-1] == 0.0
        assert abs(r.kappa - (9.0 / 8.0) ** 0.25) < 1e-12
        assert r.times[0] == 0.0 and r.times[-1] == 1.0

    def test_head_scaling_hits_max_label(self):
        # root label 0: the rescaled head sup is kappa n^(-1/4) max label
        wt = two_edge_cherry()
        n = 2
        r = rescale_discrete(
            contour_of(wt.tree), spatial_contour(wt), n, math.sqrt(2.0), math.sqrt(2.0 / 3.0)
        )
        want = r.kappa * max(wt.labels) / n**0.25
        assert abs(r.head.max() - want) < 1e-12

    def test_linearity(self):
        wt = two_edge_cherry()
        c = contour_of(wt.tree)
        v = spatial_contour(wt)
        r = rescale_discrete(c, v, 2, math.sqrt(2.0), math.sqrt(2.0 / 3.0))
        doubled = type(c)(values=tuple(2 * h for h in c.values))
        r2 = rescale_discrete(doubled, v, 2, math.sqrt(2.0), math.sqrt(2.0 / 3.0))
        assert np.allclose(r2.contour, 2.0 * r.contour)

    def test_interpolation(self):
        wt = two_edge_cherry()
        r = rescale_discrete(
            contour_of(wt.tree), spatial_contour(wt), 2, math.sqrt(2.0), math.sqrt(2.0 / 3.0)
        )
        mid = 0.5 * (r.contour[0] + r.contour[1])
        assert abs(r.contour_at(1.0 / 8.0) - mid) < 1e-12
        assert abs(r.head_at(0.0) - r.head[0]) < 1e-12


class TestKolmogorovSmirnov:
    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            ks_two_sample(np.array([]), np.array([1.0]))

    def test_identical_samples(self):
        assert ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint_singletons(self):
        assert ks_two_sample([0.0], [1.0]) == 1.0

    def test_same_law_noise_floor(self):
        rng = np.random.default_rng(55)
        a = rng.standard_normal(10_000)
        b = rng.standard_normal(10_000)
        assert ks_two_sample(a, b) < 0.03

    def test_report_shape(self):
        rep = ks_report([0.0, 1.0], [0.5, 1.5], threshold=0.9)
        assert set(rep) == {"statistic", "n_a", "n_b", "threshold", "pass"}
        assert rep["n_a"] == 2 and rep["n_b"] == 2
        assert rep["pass"] is True

    def test_to_lattice_rounds_to_nearest_cell(self):
        cells = to_lattice([0.24, 0.26, -1.26, 3.0], 2.0)
        assert cells.dtype == np.int64
        assert cells.tolist() == [0, 1, -3, 6]

    def test_lattice_ks_removes_the_point_mass_floor(self):
        # Same law on both sides, one of them rounded to a lattice of
        # spacing 1/2: the raw KS is stuck above half the largest point
        # mass, the KS on the lattice is at the sampling noise, and moving
        # the lattice sample by one cell is caught.
        rng = np.random.default_rng(56)
        scale = 2.0
        size = 4000
        ref = rng.standard_normal(size)
        cells = to_lattice(rng.standard_normal(size), scale)
        p_max = np.unique(cells, return_counts=True)[1].max() / size
        critical = 1.628 * math.sqrt(2.0 / size)  # two-sample KS, 1% level
        assert ks_two_sample(cells / scale, ref) >= p_max / 2 > critical
        assert ks_two_sample(cells, to_lattice(ref, scale)) < critical
        assert ks_two_sample(cells + 1, to_lattice(ref, scale)) > critical
        assert ks_two_sample(cells - 1, to_lattice(ref, scale)) > critical


class TestFunctionals:
    def test_constant_path(self):
        p = SnakePath(1, np.zeros(2), np.full(2, 2.0), 2.0)
        f = functionals(p)
        assert f.range == 0.0
        assert abs(f.occupation[0].sum() - 1.0) < 1e-12

    def test_occupation_is_probability(self):
        p = sample_snake(256, np.random.default_rng(31))
        f = functionals(p, bins=40)
        assert abs(f.occupation[0].sum() - 1.0) < 1e-9
        assert abs(f.shifted_occupation[0].sum() - 1.0) < 1e-9
        assert f.shifted_occupation[1][0] >= -1e-12

    def test_range_preserved_by_rerooting(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            p = sample_snake(64, rng)
            q = verwaat_reroot(p)
            assert abs(functionals(p).range - functionals(q).range) < 1e-12

    def test_sup_after_rerooting_is_old_range(self):
        rng = np.random.default_rng(12)
        p = sample_snake(128, rng)
        q = verwaat_reroot(p)
        assert abs(q.head.max() - functionals(p).range) < 1e-12


class TestCsvExport:
    def test_single_column_layout(self):
        text = samples_csv(np.array([1.5, -2.0]))
        lines = text.strip().split("\n")
        assert lines[0] == "value"
        assert float(lines[1]) == 1.5
        assert float(lines[2]) == -2.0
