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

import math
import tracemalloc

import numpy as np
import pytest

from treesnake import plane_tree, snake_limit
from treesnake.snake_limit import (
    EmptySample,
    _excursion_rows,
    _head_blocks,
    ks_report,
    ks_two_sample,
    sample_extrema,
    to_lattice,
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


def reference_head_rows(e, rng):
    """One sample at a time with a plain anchor list, as an oracle.

    The normals are drawn in the documented order, one
    standard_normal(count) call a step.  Sample j spends entry j on the
    bridge when its lifetime steps down and on the rise otherwise.
    """
    count, mp1 = e.shape
    normals = [rng.standard_normal(count) for _ in range(mp1 - 1)]
    out = np.empty((count, mp1))
    for j in range(count):
        anchors = [(0.0, 0.0)]
        out[j, 0] = 0.0
        for i, normal in enumerate(normals):
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
                w += math.sqrt((level - h0) * (h1 - level) / span) * normal[j]
                z = w
            else:
                z = w + math.sqrt(e[j, i + 1] - level) * normal[j]
            if level > h0:
                anchors.append((level, w))
            if e[j, i + 1] > level:
                anchors.append((e[j, i + 1], z))
            out[j, i + 1] = z
    return out


def snake_head_rows(e, rng):
    """The (count, m+1) head rows of _head_blocks for excursion rows e."""
    z = np.zeros(e.shape)
    for start, heads in _head_blocks(e, rng):
        z[:, start + 1 : start + 1 + len(heads)] = heads.T
    return z


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
        for m in (-1, 0, 1):
            with pytest.raises(ValueError, match="at least two steps"):
                sample_extrema(m, 3, np.random.default_rng(0))

    def test_endpoints_and_sign(self):
        rng = np.random.default_rng(3)
        for m in (2, 3, 16, 257):
            e = _excursion_rows(m, 5, rng)
            assert e.shape == (5, m + 1)
            assert (e[:, 0] == 0.0).all() and (e[:, m] == 0.0).all()
            assert (e.min(axis=1) == 0.0).all()

    def test_reproducible(self):
        a = _excursion_rows(64, 3, np.random.default_rng(11))
        b = _excursion_rows(64, 3, np.random.default_rng(11))
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


def block_extrema(e, rng):
    """Each row's running (min, max) of the head, read off _head_blocks."""
    z_min, z_max = np.zeros(len(e)), np.zeros(len(e))
    for _, heads in _head_blocks(e, rng):
        np.minimum(z_min, heads.min(axis=0), out=z_min)
        np.maximum(z_max, heads.max(axis=0), out=z_max)
    return z_min, z_max


class TestSnakeHead:
    def test_degenerate_lifetime_gives_constant_head(self):
        z = snake_head_rows(np.zeros((2, 3)), np.random.default_rng(2))
        assert np.array_equal(z, np.zeros((2, 3)))

    def test_reproducible(self):
        a = sample_extrema(32, 4, np.random.default_rng(6))
        b = sample_extrema(32, 4, np.random.default_rng(6))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_covariance_matches_interval_minima(self):
        # fixed sawtooth lifetime; empirical cov(Z(s), Z(s')) must equal
        # the minimum of e between s and s'
        e = np.array([0.0, 0.5, 1.0, 0.75, 1.25, 0.25, 0.6, 0.3, 0.0])
        count = 100_000
        rows = np.tile(e, (count, 1))
        z = snake_head_rows(rows, np.random.default_rng(41))
        pairs = [(1, 3), (2, 4), (1, 7), (3, 5), (4, 6)]
        for i, j in pairs:
            want = e[i : j + 1].min()
            prod = z[:, i] * z[:, j]
            got = prod.mean()
            se = prod.std() / math.sqrt(count)
            assert abs(got - want) < 3 * se, (i, j, got, want)

    def test_every_covariance_matches_interval_minima(self):
        # every pair of interior times, variances included: a normal spent
        # twice, across the bridge and the rise or across two steps, shows
        # as a covariance off min e over [i, j]
        e = np.array([0.0, 0.5, 1.0, 0.75, 1.25, 0.25, 0.6, 0.3, 0.0])
        count = 200_000
        z = snake_head_rows(np.tile(e, (count, 1)), np.random.default_rng(47))
        for i in range(1, 8):
            for j in range(i, 8):
                want = e[i : j + 1].min()
                prod = z[:, i] * z[:, j]
                se = prod.std() / math.sqrt(count)
                assert abs(prod.mean() - want) < 4.5 * se, (i, j, prod.mean(), want)

    def test_variance_matches_lifetime(self):
        e = np.array([0.0, 0.5, 1.0, 0.75, 1.25, 0.25, 0.6, 0.3, 0.0])
        count = 100_000
        z = snake_head_rows(np.tile(e, (count, 1)), np.random.default_rng(43))
        for s in (2, 4, 6):
            var = z[:, s].var()
            se = np.sqrt(2.0 / count) * e[s]  # sd of a chi-square mean estimate
            assert abs(var - e[s]) < 4 * se

    @pytest.mark.parametrize(
        "case",
        ["tall_tent", "one_step", "m300", "flat_steps", "excursions_257x300"],
    )
    def test_rows_equal_the_scalar_walker(self, case):
        if case == "tall_tent":
            # 300 rises in a row: the stacks outgrow their first allocations
            tent = np.concatenate([np.arange(301), np.arange(299, -1, -1)]) / 300.0
            e = np.stack([tent, tent**2, np.sqrt(tent)])
        elif case == "one_step":
            e = np.zeros((3, 2))
        elif case == "m300":
            e = _excursion_rows(300, 5, np.random.default_rng(1))
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
        got = snake_head_rows(e, rng)
        want = reference_head_rows(e, ref_rng)
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()
        z_min, z_max = block_extrema(e, np.random.default_rng(40))
        assert z_min.tobytes() == want.min(axis=1).tobytes()
        assert z_max.tobytes() == want.max(axis=1).tobytes()

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("case", ["tall_tent", "excursions_257x300"])
    def test_head_does_not_depend_on_its_block(self, monkeypatch, case, block):
        if case == "tall_tent":
            # 300 rises in a row: the stacks outgrow their first allocations
            tent = np.concatenate([np.arange(301), np.arange(299, -1, -1)]) / 300.0
            e = np.stack([tent, tent**2, np.sqrt(tent)])
        else:
            e = _excursion_rows(300, 257, np.random.default_rng(3))

        def draw():
            rng = np.random.default_rng(40)
            z = snake_head_rows(e, rng).tobytes()
            rng_ext = np.random.default_rng(40)
            ext = [a.tobytes() for a in block_extrema(e, rng_ext)]
            return z, ext, rng.random(), rng_ext.random()

        want = draw()
        monkeypatch.setattr(snake_limit, "_HEAD_BLOCK", block)
        assert draw() == want

    @pytest.mark.parametrize("draw", [sample_extrema])
    def test_rejects_a_negative_sample_count(self, draw):
        with pytest.raises(ValueError, match="sample count must be nonnegative"):
            draw(64, -1, np.random.default_rng(0))

    def test_extrema_memory_stays_under_thirteen_tenths_of_the_excursions(self):
        # the excursion rows, the anchor stacks and a fixed block of scratch
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            sample_extrema(4096, 256, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 256 * 4097 * 8

    def test_extrema_batch_matches_full_paths(self, monkeypatch):
        monkeypatch.setattr(snake_limit, "_EXTREMA_BATCH", 100)
        sups, infs = sample_extrema(64, 300, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        e = _excursion_rows(64, 100, rng)
        z = snake_head_rows(e, rng)
        assert np.array_equal(sups[:100], z.max(axis=1))
        assert np.array_equal(infs[:100], z.min(axis=1))


def snake_rows(m, count, seed):
    """Rows of grid snakes before re-rooting: lifetimes and heads."""
    rng = np.random.default_rng(seed)
    e = _excursion_rows(m, count, rng)
    return e, snake_head_rows(e, rng)


def rerooted(e, z):
    """The rows re-rooted at their head minima: the lifetimes by
    plane_tree._reroot_walk, the heads read along its times less the minimum."""
    star = np.argmin(z[:, :-1], axis=1)
    e_new, u = plane_tree._reroot_walk(e, star)
    low = np.take_along_axis(z, star[:, None], axis=1)
    return e_new, np.take_along_axis(z, u, axis=1) - low


class TestVerwaatReroot:
    def test_lifetime_is_tree_distance_to_argmin(self):
        # the one re-rooting formula on real-valued rows: grid lifetimes
        # re-read from the argmin of their heads
        m = 32
        e, z = snake_rows(m, 20, 77)
        star = np.argmin(z[:, :m], axis=1)
        e_new, u = plane_tree._reroot_walk(e, star)
        for row in range(len(e)):
            s = int(star[row])
            for j in range(m + 1):
                v = (s + j) % m
                lo, hi = min(s, v), max(s, v)
                want = e[row, s] + e[row, v] - 2.0 * e[row, lo : hi + 1].min()
                if j in (0, m):
                    want = 0.0
                assert abs(e_new[row, j] - want) < 1e-12
                assert u[row, j] == v


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
    def test_range_preserved_by_rerooting(self):
        e, z = snake_rows(64, 25, 8)
        _, z_new = rerooted(e, z)
        assert np.abs(np.ptp(z_new, axis=1) - np.ptp(z, axis=1)).max() < 1e-12

    def test_sup_after_rerooting_is_old_range(self):
        e, z = snake_rows(128, 25, 12)
        _, z_new = rerooted(e, z)
        assert np.abs(z_new.max(axis=1) - np.ptp(z, axis=1)).max() < 1e-12

