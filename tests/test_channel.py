import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ive

from beamwander import arma, channel, cli, stats
from beamwander.channel import (crosstalk_trace, estimate_gamma,
                                fading_trace, memoryless_sample, oam_spectrum)

TABLE_MODEL = arma.ArmaModel(c=0.0, ar=[1.759, -0.7626], ma=[-1.289, 0.3166],
                             sigma2=2150.0)
# beam size for which the Gaussian-wander mapping yields gamma = 0.7
# power-law fading: omega^2 = 4 * gamma * var_axis
OMEGA_GAMMA07 = math.sqrt(4 * 0.7 * arma.stationary_variance(TABLE_MODEL))

# 30-term extended-precision series values (mpmath, 40 digits)
# of the modified Bessel function I_n(x)
BESSEL_ORACLE = {
    (0, 1.0): 1.2660658777520083,
    (3, 7.5): 142.06144236359168,
    (10, 30.0): 145831809975.96712,
    (64, 50.0): 19178.74915910336,
    (0, 50.0): 2.9325537838493362e20,
}


def bessel_i(order, x):
    """I_order(x) from the crosstalk kernel: the weight
    C_order = e^-x I_order(x) at r_c = sqrt(x), omega_st = 1, times e^x."""
    return oam_spectrum(math.sqrt(x), 1.0, order)[2 * order] * math.exp(x)


def kernel_grid(l_max):
    """a = 0 and a log grid from the smallest subnormal to the units bound,
    with points on both sides of the kernel's switch to the Hankel expansion."""
    switch = channel._hankel_from(l_max)
    return np.concatenate((
        [0.0], np.geomspace(5e-324, channel._IVE_MAX_ARG, 600),
        [np.nextafter(switch, 0.0), switch, np.nextafter(switch, np.inf)],
        switch * np.array([0.5, 0.9, 0.99, 1.01, 1.1, 2.0])))


def ks_statistic(samples, cdf):
    x = np.sort(np.asarray(samples))
    n = x.size
    c = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - c)
    lower = np.max(c - np.arange(0, n) / n)
    return max(upper, lower)


def intensity(bx, by, omega_st):
    """Received intensity at one offset, through the trace mapping."""
    return float(fading_trace([bx], [by], omega_st)[0])


class TestIntensityMapping:
    def test_on_axis(self):
        assert intensity(0.0, 0.0, 0.37) == 1.0

    def test_one_waist_offset(self):
        w = 0.02
        assert intensity(w, 0.0, w) == pytest.approx(math.exp(-2), rel=1e-12)

    def test_rotational_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.normal(size=2)
            w = rng.uniform(0.5, 2.0)
            i1 = intensity(a, b, w)
            assert intensity(b, a, w) == pytest.approx(i1, rel=1e-12)
            assert intensity(math.hypot(a, b), 0.0, w) == pytest.approx(i1, rel=1e-12)
            assert intensity(-a, b, w) == pytest.approx(i1, rel=1e-12)
            assert intensity(a, -b, w) == pytest.approx(i1, rel=1e-12)

    def test_bad_waist(self):
        with pytest.raises(ValueError):
            fading_trace([0.0], [0.0], 0.0)


class TestFadingTrace:
    def test_zero_offsets(self):
        tr = fading_trace(np.zeros(10), np.zeros(10), 1.0)
        assert np.all(tr == 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fading_trace([1.0], [1.0, 2.0], 1.0)

    def test_overflowing_offset_fades_to_zero(self):
        # 1e300**2 overflows; exp(-inf) = 0 is the far-beam limit, with
        # no warning (pytest makes warnings errors) and no NaN
        tr = fading_trace([1e300, -1e300, 0.0, 1.0], [0.0, 1e300, 0.0, 0.0], 1.0)
        assert tr.tolist() == [0.0, 0.0, 1.0, math.exp(-2.0)]

    @pytest.mark.parametrize("omega_st", [1e-200, 1e200])
    def test_omega_st_with_no_finite_square_refused(self, omega_st):
        # a square that underflows to 0 would give 0/0 = NaN at a zero
        # offset, and one that overflows raised a bare OverflowError
        with pytest.raises(ValueError, match="omega_st must have a finite, non-zero square"):
            fading_trace([0.0, 1.0], [0.0, 1.0], omega_st)

    def test_table_model_matches_power_law(self):
        # two independent axis simulations -> intensity PDF close to I^gamma
        xs = arma.simulate(TABLE_MODEL, 3000, seed=21)
        ys = arma.simulate(TABLE_MODEL, 3000, seed=22)
        tr = fading_trace(xs, ys, OMEGA_GAMMA07)
        g = estimate_gamma(tr)
        ks = ks_statistic(tr, lambda v: v**g)
        assert ks < 0.05


class TestMemorylessSample:
    def test_gamma_one_uniform(self):
        tr = memoryless_sample(1.0, 100_000, seed=2)
        assert float(tr.mean()) == pytest.approx(0.5, rel=0.01)

    def test_gamma_07_mean(self):
        tr = memoryless_sample(0.7, 100_000, seed=3)
        assert float(tr.mean()) == pytest.approx(0.7 / 1.7, rel=0.01)

    def test_support(self):
        tr = memoryless_sample(0.3, 10_000, seed=4)
        assert np.all(tr >= 0) and np.all(tr <= 1)

    def test_ks_against_cdf(self):
        g = 0.7
        tr = memoryless_sample(g, 10_000, seed=5)
        assert ks_statistic(tr, lambda v: v**g) < 1.36 / math.sqrt(10_000)

    def test_reproducible(self):
        a = memoryless_sample(0.7, 100, seed=6)
        b = memoryless_sample(0.7, 100, seed=6)
        assert np.array_equal(a, b)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            memoryless_sample(0.0, 10, seed=0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_samples_refused(self, n):
        with pytest.raises(ValueError, match="^n must be positive$"):
            memoryless_sample(0.7, n, seed=0)


class TestEstimateGamma:
    def test_exact_at_e_inverse(self):
        assert estimate_gamma(np.full(10, math.exp(-1))) == pytest.approx(1.0, rel=1e-12)

    def test_exact_at_e_minus_two(self):
        assert estimate_gamma(np.full(10, math.exp(-2))) == pytest.approx(0.5, rel=1e-12)

    def test_roundtrip(self):
        tr = memoryless_sample(0.7, 100_000, seed=7)
        assert estimate_gamma(tr) == pytest.approx(0.7, rel=0.02)

    def test_errors(self):
        with pytest.raises(ValueError):
            estimate_gamma(np.full(10, 0.0))
        with pytest.raises(ValueError):
            estimate_gamma(np.full(10, 1.0))
        with pytest.raises(ValueError):
            estimate_gamma([0.5] * 5)
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            estimate_gamma([0.5] * 9 + [math.nan])  # NaN fails every comparison


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        for n in (1, 2, 10):
            assert bessel_i(n, 0.0) == 0.0

    @pytest.mark.parametrize("order,x", sorted(BESSEL_ORACLE))
    def test_series_oracle(self, order, x):
        assert bessel_i(order, x) == pytest.approx(BESSEL_ORACLE[(order, x)], rel=1e-12)

    @pytest.mark.parametrize("x", [0.5, 2.0, 14.9, 15.1, 30.0, 50.0])
    def test_generating_function_identity(self, x):
        # I_0 + 2 sum_{n>=1} I_n = e^x; the kernel's row holds I_|l| e^-x
        weights = oam_spectrum(math.sqrt(x), 1.0, 79)
        total = float(weights.sum()) * math.exp(x)
        assert total == pytest.approx(math.exp(x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_i(-1, 1.0)
        with pytest.raises(ValueError):
            oam_spectrum(-1.0, 1.0, 0)


class TestIveKernel:
    """channel._ive_rows against scipy.special.ive. scipy flushes values
    below about 4e-305 to zero where the kernel keeps them (checked against
    mpmath), hence the absolute tolerance."""

    @pytest.mark.parametrize("l_max", [0, 1, 5, 20, 79])
    def test_log_grid_matches_scipy(self, l_max):
        a = kernel_grid(l_max)
        switch = channel._hankel_from(l_max)
        assert np.any(a <= switch) and np.any(a > switch)
        np.testing.assert_allclose(channel._ive_rows(a, l_max),
                                   ive(np.arange(l_max + 1), a[:, None]),
                                   rtol=1e-12, atol=1e-300)

    @settings(max_examples=300, deadline=None)
    @given(a=hnp.arrays(np.float64, st.integers(1, 8),
                        elements=st.floats(0.0, channel._IVE_MAX_ARG)),
           l_max=st.integers(0, 20))
    def test_random_arguments_match_scipy(self, a, l_max):
        np.testing.assert_allclose(channel._ive_rows(a, l_max),
                                   ive(np.arange(l_max + 1), a[:, None]),
                                   rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("l_max", [0, 1, 5, 20, 79])
    def test_exact_at_zero(self, l_max):
        rows = channel._ive_rows(np.array([0.0, 0.0, 3.0]), l_max)
        assert rows[:2].tolist() == [[1.0] + [0.0] * l_max] * 2

    @pytest.mark.parametrize("l_max", [0, 5, 20])
    def test_far_sample_leaves_other_rows_alone(self, l_max):
        # each row's recurrence starts at its own index, so one sample just
        # below the Hankel switch runs the long recurrence alone, and every
        # row is the one it would be on its own, bit for bit
        a = np.random.default_rng(31).exponential(2.0, 2000)
        a[700] = np.nextafter(channel._hankel_from(l_max), 0.0)
        a[701] = 0.0
        rows = channel._ive_rows(a, l_max)
        for i in (0, 699, 700, 701, 1999):
            assert rows[i].tobytes() == channel._ive_rows(a[i:i + 1], l_max)[0].tobytes()
        clean = np.delete(a, 700)
        assert channel._ive_rows(clean, l_max).tobytes() == np.delete(rows, 700, 0).tobytes()
        assert channel._ive_rows(np.zeros(0), l_max).shape == (0, l_max + 1)

    @pytest.mark.parametrize("l_max", [0, 1, 5, 20, 79])
    def test_rows_sum_to_at_most_one(self, l_max):
        # the full spectrum C_-l_max..C_l_max of a row, C_-l = C_l
        a = kernel_grid(l_max)
        _, weights = crosstalk_trace(np.sqrt(a), np.zeros_like(a), 1.0, l_max)
        assert weights.shape == (a.size, l_max + 1)
        assert np.all(weights[:, 0] + 2.0 * weights[:, 1:].sum(axis=1) <= 1.0 + 1e-12)


class TestOamSpectrum:
    def test_perfect_alignment(self):
        spec = oam_spectrum(0.0, 1.0, 5)
        assert spec[5] == 1.0
        for l in range(1, 6):
            assert spec[l + 5] == 0.0

    @pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0, 2.0])
    def test_power_conservation(self, ratio):
        spec = oam_spectrum(ratio, 1.0, 30)
        assert float(spec.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self):
        spec = oam_spectrum(1.3, 0.9, 8)
        for l in range(9):
            assert spec[l + 8] == spec[-l + 8]

    def test_weights_in_unit_interval(self):
        for ratio in np.linspace(0, 3, 13):
            spec = oam_spectrum(float(ratio), 1.0, 10)
            assert np.all(spec >= 0) and np.all(spec <= 1)

    def test_dominant_mode_inside_one_waist(self):
        for ratio in np.linspace(0, 1, 11):
            spec = oam_spectrum(float(ratio), 1.0, 10)
            assert spec[10] == max(spec)

    def test_truncation_error_monotone(self):
        prev = 1.0
        for l_max in (2, 5, 10, 20, 30):
            deficit = 1.0 - float(oam_spectrum(1.5, 1.0, l_max).sum())
            assert deficit <= prev + 1e-15
            prev = deficit


class TestCrosstalkTrace:
    def test_zero_offsets(self):
        r_norm, weights = crosstalk_trace(np.zeros(5), np.zeros(5), 1.0, 3)
        assert weights.shape == (5, 4)
        for row in weights:
            assert row[0] == 1.0
            assert np.all(row[1:] == 0)
        assert np.all(r_norm == 0.0)

    def test_c0_self_consistency(self):
        rng = np.random.default_rng(8)
        xs, ys = rng.normal(scale=0.5, size=(2, 50))
        w = 1.2
        _, weights = crosstalk_trace(xs, ys, w, 4)
        assert weights.shape == (50, 5)
        for i, row in enumerate(weights):
            arg = (xs[i] ** 2 + ys[i] ** 2) / w**2
            direct = math.exp(-arg) * float(np.i0(arg))  # numpy's own I_0
            assert row[0] == pytest.approx(direct, rel=1e-12)

    def test_temporal_memory(self):
        xs = arma.simulate(TABLE_MODEL, 3000, seed=30)
        ys = arma.simulate(TABLE_MODEL, 3000, seed=31)
        _, weights = crosstalk_trace(xs, ys, OMEGA_GAMMA07, 5)
        assert weights.shape == (3000, 6)  # C_0..C_5
        assert stats.acf(weights[:, 0], 1)[1] > stats.significance_bound(3000)

    def test_peak_memory_is_the_weights_array(self):
        # the (n, l_max + 1) result and a few n-vectors fit under the bound;
        # any second copy of the weights (mirrored or a temporary) does not
        n, l_max = 10**5, 20
        xs = arma.simulate(TABLE_MODEL, n, seed=32)
        ys = arma.simulate(TABLE_MODEL, n, seed=33)
        tracemalloc.start()
        try:
            crosstalk_trace(xs, ys, OMEGA_GAMMA07, l_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * (l_max + 1) * 8

    @settings(max_examples=200, deadline=None)
    @given(offsets=hnp.arrays(np.float64, st.tuples(st.just(2), st.integers(1, 20)),
                              elements=st.floats(-1e3, 1e3)),
           omega_st=st.floats(1e-2, 1e3), l_max=st.integers(0, 20))
    @example(offsets=np.array([[725.0], [725.0]]), omega_st=0.03125, l_max=0)
    def test_weights_bounded_symmetric_subunit(self, offsets, omega_st, l_max):
        r_norm = np.sqrt(offsets[0] ** 2 + offsets[1] ** 2) / omega_st
        if np.any(r_norm**2 > channel._IVE_MAX_ARG):
            # beyond the units sanity bound: an error naming the sample, not NaN
            with pytest.raises(ValueError, match="beam radii"):
                crosstalk_trace(offsets[0], offsets[1], omega_st, l_max)
            return
        r_norm, w = crosstalk_trace(offsets[0], offsets[1], omega_st, l_max)
        assert w.shape == (offsets.shape[1], l_max + 1)
        assert np.all((w >= 0.0) & (w <= 1.0))
        # crosstalk.csv's modes -l_max..l_max: C_-l is C_l's own column object
        _, columns = cli._crosstalk_table(np.arange(w.shape[0]), r_norm, w)
        for l in range(1, l_max + 1):
            assert columns[2 + l_max - l] is columns[2 + l_max + l]
        full = np.column_stack(columns[2:])
        mirrored = np.concatenate((w[:, :0:-1], w), axis=1)
        assert full.view(np.int64).tolist() == mirrored.view(np.int64).tolist()
        assert np.all(full.sum(axis=1) <= 1.0 + 1e-12)

    def test_offset_beyond_kernel_range_named(self):
        with pytest.raises(ValueError, match="sample 1: offset of 40000 beam radii"):
            crosstalk_trace([0.0, 4e4], [0.0, 0.0], 1.0, 3)

    def test_nan_offset_named(self):
        with pytest.raises(ValueError, match="sample 1: offset of nan beam radii"):
            crosstalk_trace([0.0, math.nan], [0.0, 0.0], 1.0, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            crosstalk_trace([0.0], [0.0, 1.0], 1.0, 3)
