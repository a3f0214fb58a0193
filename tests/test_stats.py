import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beamwander import arma, channel, stats


def loop_run_lengths(x, threshold):
    """Plain-loop reference: (above, below) run lengths in time order,
    closing a run at each change of side."""
    sides = [v >= threshold for v in x.tolist()]
    runs = {True: [], False: []}
    state, length = sides[0], 0
    for side in sides:
        if side == state:
            length += 1
        else:
            runs[state].append(length)
            state, length = side, 1
    runs[state].append(length)
    return runs[True], runs[False]


class TestAcf:
    def test_lag_zero_is_one(self):
        x = np.random.default_rng(0).normal(size=100)
        assert stats.acf(x, 10)[0] == 1.0

    def test_significance_bound_n2806(self):
        # 1.96/sqrt(2806) = 0.03700
        assert stats.significance_bound(2806) == pytest.approx(0.0370, abs=5e-4)

    def test_ar1_long_run(self):
        model = arma.ArmaModel(c=0.0, ar=[0.5], ma=[], sigma2=1.0)
        x = arma.simulate(model, 1_000_000, seed=2)
        r = stats.acf(x, 3)
        assert r[1] == pytest.approx(0.5, abs=0.01)
        assert r[2] == pytest.approx(0.25, abs=0.01)

    def test_values_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=200).cumsum()
            assert np.all(np.abs(stats.acf(x, 20)) <= 1.0 + 1e-12)

    def test_constant_series(self):
        with pytest.raises(ValueError):
            stats.acf(np.ones(100), 5)

    def test_constant_series_off_mean(self):
        # the mean of 3000 samples of 0.1 is off by 2.8e-17, so x - x.mean()
        # is not zero: constancy must be read from the values
        with pytest.raises(ValueError, match="constant series has zero variance"):
            stats.acf(np.full(3000, 0.1), 5)

    def test_underflow_named(self):
        x = np.random.default_rng(4).normal(size=400) * 1e-165
        with pytest.raises(ValueError, match="series underflows: its sum of squares is zero"):
            stats.acf(x, 10)

    def test_subnormal_sum_named(self):
        # a sum of squares of about 4e-318 keeps only 9 of its 53 bits
        x = np.random.default_rng(4).normal(size=400) * 1e-160
        with pytest.raises(ValueError, match="series underflows: its sum of squares is subnormal"):
            stats.acf(x, 5)

    def test_length_check(self):
        with pytest.raises(ValueError):
            stats.acf(np.arange(5.0), 10)

    def test_overflow_rejected(self):
        x = np.random.default_rng(4).normal(size=400) * 1e160
        with pytest.raises(ValueError, match="series overflows: its sum of squares"):
            stats.acf(x, 10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("function", [stats.acf, stats.pacf, arma.diagnose_residuals])
    def test_non_finite_named(self, function, bad):
        # neither an overflow nor, for a constant infinity, a zero variance
        for x in ([0.5] * 9 + [bad], [bad] * 10):
            with pytest.raises(ValueError, match="series contains non-finite values"):
                function(x, 3)


class TestPacf:
    def test_ar1_truncation(self):
        model = arma.ArmaModel(c=0.0, ar=[0.5], ma=[], sigma2=1.0)
        x = arma.simulate(model, 100_000, seed=4)
        r = stats.pacf(x, 10)
        bound = stats.significance_bound(x.size)
        assert r[1] == pytest.approx(0.5, abs=0.02)
        # the 1.96/sqrt(n) band is a 95% pointwise bound, so allow one of
        # the nine higher lags to graze it
        assert np.sum(np.abs(r[2:]) >= bound) <= 1
        assert np.all(np.abs(r[2:]) < 2 * bound)

    def test_white_noise_calibration(self):
        inside = 0
        total = 0
        for seed in range(10):
            x = np.random.default_rng(seed).normal(size=3000)
            r = stats.pacf(x, 20)
            inside += int(np.sum(np.abs(r[1:]) < stats.significance_bound(x.size)))
            total += 20
        assert inside / total >= 0.90

    def test_lag_one_equals_acf(self):
        x = np.random.default_rng(9).normal(size=500).cumsum()
        assert stats.pacf(x, 5)[1] == stats.acf(x, 5)[1]


class TestRadialVariance:
    def test_hand_value(self):
        assert stats.radial_variance([1, -1], [0, 0]) == 1.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=500)
        ys = rng.normal(size=500)
        base = stats.radial_variance(xs, ys)
        assert stats.radial_variance(xs + 42.0, ys - 7.0) == pytest.approx(base, rel=1e-9)

    def test_table_model_long_run(self):
        model = arma.ArmaModel(c=0.0, ar=[1.759, -0.7626], ma=[-1.289, 0.3166],
                               sigma2=2150.0)
        xs = arma.simulate(model, 1_000_000, seed=6)
        ys = arma.simulate(model, 1_000_000, seed=7)
        expected = 2 * arma.stationary_variance(model)
        assert stats.radial_variance(xs, ys) == pytest.approx(expected, rel=0.02)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            stats.radial_variance([1, 2], [1, 2, 3])

    def test_overflow_rejected(self):
        xs, ys = np.random.default_rng(4).normal(size=(2, 400)) * 1e160
        with pytest.raises(ValueError, match="trace overflows: its radial variance"):
            stats.radial_variance(xs, ys)


class TestRunLengthDistribution:
    def test_hand_example(self):
        above, below = stats.run_length_distribution([1, 1, 0, 0, 0, 1], 0.5)
        assert above.dtype.kind == below.dtype.kind == "i"
        assert above.tolist() == [2, 1]
        assert below.tolist() == [3]

    def test_all_above(self):
        above, below = stats.run_length_distribution(np.ones(17), 0.5)
        assert above.tolist() == [17]
        assert below.tolist() == []

    def test_threshold_tie_counts_above(self):
        above, below = stats.run_length_distribution([0.5, 0.4], 0.5)
        assert above.tolist() == [1]
        assert below.tolist() == [1]

    def test_sample_conservation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = rng.integers(1, 500)
            x = rng.uniform(size=n)
            above, below = stats.run_length_distribution(x, float(x.mean()))
            assert above.sum() + below.sum() == n

    def test_memoryless_geometric_decay(self):
        # i.i.d. intensities produce geometric run lengths: pooled counts
        # decay monotonically while statistically meaningful
        runs = []
        for seed in range(10):
            tr = channel.memoryless_sample(0.7, 3000, seed=seed)
            runs.extend(stats.run_length_distribution(tr, float(tr.mean())))
        counts = np.unique(np.concatenate(runs), return_counts=True)[1].tolist()
        solid = [c for c in counts if c >= 20]
        assert all(a >= b for a, b in zip(solid, solid[1:]))

    def test_empty(self):
        with pytest.raises(ValueError):
            stats.run_length_distribution([], 0.5)

    @pytest.mark.parametrize("x, threshold", [
        (np.arange(10.0), math.nan),
        ([0.5] * 9 + [math.nan], 0.5),
        ([math.nan], math.inf),
    ], ids=["nan_threshold", "nan_sample", "nan_both"])
    def test_nan_refused(self, x, threshold):
        # a NaN is neither >= nor < a threshold, so it has no side
        with pytest.raises(ValueError, match="series and threshold must not be NaN"):
            stats.run_length_distribution(x, threshold)

    @settings(max_examples=200, deadline=None)
    @given(x=hnp.arrays(float, st.integers(1, 300),
                        elements=st.sampled_from([0.0, 1.0, 2.0, math.nan])),
           threshold=st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0]))
    def test_matches_loop_reference(self, x, threshold):
        if np.isnan(x).any():
            with pytest.raises(ValueError, match="must not be NaN"):
                stats.run_length_distribution(x, threshold)
            return
        above, below = stats.run_length_distribution(x, threshold)
        assert above.sum() + below.sum() == x.size
        assert (above.tolist(), below.tolist()) == loop_run_lengths(x, threshold)


class TestScintillationIndex:
    def test_constant(self):
        assert stats.scintillation_index(np.full(10, 3.3)) == pytest.approx(0.0, abs=1e-15)
        # <I^2>/<I>^2 - 1 of 50 x this value rounds to 2.2e-16
        assert stats.scintillation_index(np.full(50, 0.2770888466262316)) == 0.0

    def test_two_point(self):
        assert stats.scintillation_index([0.0, 2.0]) == pytest.approx(1.0, rel=1e-12)

    def test_memoryless_moments(self):
        # <I> = g/(g+1), <I^2> = g/(g+2) for p(I) = g I^(g-1)
        g = 0.7
        tr = channel.memoryless_sample(g, 1_000_000, seed=10)
        expected = (g / (g + 2)) / (g / (g + 1)) ** 2 - 1
        assert stats.scintillation_index(tr) == pytest.approx(expected, rel=0.01)

    def test_zero_mean(self):
        with pytest.raises(ValueError):
            stats.scintillation_index(np.zeros(5))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("intensities", [[], [0.5, math.nan], [0.5, math.inf],
                                             [-math.inf, 0.5]],
                             ids=["empty", "nan", "inf", "-inf"])
    def test_empty_or_non_finite_named(self, intensities):
        with pytest.raises(ValueError, match="must be non-empty and finite"):
            stats.scintillation_index(intensities)

    @pytest.mark.parametrize("scale, named", [
        (1e200, "scintillation index is not finite"),
        (1.7e308, "their mean is not finite"),
    ])
    def test_overflow_named(self, scale, named):
        with pytest.raises(ValueError, match=named):
            stats.scintillation_index(np.linspace(0.5, 1.0, 50) * scale)


class TestEmpiricalPdf:
    def test_normalization(self):
        x = np.random.default_rng(11).uniform(size=1000)
        edges, density = stats.empirical_pdf(x, 17)
        widths = np.diff(edges)
        assert float(np.sum(density * widths)) == pytest.approx(1.0, rel=1e-12)

    def test_uniform_is_flat(self):
        x = np.random.default_rng(12).uniform(size=200_000)
        _, density = stats.empirical_pdf(x, 10)
        assert np.all(np.abs(density - 1.0) < 0.05)

    def test_power_law_density(self):
        g = 0.7
        tr = channel.memoryless_sample(g, 100_000, seed=13)
        edges, density = stats.empirical_pdf(tr, 50)
        width = edges[1] - edges[0]
        n = tr.size
        # bin-integrated expectation: the I^(g-1) density varies sharply
        # within the low bins, so a midpoint value would be biased
        expected = (edges[1:] ** g - edges[:-1] ** g) / width
        counts = density * width * n
        z = (counts - expected * width * n) / np.sqrt(expected * width * n)
        assert np.max(np.abs(z)) < 4.0

    @pytest.mark.parametrize("ulps", [1, 10, 49])
    def test_range_of_a_few_ulps_widens_like_a_constant(self, ulps):
        # 50 bins need a range of at least 50 ulps; np.histogram refuses a
        # narrower one ("Too many bins"), so it widens as numpy widens a zero range
        x = np.array([0.3] * 49 + [0.3 + ulps * math.ulp(0.3)])
        edges, density = stats.empirical_pdf(x, 50)
        assert edges[0] == 0.3 - 0.5 and edges[-1] == x[-1] + 0.5
        assert float(np.sum(density * np.diff(edges))) == pytest.approx(1.0)
        const_edges, _ = stats.empirical_pdf(np.full(50, 0.3), 50)
        assert np.allclose(edges, const_edges, rtol=0, atol=1e-14)

    def test_range_that_holds_the_bins_is_numpys(self):
        for x in (np.array([0.3] * 49 + [0.3 + 50 * math.ulp(0.3)]),
                  np.random.default_rng(14).uniform(size=1000)):
            edges, density = stats.empirical_pdf(x, 50)
            ref_density, ref_edges = np.histogram(x, 50, density=True)
            assert np.array_equal(edges, ref_edges)
            assert np.array_equal(density, ref_density)

    def test_empty_and_bins(self):
        with pytest.raises(ValueError):
            stats.empirical_pdf([], 10)
        with pytest.raises(ValueError):
            stats.empirical_pdf([1.0, 2.0], 1)
