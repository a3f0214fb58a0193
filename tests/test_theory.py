import math

import numpy as np
import pytest

from beamwander import theory
from beamwander.theory import (LinkParams, greenwood_frequency,
                               hyp2f1_beam, long_term_beam_size,
                               wander_variance, wander_variance_collimated,
                               wander_variance_general,
                               wander_variance_outer_scale)

# 200-term extended-precision partial sums of the 2F1(1/3,1;4;z) series
# (mpmath, 40 digits)
HYP_ORACLE = {
    0.0: 1.0,
    0.25: 1.0223758888954287,
    0.5: 1.0486598739628818,
    0.75: 1.0809449211023850,
    1.0: 1.125,
}


def random_params(rng):
    return LinkParams(cn2=10 ** rng.uniform(-17, -12),
                      L=rng.uniform(10, 1e4),
                      omega0=rng.uniform(1e-3, 0.1),
                      theta0=rng.uniform(0, 1))


class TestHyp2f1Beam:
    def test_identity_at_zero(self):
        assert hyp2f1_beam(0.0) == 1.0

    def test_gauss_summation_at_one(self):
        # Gamma(4)Gamma(8/3) / (Gamma(11/3)Gamma(3)) = 9/8
        assert hyp2f1_beam(1.0) == pytest.approx(1.125, abs=1e-6)

    @pytest.mark.parametrize("z", sorted(HYP_ORACLE))
    def test_series_oracle(self, z):
        # the series is only conditionally fast at z = 1, where the term
        # ratio approaches 1; truncation leaves ~1e-11 relative error there
        tol = 1e-10 if z == 1.0 else 1e-13
        assert hyp2f1_beam(z) == pytest.approx(HYP_ORACLE[z], rel=tol)

    def test_monotone_increasing(self):
        zs = np.linspace(0, 1, 101)
        vals = [hyp2f1_beam(z) for z in zs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("z", [-0.1, 1.1, 2.0])
    def test_domain(self, z):
        with pytest.raises(ValueError):
            hyp2f1_beam(z)


class TestWanderVariance:
    def test_collimated_reduction(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = random_params(rng)
            coll = LinkParams(cn2=p.cn2, L=p.L, omega0=p.omega0, theta0=1.0)
            assert wander_variance_general(coll) == pytest.approx(
                wander_variance_collimated(coll), rel=1e-12)

    def test_direct_value(self):
        p = LinkParams(cn2=1e-14, L=1000, omega0=0.01, theta0=1.0)
        # 2.42e-14 * 1e9 * 0.01^(-1/3), extended-precision evaluation
        assert wander_variance_general(p) == pytest.approx(1.1232644977342923e-4, rel=1e-12)

    def test_focused_is_nine_eighths(self):
        p = LinkParams(cn2=1e-14, L=500, omega0=0.02, theta0=0.0)
        coll = LinkParams(cn2=p.cn2, L=p.L, omega0=p.omega0, theta0=1.0)
        assert wander_variance_general(p) == pytest.approx(
            1.125 * wander_variance_collimated(coll), rel=1e-6)

    def test_cubic_distance_scaling(self):
        p1 = LinkParams(cn2=1e-14, L=100, omega0=0.01)
        p2 = LinkParams(cn2=1e-14, L=200, omega0=0.01)
        assert wander_variance_collimated(p2) == pytest.approx(
            8 * wander_variance_collimated(p1), rel=1e-12)

    def test_general_is_the_one_product(self):
        # the collimated value times the 2F1 factor, bit for bit the product
        # written out in one expression
        rng = np.random.default_rng(7)
        for _ in range(2000):
            p = random_params(rng)
            assert wander_variance_general(p) == (
                2.42 * p.cn2 * p.L**3 * p.omega0 ** (-1.0 / 3.0)
                * hyp2f1_beam(1.0 - abs(p.theta0)))

    def test_power_overflow_is_inf(self):
        # L^3 overflows: float ** raises, so the product would never reach inf
        p = LinkParams(cn2=1e-14, L=1e103, omega0=0.01)
        assert wander_variance_collimated(p) == math.inf
        assert wander_variance_general(p) == math.inf

    def test_waist_scaling(self):
        p1 = LinkParams(cn2=1e-14, L=100, omega0=0.01)
        p2 = LinkParams(cn2=1e-14, L=100, omega0=0.08)
        assert wander_variance_collimated(p2) == pytest.approx(
            0.5 * wander_variance_collimated(p1), rel=1e-12)


class TestOuterScale:
    def test_small_kappa_bracket(self):
        # kappa0*omega0 = 1e-6 -> bracket = 1 - (1e-12/(1+1e-12))^(1/6) ~ 0.99
        p = LinkParams(cn2=1e-14, L=100, omega0=0.01, kappa0=1e-4)
        expected = wander_variance_collimated(p) * (1 - (1e-12 / (1 + 1e-12)) ** (1 / 6))
        assert wander_variance_outer_scale(p) == pytest.approx(expected, rel=1e-12)
        assert wander_variance_outer_scale(p) == pytest.approx(
            0.99 * wander_variance_collimated(p), rel=1e-6)

    def test_large_kappa_limit(self):
        p = LinkParams(cn2=1e-14, L=100, omega0=0.01, kappa0=1e12)
        assert wander_variance_outer_scale(p) < 1e-6 * wander_variance_collimated(p)

    def test_strictly_below_collimated(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            base = random_params(rng)
            p = LinkParams(cn2=base.cn2, L=base.L, omega0=base.omega0,
                           theta0=1.0, kappa0=10 ** rng.uniform(-3, 3))
            assert wander_variance_outer_scale(p) < wander_variance_collimated(p)

    def test_monotone_recovery_as_kappa_vanishes(self):
        prev = 0.0
        for kappa0 in [100.0, 10.0, 1.0, 0.1, 0.01, 0.001]:
            p = LinkParams(cn2=1e-14, L=100, omega0=0.01, kappa0=kappa0)
            val = wander_variance_outer_scale(p)
            assert val > prev
            prev = val
        coll = wander_variance_collimated(
            LinkParams(cn2=1e-14, L=100, omega0=0.01))
        assert prev < coll
        assert prev == pytest.approx(coll, rel=0.05)

    @pytest.mark.parametrize("kappa0, omega0", [(1e150, 1.0), (1e160, 1.0),
                                                (1e300, 1e10)],
                             ids=["square_finite", "square_overflows", "product_inf"])
    def test_far_outer_scale_is_zero(self, kappa0, omega0):
        # from k0 w0 ~ 1e8 the bracket is exactly 0.0, and so it stays
        # where (k0 w0)^2 overflows
        p = LinkParams(cn2=1e-14, L=100, omega0=omega0, kappa0=kappa0)
        assert wander_variance_outer_scale(p) == 0.0

    def test_zero_kappa_rejected(self):
        p = LinkParams(cn2=1e-14, L=100, omega0=0.01, kappa0=0.0)
        with pytest.raises(ValueError):
            wander_variance_outer_scale(p)

    def test_dispatch(self):
        p_inf = LinkParams(cn2=1e-14, L=100, omega0=0.01)
        assert wander_variance(p_inf) == wander_variance_general(p_inf)
        p_fin = LinkParams(cn2=1e-14, L=100, omega0=0.01, kappa0=1.0)
        assert wander_variance(p_fin) == wander_variance_outer_scale(p_fin)


class TestLongTermBeam:
    def test_no_wander(self):
        assert long_term_beam_size(0.05, 0.0) == 0.05

    def test_square_overflow_is_inf(self):
        assert long_term_beam_size(1e200, 1.0) == math.inf

    def test_pythagorean(self):
        assert long_term_beam_size(3.0, 16.0) == pytest.approx(5.0, rel=1e-15)

    def test_inverse_property(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.uniform(1e-3, 10)
            b = rng.uniform(0, 10)
            if b == 0:
                continue
            assert long_term_beam_size(a, b) ** 2 - a**2 == pytest.approx(b, rel=1e-12)

    def test_matches_trace_second_moment(self):
        # <r_c^2> taken from a simulated wander trace must combine with the
        # short-term size in quadrature
        from beamwander import arma, stats
        model = arma.ArmaModel(c=0.0, ar=[0.5], ma=[], sigma2=1.0)
        xs = arma.simulate(model, 20000, seed=5)
        ys = arma.simulate(model, 20000, seed=6)
        rc_var = stats.radial_variance(xs, ys)
        omega_st = 2.0
        expect = math.sqrt(omega_st**2 + rc_var)
        assert long_term_beam_size(omega_st, rc_var) == pytest.approx(expect, rel=1e-12)


class TestGreenwood:
    def test_zero_wind(self):
        assert greenwood_frequency(0.0, 0.01) == 0.0

    def test_typical_scale_value(self):
        # V = 10 km/h = 2.778 m/s, r0 = 1 cm
        assert greenwood_frequency(2.778, 0.01) == pytest.approx(119.454, rel=1e-12)

    def test_cancellation(self):
        assert greenwood_frequency(1.0, 0.43) == pytest.approx(1.0, rel=1e-15)

    def test_bad_r0(self):
        with pytest.raises(ValueError):
            greenwood_frequency(1.0, 0.0)


class TestLinkParamsInvariants:
    @pytest.mark.parametrize("kwargs", [
        dict(cn2=-1e-14, L=100, omega0=0.01),
        dict(cn2=1e-14, L=0, omega0=0.01),
        dict(cn2=1e-14, L=100, omega0=-0.01),
        dict(cn2=1e-14, L=100, omega0=0.01, theta0=1.5),
        dict(cn2=1e-14, L=100, omega0=0.01, theta0=-0.5),
        dict(cn2=1e-14, L=100, omega0=0.01, kappa0=-1),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LinkParams(**kwargs)
