import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from beamwander import arma, stats
from beamwander.arma import (ArmaModel, chi2_quantile, diagnose_residuals,
                             fit_css, information_criteria, order_scan,
                             residuals, simulate, stationary_variance,
                             validate)

TABLE_MODEL = ArmaModel(c=0.0, ar=[1.759, -0.7626], ma=[-1.289, 0.3166],
                        sigma2=2150.0, sample_period=1 / 300)
TABLE_TRUTH = [0.0, 1.759, -0.7626, -1.289, 0.3166]


def quadratic_root_moduli(a2, a1):
    """Moduli of the roots of 1 + a1 z + a2 z^2, by the quadratic formula."""
    disc = a1 * a1 - 4 * a2
    if disc >= 0:
        r1 = (-a1 + math.sqrt(disc)) / (2 * a2)
        r2 = (-a1 - math.sqrt(disc)) / (2 * a2)
        return sorted([abs(r1), abs(r2)])
    mod = math.sqrt(1 / a2)  # |roots|^2 = c/a for conjugate pair of a z^2+b z+c
    return [mod, mod]


class TestValidate:
    def test_table_model_roots(self):
        rep = validate(TABLE_MODEL)
        assert rep.stationary and rep.invertible
        ar_expect = quadratic_root_moduli(0.7626, -1.759)
        ma_expect = quadratic_root_moduli(0.3166, -1.289)
        assert rep.ar_root_moduli == pytest.approx(ar_expect, abs=1e-6)
        assert rep.ma_root_moduli == pytest.approx(ma_expect, abs=1e-6)
        assert rep.ar_root_moduli == pytest.approx([1.016260, 1.290323], abs=1e-6)
        assert rep.ma_root_moduli == pytest.approx([1.042978, 3.028406], abs=1e-6)

    def test_white_noise(self):
        rep = validate(ArmaModel(c=0.0, ar=[], ma=[], sigma2=1.0))
        assert rep.stationary and rep.invertible
        assert rep.ar_root_moduli == [] and rep.ma_root_moduli == []

    def test_unit_root(self):
        rep = validate(ArmaModel(c=0.0, ar=[1.0], ma=[], sigma2=1.0))
        assert not rep.stationary
        assert rep.ar_root_moduli == pytest.approx([1.0])


class TestModelJson:
    def test_roundtrip(self):
        s = json.dumps(TABLE_MODEL.to_dict())
        again = ArmaModel.from_dict(json.loads(s))
        assert again == TABLE_MODEL

    def test_schema_fields(self):
        d = TABLE_MODEL.to_dict()
        assert set(d) == {"c", "ar", "ma", "sigma2", "sample_period_s", "units"}

    def test_invalid_sigma2(self):
        with pytest.raises(ValueError):
            ArmaModel(c=0.0, ar=[], ma=[], sigma2=0.0)

    @pytest.mark.parametrize("sigma2, period", [
        (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_nonfinite_rejected(self, sigma2, period):
        with pytest.raises(ValueError, match="finite"):
            ArmaModel(c=0.0, ar=[], ma=[], sigma2=sigma2, sample_period=period)

    def test_from_dict_missing_key(self):
        d = TABLE_MODEL.to_dict()
        del d["c"]
        with pytest.raises(ValueError, match="missing key"):
            ArmaModel.from_dict(d)

    @pytest.mark.parametrize("change, message", [
        ({"ar": [0.5, "0.1"]}, r"ar\[1\] must be a finite number"),
        ({"ma": 0.5}, "ma must be a list"),
        ({"c": 10**400}, "c must be a finite number"),
        ({"sigma2": False}, "sigma2 must be a finite number"),
        ({"sample_period_s": -math.inf}, "sample_period_s must be a finite"),
        ({"units": None}, "units must be a string"),
    ])
    def test_from_dict_rejects(self, change, message):
        d = TABLE_MODEL.to_dict()
        d.update(change)
        with pytest.raises(ValueError, match=message):
            ArmaModel.from_dict(d)


class TestSimulate:
    def test_bit_reproducible(self):
        a = simulate(TABLE_MODEL, 500, seed=3)
        b = simulate(TABLE_MODEL, 500, seed=3)
        assert np.array_equal(a, b)
        c = simulate(TABLE_MODEL, 500, seed=4)
        assert not np.array_equal(a, c)

    def test_white_noise_variance(self):
        model = ArmaModel(c=0.0, ar=[], ma=[], sigma2=4.0)
        x = simulate(model, 1_000_000, seed=5)
        assert float(x.var()) == pytest.approx(4.0, rel=0.01)

    def test_ar1_stationary_variance(self):
        model = ArmaModel(c=0.0, ar=[0.5], ma=[], sigma2=1.0)
        x = simulate(model, 1_000_000, seed=6)
        assert float(x.var()) == pytest.approx(1 / (1 - 0.25), rel=0.01)

    def test_table_model_acf_lag1(self):
        # theoretical lag-1 ACF from a long-run simulation oracle
        oracle = stats.acf(simulate(TABLE_MODEL, 1_000_000, seed=7), 1).values[1]
        r = stats.acf(simulate(TABLE_MODEL, 3000, seed=8), 1)
        assert abs(r.values[1] - oracle) < r.significance_bound

    def test_nonstationary_rejected(self):
        bad = ArmaModel(c=0.0, ar=[1.01], ma=[], sigma2=1.0)
        with pytest.raises(ValueError):
            simulate(bad, 100, seed=0)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            simulate(TABLE_MODEL, 0, seed=0)

    def test_constant_term_shifts_mean(self):
        model = ArmaModel(c=1.0, ar=[0.5], ma=[], sigma2=0.01)
        x = simulate(model, 200_000, seed=9)
        assert float(x.mean()) == pytest.approx(1.0 / (1 - 0.5), rel=0.01)


def stable_poly(rng, degree):
    """Ascending coefficients of 1 + a_1 z + ... + a_d z^d, every root of
    modulus in [1.1, 3]: real roots and complex-conjugate pairs."""
    poly = np.array([1.0])
    while poly.size <= degree:
        m = rng.uniform(1.1, 3.0)
        if degree - (poly.size - 1) >= 2 and rng.random() < 0.5:
            angle = rng.uniform(0.0, math.pi)
            factor = [1.0, -2.0 * math.cos(angle) / m, 1.0 / m**2]
        else:
            factor = [1.0, rng.choice([-1.0, 1.0]) / m]
        poly = np.convolve(poly, factor)
    return poly


def random_model(p, q, c):
    rng = np.random.default_rng([p, q])
    return ArmaModel(c=c, ar=list(-stable_poly(rng, p)[1:]),
                     ma=list(stable_poly(rng, q)[1:]),
                     sigma2=float(rng.uniform(0.5, 3000.0)))


def lfilter_reference(model, n, seed, burn_in):
    """The RNG contract computed with scipy: PCG64 innovations through
    scipy.signal.lfilter(theta, phi, .), plus the constant term."""
    eps = np.random.default_rng(seed).normal(0.0, math.sqrt(model.sigma2),
                                             n + burn_in)
    x = lfilter(model.ma_poly(), model.ar_poly(), eps)
    if model.c != 0.0:
        x = x + lfilter([1.0], model.ar_poly(), np.full(n + burn_in, model.c))
    return x[burn_in:]


ORDERS = [(p, q) for p in range(6) for q in range(6)]


class TestSimulateExact:
    """simulate filters without scipy, yet equals scipy.signal.lfilter bit
    for bit: the series is reproducible from the documented contract."""

    @pytest.mark.parametrize("c", [0.0, -2.5])
    @pytest.mark.parametrize("p,q", ORDERS)
    def test_equals_lfilter(self, p, q, c):
        model = random_model(p, q, c)
        for n in (1, 3000):
            for burn_in in (0, None):
                seed = 1000 * p + 100 * q + n
                expect = lfilter_reference(
                    model, n, seed,
                    arma.default_burn_in(p, q) if burn_in is None else 0)
                assert np.array_equal(simulate(model, n, seed, burn_in), expect)

    def test_reference_model_long(self):
        expect = lfilter_reference(TABLE_MODEL, 100_000, 28,
                                   arma.default_burn_in(2, 2))
        assert np.array_equal(simulate(TABLE_MODEL, 100_000, 28), expect)

    @pytest.mark.parametrize("p,q", ORDERS)
    def test_stationary_variance_equals_lfilter(self, p, q):
        model = random_model(p, q, 0.0)
        impulse = np.zeros(20000)
        impulse[0] = 1.0
        psi = lfilter(model.ma_poly(), model.ar_poly(), impulse)
        assert stationary_variance(model) == float(model.sigma2 * np.dot(psi, psi))


class TestInverseFilter:
    """The fit's banded-solve filter against scipy.signal.lfilter, the
    filter it replaced: equal to rounding, and exactly equal for q = 0."""

    @pytest.mark.parametrize("p,q", ORDERS)
    def test_equals_lfilter(self, p, q):
        model = random_model(p, q, -2.5)
        rng = np.random.default_rng([p, q, 1])
        thetas = [model.ma_poly()]
        if q:  # one MA root at modulus 1.000001
            thetas.append(np.convolve(stable_poly(rng, q - 1),
                                      [1.0, -1.0 / 1.000001]))
        phi = model.ar_poly()
        for n in (3000, 100_000):
            x = rng.normal(3.0, 10.0, n)
            for theta in thetas:
                m = ArmaModel(c=model.c, ar=model.ar, ma=list(theta[1:]),
                              sigma2=1.0)
                pairs = [
                    (residuals(m, x), lfilter(phi, theta, x)
                     - m.c * lfilter([1.0], theta, np.ones(n))),
                    (arma._inverse_filter(theta, x), lfilter([1.0], theta, x)),
                ]
                for got, expect in pairs:
                    if q == 0:
                        assert np.array_equal(got, expect)
                    else:
                        err = np.max(np.abs(got - expect))
                        assert err <= 1e-12 * np.max(np.abs(expect))


@st.composite
def root_polys(draw, max_factors=2):
    """1 + a_1 z + ... from up to max_factors real or conjugate-pair
    factors, every root of modulus >= 1.1."""
    poly = np.array([1.0])
    for _ in range(draw(st.integers(0, max_factors))):
        m = draw(st.floats(1.1, 10.0))
        if draw(st.booleans()):
            factor = [1.0, draw(st.sampled_from([-1.0, 1.0])) / m]
        else:
            angle = draw(st.floats(0.0, math.pi))
            factor = [1.0, -2.0 * math.cos(angle) / m, 1.0 / m**2]
        poly = np.convolve(poly, factor)
    return poly


@st.composite
def arma_models(draw):
    phi, theta = draw(root_polys()), draw(root_polys())
    return ArmaModel(c=draw(st.floats(-10.0, 10.0)), ar=list(-phi[1:]),
                     ma=list(theta[1:]), sigma2=draw(st.floats(0.01, 1e4)))


@settings(max_examples=60, deadline=None)
@given(model=arma_models(), n=st.integers(1, 2000),
       seed=st.integers(0, 2**32 - 1))
def test_residuals_invert_simulate(model, n, seed):
    # the fit's banded-solve inverse filter undoes the in-package forward one
    eps = np.random.default_rng(seed).normal(0.0, math.sqrt(model.sigma2), n)
    res = residuals(model, simulate(model, n, seed, burn_in=0))
    scale = np.max(np.abs(eps)) + abs(model.c)
    assert np.max(np.abs(res - eps)) <= 1e-9 * scale


class TestResiduals:
    def test_recovers_innovations(self):
        # zero burn-in keeps the zero-initial-condition transient, making
        # inversion exact; innovations regenerated from the documented stream
        n = 2000
        x = simulate(TABLE_MODEL, n, seed=10, burn_in=0)
        eps = np.random.default_rng(10).normal(0, math.sqrt(TABLE_MODEL.sigma2), n)
        res = residuals(TABLE_MODEL, x)
        warm = max(TABLE_MODEL.p, TABLE_MODEL.q)
        assert np.max(np.abs(res[warm:] - eps[warm:])) < 1e-9

    def test_identity_for_white_noise_model(self):
        x = np.random.default_rng(11).normal(size=50)
        model = ArmaModel(c=0.0, ar=[], ma=[], sigma2=1.0)
        assert np.array_equal(residuals(model, x), x)

    def test_mean_model_centers(self):
        x = np.random.default_rng(12).normal(loc=3.0, size=50)
        model = ArmaModel(c=float(x.mean()), ar=[], ma=[], sigma2=1.0)
        assert np.allclose(residuals(model, x), x - x.mean(), atol=1e-12)


class TestInformationCriteria:
    def test_zero(self):
        assert information_criteria(0.0, 0, 100) == (0.0, 0.0)

    def test_penalty_sizes(self):
        aic, bic = information_criteria(-100.0, 4, 3000)
        assert bic - 200.0 == pytest.approx(4 * math.log(3000), rel=1e-12)
        assert aic - 200.0 == pytest.approx(8.0, rel=1e-12)
        assert 4 * math.log(3000) > 8.0

    def test_monotone_in_k(self):
        prev_aic, prev_bic = information_criteria(-50.0, 0, 100)
        for k in range(1, 6):
            aic, bic = information_criteria(-50.0, k, 100)
            assert aic > prev_aic and bic > prev_bic
            prev_aic, prev_bic = aic, bic

    def test_requires_n_gt_k(self):
        with pytest.raises(ValueError):
            information_criteria(0.0, 10, 10)


class TestFitCss:
    def test_white_noise_fit(self):
        x = np.random.default_rng(13).normal(size=10_000)
        rep = fit_css(x, 0, 0)
        assert rep.model.c == pytest.approx(0.0, abs=0.05)
        assert rep.model.sigma2 == pytest.approx(1.0, rel=0.05)

    def test_ar1_recovery(self):
        model = ArmaModel(c=0.0, ar=[0.9], ma=[], sigma2=1.0)
        x = simulate(model, 10_000, seed=14)
        rep = fit_css(x, 1, 0)
        assert rep.model.ar[0] == pytest.approx(0.9, abs=0.02)

    def test_table_roundtrip_single_seed(self):
        x = simulate(TABLE_MODEL, 3000, seed=15)
        rep = fit_css(x, 2, 2)
        est = [rep.model.c] + rep.model.ar + rep.model.ma
        for e, t, s in zip(est, TABLE_TRUTH, rep.stderr):
            assert abs(e - t) <= 3 * s
        assert rep.model.sigma2 == pytest.approx(2150.0, rel=0.20)
        assert rep.stationary and rep.invertible

    def test_sigma2_positive_and_css_finite(self):
        x = simulate(TABLE_MODEL, 1000, seed=16)
        rep = fit_css(x, 1, 1)
        assert rep.model.sigma2 > 0
        assert math.isfinite(rep.css)

    def test_nested_css_with_warm_start(self):
        x = simulate(TABLE_MODEL, 3000, seed=17)
        small = fit_css(x, 1, 1)
        start = np.concatenate(([small.model.c], small.model.ar, [0.0],
                                small.model.ma, [0.0]))
        big = fit_css(x, 2, 2, start_params=start)
        assert big.css <= small.css * (1 + 1e-9)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            fit_css(np.zeros(30), 2, 2)

    def test_negative_order_rejected(self):
        x = np.random.default_rng(13).normal(size=1000)
        with pytest.raises(ValueError, match="p and q must be >= 0, got p=-1, q=2"):
            fit_css(x, -1, 2)

    def test_nonfinite_rejected(self):
        x = np.ones(1000)
        x[3] = np.nan
        with pytest.raises(ValueError):
            fit_css(x, 1, 0)

    def test_fixed_c(self):
        x = simulate(TABLE_MODEL, 2000, seed=18)
        rep = fit_css(x, 1, 1, estimate_c=False)
        assert rep.model.c == 0.0


class TestGlobalMinimum:
    """At paper scale the Table I model's near-cancelling AR/MA root pair
    makes the CSS surface multimodal: a fit must reach at least the CSS
    of a fit started at the true coefficients."""

    TRUTH = [1.759, -0.7626, -1.289, 0.3166]

    def truth_css(self, x):
        return fit_css(x, 2, 2, estimate_c=False, start_params=self.TRUTH).css

    def test_fit_css_reaches_truth_started_css(self):
        worse = []
        for seed in range(20):
            x = simulate(TABLE_MODEL, 3000, seed=seed)
            css = fit_css(x, 2, 2, estimate_c=False).css
            if css > self.truth_css(x) * (1 + 1e-9):
                worse.append(seed)
        assert worse == []

    def test_scan_cell_reaches_truth_started_css(self):
        x = simulate(TABLE_MODEL, 3000, seed=3)
        scan = order_scan(x, 5, 5, estimate_c=False)
        row = next(r for r in scan.rows if (r["p"], r["q"]) == (2, 2))
        assert row["css"] <= self.truth_css(x) * (1 + 1e-9)

    def test_fits_stay_invertible(self):
        # outside the invertible region zero-pre-sample CSS has spurious
        # minima: here a (3,4) with MA root 0.9946 beat (2,2) by 9 BIC units
        x = simulate(TABLE_MODEL, 3000, seed=5)
        rep = fit_css(x, 3, 4, estimate_c=False)
        assert rep.invertible
        assert min(validate(rep.model).ma_root_moduli) > 1.0

    def test_deterministic(self):
        x = simulate(TABLE_MODEL, 3000, seed=3)
        a = fit_css(x, 2, 2, estimate_c=False)
        b = fit_css(x, 2, 2, estimate_c=False)
        assert a.model == b.model and a.css == b.css


class TestEngine:
    def test_jacobian_matches_finite_differences(self):
        x = simulate(TABLE_MODEL, 500, seed=26) + 3.0
        params = np.array([2.5, 1.7, -0.74, 0.2, -1.2, 0.3, 0.05])
        p, q = 3, 3
        eps = arma._css_residuals(params, x, p, q, True)
        J = arma._jacobian(params, eps, x, p, q, True)
        for i in range(params.size):
            h = 1e-6 * (1.0 + abs(params[i]))
            up = params.copy(); up[i] += h
            dn = params.copy(); dn[i] -= h
            fd = (arma._css_residuals(up, x, p, q, True)
                  - arma._css_residuals(dn, x, p, q, True)) / (2 * h)
            assert np.allclose(J[:, i], fd, rtol=1e-5, atol=1e-6 * np.abs(fd).max())

    def test_invertible_matches_roots(self):
        rng = np.random.default_rng(27)
        for _ in range(2000):
            ma = rng.normal(size=rng.integers(0, 6)) * rng.uniform(0.1, 2.0)
            model = ArmaModel(c=0.0, ar=[], ma=list(ma), sigma2=1.0)
            assert arma._invertible(ma) == validate(model).invertible


class TestOrderScan:
    def test_white_noise_selects_00(self):
        x = np.random.default_rng(19).normal(size=2000)
        scan = order_scan(x, 2, 2)
        assert scan.selected_bic == (0, 0)

    def test_ar1_root_recovered(self):
        model = ArmaModel(c=0.0, ar=[0.9], ma=[], sigma2=1.0)
        x = simulate(model, 5000, seed=20)
        scan = order_scan(x, 2, 2)
        p_sel, q_sel = scan.selected_bic
        rep = fit_css(x, p_sel, q_sel)
        root = min(validate(rep.model).ar_root_moduli)
        assert root == pytest.approx(1 / 0.9, rel=0.05)

    def test_nested_css_monotone_across_grid(self):
        x = simulate(TABLE_MODEL, 3000, seed=21)
        scan = order_scan(x, 3, 3)
        css = {(r["p"], r["q"]): r["css"] for r in scan.rows}
        for (p, q), c in css.items():
            for prev in ((p - 1, q), (p, q - 1)):
                if prev in css and math.isfinite(css[prev]):
                    assert c <= css[prev] * (1 + 1e-9)

    def test_rows_cover_grid(self):
        x = np.random.default_rng(22).normal(size=1000)
        scan = order_scan(x, 1, 2)
        assert {(r["p"], r["q"]) for r in scan.rows} == {
            (p, q) for p in range(2) for q in range(3)}


class TestIterationCap:
    """A fit that hits the Gauss-Newton cap: fit_css raises with the best
    iterate, and order_scan keeps the cell but never selects it."""

    @pytest.fixture
    def x(self, monkeypatch):
        monkeypatch.setattr(arma, "_MAX_ITER", 1)
        return simulate(TABLE_MODEL, 1500, seed=1)

    def test_fit_css_raises_with_report(self, x):
        with pytest.raises(arma.FitConvergenceError, match="did not converge") as info:
            fit_css(x, 2, 2)
        report = info.value.report
        assert report.converged is False and report.iterations == 1
        assert math.isfinite(report.css)

    def test_order_scan_records_but_never_selects(self, x):
        scan = order_scan(x, 2, 2, estimate_c=False)
        rows = {(r["p"], r["q"]): r for r in scan.rows}
        # with no parameters to fit, (0, 0) is the one converged cell
        capped = [k for k in rows if k != (0, 0)]
        assert rows[(0, 0)]["converged"] and scan.selected_bic == (0, 0)
        for k in capped:
            assert not rows[k]["converged"] and rows[k]["error"] == "no convergence"
            assert scan.fits[k].converged is False
            assert rows[k]["bic"] < rows[(0, 0)]["bic"]  # excluded, not outscored


class TestDiagnostics:
    def test_lag_zero_is_one(self):
        x = np.random.default_rng(23).normal(size=500)
        assert diagnose_residuals(x, 10).acf[0] == 1.0

    def test_white_noise_passes_mostly(self):
        passes = sum(
            diagnose_residuals(np.random.default_rng(s).normal(size=3000), 20).passed
            for s in range(20))
        assert passes >= 18

    def test_ar1_against_white_model_fails(self):
        model = ArmaModel(c=0.0, ar=[0.9], ma=[], sigma2=1.0)
        x = simulate(model, 3000, seed=24)
        d = diagnose_residuals(x, 20)
        assert not d.passed
        assert abs(d.acf[1]) > 0.8

    def test_chi2_quantile_against_scipy(self):
        from scipy.stats import chi2
        for df in (5, 10, 16, 20):
            assert chi2_quantile(0.99, df) == pytest.approx(chi2.ppf(0.99, df), rel=0.01)


class TestStationaryVariance:
    def test_ar1_closed_form(self):
        model = ArmaModel(c=0.0, ar=[0.5], ma=[], sigma2=2.0)
        assert stationary_variance(model) == pytest.approx(2.0 / 0.75, rel=1e-10)

    def test_table_model_matches_simulation(self):
        x = simulate(TABLE_MODEL, 2_000_000, seed=25)
        assert stationary_variance(TABLE_MODEL) == pytest.approx(float(x.var()), rel=0.02)
