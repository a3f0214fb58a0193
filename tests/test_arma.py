import contextlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from beamwander import arma, stats
from beamwander.arma import (ArmaModel, chi2_quantile, diagnose_residuals,
                             fit_css, information_criteria, order_scan,
                             residuals, root_moduli, simulate,
                             stationary_variance)

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
        assert TABLE_MODEL.stationary and TABLE_MODEL.invertible
        ar_mod = root_moduli(TABLE_MODEL.ar_poly())
        ma_mod = root_moduli(TABLE_MODEL.ma_poly())
        ar_expect = quadratic_root_moduli(0.7626, -1.759)
        ma_expect = quadratic_root_moduli(0.3166, -1.289)
        assert ar_mod == pytest.approx(ar_expect, abs=1e-6)
        assert ma_mod == pytest.approx(ma_expect, abs=1e-6)
        assert ar_mod == pytest.approx([1.016260, 1.290323], abs=1e-6)
        assert ma_mod == pytest.approx([1.042978, 3.028406], abs=1e-6)

    def test_white_noise(self):
        model = ArmaModel(c=0.0, ar=[], ma=[], sigma2=1.0)
        assert model.stationary and model.invertible
        assert root_moduli(model.ar_poly()) == [] and root_moduli(model.ma_poly()) == []

    def test_unit_root(self):
        model = ArmaModel(c=0.0, ar=[1.0], ma=[], sigma2=1.0)
        assert not model.stationary
        assert root_moduli(model.ar_poly()) == pytest.approx([1.0])


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
        oracle = stats.acf(simulate(TABLE_MODEL, 1_000_000, seed=7), 1)[1]
        r = stats.acf(simulate(TABLE_MODEL, 3000, seed=8), 1)
        assert abs(r[1] - oracle) < stats.significance_bound(3000)

    def test_nonstationary_rejected(self):
        bad = ArmaModel(c=0.0, ar=[1.01], ma=[], sigma2=1.0)
        with pytest.raises(ValueError):
            simulate(bad, 100, seed=0)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            simulate(TABLE_MODEL, 0, seed=0)

    def test_not_invertible_rejected(self):
        bad = ArmaModel(c=0.0, ar=[0.5], ma=[2.0], sigma2=1.0)
        with pytest.raises(ValueError,
                           match=r"^model is not invertible \(MA root moduli \[0\.5\]\)$"):
            simulate(bad, 100, seed=0)

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ValueError, match="^burn_in must be >= 0$"):
            simulate(TABLE_MODEL, 100, seed=0, burn_in=-1)

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
    """simulate filters without the scipy.signal package, yet equals
    scipy.signal.lfilter bit for bit: the series is reproducible from the
    documented contract."""

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
        # sigma2 * sum psi_j^2 over lfilter's impulse response, whose tail
        # is below rounding for these roots; the solve adds its terms in
        # another order, so the two agree to rounding, not bit for bit
        model = random_model(p, q, 0.0)
        impulse = np.zeros(20000)
        impulse[0] = 1.0
        psi = lfilter(model.ma_poly(), model.ar_poly(), impulse)
        assert stationary_variance(model) == pytest.approx(
            float(model.sigma2 * np.dot(psi, psi)), rel=1e-12)


class TestInverseFilter:
    """The fit's filter is scipy.signal.lfilter([1], theta, .) bit for bit,
    and the residuals built on it match lfilter to rounding (exactly for
    q = 0)."""

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
                assert (arma._lfilter([1.0], theta, x).tobytes()
                        == lfilter([1.0], theta, x).tobytes())
                m = ArmaModel(c=model.c, ar=model.ar, ma=list(theta[1:]),
                              sigma2=1.0)
                got = residuals(m, x)
                expect = lfilter(phi, theta, x) - m.c * lfilter([1.0], theta, np.ones(n))
                if q == 0:
                    assert np.array_equal(got, expect)
                else:
                    err = np.max(np.abs(got - expect))
                    assert err <= 1e-12 * np.max(np.abs(expect))


# Runs in a fresh interpreter, where no scipy module is loaded yet: argv[1]
# names the direct route, the fit's inverse filter (run on its cases) or
# simulate's filter (loaded), before the scipy modules loaded so far are
# recorded; each is then compared with scipy.signal.lfilter. argv[2] is the
# JSON list of [ar, ma, sigma2, c] models that simulate.
LOAD_SCRIPT = r"""
import json, math, sys
import numpy as np
from beamwander import arma
if sys.argv[1] == "inverse_filter":
    cases = []
    for q in range(1, 6):
        for n in (3000, 100_000):
            rng = np.random.default_rng([q, n])
            theta = np.poly(1.0 / rng.uniform(1.05, 3.0, q))  # monic, roots outside
            v = rng.normal(3.0, 10.0, n)
            cases.append((theta, v, arma._lfilter([1.0], theta, v)))
else:
    arma._linear_filter()
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
from scipy.signal import lfilter
same = []
if sys.argv[1] == "inverse_filter":
    for theta, v, got in cases:
        same.append(got.tobytes() == lfilter([1.0], theta, v).tobytes())
else:
    for seed, (ar, ma, sigma2, c) in enumerate(json.loads(sys.argv[2])):
        model = arma.ArmaModel(c=c, ar=ar, ma=ma, sigma2=sigma2)
        phi, theta = model.ar_poly(), model.ma_poly()
        burn_in = arma.default_burn_in(model.p, model.q)
        eps = np.random.default_rng(seed).normal(0.0, math.sqrt(sigma2), 3000 + burn_in)
        expect = lfilter(theta, phi, eps)
        if c != 0.0:
            expect = expect + lfilter([1.0], phi, np.full(3000 + burn_in, c))
        got = arma.simulate(model, 3000, seed)
        same.append(got.tobytes() == expect[burn_in:].tobytes())
print(json.dumps({"loaded": loaded, "same": same}))
"""


class TestLoadExtension:
    """arma loads lfilter's compiled filter from scipy's _sigtools extension,
    without the scipy.signal package, for the fit's inverse filter and for
    simulate alike, and falls back to scipy.signal.lfilter when that load
    fails; both routes give the same bits."""

    @pytest.mark.parametrize("route", ["inverse_filter", "linear_filter"])
    def test_direct_load_equals_scipy(self, route):
        models = [[m.ar, m.ma, m.sigma2, m.c] for c in (0.0, -2.5)
                  for m in (random_model(p, q, c) for p, q in ORDERS)]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(arma.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", LOAD_SCRIPT, route,
                               json.dumps(models)], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        result = json.loads(proc.stdout)
        assert result["loaded"] == []  # the direct route, leaving nothing registered
        assert result["same"] == [True] * (10 if route == "inverse_filter" else len(models))

    def test_missing_extension_raises_import_error(self):
        name = "scipy.signal._no_such_extension"
        with pytest.raises(ImportError, match="^no _no_such_extension extension in "):
            arma._load_extension(name)
        assert name not in sys.modules

    def test_fallback_fits_alike(self):
        x = simulate(TABLE_MODEL, 3000, seed=19)
        direct = fit_css(x, 2, 2)
        with failing_load() as calls:
            fallback = fit_css(x, 2, 2)
        assert calls == ["scipy.signal._sigtools"]  # tried once, then cached
        assert fallback.model == direct.model
        assert fallback.css == direct.css
        assert fallback.residuals.tobytes() == direct.residuals.tobytes()

    def test_fallback_simulates_alike(self):
        model = ArmaModel(c=-2.5, ar=TABLE_MODEL.ar, ma=TABLE_MODEL.ma,
                          sigma2=TABLE_MODEL.sigma2)
        direct = simulate(model, 3000, seed=19)
        with failing_load() as calls:
            fallback = simulate(model, 3000, seed=19)
        assert calls == ["scipy.signal._sigtools"]  # tried once, then cached
        assert fallback.tobytes() == direct.tobytes()


@contextlib.contextmanager
def failing_load():
    """Within the block every extension file load fails and the cached
    filter routine is looked up afresh; yields the names the loader was
    asked for. (scipy.signal, imported above, has loaded the extension,
    which the loader would otherwise reuse.)"""
    calls = []

    def fail(name):
        calls.append(name)
        raise ImportError(f"no {name}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arma, "_load_extension", fail)
        arma._linear_filter.cache_clear()
        try:
            yield calls
        finally:
            arma._linear_filter.cache_clear()


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


def fourth_power(a):
    """(1 + a z)^4, ascending powers."""
    poly = np.array([1.0])
    for _ in range(4):
        poly = np.convolve(poly, [1.0, a])
    return poly


# phi(z) = (1 + z/1.1)^4, theta(z) = (1 - z/1.1)^4: a gain of 21^4 at
# frequency pi, so with sigma2 = 1 the series reaches 3.5e4, and the
# inversion error (3.7e-9) follows the series, not the innovations
FAR_GAIN_MODEL = ArmaModel(c=0.0, ar=list(-fourth_power(1 / 1.1)[1:]),
                           ma=list(fourth_power(-1 / 1.1)[1:]), sigma2=1.0)


@settings(max_examples=60, deadline=None)
@given(model=arma_models(), n=st.integers(1, 2000),
       seed=st.integers(0, 2**32 - 1))
@example(model=FAR_GAIN_MODEL, n=60, seed=0)
def test_residuals_invert_simulate(model, n, seed):
    # the fit's inverse filter undoes the in-package forward one, to
    # rounding relative to the series' own magnitude
    eps = np.random.default_rng(seed).normal(0.0, math.sqrt(model.sigma2), n)
    x = simulate(model, n, seed, burn_in=0)
    res = residuals(model, x)
    scale = np.max(np.abs(x)) + np.max(np.abs(eps))
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
        assert rep.model.stationary and rep.model.invertible

    def test_sigma2_positive_and_css_finite(self):
        x = simulate(TABLE_MODEL, 1000, seed=16)
        rep = fit_css(x, 1, 1)
        assert rep.model.sigma2 > 0
        assert math.isfinite(rep.css)

    def test_nested_css_with_warm_start(self):
        # order_scan's warm start: the (1,1) fit padded to (2,2), on the
        # demeaned series that both fits see
        x = simulate(TABLE_MODEL, 3000, seed=17)
        small = fit_css(x, 1, 1)
        start = np.concatenate((small.model.ar, [0.0], small.model.ma, [0.0]))
        xd, mean = arma._check_and_demean(x, True)
        big = arma._fit_css(xd, mean, 2, 2, arma._long_ar(xd), start)
        assert big.converged
        assert big.css <= small.css * (1 + 1e-9)

    def test_zeros_start_when_hannan_rissanen_is_not_invertible(self):
        # over-differenced noise: the Hannan-Rissanen (0,1) start is
        # theta = -1.161, whose CSS is not finite, so the fit starts at zeros
        e = np.random.default_rng(1).normal(size=301)
        x = e[1:] - e[:-1]
        hr = arma._hannan_rissanen(x, 0, 1, arma._long_ar(x))
        assert hr[0] == pytest.approx(-1.161, abs=1e-3)
        assert arma._css(hr, x, 0, 1)[0] == math.inf
        assert arma._gauss_newton(hr, x, 0, 1)[1:4] == (math.inf, 0, "not_finite")
        rep = fit_css(x, 0, 1, estimate_c=False)
        assert rep.converged and rep.model.invertible
        assert rep.css == arma._gauss_newton(np.zeros(1), x, 0, 1)[1]

    def test_short_series_rejected(self):
        x = np.random.default_rng(13).normal(size=30)
        with pytest.raises(ValueError, match="series too short: need n > 50, got 30"):
            fit_css(x, 2, 2)

    def test_empty_series_rejected(self):
        # the long-AR stage runs before the length check, and must not fail first
        with pytest.raises(ValueError, match="series too short: need n > 20, got 0"):
            fit_css(np.zeros(0), 1, 0)
        with pytest.raises(RuntimeError, match="no admissible fits"):
            order_scan(np.zeros(0), 1, 1)

    def test_negative_order_rejected(self):
        x = np.random.default_rng(13).normal(size=1000)
        with pytest.raises(ValueError, match="p and q must be >= 0, got p=-1, q=2"):
            fit_css(x, -1, 2)

    def test_nonfinite_rejected(self):
        x = np.ones(1000)
        x[3] = np.nan
        with pytest.raises(ValueError):
            fit_css(x, 1, 0)

    def test_overflowing_series_rejected(self):
        x = np.random.default_rng(13).normal(size=400) * 1e160
        with pytest.raises(ValueError, match="series overflows: its sum of squares"):
            fit_css(x, 1, 0)

    @pytest.mark.parametrize("series, estimate_c, named", [
        (np.full(300, 3.0), True, "demeaned sum of squares is zero"),
        (np.zeros(300), True, "demeaned sum of squares is zero"),
        (np.zeros(300), False, "sum of squares is zero"),
        # every square underflows to zero at 2^-560, and most to subnormals at 2^-525
        (simulate(TABLE_MODEL, 3000, seed=1) * 2.0**-560, True,
         "demeaned sum of squares is zero"),
        (simulate(TABLE_MODEL, 3000, seed=1) * 2.0**-560, False, "sum of squares is zero"),
        (simulate(TABLE_MODEL, 3000, seed=1) * 2.0**-525, True,
         "demeaned sum of squares is subnormal"),
        (simulate(TABLE_MODEL, 3000, seed=1) * 2.0**-525, False,
         "sum of squares is subnormal"),
    ], ids=["constant", "zeros", "zeros_fixed_c", "2^-560", "2^-560_fixed_c",
            "2^-525", "2^-525_fixed_c"])
    def test_nothing_to_fit_rejected(self, series, estimate_c, named):
        # nothing to fit: the fit would return an all-zero model, marked
        # converged, with a sigma2 of zero or lost to rounding
        with pytest.raises(ValueError, match=f"^series underflows: its {named}$"):
            fit_css(series, 1, 1, estimate_c=estimate_c)
        with pytest.raises(ValueError, match=f"^series underflows: its {named}$"):
            order_scan(series, 1, 1, estimate_c=estimate_c)

    def test_fixed_c(self):
        x = simulate(TABLE_MODEL, 2000, seed=18)
        rep = fit_css(x, 1, 1, estimate_c=False)
        assert rep.model.c == 0.0

    def test_loglik_finite_when_2pi_css_overflows(self):
        # css = 1.29e308 is finite, but 2 pi css is not: the log-likelihood
        # read -inf, so (0,0) and (1,0) scored BIC inf and the scan,
        # with no admissible cell left, raised
        x = simulate(TABLE_MODEL, 3000, seed=6) * 2.0**500
        rep = fit_css(x, 0, 0, estimate_c=False)
        assert rep.css > sys.float_info.max / (2.0 * math.pi)
        assert all(map(math.isfinite, (rep.loglik, rep.aic, rep.bic)))
        assert rep.loglik == pytest.approx(
            -0.5 * x.size * (math.log(2.0 * math.pi * (rep.css / x.size)) + 1.0))
        rows, fits, selected = order_scan(x, 3, 3, estimate_c=False)
        assert selected == (3, 0)
        assert math.isfinite(fits[selected].bic)


class TestStartFallbacks:
    """The first Hannan-Rissanen stage and the regression after it fall
    back to no estimate, and the start to zeros, rather than fail the fit.
    `_fit_css`'s length check and `_check_and_demean`'s finite, normal sum
    of squares keep a fit's own series from most of these cases, so each
    is called here directly."""

    def test_long_ar_overflow_or_no_rows(self):
        assert arma._long_ar(np.full(100, 1e200)) == (10, None)
        assert arma._long_ar(np.ones(1)) == (1, None)

    def test_long_ar_singular_takes_minimum_norm(self):
        # every lag is zero, so A'A = 0: no LU factor, and the minimum-norm
        # coefficients are zeros
        x = np.zeros(50)
        x[-1] = 1.0
        m, eps_hat = arma._long_ar(x)
        assert eps_hat.tobytes() == np.concatenate((np.zeros(m), x[m:])).tobytes()

    def test_ols_singular_takes_minimum_norm(self):
        # two equal columns: LU fails on the exactly singular A'A
        a = np.arange(5.0)
        assert arma._ols(np.column_stack((a, a)), a) == pytest.approx([0.5, 0.5],
                                                                      rel=1e-12)

    def test_hannan_rissanen_without_long_ar(self):
        x = np.random.default_rng(29).normal(size=200)
        assert arma._hannan_rissanen(x, 1, 1, (2, None)).tolist() == [0.0, 0.0]

    def test_hannan_rissanen_too_few_rows(self):
        # m = 1 and start = m + 5 leave 9 rows for 10 coefficients
        x = np.random.default_rng(29).normal(size=15)
        assert arma._hannan_rissanen(x, 5, 5, arma._long_ar(x)).tolist() == [0.0] * 10

    def test_hannan_rissanen_overflow(self):
        x = np.full(200, 1e200)
        with pytest.raises(np.linalg.LinAlgError, match="not finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            arma._ols(x[2:-1, None], x[3:])
        assert arma._hannan_rissanen(x, 1, 0, (2, np.ones(200))).tolist() == [0.0]

    def test_hannan_rissanen_non_finite_coefficients(self):
        # proxies of 1e-162 give A'A near 1e-322, and A'y / A'A overflows
        rng = np.random.default_rng(29)
        x = rng.normal(size=200) * 1e150
        eps_hat = np.zeros(200)
        eps_hat[2:] = rng.normal(size=198) * 1e-162
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            beta = arma._ols(eps_hat[2:-1, None], x[3:])
        assert not np.isfinite(beta).all()
        assert arma._hannan_rissanen(x, 0, 1, (2, eps_hat)).tolist() == [0.0]


class TestUnits:
    """No step of the fit has an intercept: with c fixed it runs on the
    series, with c estimated on the demeaned series, and the long-AR stage
    of the Hannan-Rissanen start regresses on lags alone. Every regression
    and residual then scales with the series, so in either mode the fit
    does not depend on the trace's units, and a power-of-two scale, being
    exact, scales c, css, sigma2 and the residuals exactly and moves no
    coefficient, iteration count or other standard error."""

    @pytest.fixture
    def x(self):
        return simulate(TABLE_MODEL, 3000, seed=1) + 5.0

    @pytest.mark.parametrize("j, estimate_c", [
        pytest.param(j, c, id=str(j) if c else f"{j}-c_fixed")
        for c in (True, False) for j in (-400, -30, 20, 400)])
    def test_power_of_two_scale_is_exact(self, x, j, estimate_c):
        ref = fit_css(x, 2, 2, estimate_c=estimate_c)
        rep = fit_css(x * 2.0**j, 2, 2, estimate_c=estimate_c)
        assert rep.model.ar == ref.model.ar and rep.model.ma == ref.model.ma
        assert rep.converged == ref.converged and rep.iterations == ref.iterations
        assert rep.model.c == ref.model.c * 2.0**j
        assert rep.css == ref.css * 4.0**j
        assert rep.model.sigma2 == ref.model.sigma2 * 4.0**j
        k = 1 if estimate_c else 0  # stderr leads with c's when c is estimated
        assert rep.stderr == [v * 2.0**j for v in ref.stderr[:k]] + ref.stderr[k:]
        assert np.array_equal(rep.residuals, ref.residuals * 2.0**j)

    @pytest.mark.parametrize("j, estimate_c", [
        pytest.param(j, c, id=str(j) if c else f"{j}-c_fixed")
        for c in (True, False) for j in (-505, -510)])
    def test_scale_below_a_css_of_1e_300(self, x, j, estimate_c):
        # sigma2 falls below 1e-300 at 2^-505 and the CSS too at 2^-510; no
        # constant floors either of them or the Gauss-Newton tolerance
        ref = fit_css(x, 2, 2, estimate_c=estimate_c)
        rep = fit_css(x * 2.0**j, 2, 2, estimate_c=estimate_c)
        assert rep.css == ref.css * 4.0**j
        assert rep.model.sigma2 == ref.model.sigma2 * 4.0**j
        assert rep.iterations == ref.iterations
        assert np.allclose(rep.model.ar + rep.model.ma, ref.model.ar + ref.model.ma,
                           rtol=0, atol=1e-12)

    def test_metres_for_micrometres(self, x):
        for estimate_c in (True, False):
            ref = fit_css(x, 2, 2, estimate_c=estimate_c)
            rep = fit_css(x * 1e-7, 2, 2, estimate_c=estimate_c)
            assert np.allclose(rep.model.ar + rep.model.ma, ref.model.ar + ref.model.ma,
                               rtol=0, atol=1e-6)
            assert rep.model.c == pytest.approx(ref.model.c * 1e-7, rel=1e-6)


class TestOffset:
    """With c estimated the fit runs on the demeaned series and reports
    c = mean * phi(1), so an offset d in the trace moves no coefficient
    beyond rounding, and c tracks the intercept d * phi(1) of the shifted
    process. An intercept fitted inside the zero-pre-sample CSS would start
    a transient that the near-unit MA root carries through the series;
    d = 500 is about 8 sigma."""

    OFFSETS = (0, 20, 100, 500)

    @pytest.fixture(scope="class")
    def fits(self):
        out = {}
        for seed in range(20):
            x = simulate(TABLE_MODEL, 3000, seed=seed)
            for d in self.OFFSETS:
                out[seed, d] = fit_css(x + d, 2, 2)
        return out

    @pytest.mark.parametrize("d", OFFSETS[1:])
    def test_coefficients_do_not_move(self, fits, d):
        for seed in range(20):
            ref, rep = fits[seed, 0], fits[seed, d]
            assert np.allclose(rep.model.ar + rep.model.ma, ref.model.ar + ref.model.ma,
                               rtol=0, atol=1e-8), seed

    def test_coverage_at_large_offset(self, fits):
        d = 500
        phi1 = float(np.sum(TABLE_MODEL.ar_poly()))
        truth = [d * phi1] + TABLE_TRUTH[1:]
        covered = 0
        for seed in range(20):
            rep = fits[seed, d]
            est = [rep.model.c] + rep.model.ar + rep.model.ma
            covered += all(abs(e - t) <= 3 * s for e, t, s in zip(est, truth, rep.stderr))
        assert covered >= 18

    def test_fixed_c_residuals_are_the_models(self):
        # cli diagnoses report.residuals; with c fixed they must be the
        # model's residuals on the series, bit for bit
        x = simulate(TABLE_MODEL, 3000, seed=4) + 5.0
        rep = fit_css(x, 2, 2, estimate_c=False)
        assert np.array_equal(rep.residuals, residuals(rep.model, x))
        _, fits, selected = order_scan(x, 2, 2, estimate_c=False)
        assert np.array_equal(fits[selected].residuals,
                              residuals(fits[selected].model, x))

    def test_estimated_c_residuals_are_the_demeaned_series(self):
        x = simulate(TABLE_MODEL, 3000, seed=4) + 500.0
        rep = fit_css(x, 2, 2)
        assert np.allclose(rep.residuals, residuals(
            ArmaModel(c=0.0, ar=rep.model.ar, ma=rep.model.ma, sigma2=1.0),
            x - x.mean()), rtol=0, atol=1e-9)


class TestGlobalMinimum:
    """At paper scale the Table I model's near-cancelling AR/MA root pair
    makes the CSS surface multimodal: a fit must reach at least the CSS
    of a fit started at the true coefficients."""

    TRUTH = [1.759, -0.7626, -1.289, 0.3166]

    def truth_css(self, x):
        _, css, _, stop, _, _ = arma._gauss_newton(np.array(self.TRUTH), x, 2, 2)
        assert stop == "tolerance"
        return css

    def test_fit_css_reaches_truth_started_css(self):
        worse = []
        for seed in range(20):
            x = simulate(TABLE_MODEL, 3000, seed=seed)
            css = fit_css(x, 2, 2, estimate_c=False).css
            if css > self.truth_css(x) * (1 + 1e-9):
                worse.append(seed)
        assert worse == []

    # one scan of 0.2 s a seed: the scan's (2,2) cell is where a deleted
    # common-factor start would first be missed
    @pytest.mark.parametrize("seed", range(20))
    def test_scan_cell_reaches_truth_started_css(self, seed):
        x = simulate(TABLE_MODEL, 3000, seed=seed)
        rows, _, _ = order_scan(x, 5, 5, estimate_c=False)
        row = next(r for r in rows if (r["p"], r["q"]) == (2, 2))
        assert row["css"] <= self.truth_css(x) * (1 + 1e-9)

    def test_fits_stay_invertible(self):
        # outside the invertible region zero-pre-sample CSS has spurious
        # minima: here a (3,4) with MA root 0.9946 beat (2,2) by 9 BIC units
        x = simulate(TABLE_MODEL, 3000, seed=5)
        rep = fit_css(x, 3, 4, estimate_c=False)
        assert rep.model.invertible
        assert min(root_moduli(rep.model.ma_poly())) > 1.0

    def test_deterministic(self):
        x = simulate(TABLE_MODEL, 3000, seed=3)
        a = fit_css(x, 2, 2, estimate_c=False)
        b = fit_css(x, 2, 2, estimate_c=False)
        assert a.model == b.model and a.css == b.css


def gauss_newton_all_halvings(params0, x, p, q):
    """arma._gauss_newton's loop, except that a failed line search runs all
    40 halvings; returns its result and how many failed searches met a trial
    equal to the current point bit for bit."""
    params = params0.copy()
    no_ops = 0
    with np.errstate(over="ignore", invalid="ignore"):
        css, eps, u = arma._css(params, x, p, q)
        if params.size == 0 or eps is None:
            return (params, css, 0, eps is not None, eps), no_ops
        converged = False
        iterations = 0
        for iterations in range(1, arma._MAX_ITER + 1):
            step = -arma._ols(arma._jacobian(params, eps, u, p, q), eps)
            new_css = None
            t = 1.0
            no_op = False
            for _ in range(40):
                trial = params + t * step
                s, trial_eps, trial_u = arma._css(trial, x, p, q)
                if s < css:
                    new_css = s
                    params, eps, u = trial, trial_eps, trial_u
                    break
                no_op = no_op or trial.tobytes() == params.tobytes()
                t *= 0.5
            if new_css is None:
                no_ops += no_op
                converged = True
                break
            if abs(css - new_css) <= arma._TOL * css:
                css = new_css
                converged = True
                break
            css = new_css
    return (params, css, iterations, converged, eps), no_ops


# A frozen copy of the Gauss-Newton primitives as they stood before the
# loop was made to allocate less: the step-down test, the CSS, the
# Jacobian and the normal-equation solve. arma's own may be rewritten for
# speed, but TestEngine::test_gauss_newton_matches_frozen_reference
# requires the same bits from them. scipy's lfilter stands for arma._lfilter,
# which TestInverseFilter pins to it.

def frozen_outside_unit_circle(poly):
    a = [float(v) for v in poly]
    while len(a) > 1:
        k = a[-1]
        if not abs(k) < 1.0:
            return False
        a = [(a[i] - k * a[-1 - i]) / (1.0 - k * k) for i in range(len(a) - 1)]
    return True


def frozen_css(params, x, p, q):
    theta = np.concatenate(([1.0], params[p:]))
    if not frozen_outside_unit_circle(theta):
        return math.inf, None, None
    u = lfilter([1.0], theta, x)
    eps = np.convolve(np.concatenate(([1.0], -params[:p])), u)[:x.size]
    s = float(np.dot(eps, eps))
    return (s, eps, u) if math.isfinite(s) else (math.inf, None, None)


def frozen_ols(A, y):
    ata, aty = A.T @ A, A.T @ y
    if not (np.isfinite(ata).all() and np.isfinite(aty).all()):
        raise np.linalg.LinAlgError("normal equations are not finite")
    try:
        return np.linalg.solve(ata, aty)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(ata, aty, rcond=None)[0]


def frozen_jacobian(params, eps, u, p, q):
    J = np.zeros((u.size, p + q), order="F")
    for i in range(1, p + 1):
        J[i:, i - 1] = -u[:-i]
    if q:
        v = lfilter([1.0], np.concatenate(([1.0], params[p:])), eps)
        for j in range(1, q + 1):
            J[j:, p + j - 1] = -v[:-j]
    return J


def frozen_gauss_newton(params0, x, p, q):
    """arma._gauss_newton's loop on the frozen primitives."""
    params = params0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        css, eps, u = frozen_css(params, x, p, q)
        if params.size == 0 or eps is None:
            return params, css, 0, eps is not None, eps
        converged = False
        iterations = 0
        for iterations in range(1, arma._MAX_ITER + 1):
            step = -frozen_ols(frozen_jacobian(params, eps, u, p, q), eps)
            new_css = None
            t = 1.0
            for _ in range(40):
                trial = params + t * step
                s, trial_eps, trial_u = frozen_css(trial, x, p, q)
                if s < css:
                    new_css = s
                    params, eps, u = trial, trial_eps, trial_u
                    break
                if trial.tobytes() == params.tobytes():
                    break
                t *= 0.5
            if new_css is None:
                converged = True
                break
            if abs(css - new_css) <= arma._TOL * css:
                css = new_css
                converged = True
                break
            css = new_css
    return params, css, iterations, converged, eps


def frozen_stderr(rep, x, mean):
    """The standard errors of the fit rep of x, the series as the fit saw
    it (`_check_and_demean`'s (x, mean)), by the formula that filtered x a
    second time for theta(B)^-1 x instead of taking the leader's own."""
    p, q, n = rep.model.p, rep.model.q, x.size
    ar, ma = rep.model.ar, rep.model.ma
    sigma2 = rep.model.sigma2
    cov = np.empty((0, 0))
    if p + q:
        with np.errstate(over="ignore", invalid="ignore"):
            u = arma._lfilter([1.0], np.concatenate(([1.0], ma)), x)
            J = arma._jacobian(np.array(ar + ma), rep.residuals, u, p, q)
        try:
            cov = sigma2 * np.linalg.inv(J.T @ J)
        except np.linalg.LinAlgError:
            cov = np.full((p + q, p + q), np.nan)
    var = np.diag(cov)
    if mean is not None:
        var_c = (sigma2 * (1.0 + float(np.sum(ma))) ** 2 / n
                 + mean ** 2 * float(np.sum(cov[:p, :p])))
        var = np.concatenate(([var_c], var))
    return [math.sqrt(v) if v > 0 else float("nan") for v in var]


def line_search_cases():
    """(x, p, q, start): the 72 cases of test_line_search_end_is_exact."""
    rng = np.random.default_rng(28)
    for case in range(24):
        p, q = (int(v) for v in rng.integers(0, 4, 2))
        if p + q == 0:
            continue
        x = simulate(TABLE_MODEL, 600, seed=case)
        starts = [arma._hannan_rissanen(x, p, q, arma._long_ar(x)),
                  np.zeros(p + q), rng.normal(0.0, 0.3, p + q)]
        for s0 in starts:
            yield x, p, q, s0


class TestEngine:
    def test_jacobian_matches_finite_differences(self):
        x = simulate(TABLE_MODEL, 500, seed=26) + 3.0
        params = np.array([1.7, -0.74, 0.2, -1.2, 0.3, 0.05])
        p, q = 3, 3
        _, eps, u = arma._css(params, x, p, q)
        J = arma._jacobian(params, eps, u, p, q)
        for i in range(params.size):
            h = 1e-6 * (1.0 + abs(params[i]))
            up = params.copy(); up[i] += h
            dn = params.copy(); dn[i] -= h
            fd = (arma._css(up, x, p, q)[1]
                  - arma._css(dn, x, p, q)[1]) / (2 * h)
            assert np.allclose(J[:, i], fd, rtol=1e-5, atol=1e-6 * np.abs(fd).max())

    @pytest.mark.parametrize("tol", [arma._TOL, 0.0], ids=["tol", "no_tol"])
    def test_line_search_end_is_exact(self, monkeypatch, tol):
        # a failed line search ends at its first trial that equals the
        # current point bit for bit; this copy of the loop always runs all
        # 40 halvings instead. With no tolerance every run ends in a failed
        # search (or at the cap), so the early end runs in most cases
        monkeypatch.setattr(arma, "_TOL", tol)
        rng = np.random.default_rng(28)
        no_ops = 0
        for case in range(24):
            p, q = (int(v) for v in rng.integers(0, 4, 2))
            if p + q == 0:
                continue
            x = simulate(TABLE_MODEL, 600, seed=case)
            starts = [arma._hannan_rissanen(x, p, q, arma._long_ar(x)),
                      np.zeros(p + q), rng.normal(0.0, 0.3, p + q)]
            for s0 in starts:
                expect, seen = gauss_newton_all_halvings(s0, x, p, q)
                got = arma._gauss_newton(s0, x, p, q)
                assert got[0].tobytes() == expect[0].tobytes()
                assert got[1:3] == expect[1:3]
                assert (got[3] not in ("cap", "not_finite")) == expect[3]
                assert (got[4] is None) == (expect[4] is None)
                if got[4] is not None:
                    assert got[4].tobytes() == expect[4].tobytes()
                no_ops += seen
        assert no_ops > 0

    @pytest.mark.parametrize("tol", [arma._TOL, 0.0], ids=["tol", "no_tol"])
    def test_gauss_newton_matches_frozen_reference(self, monkeypatch, tol):
        # every case also runs with every seventh sample a negative zero,
        # whose sign a filter or convolution by a lone 1.0 would drop
        monkeypatch.setattr(arma, "_TOL", tol)
        cases = 0
        for x, p, q, s0 in line_search_cases():
            signed = x.copy()
            signed[::7] = -0.0
            for series in (x, signed):
                expect = frozen_gauss_newton(s0, series, p, q)
                got = arma._gauss_newton(s0, series, p, q)
                assert got[0].tobytes() == expect[0].tobytes()
                assert got[1:3] == expect[1:3]
                assert (got[3] not in ("cap", "not_finite")) == expect[3]
                assert (got[4] is None) == (expect[4] is None)
                if got[4] is not None:
                    assert got[4].tobytes() == expect[4].tobytes()
            cases += 1
        assert cases == 72
        # u and the residuals too, where one of the two passes is skipped
        for p, q in ((0, 0), (0, 1), (1, 0)):
            params = np.full(p + q, 0.5)
            got, expect = arma._css(params, signed, p, q), frozen_css(params, signed, p, q)
            assert got[0] == expect[0]
            assert [a.tobytes() for a in got[1:]] == [a.tobytes() for a in expect[1:]]

    def test_stderr_matches_frozen_formula(self):
        # with q = 0 and q >= 1, c fixed and estimated, and on a series
        # whose every seventh sample is a negative zero
        cases = 0
        for seed, (p, q) in enumerate(((0, 0), (2, 0), (0, 2), (1, 1), (2, 2))):
            x = simulate(TABLE_MODEL, 600, seed=seed) + 3.0
            signed = x.copy()
            signed[::7] = -0.0
            for series in (x, signed):
                for estimate_c in (False, True):
                    rep = fit_css(series, p, q, estimate_c)
                    seen, mean = arma._check_and_demean(series, estimate_c)
                    expect = frozen_stderr(rep, seen, mean)
                    assert len(rep.stderr) == p + q + estimate_c
                    assert np.array(rep.stderr).tobytes() == np.array(expect).tobytes()
                    cases += 1
        assert cases == 20

    def test_invertible_matches_roots(self):
        # the step-down decides; np.roots agrees wherever no root is within
        # rounding of the unit circle
        rng = np.random.default_rng(27)
        seen = set()
        for _ in range(2000):
            ar, ma = (list(rng.normal(size=rng.integers(0, 6)) * rng.uniform(0.1, 2.0))
                      for _ in range(2))
            model = ArmaModel(c=0.0, ar=ar, ma=ma, sigma2=1.0)
            for name, poly in (("stationary", model.ar_poly()),
                               ("invertible", model.ma_poly())):
                moduli = np.array(root_moduli(poly))
                if np.any(np.abs(moduli - 1.0) < 1e-9):
                    continue
                flag = getattr(model, name)
                assert flag == bool(np.all(moduli > 1.0))
                seen.add((name, flag))
        assert len(seen) == 4  # both outcomes of both properties


def spy_race(monkeypatch):
    """Record every `_gauss_newton` run while `_fit_css` races its starts,
    and apart from them every finish: a call with iterations > 0, which
    goes on from the leader's params, as (params0, iterations, run)."""
    runs, finishes = [], []
    gauss_newton = arma._gauss_newton

    def spy_gauss_newton(params0, x, p, q, tol=None, iterations=0):
        run = gauss_newton(params0, x, p, q, tol, iterations)
        if iterations:
            finishes.append((params0, iterations, run))
        else:
            runs.append(run)
        return run

    monkeypatch.setattr(arma, "_gauss_newton", spy_gauss_newton)
    return runs, finishes


class TestRace:
    """`_fit_css` runs every start to _SCREEN_TOL and finishes only the
    leader, the start with the lowest screened CSS, to _TOL."""

    def test_screened_then_resumed_is_one_run(self):
        screened = 0
        for x, p, q, s0 in line_search_cases():
            expect = arma._gauss_newton(s0, x, p, q)
            got = arma._gauss_newton(s0, x, p, q, arma._SCREEN_TOL)
            if got[3] == "screened":
                assert got[2] < expect[2]
                got = arma._gauss_newton(got[0], x, p, q, iterations=got[2])
                screened += 1
            assert got[0].tobytes() == expect[0].tobytes()
            assert got[1:4] == expect[1:4]
            assert expect[3] != "screened"
            for a, b in ((got[4], expect[4]), (got[5], expect[5])):
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.tobytes() == b.tobytes()
        assert screened > 36

    # the leaders are the common-factor, Hannan-Rissanen, warm and warm starts
    @pytest.mark.parametrize("seed, p, q", [(3, 2, 2), (5, 3, 4), (7, 1, 1), (8, 2, 1)])
    def test_leader_is_lowest_screened_css(self, monkeypatch, seed, p, q):
        x = simulate(TABLE_MODEL, 3000, seed=seed)
        long_ar = arma._long_ar(x)
        nested = arma._fit_css(x, None, p - 1, q - 1, long_ar)
        warm = np.zeros(p + q)
        runs, finishes = spy_race(monkeypatch)
        rep = arma._fit_css(x, None, p, q, long_ar, warm, nested)
        assert len(runs) == 3
        leader = min(runs, key=lambda run: run[1])  # the first of any tie
        assert [(id(params0), iterations) for params0, iterations, _ in finishes] == (
            [(id(leader[0]), leader[2])] if leader[3] == "screened" else [])
        end = finishes[0][2] if finishes else leader
        assert rep.css == end[1] and rep.converged == (end[3] != "cap")
        assert rep.model.ar + rep.model.ma == end[0].tolist()
        assert rep.iterations == max(run[2] for run in runs + [end])

    def test_earlier_start_wins_a_tie(self, monkeypatch):
        # the warm start is the Hannan-Rissanen start itself
        x = simulate(TABLE_MODEL, 3000, seed=3)
        long_ar = arma._long_ar(x)
        hr = arma._hannan_rissanen(x, 1, 1, long_ar)
        nested = arma._fit_css(x, None, 0, 0, long_ar)
        runs, finishes = spy_race(monkeypatch)
        arma._fit_css(x, None, 1, 1, long_ar, hr, nested)
        assert runs[0][1] == runs[1][1] and runs[0][3] == "screened"
        assert [id(params0) for params0, _, _ in finishes] == [id(runs[0][0])]

    def test_spent_line_search_is_never_resumed(self, monkeypatch):
        # with no _TOL a run to it ends on a spent line search; a start at
        # its end point spends its first line search the same way and,
        # holding the lowest CSS, leads the race as it is
        monkeypatch.setattr(arma, "_TOL", 0.0)
        x = simulate(TABLE_MODEL, 600, seed=2)
        long_ar = arma._long_ar(x)
        end = arma._gauss_newton(arma._hannan_rissanen(x, 1, 1, long_ar), x, 1, 1)
        assert end[3] == "spent" and end[2] < arma._MAX_ITER
        nested = arma._fit_css(x, None, 0, 0, long_ar)
        runs, finishes = spy_race(monkeypatch)
        rep = arma._fit_css(x, None, 1, 1, long_ar, end[0], nested)
        spent = runs[1]
        assert spent[1:4] == (end[1], 1, "spent")
        assert min(runs, key=lambda run: run[1]) is spent
        assert finishes == [] and rep.css == end[1] and rep.converged

    def test_capped_start_is_never_resumed(self, monkeypatch):
        monkeypatch.setattr(arma, "_MAX_ITER", 1)
        x = simulate(TABLE_MODEL, 1500, seed=1)
        long_ar = arma._long_ar(x)
        nested = arma._fit_css(x, None, 1, 1, long_ar)
        runs, finishes = spy_race(monkeypatch)
        rep = arma._fit_css(x, None, 2, 2, long_ar, np.zeros(4), nested)
        assert len(runs) == 3
        assert all(run[2:4] == (1, "cap") for run in runs)
        assert finishes == [] and not rep.converged and rep.iterations == 1


class TestOrderScan:
    def test_white_noise_selects_00(self):
        x = np.random.default_rng(19).normal(size=2000)
        _, _, selected = order_scan(x, 2, 2)
        assert selected == (0, 0)

    def test_ar1_root_recovered(self):
        model = ArmaModel(c=0.0, ar=[0.9], ma=[], sigma2=1.0)
        x = simulate(model, 5000, seed=20)
        _, _, (p_sel, q_sel) = order_scan(x, 2, 2)
        rep = fit_css(x, p_sel, q_sel)
        root = min(root_moduli(rep.model.ar_poly()))
        assert root == pytest.approx(1 / 0.9, rel=0.05)

    def test_nested_css_monotone_across_grid(self):
        x = simulate(TABLE_MODEL, 3000, seed=21)
        rows, _, _ = order_scan(x, 3, 3)
        css = {(r["p"], r["q"]): r["css"] for r in rows}
        for (p, q), c in css.items():
            for prev in ((p - 1, q), (p, q - 1)):
                if prev in css and math.isfinite(css[prev]):
                    assert c <= css[prev] * (1 + 1e-9)

    def test_flags_agree_with_search(self):
        # np.roots puts an MA root of the (4, 4) cell at 0.99999999999983,
        # inside the circle, while the step-down that confined its search
        # says outside
        x = simulate(TABLE_MODEL, 3000, seed=1065)
        scan_rows, fits, _ = order_scan(x, 4, 4, estimate_c=False)
        assert all(rep.model.invertible for rep in fits.values())
        rows = {(r["p"], r["q"]): r for r in scan_rows}
        assert rows[(4, 4)]["invertible"]
        assert all(rows[k]["invertible"] for k in fits)

    @pytest.mark.parametrize("bad, named", [
        (np.nan, "series contains non-finite values"),
        (1e160, "series overflows: its sum of squares is not finite"),
    ], ids=["nan", "overflow"])
    def test_bad_series_named(self, bad, named):
        x = np.random.default_rng(22).normal(size=1000)
        x[7] = bad
        with pytest.raises(ValueError, match=named):
            order_scan(x, 2, 2)

    @pytest.mark.parametrize("p_max, q_max", [(-1, 2), (2, -1)])
    def test_negative_grid_rejected(self, p_max, q_max):
        x = np.random.default_rng(22).normal(size=1000)
        with pytest.raises(ValueError, match="^p_max and q_max must be >= 0$"):
            order_scan(x, p_max, q_max)

    def test_rows_cover_grid(self):
        x = np.random.default_rng(22).normal(size=1000)
        rows, _, _ = order_scan(x, 1, 2)
        assert {(r["p"], r["q"]) for r in rows} == {
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
        scan_rows, fits, selected = order_scan(x, 2, 2, estimate_c=False)
        rows = {(r["p"], r["q"]): r for r in scan_rows}
        # with no parameters to fit, (0, 0) is the one converged cell
        capped = [k for k in rows if k != (0, 0)]
        assert rows[(0, 0)]["converged"] and selected == (0, 0)
        for k in capped:
            assert not rows[k]["converged"] and rows[k]["error"] == "no convergence"
            assert fits[k].converged is False
            assert rows[k]["bic"] < rows[(0, 0)]["bic"]  # excluded, not outscored


class TestDiagnostics:
    def test_white_noise_passes_mostly(self):
        passes = sum(
            diagnose_residuals(np.random.default_rng(s).normal(size=3000), 20)["passed"]
            for s in range(20))
        assert passes >= 18

    def test_ar1_against_white_model_fails(self):
        model = ArmaModel(c=0.0, ar=[0.9], ma=[], sigma2=1.0)
        x = simulate(model, 3000, seed=24)
        assert not diagnose_residuals(x, 20)["passed"]
        assert abs(stats.acf(x, 20)[1]) > 0.8

    def test_returns_diagnostics_json_keys(self):
        d = diagnose_residuals(np.random.default_rng(23).normal(size=500), 10)
        assert list(d) == ["ljung_box_q", "ljung_box_df", "ljung_box_critical",
                           "skewness", "excess_kurtosis", "significance_bound",
                           "passed"]

    def test_moment_overflow_rejected(self):
        x = np.random.default_rng(23).normal(size=500) * 1e100
        with pytest.raises(ValueError, match="fourth moment is not finite"):
            diagnose_residuals(x, 10)

    @pytest.mark.parametrize("scale, named", [
        (1e-100, "the square of their variance is zero"),
        (1e-80, "the square of their variance is subnormal"),
    ])
    def test_moment_underflow_rejected(self, scale, named):
        # at 1e-80 the variance's square is about 1e-320, and the excess
        # kurtosis computed from it would be off by about 3e-4
        x = np.random.default_rng(23).normal(size=500) * scale
        with pytest.raises(ValueError, match="residuals underflow: " + named):
            diagnose_residuals(x, 10)

    def test_chi2_quantile_needs_a_degree_of_freedom(self):
        with pytest.raises(ValueError, match="^df must be >= 1$"):
            chi2_quantile(0.99, 0)

    def test_chi2_quantile_against_scipy(self):
        from scipy.stats import chi2
        for df in (5, 10, 16, 20):
            assert chi2_quantile(0.99, df) == pytest.approx(chi2.ppf(0.99, df), rel=0.01)


class TestStationaryVariance:
    """Closed forms (Brockwell & Davis, §3.3): AR(1) sigma2 / (1 - phi^2),
    with 1 - phi^2 taken as (1 - phi)(1 + phi), whose 1 - phi is exact for
    phi in [0.5, 1), so the reference keeps its precision near 1; MA(q)
    sigma2 * sum theta_j^2; ARMA(1,1) sigma2 (1 + 2 phi theta + theta^2)
    / (1 - phi^2)."""

    def test_ar1_closed_form(self):
        model = ArmaModel(c=0.0, ar=[0.5], ma=[], sigma2=2.0)
        assert stationary_variance(model) == pytest.approx(2.0 / 0.75, rel=1e-12)

    @pytest.mark.parametrize("phi", [-0.5, 0.9, 0.9999, 0.99999, -0.99999])
    def test_ar1_near_unit_root(self, phi):
        # 5 000.25 and 50 000.25 at 0.9999 and 0.99999 for sigma2 = 1
        model = ArmaModel(c=0.0, ar=[phi], ma=[], sigma2=2.0)
        expect = 2.0 / ((1 - abs(phi)) * (1 + abs(phi)))
        assert stationary_variance(model) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("ma", [[0.4], [0.4, -0.3, 0.2], [1.5, 0.56], [0.9, 0.0, 0.0, -0.7]])
    def test_ma_closed_form(self, ma):
        model = ArmaModel(c=0.0, ar=[], ma=ma, sigma2=2.5)
        expect = 2.5 * (1 + sum(v * v for v in ma))
        assert stationary_variance(model) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("phi, theta", [(0.7, 0.4), (-0.6, 0.9), (0.95, -0.8), (0.999, 0.5)])
    def test_arma11_closed_form(self, phi, theta):
        model = ArmaModel(c=0.0, ar=[phi], ma=[theta], sigma2=3.0)
        expect = 3.0 * (1 + 2 * phi * theta + theta**2) / ((1 - phi) * (1 + phi))
        assert stationary_variance(model) == pytest.approx(expect, rel=1e-12)

    def test_non_stationary_refused(self):
        with pytest.raises(ValueError, match="not stationary"):
            stationary_variance(ArmaModel(c=0.0, ar=[1.0], ma=[], sigma2=1.0))

    def test_table_model_matches_simulation(self):
        x = simulate(TABLE_MODEL, 2_000_000, seed=25)
        assert stationary_variance(TABLE_MODEL) == pytest.approx(float(x.var()), rel=0.02)
