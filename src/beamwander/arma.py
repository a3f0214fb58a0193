"""ARMA(p,q) memory model for beam-centroid traces.

The process is

    x_t = c + sum_i M_i x_{t-i} + sum_j N_j e_{t-j} + e_t,

with e_t zero-mean Gaussian white noise of variance sigma2. The module
covers validation (stationarity/invertibility via polynomial roots),
seeded simulation, conditional-least-squares fitting with a Gauss-Newton
optimizer, AIC/BIC order selection over a grid, and residual whiteness
diagnostics.

Two filters serve it. Simulation runs the forward recursion
theta(B)/phi(B) once per series in `_recurse`, with numpy alone. The fit
inverts it thousands of times, theta(B)^-1 phi(B) x, as a convolution and
one LAPACK banded triangular solve (`_inverse_filter`), which loads
scipy.linalg on first use.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .stats import acf as _acf

GENERATOR_NAME = "numpy.random.PCG64"

# Innovations for simulate() are drawn as
#   np.random.default_rng(seed).normal(0, sqrt(sigma2), n + burn_in)
# and filtered by _recurse, which equals scipy.signal.lfilter(theta, phi, .)
# bit for bit, so the series is reproducible outside this module.


def _inverse_filter(theta, v) -> np.ndarray:
    """theta(B)^-1 v with zero pre-sample terms, for a monic theta: the fit's
    filter, equal to scipy.signal.lfilter([1], theta, v) up to rounding.

    theta(B) is then a unit lower-triangular banded Toeplitz matrix, so the
    filter is one LAPACK dtbtrs solve on its (q + 1, n) band. scipy.linalg
    is imported here on first use, so that commands that never fit do not
    pay for the import. With q = 0, v is returned as is.
    """
    if len(theta) == 1:
        return v
    from scipy.linalg.lapack import dtbtrs
    ab = np.tile(theta, (len(v), 1)).T  # row k holds theta_k: LAPACK band storage
    return dtbtrs(ab, v, uplo="L", diag="U")[0]


def _recurse(b, a, x) -> np.ndarray:
    """scipy.signal.lfilter(b, a, x) without scipy, equal to it bit for bit:
    the same arithmetic in the same order. One pass per series (simulate,
    stationary_variance) does not need the compiled loop or its import.

    With a single denominator term scipy convolves (its FIR path), which a
    recursion would miss in the last bit for some models. Otherwise this is
    scipy's direct form II transposed over Python floats (no fused
    multiply-add); the last delay has no `+ 0.0`, so signed zeros match.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float) / a[0]
    a = a / a[0]
    if a.size == 1:
        return np.convolve(b, x)[:len(x)]
    k = max(a.size, b.size)
    b = np.pad(b, (0, k - b.size)).tolist()
    a = np.pad(a, (0, k - a.size)).tolist()
    b0, b_last, a_last = b[0], b[-1], a[-1]
    middle = range(1, k - 1)
    z = [0.0] * (k - 1)
    out = []
    for xn in np.asarray(x, dtype=float).tolist():
        y = z[0] + b0 * xn
        for i in middle:
            z[i - 1] = z[i] + xn * b[i] - y * a[i]
        z[-1] = xn * b_last - y * a_last
        out.append(y)
    return np.array(out)


class FitConvergenceError(RuntimeError):
    """fit_css hit the iteration cap; `.report` is the best iterate found."""

    def __init__(self, message: str, report: "FitReport"):
        super().__init__(message)
        self.report = report


@dataclass
class ArmaModel:
    """ARMA coefficients: constant c, AR weights M, MA weights N,
    innovation variance sigma2, and the trace sample period in seconds."""

    c: float
    ar: list[float]
    ma: list[float]
    sigma2: float
    sample_period: float = 1.0
    units: str = ""

    def __post_init__(self):
        self.ar = [float(v) for v in self.ar]
        self.ma = [float(v) for v in self.ma]
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not (math.isfinite(self.sample_period) and self.sample_period > 0):
            raise ValueError("sample_period must be positive and finite, "
                             f"got {self.sample_period}")

    @property
    def p(self) -> int:
        return len(self.ar)

    @property
    def q(self) -> int:
        return len(self.ma)

    def ar_poly(self) -> np.ndarray:
        """phi(z) = 1 - M_1 z - ... - M_p z^p, ascending powers."""
        return np.concatenate(([1.0], -np.asarray(self.ar, dtype=float)))

    def ma_poly(self) -> np.ndarray:
        """theta(z) = 1 + N_1 z + ... + N_q z^q, ascending powers."""
        return np.concatenate(([1.0], np.asarray(self.ma, dtype=float)))

    def to_dict(self) -> dict:
        return {"c": self.c, "ar": list(self.ar), "ma": list(self.ma),
                "sigma2": self.sigma2, "sample_period_s": self.sample_period,
                "units": self.units}

    @classmethod
    def from_dict(cls, d) -> "ArmaModel":
        """The model of a `to_dict` object, as read from a model JSON file.
        c, ar, ma and sigma2 are required; every number must be finite and
        units a string. Any fault raises ValueError naming the key."""
        if not isinstance(d, dict):
            raise ValueError(f"model must be a JSON object, got {type(d).__name__}")
        missing = [k for k in ("c", "ar", "ma", "sigma2") if k not in d]
        if missing:
            raise ValueError(f"missing key(s) {', '.join(map(repr, missing))}")

        def number(key, v):
            # exact for ints: one beyond the float range is rejected, not
            # overflowed; NaN compares false
            if isinstance(v, (int, float)) and not isinstance(v, bool) \
                    and abs(v) <= sys.float_info.max:
                return float(v)
            raise ValueError(f"{key} must be a finite number, got {v!r}")

        def numbers(key):
            if not isinstance(d[key], list):
                raise ValueError(f"{key} must be a list of numbers, got {d[key]!r}")
            return [number(f"{key}[{i}]", v) for i, v in enumerate(d[key])]

        units = d.get("units", "")
        if not isinstance(units, str):
            raise ValueError(f"units must be a string, got {units!r}")
        return cls(c=number("c", d["c"]), ar=numbers("ar"), ma=numbers("ma"),
                   sigma2=number("sigma2", d["sigma2"]),
                   sample_period=number("sample_period_s",
                                        d.get("sample_period_s", 1.0)),
                   units=units)


@dataclass
class ValidationReport:
    stationary: bool
    invertible: bool
    ar_root_moduli: list[float]
    ma_root_moduli: list[float]


@dataclass
class FitReport:
    model: ArmaModel
    n: int
    css: float
    loglik: float
    aic: float
    bic: float
    stderr: list[float]
    converged: bool
    iterations: int
    stationary: bool
    invertible: bool


@dataclass
class ResidualDiagnostics:
    acf: np.ndarray
    significance_bound: float
    ljung_box_q: float
    ljung_box_df: int
    ljung_box_critical: float
    skewness: float
    excess_kurtosis: float
    passed: bool


@dataclass
class ScanResult:
    """Order-scan outcome: one row per (p, q), the BIC argmin, and the
    FitReport of every cell that produced one."""

    rows: list[dict]
    selected_bic: tuple[int, int]
    fits: dict[tuple[int, int], FitReport]


def _root_moduli(poly_ascending: np.ndarray) -> list[float]:
    # np.roots wants descending powers; strip the constant-only case.
    coeffs = np.asarray(poly_ascending, dtype=float)
    if coeffs.size <= 1:
        return []
    roots = np.roots(coeffs[::-1])
    return sorted(float(abs(r)) for r in roots)


def validate(model: ArmaModel) -> ValidationReport:
    """Root moduli of phi(z) and theta(z); the process is stationary
    (invertible) when every AR (MA) root lies strictly outside the unit
    circle."""
    ar_mod = _root_moduli(model.ar_poly())
    ma_mod = _root_moduli(model.ma_poly())
    return ValidationReport(
        stationary=all(m > 1.0 for m in ar_mod),
        invertible=all(m > 1.0 for m in ma_mod),
        ar_root_moduli=ar_mod,
        ma_root_moduli=ma_mod,
    )


def default_burn_in(p: int, q: int) -> int:
    return max(200, 50 * (p + q + 1))


def simulate(model: ArmaModel, n: int, seed: int, burn_in: int | None = None) -> np.ndarray:
    """Generate n samples of the process from a seeded PCG64 stream.

    The recursion starts from zero initial conditions; the first burn_in
    samples (default max(200, 50(p+q+1))) are discarded. Identical
    (model, n, seed, burn_in) yield identical output, equal bit for bit to
    scipy.signal.lfilter(theta, phi, innovations)[burn_in:] plus the c term.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rep = validate(model)
    if not rep.stationary:
        raise ValueError(f"model is not stationary (AR root moduli {rep.ar_root_moduli})")
    if not rep.invertible:
        raise ValueError(f"model is not invertible (MA root moduli {rep.ma_root_moduli})")
    if burn_in is None:
        burn_in = default_burn_in(model.p, model.q)
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, math.sqrt(model.sigma2), n + burn_in)
    phi = model.ar_poly()
    theta = model.ma_poly()
    x = _recurse(theta, phi, eps)
    if model.c != 0.0:
        x = x + _recurse([1.0], phi, np.full(n + burn_in, model.c))
    return x[burn_in:]


def residuals(model: ArmaModel, series) -> np.ndarray:
    """Invert the recursion: e_t = x_t - c - sum M_i x_{t-i} - sum N_j e_{t-j},
    with zero pre-sample terms. Output length equals input length."""
    return _innovations(model.c, model.ar_poly(), model.ma_poly(),
                        np.asarray(series, dtype=float))


def _innovations(c: float, phi: np.ndarray, theta: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """theta(B)^-1 (phi(B) x - c) with zero pre-sample terms: phi(B) x is a
    convolution, and one `_inverse_filter` solve inverts theta(B)."""
    v = np.convolve(phi, x)[:x.size]
    if c != 0.0:
        v -= c
    return _inverse_filter(theta, v)


def information_criteria(loglik: float, k: int, n: int) -> tuple[float, float]:
    """AIC = 2k - 2 loglik; BIC = k ln(n) - 2 loglik."""
    if n <= k:
        raise ValueError("need n > k")
    return 2.0 * k - 2.0 * loglik, k * math.log(n) - 2.0 * loglik


def _unpack(params: np.ndarray, p: int, q: int, estimate_c: bool):
    i = 0
    c = params[0] if estimate_c else 0.0
    i += 1 if estimate_c else 0
    ar = params[i:i + p]
    ma = params[i + p:i + p + q]
    return float(c), ar, ma


def _css_residuals(params: np.ndarray, x: np.ndarray, p: int, q: int,
                   estimate_c: bool) -> np.ndarray:
    c, ar, ma = _unpack(params, p, q, estimate_c)
    # trial steps may cross into explosive theta territory; the resulting
    # inf/nan CSS is rejected by the line search, so silence the overflow
    with np.errstate(over="ignore", invalid="ignore"):
        return _innovations(c, np.concatenate(([1.0], -ar)),
                            np.concatenate(([1.0], ma)), x)


def _invertible(ma) -> bool:
    """True when every root of 1 + N_1 z + ... + N_q z^q lies strictly
    outside the unit circle: the Schur-Cohn step-down recursion on the
    reversed polynomial keeps every reflection coefficient inside (-1, 1)."""
    a = [1.0, *ma]
    while len(a) > 1:
        k = a[-1]
        if not abs(k) < 1.0:
            return False
        a = [(a[i] - k * a[-1 - i]) / (1.0 - k * k) for i in range(len(a) - 1)]
    return True


def _css(params, x, p, q, estimate_c) -> tuple[float, np.ndarray | None]:
    """CSS and residuals at params; (inf, None) outside the invertible
    region or on overflow."""
    if not _invertible(params[params.size - q:]):
        return float("inf"), None
    eps = _css_residuals(params, x, p, q, estimate_c)
    with np.errstate(over="ignore", invalid="ignore"):
        s = float(np.dot(eps, eps))
    return (s, eps) if np.isfinite(s) else (float("inf"), None)


def _ols(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of y on the columns of A, from the
    normal equations: k x k work instead of a factorization of the tall A.
    The minimum-norm solve keeps rank-deficient A'A usable."""
    return np.linalg.lstsq(A.T @ A, A.T @ y, rcond=None)[0]


def _long_ar(x: np.ndarray) -> tuple[int, np.ndarray | None]:
    """First Hannan-Rissanen stage: (m, eps_hat), eps_hat being the
    residuals of a long AR(m) regression with intercept, m = min(20, n // 10)
    (at least 1), zero for t < m, or None when the regression is singular.
    It depends on the series alone: one result serves every (p, q)."""
    n = x.size
    m = max(min(20, n // 10), 1)
    A = np.empty((n - m, m + 1), order="F")
    A[:, 0] = 1.0
    for i in range(1, m + 1):
        A[:, i] = x[m - i:n - i]
    try:
        coef = _ols(A, x[m:])
    except np.linalg.LinAlgError:
        return m, None
    eps_hat = np.zeros(n)
    eps_hat[m:] = x[m:] - A @ coef
    return m, eps_hat


def _hannan_rissanen(x: np.ndarray, p: int, q: int, estimate_c: bool,
                     long_ar: tuple[int, np.ndarray | None]) -> np.ndarray:
    """Two-stage initial estimate: OLS of x on its own lags and the lags of
    the long-AR innovation proxies (`_long_ar`), solved through the normal
    equations. Falls back to zeros (c to the sample mean) if either
    regression is singular."""
    n = x.size
    k = (1 if estimate_c else 0) + p + q
    fallback = np.zeros(k)
    if estimate_c:
        fallback[0] = x.mean()
    if p + q == 0:
        return fallback
    m, eps_hat = long_ar
    if eps_hat is None:
        return fallback
    start = m + max(p, q)
    rows = n - start
    if rows <= k:
        return fallback
    cols = []
    if estimate_c:
        cols.append(np.ones(rows))
    for i in range(1, p + 1):
        cols.append(x[start - i:n - i])
    for j in range(1, q + 1):
        cols.append(eps_hat[start - j:n - j])
    try:
        beta = _ols(np.column_stack(cols), x[start:])
    except np.linalg.LinAlgError:
        return fallback
    if not np.all(np.isfinite(beta)):
        return fallback
    return beta


def _jacobian(params: np.ndarray, eps: np.ndarray, x: np.ndarray, p: int,
              q: int, estimate_c: bool) -> np.ndarray:
    """Exact Jacobian of the residual vector eps = residuals at params.

    From theta(B) e_t = phi(B) x_t - c (Box, Jenkins & Reinsel, Time
    Series Analysis, sec. 7.2): de/dM_i = -theta(B)^-1 x_{t-i},
    de/dN_j = -theta(B)^-1 e_{t-j} and de/dc = -theta(B)^-1 1, each with
    zero pre-sample terms, so one filter pass per regressor serves every
    lag.
    """
    _, _, ma = _unpack(params, p, q, estimate_c)
    theta = np.concatenate(([1.0], ma))
    n = x.size
    off = 1 if estimate_c else 0
    J = np.zeros((n, off + p + q), order="F")
    with np.errstate(over="ignore", invalid="ignore"):
        if estimate_c:
            J[:, 0] = -_inverse_filter(theta, np.ones(n))
        for base, src, lags in ((off, x, p), (off + p, eps, q)):
            if lags:
                u = _inverse_filter(theta, src)
                for i in range(1, lags + 1):
                    J[i:, base + i - 1] = -u[:-i]
    return J


def _gauss_newton(params0: np.ndarray, x: np.ndarray, p: int, q: int,
                  estimate_c: bool):
    """Damped Gauss-Newton on the CSS objective from one starting point.

    Exact Jacobian, step-halving line search; converged when the relative
    CSS change drops below _TOL or no descent step remains, with at most
    _MAX_ITER iterations.
    """
    params = params0.copy()
    css, eps = _css(params, x, p, q, estimate_c)
    if params.size == 0 or eps is None:
        return params, css, 0, eps is not None
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        J = _jacobian(params, eps, x, p, q, estimate_c)
        step = -_ols(J, eps)
        new_css = None
        t = 1.0
        for _ in range(40):
            trial = params + t * step
            s, trial_eps = _css(trial, x, p, q, estimate_c)
            if s < css:
                new_css = s
                params, eps = trial, trial_eps
                break
            t *= 0.5
        if new_css is None:
            converged = True  # no descent direction left
            break
        if abs(css - new_css) <= _TOL * max(css, 1e-300):
            css = new_css
            converged = True
            break
        css = new_css
    return params, css, iterations, converged


# (a, m) pairs of the common factors (1 - a B) on phi and (1 - m B) on theta
# that turn a (p-1, q-1) fit into (p, q) starts: one pair near the unit
# circle, one further in. Near-cancelling AR/MA root pairs (the reference
# model's are 1.016 and 1.043) sit in basins that the Hannan-Rissanen start
# often misses; a != m keeps each start off the redundant manifold a = m,
# where J'J is singular.
_COMMON_FACTORS = ((0.99, 0.97), (0.9, 0.8))
_MAX_ITER, _TOL = 500, 1e-10  # Gauss-Newton iteration cap, relative CSS tolerance


def _common_factor_starts(nested: np.ndarray, p: int, q: int,
                          estimate_c: bool) -> list[np.ndarray]:
    """(p, q) starts from a (p-1, q-1) parameter vector: phi and theta each
    gain one common-factor root, and c is rescaled to keep the mean."""
    c, ar, ma = _unpack(nested, p - 1, q - 1, estimate_c)
    starts = []
    for a, m in _COMMON_FACTORS:
        phi = np.convolve(np.concatenate(([1.0], -ar)), [1.0, -a])
        theta = np.convolve(np.concatenate(([1.0], ma)), [1.0, -m])
        head = [c * (1.0 - a)] if estimate_c else []
        starts.append(np.concatenate((head, -phi[1:], theta[1:])))
    return starts


def _minimize(x: np.ndarray, p: int, q: int, estimate_c: bool, long_ar,
              start_params=None, nested=None):
    """Lowest-CSS Gauss-Newton end point over the deterministic start set.

    Starts, in order: Hannan-Rissanen from the first stage long_ar (zeros
    when its CSS is not finite), start_params, and for p, q >= 1 the
    common-factor extensions of the (p-1, q-1) parameter vector `nested`,
    which is fitted here when not given. Starts with non-finite CSS are
    skipped; on ties the earlier start wins. Returns (params, css,
    iterations, converged), iterations being the most any start took.
    """
    hr = _hannan_rissanen(x, p, q, estimate_c, long_ar)
    if not np.isfinite(_css(hr, x, p, q, estimate_c)[0]):
        hr = np.zeros_like(hr)
    extra = [] if start_params is None else [start_params]
    if p > 0 and q > 0:
        if nested is None:
            nested = _minimize(x, p - 1, q - 1, estimate_c, long_ar)[0]
        extra += _common_factor_starts(nested, p, q, estimate_c)
    starts = [hr] + [s for s in extra
                     if np.isfinite(_css(s, x, p, q, estimate_c)[0])]

    params, css, iterations, converged = hr, float("inf"), 0, hr.size == 0
    for s0 in starts:
        pp, cc, it, conv = _gauss_newton(s0, x, p, q, estimate_c)
        iterations = max(iterations, it)
        if cc < css:
            params, css, converged = pp, cc, conv
    return params, css, iterations, converged


def _pad_start(report: FitReport, p: int, q: int, estimate_c: bool) -> np.ndarray:
    """Parameter vector of a fitted model, zero-padded to (p, q)."""
    m = report.model
    head = [m.c] if estimate_c else []
    return np.concatenate((head, m.ar + [0.0] * (p - m.p),
                           m.ma + [0.0] * (q - m.q)))


def fit_css(series, p: int, q: int, estimate_c: bool = True,
            start_params=None) -> FitReport:
    """Conditional-least-squares ARMA fit.

    Minimizes the conditional sum of squared innovations (zero pre-sample
    terms) by damped Gauss-Newton: exact Jacobian, step-halving line
    search, iteration cap 500, convergence when the relative CSS change
    drops below 1e-10. The optimizer runs from every start of a fixed,
    deterministic set and the lowest CSS wins:

    - the Hannan-Rissanen two-stage estimate (zeros when that regression
      is singular or its MA part is not invertible);
    - start_params, when supplied (e.g. a smaller nested fit padded with
      zeros);
    - for p, q >= 1, the (p-1, q-1) fit, found here the same way, with a
      near-cancelling pair of factors (1 - a B) on phi and (1 - m B) on
      theta appended, for (a, m) = (0.99, 0.97) and (0.9, 0.8).

    Near-cancelling AR/MA root pairs make the CSS surface multimodal, and
    the Hannan-Rissanen start alone often ends in a local minimum whose
    roots all lie far from the unit circle; the common-factor starts
    reach the basin with the near-cancelling pair. Standard errors come
    from the Gauss-Newton curvature J'J of the objective at the optimum.

    The search stays inside the invertible region (every root of theta
    outside the unit circle), where the zero-pre-sample residuals converge
    to the innovations. Beyond it the CSS has spurious minima: a
    non-invertible MA root just inside the circle, paired with an AR root
    just outside, can lower the CSS by more than the BIC penalty of the
    extra coefficients. A fitted model that violates stationarity is
    returned with stationary=False, never silently.

    The model keeps the default sample_period and units; a caller that
    knows the series' own sets them. A fit that hits the iteration cap
    raises FitConvergenceError, whose `.report` is the best iterate.
    """
    x = np.asarray(series, dtype=float)
    report = _fit_css(x, p, q, estimate_c, start_params, None,
                      functools.partial(_long_ar, x))
    if not report.converged:
        raise FitConvergenceError(
            f"CSS optimizer did not converge in {_MAX_ITER} iterations", report)
    return report


def _fit_css(x: np.ndarray, p: int, q: int, estimate_c: bool, start_params,
             nested, long_ar) -> FitReport:
    """fit_css on a float array, converged or not. nested, when given, is
    the parameter vector of the series' (p-1, q-1) fit, extended by the
    common-factor starts instead of a fresh fit. long_ar() gives the
    series' `_long_ar` stage; it is called after the checks, and only when
    p + q > 0."""
    n = x.size
    if p < 0 or q < 0:
        raise ValueError(f"p and q must be >= 0, got p={p}, q={q}")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    if n <= 10 * (p + q + 1):
        raise ValueError(f"series too short: need n > {10 * (p + q + 1)}, got {n}")

    k_opt = (1 if estimate_c else 0) + p + q
    if start_params is not None:
        start_params = np.asarray(start_params, dtype=float)
        if start_params.size != k_opt:
            raise ValueError(f"start_params must have {k_opt} entries")
    params, css, iterations, converged = _minimize(
        x, p, q, estimate_c, long_ar() if p + q > 0 else None, start_params,
        nested)

    c, ar, ma = _unpack(params, p, q, estimate_c)
    dof = n - p - q - 1
    sigma2 = css / dof if dof > 0 else css / n
    sigma2 = max(sigma2, 1e-300)
    loglik = -0.5 * n * (math.log(2.0 * math.pi * css / n) + 1.0) if css > 0 else 0.0
    k_ic = k_opt + 1  # + innovation variance
    aic, bic = information_criteria(loglik, k_ic, n)

    stderr = [float("nan")] * k_opt
    if k_opt > 0:
        eps = _css_residuals(params, x, p, q, estimate_c)
        J = _jacobian(params, eps, x, p, q, estimate_c)
        try:
            cov = sigma2 * np.linalg.inv(J.T @ J)
            diag = np.diag(cov)
            stderr = [math.sqrt(v) if v > 0 else float("nan") for v in diag]
        except np.linalg.LinAlgError:
            pass

    model = ArmaModel(c=c, ar=list(ar), ma=list(ma), sigma2=sigma2)
    rep = validate(model)
    return FitReport(model=model, n=n, css=css, loglik=loglik, aic=aic,
                     bic=bic, stderr=stderr, converged=converged,
                     iterations=iterations, stationary=rep.stationary,
                     invertible=rep.invertible)


def order_scan(series, p_max: int, q_max: int,
               estimate_c: bool = True) -> ScanResult:
    """Fit every (p, q) on the grid and select the BIC argmin.

    Grid cells are fitted in increasing order. Besides the starts of
    fit_css, each cell is warm-started from the lower-CSS of its fitted
    (p-1, q) and (p, q-1) neighbors, zero-padded, so the CSS of nested
    models is non-increasing across the grid, and its common-factor starts
    extend the fitted (p-1, q-1) cell. Non-convergent and non-stationary
    fits are recorded but excluded from selection. Each row carries its
    AIC too, but only BIC selects. `fits` holds the FitReport of every
    fitted cell, converged or not, and the selected one is
    `fits[selected_bic]`, the model the scan scored. As in fit_css, the
    models carry no sample period or units.
    """
    if p_max < 0 or q_max < 0:
        raise ValueError("p_max and q_max must be >= 0")
    x = np.asarray(series, dtype=float)
    long_ar = functools.cache(functools.partial(_long_ar, x))  # once per grid
    rows = []
    fitted: dict[tuple[int, int], FitReport] = {}
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            row = {"p": p, "q": q, "converged": False, "stationary": False,
                   "invertible": False, "aic": float("nan"),
                   "bic": float("nan"), "css": float("nan"), "error": None}
            prev = [fitted[k] for k in ((p - 1, q), (p, q - 1)) if k in fitted]
            start = (_pad_start(min(prev, key=lambda r: r.css), p, q, estimate_c)
                     if prev else None)
            nested = fitted.get((p - 1, q - 1))
            if nested is not None:
                nested = _pad_start(nested, p - 1, q - 1, estimate_c)
            try:
                rep = _fit_css(x, p, q, estimate_c, start, nested, long_ar)
            except (ValueError, np.linalg.LinAlgError) as exc:
                row["error"] = str(exc)
            else:
                fitted[(p, q)] = rep
                row.update(converged=rep.converged, stationary=rep.stationary,
                           invertible=rep.invertible, aic=rep.aic,
                           bic=rep.bic, css=rep.css,
                           error=None if rep.converged else "no convergence")
            rows.append(row)
    admissible = [r for r in rows if r["converged"] and r["stationary"]
                  and math.isfinite(r["bic"])]
    if not admissible:
        raise RuntimeError("order scan produced no admissible fits")
    best = min(admissible, key=lambda r: r["bic"])
    return ScanResult(rows=rows, selected_bic=(best["p"], best["q"]),
                      fits=fitted)


def chi2_quantile(prob: float, df: int) -> float:
    """Chi-square quantile via the Wilson-Hilferty cube approximation."""
    if df < 1:
        raise ValueError("df must be >= 1")
    z = NormalDist().inv_cdf(prob)
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * math.sqrt(a)) ** 3


def diagnose_residuals(res, max_lag: int = 20,
                       n_model_params: int = 0) -> ResidualDiagnostics:
    """Whiteness diagnostics for a residual series.

    Computes the residual ACF with its 95% band, the Ljung-Box portmanteau
    statistic Q = n(n+2) sum_k rho_k^2/(n-k) with df = max_lag minus the
    number of fitted ARMA coefficients, and sample skewness / excess
    kurtosis. The pass flag requires Q below the chi-square critical value
    at the 0.99 level and every lag within a Bonferroni-adjusted band
    (family-wise 5% across max_lag lags), so that true white noise passes
    at roughly the nominal rate instead of failing once any single lag
    strays outside the per-lag 95% band.
    """
    x = np.asarray(res, dtype=float)
    n = x.size
    r = _acf(x, max_lag)
    rho = r.values[1:]
    q_stat = float(n * (n + 2) * np.sum(rho**2 / (n - np.arange(1, max_lag + 1))))
    df = max(max_lag - n_model_params, 1)
    crit = chi2_quantile(0.99, df)
    # Bonferroni per-lag band: two-sided 5% split across max_lag lags.
    z_fw = NormalDist().inv_cdf(1.0 - 0.05 / (2.0 * max_lag))
    fw_bound = z_fw / math.sqrt(n)
    xc = x - x.mean()
    m2 = float(np.mean(xc**2))
    skew = float(np.mean(xc**3) / m2**1.5) if m2 > 0 else 0.0
    exkurt = float(np.mean(xc**4) / m2**2 - 3.0) if m2 > 0 else 0.0
    passed = bool(q_stat < crit and np.all(np.abs(rho) < fw_bound))
    return ResidualDiagnostics(acf=r.values, significance_bound=r.significance_bound,
                               ljung_box_q=q_stat, ljung_box_df=df,
                               ljung_box_critical=crit, skewness=skew,
                               excess_kurtosis=exkurt, passed=passed)


def stationary_variance(model: ArmaModel) -> float:
    """Stationary process variance sigma2 * sum psi_j^2 from the impulse
    response of theta(B)/phi(B), truncated at 20 000 terms."""
    rep = validate(model)
    if not rep.stationary:
        raise ValueError("model is not stationary")
    impulse = np.zeros(20_000)
    impulse[0] = 1.0
    psi = _recurse(model.ma_poly(), model.ar_poly(), impulse)
    return float(model.sigma2 * np.dot(psi, psi))
