"""ARMA(p,q) memory model for beam-centroid traces.

The process is

    x_t = c + sum_i M_i x_{t-i} + sum_j N_j e_{t-j} + e_t,

with e_t zero-mean Gaussian white noise of variance sigma2. The module
covers stability (`ArmaModel.stationary` and `.invertible`), seeded
simulation, conditional-least-squares fitting with a Gauss-Newton
optimizer, AIC/BIC order selection over a grid, and residual whiteness
diagnostics.

One rule decides stability: the Schur-Cohn step-down of
`_outside_unit_circle`, which also confines the fit to the invertible
region. `root_moduli` (np.roots) only reports the roots, for error
messages and tests; it decides nothing.

One filter serves both directions: `_lfilter`, scipy.signal.lfilter's
own arithmetic on the compiled routine it calls, loaded from its extension
file alone (`_load_extension`), so that no scipy package is imported.
Simulation runs the forward recursion theta(B)/phi(B) once per series. The
fit inverts it thousands of times, as phi(B) theta(B)^-1 x: one
`_lfilter([1], theta, .)` pass gives u = theta(B)^-1 x, whose lags are the
Jacobian's AR columns, and a convolution by phi(B) gives the residuals.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .stats import acf as _acf, significance_bound

GENERATOR_NAME = "numpy.random.PCG64"

# Innovations for simulate() are drawn as
#   np.random.default_rng(seed).normal(0, sqrt(sigma2), n + burn_in)
# and filtered by _lfilter, which is scipy.signal.lfilter(theta, phi, .)'s
# own arithmetic, so the series is reproducible outside this module.


def _load_extension(name):
    """The compiled scipy extension `name` (dotted, as "scipy.signal._sigtools")
    without the package init of its scipy subpackage.

    A module already imported is reused. Otherwise the extension is loaded
    from its file, which find_spec("scipy") locates without importing scipy,
    and is left out of sys.modules, where a single-phase extension enters
    itself.
    """
    if name in sys.modules:
        return sys.modules[name]
    *package, stem = name.split(".")[1:]
    directory = os.path.join(os.path.dirname(importlib.util.find_spec("scipy").origin),
                             *package)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, stem + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            if sys.modules.get(name) is module:
                del sys.modules[name]
            return module
    raise ImportError(f"no {stem} extension in {directory}")


@functools.cache
def _linear_filter():
    """The compiled direct form II transposed filter that
    scipy.signal.lfilter calls for a denominator of more than one term,
    loaded once without the scipy.signal package, which costs 0.5-1 s to
    import. If scipy's layout has moved, lfilter itself serves, which takes
    the same arguments and calls the same routine.
    """
    try:
        return _load_extension("scipy.signal._sigtools")._linear_filter
    except (ImportError, OSError, AttributeError):
        from scipy.signal import lfilter
        return lfilter


def _lfilter(b, a, x) -> np.ndarray:
    """scipy.signal.lfilter(b, a, x), bit for bit, as lfilter computes it:
    a convolution for a single denominator term (its FIR path), else its
    compiled filter (`_linear_filter`). It serves simulate and
    stationary_variance, and as _lfilter([1], theta, v), theta(B)^-1 v with
    zero pre-sample terms for a monic theta, the fit and residuals.
    """
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    if a.size == 1:
        return np.convolve(b / a[0], x)[:len(x)]
    return _linear_filter()(b, a, x, -1)


_ONE = np.ones(1)  # the numerator of theta(B)^-1, for `_linear_filter` calls


def _monic(tail: np.ndarray) -> np.ndarray:
    """The polynomial [1, *tail], in ascending powers."""
    poly = np.empty(tail.size + 1)
    poly[0] = 1.0
    poly[1:] = tail
    return poly


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

    @property
    def stationary(self) -> bool:
        """Every root of phi(z) lies strictly outside the unit circle."""
        return _outside_unit_circle(self.ar_poly())

    @property
    def invertible(self) -> bool:
        """Every root of theta(z) lies strictly outside the unit circle."""
        return _outside_unit_circle(self.ma_poly())

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
    residuals: np.ndarray  # at the optimum, in the series' units


def _outside_unit_circle(poly) -> bool:
    """True when every root of the monic polynomial poly (ascending powers,
    poly[0] == 1) lies strictly outside the unit circle: the Schur-Cohn
    step-down recursion on the reversed polynomial keeps every reflection
    coefficient inside (-1, 1)."""
    a = np.asarray(poly, dtype=float).tolist()
    while len(a) > 1:
        k = a[-1]
        if not abs(k) < 1.0:
            return False
        d = 1.0 - k * k
        a = [(lo - k * hi) / d for lo, hi in zip(a[:-1], a[:0:-1])]
    return True


def root_moduli(poly) -> list[float]:
    """Moduli of the roots of poly (ascending powers), ascending; [] for a
    constant. A report only: `_outside_unit_circle` decides stability."""
    coeffs = np.asarray(poly, dtype=float)
    if coeffs.size <= 1:
        return []
    return sorted(float(abs(r)) for r in np.roots(coeffs[::-1]))


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
    if not model.stationary:
        raise ValueError("model is not stationary "
                         f"(AR root moduli {root_moduli(model.ar_poly())})")
    if not model.invertible:
        raise ValueError("model is not invertible "
                         f"(MA root moduli {root_moduli(model.ma_poly())})")
    if burn_in is None:
        burn_in = default_burn_in(model.p, model.q)
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, math.sqrt(model.sigma2), n + burn_in)
    phi = model.ar_poly()
    theta = model.ma_poly()
    x = _lfilter(theta, phi, eps)
    if model.c != 0.0:
        x = x + _lfilter([1.0], phi, np.full(n + burn_in, model.c))
    return x[burn_in:]


def residuals(model: ArmaModel, series) -> np.ndarray:
    """Invert the recursion: e_t = x_t - c - sum M_i x_{t-i} - sum N_j e_{t-j},
    with zero pre-sample terms. Output length equals input length. That is
    phi(B) theta(B)^-1 x - theta(B)^-1 c, in the fit's order (`_css`): one
    `_lfilter` pass inverts theta(B), a convolution applies phi(B), and for
    c != 0 a second pass gives theta(B)^-1 c."""
    x = np.asarray(series, dtype=float)
    theta = model.ma_poly()
    e = np.convolve(model.ar_poly(), _lfilter([1.0], theta, x))[:x.size]
    if model.c != 0.0:
        e -= _lfilter([1.0], theta, np.full(x.size, model.c))
    return e


def information_criteria(loglik: float, k: int, n: int) -> tuple[float, float]:
    """AIC = 2k - 2 loglik; BIC = k ln(n) - 2 loglik."""
    if n <= k:
        raise ValueError("need n > k")
    return 2.0 * k - 2.0 * loglik, k * math.log(n) - 2.0 * loglik


def _css(params, x, p, q) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """(CSS, residuals, u) at params = (ar, ma), with c = 0: u = theta(B)^-1 x
    and the residuals phi(B) u, which are theta(B)^-1 phi(B) x to rounding,
    since both filters start from zero pre-sample terms and so commute;
    (inf, None, None) outside the invertible region or on overflow. A trial
    step may overflow, and the line search rejects its inf or NaN CSS, so
    the caller silences overflow (`_gauss_newton`'s np.errstate).

    With q = 0 the theta filter, and with p = 0 the phi convolution, is a
    convolution by a lone 1.0. It adds each term v_t into +0.0, so v + 0.0,
    which keeps every bit of v but the sign of a negative zero, replaces it."""
    if q:
        theta = _monic(params[p:])
        if not _outside_unit_circle(theta):
            return math.inf, None, None
        u = _linear_filter()(_ONE, theta, x, -1)
    else:
        u = x + 0.0
    if p:
        eps = np.convolve(_monic(-params[:p]), u)[:x.size]
    else:
        eps = u + 0.0
    s = float(np.dot(eps, eps))
    return (s, eps, u) if math.isfinite(s) else (math.inf, None, None)


def _ols(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of y on the columns of A, from the
    normal equations: k x k work instead of a factorization of the tall A.
    An LU solve serves; an exactly singular A'A, where LU fails, takes the
    minimum-norm lstsq solution. Normal equations that overflow raise
    LinAlgError before LAPACK sees them: given inf or NaN, lstsq prints to
    stdout and may never return. Every caller runs it under
    np.errstate(over="ignore", invalid="ignore"), so that an overflow
    raises that error alone, without a warning."""
    ata, aty = A.T @ A, A.T @ y
    if not (np.isfinite(ata).all() and np.isfinite(aty).all()):
        raise np.linalg.LinAlgError("normal equations are not finite")
    try:
        return np.linalg.solve(ata, aty)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(ata, aty, rcond=None)[0]


def _long_ar(x: np.ndarray) -> tuple[int, np.ndarray | None]:
    """First Hannan-Rissanen stage: (m, eps_hat), eps_hat being the
    residuals of a long AR(m) regression of x[m:] on its m lags, with no
    intercept (the fit's series has c = 0), m = min(20, n // 10) (at least
    1), zero for t < m, or None when its normal equations overflow or it
    has no rows. It depends on the series alone: one result serves every
    (p, q), and scaling x scales eps_hat alike."""
    n = x.size
    m = max(min(20, n // 10), 1)
    if n <= m:
        return m, None
    A = np.empty((n - m, m), order="F")
    for i in range(1, m + 1):
        A[:, i - 1] = x[m - i:n - i]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            coef = _ols(A, x[m:])
    except np.linalg.LinAlgError:
        return m, None
    eps_hat = np.zeros(n)
    eps_hat[m:] = x[m:] - A @ coef
    return m, eps_hat


def _hannan_rissanen(x: np.ndarray, p: int, q: int,
                     long_ar: tuple[int, np.ndarray | None]) -> np.ndarray:
    """Two-stage initial estimate: OLS of x on its own lags and the lags of
    the long-AR innovation proxies (`_long_ar`), solved through the normal
    equations. Falls back to zeros when either regression overflows, too
    few rows remain, or its coefficients are not finite."""
    n = x.size
    k = p + q
    fallback = np.zeros(k)
    if k == 0:
        return fallback
    m, eps_hat = long_ar
    if eps_hat is None:
        return fallback
    start = m + max(p, q)
    rows = n - start
    if rows <= k:
        return fallback
    cols = ([x[start - i:n - i] for i in range(1, p + 1)]
            + [eps_hat[start - j:n - j] for j in range(1, q + 1)])
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            beta = _ols(np.column_stack(cols), x[start:])
    except np.linalg.LinAlgError:
        return fallback
    if not np.all(np.isfinite(beta)):
        return fallback
    return beta


def _jacobian(params: np.ndarray, eps: np.ndarray, u: np.ndarray, p: int,
              q: int, J: np.ndarray | None = None) -> np.ndarray:
    """Exact Jacobian of the residual vector eps at params, u being
    theta(B)^-1 x there (`_css`). It is written into J when given, an
    n x (p + q) Fortran array that is zero where a column's lag reaches
    before the series, as `_gauss_newton` allocates it once per run;
    otherwise np.zeros makes one.

    From theta(B) e_t = phi(B) x_t (Box, Jenkins & Reinsel, Time Series
    Analysis, sec. 7.2): de/dM_i = -theta(B)^-1 x_{t-i} = -u_{t-i} and
    de/dN_j = -theta(B)^-1 e_{t-j}, each with zero pre-sample terms. So the
    AR columns are lags of u, and one filter pass of eps serves every MA lag.
    """
    if J is None:
        J = np.zeros((u.size, p + q), order="F")
    for i in range(1, p + 1):
        np.negative(u[:-i], out=J[i:, i - 1])
    if q:
        v = _linear_filter()(_ONE, _monic(params[p:]), eps, -1)
        for j in range(1, q + 1):
            np.negative(v[:-j], out=J[j:, p + j - 1])
    return J


def _gauss_newton(params0: np.ndarray, x: np.ndarray, p: int, q: int,
                  tol: float | None = None, iterations: int = 0):
    """Damped Gauss-Newton on the CSS objective from one starting point.

    Exact Jacobian, step-halving line search, at most _MAX_ITER iterations;
    the normal equations are solved by LU (`_ols`). Returns the run
    (params, css, iterations, stop, eps, u): eps the residuals and u
    theta(B)^-1 x at params (`_css`). stop says why the run ended:

    - "tolerance": the relative CSS change dropped below _TOL;
    - "spent": no descent step was left (as for a start with no parameters);
    - "cap": the _MAX_ITER-th iteration ended the run;
    - "screened": the relative change dropped below tol (None for _TOL) but
      not below _TOL, which is tested first;
    - "not_finite": the start's CSS is not finite, and the run is
      (params0, inf, iterations, "not_finite", None, None).

    Only "cap" and "not_finite" are not converged. A screened run finishes
    as `_gauss_newton(params, x, p, q, iterations=iterations)` from its own
    params: `_css` gives the same css, eps and u there bit for bit, so the
    two parts take the same steps as one run to _TOL, and count their
    iterations, and the _MAX_ITER cap, as one run does.

    A halving ends the line search, as failed, once its trial point equals
    the current one bit for bit: every shorter step rounds to that point
    too, so no later halving can descend, and up to 40 halvings give the
    same result. One np.errstate covers the run, for the overflow of a
    trial step (`_css`).
    """
    params = params0.copy()
    tol = _TOL if tol is None else tol
    with np.errstate(over="ignore", invalid="ignore"):
        css, eps, u = _css(params, x, p, q)
        if eps is None:
            return params, css, iterations, "not_finite", None, None
        if params.size == 0:
            return params, css, iterations, "spent", eps, u
        J = np.zeros((x.size, params.size), order="F")
        for iterations in range(iterations + 1, _MAX_ITER + 1):
            step = -_ols(_jacobian(params, eps, u, p, q, J), eps)
            new_css = None
            t = 1.0
            for _ in range(40):
                trial = params + t * step
                s, trial_eps, trial_u = _css(trial, x, p, q)
                if s < css:
                    new_css = s
                    params, eps, u = trial, trial_eps, trial_u
                    break
                if trial.tobytes() == params.tobytes():
                    break
                t *= 0.5
            if new_css is None:  # no descent direction left
                return params, css, iterations, "spent", eps, u
            if abs(css - new_css) <= _TOL * css:
                return params, new_css, iterations, "tolerance", eps, u
            if abs(css - new_css) <= tol * css:
                return params, new_css, iterations, "screened", eps, u
            css = new_css
    return params, css, iterations, "cap", eps, u


# (a, m) pairs of the common factors (1 - a B) on phi and (1 - m B) on theta
# that turn a (p-1, q-1) fit into (p, q) starts: one pair, near the unit
# circle. Near-cancelling AR/MA root pairs (the reference model's are 1.016
# and 1.043) sit in basins that the Hannan-Rissanen start often misses;
# a != m keeps the start off the redundant manifold a = m, where J'J is
# singular.
_COMMON_FACTORS = ((0.99, 0.97),)
_MAX_ITER, _TOL = 500, 1e-10  # Gauss-Newton iteration cap, relative CSS tolerance
_SCREEN_TOL = 1e-5  # the tolerance every start of a fit runs to (`_fit_css`)


def _pad_start(report: FitReport, p: int, q: int) -> np.ndarray:
    """(ar, ma) vector of a fitted model, zero-padded to (p, q)."""
    m = report.model
    return np.array(m.ar + [0.0] * (p - m.p) + m.ma + [0.0] * (q - m.q))


def fit_css(series, p: int, q: int, estimate_c: bool = True) -> FitReport:
    """Conditional-least-squares ARMA fit.

    Minimizes the conditional sum of squared innovations (zero pre-sample
    terms) by damped Gauss-Newton: exact Jacobian, step-halving line
    search, iteration cap 500. `converged` means the relative CSS change
    dropped below 1e-10 or no descent step was left; it does not mean a
    verified minimum. The optimizer runs from every start of a fixed,
    deterministic set, and the starts race: each runs only until its
    relative CSS change drops below 1e-5 (it is screened), and only the
    leader, the start with the lowest screened CSS, is finished from its
    params to 1e-10, by the same steps as one run to 1e-10. A start that
    stopped on a spent line search or on the cap is already final.
    `iterations` is the most any start took, the leader's counted over both
    parts. The starts are:

    - the Hannan-Rissanen two-stage estimate (zeros when that regression
      is singular or its CSS is not finite);
    - for p, q >= 1, one common-factor start: the (p-1, q-1) fit, found
      here the same way, with a near-cancelling pair of factors (1 - a B)
      on phi and (1 - m B) on theta appended, (a, m) = (0.99, 0.97).

    Each start is evaluated once; one whose CSS is not finite (outside the
    invertible region, or overflowing) never leads, since the first start's
    CSS is always finite.

    Near-cancelling AR/MA root pairs make the CSS surface multimodal, and
    the Hannan-Rissanen start alone often ends in a local minimum whose
    roots all lie far from the unit circle; the common-factor start
    reaches the basin with the near-cancelling pair. Standard errors come
    from the Gauss-Newton curvature J'J of the objective at the optimum.

    The search stays inside the invertible region (every root of theta
    outside the unit circle, by the step-down test that decides
    `ArmaModel.invertible`), where the zero-pre-sample residuals converge
    to the innovations. Beyond it the CSS has spurious minima: a
    non-invertible MA root just inside the circle, paired with an AR root
    just outside, can lower the CSS by more than the BIC penalty of the
    extra coefficients. A fitted model that violates stationarity is
    returned with `report.model.stationary` False, never silently.

    c is never a parameter of the optimizer. With c fixed the fit runs on
    the series with c = 0. With c estimated it runs on the demeaned series
    x - mean(x) with c = 0 and reports c = mean(x) phi(1), the intercept
    whose process mean is mean(x); an offset in the trace then moves no
    coefficient beyond rounding. c's standard error is the delta method's
    on that product, se(c)^2 = sigma2 theta(1)^2 / n + mean(x)^2 1'S 1, the
    first term being phi(1)^2 times the large-sample variance of the mean
    of an ARMA series (Brockwell & Davis, Time Series: Theory and Methods,
    sec. 7.1) and S the AR block of the covariance sigma2 (J'J)^-1 that
    gives the other errors; stderr is then [c, ar..., ma...]. When J'J is
    singular every standard error is NaN.

    c, css, sigma2 (with loglik, AIC and BIC), c's standard error and
    `report.residuals`, the residuals at the optimum, are in the series'
    units, and the fit does not depend on them: no step of it has an
    intercept, so in either mode a trace in metres fits as one in
    micrometres, and scaling by a power of two scales them exactly. The
    series must be finite, with a finite sum of squares that is neither
    zero nor subnormal (for c estimated, that of the demeaned series):
    such a series has nothing to fit, and raises ValueError. The model
    keeps the default sample_period and units; a caller that knows the
    series' own sets them. A fit that hits the iteration cap raises
    FitConvergenceError, whose `.report` is the best iterate; one whose
    Gauss-Newton normal equations overflow raises LinAlgError.
    """
    x, mean = _check_and_demean(series, estimate_c)
    if p < 0 or q < 0:
        raise ValueError(f"p and q must be >= 0, got p={p}, q={q}")
    report = _fit_css(x, mean, p, q, _long_ar(x))
    if not report.converged:
        raise FitConvergenceError(
            f"CSS optimizer did not converge in {_MAX_ITER} iterations", report)
    return report


def _check_and_demean(series, estimate_c: bool) -> tuple[np.ndarray, float | None]:
    """(x, mean): the series as the fit sees it, in its own units. With c
    fixed that is (series, None); with c estimated, x is the demeaned
    series and mean the series mean. The values must be finite and the sum
    of squares finite; a non-empty x whose sum of squares is zero or
    subnormal has nothing to fit and raises ValueError. An empty series
    passes, for the length check to name."""
    x = np.asarray(series, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    with np.errstate(over="ignore"):
        ss = float(np.dot(x, x))
    if not math.isfinite(ss):
        raise ValueError("series overflows: its sum of squares is not finite")
    mean = None
    if estimate_c and x.size:
        mean = float(x.mean())
        x = x - mean
        ss = float(np.dot(x, x))
    if x.size and ss < sys.float_info.min:  # a subnormal sum has lost precision
        raise ValueError(f"series underflows: its {'' if mean is None else 'demeaned '}"
                         f"sum of squares is {'subnormal' if ss else 'zero'}")
    return x, mean


def _fit_css(x: np.ndarray, mean: float | None, p: int, q: int, long_ar,
             warm=None, nested: FitReport | None = None) -> FitReport:
    """fit_css on the series that `_check_and_demean` turned into
    (x, mean), converged or not: c is estimated unless mean is None.
    long_ar is the `_long_ar` stage of x.

    Starts, in order: Hannan-Rissanen (zeros when its CSS is not finite),
    order_scan's unit-free (ar, ma) vector warm, and for p, q >= 1 the
    common-factor extension of nested, the series' (p-1, q-1) fit, which
    is fitted here when not given. `_gauss_newton` evaluates each start
    once and screens it to _SCREEN_TOL. The leader is the start with the
    lowest screened CSS, the earlier start on a tie, and only its run is
    kept; when all have run, a leader that stopped "screened" alone is
    finished from its params to _TOL, and one that stopped on a spent line
    search or on the cap is final. The other starts end where they were
    screened. A start whose CSS is not finite ends there at inf and never
    leads, since the first start's CSS is finite. `iterations` is the most
    any start took, the leader's counted over both parts. `converged` is
    False exactly when the leader stopped on the cap, and the standard
    errors come from the leader's own residuals and theta(B)^-1 x."""
    n = x.size
    if n <= 10 * (p + q + 1):
        raise ValueError(f"series too short: need n > {10 * (p + q + 1)}, got {n}")

    hr = _hannan_rissanen(x, p, q, long_ar)
    lead = _gauss_newton(hr, x, p, q, _SCREEN_TOL)
    if lead[3] == "not_finite":
        lead = _gauss_newton(np.zeros_like(hr), x, p, q, _SCREEN_TOL)
    iterations = lead[2]
    starts = [] if warm is None else [warm]
    if p > 0 and q > 0:
        if nested is None:
            nested = _fit_css(x, mean, p - 1, q - 1, long_ar)
        for a, m in _COMMON_FACTORS:  # phi and theta each gain one root
            phi = np.convolve(nested.model.ar_poly(), [1.0, -a])
            theta = np.convolve(nested.model.ma_poly(), [1.0, -m])
            starts.append(np.concatenate((-phi[1:], theta[1:])))
    for s0 in starts:
        run = _gauss_newton(s0, x, p, q, _SCREEN_TOL)
        iterations = max(iterations, run[2])
        if run[1] < lead[1]:
            lead = run
        del run  # a start that lost frees its arrays before the next one runs
    params, css, steps, stop, eps, u = lead
    if stop == "screened":  # finish the leader from its params
        params, css, steps, stop, eps, u = _gauss_newton(params, x, p, q,
                                                         iterations=steps)
        iterations = max(iterations, steps)
    ar, ma = params[:p], params[p:]

    k = p + q
    dof = n - p - q - 1  # positive, by the length check
    sigma2 = css / dof
    cov = np.empty((0, 0))
    if k > 0:
        with np.errstate(over="ignore", invalid="ignore"):
            J = _jacobian(params, eps, u, p, q)
        try:
            cov = sigma2 * np.linalg.inv(J.T @ J)
        except np.linalg.LinAlgError:
            cov = np.full((k, k), np.nan)
    var = np.diag(cov)
    c = 0.0
    if mean is not None:  # c = mean phi(1), its variance by the delta method
        c = mean * (1.0 - float(np.sum(ar)))
        var_c = (sigma2 * (1.0 + float(np.sum(ma))) ** 2 / n
                 + mean ** 2 * float(np.sum(cov[:p, :p])))
        var = np.concatenate(([var_c], var))
    stderr = [math.sqrt(v) if v > 0 else float("nan") for v in var]
    loglik = 0.0
    if css > 0:
        # 2 pi css overflows above a css of 2.9e307, and only there is the log
        # split: elsewhere the split log would differ in the last bit
        s = 2.0 * math.pi * css / n
        log_s = (math.log(s) if math.isfinite(s)
                 else math.log(2.0 * math.pi) + math.log(css / n))
        loglik = -0.5 * n * (log_s + 1.0)
    k_ic = k + (mean is not None) + 1  # + c when estimated, + innovation variance
    aic, bic = information_criteria(loglik, k_ic, n)
    return FitReport(model=ArmaModel(c=c, ar=list(ar), ma=list(ma), sigma2=sigma2),
                     n=n, css=css, loglik=loglik, aic=aic, bic=bic,
                     stderr=stderr, converged=stop != "cap", iterations=iterations,
                     residuals=eps)


def order_scan(series, p_max: int, q_max: int, estimate_c: bool = True) -> tuple:
    """Fit every (p, q) on the grid and select the BIC argmin, returned as
    (rows, fits, selected): one row dict per (p, q) in grid order, the
    FitReport of every fitted cell keyed by (p, q), and the (p, q) of the
    BIC argmin.

    Grid cells are fitted in increasing order. Besides the starts of
    fit_css, each cell is warm-started from the lower-CSS of its fitted
    (p-1, q) and (p, q-1) neighbors, zero-padded, so the CSS of nested
    models is non-increasing across the grid, and its common-factor start
    extends the fitted (p-1, q-1) cell. Every cell races its starts as
    fit_css does: each is screened to a relative CSS change of 1e-5, and
    only the leader is finished from its params to 1e-10. Non-convergent
    and non-stationary fits are recorded but excluded from selection. Each
    fitted cell is invertible by construction (the fit's search stays in
    that region), so a fitted row's `invertible` is always True. Each row carries its AIC
    too, but only BIC selects. `fits` holds every fitted cell, converged
    or not, and `fits[selected]` is the model the scan scored. As in
    fit_css, a start whose CSS is not finite never wins; with c estimated
    every cell fits the demeaned series and reports c = mean(x) phi(1); c,
    css and sigma2 are in the series' units without depending on them; and
    the models carry no sample period or units. The series is checked
    once, as in fit_css, and a non-finite, overflowing or zero or subnormal
    one raises ValueError before any cell.
    """
    if p_max < 0 or q_max < 0:
        raise ValueError("p_max and q_max must be >= 0")
    x, mean = _check_and_demean(series, estimate_c)
    long_ar = _long_ar(x)  # one first stage serves the whole grid
    rows = []
    fitted: dict[tuple[int, int], FitReport] = {}
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            row = {"p": p, "q": q, "converged": False, "stationary": False,
                   "invertible": False, "aic": float("nan"),
                   "bic": float("nan"), "css": float("nan"), "error": None}
            prev = [fitted[k] for k in ((p - 1, q), (p, q - 1)) if k in fitted]
            start = _pad_start(min(prev, key=lambda r: r.css), p, q) if prev else None
            try:
                rep = _fit_css(x, mean, p, q, long_ar, start, fitted.get((p - 1, q - 1)))
            except (ValueError, np.linalg.LinAlgError) as exc:
                row["error"] = str(exc)
            else:
                fitted[(p, q)] = rep
                row.update(converged=rep.converged, stationary=rep.model.stationary,
                           invertible=rep.model.invertible, aic=rep.aic,
                           bic=rep.bic, css=rep.css,
                           error=None if rep.converged else "no convergence")
            rows.append(row)
    admissible = [r for r in rows if r["converged"] and r["stationary"]
                  and math.isfinite(r["bic"])]
    if not admissible:
        raise RuntimeError("order scan produced no admissible fits")
    best = min(admissible, key=lambda r: r["bic"])
    return rows, fitted, (best["p"], best["q"])


def chi2_quantile(prob: float, df: int) -> float:
    """Chi-square quantile via the Wilson-Hilferty cube approximation."""
    if df < 1:
        raise ValueError("df must be >= 1")
    z = NormalDist().inv_cdf(prob)
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * math.sqrt(a)) ** 3


def diagnose_residuals(res, max_lag: int = 20, n_model_params: int = 0) -> dict:
    """Whiteness diagnostics for a residual series, as the diagnostics.json
    object: ljung_box_q, ljung_box_df, ljung_box_critical, skewness,
    excess_kurtosis, significance_bound (the ACF's 95% band,
    stats.significance_bound(n)) and passed.

    From the residual ACF it computes the Ljung-Box portmanteau
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
    rho = _acf(x, max_lag)[1:]
    q_stat = float(n * (n + 2) * np.sum(rho**2 / (n - np.arange(1, max_lag + 1))))
    df = max(max_lag - n_model_params, 1)
    crit = chi2_quantile(0.99, df)
    # Bonferroni per-lag band: two-sided 5% split across max_lag lags.
    z_fw = NormalDist().inv_cdf(1.0 - 0.05 / (2.0 * max_lag))
    fw_bound = z_fw / math.sqrt(n)
    xc = x - x.mean()
    with np.errstate(over="ignore", invalid="ignore"):
        m2, m3, m4 = (float(np.mean(xc**k)) for k in (2, 3, 4))
    if not math.isfinite(m4):
        raise ValueError("residuals overflow: their fourth moment is not finite")
    if m2 > 0 and m2**2 == 0.0:
        raise ValueError("residuals underflow: the square of their variance is zero")
    if 0 < m2**2 < sys.float_info.min:  # a subnormal square has lost precision
        raise ValueError("residuals underflow: the square of their variance "
                         "is subnormal")
    skew = m3 / m2**1.5 if m2 > 0 else 0.0
    exkurt = m4 / m2**2 - 3.0 if m2 > 0 else 0.0
    passed = bool(q_stat < crit and np.all(np.abs(rho) < fw_bound))
    return {"ljung_box_q": q_stat, "ljung_box_df": df, "ljung_box_critical": crit,
            "skewness": skew, "excess_kurtosis": exkurt,
            "significance_bound": significance_bound(n), "passed": passed}


def stationary_variance(model: ArmaModel) -> float:
    """Stationary process variance gamma(0), from one linear system
    (Brockwell & Davis, Time Series: Theory and Methods, §3.3, the second
    method). With psi_0..psi_q the first weights of the impulse
    response of theta(B)/phi(B), phi_0 = theta_0 = 1 and r = max(p, q),
    the autocovariances gamma(0..r) solve the r + 1 equations

        sum_i phi_i gamma(|k - i|) = sigma2 sum_{j=k..q} theta_j psi_{j-k},

    k = 0..r, over phi(z) = 1 - M_1 z - ... (`ar_poly`), each right side
    0 for k > q. No series is truncated, so an AR root near the unit
    circle loses only the rounding of the coefficients."""
    if not model.stationary:
        raise ValueError("model is not stationary")
    phi, theta = model.ar_poly(), model.ma_poly()
    p, q = phi.size - 1, theta.size - 1
    k = np.arange(max(p, q) + 1)[:, None]
    lhs = np.zeros((k.size, k.size))
    np.add.at(lhs, (k, np.abs(k - np.arange(p + 1))), phi)
    psi = _lfilter(theta, phi, np.eye(1, q + 1)[0])
    rhs = np.zeros(k.size)
    rhs[:q + 1] = np.correlate(theta, psi, "full")[q:]
    return float(model.sigma2 * np.linalg.solve(lhs, rhs)[0])
