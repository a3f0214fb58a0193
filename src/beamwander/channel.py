"""Wander-to-intensity mapping and OAM crosstalk.

Maps centroid offsets to received intensity through the Gaussian
short-term beam profile, provides the memoryless power-law fading
baseline p(I) = gamma I^(gamma-1) on [0, 1] with its maximum-likelihood
estimator, and computes the OAM mode spectrum produced by a lateral
displacement, with its own numpy Bessel kernel. Every trace in or out
is a plain numpy array.
"""

from __future__ import annotations

import math

import numpy as np


def fading_trace(xs, ys, omega_st: float) -> np.ndarray:
    """Received intensity exp(-2 (bx^2 + by^2) / omega_st^2) at every
    sample of a wander trace; rotationally symmetric in the offsets. An
    offset whose square overflows receives 0, the limit of a far beam."""
    if not omega_st > 0:
        raise ValueError("omega_st must be positive")
    if not 0 < omega_st * omega_st < math.inf:  # no 0/0 or inf/inf below
        raise ValueError(f"omega_st must have a finite, non-zero square, got {omega_st}")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size:
        raise ValueError("xs and ys must have equal length")
    with np.errstate(over="ignore"):  # an inf square gives exp(-inf) = 0
        return np.exp(-2.0 * (x**2 + y**2) / omega_st**2)


def memoryless_sample(gamma: float, n: int, seed: int) -> np.ndarray:
    """n i.i.d. intensities from p(I) = gamma I^(gamma-1) on [0, 1] by
    inverse CDF (I = U^(1/gamma)), from a seeded PCG64 stream."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n)
    return u ** (1.0 / gamma)


def estimate_gamma(intensities) -> float:
    """Closed-form MLE gamma_hat = -n / sum(ln I_i) for samples in (0, 1]."""
    x = np.asarray(intensities, dtype=float)
    if x.size < 10:
        raise ValueError("need at least 10 samples")
    if np.any(x <= 0) or np.any(x > 1):
        raise ValueError("all intensities must lie in (0, 1]")
    s = float(np.sum(np.log(x)))
    if s == 0.0:
        raise ValueError("all intensities equal 1; gamma estimate diverges")
    return -x.size / s


def oam_spectrum(r_c: float, omega_st: float, l_max: int) -> np.ndarray:
    """Detected OAM spectrum for a lateral displacement r_c: the weights
    C_l = exp(-r^2/w^2) I_|l|(r^2/w^2) for l = -l_max..l_max, entry
    l + l_max; the one-sample crosstalk_trace, mirrored (C_-l = C_l)."""
    if r_c < 0:
        raise ValueError("r_c must be >= 0")
    half = crosstalk_trace([r_c], [0.0], omega_st, l_max)[1][0]
    return np.concatenate((half[:0:-1], half))


# largest a = r_c^2/omega_st^2 accepted, an offset of about 32768 beam radii: a
# units sanity bound, as an offset that far out almost always means a trace and
# omega_st in different units; _ive_rows is accurate up to it
_IVE_MAX_ARG = (2**31 - 1) / 2


def _hankel_from(l_max: int) -> float:
    """The a above which _ive_rows switches to the large-argument expansion."""
    return max(1000.0, 8.0 * (l_max + 1) ** 2)


def _ive_rows(a: np.ndarray, l_max: int) -> np.ndarray:
    """e^-a I_l(a) for l = 0..l_max at each a >= 0, as an (n, l_max + 1) array.

    Up to _hankel_from(l_max), Miller's algorithm (Gautschi, SIAM Review 9,
    1967): the ratios r_k = I_k/I_{k-1} = a/(2k + a r_{k+1}) run backward from
    r = 0 at k = l_max + 9 sqrt(max a) + 30, where I_k/I_0 ~ exp(-k^2/2a) is
    far below rounding, and the Neumann sum e^a = I_0 + 2 sum_k I_k, in
    Horner form T_k = r_k (1 + T_{k+1}), fixes e^-a I_0 = 1/(1 + 2 T_1); then
    e^-a I_l = e^-a I_0 r_1 ... r_l. Nothing divides by a, a row at a = 0 is
    exactly [1, 0, ...], and C_0 + 2 (C_1 + ... + C_l_max) <= 1 by
    construction. Above it, the Hankel expansion (Abramowitz & Stegun
    9.7.1) to 40 terms.
    """
    big = a > _hankel_from(l_max)
    s = np.where(big, 0.0, a)
    r = np.zeros_like(s)
    t = np.zeros_like(s)
    rows = np.empty((a.size, l_max + 1))
    for k in range(l_max + math.ceil(9.0 * math.sqrt(s.max(initial=0.0))) + 30, 0, -1):
        # in place: r = s / (2k + s r), t = r (1 + t)
        np.multiply(s, r, out=r)
        r += 2.0 * k
        np.divide(s, r, out=r)
        t += 1.0
        t *= r
        if k <= l_max:
            rows[:, k] = r
    rows[:, 0] = 1.0 / (1.0 + 2.0 * t)
    np.cumprod(rows, axis=1, out=rows)
    b = a[big][:, None]
    mu = 4.0 * np.arange(l_max + 1) ** 2
    term = np.ones((b.size, l_max + 1))
    total = term.copy()
    for k in range(1, 41):
        term = term * (mu - (2 * k - 1) ** 2) / (-8.0 * k * b)
        total += term
    rows[big] = total / np.sqrt(2.0 * np.pi * b)
    return rows


def crosstalk_trace(xs, ys, omega_st: float, l_max: int):
    """OAM mode weights along a wander trace, as (r_norm, weights).

    r_norm is r_{c,t}/omega_st with r_{c,t}^2 = bx_t^2 + by_t^2, and
    weights[t, l] is C_l = exp(-a) I_l(a), a = r_norm_t^2, for l = 0..l_max
    (C_-l = C_l), an (n, l_max + 1) array from one _ive_rows pass."""
    if not omega_st > 0:
        raise ValueError("omega_st must be positive")
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size:
        raise ValueError("xs and ys must have equal length")
    with np.errstate(over="ignore"):  # an overflow is named below, as inf
        r_norm = np.sqrt(x**2 + y**2) / omega_st
        a = r_norm**2
    beyond = np.flatnonzero(~(a <= _IVE_MAX_ARG))
    if beyond.size:
        i = beyond[0]
        raise ValueError(f"sample {i}: offset of {r_norm[i]:.6g} beam radii, "
                         f"beyond the Bessel kernel's {_IVE_MAX_ARG ** 0.5:.6g}; "
                         f"are the trace and omega_st in the same units?")
    return r_norm, _ive_rows(a, l_max)
