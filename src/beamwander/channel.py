"""Wander-to-intensity mapping and OAM crosstalk.

Maps centroid offsets to received intensity through the Gaussian
short-term beam profile, provides the memoryless power-law fading
baseline p(I) = gamma I^(gamma-1) on [0, 1] with its maximum-likelihood
estimator, and computes the OAM mode spectrum produced by a lateral
displacement. Every trace in or out is a plain numpy array.
"""

from __future__ import annotations

import numpy as np


def fading_trace(xs, ys, omega_st: float) -> np.ndarray:
    """Received intensity exp(-2 (bx^2 + by^2) / omega_st^2) at every
    sample of a wander trace; rotationally symmetric in the offsets."""
    if not omega_st > 0:
        raise ValueError("omega_st must be positive")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size:
        raise ValueError("xs and ys must have equal length")
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
    l + l_max; the one-sample crosstalk_trace."""
    if r_c < 0:
        raise ValueError("r_c must be >= 0")
    return crosstalk_trace([r_c], [0.0], omega_st, l_max)[1][0]


# largest argument a that scipy's ive (AMOS) evaluates; it returns NaN beyond,
# at offsets of about 32768 beam radii
_IVE_MAX_ARG = (2**31 - 1) / 2


def crosstalk_trace(xs, ys, omega_st: float, l_max: int):
    """OAM mode weights along a wander trace, as (r_norm, weights).

    r_norm is r_{c,t}/omega_st with r_{c,t}^2 = bx_t^2 + by_t^2, and
    weights[t, l + l_max] is C_l = exp(-a) I_|l|(a), a = r_norm_t^2, for
    l = -l_max..l_max, from one scipy.special.ive call. scipy.special is
    imported here so that only crosstalk loads it."""
    from scipy.special import ive
    if not omega_st > 0:
        raise ValueError("omega_st must be positive")
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size:
        raise ValueError("xs and ys must have equal length")
    r_norm = np.sqrt(x**2 + y**2) / omega_st
    a = r_norm**2
    beyond = np.flatnonzero(a > _IVE_MAX_ARG)
    if beyond.size:
        i = beyond[0]
        raise ValueError(f"sample {i}: offset of {r_norm[i]:.6g} beam radii, "
                         f"beyond the Bessel kernel's {_IVE_MAX_ARG ** 0.5:.6g}; "
                         f"are the trace and omega_st in the same units?")
    half = ive(np.arange(l_max + 1), a[:, None])  # l = 0..l_max
    return r_norm, np.concatenate((half[:, :0:-1], half), axis=1)
