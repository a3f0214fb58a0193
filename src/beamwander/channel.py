"""Wander-to-intensity mapping and OAM crosstalk.

Maps centroid offsets to received intensity through the Gaussian
short-term beam profile, provides the memoryless power-law fading
baseline p(I) = gamma I^(gamma-1) on [0, 1] with its maximum-likelihood
estimator, and computes the OAM mode spectrum produced by a lateral
displacement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class FadingTrace:
    """Normalized received-intensity time series."""

    intensities: np.ndarray
    sample_period: float = 1.0
    gamma: float | None = None


@dataclass
class OamSpectrum:
    """Mode weights C_l for l = -l_max..l_max; symmetric in l, each in
    [0, 1], and summing to 1 in the untruncated limit."""

    l_max: int
    weights: np.ndarray

    def weight(self, l: int) -> float:
        if abs(l) > self.l_max:
            raise IndexError(f"mode {l} outside +-{self.l_max}")
        return float(self.weights[l + self.l_max])


@dataclass
class CrosstalkTrace:
    """OAM mode weights along a wander trace: weights[t, l + l_max] is C_l
    at sample t, for l = -l_max..l_max; r_norm is r_c/omega_st."""

    weights: np.ndarray
    r_norm: np.ndarray
    sample_period: float = 1.0

    @property
    def l_max(self) -> int:
        return (self.weights.shape[1] - 1) // 2

    def mode_series(self, l: int) -> np.ndarray:
        """C_l over the trace, a column view of weights."""
        if abs(l) > self.l_max:
            raise IndexError(f"mode {l} outside +-{self.l_max}")
        return self.weights[:, l + self.l_max]


def intensity_from_offsets(beta_x, beta_y, omega_st: float, i0=1.0):
    """Received intensity i0 * exp(-2 (bx^2 + by^2) / omega_st^2).

    Accepts scalars or arrays; rotationally symmetric in the offsets.
    """
    if not omega_st > 0:
        raise ValueError("omega_st must be positive")
    bx = np.asarray(beta_x, dtype=float)
    by = np.asarray(beta_y, dtype=float)
    out = i0 * np.exp(-2.0 * (bx**2 + by**2) / omega_st**2)
    return float(out) if out.ndim == 0 else out


def fading_trace(xs, ys, omega_st: float, i0_series=None,
                 sample_period: float = 1.0) -> FadingTrace:
    """Elementwise intensity mapping of a wander trace.

    i0_series is the scintillation hook: caller-supplied per-sample on-axis
    intensities that multiply the wander attenuation. This function never
    generates scintillation samples itself; without the hook I0 = 1.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size:
        raise ValueError("xs and ys must have equal length")
    if i0_series is None:
        i0 = 1.0
    else:
        i0 = np.asarray(i0_series, dtype=float)
        if i0.size != x.size:
            raise ValueError("i0_series length must match the trace")
    return FadingTrace(intensities=intensity_from_offsets(x, y, omega_st, i0),
                       sample_period=sample_period)


def memoryless_sample(gamma: float, n: int, seed: int,
                      sample_period: float = 1.0) -> FadingTrace:
    """n i.i.d. draws from p(I) = gamma I^(gamma-1) on [0, 1] by inverse
    CDF (I = U^(1/gamma)), from a seeded PCG64 stream."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n)
    return FadingTrace(intensities=u ** (1.0 / gamma),
                       sample_period=sample_period, gamma=gamma)


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


def oam_spectrum(r_c: float, omega_st: float, l_max: int) -> OamSpectrum:
    """Detected OAM spectrum for a lateral displacement r_c:
    C_l = exp(-r^2/w^2) I_|l|(r^2/w^2), the one-sample crosstalk_trace."""
    if r_c < 0:
        raise ValueError("r_c must be >= 0")
    return OamSpectrum(l_max=l_max, weights=crosstalk_trace(
        [r_c], [0.0], omega_st, l_max).weights[0])


# largest argument a that scipy's ive (AMOS) evaluates; it returns NaN beyond,
# at offsets of about 32768 beam radii
_IVE_MAX_ARG = (2**31 - 1) / 2


def crosstalk_trace(xs, ys, omega_st: float, l_max: int,
                    sample_period: float = 1.0) -> CrosstalkTrace:
    """OAM mode weights C_l = exp(-a) I_|l|(a), a = r_{c,t}^2/omega_st^2
    with r_{c,t}^2 = bx_t^2 + by_t^2, at every sample of a wander trace,
    from one scipy.special.ive call; plus the normalized radius series.
    scipy.special is imported here so that only crosstalk loads it."""
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
    return CrosstalkTrace(weights=np.concatenate((half[:, :0:-1], half), axis=1),
                          r_norm=r_norm, sample_period=sample_period)
