"""Time-series and fading statistics.

ACF and PACF as arrays over lags 0..max_lag, their 95% white-noise
band `significance_bound(n)`, radial variance of a wander trace, run
lengths above and below an intensity threshold as two int arrays,
scintillation index and normalized empirical PDFs.
"""

from __future__ import annotations

import math
import sys

import numpy as np


def significance_bound(n: int) -> float:
    """The 95% white-noise band 1.96/sqrt(n) of an ACF or PACF of n samples."""
    return 1.96 / math.sqrt(n)


def acf(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelation for lags 0..max_lag with the biased (1/n)
    normalization.

    rho_k = sum (x_t - xbar)(x_{t+k} - xbar) / sum (x_t - xbar)^2.
    A NaN or infinite sample is refused before anything is summed.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if n <= max_lag:
        raise ValueError(f"series length {n} must exceed max_lag {max_lag}")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    # constancy is read from the values: x - x.mean() can be off by a
    # rounding error and so not zero, and a sum of squares can underflow
    if x.min() == x.max():
        raise ValueError("constant series has zero variance; ACF undefined")
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean()
        denom = float(np.dot(xc, xc))
    if not np.isfinite(denom):
        raise ValueError("series overflows: its sum of squares is not finite")
    if denom == 0.0:
        raise ValueError("series underflows: its sum of squares is zero")
    if denom < sys.float_info.min:  # a subnormal sum has lost precision
        raise ValueError("series underflows: its sum of squares is subnormal")
    vals = np.empty(max_lag + 1)
    vals[0] = 1.0
    for k in range(1, max_lag + 1):
        vals[k] = float(np.dot(xc[:-k], xc[k:])) / denom
    return vals


def pacf(series, max_lag: int) -> np.ndarray:
    """Partial autocorrelations for lags 0..max_lag via the Durbin-Levinson
    recursion.

    Lag-0 entry is 1 by convention; lag 1 equals the lag-1 ACF.
    """
    rho = acf(series, max_lag)
    pac = np.empty(max_lag + 1)
    pac[0] = 1.0
    phi_prev = np.zeros(0)
    for k in range(1, max_lag + 1):
        if k == 1:
            num = rho[1]
        else:
            num = rho[k] - float(np.dot(phi_prev, rho[k - 1:0:-1]))
        den = 1.0 - float(np.dot(phi_prev, rho[1:k]))
        phi_kk = num / den
        phi = np.empty(k)
        phi[:k - 1] = phi_prev - phi_kk * phi_prev[::-1]
        phi[k - 1] = phi_kk
        pac[k] = phi_kk
        phi_prev = phi
    return pac


def radial_variance(xs, ys) -> float:
    """Second moment of the wander displacement about the empirical centroid.

    mean((x - xbar)^2 + (y - ybar)^2); invariant under translation of
    either axis.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size:
        raise ValueError("xs and ys must have equal length")
    if x.size < 2:
        raise ValueError("need at least two samples")
    with np.errstate(over="ignore", invalid="ignore"):
        v = float(np.mean((x - x.mean()) ** 2 + (y - y.mean()) ** 2))
    if not np.isfinite(v):
        raise ValueError("trace overflows: its radial variance is not finite")
    return v


def run_length_distribution(series, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The lengths of the maximal runs >= threshold (above) and
    < threshold (below), as two int arrays in time order. Together they
    sum to the series length. A NaN, which is neither, is refused."""
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("series must be non-empty")
    if math.isnan(threshold) or np.isnan(x).any():
        raise ValueError("series and threshold must not be NaN")
    above = x >= threshold
    starts = np.concatenate(([0], np.flatnonzero(above[1:] != above[:-1]) + 1))
    lengths = np.diff(starts, append=x.size)
    return lengths[above[starts]], lengths[~above[starts]]


def scintillation_index(intensities) -> float:
    """Normalized intensity variance <I^2>/<I>^2 - 1. Since <I^2> >= <I>^2,
    a negative value can only be rounding, and is returned as 0. Constant
    intensities, whose index rounds to either side of 0 (-4.4e-16 for 0.3,
    2.2e-16 for others), give exactly 0, their constancy read from the
    values as `acf` reads it."""
    x = np.asarray(intensities, dtype=float)
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise ValueError("intensities must be non-empty and finite")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = x.mean()
        si = float(np.mean(x**2) / m**2 - 1.0)
    if not math.isfinite(m):
        raise ValueError("intensities overflow: their mean is not finite")
    if m <= 0:
        raise ValueError("mean intensity must be positive")
    if not math.isfinite(si):
        raise ValueError("intensities out of range: their scintillation index "
                         "is not finite")
    return 0.0 if x.min() == x.max() else max(si, 0.0)


def empirical_pdf(series, bin_count: int):
    """Histogram density: (bin_edges, densities) with
    sum(density * bin_width) == 1.

    A range too narrow to hold bin_count finite bins, a few ulps wide, is
    widened by 0.5 on each side, as numpy widens a zero range, so a
    near-constant series histograms like a constant one."""
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("series must be non-empty")
    if bin_count < 2:
        raise ValueError("bin_count must be >= 2")
    lo, hi = x.min(), x.max()
    value_range = None
    if lo < hi and np.any(np.diff(np.linspace(lo, hi, bin_count + 1)) <= 0):
        value_range = (lo - 0.5, hi + 0.5)
    density, edges = np.histogram(x, bins=bin_count, range=value_range, density=True)
    return edges, density
