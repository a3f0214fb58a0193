"""Time-series and fading statistics.

ACF/PACF with 95% significance bounds, radial variance of a wander
trace, run lengths above and below an intensity threshold as two int
arrays, scintillation index and normalized empirical PDFs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AcfResult:
    """Autocorrelations (or partial autocorrelations) for lags 0..max_lag.

    significance_bound is the 95% white-noise band 1.96/sqrt(n).
    """

    values: np.ndarray
    significance_bound: float


def acf(series, max_lag: int) -> AcfResult:
    """Sample autocorrelation with the biased (1/n) normalization.

    rho_k = sum (x_t - xbar)(x_{t+k} - xbar) / sum (x_t - xbar)^2.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if n <= max_lag:
        raise ValueError(f"series length {n} must exceed max_lag {max_lag}")
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        raise ValueError("constant series has zero variance; ACF undefined")
    vals = np.empty(max_lag + 1)
    vals[0] = 1.0
    for k in range(1, max_lag + 1):
        vals[k] = float(np.dot(xc[:-k], xc[k:])) / denom
    return AcfResult(values=vals, significance_bound=1.96 / np.sqrt(n))


def pacf(series, max_lag: int) -> AcfResult:
    """Partial autocorrelations via the Durbin-Levinson recursion.

    Lag-0 entry is 1 by convention; lag 1 equals the lag-1 ACF.
    """
    r = acf(series, max_lag)
    rho = r.values
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
    return AcfResult(values=pac, significance_bound=r.significance_bound)


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
    return float(np.mean((x - x.mean()) ** 2 + (y - y.mean()) ** 2))


def run_length_distribution(series, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The lengths of the maximal runs >= threshold (above) and
    < threshold (below), as two int arrays in time order. Together they
    sum to the series length."""
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("series must be non-empty")
    above = x >= threshold
    starts = np.concatenate(([0], np.flatnonzero(above[1:] != above[:-1]) + 1))
    lengths = np.diff(starts, append=x.size)
    return lengths[above[starts]], lengths[~above[starts]]


def scintillation_index(intensities) -> float:
    """Normalized intensity variance <I^2>/<I>^2 - 1."""
    x = np.asarray(intensities, dtype=float)
    m = x.mean()
    if m <= 0:
        raise ValueError("mean intensity must be positive")
    return float(np.mean(x**2) / m**2 - 1.0)


def empirical_pdf(series, bin_count: int, value_range: tuple[float, float] | None = None):
    """Histogram density: (bin_edges, densities) with
    sum(density * bin_width) == 1."""
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("series must be non-empty")
    if bin_count < 2:
        raise ValueError("bin_count must be >= 2")
    density, edges = np.histogram(x, bins=bin_count, range=value_range, density=True)
    return edges, density
