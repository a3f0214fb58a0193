"""Closed-form turbulence quantities for a free-space optical link.

Beam-wander radial variance for Kolmogorov turbulence (general beam,
collimated beam, and collimated beam with a finite outer scale), the
long-term beam size, and the Greenwood frequency. Each returns a plain
float; the link itself is described by one LinkParams.

All lengths are SI meters, Cn^2 in m^(-2/3), wind speed in m/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LinkParams:
    """Physical description of an optical link.

    cn2        refractive-index structure constant, m^(-2/3)
    L          propagation distance, m
    omega0     transmit beam waist radius, m
    theta0     beam parameter, dimensionless; 1 = collimated. Only the
               collimated-to-focused range [0, 1] is accepted.
    kappa0     outer-scale wavenumber, 1/m; 0 means infinite outer scale
    """

    cn2: float
    L: float
    omega0: float
    theta0: float = 1.0
    kappa0: float = 0.0

    def __post_init__(self):
        if not self.cn2 > 0:
            raise ValueError(f"cn2 must be positive, got {self.cn2}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if not self.omega0 > 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if not 0.0 <= self.theta0 <= 1.0:
            raise ValueError(f"theta0 must lie in [0, 1], got {self.theta0}")
        if self.kappa0 < 0:
            raise ValueError(f"kappa0 must be >= 0, got {self.kappa0}")


def hyp2f1_beam(z: float) -> float:
    """Gauss hypergeometric 2F1(1/3, 1; 4; z) for z in [0, 1].

    Direct series summation; converges on the whole closed interval
    because c - a - b = 8/3 > 0. Stops when a term falls below 1e-16 of
    the partial sum, capped at 10,000 terms.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"z must lie in [0, 1], got {z}")
    a, b, c = 1.0 / 3.0, 1.0, 4.0
    total = 1.0
    term = 1.0
    for k in range(10_000):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        total += term
        if abs(term) < 1e-16 * abs(total):
            break
    return total


def wander_variance_general(p: LinkParams) -> float:
    """Beam-wander radial variance <r_c^2> for an arbitrary beam parameter.

    2.42 Cn^2 L^3 omega0^(-1/3) 2F1(1/3, 1; 4; 1 - |theta0|), the
    collimated value times the 2F1 factor; infinite outer scale (kappa0 is
    ignored).
    """
    return wander_variance_collimated(p) * hyp2f1_beam(1.0 - abs(p.theta0))


def wander_variance_collimated(p: LinkParams) -> float:
    """Collimated-beam (theta0 = 1) reduction: 2.42 Cn^2 L^3 omega0^(-1/3),
    inf where L^3 overflows, as a product that overflows gives."""
    try:
        return 2.42 * p.cn2 * p.L**3 * p.omega0 ** (-1.0 / 3.0)
    except OverflowError:  # float ** raises where * gives inf
        return math.inf


def wander_variance_outer_scale(p: LinkParams) -> float:
    """Collimated-beam wander variance with a finite outer scale.

    Multiplies the infinite-outer-scale value by
    1 - (k0^2 w0^2 / (1 + k0^2 w0^2))^(1/6); requires kappa0 > 0. That
    bracket is exactly 0.0 from k0 w0 ~ 1e8 up, and is 0.0 where
    k0^2 w0^2 overflows.
    """
    if not p.kappa0 > 0:
        raise ValueError("kappa0 must be > 0; use wander_variance_collimated for "
                         "an infinite outer scale")
    try:
        k2w2 = (p.kappa0 * p.omega0) ** 2
    except OverflowError:
        k2w2 = math.inf
    bracket = 1.0 - (k2w2 / (1.0 + k2w2)) ** (1.0 / 6.0) if k2w2 < math.inf else 0.0
    return wander_variance_collimated(p) * bracket


def wander_variance(p: LinkParams) -> float:
    """Dispatching entry point: finite outer scale when kappa0 > 0
    (collimated only), otherwise the general infinite-outer-scale form."""
    if p.kappa0 > 0:
        if p.theta0 != 1.0:
            raise ValueError("finite outer scale form is only available for a "
                             "collimated beam (theta0 = 1)")
        return wander_variance_outer_scale(p)
    return wander_variance_general(p)


def long_term_beam_size(omega_st: float, rc_var: float) -> float:
    """Long-term beam radius: sqrt(omega_st^2 + <r_c^2>), inf where
    omega_st^2 overflows."""
    if not omega_st > 0:
        raise ValueError("omega_st must be positive")
    if rc_var < 0:
        raise ValueError("rc_var must be >= 0")
    try:
        return math.sqrt(omega_st**2 + rc_var)
    except OverflowError:
        return math.inf


def greenwood_frequency(wind_speed: float, r0: float) -> float:
    """Greenwood frequency 0.43 V / r0, in Hz."""
    if not r0 > 0:
        raise ValueError(f"r0 must be positive, got {r0}")
    if wind_speed < 0:
        raise ValueError("wind_speed must be >= 0")
    return 0.43 * wind_speed / r0
