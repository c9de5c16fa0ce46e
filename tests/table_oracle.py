"""Independent tail masses of the power-of-Phi kernels, by scipy quad.

The kernel k(z) = phi(z) Phi(lam1 z)^n Phi(lam2 z)^m of SNB, GBSN and
TBSN is a product of log-concave factors, so it has one mode and, on any
interval, its largest value at the point of the interval nearest that
mode.  The mass below (or above) x is the integral of k(z) / k(peak)
over [-REACH, x] (or [x, REACH]), with quad breakpoints spaced
geometrically away from the peak, so the integrand is at most 1 and
steep kernels are resolved where their mass sits.  Masses come back as
logs, so tail masses far below the smallest double stay exact in
relative terms.  Nothing here is imported from betasn.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import log_ndtr

# the kernel is below phi(40) ~ 1e-348 outside [-REACH, REACH]
REACH = 40.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# breakpoints at peak -/+ _FIRST_STEP * 2**k
_FIRST_STEP = 1e-5


def log_kernel(z, lam1, lam2, n, m):
    """log phi(z) + n log Phi(lam1 z) + m log Phi(lam2 z)."""
    return -0.5 * z * z - _LOG_SQRT_2PI + n * log_ndtr(lam1 * z) + m * log_ndtr(lam2 * z)


def _log_slope(z, lam1, lam2, n, m):
    """d/dz of log_kernel: -z plus lam times the inverse Mills ratio per factor."""

    def mills(t):
        return math.exp(-0.5 * t * t - _LOG_SQRT_2PI - log_ndtr(t))

    return -z + n * lam1 * mills(lam1 * z) + m * lam2 * mills(lam2 * z)


def mode(shape):
    """The kernel's maximizer; shape is (lam1, lam2, n, m)."""
    return brentq(_log_slope, -REACH, REACH, args=shape, xtol=1e-15, rtol=1e-15)


def log_mass(x, shape, upper=False):
    """log of the kernel's mass below x, or above x if upper."""
    a, b = (x, REACH) if upper else (-REACH, x)
    peak = min(max(mode(shape), a), b)
    top = log_kernel(peak, *shape)
    steps = _FIRST_STEP * 2.0 ** np.arange(30)
    points = [p for p in np.concatenate([peak - steps, peak + steps]) if a < p < b]
    value, _ = quad(
        lambda z: math.exp(log_kernel(z, *shape) - top),
        a,
        b,
        points=points,
        epsabs=0.0,
        epsrel=1e-13,
        limit=400,
    )
    return top + math.log(value)


def log_total(shape):
    """log of the kernel's whole mass."""
    return log_mass(REACH, shape)
