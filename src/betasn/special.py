"""Special functions backing the distribution family.

Thin wrappers around :mod:`scipy.special` that pin down the domain checks,
endpoint conventions, and accuracy guarantees the rest of the package
relies on.  Every function accepts floats or numpy arrays and broadcasts
like a ufunc.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

__all__ = [
    "norm_pdf",
    "norm_logpdf",
    "norm_cdf",
    "norm_logcdf",
    "norm_quantile",
    "owen_t",
    "log_beta",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "chisq1_cdf",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
# bisection alone takes a bracket of width 80 down to a few ulp in 57 steps
_NEWTON_MAX_STEPS = 100
_NEWTON_ULPS = 4.0 * np.finfo(float).eps


def norm_pdf(x):
    """Standard normal density phi(x)."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def norm_logpdf(x):
    """log phi(x), exact for arguments far beyond where phi underflows."""
    x = np.asarray(x, dtype=float)
    return -0.5 * x * x - _LOG_SQRT_2PI


def norm_cdf(x):
    """Standard normal distribution function Phi(x).

    Evaluated through the complementary error function, so absolute error
    stays near machine precision over the whole real line.
    """
    return _sp.ndtr(np.asarray(x, dtype=float))


def norm_logcdf(x):
    """log Phi(x) without underflow in the left tail."""
    return _sp.log_ndtr(np.asarray(x, dtype=float))


def norm_quantile(p):
    """Inverse of norm_cdf on the open interval (0, 1).

    Raises
    ------
    ValueError
        If any p lies outside the open interval; the endpoints 0 and 1
        map to infinities and are rejected explicitly.
    """
    p = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(p)) or np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("norm_quantile requires 0 < p < 1")
    return _sp.ndtri(p)


def owen_t(h, a):
    """Owen's T function T(h, a).

    T(h, a) = (1/2pi) * integral_0^a exp(-h^2 (1+x^2)/2) / (1+x^2) dx.
    Odd in a, even in h, and 2T(h, 1) = Phi(h) Phi(-h).
    """
    return _sp.owens_t(np.asarray(h, dtype=float), np.asarray(a, dtype=float))


def log_beta(a, b):
    """log B(a, b) for a, b > 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("log_beta requires a > 0 and b > 0")
    return _sp.betaln(a, b)


def reg_inc_beta(y, a, b):
    """Regularized incomplete beta function I_y(a, b).

    Exact 0 and 1 at the endpoints, strictly increasing in y on (0, 1).
    """
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("reg_inc_beta requires a > 0 and b > 0")
    if np.any(y < 0.0) or np.any(y > 1.0):
        raise ValueError("reg_inc_beta requires 0 <= y <= 1")
    return _sp.betainc(a, b, y)


def inv_reg_inc_beta(p, a, b):
    """Inverse of reg_inc_beta in its first argument.

    Satisfies reg_inc_beta(inv_reg_inc_beta(p, a, b), a, b) == p to within
    1e-10 for p in [1e-8, 1 - 1e-8] across a, b in [0.1, 10].
    """
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("inv_reg_inc_beta requires a > 0 and b > 0")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("inv_reg_inc_beta requires 0 <= p <= 1")
    y = _sp.betaincinv(a, b, p)
    # the backend stops near 3e-12 relative for extreme shape pairs; one
    # safeguarded Newton correction on the forward residual pins the result
    # to the conditioning floor instead
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dens = np.exp(
            _sp.xlogy(a - 1.0, y) + _sp.xlog1py(b - 1.0, -y) - _sp.betaln(a, b)
        )
        step = (_sp.betainc(a, b, y) - p) / dens
    step = np.where(np.isfinite(step), step, 0.0)
    return np.clip(y - step, 0.0, 1.0)


def _bracketed_newton(fun, x, lo, hi):
    """Roots of increasing functions g_i, one per element, with lo_i <= root_i <= hi_i.

    fun(x, idx) returns g and dg/dx at the points x of the elements idx,
    an index array into the 1-d inputs.  Each step is Newton's, or a
    bisection of the bracket when the Newton point is not finite or
    leaves it; the sign of g shrinks the bracket, and a point with g == 0
    keeps its x.  An element stops once its step or its bracket is a few
    ulp of max(|x|, 1), and only unconverged elements are evaluated
    again.  An element still unconverged after _NEWTON_MAX_STEPS steps
    raises ArithmeticError; no partial result is returned.
    """
    x = np.array(x, dtype=float)
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    idx = np.arange(x.size)
    for _ in range(_NEWTON_MAX_STEPS):
        if idx.size == 0:
            return x
        xi = x[idx]
        g, dg = fun(xi, idx)
        lo_i = np.where(g < 0.0, xi, lo[idx])
        hi_i = np.where(g > 0.0, xi, hi[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(g == 0.0, 0.0, g / dg)
        newton = xi - step
        tol = _NEWTON_ULPS * np.maximum(np.abs(xi), 1.0)
        tiny_step = np.abs(step) <= tol
        inside = (newton > lo_i) & (newton < hi_i)
        x_new = np.where(inside, newton, 0.5 * (lo_i + hi_i))
        # a converging Newton step can round onto the bracket end it
        # started from; that is convergence, not a step outside
        x_new = np.where(tiny_step, np.clip(newton, lo_i, hi_i), x_new)
        x[idx], lo[idx], hi[idx] = x_new, lo_i, hi_i
        idx = idx[~(tiny_step | (hi_i - lo_i <= tol))]
    if idx.size:
        raise ArithmeticError(
            f"bracketed Newton left {idx.size} points unconverged after {_NEWTON_MAX_STEPS} steps"
        )
    return x


def chisq1_cdf(x):
    """Distribution function of a chi-square with one degree of freedom.

    Equals 2 Phi(sqrt(x)) - 1 for x >= 0; this is the law of Z^2 for any
    skew-normal Z regardless of its shape parameter.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("chisq1_cdf requires x >= 0")
    return 2.0 * _sp.ndtr(np.sqrt(x)) - 1.0
