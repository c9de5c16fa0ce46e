"""Special functions backing the distribution family.

Thin wrappers around :mod:`scipy.special` that pin down the domain checks,
endpoint conventions, and accuracy guarantees the rest of the package
relies on.  Every function accepts floats or numpy arrays and broadcasts
like a ufunc.  The incomplete-beta inverse is solved here, on the same
bracketed root solver as the skew-normal and table quantiles.
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
_LOG2 = np.log(2.0)
# bisection alone takes a bracket of width 80 down to a few ulp in 57
# steps, and the incomplete-beta inverse's 744 wide bracket in log w in
# about 60
_NEWTON_MAX_STEPS = 100
_NEWTON_ULPS = 4.0 * np.finfo(float).eps
# a step this small, relative to max(|x|, 1), may end a solve on the
# predicted size of the next one; above it a vanishing g'' could end a
# step that is still far from the root
_NEWTON_PREDICT_BELOW = 1e-6


def norm_pdf(x):
    """Standard normal density phi(x)."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def norm_logpdf(x):
    """log phi(x), exact for arguments far beyond where phi underflows."""
    x = np.asarray(x, dtype=float)
    # past |x| ~ 1.3e154, x * x overflows to inf, and -inf is the answer
    with np.errstate(over="ignore"):
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

    Solves log I_w(a, b) = log p for u = log w by bracketed Halley steps
    on [log 5e-324, 0]; above p = 1/2 it solves the complement
    1 - I_w(a, b) = 1 - p instead, so each side keeps its own tail
    probability to relative accuracy.  The result is p's w to within
    about an ulp of w: below 1/2 the round trip is relative to p down to
    subnormal w, which carries few significant bits, and near w = 1 it
    is the forward slope times the spacing of w.  p = 0 and p = 1 map to
    0 and 1, as does any p whose w rounds to them, and NaN to NaN.  a and
    b broadcast against p.
    """
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("inv_reg_inc_beta requires a > 0 and b > 0")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("inv_reg_inc_beta requires 0 <= p <= 1")
    shape = np.broadcast_shapes(p.shape, a.shape, b.shape)
    # scalar shapes stay scalars: the solver then indexes p alone
    if a.ndim or b.ndim:
        p, a, b = (v.ravel() for v in np.broadcast_arrays(p, a, b))
    else:
        p, a, b = p.ravel(), float(a), float(b)
    # NaN in, NaN out
    w = np.where((p == 0.0) | (p == 1.0), p, np.nan)
    inside = (p > 0.0) & (p < 1.0) & np.isfinite(a) & np.isfinite(b)
    if np.any(inside):
        w[inside] = np.exp(_log_inc_beta_root(p[inside], *_take(inside, a, b)))
    return w.reshape(shape)[()]


def _take(idx, *values):
    """v[idx] for each array among values; floats pass through."""
    return tuple(v[idx] if np.ndim(v) else v for v in values)


_LOG_W_MIN = np.log(np.nextafter(0.0, 1.0))
# down to this, 1 - I_w below w = 1/2 is 1 - betainc(a, b, w), the same
# bits as 1 - reg_inc_beta; each ulp of 1 that betainc is off by is then
# at most 1.5e-11 of it.  Below, the slower betaincc keeps it relative.
_COMPLEMENT_FLOOR = 2.0**-16


def _log_inc_beta_root(p, a, b):
    """u = log w with I_w(a, b) = p, for a 1-d array p in (0, 1).

    a and b are floats or arrays shaped like p.  The start is the root of
    whichever endpoint asymptote has the smaller second series term
    there: I_w ~ w^a / (a B) (1 + a (1 - b) w / (a + 1)) near 0, and
    1 - I_w the same with a, b and w, 1 - w swapped near 1.  The two are
    exact for b = 1 and a = 1 respectively.  Where p <= 1/2 the unknown
    solves log I_w(a, b) = log p; above, it solves log(1 - I_w) =
    log(1 - p), with 1 - I_w = I_(1-w)(b, a) from 1 - w = -expm1(u) at
    w >= 1/2, and from w below.  Both sides share one solve.
    """
    log_b = _sp.betaln(a, b)
    upper = p > 0.5
    log_p, log_q = np.log(p), np.log1p(-p)
    log_tail = np.where(upper, log_q, log_p)
    from_0 = (log_p + np.log(a) + log_b) / a
    log_1mw = (log_q + np.log(b) + log_b) / b
    valid_0, valid_1 = from_0 < 0.0, log_1mw < 0.0
    with np.errstate(divide="ignore"):
        from_1 = np.log(-np.expm1(np.minimum(log_1mw, 0.0)))
        # log of each series' second term, relative, at its own start
        near_0 = np.log(np.abs(a * (b - 1.0) / (a + 1.0))) + from_0 <= (
            np.log(np.abs(b * (a - 1.0) / (b + 1.0))) + log_1mw
        )
    # an asymptote that puts w outside (0, 1) gives way to the other one,
    # and to the mean where both do
    start = np.where((valid_0 & near_0) | ~valid_1, from_0, from_1)
    start = np.where(valid_0 | valid_1, start, np.log(a / (a + b)))
    start = np.clip(start, _LOG_W_MIN, -np.finfo(float).eps)
    sign = np.where(upper, -1.0, 1.0)

    def log_gap(u, idx):
        a_i, b_i, log_b_i = _take(idx, a, b, log_b)
        up, sign_i = upper[idx], sign[idx]
        w, y = np.exp(u), -np.expm1(u)
        # the lower side, and the upper side below w = 1/2, take their
        # value from w; the rest of the upper side takes it from 1 - w
        from_w = ~up | (w < 0.5)
        a_w, b_w = _take(from_w, a_i, b_i)
        a_y, b_y = _take(~from_w, a_i, b_i)
        tail = np.empty_like(u)
        tail[~from_w] = _sp.betainc(b_y, a_y, y[~from_w])
        inc = _sp.betainc(a_w, b_w, w[from_w])
        comp = up[from_w]
        inc[comp] = 1.0 - inc[comp]
        deep = comp & (inc < _COMPLEMENT_FLOOR)
        if np.any(deep):
            inc[deep] = _sp.betaincc(*_take(deep, a_w, b_w), w[from_w][deep])
        tail[from_w] = inc
        # a value taken from w belongs to log w, not to u: `moved` carries
        # it back to u along the slope, which keeps g smooth below the
        # spacing of w, far coarser than that of u near w = 1
        moved = np.where(from_w, u - np.log(w), 0.0)
        with np.errstate(divide="ignore"):
            log_i = np.log(tail)
        # g' = w f(w) / I_w on the lower side and w f(w) / (1 - I_w) on the
        # upper, with f the beta density
        dg = np.exp(a_i * u + _sp.xlogy(b_i - 1.0, y) - log_b_i - log_i)
        g = sign_i * (log_i - log_tail[idx]) + dg * moved
        return g, dg, dg * (a_i - (b_i - 1.0) * w / y - sign_i * dg)

    u = _bracketed_newton(log_gap, start, np.full_like(p, _LOG_W_MIN), np.zeros_like(p))
    # a root below half the smallest double rounds to w = 0
    rounds_to_0 = log_p < a * (_LOG_W_MIN - _LOG2) - np.log(a) - log_b
    return np.where(rounds_to_0, -np.inf, u)


def _bracketed_newton(fun, x, lo, hi):
    """Roots of increasing functions g_i, one per element, with lo_i <= root_i <= hi_i.

    fun(x, idx) returns g and dg/dx at the points x of the elements idx,
    an index array into the 1-d inputs, and optionally d2g/dx2 as a third
    value.  Each step is Newton's, or Halley's where fun gives the
    curvature: the Newton step divided by 1 - g g'' / (2 g'^2), kept to
    Newton where that factor is not finite or is below 1/2.  A step
    whose point is not finite or leaves the bracket becomes a bisection
    of it; the sign of g shrinks the bracket, and a point with g == 0
    keeps its x.

    An element stops, with its step applied and clipped into its
    bracket, once that step is a few ulp of max(|x|, 1), or once the
    next Newton step predicted from it, |g''/g'| step^2 / 2 (Traub
    1964), is that small, the step itself is below 1e-6 of max(|x|, 1)
    and its point lies inside the bracket or within those few ulp of an
    end, so a root on a bracket end stops as early as any other.
    Halley's next step is smaller still, so the prediction holds for
    both.  Where fun gives no g'', it is the secant of the element's
    last two slopes, so the prediction cannot end a first evaluation.
    An element also stops once its bracket is a few ulp wide, and only
    unconverged elements are evaluated again.  An element still
    unconverged after _NEWTON_MAX_STEPS steps raises
    ArithmeticError; no partial result is returned.
    """
    x = np.array(x, dtype=float)
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    # the previous point and slope of each element, for the secant g''
    x_prev = np.full_like(x, np.nan)
    dg_prev = np.full_like(x, np.nan)
    idx = np.arange(x.size)
    for _ in range(_NEWTON_MAX_STEPS):
        if idx.size == 0:
            return x
        xi = x[idx]
        g, dg, *d2g = fun(xi, idx)
        lo_i = np.where(g < 0.0, xi, lo[idx])
        hi_i = np.where(g > 0.0, xi, hi[idx])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.where(g == 0.0, 0.0, g / dg)
            if d2g:
                curv = d2g[0]
                factor = 1.0 - 0.5 * step * curv / dg
                step = np.where(np.isfinite(factor) & (factor >= 0.5), step / factor, step)
            else:
                curv = (dg - dg_prev[idx]) / (xi - x_prev[idx])
                x_prev[idx], dg_prev[idx] = xi, dg
            predicted = 0.5 * np.abs(curv / dg) * step * step
        newton = xi - step
        scale = np.maximum(np.abs(xi), 1.0)
        tol = _NEWTON_ULPS * scale
        inside = (newton > lo_i) & (newton < hi_i)
        # NaN predictions (no secant yet) compare False; a predicted stop
        # whose point leaves the bracket by more than tol is contradicted
        # by it, one within tol of an end is a root on that end
        done = (np.abs(step) <= tol) | (
            (predicted <= tol)
            & (np.abs(step) <= _NEWTON_PREDICT_BELOW * scale)
            & (newton > lo_i - tol)
            & (newton < hi_i + tol)
        )
        x_new = np.where(inside, newton, 0.5 * (lo_i + hi_i))
        # a converging step can round onto the bracket end it started
        # from; that is convergence, not a step outside
        x_new = np.where(done, np.clip(newton, lo_i, hi_i), x_new)
        x[idx], lo[idx], hi[idx] = x_new, lo_i, hi_i
        idx = idx[~(done | (hi_i - lo_i <= tol))]
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
