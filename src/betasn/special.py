"""Special functions backing the distribution family.

Thin wrappers around :mod:`scipy.special` that pin down the domain checks,
endpoint conventions, and accuracy guarantees the rest of the package
relies on.  Every function accepts floats or numpy arrays and broadcasts
like a ufunc.  The incomplete-beta inverse is solved here, on the same
bracketed root solver as the skew-normal, beta-generated and table
quantiles, and so are the quantile solves' shared pieces: the
cubic-Hermite start tables, and the guide-table segment lookup that
reads them, and the table families' edges, without a binary search.
"""

from __future__ import annotations

from typing import NamedTuple

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
_EPS = np.finfo(float).eps
_NEWTON_ULPS = 4.0 * _EPS
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


def _norm_quantile_log(log_p):
    """z with log Phi(z) = log_p, also below the log of the smallest double."""
    z = _sp.ndtri_exp(log_p)
    # one Newton step on log Phi where ndtri_exp drifts by up to 1e-13 of log p
    far = log_p < -700.0
    if far.any():
        zf = z[far]
        log_cdf = norm_logcdf(zf)
        with np.errstate(invalid="ignore"):
            step = (log_cdf - log_p[far]) * np.exp(log_cdf - norm_logpdf(zf))
        z[far] = np.where(np.isfinite(step), zf - step, zf)
    return z


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

    Solved for log w, or for log(1 - w) where the root lies above 1/2
    (see _log_inc_beta_root), so each side keeps its own tail to relative
    accuracy: w to about an ulp, down to subnormal w, which carries few
    bits.  p = 0 and p = 1 map to 0 and 1, as does any p whose w rounds
    to them, and NaN to NaN.  a and b broadcast against p.
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
        log_v, swap = _log_inc_beta_root(p[inside], *_take(inside, a, b))
        w[inside] = np.where(swap, -np.expm1(log_v), np.exp(log_v))
    return w.reshape(shape)[()]


def _take(idx, *values):
    """v[idx] for each array among values; floats pass through."""
    return tuple(v[idx] if np.ndim(v) else v for v in values)


_LOG_W_MIN = np.log(np.nextafter(0.0, 1.0))
_LOG_TINY = np.log(np.finfo(float).tiny)
# betainc keeps values to 4e-13 down to here (shapes up to 5000, against
# mpmath) and loses 1e-11 near e^-682; the continued fraction serves below
_CF_BELOW = np.exp(-600.0)
# 1 - I_v is 1 - betainc down to a floor, the ten times slower betaincc
# below (betainc can be off by 7 ulp of 1).  Where the root's own side is
# 1 - I_v(a, b) it must follow reg_inc_beta, which reads betainc, to 2^-16;
# where it stands for I_(1-v)(b, a) of a mirrored law, 1e-4 keeps it to
# 1e-11.  One floor misses the incomplete beta check's inverse round trip:
# 1e-4 by 1.4e-12 at (0.1, 10), 2^-16 by 1.2e-12 at (10, 0.1).
_COMPLEMENT_FLOOR = 2.0**-16
_MIRRORED_FLOOR = 1e-4


def _inc_beta_lower(log_v, a, b, log=False):
    """I_v(a, b), or its log, at v = e^log_v <= 1/2, relative however small v is.

    betainc serves while v is a normal double and the value is at least
    _CF_BELOW, _log_inc_beta_cf below.
    """
    v = np.exp(log_v)
    inc = _sp.betainc(a, b, v)
    deep = (log_v < _LOG_TINY) | ~(inc >= _CF_BELOW)
    if log:
        with np.errstate(divide="ignore"):
            inc = np.log(inc)
    if np.any(deep):
        log_i = _log_inc_beta_cf(log_v[deep], np.log1p(-v[deep]), *_take(deep, a, b))
        inc[deep] = log_i if log else np.exp(log_i)
    return inc


def _inc_beta_upper(log_v, a, b, floor, log=False):
    """1 - I_v(a, b), or its log, at v = e^log_v <= 1/2, from betaincc below floor.

    A log below log _CF_BELOW is that of I_(1-v)(b, a), by _log_inc_beta_cf.
    """
    inc = _inc_beta_lower(log_v, a, b)
    comp = 1.0 - inc
    exact = comp < floor
    if np.any(exact):
        comp[exact] = _sp.betaincc(*_take(exact, a, b), np.exp(log_v[exact]))
    if not log:
        return comp
    with np.errstate(divide="ignore"):
        out = np.where(exact, np.log(comp), np.log1p(-inc))
    deep = ~(comp >= _CF_BELOW)
    if np.any(deep):
        out[deep] = _log_inc_beta_cf(np.log1p(-np.exp(log_v[deep])), log_v[deep], *_take(deep, b, a))
    return out


def _log_inc_beta_cf(log_x, log_1mx, a, b):
    """log I_x(a, b) by the continued fraction of DLMF 8.17.22 (modified Lentz).

    Used where I_x < _CF_BELOW, so x lies far below the mean and it
    converges in a few terms.  (scipy's hyp2f1, for DLMF 8.17.8, is off by
    1e-9 at (0.05, 9002) and overflows at (3000, 7001) from x = 0.1.)
    """
    x = np.exp(log_x)
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h, c = d.copy(), np.ones_like(x)
    # where (a + b) x / (a + 1) is below an ulp, the fraction is 1
    live = np.flatnonzero(~(np.abs(d - 1.0) <= _EPS))
    a_all, b_all = (np.broadcast_to(s, x.shape) for s in (a, b))
    m = 1.0
    while live.size:
        xl, al, bl = x[live], a_all[live], b_all[live]
        for coef in (
            m * (bl - m) * xl / ((al + 2.0 * m - 1.0) * (al + 2.0 * m)),
            -(al + m) * (al + bl + m) * xl / ((al + 2.0 * m) * (al + 2.0 * m + 1.0)),
        ):
            d[live] = 1.0 / (1.0 + coef * d[live])
            c[live] = 1.0 + coef / c[live]
            step = d[live] * c[live]
            h[live] *= step
        live = live[np.abs(step - 1.0) > _EPS]
        m += 1.0
    # a log x overflows only where log I is below -1.8e308: the limit -inf
    with np.errstate(over="ignore"):
        return a * log_x + b * log_1mx - np.log(a) - _sp.betaln(a, b) + np.log(h)


def _log_inc_beta_root(p, a, b):
    """(log v, swap) with I_w(a, b) = p.

    p is a 1-d array in (0, 1), a and b floats or arrays like p.  v is
    the smaller of w and 1 - w; swap marks v = 1 - w.  A root above 1/2
    (p above I_1/2) solves the mirrored equation for 1 - p, so
    u = log v <= -log 2, where the solver's stop of 4 ulp of max(|u|, 1)
    is relative to v.  u solves log I_v = log p where that p is at most
    1/2, down to v = 0 (_inc_beta_lower), and log(1 - I_v) = log(1 - p)
    above.  It starts from the endpoint asymptote with the smaller second
    term, I_v ~ v^a / (a B) (1 + a (1 - b) v / (a + 1)) near 0 or its
    mirror near 1, in a bracket from I_v <= v^a max(1, 2^(1 - b)) / (a B).
    """
    swap = p > _sp.betainc(a, b, 0.5)
    # B(a, b) = B(b, a), bit for bit in betaln
    log_b = _sp.betaln(a, b)
    if swap.any():
        a, b = np.where(swap, b, a), np.where(swap, a, b)
    upper, log_tail, start, lo = _log_inc_beta_start(p, swap, a, b, log_b)
    sign = np.where(upper, -1.0, 1.0)
    floor = np.where(swap, _MIRRORED_FLOOR, _COMPLEMENT_FLOOR)

    def log_gap(u, idx):
        a_i, b_i, log_b_i = _take(idx, a, b, log_b)
        up, sign_i = upper[idx], sign[idx]
        log_i = np.empty_like(u)
        low = ~up
        log_i[low] = _inc_beta_lower(u[low], *_take(low, a_i, b_i), log=True)
        log_i[up] = _inc_beta_upper(u[up], *_take(up, a_i, b_i, floor[idx]), log=True)
        w = np.exp(u)
        # g' = w f(w) / I_v on the lower side and w f(w) / (1 - I_v) on the
        # upper, with f the beta density
        dg = np.exp(a_i * u + (b_i - 1.0) * np.log1p(-w) - log_b_i - log_i)
        g = sign_i * (log_i - log_tail[idx])
        return g, dg, dg * (a_i - (b_i - 1.0) * w / (1.0 - w) - sign_i * dg)

    return _bracketed_newton(log_gap, start, lo, np.full_like(p, -_LOG2)), swap


def _log_inc_beta_start(p, swap, a, b, log_b):
    """(upper, log tail, start, lo) of _log_inc_beta_root's solve, its swap and shapes applied.

    upper marks the points solved on the upper side, log tail is the
    log of the tail mass each matches, start the endpoint-asymptote
    start and lo the bracket's lower end.  The asymptotes' arrays are
    dropped on return, so they hold no memory through the solve.
    """
    log_p, log_q = np.log(p), np.log1p(-p)
    log_p, log_q = np.where(swap, log_q, log_p), np.where(swap, log_p, log_q)
    upper = log_q < log_p
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
    # an asymptote that puts v outside (0, 1) gives way to the other one,
    # and to the mean where both do
    start = np.where((valid_0 & near_0) | ~valid_1, from_0, from_1)
    start = np.where(valid_0 | valid_1, start, np.log(a / (a + b)))
    lo = np.minimum(from_0 - np.maximum(1.0 - b, 0.0) * _LOG2 / a, _LOG_W_MIN)
    return upper, log_tail, np.clip(start, lo, -_LOG2), lo


# a segment index holds at most this many buckets per node
_BUCKETS_PER_NODE = 16
# v = -sqrt(-2 log t) at t = 1/2, the largest v a quantile start reads
_V_HALF = -np.sqrt(2.0 * _LOG2)


class _SegmentIndex:
    """Sorted nodes x_0 <= ... <= x_(n-1), n >= 2, and a guide table (Chen & Asau 1974) onto them.

    find returns a key's segment,
    np.clip(np.searchsorted(x, key, side) - 1, 0, n - 2), with no binary
    search: side "left" passes the nodes below the key, "right" also
    those equal to it, and NaN passes every node.  The buckets split
    [x_0, x_(n-1)] evenly, as narrow as the narrowest segment and at
    most _BUCKETS_PER_NODE per node; a key past them, +inf or NaN takes
    one more bucket.  A key's bucket is floor((key - x_0) * scale),
    clipped: monotone in the key in floating point.  So a key passes
    every node whose bucket lies below its own, and each bucket holds,
    as a read-only int32, the count of those nodes less one (so n - 2
    past the last node).  That guess is never above the key's segment,
    and a walk steps it up onto it.  The arrays are read-only.
    """

    def __init__(self, nodes, side="left"):
        # x_(k+1) of each segment k, with NaN where the walk ends
        self.ahead = np.r_[nodes[1:-1], np.nan]
        self.ahead.setflags(write=False)
        self.passed = np.less if side == "left" else np.less_equal
        n = nodes.size
        span = nodes[-1] - nodes[0]
        gaps = np.diff(nodes)
        narrowest = gaps[gaps > 0.0].min(initial=span)
        # buckets 0 .. count - 2 span the nodes, count - 1 holds x_(n-1)
        self.count = min(int(np.ceil(span / narrowest)) + 1, _BUCKETS_PER_NODE * n - 1)
        self.origin, self.scale = nodes[0], (self.count - 1) / span
        below = np.searchsorted(self._bucket(nodes), np.arange(self.count + 1))
        self.guess = np.clip(below - 1, 0, n - 2).astype(np.int32)
        self.guess.setflags(write=False)

    def _bucket(self, keys):
        t = keys - self.origin
        t *= self.scale
        # fmin first, so NaN goes past the last node, with +inf
        np.fmin(t, self.count, out=t)
        np.maximum(t, 0.0, out=t)
        return t.astype(np.intp)

    def find(self, keys):
        """np.clip(np.searchsorted(nodes, keys, side) - 1, 0, n - 2) bit for bit, shaped like keys."""
        flat = keys.reshape(-1)
        k = self.guess.take(self._bucket(flat)).astype(np.intp)
        # step each guess up while the key passes its segment's upper node,
        # over the points still off
        off = np.flatnonzero(self.passed(self.ahead.take(k), flat))
        while off.size:
            k[off] += 1
            off = off[self.passed(self.ahead.take(k[off]), flat[off])]
        return k.reshape(keys.shape)


class _HermiteTable(NamedTuple):
    """Nodes v and z of a cubic-Hermite inverse, their _SegmentIndex, and the cubic.

    cubic holds one row per coefficient, one column per segment k:
    (1/h, m0, c2, c3).  lo and hi hold the bracket of each segment, the
    nodes z_(k-1) and z_(k+2) clipped to the ends; they and z are views
    of one array.
    """

    v: np.ndarray
    z: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    index: _SegmentIndex
    cubic: np.ndarray


def _hermite_table(z, log_t, log_dens):
    """_HermiteTable: a cubic-Hermite inverse from roots z of tail probabilities e^log_t.

    v = -sqrt(-2 log t) and the slope dz/dv = -v t / f, with f = e^log_dens
    the density at z.  A node whose slope is not finite, or whose v
    does not rise above every node before it, is dropped, and so is
    every node past the one after the first at or above v(1/2): the
    starts read at v <= v(1/2), and a segment's bracket one node beyond
    it.  Each segment k, of width h, keeps the cubic in
    t = (v - v_k) / h through its two nodes and their slopes,
    z_k + t (m0 + t (c2 + t c3)), and the bracket from the node below it
    to the node above it.  The arrays are read-only, so a cached table
    cannot be changed by its readers.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = -np.sqrt(-2.0 * log_t)
        slope = -v * np.exp(log_t - log_dens)
    v = np.where(np.isfinite(slope), v, -np.inf)
    keep = v > np.maximum.accumulate(np.r_[-np.inf, v[:-1]])
    v, z, slope = v[keep], z[keep], slope[keep]
    end = np.searchsorted(v, _V_HALF) + 2
    v, z, slope = v[:end], z[:end], slope[:end]
    k = np.arange(v.size - 1)
    h = v[k + 1] - v[k]
    rise = z[k + 1] - z[k]
    m0, m1 = h * slope[k], h * slope[k + 1]
    c2, c3 = 3.0 * rise - 2.0 * m0 - m1, m0 + m1 - 2.0 * rise
    cubic = np.stack([1.0 / h, m0, c2, c3])
    # z_(k-1), z_k and z_(k+2) of segment k are padded[k], [k + 1] and [k + 3]
    padded = np.r_[z[0], z, z[-1]]
    for nodes in (v, padded, cubic):
        nodes.setflags(write=False)
    index = _SegmentIndex(v)
    return _HermiteTable(v, padded[1:-1], padded[:-3], padded[3:], index, cubic)


def _hermite_start(table, log_p):
    """(start, lo, hi, v) for the roots of the probabilities e^log_p from a _hermite_table.

    The start is the interpolant at v = -sqrt(-2 log p): the cubic in
    t = (v - v_k) / (v_(k+1) - v_k) through the nodes of v's segment
    and their slopes.  The table's index finds the segment, as
    np.searchsorted would.  The bracket runs from the node below the
    root's segment to the node above it: one node wider on each side
    than the segment, so rounding at the nodes cannot leave the root
    outside.  A v outside the nodes takes the end segment, and the
    bracket ends at the end node; the caller handles such points.
    """
    v = -np.sqrt(-2.0 * log_p)
    k = table.index.find(v)
    inv_h, m0, c2, c3 = (row.take(k) for row in table.cubic)
    t = (v - table.v.take(k)) * inv_h
    z0 = table.z.take(k)
    return z0 + t * (m0 + t * (c2 + t * c3)), table.lo.take(k), table.hi.take(k), v


def _bracketed_newton(fun, x, lo, hi):
    """Roots of increasing functions g_i, one per element, with lo_i <= root_i <= hi_i.

    fun(x, idx) returns g, dg/dx and d2g/dx2 at the points x of the
    elements idx into the 1-d inputs: the full slice on the first pass,
    which takes every element, and then an index array of the
    unconverged ones.  fun runs with NumPy's divide, invalid and
    overflow warnings off.  Each step is
    Halley's: the Newton step divided by 1 - g g'' / (2 g'^2), kept to
    Newton where that factor is not finite or is below 1/2.  A step
    whose point is not finite or leaves the bracket, or whose factor is
    above 4, becomes a bisection of it; the sign of g shrinks the
    bracket, and a point with g == 0 keeps its x.

    An element stops, with its step applied and clipped into its
    bracket, once that step is a few ulp of max(|x|, 1), or once the
    next Newton step predicted from it, |g''/g'| step^2 / 2 (Traub
    1964), is that small, the step itself is below 1e-6 of max(|x|, 1)
    and its point lies inside the bracket or within those few ulp of an
    end, so a root on a bracket end stops as early as any other.
    Halley's next step is smaller still, so the prediction holds for
    it, and a start close enough ends on its first evaluation.  An
    element also stops once its bracket is a few ulp wide, and only
    unconverged elements are evaluated again.  An element still
    unconverged after _NEWTON_MAX_STEPS steps raises
    ArithmeticError; no partial result is returned.
    """
    x, lo, hi = (np.asarray(a, dtype=float) for a in (x, lo, hi))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the first pass reads and replaces the whole arrays
        x, lo, hi, live = _halley_pass(fun, x, lo, hi, slice(None))
        idx = np.flatnonzero(live)
        for _ in range(_NEWTON_MAX_STEPS - 1):
            if idx.size == 0:
                return x
            x[idx], lo[idx], hi[idx], live = _halley_pass(fun, x[idx], lo[idx], hi[idx], idx)
            idx = idx[live]
    if idx.size:
        raise ArithmeticError(
            f"bracketed Newton left {idx.size} points unconverged after {_NEWTON_MAX_STEPS} steps"
        )
    return x


def _halley_pass(fun, x, lo, hi, idx):
    """One step of _bracketed_newton at the points x of the elements idx.

    Returns the new points, the shrunk brackets and which elements go on.
    """
    g, dg, curv = fun(x, idx)
    lo = np.where(g < 0.0, x, lo)
    hi = np.where(g > 0.0, x, hi)
    step = np.where(g == 0.0, 0.0, g / dg)
    factor = 1.0 - 0.5 * step * curv / dg
    step = np.where(np.isfinite(factor) & (factor >= 0.5), step / factor, step)
    predicted = 0.5 * np.abs(curv / dg) * step * step
    newton = x - step
    scale = np.maximum(np.abs(x), 1.0)
    tol = _NEWTON_ULPS * scale
    size = np.abs(step)
    # far out on a flat g, Halley's factor cuts a step that leaves
    # the bracket to about 2 g' / g'', and such steps creep
    inside = (newton > lo) & (newton < hi) & ~(factor > 4.0)
    # a predicted stop whose point leaves the bracket by more than tol
    # is contradicted by it, one within tol of an end is a root on that end
    done = (size <= tol) | (
        (predicted <= tol)
        & (size <= _NEWTON_PREDICT_BELOW * scale)
        & (newton > lo - tol)
        & (newton < hi + tol)
    )
    x_new = np.where(inside, newton, 0.5 * (lo + hi))
    # a converging step can round onto the bracket end it started
    # from; that is convergence, not a step outside
    x_new = np.where(done, np.clip(newton, lo, hi), x_new)
    return x_new, lo, hi, ~(done | (hi - lo <= tol))


def chisq1_cdf(x):
    """Distribution function of a chi-square with one degree of freedom.

    Equals 2 Phi(sqrt(x)) - 1 for x >= 0; this is the law of Z^2 for any
    skew-normal Z regardless of its shape parameter.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("chisq1_cdf requires x >= 0")
    return 2.0 * _sp.ndtr(np.sqrt(x)) - 1.0
