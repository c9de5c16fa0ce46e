"""Balakrishnan skew-normal families: one power-of-Phi kernel.

Every family here has the density

    phi(z) Phi(lam1 z)^n Phi(lam2 z)^m / c,   z = (x - mu) / sigma,

with integer orders n, m >= 0 and c the kernel's integral over the line:

TBSN_{n,m}(lam1, lam2):  the kernel as written;
SNB_n(lam):              TBSN_{n,0}(lam, 0), i.e. c_n(lam) phi(x) Phi(lam x)^n;
GBSN_{n,m}(lam):         TBSN_{n,m}(lam, -lam), i.e. phi(x) Phi(lam x)^n
                         (1 - Phi(lam x))^m / C_{n,m}(lam), standardized.

PowerOfPhi supplies the two hooks of core.LocationScale's surface, the
standardized tail read and the one-sided quantile; the three classes
only name their parameters and map them onto (lam1, lam2, n, m).  A
factor of order 0 is skipped wherever the kernel is evaluated, so SNB
pays one log Phi per point and the three parameterizations give
bit-identical values.

Normalizing integrals are computed by adaptive quadrature and memoized
per kernel.  Distribution functions have no closed form; they are served
from one piecewise-polynomial cumulative table per kernel over the
truncation window (see _NumericCdf), built from kernel values at the
Gauss-Kronrod nodes of its segments.  A cdf or sf read is one lookup in
the edges' guide table (special._SegmentIndex) and one 16-term Legendre
sum per point, added to the running segment sums from the left or from
the right, so each keeps relative accuracy in its own tail; logcdf and
logsf take the log before dividing by the total, except below 1e-30 of
it, where the table misses the kernel's mass beyond the window or
underflows, and one Gauss-Laguerre rule on the log-concave kernel
(_log_tail) gives the log tail mass instead, and above half of it,
where they take log1p of minus the other side.  The skew-normal
density is twice the n = 1 kernel, so the same rule is the
skew-normal's t-space tail repair.  A quantile is the skew-normal and
beta-generated solve: a start and bracket from the table's
cubic-Hermite inverse over the segment edges on its side, then
bracketed Halley steps on its side's own log read, the table's or the
rule's, with the upper side solved in -z.  So logcdf and quantile are
inverses of each other to roundoff, the quantile keeps relative
accuracy in q, or in 1 - q, down to the far tails, and no read above
1e-30 of the total evaluates the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np
from numpy.polynomial import legendre

from .core import LocationScale, _require
from .quadrature import _NODES, _WEIGHTS_K, DEFAULT_SPEC, _log_tail_mass, integrate_line
from .special import (
    _LOG2,
    _bracketed_newton,
    _hermite_start,
    _hermite_table,
    _norm_quantile_log,
    _SegmentIndex,
    norm_logcdf,
    norm_logpdf,
)

__all__ = [
    "SNB",
    "GBSN",
    "TBSN",
    "snb_constant",
    "gbsn_constant",
    "gbsn_constant_series",
    "tbsn_constant",
]


def _log_kernel(z, lam1, lam2, n, m, log_const=None):
    """log_const + log phi(z) + n log Phi(lam1 z) + m log Phi(lam2 z).

    Summed left to right; a factor whose order is 0 is skipped, since it
    would cost one log Phi per point and add nothing.
    """
    out = norm_logpdf(z) if log_const is None else log_const + norm_logpdf(z)
    if n:
        out = out + n * norm_logcdf(lam1 * z)
    if m:
        out = out + m * norm_logcdf(lam2 * z)
    return out


def _log_tail(z, lam1, lam2, n, m, log_const=None):
    """(log of the kernel's mass below z, log k(z), d log k / dz), each plus log_const
    where it is a log, by the Gauss-Laguerre tail rule.

    One 20-point rule in log space (quadrature._log_tail_mass), at 22
    norm_logcdf evaluations per point and factor of nonzero order.  The
    kernel is log-concave, with d log k / dz = -z + sum n lam H(lam z)
    and -d2 log k / dz2 = 1 + sum n lam^2 H (lam z + H) over its factors,
    H the normal hazard.  The mass above z is this at -z with both
    shapes negated.
    """
    slope, curv = -z, np.ones_like(z)
    for order, lam in ((n, lam1), (m, lam2)):
        if order:
            hazard = np.exp(norm_logpdf(lam * z) - norm_logcdf(lam * z))
            slope = slope + order * lam * hazard
            curv = curv + order * lam * lam * np.maximum(hazard * (lam * z + hazard), 0.0)
    log_kernel = lambda t: _log_kernel(t, lam1, lam2, n, m, log_const)
    log_k = log_kernel(z)
    return _log_tail_mass(log_kernel, z, log_k, slope, curv), log_k, slope


def _kernel_key(lam1, lam2, n, m, spec=None):
    """Validated cache key (lam1, lam2, n, m, spec) of a kernel.

    The shape of an order-0 factor is set to 0, so kernels that differ
    only there share their integral and their table.
    """
    _require("order", n=n, m=m)
    n, m = int(n), int(m)
    spec = DEFAULT_SPEC if spec is None else spec
    return (float(lam1) if n else 0.0, float(lam2) if m else 0.0, n, m, spec)


@lru_cache(maxsize=512)
def _kernel_integral(lam1, lam2, n, m, spec):
    """Integral of phi(z) Phi(lam1 z)^n Phi(lam2 z)^m over the line (1/c)."""
    return integrate_line(lambda z: np.exp(_log_kernel(z, lam1, lam2, n, m)), spec)


def snb_constant(n, lam, spec=None):
    """Multiplicative normalizing constant c_n(lam) = 1 / E[Phi(lam U)^n].

    c_0 = 1, c_1 = 2, and c_2(lam) = pi / arctan sqrt(1 + 2 lam^2); the
    quadrature value matches those closed forms to ~1e-12.
    """
    return 1.0 / _kernel_integral(*_kernel_key(lam, 0.0, n, 0, spec))


def gbsn_constant(n, m, lam, spec=None):
    """Multiplicative normalizing constant of the GBSN_{n,m}(lam) density.

    For lam = 1 and integer orders this reproduces the order-statistic
    coefficient: gbsn_constant(j-1, n-j, 1) = n! / ((j-1)! (n-j)!).
    """
    return 1.0 / _kernel_integral(*_kernel_key(lam, -lam, n, m, spec))


def gbsn_constant_series(n, m, lam, spec=None):
    """Same constant through the binomial expansion of (1 - Phi)^m.

    Expands the kernel integral as sum_i C(m,i) (-1)^i E[Phi(lam U)^(n+i)]
    and inverts.  Kept as an independent cross-check of gbsn_constant;
    the alternating sum loses digits for large m, so quadrature stays
    the primary route.
    """
    _require("order", n=n, m=m)
    total = sum(
        comb(m, i) * (-1.0) ** i * _kernel_integral(*_kernel_key(lam, 0.0, n + i, 0, spec))
        for i in range(m + 1)
    )
    return 1.0 / total


def tbsn_constant(n, m, lam1, lam2, spec=None):
    """Kernel expectation c_{n,m}(lam1, lam2) = E[Phi(lam1 U)^n Phi(lam2 U)^m].

    The TBSN density divides by this value, i.e. its multiplicative
    constant is the reciprocal of what is returned here.
    """
    return _kernel_integral(*_kernel_key(lam1, lam2, n, m, spec))


# The truncation window starts as _SEGMENTS even segments.  A segment
# whose kernel interpolant has |c13| + |c14| above _SPLIT_RTOL times its
# smallest node value is bisected, into at most 2**_MAX_SPLITS pieces of
# one starting segment; one with a node value below _LINEAR_BELOW holds
# its mass linear instead.
_SEGMENTS = 1600
_SPLIT_RTOL = 1e-12
_MAX_SPLITS = 6
_LINEAR_BELOW = 1e-280
# Legendre coefficients, on [-1, 1], of the degree-14 interpolant
# through the 15 Kronrod nodes (rows: coefficient, columns: node), and
# of its antiderivative from -1 (16 rows)
_TO_LEGENDRE = np.linalg.inv(legendre.legvander(_NODES, 14))
_ANTIDERIVATIVE = legendre.legint(_TO_LEGENDRE, lbnd=-1)


def _legendre_sum(coef, i, u, derivs=False):
    """sum_k coef[k, i] P_k(u) per point by Clenshaw's recurrence, and its d/du and d2/du2 if derivs.

    Takes one coefficient row per term at the points' segments i, so no
    (terms, points) block is gathered.
    """
    b1, b2 = coef[-1].take(i), np.zeros_like(u)
    d1, d2 = np.zeros_like(u), np.zeros_like(u)
    e1, e2 = np.zeros_like(u), np.zeros_like(u)
    for k in range(len(coef) - 2, -1, -1):
        # b_k = c_k + alpha u b_{k+1} - beta b_{k+2}, from
        # P_{k+1} = (2k+1)/(k+1) u P_k - k/(k+1) P_{k-1}; in place, since
        # the arrays are as long as the points
        alpha, beta = (2 * k + 1) / (k + 1), (k + 1) / (k + 2)
        if derivs:
            # d2/du2 and d/du of that recurrence
            e1, e2 = alpha * (u * e1 + 2.0 * d1) - beta * e2, e1
            d1, d2 = alpha * (u * d1 + b1) - beta * d2, d1
        b = u * b1
        b *= alpha
        b2 *= beta
        b -= b2
        b += coef[k].take(i)
        b1, b2 = b, b1
    return (b1, d1, e1) if derivs else b1


# logcdf and logsf take a tail mass below this fraction of the total from
# the Gauss-Laguerre rule (_log_tail), not from the table: that covers
# masses that read 0 (underflowed, or beyond the window), the masses near
# the window ends, which miss the kernel's mass outside it, and those of
# the linearly held segments.  The rule keeps a few ulp of the log
# against quad from 1e-8 down; the table is that good only above ~1e-45.
_LOG_TAIL_BELOW = 1e-30


class _NumericCdf:
    """Piecewise-polynomial cumulative table of a standardized positive kernel.

    The kernel need not be normalized; the table divides by its own
    total mass.  The build evaluates the kernel once, at the 15 Kronrod
    nodes of every segment of the truncation window, and keeps per
    segment its Gauss-Kronrod mass and the antiderivative, from the
    segment's left end, of the kernel's degree-14 interpolant through
    those nodes: 16 Legendre coefficients.  GK15 is interpolatory, so
    that antiderivative ends at the segment mass.  Segments where the
    interpolant's top coefficients are not negligible against the kernel
    are bisected, and segments reaching down to underflow hold their
    mass linear, which keeps every read monotone.  The segment masses
    are summed from both ends, so the mass below and the mass above
    every edge keep relative accuracy in their own tail.  Reads
    evaluate no kernel, and find a point's segment in the edges' guide
    table (special._SegmentIndex).
    """

    def __init__(self, kernel, spec):
        self.t = spec.truncation
        edges = np.linspace(-self.t, self.t, _SEGMENTS + 1)
        lo, hi = edges[:-1], edges[1:]
        parts = []
        self.nodes = 0
        for depth in range(_MAX_SPLITS + 1):
            center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            y = kernel(center + half * _NODES[:, None])
            self.nodes += y.size
            smallest = y.min(axis=0)
            linear = smallest < _LINEAR_BELOW
            tail = np.abs(_TO_LEGENDRE[13:] @ y).sum(axis=0)
            done = linear | (tail <= _SPLIT_RTOL * smallest) | (depth == _MAX_SPLITS)
            seg = half * (_WEIGHTS_K @ y)
            anti = half * (_ANTIDERIVATIVE @ y)
            anti[:, linear] = 0.0
            anti[:2, linear] = 0.5 * seg[linear]
            parts.append((lo[done], seg[done], anti[:, done]))
            split = ~done
            lo, hi = (np.concatenate([a[split], b[split]]) for a, b in ((lo, center), (center, hi)))
        left, seg, anti = (np.concatenate(a, axis=-1) for a in zip(*parts))
        order = np.argsort(left)
        self.edges = np.append(left[order], self.t)
        self.seg = seg[order]
        self.anti = anti[:, order]
        self.cum = np.concatenate([[0.0], np.cumsum(self.seg)])
        self.cum_right = np.concatenate([np.cumsum(self.seg[::-1])[::-1], [0.0]])
        self.total = float(self.cum[-1])
        self._edge_index = _SegmentIndex(self.edges, "right")

    def _partial(self, z, derivs=False):
        """(i, partial) with i each z's segment and partial the kernel mass on it below z.

        One guide-table find and one Legendre sum per point.  With
        derivs, also the kernel's interpolant k at z and its d/dz.
        """
        z = np.clip(z, -self.t, self.t)
        i = self._edge_index.find(z)
        lo, hi = self.edges[i], self.edges[i + 1]
        dudz = 2.0 / (hi - lo)
        u = np.clip((z - 0.5 * (lo + hi)) * dudz, -1.0, 1.0)
        seg = self.seg[i]
        partial = _legendre_sum(self.anti, i, u, derivs)
        if derivs:
            partial, dpartial, d2partial = partial
        # at a segment's ends, and so beyond the window, the reads are exact
        partial = np.where(u == -1.0, 0.0, np.where(u == 1.0, seg, partial))
        partial = np.clip(partial, 0.0, seg)
        return (i, partial, dpartial * dudz, d2partial * dudz * dudz) if derivs else (i, partial)

    def _held(self, i, partial, upper):
        """The mass below, or above if upper, of points on segments i with partial below them."""
        return self.cum_right[i + 1] + (self.seg[i] - partial) if upper else self.cum[i] + partial

    def masses(self, z, upper, derivs=False):
        """Kernel mass below each z of an array, or above it if upper.

        With derivs, also the kernel's interpolant k at z, which is the
        mass below z's d/dz, and its d/dz: (mass, k, dk/dz).
        """
        i, partial, *dens = self._partial(z, derivs)
        held = self._held(i, partial, upper)
        return (held, *dens) if derivs else held

    def both_masses(self, z):
        """(mass below, mass above) each z, from one segment read: the bits of masses on each side."""
        i, partial = self._partial(z)
        return self._held(i, partial, False), self._held(i, partial, True)

    @cached_property
    def _starts(self):
        """special._hermite_table of each side, (lower, upper), over the edges.

        The lower side maps the mass below each edge, as a fraction of
        the total, to the edge z, the upper side the mass above it to
        -z.  An edge whose mass is at most _LOG_TAIL_BELOW of the total
        is dropped: logcdf and logsf read such masses from the tail
        rule, which counts the mass beyond the window that the running
        sums miss.  The density at each edge is the kernel's
        interpolant on the segment to its right, and on the last
        segment at the last edge, so the tables evaluate no kernel.
        """
        last = len(self.seg) - 1
        i = np.append(np.arange(last + 1), last)
        u = np.append(np.full(last + 1, -1.0), 1.0)
        floor = _LOG_TAIL_BELOW * self.total
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = _legendre_sum(self.anti, i, u, derivs=True)[1] * (2.0 / np.diff(self.edges)[i])
            log_dens = np.log(dens) - np.log(self.total)
            log_below, log_above = (
                np.log(np.where(cum > floor, cum, 0.0) / self.total) for cum in (self.cum, self.cum_right)
            )
        return (
            _hermite_table(self.edges, log_below, log_dens),
            _hermite_table(-self.edges[::-1], log_above[::-1], log_dens[::-1]),
        )


@lru_cache(maxsize=64)
def _kernel_table(lam1, lam2, n, m, spec):
    return _NumericCdf(lambda z: np.exp(_log_kernel(z, lam1, lam2, n, m)), spec)


class PowerOfPhi(LocationScale):
    """Density phi(z) Phi(lam1 z)^n Phi(lam2 z)^m / c with z = (x - mu) / sigma.

    Subclasses are frozen dataclasses that declare their own fields,
    among them `spec`, and map them onto the kernel in `_shapes`.
    """

    def __post_init__(self):
        super().__post_init__()
        fields = vars(self)
        _require("order", **{k: fields[k] for k in ("n", "m") if k in fields})
        _require("finite", **{k: fields[k] for k in ("lam", "lam1", "lam2") if k in fields})

    @property
    def _shapes(self):
        """(lam1, lam2, n, m) of this parameterization."""
        raise NotImplementedError

    @cached_property
    def _key(self):
        return _kernel_key(*self._shapes, self.spec)

    @property
    def kernel_integral(self):
        return _kernel_integral(*self._key)

    @property
    def norm_const(self):
        return 1.0 / self.kernel_integral

    def _std_logpdf(self, z):
        lam1, lam2, n, m, _ = self._key
        return _log_kernel(z, lam1, lam2, n, m, np.log(self.norm_const)) - np.log(self.scale)

    def _std_tail(self, z, upper, log):
        table = _kernel_table(*self._key)
        if not log:
            return np.minimum(table.masses(z, upper) / table.total, 1.0)
        log_total = np.log(table.total)
        # one segment read gives both sides' table masses
        below, above = table.both_masses(z)
        held, other = (above, below) if upper else (below, above)
        out = self._log_held(table, z, upper, held=held)[0] - log_total
        # above half the total, the other side's log keeps the digits
        near = out > -_LOG2
        if np.any(near):
            log_other = self._log_held(table, z[near], not upper, held=other[near])[0]
            out[near] = np.log1p(-np.exp(log_other - log_total))
        return np.minimum(out, 0.0)

    def _log_held(self, table, z, upper, derivs=False, held=None):
        """(log m, g', g'') with m the kernel's mass below each z, or above it if upper.

        m is the table's read, or held where the caller has read it
        already, and the Gauss-Laguerre rule's (_log_tail) where that is
        at most _LOG_TAIL_BELOW of the total.  With derivs, g' and g''
        are log m's first two derivatives in y = z, or y = -z if upper:
        the table's from its interpolant k and k', with dm/dy = k, and
        the rule's from the kernel and its log slope; else they are None.
        """
        sign = -1.0 if upper else 1.0
        if derivs:
            held, dens, d_dens = table.masses(z, upper, derivs=True)
            dg = dens / held
            d2g = sign * d_dens / held - dg * dg
        else:
            held = table.masses(z, upper) if held is None else held
            dg = d2g = None
        with np.errstate(divide="ignore"):
            log_held = np.log(held)
        far = held <= _LOG_TAIL_BELOW * table.total
        if np.any(far):
            lam1, lam2, n, m, _ = self._key
            with np.errstate(all="ignore"):
                rule, log_k, slope = _log_tail(sign * z[far], sign * lam1, sign * lam2, n, m)
            # at infinite z, and past |z| ~ 1e9, where rounding of log k
            # swamps the rule's differences, the table's log stays
            log_held[far] = np.where(np.isfinite(rule), rule, log_held[far])
            if derivs:
                dg[far] = np.exp(log_k - rule)
                d2g[far] = dg[far] * (slope - dg[far])
        return log_held, dg, d2g

    def _std_quantile(self, t, upper):
        """z with mass t below it, or above it if upper: the root of logcdf, or logsf.

        Solved in y = z, or y = -z if upper, by bracketed Halley steps on
        g = log(m / total) - log t, m the mass _log_held reads, so the
        log mass is the log read's own.  Start and bracket come from
        special._hermite_start on the side's _starts table.  A t below
        its first node takes the bracket from Phi^-1(t total) to that
        node: the kernel is at most phi, so m is at most Phi(y) there.
        """
        table = _kernel_table(*self._key)
        starts = table._starts[upper]
        log_t, log_total = np.log(t), np.log(table.total)
        y, lo, hi, v = _hermite_start(starts, log_t)
        far = v < starts.v[0]
        if far.any():
            lo[far], hi[far] = _norm_quantile_log(log_t[far] + log_total), starts.z[0]
        sign = -1.0 if upper else 1.0

        def log_gap(y, idx):
            log_held, dg, d2g = self._log_held(table, sign * y, upper, derivs=True)
            return log_held - log_total - log_t[idx], dg, d2g

        return sign * _bracketed_newton(log_gap, np.clip(y, lo, hi), lo, hi)


@dataclass(frozen=True)
class SNB(PowerOfPhi):
    """Balakrishnan skew-normal of integer order n with shape lam."""

    lam: float
    n: int
    mu: float = 0.0
    sigma: float = 1.0
    spec: object = None

    @property
    def _shapes(self):
        return (self.lam, 0.0, self.n, 0)


@dataclass(frozen=True)
class GBSN(PowerOfPhi):
    """Generalized Balakrishnan skew-normal with integer orders n, m."""

    lam: float
    n: int
    m: int
    spec: object = None

    # standardized: no location or scale fields
    location = 0.0
    scale = 1.0

    @property
    def _shapes(self):
        return (self.lam, -self.lam, self.n, self.m)


@dataclass(frozen=True)
class TBSN(PowerOfPhi):
    """Two-shape Balakrishnan skew-normal TBSN_{n,m}(lam1, lam2)."""

    lam1: float
    lam2: float
    n: int
    m: int
    mu: float = 0.0
    sigma: float = 1.0
    spec: object = None

    @property
    def _shapes(self):
        return (self.lam1, self.lam2, self.n, self.m)
