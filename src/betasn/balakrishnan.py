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
(_log_tail) gives the log tail mass instead.  The
skew-normal density is twice the n = 1 kernel, so the same rule is the
skew-normal's t-space tail repair.  A quantile starts from the table's
cubic-Hermite inverse over the segment edges on its side, like the
skew-normal and beta-generated solves, finds the segment holding its
root by a walk on the running sums, taken from the left for q <= 1/2
and from the right above, from the edge segment of that start, and
solves the log of that same read by bracketed Halley steps inside the
segment.  So cdf and quantile are inverses of each other to roundoff,
the quantile keeps relative accuracy in q, or in 1 - q, down to the far
tails, and no read evaluates the kernel.
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
    _bracketed_newton,
    _hermite_start,
    _hermite_table,
    _SegmentIndex,
    _SortedNodes,
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
    """log of the kernel's mass below z, times e^log_const, by the Gauss-Laguerre tail rule.

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
    return _log_tail_mass(log_kernel, z, log_kernel(z), slope, curv)


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


def _held(base, seg, partial, upper):
    """Mass below a point, or above it if upper, of a segment whose antiderivative
    reads `partial` there, from the running sum `base` on that side of it."""
    partial = np.clip(partial, 0.0, seg)
    return base + (seg - partial) if upper else base + partial


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
    every edge keep relative accuracy in their own tail.  Reads (cdf,
    sf, their logs and the quantile) evaluate no kernel, and find a
    point's segment in the edges' guide table (special._SegmentIndex).
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

    def _below(self, i, upper):
        """Running sum of the segments below segment i, or above it if upper."""
        return self.cum_right[i + 1] if upper else self.cum[i]

    def masses(self, z, upper):
        """Kernel mass below each z of an array, or above it if upper."""
        z = np.clip(z, -self.t, self.t)
        i = self._edge_index.find(z)
        lo, hi = self.edges[i], self.edges[i + 1]
        u = np.clip((z - 0.5 * (lo + hi)) * (2.0 / (hi - lo)), -1.0, 1.0)
        seg = self.seg[i]
        # at a segment's ends, and so beyond the window, the reads are exact
        partial = np.where(u == -1.0, 0.0, np.where(u == 1.0, seg, _legendre_sum(self.anti, i, u)))
        return _held(self._below(i, upper), seg, partial, upper)

    @cached_property
    def _starts(self):
        """special._hermite_table of each side, (lower, upper), over the edges.

        The lower side maps the mass below each edge, as a fraction of
        the total, to the edge z, the upper side the mass above it to
        -z.  The density at each edge is the kernel's interpolant on
        the segment to its right, and on the last segment at the last
        edge, so the tables evaluate no kernel.
        """
        last = len(self.seg) - 1
        i = np.append(np.arange(last + 1), last)
        u = np.append(np.full(last + 1, -1.0), 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = _legendre_sum(self.anti, i, u, derivs=True)[1] * (2.0 / np.diff(self.edges)[i])
            log_dens = np.log(dens) - np.log(self.total)
            log_below, log_above = np.log(self.cum / self.total), np.log(self.cum_right / self.total)
        return (
            _hermite_table(self.edges, log_below, log_dens),
            _hermite_table(-self.edges[::-1], log_above[::-1], log_dens[::-1]),
        )

    @cached_property
    def _running(self):
        """The running sums as _SortedNodes, (lower, upper), in the order of the edges.

        The lower side's nodes are the mass below each edge, searched
        from the right, the upper side's minus the mass above it, from
        the left.
        """
        return _SortedNodes(self.cum, "right"), _SortedNodes(-self.cum_right, "left")

    def _solve(self, t, upper):
        """Points with the fraction t of the kernel's mass below them, or above them if upper.

        The side's _starts table gives each root's start, and the edge
        index the segment holding the start; a walk on the running sums
        moves that guess onto the one segment holding the root, as a
        searchsorted on them would.  Inside it, bracketed Halley steps
        solve the log of the mass the reads return, with the segment's
        interpolant and its derivative as g' and g''.  They start from
        the start clipped into that segment, so nearly every point ends
        on its first evaluation.
        """
        mass = t * self.total
        sign = -1.0 if upper else 1.0
        start = sign * _hermite_start(self._starts[upper], np.log(t))[0]
        i = self._running[upper].walk(sign * mass, self._edge_index.find(start))
        base, seg = self._below(i, upper), self.seg[i]
        lo, hi = self.edges[i], self.edges[i + 1]
        log_mass = np.log(mass)
        mid, dudz = 0.5 * (lo + hi), 2.0 / (hi - lo)

        def log_gap(x, idx):
            u = (x - mid[idx]) * dudz[idx]
            partial, dpartial, d2partial = _legendre_sum(self.anti, i[idx], u, derivs=True)
            held = _held(base[idx], seg[idx], partial, upper)
            with np.errstate(divide="ignore"):
                gap = np.log(held) - log_mass[idx]
            # d/dz of the antiderivative is the kernel's interpolant k, and
            # g'' = k' / held - sign g'^2
            dg = dpartial * dudz[idx] / held
            return sign * gap, dg, d2partial * dudz[idx] ** 2 / held - sign * dg * dg

        return _bracketed_newton(log_gap, np.clip(start, lo, hi), lo, hi)


# logcdf and logsf take a tail mass below this fraction of the total from
# the Gauss-Laguerre rule (_log_tail), not from the table: that covers
# masses that read 0 (underflowed, or beyond the window), the masses near
# the window ends, which miss the kernel's mass outside it, and those of
# the linearly held segments.  The rule keeps a few ulp of the log
# against quad from 1e-8 down; the table is that good only above ~1e-45.
_LOG_TAIL_BELOW = 1e-30


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
        held = table.masses(z, upper)
        if not log:
            out = held / table.total
        else:
            with np.errstate(divide="ignore"):
                log_held = np.log(held)
            far = held <= _LOG_TAIL_BELOW * table.total
            if np.any(far):
                lam1, lam2, n, m, _ = self._key
                sign = -1.0 if upper else 1.0
                with np.errstate(all="ignore"):
                    rule = _log_tail(sign * z[far], sign * lam1, sign * lam2, n, m)
                # at infinite z, and past |z| ~ 1e9, where rounding of
                # log k swamps the rule's differences, the table's log stays
                log_held[far] = np.where(np.isfinite(rule), rule, log_held[far])
            out = log_held - np.log(table.total)
        return np.minimum(out, 0.0 if log else 1.0)

    def _std_quantile(self, t, upper):
        return _kernel_table(*self._key)._solve(t, upper)


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
