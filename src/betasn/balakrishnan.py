"""Balakrishnan skew-normal families: one power-of-Phi kernel.

Every family here has the density

    phi(z) Phi(lam1 z)^n Phi(lam2 z)^m / c,   z = (x - mu) / sigma,

with integer orders n, m >= 0 and c the kernel's integral over the line:

TBSN_{n,m}(lam1, lam2):  the kernel as written;
SNB_n(lam):              TBSN_{n,0}(lam, 0), i.e. c_n(lam) phi(x) Phi(lam x)^n;
GBSN_{n,m}(lam):         TBSN_{n,m}(lam, -lam), i.e. phi(x) Phi(lam x)^n
                         (1 - Phi(lam x))^m / C_{n,m}(lam), standardized.

PowerOfPhi carries the whole surface; the three classes only name their
parameters and map them onto (lam1, lam2, n, m).  A factor of order 0 is
skipped wherever the kernel is evaluated, so SNB pays one log Phi per
point and the three parameterizations give bit-identical values.

Normalizing integrals are computed by adaptive quadrature and memoized
per kernel.  Distribution functions have no closed form; they are served
from a cumulative Gauss-Kronrod table over the truncation window, one
per kernel.  A quantile finds the table segment holding its root by
searchsorted on the segment sums, taken from the left for q <= 1/2 and
from the right above, and solves the log of the partial sum inside that
segment by bracketed Newton.  So cdf and quantile are inverses of each
other to roundoff, and the quantile keeps relative accuracy in q, or in
1 - q, down to the far tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .core import LocationScale, _quantile_domain, _require
from .quadrature import DEFAULT_SPEC, _gk15, integrate_line
from .special import _bracketed_newton, norm_logcdf, norm_logpdf

__all__ = [
    "PowerOfPhi",
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


class _NumericCdf:
    """Cumulative Gauss-Kronrod table for a standardized positive kernel.

    The kernel need not be normalized; the table divides by its own
    total mass.  cdf values between grid edges are completed with a
    partial 15-point rule on the residual subinterval, which keeps the
    result monotone and smooth enough for Newton inversion.  The segment
    masses are summed from both ends, so the mass below and the mass
    above every edge keep relative accuracy in their own tail.
    """

    def __init__(self, kernel, spec, segments=1600):
        self.kernel = kernel
        self.t = spec.truncation
        edges = np.linspace(-self.t, self.t, segments + 1)
        seg_vals, _ = _gk15(kernel, edges[:-1], edges[1:])
        self.edges = edges
        self.seg = seg_vals
        self.cum = np.concatenate([[0.0], np.cumsum(seg_vals)])
        self.cum_right = np.concatenate([np.cumsum(seg_vals[::-1])[::-1], [0.0]])
        self.total = float(self.cum[-1])

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        zz = np.atleast_1d(np.clip(z, -self.t, self.t))
        idx = np.clip(np.searchsorted(self.edges, zz, side="right") - 1, 0, len(self.edges) - 2)
        partial, _ = _gk15(self.kernel, self.edges[idx], zz)
        out = np.clip((self.cum[idx] + partial) / self.total, 0.0, 1.0)
        return out if z.ndim else float(out[0])

    def quantile(self, q):
        q = _quantile_domain(q)
        qq = np.atleast_1d(q)
        x = np.empty_like(qq)
        low = qq <= 0.5
        x[low] = self._solve(qq[low] * self.total, upper=False)
        x[~low] = self._solve((1.0 - qq[~low]) * self.total, upper=True)
        return x if q.ndim else float(x[0])

    def _solve(self, mass, upper):
        """Points with `mass` of the kernel below them, or above them if upper.

        searchsorted on the running sums picks the one segment holding
        each root; inside it, bracketed Newton solves the log of the
        partial sum, starting from linear interpolation of the mass.
        """
        last = len(self.seg) - 1
        if upper:
            i = np.clip(np.searchsorted(-self.cum_right, -mass, side="left") - 1, 0, last)
            base = self.cum_right[i + 1]
        else:
            i = np.clip(np.searchsorted(self.cum, mass, side="right") - 1, 0, last)
            base = self.cum[i]
        lo, hi = self.edges[i], self.edges[i + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.clip(np.nan_to_num((mass - base) / self.seg[i]), 0.0, 1.0)
        start = hi - frac * (hi - lo) if upper else lo + frac * (hi - lo)
        log_mass = np.log(mass)

        def log_gap(x, idx):
            if upper:
                partial, _ = _gk15(self.kernel, x, hi[idx])
            else:
                partial, _ = _gk15(self.kernel, lo[idx], x)
            held = base[idx] + partial
            with np.errstate(divide="ignore"):
                gap = np.log(held) - log_mass[idx]
            return (-gap if upper else gap), self.kernel(x) / held

        return _bracketed_newton(log_gap, start, lo, hi)


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

    def logpdf(self, x):
        lam1, lam2, n, m, _ = self._key
        log_kernel = _log_kernel(self._z(x), lam1, lam2, n, m, np.log(self.norm_const))
        return log_kernel - np.log(self.scale)

    def cdf(self, x):
        return _kernel_table(*self._key).cdf(self._z(x))

    def quantile(self, q):
        return self.location + self.scale * _kernel_table(*self._key).quantile(q)


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
