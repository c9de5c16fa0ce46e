"""Balakrishnan skew-normal families.

SNB_n(lam):   c_n(lam) phi(x) Phi(lam x)^n
GBSN_{n,m}:   phi(x) Phi(lam x)^n (1 - Phi(lam x))^m / C_{n,m}(lam)
TBSN_{n,m}:   phi(x) Phi(lam1 x)^n Phi(lam2 x)^m / c_{n,m}(lam1, lam2)

Normalizing integrals are computed by adaptive quadrature and memoized
per parameter set.  Distribution functions for these families have no
closed form; they are served from a cumulative Gauss-Kronrod table over
the truncation window.  A quantile finds the table segment holding its
root by searchsorted on the segment sums, taken from the left for
q <= 1/2 and from the right above, and solves the log of the partial
sum inside that segment by bracketed Newton.  So cdf and quantile are
inverses of each other to roundoff, and the quantile keeps relative
accuracy in q, or in 1 - q, down to the far tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .core import Distribution, _quantile_domain
from .quadrature import DEFAULT_SPEC, _gk15, integrate_line
from .special import _bracketed_newton, norm_logcdf, norm_logpdf

__all__ = [
    "SNB",
    "GBSN",
    "TBSN",
    "snb_constant",
    "gbsn_constant",
    "gbsn_constant_series",
    "tbsn_constant",
]


def _check_order(name, value):
    if not (isinstance(value, (int, np.integer)) and value >= 0):
        raise ValueError(f"{name} must be a nonnegative integer")
    return int(value)


@lru_cache(maxsize=512)
def _snb_kernel_integral(n, lam, spec):
    """integral of phi(x) Phi(lam x)^n over the line (equals 1/c_n)."""
    return integrate_line(lambda x: np.exp(norm_logpdf(x) + n * norm_logcdf(lam * x)), spec)


@lru_cache(maxsize=512)
def _gbsn_kernel_integral(n, m, lam, spec):
    return integrate_line(
        lambda x: np.exp(
            norm_logpdf(x) + n * norm_logcdf(lam * x) + m * norm_logcdf(-lam * x)
        ),
        spec,
    )


@lru_cache(maxsize=512)
def _tbsn_kernel_integral(n, m, lam1, lam2, spec):
    return integrate_line(
        lambda x: np.exp(
            norm_logpdf(x) + n * norm_logcdf(lam1 * x) + m * norm_logcdf(lam2 * x)
        ),
        spec,
    )


def snb_constant(n, lam, spec=None):
    """Multiplicative normalizing constant c_n(lam) = 1 / E[Phi(lam U)^n].

    c_0 = 1, c_1 = 2, and c_2(lam) = pi / arctan sqrt(1 + 2 lam^2); the
    quadrature value matches those closed forms to ~1e-12.
    """
    n = _check_order("n", n)
    spec = DEFAULT_SPEC if spec is None else spec
    return 1.0 / _snb_kernel_integral(n, float(lam), spec)


def gbsn_constant(n, m, lam, spec=None):
    """Multiplicative normalizing constant of the GBSN_{n,m}(lam) density.

    For lam = 1 and integer orders this reproduces the order-statistic
    coefficient: gbsn_constant(j-1, n-j, 1) = n! / ((j-1)! (n-j)!).
    """
    n = _check_order("n", n)
    m = _check_order("m", m)
    spec = DEFAULT_SPEC if spec is None else spec
    return 1.0 / _gbsn_kernel_integral(n, m, float(lam), spec)


def gbsn_constant_series(n, m, lam, spec=None):
    """Same constant through the binomial expansion of (1 - Phi)^m.

    Expands the kernel integral as sum_i C(m,i) (-1)^i E[Phi(lam U)^(n+i)]
    and inverts.  Kept as an independent cross-check of gbsn_constant;
    the alternating sum loses digits for large m, so quadrature stays
    the primary route.
    """
    n = _check_order("n", n)
    m = _check_order("m", m)
    spec = DEFAULT_SPEC if spec is None else spec
    total = sum(
        comb(m, i) * (-1.0) ** i * _snb_kernel_integral(n + i, float(lam), spec)
        for i in range(m + 1)
    )
    return 1.0 / total


def tbsn_constant(n, m, lam1, lam2, spec=None):
    """Kernel expectation c_{n,m}(lam1, lam2) = E[Phi(lam1 U)^n Phi(lam2 U)^m].

    The TBSN density divides by this value, i.e. its multiplicative
    constant is the reciprocal of what is returned here.
    """
    n = _check_order("n", n)
    m = _check_order("m", m)
    spec = DEFAULT_SPEC if spec is None else spec
    return _tbsn_kernel_integral(n, m, float(lam1), float(lam2), spec)


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
def _snb_table(lam, n, spec):
    return _NumericCdf(lambda z: np.exp(norm_logpdf(z) + n * norm_logcdf(lam * z)), spec)


@lru_cache(maxsize=64)
def _gbsn_table(lam, n, m, spec):
    return _NumericCdf(
        lambda z: np.exp(
            norm_logpdf(z) + n * norm_logcdf(lam * z) + m * norm_logcdf(-lam * z)
        ),
        spec,
    )


@lru_cache(maxsize=64)
def _tbsn_table(lam1, lam2, n, m, spec):
    return _NumericCdf(
        lambda z: np.exp(
            norm_logpdf(z) + n * norm_logcdf(lam1 * z) + m * norm_logcdf(lam2 * z)
        ),
        spec,
    )


@dataclass(frozen=True)
class SNB(Distribution):
    """Balakrishnan skew-normal of integer order n with shape lam."""

    lam: float
    n: int
    mu: float = 0.0
    sigma: float = 1.0
    spec: object = None

    def __post_init__(self):
        _check_order("n", self.n)
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive and finite")
        if not (np.isfinite(self.mu) and np.isfinite(self.lam)):
            raise ValueError("mu and lam must be finite")

    @property
    def location(self):
        return self.mu

    @property
    def scale(self):
        return self.sigma

    @property
    def _spec(self):
        return DEFAULT_SPEC if self.spec is None else self.spec

    @property
    def kernel_integral(self):
        return _snb_kernel_integral(self.n, float(self.lam), self._spec)

    @property
    def norm_const(self):
        return 1.0 / self.kernel_integral

    def _z(self, x):
        return (np.asarray(x, dtype=float) - self.mu) / self.sigma

    def logpdf(self, x):
        z = self._z(x)
        return (
            np.log(self.norm_const)
            + norm_logpdf(z)
            + self.n * norm_logcdf(self.lam * z)
            - np.log(self.sigma)
        )

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def _table(self):
        return _snb_table(float(self.lam), self.n, self._spec)

    def cdf(self, x):
        return self._table().cdf(self._z(x))

    def quantile(self, q):
        return self.mu + self.sigma * self._table().quantile(q)


@dataclass(frozen=True)
class GBSN(Distribution):
    """Generalized Balakrishnan skew-normal with integer orders n, m."""

    lam: float
    n: int
    m: int
    spec: object = None

    def __post_init__(self):
        _check_order("n", self.n)
        _check_order("m", self.m)
        if not np.isfinite(self.lam):
            raise ValueError("lam must be finite")

    @property
    def _spec(self):
        return DEFAULT_SPEC if self.spec is None else self.spec

    @property
    def kernel_integral(self):
        return _gbsn_kernel_integral(self.n, self.m, float(self.lam), self._spec)

    @property
    def norm_const(self):
        return 1.0 / self.kernel_integral

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        return (
            np.log(self.norm_const)
            + norm_logpdf(x)
            + self.n * norm_logcdf(self.lam * x)
            + self.m * norm_logcdf(-self.lam * x)
        )

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def _table(self):
        return _gbsn_table(float(self.lam), self.n, self.m, self._spec)

    def cdf(self, x):
        return self._table().cdf(x)

    def quantile(self, q):
        return self._table().quantile(q)


@dataclass(frozen=True)
class TBSN(Distribution):
    """Two-shape Balakrishnan skew-normal TBSN_{n,m}(lam1, lam2)."""

    lam1: float
    lam2: float
    n: int
    m: int
    mu: float = 0.0
    sigma: float = 1.0
    spec: object = None

    def __post_init__(self):
        _check_order("n", self.n)
        _check_order("m", self.m)
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive and finite")
        if not (np.isfinite(self.mu) and np.isfinite(self.lam1) and np.isfinite(self.lam2)):
            raise ValueError("mu, lam1, lam2 must be finite")

    @property
    def location(self):
        return self.mu

    @property
    def scale(self):
        return self.sigma

    @property
    def _spec(self):
        return DEFAULT_SPEC if self.spec is None else self.spec

    @property
    def kernel_integral(self):
        return _tbsn_kernel_integral(self.n, self.m, float(self.lam1), float(self.lam2), self._spec)

    @property
    def norm_const(self):
        return 1.0 / self.kernel_integral

    def _z(self, x):
        return (np.asarray(x, dtype=float) - self.mu) / self.sigma

    def logpdf(self, x):
        z = self._z(x)
        return (
            np.log(self.norm_const)
            + norm_logpdf(z)
            + self.n * norm_logcdf(self.lam1 * z)
            + self.m * norm_logcdf(self.lam2 * z)
            - np.log(self.sigma)
        )

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def _table(self):
        return _tbsn_table(float(self.lam1), float(self.lam2), self.n, self.m, self._spec)

    def cdf(self, x):
        return self._table().cdf(self._z(x))

    def quantile(self, q):
        return self.mu + self.sigma * self._table().quantile(q)
