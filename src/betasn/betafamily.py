"""Beta, generalized beta, Kumaraswamy, and beta-generated distributions.

The beta-generated construction composes a base distribution function F
with a Beta(a, b) density: g(x) = F(x)^(a-1) (1-F(x))^(b-1) f(x) / B(a,b),
G(x) = I_F(x)(a, b).  Specializing the base gives the beta-normal and
the beta-half-normal used as the limit family of the beta skew-normal.

Densities with a, b below 1 are evaluated in log space so the endpoint
singularities do not poison intermediate products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Distribution, LocationScale, _quantile_domain, _require
from .special import (
    inv_reg_inc_beta,
    log_beta,
    norm_cdf,
    norm_logcdf,
    norm_logpdf,
    norm_quantile,
    reg_inc_beta,
)
from scipy.special import erf, erfinv

__all__ = [
    "Beta",
    "GB1",
    "Kumaraswamy",
    "BetaNormal",
    "BetaHalfNormal",
    "beta_generated_pdf",
    "beta_generated_cdf",
]

_LOG2 = np.log(2.0)
_SQRT2 = np.sqrt(2.0)
# latent beta variates are kept strictly inside (0, 1), so the base
# quantiles they feed stay finite; only an exact 0 or 1 is moved
_W_LO = np.nextafter(0.0, 1.0)
_W_HI = np.nextafter(1.0, 0.0)


def _xlogy(e, log_t):
    """e * log_t with the 0 * (-inf) = 0 convention for vanished exponents."""
    with np.errstate(invalid="ignore"):
        return np.where(e == 0.0, 0.0, e * log_t)


@dataclass(frozen=True)
class Beta(Distribution):
    """Beta distribution on (0, 1) with shape parameters a, b."""

    a: float
    b: float

    def __post_init__(self):
        _require("positive", a=self.a, b=self.b)

    support = (0.0, 1.0)
    location = 0.5
    scale = 0.25

    def _endpoint_singular(self):
        return (self.a - 1.0, self.b - 1.0)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            inside = (x > 0.0) & (x < 1.0)
            body = (
                _xlogy(self.a - 1.0, np.log(np.where(inside, x, 0.5)))
                + _xlogy(self.b - 1.0, np.log1p(-np.where(inside, x, 0.5)))
                - log_beta(self.a, self.b)
            )
        return np.where(inside, body, -np.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return reg_inc_beta(np.clip(x, 0.0, 1.0), self.a, self.b)

    def quantile(self, q):
        q = _quantile_domain(q)
        out = inv_reg_inc_beta(q, self.a, self.b)
        return out if q.ndim else float(out)


@dataclass(frozen=True)
class GB1(Distribution):
    """Generalized beta of the first kind.

    Density p x^(ap-1) (1 - (x/q)^p)^(b-1) / (q^(ap) B(a, b)) on (0, q).
    GB1(a, b, 1, 1) is Beta(a, b); GB1(1, b, p, 1) is Kumaraswamy(p, b).
    """

    a: float
    b: float
    p: float
    q: float

    def __post_init__(self):
        _require("positive", a=self.a, b=self.b, p=self.p, q=self.q)

    @property
    def support(self):
        return (0.0, self.q)

    @property
    def location(self):
        return 0.5 * self.q

    @property
    def scale(self):
        return 0.25 * self.q

    def _endpoint_singular(self):
        return (self.a * self.p - 1.0, self.b - 1.0)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0.0) & (x < self.q)
        xs = np.where(inside, x, 0.5 * self.q)
        u = (xs / self.q) ** self.p
        with np.errstate(divide="ignore", invalid="ignore"):
            body = (
                np.log(self.p)
                + _xlogy(self.a * self.p - 1.0, np.log(xs))
                - self.a * self.p * np.log(self.q)
                + _xlogy(self.b - 1.0, np.log1p(-u))
                - log_beta(self.a, self.b)
            )
        return np.where(inside, body, -np.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        u = np.clip(x / self.q, 0.0, 1.0) ** self.p
        return reg_inc_beta(u, self.a, self.b)

    def quantile(self, q):
        q = _quantile_domain(q)
        out = self.q * inv_reg_inc_beta(q, self.a, self.b) ** (1.0 / self.p)
        return out if q.ndim else float(out)


@dataclass(frozen=True)
class Kumaraswamy(Distribution):
    """Kumaraswamy distribution: cdf 1 - (1 - x^p)^b on (0, 1)."""

    p: float
    b: float

    def __post_init__(self):
        _require("positive", p=self.p, b=self.b)

    support = (0.0, 1.0)
    location = 0.5
    scale = 0.25

    def _endpoint_singular(self):
        return (self.p - 1.0, self.b - 1.0)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0.0) & (x < 1.0)
        xs = np.where(inside, x, 0.5)
        with np.errstate(divide="ignore", invalid="ignore"):
            body = (
                np.log(self.p)
                + np.log(self.b)
                + _xlogy(self.p - 1.0, np.log(xs))
                + _xlogy(self.b - 1.0, np.log1p(-(xs**self.p)))
            )
        return np.where(inside, body, -np.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        xs = np.clip(x, 0.0, 1.0)
        # log1p(-1) = -inf at the right endpoint; expm1 maps it back to 1
        with np.errstate(divide="ignore"):
            return -np.expm1(self.b * np.log1p(-(xs**self.p)))

    def quantile(self, q):
        # x = exp(log(x^p) / p) with x^p = 1 - (1-q)^(1/b); its log comes
        # from whichever of x^p and 1 - x^p is below 1/2, so that near x = 1,
        # where 1/p times the rounding of x^p would swamp 1 - x, log x and
        # with it 1 - x stay relatively accurate
        q = _quantile_domain(q)
        log_s = np.log1p(-q) / self.b
        v = -np.expm1(log_s)
        with np.errstate(divide="ignore"):
            log_v = np.where(v < 0.5, np.log(v), np.log1p(-np.exp(log_s)))
        out = np.exp(log_v / self.p)
        return out if q.ndim else float(out)


def _beta_generated_quantile(q, a, b, lower, upper):
    """Quantile of a beta-generated law, solved on q's own side of 1/2.

    For q <= 1/2, lower(w) maps the latent cdf w = I^-1(q; a, b) to x.
    For q > 1/2, upper(s) maps the latent survival s = I^-1(1 - q; b, a),
    because 1 - w would round to 0 there and lose the upper tail.
    """
    q = _quantile_domain(q)
    qq = np.atleast_1d(q)
    out = np.empty_like(qq)
    left = qq <= 0.5
    if np.any(left):
        out[left] = lower(np.clip(inv_reg_inc_beta(qq[left], a, b), _W_LO, _W_HI))
    if np.any(~left):
        out[~left] = upper(np.clip(inv_reg_inc_beta(1.0 - qq[~left], b, a), _W_LO, _W_HI))
    return out if q.ndim else float(out[0])


def beta_generated_pdf(base_cdf, base_pdf, a, b, x):
    """Generic beta-generated density F^(a-1) (1-F)^(b-1) f / B(a, b).

    A direct composition meant for cross-checks and one-off bases; the
    named family classes use numerically hardened log-space forms.
    """
    _require("positive", a=a, b=b)
    x = np.asarray(x, dtype=float)
    f = np.asarray(base_pdf(x), dtype=float)
    big_f = np.clip(np.asarray(base_cdf(x), dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_kernel = _xlogy(a - 1.0, np.log(big_f)) + _xlogy(b - 1.0, np.log1p(-big_f))
        out = np.exp(log_kernel - log_beta(a, b)) * f
    return np.where(f > 0.0, out, 0.0)


def beta_generated_cdf(base_cdf, a, b, x):
    """Generic beta-generated distribution function I_F(x)(a, b)."""
    _require("positive", a=a, b=b)
    big_f = np.clip(np.asarray(base_cdf(np.asarray(x, dtype=float)), dtype=float), 0.0, 1.0)
    return reg_inc_beta(big_f, a, b)


@dataclass(frozen=True)
class BetaNormal(LocationScale):
    """Beta-generated distribution with a N(mu, sigma^2) base."""

    a: float
    b: float
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        _require("positive", a=self.a, b=self.b)

    def logpdf(self, x):
        z = self._z(x)
        return (
            _xlogy(self.a - 1.0, norm_logcdf(z))
            + _xlogy(self.b - 1.0, norm_logcdf(-z))
            + norm_logpdf(z)
            - log_beta(self.a, self.b)
            - np.log(self.sigma)
        )

    def cdf(self, x):
        return reg_inc_beta(norm_cdf(self._z(x)), self.a, self.b)

    def quantile(self, q):
        z = _beta_generated_quantile(
            q, self.a, self.b, norm_quantile, lambda s: -norm_quantile(s)
        )
        return self.mu + self.sigma * z


@dataclass(frozen=True)
class BetaHalfNormal(Distribution):
    """Beta-generated distribution with a standard half-normal base.

    Density 2^b / B(a, b) * (2 Phi(x) - 1)^(a-1) (1 - Phi(x))^(b-1) phi(x)
    for x > 0.  This is the lam -> +inf limit of the beta skew-normal.
    """

    a: float
    b: float

    def __post_init__(self):
        _require("positive", a=self.a, b=self.b)

    support = (0.0, np.inf)
    location = 0.0
    scale = 1.0

    def _endpoint_singular(self):
        return (self.a - 1.0, False)

    @staticmethod
    def _base_cdf(x):
        # 2 Phi(x) - 1 written as erf keeps full precision near 0
        return erf(np.asarray(x, dtype=float) / np.sqrt(2.0))

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = x > 0.0
        xs = np.where(inside, x, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            body = (
                self.b * _LOG2
                - log_beta(self.a, self.b)
                + _xlogy(self.a - 1.0, np.log(self._base_cdf(xs)))
                + _xlogy(self.b - 1.0, norm_logcdf(-xs))
                + norm_logpdf(xs)
            )
        return np.where(inside, body, -np.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return reg_inc_beta(np.clip(self._base_cdf(x), 0.0, 1.0), self.a, self.b)

    def quantile(self, q):
        # the base cdf is erf(x / sqrt 2) and its survival 2 Phi(-x); each
        # side inverts its own, so neither forms 1 + w or 1 - s
        return _beta_generated_quantile(
            q,
            self.a,
            self.b,
            lambda w: _SQRT2 * erfinv(w),
            lambda s: -norm_quantile(0.5 * s),
        )
