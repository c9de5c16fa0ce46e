"""The beta-generated composition, and the laws written as it.

The beta-generated construction (Jones 2004) composes a base cdf F with
a Beta(a, b) variable: density F^(a-1) S^(b-1) f / B(a, b), S = 1 - F,
and cdf I_F(a, b).  _BetaGenerated writes it once, in log space, as the
two hooks of core.LocationScale's surface (the standardized tail read
and the one-sided quantile), over a base that supplies log f and its
slope, log F, log S and a quantile from a log probability.
BetaNormal, BetaHalfNormal, bsn.BetaSkewNormal and the unit-interval
laws only declare their parameters and base.  GB1(a, b, p, q) (McDonald
1984) is the composition over the power base F(z) = z^p, z = x/q, with
Beta at p = q = 1 and Kumaraswamy at a = q = 1 (_PowerBase).  logpdf
goes through one kernel that skips a zero exponent; cdf, sf, logcdf and
logsf each keep relative accuracy in their own tail far past where F, S
or the value underflows.  The quantile solves log I_F(z)(a, b) = log t
directly in z, one bracketed Halley solve per point whose every
evaluation is one read of log F and log S, started from a
cubic-Hermite table per law and side that the composed route builds:
the latent root in log space, then the base quantile of it.  A side
bounded at an endpoint (both sides of the unit laws, BetaHalfNormal's
lower side) keeps the composed route, which stays relative in the
distance to the endpoint, and at a = 1 or b = 1 the latent is a closed
form, I_F(1, b) = 1 - S^b or I_F(a, 1) = F^a, so the quantile is one
base quantile.  All reach q = 1e-300 and below on either side.  A draw
is the construction itself: the latent W ~ Beta(a, b) from two gammas
in log form, and one base quantile of W's smaller side, with no
incomplete beta read (a = b = 1 keeps the quantile transform).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np
from scipy.special import erf, erfinv

from .core import LocationScale, _by_side, _require
from .skewnormal import _log_density_limit
from .special import (
    _MIRRORED_FLOOR,
    _bracketed_newton,
    _hermite_start,
    _hermite_table,
    _inc_beta_lower,
    _inc_beta_upper,
    _log_inc_beta_root,
    _norm_quantile_log,
    log_beta,
    norm_logcdf,
    norm_logpdf,
)

__all__ = ["Beta", "GB1", "Kumaraswamy", "BetaNormal", "BetaHalfNormal"]

_LOG2 = np.log(2.0)
_SQRT2 = np.sqrt(2.0)


def _log_beta_kernel(acc, a, b, tails):
    """acc + (a - 1) log F + (b - 1) log S, with (log F, log S) = tails().

    A zero exponent is skipped, and tails not called when both are, so
    a = 1 or b = 1 picks up no 0 * (-inf) or 0 * (large negative) noise.
    """
    if a == 1.0 and b == 1.0:
        return acc
    log_f, log_s = tails()
    if a != 1.0:
        acc = acc + (a - 1.0) * log_f
    if b != 1.0:
        acc = acc + (b - 1.0) * log_s
    return acc


def _smaller_side(log_u):
    """(log v, flipped) of u = e^log_u <= 1: v the smaller of u and 1 - u, flipped where v = 1 - u."""
    flipped = log_u > -_LOG2
    with np.errstate(divide="ignore"):
        return np.where(flipped, np.log(-np.expm1(log_u)), log_u), flipped


def _log_latent_side(rng, a, b, n):
    """(log t, upper) of n draws of W = G_a / (G_a + G_b) ~ Beta(a, b).

    t is the smaller of W and 1 - W, and upper marks t = 1 - W.  Each
    log G_s = log G_(s+1) - E / s is formed in place over its gamma, and
    log t over log G_a, so at most three doubles per point are held and
    one is returned.
    """
    log_g, spare = [], None
    for s in (a, b):
        g = rng.standard_gamma(s + 1.0, n, out=spare)
        np.log(g, out=g)
        spare = rng.standard_exponential(n)
        spare /= s
        g -= spare
        log_g.append(g)
    log_ga, log_gb = log_g
    upper = log_ga > log_gb
    log_sum = np.logaddexp(log_ga, log_gb, out=spare)
    log_t = np.minimum(log_ga, log_gb, out=log_ga)
    log_t -= log_sum
    return log_t, upper


# Start tables of the beta-generated quantile: nodes at tail
# probabilities t geometric in |v|, v = -sqrt(-2 log t), from t = 5e-324,
# the smallest double, to t = 1/2, so every t a quantile asks for lies
# between two nodes and no solve needs a far-tail start.  At 200 nodes
# the seed-7 panel's BSN and beta normal roots take 1.00-1.02
# evaluations per point; at 100 nodes up to 1.11, at 64 up to 1.35.
_SOLVE_T = np.exp(-0.5 * np.geomspace(np.sqrt(-2.0 * np.log(5e-324)), np.sqrt(2.0 * _LOG2), 200) ** 2)
_SOLVE_T[[0, -1]] = 5e-324, 0.5
_SOLVE_T.setflags(write=False)


@lru_cache(maxsize=32)
def _solve_table(law, upper):
    """special._hermite_table of y against v = -sqrt(-2 log t) on one side of law.

    law is a standardized beta-generated law and y the root z with mass
    t below it, or -z with mass t above it if upper, so y rises with t.
    The nodes are law's composed quantiles at _SOLVE_T.
    """
    z = law._composed_quantile(_SOLVE_T, upper)
    return _hermite_table(-z if upper else z, np.log(_SOLVE_T), law.logpdf(z))


class _BetaGenerated(LocationScale):
    """I_F(z)(a, b) over a base F, with z = (x - location) / scale.

    Subclasses are frozen dataclasses with fields a and b that supply, per
    standardized point, _log_base(z, log_c) = log c + log f(z),
    _log_base_slope(z) = (log f(z), d log f / dz), _log_tails(z) =
    (log F(z), log S(z)), and _base_quantile(log_p, upper), the z with
    log F(z), or log S(z) if upper, equal to log_p <= log 1/2.  A base
    that has the smaller tail cheaper than both may override
    _small_tail, and a law whose upper side is minus the lower side of
    another declares that standardized law as _mirror().
    """

    def __post_init__(self):
        super().__post_init__()
        _require("positive", a=self.a, b=self.b)

    def _std_logpdf(self, z):
        """logpdf at a 1-d array of standardized points z."""
        with np.errstate(invalid="ignore"):
            log_base = self._log_base(z, -log_beta(self.a, self.b))
        return self._logpdf_from(z, log_base, lambda: self._log_tails(z))

    def _logpdf_from(self, z, log_base, tails):
        """logpdf at standardized z, from log_base = _log_base(z, -log B(a, b))
        and tails() = (log F(z), log S(z)), which a zero exponent leaves unread.

        The one beta-kernel composition of the density: logpdf reads its own
        tails, and a caller that holds them for the same z, shared across
        laws, passes them in and gets the same bits.
        """
        # one of log F and log S is above -log 2, so a power or a sum overflows
        # only to -inf, where the log density is below -1.8e308: its limit
        with np.errstate(over="ignore", invalid="ignore"):
            out = _log_beta_kernel(log_base - np.log(self.scale), self.a, self.b, tails)
        return _log_density_limit(z, out)

    def _small_tail(self, z):
        """(log v, v == F) with v the smaller of F(z) and S(z)."""
        log_f, log_s = self._log_tails(z)
        return np.minimum(log_f, log_s), log_f <= log_s

    def _std_tail(self, z, upper, log):
        return self._beta_tail(*self._small_tail(z), upper, log)

    def _beta_tail(self, log_v, on_f, upper, log):
        """I_w(a, b) with w = F, or w = S and a, b swapped if upper: from w
        where w <= 1/2, above as 1 - I_(1-w)(b, a), which keeps 1 - w's digits.
        """
        a, b = (self.b, self.a) if upper else (self.a, self.b)
        own = on_f != upper
        out = np.empty_like(log_v)
        out[own] = _inc_beta_lower(log_v[own], a, b, log)
        out[~own] = _inc_beta_upper(log_v[~own], b, a, _MIRRORED_FLOOR, log)
        return out

    def _mirror(self):
        """The standardized law whose lower side is minus this one's upper side, if any."""
        return None

    def draw(self, rng, n):
        """Draw n values as base quantiles of a Beta(a, b) latent W = G_a / (G_a + G_b).

        Each gamma is drawn in log form, log G_s = log G_(s+1) - E / s
        with E standard exponential: Gamma(s) = Gamma(s + 1) U^(1/s)
        (Marsaglia & Tsang 2000) with -log U = E.  It is exact for every
        s > 0 and never -inf, where rng.standard_gamma(s) alone returns 0
        for about half its draws at s = 1e-3.  W's smaller side, log t =
        min(log G_a, log G_b) - log(G_a + G_b), goes to the base quantile
        on that side, so no incomplete beta is read and both tails keep
        relative accuracy.  The base quantiles are written over log t
        (_by_side), and the draw peaks at about three doubles per point
        while it forms the latent.  At a = b = 1 the latent is the
        uniform itself, and the quantile transform stays.
        """
        if self.a == 1.0 and self.b == 1.0:
            return super().draw(rng, n)
        log_t, upper = _log_latent_side(rng, self.a, self.b, int(n))
        z = _by_side(self._base_quantile, log_t, upper)
        z *= self.scale
        z += self.location
        return z

    def _composed_quantile(self, t, upper):
        """The base quantile of the latent w, found as log w or log(1 - w) on t's side.

        With (a, b) those of t's side, I_w(a, 1) = w^a and
        I_w(1, b) = 1 - (1 - w)^b, so at b = 1 or a = 1 the latent is
        one closed form; else _log_inc_beta_root solves it.
        """
        # the mass above z is I_S(z)(b, a)
        a, b = (self.b, self.a) if upper else (self.a, self.b)
        if b == 1.0:
            log_v, swap = _smaller_side(np.log(t) / a)
        elif a == 1.0:
            # the closed form is log(1 - w), so a flip lands on w
            log_v, flipped = _smaller_side(np.log1p(-t) / b)
            swap = ~flipped
        else:
            log_v, swap = _log_inc_beta_root(t, a, b)
        return _by_side(self._base_quantile, log_v, swap != upper)

    def _std_quantile(self, t, upper):
        """z with mass t below it, or above it if upper, by one solve of log I_F(z)(a, b).

        At a = 1 or b = 1 the latent is a closed form, and a side
        bounded at an endpoint keeps the latent solve, which is relative
        in w, where a root in z near the endpoint would stop at 4 ulp of
        the endpoint rather than of its distance: both take the composed
        route.  Else an upper side is minus the lower side of _mirror()
        where there is one, which is exact, or it solves y = -z.
        Bracketed Halley steps on g(y) = log I - log t, I the tail mass
        and p the density of this law, use g' = p / I and
        g'' = g' (d log p / dy - g'), all from the one _log_tails read of
        each evaluation.  They start from _solve_table, on the panel
        mostly within 1e-9 of the root, so nearly every point ends on its
        first evaluation.
        """
        if 1.0 in (self.a, self.b) or np.isfinite(self.support[upper]):
            return self._composed_quantile(t, upper)
        mirror = self._mirror() if upper else None
        if mirror is not None:
            return -mirror._std_quantile(t, False)
        log_t = np.log(t)
        y, lo, hi, _ = _hermite_start(_solve_table(self._standardized(), upper), log_t)
        a, b, log_b = self.a, self.b, log_beta(self.a, self.b)
        sign = -1.0 if upper else 1.0

        def log_gap(y, idx):
            z = sign * y
            log_f, log_s = self._log_tails(z)
            log_i = self._beta_tail(np.minimum(log_f, log_s), log_f <= log_s, upper, True)
            log_base, slope = self._log_base_slope(z)
            with np.errstate(over="ignore", invalid="ignore"):
                dg = np.exp(_log_beta_kernel(log_base - log_b, a, b, lambda: (log_f, log_s)) - log_i)
                if a != 1.0:
                    slope = slope + (a - 1.0) * np.exp(log_base - log_f)
                if b != 1.0:
                    slope = slope - (b - 1.0) * np.exp(log_base - log_s)
            return log_i - log_t[idx], dg, dg * (sign * slope - dg)

        return sign * _bracketed_newton(log_gap, np.clip(y, lo, hi), lo, hi)

    def _standardized(self):
        """This law at location 0 and scale 1: the key of its start tables."""
        if (self.location, self.scale) == (0.0, 1.0):
            return self
        return replace(self, **dict(zip(self._placement, (0.0, 1.0))))


@dataclass(frozen=True)
class BetaNormal(_BetaGenerated):
    """Beta-generated distribution with a N(mu, sigma^2) base."""

    a: float
    b: float
    mu: float = 0.0
    sigma: float = 1.0

    def _log_base(self, z, log_c):
        return log_c + norm_logpdf(z)

    def _log_base_slope(self, z):
        return self._log_base(z, 0.0), -z

    def _mirror(self):
        return BetaNormal(self.b, self.a)

    @staticmethod
    def _small_tail(z):
        return norm_logcdf(-np.abs(z)), z <= 0.0

    def _log_tails(self, z):
        # one log_ndtr, of the smaller tail; the larger is log1p of minus it
        small, left = self._small_tail(z)
        big = np.log1p(-np.exp(small))
        return np.where(left, small, big), np.where(left, big, small)

    @staticmethod
    def _base_quantile(log_p, upper):
        z = _norm_quantile_log(log_p)
        return -z if upper else z


@dataclass(frozen=True)
class BetaHalfNormal(_BetaGenerated):
    """Beta-generated distribution with a standard half-normal base.

    Density 2^b / B(a, b) * (2 Phi(x) - 1)^(a-1) (1 - Phi(x))^(b-1) phi(x)
    for x > 0.  This is the lam -> +inf limit of the beta skew-normal.
    """

    a: float
    b: float

    support = (0.0, np.inf)
    # standardized: no location or scale fields
    location = 0.0
    scale = 1.0

    def _endpoint_singular(self):
        return (self.a - 1.0, 0.0)

    def _log_base(self, x, log_c):
        return np.where(x <= 0.0, -np.inf, log_c + _LOG2 + norm_logpdf(x))

    def _log_base_slope(self, x):
        return self._log_base(x, 0.0), -x

    @staticmethod
    def _log_tails(x):
        # F = erf(x / sqrt 2) keeps its digits near 0, S = 2 Phi(-x) far out
        xs = np.maximum(x, 0.0)
        with np.errstate(divide="ignore"):
            return np.log(erf(xs / _SQRT2)), _LOG2 + norm_logcdf(-xs)

    @staticmethod
    def _base_quantile(log_p, upper):
        if upper:
            return -_norm_quantile_log(log_p - _LOG2)
        return _SQRT2 * erfinv(np.exp(log_p))


class _PowerBase(_BetaGenerated):
    """I_F(x/q)(a, b) over the power base F(z) = z^p on (0, 1): GB1 (McDonald 1984).

    Subclasses are frozen dataclasses of positive fields among a, b, p
    and q, and declare those they fix at 1 as class attributes.  The
    location is 0 and the scale q.  In z = x/q, log z is
    log1p(-(1 - z)) above 1/2, where 1 - z is exact, log F = p log z,
    and log S is log1p(-z^p) where z^p <= 1/2 and log(-expm1(p log z))
    above, so S keeps its digits as x -> q.  pdf is 0 and logpdf -inf
    at x <= 0 and x >= q, whatever the endpoint exponents
    (a p - 1, b - 1).
    """

    location = 0.0

    def __post_init__(self):
        _require("positive", **{f.name: getattr(self, f.name) for f in fields(self)})

    @property
    def scale(self):
        return self.q

    @property
    def support(self):
        return (0.0, self.q)

    def _endpoint_singular(self):
        return (self.a * self.p - 1.0, self.b - 1.0)

    @staticmethod
    def _log_z(z):
        zs = np.clip(z, 0.0, 1.0)
        with np.errstate(divide="ignore"):
            return np.where(zs > 0.5, np.log1p(-(1.0 - zs)), np.log(zs))

    def _log_base(self, z, log_c):
        log_f = log_c + np.log(self.p) + (self.p - 1.0) * self._log_z(z)
        return np.where((z <= 0.0) | (z >= 1.0), -np.inf, log_f)

    def _log_base_slope(self, z):
        return self._log_base(z, 0.0), (self.p - 1.0) / z

    def _log_tails(self, z):
        log_f = self.p * self._log_z(z)
        with np.errstate(divide="ignore"):
            return log_f, np.where(log_f <= -_LOG2, np.log1p(-np.exp(log_f)), np.log(-np.expm1(log_f)))

    def _base_quantile(self, log_p, upper):
        if upper:
            log_p = np.log1p(-np.exp(log_p))
        return np.exp(log_p / self.p)


@dataclass(frozen=True)
class GB1(_PowerBase):
    """Generalized beta of the first kind: GB1(a, b, p, q) on (0, q).

    GB1(a, b, 1, 1) is Beta(a, b); GB1(1, b, p, 1) is Kumaraswamy(p, b).
    """

    a: float
    b: float
    p: float
    q: float


@dataclass(frozen=True)
class Beta(_PowerBase):
    """Beta distribution on (0, 1) with shape parameters a, b: GB1(a, b, 1, 1)."""

    a: float
    b: float

    p = q = 1.0


@dataclass(frozen=True)
class Kumaraswamy(_PowerBase):
    """Kumaraswamy distribution: cdf 1 - (1 - x^p)^b on (0, 1), GB1(1, b, p, 1)."""

    p: float
    b: float

    a = q = 1.0
