"""Skew-normal distribution.

Density (2/psi) phi(z) Phi(lam z) with z = (x - xi)/psi.  The
distribution function is Phi(z) - 2 T(z, lam) with T Owen's function.

That formula cancels catastrophically in the short tail (z << 0 with
lam > 0, and the mirror image): both terms approach Phi(z) while their
difference is orders of magnitude smaller.  Where cancellation eats the
value, the cdf is recomputed as a log-space tail integral, so cdf and
logcdf keep relative accuracy over the whole line.  The beta-generated
composition raises this cdf to fractional powers, which is why relative
(not just absolute) accuracy matters here.

The quantile inverts that logcdf: for q <= 1/2 it solves
log F(z) = log q by bracketed Newton, and above 1/2 it reflects through
SN(-lam) at 1 - q, so both tails are solved on their own side and keep
the cdf's relative accuracy.  Every BSN quantile and draw runs through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Distribution, _quantile_domain
from .quadrature import _NODES, _WEIGHTS_K
from .special import (
    _bracketed_newton,
    norm_cdf,
    norm_logcdf,
    norm_logpdf,
    norm_pdf,
    norm_quantile,
    owen_t,
)

__all__ = ["Normal", "SkewNormal", "sn_neg_closure_check"]

_LOG2 = np.log(2.0)
_TINY = np.nextafter(0.0, 1.0)


@dataclass(frozen=True)
class Normal(Distribution):
    """Gaussian with mean mu and standard deviation sigma."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive and finite")
        if not np.isfinite(self.mu):
            raise ValueError("mu must be finite")

    @property
    def location(self):
        return self.mu

    @property
    def scale(self):
        return self.sigma

    def _z(self, x):
        return (np.asarray(x, dtype=float) - self.mu) / self.sigma

    def pdf(self, x):
        return norm_pdf(self._z(x)) / self.sigma

    def logpdf(self, x):
        return norm_logpdf(self._z(x)) - np.log(self.sigma)

    def cdf(self, x):
        return norm_cdf(self._z(x))

    def quantile(self, q):
        q = _quantile_domain(q)
        out = self.mu + self.sigma * norm_quantile(q)
        return out if q.ndim else float(out)


def _tail_logcdf(z, lam):
    """log F(z; lam) on the left tail, by quadrature in log space.

    Integrates 2 phi(t) Phi(lam t) over [z - W, z] in log space.  The
    window W is sized from the local decay rate of the integrand so that
    the omitted mass is below e^-46 relative; eight 15-point panels then
    resolve the integral to ~1e-13 relative.  Only called where the
    direct formula has already lost most of its digits (cancellation for
    lam > 0) or underflowed outright (very negative z, any lam).
    """
    z = np.asarray(z, dtype=float)
    log_g_z = _LOG2 + norm_logpdf(z) + norm_logcdf(lam * z)
    # local log-derivative of the integrand: -t + lam * hazard(lam t)
    hazard = np.exp(norm_logpdf(lam * z) - norm_logcdf(lam * z))
    rate = np.maximum(-z + lam * hazard, 1e-2)
    width = 46.0 / rate

    total = np.zeros_like(z)
    panel_edges = np.linspace(0.0, 1.0, 9)
    for k in range(8):
        a = z - width * panel_edges[k + 1]
        b = z - width * panel_edges[k]
        center = 0.5 * (a + b)
        half = 0.5 * (b - a)
        t = center[None, :] + half[None, :] * _NODES[:, None]
        rel = np.exp(_LOG2 + norm_logpdf(t) + norm_logcdf(lam * t) - log_g_z[None, :])
        total += half * (_WEIGHTS_K @ rel)
    return log_g_z + np.log(total)


def _cdf_left(z, lam):
    """F(z; lam) for z <= 0, with the cancellation-prone region repaired."""
    z = np.asarray(z, dtype=float)
    base = norm_cdf(z) - 2.0 * owen_t(z, lam)
    if lam <= 0.0:
        # T(z, lam) <= 0 here, so the subtraction only ever adds mass
        return np.clip(base, 0.0, 1.0)
    base = np.clip(base, 0.0, 1.0)
    # <= so the repair still fires once norm_cdf itself underflows to 0
    bad = base <= 1e-4 * norm_cdf(z)
    if np.any(bad):
        base = base.copy() if base.ndim else np.atleast_1d(base.copy())
        zb = np.atleast_1d(z)[np.atleast_1d(bad)]
        base[np.atleast_1d(bad)] = np.exp(_tail_logcdf(zb, lam))
        if z.ndim == 0:
            return float(base[0])
    return base


def _logcdf_left(z, lam):
    """log F(z; lam) for z <= 0."""
    z = np.asarray(z, dtype=float)
    base = np.clip(norm_cdf(z) - 2.0 * owen_t(z, lam), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        out = np.log(base)
    if lam > 0.0:
        # cancellation region, plus outright underflow at the far end
        bad = base <= 1e-4 * norm_cdf(z)
    else:
        # no cancellation for lam <= 0, but the value still underflows
        # while its log stays representable
        bad = base < 1e-290
    if np.any(bad):
        out = np.atleast_1d(out.copy())
        zb = np.atleast_1d(z)[np.atleast_1d(bad)]
        out[np.atleast_1d(bad)] = _tail_logcdf(zb, lam)
        if z.ndim == 0:
            return float(out[0])
    return out


def _split(z, on_left, on_right):
    """Evaluate on_left where z <= 0 and on_right(-z) mirrored, elementwise."""
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(zz)
    neg = zz <= 0.0
    if np.any(neg):
        out[neg] = on_left(zz[neg])
    if np.any(~neg):
        out[~neg] = on_right(-zz[~neg])
    return out if np.ndim(z) else float(out[0])


def _std_logcdf(z, lam):
    """log F(z; lam) on the whole line."""
    return _split(
        z,
        lambda zn: _logcdf_left(zn, lam),
        lambda zm: np.log1p(-_cdf_left(zm, -lam)),
    )


def _std_quantile_lower(p, lam):
    """z with F(z; lam) = p for 0 < p <= 1/2, by bracketed Newton on log F.

    F <= Phi and F >= 2 Phi - 1 for lam >= 0, and Phi <= F <= 2 Phi for
    lam < 0, bracket the root.  The density is log-concave, so log F is
    concave, and Newton steps from the lower end of that bracket climb to
    the root without overshooting.
    """
    if lam >= 0.0:
        lo = norm_quantile(p)
        hi = norm_quantile(0.5 * (1.0 + p))
    else:
        lo = norm_quantile(np.maximum(0.5 * p, _TINY))
        hi = norm_quantile(p)
    log_p = np.log(p)

    def log_gap(z, idx):
        log_f = _std_logcdf(z, lam)
        log_dens = _LOG2 + norm_logpdf(z) + norm_logcdf(lam * z)
        return log_f - log_p[idx], np.exp(log_dens - log_f)

    return _bracketed_newton(log_gap, lo, lo, hi)


@dataclass(frozen=True)
class SkewNormal(Distribution):
    """Skew-normal with location xi, scale psi, and shape lam."""

    xi: float = 0.0
    psi: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.psi) and self.psi > 0.0):
            raise ValueError("psi must be positive and finite")
        if not (np.isfinite(self.xi) and np.isfinite(self.lam)):
            raise ValueError("xi and lam must be finite")

    @property
    def location(self):
        return self.xi

    @property
    def scale(self):
        return self.psi

    @property
    def delta(self):
        return self.lam / np.sqrt(1.0 + self.lam * self.lam)

    def _z(self, x):
        return (np.asarray(x, dtype=float) - self.xi) / self.psi

    def logpdf(self, x):
        z = self._z(x)
        return _LOG2 + norm_logpdf(z) + norm_logcdf(self.lam * z) - np.log(self.psi)

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def cdf(self, x):
        return _split(
            self._z(x),
            lambda zn: _cdf_left(zn, self.lam),
            lambda zm: 1.0 - _cdf_left(zm, -self.lam),
        )

    def sf(self, x):
        """Survival function, relatively accurate in the right tail."""
        return _split(
            self._z(x),
            lambda zn: 1.0 - _cdf_left(zn, self.lam),
            lambda zm: _cdf_left(zm, -self.lam),
        )

    def logcdf(self, x):
        return _std_logcdf(self._z(x), self.lam)

    def logsf(self, x):
        return _split(
            self._z(x),
            lambda zn: np.log1p(-_cdf_left(zn, self.lam)),
            lambda zm: _logcdf_left(zm, -self.lam),
        )

    def quantile(self, q):
        """Inverse cdf, solved in log space on q's own side of 1/2.

        For q <= 1/2 this solves log F(z; lam) = log q.  For q > 1/2 it
        returns -z of SN(-lam) at 1 - q, which is exact there, so the
        upper tail keeps the same relative accuracy as the lower one.
        """
        q_in = _quantile_domain(q)
        q1 = np.atleast_1d(q_in)
        if self.lam == 0.0:
            # shape zero is exactly normal; skip the root finder
            z = norm_quantile(q1)
        else:
            z = np.empty_like(q1)
            low = q1 <= 0.5
            z[low] = _std_quantile_lower(q1[low], self.lam)
            z[~low] = -_std_quantile_lower(1.0 - q1[~low], -self.lam)
        res = self.xi + self.psi * z
        return res if q_in.ndim else float(res[0])

    def draw(self, rng, n):
        """Draw n values from an existing generator.

        Uses the conditioning representation delta|U| + sqrt(1-delta^2)V,
        so each variate consumes exactly two standard normals.
        """
        u = rng.standard_normal(int(n))
        v = rng.standard_normal(int(n))
        d = self.delta
        z = d * np.abs(u) + np.sqrt(1.0 - d * d) * v
        return self.xi + self.psi * z

    def sample(self, n, seed):
        return self.draw(np.random.default_rng(seed), n)


def sn_neg_closure_check(lam, tol=1e-13):
    """Check that -X mirrors the shape parameter: pdf(-x; -lam) == pdf(x; lam)."""
    x = np.linspace(-8.0, 8.0, 401)
    direct = SkewNormal(lam=lam).pdf(x)
    mirrored = SkewNormal(lam=-lam).pdf(-x)
    return bool(np.max(np.abs(direct - mirrored)) <= tol)
