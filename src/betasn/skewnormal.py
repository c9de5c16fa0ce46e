"""Skew-normal distribution.

Density (2/psi) phi(z) Phi(lam z) with z = (x - xi)/psi.  The
distribution function is Phi(z) - 2 T(z, lam) with T Owen's function.

That formula cancels catastrophically in the short tail (z << 0 with
lam > 0, and the mirror image): both terms approach Phi(z) while their
difference is orders of magnitude smaller.  Two 20-point Gauss-Laguerre
rules keep cdf and logcdf relatively accurate there.  The shape rule
integrates Owen's derivative in a, F = (1/pi) * integral over a >= lam
of e^(-(1 + a^2) z^2 / 2) / (1 + a^2), a positive integrand that needs
no special function at any node; it serves every lam > 0 point with
lam |z| >= _SHAPE_CUT, where Owen's T is not formed.  The t-space rule
integrates the density over the tail in log space, rescaled by its
local decay rate: the density is twice the power-of-Phi kernel
phi(z) Phi(lam z)^1, so this is the tail rule balakrishnan._log_tail
applies to every such kernel.  It repairs Owen's T where it cancels
nearer z = 0, where the shape integrand's power-law factor defeats its
rule, and the lam <= 0 side once Owen's T underflows.  The beta-generated composition raises this cdf to
fractional powers, which is why relative (not just absolute) accuracy
matters here.

Every value comes from the left side z <= 0, where the helper _left
returns F and log F together, or the one of them asked for; the right
side is mirrored through SN(-lam).  _tails turns that one evaluation
per point into (log F, log S), which serves the beta skew-normal.
_tail forms one side only: SkewNormal's standardized tail read, behind
the cdf, sf, logcdf and logsf of core.LocationScale, and the
quantile's log F.  Normal reads ndtr and log_ndtr on the same surface.

The one-sided quantile _side_quantile, SkewNormal's, solves
log F(z) = log p by bracketed Halley steps, and on the upper side
reflects through SN(-lam), so both tails keep the cdf's relative
accuracy.  It takes log p, so the beta skew-normal's composed route,
which builds its start tables, can pass a latent far below the smallest
double.  Start and bracket come from a cubic-Hermite table of z against
v = -sqrt(-2 log F) (special._hermite_table), built once per shape and
cached, within a few 1e-9 of the root, and beyond its first node from
the tail asymptote.  A solve ends on the step whose successor,
predicted from g'', is below 4 ulp, so nearly every point ends on its
first evaluation.  Where Owen's T cancels to 1e-4 of
Phi(z), below the shape rule's cut, F carries relative noise far above
an ulp, and a root there stops at its first noise-sized step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtri_exp

from .balakrishnan import _log_tail
from .core import _BLOCK, LocationScale, _quantile_domain, _require
from .quadrature import _LAGUERRE_NODES, _LAGUERRE_WEIGHTS
from .special import (
    _bracketed_newton,
    _hermite_start,
    _hermite_table,
    _norm_quantile_log,
    norm_cdf,
    norm_logcdf,
    norm_logpdf,
    norm_pdf,
    norm_quantile,
    owen_t,
)

__all__ = ["Normal", "SkewNormal"]

_LOG2 = np.log(2.0)
_LOG_PI = np.log(np.pi)
# beyond this |z|, z^2 overflows
_Z_SQUARE_MAX = np.sqrt(np.finfo(float).max)


@dataclass(frozen=True)
class Normal(LocationScale):
    """Gaussian with mean mu and standard deviation sigma."""

    mu: float = 0.0
    sigma: float = 1.0

    def pdf(self, x):
        return norm_pdf(self._z(x)) / self.sigma

    def _std_logpdf(self, z):
        return norm_logpdf(z) - np.log(self.sigma)

    def _std_tail(self, z, upper, log):
        z = -z if upper else z
        return norm_logcdf(z) if log else norm_cdf(z)

    def quantile(self, q):
        # one ndtri over the whole range, not the split of LocationScale
        q = _quantile_domain(q)
        out = self.mu + self.sigma * norm_quantile(q)
        return out if q.ndim else float(out)


def _log_density(z, log_phi_lz):
    """log of 2 phi(z) Phi(lam z), given log Phi(lam z)."""
    return _LOG2 + norm_logpdf(z) + log_phi_lz


def _log_density_slope(z, lam):
    """(log f, d log f / dz) of SN(0, 1, lam) at z: the slope is -z + lam H(lam z), H the normal hazard."""
    log_phi_lz = norm_logcdf(lam * z)
    return _log_density(z, log_phi_lz), -z + lam * np.exp(norm_logpdf(lam * z) - log_phi_lz)


def _log_density_limit(z, log_dens):
    """log_dens, with -inf where it is NaN at a z that is not.

    Only an infinite term against an opposite one makes such a NaN:
    0 * inf in lam z at lam = 0, a beta-kernel power of F or S that
    overflowed against a density that underflowed, both far out where
    the density is 0, or a power of F or S that is infinite at an end
    of a bounded support, where the density is set to 0.
    """
    nan = np.isnan(log_dens)
    if not nan.any():
        return log_dens
    return np.where(nan & ~np.isnan(z), -np.inf, log_dens)[()]


# Routing of the lam > 0 side by lam |z|.  From _SHAPE_CUT on, the shape
# rule alone serves a point and Owen's T is never formed, so no point
# there carries Owen's T's cancellation noise (at lam = 1 up to 3e-11
# relative near z = -3.7, where it cancels to 1e-4 of Phi(z)).  Below
# the cut Owen's T serves, and the t-space rule repairs the points where
# it cancels: near z = 0 at large lam the factor 1/(1 + a^2) has a
# power-law tail the shape rule cannot follow (at lam 50 to 1e6, against
# a 100-digit closed-form oracle, it was off by up to 3e13 ulp of log F
# at lam |z| < 0.5, by 1e4 ulp on [1, 1.5), and by at most 1 ulp from
# 1.6 on).  On 2,500 points, one core, Owen's T took 150-210 ns/pt, the
# shape rule 260-280 and the t-space rule 1,000-1,200.  Built by one
# matrix product, the shape rule's blocks take 0.7 of the time of the
# former ten elementwise passes (110 against 155 ns/pt in one run).
_SHAPE_CUT = 2.0
# 1, s and s^2 at the shape rule's nodes s, one row per node
_SHAPE_POWERS = np.stack(
    [np.ones_like(_LAGUERRE_NODES), _LAGUERRE_NODES, _LAGUERRE_NODES * _LAGUERRE_NODES], axis=1
)


def _shape_logcdf(z, lam):
    """log F(z; lam) for lam > 0 and z < 0, by a Gauss-Laguerre rule over the shape.

    Owen's dT(h, a)/da = e^(-h^2 (1 + a^2)/2) / (2 pi (1 + a^2)) and
    2 T(z, inf) = Phi(z) for z < 0 turn Phi(z) - 2 T(z, lam) into
    (1/pi) times the integral over a >= lam of
    e^(-(1 + a^2) z^2 / 2) / (1 + a^2), whose integrand is positive, so
    nothing cancels and no node needs a special function.  With
    a = lam + s/r, r the slope plus four times the root curvature of the
    log integrand at a = lam (the recipe of quadrature._log_tail_mass),
    the 20-node rule sums
    e^(s (1 - lam z^2 / r) - z^2 s^2 / (2 r^2)) / (1 + a^2).  Per point
    the exponent and 1 + a^2 are quadratics in s, so one matrix product
    of _SHAPE_POWERS with their coefficients builds both (20, n) blocks.
    r is q + lam z^2, so 1 - lam z^2 / r is q / r and does not cancel.
    The sum runs down each column in node order, so a point's value
    does not depend on the others, nor on whether there are any.
    Accurate to a few ulp of log F from lam |z| >= _SHAPE_CUT (checked
    against an mpmath oracle for lam from 0.02 to 1e6); nearer z = 0 the
    power-law factor defeats the rule.
    """
    z2 = z * z
    s2 = 1.0 + lam * lam
    q = 4.0 * np.sqrt(np.maximum(z2 + 2.0 * (1.0 - lam * lam) / (s2 * s2), 0.0))
    q += 2.0 * lam / s2
    # (1 + lam^2) z^2 / 2 >= lam z^2, so where either overflows log F is
    # below -1.8e308: inv is 0 there, and the value the limit -inf
    with np.errstate(over="ignore"):
        inv = 1.0 / (q + lam * z2)
    # coefficients of 1, s, s^2 in the exponent, then in 1 + a^2
    c = np.empty((2, 3, z.size))
    c[0, 0] = 0.0
    np.multiply(q, inv, out=c[0, 1])
    np.multiply(inv, inv, out=c[1, 2])
    np.multiply(c[1, 2], -0.5 * z2, out=c[0, 2])
    c[1, 0] = s2
    np.multiply(inv, 2.0 * lam, out=c[1, 1])
    h, d = _SHAPE_POWERS @ c
    np.exp(h, out=h)
    h /= d
    h *= _LAGUERRE_WEIGHTS[:, None]
    # one row after another, as h.sum(axis=0) adds two or more columns
    # but not a lone one, which it sums pairwise
    total = h[0]
    for row in h[1:]:
        total += row
    with np.errstate(over="ignore", divide="ignore"):
        return -_LOG_PI - 0.5 * s2 * z2 + np.log(total * inv)


def _left(z, lam, log=None):
    """(F, log F) of SN(0, 1, lam) at a 1-d array z <= 0; only F if log is False, log F if True.

    Each point takes one route.  Past |z| ~ 1.3e154, where z^2
    overflows and log F < -9e307, and at z = -inf, F is 0.  On the
    lam > 0 side the shape rule serves every point with
    lam |z| >= _SHAPE_CUT.  The rest take Phi(z) - 2 T(z, lam), and the
    t-space rule where that cannot resolve them: on the lam > 0 side
    where cancellation leaves under 1e-4 of Phi(z) (or Phi itself
    underflowed), and on the lam <= 0 side, where T only adds mass,
    where F drops below 1e-290 while its log stays representable.  The
    t-space rule is balakrishnan._log_tail on the kernel
    phi(t) Phi(lam t)^1, times 2: one 20-point Gauss-Laguerre rule
    rescaled by the slope and curvature of the log density at z, whose
    curvature term stretches the nearly parabolic log density near the
    switch at large lam over several nodes.  It resolves F to a few ulp
    of log F (checked against an mpmath oracle for lam from 0.02 to
    1e6), at 22 norm_logcdf evaluations per point.  F is exp(log F)
    wherever a rule serves; a form not asked for is not formed.
    """
    # not z >= -_Z_SQUARE_MAX, which would send a NaN z to F = 0
    live = ~(z < -_Z_SQUARE_MAX)
    shape = live & (lam * z <= -_SHAPE_CUT) if lam > 0.0 else np.zeros_like(live)
    owen = live & ~shape
    whole = owen.all()
    z_owen = z if whole else z[owen]
    phi = norm_cdf(z_owen)
    f_owen = np.clip(phi - 2.0 * owen_t(z_owen, lam), 0.0, 1.0)
    if log is not False:
        with np.errstate(divide="ignore"):
            log_owen = np.log(f_owen)
    # <= so the repair still fires once norm_cdf itself underflows to 0
    bad = f_owen <= 1e-4 * phi if lam > 0.0 else f_owen < 1e-290
    if bad.any():
        repaired = _log_tail(z_owen[bad], lam, 0.0, 1, 0, _LOG2)
        if log is not False:
            log_owen[bad] = repaired
        if log is not True:
            f_owen[bad] = np.exp(repaired)
    if whole:
        return (f_owen, log_owen) if log is None else log_owen if log else f_owen
    if log is False:
        f = np.zeros_like(z)
        f[owen] = f_owen
        if shape.any():
            f[shape] = np.exp(_shape_logcdf(z[shape], lam))
        return f
    log_f = np.full_like(z, -np.inf)
    log_f[owen] = log_owen
    if shape.any():
        log_f[shape] = _shape_logcdf(z[shape], lam)
    if log:
        return log_f
    f = np.exp(log_f)
    f[owen] = f_owen
    return f, log_f


def _tails(z, lam):
    """(log F, log S) of SN(0, 1, lam) at z, shaped like z.

    One left-tail evaluation per point serves both: at z <= 0 the near
    side is F of SN(lam) at z, elsewhere S, as F of SN(-lam) at -z; the
    far side is log1p of minus it.
    """
    z = np.asarray(z, dtype=float)
    zz = z.reshape(-1)
    neg = zz <= 0.0
    near = np.empty_like(zz)
    log_near = np.empty_like(zz)
    for side, sign in ((neg, 1.0), (~neg, -1.0)):
        if side.any():
            near[side], log_near[side] = _left(sign * zz[side], sign * lam)
    far = np.log1p(-near)
    log_f, log_s = np.where(neg, log_near, far), np.where(neg, far, log_near)
    return log_f.reshape(z.shape), log_s.reshape(z.shape)


def _tail(z, lam, upper, log):
    """F, or S if upper, or its log if log, of SN(0, 1, lam) at z, shaped like z.

    The one side of _tails, with the same values: a point whose left-tail
    read is the side asked for forms only that, the others only F and
    its complement.
    """
    z = np.asarray(z, dtype=float)
    zz = z.reshape(-1)
    neg = zz <= 0.0
    out = np.empty_like(zz)
    for side, sign in ((neg, 1.0), (~neg, -1.0)):
        if side.any():
            if (sign < 0.0) == upper:
                out[side] = _left(sign * zz[side], sign * lam, log)
            else:
                f = _left(sign * zz[side], sign * lam, False)
                out[side] = np.log1p(-f) if log else 1.0 - f
    return out.reshape(z.shape)


# Quantile start tables: nodes at z = c sinh(u), c = 1/sqrt(1 + lam^2),
# on u steps of _START_STEP, so their spacing is c near z = 0, where the
# density turns over on that scale, and geometric farther out, where z
# is nearly linear in v = -sqrt(-2 log F) and each node covers a share
# of |v|.  The nodes run from z = -40 c for lam >= 0 (F <= Phi(z), and
# Capitanio's (2010) bound F <= sqrt(2/pi) Phi(s z) / (lam s |z|), keep
# log F there below -800 for every lam), and from -40 for lam < 0
# (F <= 2 Phi), one step past a z where F >= 1/2: with F(0) =
# arctan(1/|lam|) / pi on the lam >= 0 side, F >= 2 Phi - 1 and
# F >= F(0) + Phi - 1/2 there, and F = 2 Phi - F_|lam| >= 2 Phi - F(0)
# on the other.  So every double p in [5e-324, 1/2] falls between two
# nodes.  At this step the interpolant misses the root by at most 6e-9
# relative to max(|z|, 1) over |lam| in [0.05, 1e6]; the miss scales as
# the step to the fourth power.
_START_STEP = 0.04


@lru_cache(maxsize=32)
def _start_table(lam):
    """special._hermite_table of z against v = -sqrt(-2 log F) for F(.; lam).

    One forward pass of log F (through _tail) and the log density at
    the nodes z.  The table drops the nodes whose v stops rising:
    beyond lam ~ 1e13, F just above z = 0 is 1 - S, which rounds in
    steps of an ulp of 1, and to 0 past 1e16.
    """
    c = 1.0 / np.hypot(1.0, lam)
    f0 = np.arctan2(1.0, abs(lam)) / np.pi
    if lam >= 0.0:
        lo, hi = -40.0 * c, min(norm_quantile(0.75), -norm_quantile(f0))
    else:
        lo, hi = -40.0, norm_quantile(0.25 + 0.5 * f0)
    u = np.arange(np.arcsinh(lo / c), np.arcsinh(hi / c) + 2.0 * _START_STEP, _START_STEP)
    z = c * np.sinh(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _hermite_table(z, _tail(z, lam, False, True), _log_density(z, norm_logcdf(lam * z)))


def _start_and_bracket(log_p, lam):
    """(start, lo, hi) for the roots z of log F(z; lam) = log_p, log_p <= log 1/2.

    Start and bracket come from special._hermite_start on
    _start_table(lam).  Below the first node (log F < -800) the start is
    the tail asymptote, 2 Phi(z) for lam < 0 and for lam > 0 Capitanio's
    (2010) sqrt(2/pi) Phi(s z) / (lam s |z|), s = sqrt(1 + lam^2), after
    two fixed-point passes; the bracket runs from F <= e Phi(z), or
    2 e Phi(z) (e covers ndtri_exp's rounding), to the first node.
    """
    table = _start_table(float(lam))
    start, lo, hi, v = _hermite_start(table, log_p)
    far = v < table.v[0]
    if far.any():
        log_p, shift = log_p[far], (_LOG2 if lam < 0.0 else 0.0)
        lo[far], hi[far] = ndtri_exp(log_p - shift - 1.0), table.z[0]
        z = ndtri_exp(log_p - shift)
        if lam > 0.0:
            s = np.hypot(1.0, lam)
            for _ in range(2):
                z = ndtri_exp(log_p - 0.5 * np.log(2.0 / np.pi) + np.log(lam * s * np.abs(z))) / s
        start[far] = z
    return np.clip(start, lo, hi), lo, hi


def _side_quantile(log_p, lam, upper):
    """z with log F(z; lam) = log_p, or log S(z; lam) = log_p if upper, for log_p <= log 1/2.

    The upper side is -z of SN(-lam) on the lower one, which is exact,
    so both tails keep the cdf's relative accuracy.  Bracketed Halley
    steps on log F solve the lower side.  Start and bracket come from
    _start_and_bracket, mostly within a few 1e-9 of the root, so nearly
    every point ends on its first evaluation.
    The steps and the predicted stop use g'' = g' (-z + lam H(lam z) - g')
    of g = log F - log p, with g' = f / F and H the normal hazard.  At
    lam = 0, F is Phi, inverted directly.
    """
    if upper:
        return -_side_quantile(log_p, -lam, False)
    if lam == 0.0:
        return _norm_quantile_log(log_p)
    z, lo, hi = _start_and_bracket(log_p, lam)

    def log_gap(z, idx):
        log_dens, dlog_dens = _log_density_slope(z, lam)
        log_f = _tail(z, lam, False, True)
        dg = np.exp(log_dens - log_f)
        return log_f - log_p[idx], dg, dg * (dlog_dens - dg)

    return _bracketed_newton(log_gap, z, lo, hi)


@dataclass(frozen=True)
class SkewNormal(LocationScale):
    """Skew-normal with location xi, scale psi, and shape lam."""

    xi: float = 0.0
    psi: float = 1.0
    lam: float = 0.0

    _placement = ("xi", "psi")

    def __post_init__(self):
        super().__post_init__()
        _require("finite", lam=self.lam)

    @property
    def delta(self):
        return self.lam / np.sqrt(1.0 + self.lam * self.lam)

    def _std_logpdf(self, z):
        with np.errstate(invalid="ignore"):
            out = _log_density(z, norm_logcdf(self.lam * z)) - np.log(self.psi)
        return _log_density_limit(z, out)

    def _std_tail(self, z, upper, log):
        return _tail(z, self.lam, upper, log)

    def _std_quantile(self, t, upper):
        return _side_quantile(np.log(t), self.lam, upper)

    # SkewNormal's own names for the shared surface, so profiles and the
    # benchmark's traced spans (SkewNormal.quantile, .cdf, ...) attribute
    # skew-normal work to this class
    def cdf(self, x):
        return super().cdf(x)

    def sf(self, x):
        return super().sf(x)

    def logcdf(self, x):
        return super().logcdf(x)

    def logsf(self, x):
        return super().logsf(x)

    def quantile(self, q):
        return super().quantile(q)

    def draw(self, rng, n):
        """Draw n values from an existing generator.

        Uses the conditioning representation delta|U| + sqrt(1-delta^2)V,
        so each variate consumes exactly two standard normals: all n U
        first, then the V.  The V are drawn into one buffer of at most
        core._BLOCK values at a time, which gives the generator's stream
        of a single call, and each block is formed in place in U's array
        (_place).
        """
        n = int(n)
        out = rng.standard_normal(n)
        buf = np.empty(min(n, _BLOCK))
        for lo in range(0, n, _BLOCK):
            self._place(out[lo : lo + _BLOCK], rng.standard_normal(out=buf[: min(_BLOCK, n - lo)]))
        return out

    def _place(self, u, v):
        """The variates of normals u and v, formed in u in place (v is overwritten) and returned.

        Each is xi + psi (delta |u| + c v) with c = sqrt(1 - delta^2), by
        the same operations in the same order at every block size.
        """
        d = self.delta
        np.abs(u, out=u)
        u *= d
        v *= np.sqrt(1.0 - d * d)
        u += v
        u *= self.psi
        u += self.xi
        return u
