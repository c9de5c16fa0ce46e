"""Independent oracle for beta-generated laws on closed-form bases.

A beta-generated law over a base with cdf F and survival S = 1 - F has
cdf I_F(a, b) and survival I_S(b, a).  This module recomputes both, and
their logs, with mpmath's incomplete beta at 50 significant digits, on
the bases whose F and S have closed forms:

``"bsn1"``       the skew-normal at lam = 1: F = Phi(z)^2, S = Phi(-z) (1 + Phi(z));
``"bsn-1"``      the skew-normal at lam = -1: F = Phi(z) (1 + Phi(-z)), S = Phi(-z)^2;
``"normal"``     Phi, the base of BetaNormal and of BSN at lam = 0;
``"half_normal"`` erf(x / sqrt 2) and erfc(x / sqrt 2), the base of
                 BetaHalfNormal (x > 0);
``"bsn0.5"``     the skew-normal at lam = 1/2, from Owen's T as a positive
                 integral: F = (1/pi) int_lam^inf e^(-(1 + t^2) x^2 / 2)
                 / (1 + t^2) dt at x <= 0, S = Phi(-x) + 2 T(x, lam) at x > 0;
``"power0.5"``   F = x^(1/2) on (0, 1), the base of Kumaraswamy(0.5, b).

F and S are each formed from their own closed form, never as 1 minus the
other, and mpmath's exponent range has no underflow, so both tails keep
their digits however far out x is.  It imports nothing from betasn, so
it can judge the library's one beta-generated composition.
"""

import mpmath as mp

DPS = 50


def base_tails(base, x):
    """(F, S) of the base at x, as mpmath numbers at the working precision."""
    x = mp.mpf(x)
    lo, hi = mp.ncdf(x), mp.ncdf(-x)
    if base == "bsn1":
        return lo * lo, hi * (1 + lo)
    if base == "bsn-1":
        return lo * (1 + hi), hi * hi
    if base == "normal":
        return lo, hi
    if base == "half_normal":
        if x <= 0:
            return mp.mpf(0), mp.mpf(1)
        return mp.erf(x / mp.sqrt(2)), mp.erfc(x / mp.sqrt(2))
    if base == "bsn0.5":
        return _sn_tails(mp.mpf(1) / 2, x)
    if base == "power0.5":
        f = mp.sqrt(min(max(x, 0), 1))
        return f, 1 - f
    raise ValueError(f"unknown base {base!r}")


def _sn_tails(lam, x):
    """(F, S) of SN(0, 1, lam), lam > 0, each tail from a positive integral.

    Both integrands decay on the scale 1/x^2 from one end, so the
    integration interval is cut at geometric multiples of that scale.
    """
    scale = 1 / max(x * x, 1)
    cuts = [k * scale for k in (0, 1, 4, 16, 64, 256)]
    if x <= 0:
        # the integrand at t = lam + u, with e^(-(1 + lam^2) x^2 / 2) taken out
        g = lambda u: mp.exp(-(2 * lam * u + u * u) * x * x / 2) / (1 + (lam + u) ** 2)
        f = mp.exp(-(1 + lam * lam) * x * x / 2) * mp.quad(g, cuts + [mp.inf]) / mp.pi
        return f, 1 - f
    h = lambda t: mp.exp(-x * x * t * t / 2) / (1 + t * t)
    owen = mp.exp(-x * x / 2) * mp.quad(h, [c for c in cuts if c < lam] + [lam]) / (2 * mp.pi)
    s = mp.ncdf(-x) + 2 * owen
    return 1 - s, s


def _tails(base, a, b, x):
    """(cdf, sf, log cdf, log sf), each from the smaller of F and S.

    Far out F or S rounds to 1 even at 50 digits, so the tail whose own
    argument is above 1/2 is taken as 1 minus the other, and its log as
    log1p of minus the other.
    """
    big_f, big_s = base_tails(base, x)
    a, b = mp.mpf(a), mp.mpf(b)
    if big_f <= big_s:
        low = mp.betainc(a, b, 0, big_f, regularized=True)
        return low, 1 - low, _log(low), mp.log1p(-low)
    high = mp.betainc(b, a, 0, big_s, regularized=True)
    return 1 - high, high, mp.log1p(-high), _log(high)


def _log(v):
    return mp.log(v) if v > 0 else mp.ninf


def cdf_sf(base, a, b, x):
    """(cdf, sf) of the beta-generated law with shapes a, b over base at x, as floats."""
    with mp.workdps(DPS):
        return tuple(float(v) for v in _tails(base, a, b, x)[:2])


def logcdf_logsf(base, a, b, x):
    """(log cdf, log sf) at x, as floats; -inf where a tail is exactly 0."""
    with mp.workdps(DPS):
        return tuple(float(v) for v in _tails(base, a, b, x)[2:])
