"""Independent oracle for beta-generated laws on closed-form bases.

A beta-generated law over a base with cdf F and survival S = 1 - F has
cdf I_F(a, b) and survival I_S(b, a).  This module recomputes both, and
their logs, with mpmath's incomplete beta at 50 significant digits, on
the bases whose F and S have closed forms:

``"bsn1"``       the skew-normal at lam = 1: F = Phi(z)^2, S = Phi(-z) (1 + Phi(z));
``"bsn-1"``      the skew-normal at lam = -1: F = Phi(z) (1 + Phi(-z)), S = Phi(-z)^2;
``"normal"``     Phi, the base of BetaNormal and of BSN at lam = 0;
``"half_normal"`` erf(x / sqrt 2) and erfc(x / sqrt 2), the base of
                 BetaHalfNormal (x > 0).

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
    raise ValueError(f"unknown base {base!r}")


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
