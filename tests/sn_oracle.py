"""Independent oracle for the skew-normal cdf deep in its tails.

F(z; lam) = integral of g(t) = 2 phi(t) Phi(lam t) over (-inf, z].  This
module recomputes log F with mpmath only and imports nothing from betasn,
so it can judge the library's log-space tail repair.  Two routes:

``tail_logcdf`` (any z <= 0, any lam)
    In the short tail the mass of g sits within about
    h = 1 / ((|z| + 1)(1 + lam^2)) of z, so a quadrature over a fixed
    window misses it: [-inf, z - 2, z] was off by 6e-4 at lam = 3, z = -4.
    The substitution t = z - h u turns the integral into
    h g(z) * integral over u in [0, inf) of g(z - h u) / g(z), whose
    integrand starts at 1 and decays on a scale of order 1.  It is
    integrated by tanh-sinh with breakpoints at u = 1, 4, 16, 64.

``closed_form_logcdf`` (moderate z)
    log(Phi(z) - 2 T(z, lam)), with Owen's T by quadrature of its
    defining integral.  The difference cancels to F, so the working
    precision must exceed -log10 F by the digits wanted; this route is
    only affordable where F is not too small, and it checks the first.
"""

import mpmath as mp

BREAKPOINTS = (0, 1, 4, 16, 64, mp.inf)


def _log_density(t, lam):
    return mp.log(2 * mp.npdf(t) * mp.ncdf(lam * t))


def tail_logcdf(z, lam, dps=20):
    """log F(z; lam) for z <= 0 by the rescaled tail integral."""
    with mp.workdps(dps):
        z, lam = mp.mpf(z), mp.mpf(lam)
        h = 1 / ((abs(z) + 1) * (1 + lam**2))
        at_z = _log_density(z, lam)
        rest = mp.quad(lambda u: mp.exp(_log_density(z - h * u, lam) - at_z), BREAKPOINTS)
        return float(at_z + mp.log(h * rest))


def closed_form_logcdf(z, lam, dps=100):
    """log(Phi(z) - 2 T(z, lam)) at dps significant digits."""
    with mp.workdps(dps):
        z, lam = mp.mpf(z), mp.mpf(lam)
        owen = mp.quad(lambda x: mp.exp(-z * z * (1 + x * x) / 2) / (1 + x * x), [0, lam])
        return float(mp.log(mp.ncdf(z) - owen / mp.pi))
