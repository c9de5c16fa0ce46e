"""Deterministic adaptive quadrature.

A Gauss-Kronrod 7/15 rule on 8 starting intervals, refined in sweeps.
All integrands must accept numpy arrays (they are evaluated on batches
of nodes).  An integrand may be vector-valued: given nodes x it returns
shape x.shape (a scalar integral, returned as a Python float) or
(m,) + x.shape (m integrals over the same nodes, returned as an array of
shape (m,)), such as the moment orders of one density or the mgf at
several t.  Component k has its own tolerance
max(abs_tol, rel_tol * |I_k|).  Each sweep bisects, in one batch of
nodes, every interval whose error estimate exceeds its share
tol_k / n_intervals of some component that has not yet converged;
``max_subdivisions`` caps the number of bisected intervals.  Intervals
stay in a fixed order (kept ones, then left halves, then right halves),
so results are fully deterministic, which the reporting layer relies on.

Line integrals are truncated at ``spec.truncation`` standard units.
Integrals over the unit interval can apply power substitutions
z = u^k near 0 and z = 1 - u^k near 1, with k matched to the endpoint
exponent, to soften integrable endpoint singularities of beta-type
integrands.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "QuadratureSpec",
    "IntegrationError",
    "DEFAULT_SPEC",
    "integrate_line",
    "integrate_unit",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and truncation settings shared by all quadrature work.

    truncation is the half-width of the window used for integrals over
    the real line.  The default of 16 keeps the truncation loss of the
    heaviest-tailed densities in the family (beta-type exponents down to
    0.25, giving exp(-x^2/8) tails) below 1e-13, comfortably inside the
    5e-9 normalization budget; a window of 12 would already lose ~1e-8
    there.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    truncation: float = 16.0
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (np.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise ValueError("abs_tol must be positive and finite")
        if not (np.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive and finite")
        if not (np.isfinite(self.truncation) and self.truncation >= 8.0):
            raise ValueError("truncation must be at least 8 standard units")
        if int(self.max_subdivisions) < 10:
            raise ValueError("max_subdivisions must be at least 10")

    @classmethod
    def from_mapping(cls, mapping):
        """Build a spec from a key/value mapping, e.g. a parsed config file."""
        known = {f.name for f in fields(cls)}
        kwargs = {}
        for key, value in mapping.items():
            if key not in known:
                raise ValueError(f"unknown quadrature setting {key!r}")
            kwargs[key] = int(value) if key == "max_subdivisions" else float(value)
        return cls(**kwargs)


DEFAULT_SPEC = QuadratureSpec()


class IntegrationError(RuntimeError):
    """Raised when the subdivision budget is exhausted before convergence.

    Carries the best available estimate and its error bound as floats; for
    a vector-valued integrand, those of the component furthest over its
    tolerance.
    """

    def __init__(self, message, estimate, error_estimate):
        super().__init__(
            f"{message} (best estimate {estimate!r}, error estimate {error_estimate!r})"
        )
        self.estimate = estimate
        self.error_estimate = error_estimate


# Kronrod 15-point abscissae (positive half) and weights, with the
# embedded Gauss 7-point weights on the shared nodes.
_XK = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
    ]
)
_WK_HALF = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
    ]
)
_WK_CENTER = 0.209482141084727828012999174891714
_WG_HALF = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
    ]
)
_WG_CENTER = 0.417959183673469387755102040816327

_NODES = np.concatenate([-_XK, [0.0], _XK[::-1]])
_WEIGHTS_K = np.concatenate([_WK_HALF, [_WK_CENTER], _WK_HALF[::-1]])
# Gauss nodes sit at every other Kronrod node: indices 1, 3, 5, 7, 9, 11, 13.
_GAUSS_IDX = np.arange(1, 14, 2)
_WEIGHTS_G = np.concatenate([_WG_HALF, [_WG_CENTER], _WG_HALF[::-1]])


# 20-point Gauss-Laguerre rule for integrals of e^-s f(s) over [0, inf):
# abscissae (zeros of L_20) and weights, to 17 significant digits.
_LAGUERRE_NODES = np.array(
    [
        0.070539889691988753,
        0.37212681800161144,
        0.91658210248327356,
        1.7073065310283439,
        2.7491992553094321,
        4.0489253138508869,
        5.6151749708616165,
        7.4590174536710633,
        9.5943928695810968,
        12.038802546964316,
        14.81429344263074,
        17.948895520519376,
        21.478788240285011,
        25.451702793186906,
        29.932554631700612,
        35.013434240479,
        40.833057056728571,
        47.619994047346502,
        55.810795750063899,
        66.524416525615754,
    ]
)
_LAGUERRE_WEIGHTS = np.array(
    [
        0.16874680185111386,
        0.29125436200606828,
        0.26668610286700129,
        0.16600245326950684,
        0.074826064668792371,
        0.024964417309283221,
        0.0062025508445722368,
        0.0011449623864769082,
        0.00015574177302781197,
        1.5401440865224916e-5,
        1.0864863665179824e-6,
        5.3301209095567148e-8,
        1.757981179050582e-9,
        3.7255024025123209e-11,
        4.7675292515781905e-13,
        3.3728442433624384e-15,
        1.1550143395003988e-17,
        1.5395221405823436e-20,
        5.2864427255691578e-24,
        1.6564566124990233e-28,
    ]
)


def _log_tail_mass(log_g, z, log_g_z, slope, curv):
    """log of the integral of a log-concave g over (-inf, z], by one Gauss-Laguerre rule.

    log_g(t) is log g at an array of points, log_g_z is log g(z), and
    slope and curv are d log g / dz and -d2 log g / dz2 at z.  With the
    slope floored at 1e-2, r = slope + 4 sqrt(curv) and t = z - s/r, the
    integral is g(z)/r times the integral over s >= 0 of e^-s h(s),
    h(s) = e^(log g(t) - log g(z) + s).  g is log-concave, so h grows no
    faster than e^(s (1 - slope/r)); deep in the tail, where the slope
    dominates, h is nearly flat, and where log g is nearly a parabola
    the curvature term stretches its decay in s over several nodes.
    Costs one log_g call on a (20,) + z.shape block.
    """
    rate = np.maximum(slope, 1e-2) + 4.0 * np.sqrt(curv)
    s = _LAGUERRE_NODES[:, None]
    rel = np.exp(log_g(z - s / rate) - log_g_z + s)
    return log_g_z - np.log(rate) + np.log(_LAGUERRE_WEIGHTS @ rel)


def _gk15(f, a, b):
    """Apply the 7/15 pair on each interval [a_i, b_i]. Returns (I, err).

    f may return shape x.shape or (m,) + x.shape; I and err then have
    shape (n,) or (m, n) for n intervals.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = center[None, :] + half[None, :] * _NODES[:, None]
    y = np.asarray(f(x), dtype=float)
    if y.shape[-2:] != x.shape or y.ndim > 3:
        raise TypeError("integrand must be vectorized (return x.shape or (m,) + x.shape)")
    k15 = half * (_WEIGHTS_K @ y)
    g7 = half * (_WEIGHTS_G @ y[..., _GAUSS_IDX, :])
    return k15, np.abs(k15 - g7)


def _fail(message, vals, errs, spec):
    """Raise IntegrationError for the component furthest over its tolerance."""
    total = np.nansum(vals, axis=1)
    err = np.where(np.isfinite(vals).all(axis=1), errs.sum(axis=1), np.inf)
    tol = np.fmax(spec.abs_tol, spec.rel_tol * np.abs(total))
    k = int(np.argmax(err / tol))
    raise IntegrationError(message, float(total[k]), float(err[k]))


def _adaptive(f, lo, hi, spec):
    """Integral of f over [lo, hi] by sweeps of bisection (see the module doc)."""
    span = hi - lo
    edges = np.linspace(lo, hi, 9)
    left, right = edges[:-1], edges[1:]
    vals, errs = _gk15(f, left, right)
    scalar = vals.ndim == 1
    vals, errs = np.atleast_2d(vals), np.atleast_2d(errs)
    if not np.all(np.isfinite(vals)):
        _fail("integrand produced non-finite values", vals, errs, spec)

    splits = 0
    while True:
        total = vals.sum(axis=1)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
        open_ = errs.sum(axis=1) > tol
        if not open_.any():
            return float(total[0]) if scalar else total
        # every interval above its share of an open component's tolerance;
        # an open component always has at least one
        split = np.any(errs[open_] > (tol[open_] / left.size)[:, None], axis=0)
        n_split = int(np.count_nonzero(split))
        if splits + n_split > spec.max_subdivisions:
            _fail(f"no convergence after {splits} subdivisions", vals, errs, spec)
        a, b = left[split], right[split]
        if np.any((b - a) < 1e-15 * span):
            _fail("interval too small to refine further", vals, errs, spec)
        mid = 0.5 * (a + b)
        new_vals, new_errs = _gk15(f, np.concatenate([a, mid]), np.concatenate([mid, b]))
        new_vals, new_errs = np.atleast_2d(new_vals), np.atleast_2d(new_errs)
        if not np.all(np.isfinite(new_vals)):
            _fail("integrand produced non-finite values", vals, errs, spec)
        keep = ~split
        # fixed order: kept intervals, then left halves, then right halves
        left = np.concatenate([left[keep], a, mid])
        right = np.concatenate([right[keep], mid, b])
        vals = np.concatenate([vals[:, keep], new_vals], axis=1)
        errs = np.concatenate([errs[:, keep], new_errs], axis=1)
        splits += n_split


def integrate_line(f, spec=None):
    """Integrate a vectorized integrand over [-truncation, truncation].

    A vector-valued integrand returns an array of its m integrals.
    """
    spec = DEFAULT_SPEC if spec is None else spec
    t = spec.truncation
    return _adaptive(f, -t, t, spec)


def _power_for(alpha):
    # substitution power for an endpoint exponent alpha: z = u^k turns
    # z^alpha into k u^(k(1+alpha)-1), and k = ceil(2/(1+alpha)) makes that
    # at least linear at the endpoint; alpha >= 0 needs none
    alpha = float(alpha)
    if alpha <= -1.0:
        raise ValueError("endpoint exponent must be > -1 to be integrable")
    if alpha >= 0.0:
        return 0.0
    return float(np.ceil(2.0 / (1.0 + alpha)))


def integrate_unit(f, spec=None, singular_left=0.0, singular_right=0.0):
    """Integrate over the unit interval.

    ``singular_left`` / ``singular_right`` are the exponents alpha of a
    beta-type z^alpha (resp. (1 - z)^alpha) blow-up at 0 (resp. 1); a
    negative one gets a power substitution matched to it, and 0, the
    default, or above marks a regular endpoint.  A vector-valued f
    returns an array of its m integrals, as in ``integrate_line``.
    """
    spec = DEFAULT_SPEC if spec is None else spec
    pieces = []
    lo, hi = 0.0, 1.0
    k_left = _power_for(singular_left)
    k_right = _power_for(singular_right)
    if k_left > 0.0:
        pieces.append((lambda u, k=k_left: f(u**k) * k * u ** (k - 1.0), 0.0, 0.5 ** (1.0 / k_left)))
        lo = 0.5
    if k_right > 0.0:
        pieces.append(
            (lambda u, k=k_right: f(1.0 - u**k) * k * u ** (k - 1.0), 0.0, 0.5 ** (1.0 / k_right))
        )
        hi = 0.5
    if lo < hi:
        pieces.append((f, lo, hi))

    share = replace(spec, abs_tol=spec.abs_tol / len(pieces))
    return sum(_adaptive(g, a, b, share) for g, a, b in pieces)
