"""Common distribution surface and the generic moment engine.

Every family exposes vectorized pdf/logpdf/cdf/quantile; pdf defaults
to exp(logpdf).  All eleven families are placed on the line by
x = location + scale * z (Normal, SN, SNB, GBSN, TBSN, BetaNormal,
BetaHalfNormal, BSN, and Beta, GB1 and Kumaraswamy at location 0 and
scale q) and share one surface, LocationScale: it names the two fields,
validates them and standardizes through _z, and its logpdf, cdf, sf,
logcdf, logsf and quantile apply the scalar-in/float-out rule, the
limits at infinite arguments, the quantile domain, the split of q at
1/2 and the placement once, over three hooks per family: _std_logpdf,
_std_tail, a standardized tail read, and _std_quantile, a quantile on
one side, which _by_side calls once per side and block.  _require is
the one parameter check behind every family.  The default sampler is
the quantile transform of a PCG64 uniform stream
(``numpy.random.default_rng``), so one seed policy drives every family
reproducibly; families with a cheaper exact representation override
``draw``, which ``sample`` calls on a fresh generator: the skew-normal
draws its two-normal conditioning representation, and the
beta-generated laws one base quantile of a Beta(a, b) latent drawn from
two gammas.  ``Distribution.draw(dist, rng, n)`` still gives any
family's quantile transform.

Large calls run in blocks.  _blocked(fn, flat) applies a per-point
function to contiguous slices of at most _BLOCK points of a 1-d array,
of near-equal sizes, and writes each slice's values into one output;
a call of at most _BLOCK points is one slice.  The logpdf and tail
reads and the quantile sides (_by_side) go through it, and the quantile
transform draws its uniforms in slices of at most two blocks (_slices),
so the scratch arrays of a read (the skew-normal tail rules build
(20, n) blocks) stay bounded by the block, not the call.  Every
per-point function here reads each point on its own, and a scalar is
read as a one-point array, so a point's value is the same in a scalar
call, a one-point array or any slice of any call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import DEFAULT_SPEC, integrate_line, integrate_unit

__all__ = ["Distribution", "moment_summary", "normalization_error"]

# Most points _blocked hands a per-point function at once.  On one core,
# over calls of 5e3 to 1e6 points of SN, BSN, SNB, BN and Beta reads,
# blocks of 8192, 16384 and 32768 ran within the noise of unsplit calls
# up to 1e5 points and faster at 1e6; the smallest keeps a block's
# scratch to a few MB.
_BLOCK = 8192


@dataclass(frozen=True)
class MomentSummary:
    """First four standardized moments; kurtosis is non-excess (normal = 3)."""

    mean: float
    sd: float
    skewness: float
    kurtosis: float


_RULES = {
    "finite": (np.isfinite, "must be finite"),
    "positive": (lambda v: np.isfinite(v) and v > 0.0, "must be positive and finite"),
    "order": (
        lambda v: isinstance(v, (int, np.integer)) and v >= 0,
        "must be a nonnegative integer",
    ),
}


def _require(rule, **values):
    """Raise ValueError naming the first value that breaks `rule`.

    rule is "finite", "positive" (finite and > 0) or "order" (a
    nonnegative integer).
    """
    test, message = _RULES[rule]
    for name, value in values.items():
        if not test(value):
            raise ValueError(f"{name} {message}")


class Distribution:
    """Base class for the distribution families in this package."""

    #: open support interval; infinities mark unbounded sides
    support = (-np.inf, np.inf)
    #: location/scale used to place the quadrature window for line families
    location = 0.0
    scale = 1.0

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def logpdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, q):
        raise NotImplementedError

    def draw(self, rng, n):
        """Draw n values from an existing generator: the quantile transform of its uniforms.

        The uniforms are drawn into one reused buffer, in the fewest
        near-equal slices of at most 2 _BLOCK points, so that each side
        of a slice's quantile is about one block (smaller slices cost
        more solver passes), and each slice's quantiles are written into
        one output.  The generator gives the stream of a single call
        however its draws are cut, and quantile reads each point on its
        own, so the values are those of one whole call, held as one
        double per point plus a slice's scratch.
        """
        n = int(n)
        out = np.empty(n)
        buf = np.empty(min(n, 2 * _BLOCK))
        for lo, hi in _slices(n, 2 * _BLOCK):
            u = rng.random(out=buf[: hi - lo])
            # rng.random lives in [0, 1); nudge an exact 0 into the open
            # interval the quantile functions require
            out[lo:hi] = self.quantile(np.clip(u, 1e-300, None, out=u))
        return out

    def sample(self, n, seed):
        return self.draw(np.random.default_rng(seed), n)

    # beta-type endpoint behavior (left, right): the exponent alpha of the
    # density's z^alpha blow-up at the endpoint, 0 when regular; the
    # moment engine turns these into the matching substitutions
    def _endpoint_singular(self):
        return (0.0, 0.0)

    def moments(self, spec=None):
        return moment_summary(self, spec)


class LocationScale(Distribution):
    """A family of x = location + scale * z over a standardized law in z.

    Subclasses declare the two fields, named by `_placement` (mu and
    sigma unless overridden), and read z through `_z`.  The location
    must be finite and the scale positive and finite.

    logpdf reads _std_logpdf(z), the log density at each x of a 1-d
    array of standardized points z.  cdf, sf, logcdf and logsf all read
    one hook, _std_tail(z, upper, log): the mass below each z of a 1-d
    array, or above it if upper, as a probability or its log.  Both go
    one block (_blocked) at a time.
    quantile reads the other, _std_quantile(t, upper), once per side and
    block: the z with tail mass t below them, or above them if upper,
    for a 1-d t at most 1/2 (q below 1/2, 1 - q above).  All return a
    Python float for a scalar.
    """

    _placement = ("mu", "sigma")

    def __post_init__(self):
        loc, scale = self._placement
        _require("finite", **{loc: self.location})
        _require("positive", **{scale: self.scale})

    @property
    def location(self):
        return getattr(self, self._placement[0])

    @property
    def scale(self):
        return getattr(self, self._placement[1])

    def _z(self, x):
        return (np.asarray(x, dtype=float) - self.location) / self.scale

    def _read(self, fn, x):
        """fn over the standardized points of x as a 1-d array, one block at a time.

        Shaped like x, and a Python float for a scalar x, which is read
        as a one-point array, so its value is that of the same point in
        any array.
        """
        z = self._z(x)
        out = _blocked(fn, z.reshape(-1))
        return out.reshape(z.shape) if z.ndim else float(out[0])

    def logpdf(self, x):
        return self._read(self._std_logpdf, x)

    def _tail(self, x, upper, log):
        return self._read(lambda z: self._tail_at(z, upper, log), x)

    def _tail_at(self, z, upper, log):
        out = self._std_tail(z, upper, log)
        # at z = +-inf the mass is all or none, whatever a read rounds to
        inf = np.isinf(z)
        if inf.any():
            whole = (z[inf] > 0.0) != upper
            out[inf] = np.where(whole, 0.0, -np.inf) if log else whole
        return out

    def cdf(self, x):
        return self._tail(x, upper=False, log=False)

    def sf(self, x):
        """Survival function, relatively accurate in the right tail."""
        return self._tail(x, upper=True, log=False)

    def logcdf(self, x):
        return self._tail(x, upper=False, log=True)

    def logsf(self, x):
        return self._tail(x, upper=True, log=True)

    def quantile(self, q):
        """Inverse cdf, solved on q's own side of 1/2.

        For q > 1/2 the root has mass 1 - q above it, so the upper tail
        keeps the same relative accuracy as the lower one.
        """
        q = _quantile_domain(q)
        t = q.flatten()
        upper = t > 0.5
        np.subtract(1.0, t, out=t, where=upper)
        z = _by_side(self._std_quantile, t, upper)
        z *= self.scale
        z += self.location
        return z.reshape(q.shape) if q.ndim else float(z[0])


def _blocked(fn, flat):
    """fn over the 1-d array flat, one contiguous slice of at most _BLOCK points at a time.

    fn maps a slice to its values, one per point.  A longer array is
    cut into the fewest slices of near-equal sizes, none of them one
    point, and their values are written into one output.
    """
    n = flat.size
    if n <= _BLOCK:
        return fn(flat)
    out = np.empty(n)
    for lo, hi in _slices(n, _BLOCK):
        out[lo:hi] = fn(flat[lo:hi])
    return out


def _slices(n, size):
    """(lo, hi) of the fewest slices of n points of at most size points, near-equal in size."""
    slices = max(-(-n // size), 1)
    edges = [n * k // slices for k in range(slices + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _by_side(solve, t, upper):
    """solve(t[side], side) for the lower and the upper side, written over t, which is returned.

    Each side is solved in blocks (_blocked).  A side without points is
    not solved, so it builds nothing.
    """
    for side in (False, True):
        at = upper == side
        if at.any():
            t[at] = _blocked(lambda s: solve(s, side), t[at])
    return t


def _quantile_domain(q):
    """q as a float array; NaN, 0, 1 and anything outside (0, 1) raise ValueError.

    Every family's quantile shares this domain and returns a Python float
    for a scalar q: LocationScale.quantile applies both once, and
    Normal's one-pass quantile again.
    """
    q = np.asarray(q, dtype=float)
    if np.any(~np.isfinite(q)) or np.any(q <= 0.0) or np.any(q >= 1.0):
        raise ValueError("quantile requires 0 < q < 1")
    return q


def _raw_moments(dist, spec, orders):
    """Raw moments by quadrature, windowed by the family's support.

    All orders share one adaptive pass: the integrand stacks x^k f(x)
    for every k in orders.
    """
    spec = DEFAULT_SPEC if spec is None else spec
    lo, hi = dist.support
    if np.isinf(lo) and np.isinf(hi):
        loc, scale = dist.location, dist.scale

        def integrand(z):
            x = loc + scale * z
            pdf = dist.pdf(x)
            return np.stack([x**k * pdf * scale for k in orders])

        return [float(m) for m in integrate_line(integrand, spec)]

    # bounded or half-bounded: map onto the unit interval
    left = lo
    right = hi if np.isfinite(hi) else dist.location + dist.scale * spec.truncation
    width = right - left
    sing_l, sing_r = dist._endpoint_singular()

    def integrand(u):
        x = left + width * u
        pdf = dist.pdf(x)
        return np.stack([x**k * pdf * width for k in orders])

    if not np.isfinite(hi):
        sing_r = 0.0
    moments = integrate_unit(integrand, spec, singular_left=sing_l, singular_right=sing_r)
    return [float(m) for m in moments]


def moment_summary(dist, spec=None):
    """Mean, sd, skewness, and non-excess kurtosis by quadrature."""
    return _summary(*_raw_moments(dist, spec, (1, 2, 3, 4)))


def _summary(m1, m2, m3, m4):
    """The MomentSummary of raw moments m1..m4: the central-moment formulas, written once."""
    var = m2 - m1 * m1
    if not var > 0.0:
        raise ArithmeticError(f"computed variance {var!r} is not positive")
    sd = np.sqrt(var)
    mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4
    return MomentSummary(
        mean=float(m1),
        sd=float(sd),
        skewness=float(mu3 / sd**3),
        kurtosis=float(mu4 / sd**4),
    )


def normalization_error(dist, spec=None):
    """Absolute deviation of the density's integral from 1."""
    (m0,) = _raw_moments(dist, spec, (0,))
    return abs(m0 - 1.0)
