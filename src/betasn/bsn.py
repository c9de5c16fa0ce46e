"""Beta skew-normal distribution BSN(lam, a, b) with location and scale.

Standardized density: (2 / B(a,b)) F(z)^(a-1) (1-F(z))^(b-1) phi(z) Phi(lam z),
where F is the skew-normal cdf with shape lam: betafamily's one
beta-generated composition over that base, in log space on the
tail-stable skew-normal logcdf/logsf, so every read stays relative far
into the tails where F underflows any direct formula.

Beyond the distribution surface this module carries the verification ops:
the moment recursion discrepancy, the mode report, the Beta half-normal
limit distance, the Kumaraswamy transforms, and the skewing-weight
representation p(u) with pdf(x) = phi(x) p(Phi(x)).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .betafamily import BetaHalfNormal, _BetaGenerated, _log_beta_kernel
from .core import _BLOCK, _require
from .quadrature import DEFAULT_SPEC, integrate_line, integrate_unit
from .skewnormal import SkewNormal, _log_density, _log_density_slope, _side_quantile, _tails
from .special import log_beta, norm_logcdf, norm_logpdf, norm_quantile

__all__ = [
    "BetaSkewNormal",
    "sample_rejection",
    "moment_recursion_gap",
    "bhn_limit_distance",
    "kumaraswamy_transform",
    "skewing_weight",
]

_LOG2 = np.log(2.0)


@dataclass(frozen=True)
class ModeReport:
    """Stationary-point census of a density on its evaluation grid."""

    mode_count: int
    mode_locations: tuple
    log_concave_on_grid: bool

    def __post_init__(self):
        locs = tuple(float(v) for v in self.mode_locations)
        object.__setattr__(self, "mode_locations", locs)
        if self.mode_count != len(locs):
            raise ValueError("mode_count must equal the number of locations")
        if not 1 <= self.mode_count <= 2:
            raise ValueError("mode_count must be 1 or 2")
        if any(locs[i] >= locs[i + 1] for i in range(len(locs) - 1)):
            raise ValueError("mode_locations must be sorted ascending")


@dataclass(frozen=True, eq=False)
class RejectionSampleBatch:
    """Reproducible accepted draws plus the trial bookkeeping behind them."""

    seed: int
    values: np.ndarray
    n_trials: int = 0
    n_accepted: int = 0

    @property
    def count(self):
        return int(self.values.shape[0])

    @property
    def acceptance_rate(self):
        return self.n_accepted / self.n_trials


def _sn_log_base(log_c, log_phi_z, log_phi_lz):
    """log c + log 2 phi(z) Phi(lam z), from log phi(z) and log Phi(lam z), summed in one order."""
    return _LOG2 + log_c + log_phi_z + log_phi_lz


@dataclass(frozen=True)
class BetaSkewNormal(_BetaGenerated):
    """BSN(lam, a, b) shifted by mu and scaled by sigma.

    The beta-generated composition over SN(0, 1, lam); log F and log S
    come from one skewnormal._tails evaluation per point.
    """

    lam: float
    a: float
    b: float
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        _require("finite", lam=self.lam)

    @property
    def base(self):
        """The standardized skew-normal whose cdf drives the beta kernel."""
        return SkewNormal(0.0, 1.0, self.lam)

    def _log_base(self, z, log_c):
        return _sn_log_base(log_c, norm_logpdf(z), norm_logcdf(self.lam * z))

    def _log_base_slope(self, z):
        return _log_density_slope(z, self.lam)

    def _mirror(self):
        return BetaSkewNormal(-self.lam, self.b, self.a)

    def _log_tails(self, z):
        return _tails(z, self.lam)

    def _base_quantile(self, log_p, upper):
        return _side_quantile(log_p, self.lam, upper)

    def mgf(self, t, spec=None):
        """Moment generating function by quadrature.

        Uses E[e^{tZ}] = 2 e^{t^2/2}/B(a,b) E_W[F(W)^{a-1}(1-F(W))^{b-1}
        Phi(lam W)] with W ~ N(t,1), which keeps the integrand centered
        under the shifted normal weight even for sizable t.
        """
        spec = DEFAULT_SPEC if spec is None else spec
        t_arr = np.asarray(t, dtype=float)
        a, b, lam = self.a, self.b, self.lam
        tv = t_arr.ravel()
        s = self.sigma * tv
        shift = s[:, None, None]

        def integrand(y):
            # one component per t, all on the same nodes
            w = y + shift
            acc = norm_logpdf(y) + norm_logcdf(lam * w)
            return np.exp(_log_beta_kernel(acc, a, b, lambda: _tails(w, lam)))

        total = integrate_line(integrand, spec)
        out = np.exp(self.mu * tv + 0.5 * s * s + _LOG2 - log_beta(a, b) + np.log(total))
        return out.reshape(t_arr.shape) if t_arr.ndim else float(out[0])

    def mode_report(self):
        """Census of interior modes and a grid log-concavity verdict.

        Scans a 4001-point grid on [mu - 8 sigma, mu + 8 sigma] for sign
        changes of the differenced log-density, polishes each bracket by
        bisection on a central difference to width 1e-10, and merges
        stationary points closer than 1e-4.  Log-concavity is the
        second-difference test on the same grid.
        """
        grid = np.linspace(self.mu - 8.0 * self.sigma, self.mu + 8.0 * self.sigma, 4001)
        lp = self.logpdf(grid)
        d = np.diff(lp)
        h = 1e-6 * self.sigma

        def slope(x):
            return (self.logpdf(x + h) - self.logpdf(x - h)) / (2.0 * h)

        modes = []
        for i in range(len(d) - 1):
            if d[i] > 0.0 and d[i + 1] <= 0.0:
                lo, hi = grid[i], grid[i + 2]
                if slope(lo) <= 0.0 or slope(hi) > 0.0:
                    modes.append(0.5 * (lo + hi))
                    continue
                while hi - lo > 1e-10:
                    mid = 0.5 * (lo + hi)
                    if slope(mid) > 0.0:
                        lo = mid
                    else:
                        hi = mid
                modes.append(0.5 * (lo + hi))
        if not modes:
            modes = [float(grid[np.argmax(lp)])]
        merged = [modes[0]]
        for m in modes[1:]:
            if m - merged[-1] < 1e-4:
                merged[-1] = 0.5 * (merged[-1] + m)
            else:
                merged.append(m)
        second = lp[:-2] - 2.0 * lp[1:-1] + lp[2:]
        return ModeReport(
            mode_count=len(merged),
            mode_locations=tuple(merged),
            log_concave_on_grid=bool(np.max(second) <= 1e-8),
        )


def sample_rejection(lam, n_param, count, seed):
    """Acceptance-rejection sampler for BSN(lam, n_param, 1).

    Each trial draws n_param skew-normal variates T, U_1, ..., U_{n-1}
    and accepts T when it is the maximum of the block, so acceptance has
    probability 1/n_param.  Trials run in vectorized batches until
    `count` values are accepted; the returned batch keeps total trial
    and acceptance counts so the empirical rate can be audited.

    A batch of N variates takes the stream of one SkewNormal.draw of N:
    N standard normals for the |U| parts, then N for the V parts.  It is
    formed in row blocks of about core._BLOCK variates.  A twin of the
    generator (a deep copy), moved past the batch's first N normals by
    one pass that discards them into a reused buffer, supplies each
    block's V as the generator supplies its U; past the batch, the twin
    draws the next one.  So a batch holds one block, not N variates,
    and the values, n_trials and n_accepted are those of drawing each
    batch whole.
    """
    if not (isinstance(n_param, (int, np.integer)) and n_param >= 1):
        raise ValueError("n_param must be a positive integer")
    if not (isinstance(count, (int, np.integer)) and count >= 1):
        raise ValueError("count must be a positive integer")
    base = SkewNormal(0.0, 1.0, float(lam))
    rng = np.random.default_rng(seed)
    n = int(n_param)
    rows = max(_BLOCK // n, 1)
    u_buf, v_buf = np.empty(rows * n), np.empty(rows * n)
    values = np.empty(count)
    collected = 0
    n_trials = 0
    while collected < count:
        trials = int((count - collected) * n * 1.25) + 32
        trials = min(trials, 4_000_000 // n + 1)
        twin = copy.deepcopy(rng)
        for lo in range(0, trials * n, v_buf.size):
            twin.standard_normal(out=v_buf[: min(v_buf.size, trials * n - lo)])
        for lo in range(0, trials, rows):
            k = min(rows, trials - lo) * n
            u, v = rng.standard_normal(out=u_buf[:k]), twin.standard_normal(out=v_buf[:k])
            draws = base._place(u, v).reshape(-1, n)
            t = draws[:, 0]
            acc = t if n == 1 else t[t >= draws[:, 1:].max(axis=1)]
            kept = acc[: max(count - collected, 0)]
            values[collected : collected + kept.size] = kept
            collected += acc.size
        n_trials += trials
        rng = twin
    return RejectionSampleBatch(
        seed=int(seed), values=values, n_trials=n_trials, n_accepted=collected
    )


def _logpdf_rows(laws):
    """A function of standardized nodes z giving the BSN laws' log densities, one row per law.

    Row i is laws[i].logpdf at z bit for bit, from the same
    _logpdf_from, over reads the laws share: log phi(z) once, and
    log Phi(lam z) and _tails(z, lam) once per distinct lam (the tails
    only if some law of that lam has an exponent to apply them to).  So
    one call costs one tail read per shape, not one per law.
    """
    log_c = [-log_beta(law.a, law.b) for law in laws]
    lams = dict.fromkeys(law.lam for law in laws)

    def log_densities(z):
        out = np.empty((len(laws),) + z.shape)
        with np.errstate(invalid="ignore"):
            log_phi_z = norm_logpdf(z)
            for lam in lams:
                log_phi_lz = norm_logcdf(lam * z)
                tails = cache(partial(_tails, z, lam))
                for i, law in enumerate(laws):
                    if law.lam == lam:
                        log_base = _sn_log_base(log_c[i], log_phi_z, log_phi_lz)
                        out[i] = law._logpdf_from(z, log_base, tails)
        return out

    return log_densities


def moment_recursion_gap(lam, a, b, k, spec=None):
    """Absolute discrepancy of the raw-moment recursion at order k.

    E[X^k] vs (k-1)E[X^{k-2}] + lam E[X^{k-1} phi(lam X)/Phi(lam X)]
    + (a+b-1)(E_U[U^{k-1} g(U)] - E_V[V^{k-1} g(V)]), with g the
    skew-normal density with shape lam, X ~ BSN(lam, a, b),
    U ~ BSN(lam, a-1, b), and V ~ BSN(lam, a, b-1).  All five
    expectations are components of one adaptive pass, each to its own
    tolerance, and the three densities share one _tails read per batch
    of nodes (_logpdf_rows).  Requires a > 1 and b > 1 so that U and V
    exist.
    """
    if not (a > 1.0 and b > 1.0):
        raise ValueError("moment_recursion_gap requires a > 1 and b > 1")
    if not (isinstance(k, (int, np.integer)) and k >= 2):
        raise ValueError("k must be an integer >= 2")
    spec = DEFAULT_SPEC if spec is None else spec
    lam = float(lam)
    log_densities = _logpdf_rows(
        [BetaSkewNormal(lam, a, b), BetaSkewNormal(lam, a - 1.0, b), BetaSkewNormal(lam, a, b - 1.0)]
    )

    def integrand(x):
        pdf_x, pdf_u, pdf_v = np.exp(log_densities(x))
        log_phi_lx = norm_logcdf(lam * x)
        weighted_sn = x ** (k - 1) * np.exp(_log_density(x, log_phi_lx))
        hazard = np.exp(norm_logpdf(lam * x) - log_phi_lx)
        return np.stack([
            x**k * pdf_x,
            x ** (k - 2) * pdf_x,
            x ** (k - 1) * hazard * pdf_x,
            weighted_sn * pdf_u,
            weighted_sn * pdf_v,
        ])

    lhs, e_k2, e_hazard, e_u, e_v = integrate_line(integrand, spec)
    rhs = (k - 1) * e_k2 + lam * e_hazard + (a + b - 1.0) * (e_u - e_v)
    return float(abs(lhs - rhs))


def bhn_limit_distance(lam, a, b, spec=None):
    """Distance from BSN(lam,a,b) to its lam -> inf Beta half-normal limit.

    L1 distance between the densities on (0, infinity) plus the stray
    BSN mass on the nonpositive axis; decreasing in lam for lam > 0.
    """
    if not lam > 0.0:
        raise ValueError("bhn_limit_distance requires lam > 0")
    spec = DEFAULT_SPEC if spec is None else spec
    bsn = BetaSkewNormal(float(lam), a, b)
    bhn = BetaHalfNormal(a, b)
    width = spec.truncation

    def integrand(u):
        x = width * u
        return width * np.abs(bsn.pdf(x) - bhn.pdf(x))

    l1 = integrate_unit(integrand, spec, singular_left=a - 1.0)
    return l1 + float(bsn.cdf(0.0))


def kumaraswamy_transform(dist, direction, exponent, x):
    """Apply one of the two Kumaraswamy-producing transforms to draws.

    direction "cdf" requires a = 1 and maps x to F(z)^(1/exponent),
    which follows a Kumaraswamy(exponent, b) law; direction "survival"
    requires b = 1 and maps x to (1 - F(z))^(1/exponent), which follows
    a Kumaraswamy(exponent, a) law.  F is the skew-normal cdf with the
    distribution's shape, applied to standardized values.
    """
    _require("positive", exponent=exponent)
    z = dist._z(x)
    if direction == "cdf":
        if dist.a != 1.0:
            raise ValueError('direction "cdf" requires a = 1')
        return dist.base.cdf(z) ** (1.0 / exponent)
    if direction == "survival":
        if dist.b != 1.0:
            raise ValueError('direction "survival" requires b = 1')
        return dist.base.sf(z) ** (1.0 / exponent)
    raise ValueError('direction must be "cdf" or "survival"')


def skewing_weight(u, lam, a, b):
    """Skewing-mechanism weight p(u; lam, a, b) on the unit interval.

    Satisfies pdf(y) = phi(y) p(Phi(y)) for the standardized BSN density
    and integrates to 1 over (0,1).
    """
    u = np.asarray(u, dtype=float)
    if np.any(~np.isfinite(u)) or np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("skewing_weight requires 0 < u < 1")
    x = norm_quantile(u)
    acc = _LOG2 - log_beta(a, b) + norm_logcdf(lam * x)
    out = np.exp(_log_beta_kernel(acc, a, b, lambda: _tails(x, float(lam))))
    return out if u.ndim else float(out)
