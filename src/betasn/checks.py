"""Named verification suites shared by the command line and the test suite.

Each suite returns a list of CheckResult records.  Reports are fully
deterministic: the same suite name, seed, and quadrature settings produce
byte-identical JSON (no timestamps, no environment-dependent fields).
The stochastic checks draw from seeded PCG64 generators only.

Most checks compare two sides of an identity.  Each is one row
``(name, threshold, pairs, lattice)``: ``pairs(*params)`` returns the
(left, right) values the identity equates at one parameter tuple, and
the check's value is the largest |left - right| over every pair at every
tuple of the lattice.  A threshold of None makes the row report-only; a
lattice of None takes the suite's seeded draws, and the rows that need
the quadrature spec are built by their suite.  One evaluator,
``_largest_gap``, reads every row: a NaN on either side makes the value
NaN, and a NaN value fails its check.  Rows name the special functions
as module globals, looked up when a row runs, so a wrapper bound over
one (as bench/tracer.py binds one) sees every call.
"""

from dataclasses import dataclass
from itertools import product
import json
import math

import numpy as np

from .balakrishnan import (
    GBSN,
    SNB,
    TBSN,
    gbsn_constant,
    gbsn_constant_series,
    snb_constant,
    tbsn_constant,
)
from .betafamily import Beta, BetaHalfNormal, BetaNormal, GB1, Kumaraswamy
from .bsn import (
    BetaSkewNormal,
    bhn_limit_distance,
    kumaraswamy_transform,
    moment_recursion_gap,
    sample_rejection,
    skewing_weight,
)
from .core import normalization_error
from .orderstats import (
    KS_COEFF_01,
    OrderStatSpec,
    analytic_order_stat,
    ks_statistic,
    log_concavity_order_stat_check,
    mc_conditioning_ks,
    mc_order_stat_ks,
    order_stat_pdf,
)
from .quadrature import DEFAULT_SPEC, integrate_unit
from .reference import compare_grid
from .skewnormal import Normal, SkewNormal
from .special import (
    chisq1_cdf,
    inv_reg_inc_beta,
    log_beta,
    norm_cdf,
    owen_t,
    reg_inc_beta,
)

__all__ = ["SUITES", "run_suite", "report_json"]

GRID = np.linspace(-6.0, 6.0, 401)
UNIT_GRID = np.linspace(0.005, 0.995, 199)
# orders and shapes over which every tbsn collapse identity is exercised
ORDER_LATTICE = tuple(range(4))
SHAPE_LATTICE = (0.0, 1.0, -1.0, 2.0, -2.0)


@dataclass(frozen=True)
class CheckResult:
    """One named scalar check: value against threshold (None = report only)."""

    name: str
    value: float
    threshold: float
    passed: bool

    def to_json_dict(self):
        return {
            "name": self.name,
            "value": float(self.value),
            "threshold": None if self.threshold is None else float(self.threshold),
            "pass": bool(self.passed),
        }


def _check(name, value, threshold):
    value = float(value)
    return CheckResult(name, value, float(threshold), value <= threshold)


def _flag(name, ok):
    # boolean outcome encoded as 0/1 against a 0 threshold
    return CheckResult(name, 0.0 if ok else 1.0, 0.0, bool(ok))


def _info(name, value):
    return CheckResult(name, float(value), None, True)


def _gap(pairs):
    """Largest |left - right| over (left, right) pairs; NaN if any side is NaN."""
    return np.max([np.max(np.abs(np.subtract(left, right))) for left, right in pairs])


def _largest_gap(name, threshold, pairs, lattice):
    """The CheckResult of one row: the largest gap of pairs(*params) over the lattice."""
    value = _gap(pair for params in lattice for pair in pairs(*params))
    return _info(name, value) if threshold is None else _check(name, value, threshold)


def _rows(rows, draws=None):
    """The CheckResults of a table of rows; draws stand in for a lattice of None."""
    return [
        _largest_gap(name, threshold, pairs, draws if lattice is None else lattice)
        for name, threshold, pairs, lattice in rows
    ]


def _compare(d1, d2, *methods, grid=GRID):
    """(d1.f(grid), d2.f(grid)) for each named method f."""
    return [(getattr(d1, f)(grid), getattr(d2, f)(grid)) for f in methods]


# ---------------------------------------------------------------------------
# identities

_STD = Normal(0.0, 1.0)
# a lattice is a tuple of parameter tuples; product() of one axis gives 1-tuples
_SN_SHAPES = tuple(product((0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 10.0, -10.0)))
# (n, m, lam) of the tbsn collapse identities
_TBSN_LATTICE = tuple(product(ORDER_LATTICE, ORDER_LATTICE, SHAPE_LATTICE))
_SNB_SHAPES = tuple(product(np.linspace(-5.0, 5.0, 41)))


def _negation(lam, a, b):
    x, y = BetaSkewNormal(lam, a, b), BetaSkewNormal(-lam, b, a)
    return [(x.pdf(-GRID), y.pdf(GRID)), (x.cdf(-GRID), y.sf(GRID))]


def _bsn_is_std(lam, a, b):
    return _compare(BetaSkewNormal(lam, a, b), _STD, "pdf", "cdf")


def _weight_density(lam, a, b):
    # density of bsn must factor as phi(y) * weight(Phi(y))
    y = np.linspace(-5.0, 5.0, 201)
    phi = np.exp(-0.5 * y**2) / np.sqrt(2.0 * np.pi)
    return [(BetaSkewNormal(lam, a, b).pdf(y), phi * skewing_weight(norm_cdf(y), lam, a, b))]


# Owen's T and skew-normal identities; a lattice of None is the suite's
# seeded (h, a) draws
_SPECIAL_ROWS = (
    ("owen t odd in second argument", 1e-12,
     lambda h, a: [(owen_t(h, -a), -owen_t(h, a))], None),
    ("owen t even in first argument", 1e-12,
     lambda h, a: [(owen_t(-h, a), owen_t(h, a))], None),
    ("owen t at unit slope vs normal cdf product", 1e-12,
     lambda h, a: [(2.0 * owen_t(h, 1.0), norm_cdf(h) * norm_cdf(-h))], None),
    ("sn cdf reflection identity", 1e-12,
     lambda lam: [(1.0 - SkewNormal(lam=lam).cdf(-GRID), SkewNormal(lam=-lam).cdf(GRID))],
     _SN_SHAPES),
    ("sn cdf unit shape square identity", 1e-12,
     lambda: [(SkewNormal(lam=1.0).cdf(GRID), norm_cdf(GRID) ** 2)], [()]),
    ("sn cdf opposite shapes sum identity", 1e-12,
     lambda lam: [
         (SkewNormal(lam=lam).cdf(GRID) + SkewNormal(lam=-lam).cdf(GRID), 2.0 * norm_cdf(GRID))
     ],
     _SN_SHAPES),
    ("sn density negation closure", 1e-12,
     lambda lam: [(SkewNormal(lam=-lam).pdf(-GRID), SkewNormal(lam=lam).pdf(GRID))],
     _SN_SHAPES),
)

# the reductions among BSN, SN, the beta-normal and the Balakrishnan family
_REDUCTION_ROWS = (
    ("bsn with a=b=1 is skew-normal", 1e-10,
     lambda lam: _compare(BetaSkewNormal(lam, 1.0, 1.0), SkewNormal(lam=lam), "pdf", "cdf"),
     ((-2.0,), (-0.5,), (0.7,), (1.5,))),
    ("bsn with lam=0 is beta-normal", 1e-10,
     lambda a, b: _compare(BetaSkewNormal(0.0, a, b), BetaNormal(a, b), "pdf", "cdf"),
     ((0.7, 2.2), (2.0, 3.0), (0.25, 0.5))),
    ("bsn(0,1,1) is standard normal", 1e-10, _bsn_is_std, ((0.0, 1.0, 1.0),)),
    ("bsn(1,1/2,1) is standard normal", 1e-10, _bsn_is_std, ((1.0, 0.5, 1.0),)),
    ("bsn(-1,1,1/2) is standard normal", 1e-10, _bsn_is_std, ((-1.0, 1.0, 0.5),)),
    ("bsn negation swaps shapes", 1e-10,
     _negation, ((1.0, 2.0, 3.0), (0.8, 0.5, 2.5), (-2.0, 3.0, 0.25))),
    ("tbsn order (1,1) with one zero shape is skew-normal", 1e-10,
     lambda lam: _compare(TBSN(lam, 0.0, 1, 1), SkewNormal(lam=lam), "pdf")
     + _compare(TBSN(0.0, lam, 1, 1), SkewNormal(lam=lam), "pdf"),
     tuple(product(SHAPE_LATTICE))),
    ("tbsn equal shapes collapse to snb", 1e-10,
     lambda n, m, lam: _compare(TBSN(lam, lam, n, m), SNB(lam, n + m), "pdf"), _TBSN_LATTICE),
    ("tbsn equal shapes cdf spot check", 1e-10,
     lambda n, m, lam: _compare(TBSN(lam, lam, n, m), SNB(lam, n + m), "cdf"), ((2, 1, 1.0),)),
    ("tbsn single zero shape collapses to snb", 1e-10,
     lambda n, m, lam: _compare(TBSN(lam, 0.0, n, m), SNB(lam, n), "pdf")
     + _compare(TBSN(0.0, lam, n, m), SNB(lam, m), "pdf"),
     _TBSN_LATTICE),
    ("tbsn opposite shapes give gbsn", 1e-10,
     lambda n, m, lam: _compare(TBSN(lam, -lam, n, m), GBSN(lam, n, m), "pdf")
     + _compare(TBSN(-lam, lam, n, m), GBSN(lam, m, n), "pdf"),
     _TBSN_LATTICE),
    ("tbsn opposite shapes cdf spot check", 1e-10,
     lambda n, m, lam: _compare(TBSN(lam, -lam, n, m), GBSN(lam, n, m), "cdf"), ((1, 3, 1.0),)),
    ("tbsn zero shapes or zero orders are standard normal", 1e-10,
     lambda lam1, lam2, n, m: _compare(TBSN(lam1, lam2, n, m), _STD, "pdf"),
     tuple((0.0, 0.0, n, m) for n, m in product(ORDER_LATTICE, ORDER_LATTICE))
     + tuple((lam1, lam2, 0, 0) for lam1, lam2 in product(SHAPE_LATTICE, SHAPE_LATTICE))),
    ("snb constants of order 0 and 1", 1e-9,
     lambda lam: [(snb_constant(0, lam), 1.0), (snb_constant(1, lam), 2.0)], _SNB_SHAPES),
    ("snb constant of order 2 closed form", 1e-9,
     lambda lam: [(snb_constant(2, lam), np.pi / np.arctan(np.sqrt(1.0 + 2.0 * lam * lam)))],
     _SNB_SHAPES),
    ("snb constants at lam=1 are n+1", 1e-9,
     lambda n: [(snb_constant(n, 1.0), n + 1)], tuple(product(range(6)))),
    ("snb cdf at lam=1 is a normal cdf power", 1e-10,
     lambda n: [(SNB(1.0, n).cdf(GRID), norm_cdf(GRID) ** (n + 1))], tuple(product(range(6)))),
    # the j-th of N standard normal order statistics, with n = j - 1 below
    # it and m = N - j above, has constant N! / (n! m!) = C(N, n) (m + 1)
    # in front of Phi^n (1-Phi)^m phi
    ("gbsn constant at lam=1 matches order statistic coefficient", 1e-9,
     lambda n, m: [(gbsn_constant(n, m, 1.0), math.comb(n + m + 1, n) * (m + 1))],
     tuple((j - 1, big - j) for big in range(1, 7) for j in range(1, big + 1))),
    ("gbsn constant alternating series agreement", 1e-9,
     lambda n, m, lam: [(gbsn_constant(n, m, lam), gbsn_constant_series(n, m, lam))],
     ((1, 1, 0.5), (2, 3, 1.0), (3, 2, -0.7), (0, 2, 1.3), (2, 0, 0.9))),
    ("tbsn kernel reduction to snb kernel", 1e-12,
     lambda n, m, lam: [(tbsn_constant(n, m, lam, lam), 1.0 / snb_constant(n + m, lam))],
     tuple(product(ORDER_LATTICE, ORDER_LATTICE, (0.0, 1.0, -2.0)))),
    ("gb1 with p=q=1 is beta", 1e-12,
     lambda a, b: _compare(GB1(a, b, 1.0, 1.0), Beta(a, b), "pdf", "cdf", grid=UNIT_GRID),
     ((2.0, 3.0), (0.5, 1.5))),
    ("gb1 with a=q=1 is kumaraswamy", 1e-12,
     lambda p, b: _compare(GB1(1.0, b, p, 1.0), Kumaraswamy(p, b), "pdf", "cdf", grid=UNIT_GRID),
     ((2.0, 3.0), (1.5, 0.5))),
    ("bsn(1,n,1) equals tbsn order (2n-1,m) at shapes (1,0)", 1e-10,
     lambda n, m: _compare(BetaSkewNormal(1.0, n, 1.0), TBSN(1.0, 0.0, 2 * n - 1, m), "pdf"),
     tuple(product((1, 2, 3), (0, 2)))),
    ("bsn(-1,1,m) equals tbsn order (n,2m-1) at shapes (0,-1)", 1e-10,
     lambda m, n: _compare(BetaSkewNormal(-1.0, 1.0, m), TBSN(0.0, -1.0, n, 2 * m - 1), "pdf"),
     tuple(product((1, 2, 3), (0, 3)))),
    ("bsn(0,n,m) equals tbsn order (n-1,m-1) at shapes (1,-1)", 1e-10,
     lambda n, m: _compare(BetaSkewNormal(0.0, n, m), TBSN(1.0, -1.0, n - 1, m - 1), "pdf"),
     tuple(product((1, 2, 3), (1, 2, 3)))),
)

_QUANTILES = np.arange(1, 100) / 100.0
_EXTREME_QUANTILES = np.array([0.001, 0.999])
_ROUNDTRIP_HANDLES = tuple(
    (dist,)
    for dist in (
        Normal(0.3, 2.0),
        SkewNormal(-1.0, 2.0, 3.0),
        SNB(-2.3, 3, mu=0.5, sigma=1.5),
        GBSN(0.9, 2, 3),
        TBSN(1.1, -0.4, 2, 1, mu=-1.0, sigma=0.7),
        Beta(2.0, 3.0),
        GB1(2.0, 3.0, 1.5, 4.0),
        Kumaraswamy(2.0, 3.0),
        BetaNormal(0.5, 0.7),
        BetaHalfNormal(0.6, 1.3),
        BetaSkewNormal(1.0, 2.0, 3.0),
        BetaSkewNormal(1.0, 0.25, 0.25),
    )
)

# the skewing weight and the cdf-quantile round trips
_WEIGHT_ROWS = (
    ("skewing weight reproduces bsn density", 1e-10, _weight_density, ((1.5, 2.0, 0.7),)),
    ("skewing weight constant for lam=0,a=b=1", 1e-12,
     lambda lam, a, b: [(skewing_weight(np.linspace(0.01, 0.99, 99), lam, a, b), 1.0)],
     ((0.0, 1.0, 1.0),)),
    ("cdf-quantile roundtrip across families", 1e-10,
     lambda dist: [(dist.cdf(dist.quantile(_QUANTILES)), _QUANTILES)], _ROUNDTRIP_HANDLES),
    ("cdf-quantile roundtrip at q=0.001, 0.999", None,
     lambda dist: [(dist.cdf(dist.quantile(_EXTREME_QUANTILES)), _EXTREME_QUANTILES)],
     _ROUNDTRIP_HANDLES),
)


_BETA_SHAPES = (0.1, 0.5, 1.0, 2.0, 10.0)


def _beta_slope(y, a, b):
    # density of Beta(a,b): the local slope of the regularized ratio
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lp = np.where(a == 1.0, 0.0, (a - 1.0) * np.log(y)) + np.where(
            b == 1.0, 0.0, (b - 1.0) * np.log1p(-y)
        )
        return np.exp(lp - log_beta(a, b))


def _beta_roundtrip_checks():
    # a p-space roundtrip can never beat slope(y) * ulp(y): where the shape
    # parameters put a singularity at the endpoint, no double-precision y can
    # resolve p at 1e-12.  Those cells are counted instead of asserted.
    p = np.arange(1, 1000) / 1000.0
    y_grid = np.linspace(1e-6, 1.0 - 1e-6, 257)
    forward, inverse, beyond = [], [], 0
    for a, b in product(_BETA_SHAPES, _BETA_SHAPES):
        y = inv_reg_inc_beta(p, a, b)
        bound = _beta_slope(y, a, b) * np.spacing(np.abs(y))
        ok = np.isfinite(bound) & (bound <= 2.5e-13)
        beyond += int(np.sum(~ok))
        forward.append((reg_inc_beta(y[ok], a, b), p[ok]))
        pg = reg_inc_beta(y_grid, a, b)
        back_bound = np.spacing(np.abs(pg)) / _beta_slope(y_grid, a, b)
        ok = np.isfinite(back_bound) & (back_bound <= 2.5e-13)
        inverse.append((inv_reg_inc_beta(pg[ok], a, b), y_grid[ok]))
    return [
        _check("incomplete beta roundtrip (forward)", _gap(forward), 1e-12),
        _check("incomplete beta roundtrip (inverse)", _gap(inverse), 1e-12),
        _info("incomplete beta roundtrip cells beyond double resolution", beyond),
    ]


def run_identities(seed=0, spec=None):
    """Deterministic identity suite; the seed feeds only the random grids."""
    spec = DEFAULT_SPEC if spec is None else spec
    rng = np.random.default_rng(seed)
    draws = [(rng.uniform(-6.0, 6.0, 10_000), rng.uniform(-6.0, 6.0, 10_000))]
    checks = _rows(_SPECIAL_ROWS, draws) + _beta_roundtrip_checks() + _rows(_REDUCTION_ROWS)
    total = integrate_unit(lambda u: skewing_weight(u, 1.0, 2.0, 3.0), spec)
    checks.append(_check("skewing weight integrates to one", abs(total - 1.0), 1e-8))
    return checks + _rows(_WEIGHT_ROWS)


# ---------------------------------------------------------------------------
# moments


def _grid_row_checks(spec):
    out = []
    for comp in compare_grid(spec):
        row = comp.row
        label = f"moment grid row a={row.a:g} b={row.b:g} lam={row.lam:g}"
        out.append(_check(label, max(comp.asserted_deviations.values()), comp.tolerance))
        for f in comp.excluded:
            out.append(_info(f"{label} excluded {f} (mirror mismatch)", comp.deviations[f]))
    return out


_NORMALIZATION_HANDLES = (
    ("normal(0.3,2)", Normal(0.3, 2.0)),
    ("sn(-1,2,3)", SkewNormal(-1.0, 2.0, 3.0)),
    ("snb(-2.3,3;0.5,1.5)", SNB(-2.3, 3, mu=0.5, sigma=1.5)),
    ("gbsn(0.9,2,3)", GBSN(0.9, 2, 3)),
    ("tbsn(1.1,-0.4,2,1;-1,0.7)", TBSN(1.1, -0.4, 2, 1, mu=-1.0, sigma=0.7)),
    ("beta(2,3)", Beta(2.0, 3.0)),
    ("beta(0.25,0.5)", Beta(0.25, 0.5)),
    ("gb1(2,3,1.5,4)", GB1(2.0, 3.0, 1.5, 4.0)),
    ("kumaraswamy(2,3)", Kumaraswamy(2.0, 3.0)),
    ("kumaraswamy(0.5,1.5)", Kumaraswamy(0.5, 1.5)),
    ("bn(0.5,0.7)", BetaNormal(0.5, 0.7)),
    ("bn(2,3;1,2)", BetaNormal(2.0, 3.0, 1.0, 2.0)),
    ("bhn(0.6,1.3)", BetaHalfNormal(0.6, 1.3)),
    ("bsn(1,2,3)", BetaSkewNormal(1.0, 2.0, 3.0)),
    ("bsn(1,0.25,0.25)", BetaSkewNormal(1.0, 0.25, 0.25)),
    ("bsn(-2,3,0.5;1,2)", BetaSkewNormal(-2.0, 3.0, 0.5, mu=1.0, sigma=2.0)),
)


def _mgf_checks(spec):
    normal = BetaSkewNormal(0.0, 1.0, 1.0, mu=0.5, sigma=2.0)
    t = np.array([-0.5, 0.3, 1.0])
    out = _rows((
        ("mgf at zero", 1e-9,
         lambda lam, a, b: [(BetaSkewNormal(lam, a, b).mgf(0.0, spec), 1.0)],
         ((1.0, 2.0, 3.0), (-1.0, 0.5, 2.0), (2.0, 1.0, 1.0))),
        ("normal mgf closed form", 1e-8,
         lambda: [(normal.mgf(t, spec), np.exp(0.5 * t + 0.5 * (2.0 * t) ** 2))], [()]),
    ))

    dist = BetaSkewNormal(1.0, 2.0, 3.0)
    h = 1e-5
    slope = (dist.mgf(h, spec) - dist.mgf(-h, spec)) / (2.0 * h)
    out.append(_check("mgf derivative matches mean", abs(slope - dist.moments(spec).mean), 1e-5))
    return out


def _mode_checks():
    out = []

    rep = BetaSkewNormal(0.0, 1.0, 1.0).mode_report()
    ok = rep.mode_count == 1 and abs(rep.mode_locations[0]) < 1e-6
    out.append(_flag("unimodal standard normal mode report", ok))

    rep = BetaSkewNormal(0.0, 0.1, 0.1).mode_report()
    ok = (
        rep.mode_count == 2
        and abs(rep.mode_locations[0] + 2.67130522) < 1e-5
        and abs(rep.mode_locations[1] - 2.67130522) < 1e-5
        and not rep.log_concave_on_grid
    )
    out.append(_flag("bimodal mode report locations", ok))

    ok = True
    for lam, a, b in ((1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (-2.0, 3.0, 1.0), (0.0, 2.0, 2.0)):
        rep = BetaSkewNormal(lam, a, b).mode_report()
        ok = ok and rep.mode_count == 1 and rep.log_concave_on_grid
    out.append(_flag("log-concavity for a,b >= 1", ok))

    return out


def _bhn_checks(spec):
    d50 = bhn_limit_distance(50.0, 1.0, 1.0, spec)
    d200 = bhn_limit_distance(200.0, 1.0, 1.0, spec)
    return [
        _check("bhn limit distance at lam=50", d50, 0.02),
        _flag("bhn limit distance decreasing in lam", d200 < d50),
        _check(
            "bhn limit distance at lam=100 (a=2,b=3)",
            bhn_limit_distance(100.0, 2.0, 3.0, spec),
            0.02,
        ),
    ]


def _cdf_slope(dist):
    lo, hi = dist.support
    if np.isinf(lo):
        x = np.linspace(-2.5, 2.5, 11) * dist.scale + dist.location
    elif np.isinf(hi):
        x = lo + np.linspace(0.2, 2.5, 9)
    else:
        x = lo + (hi - lo) * np.linspace(0.1, 0.9, 9)
    h = 1e-6 * max(dist.scale, 1.0)
    return [((dist.cdf(x + h) - dist.cdf(x - h)) / (2.0 * h), dist.pdf(x))]


_SLOPE_HANDLES = tuple(
    (dist,)
    for dist in (
        BetaSkewNormal(1.0, 2.0, 3.0),
        SkewNormal(0.0, 1.0, 1.5),
        SNB(1.0, 2),
        TBSN(0.8, -0.3, 2, 1),
        Normal(0.0, 1.0),
        BetaNormal(2.0, 3.0),
        BetaHalfNormal(2.0, 3.0),
        Beta(2.0, 3.0),
        Kumaraswamy(2.0, 3.0),
        GB1(2.0, 3.0, 1.5, 2.0),
    )
)


def run_moments(seed=0, spec=None):
    """Moment and shape suite; deterministic, the seed is ignored."""
    del seed
    spec = DEFAULT_SPEC if spec is None else spec
    checks = _grid_row_checks(spec)
    checks.append(_largest_gap(
        "moment recursion lattice", 1e-6,
        lambda lam, a, b, k: [(moment_recursion_gap(lam, a, b, k, spec), 0.0)],
        product((0.0, 1.0, -1.0), (2.0, 3.0), (2.0, 3.0), (2, 3, 4)),
    ))
    checks.extend(
        _check(f"normalization {label}", normalization_error(dist, spec), 5e-9)
        for label, dist in _NORMALIZATION_HANDLES
    )
    checks.extend(_mgf_checks(spec))
    checks.extend(_mode_checks())
    checks.extend(_bhn_checks(spec))
    checks.append(
        _largest_gap("cdf central difference matches pdf", 1e-6, _cdf_slope, _SLOPE_HANDLES)
    )
    return checks


# ---------------------------------------------------------------------------
# order statistics and samplers


_KS_TRIALS = 40_000

# (ks check name, base law, n, j): the j-th of n draws of the base law, read
# by the order statistic density row and by the ks checks
_ORDER_STAT_CASES = (
    ("ks skew-normal order statistic (n=5, j=3)", SkewNormal(0.0, 1.0, 1.0), 5, 3),
    ("ks normal order statistic (n=5, j=2)", Normal(0.0, 1.0), 5, 2),
    ("ks snb maximum order statistic (lam=1, n=3)", SNB(1.0, 1), 3, 3),
    ("ks snb minimum order statistic (lam=-1, n=4)", SNB(-1.0, 2), 4, 1),
)


def _ks_check(name, values, cdf):
    values = np.asarray(values, dtype=float)
    stat = ks_statistic(values, cdf)
    return _check(name, stat, KS_COEFF_01 / np.sqrt(values.size))


def _order_stat_ks_checks(seed):
    out = []
    for i, (name, base, n, j) in enumerate(_ORDER_STAT_CASES):
        rep = mc_order_stat_ks(OrderStatSpec(base, n, j), _KS_TRIALS, seed + i)
        out.append(_check(name, rep.statistic, rep.critical_value))

    # second smallest of five standard normals against the two-shape handle
    rng = np.random.default_rng(seed + 10)
    draws = rng.standard_normal((_KS_TRIALS, 5))
    second = np.partition(draws, 1, axis=1)[:, 1]
    out.append(
        _ks_check(
            "ks normal order statistic vs tbsn mapping (n=5, j=2)",
            second,
            TBSN(1.0, -1.0, 1, 3).cdf,
        )
    )
    return out


def _conditioning_checks(seed):
    out = []
    below = mc_conditioning_ks(1.0, 1.0, 1.0, n=2, m=0, trials=10_000, seed=seed + 20)
    two = mc_conditioning_ks(1.0, 1.0, 1.0, n=2, m=2, trials=10_000, seed=seed + 21)
    for tag, rep in (("below-only", below), ("two-sided", two)):
        out.append(
            _check(
                f"conditioning {tag} ks", rep.ks.statistic, rep.ks.critical_value
            )
        )
        p = rep.expected_probability
        se = np.sqrt(p * (1.0 - p) / rep.n_proposals)
        out.append(
            _check(
                f"conditioning {tag} acceptance z-score",
                abs(rep.empirical_probability - p) / se,
                3.0,
            )
        )
    return out


def _sampler_checks(seed):
    out = []

    sn = SkewNormal(0.0, 1.0, 1.0)
    values = sn.sample(_KS_TRIALS, seed + 30)
    out.append(_ks_check("ks skew-normal sampler", values, sn.cdf))

    z = SkewNormal(0.0, 1.0, 3.0).sample(_KS_TRIALS, seed + 31)
    out.append(_ks_check("ks squared skew-normal vs chi-square(1)", z * z, chisq1_cdf))

    bsn = BetaSkewNormal(1.0, 2.0, 3.0)
    values = bsn.sample(_KS_TRIALS, seed + 32)
    out.append(_ks_check("ks bsn quantile-transform sampler", values, bsn.cdf))

    batch = sample_rejection(1.0, 5, _KS_TRIALS, seed + 33)
    target = BetaSkewNormal(1.0, 5.0, 1.0)
    out.append(_ks_check("ks bsn rejection sampler", batch.values, target.cdf))
    p = 1.0 / 5.0
    se = np.sqrt(p * (1.0 - p) / batch.n_trials)
    out.append(
        _check(
            "rejection acceptance rate z-score",
            abs(batch.acceptance_rate - p) / se,
            3.0,
        )
    )
    return out


def _transform_checks(seed):
    out = []

    # probability transform of the latent skew-normal is beta distributed
    dist = BetaSkewNormal(1.0, 2.0, 3.0)
    x = dist.sample(_KS_TRIALS, seed + 40)
    u = dist.base.cdf(x)
    out.append(_ks_check("ks probability transform to beta", u, Beta(2.0, 3.0).cdf))
    out.append(
        _ks_check(
            "ks survival transform to swapped beta",
            dist.base.sf(x),
            Beta(3.0, 2.0).cdf,
        )
    )

    cdf_dist = BetaSkewNormal(1.0, 1.0, 3.0)
    r = kumaraswamy_transform(cdf_dist, "cdf", 2.0, cdf_dist.sample(_KS_TRIALS, seed + 41))
    out.append(_ks_check("ks kumaraswamy cdf route", r, Kumaraswamy(2.0, 3.0).cdf))

    surv_dist = BetaSkewNormal(0.5, 3.0, 1.0)
    r = kumaraswamy_transform(
        surv_dist, "survival", 2.0, surv_dist.sample(_KS_TRIALS, seed + 42)
    )
    out.append(_ks_check("ks kumaraswamy survival route", r, Kumaraswamy(2.0, 3.0).cdf))

    return out


def _log_concavity_check():
    ok = all(log_concavity_order_stat_check(1.0, 5, j) for j in range(1, 6))
    ok = ok and log_concavity_order_stat_check(-3.0, 7, 4)
    return _flag("order statistic log-concavity", ok)


def run_orderstats(seed=0, spec=None):
    """Monte Carlo order-statistic and sampler suite, seeded and repeatable."""
    del spec
    checks = [_largest_gap(
        "order statistic densities match classical formula", 1e-10,
        lambda name, base, n, j: [(
            analytic_order_stat(OrderStatSpec(base, n, j)).pdf(GRID),
            order_stat_pdf(base, n, j, GRID),
        )],
        _ORDER_STAT_CASES,
    )]
    checks.extend(_order_stat_ks_checks(seed))
    checks.extend(_conditioning_checks(seed))
    checks.extend(_sampler_checks(seed))
    checks.extend(_transform_checks(seed))
    checks.append(_log_concavity_check())
    return checks


# ---------------------------------------------------------------------------
# reports

# suite name -> runner.  Each runner looks run_* up when it runs, so a
# wrapper bound in place of one (as bench/tracer.py binds one) is called.
_PARTS = {
    "identities": lambda **kw: run_identities(**kw),
    "moments": lambda **kw: run_moments(**kw),
    "orderstats": lambda **kw: run_orderstats(**kw),
}
_RUNNERS = {**_PARTS, "all": lambda **kw: [c for run in _PARTS.values() for c in run(**kw)]}
SUITES = tuple(_RUNNERS)


def run_suite(name, seed=0, spec=None):
    """Run one suite by name and wrap it in a JSON-ready report dict."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    checks = _RUNNERS[name](seed=seed, spec=spec)
    failed = sum(1 for c in checks if not c.passed)
    return {
        "suite": name,
        "seed": int(seed),
        "n_checks": len(checks),
        "n_failed": failed,
        "passed": failed == 0,
        "checks": [c.to_json_dict() for c in checks],
    }


def report_json(report):
    """Stable serialization: insertion order, two-space indent, one trailing newline."""
    return json.dumps(report, indent=2) + "\n"
