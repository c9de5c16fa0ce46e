"""Named verification suites shared by the command line and the test suite.

Each suite returns a list of CheckResult records.  Reports are fully
deterministic: the same suite name, seed, and quadrature settings produce
byte-identical JSON (no timestamps, no environment-dependent fields).
The stochastic checks draw from seeded PCG64 generators only.
"""

from dataclasses import dataclass
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

SUITES = ("identities", "moments", "orderstats", "all")


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


def _max_abs(values):
    return float(np.max(np.abs(values)))


def _pdf_gap(d1, d2, grid=GRID):
    return _max_abs(d1.pdf(grid) - d2.pdf(grid))


def _cdf_gap(d1, d2, grid=GRID):
    return _max_abs(d1.cdf(grid) - d2.cdf(grid))


# ---------------------------------------------------------------------------
# identities


def _owen_checks(rng):
    h = rng.uniform(-6.0, 6.0, 10_000)
    a = rng.uniform(-6.0, 6.0, 10_000)
    return [
        _check(
            "owen t odd in second argument",
            _max_abs(owen_t(h, -a) + owen_t(h, a)),
            1e-12,
        ),
        _check(
            "owen t even in first argument",
            _max_abs(owen_t(-h, a) - owen_t(h, a)),
            1e-12,
        ),
        _check(
            "owen t at unit slope vs normal cdf product",
            _max_abs(2.0 * owen_t(h, 1.0) - norm_cdf(h) * norm_cdf(-h)),
            1e-12,
        ),
    ]


def _sn_cdf_checks():
    lams = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 10.0, -10.0)
    pr1 = max(
        _max_abs(
            1.0
            - SkewNormal(0.0, 1.0, lam).cdf(-GRID)
            - SkewNormal(0.0, 1.0, -lam).cdf(GRID)
        )
        for lam in lams
    )
    pr2 = _max_abs(SkewNormal(0.0, 1.0, 1.0).cdf(GRID) - norm_cdf(GRID) ** 2)
    pr3 = max(
        _max_abs(
            SkewNormal(0.0, 1.0, lam).cdf(GRID)
            + SkewNormal(0.0, 1.0, -lam).cdf(GRID)
            - 2.0 * norm_cdf(GRID)
        )
        for lam in lams
    )
    closure = max(
        _max_abs(
            SkewNormal(0.0, 1.0, -lam).pdf(-GRID) - SkewNormal(0.0, 1.0, lam).pdf(GRID)
        )
        for lam in lams
    )
    return [
        _check("sn cdf reflection identity", pr1, 1e-12),
        _check("sn cdf unit shape square identity", pr2, 1e-12),
        _check("sn cdf opposite shapes sum identity", pr3, 1e-12),
        _check("sn density negation closure", closure, 1e-12),
    ]


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
    worst_fwd = 0.0
    beyond = 0
    worst_inv = 0.0
    y_grid = np.linspace(1e-6, 1.0 - 1e-6, 257)
    for a in _BETA_SHAPES:
        for b in _BETA_SHAPES:
            y = inv_reg_inc_beta(p, a, b)
            bound = _beta_slope(y, a, b) * np.spacing(np.abs(y))
            ok = np.isfinite(bound) & (bound <= 2.5e-13)
            beyond += int(np.sum(~ok))
            if np.any(ok):
                worst_fwd = max(
                    worst_fwd, _max_abs(reg_inc_beta(y[ok], a, b) - p[ok])
                )
            pg = reg_inc_beta(y_grid, a, b)
            back_bound = np.spacing(np.abs(pg)) / _beta_slope(y_grid, a, b)
            ok = np.isfinite(back_bound) & (back_bound <= 2.5e-13)
            if np.any(ok):
                worst_inv = max(
                    worst_inv, _max_abs(inv_reg_inc_beta(pg[ok], a, b) - y_grid[ok])
                )
    return [
        _check("incomplete beta roundtrip (forward)", worst_fwd, 1e-12),
        _check("incomplete beta roundtrip (inverse)", worst_inv, 1e-12),
        _info("incomplete beta roundtrip cells beyond double resolution", beyond),
    ]


def _bsn_reduction_checks():
    out = []

    gap = 0.0
    for lam in (-2.0, -0.5, 0.7, 1.5):
        bsn = BetaSkewNormal(lam, 1.0, 1.0)
        sn = SkewNormal(0.0, 1.0, lam)
        gap = max(gap, _pdf_gap(bsn, sn), _cdf_gap(bsn, sn))
    out.append(_check("bsn with a=b=1 is skew-normal", gap, 1e-10))

    gap = 0.0
    for a, b in ((0.7, 2.2), (2.0, 3.0), (0.25, 0.5)):
        bsn = BetaSkewNormal(0.0, a, b)
        bn = BetaNormal(a, b)
        gap = max(gap, _pdf_gap(bsn, bn), _cdf_gap(bsn, bn))
    out.append(_check("bsn with lam=0 is beta-normal", gap, 1e-10))

    std = Normal(0.0, 1.0)
    for name, dist in (
        ("bsn(0,1,1) is standard normal", BetaSkewNormal(0.0, 1.0, 1.0)),
        ("bsn(1,1/2,1) is standard normal", BetaSkewNormal(1.0, 0.5, 1.0)),
        ("bsn(-1,1,1/2) is standard normal", BetaSkewNormal(-1.0, 1.0, 0.5)),
    ):
        out.append(_check(name, max(_pdf_gap(dist, std), _cdf_gap(dist, std)), 1e-10))

    gap = 0.0
    for lam, a, b in ((1.0, 2.0, 3.0), (0.8, 0.5, 2.5), (-2.0, 3.0, 0.25)):
        x = BetaSkewNormal(lam, a, b)
        y = BetaSkewNormal(-lam, b, a)
        gap = max(gap, _max_abs(x.pdf(-GRID) - y.pdf(GRID)))
        gap = max(gap, _max_abs(x.cdf(-GRID) - y.sf(GRID)))
    out.append(_check("bsn negation swaps shapes", gap, 1e-10))

    return out


def _tbsn_collapse_checks():
    out = []

    gap = 0.0
    for lam in SHAPE_LATTICE:
        sn = SkewNormal(0.0, 1.0, lam)
        gap = max(gap, _pdf_gap(TBSN(lam, 0.0, 1, 1), sn))
        gap = max(gap, _pdf_gap(TBSN(0.0, lam, 1, 1), sn))
    out.append(
        _check("tbsn order (1,1) with one zero shape is skew-normal", gap, 1e-10)
    )

    gap = 0.0
    for n in ORDER_LATTICE:
        for m in ORDER_LATTICE:
            for lam in SHAPE_LATTICE:
                gap = max(gap, _pdf_gap(TBSN(lam, lam, n, m), SNB(lam, n + m)))
    out.append(_check("tbsn equal shapes collapse to snb", gap, 1e-10))
    out.append(
        _check(
            "tbsn equal shapes cdf spot check",
            _cdf_gap(TBSN(1.0, 1.0, 2, 1), SNB(1.0, 3)),
            1e-10,
        )
    )

    gap = 0.0
    for n in ORDER_LATTICE:
        for m in ORDER_LATTICE:
            for lam in SHAPE_LATTICE:
                gap = max(gap, _pdf_gap(TBSN(lam, 0.0, n, m), SNB(lam, n)))
                gap = max(gap, _pdf_gap(TBSN(0.0, lam, n, m), SNB(lam, m)))
    out.append(_check("tbsn single zero shape collapses to snb", gap, 1e-10))

    gap = 0.0
    for n in ORDER_LATTICE:
        for m in ORDER_LATTICE:
            for lam in SHAPE_LATTICE:
                gap = max(gap, _pdf_gap(TBSN(lam, -lam, n, m), GBSN(lam, n, m)))
                gap = max(gap, _pdf_gap(TBSN(-lam, lam, n, m), GBSN(lam, m, n)))
    out.append(_check("tbsn opposite shapes give gbsn", gap, 1e-10))
    out.append(
        _check(
            "tbsn opposite shapes cdf spot check",
            _cdf_gap(TBSN(1.0, -1.0, 1, 3), GBSN(1.0, 1, 3)),
            1e-10,
        )
    )

    std = Normal(0.0, 1.0)
    gap = 0.0
    for n in ORDER_LATTICE:
        for m in ORDER_LATTICE:
            gap = max(gap, _pdf_gap(TBSN(0.0, 0.0, n, m), std))
    for lam1 in SHAPE_LATTICE:
        for lam2 in SHAPE_LATTICE:
            gap = max(gap, _pdf_gap(TBSN(lam1, lam2, 0, 0), std))
    out.append(
        _check("tbsn zero shapes or zero orders are standard normal", gap, 1e-10)
    )

    return out


def _constant_checks():
    out = []
    lams = np.linspace(-5.0, 5.0, 41)

    gap = max(
        max(abs(snb_constant(0, lam) - 1.0), abs(snb_constant(1, lam) - 2.0))
        for lam in lams
    )
    out.append(_check("snb constants of order 0 and 1", gap, 1e-9))

    gap = max(
        abs(snb_constant(2, lam) - np.pi / np.arctan(np.sqrt(1.0 + 2.0 * lam * lam)))
        for lam in lams
    )
    out.append(_check("snb constant of order 2 closed form", gap, 1e-9))

    gap = max(abs(snb_constant(n, 1.0) - (n + 1)) for n in range(6))
    out.append(_check("snb constants at lam=1 are n+1", gap, 1e-9))

    gap = 0.0
    for n in range(6):
        gap = max(gap, _max_abs(SNB(1.0, n).cdf(GRID) - norm_cdf(GRID) ** (n + 1)))
    out.append(_check("snb cdf at lam=1 is a normal cdf power", gap, 1e-10))

    # the j-th of n standard normal order statistics has constant
    # n! / ((j-1)! (n-j)!) in front of Phi^(j-1) (1-Phi)^(n-j) phi
    gap = 0.0
    for n in range(1, 7):
        for j in range(1, n + 1):
            want = math.factorial(n) / (
                math.factorial(j - 1) * math.factorial(n - j)
            )
            gap = max(gap, abs(gbsn_constant(j - 1, n - j, 1.0) - want))
    out.append(
        _check("gbsn constant at lam=1 matches order statistic coefficient", gap, 1e-9)
    )

    gap = 0.0
    for n, m, lam in ((1, 1, 0.5), (2, 3, 1.0), (3, 2, -0.7), (0, 2, 1.3), (2, 0, 0.9)):
        gap = max(
            gap, abs(gbsn_constant(n, m, lam) - gbsn_constant_series(n, m, lam))
        )
    out.append(_check("gbsn constant alternating series agreement", gap, 1e-9))

    gap = 0.0
    for n in ORDER_LATTICE:
        for m in ORDER_LATTICE:
            for lam in (0.0, 1.0, -2.0):
                gap = max(
                    gap,
                    abs(tbsn_constant(n, m, lam, lam) - 1.0 / snb_constant(n + m, lam)),
                )
    out.append(_check("tbsn kernel reduction to snb kernel", gap, 1e-12))

    return out


def _gb1_reduction_checks():
    out = []
    gap = 0.0
    for a, b in ((2.0, 3.0), (0.5, 1.5)):
        gap = max(
            gap,
            _pdf_gap(GB1(a, b, 1.0, 1.0), Beta(a, b), UNIT_GRID),
            _cdf_gap(GB1(a, b, 1.0, 1.0), Beta(a, b), UNIT_GRID),
        )
    out.append(_check("gb1 with p=q=1 is beta", gap, 1e-12))

    gap = 0.0
    for p, b in ((2.0, 3.0), (1.5, 0.5)):
        gap = max(
            gap,
            _pdf_gap(GB1(1.0, b, p, 1.0), Kumaraswamy(p, b), UNIT_GRID),
            _cdf_gap(GB1(1.0, b, p, 1.0), Kumaraswamy(p, b), UNIT_GRID),
        )
    out.append(_check("gb1 with a=q=1 is kumaraswamy", gap, 1e-12))
    return out


def _bsn_tbsn_identity_checks():
    out = []

    gap = 0.0
    for n in (1, 2, 3):
        for m in (0, 2):
            gap = max(
                gap, _pdf_gap(BetaSkewNormal(1.0, n, 1.0), TBSN(1.0, 0.0, 2 * n - 1, m))
            )
    out.append(
        _check("bsn(1,n,1) equals tbsn order (2n-1,m) at shapes (1,0)", gap, 1e-10)
    )

    gap = 0.0
    for m in (1, 2, 3):
        for n in (0, 3):
            gap = max(
                gap,
                _pdf_gap(BetaSkewNormal(-1.0, 1.0, m), TBSN(0.0, -1.0, n, 2 * m - 1)),
            )
    out.append(
        _check("bsn(-1,1,m) equals tbsn order (n,2m-1) at shapes (0,-1)", gap, 1e-10)
    )

    gap = 0.0
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            gap = max(
                gap,
                _pdf_gap(BetaSkewNormal(0.0, n, m), TBSN(1.0, -1.0, n - 1, m - 1)),
            )
    out.append(
        _check("bsn(0,n,m) equals tbsn order (n-1,m-1) at shapes (1,-1)", gap, 1e-10)
    )

    return out


def _skewing_weight_checks(spec):
    out = []

    total = integrate_unit(
        lambda u: skewing_weight(u, 1.0, 2.0, 3.0), spec
    )
    out.append(_check("skewing weight integrates to one", abs(total - 1.0), 1e-8))

    # density of bsn must factor as phi(y) * weight(Phi(y))
    y = np.linspace(-5.0, 5.0, 201)
    u = norm_cdf(y)
    keep = (u > 0.0) & (u < 1.0)
    dist = BetaSkewNormal(1.5, 2.0, 0.7)
    lhs = dist.pdf(y[keep])
    rhs = np.exp(-0.5 * y[keep] ** 2) / np.sqrt(2.0 * np.pi) * skewing_weight(
        u[keep], 1.5, 2.0, 0.7
    )
    out.append(_check("skewing weight reproduces bsn density", _max_abs(lhs - rhs), 1e-10))

    w = skewing_weight(np.linspace(0.01, 0.99, 99), 0.0, 1.0, 1.0)
    out.append(_check("skewing weight constant for lam=0,a=b=1", _max_abs(w - 1.0), 1e-12))

    return out


def _roundtrip_check():
    q = np.arange(1, 100) / 100.0
    q_extreme = np.array([0.001, 0.999])
    handles = (
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
    worst = 0.0
    worst_extreme = 0.0
    for dist in handles:
        worst = max(worst, _max_abs(dist.cdf(dist.quantile(q)) - q))
        worst_extreme = max(
            worst_extreme, _max_abs(dist.cdf(dist.quantile(q_extreme)) - q_extreme)
        )
    return [
        _check("cdf-quantile roundtrip across families", worst, 1e-10),
        _info("cdf-quantile roundtrip at q=0.001, 0.999", worst_extreme),
    ]


def run_identities(seed=0, spec=None):
    """Deterministic identity suite; the seed feeds only the random grids."""
    spec = DEFAULT_SPEC if spec is None else spec
    rng = np.random.default_rng(seed)
    checks = []
    checks.extend(_owen_checks(rng))
    checks.extend(_sn_cdf_checks())
    checks.extend(_beta_roundtrip_checks())
    checks.extend(_bsn_reduction_checks())
    checks.extend(_tbsn_collapse_checks())
    checks.extend(_constant_checks())
    checks.extend(_gb1_reduction_checks())
    checks.extend(_bsn_tbsn_identity_checks())
    checks.extend(_skewing_weight_checks(spec))
    checks.extend(_roundtrip_check())
    return checks


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


def _recursion_check(spec):
    worst = 0.0
    for lam in (0.0, 1.0, -1.0):
        for a in (2.0, 3.0):
            for b in (2.0, 3.0):
                for k in (2, 3, 4):
                    worst = max(worst, moment_recursion_gap(lam, a, b, k, spec))
    return _check("moment recursion lattice", worst, 1e-6)


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


def _normalization_checks(spec):
    from .core import normalization_error

    return [
        _check(f"normalization {label}", normalization_error(dist, spec), 5e-9)
        for label, dist in _NORMALIZATION_HANDLES
    ]


def _mgf_checks(spec):
    out = []

    gap = max(
        abs(BetaSkewNormal(lam, a, b).mgf(0.0, spec) - 1.0)
        for lam, a, b in ((1.0, 2.0, 3.0), (-1.0, 0.5, 2.0), (2.0, 1.0, 1.0))
    )
    out.append(_check("mgf at zero", gap, 1e-9))

    dist = BetaSkewNormal(0.0, 1.0, 1.0, mu=0.5, sigma=2.0)
    t = np.array([-0.5, 0.3, 1.0])
    want = np.exp(0.5 * t + 0.5 * (2.0 * t) ** 2)
    out.append(
        _check("normal mgf closed form", _max_abs(dist.mgf(t, spec) - want), 1e-8)
    )

    dist = BetaSkewNormal(1.0, 2.0, 3.0)
    h = 1e-5
    slope = (dist.mgf(h, spec) - dist.mgf(-h, spec)) / (2.0 * h)
    out.append(
        _check(
            "mgf derivative matches mean",
            abs(slope - dist.moments(spec).mean),
            1e-5,
        )
    )
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
        _check("bhn limit distance at lam=100 (a=2,b=3)", bhn_limit_distance(100.0, 2.0, 3.0, spec), 0.02),
    ]


def _cdf_derivative_check():
    worst = 0.0
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
    ):
        lo, hi = dist.support
        if np.isinf(lo):
            x = np.linspace(-2.5, 2.5, 11) * dist.scale + dist.location
        elif np.isinf(hi):
            x = lo + np.linspace(0.2, 2.5, 9)
        else:
            x = lo + (hi - lo) * np.linspace(0.1, 0.9, 9)
        h = 1e-6 * max(dist.scale, 1.0)
        approx = (dist.cdf(x + h) - dist.cdf(x - h)) / (2.0 * h)
        worst = max(worst, _max_abs(approx - dist.pdf(x)))
    return _check("cdf central difference matches pdf", worst, 1e-6)


def run_moments(seed=0, spec=None):
    """Moment and shape suite; deterministic, the seed is ignored."""
    del seed
    spec = DEFAULT_SPEC if spec is None else spec
    checks = []
    checks.extend(_grid_row_checks(spec))
    checks.append(_recursion_check(spec))
    checks.extend(_normalization_checks(spec))
    checks.extend(_mgf_checks(spec))
    checks.extend(_mode_checks())
    checks.extend(_bhn_checks(spec))
    checks.append(_cdf_derivative_check())
    return checks


# ---------------------------------------------------------------------------
# order statistics and samplers


_KS_TRIALS = 40_000


def _ks_check(name, values, cdf):
    values = np.asarray(values, dtype=float)
    stat = ks_statistic(values, cdf)
    return _check(name, stat, KS_COEFF_01 / np.sqrt(values.size))


def _order_stat_density_check():
    cases = (
        (SkewNormal(0.0, 1.0, 1.0), 5, 3),
        (Normal(0.0, 1.0), 5, 2),
        (SNB(1.0, 1), 3, 3),
        (SNB(-1.0, 2), 4, 1),
    )
    worst = 0.0
    for base, n, j in cases:
        mapped = analytic_order_stat(OrderStatSpec(base, n, j))
        worst = max(worst, _max_abs(mapped.pdf(GRID) - order_stat_pdf(base, n, j, GRID)))
    return _check("order statistic densities match classical formula", worst, 1e-10)


def _order_stat_ks_checks(seed):
    out = []
    cases = (
        ("ks skew-normal order statistic (n=5, j=3)", SkewNormal(0.0, 1.0, 1.0), 5, 3),
        ("ks normal order statistic (n=5, j=2)", Normal(0.0, 1.0), 5, 2),
        ("ks snb maximum order statistic (lam=1, n=3)", SNB(1.0, 1), 3, 3),
        ("ks snb minimum order statistic (lam=-1, n=4)", SNB(-1.0, 2), 4, 1),
    )
    for i, (name, base, n, j) in enumerate(cases):
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

    from .special import chisq1_cdf

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
    checks = [_order_stat_density_check()]
    checks.extend(_order_stat_ks_checks(seed))
    checks.extend(_conditioning_checks(seed))
    checks.extend(_sampler_checks(seed))
    checks.extend(_transform_checks(seed))
    checks.append(_log_concavity_check())
    return checks


# ---------------------------------------------------------------------------
# reports


def run_suite(name, seed=0, spec=None):
    """Run one suite by name and wrap it in a JSON-ready report dict."""
    if name == "identities":
        checks = run_identities(seed=seed, spec=spec)
    elif name == "moments":
        checks = run_moments(seed=seed, spec=spec)
    elif name == "orderstats":
        checks = run_orderstats(seed=seed, spec=spec)
    elif name == "all":
        checks = (
            run_identities(seed=seed, spec=spec)
            + run_moments(seed=seed, spec=spec)
            + run_orderstats(seed=seed, spec=spec)
        )
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
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
