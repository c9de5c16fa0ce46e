"""Quantile contract of every family, tail contract of the eleven
location-scale families, and tail accuracy of the root-solved ones.

SN quantiles solve the skew-normal cdf by bracketed Newton in log space;
SNB, GBSN and TBSN solve the per-segment polynomial of their cumulative
table the same way.  BSN, BetaNormal, BetaHalfNormal, Beta, GB1 and
Kumaraswamy share one beta-generated composition, whose quantile solves
log I_F(z)(a, b) in z the same way, started from a per-law table built
by the composed route (the latent incomplete-beta root in log space,
then the base quantile); a side bounded at an endpoint keeps that
composed route, and at a = 1 or b = 1 the latent is a closed form.
Round trips are judged on q's own side of 1/2: cdf(x) against q, or
sf(x) against 1 - q where the family has an sf, relative to that tail
probability.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, betaincc, erf, erfc, log_ndtr, ndtr

from test_special import _roundtrip_slope

from betasn import (
    GB1,
    GBSN,
    SNB,
    TBSN,
    Beta,
    BetaHalfNormal,
    BetaNormal,
    BetaSkewNormal,
    Kumaraswamy,
    Normal,
    OrderStatSpec,
    SkewNormal,
    analytic_order_stat,
    balakrishnan,
    betafamily,
    inv_reg_inc_beta,
    skewnormal,
    special,
)
from betasn.core import LocationScale

RTOL = 1e-10
TAILS = np.geomspace(1e-12, 0.5, 25)
Q_GRID = np.concatenate([TAILS, 1.0 - TAILS[-2::-1]])

lams = st.floats(-50.0, 50.0)
shapes = st.floats(0.05, 20.0)
extra_q = st.lists(st.floats(1e-12, 1.0 - 1e-12), max_size=8)


def _relative_miss(dist, q, x):
    got, want = dist.cdf(x), q
    if hasattr(dist, "sf"):
        upper = q > 0.5
        got = np.where(upper, dist.sf(x), got)
        want = np.where(upper, 1.0 - q, q)
    return np.abs(got - want) / want


def _check_tails(dist, extra=()):
    q = np.unique(np.concatenate([Q_GRID, extra]))
    x = dist.quantile(q)
    assert np.all(np.diff(x) >= 0.0), dist
    assert np.max(_relative_miss(dist, q, x)) <= RTOL, dist


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(lam=lams, extra=extra_q)
def test_sn_tails(lam, extra):
    _check_tails(SkewNormal(0.0, 1.0, lam), extra)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(lam=lams, a=shapes, b=shapes, extra=extra_q)
def test_bsn_tails(lam, a, b, extra):
    _check_tails(BetaSkewNormal(lam, a, b), extra)


@pytest.mark.parametrize("dist", [SNB(1.0, 3), GBSN(2.0, 4, 1), TBSN(5.0, -0.5, 3, 2)], ids=repr)
def test_table_tails(dist):
    _check_tails(dist)


def test_table_far_tail_repro():
    dist = TBSN(5.0, -0.5, 3, 2)
    q = np.array([1e-12, 1e-8])
    x = dist.quantile(q)
    assert x[0] < x[1]
    assert np.max(np.abs(dist.cdf(x) - q) / q) <= RTOL


# BetaNormal and BetaHalfNormal round-trip through their own cdf and sf
# (_check_tails), and also through scipy's incomplete beta of the base cdf
# (q <= 1/2) or survival (q > 1/2), which shares no code with the library
BETA_SHAPES = [(3.0, 0.5), (1.0, 0.3), (0.5, 0.05), (0.5, 2.0), (20.0, 0.05), (0.05, 20.0)]


def _latent_miss(q, a, b, base_cdf, base_sf):
    upper = q > 0.5
    got = np.where(upper, betainc(b, a, base_sf), betainc(a, b, base_cdf))
    want = np.where(upper, 1.0 - q, q)
    return np.abs(got - want) / want


@pytest.mark.parametrize("a, b", BETA_SHAPES)
def test_beta_normal_tails(a, b):
    _check_tails(BetaNormal(a, b))
    x = BetaNormal(a, b).quantile(Q_GRID)
    assert np.all(np.diff(x) >= 0.0)
    assert np.max(_latent_miss(Q_GRID, a, b, ndtr(x), ndtr(-x))) <= RTOL
    upper = Q_GRID > 0.5
    q = Q_GRID[upper]
    assert np.array_equal(x[upper], -BetaNormal(b, a).quantile(1.0 - q))


def test_beta_normal_subnormal_latent():
    # at a = 0.05 the latent w = I^-1(q; a, b) passes 1e-300 near
    # q = 1.2e-15 and reaches 3e-302 at q = 1e-15; every representable w
    # must pass through unclipped.  At q = 1e-16, w is about 3e-322 and
    # carries about two significant bits, so no round trip is asserted.
    q = np.concatenate([np.geomspace(2e-15, 1e-15, 6), [1e-16]])[::-1]
    x = BetaNormal(0.05, 20.0).quantile(q)
    assert np.all(np.diff(x) > 0.0)
    assert np.max(np.abs(betainc(0.05, 20.0, ndtr(x[1:])) - q[1:]) / q[1:]) <= RTOL
    # w from about 1e-312 to 1e-300: subnormal, yet still distinct and
    # resolved to its own spacing, which is under 1e-11 relative there
    q = np.geomspace(3e-16, 1.2e-15, 12)
    assert np.all(np.diff(BetaNormal(0.05, 20.0).quantile(q)) > 0.0)
    w = inv_reg_inc_beta(q, 0.05, 20.0)
    assert 0.0 < w[0] < 1e-310 and w[-1] > 1e-301
    assert np.max(np.abs(betainc(0.05, 20.0, w) - q) / q) <= RTOL


@pytest.mark.parametrize("a, b", BETA_SHAPES)
def test_beta_half_normal_tails(a, b):
    _check_tails(BetaHalfNormal(a, b))
    x = BetaHalfNormal(a, b).quantile(Q_GRID)
    assert np.all(x > 0.0) and np.all(np.diff(x) >= 0.0)
    u = x / np.sqrt(2.0)
    assert np.max(_latent_miss(Q_GRID, a, b, erf(u), erfc(u))) <= RTOL


# Every beta-generated family over the box of shapes and skews, down to
# q = 1e-300 below 1/2 (against cdf) and to 1 - 1e-12 above (against sf).
BOX_SHAPES = (0.05, 0.3, 2.0, 20.0)
BOX_LAMS = (-50.0, -1.0, 0.0, 1.0, 50.0)
BOX_LOWER = np.geomspace(1e-300, 0.5, 100)
BOX_UPPER = 1.0 - np.geomspace(1e-12, 0.5, 30)[-2::-1]
BOX = [
    dist
    for a in BOX_SHAPES
    for b in BOX_SHAPES
    for dist in (
        *(BetaSkewNormal(lam, a, b) for lam in BOX_LAMS),
        BetaNormal(a, b),
        BetaHalfNormal(a, b),
    )
]
@pytest.mark.parametrize("dist", BOX, ids=repr)
def test_beta_generated_box_tails(dist):
    lower = dist.quantile(BOX_LOWER)
    upper = dist.quantile(BOX_UPPER)
    # the half-normal's lowest quantiles are subnormal x, which carry
    # few bits; only normal doubles are judged
    ok = np.abs(lower) >= np.finfo(float).tiny
    assert np.all(np.diff(np.concatenate([lower[ok], upper])) > 0.0)
    want = BOX_LOWER[ok]
    assert np.max(np.abs(dist.cdf(lower[ok]) - want) / want) <= RTOL
    want = 1.0 - BOX_UPPER
    assert np.max(np.abs(dist.sf(upper) - want) / want) <= RTOL


@pytest.mark.parametrize("dist", BOX, ids=repr)
def test_beta_generated_logs_finite(dist):
    # logcdf and logsf are finite wherever logpdf is, far past the
    # underflow of F, S and the cdf itself
    z = np.linspace(-60.0, 60.0, 241)
    finite = np.isfinite(dist.logpdf(z))
    assert np.all(np.isfinite(dist.logcdf(z)[finite]))
    assert np.all(np.isfinite(dist.logsf(z)[finite]))


# the order statistics of samples near 10^4 are BSN laws with shapes in the
# thousands; the continued fraction for I_w serves only where it is tiny
LARGE = [(BetaNormal(1000.0, 9002.0), Normal())] + [
    (analytic_order_stat(OrderStatSpec(base, 10000, 3000)), base)
    for base in (SkewNormal(0.0, 1.0, lam) for lam in (-3.0, 0.0, 1.0, 5.0))
]


@pytest.mark.parametrize("dist, base", LARGE, ids=repr)
def test_beta_generated_large_shapes(dist, base):
    # the body and both tails out to where I_w underflows, and the base's
    # own 0.3 quantile, where I_w rounds to 1
    x = np.sort(np.append(dist.quantile(0.5) + np.linspace(-1.0, 1.0, 81), base.quantile(0.3)))
    w = base.cdf(x)
    pairs = ((dist.cdf(x), betainc(dist.a, dist.b, w)), (dist.sf(x), betaincc(dist.a, dist.b, w)))
    for got, want in pairs:
        # scipy keeps its own digits down to about 1e-250
        seen = want > 1e-250
        assert np.max(np.abs(got[seen] - want[seen]) / want[seen]) < 1e-11
    assert np.all(np.isfinite(dist.logcdf(x))) and np.all(np.isfinite(dist.logsf(x)))
    lower, upper = dist.quantile(BOX_LOWER), dist.quantile(BOX_UPPER)
    assert np.all(np.diff(np.concatenate([lower, upper])) > 0.0)
    assert np.max(np.abs(dist.cdf(lower) - BOX_LOWER) / BOX_LOWER) <= RTOL
    want = 1.0 - BOX_UPPER
    assert np.max(np.abs(dist.sf(upper) - want) / want) <= RTOL


UNIT_SHAPES = [(a, b) for a in (0.05, 0.5, 2.0, 20.0) for b in (0.05, 0.5, 2.0, 20.0)]


def _unit_tail_miss(q, x, cdf, sf, slope):
    """Round-trip miss on q's own side of 1/2, over what it may be.

    The lower tail must return q to RTOL relative.  The upper tail may
    instead miss by three times the resolution floor slope(x) spacing(x)
    of tests/test_special.py, where that is larger: an x within 1e-16 of
    1 cannot carry a 1e-12 tail.
    """
    lower = q <= 0.5
    tail = np.where(lower, q, 1.0 - q)
    miss = np.abs(np.where(lower, cdf, sf) - tail)
    allowed = np.where(lower, RTOL * tail, np.maximum(RTOL * tail, 3.0 * slope * np.spacing(x)))
    return miss / allowed


@pytest.mark.parametrize("a, b", UNIT_SHAPES)
def test_beta_tails(a, b):
    x = Beta(a, b).quantile(Q_GRID)
    assert np.all(np.diff(x) >= 0.0)
    slope = _roundtrip_slope(x, a, b)
    assert np.max(_unit_tail_miss(Q_GRID, x, betainc(a, b, x), betaincc(a, b, x), slope)) <= 1.0


@pytest.mark.parametrize("a, b", UNIT_SHAPES)
def test_gb1_tails(a, b):
    # GB1(a, b, p, q) is q W^(1/p) with W ~ Beta(a, b); the round trip goes
    # through the latent u = (x/q)^p, whose floor is that of Beta(a, b)
    dist = GB1(a, b, 1.5, 4.0)
    x = dist.quantile(Q_GRID)
    assert np.all(np.diff(x) >= 0.0)
    u = (x / 4.0) ** 1.5
    slope = _roundtrip_slope(u, a, b)
    assert np.max(_unit_tail_miss(Q_GRID, u, betainc(a, b, u), betaincc(a, b, u), slope)) <= 1.0


@pytest.mark.parametrize("p, b", UNIT_SHAPES)
def test_kumaraswamy_tails(p, b):
    # closed form: F(x) = 1 - (1 - x^p)^b, S(x) = (1 - x^p)^b, with
    # 1 - x^p from log x where x^p is near 1, so it keeps its digits there
    dist = Kumaraswamy(p, b)
    x = dist.quantile(Q_GRID)
    assert np.all(np.diff(x) >= 0.0)
    with np.errstate(divide="ignore"):
        log_1m = np.where(x**p < 0.5, np.log1p(-(x**p)), np.log(-np.expm1(p * np.log(x))))
        log_s = b * log_1m
        # the density p b x^(p-1) (1 - x^p)^(b-1), infinite at x = 1 for b < 1
        slope = p * b * x ** (p - 1.0) * np.exp((b - 1.0) * log_1m)
    assert np.max(_unit_tail_miss(Q_GRID, x, -np.expm1(log_s), np.exp(log_s), slope)) <= 1.0


FAMILIES = [
    SkewNormal(0.5, 2.0, 3.0),
    BetaSkewNormal(-2.0, 0.5, 3.0),
    SNB(1.0, 3),
    GBSN(2.0, 4, 1),
    TBSN(5.0, -0.5, 3, 2, mu=1.0, sigma=0.5),
    Normal(0.3, 2.0),
    Beta(0.5, 3.0),
    GB1(2.0, 3.0, 1.5, 4.0),
    Kumaraswamy(2.0, 0.7),
    BetaNormal(0.5, 0.7, mu=1.0, sigma=2.0),
    BetaHalfNormal(0.6, 1.3),
]


@pytest.mark.parametrize("dist", FAMILIES, ids=repr)
def test_quantile_contract(dist):
    for bad in (np.nan, 0.0, 1.0, -0.25, 1.5, [0.5, np.nan]):
        with pytest.raises(ValueError):
            dist.quantile(bad)
    assert type(dist.quantile(0.3)) is float
    assert type(dist.logpdf(0.3)) is float
    q = np.array([[0.1, 0.5, 0.9], [1e-9, 0.25, 1.0 - 1e-9]])
    x = dist.quantile(q)
    assert x.shape == q.shape
    assert np.array_equal(x.ravel(), dist.quantile(q.ravel()))


# one law of each family: the bench panel's members where they differ
CALL_LAWS = [
    SkewNormal(0.0, 1.0, 3.0),
    SkewNormal(0.0, 1.0, -0.7),
    BetaSkewNormal(1.0, 2.0, 3.0),
    BetaSkewNormal(5.0, 0.05, 0.05),
    GB1(2.0, 3.0, 1.5, 2.0),
    Kumaraswamy(0.5, 2.0),
    Normal(0.3, 2.0),
    SNB(1.0, 3),
    GBSN(2.0, 4, 1),
    TBSN(5.0, -0.5, 3, 2),
    Beta(0.5, 3.0),
    BetaNormal(0.5, 2.0),
    BetaHalfNormal(0.6, 1.3),
]
CALL_OUTPUTS = ("pdf", "logpdf", "cdf", "sf", "logcdf", "logsf", "quantile")


@pytest.mark.parametrize("dist", CALL_LAWS, ids=repr)
def test_a_point_does_not_depend_on_its_call(dist):
    # 60 probabilities in the body and 30 in each tail, down to 1e-12; a
    # scalar, a one-point array and the whole array give the same bits
    rng = np.random.default_rng(120)
    t = np.exp(rng.uniform(np.log(1e-12), np.log(0.01), 60))
    q = np.concatenate([rng.uniform(0.01, 0.99, 60), t[:30], 1.0 - t[30:]])
    x = dist.quantile(q)
    for name in CALL_OUTPUTS:
        method, points = getattr(dist, name), (q if name == "quantile" else x)
        whole = method(points).tobytes()
        for i in range(points.size):
            alone = np.float64(method(points[i])).tobytes()
            one = method(points[i : i + 1]).tobytes()
            assert alone == one == whole[8 * i : 8 * i + 8], (name, points[i])


LINE_FAMILIES = [d for d in FAMILIES if isinstance(d, LocationScale)]
TAIL_METHODS = ("cdf", "sf", "logcdf", "logsf")
# the values at -inf and +inf of cdf, sf, logcdf and logsf
TAIL_LIMITS = {"cdf": (0.0, 1.0), "sf": (1.0, 0.0), "logcdf": (-np.inf, 0.0), "logsf": (0.0, -np.inf)}


def _tail_grid(dist):
    return dist.location + dist.scale * np.linspace(-40.0, 40.0, 1610).reshape(7, 230)


@pytest.mark.parametrize("dist", LINE_FAMILIES, ids=repr)
def test_tail_contract(dist):
    x = _tail_grid(dist)
    got = {}
    for name in TAIL_METHODS:
        method = getattr(dist, name)
        got[name] = method(x)
        assert got[name].shape == x.shape, name
        assert type(method(dist.location)) is float, name
        lo, hi, nan = method(np.array([-np.inf, np.inf, np.nan]))
        assert (lo, hi) == TAIL_LIMITS[name] and np.isnan(nan), name
    # the tables sum their segments from either end, so a few ulp apart
    assert np.max(np.abs(got["cdf"] + got["sf"] - 1.0)) <= 8.0 * np.finfo(float).eps


# The table families read cdf and sf off their cumulative table, which
# misses the kernel's mass beyond the truncation window and holds the
# mass of underflowing segments linear, while logcdf and logsf switch to
# the Gauss-Laguerre rule below 1e-30 of the total; below about 1e-45
# the two disagree (on this grid by up to 0.9 relative for TBSN).
TABLE_TAILS_DISAGREE = pytest.mark.xfail(
    strict=True, reason="table cdf/sf lose relative accuracy below ~1e-45; their logs do not"
)


@pytest.mark.parametrize(
    "dist",
    [
        pytest.param(d, marks=TABLE_TAILS_DISAGREE) if isinstance(d, balakrishnan.PowerOfPhi) else d
        for d in LINE_FAMILIES
    ],
    ids=repr,
)
def test_log_tails_match_tails(dist):
    x = _tail_grid(dist)
    for f, log_f in (("cdf", "logcdf"), ("sf", "logsf")):
        v = getattr(dist, f)(x)
        keep = v > 1e-300
        assert np.allclose(np.exp(getattr(dist, log_f)(x)[keep]), v[keep], rtol=1e-12, atol=0.0), f


def test_normal_tails_match_scipy():
    d = Normal(0.3, 2.0)
    x = np.linspace(-80.0, 80.0, 321)
    z = (x - 0.3) / 2.0
    assert np.array_equal(d.cdf(x), ndtr(z))
    assert np.array_equal(d.sf(x), ndtr(-z))
    assert np.array_equal(d.logcdf(x), log_ndtr(z))
    assert np.array_equal(d.logsf(x), log_ndtr(-z))


# solver evaluations per point on 2,000 tail probabilities log-uniform on
# [1e-12, 0.5], half of them mirrored to 1 - t, by the solve they count:
# the skew-normal one (sn), the latent incomplete-beta inverse (latent),
# the beta-generated one (bg) or the table one of SNB, GBSN and TBSN
# (table).  Each bound is about 5% above the count; the start tables are
# built before counting.  Every sn, bg and table point now ends on its
# first evaluation, started from a cached inverse table (the table solves,
# from a linear start with g'' from the secant of two slopes, had bounds
# 2.1, 2.48 and 2.55); from the tail-asymptote
# start, with the predicted stop, the sn bounds were 1.88, 2.25, 1.74,
# 1.63, 1.65 and 2.67, under the step-size rule alone the first five were
# 2.9, 4.5, 2.2, 1.85 and 1.85, and before the asymptotic start and the
# Halley step 4.7, 5.9, 6.3, 6.8 and 7.2.  A BSN quantile ran the latent
# solve and then the sn one, with latent bounds 1.83, 2.02 and 2.11 for
# the three BSN cases below; it now runs neither once its tables are
# built (bound 0).
EVALS_PER_POINT = [
    ("sn(3)", SkewNormal(0.0, 1.0, 3.0), "sn", 1.05),
    ("sn(-0.7)", SkewNormal(0.0, 1.0, -0.7), "sn", 1.05),
    ("sn(50)", SkewNormal(0.0, 1.0, 50.0), "sn", 1.05),
    ("bsn(50,0.05,2)", BetaSkewNormal(50.0, 0.05, 2.0), "sn", 0.0),
    ("bsn(50,0.05,2)", BetaSkewNormal(50.0, 0.05, 2.0), "latent", 0.0),
    ("bsn(-50,3,0.05)", BetaSkewNormal(-50.0, 3.0, 0.05), "sn", 0.0),
    ("bsn(-50,3,0.05)", BetaSkewNormal(-50.0, 3.0, 0.05), "latent", 0.0),
    ("bsn(1,2,3)", BetaSkewNormal(1.0, 2.0, 3.0), "sn", 0.0),
    ("bsn(1,2,3)", BetaSkewNormal(1.0, 2.0, 3.0), "latent", 0.0),
    ("bsn(1,2,3)", BetaSkewNormal(1.0, 2.0, 3.0), "bg", 1.05),
    ("bsn(50,0.05,2)", BetaSkewNormal(50.0, 0.05, 2.0), "bg", 1.05),
    ("bsn(-50,3,0.05)", BetaSkewNormal(-50.0, 3.0, 0.05), "bg", 1.05),
    ("bsn(-10,0.3,0.7)", BetaSkewNormal(-10.0, 0.3, 0.7), "bg", 1.05),
    ("bsn(5,0.05,0.05)", BetaSkewNormal(5.0, 0.05, 0.05), "bg", 1.05),
    ("bn(0.5,2)", BetaNormal(0.5, 2.0), "bg", 1.05),
    ("snb(1,3)", SNB(1.0, 3), "table", 1.05),
    ("gbsn(2,4,1)", GBSN(2.0, 4, 1), "table", 1.05),
    ("tbsn(5,-0.5,3,2)", TBSN(5.0, -0.5, 3, 2), "table", 1.05),
]
# the module whose reference to the shared solver each solve goes through
SOLVER_HOLDER = {"sn": skewnormal, "latent": special, "bg": betafamily, "table": balakrishnan}


def _count_evals(monkeypatch, holder):
    """A list that gets, per solve through holder's solver, its evaluations of each point."""
    solves = []
    inner = holder._bracketed_newton

    def counted(fun, x, *rest):
        evals = np.zeros(np.size(x), dtype=int)
        solves.append(evals)

        def fun_counted(x, idx):
            evals[idx] += 1
            return fun(x, idx)

        return inner(fun_counted, x, *rest)

    monkeypatch.setattr(holder, "_bracketed_newton", counted)
    return solves


@pytest.mark.parametrize(
    "dist, solve, most",
    [case[1:] for case in EVALS_PER_POINT],
    ids=[f"{label}-{solve}" for label, _, solve, _ in EVALS_PER_POINT],
)
def test_quantile_solver_evaluations(monkeypatch, dist, solve, most):
    # deterministic perf guard: counts every point one solve evaluates
    rng = np.random.default_rng(2026)
    t = np.exp(rng.uniform(np.log(1e-12), np.log(0.5), 2000))
    q = np.where(np.arange(t.size) % 2 == 0, t, 1.0 - t)
    dist.quantile(q[:2])
    solves = _count_evals(monkeypatch, SOLVER_HOLDER[solve])
    dist.quantile(q)
    assert sum(evals.sum() for evals in solves) / q.size <= most


def test_sn_root_near_the_median_stops_early(monkeypatch):
    # at lam > 0 and p near 1/2 the root sat against the bracket end
    # Phi^-1((1 + p)/2) of the tail-asymptote start, and a solve that
    # could not stop on that end bisected: 41 evaluations at lam = 50,
    # p = 0.49354, and 12 of these 20,001 points took 10 or more
    solves = _count_evals(monkeypatch, skewnormal)
    SkewNormal(0.0, 1.0, 50.0).quantile(0.49354)
    assert sum(evals.sum() for evals in solves) <= 2
    for lam in (50.0, 300.0):
        solves.clear()
        SkewNormal(0.0, 1.0, lam).quantile(np.linspace(0.3, 0.5, 20001))
        assert max(evals.max(initial=0) for evals in solves) <= 3


# the start table's whole range: p from the smallest subnormal to 1/2
START_P = np.geomspace(5e-324, 0.5, 200)


@pytest.mark.parametrize("lam", (0.05, -0.05, 0.7, -0.7, 3.0, -3.0, 50.0, -50.0, 1e3, 1e6))
def test_sn_start_and_bracket(monkeypatch, lam):
    dist = SkewNormal(0.0, 1.0, lam)
    log_p = np.log(START_P)
    _, lo, hi = skewnormal._start_and_bracket(log_p, lam)
    assert np.all(dist.logcdf(lo) <= log_p) and np.all(log_p <= dist.logcdf(hi))
    solves = _count_evals(monkeypatch, skewnormal)
    x = dist.quantile(START_P)
    assert np.all(np.diff(x) > 0.0)
    # below 1e-300 the round trip meets subnormal F, which has few bits
    deep = START_P >= 1e-300
    assert np.max(np.abs(dist.cdf(x[deep]) - START_P[deep]) / START_P[deep]) <= RTOL
    assert sum(evals.sum() for evals in solves) / START_P.size <= 1.1


@pytest.mark.parametrize("lam", BOX_LAMS)
@pytest.mark.parametrize("a, b", [(2.0, 3.0), (0.05, 20.0), (0.3, 0.7)])
def test_bsn_upper_side_is_the_mirrored_lower_side(lam, a, b):
    # the upper side solves the lower side of BSN(-lam, b, a), so the
    # reflection holds bit for bit
    q = 1.0 - np.geomspace(1e-12, 0.49, 40)
    assert np.array_equal(
        BetaSkewNormal(lam, a, b).quantile(q), -BetaSkewNormal(-lam, b, a).quantile(1.0 - q)
    )


@pytest.mark.parametrize("lam", BOX_LAMS)
def test_bsn_with_unit_shapes_is_its_skew_normal(lam):
    # at a = b = 1 the latent is the tail probability itself
    q = np.concatenate([np.geomspace(1e-300, 0.5, 60), 1.0 - np.geomspace(1e-12, 0.49, 30)])
    assert np.array_equal(BetaSkewNormal(lam, 1.0, 1.0).quantile(q), SkewNormal(0.0, 1.0, lam).quantile(q))


@pytest.mark.parametrize(
    "dist",
    [BetaSkewNormal(2.0, 1.0, 3.0), BetaSkewNormal(-50.0, 4.0, 1.0), BetaNormal(1.0, 0.3), BetaHalfNormal(2.0, 1.0)],
    ids=repr,
)
def test_unit_shape_quantile_is_one_base_quantile(monkeypatch, dist):
    # I_F(1, b) = 1 - S^b and I_F(a, 1) = F^a: no start table, no latent
    # and no bg solve, and the same round trips as the solved laws
    builds = betafamily._solve_table.cache_info().misses
    solves = _count_evals(monkeypatch, betafamily) + _count_evals(monkeypatch, special)
    lower, upper = dist.quantile(BOX_LOWER), dist.quantile(BOX_UPPER)
    assert not solves and betafamily._solve_table.cache_info().misses == builds
    assert np.all(np.diff(np.concatenate([lower, upper])) > 0.0)
    assert np.max(np.abs(dist.cdf(lower) - BOX_LOWER) / BOX_LOWER) <= RTOL
    want = 1.0 - BOX_UPPER
    assert np.max(np.abs(dist.sf(upper) - want) / want) <= RTOL


@pytest.mark.parametrize("dist", BOX + [d for d, _ in LARGE], ids=repr)
def test_bg_start_table_covers_every_double(dist):
    # the first node sits at the smallest double's v and survives the
    # table's node filter, so no tail probability falls below the table
    v_first = -np.sqrt(-2.0 * np.log(5e-324))
    for upper in (False, True):
        # a side bounded at an endpoint, or a law with a unit shape, keeps
        # the composed route; the mirrored upper side reads its mirror's
        # lower table
        composed = 1.0 in (dist.a, dist.b) or np.isfinite(dist.support[upper])
        mirrored = upper and dist._mirror() is not None
        if mirrored or composed:
            continue
        v_k = betafamily._solve_table(dist._standardized(), upper)[0]
        assert v_k[0] == v_first and v_k[-1] == -np.sqrt(2.0 * np.log(2.0))
