"""The beta-generated composition against tests/beta_oracle.py.

BetaSkewNormal at lam in {1, -1, 0}, BetaNormal and BetaHalfNormal have
closed-form bases (and BetaSkewNormal at lam = 1/2 and Kumaraswamy(0.5, b)
bases that mpmath integrates or forms directly), so their cdf, sf, logcdf and logsf, and the round
trips of their quantiles, have a 50-digit mpmath oracle that imports
nothing from betasn.  The last tests pin the defects of the linear
latent that the log-space composition replaced.
"""

import numpy as np
import pytest

pytest.importorskip("mpmath")
from beta_oracle import cdf_sf, logcdf_logsf  # noqa: E402

from betasn import BetaHalfNormal, BetaNormal, BetaSkewNormal, Kumaraswamy  # noqa: E402

RTOL = 1e-10
LOG_RTOL = 1e-12
SHAPES = [(0.05, 2.0), (2.0, 0.05), (0.3, 20.0), (20.0, 0.3), (0.05, 0.05), (3.0, 0.01)]
FAMILIES = [
    ("bsn1", lambda a, b: BetaSkewNormal(1.0, a, b)),
    ("bsn-1", lambda a, b: BetaSkewNormal(-1.0, a, b)),
    ("normal", lambda a, b: BetaSkewNormal(0.0, a, b)),
    ("normal", BetaNormal),
    ("half_normal", BetaHalfNormal),
]
CASES = [
    pytest.param(base, make(a, b), id=repr(make(a, b)))
    for base, make in FAMILIES
    for a, b in SHAPES
]
LINE = (-40.0, -20.0, -8.0, -2.0, -0.5, 0.0, 0.5, 2.0, 8.0, 20.0, 40.0)
HALF_LINE = (1e-8, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 37.0)
Q_LOWER = np.geomspace(1e-300, 0.5, 13)
Q_UPPER = 1.0 - np.geomspace(1e-12, 0.5, 7)[-2::-1]


def _points(base):
    return HALF_LINE if base == "half_normal" else LINE


def _assert_tails(base, dist, points):
    for x in points:
        want = cdf_sf(base, dist.a, dist.b, x)
        got = (dist.cdf(x), dist.sf(x))
        for g, w in zip(got, want):
            # a tail below the normal doubles is judged by its log alone
            if w > 1e-300:
                assert abs(g - w) <= RTOL * w, (x, g, w)
        want = logcdf_logsf(base, dist.a, dist.b, x)
        for g, w in zip((dist.logcdf(x), dist.logsf(x)), want):
            assert abs(g - w) <= LOG_RTOL * max(1.0, abs(w)), (x, g, w)


@pytest.mark.parametrize("base, dist", CASES)
def test_tails_against_oracle(base, dist):
    _assert_tails(base, dist, _points(base))


@pytest.mark.parametrize(
    "base, dist, points",
    [
        ("power0.5", Kumaraswamy(0.5, 2.0), (1e-300, 1e-12, 1e-3, 0.25, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-12)),
        ("bsn1", BetaSkewNormal(1.0, 1.0, 3.0), LINE),
        ("bsn0.5", BetaSkewNormal(0.5, 3.0, 1.0), (-20.0, -8.0, -2.0, -0.5, 0.0, 0.5, 2.0, 8.0, 20.0)),
    ],
    ids=repr,
)
def test_unit_shape_tails_against_oracle(base, dist, points):
    # at a = 1 or b = 1 the tails are closed forms, w^a and 1 - (1 - w)^b,
    # and stay relative in both tails, their logs too
    _assert_tails(base, dist, points)


@pytest.mark.parametrize("base, dist", CASES)
def test_quantile_against_oracle(base, dist):
    lower, upper = dist.quantile(Q_LOWER), dist.quantile(Q_UPPER)
    # the half-normal's lowest quantiles are subnormal, with few bits
    ok = np.abs(lower) >= np.finfo(float).tiny
    assert np.all(np.diff(np.concatenate([lower[ok], upper])) > 0.0)
    for x, q in zip(lower[ok], Q_LOWER[ok]):
        assert abs(cdf_sf(base, dist.a, dist.b, x)[0] - q) <= RTOL * q, (x, q)
    for x, q in zip(upper, Q_UPPER):
        assert abs(cdf_sf(base, dist.a, dist.b, x)[1] - (1.0 - q)) <= RTOL * (1.0 - q), (x, q)


@pytest.mark.parametrize("x", [-8.0, -1.0])
def test_log_of_a_tail_near_one_is_relative(x):
    # logsf = log1p(-cdf) where the cdf is 3.7e-31 (x = -8), not log(1 - cdf)
    dist = BetaSkewNormal(1.0, 1.0, 1.0)
    want = logcdf_logsf("bsn1", 1.0, 1.0, x)[1]
    assert abs(dist.logsf(x) - want) <= LOG_RTOL * abs(want)


def test_bsn_cdf_below_the_underflow_of_f():
    # F(-40) = Phi(-40)^2 = e^-1609 underflows, while the cdf,
    # F^a / (a B(a, b)) to leading order, is 1.2e-35 and logpdf is -79
    dist = BetaSkewNormal(1.0, 0.05, 2.0)
    want = cdf_sf("bsn1", 0.05, 2.0, -40.0)[0]
    assert abs(want / 1.195e-35 - 1.0) < 1e-3
    assert abs(dist.cdf(-40.0) - want) <= RTOL * want
    assert np.isfinite(dist.logpdf(-40.0))


@pytest.mark.parametrize("dist", [BetaSkewNormal(1.0, 0.05, 2.0), BetaNormal(0.05, 2.0)], ids=repr)
def test_quantiles_below_a_subnormal_latent(dist):
    # below q of about 1e-16 the latent w is under 5e-324, so a latent
    # held as a double gives one x for all of these q
    q = np.array([1e-40, 1e-20, 1e-17])
    x = dist.quantile(q)
    assert np.all(np.diff(x) > 0.0)
    assert np.max(np.abs(dist.cdf(x) - q) / q) <= RTOL


@pytest.mark.parametrize("dist", [BetaNormal(3.0, 0.01), BetaSkewNormal(1.0, 3.0, 0.01)], ids=repr)
def test_latent_root_near_one(dist):
    # 1 - w of the latent root is 1.3e-3 at q = 0.05 and 1.8e-31 at
    # q = 1/2: log w, whose solve stops at 4 ulp of 1, cannot tell these
    # roots apart, log(1 - w) can
    q = np.array([0.05, 0.2, 0.35, 0.5])
    x = dist.quantile(q)
    assert np.all(np.diff(x) > 0.0)
    assert np.max(np.abs(dist.cdf(x) - q) / q) <= RTOL
