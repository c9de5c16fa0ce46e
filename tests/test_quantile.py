"""Quantile contract of every family and tail accuracy of the root-solved ones.

SN and BSN quantiles solve the skew-normal cdf by bracketed Newton in log
space; SNB, GBSN and TBSN solve their cumulative table the same way.
BetaNormal and BetaHalfNormal invert the incomplete beta on q's own side.
Round trips are judged on q's own side of 1/2: cdf(x) against q, or
sf(x) against 1 - q where the family has an sf, relative to that tail
probability.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, erf, erfc, ndtr

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
    SkewNormal,
)

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


# BetaNormal and BetaHalfNormal have no sf; their round trips go through
# scipy's incomplete beta of the base cdf (q <= 1/2) or survival (q > 1/2)
BETA_SHAPES = [(3.0, 0.5), (1.0, 0.3), (0.5, 0.05), (0.5, 2.0), (20.0, 0.05), (0.05, 20.0)]


def _latent_miss(q, a, b, base_cdf, base_sf):
    upper = q > 0.5
    got = np.where(upper, betainc(b, a, base_sf), betainc(a, b, base_cdf))
    want = np.where(upper, 1.0 - q, q)
    return np.abs(got - want) / want


@pytest.mark.parametrize("a, b", BETA_SHAPES)
def test_beta_normal_tails(a, b):
    x = BetaNormal(a, b).quantile(Q_GRID)
    assert np.all(np.diff(x) >= 0.0)
    assert np.max(_latent_miss(Q_GRID, a, b, ndtr(x), ndtr(-x))) <= RTOL
    upper = Q_GRID > 0.5
    q = Q_GRID[upper]
    assert np.array_equal(x[upper], -BetaNormal(b, a).quantile(1.0 - q))


def test_beta_normal_subnormal_latent():
    # at a = 0.05 the latent w = I^-1(q; a, b) passes 1e-300 near
    # q = 1.2e-15 and reaches 3e-302 at q = 1e-15; every representable w
    # must pass through unclipped.  At q = 1e-16 inv_reg_inc_beta
    # underflows to 0 and the quantile stops at the smallest double.
    q = np.concatenate([np.geomspace(2e-15, 1e-15, 6), [1e-16]])[::-1]
    x = BetaNormal(0.05, 20.0).quantile(q)
    assert np.all(np.diff(x) > 0.0)
    assert np.max(np.abs(betainc(0.05, 20.0, ndtr(x[1:])) - q[1:]) / q[1:]) <= RTOL


@pytest.mark.parametrize("a, b", BETA_SHAPES)
def test_beta_half_normal_tails(a, b):
    x = BetaHalfNormal(a, b).quantile(Q_GRID)
    assert np.all(x > 0.0) and np.all(np.diff(x) >= 0.0)
    u = x / np.sqrt(2.0)
    assert np.max(_latent_miss(Q_GRID, a, b, erf(u), erfc(u))) <= RTOL


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
    q = np.array([[0.1, 0.5, 0.9], [1e-9, 0.25, 1.0 - 1e-9]])
    x = dist.quantile(q)
    assert x.shape == q.shape
    assert np.array_equal(x.ravel(), dist.quantile(q.ravel()))
