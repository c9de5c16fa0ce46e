"""Quantile contract of every family and tail accuracy of the root-solved ones.

SN and BSN quantiles solve the skew-normal cdf by bracketed Newton in log
space; SNB, GBSN and TBSN solve their cumulative table the same way.
Round trips are judged on q's own side of 1/2: cdf(x) against q, or
sf(x) against 1 - q where the family has an sf, relative to that tail
probability.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
