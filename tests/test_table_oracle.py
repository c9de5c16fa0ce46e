"""Tails of the table-backed families (SNB, GBSN, TBSN) against oracles.

Closed forms at unit shape, through log_ndtr: SNB(1, n) has cdf
Phi^(n+1), SNB(-1, n) has sf Phi(-x)^(n+1), and GBSN(1, n, m) has cdf
I_Phi(x)(n+1, m+1).  Steep kernels (|lam| = 50) and the underflow edge
of TBSN(5, -0.5, 3, 2) are checked against the quad oracle of
``table_oracle`` and for monotone reads; an interpolant on the fixed
starting grid, without bisection or the linear hold, fails them.
Quantiles from q = 1e-300 to 1e-30 invert logcdf and match the oracle.
"""

import numpy as np
import pytest
from scipy.special import betainc, log_ndtr, ndtr

import table_oracle

from betasn import GBSN, SNB, TBSN

# relative error of a closed-form tail probability, and the smallest one checked
CLOSED_RTOL = 1e-13
FLOOR = 1e-12
ROUNDTRIP_RTOL = 1e-10
TAILS = np.geomspace(FLOOR, 0.5, 25)
X = np.linspace(-9.0, 9.0, 721)
STEEP = {
    "snb(50,3)": SNB(50.0, 3),
    "snb(-50,2)": SNB(-50.0, 2),
    "gbsn(50,1,1)": GBSN(50.0, 1, 1),
    "tbsn(50,-50,3,2)": TBSN(50.0, -50.0, 3, 2),
}


def _assert_tail(got, log_got, want, log_want):
    """got ~ want relatively, and log_got ~ log_want absolutely, where want >= FLOOR."""
    keep = want >= FLOOR
    assert np.max(np.abs(got[keep] / want[keep] - 1.0)) < CLOSED_RTOL
    assert np.max(np.abs(log_got[keep] - log_want[keep])) < CLOSED_RTOL


@pytest.mark.parametrize("n", (1, 2, 3, 5))
def test_snb_unit_shape_is_a_power_of_phi(n):
    d = SNB(1.0, n)
    log_cdf = (n + 1) * log_ndtr(X)
    _assert_tail(d.cdf(X), d.logcdf(X), np.exp(log_cdf), log_cdf)
    sf = -np.expm1(log_cdf)
    _assert_tail(d.sf(X), d.logsf(X), sf, np.log(sf))


@pytest.mark.parametrize("n", (1, 2, 3, 5))
def test_snb_negative_unit_shape_has_a_power_of_phi_sf(n):
    d = SNB(-1.0, n)
    log_sf = (n + 1) * log_ndtr(-X)
    _assert_tail(d.sf(X), d.logsf(X), np.exp(log_sf), log_sf)
    cdf = -np.expm1(log_sf)
    _assert_tail(d.cdf(X), d.logcdf(X), cdf, np.log(cdf))


@pytest.mark.parametrize("n, m", ((1, 1), (2, 3), (4, 1), (0, 2)))
def test_gbsn_unit_shape_is_a_beta_of_phi(n, m):
    d = GBSN(1.0, n, m)
    cdf = betainc(n + 1, m + 1, ndtr(X))
    sf = betainc(m + 1, n + 1, ndtr(-X))
    _assert_tail(d.cdf(X), d.logcdf(X), cdf, np.log(cdf))
    _assert_tail(d.sf(X), d.logsf(X), sf, np.log(sf))


@pytest.mark.parametrize("dist", STEEP.values(), ids=STEEP.keys())
def test_steep_tail_roundtrips_against_the_oracle(dist):
    shape = dist._key[:4]
    log_total = table_oracle.log_total(shape)
    for upper in (False, True):
        q = 1.0 - TAILS if upper else TAILS
        x = dist.quantile(q)
        want = np.log(1.0 - q if upper else q)  # 1 - q is exact for q >= 1/2
        got = [table_oracle.log_mass(xi, shape, upper) - log_total for xi in x]
        miss = np.abs(np.expm1(np.array(got) - want))
        assert np.max(miss) <= ROUNDTRIP_RTOL, (upper, float(np.max(miss)))


DEEP = {
    "snb(1,3)": SNB(1.0, 3),
    "gbsn(2,4,1)": GBSN(2.0, 4, 1),
    "tbsn(5,-0.5,3,2)": TBSN(5.0, -0.5, 3, 2),
    "snb(-50,2)": SNB(-50.0, 2),
    "snb(0.3,1)": SNB(0.3, 1),
}
DEEP_Q = np.geomspace(1e-300, 1e-30, 12)


@pytest.mark.parametrize("dist", DEEP.values(), ids=DEEP.keys())
def test_deep_quantiles_invert_the_log_read(dist):
    # below 1e-30 of the total logcdf reads the tail rule, which counts the
    # mass beyond the window, and the quantile solves that same read: no
    # root stops at the window end or inside a linearly held segment
    x = dist.quantile(DEEP_Q)
    assert np.max(np.abs(dist.logcdf(x) - np.log(DEEP_Q))) <= 1e-12
    shape = dist._key[:4]
    log_total = table_oracle.log_total(shape)
    for xi, qi in zip(x[::4], DEEP_Q[::4]):
        got = table_oracle.log_mass(xi, shape) - log_total
        assert abs(got / np.log(qi) - 1.0) <= ROUNDTRIP_RTOL, (xi, got)


@pytest.mark.parametrize("dist", STEEP.values(), ids=STEEP.keys())
def test_steep_reads_are_monotone(dist):
    x = np.linspace(-2.0, 2.0, 40_001)
    assert np.all(np.diff(dist.cdf(x)) >= 0.0)
    assert np.all(np.diff(dist.sf(x)) <= 0.0)


def test_cdf_is_monotone_through_the_underflow_edge():
    d = TBSN(5.0, -0.5, 3, 2)
    x = np.linspace(-5.0, -3.0, 200_001)
    cdf = d.cdf(x)
    assert cdf[0] == 0.0 and cdf[-1] > 0.0  # the grid crosses the edge
    assert np.all(np.diff(cdf) >= 0.0)


def test_log_reads_match_the_oracle_in_the_far_tails():
    # tail probabilities from 1e-19 down to 1e-288, far below the closed-form floor
    d = SNB(2.0, 2)
    shape = d._key[:4]
    log_total = table_oracle.log_total(shape)
    for x, upper in ((-12.0, False), (-6.0, False), (9.0, True), (13.0, True)):
        want = table_oracle.log_mass(x, shape, upper) - log_total
        got = d.logsf(x) if upper else d.logcdf(x)
        assert abs(got - want) < 1e-12, (x, got, want)  # relative, as a log


def test_reads_are_exact_at_the_window_ends():
    # the table holds the kernel's mass on [-16, 16], the quadrature window,
    # so beyond it the reads are 0 and 1 with no rounding residue
    d = SNB(1.0, 1)
    x = np.array([-20.0, -16.0, 16.0, 20.0])
    assert np.array_equal(d.cdf(x), [0.0, 0.0, 1.0, 1.0])
    assert np.array_equal(d.sf(x), [1.0, 1.0, 0.0, 0.0])
    assert d.sf(15.99) > 0.0


@pytest.mark.parametrize("n", (1, 2, 3, 5))
def test_log_reads_beyond_the_window_match_the_closed_forms(n):
    # past the [-16, 16] window the table holds no mass, and the log reads
    # come from the Gauss-Laguerre tail rule instead of reading -inf
    x = np.array([-20.0, -40.0, -100.0])
    want = (n + 1) * log_ndtr(x)
    assert np.max(np.abs(SNB(1.0, n).logcdf(x) / want - 1.0)) < 1e-12
    assert np.max(np.abs(SNB(-1.0, n).logsf(-x) / want - 1.0)) < 1e-12


@pytest.mark.parametrize("dist", [SNB(1.0, 1), SNB(-50.0, 2), TBSN(5.0, -0.5, 3, 2)], ids=repr)
def test_log_reads_are_monotone_through_the_window_ends(dist):
    # near a window end the table misses the mass beyond it; the tail rule
    # takes over before that shows, so the log reads do not jump there
    x = np.linspace(-17.0, 17.0, 200_001)
    logcdf, logsf = dist.logcdf(x), dist.logsf(x)
    assert np.all(np.isfinite(logcdf)) and np.all(np.isfinite(logsf))
    assert np.all(np.diff(logcdf) >= 0.0) and np.all(np.diff(logsf) <= 0.0)
