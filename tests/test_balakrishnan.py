"""Balakrishnan extensions: SNB, GBSN, TBSN and their constants."""

import math

import numpy as np
import pytest

from betasn import balakrishnan
from betasn import (
    GBSN,
    SNB,
    TBSN,
    BetaNormal,
    BetaSkewNormal,
    Normal,
    SkewNormal,
    gbsn_constant,
    gbsn_constant_series,
    norm_cdf,
    snb_constant,
    tbsn_constant,
)

GRID = np.linspace(-6.0, 6.0, 401)
ORDERS = (0, 1, 2, 3)
SHAPES = (0.0, 1.0, -1.0, 2.0, -2.0)


def test_constants_of_low_order():
    for lam in np.linspace(-5.0, 5.0, 41):
        assert abs(snb_constant(0, lam) - 1.0) < 1e-9
        assert abs(snb_constant(1, lam) - 2.0) < 1e-9


def test_second_constant_closed_form():
    for lam in np.linspace(-5.0, 5.0, 41):
        exact = math.pi / math.atan(math.sqrt(1.0 + 2.0 * lam * lam))
        assert abs(snb_constant(2, lam) - exact) < 1e-9


def test_constants_at_unit_shape():
    # c_n(1) = n + 1, because Phi(x)^n phi(x) integrates to 1/(n+1)
    for n in range(6):
        assert abs(snb_constant(n, 1.0) - (n + 1.0)) < 1e-9


def test_snb_cdf_at_unit_shape_is_normal_power():
    for n in (1, 2, 3, 4):
        d = SNB(1.0, n)
        assert np.max(np.abs(d.cdf(GRID) - norm_cdf(GRID) ** (n + 1))) < 1e-10


def test_gbsn_constant_order_statistic_coefficient():
    # C_{j-1, n-j}(1) = n! / ((j-1)! (n-j)!)
    for n in range(1, 7):
        for j in range(1, n + 1):
            exact = math.factorial(n) / (math.factorial(j - 1) * math.factorial(n - j))
            assert abs(gbsn_constant(j - 1, n - j, 1.0) - exact) < 1e-9 * exact


def test_gbsn_constant_series_agreement():
    # dual route: quadrature vs the alternating binomial series
    for n, m, lam in ((1, 1, 0.5), (2, 1, -1.5), (0, 3, 2.0), (2, 2, 1.0), (3, 1, 0.7)):
        assert abs(gbsn_constant(n, m, lam) - gbsn_constant_series(n, m, lam)) < 1e-9


def test_tbsn_kernel_reduces_to_snb_kernel():
    for n, m in ((0, 1), (1, 1), (2, 1), (1, 3)):
        for lam in (0.5, -2.0, 1.0):
            got = tbsn_constant(n, m, lam, lam)
            assert abs(got - 1.0 / snb_constant(n + m, lam)) < 1e-12


def _pdf_gap(d1, d2):
    return float(np.max(np.abs(d1.pdf(GRID) - d2.pdf(GRID))))


def test_sn_is_first_order_snb():
    for lam in SHAPES:
        assert _pdf_gap(SNB(lam, 1), SkewNormal(0.0, 1.0, lam)) < 1e-10


@pytest.mark.parametrize("lam", SHAPES)
def test_tbsn_collapse_lattice(lam):
    """The five specializations, on the full order lattice.

    equal shapes -> SNB of summed order; one zero shape -> SNB of the
    live side; opposite shapes -> GBSN; zero everything -> N(0,1).
    """
    for n in ORDERS:
        for m in ORDERS:
            assert _pdf_gap(TBSN(lam, lam, n, m), SNB(lam, n + m)) < 1e-10
            assert _pdf_gap(TBSN(lam, 0.0, n, m), SNB(lam, n)) < 1e-10
            assert _pdf_gap(TBSN(0.0, lam, n, m), SNB(lam, m)) < 1e-10
            if lam != 0.0:
                assert _pdf_gap(TBSN(lam, -lam, n, m), GBSN(lam, n, m)) < 1e-10
    assert _pdf_gap(TBSN(lam, lam, 0, 0), Normal()) < 1e-10
    assert _pdf_gap(TBSN(0.0, 0.0, 2, 3), Normal()) < 1e-10


def test_tbsn_collapse_cdfs():
    x = np.linspace(-4.0, 4.0, 41)
    assert np.max(np.abs(TBSN(1.0, 1.0, 2, 1).cdf(x) - SNB(1.0, 3).cdf(x))) < 1e-10
    assert np.max(np.abs(TBSN(1.0, -1.0, 1, 3).cdf(x) - GBSN(1.0, 1, 3).cdf(x))) < 1e-10


def test_quantile_roundtrips():
    q = np.linspace(0.01, 0.99, 99)
    for dist in (SNB(-2.3, 3, mu=0.5, sigma=1.5), GBSN(0.9, 2, 3),
                 TBSN(1.1, -0.4, 2, 1, mu=-1.0, sigma=0.7)):
        assert np.max(np.abs(dist.cdf(dist.quantile(q)) - q)) < 1e-10, dist


@pytest.mark.parametrize("dist", [SNB(1.0, 3), GBSN(2.0, 4, 1), TBSN(5.0, -0.5, 3, 2)], ids=repr)
def test_far_side_logs_keep_their_digits(dist):
    # above half the total, a log read is log1p of minus the other side,
    # not the log of a mass that rounds toward the total
    t = 10.0 ** -np.arange(3.0, 16.0)
    x = dist.quantile(1.0 - t)
    assert np.max(np.abs(dist.logcdf(x) / np.log1p(-dist.sf(x)) - 1.0)) <= 1e-14
    x = dist.quantile(t)
    assert np.max(np.abs(dist.logsf(x) / np.log1p(-dist.cdf(x)) - 1.0)) <= 1e-14
    assert GBSN(2.0, 4, 1).logcdf(4.0) < 0.0


@pytest.mark.parametrize("dist", [SNB(1.0, 3), GBSN(2.0, 4, 1), TBSN(5.0, -0.5, 3, 2)], ids=repr)
def test_log_reads_take_one_segment_read(dist, monkeypatch):
    # logcdf and logsf find each point's segment and sum its Legendre
    # series once, and take both sides' running sums from that read: the
    # far side above half the total costs no second find
    x = np.linspace(-6.0, 6.0, 5_000)
    want = dist.logcdf(x), dist.logsf(x)
    calls = []
    partial = balakrishnan._NumericCdf._partial

    def counted(self, z, derivs=False):
        calls.append(np.size(z))
        return partial(self, z, derivs)

    monkeypatch.setattr(balakrishnan._NumericCdf, "_partial", counted)
    got = dist.logcdf(x), dist.logsf(x)
    assert calls == [x.size, x.size]
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_cdf_derivative_matches_pdf():
    h = 1e-6
    x = np.linspace(-3.5, 3.5, 29)
    for dist in (SNB(1.5, 2), GBSN(1.0, 2, 1), TBSN(0.7, -1.2, 1, 2)):
        central = (dist.cdf(x + h) - dist.cdf(x - h)) / (2.0 * h)
        assert np.max(np.abs(central - dist.pdf(x))) < 1e-6, dist


def test_order_validation():
    with pytest.raises(ValueError):
        SNB(1.0, -1)
    with pytest.raises(ValueError):
        SNB(1.0, 1.5)
    with pytest.raises(ValueError):
        GBSN(1.0, 2, -3)
    with pytest.raises(ValueError):
        TBSN(1.0, 1.0, 0.5, 1)
    with pytest.raises(ValueError):
        SNB(1.0, 1, sigma=0.0)
    # a non-finite location, scale or shape, for each location-scale family
    nan, inf = float("nan"), float("inf")
    for make in (
        lambda: Normal(mu=nan),
        lambda: Normal(sigma=inf),
        lambda: SkewNormal(xi=inf),
        lambda: SkewNormal(psi=nan),
        lambda: SkewNormal(lam=nan),
        lambda: SNB(1.0, 2, mu=inf),
        lambda: SNB(1.0, 2, sigma=inf),
        lambda: SNB(nan, 2),
        lambda: GBSN(inf, 2, 1),
        lambda: TBSN(1.0, -1.0, 2, 1, mu=nan),
        lambda: TBSN(1.0, -1.0, 2, 1, sigma=nan),
        lambda: TBSN(1.0, inf, 2, 1),
        lambda: BetaNormal(2.0, 3.0, mu=inf),
        lambda: BetaNormal(2.0, 3.0, sigma=inf),
        lambda: BetaNormal(nan, 3.0),
        lambda: BetaSkewNormal(1.0, 2.0, 3.0, mu=nan),
        lambda: BetaSkewNormal(1.0, 2.0, 3.0, sigma=inf),
        lambda: BetaSkewNormal(inf, 2.0, 3.0),
    ):
        with pytest.raises(ValueError):
            make()


def test_sampling_is_deterministic():
    d = TBSN(1.0, -0.5, 2, 1)
    a = d.sample(500, 99)
    b = d.sample(500, 99)
    assert np.array_equal(a, b)


# the bench panel's members and the check suite's, against their TBSN form
REPARAMETERIZATIONS = {
    "snb(1,3)": (SNB(1.0, 3), TBSN(1.0, 0.0, 3, 0)),
    "gbsn(2,4,1)": (GBSN(2.0, 4, 1), TBSN(2.0, -2.0, 4, 1)),
    "snb(-2.3,3;0.5,1.5)": (
        SNB(-2.3, 3, mu=0.5, sigma=1.5),
        TBSN(-2.3, 0.0, 3, 0, mu=0.5, sigma=1.5),
    ),
    "gbsn(0.9,2,3)": (GBSN(0.9, 2, 3), TBSN(0.9, -0.9, 2, 3)),
}


@pytest.mark.parametrize(
    "dist, tbsn", REPARAMETERIZATIONS.values(), ids=REPARAMETERIZATIONS.keys()
)
def test_reparameterizations_are_bit_identical(dist, tbsn):
    x = np.linspace(-8.0, 8.0, 801)
    q = np.concatenate([np.logspace(-12, -0.31, 200), 1.0 - np.logspace(-12, -0.31, 200)])
    for method, arg in (("pdf", x), ("logpdf", x), ("cdf", x), ("quantile", q)):
        assert np.array_equal(getattr(dist, method)(arg), getattr(tbsn, method)(arg)), method
    assert dist.kernel_integral == tbsn.kernel_integral


def test_order_zero_factor_costs_no_log_phi(monkeypatch):
    """A TBSN table with one order-0 factor costs one log Phi per kernel node.

    The table is built inside the count; reading it afterwards, by cdf,
    sf or quantile, evaluates the kernel no more.
    """
    dist = TBSN(1.0, 0.0, 3, 0)
    points = {"logpdf": 0, "logcdf": 0}

    def counted(name, fn):
        def wrapper(z):
            points[name] += np.size(z)
            return fn(z)

        return wrapper

    monkeypatch.setattr(balakrishnan, "norm_logpdf", counted("logpdf", balakrishnan.norm_logpdf))
    monkeypatch.setattr(balakrishnan, "norm_logcdf", counted("logcdf", balakrishnan.norm_logcdf))
    balakrishnan._kernel_table.cache_clear()
    dist.cdf(0.0)
    nodes = balakrishnan._kernel_table(*dist._key).nodes
    assert nodes >= 15 * 1600
    assert points["logpdf"] == nodes  # one kernel evaluation per build node
    assert points["logcdf"] == points["logpdf"]

    points.update(logpdf=0, logcdf=0)
    x = np.linspace(-4.0, 4.0, 1000)
    dist.cdf(x), dist.sf(x), dist.quantile(np.linspace(0.0005, 0.9995, 1000))
    assert points == {"logpdf": 0, "logcdf": 0}
