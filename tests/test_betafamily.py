"""Beta-generated families on the unit interval and the real line."""

import math

import mpmath
import numpy as np
import pytest

from betasn import (
    Beta,
    BetaHalfNormal,
    BetaNormal,
    BetaSkewNormal,
    Distribution,
    GB1,
    IntegrationError,
    KS_COEFF_01,
    Kumaraswamy,
    Normal,
    ks_statistic,
    log_beta,
    norm_cdf,
    norm_pdf,
    normalization_error,
    reg_inc_beta,
)

UNIT = np.linspace(0.005, 0.995, 199)
LINE = np.linspace(-6.0, 6.0, 401)


def test_beta_closed_forms():
    d = Beta(2.0, 3.0)
    direct = UNIT * (1.0 - UNIT) ** 2 / math.exp(log_beta(2.0, 3.0))
    assert np.max(np.abs(d.pdf(UNIT) - direct)) < 1e-13
    # the cdf reads I_x(a, b) below the median and 1 - I_(1-x)(b, a) above,
    # and the sf the other way round, so both tails stay relative
    with mpmath.workdps(40):
        cdf = np.array([float(mpmath.betainc(2, 3, 0, mpmath.mpf(x), regularized=True)) for x in UNIT])
        sf = np.array([float(mpmath.betainc(2, 3, mpmath.mpf(x), 1, regularized=True)) for x in UNIT])
    assert np.max(np.abs(d.cdf(UNIT) - cdf)) <= 1e-15
    assert np.max(np.abs(d.sf(UNIT) - sf) / sf) <= 1e-14
    assert d.pdf(0.0) == 0.0 and d.pdf(1.0) == 0.0
    assert d.cdf(-0.5) == 0.0 and d.cdf(1.5) == 1.0


def test_gb1_collapses_to_beta():
    g = GB1(2.0, 3.0, 1.0, 1.0)
    b = Beta(2.0, 3.0)
    assert np.max(np.abs(g.pdf(UNIT) - b.pdf(UNIT))) < 1e-12
    assert np.max(np.abs(g.cdf(UNIT) - b.cdf(UNIT))) < 1e-12


def test_gb1_collapses_to_kumaraswamy():
    g = GB1(1.0, 3.0, 2.0, 1.0)
    k = Kumaraswamy(2.0, 3.0)
    assert np.max(np.abs(g.pdf(UNIT) - k.pdf(UNIT))) < 1e-12
    assert np.max(np.abs(g.cdf(UNIT) - k.cdf(UNIT))) < 1e-12


def test_kumaraswamy_closed_form():
    k = Kumaraswamy(2.0, 3.0)
    assert np.max(np.abs(k.cdf(UNIT) - (1.0 - (1.0 - UNIT**2) ** 3))) < 1e-14
    q = np.linspace(0.01, 0.99, 99)
    assert np.max(np.abs(k.cdf(k.quantile(q)) - q)) < 1e-12


def _composed_pdf(base, a, b, x):
    """F^(a-1) (1-F)^(b-1) f / B(a, b), composed directly from the base."""
    big_f = base.cdf(x)
    return big_f ** (a - 1.0) * (1.0 - big_f) ** (b - 1.0) * base.pdf(x) / math.exp(log_beta(a, b))


def test_beta_generated_composition():
    # BN(a,b) is the beta-generated family over the normal cdf
    bn = BetaNormal(0.5, 0.7)
    base = Normal()
    direct = _composed_pdf(base, 0.5, 0.7, LINE)
    assert np.max(np.abs(bn.pdf(LINE) - direct)) < 1e-12
    assert np.max(np.abs(bn.cdf(LINE) - reg_inc_beta(base.cdf(LINE), 0.5, 0.7))) < 1e-12
    # composing with the beta cdf recovers reg_inc_beta of the base cdf
    assert np.max(np.abs(bn.cdf(LINE) - reg_inc_beta(norm_cdf(LINE), 0.5, 0.7))) < 1e-12


def test_beta_half_normal_density():
    # base F(x) = 2 Phi(x) - 1 on (0, inf)
    bhn = BetaHalfNormal(2.0, 3.0)
    x = np.linspace(0.01, 5.0, 200)
    big_f = 2.0 * norm_cdf(x) - 1.0
    direct = (
        2.0 * norm_pdf(x)
        * big_f ** 1.0
        * (1.0 - big_f) ** 2.0
        / math.exp(log_beta(2.0, 3.0))
    )
    assert np.max(np.abs(bhn.pdf(x) - direct)) < 1e-12
    assert bhn.pdf(-1.0) == 0.0
    assert bhn.cdf(0.0) == 0.0


def test_normalization_within_budget():
    cases = [
        Beta(0.25, 0.5),
        Beta(2.0, 3.0),
        GB1(2.0, 3.0, 1.5, 4.0),
        Kumaraswamy(0.5, 1.5),
        BetaNormal(0.5, 0.7),
        BetaNormal(2.0, 3.0),
        BetaHalfNormal(0.6, 1.3),
        BetaHalfNormal(2.0, 3.0),
    ]
    for dist in cases:
        assert abs(normalization_error(dist)) < 5e-9, dist


@pytest.mark.xfail(
    strict=True,
    reason="integrate_unit's right-end substitution z = 1 - u^k rounds to 1 once u^k < 1.1e-16, "
    "and the mass within an ulp of z = 1 is lost",
)
def test_unit_right_end_keeps_its_last_ulp():
    # 1.0875e-8 at the matched power u^4; the old square substitution got
    # the arcsine density within 7.3e-15 of 1
    assert abs(normalization_error(Kumaraswamy(2.0, 0.5))) < 5e-9


def test_beta_small_shapes_integration_wall():
    """beta(0.1, 0.1) moments raise instead of returning a wrong value.

    With b = 0.1 about one percent of the mass sits between the largest
    double below 1 and 1 itself, where the density is not representable;
    the engine reports the failure with its best estimate rather than
    silently dropping that mass.
    """
    with pytest.raises(IntegrationError) as info:
        Beta(0.1, 0.1).moments()
    assert np.isfinite(info.value.estimate)


def test_quantile_roundtrips():
    q = np.linspace(0.01, 0.99, 99)
    for dist in (Beta(2.0, 3.0), GB1(2.0, 3.0, 1.5, 4.0), Kumaraswamy(2.0, 3.0),
                 BetaNormal(0.5, 0.7), BetaHalfNormal(0.6, 1.3)):
        assert np.max(np.abs(dist.cdf(dist.quantile(q)) - q)) < 1e-10, dist


def test_sampling_ks():
    d = Beta(2.0, 3.0)
    values = d.sample(100_000, 5)
    assert ks_statistic(values, d.cdf) < KS_COEFF_01 / math.sqrt(100_000)


# the beta-generated draw: base quantiles of a Beta(a, b) latent
LATENT_DRAW_LAWS = [
    (BetaSkewNormal(50.0, 0.05, 2.0), 41),
    (BetaSkewNormal(-50.0, 3.0, 0.05), 42),
    (BetaSkewNormal(5.0, 0.05, 0.05), 43),
    (BetaNormal(0.5, 2.0), 44),
    (BetaHalfNormal(0.3, 2.0), 45),
    (GB1(2.0, 0.5, 1.5, 2.0), 49),
    (Kumaraswamy(0.5, 2.0), 50),
]


@pytest.mark.parametrize("dist, seed", LATENT_DRAW_LAWS, ids=[repr(d) for d, _ in LATENT_DRAW_LAWS])
def test_latent_draw_ks(dist, seed):
    values = dist.sample(100_000, seed)
    assert ks_statistic(values, dist.cdf) < KS_COEFF_01 / math.sqrt(100_000)


@pytest.mark.parametrize("dist", [
    BetaNormal(1e-3, 1e-3), BetaNormal(0.01, 1e-3),
    BetaSkewNormal(3.0, 1e-3, 0.01), BetaSkewNormal(-5.0, 0.01, 1e-3), BetaSkewNormal(0.5, 0.01, 0.01),
    BetaHalfNormal(1e-3, 0.01), BetaHalfNormal(0.01, 1e-3),
    Beta(1e-3, 0.01), GB1(0.01, 1e-3, 0.5, 3.0),
], ids=repr)
def test_latent_draw_at_tiny_shapes_stays_in_support(dist):
    # a plain gamma draw at these shapes is often exactly 0, and W = 0 / 0
    assert (np.random.default_rng(0).standard_gamma(1e-3, 1000) == 0.0).any()
    values = dist.sample(20_000, 46)
    lo, hi = dist.support
    assert np.all(np.isfinite(values)) and np.all((values >= lo) & (values <= hi))


@pytest.mark.parametrize("dist", [
    BetaSkewNormal(2.0, 1.0, 1.0, mu=1.0, sigma=2.0), BetaNormal(1.0, 1.0), BetaHalfNormal(1.0, 1.0),
], ids=repr)
def test_latent_draw_at_unit_shapes_is_the_quantile_transform(dist):
    got = dist.draw(np.random.default_rng(47), 5_000)
    assert got.tobytes() == Distribution.draw(dist, np.random.default_rng(47), 5_000).tobytes()


def test_latent_draw_placement_and_reproducibility():
    for placed, std in ((BetaSkewNormal(3.0, 0.5, 2.0, mu=1.5, sigma=2.0), BetaSkewNormal(3.0, 0.5, 2.0)),
                        (BetaNormal(0.3, 4.0, mu=-2.0, sigma=0.25), BetaNormal(0.3, 4.0))):
        values = placed.sample(5_000, 48)
        assert values.tobytes() == placed.sample(5_000, 48).tobytes()
        assert values.tobytes() == (placed.mu + placed.sigma * std.sample(5_000, 48)).tobytes()


def test_moments_match_beta_closed_forms():
    a, b = 2.0, 3.0
    m = Beta(a, b).moments()
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1.0))
    skew = 2.0 * (b - a) * math.sqrt(a + b + 1.0) / ((a + b + 2.0) * math.sqrt(a * b))
    assert abs(m.mean - mean) < 1e-10
    assert abs(m.sd - math.sqrt(var)) < 1e-10
    assert abs(m.skewness - skew) < 1e-8


def test_parameter_validation():
    for bad in (lambda: Beta(0.0, 1.0), lambda: Beta(2.0, -1.0),
                lambda: GB1(1.0, 1.0, 0.0, 1.0), lambda: Kumaraswamy(-2.0, 3.0),
                lambda: BetaNormal(1.0, 1.0, 0.0, 0.0), lambda: BetaHalfNormal(np.nan, 1.0)):
        with pytest.raises(ValueError):
            bad()


UNIT_FAMILIES = [Beta(2.0, 3.0), GB1(2.0, 3.0, 1.5, 4.0), Kumaraswamy(2.0, 3.0)]


@pytest.mark.parametrize("dist", UNIT_FAMILIES, ids=repr)
def test_unit_interval_contract(dist):
    # a scalar in gives a float out, as on the line families; NaN in gives NaN out
    for name in ("logpdf", "cdf", "quantile"):
        assert type(getattr(dist, name)(0.3)) is float, name
    assert isinstance(dist.pdf(0.3), float) and np.ndim(dist.pdf(0.3)) == 0
    x = np.array([[np.nan, 0.3], [-1.0, 0.7]])
    for name in ("pdf", "logpdf", "cdf"):
        method = getattr(dist, name)
        assert np.isnan(method(np.nan)), name
        got = method(x)
        assert got.shape == x.shape and np.isnan(got[0, 0]), name
        assert np.all(np.isfinite(got[0, 1])) and not np.isnan(got[1]).any(), name


def _lbeta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


# Oracles written out here, not read from the library: Beta, GB1 and
# Kumaraswamy share the beta-generated composition over the power base
@pytest.mark.parametrize("a, b", [(2.0, 3.0), (0.5, 1.5), (7.0, 0.8)])
def test_beta_logpdf_against_lgamma(a, b):
    want = [(a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - _lbeta(a, b) for x in UNIT]
    assert np.max(np.abs(Beta(a, b).logpdf(UNIT) - want)) < 1e-13


@pytest.mark.parametrize("p, b", [(2.0, 3.0), (0.5, 2.0), (3.5, 0.7)])
def test_kumaraswamy_against_closed_forms(p, b):
    # density p b x^(p-1) (1 - x^p)^(b-1), quantile (1 - (1 - q)^(1/b))^(1/p)
    want = [
        math.log(p * b) + (p - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-(x**p)) for x in UNIT
    ]
    k = Kumaraswamy(p, b)
    assert np.max(np.abs(k.logpdf(UNIT) - want)) < 1e-13
    q = np.linspace(0.01, 0.99, 99)
    want = np.array([(-math.expm1(math.log1p(-t) / b)) ** (1.0 / p) for t in q])
    assert np.max(np.abs(k.quantile(q) / want - 1.0)) < 1e-13


@pytest.mark.parametrize("b, p, q", [(3.0, 2.0, 1.0), (0.7, 0.5, 4.0), (2.5, 1.5, 0.3)])
def test_gb1_cdf_at_a_one_against_closed_form(b, p, q):
    # I_u(1, b) = 1 - (1 - u)^b with u = (x/q)^p
    x = q * UNIT
    want = np.array([-math.expm1(b * math.log1p(-((v / q) ** p))) for v in x])
    assert np.max(np.abs(GB1(1.0, b, p, q).cdf(x) / want - 1.0)) < 1e-13


@pytest.mark.parametrize("dist", [GB1(2.0, 3.0, 1.5, 2.0), Kumaraswamy(0.5, 2.0)], ids=repr)
def test_density_near_the_upper_end(dist):
    # 1 - (x/q)^p from log(x/q), not by cancellation; the oracle forms
    # q - x exactly
    a, b, p, q = dist.a, dist.b, dist.p, dist.q
    for gap in (1e-6, 1e-9, 1e-12):
        x = q * (1.0 - gap)
        with mpmath.workdps(50):
            u = (mpmath.mpf(x) / q) ** p
            want = p * u**a * (1 - u) ** (b - 1) / (mpmath.mpf(x) * mpmath.beta(a, b))
            assert abs(dist.pdf(x) / float(want) - 1.0) <= 1e-14, gap


def test_kumaraswamy_upper_tail_roundtrip_and_monotone():
    # the bench member: its upper quantiles are judged through sf to 1e-10
    # relative, with no allowance for the resolution of x near 1
    dist = Kumaraswamy(0.5, 2.0)
    t = np.exp(np.random.default_rng(12).uniform(np.log(1e-12), np.log(0.5), 2500))
    q = 1.0 - t
    assert np.max(np.abs(dist.sf(dist.quantile(q)) - (1.0 - q)) / (1.0 - q)) <= 1e-10
    # the reads switch form at z = 1/2 and at z^p = 1/2
    switches = np.array([0.5, 0.5 ** (1.0 / dist.p)])
    near = np.concatenate([switches, np.nextafter(switches, 0.0), np.nextafter(switches, 1.0)])
    x = np.sort(np.concatenate([np.random.default_rng(13).uniform(0.0, 1.0, 100_000 - near.size), near]))
    assert np.all(np.diff(dist.cdf(x)) >= 0.0) and np.all(np.diff(dist.sf(x)) <= 0.0)
