"""Beta skew-normal: identities, recursion, modes, transforms, sampling."""

import numpy as np
import pytest

from betasn import (
    TBSN,
    BetaNormal,
    BetaSkewNormal,
    Distribution,
    Kumaraswamy,
    Normal,
    SkewNormal,
    bhn_limit_distance,
    kumaraswamy_transform,
    ks_statistic,
    log_beta,
    moment_recursion_gap,
    norm_cdf,
    norm_logcdf,
    norm_logpdf,
    norm_quantile,
    sample_rejection,
    skewing_weight,
    KS_COEFF_01,
)
from betasn.quadrature import integrate_unit

GRID = np.linspace(-6.0, 6.0, 401)
_LOG2 = np.log(2.0)


def _pdf_gap(d1, d2):
    return float(np.max(np.abs(d1.pdf(GRID) - d2.pdf(GRID))))


def _cdf_gap(d1, d2):
    return float(np.max(np.abs(d1.cdf(GRID) - d2.cdf(GRID))))


@pytest.mark.parametrize("lam", [3.0, -0.7, 50.0])
def test_logpdf_matches_public_skewnormal_formula(lam):
    d = BetaSkewNormal(lam, 0.3, 2.5)
    z = np.linspace(-40.0, 40.0, 801)
    want = _LOG2 - log_beta(d.a, d.b) + norm_logpdf(z) + norm_logcdf(lam * z) - np.log(d.sigma)
    want = want + (d.a - 1.0) * d.base.logcdf(z)
    want = want + (d.b - 1.0) * d.base.logsf(z)
    assert np.array_equal(d.logpdf(z), want)


def test_logpdf_evaluates_each_tail_once(monkeypatch):
    # deterministic perf guard: log F and log S come from one left-tail
    # evaluation per point, not one each
    from betasn import skewnormal

    counts = {"points": 0}
    inner = skewnormal._left

    def counted(z, lam):
        counts["points"] += np.size(z)
        return inner(z, lam)

    monkeypatch.setattr(skewnormal, "_left", counted)
    BetaSkewNormal(1.0, 2.0, 3.0).logpdf(GRID)
    assert counts["points"] == GRID.size


def test_density_formula():
    lam, a, b = 1.0, 2.0, 3.0
    d = BetaSkewNormal(lam, a, b)
    base = SkewNormal(0.0, 1.0, lam)
    f = base.cdf(GRID)
    direct = (
        np.exp(norm_logpdf(GRID) + np.log(2.0) - log_beta(a, b))
        * norm_cdf(lam * GRID)
        * f ** (a - 1.0)
        * (1.0 - f) ** (b - 1.0)
    )
    assert np.max(np.abs(d.pdf(GRID) - direct)) < 1e-14


@pytest.mark.parametrize("lam", [0.0, 0.5, -1.0, 2.0, -3.0])
def test_unit_beta_shapes_give_skew_normal(lam):
    assert _pdf_gap(BetaSkewNormal(lam, 1.0, 1.0), SkewNormal(0.0, 1.0, lam)) < 1e-12
    assert _cdf_gap(BetaSkewNormal(lam, 1.0, 1.0), SkewNormal(0.0, 1.0, lam)) < 1e-12


def test_zero_shape_gives_beta_normal():
    for a, b in ((2.0, 3.0), (0.5, 0.7), (1.5, 1.0)):
        assert _pdf_gap(BetaSkewNormal(0.0, a, b), BetaNormal(a, b)) < 1e-12
        assert _cdf_gap(BetaSkewNormal(0.0, a, b), BetaNormal(a, b)) < 1e-12


def test_standard_normal_reductions():
    std = Normal(0.0, 1.0)
    assert _pdf_gap(BetaSkewNormal(0.0, 1.0, 1.0), std) < 1e-12
    # the half/unit shape pairs fold the skewing factor into the beta weight
    assert _pdf_gap(BetaSkewNormal(1.0, 0.5, 1.0), std) < 1e-12
    assert _pdf_gap(BetaSkewNormal(-1.0, 1.0, 0.5), std) < 1e-12


def test_tbsn_identities():
    for n in (1, 2, 3):
        for m in (0, 2):
            assert _pdf_gap(BetaSkewNormal(1.0, n, 1.0), TBSN(1.0, 0.0, 2 * n - 1, m)) < 1e-10
    for m in (1, 2, 3):
        for n in (0, 3):
            assert _pdf_gap(BetaSkewNormal(-1.0, 1.0, m), TBSN(0.0, -1.0, n, 2 * m - 1)) < 1e-10
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            assert _pdf_gap(BetaSkewNormal(0.0, n, m), TBSN(1.0, -1.0, n - 1, m - 1)) < 1e-10


def _assert_mirrors(lam, a, b):
    """X ~ BSN(lam,a,b) and Y ~ BSN(-lam,b,a) mirror each other.

    pdf_X(-x) = pdf_Y(x) on the grid to 1e-12; means and skewnesses
    opposite, sds and kurtoses equal, each to 1e-6.
    """
    x_dist = BetaSkewNormal(lam, a, b)
    y_dist = BetaSkewNormal(-lam, b, a)
    assert np.max(np.abs(x_dist.pdf(-GRID) - y_dist.pdf(GRID))) <= 1e-12, (lam, a, b)
    mx = x_dist.moments()
    my = y_dist.moments()
    assert abs(mx.mean + my.mean) <= 1e-6, (lam, a, b)
    assert abs(mx.sd - my.sd) <= 1e-6, (lam, a, b)
    assert abs(mx.skewness + my.skewness) <= 1e-6, (lam, a, b)
    assert abs(mx.kurtosis - my.kurtosis) <= 1e-6, (lam, a, b)


def test_reflection():
    _assert_mirrors(1.0, 2.0, 3.0)
    _assert_mirrors(-2.5, 0.5, 1.7)
    rng = np.random.default_rng(17)
    for _ in range(5):
        lam = float(rng.uniform(-3.0, 3.0))
        a = float(rng.uniform(0.4, 4.0))
        b = float(rng.uniform(0.4, 4.0))
        _assert_mirrors(lam, a, b)


def test_negation_swaps_shapes():
    x_dist = BetaSkewNormal(1.3, 2.0, 0.8)
    y_dist = BetaSkewNormal(-1.3, 0.8, 2.0)
    assert np.max(np.abs(x_dist.cdf(-GRID) - y_dist.sf(GRID))) < 1e-13


def _symmetry_gap(lam, a):
    """max |pdf(x) - pdf(-x)| of BSN(lam, a, a) on the grid."""
    dist = BetaSkewNormal(lam, a, a)
    return np.max(np.abs(dist.pdf(GRID) - dist.pdf(-GRID)))


def test_symmetry_examples():
    # with equal beta shapes, symmetry holds exactly when lam = 0
    assert _symmetry_gap(0.0, 0.7) <= 1e-12
    assert not _symmetry_gap(1.0, 1.0) <= 1e-12
    assert not _symmetry_gap(2.0, 0.5) <= 1e-12


def test_moment_recursion_lattice():
    worst = 0.0
    for lam in (0.0, 1.0, -1.0):
        for a in (2.0, 3.0):
            for b in (2.0, 3.0):
                for k in (2, 3, 4):
                    worst = max(worst, moment_recursion_gap(lam, a, b, k))
    assert worst < 1e-6


def test_moment_recursion_work_count(monkeypatch):
    # deterministic perf guard: E[X^k], E[X^(k-2)] and the hazard term
    # share one pass over the BSN pdf (5 scalar passes made 20 batches
    # and 2,070 nodes)
    import betasn.quadrature

    counts = {"batches": 0, "nodes": 0}
    gk15 = betasn.quadrature._gk15

    def counted(f, a, b):
        counts["batches"] += 1
        counts["nodes"] += betasn.quadrature._NODES.size * np.size(a)
        return gk15(f, a, b)

    monkeypatch.setattr(betasn.quadrature, "_gk15", counted)
    assert moment_recursion_gap(1.5, 2.0, 3.0, 4) < 1e-6
    assert counts["batches"] <= 12
    assert counts["nodes"] <= 1_260


def test_moment_recursion_domain():
    with pytest.raises(ValueError):
        moment_recursion_gap(1.0, 1.0, 2.0, 2)
    with pytest.raises(ValueError):
        moment_recursion_gap(1.0, 2.0, 2.0, 1)


def test_mgf():
    d = BetaSkewNormal(1.0, 2.0, 3.0)
    assert abs(d.mgf(0.0) - 1.0) < 1e-10
    # normal special case has the closed form exp(mu t + sigma^2 t^2 / 2)
    g = BetaSkewNormal(0.0, 1.0, 1.0, mu=0.5, sigma=2.0)
    for t in (-0.5, 0.3, 1.0):
        exact = np.exp(0.5 * t + 2.0 * t * t)
        assert abs(g.mgf(t) - exact) < 1e-9 * exact
    # derivative at zero recovers the mean
    h = 1e-5
    deriv = (d.mgf(h) - d.mgf(-h)) / (2.0 * h)
    assert abs(deriv - d.moments().mean) < 1e-5


def test_mgf_over_an_array_of_t():
    # every t shares one vector-valued quadrature; each keeps its own tolerance
    d = BetaSkewNormal(-2.0, 0.3, 0.7, mu=0.5, sigma=1.5)
    t = np.array([[-1.0, -0.2, 0.0], [0.4, 0.9, 1.3]])
    got = d.mgf(t)
    assert got.shape == t.shape
    single = [d.mgf(float(v)) for v in t.ravel()]
    assert all(type(v) is float for v in single)
    assert np.allclose(got.ravel(), single, rtol=1e-9, atol=0.0)


def test_mode_report_unimodal():
    rep = BetaSkewNormal(0.0, 1.0, 1.0).mode_report()
    assert rep.mode_count == 1
    assert abs(rep.mode_locations[0]) < 1e-8
    assert rep.log_concave_on_grid

    rep = BetaSkewNormal(2.0, 3.0, 2.0).mode_report()
    assert rep.mode_count == 1
    assert rep.log_concave_on_grid


def test_mode_report_bimodal():
    rep = BetaSkewNormal(0.0, 0.1, 0.1).mode_report()
    assert rep.mode_count == 2
    assert not rep.log_concave_on_grid
    locs = sorted(rep.mode_locations)
    assert abs(locs[0] + 2.67130522) < 1e-5
    assert abs(locs[1] - 2.67130522) < 1e-5


def test_bhn_limit():
    d50 = bhn_limit_distance(50.0, 1.0, 1.0)
    d200 = bhn_limit_distance(200.0, 1.0, 1.0)
    assert d50 < 0.02
    assert d200 < d50
    assert bhn_limit_distance(100.0, 2.0, 3.0) < 0.02
    with pytest.raises(ValueError):
        bhn_limit_distance(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        bhn_limit_distance(-3.0, 1.0, 1.0)


def test_kumaraswamy_transform_distributional():
    # by the quantile transform, so the test reads the skew-normal cdf and quantile
    # cdf route with a = 1: F(Z)^(1/c) ~ Kumaraswamy(c, b)
    d = BetaSkewNormal(1.0, 1.0, 3.0)
    x = Distribution.draw(d, np.random.default_rng(31), 50_000)
    u = kumaraswamy_transform(d, "cdf", 2.0, x)
    stat = ks_statistic(u, Kumaraswamy(2.0, 3.0).cdf)
    assert stat < KS_COEFF_01 / np.sqrt(u.size)
    # survival route with b = 1
    d2 = BetaSkewNormal(0.5, 3.0, 1.0)
    x2 = Distribution.draw(d2, np.random.default_rng(32), 50_000)
    u2 = kumaraswamy_transform(d2, "survival", 2.0, x2)
    stat2 = ks_statistic(u2, Kumaraswamy(2.0, 3.0).cdf)
    assert stat2 < KS_COEFF_01 / np.sqrt(u2.size)


def test_kumaraswamy_transform_domain():
    ok = BetaSkewNormal(1.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        kumaraswamy_transform(BetaSkewNormal(1.0, 2.0, 3.0), "cdf", 2.0, 0.5)
    with pytest.raises(ValueError):
        kumaraswamy_transform(BetaSkewNormal(1.0, 1.0, 3.0), "survival", 2.0, 0.5)
    with pytest.raises(ValueError):
        kumaraswamy_transform(ok, "pdf", 2.0, 0.5)
    with pytest.raises(ValueError):
        kumaraswamy_transform(ok, "cdf", 0.0, 0.5)
    with pytest.raises(ValueError):
        kumaraswamy_transform(ok, "cdf", -1.0, 0.5)


def test_skewing_weight():
    total = integrate_unit(lambda u: skewing_weight(u, 1.0, 2.0, 3.0), None)
    assert abs(total - 1.0) < 1e-8
    # pdf(y) = phi(y) p(Phi(y))
    d = BetaSkewNormal(1.0, 2.0, 3.0)
    y = np.linspace(-5.0, 5.0, 201)
    recon = np.exp(norm_logpdf(y)) * skewing_weight(norm_cdf(y), 1.0, 2.0, 3.0)
    assert np.max(np.abs(recon - d.pdf(y))) < 1e-10
    # flat weight in the standard-normal case
    u = np.linspace(0.01, 0.99, 50)
    assert np.max(np.abs(skewing_weight(u, 0.0, 1.0, 1.0) - 1.0)) < 1e-14
    for bad in (0.0, 1.0, -0.3, 1.5, np.nan):
        with pytest.raises(ValueError):
            skewing_weight(bad, 1.0, 2.0, 3.0)


def test_rejection_sampler():
    batch = sample_rejection(1.0, 5, 20_000, 42)
    again = sample_rejection(1.0, 5, 20_000, 42)
    assert np.array_equal(batch.values, again.values)
    assert batch.seed == 42
    assert batch.values.size == 20_000
    assert batch.n_accepted >= 20_000
    assert batch.n_trials >= batch.n_accepted

    stat = ks_statistic(batch.values, BetaSkewNormal(1.0, 5.0, 1.0).cdf)
    assert stat < KS_COEFF_01 / np.sqrt(batch.values.size)

    # acceptance probability is 1/5; empirical rate within 3 binomial SE
    p = 0.2
    rate = batch.n_accepted / batch.n_trials
    se = np.sqrt(p * (1.0 - p) / batch.n_trials)
    assert abs(rate - p) < 3.0 * se

    with pytest.raises(ValueError):
        sample_rejection(1.0, 2.5, 100, 0)
    with pytest.raises(ValueError):
        sample_rejection(1.0, 0, 100, 0)
    with pytest.raises(ValueError):
        sample_rejection(1.0, 2, 0, 0)


def test_cdf_sf_complement():
    d = BetaSkewNormal(1.0, 2.0, 3.0)
    assert np.max(np.abs(d.cdf(GRID) + d.sf(GRID) - 1.0)) < 1e-14


def test_tail_survival_accuracy():
    # lam=0, a=b=1 is exactly standard normal; sf must not lose the tail
    d = BetaSkewNormal(0.0, 1.0, 1.0)
    exact = norm_cdf(-8.0)
    assert abs(d.sf(8.0) - exact) < 1e-12 * exact
    assert abs(d.cdf(-8.0) - exact) < 1e-12 * exact


def test_cdf_derivative_matches_pdf():
    h = 1e-6
    x = np.linspace(-3.5, 3.5, 29)
    for d in (BetaSkewNormal(1.0, 2.0, 3.0), BetaSkewNormal(-2.0, 0.5, 0.7)):
        central = (d.cdf(x + h) - d.cdf(x - h)) / (2.0 * h)
        assert np.max(np.abs(central - d.pdf(x))) < 1e-6


def test_quantile_roundtrip():
    q = np.linspace(0.001, 0.999, 199)
    for d in (
        BetaSkewNormal(1.0, 2.0, 3.0),
        BetaSkewNormal(1.0, 0.25, 0.25),
        BetaSkewNormal(-2.0, 3.0, 0.5, mu=1.0, sigma=2.0),
    ):
        assert np.max(np.abs(d.cdf(d.quantile(q)) - q)) < 1e-10, d


def test_location_scale():
    d = BetaSkewNormal(1.0, 2.0, 3.0, mu=1.5, sigma=0.5)
    z = BetaSkewNormal(1.0, 2.0, 3.0)
    x = np.linspace(-1.0, 4.0, 101)
    assert np.max(np.abs(d.pdf(x) - z.pdf((x - 1.5) / 0.5) / 0.5)) < 1e-13
    assert np.max(np.abs(d.cdf(x) - z.cdf((x - 1.5) / 0.5))) < 1e-13


def test_parameter_validation():
    for bad in ((1.0, 0.0, 1.0), (1.0, 1.0, -2.0)):
        with pytest.raises(ValueError):
            BetaSkewNormal(*bad)
    with pytest.raises(ValueError):
        BetaSkewNormal(1.0, 1.0, 1.0, sigma=0.0)
