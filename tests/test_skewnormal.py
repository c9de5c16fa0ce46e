"""Skew-normal core: density, tail-stable cdf, quantile, sampler."""

import math
import warnings

import numpy as np
import pytest

from betasn import (
    KS_COEFF_01,
    BetaSkewNormal,
    Normal,
    SkewNormal,
    chisq1_cdf,
    ks_statistic,
    norm_cdf,
    norm_logcdf,
    norm_pdf,
    norm_quantile,
    owen_t,
)

GRID = np.linspace(-6.0, 6.0, 401)
LAM_LATTICE = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 10.0, -10.0)


def test_pdf_matches_defining_formula():
    for lam in (0.0, 1.5, -3.0):
        for xi, psi in ((0.0, 1.0), (-0.7, 2.5)):
            d = SkewNormal(xi, psi, lam)
            z = (GRID - xi) / psi
            direct = 2.0 / psi * norm_pdf(z) * norm_cdf(lam * z)
            assert np.max(np.abs(d.pdf(GRID) - direct)) < 1e-14


def test_cdf_is_phi_minus_two_owen():
    for lam in (0.7, -2.0, 5.0):
        d = SkewNormal(0.0, 1.0, lam)
        direct = norm_cdf(GRID) - 2.0 * owen_t(GRID, lam)
        assert np.max(np.abs(d.cdf(GRID) - direct)) < 1e-13


@pytest.mark.parametrize("lam", LAM_LATTICE)
def test_cdf_identities(lam):
    d = SkewNormal(0.0, 1.0, lam)
    neg = SkewNormal(0.0, 1.0, -lam)
    # survival through the negated shape
    assert np.max(np.abs(1.0 - d.cdf(-GRID) - neg.cdf(GRID))) < 1e-12
    # complement pair sums to twice the normal cdf
    assert np.max(np.abs(d.cdf(GRID) + neg.cdf(GRID) - 2.0 * norm_cdf(GRID))) < 1e-12


def test_cdf_squares_at_unit_shape():
    d = SkewNormal(0.0, 1.0, 1.0)
    assert np.max(np.abs(d.cdf(GRID) - norm_cdf(GRID) ** 2)) < 1e-12
    assert abs(d.cdf(0.0) - 0.25) < 1e-15


def test_negation_closure():
    # -X mirrors the shape parameter: pdf(-x; -lam) == pdf(x; lam)
    x = np.linspace(-8.0, 8.0, 401)
    for lam in (0.0, 0.5, 2.0, 10.0):
        direct = SkewNormal(lam=lam).pdf(x)
        mirrored = SkewNormal(lam=-lam).pdf(-x)
        assert np.max(np.abs(direct - mirrored)) <= 1e-13, lam


def test_normal_special_case():
    d = SkewNormal(0.3, 2.0, 0.0)
    n = Normal(0.3, 2.0)
    assert np.max(np.abs(d.pdf(GRID) - n.pdf(GRID))) < 1e-15
    assert np.max(np.abs(d.cdf(GRID) - n.cdf(GRID))) < 1e-14
    q = np.linspace(0.01, 0.99, 99)
    assert np.max(np.abs(d.quantile(q) - n.quantile(q))) < 1e-14


def test_tail_stability():
    d = SkewNormal(0.0, 1.0, 2.0)
    # plain cdf/sf underflow gracefully rather than losing the sign
    assert 0.0 <= d.cdf(-40.0) < 1e-300
    assert 0.0 < d.sf(12.0) < 1e-30
    # the log forms stay finite long after the plain values underflow;
    # the short tail decays like exp(-z^2 (1 + lam^2) / 2)
    assert np.isfinite(d.logcdf(-40.0))
    assert np.isfinite(d.logsf(40.0))
    assert -4020.0 < d.logcdf(-40.0) < -4000.0
    # lam = 0 deep tail must agree exactly with the plain normal
    flat = SkewNormal(0.0, 1.0, 0.0)
    assert abs(flat.logcdf(-40.0) - norm_logcdf(-40.0)) < 1e-12
    # lam < 0 deep tail saturates at twice the normal mass
    heavy = SkewNormal(0.0, 1.0, -2.0)
    assert abs(heavy.logcdf(-40.0) - (math.log(2.0) + norm_logcdf(-40.0))) < 1e-3
    # two routes to the same tail: log(sf) vs logsf where sf > 0
    assert abs(d.logsf(12.0) - math.log(d.sf(12.0))) < 1e-12
    # skew factor saturates on the right: 1 - F(z; lam>0) ~ 2 Phi(-z)
    assert abs(d.logsf(12.0) - (math.log(2.0) + math.log(norm_cdf(-12.0)))) < 1e-2


def test_quantile_roundtrip():
    q = np.linspace(0.001, 0.999, 999)
    for lam in (0.0, 1.0, -1.0, 4.0):
        d = SkewNormal(0.5, 1.5, lam)
        assert np.max(np.abs(d.cdf(d.quantile(q)) - q)) < 1e-10
    with pytest.raises(ValueError):
        SkewNormal(0.0, 1.0, 1.0).quantile(0.0)
    with pytest.raises(ValueError):
        SkewNormal(0.0, 1.0, 1.0).quantile(1.2)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SkewNormal(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        SkewNormal(0.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        SkewNormal(np.inf, 1.0, 1.0)


def test_moments_against_closed_form():
    for lam in (0.0, 1.0, -2.0, 5.0):
        delta = lam / math.sqrt(1.0 + lam * lam)
        mean = delta * math.sqrt(2.0 / math.pi)
        sd = math.sqrt(1.0 - 2.0 * delta * delta / math.pi)
        m = SkewNormal(0.0, 1.0, lam).moments()
        assert abs(m.mean - mean) < 1e-9
        assert abs(m.sd - sd) < 1e-9


def test_sampler_ks():
    d = SkewNormal(0.0, 1.0, 2.0)
    values = d.sample(100_000, 7)
    assert ks_statistic(values, d.cdf) < KS_COEFF_01 / math.sqrt(100_000)


def test_squared_draws_are_chisq1():
    z = SkewNormal(0.0, 1.0, 3.0).sample(100_000, 11)
    assert ks_statistic(z * z, chisq1_cdf) < KS_COEFF_01 / math.sqrt(100_000)


def test_sampler_matches_conditioning_representation():
    d = SkewNormal(-0.5, 2.0, 1.5)
    got = d.sample(1000, 123)
    rng = np.random.default_rng(123)
    u = rng.standard_normal(1000)
    v = rng.standard_normal(1000)
    delta = 1.5 / math.sqrt(1.0 + 1.5**2)
    z = delta * np.abs(u) + math.sqrt(1.0 - delta * delta) * v
    assert np.array_equal(got, -0.5 + 2.0 * z)


def test_half_normal_limit():
    # for large shape the positive part approaches 2 phi(x)
    d = SkewNormal(0.0, 1.0, 200.0)
    x = np.linspace(0.05, 4.0, 100)
    assert np.max(np.abs(d.pdf(x) - 2.0 * norm_pdf(x))) < 1e-3
    assert d.cdf(0.0) < 2e-3


# For lam > 0, Owen's T first cancels (going left) at these z, rounded
# down to 4 decimals: the largest z with Phi(z) - 2 T(z, lam) at most
# 1e-4 Phi(z).  From lam of about 6400 on it already does at z = 0.
OWEN_CANCELS_Z = {
    0.05: -37.6772, 0.3: -12.8953, 1.0: -3.7191, 2.0: -1.754,
    5.0: -0.6336, 10.0: -0.2919, 20.0: -0.134, 50.0: -0.0474,
    200.0: -0.0093, 1000.0: -0.0012, 1e4: 0.0,
}
# The lam > 0 side is routed by lam |z|: from the cut 2 on the shape rule
# alone, below it Owen's T with the t-space rule where it cancels.
ROUTE_CUTS = (2.0,)
# So the repair first runs at the larger of the z where Owen's T cancels
# and the cut's z = -2 / lam, rounded down to 4 decimals.
FIRST_REPAIRED_Z = {
    lam: max(z, math.floor(-1e4 * ROUTE_CUTS[0] / lam) / 1e4) for lam, z in OWEN_CANCELS_Z.items()
}

# (lam, z) where the log-space tail repair runs, down to z = -30.  For
# lam = -0.7 it runs only once Phi(z) - 2 T(z, lam) underflows, past
# z = -37.5, so -30 and -6 check the direct formula there.  The points
# at and just past OWEN_CANCELS_Z check the switch from Owen's T where
# it cancels below the cut (lam = 0.05 and from 200 on), and the shape
# rule where the cut comes first (lam from 0.3 to 50).
ORACLE_POINTS = [
    (3.0, -30.0), (3.0, -8.0), (3.0, -2.0),
    (50.0, -30.0), (50.0, -3.0), (50.0, -0.3),
    (0.7, -30.0), (0.7, -12.0), (0.7, -6.0),
    (-0.7, -38.0), (-0.7, -30.0), (-0.7, -6.0),
] + [(lam, z - dz) for lam, z in OWEN_CANCELS_Z.items() for dz in (0.0, 0.1)]


# These points sit at and around the cut, around lam |z| = 4 and far
# beyond, with z >= -1000.
ROUTE_POINTS = [
    (lam, -c / lam)
    for lam in (0.02, 0.3, 1.0, 50.0, 1e3, 1e4, 1e6)
    for c in (1.9, 2.0, 2.1, 3.9, 4.0, 4.1, 10.0, 100.0)
    if c / lam <= 1000.0
]


@pytest.mark.parametrize("lam, z", FIRST_REPAIRED_Z.items())
def test_repair_starts_at_first_repaired_z(monkeypatch, lam, z):
    from betasn import skewnormal

    # the points either rule, shape or t-space, receives
    repaired = []
    for name in ("_shape_logcdf", "_log_tail"):

        def recorded(zb, *rest, _inner=getattr(skewnormal, name)):
            repaired.extend(zb.tolist())
            return _inner(zb, *rest)

        monkeypatch.setattr(skewnormal, name, recorded)
    SkewNormal(0.0, 1.0, lam).logcdf(np.array([z + 1e-4, z]))
    assert repaired == [z]


@pytest.mark.parametrize("lam, z", ORACLE_POINTS + ROUTE_POINTS)
def test_tail_logcdf_against_mpmath_oracle(lam, z):
    pytest.importorskip("mpmath")
    from sn_oracle import tail_logcdf

    want = tail_logcdf(z, lam)
    # F to 1e-10 relative, beyond the few ulp that storing log F costs
    # (log F is -1.1e6 at lam = 50, z = -30)
    assert abs(SkewNormal(0.0, 1.0, lam).logcdf(z) - want) <= 1e-10 + 4.0 * np.spacing(abs(want))


@pytest.mark.parametrize("lam, z", [(3.0, -4.0), (0.7, -8.0), (50.0, -0.3)])
def test_sn_oracle_routes_agree(lam, z):
    pytest.importorskip("mpmath")
    from sn_oracle import closed_form_logcdf, tail_logcdf

    want = closed_form_logcdf(z, lam)
    assert abs(tail_logcdf(z, lam) - want) <= 4.0 * np.spacing(abs(want))


def test_tail_repair_work_count(monkeypatch):
    # deterministic perf guard.  From lam |z| >= 2 (lam > 0) the shape
    # rule alone serves a point: no Owen's T and no norm_logcdf (the
    # t-space rule took up to 25 norm_logcdf points per point there).
    # The t-space rule is balakrishnan's power-of-Phi tail rule, so
    # norm_logcdf is counted in both modules
    from betasn import balakrishnan, skewnormal

    counts = {"norm_logcdf": 0, "owen_t": 0}
    for module, name in ((skewnormal, "norm_logcdf"), (skewnormal, "owen_t"), (balakrishnan, "norm_logcdf")):

        def counted(x, *rest, _inner=getattr(module, name), _name=name):
            counts[_name] += np.size(x)
            return _inner(x, *rest)

        monkeypatch.setattr(module, name, counted)
    z = np.linspace(-30.0, -2.0 / 3.0, 1000)
    assert np.all(3.0 * z <= -2.0)
    d = SkewNormal(0.0, 1.0, 3.0)
    for method in (d.cdf, d.sf, d.logcdf, d.logsf):
        method(z)
    BetaSkewNormal(3.0, 0.5, 2.0).logpdf(z)
    assert counts == {"norm_logcdf": 0, "owen_t": 0}
    # near z = 0 at lam = 1e4 every point is repaired by the t-space rule:
    # one 20-point Laguerre rule per point, 22 norm_logcdf points in all
    # (eight 15-point panels took 122 norm_logcdf points each)
    z = np.linspace(-1.9e-4, 0.0, 1000)
    SkewNormal(0.0, 1.0, 1e4).logcdf(z)
    assert counts["owen_t"] == z.size
    assert 20 * z.size <= counts["norm_logcdf"] <= 25 * z.size


def test_shape_rule_value_does_not_depend_on_other_points():
    # each point's sum runs down its own column in node order; a BLAS
    # matrix-vector sum over the nodes moved values with their position
    from betasn import skewnormal

    rng = np.random.default_rng(3)
    for lam in (0.3, 3.0, 50.0):
        z = -rng.uniform(2.0, 60.0, 1000) / lam
        full = skewnormal._shape_logcdf(z, lam)
        perm = rng.permutation(z.size)
        assert np.array_equal(skewnormal._shape_logcdf(z[perm], lam), full[perm])
        for n in (2, 3, 5, 8, 13, 21, 34, 100):
            for start in range(0, z.size - n, 37):
                part = slice(start, start + n)
                assert np.array_equal(skewnormal._shape_logcdf(z[part], lam), full[part])


# 4 lies inside the shape rule's range, where its rate follows lam |z|
@pytest.mark.parametrize("cut", (*ROUTE_CUTS, 4.0))
@pytest.mark.parametrize("lam", (0.02, 0.3, 1.0, 50.0, 1e3, 1e4, 1e6))
def test_routes_meet_at_each_cut(lam, cut):
    # a 1e-6-spaced grid in lam |z| across the cut, in increasing z
    z = -(cut + 1e-6 * np.arange(10, -11, -1)) / lam
    d = SkewNormal(0.0, 1.0, lam)
    assert np.all(np.diff(d.cdf(z)) >= 0.0)
    # each step of log F against the trapezoid of its slope f / F: off
    # by the rounding of two values, not by a switch of route.  (At
    # lam = 50 the cut 2 sits just before Owen's T is first repaired, at
    # 2.37, where its cancellation leaves about 1e-13 of noise.)
    log_f = d.logcdf(z)
    slope = np.exp(d.logpdf(z) - log_f)
    step = 0.5 * (slope[1:] + slope[:-1]) * np.diff(z)
    assert np.all(np.abs(np.diff(log_f) - step) <= 1e-13 * np.abs(log_f[1:]))


@pytest.mark.parametrize("lam", (1.0, -3.0, 0.0))
def test_infinite_arguments_take_the_limits(lam):
    x = np.array([-np.inf, -1e200, np.nan, 1e200, np.inf])
    lo, hi = [0, 1], [3, 4]
    for d in (SkewNormal(0.0, 1.0, lam), BetaSkewNormal(lam, 0.5, 3.0), BetaSkewNormal(lam, 3.0, 0.5)):
        cdf, sf, pdf, logpdf = d.cdf(x), d.sf(x), d.pdf(x), d.logpdf(x)
        assert np.array_equal(cdf[lo], [0.0, 0.0]) and np.array_equal(cdf[hi], [1.0, 1.0])
        assert np.array_equal(sf[lo], [1.0, 1.0]) and np.array_equal(sf[hi], [0.0, 0.0])
        assert np.all(pdf[lo + hi] == 0.0) and np.all(logpdf[lo + hi] == -np.inf)
        # NaN in, NaN out
        assert all(np.isnan(v[2]) for v in (cdf, sf, pdf, logpdf))
    d = SkewNormal(0.0, 1.0, lam)
    logcdf, logsf = d.logcdf(x), d.logsf(x)
    assert np.all(logcdf[lo] == -np.inf) and np.all(logcdf[hi] == 0.0)
    assert np.all(logsf[lo] == 0.0) and np.all(logsf[hi] == -np.inf)
    assert np.isnan(logcdf[2]) and np.isnan(logsf[2])


def test_tails_shapes_and_scalars():
    from betasn.skewnormal import _tail

    d = SkewNormal(0.0, 1.0, 3.0)
    z = np.linspace(-40.0, 40.0, 12).reshape(3, 4)
    methods = (d.cdf, d.sf, d.logcdf, d.logsf)
    for k, method in enumerate(methods):
        log, upper = (bool(i) for i in divmod(k, 2))
        assert _tail(z, 3.0, upper, log).shape == method(z).shape == (3, 4)
        v = method(-3.0)
        assert type(v) is float and v == _tail(np.array([-3.0]), 3.0, upper, log)[0]


def test_far_density_does_not_warn():
    # x * x overflows past |x| ~ 1.3e154; the log density there is -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SkewNormal(0.0, 1.0, 1.0).pdf(1e200) == 0.0


@pytest.mark.parametrize("x", [-1e154, -5e153, 5e153, 1e154])
def test_far_tails_do_not_warn(x):
    # at lam = 3 the shape rule's (1 + lam^2) x^2 / 2 overflows past
    # x ~ -6e153 and lam x^2 past -7.7e153, and nearer in the beta-kernel
    # powers of log F and the continued fraction's a log x: each only where
    # log F, log I or the log density is below -1.8e308, so every read
    # returns its limit quietly
    sn, bsn = SkewNormal(0.0, 1.0, 3.0), BetaSkewNormal(3.0, 2.0, 3.0)
    reads = (sn.logcdf, sn.cdf, sn.sf, sn.logsf, bsn.logcdf, bsn.cdf, bsn.logsf, bsn.logpdf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [read(x) for read in reads]
    assert not any(math.isnan(v) for v in values)
    if x == -1e154:
        assert values == [-math.inf, 0.0, 1.0, 0.0, -math.inf, 0.0, 0.0, -math.inf]
