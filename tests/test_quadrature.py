"""Adaptive Gauss-Kronrod engine: line and unit-interval integrals."""

import math

import numpy as np
import pytest
import scipy.integrate

import betasn.bsn
import betasn.quadrature
from betasn import (
    DEFAULT_SPEC,
    REFERENCE_MOMENT_GRID,
    BetaSkewNormal,
    IntegrationError,
    QuadratureSpec,
    integrate_line,
    integrate_unit,
    norm_pdf,
    norm_cdf,
    log_beta,
)
from betasn.reference import compare_grid

ORDERS = (0, 1, 2, 3, 4)


def _within_tolerance(stacked, single):
    stacked, single = np.asarray(stacked), np.asarray(single)
    tol = np.maximum(DEFAULT_SPEC.abs_tol, DEFAULT_SPEC.rel_tol * np.abs(single))
    return bool(np.all(np.abs(stacked - single) <= tol))


def _line_component(k):
    return lambda x: x**k * 2.0 * norm_pdf(x) * norm_cdf(3.0 * x)


def _unit_component(k, a, b):
    norm = math.exp(log_beta(a, b))

    def dens(z):
        with np.errstate(divide="ignore"):
            return z**k * z ** (a - 1.0) * (1.0 - z) ** (b - 1.0) / norm

    return dens


def test_line_examples():
    assert abs(integrate_line(norm_pdf, DEFAULT_SPEC) - 1.0) < 1e-12
    assert abs(integrate_line(lambda x: x * norm_pdf(x), DEFAULT_SPEC)) < 1e-12
    got = integrate_line(lambda x: 2.0 * norm_pdf(x) * norm_cdf(x) * x, DEFAULT_SPEC)
    assert abs(got - 1.0 / math.sqrt(math.pi)) < 1e-12


def test_unit_examples():
    assert abs(integrate_unit(lambda z: np.ones_like(z), DEFAULT_SPEC) - 1.0) < 1e-12


@pytest.mark.parametrize("flag", [-0.5])
def test_unit_square_root_singularity(flag):
    # z^(-1/2) / B(1/2, 1): the exponent selects the matching power
    norm = math.exp(log_beta(0.5, 1.0))
    got = integrate_unit(
        lambda z: z ** (-0.5) / norm, DEFAULT_SPEC, singular_left=flag
    )
    assert abs(got - 1.0) < 1e-12


def test_unit_strong_left_singularity_needs_matched_power():
    # z^(-3/4) has exponent -0.75; the squared substitution leaves a
    # u^(-1/2) blow-up while the matched power integrates cleanly
    norm = math.exp(log_beta(0.25, 1.0))
    got = integrate_unit(
        lambda z: z ** (-0.75) / norm, DEFAULT_SPEC, singular_left=-0.75
    )
    assert abs(got - 1.0) < 1e-11


def test_unit_two_sided_beta_density():
    a, b = 0.25, 0.5
    norm = math.exp(log_beta(a, b))

    def dens(z):
        # open-interval convention: zero once an endpoint is no longer
        # representable, matching the distribution classes
        z = np.asarray(z, dtype=float)
        inside = (z > 0.0) & (z < 1.0)
        safe = np.where(inside, z, 0.5)
        out = safe ** (a - 1.0) * (1.0 - safe) ** (b - 1.0) / norm
        return np.where(inside, out, 0.0)

    got = integrate_unit(
        dens, DEFAULT_SPEC, singular_left=a - 1.0, singular_right=b - 1.0
    )
    # the ~4e-9 shortfall is the mass sitting within one ulp of z = 1,
    # where (1-z) is no longer representable; see the normalization budget
    assert abs(got - 1.0) < 5e-9


def test_subdivision_doubling_invariance():
    def dens(z):
        # open-interval convention, as in the two-sided test above: the
        # matched power (u^4 here) puts nodes within an ulp of z = 1
        inside = (z > 0.0) & (z < 1.0)
        safe = np.where(inside, z, 0.5)
        return np.where(inside, safe ** (-0.5) * (1.0 - safe) ** (-0.5) / math.pi, 0.0)

    base = integrate_unit(
        dens, DEFAULT_SPEC, singular_left=-0.5, singular_right=-0.5
    )
    doubled_spec = QuadratureSpec(
        abs_tol=DEFAULT_SPEC.abs_tol,
        rel_tol=DEFAULT_SPEC.rel_tol,
        truncation=DEFAULT_SPEC.truncation,
        max_subdivisions=2 * DEFAULT_SPEC.max_subdivisions,
    )
    doubled = integrate_unit(
        dens, doubled_spec, singular_left=-0.5, singular_right=-0.5
    )
    assert abs(base - doubled) < 1e-12
    assert abs(base - 1.0) < 5e-9


def test_cross_oracle_against_scipy():
    # same integrand through an unrelated engine; both claim ~1e-10
    f = lambda x: np.exp(-0.5 * x * x) * norm_cdf(2.0 * x) ** 3
    ours = integrate_line(f, DEFAULT_SPEC)
    ref, _ = scipy.integrate.quad(f, -16.0, 16.0, epsabs=1e-13, epsrel=1e-13)
    assert abs(ours - ref) < 1e-10


def test_integration_error_carries_estimate():
    # a needle the subdivision budget cannot resolve
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=10)
    needle = lambda x: np.exp(-1e8 * (x - 0.3) ** 2)
    with pytest.raises(IntegrationError) as info:
        integrate_unit(needle, spec)
    assert np.isfinite(info.value.estimate)
    assert info.value.error_estimate > 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=-1e-10)
    with pytest.raises(ValueError):
        QuadratureSpec(truncation=4.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=5)


def test_spec_from_mapping():
    spec = QuadratureSpec.from_mapping(
        {"abs_tol": "1e-9", "max_subdivisions": "500"}
    )
    assert spec.abs_tol == 1e-9
    assert spec.max_subdivisions == 500
    assert spec.rel_tol == DEFAULT_SPEC.rel_tol
    with pytest.raises(ValueError):
        QuadratureSpec.from_mapping({"tolerance": "1e-9"})
    with pytest.raises(ValueError):
        QuadratureSpec.from_mapping({"abs_tol": "plenty"})


def test_truncation_window():
    # the line window is [-truncation, truncation]: at the minimum
    # window of 8 the standard normal still closes to within its own
    # tail mass, and widening the window must not move the answer
    narrow = QuadratureSpec(truncation=8.0)
    assert abs(integrate_line(norm_pdf, narrow) - 1.0) < 1e-12
    wide = QuadratureSpec(truncation=24.0)
    assert abs(integrate_line(norm_pdf, wide) - integrate_line(norm_pdf, DEFAULT_SPEC)) < 1e-13


def test_stacked_line_matches_scalar_calls():
    def stacked(x):
        return np.stack([_line_component(k)(x) for k in ORDERS])

    got = integrate_line(stacked, DEFAULT_SPEC)
    assert got.shape == (len(ORDERS),)
    single = [integrate_line(_line_component(k), DEFAULT_SPEC) for k in ORDERS]
    assert _within_tolerance(got, single)


@pytest.mark.parametrize(
    "a, b, left, right",
    [
        (0.5, 0.75, -0.5, -0.25),
        (0.5, 2.0, -0.5, 0.0),
    ],
)
def test_stacked_unit_matches_scalar_calls(a, b, left, right):
    # beta raw moments with endpoint blow-ups, through matched powers
    def stacked(z):
        return np.stack([_unit_component(k, a, b)(z) for k in ORDERS])

    kw = dict(singular_left=left, singular_right=right)
    got = integrate_unit(stacked, DEFAULT_SPEC, **kw)
    single = [integrate_unit(_unit_component(k, a, b), DEFAULT_SPEC, **kw) for k in ORDERS]
    assert _within_tolerance(got, single)


def test_results_repeat_bit_for_bit():
    def stacked(x):
        return np.stack([_line_component(k)(x) for k in ORDERS])

    first = integrate_line(stacked, DEFAULT_SPEC)
    assert np.array_equal(first, integrate_line(stacked, DEFAULT_SPEC))
    f = _unit_component(2, 0.5, 0.75)
    kw = dict(singular_left=-0.5, singular_right=-0.25)
    assert integrate_unit(f, DEFAULT_SPEC, **kw) == integrate_unit(f, DEFAULT_SPEC, **kw)


def test_scalar_integrand_returns_python_float():
    assert type(integrate_line(norm_pdf, DEFAULT_SPEC)) is float
    assert type(integrate_unit(lambda z: 3.0 * z * z, DEFAULT_SPEC)) is float
    assert type(integrate_unit(_unit_component(0, 0.5, 0.75), DEFAULT_SPEC,
                               singular_left=-0.5, singular_right=-0.25)) is float


def test_unconverged_component_raises_with_its_own_estimate():
    # the smooth component converges at once; the needle never does within
    # the budget, and the error reports the needle's float estimate
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=10)

    def stacked(x):
        return np.stack([np.ones_like(x), np.exp(-1e8 * (x - 0.3) ** 2)])

    with pytest.raises(IntegrationError) as info:
        integrate_unit(stacked, spec)
    assert type(info.value.estimate) is float
    assert type(info.value.error_estimate) is float
    assert np.isfinite(info.value.estimate)
    assert info.value.estimate < 0.5
    assert info.value.error_estimate > spec.abs_tol


def test_compare_grid_work_count(monkeypatch):
    # deterministic perf guard: one compare_grid() is one adaptive pass
    # over all 200 row-moment components (6 batches and 900 nodes), and
    # each batch reads the skew-normal tails once per distinct lam (5);
    # a pass per row took 196 batches and 20,790 nodes
    counts = {"batches": 0, "nodes": 0, "tails": 0}
    gk15 = betasn.quadrature._gk15
    tails = betasn.bsn._tails

    def counted(f, a, b):
        counts["batches"] += 1
        counts["nodes"] += betasn.quadrature._NODES.size * np.size(a)
        return gk15(f, a, b)

    def counted_tails(z, lam):
        counts["tails"] += 1
        return tails(z, lam)

    monkeypatch.setattr(betasn.quadrature, "_gk15", counted)
    monkeypatch.setattr(betasn.bsn, "_tails", counted_tails)
    rows = compare_grid()
    assert all(r.passed for r in rows)
    assert counts["batches"] <= 10
    assert counts["nodes"] <= 1_500
    assert counts["tails"] <= 5 * counts["batches"]


def test_grid_log_densities_are_each_laws_logpdf():
    # the grid's shared-tails log density of every row is, bit for bit,
    # that row's BetaSkewNormal logpdf, on the first sweep's nodes
    laws = [BetaSkewNormal(r.lam, r.a, r.b) for r in REFERENCE_MOMENT_GRID]
    edges = np.linspace(-DEFAULT_SPEC.truncation, DEFAULT_SPEC.truncation, 9)
    center, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    z = center + half * betasn.quadrature._NODES[:, None]
    shared = betasn.bsn._logpdf_rows(laws)(z)
    assert shared.shape == (len(laws),) + z.shape
    for law, row in zip(laws, shared):
        assert row.tobytes() == law.logpdf(z).tobytes(), law
