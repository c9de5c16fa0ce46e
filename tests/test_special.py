"""Special-function layer: normal kernel, Owen's T, incomplete beta."""

import math

import numpy as np
import pytest

from betasn import (
    chisq1_cdf,
    inv_reg_inc_beta,
    log_beta,
    norm_cdf,
    norm_logcdf,
    norm_logpdf,
    norm_pdf,
    norm_quantile,
    owen_t,
    reg_inc_beta,
)


def test_norm_kernel_values():
    assert norm_cdf(0.0) == 0.5
    assert norm_quantile(0.5) == 0.0
    assert abs(norm_pdf(0.0) - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-16
    assert abs(norm_quantile(0.975) - 1.959963984540054) < 1e-12
    q = np.linspace(0.01, 0.99, 99)
    assert np.max(np.abs(norm_quantile(q) + norm_quantile(1.0 - q))) < 1e-13


def test_norm_roundtrip_within_1e10():
    p = np.concatenate([
        np.array([1e-8, 1e-6, 1e-4]),
        np.linspace(0.001, 0.999, 999),
        1.0 - np.array([1e-4, 1e-6, 1e-8]),
    ])
    assert np.max(np.abs(norm_cdf(norm_quantile(p)) - p)) < 1e-10


def test_norm_log_tails_stay_finite():
    # far beyond where the plain cdf underflows, the log forms must
    # still track the asymptotic phi(x)/x expansion
    x = np.array([-40.0, -30.0, -20.0])
    lo = norm_logcdf(x)
    asym = norm_logpdf(x) - np.log(-x)
    assert np.all(np.isfinite(lo))
    # Mills ratio correction is -1/x^2 + O(x^-4)
    assert np.all(np.abs(lo - asym) < 1.1 / x**2)
    assert norm_logcdf(-40.0) < norm_logcdf(-30.0)


def test_owen_t_examples():
    assert owen_t(3.1, 0.0) == 0.0
    assert abs(owen_t(0.0, 1.0) - 0.125) < 1e-15
    # the value forced by 2T(1,1) = Phi(1)Phi(-1)
    assert abs(owen_t(1.0, 1.0) - 0.06674188216570097) < 1e-12
    assert abs(owen_t(0.0, 2.5) - math.atan(2.5) / (2.0 * math.pi)) < 1e-15


def test_owen_t_properties_on_random_pairs():
    rng = np.random.default_rng(42)
    h = rng.uniform(-6.0, 6.0, 10_000)
    a = rng.uniform(-6.0, 6.0, 10_000)
    assert np.max(np.abs(owen_t(h, a) + owen_t(h, -a))) < 1e-12
    assert np.max(np.abs(owen_t(-h, a) - owen_t(h, a))) < 1e-12
    z = rng.uniform(-6.0, 6.0, 10_000)
    assert np.max(np.abs(2.0 * owen_t(z, 1.0) - norm_cdf(z) * norm_cdf(-z))) < 1e-12


def test_log_beta_matches_gamma_identity():
    assert log_beta(1.0, 1.0) == 0.0
    assert abs(log_beta(2.0, 3.0) - math.log(1.0 / 12.0)) < 1e-14
    for a in (0.1, 0.5, 1.0, 2.0, 10.0, 123.4):
        for b in (0.1, 0.5, 1.0, 2.0, 10.0):
            exact = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
            got = log_beta(a, b)
            assert got == log_beta(b, a)
            assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))
    with pytest.raises(ValueError):
        log_beta(-1.0, 2.0)
    with pytest.raises(ValueError):
        log_beta(2.0, 0.0)


def test_reg_inc_beta_examples_and_symmetry():
    y = np.linspace(0.0, 1.0, 21)
    assert np.max(np.abs(reg_inc_beta(y, 1.0, 1.0) - y)) < 1e-15
    assert abs(reg_inc_beta(0.5, 2.0, 2.0) - 0.5) < 1e-15
    # closed-form polynomial: integral of 12 z (1-z)^2 up to 0.3
    assert abs(reg_inc_beta(0.3, 2.0, 3.0) - 0.3483) < 1e-15
    assert reg_inc_beta(0.0, 0.3, 7.0) == 0.0
    assert reg_inc_beta(1.0, 0.3, 7.0) == 1.0
    for a in (0.1, 0.5, 2.0, 10.0):
        for b in (0.1, 0.5, 2.0, 10.0):
            vals = reg_inc_beta(y, a, b)
            assert np.all(np.diff(vals) >= 0.0)
            mirror = 1.0 - reg_inc_beta(1.0 - y, b, a)
            assert np.max(np.abs(vals - mirror)) < 1e-13
    with pytest.raises(ValueError):
        reg_inc_beta(0.5, -2.0, 3.0)
    with pytest.raises(ValueError):
        reg_inc_beta(1.5, 2.0, 3.0)


def test_inv_reg_inc_beta_examples():
    p = np.linspace(0.0, 1.0, 21)
    assert np.max(np.abs(inv_reg_inc_beta(p, 1.0, 1.0) - p)) < 1e-15
    assert abs(inv_reg_inc_beta(0.5, 2.0, 2.0) - 0.5) < 1e-14
    assert abs(inv_reg_inc_beta(0.3483, 2.0, 3.0) - 0.3) < 1e-12
    assert inv_reg_inc_beta(0.0, 0.1, 5.0) == 0.0
    assert inv_reg_inc_beta(1.0, 0.1, 5.0) == 1.0
    assert np.isnan(inv_reg_inc_beta(np.nan, 2.0, 3.0))
    assert np.isnan(inv_reg_inc_beta(0.3, np.array([2.0, np.nan]), 3.0)[1])
    # a w below half the smallest double rounds to 0
    assert inv_reg_inc_beta(0.3, 0.001, 1000.0) == 0.0
    with pytest.raises(ValueError):
        inv_reg_inc_beta(-0.1, 2.0, 3.0)


def _roundtrip_slope(y, a, b):
    """d/dy I_y(a,b): the conditioning factor of the p-space roundtrip."""
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        t1 = np.where(a == 1.0, 0.0, (a - 1.0) * np.log(y))
        t2 = np.where(b == 1.0, 0.0, (b - 1.0) * np.log1p(-y))
        return np.exp(t1 + t2 - log_beta(a, b))


def test_beta_roundtrip_grid():
    """Forward roundtrip on the full (p, a, b) grid.

    |I(I^-1(p)) - p| cannot drop below slope * ulp(y) no matter how the
    inverse is computed: y carries at most half-ulp placement error and
    the forward map amplifies it by its own derivative.  Cells where
    that floor allows 1e-12 must meet 1e-12; every other cell must sit
    within a small multiple of its floor (and all cells within the
    documented 1e-10 whenever the floor itself is below 1e-10).
    """
    p = np.arange(1, 1000) / 1000.0
    shapes = (0.1, 0.5, 1.0, 2.0, 10.0)
    worst_conditioned = 0.0
    worst_ratio = 0.0
    beyond = 0
    for a in shapes:
        for b in shapes:
            y = inv_reg_inc_beta(p, a, b)
            err = np.abs(reg_inc_beta(y, a, b) - p)
            floor = _roundtrip_slope(y, a, b) * np.spacing(y)
            good = floor <= 2.5e-13
            if np.any(good):
                worst_conditioned = max(worst_conditioned, float(np.max(err[good])))
            rest = ~good
            if np.any(rest):
                beyond += int(np.sum(rest))
                with np.errstate(invalid="ignore", divide="ignore"):
                    ratio = err[rest] / floor[rest]
                ratio = ratio[np.isfinite(ratio)]
                if ratio.size:
                    worst_ratio = max(worst_ratio, float(np.max(ratio)))
    assert worst_conditioned < 1e-12, worst_conditioned
    # the ill-conditioned cells (singular endpoints of small-shape
    # betas) still track their own resolution floor
    assert worst_ratio < 3.0, worst_ratio
    assert beyond < 2000


def test_inverse_direction_roundtrip():
    y = np.linspace(1e-6, 1.0 - 1e-6, 257)
    for a in (0.1, 0.5, 1.0, 2.0, 10.0):
        for b in (0.1, 0.5, 1.0, 2.0, 10.0):
            pg = reg_inc_beta(y, a, b)
            keep = (pg > 0.0) & (pg < 1.0)
            back = inv_reg_inc_beta(pg[keep], a, b)
            # compare in y-space scaled by the local slope: exact where
            # p is representable, floor-limited where it is not
            slope = _roundtrip_slope(y[keep], a, b)
            bound = np.maximum(np.spacing(pg[keep]) / np.maximum(slope, 1e-300), 5e-16)
            ok = np.abs(back - y[keep]) <= np.maximum(1e-12, 4.0 * bound)
            assert np.all(ok), (a, b, float(np.max(np.abs(back - y[keep]))))


def test_chisq1_cdf():
    assert chisq1_cdf(0.0) == 0.0
    assert abs(chisq1_cdf(1.0) - 0.6826894921370859) < 1e-14
    q95 = norm_quantile(0.975) ** 2
    assert abs(chisq1_cdf(q95) - 0.95) < 1e-14
    x = np.linspace(0.0, 9.0, 50)
    assert np.max(np.abs(chisq1_cdf(x) - (2.0 * norm_cdf(np.sqrt(x)) - 1.0))) < 1e-15
    with pytest.raises(ValueError):
        chisq1_cdf(-0.5)


def test_bracketed_newton():
    from betasn.special import _bracketed_newton

    target = np.array([2.0, 0.5, 9.0])
    root = _bracketed_newton(
        lambda x, idx: (x**3 - target[idx], 3.0 * x * x, 6.0 * x),
        np.ones(3), np.zeros(3), np.full(3, 3.0),
    )
    assert np.max(np.abs(root**3 / target - 1.0)) < 1e-15
    # a start exactly on the root keeps it
    line = lambda x, idx: (x - 1.0, np.ones_like(x), np.zeros_like(x))
    on_root = _bracketed_newton(line, [1.0], [0.0], [2.0])
    assert on_root[0] == 1.0
    # a start 1e-10 from the root takes one exact step, and g'' = 0
    # predicts a zero successor: the first evaluation ends the solve
    evals = {}
    near = _bracketed_newton(_counted(evals, "line", line), [1.0 - 1e-10], [0.0], [2.0])
    assert near[0] == 1.0 and evals["line"] == 1
    # a point that cannot converge raises instead of coming back half-solved
    with pytest.raises(ArithmeticError):
        _bracketed_newton(
            lambda x, idx: (np.full_like(x, np.nan), np.ones_like(x), np.zeros_like(x)),
            [1.0], [0.0], [2.0],
        )

    # log x is concave, so from x = 0.5 the Halley point 1.03 overshoots the
    # root 1 and leaves the bracket [0.5, 1.02]: that step bisects instead
    seen = []

    def log_gap(x, idx):
        seen.extend(x.tolist())
        return np.log(x), 1.0 / x, -1.0 / (x * x)

    root = _bracketed_newton(log_gap, [0.5], [0.5], [1.02])
    assert abs(root[0] - 1.0) < 1e-15
    assert seen[1] == 0.5 * (0.5 + 1.02)
    assert all(0.5 <= x <= 1.02 for x in seen)


def _counted(evals, key, fun):
    """fun, adding the points it is called on to evals[key]."""
    evals[key] = 0

    def wrapped(x, idx):
        evals[key] += x.size
        return fun(x, idx)

    return wrapped


def test_bracketed_newton_stops_on_the_predicted_step():
    from betasn.special import _bracketed_newton

    # cube roots of 9 targets from 0.1 to 20, all started at 1 in [0, 3].
    # Stopping only once a fresh step is within 4 ulp took 42 evaluations;
    # a step whose predicted successor |g''/g'| step^2 / 2 is below that
    # ends the solve
    target = np.geomspace(0.1, 20.0, 9)
    evals = {}

    def cube(x, idx):
        return x**3 - target[idx], 3.0 * x * x, 6.0 * x

    start, lo, hi = np.ones(9), np.zeros(9), np.full(9, 3.0)
    root = _bracketed_newton(_counted(evals, "halley", cube), start, lo, hi)
    assert np.max(np.abs(root**3 / target - 1.0)) < 1e-15
    assert evals["halley"] < 42
    # the three targets of test_bracketed_newton: the last large steps
    # there, 4e-7 and 1e-7, predict successors above 4 ulp, so that solve
    # keeps its 13 evaluations
    target = np.array([2.0, 0.5, 9.0])
    start, lo, hi = np.ones(3), np.zeros(3), np.full(3, 3.0)
    _bracketed_newton(_counted(evals, "halley", cube), start, lo, hi)
    assert evals["halley"] <= 13


def test_bracketed_newton_vanishing_curvature_does_not_stop_a_large_step():
    from betasn.special import _bracketed_newton

    # g = sinh x - 2 has g'' = 0 at the start x = 0, so the first step, to
    # x = 2, predicts a zero successor; it is far above 1e-6 and goes on
    seen = []

    def gap(x, idx):
        seen.extend(x.tolist())
        return np.sinh(x) - 2.0, np.cosh(x), np.sinh(x)

    root = _bracketed_newton(gap, [0.0], [-1.0], [5.0])
    assert len(seen) > 2 and seen[1] == 2.0
    assert abs(root[0] / np.arcsinh(2.0) - 1.0) < 1e-15


def test_bracketed_newton_stops_on_a_root_at_the_bracket_end():
    from betasn.special import _bracketed_newton

    # the root 1 is the bracket's upper end, 1e-8 from the start: the exact
    # Newton point lands on the end, not inside, and predicts a zero
    # successor.  Requiring a point strictly inside the bracket, the solve
    # bisected towards the end until the bracket was 4 ulp wide.
    evals = {}
    root = _bracketed_newton(
        _counted(evals, "line", lambda x, idx: (x - 1.0, np.ones_like(x), np.zeros_like(x))),
        [1.0 - 1e-8], [0.0], [1.0],
    )
    assert root[0] == 1.0 and evals["line"] == 1
