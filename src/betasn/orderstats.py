"""Order-statistic mappings and the Monte Carlo verification harness.

The analytic side maps (base distribution, sample size, rank) to the
closed-form law of that order statistic inside the skew-normal family
lattice.  The Monte Carlo side simulates the construction directly and
compares empirical cdfs against the analytic law with a KS test at
level 0.01, so every mapping and conditioning claim has an independent
sampling-based check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balakrishnan import GBSN, SNB
from .bsn import BetaSkewNormal
from .core import Distribution
from .skewnormal import Normal, SkewNormal
from .special import log_beta

__all__ = [
    "KS_COEFF_01",
    "KsReport",
    "OrderStatSpec",
    "UnsupportedMappingError",
    "ks_statistic",
    "analytic_order_stat",
    "order_stat_pdf",
    "mc_order_stat_ks",
    "mc_conditioning_ks",
    "log_concavity_order_stat_check",
]

# asymptotic KS critical coefficient at level 0.01
KS_COEFF_01 = 1.628

_SUPPORTED = (
    "supported (base, rank) combinations: standardized SkewNormal with any rank; "
    "standard Normal with any rank; standardized SNB(lam=1) with rank = sample_size; "
    "standardized SNB(lam=-1) with rank = 1"
)


class UnsupportedMappingError(ValueError):
    pass


@dataclass(frozen=True)
class KsReport:
    """One empirical-vs-analytic cdf comparison at level 0.01."""

    n_trials: int
    statistic: float
    critical_value: float
    passed: bool

    def __post_init__(self):
        if self.passed != (self.statistic < self.critical_value):
            raise ValueError("passed must equal statistic < critical_value")

    def to_json_dict(self):
        return {
            "n_trials": self.n_trials,
            "statistic": self.statistic,
            "critical_value": self.critical_value,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class ConditioningReport:
    """KS verdict for conditional survivors plus the event-probability audit."""

    ks: KsReport
    n_proposals: int
    n_accepted: int
    empirical_probability: float
    expected_probability: float
    within_3se: bool


@dataclass(frozen=True)
class OrderStatSpec:
    base: Distribution
    sample_size: int
    rank: int

    def __post_init__(self):
        if not (isinstance(self.sample_size, (int, np.integer)) and self.sample_size >= 1):
            raise ValueError("sample_size must be a positive integer")
        if not (isinstance(self.rank, (int, np.integer)) and 1 <= self.rank <= self.sample_size):
            raise ValueError("rank must lie in 1..sample_size")


def ks_statistic(values, cdf):
    """Two-sided Kolmogorov-Smirnov sup distance of a sample against a cdf."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def _ks_report(n_trials, statistic):
    critical = KS_COEFF_01 / np.sqrt(n_trials)
    return KsReport(
        n_trials=int(n_trials),
        statistic=float(statistic),
        critical_value=float(critical),
        passed=bool(statistic < critical),
    )


def _is_standard(dist):
    return dist.location == 0.0 and dist.scale == 1.0


def analytic_order_stat(spec):
    """Closed-form law of the rank-th order statistic of the base sample.

    Standardized skew-normal bases map into the Beta skew-normal family
    for every rank; the standard normal maps to GBSN; SNB bases with
    shape +1 (maximum) or -1 (minimum) stay in the SNB family with order
    k = sample_size * (order + 1) - 1.
    """
    base, n, j = spec.base, int(spec.sample_size), int(spec.rank)
    if isinstance(base, SkewNormal):
        if not _is_standard(base):
            raise UnsupportedMappingError(
                f"base must be standardized (xi=0, psi=1); {_SUPPORTED}"
            )
        return BetaSkewNormal(base.lam, float(j), float(n - j + 1))
    if isinstance(base, Normal):
        if not _is_standard(base):
            raise UnsupportedMappingError(f"base must be N(0,1); {_SUPPORTED}")
        return GBSN(1.0, j - 1, n - j)
    if isinstance(base, SNB):
        if not _is_standard(base):
            raise UnsupportedMappingError(
                f"base must be standardized (mu=0, sigma=1); {_SUPPORTED}"
            )
        k = n * (base.n + 1) - 1
        if base.lam == 1.0 and j == n:
            return SNB(1.0, k)
        if base.lam == -1.0 and j == 1:
            return SNB(-1.0, k)
        raise UnsupportedMappingError(
            f"SNB base needs lam=1 with rank=sample_size or lam=-1 with rank=1; {_SUPPORTED}"
        )
    raise UnsupportedMappingError(f"unsupported base {type(base).__name__}; {_SUPPORTED}")


def order_stat_pdf(base, n, j, x):
    """Classical order-statistic density built directly from the base.

    n!/((j-1)!(n-j)!) F^(j-1) (1-F)^(n-j) f, used as the brute-force
    equivalence oracle for every analytic mapping.
    """
    x = np.asarray(x, dtype=float)
    # n!/((j-1)!(n-j)!) = 1/B(j, n-j+1)
    coeff = np.exp(-log_beta(float(j), float(n - j + 1)))
    big_f = base.cdf(x)
    return coeff * big_f ** (j - 1) * (1.0 - big_f) ** (n - j) * base.pdf(x)


def mc_order_stat_ks(spec, trials, seed):
    """Simulate order statistics and KS-test them against the analytic law.

    Draws `trials` independent samples of size sample_size from the
    base, extracts the rank-th order statistic of each, and compares the
    empirical cdf with analytic_order_stat's cdf.  Deterministic per
    seed.
    """
    if trials < 10_000:
        raise ValueError("trials must be at least 10^4")
    target = analytic_order_stat(spec)
    n, j = int(spec.sample_size), int(spec.rank)
    draws = spec.base.sample(int(trials) * n, seed).reshape(int(trials), n)
    # partitioned in place, and only the rank column kept
    draws.partition(j - 1, axis=1)
    stats = draws[:, j - 1].copy()
    del draws
    return _ks_report(trials, ks_statistic(stats, target.cdf))


def mc_conditioning_ks(a, b, lam, n, m=0, trials=10_000, seed=0, max_proposals=100_000_000):
    """Verify the conditional-distribution laws by direct simulation.

    With m = 0: draws X ~ BSN(lam,a,b) plus n independent SN(lam)
    companions and keeps X when it beats their maximum; survivors follow
    BSN(lam, a+n, b) and the event has probability B(a+n,b)/B(a,b).
    With m >= 1: n-1 companions must fall below X and another m-1 above
    it; survivors follow BSN(lam, a+n-1, b+m-1) with event probability
    B(a+n-1, b+m-1)/B(a,b).  Keeps proposing until `trials` survivors
    are collected or max_proposals is exhausted (then raises with the
    achieved count).
    """
    if trials < 10_000:
        raise ValueError("trials must be at least 10^4")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("n must be a positive integer")
    if not (isinstance(m, (int, np.integer)) and m >= 0):
        raise ValueError("m must be a nonnegative integer")
    lam = float(lam)
    source = BetaSkewNormal(lam, a, b)
    companion = SkewNormal(0.0, 1.0, lam)
    if m == 0:
        lows, highs = int(n), 0
        target = BetaSkewNormal(lam, a + n, b)
    else:
        lows, highs = int(n) - 1, int(m) - 1
        target = BetaSkewNormal(lam, a + n - 1.0, b + m - 1.0)
    p_expected = float(np.exp(log_beta(target.a, target.b) - log_beta(a, b)))

    rng = np.random.default_rng(seed)
    survivors = []
    n_proposals = 0
    n_accepted = 0
    while n_accepted < trials:
        want = trials - n_accepted
        batch = int(want / max(p_expected, 1e-6) * 1.2) + 1000
        batch = min(batch, 2_000_000)
        if n_proposals + batch > max_proposals:
            batch = max_proposals - n_proposals
            if batch <= 0:
                raise RuntimeError(
                    f"proposal cap {max_proposals} exhausted with "
                    f"{n_accepted} of {trials} acceptances"
                )
        x = source.draw(rng, batch)
        mask = np.ones(batch, dtype=bool)
        if lows:
            below = companion.draw(rng, batch * lows).reshape(batch, lows)
            mask &= below.max(axis=1) <= x
        if highs:
            above = companion.draw(rng, batch * highs).reshape(batch, highs)
            mask &= above.min(axis=1) >= x
        acc = x[mask]
        survivors.append(acc)
        n_proposals += batch
        n_accepted += acc.size
    kept = np.concatenate(survivors)[:trials]
    report = _ks_report(trials, ks_statistic(kept, target.cdf))
    p_hat = n_accepted / n_proposals
    se = float(np.sqrt(p_expected * (1.0 - p_expected) / n_proposals))
    return ConditioningReport(
        ks=report,
        n_proposals=int(n_proposals),
        n_accepted=int(n_accepted),
        empirical_probability=float(p_hat),
        expected_probability=p_expected,
        within_3se=bool(abs(p_hat - p_expected) <= 3.0 * se),
    )


def log_concavity_order_stat_check(lam, n, j, tol=1e-8):
    """Second-difference log-concavity test for a skew-normal order statistic.

    The rank-j law of an SN(lam) sample of size n is BSN(lam, j, n-j+1);
    its log-density is checked for concavity on a [-8, 8] grid.
    """
    if not 1 <= j <= n:
        raise ValueError("rank j must lie in 1..n")
    dist = BetaSkewNormal(float(lam), float(j), float(n - j + 1))
    grid = np.linspace(-8.0, 8.0, 1601)
    lp = dist.logpdf(grid)
    second = lp[:-2] - 2.0 * lp[1:-1] + lp[2:]
    return bool(np.max(second) <= tol)
