"""
Reproducible sampling and goodness of fit
=========================================

Draws from each family's own sampler and from the acceptance-rejection
sampler, then K-S tests each stream against the exact cdf.  The
skew-normal draws delta |U| + sqrt(1 - delta^2) V from two normals; a
beta skew-normal draw is the construction itself, one skew-normal
quantile of a Beta(a, b) latent drawn from two gammas.  Everything is
seeded, so the numbers printed here never change.
"""

import numpy as np

from betasn import (
    KS_COEFF_01,
    BetaSkewNormal,
    SkewNormal,
    ks_statistic,
    sample_rejection,
)

N = 50_000
critical = KS_COEFF_01 / np.sqrt(N)
print(f"n = {N}, KS critical value at level 0.01: {critical:.5f}\n")

# the library's own draw, for any parameter combination
for seed, dist in ((7, SkewNormal(0.0, 1.0, 2.0)),
                   (8, BetaSkewNormal(1.0, 2.0, 3.0)),
                   (9, BetaSkewNormal(-2.0, 0.5, 0.7))):
    values = dist.sample(N, seed)
    stat = ks_statistic(values, dist.cdf)
    verdict = "pass" if stat < critical else "FAIL"
    print(f"draw     {type(dist).__name__:16} KS = {stat:.5f}  {verdict}")

# rejection targets integer a with b = 1: accept the proposal when it
# beats a - 1 independent companions, so the acceptance rate is 1/a
batch = sample_rejection(1.0, 5, N, seed=7)
target = BetaSkewNormal(1.0, 5.0, 1.0)
stat = ks_statistic(batch.values, target.cdf)
rate = batch.n_accepted / batch.n_trials
print(f"\nrejection bsn(1,5,1)        KS = {stat:.5f}  "
      f"{'pass' if stat < critical else 'FAIL'}")
print(f"  trials {batch.n_trials}, accepted {batch.n_accepted}, "
      f"rate {rate:.4f} (expected {1 / 5:.4f})")

# same seed, same draws
again = sample_rejection(1.0, 5, N, seed=7)
print(f"  deterministic per seed: {np.array_equal(batch.values, again.values)}")
