"""Large calls run in bounded blocks (core._blocked) and give the values of small ones."""

import tracemalloc

import numpy as np
import pytest

from betasn import Beta, BetaNormal, BetaSkewNormal, SkewNormal, SNB
from betasn.betafamily import _BetaGenerated
from betasn.bsn import sample_rejection
from betasn.core import _BLOCK, Distribution, _blocked

LAWS = {
    "sn(3)": SkewNormal(0.0, 1.0, 3.0),
    "bsn(5,0.05,0.05)": BetaSkewNormal(5.0, 0.05, 0.05),
    "snb(1,3)": SNB(1.0, 3),
    "bn(0.5,2)": BetaNormal(0.5, 2.0),
    "beta(2,3)": Beta(2.0, 3.0),
}


def _points(dist, n, seed):
    """n shuffled x over the law's range out to tail masses 1e-12, and n q with both tails log-uniform."""
    rng = np.random.default_rng(seed)
    lo, hi = dist.quantile([1e-12, 1.0 - 1e-12])
    x = rng.permutation(np.linspace(lo, hi, n))
    t = np.exp(rng.uniform(np.log(1e-12), np.log(0.5), n))
    return x, np.where(rng.random(n) < 0.5, t, 1.0 - t)


def test_blocked_cuts_near_equal_slices():
    sizes = []

    def record(s):
        sizes.append(s.size)
        return 2.0 * s

    flat = np.arange(3 * _BLOCK + 17, dtype=float)
    assert np.array_equal(_blocked(record, flat), 2.0 * flat)
    assert len(sizes) == 4 and sum(sizes) == flat.size
    assert max(sizes) <= _BLOCK and max(sizes) - min(sizes) <= 1
    sizes.clear()
    _blocked(record, flat[: _BLOCK + 1])
    assert sorted(sizes) == [_BLOCK // 2, _BLOCK // 2 + 1]
    sizes.clear()
    _blocked(record, flat[:_BLOCK])
    assert sizes == [_BLOCK]


@pytest.mark.parametrize("label", LAWS)
def test_scratch_per_point_is_bounded(label):
    # the traced peak of a 2e5-point call, its output included, in doubles
    # per point; unsplit, the (20, n) blocks of the skew-normal tail rules
    # and the solvers' per-call arrays held 13-36 of them
    dist, n = LAWS[label], 200_000
    x, q = _points(dist, n, 5)
    ops = {
        "cdf": lambda: dist.cdf(x),
        "logpdf": lambda: dist.logpdf(x),
        "quantile": lambda: dist.quantile(q),
        "sample": lambda: dist.sample(n, 9),
    }
    # first calls build the law's tables, which are not per-point scratch
    dist.cdf(x[:100]), dist.logpdf(x[:100]), dist.quantile(q[:100]), dist.sample(100, 9)
    peaks = {}
    for name, op in ops.items():
        tracemalloc.start()
        try:
            op()
            peaks[name] = tracemalloc.get_traced_memory()[1] / (8.0 * n)
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= 8.0, peaks


@pytest.mark.parametrize("label", ["sn(3)", "bsn(5,0.05,0.05)", "snb(1,3)", "bn(0.5,2)"])
def test_split_call_gives_the_values_of_small_calls(label):
    dist, n = LAWS[label], 2 * _BLOCK + 3
    x, q = _points(dist, n, 11)
    # the first and last points of each of the call's three slices, and a spread of others
    edges = [n * k // 3 for k in range(4)]
    picks = np.unique(np.r_[edges[:-1], np.subtract(edges[1:], 1), np.random.default_rng(2).choice(n, 40)])
    for name in ("cdf", "sf", "logcdf", "logpdf", "quantile"):
        op = getattr(dist, name)
        args = q if name == "quantile" else x
        whole = op(args)
        for i in picks:
            pair = op(np.array([args[i], args[i]]))
            assert whole[i].tobytes() == pair[0].tobytes(), (name, i, whole[i], pair[0])


def test_skew_normal_draw_is_the_conditioning_representation():
    xi, psi, lam, n = 0.5, 2.0, -3.0, _BLOCK + 1
    draw = SkewNormal(xi, psi, lam).draw(np.random.default_rng(4), n)
    twin = np.random.default_rng(4)
    u, v = twin.standard_normal(n), twin.standard_normal(n)
    delta = lam / np.sqrt(1.0 + lam * lam)
    assert draw.tobytes() == (xi + psi * (delta * np.abs(u) + np.sqrt(1.0 - delta * delta) * v)).tobytes()


@pytest.mark.parametrize("label", LAWS)
def test_draws_hold_one_double_per_point_plus_a_block(label):
    # the traced peak of a 2e5-point sample, in doubles per point: the
    # quantile transform and the skew-normal hold the output and one block
    # of scratch; a beta-generated draw also holds its two gammas' logs
    # while it forms the latent
    dist, n = LAWS[label], 200_000
    bound = 4.5 if isinstance(dist, _BetaGenerated) else 2.5
    dist.sample(100, 9)
    tracemalloc.start()
    try:
        dist.sample(n, 9)
        peak = tracemalloc.get_traced_memory()[1] / (8.0 * n)
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


def test_rejection_batches_are_not_held_whole():
    # a 40000-value batch draws 1.25M skew-normals, 10 MB each of U and V
    # if drawn whole; the values alone are 0.32 MB
    sample_rejection(1.0, 5, 100, 3)
    tracemalloc.start()
    try:
        sample_rejection(1.0, 5, 40_000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6, peak


def _rejection_reference(lam, n, count, seed):
    """sample_rejection with each batch drawn whole, all its U and then all its V; and the batches run."""
    base = SkewNormal(0.0, 1.0, lam)
    rng = np.random.default_rng(seed)
    chunks, accepted, n_trials = [], 0, 0
    while accepted < count:
        trials = min(int((count - accepted) * n * 1.25) + 32, 4_000_000 // n + 1)
        draws = base.draw(rng, trials * n).reshape(trials, n)
        t = draws[:, 0]
        acc = t if n == 1 else t[t >= draws[:, 1:].max(axis=1)]
        chunks.append(acc)
        accepted += acc.size
        n_trials += trials
    return np.concatenate(chunks)[:count], n_trials, accepted, len(chunks)


# (lam, n_param, count, seed, batches); seed 253's first batch of 94
# trials accepts fewer than 10 values, so a second batch runs
@pytest.mark.parametrize(
    "case", [(1.0, 5, 40_000, 3, 1), (-2.0, 1, 3 * _BLOCK + 5, 4, 1), (1.0, 5, 10, 253, 2)]
)
def test_streamed_rejection_batches_match_whole_batches(case):
    *args, batches = case
    values, n_trials, n_accepted, ran = _rejection_reference(*args)
    assert ran == batches
    batch = sample_rejection(*args)
    assert batch.values.tobytes() == values.tobytes()
    assert (batch.n_trials, batch.n_accepted) == (n_trials, n_accepted)


@pytest.mark.parametrize("label", ["snb(1,3)", "beta(2,3)"])
def test_sliced_quantile_transform_is_the_whole_call(label):
    dist, n = LAWS[label], 2 * _BLOCK + 3
    u = np.random.default_rng(8).random(n)
    whole = dist.quantile(np.clip(u, 1e-300, None))
    assert Distribution.draw(dist, np.random.default_rng(8), n).tobytes() == whole.tobytes()
