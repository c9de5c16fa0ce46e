"""The workloads' inputs depend on the seed and on nothing else."""

import numpy as np

import workloads as W


def _bulk_arrays(seed):
    return [
        (item.label, item.x_density, item.x_cdf, item.q, item.sample_seed)
        for item in W.bulk_inputs(seed)
    ]


def test_bulk_inputs_repeat_for_a_seed():
    for (la, *a), (lb, *b) in zip(_bulk_arrays(3), _bulk_arrays(3)):
        assert la == lb
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)


def test_bulk_inputs_change_with_the_seed():
    a, b = _bulk_arrays(3), _bulk_arrays(4)
    assert not np.array_equal(a[0][3], b[0][3])


def test_quantile_inputs_reach_both_tails():
    q = np.concatenate([item.q for item in W.bulk_inputs(5)])
    assert np.all((q > 0.0) & (q < 1.0))
    assert q.min() < 1e-11 and 1.0 - q.max() < 1e-11
    assert np.min(np.minimum(q, 1.0 - q)) >= W.Q_FLOOR * (1.0 - 1e-12)


def test_moment_tasks_repeat_for_a_seed_and_change_with_it():
    labels = lambda seed: [(t.label, t.kind) for t in W.moment_tasks(seed)]  # noqa: E731
    assert labels(11) == labels(11)
    assert labels(11) != labels(12)


def test_moment_tasks_cover_every_group_and_kind():
    tasks = W.moment_tasks(1)
    groups = {t.group for t in tasks}
    assert groups == {"bsn", "sn", "snb", "tbsn", "Beta", "Kumaraswamy", "GB1", "bhn"}
    assert {t.kind for t in tasks} == {"moments", "mgf", "normalization"}
