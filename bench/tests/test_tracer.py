"""Span self-time arithmetic and the outside-in wrappers."""

import numpy as np
import pytest

import betasn
import tracer
from tracer import Tracer, finish, self_times


def test_nested_spans_subtract_only_direct_children():
    # root [0,10] > child [1,4] > grandchild [2,3]
    own = self_times([-1, 0, 1], [0.0, 1.0, 2.0], [10.0, 4.0, 3.0])
    assert own == pytest.approx([7.0, 2.0, 1.0])


def test_sibling_spans_both_count():
    own = self_times([-1, 0, 0], [0.0, 1.0, 5.0], [10.0, 3.0, 8.0])
    assert own == pytest.approx([5.0, 2.0, 3.0])


def test_overlapping_children_are_covered_once():
    own = self_times([-1, 0, 0], [0.0, 1.0, 4.0], [10.0, 5.0, 6.0])
    assert own[0] == pytest.approx(5.0)


def test_children_are_clipped_to_their_parent():
    own = self_times([-1, 0], [0.0, 8.0], [10.0, 12.0])
    assert own[0] == pytest.approx(8.0)


def test_separate_roots_are_independent():
    own = self_times([-1, -1, 1], [0.0, 5.0, 6.0], [4.0, 9.0, 7.0])
    assert own == pytest.approx([4.0, 3.0, 1.0])


def test_install_wraps_every_binding_and_restore_undoes_it():
    original = betasn.special.owen_t
    with Tracer():
        wrapped = betasn.skewnormal.owen_t
        assert wrapped is not original
        assert betasn.special.owen_t is wrapped
        assert betasn.checks.owen_t is wrapped
        assert betasn.owen_t is wrapped
    assert betasn.skewnormal.owen_t is original
    assert betasn.owen_t is original
    assert betasn.SkewNormal.quantile.__qualname__ == "SkewNormal.quantile"
    assert not hasattr(betasn.SkewNormal.quantile, "__wrapped__")


def test_traced_results_equal_untraced_results():
    q = np.array([1e-9, 0.3, 0.97])
    dist = betasn.BetaSkewNormal(2.0, 0.5, 3.0)
    plain = dist.quantile(q)
    with Tracer():
        traced = dist.quantile(q)
    np.testing.assert_array_equal(plain, traced)


def test_counts_attribute_work_to_the_enclosing_call():
    tr = Tracer()
    with tr:
        betasn.SkewNormal(0.0, 1.0, 3.0).quantile(np.array([0.01, 0.5, 0.99]))
        betasn.SkewNormal(0.0, 1.0, 3.0).cdf(np.linspace(-7.0, 3.0, 11))
    metrics = finish(tr.totals())
    assert 0.0 < metrics["skewnormal.quantile.owen_t_per_pt"] <= 90.0
    assert metrics["skewnormal.cdf.logcdf_per_pt"] > 0.0
    assert metrics["special.owen_t.points"] > 0.0
    assert metrics["skewnormal.self_s"] > 0.0
    assert metrics["checks.self_s"] == 0.0


def test_integrand_batches_and_nodes_are_counted():
    tr = Tracer()
    with tr:
        betasn.integrate_line(lambda x: np.exp(-0.5 * x * x))
    raw = tr.totals()
    assert raw["quadrature.calls"] == 1
    assert raw["quadrature.nodes"] == 15 * (8 + 2 * (raw["quadrature.batches"] - 1))


def test_per_layer_metric_names_follow_the_layers():
    for name in tracer.PER_LAYER:
        assert name.split(".")[0] in tracer.LAYERS + ("trace",)
