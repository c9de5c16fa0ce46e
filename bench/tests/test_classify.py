"""Which outputs count as failed operations, and which defect class they fall in."""

import json

import numpy as np

import betasn
import workloads as W


def _one(label, dist, q, upper=None):
    x = np.linspace(-3.0, 3.0, 5)
    q = np.asarray(q, dtype=float)
    upper = np.zeros(q.shape, dtype=bool) if upper is None else np.asarray(upper)
    return W.BulkInput(label, dist, x, x, q, upper, 1)


def _outputs(item):
    d = item.dist
    res = {
        "pdf": d.pdf(item.x_density),
        "logpdf": d.logpdf(item.x_density),
        "cdf": d.cdf(item.x_cdf),
        "quantile": d.quantile(item.q),
        "sample": d.sample(50, item.sample_seed),
    }
    if hasattr(d, "sf"):
        res["sf"] = d.sf(item.x_cdf)
    return res


def test_correct_roundtrip_is_not_a_failure():
    item = _one("sn(3)", betasn.SkewNormal(0.0, 1.0, 3.0), [1e-6, 0.2, 0.9])
    tally = W.check_bulk([item], [_outputs(item)])
    assert tally.failed == 0
    assert tally.attempted == 5 * 4 + 3 + 50


def test_planted_wrong_roundtrip_counts_as_unexpected_failure():
    item = _one("sn(3)", betasn.SkewNormal(0.0, 1.0, 3.0), [1e-6, 0.2, 0.9])
    res = _outputs(item)
    res["quantile"] = res["quantile"].copy()
    res["quantile"][1] += 1e-6
    tally = W.check_bulk([item], [res])
    assert tally.failed == 1
    assert tally.by_class == {"unexpected": 1}


def test_decreasing_cdf_and_nan_density_fail():
    item = _one("sn(3)", betasn.SkewNormal(0.0, 1.0, 3.0), [0.5])
    res = _outputs(item)
    res["cdf"] = res["cdf"][::-1].copy()
    res["pdf"] = res["pdf"].copy()
    res["pdf"][0] = np.nan
    tally = W.check_bulk([item], [res])
    assert tally.failed == 1 + 4  # one NaN density, four steps down
    assert tally.by_class == {"unexpected": 5}


def test_table_backed_far_tail_miss_is_the_known_defect():
    item = _one("snb(1,3)", betasn.SNB(1.0, 3), [0.3])
    res = _outputs(item)
    res["quantile"] = res["quantile"] + 0.5
    tally = W.check_bulk([item], [res])
    assert tally.by_class == {"unexpected": 1}
    item = _one("snb(1,3)", betasn.SNB(1.0, 3), [1e-12])
    res = _outputs(item)
    res["quantile"] = res["quantile"] + 0.5
    tally = W.check_bulk([item], [res])
    assert tally.by_class == {"table_tail": 1}
    res["quantile"][:] = np.nan
    assert W.check_bulk([item], [res]).by_class == {"unexpected": 1}


def test_upper_tail_is_checked_on_the_survival_side():
    dist = betasn.BetaSkewNormal(1.0, 2.0, 3.0)
    item = _one("bsn(1,2,3)", dist, [1.0 - 1e-11], upper=[True])
    res = _outputs(item)
    assert W.check_bulk([item], [res]).failed == 0
    # off by 1e-9 relative in the tail, but by 1e-20 relative to q ~ 1
    x = res["quantile"][0]
    res["quantile"] = np.array([x + 1e-9 * dist.sf(x) / dist.pdf(x)])
    assert W.check_bulk([item], [res]).by_class == {"unexpected": 1}


def test_sn_upper_tail_miss_of_one_ulp_is_the_known_defect():
    dist = betasn.SkewNormal(0.0, 1.0, 3.0)
    item = _one("sn(3)", dist, [1.0 - 1e-11], upper=[True])
    res = _outputs(item)
    rel, miss = W.roundtrip(dist, item.q, item.upper, res["quantile"])
    assert rel[0] > W.ROUNDTRIP_RTOL and miss[0] < 2.3e-16
    assert W.check_bulk([item], [res]).by_class == {"sn_upper_tail": 1}
    x = res["quantile"][0]
    res["quantile"] = np.array([x + 1e-3 * dist.sf(x) / dist.pdf(x)])
    assert W.check_bulk([item], [res]).by_class == {"unexpected": 1}


def test_unit_endpoint_defect_is_classified():
    task = W.Task("beta(2,0.4)", "Beta", "moments", betasn.Beta(2.0, 0.4), W._beta_raw_moments(2.0, 0.4))
    _, problem, miss = W.run_task(task)
    assert problem == "raised IntegrationError"
    assert W.task_class(task, problem, miss) == "unit_endpoint"
    assert W.task_class(task, "raised TypeError", None) is None
    task = W.Task("beta(2,3)", "Beta", "moments", betasn.Beta(2.0, 3.0), W._beta_raw_moments(2.0, 3.0))
    assert W.run_task(task)[1] is None


def test_heavy_tail_class_takes_only_small_normalization_misses():
    task = W.Task("bsn", "bsn", "normalization", betasn.BetaSkewNormal(1.0, 0.05, 2.0))
    assert W.task_class(task, "normalization error 1e-06", 1e-6) == "heavy_tail_truncation"
    assert W.task_class(task, "normalization error 0.5", 0.5) is None
    assert W.task_class(task, "non-finite result", None) is None
    moments = W.Task("bsn", "bsn", "moments", task.dist)
    assert W.task_class(moments, "closed form missed by 1e-06 relative", 1e-6) is None


def test_sn_accuracy_class_is_limited_to_the_observed_shapes():
    task = W.Task("sn", "sn", "moments", betasn.BetaSkewNormal(-37.0, 1.0, 1.0))
    assert W.task_class(task, "closed form missed", 1.9e-9) == "quadrature_accuracy"
    assert W.task_class(task, "closed form missed", 1e-7) is None
    other = W.Task("sn", "sn", "moments", betasn.BetaSkewNormal(20.0, 1.0, 1.0))
    assert W.task_class(other, "closed form missed", 1.9e-9) is None


def test_counts_above_the_record_are_reported():
    record = W.KNOWN["counts_at_seed"]["1"]["moment"]
    tally = W.Tally()
    tally.add(1, [("grid_rows", "row")] * (record["grid_rows"] + 1))
    assert len(W.above_record(1, {"moment": tally})) == 1
    fewer = W.Tally()
    fewer.add(1, [("grid_rows", "row")])
    assert W.above_record(1, {"moment": fewer}) == []
    assert W.above_record(10**9, {"moment": tally}) == []


def test_large_closed_form_miss_is_unexpected():
    task = W.Task("sn", "sn", "moments", betasn.BetaSkewNormal(1.0, 1.0, 1.0), np.array([1.0, 1.0, 1.0, 1.0]))
    _, problem, miss = W.run_task(task)
    assert problem is not None and miss > 1e-3
    assert W.task_class(task, problem, miss) is None


class _Child:
    def __init__(self, code, report):
        self.code = code
        self.stdout = json.dumps(report).encode()
        self.stderr = b""


def _report(failed_names, value=2.0):
    checks = [{"name": f"check {i}", "value": 0.5, "threshold": 1.0, "pass": True} for i in range(W.CHECK_COUNT - len(failed_names))]
    checks += [{"name": n, "value": value, "threshold": 1.0, "pass": False} for n in failed_names]
    return {"n_checks": len(checks), "checks": checks}


def test_check_report_sorts_failed_checks():
    known = W.KNOWN["grid_rows"]["check_names"][:2]
    tally = W.check_report(_Child(1, _report(known + ["something new"])))
    assert tally.attempted == W.CHECK_COUNT
    assert tally.by_class == {"grid_rows": 2, "unexpected": 1}


def test_statistical_failure_is_chance_only_when_barely_above_its_threshold():
    names = ["ks bsn rejection sampler", "rejection acceptance rate z-score"]
    assert W.check_report(_Child(1, _report(names, value=1.1))).by_class == {"chance_level": 2}
    assert W.check_report(_Child(1, _report(names[:1], value=3.0))).by_class == {"unexpected": 1}
    three = names + ["conditioning below-only ks"]
    assert W.check_report(_Child(1, _report(three, value=1.1))).by_class == {"unexpected": 3}


def test_check_report_rejects_a_broken_run():
    for child in (_Child(3, _report([])), _Child(0, {"n_checks": 1, "checks": []})):
        try:
            W.check_report(child)
        except ValueError:
            continue
        raise AssertionError("broken check all run was accepted")
