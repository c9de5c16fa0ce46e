"""How a run orders its work: whole passes, and extras spread over the run."""

import pytest

import run


def test_spread_out_interleaves_groups_evenly():
    order = run.spread_out([["s"] * 2, ["b"] * 4])
    assert order == ["b", "s", "b", "b", "s", "b"]


def test_passes_finish_once_per_pass_with_all_records():
    seen = []
    counter = iter(range(100))
    passes = run.Passes([lambda: next(counter)] * 3, lambda records: seen.append(records))
    for _ in range(7):
        passes.step()
    assert seen == [[0, 1, 2], [3, 4, 5]]
    assert passes.done == 2 and passes.mid_pass
    passes.run_pass()
    assert seen[-1] == [6, 7, 8] and not passes.mid_pass


def test_interleave_runs_every_extra_and_ends_on_a_pass_boundary():
    extras_done = []
    passes = run.Passes([lambda: None] * 2, lambda records: None)
    run.interleave(passes, [lambda i=i: extras_done.append(i) for i in range(3)], seconds=0.0)
    assert extras_done == [0, 1, 2]
    assert passes.done >= 2 and not passes.mid_pass


def test_speed_factor_uses_two_references_on_each_side_of_a_window():
    speed = run.Speed()
    speed.stamps = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    speed.times = [r * run.REFERENCE_S for r in (8.0, 1.0, 2.0, 4.0, 1.0, 8.0)]
    # between the samples at 2 and 3: those at 1, 2, 3 and 4
    assert speed.factor((2.2, 2.8)) == pytest.approx(1.0 / 1.5)
    # before the first sample: those at 0 and 1
    assert speed.factor((-1.0, -0.5)) == pytest.approx(1.0 / 4.5)
    # after the last sample: those at 4 and 5
    assert speed.factor((6.0, 7.0)) == pytest.approx(1.0 / 4.5)
