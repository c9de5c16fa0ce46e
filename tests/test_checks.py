"""The check suites' relation table: NaN gaps fail, and every relation that
holds over a parameter range holds on hypothesis draws from it."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from betasn import BetaSkewNormal, checks
from betasn.checks import run_suite

ROWS = {row[0]: row for row in checks._SPECIAL_ROWS + checks._REDUCTION_ROWS + checks._WEIGHT_ROWS}

owen_args = st.floats(-6.0, 6.0)
sn_lams = st.floats(-50.0, 50.0)
kernel_lams = st.floats(-10.0, 10.0)
shapes = st.floats(math.log(0.05), math.log(10.0)).map(math.exp)
orders = st.integers(0, 3)
# orders n >= 1 of rows that read the order n - 1 or 2n - 1
pos_orders = st.integers(1, 4)

# row name -> strategy of its parameter tuple
DRAWS = {
    "owen t odd in second argument": st.tuples(owen_args, owen_args),
    "owen t even in first argument": st.tuples(owen_args, owen_args),
    "owen t at unit slope vs normal cdf product": st.tuples(owen_args, owen_args),
    "sn cdf reflection identity": st.tuples(sn_lams),
    "sn cdf opposite shapes sum identity": st.tuples(sn_lams),
    "sn density negation closure": st.tuples(sn_lams),
    "bsn with a=b=1 is skew-normal": st.tuples(sn_lams),
    "bsn with lam=0 is beta-normal": st.tuples(shapes, shapes),
    "bsn negation swaps shapes": st.tuples(sn_lams, shapes, shapes),
    "tbsn order (1,1) with one zero shape is skew-normal": st.tuples(kernel_lams),
    "tbsn equal shapes collapse to snb": st.tuples(orders, orders, kernel_lams),
    "tbsn equal shapes cdf spot check": st.tuples(orders, orders, kernel_lams),
    "tbsn single zero shape collapses to snb": st.tuples(orders, orders, kernel_lams),
    "tbsn opposite shapes give gbsn": st.tuples(orders, orders, kernel_lams),
    "tbsn opposite shapes cdf spot check": st.tuples(orders, orders, kernel_lams),
    "tbsn zero shapes or zero orders are standard normal": st.one_of(
        st.tuples(st.just(0.0), st.just(0.0), orders, orders),
        st.tuples(kernel_lams, kernel_lams, st.just(0), st.just(0)),
    ),
    "snb constants of order 0 and 1": st.tuples(kernel_lams),
    "snb constant of order 2 closed form": st.tuples(kernel_lams),
    "snb constants at lam=1 are n+1": st.tuples(orders),
    "snb cdf at lam=1 is a normal cdf power": st.tuples(orders),
    "gbsn constant at lam=1 matches order statistic coefficient": st.tuples(orders, orders),
    "gbsn constant alternating series agreement": st.tuples(orders, orders, kernel_lams),
    "tbsn kernel reduction to snb kernel": st.tuples(orders, orders, kernel_lams),
    "gb1 with p=q=1 is beta": st.tuples(shapes, shapes),
    "gb1 with a=q=1 is kumaraswamy": st.tuples(shapes, shapes),
    "bsn(1,n,1) equals tbsn order (2n-1,m) at shapes (1,0)": st.tuples(pos_orders, orders),
    "bsn(-1,1,m) equals tbsn order (n,2m-1) at shapes (0,-1)": st.tuples(pos_orders, orders),
    "bsn(0,n,m) equals tbsn order (n-1,m-1) at shapes (1,-1)": st.tuples(pos_orders, pos_orders),
    "skewing weight reproduces bsn density": st.tuples(sn_lams, shapes, shapes),
}
# rows that hold only at their lattice's points, or run on a fixed panel of laws
FIXED = {
    "sn cdf unit shape square identity",
    "bsn(0,1,1) is standard normal",
    "bsn(1,1/2,1) is standard normal",
    "bsn(-1,1,1/2) is standard normal",
    "skewing weight constant for lam=0,a=b=1",
    "cdf-quantile roundtrip across families",
    "cdf-quantile roundtrip at q=0.001, 0.999",
}


def test_every_row_is_drawn_or_fixed():
    assert set(DRAWS) | FIXED == set(ROWS)
    assert not set(DRAWS) & FIXED


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_relations_hold_on_draws(data):
    for name, strategy in DRAWS.items():
        _, threshold, pairs, _ = ROWS[name]
        params = data.draw(strategy, label=name)
        assert checks._gap(pairs(*params)) <= threshold, (name, params)


def test_nan_gap_fails_its_check(monkeypatch):
    pdf = BetaSkewNormal.pdf

    def pdf_with_nan_at_zero(self, x):
        out = np.array(pdf(self, x), dtype=float)
        if (self.lam, self.a, self.b) == (0.7, 1.0, 1.0):
            out[np.asarray(x) == 0.0] = np.nan
        return out

    monkeypatch.setattr(BetaSkewNormal, "pdf", pdf_with_nan_at_zero)
    report = run_suite("identities")
    check = next(c for c in report["checks"] if c["name"] == "bsn with a=b=1 is skew-normal")
    assert math.isnan(check["value"])
    assert not check["pass"]
