"""Segment lookups of the quantile starts and table reads against np.searchsorted.

Every start table (skew-normal, beta-generated, and both sides of the
table families') and the table edges find a key's segment without a
binary search; each must return, bit for bit, what
np.clip(np.searchsorted(nodes, keys, side) - 1, 0, n - 2) returns.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betasn import GBSN, SNB, TBSN, BetaNormal, BetaSkewNormal, SkewNormal, balakrishnan, betafamily, skewnormal
from betasn.special import _BUCKETS_PER_NODE, _V_HALF

SN_LAMS = (-50.0, -0.7, 0.05, 3.0, 50.0, 1e6)
# the bulk panel's beta-generated laws; each upper side reads its mirror's lower table
BG_LAWS = (
    BetaSkewNormal(1.0, 2.0, 3.0),
    BetaSkewNormal(50.0, 0.05, 2.0),
    BetaSkewNormal(-50.0, 3.0, 0.05),
    BetaSkewNormal(-10.0, 0.3, 0.7),
    BetaSkewNormal(5.0, 0.05, 0.05),
    BetaNormal(0.5, 2.0),
)
TABLE_LAWS = (SNB(1.0, 3), GBSN(2.0, 4, 1), TBSN(5.0, -0.5, 3, 2))


@lru_cache(maxsize=None)
def indexes():
    """(label, nodes, side, index) of every guide-table index."""
    out = [(f"sn({lam})", *_hermite(skewnormal._start_table(lam))) for lam in SN_LAMS]
    for law in BG_LAWS:
        for side_law in (law, law._mirror()):
            out.append((f"bg {side_law!r}", *_hermite(betafamily._solve_table(side_law, False))))
    for law in TABLE_LAWS:
        table = balakrishnan._kernel_table(*law._key)
        for upper in (False, True):
            out.append((f"starts {law!r} upper={upper}", *_hermite(table._starts[upper])))
        out.append((f"edges {law!r}", table.edges, "right", table._edge_index))
    return tuple(out)


def _hermite(table):
    return table.v, "left", table.index


def _keys(nodes, fractions, picks):
    """Exact nodes, points between them, points past both ends, +-inf and NaN."""
    span = nodes[-1] - nodes[0]
    k = np.asarray(picks) % (nodes.size - 1)
    f = np.asarray(fractions)
    return np.concatenate([
        nodes[k],
        nodes[k] + np.resize(f, k.size) * (nodes[k + 1] - nodes[k]),
        nodes[0] - span * f, nodes[-1] + span * f,
        nodes[[0, -1]], [np.nextafter(nodes[0], -np.inf), np.nextafter(nodes[-1], np.inf)],
        [-np.inf, np.inf, np.nan],
    ])


def _searched(nodes, keys, side):
    return np.clip(np.searchsorted(nodes, keys, side) - 1, 0, nodes.size - 2)


fractions = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)
picks = st.lists(st.integers(0, 10**6), min_size=1, max_size=40)


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(fractions=fractions, picks=picks, seed=st.integers(0, 2**32 - 1))
def test_index_matches_searchsorted(fractions, picks, seed):
    rng = np.random.default_rng(seed)
    for label, nodes, side, index in indexes():
        keys = rng.permutation(_keys(nodes, fractions, picks))
        found = index.find(keys)
        assert found.dtype == np.intp
        assert np.array_equal(found, _searched(nodes, keys, side)), label


def test_every_index_array_is_read_only_and_small():
    for label, nodes, _, index in indexes():
        assert index.guess.dtype == np.int32, label
        assert index.guess.size <= _BUCKETS_PER_NODE * nodes.size, label
        for array in (index.guess, index.ahead):
            assert not array.flags.writeable, label
        if not label.startswith("edges"):
            # starts read at v <= v(1/2), and a segment's bracket one node past it
            assert np.count_nonzero(nodes > _V_HALF) <= 2, label
    table = skewnormal._start_table(3.0)
    assert not any(a.flags.writeable for a in (table.v, table.z, table.lo, table.hi, table.cubic))


@pytest.mark.parametrize(
    "dist", [SkewNormal(0.0, 1.0, 3.0), BetaSkewNormal(1.0, 2.0, 3.0), SNB(1.0, 3)], ids=repr
)
def test_quantile_does_not_depend_on_point_order(dist):
    # the walks shrink over the points still off; no point may see another
    rng = np.random.default_rng(19)
    t = np.exp(rng.uniform(np.log(1e-12), np.log(0.5), 400))
    q = np.concatenate([t, 1.0 - t[:200]])
    perm = rng.permutation(q.size)
    assert np.array_equal(dist.quantile(q[perm]), dist.quantile(q)[perm])
