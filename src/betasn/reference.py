"""Reference moment grid for the Beta skew-normal family.

Fifty published (a, b, lambda) parameter combinations with their
reported mean, standard deviation, skewness, and non-excess kurtosis,
plus the machinery to recompute every row by quadrature and compare.
compare_grid recomputes all fifty in one adaptive pass: 200 components,
the raw moments of orders 1-4 of each row, each to its own tolerance,
with one skew-normal tail read per distinct |lambda| per batch of nodes.

The published values are themselves numerical output, and 39 of the 200
cells are off by more than the row tolerance (1e-3 when both shapes are
>= 1, else 5e-3).  Two routes that share no code with this package show
it (tests/moment_oracle.py): a float64 Gauss-Legendre panel route on
every row, and a 30-digit mpmath tanh-sinh route on the closed-form
rows lam in {-1, 0, 1}.  They agree with each other to about 1e-15 and
with the moment engine to 5e-10.  The oracle's values for those 39
cells, rounded to 4 decimals, are kept in RECORDED_VALUES beside the
published table, which is left as printed.  Every cell is asserted at
the row tolerance: against its recorded value where there is one, and
against the published value everywhere else.  The deviation from the
published value is always reported.

The published digits also carry a self-consistency check: reflecting
(a, b, lambda) to (b, a, -lambda) must flip the signs of the mean and
skewness and preserve the sd and kurtosis exactly.  Cells whose printed
digits violate that symmetry by more than _MIRROR_TOL (32 cells) are
listed by excluded_cells() and reported; they are asserted like every
other cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .bsn import BetaSkewNormal, _logpdf_rows
from .core import _summary
from .quadrature import integrate_line

__all__ = ["REFERENCE_MOMENT_GRID", "row_tolerance", "excluded_cells", "compare_grid"]

FIELDS = ("mean", "sd", "skewness", "kurtosis")
# the raw-moment orders behind FIELDS
_ORDERS = (1, 2, 3, 4)
_MIRROR_TOL = 2e-3
# signs under (a,b,lam) -> (b,a,-lam): mean and skewness flip
_MIRROR_SIGN = {"mean": -1.0, "sd": 1.0, "skewness": -1.0, "kurtosis": 1.0}


@dataclass(frozen=True)
class ReferenceRow:
    a: float
    b: float
    lam: float
    mean: float
    sd: float
    skewness: float
    kurtosis: float


REFERENCE_MOMENT_GRID = (
    ReferenceRow(0.25, 0.25, -10.0, -1.1579, 1.4029, -1.1329, 3.7648),
    ReferenceRow(0.25, 0.25, -1.0, -0.6501, 1.9679, -0.2378, 2.7777),
    ReferenceRow(0.25, 0.25, 0.0, 0.0, 2.3382, -0.0004, 2.6217),
    ReferenceRow(0.25, 0.25, 1.0, 0.6484, 1.9649, 0.2306, 2.1362),
    ReferenceRow(0.25, 0.25, 10.0, 1.1580, 1.4027, 1.1329, 3.7632),
    ReferenceRow(0.25, 0.5, -10.0, -1.5906, 1.3469, -0.7185, 2.7580),
    ReferenceRow(0.25, 0.5, -1.0, -1.4424, 1.6716, -0.3284, 3.0202),
    ReferenceRow(0.25, 0.5, 0.0, -0.9631, 1.9061, -0.0849, 2.8029),
    ReferenceRow(0.25, 0.5, 1.0, -0.1772, 1.5265, 0.0938, 2.8543),
    ReferenceRow(0.25, 0.5, 10.0, 0.5446, 0.8728, 1.5054, 5.1988),
    ReferenceRow(0.5, 0.25, -10.0, -0.5447, 0.8727, -1.5061, 5.2003),
    ReferenceRow(0.5, 0.25, -1.0, 0.1773, 1.5265, -0.0938, 2.8541),
    ReferenceRow(0.5, 0.25, 0.0, 0.9625, 1.9051, 0.0819, 2.7927),
    ReferenceRow(0.5, 0.25, 1.0, 1.4411, 1.6694, 0.3203, 2.9849),
    ReferenceRow(0.5, 0.25, 10.0, 1.6339, 1.3974, 0.8434, 3.2655),
    ReferenceRow(0.5, 0.5, -10.0, -0.8979, 0.8874, -0.9703, 3.3176),
    ReferenceRow(0.5, 0.5, -1.0, -0.5882, 1.2659, -0.1811, 2.9514),
    ReferenceRow(0.5, 0.5, 0.0, 0.0, 1.5253, 0.0, 2.8615),
    ReferenceRow(0.5, 0.5, 1.0, 0.5882, 1.2659, 0.1811, 2.9514),
    ReferenceRow(0.5, 0.5, 10.0, 0.9179, 0.9153, 1.0703, 3.7747),
    ReferenceRow(0.5, 1.0, -10.0, -1.3018, 0.9148, -0.8262, 3.4815),
    ReferenceRow(0.5, 1.0, -1.0, -1.1664, 1.0704, -0.3085, 3.1159),
    ReferenceRow(0.5, 1.0, 0.0, -0.7043, 1.2479, -0.1372, 2.9831),
    ReferenceRow(0.5, 1.0, 1.0, 0.0, 0.9999, 0.0, 2.9999),
    ReferenceRow(0.5, 1.0, 10.0, 0.4873, 0.5778, 1.3199, 4.8561),
    ReferenceRow(0.5, 10.0, -10.0, -2.3678, 0.7314, -0.7505, 3.7967),
    ReferenceRow(0.5, 10.0, -1.0, -2.3617, 0.7389, -0.7188, 3.7849),
    ReferenceRow(0.5, 10.0, 0.0, -2.0809, 0.8033, -0.6173, 3.5736),
    ReferenceRow(0.5, 10.0, 1.0, -1.0893, 0.6117, -0.5642, 3.4799),
    ReferenceRow(0.5, 10.0, 10.0, -0.0182, 0.1429, 0.3706, 3.8635),
    ReferenceRow(1.0, 0.5, -10.0, -0.4873, 0.5777, -1.3200, 4.8570),
    ReferenceRow(1.0, 0.5, -1.0, 0.0, 1.0, 0.0, 3.0),
    ReferenceRow(1.0, 0.5, 0.0, 0.7043, 1.2479, 0.1372, 2.9831),
    ReferenceRow(1.0, 0.5, 1.0, 1.1664, 1.0704, 0.3086, 3.1161),
    ReferenceRow(1.0, 0.5, 10.0, 1.3018, 0.9148, 0.8262, 3.4814),
    ReferenceRow(1.0, 1.0, -10.0, -0.7939, 0.6080, -0.9556, 3.8232),
    ReferenceRow(1.0, 1.0, -1.0, -0.5642, 0.8256, -0.1369, 3.0617),
    ReferenceRow(1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 3.0),
    ReferenceRow(1.0, 1.0, 1.0, 0.5642, 0.8256, 0.1369, 3.0617),
    ReferenceRow(1.0, 1.0, 10.0, 0.7939, 0.6080, 0.9556, 3.8232),
    ReferenceRow(10.0, 1.0, -10.0, -0.0839, 0.1364, -0.7082, 4.2018),
    ReferenceRow(10.0, 1.0, -1.0, 0.6744, 0.4536, 0.3597, 3.2722),
    ReferenceRow(10.0, 1.0, 0.0, 1.5388, 0.5868, 0.4099, 3.3314),
    ReferenceRow(10.0, 1.0, 1.0, 1.8675, 0.5251, 0.5005, 3.4685),
    ReferenceRow(10.0, 1.0, 10.0, 1.8807, 0.5124, 0.5744, 3.5243),
    ReferenceRow(1.0, 10.0, -10.0, -1.8807, 0.5124, -0.5744, 3.5243),
    ReferenceRow(1.0, 10.0, -1.0, -1.8675, 0.5251, -0.5005, 3.4685),
    ReferenceRow(1.0, 10.0, 0.0, -1.5388, 0.5868, -0.4099, 3.3314),
    ReferenceRow(1.0, 10.0, 1.0, -0.6744, 0.4536, -0.3597, 3.2722),
    ReferenceRow(1.0, 10.0, 10.0, 0.0839, 0.1364, 0.7082, 4.2018),
)

_BY_KEY = {(r.a, r.b, r.lam): r for r in REFERENCE_MOMENT_GRID}

# Cells whose published digits miss the true moment by more than the row
# tolerance, keyed (a, b, lam, field).  Each value is the independent
# oracle of tests/moment_oracle.py rounded to the table's 4 decimals and
# is asserted instead of the published value, which stays in
# REFERENCE_MOMENT_GRID and is still reported.  tests/test_moment_oracle.py
# recomputes every entry and checks that the published value it replaces
# is off by more than the row tolerance.
RECORDED_VALUES = {
    (0.25, 0.25, -10.0, "skewness"): -1.1379,   # published -1.1329, oracle -1.137935
    (0.25, 0.25, -10.0, "kurtosis"): 3.7993,    # published 3.7648, oracle 3.799306
    (0.25, 0.25, -1.0, "mean"): -0.6394,        # published -0.6501, oracle -0.639449
    (0.25, 0.25, -1.0, "sd"): 1.9547,           # published 1.9679, oracle 1.954694
    (0.25, 0.25, -1.0, "skewness"): -0.2126,    # published -0.2378, oracle -0.212560
    (0.25, 0.25, -1.0, "kurtosis"): 2.7322,     # published 2.7777, oracle 2.732232
    (0.25, 0.25, 0.0, "kurtosis"): 2.6345,      # published 2.6217, oracle 2.634452
    (0.25, 0.25, 1.0, "mean"): 0.6394,          # published 0.6484, oracle 0.639449
    (0.25, 0.25, 1.0, "sd"): 1.9547,            # published 1.9649, oracle 1.954694
    (0.25, 0.25, 1.0, "skewness"): 0.2126,      # published 0.2306, oracle 0.212560
    (0.25, 0.25, 1.0, "kurtosis"): 2.7322,      # published 2.1362, oracle 2.732232
    (0.25, 0.25, 10.0, "skewness"): 1.1379,     # published 1.1329, oracle 1.137935
    (0.25, 0.25, 10.0, "kurtosis"): 3.7993,     # published 3.7632, oracle 3.799306
    (0.25, 0.5, -10.0, "mean"): -1.6347,        # published -1.5906, oracle -1.634710
    (0.25, 0.5, -10.0, "sd"): 1.3990,           # published 1.3469, oracle 1.398957
    (0.25, 0.5, -10.0, "skewness"): -0.8510,    # published -0.7185, oracle -0.851038
    (0.25, 0.5, -10.0, "kurtosis"): 3.3100,     # published 2.7580, oracle 3.309964
    (0.25, 0.5, -1.0, "mean"): -1.4270,         # published -1.4424, oracle -1.427001
    (0.25, 0.5, -1.0, "sd"): 1.6539,            # published 1.6716, oracle 1.653911
    (0.25, 0.5, -1.0, "skewness"): -0.2905,     # published -0.3284, oracle -0.290467
    (0.25, 0.5, -1.0, "kurtosis"): 2.9197,      # published 3.0202, oracle 2.919739
    (0.25, 0.5, 1.0, "kurtosis"): 2.8648,       # published 2.8543, oracle 2.864839
    (0.5, 0.25, -1.0, "kurtosis"): 2.8648,      # published 2.8541, oracle 2.864839
    (0.5, 0.25, 0.0, "kurtosis"): 2.8069,       # published 2.7927, oracle 2.806859
    (0.5, 0.25, 1.0, "mean"): 1.4270,           # published 1.4411, oracle 1.427001
    (0.5, 0.25, 1.0, "sd"): 1.6539,             # published 1.6694, oracle 1.653911
    (0.5, 0.25, 1.0, "skewness"): 0.2905,       # published 0.3203, oracle 0.290467
    (0.5, 0.25, 1.0, "kurtosis"): 2.9197,       # published 2.9849, oracle 2.919739
    (0.5, 0.25, 10.0, "skewness"): 0.8510,      # published 0.8434, oracle 0.851038
    (0.5, 0.25, 10.0, "kurtosis"): 3.3100,      # published 3.2655, oracle 3.309964
    (0.5, 0.5, -10.0, "mean"): -0.9204,         # published -0.8979, oracle -0.920446
    (0.5, 0.5, -10.0, "sd"): 0.9203,            # published 0.8874, oracle 0.920321
    (0.5, 0.5, -10.0, "skewness"): -1.1003,     # published -0.9703, oracle -1.100327
    (0.5, 0.5, -10.0, "kurtosis"): 3.9530,      # published 3.3176, oracle 3.953008
    (0.5, 0.5, 10.0, "sd"): 0.9203,             # published 0.9153, oracle 0.920321
    (0.5, 0.5, 10.0, "skewness"): 1.1003,       # published 1.0703, oracle 1.100327
    (0.5, 0.5, 10.0, "kurtosis"): 3.9530,       # published 3.7747, oracle 3.953008
    (0.5, 10.0, -1.0, "skewness"): -0.7128,     # published -0.7188, oracle -0.712796
    (0.5, 10.0, -1.0, "kurtosis"): 3.7603,      # published 3.7849, oracle 3.760319
}


def row_tolerance(row):
    """Absolute per-cell tolerance: tighter when both shapes are >= 1."""
    return 1e-3 if (row.a >= 1.0 and row.b >= 1.0) else 5e-3


def _mirror_of(row):
    """The (b, a, -lambda) partner row, or None when it is not in the grid."""
    return _BY_KEY.get((row.b, row.a, -row.lam))


@cache
def excluded_cells():
    """Cells whose published digits contradict the reflection symmetry, as a frozenset built once.

    Reflection forces mean/skewness to be opposite and sd/kurtosis equal
    between a row and its mirror; when the printed pair disagrees by
    more than _MIRROR_TOL at least one of the two is wrong, so both cells
    are listed (the self-mirrored lam=0 rows check 2*|value| for the
    sign-flipping fields).  Every listed cell that is off by more than
    the row tolerance has a RECORDED_VALUES entry; the list is reported
    only and exempts no cell from assertion.
    """
    out = set()
    for row in REFERENCE_MOMENT_GRID:
        partner = _mirror_of(row)
        if partner is None:
            continue
        for field in FIELDS:
            dev = abs(getattr(row, field) - _MIRROR_SIGN[field] * getattr(partner, field))
            if dev > _MIRROR_TOL:
                out.add((row.a, row.b, row.lam, field))
                out.add((partner.a, partner.b, partner.lam, field))
    return frozenset(out)


@dataclass(frozen=True)
class RowComparison:
    row: ReferenceRow
    computed: object
    deviations: dict
    asserted: dict
    asserted_deviations: dict
    tolerance: float
    excluded: tuple
    passed: bool


def compare_row(row, computed, excluded):
    """Compare one row's computed MomentSummary with the table, cell by cell.

    `deviations` are from the published values, `asserted_deviations`
    from the asserted ones; `passed` holds when every asserted deviation
    is within the row tolerance.  `excluded` is the set of
    excluded_cells(), of which the row lists its own mirror-mismatched
    fields for reporting.
    """
    values = {f: getattr(computed, f) for f in FIELDS}
    published = {f: getattr(row, f) for f in FIELDS}
    asserted = {f: RECORDED_VALUES.get((row.a, row.b, row.lam, f), published[f]) for f in FIELDS}
    tol = row_tolerance(row)
    asserted_deviations = {f: abs(values[f] - asserted[f]) for f in FIELDS}
    return RowComparison(
        row=row,
        computed=computed,
        deviations={f: abs(values[f] - published[f]) for f in FIELDS},
        asserted=asserted,
        asserted_deviations=asserted_deviations,
        tolerance=tol,
        excluded=tuple(f for f in FIELDS if (row.a, row.b, row.lam, f) in excluded),
        passed=all(d <= tol for d in asserted_deviations.values()),
    )


@cache
def _grid_log_densities():
    """bsn._logpdf_rows over the grid's fifty laws: the laws and row plan, built once."""
    return _logpdf_rows([BetaSkewNormal(row.lam, row.a, row.b) for row in REFERENCE_MOMENT_GRID])


def compare_grid(spec=None):
    """Recompute all fifty rows in one quadrature pass and compare each.

    The pass integrates 200 components, each row's raw moments of orders
    1-4, each to its own tolerance.  Every batch of nodes composes the
    fifty log densities as one block (bsn._logpdf_rows), bit for bit
    each row's BetaSkewNormal logpdf, on one skew-normal tail read per
    distinct |lam| (three in the grid: 0, 1 and 10, each shape read
    with its negative).
    """
    log_densities = _grid_log_densities()

    def integrand(z):
        powers = np.stack([z**k for k in _ORDERS])
        return (powers * np.exp(log_densities(z))[:, None]).reshape((-1,) + z.shape)

    raw = integrate_line(integrand, spec).reshape(len(REFERENCE_MOMENT_GRID), len(_ORDERS))
    excluded = excluded_cells()
    return [
        compare_row(row, _summary(*map(float, m)), excluded)
        for row, m in zip(REFERENCE_MOMENT_GRID, raw)
    ]
