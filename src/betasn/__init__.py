"""Beta skew-normal distribution family.

Densities, distribution functions, quantiles, seeded samplers, and a
verification harness for the skew-normal, its Balakrishnan extensions,
the beta-generated normal variants, and the beta skew-normal that ties
them together.
"""

from .balakrishnan import (
    GBSN,
    SNB,
    TBSN,
    gbsn_constant,
    gbsn_constant_series,
    snb_constant,
    tbsn_constant,
)
from .betafamily import (
    GB1,
    Beta,
    BetaHalfNormal,
    BetaNormal,
    Kumaraswamy,
)
from .bsn import (
    BetaSkewNormal,
    ModeReport,
    RejectionSampleBatch,
    bhn_limit_distance,
    kumaraswamy_transform,
    moment_recursion_gap,
    sample_rejection,
    skewing_weight,
)
from .checks import CheckResult, SUITES, report_json, run_suite
from .core import Distribution, MomentSummary, moment_summary, normalization_error
from .orderstats import (
    KS_COEFF_01,
    ConditioningReport,
    KsReport,
    OrderStatSpec,
    UnsupportedMappingError,
    analytic_order_stat,
    ks_statistic,
    log_concavity_order_stat_check,
    mc_conditioning_ks,
    mc_order_stat_ks,
    order_stat_pdf,
)
from .quadrature import DEFAULT_SPEC, IntegrationError, QuadratureSpec, integrate_line, integrate_unit
from .reference import (
    REFERENCE_MOMENT_GRID,
    ReferenceRow,
    RowComparison,
    compare_grid,
    compare_row,
    excluded_cells,
    row_tolerance,
)
from .skewnormal import Normal, SkewNormal
from .special import (
    chisq1_cdf,
    inv_reg_inc_beta,
    log_beta,
    norm_cdf,
    norm_logcdf,
    norm_logpdf,
    norm_pdf,
    norm_quantile,
    owen_t,
    reg_inc_beta,
)

__all__ = [
    # core plumbing
    "Distribution",
    "MomentSummary",
    "moment_summary",
    "normalization_error",
    "DEFAULT_SPEC",
    "IntegrationError",
    "QuadratureSpec",
    "integrate_line",
    "integrate_unit",
    # special functions
    "norm_pdf",
    "norm_logpdf",
    "norm_cdf",
    "norm_logcdf",
    "norm_quantile",
    "owen_t",
    "log_beta",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "chisq1_cdf",
    # distribution families
    "Normal",
    "SkewNormal",
    "SNB",
    "GBSN",
    "TBSN",
    "snb_constant",
    "gbsn_constant",
    "gbsn_constant_series",
    "tbsn_constant",
    "Beta",
    "GB1",
    "Kumaraswamy",
    "BetaNormal",
    "BetaHalfNormal",
    "BetaSkewNormal",
    "ModeReport",
    "RejectionSampleBatch",
    "sample_rejection",
    "moment_recursion_gap",
    "bhn_limit_distance",
    "kumaraswamy_transform",
    "skewing_weight",
    # order statistics
    "KS_COEFF_01",
    "KsReport",
    "OrderStatSpec",
    "ConditioningReport",
    "UnsupportedMappingError",
    "ks_statistic",
    "analytic_order_stat",
    "order_stat_pdf",
    "mc_order_stat_ks",
    "mc_conditioning_ks",
    "log_concavity_order_stat_check",
    # reference moment grid
    "ReferenceRow",
    "RowComparison",
    "REFERENCE_MOMENT_GRID",
    "row_tolerance",
    "excluded_cells",
    "compare_row",
    "compare_grid",
    # verification suites
    "CheckResult",
    "SUITES",
    "run_suite",
    "report_json",
]

__version__ = "0.1.0"
