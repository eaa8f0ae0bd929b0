"""Convergence acceleration for generalized hypergeometric series.

High-precision summation of slowly convergent (or divergent) series whose
term ratio is rational in the index, via a difference-operator quotient
transformation, with classic extrapolation methods (Wynn epsilon, Levin
variants, iterated Aitken) for comparison and a diagnostics layer.
"""

from .numerics import (
    HPComplex,
    PrecisionConfig,
    ParseError,
    parse_number,
    format_number,
    relative_error,
)
from .series import (
    SeriesDef,
    ConvergenceClass,
    ConvergenceKind,
    PartialSums,
    to_unit_form,
    partial_sums,
    classify,
    term_ratio,
)
from .qtransform import (
    LambdaWeights,
    QTable,
    LeadingCoeffs,
    TablePath,
    DegenerateDenominatorError,
    lambda_weights,
    q_direct,
    q_remainder_form,
    l_ratio,
    q_table,
    p_apply_3f2,
    annihilation_residual,
    leading_coeffs,
    lambda_degree_check,
)
from .classic import (
    EpsilonTable,
    LevinSpec,
    LevinVariant,
    epsilon_table,
    levin,
    aitken,
)
from .diagnostics import (
    AccuracyReport,
    AsymptoticCoeffs,
    acc,
    acceleration_condition,
    asymptotic_coeffs,
    ratio_probe,
    acceleration_ratios,
)

__version__ = "0.1.0"
