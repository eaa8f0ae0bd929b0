"""Accuracy metric and numeric probes of the acceleration theory.

acc(z) = -log10|z/s - 1| counts the exact significant decimal digits of an
approximation z against the reference limit s.  The probes evaluate the
quantity whose limit 1 characterizes acceleration, the remainder-ratio
behavior, and the asymptotic expansion coefficients of term and remainder
ratios at x = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from mpmath import mp, log10

from .numerics import HPComplex, PrecisionConfig, relative_error
from .series import SeriesDef, PartialSums
from .qtransform import QTable, lambda_weights


@dataclass
class AccuracyReport:
    """Per-cell values, acc digits and acceleration ratios for a table."""

    reference: HPComplex
    cells: dict = field(default_factory=dict)       # (n, m) -> (value, acc)
    ratios: dict = field(default_factory=dict)      # (n, m) -> float
    condition_values: dict = field(default_factory=dict)  # (n, m) -> HPComplex


@dataclass(frozen=True)
class AsymptoticCoeffs:
    """Leading expansion coefficients of a_{n+1}/a_n and r_{n+1}/r_n in 1/n.

    d1 always equals b1 + 1 and coincides with the boundary-convergence
    parameter sigma; d2 is undefined when b1 = 0 (flagged None).
    """

    b1: HPComplex
    b2: HPComplex
    d1: HPComplex
    d2: Optional[HPComplex]


def acc(z: HPComplex, s: HPComplex, precision: PrecisionConfig) -> float:
    """Exact significant decimal digits of z against s, capped at the context."""
    err = relative_error(z, s)
    cap = float(precision.digits)
    if err == 0:
        return cap
    with mp.workdps(precision.working):
        return min(cap, float(-log10(err)))


def acceleration_condition(series: SeriesDef, s: HPComplex, m: int, n: int,
                           sums: PartialSums) -> HPComplex:
    """The quantity sum_k (M_{k+1}/M_0)(a_{n+k}/r_n) with r_n = s - s_n.

    Its limit 1 as n grows is necessary and sufficient for the
    transformation to accelerate the partial sums.
    """
    mp_width = m * series.p
    if n + mp_width > sums.length:
        raise ValueError("partial sums do not cover the probe window")
    r_n = s - sums.s[n]
    prec = series.precision.working
    with mp.workdps(prec):
        if abs(r_n) == 0:
            raise ValueError(f"remainder vanishes at n={n}; limit already reached")
    w = lambda_weights(series, m, n)
    with mp.workdps(prec):
        total = mp.fdot([v.value for v in w.M[1:]],
                        [v.value for v in sums.a[n:n + mp_width]])
        return HPComplex.from_mpc(total / (w.M[0].value * r_n.value), prec)


def asymptotic_coeffs(series: SeriesDef) -> AsymptoticCoeffs:
    """b1 = sum(alpha) - sum(beta); b2, d1, d2 by the closed formulas."""
    prec = series.precision.working
    b1 = HPComplex(0, 0, prec)
    sq_diff = HPComplex(0, 0, prec)
    for a in series.alpha:
        b1 = b1 + a
        sq_diff = sq_diff + a * a
    for b in series.beta:
        b1 = b1 - b
        sq_diff = sq_diff - b * b
    half = HPComplex(1, 0, prec) / 2
    b2 = half * (b1 * b1 - sq_diff)
    d1 = b1 + 1
    if b1.is_zero():
        d2 = None
    else:
        d2 = (b1 * b1 + b1 * b2 + b1 + b2) / b1
    return AsymptoticCoeffs(b1=b1, b2=b2, d1=d1, d2=d2)


@dataclass(frozen=True)
class RatioProbe:
    """r_{n+1}/r_n at the base index plus the ratios over the window."""

    ratio: HPComplex
    window: tuple
    trend: HPComplex  # mean ratio over the window


def ratio_probe(series: SeriesDef, s: HPComplex, sums: PartialSums,
                n: int, window: int = 1) -> RatioProbe:
    """Empirical remainder ratios r_{nu+1}/r_nu for nu = n..n+window-1."""
    if window < 1:
        raise ValueError("window must be >= 1")
    if n + window > sums.length:
        raise ValueError("partial sums do not cover the probe window")
    prec = series.precision.working
    ratios = []
    with mp.workdps(prec):
        for nu in range(n, n + window):
            r0 = s - sums.s[nu]
            r1 = s - sums.s[nu + 1]
            if abs(r0) == 0:
                raise ValueError(f"remainder vanishes at n={nu}")
            ratios.append(r1 / r0)
        total = HPComplex(0, 0, prec)
        for r in ratios:
            total = total + r
        trend = total / len(ratios)
    return RatioProbe(ratio=ratios[0], window=tuple(ratios), trend=trend)


def acceleration_ratios(table: QTable, s: HPComplex) -> AccuracyReport:
    """Fill acc per cell and the ratios |Q^(m)_n - s| / |s_n - s|."""
    cfg = table.series.precision
    report = AccuracyReport(reference=s)
    prec = cfg.working
    with mp.workdps(prec):
        for (n, m), value in sorted(table.cells.items()):
            if value is None:
                continue
            report.cells[(n, m)] = (value, acc(value, s, cfg))
            base = table.cells.get((n, 0))
            if base is None:
                continue
            denom = abs(s.value - base.value)
            if denom == 0:
                continue
            report.ratios[(n, m)] = float(abs(value.value - s.value) / denom)
    return report
