"""The Q^(m) transformation.

Q^(m)_n is the quotient L^(m)(s_n)/L^(m)(1) where L^(m) is the difference
operator annihilating the first m remainder terms of the series.  Written
out, it is a normalized linear combination of the partial sums
s_n .. s_{n+mp} with polynomial weights

    lambda_j = C(mp, j) (-x)^{mp-j} prod_i (alpha_i+n+j)_{mp-j} (beta_i+n+m-1)_j.

Four equivalent evaluation paths are provided and cross-checked by the test
suite: the weight quotient (canonical), the remainder form of the weights'
partial tails, the explicit weighted forward-difference quotient, and (for
p = 2) the recursive operator scheme.

All four draw their coefficients from one table per call of the factors
fa[k] = x prod_a (a+k), fb[k] = prod_b (b+k) of the term ratio, on raw
mpmath values under one precision context, boxed only at the API edge.
The weights of the first three are suffix times prefix products of slices
of that table (``_suffix_prefix``): O(mp) multiplications per cell and no
division, so exact zeros (terminating alpha, x = 0) stay exact.

The exact-rational twins at the bottom re-derive the weights independently
with Fraction arithmetic for the coefficient and degree identities.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import mp

from .numerics import HPComplex
from .series import SeriesDef, PartialSums, _factors, _raw_params, partial_sums


class DegenerateDenominatorError(ArithmeticError):
    """The denominator polynomial is negligible against the weight scale."""


class UnsupportedShapeError(ValueError):
    """Operator path requested for a parameter shape it does not cover."""


class TablePath(enum.Enum):
    DIRECT = "direct"
    REMAINDER = "remainder"
    OPERATOR = "operator"
    RECURSION3F2 = "recursion3f2"


@dataclass(frozen=True)
class LambdaWeights:
    """Weights lambda_j and their partial tails M_k for one (m, n).

    M_k = sum_{j>=k} lambda_j, so M_0 is the denominator of the quotient
    and M_{mp} = lambda_{mp}.
    """

    m: int
    n: int
    lam: tuple
    M: tuple


@dataclass(frozen=True)
class LeadingCoeffs:
    """Leading coefficients c_j = C(mp, j)(-x)^{mp-j} of the weights.

    ``sum_residual`` and ``weighted_residual`` are the numeric residuals of
    the two binomial identities sum c_j = (1-x)^{mp} and sum c_j x^j = 0.
    """

    m: int
    p: int
    x: HPComplex
    c: tuple
    sum_residual: float
    weighted_residual: float


@dataclass
class QTable:
    """Triangular array of Q^(m)_n over a partial-sum budget.

    A cell (n, m) exists iff n >= 1, 0 <= m <= max_m and n + m*p <= budget;
    column m = 0 is the partial sums.  Degenerate cells hold None and are
    listed in ``flagged``.
    """

    series: SeriesDef
    budget: int
    max_m: int
    path: TablePath
    cells: dict = field(default_factory=dict)
    flagged: set = field(default_factory=set)

    def get(self, n: int, m: int) -> Optional[HPComplex]:
        return self.cells.get((n, m))


# -- the weight kernel: raw mpc values, called under the caller's workdps --

def _factor_table(series: SeriesDef, hi: int):
    """(fa, fb) with fa[k] = x prod_a (a+k), fb[k] = prod_b (b+k), k < hi;
    cell (n, m) reads k < n + m - 1 + mp."""
    av, bv, xv = _raw_params(series)
    return _factors(av, 0, hi, xv), _factors(bv, 0, hi)


def _suffix_prefix(tables, m: int, n: int, width: int):
    """Suffix products prod_{j<=i<width} fa[n+i] and prefix products
    prod_{i<j} fb[n+m-1+i], j = 0..width, of cell (n, m).

    Every weight of the cell is one suffix times one prefix: O(width)
    multiplications and no division, so exact zeros (terminating alpha,
    x = 0) stay exact.
    """
    fa, fb = tables
    suffix = [1] * (width + 1)
    for j in range(width - 1, -1, -1):
        suffix[j] = fa[n + j] * suffix[j + 1]
    prefix = [1]
    for k in range(n + m - 1, n + m - 1 + width):
        prefix.append(prefix[-1] * fb[k])
    return suffix, prefix


def _weights(tables, m: int, n: int, width: int):
    """lambda_j = ((-1)^{mp-j} C(mp, j)) * suffix_j * prefix_j (rounding is
    sign-symmetric) and the tails M_k (j, k = 0..mp) of cell (n, m)."""
    suffix, prefix = _suffix_prefix(tables, m, n, width)
    lam = [(-1) ** (width - j) * math.comb(width, j) * suffix[j] * prefix[j]
           for j in range(width + 1)]
    tails = lam[:]
    for j in range(width - 1, -1, -1):
        tails[j] = lam[j] + tails[j + 1]
    return lam, tails


def _operator_weights(tables, m: int, n: int, width: int) -> list:
    """w_nu = [beta]_{nu+m-1} / ([alpha]_nu x^nu), nu = n..n+mp, times the
    common factor [alpha]_{n+mp} x^{n+mp} / [beta]_{n+m-1}, which cancels
    in the quotient: suffix_j * prefix_j."""
    suffix, prefix = _suffix_prefix(tables, m, n, width)
    return [u * v for u, v in zip(suffix, prefix)]


def _forward_diff(samples):
    out = list(samples)
    while len(out) > 1:
        out = [out[i + 1] - out[i] for i in range(len(out) - 1)]
    return out[0]


def _degenerate_threshold(prec: int):
    return mp.mpf(10) ** (4 - prec)


def _cell_value(tables, m: int, n: int, s_window, a_window, path: TablePath,
                threshold):
    """Q^(m)_n on the DIRECT, REMAINDER or OPERATOR path, from
    s_n..s_{n+mp} and a_n..a_{n+mp-1}.

    Raises DegenerateDenominatorError when the denominator (M_0, or
    Delta^{mp} w on the operator path) is below threshold * (mp+1) times
    the largest weight.
    """
    width = len(s_window) - 1
    if path is TablePath.OPERATOR:
        w = _operator_weights(tables, m, n, width)
        den = _forward_diff(w)
        if abs(den) < threshold * max(abs(v) for v in w) * len(w):
            raise DegenerateDenominatorError(
                f"difference denominator negligible at (n={n}, m={m})"
            )
        return _forward_diff([u * v for u, v in zip(w, s_window)]) / den
    lam, tails = _weights(tables, m, n, width)
    if abs(tails[0]) < threshold * max(abs(v) for v in lam) * len(lam):
        raise DegenerateDenominatorError(
            f"denominator M_0 negligible at (n={n}, m={m})"
        )
    if path is TablePath.DIRECT:
        return mp.fdot(lam, s_window) / tails[0]
    return s_window[0] + mp.fdot(tails[1:], a_window) / tails[0]


def _p_coeffs(fa, fb, m: int, n: int):
    """Coefficients of z_n, z_{n+1}, z_{n+2} in the p = 2 operator P^(m) at
    n, from factor tables that start at index 0 and have lead x."""
    k = n + 2 * m - 2
    return (fa[k] * fa[k + 1],
            -2 * fa[k + 1] * (fb[k] - m * (m - 1)),
            fb[n + m - 1] * fb[n + 3 * m - 2])


def _p_step(coeffs, z) -> list:
    """P^(m) z at n = 1..len(coeffs) from the coefficient triples of those
    n; index 0 is a placeholder, so the result indexes like z."""
    return [0] + [c0 * z[n] + c1 * z[n + 1] + c2 * z[n + 2]
                  for n, (c0, c1, c2) in enumerate(coeffs, 1)]


def lambda_weights(series: SeriesDef, m: int, n: int) -> LambdaWeights:
    """Weights lambda_j^(m)(n), j = 0..mp, and their exact partial tails."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    prec = series.precision.working
    width = m * series.p
    with mp.workdps(prec):
        lam, tails = _weights(_factor_table(series, n + m - 1 + width), m, n, width)
        return LambdaWeights(
            m=m, n=n,
            lam=tuple(HPComplex.from_mpc(v, prec) for v in lam),
            M=tuple(HPComplex.from_mpc(v, prec) for v in tails),
        )


def _single_cell(series: SeriesDef, sums: PartialSums, m: int, n: int,
                 path: TablePath) -> HPComplex:
    if m == 0:
        return sums.s[n]
    width = m * series.p
    if n + width >= len(sums.s):
        raise ValueError(f"partial sums cover only s_0..s_{len(sums.s)-1}")
    prec = series.precision.working
    with mp.workdps(prec):
        tables = _factor_table(series, n + m - 1 + width)
        value = _cell_value(tables, m, n,
                            [v.value for v in sums.s[n:n + width + 1]],
                            [v.value for v in sums.a[n:n + width]],
                            path, _degenerate_threshold(prec))
        return HPComplex.from_mpc(value, prec)


def q_direct(series: SeriesDef, sums: PartialSums, m: int, n: int) -> HPComplex:
    """Canonical path: Q^(m)_n = sum_j lambda_j s_{n+j} / sum_j lambda_j."""
    return _single_cell(series, sums, m, n, TablePath.DIRECT)


def q_remainder_form(series: SeriesDef, sums: PartialSums, m: int, n: int) -> HPComplex:
    """Remainder path: Q^(m)_n = s_n + sum_k (M_{k+1}/M_0) a_{n+k}."""
    return _single_cell(series, sums, m, n, TablePath.REMAINDER)


def l_ratio(series: SeriesDef, sums: PartialSums, m: int, n: int) -> HPComplex:
    """Operator path: Delta^{mp}(w_nu s_nu) / Delta^{mp}(w_nu) at nu = n."""
    return _single_cell(series, sums, m, n, TablePath.OPERATOR)


def p_apply_3f2(series: SeriesDef, z: Sequence, m: int, n: int) -> HPComplex:
    """One application of the specialized p=2 operator P^(m) at index n.

    ``z`` must support indexing at n, n+1, n+2.  With k = n+2m-2 and the
    factors fa[k] = x prod_a (a+k), fb[k] = prod_b (b+k), the z_n term
    carries fa[k] fa[k+1], the z_{n+1} term -2 fa[k+1] (fb[k] - m(m-1)),
    the z_{n+2} term fb[n+m-1] fb[n+3m-2].
    """
    if series.p != 2:
        raise UnsupportedShapeError("the specialized operator requires p = 2")
    prec = series.precision.working
    with mp.workdps(prec):
        tables = _factor_table(series, n + 3 * m - 1)
        c0, c1, c2 = _p_coeffs(*tables, m, n)
        return HPComplex.from_mpc(
            c0 * z[n].value + c1 * z[n + 1].value + c2 * z[n + 2].value, prec)


def q_table(series: SeriesDef, budget: int, max_m: int,
            path: TablePath = TablePath.DIRECT) -> QTable:
    """All cells (n, m) with 1 <= n, 0 <= m <= max_m, n + mp <= budget.

    Degenerate denominators flag the cell instead of aborting the table.
    RECURSION3F2 builds the numerator and denominator columns N^(m), D^(m)
    by repeated application of P^(m); a D that is exactly 0 is degenerate.
    """
    p = series.p
    if budget < 1 + p * max_m:
        raise ValueError(f"budget {budget} too small for max_m {max_m} at p={p}")
    if path is TablePath.RECURSION3F2 and p != 2:
        raise UnsupportedShapeError("recursion3f2 path requires p = 2")
    sums = partial_sums(series, budget)
    table = QTable(series=series, budget=budget, max_m=max_m, path=path)
    for n in range(1, budget + 1):
        table.cells[(n, 0)] = sums.s[n]
    prec = series.precision.working
    with mp.workdps(prec):
        tables = _factor_table(series, budget + max_m)
        s = [v.value for v in sums.s]
        a = [v.value for v in sums.a]
        threshold = _degenerate_threshold(prec)
        if path is TablePath.RECURSION3F2:
            N, D = s, [1] * len(s)
        for m in range(1, max_m + 1):
            width = m * p
            rows = range(1, budget - width + 1)
            if path is TablePath.RECURSION3F2:
                coeffs = [_p_coeffs(*tables, m, n) for n in rows]
                N, D = _p_step(coeffs, N), _p_step(coeffs, D)
            for n in rows:
                try:
                    if path is not TablePath.RECURSION3F2:
                        value = _cell_value(tables, m, n, s[n:n + width + 1],
                                            a[n:n + width], path, threshold)
                    elif D[n] == 0:
                        raise DegenerateDenominatorError(f"D^({m})_{n} = 0")
                    else:
                        value = N[n] / D[n]
                    table.cells[(n, m)] = HPComplex.from_mpc(value, prec)
                except DegenerateDenominatorError:
                    table.cells[(n, m)] = None
                    table.flagged.add((n, m))
    return table


def annihilation_residual(series: SeriesDef, m: int, n: int) -> float:
    """Relative residual of the defining identity L^(m)(a_n+...+a_{n+m-1}) = 0.

    Applies the weighted forward difference to the finite-remainder window
    z_nu = a_nu + ... + a_{nu+m-1} and normalizes by the largest
    contributing summand, so the result is dimensionless and 0 up to
    rounding.  The window is summed from the terms directly (never as a
    difference of partial sums) to keep full relative accuracy when the
    terms are many orders below the sum.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p = series.p
    sums = partial_sums(series, n + m * p + m)
    prec = series.precision.working
    mp_width = m * p
    with mp.workdps(prec):
        tables = _factor_table(series, n + m - 1 + mp_width)
        w = _operator_weights(tables, m, n, mp_width)
        a = [v.value for v in sums.a]

        def window(nu):
            total = a[nu]
            for k in range(1, m):
                total = total + a[nu + k]
            return total

        samples = [w[j] * window(n + j) for j in range(len(w))]
        total = _forward_diff(samples)
        # scale: largest signed binomial summand of the expanded difference
        scale = max(
            math.comb(mp_width, j) * abs(samples[j]) for j in range(len(samples))
        )
        if scale == 0:
            return 0.0
        return float(abs(total) / scale)


def leading_coeffs(m: int, p: int, x: HPComplex) -> LeadingCoeffs:
    """c_j = C(mp, j)(-x)^{mp-j}, with both binomial identities as residuals."""
    if m < 1 or p < 1:
        raise ValueError("m and p must be >= 1")
    mp_width = m * p
    prec = x.precision
    c = tuple(
        HPComplex(math.comb(mp_width, j), 0, prec) * (-x) ** (mp_width - j)
        for j in range(mp_width + 1)
    )
    with mp.workdps(prec):
        total = HPComplex(0, 0, prec)
        weighted = HPComplex(0, 0, prec)
        for j, cj in enumerate(c):
            total = total + cj
            weighted = weighted + cj * x ** j
        expected = (HPComplex(1, 0, prec) - x) ** mp_width
        scale = max(abs(cj) for cj in c)
        sum_res = float(abs(total - expected) / scale) if scale else 0.0
        weighted_res = float(abs(weighted) / scale) if scale else 0.0
    return LeadingCoeffs(m=m, p=p, x=x, c=c,
                         sum_residual=sum_res, weighted_residual=weighted_res)


# -- exact-rational twins ----------------------------------------------

def leading_coeffs_exact(m: int, p: int, x: Fraction):
    """Exact c_j together with the two identity checks, all in Fractions."""
    mp_width = m * p
    c = [Fraction(math.comb(mp_width, j)) * (-x) ** (mp_width - j)
         for j in range(mp_width + 1)]
    sum_ok = sum(c) == (1 - x) ** mp_width
    weighted_ok = sum(cj * x ** j for j, cj in enumerate(c)) == 0
    return c, sum_ok, weighted_ok


def _poch_exact(g: Fraction, start: Fraction, count: int) -> Fraction:
    out = Fraction(1)
    for k in range(count):
        out *= g + start + k
    return out


def lambda_weights_exact(alpha, beta, x: Fraction, m: int, n) -> list:
    """Exact-rational evaluation of the weights at integer (or rational) n."""
    p = len(alpha)
    mp_width = m * p
    out = []
    for j in range(mp_width + 1):
        v = Fraction(math.comb(mp_width, j)) * (-x) ** (mp_width - j)
        for a in alpha:
            v *= _poch_exact(Fraction(a), Fraction(n + j), mp_width - j)
        for b in beta:
            v *= _poch_exact(Fraction(b), Fraction(n + m - 1), j)
        out.append(v)
    return out


def annihilation_residual_exact(alpha, beta, x: Fraction, m: int, n: int) -> Fraction:
    """Exact-rational residual of the annihilation identity (always 0).

    Uses the weight form of the operator: sum_j lambda_j (s_{n+j+m} - s_{n+j}).
    """
    alpha = [Fraction(a) for a in alpha]
    beta = [Fraction(b) for b in beta]
    p = len(alpha)
    top = n + m * p + m
    # exact terms and partial sums
    a = [Fraction(1)]
    for k in range(top):
        ratio = Fraction(x)
        for ai in alpha:
            ratio *= ai + k
        for bi in beta:
            ratio /= bi + k
        a.append(a[-1] * ratio)
    s = [Fraction(0)]
    for t in a:
        s.append(s[-1] + t)
    lam = lambda_weights_exact(alpha, beta, Fraction(x), m, n)
    return sum(lam[j] * (s[n + j + m] - s[n + j]) for j in range(len(lam)))


@dataclass(frozen=True)
class DegreeCheck:
    """Outcome of the exact-rational degree check on the weights.

    Truthy iff every lambda_j has degree exactly mp^2 in n with leading
    coefficient c_j, and (when x != 1) M_0 keeps that full degree.  At
    x = 1 the denominator drops degree; ``m0_degree_drop`` reports it.
    """

    lambda_ok: bool
    m0_full_degree: bool
    m0_degree_drop: bool

    def __bool__(self):
        return self.lambda_ok and (self.m0_full_degree or self.m0_degree_drop)


def lambda_degree_check(m: int, p: int, alpha, beta, x: Fraction) -> DegreeCheck:
    """Verify deg lambda_j = mp^2 with leading coefficient c_j, exactly.

    Samples the weights at mp^2 + 2 integer points; the (mp^2+1)-th finite
    difference must vanish and the mp^2-th must equal (mp^2)! c_j.
    """
    x = Fraction(x)
    alpha = [Fraction(a) for a in alpha]
    beta = [Fraction(b) for b in beta]
    deg = m * p * p
    if deg > 64:
        raise ValueError("degree check limited to m*p^2 <= 64")
    points = [lambda_weights_exact(alpha, beta, x, m, n) for n in range(deg + 2)]
    c, _, _ = leading_coeffs_exact(m, p, x)
    fact = math.factorial(deg)

    def diffs(samples, order):
        out = list(samples)
        for _ in range(order):
            out = [out[i + 1] - out[i] for i in range(len(out) - 1)]
        return out

    lambda_ok = True
    for j in range(m * p + 1):
        col = [pt[j] for pt in points]
        top = diffs(col, deg + 1)
        lead = diffs(col, deg)
        if any(v != 0 for v in top) or any(v != fact * c[j] for v in lead):
            lambda_ok = False
            break
    m0 = [sum(pt) for pt in points]
    m0_lead = diffs(m0, deg)
    m0_full = all(v == fact * sum(c) for v in m0_lead) and sum(c) != 0
    m0_drop = all(v == 0 for v in m0_lead)
    return DegreeCheck(lambda_ok=lambda_ok,
                       m0_full_degree=m0_full,
                       m0_degree_drop=m0_drop)
