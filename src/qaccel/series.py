"""Series model: parameters, terms, partial sums, convergence classification.

The series under study is sum a_n with

    a_n = [alpha]_n / [beta]_n * x^n,

where [gamma]_n is the product of rising factorials (gamma_j)_n over the
parameter vector.  Terms are generated by the ratio recurrence
a_{n+1} = a_n * x * prod(alpha_j + n) / prod(beta_j + n), never by dividing
two large Pochhammer products.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from mpmath import mp

from .numerics import (
    HPComplex,
    PrecisionConfig,
    DEFAULT_PRECISION,
    parse_number,
)


class InvalidSeriesError(ValueError):
    """Parameter vectors violate the series invariants."""


def _as_hp(value, config: PrecisionConfig) -> HPComplex:
    if isinstance(value, HPComplex):
        return value
    if isinstance(value, str):
        return parse_number(value, config)
    return HPComplex(value, 0, config.working) if not isinstance(value, complex) \
        else HPComplex(value.real, value.imag, config.working)


@dataclass(frozen=True)
class SeriesDef:
    """Parameter vectors alpha, beta (length p), argument x, precision.

    No beta_j may be zero or a negative integer (a Pochhammer denominator
    would vanish).  An alpha_j that is zero or a negative integer makes the
    series terminate after finitely many terms; this is accepted but
    flagged via ``terminating``.
    """

    alpha: tuple
    beta: tuple
    x: HPComplex
    precision: PrecisionConfig = DEFAULT_PRECISION
    terminating: bool = field(default=False, compare=False)

    def __post_init__(self):
        cfg = self.precision
        alpha = tuple(_as_hp(a, cfg) for a in self.alpha)
        beta = tuple(_as_hp(b, cfg) for b in self.beta)
        x = _as_hp(self.x, cfg)
        if len(alpha) != len(beta) or not alpha:
            raise InvalidSeriesError(
                f"alpha and beta must have equal positive length, "
                f"got {len(alpha)} and {len(beta)}"
            )
        for b in beta:
            if b.is_nonpositive_integer():
                raise InvalidSeriesError(
                    "beta parameters must not be zero or negative integers"
                )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "x", x)
        object.__setattr__(
            self, "terminating",
            any(a.is_nonpositive_integer() for a in alpha),
        )

    @property
    def p(self) -> int:
        return len(self.alpha)


class ConvergenceKind(enum.Enum):
    ABSOLUTE = "absolute"
    CONDITIONAL_BOUNDARY = "conditional-boundary"
    LOGARITHMIC_AT_ONE = "logarithmic-at-one"
    DIVERGENT = "divergent"
    TERMINATING = "terminating"


@dataclass(frozen=True)
class ConvergenceClass:
    sigma: HPComplex
    kind: ConvergenceKind
    ratio_hint: HPComplex


@dataclass(frozen=True)
class PartialSums:
    """s_0 = 0 and s_n = sum_{j<n} a_j, with the terms cached alongside.

    ``s`` has length N+1 (indices 0..N); ``a`` has length N.
    """

    s: tuple
    a: tuple

    @property
    def length(self) -> int:
        return len(self.a)

    def __len__(self):
        return len(self.s)


def to_unit_form(upper: Sequence, lower: Sequence,
                 config: PrecisionConfig = DEFAULT_PRECISION,
                 x=0) -> SeriesDef:
    """Reduce an explicit (p+1, p)-parameter specification to SeriesDef form.

    The stored series always carries an implicit unit upper parameter.  If
    some upper parameter equals 1 exactly, one occurrence is removed;
    otherwise a 1 is appended to the lower row (the matching upper 1 being
    the implicit unit).
    """
    upper = [_as_hp(u, config) for u in upper]
    lower = [_as_hp(v, config) for v in lower]
    if len(upper) != len(lower) + 1:
        raise InvalidSeriesError(
            f"expected len(upper) == len(lower) + 1, got {len(upper)} and {len(lower)}"
        )
    one = HPComplex(1, 0, config.working)
    for k, u in enumerate(upper):
        if u == one:
            alpha = tuple(upper[:k] + upper[k + 1:])
            return SeriesDef(alpha, tuple(lower), _as_hp(x, config), config)
    return SeriesDef(tuple(upper), tuple(lower) + (one,), _as_hp(x, config), config)


def _raw_params(series: SeriesDef):
    """(alpha, beta, x) as raw mpc values; call under the series' workdps,
    or x is rounded to the ambient precision."""
    return ([g.value for g in series.alpha], [g.value for g in series.beta],
            series.x.value)


def _factors(params, lo: int, hi: int, lead=1) -> list:
    """[lead * prod_g (g + k) for k = lo..hi-1] on raw values.

    The one generator of the per-index factors of the term ratio
    a_{k+1}/a_k = fa[k]/fb[k], with fa[k] = x prod_a (a+k) and
    fb[k] = prod_b (b+k); every Q path builds its coefficients from them.
    """
    out = []
    for k in range(lo, hi):
        v = lead
        for g in params:
            v = v * (g + k)
        out.append(v)
    return out


def partial_sums(series: SeriesDef, N: int) -> PartialSums:
    """s_0..s_N by running accumulation, terms a_0..a_{N-1} cached.

    An s_n within the rounding bound n * 10^(1-working) * sum_{k<n} |a_k|
    of zero is stored as an exact 0: the terms cancel completely, and the
    rounding residue would otherwise print as false digits.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    prec = series.precision.working
    with mp.workdps(prec):
        av, bv, xv = _raw_params(series)
        rounding = mp.mpf(10) ** (1 - prec)
        s = [mp.mpc(0)]
        a = [mp.mpc(1)]
        magnitude = mp.mpf(0)
        for n in range(N):
            magnitude += abs(a[-1])
            total = s[-1] + a[-1]
            if abs(total) <= (n + 1) * rounding * magnitude:
                total = mp.mpc(0)
            s.append(total)
            nxt = a[-1] * xv
            for g in av:
                nxt *= g + n
            for g in bv:
                nxt /= g + n
            a.append(nxt)
        return PartialSums(
            s=tuple(HPComplex.from_mpc(v, prec) for v in s),
            a=tuple(HPComplex.from_mpc(v, prec) for v in a[:N]),
        )


def term_ratio(series: SeriesDef, n: int) -> HPComplex:
    """t_n = a_{n+1}/a_n in closed form: x * prod(alpha_j+n)/prod(beta_j+n)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if series.terminating:
        # a_n vanishes beyond the smallest -alpha_j
        cutoff = min(int(-a.re) for a in series.alpha if a.is_nonpositive_integer())
        if n > cutoff:
            raise ValueError(f"a_{n} = 0 for this terminating series")
    prec = series.precision.working
    with mp.workdps(prec):
        av, bv, xv = _raw_params(series)
        num, = _factors(av, n, n + 1, xv)
        den, = _factors(bv, n, n + 1)
        return HPComplex.from_mpc(num / den, prec)


def classify(series: SeriesDef) -> ConvergenceClass:
    """Convergence kind from (x, sigma) with sigma = 1 + sum(alpha) - sum(beta).

    |x| < 1 converges absolutely; on the unit circle away from 1 it
    converges when Re sigma < 1, and at x = 1 when Re sigma < 0.  The
    classification is advisory: divergent inputs are not rejected.
    """
    prec = series.precision.working
    sigma = HPComplex(1, 0, prec)
    for a in series.alpha:
        sigma = sigma + a
    for b in series.beta:
        sigma = sigma - b
    x = series.x
    with mp.workdps(prec):
        modulus = abs(x.value)
        tol = mp.mpf(10) ** (4 - prec)
        on_circle = abs(modulus - 1) <= tol
        one = HPComplex(1, 0, prec)
        if series.terminating:
            kind, hint = ConvergenceKind.TERMINATING, x
        elif modulus < 1 and not on_circle:
            kind, hint = ConvergenceKind.ABSOLUTE, x
        elif on_circle and x != one and sigma.re < 1:
            kind, hint = ConvergenceKind.CONDITIONAL_BOUNDARY, x
        elif x == one and sigma.re < 0:
            kind, hint = ConvergenceKind.LOGARITHMIC_AT_ONE, one
        else:
            kind, hint = ConvergenceKind.DIVERGENT, x
    return ConvergenceClass(sigma=sigma, kind=kind, ratio_hint=hint)
