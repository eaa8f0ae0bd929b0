"""Exact-rational reference values, written independently of the package.

The quantities the benchmark checks are recomputed here from their defining
formulas, without the package's code, so a change to the package cannot
move its own yardstick.  Fraction arithmetic (Gaussian rationals for
complex parameters) gives exact values of:

* partial sums s_n of sum_k [alpha]_k/[beta]_k x^k;
* Q^(m)_n = sum_j lambda_j s_{n+j} / sum_j lambda_j with
  lambda_j = C(mp, j) (-x)^{mp-j} prod_i (alpha_i+n+j)_{mp-j} (beta_i+n+m-1)_j;
* Wynn epsilon and the Levin t/d/u/v quotients.

Iterated Aitken Delta^2 is generic over the number type: its exact
rationals grow about threefold per iteration, so the checker runs it in
mpmath far above the displayed precision.

Limits come from mpmath.hyper or closed forms at a precision well above the
displayed digits.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath


class GQ:
    """Exact Gaussian rational re + im*i (im is 0 for real values)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def of(value) -> "GQ":
        return value if isinstance(value, GQ) else GQ(value)

    def __add__(self, other):
        o = GQ.of(other)
        return GQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GQ.of(other)
        return GQ(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GQ.of(other) - self

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __mul__(self, other):
        o = GQ.of(other)
        if not self.im and not o.im:
            return GQ(self.re * o.re)
        return GQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GQ.of(other)
        if not o:
            raise ZeroDivisionError("exact division by zero")
        if not self.im and not o.im:
            return GQ(self.re / o.re)
        norm = o.re * o.re + o.im * o.im
        return GQ((self.re * o.re + self.im * o.im) / norm,
                  (self.im * o.re - self.re * o.im) / norm)

    def __rtruediv__(self, other):
        return GQ.of(other) / self

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GQ({self.re}, {self.im})"

    def is_nonpositive_integer(self) -> bool:
        return not self.im and self.re <= 0 and self.re.denominator == 1

    def to_mpc(self, dps: int = 200):
        with mpmath.workdps(dps):
            return mpmath.mpc(mpmath.mpf(self.re.numerator) / self.re.denominator,
                              mpmath.mpf(self.im.numerator) / self.im.denominator)


def parse_literal(text: str) -> GQ:
    """Exact value of a literal in the package's grammar ('25/27', '1.7-3.0i')."""
    s = text.strip()
    if s[-1] not in "iIjJ":
        return GQ(Fraction(s))
    body = s[:-1]
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            re_part, im_part = body[:k], body[k:]
            break
    else:
        re_part, im_part = "0", body
    if im_part in ("", "+", "-"):
        im_part += "1"
    return GQ(Fraction(re_part), Fraction(im_part))


def poch(g: GQ, start: int, count: int) -> GQ:
    """(g + start)_count = prod_{k<count} (g + start + k)."""
    out = GQ(1)
    for k in range(count):
        out = out * (g + (start + k))
    return out


class ExactSeries:
    """Partial sums of sum_k [alpha]_k/[beta]_k x^k, extended on demand."""

    def __init__(self, alpha, beta, x):
        self.alpha = tuple(GQ.of(a) for a in alpha)
        self.beta = tuple(GQ.of(b) for b in beta)
        self.x = GQ.of(x)
        self.terms = [GQ(1)]
        self.sums = [GQ(0)]

    @property
    def p(self) -> int:
        return len(self.alpha)

    @property
    def terminating(self) -> bool:
        return any(a.is_nonpositive_integer() for a in self.alpha)

    def _extend(self, count: int):
        while len(self.terms) < count:
            k = len(self.terms) - 1
            ratio = self.x
            for a in self.alpha:
                ratio = ratio * (a + k)
            for b in self.beta:
                ratio = ratio / (b + k)
            self.terms.append(self.terms[-1] * ratio)
        while len(self.sums) <= count:
            self.sums.append(self.sums[-1] + self.terms[len(self.sums) - 1])

    def a(self, k: int) -> GQ:
        self._extend(k + 1)
        return self.terms[k]

    def s(self, n: int) -> GQ:
        """s_n = a_0 + ... + a_{n-1}, with s_0 = 0."""
        self._extend(n)
        return self.sums[n]

    def finite_sum(self) -> GQ:
        """Exact value of a terminating series."""
        cutoff = min(int(-a.re) for a in self.alpha if a.is_nonpositive_integer())
        return self.s(cutoff + 1)

    def q_condition(self, m: int, n: int):
        """(Q^(m)_n, digits lost to cancellation, number of summands).

        The loss is log10 of the larger of sum|l_j s_{n+j}|/|sum l_j s_{n+j}|
        and sum|l_j|/|sum l_j|: what rounding the weights at a fixed
        working precision costs a correct evaluation of the quotient.
        """
        if m == 0:
            return self.s(n), _loss([self.a(k) for k in range(n)]), n
        weights = self.lambda_weights(m, n)
        return _quotient(weights, [self.s(n + j) for j in range(len(weights))])

    def lambda_weights(self, m: int, n: int) -> list:
        width = m * self.p
        neg_x = -self.x
        out = []
        for j in range(width + 1):
            lam = GQ(math.comb(width, j))
            for _ in range(width - j):
                lam = lam * neg_x
            for a in self.alpha:
                lam = lam * poch(a, n + j, width - j)
            for b in self.beta:
                lam = lam * poch(b, n + m - 1, j)
            out.append(lam)
        return out

    def levin_condition(self, variant: str, m: int, n: int):
        """(Levin quotient with shift 1, digits lost, summands); value None
        when a remainder estimate vanishes."""
        weights = []
        for j in range(m + 1):
            k = n + j
            if variant == "t":
                omega = self.a(k)
            elif variant == "d":
                omega = self.a(k + 1)
            elif variant == "u":
                omega = (k + 1) * self.a(k)
            else:
                gap = self.a(k) - self.a(k + 1)
                if not gap:
                    return None, 0.0, m + 1
                omega = self.a(k) * self.a(k + 1) / gap
            if not omega:
                return None, 0.0, m + 1
            weights.append(GQ((-1) ** j * math.comb(m, j)
                              * Fraction(k + 1) ** (m - 1)) / omega)
        return _quotient(weights, [self.s(n + j) for j in range(m + 1)])


def _abs(value: GQ):
    return abs(value.to_mpc(30))


def _loss(parts) -> float:
    """log10(sum|parts| / |sum parts|), 0 for an empty or exact-zero sum."""
    total = sum(parts, GQ(0))
    if not total:
        return 0.0
    with mpmath.workdps(30):
        return max(0.0, float(mpmath.log10(sum(_abs(v) for v in parts) / _abs(total))))


def _quotient(weights, values):
    den = sum(weights, GQ(0))
    if not den:
        return None, 0.0, len(weights)
    terms = [w * v for w, v in zip(weights, values)]
    num = sum(terms, GQ(0))
    return num / den, max(_loss(weights), _loss(terms)), len(weights)


def wynn_epsilon(values: list, max_even: int, is_zero) -> dict:
    """Wynn's rhombus rule on s_0..s_N: even columns eps[(n, 2k)].

    Works on GQ values exactly or on mpmath values at the caller's
    precision; a cell whose difference ``is_zero`` is left out.
    """
    top = len(values) - 1
    eps = {}
    for n in range(top + 1):
        eps[(n, -1)] = 0 * values[0]
        eps[(n, 0)] = values[n]
    for k in range(2 * max_even):
        for n in range(top - k):
            left, right = eps.get((n, k)), eps.get((n + 1, k))
            back = eps.get((n + 1, k - 1))
            if left is None or right is None or back is None or is_zero(right - left):
                continue
            eps[(n, k + 1)] = back + 1 / (right - left)
    return {key: v for key, v in eps.items() if key[1] >= 0 and key[1] % 2 == 0}


def iterated_aitken(values: list, iterations: int) -> list:
    """columns[it][n]: it-fold iterated Delta^2 of the values."""
    seq = list(values)
    columns = [seq]
    for _ in range(iterations):
        nxt = []
        for i in range(len(seq) - 2):
            d2 = seq[i + 2] - 2 * seq[i + 1] + seq[i]
            if not d2:
                break
            d1 = seq[i + 1] - seq[i]
            nxt.append(seq[i] - d1 * d1 / d2)
        seq = nxt
        columns.append(seq)
    return columns


def hyper_limit(series: ExactSeries, dps: int):
    """sum_k [alpha]_k/[beta]_k x^k = pFq([1]+alpha; beta; x) at dps digits."""
    with mpmath.workdps(dps):
        if series.terminating:
            return series.finite_sum().to_mpc(dps)
        upper = [mpmath.mpf(1)] + [a.to_mpc(dps) for a in series.alpha]
        lower = [b.to_mpc(dps) for b in series.beta]
        return mpmath.mpc(mpmath.hyper(upper, lower, series.x.to_mpc(dps)))


def agreement(value, exact) -> float:
    """Digits of agreement -log10|value/exact - 1| (inf when equal)."""
    with mpmath.workdps(200):
        value, exact = mpmath.mpc(value), mpmath.mpc(exact)
        if value == exact:
            return math.inf
        if exact == 0:
            return -math.inf
        return float(-mpmath.log10(abs(value / exact - 1)))


def parse_printed(text: str):
    """mpc value of a number as the CLI prints it ('1.25', '-2.5e-3+4i')."""
    return parse_literal(text).to_mpc()
