"""Reference sequence transformations: Wynn epsilon, Levin variants, Aitken.

These serve as comparison methods and as the independent side of the p = 1
equivalence (even epsilon columns coincide with the quotient transformation
there).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from mpmath import mp

from .numerics import HPComplex
from .series import PartialSums


@dataclass
class EpsilonTable:
    """eps[(n, k)] with eps_0^(n) = s_n; odd columns are auxiliary only.

    Cells whose rhombus division would blow up are dropped and recorded in
    ``flagged``.
    """

    eps: dict = field(default_factory=dict)
    flagged: set = field(default_factory=set)

    def get(self, n: int, k: int):
        return self.eps.get((n, k))


class LevinVariant(enum.Enum):
    T = "t"   # omega_n = a_n
    D = "d"   # omega_n = a_{n+1}
    U = "u"   # omega_n = (n+1) a_n
    V = "v"   # omega_n = a_n a_{n+1} / (a_n - a_{n+1})


@dataclass(frozen=True)
class LevinSpec:
    variant: LevinVariant = LevinVariant.T


def epsilon_table(sums: PartialSums, max_even: int) -> EpsilonTable:
    """Fill the rhombus recursion for columns 0..2*max_even.

    eps_{k+1}^(n) = eps_{k-1}^(n+1) + 1/(eps_k^(n+1) - eps_k^(n)).
    """
    if len(sums.s) < max_even + 2:
        raise ValueError("not enough partial sums for the requested depth")
    prec = sums.s[0].precision
    table = EpsilonTable()
    zero = HPComplex(0, 0, prec)
    top = len(sums.s) - 1
    for n in range(top + 1):
        table.eps[(n, -1)] = zero
        table.eps[(n, 0)] = sums.s[n]
    with mp.workdps(prec):
        tol = mp.mpf(10) ** (4 - prec)
        for k in range(0, 2 * max_even):
            for n in range(top - k):
                left = table.eps.get((n, k))
                right = table.eps.get((n + 1, k))
                back = table.eps.get((n + 1, k - 1))
                if left is None or right is None or back is None:
                    table.flagged.add((n, k + 1))
                    continue
                diff = right - left
                scale = max(abs(left), abs(right), mp.mpf(1))
                if abs(diff) < tol * scale:
                    table.flagged.add((n, k + 1))
                    continue
                table.eps[(n, k + 1)] = back + HPComplex(1, 0, prec) / diff
    return table


def _omega(sums: PartialSums, spec: LevinSpec, n: int) -> HPComplex:
    a = sums.a
    if spec.variant is LevinVariant.T:
        w = a[n]
    elif spec.variant is LevinVariant.D:
        w = a[n + 1]
    elif spec.variant is LevinVariant.U:
        w = (n + 1) * a[n]
    else:
        denom = a[n] - a[n + 1]
        if denom.is_zero():
            raise ZeroDivisionError(f"v-variant remainder estimate undefined at n={n}")
        w = a[n] * a[n + 1] / denom
    if w.is_zero():
        raise ZeroDivisionError(f"zero remainder estimate omega at n={n}")
    return w


def levin(sums: PartialSums, spec: LevinSpec, m: int, n: int) -> HPComplex:
    """Classic Levin quotient of order m at base index n.

    Weights (-1)^j C(m, j) (n+j+1)^{m-1} / omega_{n+j} applied to
    s_{n+j} over the same weights applied to 1.
    """
    if m == 0:
        return sums.s[n]
    prec = sums.s[0].precision
    num = HPComplex(0, 0, prec)
    den = HPComplex(0, 0, prec)
    with mp.workdps(prec):
        for j in range(m + 1):
            base = HPComplex(n + j + 1, 0, prec) ** (m - 1)
            w = (HPComplex((-1) ** j * math.comb(m, j), 0, prec) * base
                 / _omega(sums, spec, n + j))
            num = num + w * sums.s[n + j]
            den = den + w
    return num / den


def aitken(sums: PartialSums, iterations: int, n: int) -> HPComplex:
    """Iterated Delta^2: s'_n = s_n - (Delta s_n)^2 / Delta^2 s_n."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    seq = list(sums.s)
    prec = sums.s[0].precision
    with mp.workdps(prec):
        tol = mp.mpf(10) ** (4 - prec)
        for _ in range(iterations):
            nxt = []
            for i in range(len(seq) - 2):
                d1 = seq[i + 1] - seq[i]
                d2 = seq[i + 2] - 2 * seq[i + 1] + seq[i]
                scale = max(abs(seq[i]), abs(seq[i + 2]), mp.mpf(1))
                if abs(d2) < tol * scale:
                    raise DegenerateAitkenError(
                        f"second difference negligible at index {i}"
                    )
                nxt.append(seq[i] - d1 * d1 / d2)
            seq = nxt
    if n >= len(seq):
        raise ValueError("not enough partial sums for the requested iterations")
    return seq[n]


class DegenerateAitkenError(ArithmeticError):
    """Second difference too small to divide by."""
