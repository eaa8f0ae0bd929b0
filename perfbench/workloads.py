"""Seeded request generator for the three benchmark workloads.

A workload is a fixed cycle of request slots.  Each slot fixes the
subcommand, the output options, the series family and the size, so the mix
proportions never change between seeds; the seed only draws the parameters
of the seeded families.  Requests are cycled until the run's time is up.

Series families (``kind@x``: the slot fixes x, the seed draws the rest):

* ``ex1``, ``ex2``, ``ex3``: the package's presets (ex3's limit is a
  16-digit literal, so it is reference-limited and left out of acc);
* ``rat@x``: rational alpha, beta, with x = -1 or |x| < 1; at x = -1 the
  draw keeps Re(sum beta - sum alpha) >= 1/2, so the series converges;
* ``cplx@x``: the same with complex parameters;
* ``term@x``: a terminating series (one alpha a non-positive integer).

x is fixed per slot because it sets the convergence rate, and with it how
much work the classic methods do before they stop on a degenerate cell.

Every flag is passed as ``--flag=value``: the CLI's argparse reads a value
such as ``-3,1/2`` after a separate ``--alpha`` as an option.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from exact import GQ, ExactSeries, parse_literal

PRESETS = {
    "ex1": (("3", "-1/2"), ("4", "1"), "-1"),
    "ex2": (("1/6", "1/3"), ("1/2", "1"), "25/27"),
    "ex3": (("1.7+2.5i", "1.5+2.0i"), ("1.3-3.0i", "3.2-4.0i"), "1"),
}
REFERENCE_LIMITED = {"ex3"}

CLASSIC_METHODS = "epsilon,levin-t,levin-u,levin-d,levin-v,aitken"


@dataclass(frozen=True)
class Slot:
    command: str
    family: str
    p: int = 2
    fmt: str = "text"
    content: str = "value"
    path: str = "direct"
    digits: int = 32
    budget: int = 15
    max_m: int = 7
    methods: str = ""


@dataclass
class Request:
    """One CLI invocation plus what the checker needs to know about it."""

    index: int
    workload: str
    slot: Slot
    argv: list
    family: str
    alpha: tuple            # literals as passed (or the preset's)
    beta: tuple
    x: str
    needs_limit: bool = False
    limit_literal: str = ""
    series: ExactSeries = field(default=None, repr=False)

    @property
    def key(self) -> str:
        """Identifies the request's inputs; keys its cached references."""
        return " ".join(a for a in self.argv if not a.startswith("--limit="))

    @property
    def reference_limited(self) -> bool:
        return self.family in REFERENCE_LIMITED


def _deep(command, family, p):
    max_m = {1: 40, 2: 20, 3: 13}[p]
    fmt = "json" if command == "table" else "text"
    return Slot(command, family, p, fmt=fmt, digits=32, budget=41, max_m=max_m)


def _classic(family, p):
    return Slot("compare", family, p, fmt="json", digits=64, budget=25,
                max_m=12, methods=CLASSIC_METHODS)


WORKLOADS = {
    # the paper's headline use: high orders, almost all lambda-weight work
    "deep-q": [
        _deep("sum", "ex2", 2),
        _deep("table", "rat@-1", 2),
        _deep("sum", "rat@2/3", 1),
        _deep("table", "ex3", 2),
        _deep("sum", "rat@-1", 3),
        _deep("table", "ex1", 2),
        _deep("sum", "rat@-2/3", 2),
        _deep("table", "rat@-1", 1),
    ],
    # epsilon / Levin / Aitken only: the Q layer does no work here
    "classic": [
        _classic("ex1", 2),
        _classic("rat@-1", 2),
        _classic("ex2", 2),
        _classic("rat@2/3", 1),
        _classic("ex3", 2),
        _classic("rat@-2/3", 3),
    ],
    # default-size requests over every subcommand and output option
    "interactive": [
        Slot("table", "ex1"),
        Slot("table", "ex2", fmt="csv", content="acc", path="remainder", digits=20),
        Slot("table", "rat@-1", fmt="json", path="operator"),
        Slot("table", "rat@2/3", content="ratio", path="recursion3f2", digits=64),
        Slot("sum", "cplx@-2/3", p=1),
        Slot("sum", "rat@-1/3", p=1, path="operator", digits=20),
        Slot("sum", "ex2", path="recursion3f2", digits=64),
        Slot("sum", "rat@1/3", p=3, path="remainder"),
        Slot("compare", "ex1", methods="q,epsilon,levin-t,aitken"),
        Slot("compare", "rat@-2/3", p=1, fmt="json", digits=20,
             methods="q,epsilon,levin-u"),
        Slot("compare", "ex2", fmt="csv", content="acc", digits=64,
             methods="epsilon,levin-d,aitken"),
        Slot("diagnose", "ex2"),
        Slot("diagnose", "rat@-1", fmt="json", digits=20),
        Slot("diagnose", "cplx@1/3", fmt="csv", digits=64),
        Slot("table", "rat@1/3", p=1, fmt="csv", content="condition", digits=20),
        Slot("table", "ex3", fmt="json", digits=64),
        Slot("sum", "term@1/2", p=2),
        Slot("table", "term@-3/4", p=1, path="remainder", digits=20),
        Slot("compare", "term@-1/4", fmt="json", methods="q,epsilon,levin-t"),
        Slot("table", "cplx@-1", fmt="csv", path="recursion3f2"),
        Slot("sum", "ex3", path="operator", digits=64),
        Slot("table", "ex1", fmt="json", content="acc", path="operator"),
        Slot("compare", "rat@2/3", content="ratio", methods="q,levin-v"),
        Slot("table", "rat@-1/3", p=3, max_m=4, path="operator"),
        Slot("diagnose", "rat@-2/3", p=1),
    ],
}


def fraction_literal(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _rational(rng, lo, hi):
    """A rational in [lo, hi] whose denominator is not a power of two.

    Such values have full-length binary mantissas, so the cost of the
    arithmetic does not depend on which value the seed draws.
    """
    while True:
        den = rng.choice((3, 5, 6, 7, 9))
        q = Fraction(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)
        if q.denominator & (q.denominator - 1):
            return q


def _complex_literal(rng, lo, hi):
    """A complex literal with non-dyadic tenths in both parts."""
    def tenths(a, b):
        while True:
            k = rng.randint(round(a * 10), round(b * 10))
            if k % 5:
                return Fraction(k, 10)
    re = tenths(lo, hi)
    im = tenths(0.5, 2.5) * rng.choice((-1, 1))
    sign = "+" if im > 0 else "-"
    return f"{float(re):g}{sign}{float(abs(im)):g}i"


def draw_series(rng: random.Random, family: str, p: int):
    """(alpha, beta, x) literals for one seeded series of the family."""
    kind, x = family.split("@")
    if kind == "term":
        # a_k vanishes from k = cutoff + 1 on
        cutoff = rng.randint(3, 6)
        alpha = [str(-cutoff)] + [fraction_literal(_rational(rng, 0.2, 2.5))
                                  for _ in range(p - 1)]
        beta = [fraction_literal(_rational(rng, 0.5, 4)) for _ in range(p)]
        return tuple(alpha), tuple(beta), x
    while True:
        if kind == "cplx":
            alpha = [_complex_literal(rng, -1, 2) for _ in range(p)]
            beta = [_complex_literal(rng, 0.5, 4) for _ in range(p)]
        else:
            alpha = [fraction_literal(_rational(rng, -2.5, 2.5)) for _ in range(p)]
            beta = [fraction_literal(_rational(rng, 0.5, 4)) for _ in range(p)]
        exact_alpha = [parse_literal(a) for a in alpha]
        if any(a.is_nonpositive_integer() for a in exact_alpha):
            continue
        gap = sum((parse_literal(b) for b in beta), GQ(0)) - sum(exact_alpha, GQ(0))
        if x == "-1" and gap.re < Fraction(1, 2):
            continue
        return tuple(alpha), tuple(beta), x


def _argv(slot: Slot, family: str, alpha, beta, x) -> list:
    argv = [slot.command]
    if family in PRESETS:
        argv.append(f"--preset={family}")
    else:
        argv += [f"--alpha={','.join(alpha)}", f"--beta={','.join(beta)}", f"--x={x}"]
    argv += [f"--budget={slot.budget}", f"--max-m={slot.max_m}",
             f"--digits={slot.digits}"]
    if slot.command != "sum":
        argv.append(f"--format={slot.fmt}")
    if slot.command == "table":
        argv.append(f"--content={slot.content}")
    if slot.command in ("sum", "table"):
        argv.append(f"--path={slot.path}")
    if slot.command == "compare":
        argv += [f"--methods={slot.methods}", f"--content={slot.content}"]
    return argv


def generate(workload: str, seed: int):
    """The workload's requests for this seed, in order, without end."""
    slots = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    for index in itertools.count():
        slot = slots[index % len(slots)]
        family = slot.family
        if family in PRESETS:
            alpha, beta, x = PRESETS[family]
        else:
            alpha, beta, x = draw_series(rng, family, slot.p)
        needs_limit = family not in PRESETS and (
            slot.command == "diagnose" or slot.content != "value")
        yield Request(
            index=index, workload=workload, slot=slot,
            argv=_argv(slot, family, alpha, beta, x),
            family=family, alpha=alpha, beta=beta, x=x, needs_limit=needs_limit,
            series=ExactSeries([parse_literal(a) for a in alpha],
                               [parse_literal(b) for b in beta],
                               parse_literal(x)),
        )
