"""Parse what the CLI printed and check it against the benchmark's references.

A printed value passes when it agrees with the exact value of the same cell
to at least the digits a correct evaluation at the documented working
precision (digits + GUARD) can deliver:

* linear cells (partial sums, Q^(m)_n, Levin): displayed digits minus the
  cancellation the exact weights imply beyond the guard digits;
* epsilon and Aitken cells: the agreement the benchmark's own replay of the
  same recursion at the working precision reaches.

MARGIN more digits are allowed on top for rounding of the printed value.
Separately from pass/fail, every checked value contributes its false digits
(displayed digits minus digits of agreement with the exact cell), and the
best printed value of a request its acc digits against the limit.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import mpmath

from exact import (GQ, agreement, hyper_limit, iterated_aitken, parse_printed,
                   wynn_epsilon)
from workloads import PRESETS, Request

GUARD = 10      # the package's documented guard digits
MARGIN = 1.5    # rounding of the printed value plus slack, in digits
STORE_DPS = 120


class CheckFailure(Exception):
    """The output of one request is malformed or wrong."""


@dataclass
class Verdict:
    ok: bool = True
    reason: str = ""
    cells: int = 0
    acc: list = field(default_factory=list)
    false_digits: list = field(default_factory=list)


# -- references ----------------------------------------------------------

def _store(value):
    if value is None:
        return None
    with mpmath.workdps(STORE_DPS):
        z = value.to_mpc(STORE_DPS) if isinstance(value, GQ) else mpmath.mpc(value)
        return [mpmath.nstr(z.real, STORE_DPS), mpmath.nstr(z.imag, STORE_DPS)]


def _load(entry):
    with mpmath.workdps(STORE_DPS):
        return mpmath.mpc(mpmath.mpf(entry[0]), mpmath.mpf(entry[1]))


def _closed_form_limit(family: str, dps: int):
    with mpmath.workdps(dps):
        if family == "ex1":
            return mpmath.mpc((44 * mpmath.sqrt(2) - 16) / 35)
        if family == "ex2":
            return mpmath.mpc(3 * mpmath.sqrt(3) / 4)
    raise KeyError(family)


class References:
    """Limits and exact cell values, memoized in a plain dict that the
    runner saves per workload and seed, so repeated runs skip the work."""

    def __init__(self, store: dict):
        self.store = store
        self._tables = {}

    def limit(self, req: Request):
        """Reference limit (mpc), or None for a reference-limited series."""
        key = f"{req.key}|limit"
        if key not in self.store:
            self.store[key] = _store(self._compute_limit(req))
        entry = self.store[key]
        return None if entry is None else _load(entry)

    def _compute_limit(self, req: Request):
        if req.reference_limited:
            return None
        digits = req.slot.digits
        if req.family in PRESETS:
            return _closed_form_limit(req.family, digits + 40)
        low = hyper_limit(req.series, digits + 30)
        high = hyper_limit(req.series, digits + 45)
        if agreement(low, high) < digits + 20:
            return None
        return high

    def limit_literal(self, req: Request) -> str:
        """The limit as a literal the CLI accepts, good beyond its precision."""
        z = self.limit(req)
        dps = req.slot.digits + GUARD + 10
        with mpmath.workdps(dps):
            re_part = mpmath.nstr(z.real, dps)
            if z.imag == 0:
                return re_part
            im_part = mpmath.nstr(z.imag, dps)
        sign = "" if im_part.startswith("-") else "+"
        return f"{re_part}{sign}{im_part}i"

    def cell(self, req: Request, method: str, n: int, m: int):
        """(exact value or None, required digits of agreement)."""
        key = f"{req.key}|{method}:{n}:{m}"
        if key not in self.store:
            value, required = self._compute_cell(req, method, n, m)
            self.store[key] = [_store(value), required]
        entry, required = self.store[key]
        return (None if entry is None else _load(entry)), required

    def _compute_cell(self, req: Request, method: str, n: int, m: int):
        series, digits = req.series, req.slot.digits
        if m == 0 or method == "q" or method.startswith("levin-"):
            if m == 0 or method == "q":
                value, loss, count = series.q_condition(m, n)
            else:
                value, loss, count = series.levin_condition(method[-1], m, n)
            allowance = max(0.0, loss + math.log10(max(count, 1)) - GUARD)
            return value, digits - allowance - MARGIN
        exact, replay = self._nonlinear(req, method)
        value = exact.get((n, m))
        if value is None:
            return None, 0.0
        if isinstance(value, GQ):
            value = value.to_mpc()
        reached = agreement(replay[(n, m)], value) if (n, m) in replay else -math.inf
        return value, min(digits, reached) - MARGIN

    def _nonlinear(self, req: Request, method: str):
        """Exact and working-precision tables {(n, m): value} for the method."""
        key = (req.key, method)
        if key not in self._tables:
            budget, max_m = req.slot.budget, req.slot.max_m
            sums = [req.series.s(k) for k in range(budget + 1)]
            working = req.slot.digits + GUARD
            if method == "epsilon":
                depth = min(max_m, (budget - 1) // 2)
                exact = wynn_epsilon(sums, depth, lambda d: not d)
                with mpmath.workdps(working):
                    tol = mpmath.mpf(10) ** (4 - working)
                    replay = wynn_epsilon([v.to_mpc(working) for v in sums], depth,
                                          lambda d: abs(d) < tol)
                exact = {(n, k // 2): v for (n, k), v in exact.items()}
                replay = {(n, k // 2): v for (n, k), v in replay.items()}
            else:
                with mpmath.workdps(600):
                    exact_cols = iterated_aitken([v.to_mpc(600) for v in sums], max_m)
                with mpmath.workdps(working):
                    replay_cols = iterated_aitken(
                        [v.to_mpc(working) for v in sums], max_m)
                exact = {(n, it): col[n] for it, col in enumerate(exact_cols)
                         for n in range(len(col))}
                replay = {(n, it): col[n] for it, col in enumerate(replay_cols)
                          for n in range(len(col))}
            self._tables[key] = (exact, replay)
        return self._tables[key]


# -- output parsers --------------------------------------------------------

SUM_LINE = re.compile(r"^Q\((\d+)\)_1 = (\S+)(?:  acc=(-?[\d.]+))?$")


def parse_sections(text: str, fmt: str, methods: list) -> list:
    """[(method, {(n, m): printed string or None})] for table/compare output."""
    if fmt == "json":
        decoder, pos, out = json.JSONDecoder(), 0, []
        while True:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos == len(text):
                break
            doc, pos = decoder.raw_decode(text, pos)
            cells = {}
            for cell in doc["cells"]:
                cells[(cell["n"], cell["m"])] = cell.get("value")
            out.append((doc["meta"]["method"], cells, doc["cells"]))
        return out
    blocks = []
    for line in text.splitlines():
        if line.startswith("# method="):
            blocks.append((line[len("# method="):], []))
        elif line.strip():
            if not blocks:
                blocks.append((methods[0], []))
            blocks[-1][1].append(line)
    out = []
    for method, lines in blocks:
        cells = {}
        for line in lines[1:]:
            if fmt == "csv":
                tokens = line.split(",")
            else:
                tokens = line.split()
            n = int(tokens[0])
            for m, token in enumerate(tokens[1:]):
                cells[(n, m)] = None if token in ("", "-") else token
        out.append((method, cells, None))
    return out


def triangle(budget: int, max_m: int, step: int) -> set:
    return {(n, m) for n in range(1, budget + 1) for m in range(max_m + 1)
            if n + m * step <= budget}


def _step(method: str, p: int) -> int:
    if method == "q":
        return p
    return 1 if method.startswith("levin-") else 2


def _checked(n: int, m: int, max_m: int) -> bool:
    """Cells compared with exact values: column 0, column 1, and a sample
    of row 1 that always holds the highest order."""
    row_sample = {1, 2, 3, max_m // 2, max_m - 1, max_m}
    return m <= 1 or (n == 1 and m in row_sample)


# -- the checker -------------------------------------------------------------

class Checker:
    def __init__(self, refs: References):
        self.refs = refs

    def check(self, req: Request, code, out: str) -> Verdict:
        verdict = Verdict()
        try:
            if code != 0:
                raise CheckFailure(f"exit code {code}")
            handler = getattr(self, "_" + req.slot.command)
            handler(req, out, verdict)
        except CheckFailure as exc:
            verdict.ok, verdict.reason = False, str(exc)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            verdict.ok, verdict.reason = False, f"unparseable output: {exc!r}"
        return verdict

    def _value(self, req, method, n, m, printed, verdict):
        """Check one printed value against the exact cell."""
        exact, required = self.refs.cell(req, method, n, m)
        if exact is None:
            return
        got = agreement(parse_printed(printed), exact)
        verdict.cells += 1
        digits = req.slot.digits
        if got != math.inf:
            verdict.false_digits.append(digits - got)
        if got < required:
            raise CheckFailure(f"{method} cell ({n}, {m}) = {printed} agrees with "
                               f"the exact value to {got:.1f} digits, "
                               f"{required:.1f} required")

    def _acc(self, req, printed, verdict):
        limit = self.refs.limit(req)
        if limit is not None:
            got = agreement(parse_printed(printed), limit)
            verdict.acc.append(min(float(req.slot.digits), got))

    def _sum(self, req, out, verdict):
        lines = out.splitlines()
        match = SUM_LINE.match(lines[0]) if len(lines) == 1 else None
        if match is None:
            raise CheckFailure(f"unparseable sum output {out[:80]!r}")
        m, printed = int(match.group(1)), match.group(2)
        top = min(req.slot.max_m, (req.slot.budget - 1) // req.series.p)
        if m > top:
            raise CheckFailure(f"sum used order {m} beyond {top}")
        self._value(req, "q", 1, m, printed, verdict)
        self._acc(req, printed, verdict)
        limit = self.refs.limit(req)
        if match.group(3) is not None and limit is not None:
            expected = min(float(req.slot.digits), agreement(parse_printed(printed), limit))
            if expected < req.slot.digits - 2 and abs(float(match.group(3)) - expected) > 0.11:
                raise CheckFailure(f"sum acc={match.group(3)}, expected {expected:.2f}")

    def _table(self, req, out, verdict):
        self._sections(req, out, verdict, ["q"])

    def _compare(self, req, out, verdict):
        self._sections(req, out, verdict, req.slot.methods.split(","))

    def _sections(self, req, out, verdict, methods):
        slot, p = req.slot, req.series.p
        sections = parse_sections(out, slot.fmt, methods)
        if [s[0] for s in sections] != methods:
            raise CheckFailure(f"sections {[s[0] for s in sections]} != {methods}")
        for method, cells, raw in sections:
            full = triangle(slot.budget, slot.max_m, _step(method, p))
            if method == "q" and set(cells) != full:
                raise CheckFailure(f"{method}: cell set differs from the triangle")
            if not set(cells) <= full or not all((n, 0) in cells
                                                 for n in range(1, slot.budget + 1)):
                raise CheckFailure(f"{method}: cells outside the triangle or "
                                   f"partial sums missing")
            values = slot.fmt == "json" or slot.content == "value"
            for (n, m), printed in sorted(cells.items()):
                if printed is None or not _checked(n, m, slot.max_m):
                    continue
                if values:
                    self._value(req, method, n, m, printed, verdict)
                else:
                    self._derived(req, method, n, m, printed, verdict)
            if raw is not None:
                for cell in raw:
                    if "acc" in cell and _checked(cell["n"], cell["m"], slot.max_m):
                        self._derived(req, method, cell["n"], cell["m"],
                                      cell["acc"], verdict, content="acc")
            best = cells.get((1, slot.max_m))
            if values and best is not None:
                self._acc(req, best, verdict)

    def _derived(self, req, method, n, m, printed, verdict, content=None):
        """Check an acc or ratio cell where the exact cell pins it down."""
        content = content or req.slot.content
        if content == "condition":
            return
        exact, required = self.refs.cell(req, method, n, m)
        limit = self.refs.limit(req)
        if exact is None or limit is None:
            return
        with mpmath.workdps(STORE_DPS):
            acc_exact = agreement(exact, limit)
            if acc_exact > required - 3:
                return      # the value's own rounding decides the last digits
            verdict.cells += 1
            if content == "acc":
                expected = min(float(req.slot.digits), acc_exact)
                if abs(float(printed) - expected) > 0.11:
                    raise CheckFailure(f"{method} acc ({n}, {m}) = {printed}, "
                                       f"expected {expected:.2f}")
                return
            base, _ = self.refs.cell(req, method, n, 0)
            if abs(base - limit) == 0:
                return
            expected = abs(exact - limit) / abs(base - limit)
            if abs(float(printed) / expected - 1) > 1e-3:
                raise CheckFailure(f"{method} ratio ({n}, {m}) = {printed}, "
                                   f"expected {mpmath.nstr(expected, 8)}")

    def _diagnose(self, req, out, verdict):
        slot, series = req.slot, req.series
        limit = self.refs.limit(req)
        expected_conditions = {(n, m) for m in range(1, slot.max_m + 1)
                               for n in range(1, slot.budget - m * series.p + 1)}
        b1 = sum(series.alpha, GQ(0)) - sum(series.beta, GQ(0))
        if slot.fmt == "json":
            doc = json.loads(out)
            b1_printed, digits = doc["b1"], slot.digits
            conditions = {(c["n"], c["m"]) for c in doc["condition"]}
            ratios = [(r["n"], r["value"]) for r in doc["remainder_ratios"]]
        else:
            head, _, rest = out.partition("acceleration condition (values should approach 1):\n")
            fields = dict(line.split(": ", 1) for line in head.splitlines())
            table_text, _, ratio_text = rest.partition("remainder ratios r_{n+1}/r_n:\n")
            # the text report prints b1 with 10 digits and the ratios with 8
            b1_printed, digits = fields["b1"], 10
            grid = parse_sections(table_text, slot.fmt, ["condition"])[0][1]
            conditions = {key for key, v in grid.items() if v is not None}
            ratios = []
            for line in ratio_text.splitlines():
                label, value = line.split()
                ratios.append((int(label[2:]), value))
        if conditions != expected_conditions:
            raise CheckFailure("condition cells differ from the expected triangle")
        if b1:
            self._number("b1", b1_printed, b1.to_mpc(), digits - MARGIN, verdict)
        if limit is None:
            return
        if [n for n, _ in ratios] != list(range(1, slot.budget)):
            raise CheckFailure("remainder ratios missing")
        working = slot.digits + GUARD
        ratio_digits = slot.digits if slot.fmt == "json" else 8
        for n, printed in ratios:
            with mpmath.workdps(STORE_DPS):
                r0 = limit - series.s(n).to_mpc()
                r1 = limit - series.s(n + 1).to_mpc()
                if not r0 or not r1:
                    continue
                lost = float(mpmath.log10(abs(limit) / abs(r1)))
                exact = r1 / r0
            self._number(f"ratio n={n}", printed, exact,
                         min(ratio_digits, working - lost) - MARGIN, verdict)

    @staticmethod
    def _number(label, printed, exact, required, verdict):
        got = agreement(parse_printed(printed), exact)
        verdict.cells += 1
        if got < required:
            raise CheckFailure(f"{label} = {printed} agrees to {got:.1f} digits, "
                               f"{required:.1f} required")
