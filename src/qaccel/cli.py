"""Command-line front end.

Subcommands:
  sum       best available accelerated value for a series
  table     triangular array of transformed values
  compare   one table per requested method at equal partial-sum budget
  diagnose  acceleration-condition probe, remainder ratios, asymptotics
"""

from __future__ import annotations

import argparse
import sys

from .numerics import (
    HPComplex,
    PrecisionConfig,
    ParseError,
    parse_number,
    format_number,
)
from .series import (
    SeriesDef,
    InvalidSeriesError,
    partial_sums,
    classify,
)
from .qtransform import TablePath, UnsupportedShapeError, q_table
from .classic import LevinSpec, LevinVariant, epsilon_table, levin, aitken
from .diagnostics import acc, acceleration_condition, asymptotic_coeffs, ratio_probe
from .presets import get_preset
from . import report

METHODS = ("q", "epsilon", "levin-t", "levin-u", "levin-d", "levin-v", "aitken")

# --format -> report emitter, looked up by name at each call, so that a
# wrapper bound over the report function (the per-layer trace) sees it
_EMITTERS = {"csv": "table_csv", "text": "table_text"}


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaccel",
        description="High-precision summation of slowly convergent series "
                    "by sequence transformation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sum", "print the best accelerated approximation"),
        ("table", "print the triangular array of transformed values"),
        ("compare", "run several transformation methods side by side"),
        ("diagnose", "probe the acceleration condition and asymptotics"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--alpha", help="comma-separated upper parameters")
        p.add_argument("--beta", help="comma-separated lower parameters")
        p.add_argument("--x", help="series argument")
        p.add_argument("--preset", choices=("ex1", "ex2", "ex3"))
        p.add_argument("--budget", type=int, default=15,
                       help="number of partial sums available (default 15)")
        p.add_argument("--max-m", type=int, default=7, dest="max_m",
                       help="highest transformation order (default 7)")
        p.add_argument("--methods", default="q",
                       help="comma list from: " + ",".join(METHODS))
        p.add_argument("--limit", help="reference limit literal")
        p.add_argument("--digits", type=int, default=32,
                       help="significant decimal digits (default 32)")
        p.add_argument("--format", choices=("csv", "json", "text"),
                       default="text", dest="fmt")
        p.add_argument("--content", choices=("value", "acc", "ratio", "condition"),
                       default="value")
        p.add_argument("--path",
                       choices=[p_.value for p_ in TablePath],
                       default="direct")
        p.add_argument("--strict", action="store_true",
                       help="exit 1 when any cell is degenerate")
    return parser


def _resolve_series(args) -> tuple:
    """SeriesDef and optional reference limit from flags, preset as fallback."""
    config = PrecisionConfig(digits=args.digits)
    preset = get_preset(args.preset) if args.preset else None
    alpha, beta, x, limit = args.alpha, args.beta, args.x, args.limit
    if preset is not None:
        alpha = alpha or ",".join(preset.alpha)
        beta = beta or ",".join(preset.beta)
        x = x or preset.x
    if not (alpha and beta and x is not None):
        raise UsageError("no series given: use --preset or --alpha/--beta/--x")
    series = SeriesDef(
        tuple(parse_number(tok, config) for tok in alpha.split(",")),
        tuple(parse_number(tok, config) for tok in beta.split(",")),
        parse_number(x, config),
        config,
    )
    if limit is not None:
        ref = parse_number(limit, config)
    elif preset is not None:
        ref = preset.reference(config)
    else:
        ref = None
    return series, ref


def _require_limit(args, ref):
    if args.content in ("acc", "ratio", "condition") and ref is None:
        raise UsageError(f"--content {args.content} requires a reference limit")


def _q_path(args, series) -> TablePath:
    path = TablePath(args.path)
    if path is TablePath.RECURSION3F2 and series.p != 2:
        raise UsageError("--path recursion3f2 requires exactly two parameters")
    return path


def cmd_table(args, out) -> int:
    series, ref = _resolve_series(args)
    _require_limit(args, ref)
    table = q_table(series, args.budget, args.max_m, _q_path(args, series))
    if args.fmt == "json":
        meta = _meta(args, series)
        out.write(report.table_json(table.cells, meta, ref, series.precision,
                                    digits=args.digits))
    else:
        emit = getattr(report, _EMITTERS[args.fmt])
        out.write(emit(table.cells, args.budget, args.max_m, series.p,
                       args.content, ref, series.precision, digits=args.digits))
    return 1 if (args.strict and table.flagged) else 0


def cmd_sum(args, out) -> int:
    series, ref = _resolve_series(args)
    p = series.p
    max_m = min(args.max_m, (args.budget - 1) // p)
    table = q_table(series, args.budget, max_m, _q_path(args, series))
    best = None
    for m in range(max_m, -1, -1):
        value = table.get(1, m)
        if value is not None:
            best = (m, value)
            break
    if best is None:
        out.write("no usable cell\n")
        return 1
    m, value = best
    line = f"Q({m})_1 = {format_number(value, args.digits)}"
    if ref is not None:
        line += f"  acc={acc(value, ref, series.precision):.1f}"
    out.write(line + "\n")
    return 1 if (args.strict and table.flagged) else 0


def _method_cells(method: str, series, sums, budget: int, max_m: int):
    """Triangular cells (n, m) for one method, plus its stencil step."""
    cells = {}
    for n in range(1, budget + 1):
        cells[(n, 0)] = sums.s[n]
    if method == "q":
        table = q_table(series, budget, max_m)
        return table.cells, series.p
    if method == "epsilon":
        eps = epsilon_table(sums, min(max_m, (budget - 1) // 2))
        for m in range(1, max_m + 1):
            for n in range(1, budget - 2 * m + 1):
                value = eps.get(n, 2 * m)
                if value is not None:
                    cells[(n, m)] = value
        return cells, 2
    if method == "aitken":
        for m in range(1, max_m + 1):
            for n in range(1, budget - 2 * m + 1):
                try:
                    cells[(n, m)] = aitken(sums, m, n)
                except ArithmeticError:
                    pass
        return cells, 2
    if method.startswith("levin-"):
        spec = LevinSpec(variant=LevinVariant(method.split("-", 1)[1]))
        # omega needs terms up to a_{n+m} (d, v: a_{n+m+1}); a_k exists for k < budget
        extra = 2 if spec.variant in (LevinVariant.D, LevinVariant.V) else 1
        for m in range(1, max_m + 1):
            for n in range(1, budget - m - extra + 1):
                try:
                    cells[(n, m)] = levin(sums, spec, m, n)
                except (ZeroDivisionError, ArithmeticError):
                    pass
        return cells, 1
    raise UsageError(f"unknown method {method!r}")


def cmd_compare(args, out) -> int:
    series, ref = _resolve_series(args)
    _require_limit(args, ref)
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    for method in methods:
        if method not in METHODS:
            raise UsageError(f"unknown method {method!r}; choose from {','.join(METHODS)}")
    sums = partial_sums(series, args.budget)
    sections = []
    for method in methods:
        cells, step = _method_cells(method, series, sums, args.budget, args.max_m)
        if args.fmt == "json":
            meta = _meta(args, series)
            meta["method"] = method
            sections.append(report.table_json(cells, meta, ref, series.precision,
                                              digits=args.digits))
        else:
            emit = getattr(report, _EMITTERS[args.fmt])
            body = emit(cells, args.budget, args.max_m, step, args.content,
                        ref, series.precision, digits=args.digits)
            sections.append(f"# method={method}\n{body}")
    out.write("\n".join(sections))
    return 0


def cmd_diagnose(args, out) -> int:
    series, ref = _resolve_series(args)
    if ref is None:
        raise UsageError("diagnose requires a reference limit (--limit or preset)")
    budget = args.budget
    sums = partial_sums(series, budget)
    coeffs = asymptotic_coeffs(series)
    klass = classify(series)
    lines = [
        f"kind: {klass.kind.value}",
        f"sigma: {format_number(klass.sigma, 10)}",
        f"b1: {format_number(coeffs.b1, 10)}",
        f"b2: {format_number(coeffs.b2, 10)}",
        f"d1: {format_number(coeffs.d1, 10)}",
        f"d2: {format_number(coeffs.d2, 10) if coeffs.d2 is not None else 'undefined (b1=0)'}",
    ]
    conditions = {}
    for m in range(1, args.max_m + 1):
        for n in range(1, budget - m * series.p + 1):
            conditions[(n, m)] = acceleration_condition(series, ref, m, n, sums)
    probes = []
    for n in range(1, budget):
        probe = ratio_probe(series, ref, sums, n)
        probes.append((n, probe.ratio))
    if args.fmt == "json":
        import json as _json
        payload = {
            "meta": _meta(args, series),
            "kind": klass.kind.value,
            "sigma": format_number(klass.sigma, args.digits),
            "b1": format_number(coeffs.b1, args.digits),
            "b2": format_number(coeffs.b2, args.digits),
            "d1": format_number(coeffs.d1, args.digits),
            "d2": (format_number(coeffs.d2, args.digits)
                   if coeffs.d2 is not None else None),
            "condition": [
                {"n": n, "m": m, "value": format_number(v, args.digits)}
                for (n, m), v in sorted(conditions.items())
            ],
            "remainder_ratios": [
                {"n": n, "value": format_number(r, args.digits)}
                for n, r in probes
            ],
        }
        out.write(_json.dumps(payload, separators=(",", ":")) + "\n")
        return 0
    for text in lines:
        out.write(text + "\n")
    out.write("acceleration condition (values should approach 1):\n")
    emit = getattr(report, _EMITTERS[args.fmt])
    out.write(emit(conditions, budget, args.max_m, series.p,
                   "condition", ref, series.precision, conditions=conditions,
                   digits=args.digits))
    out.write("remainder ratios r_{n+1}/r_n:\n")
    for n, ratio in probes:
        out.write(f"  n={n:<3} {format_number(ratio, 8)}\n")
    return 0


def _meta(args, series: SeriesDef) -> dict:
    return {
        "alpha": [format_number(a, args.digits) for a in series.alpha],
        "beta": [format_number(b, args.digits) for b in series.beta],
        "x": format_number(series.x, args.digits),
        "digits": args.digits,
        "method": "q",
        "path": args.path,
    }


def _join_negative_values(argv) -> list:
    """`--x -1/3` as `--x=-1/3`, which argparse would read as two flags."""
    out = []
    for tok in argv:
        if (out and out[-1] in ("--alpha", "--beta", "--x", "--limit")
                and tok.startswith("-") and not tok.startswith("--")):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    handler = {
        "sum": cmd_sum,
        "table": cmd_table,
        "compare": cmd_compare,
        "diagnose": cmd_diagnose,
    }[args.command]
    try:
        return handler(args, sys.stdout)
    except (UsageError, ParseError, InvalidSeriesError,
            UnsupportedShapeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
