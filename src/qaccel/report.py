"""CSV / JSON / text emitters for triangular cell tables.

All methods share one cell format: a map (n, m) -> value (or None for a
flagged cell).  Traversal order is fixed (n ascending, m ascending) so a
given input always produces byte-identical output.
"""

from __future__ import annotations

import json
from typing import Optional

from .numerics import HPComplex, PrecisionConfig, format_number
from .diagnostics import acc as acc_digits


def _cell_text(content: str, value: Optional[HPComplex], base: Optional[HPComplex],
               limit: Optional[HPComplex], cfg: PrecisionConfig,
               condition: Optional[HPComplex], digits: int) -> str:
    if value is None:
        return ""
    if content == "value":
        return format_number(value, digits)
    if content == "acc":
        return f"{acc_digits(value, limit, cfg):.1f}"
    if content == "ratio":
        if base is None:
            return ""
        num = abs(value - limit)
        den = abs(base - limit)
        if den == 0:
            return ""
        return f"{float(num / den):.6e}"
    if content == "condition":
        if condition is None:
            return ""
        return format_number(condition, 6)
    raise ValueError(f"unknown content {content!r}")


def _rows(cells: dict, budget: int, max_m: int, step: int, content: str,
          limit: Optional[HPComplex], cfg: PrecisionConfig,
          conditions: Optional[dict], digits: int):
    """(n, cell texts) per row n = 1..budget; row n holds the columns m
    with n + m * step <= budget, where step is the method's stencil width."""
    for n in range(1, budget + 1):
        base = cells.get((n, 0))
        yield n, [_cell_text(content, cells.get((n, m)), base, limit, cfg,
                             conditions.get((n, m)) if conditions else None, digits)
                  for m in range(max_m + 1) if n + m * step <= budget]


def table_csv(cells: dict, budget: int, max_m: int, step: int, content: str,
              limit: Optional[HPComplex], cfg: PrecisionConfig,
              conditions: Optional[dict] = None, digits: int = 32) -> str:
    """Rows n, columns m0..m{max_m}; absent cells are empty strings."""
    lines = ["n," + ",".join(f"m{m}" for m in range(max_m + 1))]
    for n, entries in _rows(cells, budget, max_m, step, content, limit, cfg,
                            conditions, digits):
        lines.append(",".join([str(n)] + entries))
    return "\n".join(lines) + "\n"


_encode = json.JSONEncoder(separators=(",", ":")).encode


def table_json(cells: dict, meta: dict, limit: Optional[HPComplex],
               cfg: PrecisionConfig, conditions: Optional[dict] = None,
               digits: int = 32) -> str:
    """One compact JSON document {"meta": ..., "cells": [...]}.

    Each cell is encoded as soon as it is built, so only the finished
    text of the cells is held at once, not every cell's dict.
    """
    out_cells = []
    for (n, m) in sorted(cells):
        value = cells[(n, m)]
        entry = {"n": n, "m": m}
        if value is None:
            entry["flag"] = "degenerate"
        else:
            entry["value"] = format_number(value, digits)
            if limit is not None:
                entry["acc"] = acc_digits(value, limit, cfg)
                base = cells.get((n, 0))
                if base is not None and abs(base - limit) != 0:
                    entry["ratio"] = float(abs(value - limit) / abs(base - limit))
        if conditions and (n, m) in conditions:
            entry["condition"] = format_number(conditions[(n, m)], digits)
        out_cells.append(_encode(entry))
    return f'{{"meta":{_encode(meta)},"cells":[{",".join(out_cells)}]}}\n'


def table_text(cells: dict, budget: int, max_m: int, step: int, content: str,
               limit: Optional[HPComplex], cfg: PrecisionConfig,
               conditions: Optional[dict] = None, digits: int = 32) -> str:
    """Paper-style aligned triangle, one row per n."""
    rows = [(n, [e or "-" for e in entries])
            for n, entries in _rows(cells, budget, max_m, step, content, limit,
                                    cfg, conditions, digits)]
    width = max((len(e) for _, row in rows for e in row), default=1)
    lines = ["n\\m  " + "  ".join(f"{('m%d' % m):>{width}}" for m in range(max_m + 1))]
    for n, entries in rows:
        lines.append(f"{n:>3}  " + "  ".join(f"{e:>{width}}" for e in entries))
    return "\n".join(lines) + "\n"
