"""Per-layer trace, installed from outside the package.

Each public function listed in LAYERS is wrapped and the wrapper is bound in
place of the original in every ``qaccel`` module that holds it, under
whatever name (``cli`` imports ``q_table``, ``report`` imports ``acc`` as
``acc_digits``).  A call records a span (name, start, end, parent) in
memory; work counts are computed from the call's arguments or result.
HPComplex arithmetic is only counted, since a span per operation would cost
more than the operation.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _lambda_mults(args, kwargs, result):
    p = len(_arg(args, kwargs, 0, "series").alpha)
    width = _arg(args, kwargs, 1, "m") * p
    return {"mults": p * width * (width + 1)}


def _aitken_elements(args, kwargs, result):
    length = len(_arg(args, kwargs, 0, "sums").s)
    iterations = _arg(args, kwargs, 1, "iterations")
    return {"elements": sum(max(0, length - 2 * it) for it in range(1, iterations + 1))}


# module -> {function: work counter(args, kwargs, result) or None}
LAYERS = {
    "qtransform": {
        "lambda_weights": _lambda_mults,
        "q_table": lambda a, k, r: {"cells": len(r.cells), "flagged": len(r.flagged)},
        "q_direct": None,
        "q_remainder_form": None,
        "l_ratio": None,
        "p_apply_3f2": None,
    },
    "series": {
        "poch_product": lambda a, k, r: {
            "factors": len(list(_arg(a, k, 0, "gamma"))) * _arg(a, k, 1, "n")},
        "partial_sums": lambda a, k, r: {"terms": _arg(a, k, 1, "N")},
    },
    "classic": {
        "epsilon_table": lambda a, k, r: {"flagged": len(r.flagged)},
        "levin": None,
        "aitken": _aitken_elements,
    },
    "numerics": {"parse_number": None, "format_number": None},
    "diagnostics": {"acc": None, "acceleration_condition": None, "ratio_probe": None},
    "report": {
        "table_text": lambda a, k, r: {"bytes": len(r)},
        "table_csv": lambda a, k, r: {"bytes": len(r)},
        "table_json": lambda a, k, r: {"bytes": len(r)},
    },
    "cli": {"main": None},
}


class Tracer:
    """Spans and counters for one traced replay."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._restore = []

    # -- recording --------------------------------------------------------

    def wrap(self, name, func, work=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def self_times(self) -> Counter:
        """Per name: total span time minus the time of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[index]
        return out

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qaccel" or key.startswith("qaccel.")]
        for module_name, functions in LAYERS.items():
            module = sys.modules.get(f"qaccel.{module_name}")
            for func_name, work in functions.items():
                original = getattr(module, func_name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{func_name}")
                    continue
                wrapped = self.wrap(f"{module_name}.{func_name}", original, work)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapped)
                            self._restore.append((holder, attr, original))
        self._count_hpcomplex()

    def _count_hpcomplex(self):
        numerics = sys.modules["qaccel.numerics"]
        cls = getattr(numerics, "HPComplex", None)
        counts = self.counts
        if cls is None or "_binop" not in vars(cls) or "from_mpc" not in vars(cls):
            self.missing.append("numerics.HPComplex")
            return
        binop, from_mpc = vars(cls)["_binop"], vars(cls)["from_mpc"].__func__

        def counted_binop(self_, other, op):
            counts["numerics.HPComplex.binops"] += 1
            return binop(self_, other, op)

        def counted_from_mpc(klass, z, precision):
            counts["numerics.HPComplex.from_mpc"] += 1
            return from_mpc(klass, z, precision)

        for attr, value in (("_binop", counted_binop),
                            ("from_mpc", classmethod(counted_from_mpc))):
            self._restore.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, value)

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def write(self, path):
        """All spans as tab-separated lines: name, start, end, parent."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    """The per-layer metrics, every name present (0 where never called)."""
    selfs = tracer.self_times()
    counts = tracer.counts
    out = {}
    for module_name, functions in LAYERS.items():
        for func_name, work in functions.items():
            name = f"{module_name}.{func_name}"
            if module_name not in ("report", "cli"):
                out[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
            out[f"{name}.self_s"] = (selfs[name], "s")
    for name in ("qtransform.lambda_weights.mults", "qtransform.q_table.cells",
                 "qtransform.q_table.flagged", "series.poch_product.factors",
                 "series.partial_sums.terms", "classic.aitken.elements",
                 "classic.epsilon_table.flagged", "numerics.HPComplex.binops",
                 "numerics.HPComplex.from_mpc"):
        out[name] = (counts[name], "count")
    elements = counts["classic.aitken.elements"]
    out["classic.aitken.useful_ratio"] = (
        counts["classic.aitken.calls"] / elements if elements else 0.0, "ratio")
    out["report.bytes"] = (sum(counts[f"report.{f}.bytes"]
                               for f in ("table_text", "table_csv", "table_json")),
                           "bytes")
    out["bench.trace_overhead_ratio"] = (overhead_ratio, "ratio")
    return out
