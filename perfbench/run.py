"""Benchmark of the qaccel CLI: one client, one process, closed loop.

    python3 perfbench/run.py --workload deep-q --seed 1 --seconds 30 --trace 0

Run from the repository root.  Requests from the seeded generator
(workloads.py) go one after another through ``qaccel.cli.main(argv)`` in this
process until the next request would run past ``--seconds`` of measured
time.  Every output is then checked against references the benchmark
computes itself (checks.py, exact.py), outside the timed loop.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the loop for
half the time untraced, replays the same requests with every layer wrapped
(tracing.py) and prints the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Checker, References
from tracing import Tracer, layer_metrics
from workloads import PRESETS, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
SETUP_REPEATS = 7

# Fresh interpreter: import the CLI, then parse every SeriesDef of the workload.
SETUP_CODE = """
import json, sys
import qaccel.cli
from qaccel.numerics import PrecisionConfig, parse_number
from qaccel.presets import get_preset
from qaccel.series import SeriesDef
for preset, alpha, beta, x, digits in json.load(sys.stdin):
    config = PrecisionConfig(digits=digits)
    if preset:
        get_preset(preset).series(config)
    else:
        SeriesDef(tuple(parse_number(a, config) for a in alpha),
                  tuple(parse_number(b, config) for b in beta),
                  parse_number(x, config), config)
"""


def measure_setup(first_cycle) -> list:
    specs = [[r.family if r.family in PRESETS else None, r.alpha, r.beta, r.x,
              r.slot.digits] for r in first_cycle]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], input=json.dumps(specs),
                       text=True, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def warm_up(cli, workload):
    """Small untimed requests at each precision the workload uses, so that
    mpmath's per-precision caches are filled before the timed loop."""
    for digits in sorted({slot.digits for slot in WORKLOADS[workload]}):
        call(cli, ["compare", "--preset=ex1", "--budget=9", "--max-m=3",
                   f"--digits={digits}", "--format=json",
                   "--methods=q,epsilon,levin-t,levin-u,levin-d,levin-v,aitken"])


def call(cli, argv):
    """(exit status, stdout) of one in-process CLI call.

    The status is 0, or a text with the exit code or exception and the last
    line the CLI wrote to stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not a dead run
            code = f"raised {exc!r}"
    if code != 0:
        last = err.getvalue().strip().splitlines()[-1:]
        code = f"{code} ({last[0][:160]})" if last else str(code)
    return code, out.getvalue()


def timed_loop(cli, requests, refs, seconds):
    """Run requests until the next one would pass ``seconds`` of loop time.

    The estimate for the next request is the last latency of its slot (the
    mean so far before the slot has run), so the number of requests depends
    on speed, not on the seed.
    """
    results, wall, last = [], 0.0, {}
    for req in requests:
        estimate = last.get(req.slot, wall / len(results) if results else 0.0)
        if wall + estimate > seconds:
            break
        if req.needs_limit and not req.limit_literal:
            req.limit_literal = refs.limit_literal(req)
            req.argv.append(f"--limit={req.limit_literal}")
        start = time.perf_counter()
        code, out = call(cli, req.argv)
        latency = time.perf_counter() - start
        wall += latency
        last[req.slot] = latency
        results.append((req, code, out, latency))
    return results, wall


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 samples beyond.

    The percentile is the share of samples at or below the value.  Below 21
    samples that percentile lies under the median, and the median stands in.
    """
    ordered = sorted(latencies)
    index = len(ordered) - 11
    if index < (len(ordered) - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def load_cache(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def save_cache(path, store):
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(store, fh)
    os.replace(tmp, path)


def known_defects(cli) -> list:
    """Refusals recorded as defects; kept out of the timed mix on purpose."""
    probes = {
        # sum_k (-2)_k/k! x^k = (1 - x)^2
        "diagnose_terminating_series": ["diagnose", "--alpha=-2", "--beta=1",
                                        "--x=1/2", "--limit=1/4"],
        "alpha_value_with_leading_minus": ["sum", "--alpha", "-3,1/2", "--beta",
                                           "2,3/2", "--x", "1/2"],
    }
    return [f"{name}: exit {call(cli, argv)[0]}" for name, argv in probes.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    try:
        import qaccel.cli as cli
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    if ROOT / "src" not in Path(cli.__file__).resolve().parents:
        print(f"qaccel was imported from {cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 1

    cache_path = CACHE / f"{args.workload}-{args.seed}.json"
    refs = References(load_cache(cache_path))
    cycle = len(WORKLOADS[args.workload])
    setup = measure_setup(itertools.islice(generate(args.workload, args.seed), cycle))
    warm_up(cli, args.workload)
    requests = generate(args.workload, args.seed)

    if args.trace:
        results, wall = timed_loop(cli, requests, refs, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall = timed_loop(cli, [r for r, *_ in results], refs,
                                             math.inf)
        finally:
            tracer.uninstall()
        CACHE.mkdir(exist_ok=True)
        tracer.write(CACHE / f"spans-{args.workload}-{args.seed}.tsv")
        results = results + traced
    else:
        results, wall = timed_loop(cli, requests, refs, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checker = Checker(refs)
    check_start = time.perf_counter()
    verdicts = [checker.check(req, code, out) for req, code, out, _ in results]
    check_s = time.perf_counter() - check_start
    save_cache(cache_path, refs.store)
    failed = [(req, v) for (req, *_), v in zip(results, verdicts) if not v.ok]
    passed = len(results) - len(failed)
    cells = sum(v.cells for v in verdicts)
    acc = [a for v in verdicts for a in v.acc]
    false_digits = [f for v in verdicts for f in v.false_digits]
    latencies = [lat for *_, lat in results]
    limited = sum(1 for req, *_ in results if req.reference_limited)

    lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} requests={len(results)} passed={passed} "
             f"failed={len(failed)} verified_values={cells} "
             f"reference_limited={limited} (left out of acc) "
             f"loop_s={wall:.1f} check_s={check_s:.1f}"]
    for req, verdict in failed[:5]:
        lines.append(f"FAILED #{req.index} {' '.join(req.argv)}: {verdict.reason}")
    lines += [f"known defect {d}" for d in known_defects(cli)]

    if args.trace:
        per_layer = layer_metrics(tracer, traced_wall / wall)
        if tracer.missing:
            lines.append(f"not traced (absent): {', '.join(tracer.missing)}")
        metrics = per_layer
    else:
        p50 = statistics.median(latencies)
        tail_value, tail_pct = tail(latencies)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "requests_per_s": (passed / wall, "1/s"),
            "latency_p50_s": (p50, "s"),
            "latency_tail_s": (tail_value, "s"),
            "acc_min_digits": (min(acc), "digits"),
            "acc_mean_digits": (statistics.fmean(acc), "digits"),
            "false_digits_max": (max(false_digits), "digits"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        lines.append(f"latency_tail_s is p{tail_pct:.1f} of {len(latencies)} samples; "
                     f"setup_s is the median of {len(setup)} fresh interpreters")
        lines.append(f"error_rate = {len(failed) / len(results)} "
                     f"({len(failed)}/{len(results)})")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
