"""Tests of the benchmark's own machinery (no package code is exercised).

    python3 -m pytest -q perfbench
"""

import itertools

import mpmath

from checks import Checker, References
from run import tail
from tracing import Tracer
from workloads import WORKLOADS, generate


def first(workload, seed, count):
    return list(itertools.islice(generate(workload, seed), count))


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS:
        argvs = [r.argv for r in first(workload, 11, 60)]
        again = [r.argv for r in first(workload, 11, 60)]
        other = [r.argv for r in first(workload, 12, 60)]
        assert argvs == again
        assert argvs != other


def test_mix_is_fixed_across_seeds():
    for workload, slots in WORKLOADS.items():
        for seed in (1, 2):
            requests = first(workload, seed, 2 * len(slots))
            assert [r.slot for r in requests] == slots + slots


def test_terminating_share_only_in_interactive():
    for workload in WORKLOADS:
        terminating = [r for r in first(workload, 5, 100) if r.series.terminating]
        assert bool(terminating) == (workload == "interactive")


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])   # start/end times in call order
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()                                      # 1.0 .. 3.0
        inner()                                      # 4.0 .. 7.0

    tracer.wrap("outer", body)()                     # 0.0 .. 10.0
    selfs = tracer.self_times()
    assert selfs["outer"] == 10.0 - 2.0 - 3.0
    assert selfs["inner"] == 5.0
    assert tracer.counts["inner.calls"] == 2
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]


def _sum_request():
    return next(r for r in first("interactive", 3, 30)
                if r.slot.command == "sum" and r.family == "ex2")


def test_reference_check_accepts_the_exact_value():
    req = _sum_request()
    value, _, _ = req.series.q_condition(req.slot.max_m, 1)
    printed = mpmath.nstr(value.to_mpc().real, req.slot.digits)
    verdict = Checker(References({})).check(req, 0, f"Q({req.slot.max_m})_1 = {printed}\n")
    assert verdict.ok, verdict.reason
    assert verdict.false_digits and max(verdict.false_digits) < 1


def test_reference_check_rejects_last_ten_digits_corrupted():
    req = _sum_request()
    value, _, _ = req.series.q_condition(req.slot.max_m, 1)
    printed = mpmath.nstr(value.to_mpc().real, req.slot.digits)
    corrupted = printed[:-10] + "".join(str((int(c) + 5) % 10) for c in printed[-10:])
    verdict = Checker(References({})).check(req, 0, f"Q({req.slot.max_m})_1 = {corrupted}\n")
    assert not verdict.ok
    assert "agrees with the exact value" in verdict.reason


def test_reference_check_rejects_refusal_and_garbage():
    req = _sum_request()
    checker = Checker(References({}))
    assert not checker.check(req, 2, "").ok
    assert not checker.check(req, 0, "no usable cell\n").ok


def test_tail_has_ten_samples_beyond_or_is_the_median():
    value, percentile = tail(list(range(1, 31)))
    assert value == 20 and round(percentile, 6) == round(200 / 3, 6)
    assert tail([5.0, 1.0, 3.0, 2.0, 4.0, 9.0]) == (3.5, 50.0)
