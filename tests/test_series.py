import random
from fractions import Fraction

import pytest
from mpmath import mp

from qaccel.numerics import HPComplex, PrecisionConfig, parse_number, relative_error
from qaccel.series import (
    SeriesDef,
    InvalidSeriesError,
    ConvergenceKind,
    to_unit_form,
    partial_sums,
    classify,
    term_ratio,
)

CFG = PrecisionConfig(digits=32, guard=10)
P = CFG.working


def hp(text):
    return parse_number(text, CFG)


class TestSeriesDef:
    def test_shape_mismatch(self):
        with pytest.raises(InvalidSeriesError):
            SeriesDef((hp("1"), hp("2")), (hp("3"),), hp("1"), CFG)

    def test_beta_pole_rejected(self):
        with pytest.raises(InvalidSeriesError):
            SeriesDef((hp("1/2"),), (hp("-2"),), hp("1"), CFG)

    def test_terminating_flagged(self):
        s = SeriesDef((hp("-3"),), (hp("1/2"),), hp("1"), CFG)
        assert s.terminating


class TestToUnitForm:
    def test_strip_explicit_unit(self):
        s = to_unit_form(("3", "-1/2", "1"), ("4", "1"), CFG, x="-1")
        assert s.alpha == (hp("3"), hp("-1/2"))
        assert s.beta == (hp("4"), hp("1"))

    def test_strip_single(self):
        s = to_unit_form(("0.7", "1"), ("1.9",), CFG, x="1/2")
        assert s.alpha == (hp("0.7"),)
        assert s.beta == (hp("1.9"),)

    def test_append_unit_to_lower(self):
        s = to_unit_form(("1/3", "-1/2"), ("4/3",), CFG, x="1/2")
        assert s.alpha == (hp("1/3"), hp("-1/2"))
        assert s.beta == (hp("4/3"), hp("1"))
        # oracle: terms of the explicit (p+1, p) series, with the extra n!
        with mp.workdps(P):
            x = mp.mpf(1) / 2
            for n in range(10):
                expect = mp.mpf(1)
                for g in (mp.mpf(1) / 3, mp.mpf(-1) / 2):
                    for k in range(n):
                        expect *= g + k
                for k in range(n):
                    expect /= mp.mpf(4) / 3 + k
                expect *= x ** n / mp.factorial(n)
                got = partial_sums(s, n + 1).a[n]
                assert abs(got.value - expect) <= abs(expect) * mp.mpf(10) ** (6 - P)

    def test_shape_error(self):
        with pytest.raises(InvalidSeriesError):
            to_unit_form(("1", "2"), ("3", "4"), CFG)


class TestTerms:
    def test_first_term_is_one(self, ex1):
        series, _ = ex1
        assert partial_sums(series, 1).a[0] == HPComplex(1, 0, P)

    def test_ex1_second_term(self, ex1):
        series, _ = ex1
        assert relative_error(partial_sums(series, 2).a[1], hp("3/8")) < mp.mpf(10) ** (6 - P)

    def test_ex2_second_term(self, ex2):
        series, _ = ex2
        assert relative_error(partial_sums(series, 2).a[1], hp("25/243")) < mp.mpf(10) ** (6 - P)


class TestPartialSums:
    def test_s1_is_one(self, ex2):
        series, _ = ex2
        sums = partial_sums(series, 3)
        assert sums.s[0].is_zero()
        assert sums.s[1] == HPComplex(1, 0, P)

    def test_accumulation_consistency(self, ex1):
        series, _ = ex1
        sums = partial_sums(series, 60)
        with mp.workdps(P):
            tol = mp.mpf(10) ** (4 - P)
            for n in range(60):
                d = sums.s[n + 1] - sums.s[n]
                scale = max(abs(sums.s[n + 1]), mp.mpf(1))
                assert abs(d - sums.a[n]) <= tol * scale

    def test_complete_cancellation_is_exact_zero(self):
        # a_1 = -1/3 * (16/7 * 7/3 * 5/3) / (8/3 * 5/3 * 2/3) = -1 exactly
        s = SeriesDef((hp("16/7"), hp("7/3"), hp("5/3")),
                      (hp("8/3"), hp("5/3"), hp("2/3")), hp("-1/3"), CFG)
        sums = partial_sums(s, 6)
        assert sums.s[2].is_zero()
        assert sums.s[3] == sums.a[2]

    def test_tiny_nonzero_sum_kept(self):
        # s_2 = 1 + x = 1e-30 lies far above the rounding bound; only the
        # rounding of x itself (1e-42 absolute) remains in it
        s = SeriesDef((hp("1"),), (hp("1"),), hp("-0.999999999999999999999999999999"),
                      CFG)
        sums = partial_sums(s, 3)
        assert relative_error(sums.s[2], hp("1e-30")) < 1e-11

    def test_terms_match_direct(self, ex3):
        # oracle: a_n = x^n prod_a rf(a, n) / prod_b rf(b, n), independently
        series, _ = ex3
        sums = partial_sums(series, 20)
        with mp.workdps(P):
            for n in (0, 1, 5, 19):
                expect = series.x.value ** n
                for g in series.alpha:
                    expect *= mp.rf(g.value, n)
                for g in series.beta:
                    expect /= mp.rf(g.value, n)
                got = relative_error(sums.a[n], HPComplex.from_mpc(expect, P))
                assert got < mp.mpf(10) ** (6 - P)


class TestClassify:
    def test_ex1_boundary(self, ex1):
        series, _ = ex1
        k = classify(series)
        assert k.kind is ConvergenceKind.CONDITIONAL_BOUNDARY
        assert float(k.sigma.re) == -1.5
        assert k.sigma.im == 0

    def test_ex2_absolute(self, ex2):
        series, _ = ex2
        k = classify(series)
        assert k.kind is ConvergenceKind.ABSOLUTE
        assert abs(k.sigma.re) < mp.mpf(10) ** (6 - P)

    def test_ex3_logarithmic(self, ex3):
        series, _ = ex3
        k = classify(series)
        assert k.kind is ConvergenceKind.LOGARITHMIC_AT_ONE
        assert float(k.sigma.re) < 0

    def test_divergent_outside_disc(self):
        s = SeriesDef((hp("1/2"),), (hp("3/2"),), hp("2"), CFG)
        assert classify(s).kind is ConvergenceKind.DIVERGENT

    def test_divergent_at_one_positive_sigma(self):
        s = SeriesDef((hp("3"),), (hp("1/2"),), hp("1"), CFG)
        assert classify(s).kind is ConvergenceKind.DIVERGENT

    def test_permutation_invariance(self, ex3):
        series, _ = ex3
        k1 = classify(series)
        swapped = SeriesDef(series.alpha[::-1], series.beta[::-1], series.x, CFG)
        k2 = classify(swapped)
        assert k1.kind is k2.kind
        assert relative_error(k1.sigma, k2.sigma) < mp.mpf(10) ** (6 - P)


class TestTermRatio:
    def test_ex1_closed_form(self, ex1):
        series, _ = ex1
        for n in range(12):
            expect = Fraction(-(2 * n - 1) * (n + 3), (2 * n + 2) * (n + 4))
            got = term_ratio(series, n)
            assert got.im == 0
            assert abs(float(got.re) - float(expect)) < 1e-25

    def test_limit_is_x(self, ex1):
        series, _ = ex1
        t = term_ratio(series, 10 ** 6)
        assert abs(t - series.x) < 1e-5

    def test_geometric_exact(self):
        s = SeriesDef((hp("5/7"),), (hp("5/7"),), hp("1/3"), CFG)
        assert term_ratio(s, 4) == s.x

    def test_ratio_matches_terms(self, ex2):
        series, _ = ex2
        sums = partial_sums(series, 201)
        with mp.workdps(P):
            tol = mp.mpf(10) ** (6 - P)
            for n in random.Random(7).sample(range(200), 25):
                ratio = sums.a[n + 1] / sums.a[n]
                assert abs(ratio - term_ratio(series, n)) <= tol * abs(ratio)

    def test_alternating_condition_ex1(self, ex1):
        # (1 + t_{n+1})/(1 + t_n) -> 1 with |value - 1| < 2/n
        series, _ = ex1
        one = HPComplex(1, 0, P)
        for n in (10, 20, 50, 100, 200):
            v = (one + term_ratio(series, n + 1)) / (one + term_ratio(series, n))
            assert abs(v - one) < 2.0 / n
