import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from qaccel.numerics import HPComplex, PrecisionConfig, parse_number, relative_error
from qaccel import qtransform
from qaccel.series import SeriesDef, _factors, partial_sums
from qaccel.classic import epsilon_table
from qaccel.qtransform import (
    TablePath,
    DegenerateDenominatorError,
    UnsupportedShapeError,
    lambda_weights,
    q_direct,
    q_remainder_form,
    l_ratio,
    q_table,
    p_apply_3f2,
    annihilation_residual,
    annihilation_residual_exact,
    leading_coeffs,
    leading_coeffs_exact,
    lambda_weights_exact,
    lambda_degree_check,
    _factor_table,
    _operator_weights,
)

CFG = PrecisionConfig(digits=32, guard=10)
P = CFG.working
TOL = None  # set in module setup


def hp(text):
    return parse_number(text, CFG)


def setup_module(module):
    global TOL
    with mp.workdps(P):
        module.TOL = mp.mpf(10) ** (6 - P)


def random_series(rng, p=None, allow_complex=True):
    """Well-behaved random parameters away from poles and x away from 1."""
    p = p or rng.choice((1, 2, 3))

    def param():
        re = rng.uniform(0.3, 3.0)
        im = rng.uniform(-1.0, 1.0) if (allow_complex and rng.random() < 0.4) else 0.0
        return HPComplex(re, im, P)

    while True:
        r = rng.uniform(0.1, 1.2)
        phi = rng.uniform(0, 6.28318)
        with mp.workdps(P):
            x = HPComplex.from_mpc(r * mp.exp(1j * phi), P)
        if abs(x - HPComplex(1, 0, P)) > 0.1:
            break
    return SeriesDef(tuple(param() for _ in range(p)),
                     tuple(param() for _ in range(p)), x, CFG)


class TestLambdaWeights:
    def test_p1_m1_closed_form(self):
        s = SeriesDef((hp("0.7"),), (hp("1.9"),), hp("-0.5"), CFG)
        for n in (0, 1, 5):
            w = lambda_weights(s, 1, n)
            lam0 = -s.x * (s.alpha[0] + n)
            lam1 = s.beta[0] + n
            assert relative_error(w.lam[0], lam0) < TOL
            assert relative_error(w.lam[1], lam1) < TOL

    def test_last_weight_is_beta_product(self, ex1):
        series, _ = ex1
        m, n = 3, 2
        w = lambda_weights(series, m, n)
        expect = HPComplex(1, 0, P)
        for b in series.beta:
            for k in range(m * series.p):
                expect = expect * (b + n + m - 1 + k)
        assert relative_error(w.lam[-1], expect) < TOL

    def test_tails_are_partial_sums(self, ex3):
        series, _ = ex3
        w = lambda_weights(series, 2, 1)
        width = len(w.lam)
        assert len(w.M) == width
        for k in range(width):
            tail = HPComplex(0, 0, P)
            for j in range(k, width):
                tail = tail + w.lam[j]
            assert abs(w.M[k] - tail) <= TOL * max(abs(v) for v in w.lam)
        assert w.M[-1] == w.lam[-1]

    def test_matches_exact_rational_twin(self):
        # dual-route check of the product formula against Fractions
        alpha = [Fraction(3), Fraction(-1, 2)]
        beta = [Fraction(4), Fraction(1)]
        x = Fraction(-1)
        s = SeriesDef((hp("3"), hp("-1/2")), (hp("4"), hp("1")), hp("-1"), CFG)
        for m, n in ((1, 0), (2, 3)):
            exact = lambda_weights_exact(alpha, beta, x, m, n)
            w = lambda_weights(s, m, n)
            for j, ev in enumerate(exact):
                assert abs(float(w.lam[j].re) - float(ev)) <= 1e-20 * max(
                    1.0, abs(float(ev))
                )


class TestWeightKernel:
    def test_deep_weights_match_exact(self, ex1, ex2):
        cases = (
            (ex1[0], [Fraction(3), Fraction(-1, 2)], [Fraction(4), Fraction(1)],
             Fraction(-1), 20, 1),
            (ex2[0], [Fraction(1, 6), Fraction(1, 3)], [Fraction(1, 2), Fraction(1)],
             Fraction(25, 27), 20, 3),
        )
        for series, alpha, beta, x, m, n in cases:
            exact = lambda_weights_exact(alpha, beta, x, m, n)
            w = lambda_weights(series, m, n)
            width = m * series.p
            # the operator weights are lambda_j without C(mp, j) (-1)^{mp-j}
            with mp.workdps(P):
                tables = _factor_table(series, n + m - 1 + width)
                ow = _operator_weights(tables, m, n, width)
                via_operator = [math.comb(width, j) * (-1) ** (width - j) * ow[j]
                                for j in range(width + 1)]
            with mp.workdps(P + 40):
                ev = [mp.mpf(v.numerator) / v.denominator for v in exact]
                for lam in ([v.value for v in w.lam], via_operator):
                    worst = max(abs(lam[j] - ev[j]) for j in range(len(ev)))
                    assert worst <= 1e-40 * max(abs(v) for v in ev)

    def test_terminating_alpha_zeros_stay_exact(self):
        alpha = [Fraction(-3), Fraction(1, 2)]
        beta = [Fraction(2), Fraction(3, 2)]
        s = SeriesDef((hp("-3"), hp("1/2")), (hp("2"), hp("3/2")), hp("1/2"), CFG)
        for n in (0, 1, 2, 3, 4):
            exact = lambda_weights_exact(alpha, beta, Fraction(1, 2), 5, n)
            w = lambda_weights(s, 5, n)
            zeros = [j for j, v in enumerate(exact) if v == 0]
            assert [j for j, v in enumerate(w.lam) if v.is_zero()] == zeros
            # (a+n+j)_{mp-j} holds the factor -3 + 3 = 0 exactly for n+j <= 3
            assert zeros == list(range(4 - n))

    def test_x_zero_leaves_only_last_weight(self, ex1):
        series, _ = ex1
        frozen = SeriesDef(series.alpha, series.beta, hp("0"), CFG)
        w = lambda_weights(frozen, 3, 2)
        assert all(v.is_zero() for v in w.lam[:-1])
        assert w.M[0] == w.lam[-1]

    @pytest.mark.parametrize("alpha, beta, x", [
        (("-3", "1/2"), ("2", "3/2"), "1/2"),
        (("1/2", "1/3"), ("2", "3/2"), "0"),
    ])
    def test_all_paths_match_direct_on_vanishing_factors(self, alpha, beta, x):
        # a terminating alpha, and x = 0, make some per-index factors
        # exactly 0; no path may divide by them
        s = SeriesDef(tuple(map(hp, alpha)), tuple(map(hp, beta)), hp(x), CFG)
        direct = q_table(s, 15, 7, TablePath.DIRECT)
        assert not direct.flagged
        for path in (TablePath.OPERATOR, TablePath.RECURSION3F2):
            other = q_table(s, 15, 7, path)
            assert set(other.cells) == set(direct.cells) and not other.flagged
            for key, value in direct.cells.items():
                assert relative_error(other.cells[key], value) < TOL

    @pytest.mark.parametrize("case", [
        "ex1", "ex3",
        (("-3", "1/2"), ("2", "3/2"), "1/2"),
        (("1/2", "1/3"), ("2", "3/2"), "0"),
    ], ids=["ex1", "ex3", "terminating", "x_zero"])
    def test_table_cells_equal_single_cells(self, case, request):
        # the shared factor table and a single cell's own window give the
        # same cell, bit for bit, and flag the same cells
        if isinstance(case, str):
            series = request.getfixturevalue(case)[0]
        else:
            alpha, beta, x = case
            series = SeriesDef(tuple(map(hp, alpha)), tuple(map(hp, beta)),
                               hp(x), CFG)
        budget, max_m = 15, 7
        sums = partial_sums(series, budget)
        for path, single in ((TablePath.DIRECT, q_direct),
                             (TablePath.REMAINDER, q_remainder_form),
                             (TablePath.OPERATOR, l_ratio)):
            table = q_table(series, budget, max_m, path)
            flagged = set()
            for (n, m), value in table.cells.items():
                try:
                    assert single(series, sums, m, n) == value
                except DegenerateDenominatorError:
                    flagged.add((n, m))
            assert flagged == table.flagged

    @pytest.mark.parametrize("path", list(TablePath))
    def test_one_factor_table_per_q_table(self, ex1, path, monkeypatch):
        windows = []

        def counting(params, lo, hi, *lead):
            windows.append((lo, hi))
            return _factors(params, lo, hi, *lead)

        monkeypatch.setattr(qtransform, "_factors", counting)
        q_table(ex1[0], 41, 20, path)
        # fa and fb once each, over k < budget + max_m
        assert windows == [(0, 61), (0, 61)]

    def test_q_direct_equals_table_cell(self, ex3):
        series, _ = ex3
        budget, max_m = 21, 8
        table = q_table(series, budget, max_m, TablePath.DIRECT)
        sums = partial_sums(series, budget)
        for m, n in ((1, 1), (4, 5), (8, 1), (8, 5)):
            assert q_direct(series, sums, m, n) == table.get(n, m)

    def test_paths_agree_ex1_deep(self, ex1):
        series, _ = ex1
        tables = [q_table(series, 41, 20, path) for path in
                  (TablePath.DIRECT, TablePath.REMAINDER, TablePath.RECURSION3F2)]
        assert not any(t.flagged for t in tables)
        for key, value in tables[0].cells.items():
            for other in tables[1:]:
                assert relative_error(value, other.cells[key]) < 1e-30


class TestEvaluationPaths:
    def test_m0_is_partial_sum(self, ex1):
        series, _ = ex1
        sums = partial_sums(series, 5)
        for fn in (q_direct, q_remainder_form, l_ratio):
            assert fn(series, sums, 0, 3) == sums.s[3]

    def test_p1_m1_closed_form(self):
        s = SeriesDef((hp("0.7"),), (hp("1.9"),), hp("-0.5"), CFG)
        sums = partial_sums(s, 6)
        n = 2
        lam0 = -s.x * (s.alpha[0] + n)
        lam1 = s.beta[0] + n
        expect = (lam1 * sums.s[n + 1] + lam0 * sums.s[n]) / (lam1 + lam0)
        assert relative_error(q_direct(s, sums, 1, n), expect) < TOL
        remainder = sums.s[n] + lam1 * sums.a[n] / (lam1 + lam0)
        assert relative_error(q_remainder_form(s, sums, 1, n), remainder) < TOL

    def test_direct_vs_remainder_ex2(self, ex2):
        # high orders lose a few guard digits to cancellation; agreement to
        # 30 digits out of the 42-digit working precision is still demanded
        series, _ = ex2
        with mp.workdps(P):
            tol = mp.mpf(10) ** (12 - P)
        sums = partial_sums(series, 25)
        for m in range(1, 13):
            for n in range(1, 25 - 2 * m + 1):
                a = q_direct(series, sums, m, n)
                b = q_remainder_form(series, sums, m, n)
                assert relative_error(a, b) < tol

    def test_operator_path_random(self):
        rng = random.Random(42)
        for _ in range(20):
            series = random_series(rng)
            m = rng.randint(1, 4)
            n = rng.randint(1, 5)
            sums = partial_sums(series, n + m * series.p + 1)
            a = q_direct(series, sums, m, n)
            b = l_ratio(series, sums, m, n)
            assert relative_error(a, b) < TOL


class Test3F2Operator:
    def test_recursion_matches_direct_table(self, ex1):
        series, _ = ex1
        direct = q_table(series, 15, 7, TablePath.DIRECT)
        rec = q_table(series, 15, 7, TablePath.RECURSION3F2)
        assert set(direct.cells) == set(rec.cells)
        for key, value in direct.cells.items():
            assert relative_error(value, rec.cells[key]) < TOL

    def test_requires_p2(self):
        s = SeriesDef((hp("1/2"),), (hp("3/2"),), hp("1/2"), CFG)
        with pytest.raises(UnsupportedShapeError):
            q_table(s, 10, 2, TablePath.RECURSION3F2)
        with pytest.raises(UnsupportedShapeError):
            p_apply_3f2(s, {}, 1, 1)

    def test_x_zero_reduces_to_shift(self, ex1):
        series, _ = ex1
        frozen = SeriesDef(series.alpha, series.beta, hp("0"), CFG)
        z = {k: HPComplex(k * k + 1, 0, P) for k in range(1, 4)}
        m, n = 2, 1
        got = p_apply_3f2(frozen, z, m, n)
        b1, b2 = frozen.beta
        expect = ((b1 + (n + m - 1)) * (b2 + (n + m - 1))
                  * (b1 + (n + 3 * m - 2)) * (b2 + (n + 3 * m - 2)) * z[n + 2])
        assert relative_error(got, expect) < TOL

    def test_unit_sequence_gives_weight_sum_ratio(self, ex2):
        # D^(1) differs from sum(lambda) by a common factor only
        series, _ = ex2
        sums = partial_sums(series, 8)
        one = HPComplex(1, 0, P)
        ones = {k: one for k in range(1, 8)}
        svals = {k: sums.s[k] for k in range(1, 8)}
        for n in (1, 3):
            num = p_apply_3f2(series, svals, 1, n)
            den = p_apply_3f2(series, ones, 1, n)
            assert relative_error(num / den, q_direct(series, sums, 1, n)) < TOL


class TestQTable:
    def test_triangular_shape(self, ex1):
        series, _ = ex1
        table = q_table(series, 15, 7)
        for n in range(1, 16):
            for m in range(8):
                if n + 2 * m <= 15:
                    assert (n, m) in table.cells
                else:
                    assert (n, m) not in table.cells

    def test_m0_column_is_partial_sums(self, ex2):
        series, _ = ex2
        table = q_table(series, 10, 0)
        sums = partial_sums(series, 10)
        for n in range(1, 11):
            assert table.get(n, 0) == sums.s[n]

    def test_budget_too_small(self, ex1):
        series, _ = ex1
        with pytest.raises(ValueError):
            q_table(series, 5, 7)

    def test_degenerate_cell_flagged(self):
        # x=1, p=1, alpha=beta makes the denominator vanish identically
        s = SeriesDef((hp("3/2"),), (hp("3/2"),), hp("1"), CFG)
        table = q_table(s, 6, 1)
        assert table.flagged
        for key in table.flagged:
            assert table.cells[key] is None

    def test_degenerate_direct_raises(self):
        s = SeriesDef((hp("3/2"),), (hp("3/2"),), hp("1"), CFG)
        sums = partial_sums(s, 5)
        with pytest.raises(DegenerateDenominatorError):
            q_direct(s, sums, 1, 2)


class TestTransformationProperties:
    def test_translative_and_homogeneous(self, ex1):
        # replacing s by c*s + d maps Q to c*Q + d
        series, _ = ex1
        sums = partial_sums(series, 12)
        c = hp("2.5-1.0i")
        d = hp("-3.75")
        shifted = type(sums)(
            s=tuple(c * v + d for v in sums.s),
            a=tuple(c * v for v in sums.a),
        )
        for m, n in ((1, 2), (3, 1), (4, 2)):
            q = q_direct(series, sums, m, n)
            qs = q_direct(series, shifted, m, n)
            assert relative_error(qs, c * q + d) < TOL

    def test_exact_on_kernel_sequence(self, ex2):
        # the weights annihilate any window of m consecutive terms, so a
        # sequence u_nu = C - (a_nu + ... + a_{nu+m-1}) transforms to C
        series, _ = ex2
        m, n = 3, 2
        N = n + m * series.p + m + 2
        sums = partial_sums(series, N + m)
        c = hp("2.25-0.5i")
        u = []
        for nu in range(N + 1):
            window = HPComplex(0, 0, P)
            for k in range(m):
                window = window + sums.a[nu + k]
            u.append(c - window)
        du = tuple(u[k + 1] - u[k] for k in range(N))
        kernel = type(sums)(s=tuple(u), a=du)
        got = q_direct(series, kernel, m, n)
        assert relative_error(got, c) < 100 * TOL

    def test_epsilon_equivalence_p1(self):
        series = SeriesDef((hp("1/3"),), (hp("4/3"),), hp("-1"), CFG)
        sums = partial_sums(series, 16)
        eps = epsilon_table(sums, 4)
        for m in range(1, 5):
            for n in range(1, 7):
                q = q_direct(series, sums, m, n)
                e = eps.get(n, 2 * m)
                assert relative_error(q, e) < TOL

    def test_acceleration_ex2(self, ex2):
        # |Q^(m)_n - s| / |s_n - s| at n=20 below 10^(-m) for m=1..4
        series, limit = ex2
        sums = partial_sums(series, 30)
        n = 20
        with mp.workdps(P):
            base = abs(sums.s[n].value - limit.value)
            for m in range(1, 5):
                q = q_direct(series, sums, m, n)
                ratio = abs(q.value - limit.value) / base
                assert ratio < mp.mpf(10) ** (-m)

    def test_regular_columns_ex2(self, ex2):
        # acc increases monotonically in n beyond n=5, with 0.3-digit jitter
        from qaccel.diagnostics import acc
        series, limit = ex2
        table = q_table(series, 25, 3)
        for m in range(4):
            prev = None
            for n in range(5, 26 - m * 2):
                digits = acc(table.get(n, m), limit, CFG)
                if prev is not None:
                    assert digits > prev - 0.3
                prev = digits


class TestAnnihilation:
    def test_random_residuals(self):
        rng = random.Random(314)
        with mp.workdps(P):
            bound = float(mp.mpf(10) ** (8 - P))
        for _ in range(12):
            series = random_series(rng)
            m = rng.randint(1, 4)
            n = rng.randint(0, 6)
            assert annihilation_residual(series, m, n) <= bound

    def test_ex1_spot(self, ex1):
        series, _ = ex1
        with mp.workdps(P):
            bound = float(mp.mpf(10) ** (8 - P))
        assert annihilation_residual(series, 3, 2) <= bound

    def test_exact_rational_zero(self):
        got = annihilation_residual_exact(
            [Fraction(1, 3)], [Fraction(4, 3)], Fraction(-1), 1, 2
        )
        assert got == 0

    def test_exact_rational_zero_p2(self):
        got = annihilation_residual_exact(
            [Fraction(3), Fraction(-1, 2)], [Fraction(4), Fraction(1)],
            Fraction(-1), 2, 1,
        )
        assert got == 0


class TestLeadingCoeffs:
    def test_m1_p1_alternating(self):
        lc = leading_coeffs(1, 1, hp("-1"))
        assert lc.c[0] == HPComplex(1, 0, P)
        assert lc.c[1] == HPComplex(1, 0, P)
        assert lc.sum_residual < 1e-30
        assert lc.weighted_residual < 1e-30

    def test_sum_vanishes_at_one(self):
        lc = leading_coeffs(2, 3, hp("1"))
        total = HPComplex(0, 0, P)
        for cj in lc.c:
            total = total + cj
        assert abs(total) < 1e-25

    def test_m2_p2_half(self):
        lc = leading_coeffs(2, 2, hp("1/2"))
        total = HPComplex(0, 0, P)
        for cj in lc.c:
            total = total + cj
        assert relative_error(total, hp("1/16")) < TOL

    def test_non_dyadic_x_residuals(self):
        # 25/27 is not exactly representable; -x must not drop to 53 bits
        lc = leading_coeffs(2, 2, hp("25/27"))
        assert lc.sum_residual < 1e-38
        assert lc.weighted_residual < 1e-38

    def test_exact_identities(self):
        for m in (1, 2, 3):
            for p in (1, 2, 3):
                for x in (Fraction(-1), Fraction(1, 2), Fraction(2)):
                    _, sum_ok, weighted_ok = leading_coeffs_exact(m, p, x)
                    assert sum_ok and weighted_ok


class TestDegreeCheck:
    def test_m1_p1_linear(self):
        res = lambda_degree_check(1, 1, [Fraction(2, 3)], [Fraction(7, 5)],
                                  Fraction(-1))
        assert res
        assert res.m0_full_degree and not res.m0_degree_drop

    def test_m2_p2_random_rational(self):
        rng = random.Random(99)
        alpha = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]
        beta = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]
        res = lambda_degree_check(2, 2, alpha, beta, Fraction(2, 3))
        assert res
        assert res.m0_full_degree

    def test_degree_drop_at_one(self):
        res = lambda_degree_check(1, 1, [Fraction(2, 3)], [Fraction(7, 5)],
                                  Fraction(1))
        assert res.lambda_ok
        assert res.m0_degree_drop and not res.m0_full_degree
