import random

import pytest
from mpmath import mp

from qaccel.numerics import (
    HPComplex,
    PrecisionConfig,
    ParseError,
    parse_number,
    format_number,
    relative_error,
)


CFG = PrecisionConfig(digits=32, guard=10)
P = CFG.working


class TestParse:
    def test_rational(self):
        z = parse_number("25/27", CFG)
        assert z.im == 0
        with mp.workdps(P):
            assert abs(z.re - mp.mpf(25) / 27) < mp.mpf(10) ** (2 - P)

    def test_zero(self):
        z = parse_number("0", CFG)
        assert z.is_zero()

    def test_complex(self):
        z = parse_number("1.7+2.5i", CFG)
        assert float(z.re) == 1.7
        assert float(z.im) == 2.5

    def test_complex_negative_imag(self):
        z = parse_number("1.3-3.0i", CFG)
        assert float(z.im) == -3.0

    def test_exponent(self):
        z = parse_number("-3e-2", CFG)
        assert float(z.re) == -0.03

    def test_pure_imaginary(self):
        assert float(parse_number("2.5i", CFG).im) == 2.5
        assert float(parse_number("-i", CFG).im) == -1.0

    def test_negative_rational(self):
        assert float(parse_number("-1/2", CFG).re) == -0.5

    @pytest.mark.parametrize("bad", ["", "abc", "1..2", "25/0", "1.5/2", "1+2", "+"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_number(bad, CFG)


class TestFormat:
    def test_ten_digits(self):
        z = parse_number("1.3207256213", CFG)
        assert format_number(z, 10) == "1.320725621"

    def test_zero(self):
        assert format_number(HPComplex(0, 0, P), 10) == "0"

    def test_complex_trailing_zero(self):
        z = parse_number("0.7808031959823745-0.2060305207425406i", CFG)
        assert format_number(z, 10) == "0.7808031960-0.2060305207i"

    def test_roundtrip_examples(self):
        for text in ("1.25", "-3e-2", "1.7+2.5i", "0.001953125"):
            z = parse_number(text, CFG)
            back = parse_number(format_number(z, CFG.working), CFG)
            if z.is_zero():
                assert back.is_zero()
            else:
                assert relative_error(back, z) < mp.mpf(10) ** (2 - P)

    def test_roundtrip_random_magnitudes(self):
        rng = random.Random(20240817)
        for _ in range(60):
            mag = rng.uniform(-100, 100)
            with mp.workdps(P):
                z = HPComplex.from_mpc(
                    mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    * mp.mpf(10) ** mag,
                    P,
                )
            if z.is_zero():
                continue
            back = parse_number(format_number(z, P), CFG)
            assert relative_error(back, z) < mp.mpf(10) ** (2 - P)


class TestRelativeError:
    def test_identity(self):
        z = parse_number("1.5+0.5i", CFG)
        assert relative_error(z, z) == 0

    def test_known_value(self):
        z = parse_number("1.32", CFG)
        s = parse_number("1.3207256213", CFG)
        err = relative_error(z, s)
        assert abs(float(err) - 5.49411087585e-4) < 1e-12

    def test_unit_case(self):
        assert relative_error(HPComplex(2, 0, P), HPComplex(1, 0, P)) == 1

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            relative_error(HPComplex(1, 0, P), HPComplex(0, 0, P))

    def test_phase_symmetry(self):
        # depends only on z/s: rotating both by a common factor changes nothing
        z = parse_number("1.2+0.7i", CFG)
        s = parse_number("0.9-0.4i", CFG)
        w = parse_number("0.6+0.8i", CFG)
        a = relative_error(z, s)
        b = relative_error(z * w, s * w)
        assert abs(a - b) < mp.mpf(10) ** (4 - P)


class TestArithmetic:
    def test_mixed_precision_uses_max(self):
        lo = HPComplex(1, 0, 16)
        hi = HPComplex(1, 0, 64)
        assert (lo + hi).precision == 64
        assert (lo * hi).precision == 64

    def test_minimum_precision_enforced(self):
        with pytest.raises(ValueError):
            HPComplex(1, 0, 8)

    def test_immutability(self):
        z = HPComplex(1, 2, P)
        with pytest.raises(AttributeError):
            z.re = 0

    def test_integer_power(self):
        z = HPComplex(0, 1, P)
        assert (z ** 2) == HPComplex(-1, 0, P)
        assert (z ** -1) == HPComplex(0, -1, P)

    def test_division(self):
        z = HPComplex(1, 1, P) / HPComplex(0, 1, P)
        assert z == HPComplex(1, -1, P)

    def test_negation_keeps_precision_outside_workdps(self):
        # the ambient context is 53 bits; -1/3 must keep all 42 working digits
        z = -parse_number("1/3", CFG)
        with mp.workdps(P + 20):
            assert abs(z.value * 3 + 1) < mp.mpf(10) ** -41
        assert z.precision == P
