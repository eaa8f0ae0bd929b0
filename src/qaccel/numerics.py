"""High-precision complex scalars.

Every value the library manipulates is an :class:`HPComplex`: a complex
number carrying the number of significant decimal digits of the context it
was computed in.  Arithmetic between two values runs at the larger of their
two context precisions, so precision never silently degrades.

The backend is mpmath; values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, mpc, nstr

MIN_PRECISION = 16

DEFAULT_DIGITS = 32
DEFAULT_GUARD = 10


class ParseError(ValueError):
    """Malformed numeric literal."""


@dataclass(frozen=True)
class PrecisionConfig:
    """User-requested digits plus internal guard digits.

    The working precision is ``digits + guard``; the guard absorbs
    cancellation inside the high-order difference operators.
    """

    digits: int = DEFAULT_DIGITS
    guard: int = DEFAULT_GUARD

    def __post_init__(self):
        if self.digits < 1:
            raise ValueError("digits must be positive")
        if self.guard < 0:
            raise ValueError("guard must be non-negative")

    @property
    def working(self) -> int:
        return self.digits + self.guard


DEFAULT_PRECISION = PrecisionConfig()


def _to_mpf(value, dps):
    with mp.workdps(dps):
        if isinstance(value, Fraction):
            return mpf(value.numerator) / mpf(value.denominator)
        if isinstance(value, str):
            return mpf(value)
        return mpf(value)


class HPComplex:
    """Immutable complex number with an attached working precision.

    ``precision`` is the number of significant decimal digits of the
    context the value lives in (at least 16).  Mixed-precision arithmetic
    uses the max of the two operand precisions.
    """

    __slots__ = ("re", "im", "precision")

    def __init__(self, re=0, im=0, precision: int = DEFAULT_PRECISION.working):
        if precision < MIN_PRECISION:
            raise ValueError(f"precision must be >= {MIN_PRECISION}")
        object.__setattr__(self, "precision", int(precision))
        object.__setattr__(self, "re", _to_mpf(re, precision))
        object.__setattr__(self, "im", _to_mpf(im, precision))

    def __setattr__(self, name, value):
        raise AttributeError("HPComplex is immutable")

    # -- conversions ---------------------------------------------------

    @classmethod
    def from_mpc(cls, z, precision: int) -> "HPComplex":
        out = cls.__new__(cls)
        object.__setattr__(out, "precision", int(precision))
        z = mpc(z)
        object.__setattr__(out, "re", z.real)
        object.__setattr__(out, "im", z.imag)
        return out

    @property
    def value(self):
        """The underlying mpmath complex value, not rounded to the context."""
        return mp.make_mpc((self.re._mpf_, self.im._mpf_))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other, precision):
        if isinstance(other, HPComplex):
            return other
        if isinstance(other, (int, float, Fraction, mpf)):
            return HPComplex(other, 0, precision)
        if isinstance(other, (complex, mpc)):
            return HPComplex.from_mpc(other, precision)
        return None

    def _binop(self, other, op):
        rhs = self._coerce(other, self.precision)
        if rhs is None:
            return NotImplemented
        prec = max(self.precision, rhs.precision)
        with mp.workdps(prec):
            return HPComplex.from_mpc(op(self.value, rhs.value), prec)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        with mp.workdps(self.precision):
            return HPComplex.from_mpc(self.value ** exponent, self.precision)

    def __neg__(self):
        with mp.workdps(self.precision):
            return HPComplex.from_mpc(-self.value, self.precision)

    def __abs__(self):
        """Complex modulus, as an mpf at the value's precision."""
        with mp.workdps(self.precision):
            return abs(self.value)

    def sqrt(self) -> "HPComplex":
        with mp.workdps(self.precision):
            from mpmath import sqrt
            return HPComplex.from_mpc(sqrt(self.value), self.precision)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_nonpositive_integer(self) -> bool:
        return self.im == 0 and self.re <= 0 and self.re == int(self.re)

    def __eq__(self, other):
        rhs = self._coerce(other, self.precision)
        if rhs is None:
            return NotImplemented
        return self.re == rhs.re and self.im == rhs.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"HPComplex({format_number(self, min(self.precision, 20))!r}, precision={self.precision})"


# -- literal grammar ---------------------------------------------------

def _parse_real(token: str, dps: int):
    token = token.strip()
    sign = 1
    if token and token[0] in "+-":
        if token[0] == "-":
            sign = -1
        token = token[1:]
    if "/" in token:
        num, _, den = token.partition("/")
        if not (num.isdigit() and den.isdigit() and int(den) != 0):
            raise ParseError(f"bad rational literal {token!r}")
        with mp.workdps(dps):
            return sign * (mpf(int(num)) / mpf(int(den)))
    try:
        with mp.workdps(dps):
            return sign * mpf(token)
    except Exception:
        raise ParseError(f"bad numeric literal {token!r}") from None


def parse_number(text: str, config: PrecisionConfig = DEFAULT_PRECISION) -> HPComplex:
    """Parse a real/complex literal into an HPComplex at working precision.

    Accepted forms: decimals ("1.25", "-3e-2"), rationals ("25/27"),
    complex ("1.7+2.5i", "1.3-3.0i", "2.5i", "-i").  Rationals are
    evaluated by a single high-precision division.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected string, got {type(text).__name__}")
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty numeric literal")
    dps = config.working

    if s[-1] in "iIjJ":
        body = s[:-1]
        # split off the trailing imaginary term: last +/- not part of an exponent
        split = -1
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                split = k
                break
        if split == -1:
            re_part, im_part = "", body
        else:
            re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im_part = "1"
        elif im_part == "-":
            im_part = "-1"
        im_val = _parse_real(im_part, dps)
        re_val = _parse_real(re_part, dps) if re_part else mpf(0)
        out = HPComplex.__new__(HPComplex)
        object.__setattr__(out, "precision", dps)
        object.__setattr__(out, "re", re_val)
        object.__setattr__(out, "im", im_val)
        return out

    val = _parse_real(s, dps)
    out = HPComplex.__new__(HPComplex)
    object.__setattr__(out, "precision", dps)
    object.__setattr__(out, "re", val)
    object.__setattr__(out, "im", mpf(0))
    return out


def _format_real(x, digits: int) -> str:
    if x == 0:
        return "0"
    with mp.workdps(digits + 8):
        s = nstr(x, digits, strip_zeros=False)
    # nstr keeps one trailing ".0" style zero on integers; keep it stable
    return s


def format_number(z: HPComplex, digits: int) -> str:
    """Round-to-nearest decimal string with `digits` significant digits.

    Complex values render as "a+bi" / "a-bi"; pure reals drop the
    imaginary part; zero renders as "0".
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if z.is_zero():
        return "0"
    if z.im == 0:
        return _format_real(z.re, digits)
    if z.re == 0:
        return _format_real(z.im, digits) + "i"
    im_str = _format_real(z.im, digits)
    sign = "-" if im_str.startswith("-") else "+"
    return f"{_format_real(z.re, digits)}{sign}{im_str.lstrip('-')}i"


def relative_error(z: HPComplex, s: HPComplex):
    """|z/s - 1| with the complex modulus; domain error when s = 0."""
    if s.is_zero():
        raise ValueError("relative_error undefined for s = 0")
    prec = max(z.precision, s.precision)
    with mp.workdps(prec):
        return abs(z.value / s.value - 1)
