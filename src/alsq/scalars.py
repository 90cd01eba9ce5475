"""Scalar arithmetic used throughout the package.

Two kinds of scalars appear:

* exact rationals (``fractions.Fraction``), and
* arbitrary-precision binary floats (``mpmath.mpf``) at a configured
  precision, used whenever a value genuinely leaves the rational field.

Positions of atoms are always exact; only masses may be floating.  This
module holds the rational helpers and imports no mpmath.  Real-mode
arithmetic lives in :mod:`alsq.reals`, the one module that loads mpmath;
a rational run never imports it.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Optional, Tuple, Union

# a mass: an exact Fraction, or in real mode an mpmath mpf (named here
# without importing mpmath)
Scalar = Union[Fraction, "mpf"]

DEFAULT_PRECISION_BITS = 128
DEFAULT_TOLERANCE = Fraction(1, 2 ** 64)


class ScalarError(ValueError):
    pass


class Record:
    """Base of the package's small records: immutable, equal and hashed by
    their fields in order, and shown as ``Name(field=value, ...)``.

    A record names its fields in ``_fields`` and keeps them in
    ``__slots__``; its own ``__init__`` stores each with
    ``object.__setattr__``.  ``_hidden`` names the fields ``repr`` leaves
    out.  A record compared by identity sets ``__eq__ = object.__eq__`` and
    ``__hash__ = object.__hash__``; a mutable one sets ``__setattr__ =
    object.__setattr__`` and ``__hash__ = None``.

    Records are plain classes, not dataclasses: importing ``dataclasses``
    loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, and making each
    dataclass executes generated code, which together cost every CLI
    process about 30 ms, several times the time it takes to decide a small
    measure.  Slots keep an instance at the size of its fields, with no
    ``__dict__``.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _hidden: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor, which
        # takes its fields in order
        return self.__class__, self._values()

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}"
                           for name in self._fields
                           if name not in self._hidden])
        return f"{self.__class__.__qualname__}({shown})"


class Powers(dict):
    """The powers of one int, each computed on first use."""

    def __init__(self, base: int):
        super().__init__()
        self.base = base

    def __missing__(self, exponent: int) -> int:
        value = self[exponent] = self.base ** exponent
        return value


@functools.cache
def real_arithmetic():
    """The module :mod:`alsq.reals`, imported on the first call.

    Real-mode branches get that module here, once per call, and nothing
    imports it at module level, so a process that meets only rational input
    never loads mpmath.  After the first call this is one dict lookup; a
    function-local import statement costs about fifty function calls each
    time it runs, and real-mode ``analyze`` would run dozens."""
    from . import reals

    return reals


# ---------------------------------------------------------------------------
# rational helpers
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer string, or a plain decimal string exactly, but
    build no numerator or denominator over ``sys.get_int_max_str_digits()``."""
    text = text.strip()
    limit = sys.get_int_max_str_digits()
    if not limit or len(text) <= limit:
        # the forms a measure document holds, d+ and d+/d+, read without
        # Fraction's regular expression (its \d is str.isdecimal too)
        if text.isdecimal():
            return Fraction(int(text))
        num, slash, den = text.partition("/")
        if slash and num.isdecimal() and den.isdecimal():
            den = int(den)
            if den:  # one gcd, in Fraction
                return Fraction(int(num), den)
            raise ScalarError(f"malformed rational {text[:40]!r}")
    mantissa, _, exponent = text.lstrip("+-").upper().partition("E")
    try:
        # digits of the unreduced numerator and denominator, or more
        size = len(mantissa)
        if size > limit:  # p and q of "p/q" count separately
            size = max(map(len, mantissa.split("/")))
        if exponent:
            whole, _, decimals = mantissa.partition(".")
            shift = int(exponent)
            size = max(len(whole) + len(decimals) + max(shift, 0),
                       len(decimals) + max(-shift, 0) + 1)
        if not limit or size <= limit:
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarError(f"malformed rational {text[:40]!r}") from exc
    raise ScalarError(f"rational {text[:40]!r} has more than {limit} digits")


def format_rational(value: Fraction) -> str:
    return str(value if type(value) is Fraction else Fraction(value))


def isqrt_exact(n: int) -> Optional[int]:
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def sqrt_fraction(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    num = isqrt_exact(q.numerator)
    if num is None:
        return None
    den = isqrt_exact(q.denominator)
    if den is None:
        return None
    return Fraction(num, den)


class Surd:
    """a + b*sqrt(s) for ints a, b and an int s > 0, no square where b is
    nonzero: exact under sums and int multiples, with an exact sign."""

    __slots__ = ("a", "b", "s")

    def __init__(self, a: int, b: int, s: int):
        self.a, self.b, self.s = a, b, s

    def __add__(self, x):
        a, b = (x, 0) if type(x) is int else (x.a, x.b)
        return Surd(self.a + a, self.b + b, self.s)

    def __mul__(self, k: int):
        return Surd(self.a * k, self.b * k, self.s)

    __radd__, __rmul__ = __add__, __mul__

    def __bool__(self):
        return bool(self.a or self.b)

    def __lt__(self, k: int):
        return (self + -k).sign() < 0

    def sign(self) -> int:  # by a^2 against b^2 s where a and b differ
        a, b = self.a, self.b
        if a * b < 0:
            return (1 if a > 0 else -1) * (1 if a * a > b * b * self.s else -1)
        return (a > 0 or b > 0) - (a < 0 or b < 0)


def round_root(x: tuple, y: tuple, r: int, bits: int,
               s: int = 1) -> Tuple[int, int, int, int]:
    """(x / y)^(1/r), r in (1, 2, 4), rounded once to nearest even at
    ``bits``: the raw mpf value (0, man, exp, bc), built without mpmath.
    x and y are pairs (a, b) of ints for the positive a + b*sqrt(s), with s
    no square where a b is nonzero.  ``math.isqrt`` takes the root to bits + 2 bits or more, with a
    sticky last bit, so rounding it is rounding the exact value.  With
    sqrt(s) to bits + 8 bits the root is off by under 1/4, and one exact
    comparison corrects it."""
    (x0, x1), (y0, y1) = x, y
    num, den = x0, y0
    if x1 or y1:
        root = math.isqrt(s << 2 * bits + 16)
        num, den = (x0 << bits + 8) + x1 * root, (y0 << bits + 8) + y1 * root
    k = bits + 2 - (num.bit_length() - den.bit_length() - 1) // r
    up = r * k  # the root is of x 2^up / y
    q, rem = divmod(num << up, den) if up >= 0 else divmod(num, den << -up)
    t = q if r == 1 else math.isqrt(q) if r == 2 else math.isqrt(math.isqrt(q))
    inexact = rem or t ** r != q
    if x1 or y1:
        up, down = max(up, 0), max(-up, 0)

        def excess(t):  # the sign of x 2^(rk) - t^r y
            c = t ** r
            return Surd((x0 << up) - (c * y0 << down),
                        (x1 << up) - (c * y1 << down), s).sign()
        t = t - 1 if excess(t) < 0 else t + (excess(t + 1) >= 0)
        inexact = excess(t) != 0
    t |= bool(inexact)
    drop = t.bit_length() - bits
    half = 1 << (drop - 1)
    man, low = t >> drop, t & (2 * half - 1)
    man += low > half or low == half and man & 1
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return 0, man, drop - k + zeros, man.bit_length()


def float_str(man: int, exp: int, digits: int = 15) -> str:
    """The positive man * 2^exp rounded once to ``digits`` significant
    digits, ties away from zero, in the layout of mpmath's
    ``to_str(x, digits)``: fixed point for decimal exponents e with
    -max(digits // 3, 5) < e < digits, else one digit before the point and
    the exponent.  It is not ``to_str``, which first cuts the value toward
    zero to int(3.32 * (digits + 3)) + 10 bits and digits + 3 digits, so
    the two can differ in the last digit near a decimal tie: at 12 digits
    ``to_str`` prints 787.256642812 where this gives 787.256642813."""
    low = 10 ** (digits - 1)
    e = math.floor(math.log10(man) + exp * 0.30102999566398120)  # about log10
    while True:  # n + rem / den = man 2^exp 10^(digits - 1 - e)
        f = digits - 1 - e
        num, den = (man * 10 ** f, 1) if f >= 0 else (man, 10 ** -f)
        num, den = (num << exp, den) if exp >= 0 else (num, den << -exp)
        n, rem = divmod(num, den)
        if low <= n < 10 * low:
            break
        e += 1 if n >= low else -1
    n += 2 * rem >= den
    if n == 10 * low:
        n, e = low, e + 1
    text = str(n).rstrip("0")
    if 0 <= e < digits:
        if len(text) > e + 1:
            return text[:e + 1] + "." + text[e + 1:]
        return text.ljust(e + 1, "0") + ".0"
    if -max(digits // 3, 5) < e < 0:
        return "0." + "0" * (-e - 1) + text
    return text[0] + "." + (text[1:] or "0") + f"e{e:+d}"


def scalar_str(value) -> str:
    """A scalar or a position as a message quotes it: a rational with more
    digits than the interpreter converts to a string by its size only."""
    if hasattr(value, "_mpf_"):  # a real: mpmath is loaded already
        return real_arithmetic().decimal_str(value)
    try:
        return str(value)
    except ValueError:
        return oversized_str()


def oversized_str() -> str:
    """How a message quotes a value with more digits than the interpreter
    converts to a string."""
    return f"(a number of more than {sys.get_int_max_str_digits()} digits)"
