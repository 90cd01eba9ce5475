"""Scalar arithmetic used throughout the package.

Two kinds of scalars appear:

* exact rationals (``fractions.Fraction``), and
* arbitrary-precision binary floats (``mpmath.mpf``) at a configured
  precision, used whenever a value genuinely leaves the rational field.

Positions of atoms are always exact; only masses may be floating.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Optional, Union

import mpmath
from mpmath import mpf
from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    from_rational,
    from_str,
    mpf_abs,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_pos,
    mpf_sub,
    round_down,
    round_nearest,
    to_str,
)

Scalar = Union[Fraction, mpf]

DEFAULT_PRECISION_BITS = 128
DEFAULT_TOLERANCE = Fraction(1, 2 ** 64)


class ScalarError(ValueError):
    pass


# ---------------------------------------------------------------------------
# rational helpers
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer string, or a plain decimal string exactly, but
    build no numerator or denominator over ``sys.get_int_max_str_digits()``."""
    text = text.strip()
    limit = sys.get_int_max_str_digits()
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
    return str(Fraction(value))


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


# ---------------------------------------------------------------------------
# real mode
# ---------------------------------------------------------------------------

def to_raw(value, bits: int) -> tuple:
    """The raw libmp value (``mpf._mpf_``) of ``value`` at ``bits``, rounded
    as ``+mpmathify(value)`` rounds it under ``workprec(bits)``: to nearest,
    except that a Fraction is rounded toward zero, as mpmath converts one.
    Takes no state from mpmath's global context."""
    if isinstance(value, mpf):
        return mpf_pos(value._mpf_, bits, round_nearest)
    if isinstance(value, Fraction):
        return from_rational(value.numerator, value.denominator, bits, round_down)
    if isinstance(value, int):
        return from_int(value, bits, round_nearest)
    if isinstance(value, float):
        return from_float(value, bits, round_nearest)
    if isinstance(value, str):
        return from_str(value, bits, round_nearest)
    raise ScalarError(f"cannot convert {value!r} to a binary float")


from_raw = mpmath.mp.make_mpf  # an mpf holding a raw value, unrounded


def operand(value, bits: int) -> tuple:
    """The raw value an mpf operator under ``workprec(bits)`` uses for
    ``value``: an mpf as it is, anything else converted at ``bits``."""
    return value._mpf_ if isinstance(value, mpf) else to_raw(value, bits)


def to_mpf(value, bits: int) -> mpf:
    """Convert Fraction/int/str/mpf to an mpf at the given precision."""
    return from_raw(to_raw(value, bits))


def mpf_to_fraction(x: mpf) -> Fraction:
    """Exact dyadic rational equal to a finite mpf."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if x == 0:
            return Fraction(0)
        raise ScalarError(f"cannot convert non-finite value {x!r} to a rational")
    if sign:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def close_rel(x: mpf, y: mpf, tol: mpf) -> bool:
    """|x - y| <= tol * max(|x|, |y|, 1), decided exactly."""
    x, y = x._mpf_, y._mpf_
    scale = fone
    for value in (mpf_abs(x), mpf_abs(y)):
        if mpf_lt(scale, value):
            scale = value
    return mpf_le(mpf_abs(mpf_sub(x, y)), mpf_mul(tol._mpf_, scale))


def decimal_str(x: mpf, digits: int = 12) -> str:
    return to_str(x._mpf_, digits)


def scalar_str(value) -> str:
    """A scalar or a position as a message quotes it: a rational with more
    digits than the interpreter converts to a string by its size only."""
    if isinstance(value, mpf):
        return decimal_str(value)
    try:
        return str(value)
    except ValueError:
        return f"(a number of more than {sys.get_int_max_str_digits()} digits)"
