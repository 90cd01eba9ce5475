"""Scalar arithmetic used throughout the package.

Two kinds of scalars appear:

* exact rationals (``fractions.Fraction``), and
* arbitrary-precision binary floats (``mpmath.mpf``) at a configured
  precision, used whenever a value genuinely leaves the rational field.

Positions of atoms are always exact; only masses may be floating.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

import mpmath
from mpmath import mpf, workprec

Scalar = Union[Fraction, mpf]

DEFAULT_PRECISION_BITS = 128
DEFAULT_TOLERANCE = Fraction(1, 2 ** 64)


class ScalarError(ValueError):
    pass


# ---------------------------------------------------------------------------
# rational helpers
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer string, or a plain decimal string exactly."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarError(f"malformed rational {text!r}") from exc


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

def to_mpf(value, bits: int) -> mpf:
    """Convert Fraction/int/str/mpf to an mpf at the given precision."""
    with workprec(bits):
        return +mpmath.mpmathify(value)


def mpf_to_fraction(x: mpf) -> Fraction:
    """Exact dyadic rational equal to a finite mpf."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if x == 0:
            return Fraction(0)
        raise ScalarError(f"cannot convert non-finite value {x!r} to a rational")
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def close_rel(x: mpf, y: mpf, tol: mpf) -> bool:
    """Relative closeness with graceful fallback to absolute near zero."""
    with workprec(512):
        x = mpf(x)
        y = mpf(y)
        scale = max(abs(x), abs(y), mpf(1))
        return abs(x - y) <= tol * scale


def decimal_str(x, digits: int = 12) -> str:
    return mpmath.nstr(mpf(x), digits)
