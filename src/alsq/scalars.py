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
from typing import Optional, Union

# a mass: an exact Fraction, or in real mode an mpmath mpf (named here
# without importing mpmath)
Scalar = Union[Fraction, "mpf"]

DEFAULT_PRECISION_BITS = 128
DEFAULT_TOLERANCE = Fraction(1, 2 ** 64)


class ScalarError(ValueError):
    pass


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


def scalar_str(value) -> str:
    """A scalar or a position as a message quotes it: a rational with more
    digits than the interpreter converts to a string by its size only."""
    if hasattr(value, "_mpf_"):  # a real: mpmath is loaded already
        return real_arithmetic().decimal_str(value)
    try:
        return str(value)
    except ValueError:
        return f"(a number of more than {sys.get_int_max_str_digits()} digits)"
