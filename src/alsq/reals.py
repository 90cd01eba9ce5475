"""Real-mode arithmetic: the one module of the package that loads mpmath.

A real-mode mass is an ``mpmath.mpf``.  The package computes on its raw
libmp value (``mpf._mpf_``), with the precision and the rounding of every
operation given explicitly, so no result depends on mpmath's global
context.

``import alsq`` does not import this module.  Each real-mode branch gets it
from ``alsq.scalars.real_arithmetic`` once per call, so a process that only
meets rational input never loads mpmath.  The libmp names stay module
globals here, for the helpers below that run once per scalar, and the
real-mode branches elsewhere call them through this module.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mpf
from mpmath.libmp import (
    from_float,
    from_int,
    from_man_exp,
    from_rational,
    from_str,
    fzero,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_pos,
    mpf_sqrt,
    round_down,
    round_nearest,
    to_str,
)

from .scalars import ScalarError


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


def position_raw(pos, bits: int) -> tuple:
    """The raw value of the position q * sqrt(base)^k at ``bits``: q
    converted, times the square root of the base rounded to nearest."""
    value = to_raw(pos.q, bits)
    if pos.k:
        root = mpf_sqrt(to_raw(pos.base, bits), bits, round_nearest)
        value = mpf_mul(value, root, bits, round_nearest)
    return value


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


def decimal_str(x: mpf, digits: int = 12) -> str:
    """``x`` to ``digits`` significant digits, as ``mpmath.nstr`` prints it."""
    return to_str(x._mpf_, digits)


def to_dyadic(raws) -> tuple:
    """Nonnegative raw libmp values, exactly, as int numerators over one
    power of two, and that power."""
    low = min(0, min([exp for _, _, exp, _ in raws]))
    return [man << (exp - low) for _, man, exp, _ in raws], 1 << -low


def round_dyadic(nums, den: int, bits: int) -> tuple:
    """n / den for each int n, rounded to nearest at ``bits``, for a power
    of two ``den``: as :func:`to_dyadic` gives them."""
    exp = 1 - den.bit_length()
    return to_dyadic([from_man_exp(n, exp, bits, round_nearest) for n in nums])


def from_dyadic(n: int, den: int) -> mpf:
    """The mpf equal to n / den for a power of two ``den``, unrounded."""
    return from_raw(from_man_exp(n, 1 - den.bit_length()))
