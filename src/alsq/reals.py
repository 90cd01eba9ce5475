"""Real-mode arithmetic: the one module of the package that loads mpmath.

A real-mode mass is an ``mpmath.mpf``: a dyadic rational, held as its raw
value ``mpf._mpf_`` = (sign, man, exp, bc) for (-1)^sign * man * 2^exp, man
odd with bc bits, or (0, 0, 0, 0) for zero.  Every rounding real mode does
runs on ints here, with its precision and its rounding given explicitly,
and gives the raw value that the libmp call with the same precision and
rounding gives: each result is the exact value rounded once, to nearest
with ties to even, or toward zero where mpmath converts a Fraction so.  No
result depends on mpmath's global context.  A precision ``bits`` is at
least 1; libmp reads 0 as exact.  mpmath stays as the container of a raw
value (:data:`from_raw`), the parser of decimal text (``from_str``) and
the printer of 12-digit text (``to_str``).

``import alsq`` does not import this module.  Each real-mode branch gets it
from ``alsq.scalars.real_arithmetic`` once per call, so a process that only
meets rational input never loads mpmath.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import from_str, to_str

from .scalars import ScalarError, round_root

ZERO = (0, 0, 0, 0)  # the raw value of zero
# libmp's raw values of +inf, -inf and nan; a value with man = 0 and exp
# nonzero is not finite
_SPECIALS = {float("inf"): (0, 0, -456, -2), float("-inf"): (1, 0, -789, -3)}
_NAN = (0, 0, -123, -1)

from_raw = mp.make_mpf  # an mpf holding a raw value, unrounded


def normalized(sign: int, man: int, exp: int) -> tuple:
    """The raw value of (-1)^sign * man * 2^exp for an int man >= 0, exact:
    trailing zero bits move into the exponent."""
    if not man:
        return ZERO
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


def rounded(sign: int, man: int, exp: int, bits: int) -> tuple:
    """The raw value of (-1)^sign * man * 2^exp, man >= 0, rounded to
    nearest at ``bits``, ties to even: libmp's ``from_man_exp`` with
    ``round_nearest``."""
    drop = man.bit_length() - bits
    if drop > 0:
        half = 1 << drop - 1
        low = man & 2 * half - 1
        man >>= drop
        man += low > half or low == half and man & 1
        exp += drop
    return normalized(sign, man, exp)


def quotient_down(n: int, d: int, bits: int) -> tuple:
    """The raw value of n / d, for ints n and d > 0, rounded toward zero at
    ``bits``: libmp's ``from_rational`` with ``round_down``."""
    sign, a = (1, -n) if n < 0 else (0, n)
    if not a:
        return ZERO
    # a 2^shift / d lies in [2^(bits - 1), 2^(bits + 1)): its floor has bits
    # or bits + 1 bits, and flooring again floors the exact quotient
    shift = bits + d.bit_length() - a.bit_length()
    t = (a << shift) // d if shift >= 0 else a // (d << -shift)
    drop = t.bit_length() - bits
    return normalized(sign, t >> drop, drop - shift)


def quotient(x: tuple, y: tuple, bits: int) -> tuple:
    """x / y for raw values, y finite and nonzero, rounded to nearest at
    ``bits``, as libmp's ``mpf_div`` rounds it: the quotient of the
    mantissas from ``round_root`` with r = 1.  Zero and a value that is
    not finite come back as they are."""
    sign, man, exp, _ = x
    if not man:
        return x
    _, man, e, bc = round_root((man, 0), (y[1], 0), 1, bits)
    return sign ^ y[0], man, e + exp - y[2], bc


def product(x: tuple, y: tuple, bits: int) -> tuple:
    """x * y for raw values, y finite, rounded to nearest at ``bits``, as
    libmp's ``mpf_mul`` rounds it.  A value x that is not finite comes back
    as it is."""
    sign, man, exp, _ = x
    if not man and exp:
        return x
    return rounded(sign ^ y[0], man * y[1], exp + y[2], bits)


def total(x: tuple, y: tuple, bits: int) -> tuple:
    """x + y for finite raw values, rounded to nearest at ``bits``, as
    libmp's ``mpf_add`` rounds it."""
    (s, m, e, _), (t, n, f, _) = x, y
    low = min(e, f)
    n = (-1) ** s * (m << e - low) + (-1) ** t * (n << f - low)
    return rounded(1 if n < 0 else 0, abs(n), low, bits)


def sqrt_raw(x: tuple, bits: int) -> tuple:
    """sqrt(x) for a finite raw value x > 0, rounded to nearest at
    ``bits``, as libmp's ``mpf_sqrt`` rounds it: ``round_root`` with r = 2
    on the mantissa over an even exponent."""
    _, man, exp, _ = x
    if exp & 1:
        man, exp = man << 1, exp - 1
    _, man, e, bc = round_root((man, 0), (1, 0), 2, bits)
    return 0, man, e + exp // 2, bc


def to_raw(value, bits: int) -> tuple:
    """The raw value of ``value`` at ``bits``, rounded as
    ``+mpmathify(value)`` rounds it under ``workprec(bits)``: to nearest,
    except that a Fraction is rounded toward zero, as mpmath converts one.
    Takes no state from mpmath's global context."""
    if isinstance(value, mpf):
        sign, man, exp, bc = raw = value._mpf_
        if not man or bc <= bits and man & 1:  # 0, not finite, or narrow
            return raw
        return rounded(sign, man, exp, bits)
    if isinstance(value, Fraction):
        return quotient_down(value.numerator, value.denominator, bits)
    if isinstance(value, int):
        return rounded(1 if value < 0 else 0, abs(value), 0, bits)
    if isinstance(value, float):
        if value - value:  # +-inf or nan
            return _SPECIALS.get(value, _NAN)
        n, d = value.as_integer_ratio()
        return rounded(1 if n < 0 else 0, abs(n), 1 - d.bit_length(), bits)
    if isinstance(value, str):
        return from_str(value, bits, "n")  # "n": libmp's round_nearest
    raise ScalarError(f"cannot convert {value!r} to a binary float")


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
        value = product(value, sqrt_raw(to_raw(pos.base, bits), bits), bits)
    return value


def mpf_to_fraction(x: mpf) -> Fraction:
    """Exact dyadic rational equal to a finite mpf."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if not exp:
            return Fraction(0)
        raise ScalarError(f"cannot convert non-finite value {x!r} to a rational")
    if sign:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def dyadic_text(x: mpf) -> str:
    """The exact value of a finite mpf as ``str(mpf_to_fraction(x))``
    prints it, from its mantissa, which is odd, and its exponent."""
    sign, man, exp, _ = x._mpf_
    if not man:
        if exp:
            raise ScalarError(
                f"cannot convert non-finite value {x!r} to a rational")
        return "0"
    text = str(man << exp) if exp >= 0 else f"{man}/{1 << -exp}"
    return "-" + text if sign else text


def decimal_str(x: mpf, digits: int = 12) -> str:
    """``x`` to ``digits`` significant digits, as ``mpmath.nstr`` prints it."""
    return to_str(x._mpf_, digits)


def to_dyadic(raws) -> tuple:
    """Nonnegative raw libmp values, exactly, as int numerators over one
    power of two, and that power."""
    low = min(0, min([exp for _, _, exp, _ in raws]))
    return [man << (exp - low) for _, man, exp, _ in raws], 1 << -low


def round_dyadic(nums, den: int, bits: int) -> tuple:
    """n / den for each int n >= 0, rounded to nearest at ``bits``, for a
    power of two ``den``: as :func:`to_dyadic` gives them."""
    exp = 1 - den.bit_length()
    return to_dyadic([rounded(0, n, exp, bits) for n in nums])


def from_dyadic(n: int, den: int) -> mpf:
    """The mpf equal to n / den for a power of two ``den``, unrounded."""
    return from_raw(normalized(1 if n < 0 else 0, abs(n),
                               1 - den.bit_length()))
