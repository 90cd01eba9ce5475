"""Bridge between measures and the attached weighted shift.

A probability measure on [0, inf) with power moments g_0 = 1, g_1, g_2, ...
corresponds to the shift with weights alpha_n = sqrt(g_{n+1} / g_n); its
Aluthge transform is again a shift with weights sqrt(alpha_n alpha_{n+1}),
(g_{n+2} / g_n)^(1/4), and moments sqrt(g_n g_{n+1} / (g_0 g_1)).  Every
shift-table entry is such a closed form in the moments, summed exactly on
ints (a real mass is dyadic; an odd moment at radical positions lies in
sqrt(s)*Q), and is the exact value rounded once to nearest at the working
precision; a rational measure's tables load no mpmath.  The closed forms
of a table are built once, row by row (:func:`_entries`).  The printed
tables (:func:`shift_text_rows`) hold 15 digits of those rounded values,
all made in one call of ``root_texts``, which reads them off the exact
value where the rounding cannot change them.  Positive
semidefiniteness of Hankel matrices of moments is decided exactly, and
the minimal recurrence of the moments is read off the support: p atoms of
positive mass make the p x p Hankel matrix positive definite, so no
recurrence shorter than prod(t - x_i) holds.
"""

from __future__ import annotations

import math
from bisect import bisect
from fractions import Fraction
from typing import List, Sequence, Tuple

from .measures import (
    REAL,
    AtomicMeasure,
    MeasureError,
    moments as moment_sequence,  # g_0 .. g_{count-1}, exact where possible
    numerators,
    power_sums,
)
from .scalars import (DEFAULT_PRECISION_BITS, Powers, float_str,
                      real_arithmetic, round_root)

# how far below 0 :func:`hankel_psd` lets the least eigenvalue go, per trace
HANKEL_TOLERANCE = Fraction(1, 2 ** 64)


def _times(x: tuple, y: tuple, s: int) -> tuple:
    """(a + b sqrt(s)) (c + d sqrt(s)) for x = (a, b) and y = (c, d)."""
    return x[0] * y[0] + x[1] * y[1] * s, x[0] * y[1] + x[1] * y[0]


def _entries(mu: AtomicMeasure, terms: int, bits: int) -> tuple:
    """The closed forms (x, y, r), the r-th root of x / y, of rows
    0 .. terms-1 row by row: alpha_n, transformed alpha_n, g_n / g_0 and
    transformed g_n in the moment numerators; and s."""
    if terms < 1:
        raise MeasureError("at least one weight must be requested")
    G, _, s = power_sums(mu, terms + 2, bits)
    g0g1 = _times(G[0], G[1], s)
    entries = []
    for n in range(terms):
        entries += [(G[n + 1], G[n], 2), (G[n + 2], G[n], 4), (G[n], G[0], 1),
                    (_times(G[n], G[n + 1], s), g0g1, 2)]
    return entries, s


def shift_rows(mu: AtomicMeasure, terms: int,
               bits: int = DEFAULT_PRECISION_BITS) -> List[Tuple[tuple, ...]]:
    """Rows n < terms of (alpha_n, transformed alpha_n, g_n / g_0,
    transformed g_n): raw mpf values built on ints, each rounded once."""
    entries, s = _entries(mu, terms, bits)
    values = [round_root(x, y, r, bits, s) for x, y, r in entries]
    return list(zip(*[iter(values)] * 4))


def shift_text_rows(mu: AtomicMeasure, terms: int,
                    bits: int = DEFAULT_PRECISION_BITS) -> List[Tuple[str, ...]]:
    """:func:`shift_rows` with each entry as ``float_str`` prints it to 15
    digits, made by ``root_texts`` mostly without rounding at ``bits``."""
    entries, s = _entries(mu, terms, bits)
    return list(zip(*[iter(root_texts(entries, bits, s))] * 4))


# the powers of ten below 10^700 that :func:`root_texts` scales by, about
# 100 KB in all, kept across calls (each key only ever gets its one value,
# so threads may share it); larger ones, which only entries of over about
# 2000 bits need, are kept for one call (:class:`_LargeTens`)
_TENS = Powers(10)
_TENS_KEPT = 700


class _LargeTens(dict):
    """Powers of ten of at least ``_TENS_KEPT`` digits, each computed on
    first use as the largest one computed before it times a smaller power:
    the entries of one column of a shift table scale by powers some
    hundreds of digits apart, and one product with a short factor costs a
    fraction of a power computed from scratch."""

    def __init__(self):
        super().__init__()
        self.known = [0]  # the exponents computed, ascending
        self[0] = 1

    def __missing__(self, exponent: int) -> int:
        known = self.known
        at = bisect(known, exponent)
        gap = exponent - known[at - 1]
        value = self[exponent] = self[known[at - 1]] * 10 ** gap
        known.insert(at, exponent)
        return value


def root_texts(entries, bits: int, s: int = 1) -> List[str]:
    """``float_str`` of ``round_root(x, y, r, bits, s)`` for each closed
    form (x, y, r) of ``entries``: the text of each value rounded at
    ``bits``, mostly without rounding at ``bits``.

    For rational x / y (also x = b_x sqrt(s) over y = b_y sqrt(s), an
    odd moment or a product of two over another at radical positions, read
    as b_x / b_y) one integer root gives t = floor(v 10^f), the exact
    v = (x / y)^(1/r) to 15 + 3 (or 4) decimal digits.  The value rounded
    at ``bits`` lies within v 2^-bits of v, that is within m =
    floor(t 2^-bits) + 1 units of t.  Unless that band reaches the tie of
    the 3 (or 4) digits after the 15th, or reaches below 10^e when t is
    10^17 (or 10^18) and a little, it rounds to 15 digits as v does.
    Otherwise, and for any other x or y with a radical part, the text is
    ``float_str(round_root(...))``.
    The entries of a shift table share their moments, so the log10 of
    each int is taken once per call."""
    log10, isqrt, tens, large = math.log10, math.isqrt, _TENS, _LargeTens()
    logs, texts = {}, []
    for x, y, r in entries:
        (x0, x1), (y0, y1) = x, y
        if not (x0 or y0):  # x / y = x1 sqrt(s) / (y1 sqrt(s)) is rational
            x0, x1, y0, y1 = x1, 0, y1, 0
        if not (x1 or y1):
            lx = logs.get(x0)
            if lx is None:
                lx = logs[x0] = log10(x0)
            ly = logs.get(y0)
            if ly is None:
                ly = logs[y0] = log10(y0)
            # e <= floor(log10(v)) <= e + 1, so t has 18 or 19 digits and
            # n 15, while log10 of an int of B bits is off by under
            # B * 2^-53 (2e-11 at the 160,000 bits of the moments of `gen
            # --p 400 --seed 1`); ints of millions of bits can miss that
            # margin, and take the exact path
            e = math.floor((lx - ly) / r - 1e-9)
            up = r * (17 - e)
            ten = tens[abs(up)] if abs(up) < _TENS_KEPT else large[abs(up)]
            q = x0 * ten // y0 if up >= 0 else x0 // (y0 * ten)
            t = q if r == 1 else isqrt(q) if r == 2 else isqrt(isqrt(q))
            if t < 10 ** 18:
                (n, rem), half = divmod(t, 1000), 500
            else:
                (n, rem), half, e = divmod(t, 10000), 5000, e + 1
            m = (t >> bits) + 1
            # the value at bits is within m units of t: its text is that of
            # n or n + 1 unless that band reaches the tie at half, or for
            # n = 10^14 reaches below 10^e where 10^e is no bits-bit value
            if not 10 ** 17 <= t < 10 ** 19:
                done = False
            elif rem + 1 + m <= half:
                done = rem >= m or n > 10 ** 14 or 0 <= e and 5 ** e >> bits == 0
            else:
                done = rem - m >= half
                if done:
                    n += 1
                    if n == 10 ** 15:
                        n, e = 10 ** 14, e + 1
            if done:
                # n 10^(e - 14) as :func:`float_str` lays it out
                text = str(n).rstrip("0")
                if 0 <= e < 15:
                    if len(text) > e + 1:
                        texts.append(f"{text[:e + 1]}.{text[e + 1:]}")
                    else:
                        texts.append(text.ljust(e + 1, "0") + ".0")
                elif -5 < e < 0:
                    texts.append("0." + "0" * (-e - 1) + text)
                else:
                    texts.append(f"{text[0]}.{text[1:] or '0'}e{e:+d}")
                continue
        _, man, exp, _ = round_root(x, y, r, bits, s)
        texts.append(float_str(man, exp))
    return texts


def weights_from_measure(mu: AtomicMeasure, count: int,
                         bits: int = DEFAULT_PRECISION_BITS) -> List["mpf"]:
    """Shift weights alpha_0 .. alpha_{count-1} of the normalized measure,
    as mpfs, each rounded once (column 0 of :func:`shift_rows`)."""
    entries, s = _entries(mu, count, bits)
    from_raw = real_arithmetic().from_raw
    return [from_raw(round_root(x, y, r, bits, s))
            for x, y, r in entries[::4]]


def aluthge_weights(alpha: Sequence["mpf"],
                    bits: int = DEFAULT_PRECISION_BITS) -> List["mpf"]:
    """Geometric means sqrt(alpha_n alpha_{n+1}) of consecutive weights,
    each the exact value rounded once; one entry shorter."""
    if len(alpha) < 2:
        raise MeasureError("need at least two weights")
    nums, den = numerators(alpha, REAL, bits)
    from_raw = real_arithmetic().from_raw
    return [from_raw(round_root((a * b, 0), (den * den, 0), 2, bits))
            for a, b in zip(nums, nums[1:])]


def moments_from_weights(alpha: Sequence["mpf"],
                         bits: int = DEFAULT_PRECISION_BITS) -> List["mpf"]:
    """g_0 = 1 and g_k = alpha_0^2 ... alpha_{k-1}^2, each the exact value
    rounded once."""
    nums, den = numerators(alpha, REAL, bits) if alpha else ([], 1)
    from_raw = real_arithmetic().from_raw
    out, product, power = [from_raw((0, 1, 0, 1))], 1, 1
    for a in nums:
        product, power = product * a * a, power * den * den
        out.append(from_raw(round_root((product, 0), (power, 0), 1, bits)))
    return out


def hankel_psd(
    gammas: Sequence,
    n: int,
    tol: Fraction = HANKEL_TOLERANCE,
) -> Tuple[bool, bool]:
    """Positive semidefiniteness of (g_{i+j}) and (g_{i+j+1}) for i,j <= n
    up to ``tol``: whether each one's least eigenvalue exceeds -tol times its
    trace, decided exactly on the values given (an mpf is dyadic)."""
    if len(gammas) < 2 * n + 2:
        raise MeasureError(
            f"need {2 * n + 2} moments for order {n}, got {len(gammas)}")
    values = gammas[:2 * n + 2]
    if any(hasattr(g, "_mpf_") for g in values):
        mpf_to_fraction = real_arithmetic().mpf_to_fraction
        values = [mpf_to_fraction(g) if hasattr(g, "_mpf_") else g
                  for g in values]
    values = [Fraction(g) for g in values]
    common = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (common // v.denominator) for v in values]
    return tuple(_shifted_positive_definite(ints[offset:], n, tol) for offset in (0, 1))


def _shifted_positive_definite(h: Sequence[int], n: int, tol: Fraction) -> bool:
    """Whether H + tol * trace(H) * I, H = (h_{i+j}) for i,j <= n, is positive
    definite.  Sylvester's criterion asks every leading minor to be positive;
    those of the integer matrix tol.denominator times it are Bareiss's pivots."""
    shift = tol.numerator * sum(h[0:2 * n + 1:2])
    rows = [[h[i + j] * tol.denominator + (shift if i == j else 0)
             for j in range(n + 1)] for i in range(n + 1)]
    previous = 1
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        if pivot <= 0:
            return False
        for row in rows[k + 1:]:
            row[k + 1:] = [(x * pivot - row[k] * y) // previous
                           for x, y in zip(row[k + 1:], pivot_row[k + 1:])]
        previous = pivot
    return True


def support_characteristic(mu: AtomicMeasure) -> Tuple[Fraction, ...]:
    """Coefficients of prod(t - position) from the constant term upward;
    rational positions required.  Multiplied out on ints as prod(b*t - a)
    over the positions a/b, then divided by prod(b) once per coefficient."""
    coeffs, scale = [1], 1
    for pos in mu.support:
        root = pos.as_fraction()
        a, b = root.numerator, root.denominator
        coeffs = [b * high - a * low
                  for high, low in zip([0] + coeffs, coeffs + [0])]
        scale *= b
    return tuple([Fraction(c, scale) for c in coeffs])
