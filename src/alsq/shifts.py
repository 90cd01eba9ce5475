"""Bridge between measures and the attached weighted shift.

A probability measure on [0, inf) with power moments g_0 = 1, g_1, g_2, ...
corresponds to the shift with weights alpha_n = sqrt(g_{n+1} / g_n); its
Aluthge transform is again a shift with weights sqrt(alpha_n alpha_{n+1}),
(g_{n+2} / g_n)^(1/4), and moments sqrt(g_n g_{n+1} / (g_0 g_1)).  Every
shift-table entry is such a closed form in the moments, summed exactly on
ints (a real mass is dyadic; an odd moment at radical positions lies in
sqrt(s)*Q), and is the exact value rounded once to nearest at the working
precision; a rational measure's tables load no mpmath.  The printed tables
(:func:`shift_text_rows`) hold 15 digits of those rounded values, read off
the exact value where the rounding cannot change them.  Positive
semidefiniteness of Hankel matrices of moments is decided exactly, and
the minimal recurrence of the moments is read off the support: p atoms of
positive mass make the p x p Hankel matrix positive definite, so no
recurrence shorter than prod(t - x_i) holds.
"""

from __future__ import annotations

import math
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
from .scalars import (DEFAULT_PRECISION_BITS, real_arithmetic, root_str,
                      round_root)

# how far below 0 :func:`hankel_psd` lets the least eigenvalue go, per trace
HANKEL_TOLERANCE = Fraction(1, 2 ** 64)


def _times(x: tuple, y: tuple, s: int) -> tuple:
    """(a + b sqrt(s)) (c + d sqrt(s)) for x = (a, b) and y = (c, d)."""
    return x[0] * y[0] + x[1] * y[1] * s, x[0] * y[1] + x[1] * y[0]


# entry n of the columns alpha, transformed alpha, g_n / g_0 and transformed
# g_n as (x, y, r), the r-th root of x / y, for the moment numerators G
_COLUMNS = (
    lambda G, s, n: (G[n + 1], G[n], 2),
    lambda G, s, n: (G[n + 2], G[n], 4),
    lambda G, s, n: (G[n], G[0], 1),
    lambda G, s, n: (_times(G[n], G[n + 1], s), _times(G[0], G[1], s), 2),
)


def _column(sums: tuple, column: int, count: int, bits: int,
            entry=round_root) -> list:
    """Entries 0 .. count-1 of a column, each ``entry(x, y, r, bits, s)``
    of its closed form: by default the exact value rounded once."""
    if count < 1:
        raise MeasureError("at least one weight must be requested")
    gammas, _, s = sums
    return [entry(*_COLUMNS[column](gammas, s, n), bits, s)
            for n in range(count)]


def shift_rows(mu: AtomicMeasure, terms: int,
               bits: int = DEFAULT_PRECISION_BITS) -> List[Tuple[tuple, ...]]:
    """Rows n < terms of (alpha_n, transformed alpha_n, g_n / g_0,
    transformed g_n): raw mpf values built on ints, each rounded once."""
    return _rows(mu, terms, bits, round_root)


def shift_text_rows(mu: AtomicMeasure, terms: int,
                    bits: int = DEFAULT_PRECISION_BITS) -> List[Tuple[str, ...]]:
    """:func:`shift_rows` with each entry as ``float_str`` prints it to 15
    digits, made by ``root_str`` mostly without rounding at ``bits``."""
    return _rows(mu, terms, bits, root_str)


def _rows(mu: AtomicMeasure, terms: int, bits: int, entry) -> list:
    sums = power_sums(mu, terms + 2, bits)
    return list(zip(*[_column(sums, column, terms, bits, entry)
                      for column in range(4)]))


def weights_from_measure(mu: AtomicMeasure, count: int,
                         bits: int = DEFAULT_PRECISION_BITS) -> List["mpf"]:
    """Shift weights alpha_0 .. alpha_{count-1} of the normalized measure."""
    return list(map(real_arithmetic().from_raw, _column(
        power_sums(mu, count + 1, bits), 0, count, bits)))


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


def aluthge_moment_sequence(mu: AtomicMeasure, count: int,
                            bits: int = DEFAULT_PRECISION_BITS) -> List["mpf"]:
    """Moments of the Aluthge-transformed shift, g~_0 .. g~_{count-1}."""
    return list(map(real_arithmetic().from_raw, _column(
        power_sums(mu, count + 1, bits), 3, count, bits)))


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
