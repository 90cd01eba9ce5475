"""Bridge between measures and the attached weighted shift.

A probability measure on [0, inf) with power moments g_0 = 1, g_1, g_2, ...
corresponds to the shift with weights alpha_n = sqrt(g_{n+1} / g_n); its
Aluthge transform is again a shift with weights sqrt(alpha_n alpha_{n+1}),
(g_{n+2} / g_n)^(1/4), and moments sqrt(g_n g_{n+1} / (g_0 g_1)).  Every
shift-table entry is such a closed form in the moments, summed exactly on
ints (a real mass is dyadic; an odd moment at radical positions lies in
sqrt(s)*Q), and is the exact value rounded once to nearest at the working
precision; a rational measure's tables load no mpmath.  Positive
semidefiniteness of Hankel matrices of moments is decided exactly, and
minimal linear recurrences of exact moments recover the atom count and
the characteristic polynomial of the support.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import List, Optional, Sequence, Tuple

from .measures import (
    REAL,
    AtomicMeasure,
    MeasureError,
    moments as moment_sequence,  # g_0 .. g_{count-1}, exact where possible
    numerators,
    power_sums,
)
from .scalars import (DEFAULT_PRECISION_BITS, Record, real_arithmetic,
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


def _column(sums: tuple, column: int, count: int, bits: int) -> List[tuple]:
    """Entries 0 .. count-1 of a column, each exact value rounded once."""
    if count < 1:
        raise MeasureError("at least one weight must be requested")
    gammas, _, s = sums
    return [round_root(*_COLUMNS[column](gammas, s, n), bits, s)
            for n in range(count)]


def shift_rows(mu: AtomicMeasure, terms: int,
               bits: int = DEFAULT_PRECISION_BITS) -> List[Tuple[tuple, ...]]:
    """Rows n < terms of (alpha_n, transformed alpha_n, g_n / g_0,
    transformed g_n): raw mpf values built on ints, each rounded once."""
    sums = power_sums(mu, terms + 2, bits)
    return list(zip(*[_column(sums, column, terms, bits)
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


# ---------------------------------------------------------------------------
# exact linear recurrences
# ---------------------------------------------------------------------------

class RecurrenceCoefficients(Record):
    """g_{n+order} = c_{order-1} g_{n+order-1} + ... + c_0 g_n."""

    __slots__ = _fields = ("order", "coefficients")

    def __init__(self, order: int, coefficients: Tuple[Fraction, ...]):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coefficients", coefficients)

    def holds_for(self, gammas: Sequence[Fraction]) -> bool:
        r = self.order
        for n in range(len(gammas) - r):
            predicted = sum(self.coefficients[j] * gammas[n + j] for j in range(r))
            if predicted != gammas[n + r]:
                return False
        return True

    def characteristic_polynomial(self) -> Tuple[Fraction, ...]:
        """Coefficients of t^order - c_{order-1} t^{order-1} - ... - c_0,
        from the constant term upward."""
        return tuple(-c for c in self.coefficients) + (Fraction(1),)


def minimal_recurrence(
    gammas: Sequence[Fraction],
    max_order: int,
) -> Optional[RecurrenceCoefficients]:
    """Smallest-order exact linear recurrence satisfied by all entries.

    Berlekamp-Massey over the rationals (rank decisions are ill-posed in
    floating point): one pass of O(n L) Fraction operations on n entries
    for a recurrence of order L, which is unique when n >= 2 L.  Needs
    len(gammas) >= 2 * max_order.  The all-zero sequence gets order 1 with
    coefficient 0.
    """
    seq = [Fraction(g) for g in gammas]
    if len(seq) < 2 * max_order:
        raise MeasureError(
            f"need at least {2 * max_order} exact moments for order "
            f"{max_order}, got {len(seq)}")
    if max_order < 1:
        return None
    # connection polynomial C (C[0] = 1) of length L: sum_i C[i] g[n-i] = 0
    # for n >= L; ``backup`` is C before the last change of L, ``last`` the
    # discrepancy then and ``gap`` the steps since
    connection, backup = [Fraction(1)], [Fraction(1)]
    length, gap, last = 0, 1, Fraction(1)
    for n, value in enumerate(seq):
        discrepancy = sum((c * seq[n - i]
                           for i, c in enumerate(connection[1:], 1)), value)
        if discrepancy == 0:
            gap += 1
            continue
        scale = discrepancy / last
        update = [Fraction(0)] * gap + [scale * c for c in backup]
        corrected = [a - b for a, b in zip_longest(connection, update,
                                                   fillvalue=Fraction(0))]
        if 2 * length <= n:
            backup, last, length, gap = connection, discrepancy, n + 1 - length, 1
            if length > max_order:
                return None
        else:
            gap += 1
        connection = corrected
    order = max(length, 1)
    padded = (connection + [Fraction(0)] * order)[1:order + 1]
    return RecurrenceCoefficients(order, tuple(-c for c in reversed(padded)))


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
