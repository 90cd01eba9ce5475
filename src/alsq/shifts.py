"""Bridge between measures and the attached weighted shift.

A probability measure on [0, inf) with power moments g_0 = 1, g_1, g_2, ...
corresponds to the shift with weights alpha_n = sqrt(g_{n+1} / g_n); its
Aluthge transform is again a shift with weights sqrt(alpha_n alpha_{n+1}).
The derived moment identity

    (aluthge moment_n)^2 * g_1 = g_n * g_{n+1}

holds for all n and is used as a cross-check, together with positive
semidefiniteness of the two Hankel matrices built from any claimed moment
sequence.  Minimal linear recurrences of exact moment sequences recover the
atom count and the characteristic polynomial of the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import List, Optional, Sequence, Tuple

from .measures import (
    RATIONAL,
    AtomicMeasure,
    MeasureError,
    normalize,
)
from .scalars import DEFAULT_PRECISION_BITS, DEFAULT_TOLERANCE, real_arithmetic

# The weights and moments below are computed on raw libmp values with the
# precision and rounding of every operation given explicitly.  Each call is
# the one an mpf operator makes under workprec(bits), in the same order, so
# the values are those of mpf arithmetic bit for bit, and no result depends
# on mpmath's global precision.  Each atom is converted once per measure.
# The raw arithmetic comes from alsq.reals (``real_arithmetic``); exact
# moments and the Hankel test of exact values never load mpmath.


def _moments(mu: AtomicMeasure, weights: Sequence, count: int,
             bits: int) -> list:
    """g_0 .. g_{count-1} of the atoms of ``mu`` carrying ``weights``.

    A moment is an exact Fraction when every term is rational (rational mode;
    only the even orders when a position is radical), else a raw value at
    ``bits``, summed as :func:`alsq.measures.moment` sums it."""
    mu.require_no_zero_atom("moment")
    radical = any(pos.k for pos in mu.support)
    gammas: list = [None] * count
    if mu.mode == RATIONAL:
        # w * x^n, stepping n by 1, or by 2 through the rational x^2
        factors = [pos.squared() if radical else pos.q for pos in mu.support]
        terms = list(weights)
        for n in range(0, count, 2 if radical else 1):
            gammas[n] = sum(terms, Fraction(0))
            terms = [t * f for t, f in zip(terms, factors)]
    inexact = [n for n, g in enumerate(gammas) if g is None]
    if inexact:
        reals = real_arithmetic()
        ws = [reals.to_raw(w, bits) for w in weights]
        xs = [reals.position_raw(pos, bits) for pos in mu.support]
        for n in inexact:
            gammas[n] = reals.power_sum(ws, xs, n, bits)
    return gammas


def _alpha(mu: AtomicMeasure, count: int, bits: int) -> list:
    """Raw shift weights alpha_0 .. alpha_{count-1} of the normalized
    measure: sqrt(g_{n+1} / g_n)."""
    if count < 1:
        raise MeasureError("at least one weight must be requested")
    reals = real_arithmetic()
    mpf_div, mpf_sqrt = reals.mpf_div, reals.mpf_sqrt
    nearest = reals.round_nearest
    prob = normalize(mu, bits).weights
    gammas = [g if type(g) is tuple else reals.to_raw(g, bits)
              for g in _moments(mu, prob, count + 1, bits)]
    return [mpf_sqrt(mpf_div(gammas[n + 1], gammas[n], bits, nearest), bits,
                     nearest)
            for n in range(count)]


def _geometric_means(alpha: Sequence[tuple], bits: int) -> List[tuple]:
    if len(alpha) < 2:
        raise MeasureError("need at least two weights")
    reals = real_arithmetic()
    mpf_mul, mpf_sqrt = reals.mpf_mul, reals.mpf_sqrt
    nearest = reals.round_nearest
    return [mpf_sqrt(mpf_mul(a, b, bits, nearest), bits, nearest)
            for a, b in zip(alpha, alpha[1:])]


def _products(alpha: Sequence[tuple], bits: int) -> List[tuple]:
    reals = real_arithmetic()
    mpf_mul, nearest = reals.mpf_mul, reals.round_nearest
    gammas = [reals.fone]
    for a in alpha:
        gammas.append(mpf_mul(mpf_mul(gammas[-1], a, bits, nearest), a, bits,
                              nearest))
    return gammas


def shift_rows(mu: AtomicMeasure, terms: int,
               bits: int = DEFAULT_PRECISION_BITS) -> List[Tuple[tuple, ...]]:
    """Rows n = 0 .. terms-1 of (alpha_n, transformed alpha_n, g_n,
    transformed g_n) as raw libmp values at ``bits``; the moment columns
    are :func:`moments_from_weights` of the two weight sequences."""
    alpha = _alpha(mu, terms + 1, bits)
    tilde = _geometric_means(alpha, bits)
    return list(zip(alpha, tilde, _products(alpha, bits),
                    _products(tilde, bits)))


def moment_sequence(mu: AtomicMeasure, count: int,
                    bits: int = DEFAULT_PRECISION_BITS) -> List:
    """g_0 .. g_{count-1}; exact Fractions whenever the measure allows it."""
    gammas = _moments(mu, mu.weights, count, bits)
    if all(type(g) is Fraction for g in gammas):
        return gammas
    from_raw = real_arithmetic().from_raw
    return [g if type(g) is Fraction else from_raw(g) for g in gammas]


def weights_from_measure(mu: AtomicMeasure, count: int,
                         bits: int = DEFAULT_PRECISION_BITS) -> List["mpf"]:
    """Shift weights alpha_0 .. alpha_{count-1} of the normalized measure."""
    from_raw = real_arithmetic().from_raw
    return [from_raw(a) for a in _alpha(mu, count, bits)]


def aluthge_weights(alpha: Sequence["mpf"],
                    bits: int = DEFAULT_PRECISION_BITS) -> List["mpf"]:
    """Geometric means of consecutive weights; one entry shorter."""
    reals = real_arithmetic()
    raw = [reals.operand(a, bits) for a in alpha]
    return [reals.from_raw(a) for a in _geometric_means(raw, bits)]


def moments_from_weights(alpha: Sequence["mpf"],
                         bits: int = DEFAULT_PRECISION_BITS) -> List["mpf"]:
    """g_0 = 1 and g_k = alpha_0^2 ... alpha_{k-1}^2."""
    reals = real_arithmetic()
    raw = [reals.operand(a, bits) for a in alpha]
    return [reals.from_raw(g) for g in _products(raw, bits)]


def aluthge_moment_sequence(mu: AtomicMeasure, count: int,
                            bits: int = DEFAULT_PRECISION_BITS) -> List["mpf"]:
    """Moments of the Aluthge-transformed shift, g~_0 .. g~_{count-1}."""
    from_raw = real_arithmetic().from_raw
    tilde = _geometric_means(_alpha(mu, count, bits), bits)
    return [from_raw(g) for g in _products(tilde, bits)]


def hankel_psd(
    gammas: Sequence,
    n: int,
    tol: Fraction = DEFAULT_TOLERANCE,
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

@dataclass(frozen=True)
class RecurrenceCoefficients:
    """g_{n+order} = c_{order-1} g_{n+order-1} + ... + c_0 g_n."""

    order: int
    coefficients: Tuple[Fraction, ...]

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
