"""Bridge between measures and the attached weighted shift.

A probability measure on [0, inf) with power moments g_0 = 1, g_1, g_2, ...
corresponds to the shift with weights alpha_n = sqrt(g_{n+1} / g_n); its
Aluthge transform is again a shift with weights sqrt(alpha_n alpha_{n+1}),
(g_{n+2} / g_n)^(1/4), and moments sqrt(g_n g_{n+1} / (g_0 g_1)).  Every
shift-table entry is such a closed form in the moments, summed exactly on
ints (a real mass is dyadic; an odd moment at radical positions lies in
sqrt(s)*Q), and is the exact value rounded once to nearest at the working
precision; a rational measure's tables load no mpmath.  A table is four
columns over the moments (:func:`_columns`), each closed form (x / y)^(1/r)
with r fixed per column.  The printed tables (:func:`shift_text_rows`)
hold 15 digits of those rounded values, made by ``root_texts`` a column
at a time, which reads them off the exact value where the rounding cannot
change them.  Positive
semidefiniteness of Hankel matrices of moments is decided exactly, and
the minimal recurrence of the moments is read off the support: p atoms of
positive mass make the p x p Hankel matrix positive definite, so no
recurrence shorter than prod(t - x_i) holds.
"""

from __future__ import annotations

import math
from bisect import bisect
from fractions import Fraction
from operator import add
from typing import List, Sequence, Tuple

from .measures import (
    RATIONAL,
    REAL,
    AtomicMeasure,
    MeasureError,
    moments as moment_sequence,  # g_0 .. g_{count-1}, exact where possible
    numerators,
    power_sums,
)
from .scalars import (DEFAULT_PRECISION_BITS, Powers, float_layout,
                      float_str, real_arithmetic, round_root)

# how far below 0 :func:`hankel_psd` lets the least eigenvalue go, per trace
HANKEL_TOLERANCE = Fraction(1, 2 ** 64)


def _columns(G: list, products: list, terms: int) -> tuple:
    """The four columns (xs, ys, r) of rows 0 .. terms-1 of a shift table:
    entry n is the closed form (x_n / y_n)^(1/r) of alpha_n, transformed
    alpha_n, g_n / g_0 and transformed g_n in the moments G and the
    products G_n G_{n+1} (or in their logs, with sums for products)."""
    low = G[:terms]
    return ((G[1:terms + 1], low, 2), (G[2:terms + 2], low, 4),
            (low, [G[0]] * terms, 1), (products, [products[0]] * terms, 2))


def _pair_columns(mu: AtomicMeasure, terms: int, bits: int) -> tuple:
    """The moments G_n = (a_n, b_n) for a_n + b_n sqrt(s), n <= terms + 1
    (:func:`power_sums`), the four columns of rows 0 .. terms-1 over them,
    and s."""
    if terms < 1:
        raise MeasureError("at least one weight must be requested")
    a, b, _, s = power_sums(mu, terms + 2, bits)
    G = list(zip(a, b))
    # G_n G_{n+1}, as (a + b sqrt(s)) (c + d sqrt(s)) multiplies out
    products = [(x0 * y0 + x1 * y1 * s, x0 * y1 + x1 * y0)
                for (x0, x1), (y0, y1) in zip(G[:terms], G[1:])]
    return G, _columns(G, products, terms), s


def shift_rows(mu: AtomicMeasure, terms: int,
               bits: int = DEFAULT_PRECISION_BITS) -> List[Tuple[tuple, ...]]:
    """Rows n < terms of (alpha_n, transformed alpha_n, g_n / g_0,
    transformed g_n): raw mpf values built on ints, each rounded once."""
    _, columns, s = _pair_columns(mu, terms, bits)
    return list(zip(*[[round_root(x, y, r, bits, s) for x, y in zip(xs, ys)]
                      for xs, ys, r in columns]))


def shift_text_rows(mu: AtomicMeasure, terms: int,
                    bits: int = DEFAULT_PRECISION_BITS) -> List[Tuple[str, ...]]:
    """:func:`shift_rows` with each entry as ``float_str`` prints it to 15
    digits, made by ``root_texts`` a column at a time, mostly without
    rounding at ``bits``.  The log10 of each moment is taken once, of its
    rational part or else of its radical one, and that of G_n G_{n+1} is
    the sum of two (where both parts of an entry are nonzero the entry
    takes the exact path, and its logs are not read)."""
    G, columns, s = _pair_columns(mu, terms, bits)
    logs = [math.log10(a or b) for a, b in G]
    logs = _columns(logs, list(map(add, logs[:terms], logs[1:])), terms)
    return list(zip(*[root_texts(xs, ys, (lx, ly), r, bits, s)
                      for (xs, ys, r), (lx, ly, _) in zip(columns, logs)]))


# the powers of ten below 10^700 that :func:`root_texts` scales by, about
# 100 KB in all, kept across calls (each key only ever gets its one value,
# so threads may share it); a column that needs a larger one, as only
# entries of over about 2000 bits do, takes all its powers from a
# :class:`_LargeTens` kept for that column
_TENS = Powers(10)
_TENS_KEPT = 700


class _LargeTens(dict):
    """Powers of ten, each computed on first use as the largest one
    computed before it times a smaller power: the entries of one column of
    a shift table scale by powers some hundreds of digits apart, and one
    product with a short factor costs a fraction of a power computed from
    scratch."""

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


def root_texts(xs: Sequence, ys: Sequence, logs: tuple, r: int, bits: int,
               s: int = 1) -> List[str]:
    """``float_str`` of ``round_root(x, y, r, bits, s)`` for each closed
    form (x / y)^(1/r) of one column, x and y pairs (a, b) for a + b sqrt(s)
    from ``xs`` and ``ys``: the text of each value rounded at ``bits``,
    mostly without rounding at ``bits``.

    For rational x / y (also x = b_x sqrt(s) over y = b_y sqrt(s), an
    odd moment or a product of two over another at radical positions, read
    as b_x / b_y) one integer root gives t = floor(v 10^f), the exact
    v = (x / y)^(1/r) to 15 + 3 (or 4) decimal digits.  The value rounded
    at ``bits`` lies within v 2^-bits of v, that is within m =
    floor(t 2^-bits) + 1 units of t.  Unless that band reaches the tie of
    the 3 (or 4) digits after the 15th, or reaches below 10^e when t is
    10^17 (or 10^18) and a little, it rounds to 15 digits as v does, and
    ``float_layout``, the layout of ``float_str``, prints them.
    Otherwise, and for any other x or y with a radical part, the text is
    ``float_str(round_root(...))``, in its place in the column.
    The decimal exponents, quotients and roots are made a column at a
    time, r fixed; only the band check and the layout run per entry.
    ``logs`` holds the log10 of the ints read, a_x and a_y (or b_x and
    b_y), as two lists: an estimate off by a little only sends an entry
    to the exact path."""
    if not xs:
        return []
    floor, isqrt = math.floor, math.isqrt
    # x_0 / y_0 where x and y have no radical part, x_1 / y_1 where they
    # have no rational part; the loop below sends any other entry to the
    # exact path
    nums, dens = [x0 or x1 for x0, x1 in xs], [y0 or y1 for y0, y1 in ys]
    # e <= floor(log10(v)) <= e + 1, so t has 18 or 19 digits and n 15,
    # while log10 of an int of B bits is off by under B * 2^-53 (2e-11 at
    # the 160,000 bits of the moments of `gen --p 400 --seed 1`); ints of
    # millions of bits can miss that margin, and take the exact path
    es = [floor((a - b) / r - 1e-9) for a, b in zip(*logs)]
    reach = r * max(17 - min(es), max(es) - 17)
    tens = _TENS if reach < _TENS_KEPT else _LargeTens()
    qs = [x * tens[r * (17 - e)] // y if e <= 17 else
          x // (y * tens[r * (e - 17)]) for x, y, e in zip(nums, dens, es)]
    ts = qs if r == 1 else list(map(isqrt, qs)) if r == 2 else \
        list(map(isqrt, map(isqrt, qs)))
    texts = []
    append = texts.append
    for t, e, x, y in zip(ts, es, xs, ys):
        if t < 10 ** 18:
            (n, rem), half = divmod(t, 1000), 500
        else:
            (n, rem), half, e = divmod(t, 10000), 5000, e + 1
        m = (t >> bits) + 1
        # the value at bits is within m units of t: its text is that of n
        # or n + 1 unless that band reaches the tie at half, or for n =
        # 10^14 reaches below 10^e where 10^e is no bits-bit value
        if not 10 ** 17 <= t < 10 ** 19 or (x[1] or y[1]) and (x[0] or y[0]):
            done = False
        elif rem + 1 + m <= half:
            done = rem >= m or n > 10 ** 14 or 0 <= e and 5 ** e >> bits == 0
        else:
            n, done = n + 1, rem - m >= half
        if done:
            append(float_layout(n, e))
        else:
            _, man, exp, _ = round_root(x, y, r, bits, s)
            append(float_str(man, exp))
    return texts


def weights_from_measure(mu: AtomicMeasure, count: int,
                         bits: int = DEFAULT_PRECISION_BITS) -> List["mpf"]:
    """Shift weights alpha_0 .. alpha_{count-1} of the normalized measure,
    as mpfs, each rounded once (column 0 of :func:`shift_rows`)."""
    _, columns, s = _pair_columns(mu, count, bits)
    xs, ys, r = columns[0]
    from_raw = real_arithmetic().from_raw
    return [from_raw(round_root(x, y, r, bits, s)) for x, y in zip(xs, ys)]


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
    ints, _ = numerators(list(map(Fraction, values)), RATIONAL)
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
