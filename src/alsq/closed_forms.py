"""Closed-form root decisions for measures with three to six atoms.

For p in this range the root question is settled by explicit support
identities and weight identities; each failing one names its own
refutation:

* p = 3: the support must be geometric and the middle mass must satisfy
  a2^2 = 4 a1 a3 (a two-atom root).
* p = 4: never; the four-atom family admits no root at all.
* p = 5: geometric support, a2^2 a5 = a4^2 a1, and
  a3 = a2^2/(4 a1) + 2 sqrt(a1 a5) (a three-atom root).
* p = 6: after excluding the forbidden square/product coincidences, the
  squares of atoms 2 and 5 select one of three patterns; two of them admit
  roots under three product-of-mass identities (a three-atom root), the
  mixed pattern never does.

The support identities compare products of the support's int keys
(:func:`alsq.measures.support_keys`), as :mod:`alsq.diagram` does, or read
its ``geometric_profile``; no product of positions is formed.

This module states the conditions and builds no root of its own.  A root
is unique when it exists (see :mod:`alsq.solver`), so when the identities
hold the witness is the root that :func:`alsq.solver.sqrt_of` peels off
mu.  It squares to the measure itself; its existence is equivalent to
solvability of the reweighted self-convolution problem in this atom range,
so the outcome doubles as the subnormality answer.

A real mass is a dyadic rational, so the identities are evaluated exactly in
both modes.  In real mode a mass stands for every value within relative eps
of it (``SolverConfig.radius``), and an identity refutes only when it fails
for every such value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

from .diagram import Violation, geometric_profile
from .measures import (RATIONAL, REAL, AtomicMeasure, MeasureError,
                       has_radical, numerators, support_keys)
from .solver import (
    IMPOSSIBLE,
    UNDETERMINED,
    UNVERIFIED,
    WITNESS,
    DEFAULT_CONFIG,
    InternalError,
    SolverConfig,
    Verdict,
    sqrt_of,
)


class _Checker:
    """The masses as int numerators over one denominator, and the tests of
    the weight identities.  Both sides of each identity have the same
    degree in the masses, so the common denominator cancels.

    In real mode each mass a stands for the values within a*(1 +- eps), so
    a positive x made of k masses stands for the values between
    x*(1 - eps)^k and x*(1 + eps)^k (its span); an identity holds when the
    spans of its sides meet.  For eps = t / b a span is kept as two ints,
    its ends times b^k, and compared so with spans of the same k, or of
    degree 2k against its square.  In rational mode eps = 0 and the tests
    are exact."""

    def __init__(self, mu: AtomicMeasure, config: SolverConfig):
        self.a = numerators(mu.weights, mu.mode, config.precision_bits)[0]
        self.eps = config.radius if mu.mode == REAL else Fraction(0)

    def span(self, x: int, k: int) -> Tuple[int, int]:
        """x*(1 - eps)^k and x*(1 + eps)^k, each times b^k."""
        if not self.eps:
            return x, x
        low, high = _span_factors(self.eps.numerator, self.eps.denominator, k)
        return x * low, x * high

    def eq(self, x: int, y: int, k: int) -> bool:
        """Whether x = y can hold, each side k masses times a constant."""
        if not self.eps:
            return x == y
        (x_low, x_high), (y_low, y_high) = self.span(x, k), self.span(y, k)
        return x_low <= y_high and y_low <= x_high


@lru_cache(maxsize=64)
def _span_factors(top: int, bottom: int, k: int) -> Tuple[int, int]:
    """(1 - eps)^k and (1 + eps)^k for eps = top / bottom, each times
    bottom^k: (bottom - top)^k and (bottom + top)^k."""
    return (bottom - top) ** k, (bottom + top) ** k


def classify_small(
    mu: AtomicMeasure,
    config: SolverConfig = DEFAULT_CONFIG,
    *,
    root: Optional[Verdict] = None,
) -> Verdict:
    """Closed-form verdict for 3 <= p <= 6; errors outside that range.

    ``root`` is the verdict of ``sqrt_of(mu, config)``, when the caller has
    it; otherwise it is computed when the identities hold."""
    mu.require_no_zero_atom("classify_small")
    p = mu.p
    if not 3 <= p <= 6:
        raise MeasureError(
            f"closed forms cover 3 to 6 atoms, not p={p}; use the generic solver")
    if has_radical(mu):
        raise MeasureError(
            "closed forms require rational atom positions; apply "
            "power_positions(mu, 2) first")
    checker = _Checker(mu, config)
    if p == 3:
        refuted = _three_atoms(mu, checker, config)
    elif p == 4:
        refuted = _four_atoms(config)
    elif p == 5:
        refuted = _five_atoms(mu, checker, config)
    else:
        refuted = _six_atoms(mu, checker, config)
    return refuted or _witness(mu, config, root)


def _impossible(rule: str, indices: Tuple[int, ...], message: str,
                config: SolverConfig) -> Verdict:
    return Verdict(IMPOSSIBLE, certificate=Violation(rule, indices, message),
                   precision_bits=config.precision_bits)


def _four_atoms(config: SolverConfig) -> Verdict:
    return _impossible(
        "four-atom-family", (),
        "no four-atom measure on (0, inf) admits a root: the support would "
        "have to be geometric with exactly seven products, and the resulting "
        "coefficient equations are jointly infeasible for every choice of "
        "masses", config)


def _three_atoms(mu: AtomicMeasure, checker: _Checker,
                 config: SolverConfig) -> Optional[Verdict]:
    if geometric_profile(mu) is None:
        return _impossible(
            "three-atom-support", (1, 2, 3),
            "a three-atom measure admits a root only when the square of the "
            "middle atom equals the product of the outer atoms", config)
    a = checker.a
    if not checker.eq(a[1] * a[1], 4 * a[0] * a[2], 2):
        return _impossible(
            "three-atom-weights", (1, 2, 3),
            "the middle mass must satisfy a2^2 = 4*a1*a3", config)
    return None


def _five_atoms(mu: AtomicMeasure, checker: _Checker,
                config: SolverConfig) -> Optional[Verdict]:
    if geometric_profile(mu) is None:
        return _impossible(
            "five-atom-support", (),
            "a five-atom measure admits a root only on a geometric support",
            config)
    a = checker.a
    if not checker.eq(a[1] * a[1] * a[4], a[3] * a[3] * a[0], 3):
        return _impossible(
            "five-atom-weights", (1, 2, 4, 5),
            "the masses must satisfy a2^2*a5 = a4^2*a1", config)
    # a3 = a2^2/(4 a1) + 2 sqrt(a1 a5), times 4 a1 and squared to stay
    # exact: g = 4 a1 a3 - a2^2 > 0 and g^2 = 64 a1^3 a5; in real mode g
    # spans from the low end of its first term less the high end of its
    # second to the other way round
    plus_low, plus_high = checker.span(4 * a[0] * a[2], 2)
    minus_low, minus_high = checker.span(a[1] * a[1], 2)
    gap_low, gap_high = max(plus_low - minus_high, 0), plus_high - minus_low
    rest_low, rest_high = checker.span(64 * a[0] ** 3 * a[4], 4)
    if not (gap_high > 0 and gap_low * gap_low <= rest_high
            and rest_low <= gap_high * gap_high):
        return _impossible(
            "five-atom-weights", (1, 2, 3, 5),
            "the middle mass must satisfy a3 = a2^2/(4*a1) + 2*sqrt(a1*a5)",
            config)
    return None


def _six_atoms(mu: AtomicMeasure, checker: _Checker,
               config: SolverConfig) -> Optional[Verdict]:
    keys = support_keys(mu)[0]
    a = checker.a
    sq2 = keys[1] * keys[1]
    sq5 = keys[4] * keys[4]
    j = next((m for m in range(2, 6) if sq2 == keys[0] * keys[m]), None)
    i = next((m for m in range(4) if sq5 == keys[m] * keys[5]), None)
    if j is None:
        return _impossible(
            "boundary-products", (2,),
            "the square of atom 2 coincides with no other pairwise product",
            config)
    if i is None:
        return _impossible(
            "boundary-products", (5,),
            "the square of atom 5 coincides with no other pairwise product",
            config)
    if j == 5:
        return _impossible(
            "extreme-square-match", (2, 1, 6),
            "the square of atom 2 equals the product of the extreme atoms, "
            "which forces p = 3", config)
    if i == 0:
        return _impossible(
            "extreme-square-match", (5, 1, 6),
            "the square of atom 5 equals the product of the extreme atoms, "
            "which forces p = 3", config)
    if j == 4:
        return _impossible(
            "six-atom-wide-square", (2, 1, 5),
            "the square of atom 2 equals the product of atoms 1 and 5", config)
    if i == 1:
        return _impossible(
            "six-atom-wide-square", (5, 2, 6),
            "the square of atom 5 equals the product of atoms 2 and 6", config)
    if (j, i) == (3, 2):
        return _impossible(
            "six-atom-crossed-squares", (2, 4, 3, 5),
            "the squares of atoms 2 and 5 match the crossed products of "
            "atoms 1,4 and 3,6", config)
    if (j, i) == (2, 3):
        return _impossible(
            "six-atom-middle-case", (2, 3, 5),
            "the square of atom 2 matches atoms 1,3 while the square of atom "
            "5 matches atoms 4,6; this pattern never carries a root", config)
    if (j, i) == (3, 3):
        # squares of atoms 2 and 5 match (1,4) and (4,6)
        if keys[2] * keys[2] != keys[0] * keys[5]:
            return _impossible(
                "six-atom-case-support", (3, 1, 6),
                "this pattern requires the square of atom 3 to equal the "
                "product of the extreme atoms", config)
        identities = [
            (a[1] * a[1], 4 * a[0] * a[3], "a2^2 = 4*a1*a4", (2, 1, 4)),
            (a[2] * a[2], 4 * a[0] * a[5], "a3^2 = 4*a1*a6", (3, 1, 6)),
            (a[4] * a[4], 4 * a[3] * a[5], "a5^2 = 4*a4*a6", (5, 4, 6)),
        ]
    else:  # (j, i) == (2, 2): squares match (1,3) and (3,6)
        if keys[3] * keys[3] != keys[0] * keys[5]:
            return _impossible(
                "six-atom-case-support", (4, 1, 6),
                "this pattern requires the square of atom 4 to equal the "
                "product of the extreme atoms", config)
        identities = [
            (a[1] * a[1], 4 * a[0] * a[2], "a2^2 = 4*a1*a3", (2, 1, 3)),
            (a[3] * a[3], 4 * a[0] * a[5], "a4^2 = 4*a1*a6", (4, 1, 6)),
            (a[4] * a[4], 4 * a[2] * a[5], "a5^2 = 4*a3*a6", (5, 3, 6)),
        ]
    for lhs, rhs, text, indices in identities:
        if not checker.eq(lhs, rhs, 2):
            return _impossible(
                "six-atom-case-weights", indices,
                f"the masses must satisfy {text}", config)
    return None


def _witness(mu: AtomicMeasure, config: SolverConfig,
             root: Optional[Verdict]) -> Verdict:
    """The identities hold, so mu has a root, and the peel's unique root is
    the closed form's witness.  With exact masses a peel that finds none is
    a bug; a rounded measure may miss at a low precision, and then the
    verdict is ``undetermined``."""
    if root is None:
        root = sqrt_of(mu, config)
    bits = config.precision_bits
    if root.outcome != WITNESS:
        if mu.mode == RATIONAL:
            raise InternalError(
                "closed-form witness failed re-verification; this contradicts "
                "the characterization and indicates a bug")
        return Verdict(UNDETERMINED, precision_bits=bits, notes=(UNVERIFIED,))
    witness = root.witness
    notes = ("witness squares to the measure itself",)
    if witness.mode == REAL and mu.mode == RATIONAL:
        notes += ("witness masses are irrational; emitted as reals",)
    return Verdict(WITNESS, witness=witness, precision_bits=bits, notes=notes)
