"""Finitely atomic measures on (0, infinity) with exact atom positions.

A position is q * sqrt(s)^k with q a positive rational, k in {0, 1} and s a
positive rational "radical base" shared by all atoms of a measure.  This is
the smallest class closed under the pairwise products that multiplicative
convolution produces, while keeping position equality decidable: support
combinatorics must never depend on floating point.

Masses are either exact rationals ("rational" mode) or arbitrary-precision
reals ("real" mode).  A mass sitting at the origin is stored separately as
``zero_mass`` and is only consumed by :func:`strip_zero_atom`; every other
operation requires it to be absent.

The decision procedures read a measure as a :class:`Table`: the int keys of
its support, its masses as int numerators over one denominator (a power of
two in real mode, where each mass is a dyadic rational) and the relative
radius of the masses.  The keys of a support are computed once: a measure
keeps them in a hidden slot (:func:`support_keys`), :func:`make_measure`
and the loader fill it from the squares of the positions, sorting only
atoms that do not ascend already, and the operations that keep the
support (:func:`with_weights`, :func:`t_weight`, :func:`strip_zero_atom`)
pass it on.  Positions are read off keys (:func:`_key_position`), and
so are the int parts of a position a message prints (:func:`_key_parts`),
with no position built.  One pair
loop (:func:`_pair_products`), which forms each unordered pair of atoms
once, forms every product: :func:`square_products` tables a witness's
square, the solver runs it on the masses of a signed root, and
:func:`convolve` runs it on the union of any two supports.  The solver
forms no product of mu with t_weight(mu), on any support.

Real-mode branches get :mod:`alsq.reals` from ``real_arithmetic`` once per
call; rational ones never load mpmath.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, cycle, islice, repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .scalars import (
    DEFAULT_PRECISION_BITS,
    Record,
    Scalar,
    parse_rational,
    position_text,
    ratio_text,
    real_arithmetic,
    round_root,
    scalar_str,
    sqrt_ratio,
)

RATIONAL = "rational"
REAL = "real"

# the most atoms a measure document may hold: each witness is re-squared pair
# by pair, which takes up to 0.1 s per question on a 399-atom geometric square
MAX_ATOMS = 400


class MeasureError(ValueError):
    """Structured validation/usage error for measure operations."""


class IncompatibleBasesError(MeasureError):
    pass


class ZeroAtomError(MeasureError):
    pass


# ---------------------------------------------------------------------------
# positions
# ---------------------------------------------------------------------------

class Position(Record):
    """Exact atom position q * sqrt(base)^k, q > 0 rational, k in {0, 1}."""

    __slots__ = _fields = ("q", "k", "base")

    def __init__(self, q: Fraction, k: int, base: Fraction):
        q, base = _finite(q, "a position"), _finite(base, "a radical base")
        if q <= 0:
            raise MeasureError(f"position must be positive, got {q}")
        if k not in (0, 1):
            raise MeasureError(f"radical exponent must be 0 or 1, got {k}")
        if base <= 0:
            raise MeasureError(f"radical base must be positive, got {base}")
        if k == 1:
            root = sqrt_ratio(base.numerator, base.denominator)
            if root is not None:
                # collapse sqrt of a perfect square so equality stays syntactic
                q, k = q * Fraction(*root), 0
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", int(k))  # a bool or float 1 as an int
        object.__setattr__(self, "base", base)

    @staticmethod
    def of(value: Union["Position", Fraction, int, str], base: Fraction = Fraction(1)) -> "Position":
        if isinstance(value, Position):
            return value
        if isinstance(value, str):
            return Position(parse_rational(value), 0, base)
        return Position(value, 0, base)

    def squared(self) -> Fraction:
        """value^2, always rational; the canonical comparison key.

        Injective over a common base: q1^2 = q2^2 * s would make s a square
        of a rational, and square bases are collapsed at construction.
        """
        square = self.q * self.q
        return square * self.base if self.k else square

    def rebase(self, base: Fraction) -> "Position":
        if self.k == 1 and base != self.base:
            raise IncompatibleBasesError(
                f"cannot move radical position {self} to base {base}")
        return Position(self.q, self.k, base)

    def __mul__(self, other: "Position") -> "Position":
        if self.base != other.base:
            raise IncompatibleBasesError(
                f"positions over different radical bases: {self.base} vs {other.base}")
        k = self.k + other.k
        q = self.q * other.q
        if k == 2:
            return _position(q * self.base, 0, self.base)
        return _position(q, k, self.base)

    def __truediv__(self, other: "Position") -> "Position":
        if self.base != other.base:
            raise IncompatibleBasesError(
                f"positions over different radical bases: {self.base} vs {other.base}")
        k = self.k - other.k
        q = self.q / other.q
        if k == -1:
            return _position(q / self.base, 1, self.base)
        return _position(q, k, self.base)

    def power(self, n: int) -> "Position":
        if n < 1:
            raise MeasureError("positions admit positive integer powers only")
        k = self.k * n
        q = self.q ** n * self.base ** (k // 2)
        return Position(q, k % 2, self.base)

    def scale(self, x: Fraction) -> "Position":
        x = _finite(x, "a scale factor")
        if x <= 0:
            raise MeasureError(f"scale factor must be positive, got {x}")
        return Position(self.q * x, self.k, self.base)

    def as_fraction(self) -> Fraction:
        if self.k != 0:
            raise MeasureError(f"{self} is irrational")
        return self.q

    def _key(self):
        return (self.q, self.k, self.base if self.k else None)

    def __eq__(self, other):
        if not isinstance(other, Position):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __lt__(self, other: "Position"):
        return self.squared() < other.squared()

    def __le__(self, other: "Position"):
        return self.squared() <= other.squared()

    def __str__(self):
        q = self.q
        return position_text(q.numerator, q.denominator, self.k, self.base)

    def __repr__(self):
        return f"Position({self})"


def _position(q: Fraction, k: int, base: Fraction) -> Position:
    """A product or quotient of validated positions, built without the
    checks of ``Position``: q is a positive Fraction and k is 0 or 1, and a
    result with k = 1 keeps the base of its k = 1 factor, which was found
    non-square when that factor was built."""
    pos = object.__new__(Position)
    object.__setattr__(pos, "q", q)
    object.__setattr__(pos, "k", k)
    object.__setattr__(pos, "base", base)
    return pos


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

Weight = Scalar
AtomLike = Tuple[Union[Position, Fraction, int, str], Union[Weight, int, str]]


class AtomicMeasure(Record):
    """Immutable finitely atomic measure; atoms sorted by position.

    The int keys of the support and their scale (:func:`support_keys`) sit
    in the slot ``_keys``, which is not a field: equality, hash, ``repr``,
    copy and pickle see the four fields only."""

    _fields = ("base", "mode", "atoms", "zero_mass")
    __slots__ = _fields + ("_keys",)

    def __init__(self, base: Fraction, mode: str,
                 atoms: Tuple[Tuple[Position, Weight], ...],
                 zero_mass: Weight = Fraction(0)):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "zero_mass", zero_mass)
        object.__setattr__(self, "_keys", None)

    @property
    def p(self) -> int:
        return len(self.atoms)

    @property
    def support(self) -> Tuple[Position, ...]:
        # tuples on the decision path are built from lists: one grown from a
        # generator is resized, which moves memory between the interpreter's
        # per-size tuple free lists until a full garbage collection
        return tuple([pos for pos, _ in self.atoms])

    @property
    def weights(self) -> Tuple[Weight, ...]:
        return tuple([w for _, w in self.atoms])

    def total_mass(self) -> Weight:
        """The sum of all masses, the one at the origin included, exact: in
        real mode the masses as :func:`numerators` reads them at the default
        precision, summed as ints."""
        if self.mode == RATIONAL:
            return sum(self.weights, self.zero_mass)
        masses, den = numerators((self.zero_mass,) + self.weights, REAL)
        return real_arithmetic().from_dyadic(sum(masses), den)

    def has_zero_atom(self) -> bool:
        # truth, not a comparison with 0: that converts 0 to an mpf
        return bool(self.zero_mass)

    def require_no_zero_atom(self, op: str) -> None:
        if self.has_zero_atom():
            raise ZeroAtomError(
                f"{op} requires a measure without mass at the origin; "
                "apply strip_zero_atom first")

    def to_real(self, bits: int = DEFAULT_PRECISION_BITS) -> "AtomicMeasure":
        _check_precision(bits)
        if self.mode == REAL:
            return self
        to_mpf = real_arithmetic().to_mpf
        zero = (to_mpf(self.zero_mass, bits) if self.zero_mass != 0
                else Fraction(0))
        return with_weights(self, [to_mpf(w, bits) for w in self.weights],
                            REAL, zero)

    def __str__(self):
        def show(w):  # an exact mass past the digit limit raises
            return (scalar_str(w) if hasattr(w, "_mpf_")
                    else ratio_text(w.numerator, w.denominator))

        parts = []
        if self.has_zero_atom():
            parts.append(f"{show(self.zero_mass)}*d(0)")
        parts.extend(f"{show(w)}*d({pos})" for pos, w in self.atoms)
        return " + ".join(parts) if parts else "0"


def _check_precision(bits: int) -> None:
    """Refuse a precision below one bit, which would round every mass to 0
    (the rounding helpers of :mod:`alsq.reals` assume at least 1)."""
    if bits < 1:
        raise MeasureError(f"precision must be at least 1 bit, got {bits}")


def with_weights(mu: AtomicMeasure, weights: Sequence[Weight], mode: str,
                 zero_mass: Weight = Fraction(0)) -> AtomicMeasure:
    """The support of ``mu`` carrying the positive ``weights``, one per
    atom, with the keys of ``mu`` passed on."""
    out = AtomicMeasure(mu.base, mode, tuple(list(zip(mu.support, weights))),
                        zero_mass)
    object.__setattr__(out, "_keys", mu._keys)
    return out


def support_keys(mu: AtomicMeasure) -> Tuple[List[int], int]:
    """The int keys of the support of ``mu`` (:func:`int_keys`) and their
    scale, computed once per support: kept on the measure, and passed on to
    the measures on the same support."""
    keyed = mu._keys
    if keyed is None:
        keyed = _over_lcm(list(map(_square, mu.support)))
        object.__setattr__(mu, "_keys", keyed)
    return keyed


def make_measure(
    atoms: Iterable[AtomLike],
    mode: str = RATIONAL,
    base: Optional[Fraction] = None,
    zero_mass: Union[Weight, int, str] = 0,
    bits: int = DEFAULT_PRECISION_BITS,
) -> AtomicMeasure:
    """Validate, sort and build a measure from (position, weight) pairs."""
    if mode not in (RATIONAL, REAL):
        raise MeasureError(f"unknown scalar mode {mode!r}")
    pairs = list(atoms)
    if base is None:
        base = next((pos.base for pos, _ in pairs if isinstance(pos, Position)),
                    Fraction(1))
    if isinstance(base, str):
        base = parse_rational(base)
    inferred = base if type(base) is Fraction else _finite(base, "a radical base")

    built: List[Tuple[Position, Weight]] = []
    convert = _weight_converter(mode, bits)
    zero = convert(zero_mass)
    for pos_like, w in pairs:
        weight = convert(w)
        if isinstance(pos_like, Position):
            pos = (pos_like if pos_like.base is inferred
                   or pos_like.base == inferred else pos_like.rebase(inferred))
        else:
            raw = (parse_rational(pos_like) if isinstance(pos_like, str)
                   else _finite(pos_like, "a position"))
            if raw == 0:
                if weight <= 0:
                    raise MeasureError("mass at the origin must be positive")
                zero = _plus(zero, weight, bits)
                continue
            pos = Position(raw, 0, inferred)
        if weight <= 0:
            raise MeasureError(f"weight at {pos} must be positive, got {weight}")
        built.append((pos, weight))

    return _keyed_measure(inferred, mode, built,
                          [_square(pos) for pos, _ in built], zero)


def _plus(zero: Weight, weight: Weight, bits: int) -> Weight:
    """The mass at the origin ``zero`` plus ``weight``, rounded to nearest
    at ``bits`` in real mode."""
    if type(zero) is Fraction:
        return zero + weight
    reals = real_arithmetic()
    return reals.from_raw(reals.total(zero._mpf_, weight._mpf_, bits))


def _keyed_measure(base: Fraction, mode: str, atoms: list, squares: list,
                   zero: Weight) -> AtomicMeasure:
    """The measure of ``atoms``, whose positions have the reduced
    ``squares``, keeping the int keys of its support.  Atoms whose keys do
    not ascend already are sorted and scanned for two on one position."""
    keys, scale = _over_lcm(squares)
    if not all(map(int.__lt__, keys, keys[1:])):
        # int keys order like the positions and are equal exactly when the
        # positions are; the stable sort names the first of two duplicates
        order = sorted(range(len(keys)), key=keys.__getitem__)
        keys, atoms = [keys[i] for i in order], [atoms[i] for i in order]
        for j in range(1, len(keys)):
            if keys[j - 1] == keys[j]:
                raise MeasureError(f"duplicate position {atoms[j - 1][0]}")
    if not atoms:
        raise MeasureError("a measure needs at least one atom on (0, inf)")
    mu = AtomicMeasure(base, mode, tuple(atoms), zero)
    object.__setattr__(mu, "_keys", (keys, scale))
    return mu


def _weight_converter(mode: str, bits: int):
    """The function that makes each weight of a ``mode`` measure.  A string
    is parsed as an exact rational (a non-finite one raises
    ``ScalarError``), rounded toward zero at ``bits`` in real mode; a
    non-finite float or mpf raises ``MeasureError``."""
    if mode == RATIONAL:
        return _rational_weight
    reals = real_arithmetic()
    mpf, to_mpf = reals.mpf, reals.to_mpf

    def real_weight(w) -> Weight:
        if isinstance(w, str):
            w = parse_rational(w)
        if isinstance(w, mpf):
            _, man, exp, _ = w._mpf_
            if exp and not man:  # +-inf or nan
                raise MeasureError(f"a real weight must be finite, got {w}")
            return w
        return to_mpf(_finite(w, "a real weight"), bits)

    return real_weight


def _rational_weight(w) -> Fraction:
    if type(w) is Fraction:
        return w
    if isinstance(w, str):
        return parse_rational(w)
    if hasattr(w, "_mpf_"):  # an mpf
        raise MeasureError("rational mode cannot hold floating weights")
    return _finite(w, "a weight")


def _finite(value, what: str) -> Fraction:
    """``Fraction(value)``; a ``MeasureError`` naming a value, such as a
    float inf or nan, that is not finite."""
    try:
        return Fraction(value)
    except (OverflowError, ValueError):
        raise MeasureError(f"{what} must be finite, got {value!r}") from None


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def has_radical(mu: AtomicMeasure) -> bool:
    """Whether some position of ``mu`` is a radical q*sqrt(base), read off
    its atoms with no support tuple built."""
    for pos, _ in mu.atoms:
        if pos.k:
            return True
    return False


def _common_base(mu: AtomicMeasure, nu: AtomicMeasure) -> Fraction:
    if mu.base == nu.base:
        return mu.base
    if not has_radical(mu):
        return nu.base
    if not has_radical(nu):
        return mu.base
    raise IncompatibleBasesError(
        f"radical bases {mu.base} and {nu.base} are incompatible")


def int_keys(positions: Sequence[Position]) -> List[int]:
    """One int per position: its square times the lcm of the squares'
    denominators.  Over a common base x_i*x_j = x_k*x_l exactly when
    key_i*key_j = key_k*key_l, and keys order like the positions, because
    ``squared`` is injective there."""
    return _over_lcm(list(map(_square, positions)))[0]


def _square(pos: Position) -> Tuple[int, int]:
    """The square of ``pos`` as a reduced int pair, built without a
    Fraction: q^2 is reduced already, a radical's q^2 * base takes a gcd."""
    q = pos.q
    num, den = q.numerator * q.numerator, q.denominator * q.denominator
    if pos.k:
        num, den = num * pos.base.numerator, den * pos.base.denominator
        common = gcd(num, den)
        return num // common, den // common
    return num, den


def _over_lcm(ratios: List[Tuple[int, int]]) -> Tuple[List[int], int]:
    """The fractions n / d of the int pairs ``ratios`` over one
    denominator, the lcm of theirs: their numerators and that lcm.  Over
    the reduced squares of positions (:func:`_square`) these are the int
    keys and their scale."""
    scale = lcm(*[den for _, den in ratios])
    return [num * (scale // den) for num, den in ratios], scale


def _key_parts(key: int, scale: int, base: Fraction) -> tuple:
    """The position over ``base`` whose int key at ``scale`` is ``key``, the
    inverse of :func:`_over_lcm`, as the int parts (num, den, k, base) that
    ``scalar_str`` quotes: key / scale is q^2, or q^2 * base for a
    radical, whose base is no square, and q = num / den in lowest terms."""
    root = sqrt_ratio(key, scale)
    if root is not None:
        return root + (0, base)
    return (sqrt_ratio(key * base.denominator, scale * base.numerator)
            + (1, base))


def _key_position(key: int, scale: int, base: Fraction) -> Position:
    """The position of :func:`_key_parts`."""
    num, den, k, _ = _key_parts(key, scale, base)
    return _position(Fraction(num, den), k, base)


class Table:
    """A measure as the peel and the witness check read it: the int keys of
    its support in ascending order and its masses, with no scalar object
    per atom.

    ``keys`` are the int keys of the support (:func:`int_keys`) and
    ``scale`` the lcm that scales them, so equal keys at an equal scale are
    equal positions.
    The masses are the int numerators ``masses`` over the one denominator
    ``den``, a power of two in real mode.  Every mass stands for the values
    within ``radius`` times it, a Fraction that is 0 in rational mode.
    ``surd`` is s = u*v for the base u/v when some position is a radical
    (its key has no rational root, :func:`alsq.scalars.sqrt_ratio`), else
    0.
    """

    __slots__ = ("base", "mode", "keys", "scale", "masses", "den", "radius",
                 "surd")

    def __init__(self, base: Fraction, mode: str, keys: List[int],
                 scale: int, masses: List[int], den: int, radius: Fraction):
        self.base, self.mode, self.keys, self.scale = base, mode, keys, scale
        self.masses, self.den, self.radius = masses, den, radius
        s = base.numerator * base.denominator
        self.surd = s if s > 1 and None in [
            sqrt_ratio(key, scale) for key in keys] else 0

    @property
    def p(self) -> int:
        return len(self.keys)

    def weight(self, j: int) -> Weight:
        if self.mode == REAL:
            return real_arithmetic().from_dyadic(self.masses[j], self.den)
        return Fraction(self.masses[j], self.den)


def numerators(weights: Sequence[Weight], mode: str,
               bits: int = DEFAULT_PRECISION_BITS) -> Tuple[List[int], int]:
    """``weights`` exactly as int numerators over one denominator, and that
    denominator: the lcm of theirs in rational mode, a power of two in real
    mode.  A real-mode mass is read as an mpf operator under
    ``workprec(bits)`` reads it: an mpf as it is, anything else converted
    at ``bits``."""
    if mode == REAL:
        reals = real_arithmetic()
        return reals.to_dyadic([reals.operand(w, bits) for w in weights])
    return _over_lcm([w.as_integer_ratio() for w in weights])


def table(mu: AtomicMeasure, bits: int = DEFAULT_PRECISION_BITS,
          eps: Fraction = Fraction(0)) -> Table:
    """The table of ``mu`` itself (:func:`numerators`).  Each real mass
    stands for the values within relative ``eps`` of it."""
    masses, den = numerators(mu.weights, mu.mode, bits)
    keys, scale = support_keys(mu)
    return Table(mu.base, mu.mode, keys, scale, masses, den,
                 eps if mu.mode == REAL else Fraction(0))


# the roundings at bits a real factor mass may carry into a product table,
# counting a conversion toward zero as three: a witness mass carries six
# and a rational mass that ``numerators`` converts three, so ten bounds
# both; a product's mass adds one rounding of its sum to those of its two
# factors
_FACTOR_ROUNDINGS = 10


@lru_cache(maxsize=256)
def _square_radius(bits: int) -> Fraction:
    """The relative radius of a sum of products of two masses, computed
    with the k = 2 * ``_FACTOR_ROUNDINGS`` + 1 roundings to nearest at
    ``bits`` that its factors and the sum carry: g bounds |y - x| / y for
    y the result of k such roundings on x, (1 - 2^-bits)^-k - 1 <=
    k / (2^bits - k)."""
    n, k = 1 << bits, 2 * _FACTOR_ROUNDINGS + 1
    return Fraction(k, n - k) if n > k else Fraction(n, n - 1) ** k - 1


def square_products(mu: AtomicMeasure,
                    bits: int = DEFAULT_PRECISION_BITS) -> Table:
    """The table of mu * mu from the pair loop (:func:`_pair_products`),
    which the witness check compares with the target the witness was
    peeled from.  A real sum is rounded once at ``bits``; the radius
    covers the roundings the factor masses carry and that of the sum."""
    mu.require_no_zero_atom("convolve")
    masses, den = numerators(mu.weights, mu.mode, bits)
    keys, scale = support_keys(mu)
    order, squares = _pair_products(keys, masses, masses)
    den *= den
    radius = Fraction(0)
    if mu.mode == REAL:
        squares, den = real_arithmetic().round_dyadic(squares, den, bits)
        radius = _square_radius(bits)
    return Table(mu.base, mu.mode, order, scale * scale, squares, den, radius)


def _pair_products(keys: List[int], left: List[int],
                  right: List[int]) -> Tuple[List[int], List[int]]:
    """The product table of the masses a = ``left`` and b = ``right`` on
    one support of int ``keys``: the product keys in ascending order and
    their masses.  Each unordered pair i < j is formed once, with mass
    a_i b_j + a_j b_i, each atom with itself with mass a_j b_j, products
    on one key merge, and a merged mass of 0 is dropped.  On the support of
    one measure K_i*K_j needs no gcd to reach the scale scale^2: for each
    prime, an atom whose squared denominator carries the scale's full power
    of it has a key prime to it."""
    merged = {}
    rows = list(zip(keys, left, right))
    for j, (kj, aj, bj) in enumerate(rows):
        for ki, ai, bi in rows[:j]:
            key = ki * kj
            if key in merged:
                merged[key] += ai * bj + aj * bi
            else:
                merged[key] = ai * bj + aj * bi
        # the keys ascend strictly, so K_j^2 exceeds every key formed so far
        merged[kj * kj] = aj * bj
    order = sorted([key for key, mass in merged.items() if mass])
    return order, [merged[key] for key in order]


def convolve(mu: AtomicMeasure, nu: AtomicMeasure, bits: int = DEFAULT_PRECISION_BITS) -> AtomicMeasure:
    """Multiplicative convolution: atoms at all pairwise products x*y with
    mass summed over coinciding products.

    No scalar object is built per pair, and one position and one mass per
    product.  The masses of each factor are int numerators over one
    denominator (:func:`numerators`), multiplied by the pair loop
    (:func:`_pair_products`) on the union of the two supports, so every sum
    of pair products is exact; in real mode each sum is then rounded once
    to nearest at ``bits``.  A product's key is the product of its factors'
    keys, divided by the gcd that brings the keys to the scale
    :func:`int_keys` gives them, and its position is read off that key
    (:func:`_key_position`)."""
    _check_precision(bits)
    mu.require_no_zero_atom("convolve")
    nu.require_no_zero_atom("convolve")
    base = _common_base(mu, nu)
    mode = REAL if REAL in (mu.mode, nu.mode) else RATIONAL
    # a key does not depend on the base: a radical's is over the common one
    (mu_keys, mu_scale, mu_masses, mu_den), \
        (nu_keys, nu_scale, nu_masses, nu_den) = [
            (*support_keys(m), *numerators(m.weights, mode, bits))
            for m in (mu, nu)]
    # the keys of each support, brought to their common scale
    scale = mu_scale
    if nu_scale != mu_scale:
        scale = lcm(mu_scale, nu_scale)
        mu_keys = [key * (scale // mu_scale) for key in mu_keys]
        nu_keys = [key * (scale // nu_scale) for key in nu_keys]
    # both factors on the union of the supports, of mass 0 off their own
    keys = sorted({*mu_keys, *nu_keys})
    left, right = [[by_key.get(key, 0) for key in keys] for by_key in (
        dict(zip(mu_keys, mu_masses)), dict(zip(nu_keys, nu_masses)))]
    order, masses = _pair_products(keys, left, right)
    den = mu_den * nu_den
    # the squares of the products are the keys over scale^2, so the lcm of
    # their denominators is scale^2 / g (g = 1 when nu has the support of mu)
    g = gcd(scale * scale, *order) if scale > 1 else 1
    keys = order if g == 1 else [key // g for key in order]
    scale = scale * scale // g
    if mode == REAL:
        reals = real_arithmetic()
        masses, den = reals.round_dyadic(masses, den, bits)
        weights = [reals.from_dyadic(n, den) for n in masses]
    else:
        weights = [Fraction(n, den) for n in masses]
    out = AtomicMeasure(base, mode, tuple(list(zip(
        [_key_position(key, scale, base) for key in keys], weights))))
    object.__setattr__(out, "_keys", (keys, scale))
    return out


def t_weight(mu: AtomicMeasure, bits: int = DEFAULT_PRECISION_BITS) -> AtomicMeasure:
    """Multiply each mass by its position (the density-t reweighting).

    In real mode each product is rounded to nearest at ``bits``, as an mpf
    product under ``workprec(bits)`` rounds it."""
    mu.require_no_zero_atom("t_weight")
    weights = []
    if mu.mode == RATIONAL:
        for pos, w in mu.atoms:
            if pos.k != 0:
                raise MeasureError(
                    f"t_weight at irrational position {pos} leaves the rational "
                    "field; use real mode")
            weights.append(w * pos.q)
    else:
        reals = real_arithmetic()
        for pos, w in mu.atoms:
            x = reals.position_raw(pos, bits)
            weights.append(reals.from_raw(reals.product(
                reals.operand(w, bits), x, bits)))
    return with_weights(mu, weights, mu.mode)


def power_sums(mu: AtomicMeasure, count: int,
               bits: int = DEFAULT_PRECISION_BITS) -> Tuple[list, list, int, int]:
    """g_0 .. g_{count-1} exactly on ints over one denominator: the lists
    (a_n) and (b_n), den and s with g_n = (a_n + b_n sqrt(s)) / den.  A
    position is c or c*sqrt(s) for a rational c, s = u*v for the base u/v.

    Each atom's terms m x^n scale^n, n < count, come from ``accumulate``
    over int multiplies and are added into running totals by ``map``, one
    list per atom kind, so no Python loop runs per moment and, beside the
    totals, one power is live at a time."""
    mu.require_no_zero_atom("moment")
    masses, den = numerators(mu.weights, mu.mode, bits)
    base = mu.base
    s = base.numerator * base.denominator
    steps, scale = _over_lcm([
        (pos.q / base.denominator if pos.k else pos.q).as_integer_ratio()
        for pos in mu.support])
    top = max(count - 1, 0)
    totals = [[0] * count, [0] * count]  # rational and radical atoms
    for mass, step, pos in zip(masses, steps, mu.support):
        # from an odd to an even order a radical term gains sqrt(s)^2 = s
        factors = cycle((step, step * s)) if pos.k else repeat(step)
        totals[pos.k] = list(map(add, totals[pos.k], accumulate(
            islice(factors, top), mul, initial=mass)))
    if scale > 1:
        # the n-th sum is over scale^n: lift it to the common scale^top
        lifts = list(accumulate(repeat(scale, top), mul, initial=1))[::-1]
        totals = [list(map(mul, sums, lifts)) if any(sums) else sums
                  for sums in totals]
    a, b = totals
    if any(b):
        # an even power of a radical position is rational
        a[::2] = map(add, a[::2], b[::2])
        b[::2] = [0] * len(b[::2])
    return a, b, den * scale ** top, s


def moments(mu: AtomicMeasure, count: int,
            bits: int = DEFAULT_PRECISION_BITS) -> list:
    """g_0 .. g_{count-1} (:func:`power_sums`): exact Fractions where the
    value is rational in rational mode, else mpfs, each rounded once."""
    a_n, b_n, den, s = power_sums(mu, count, bits)
    return [Fraction(a, den) if mu.mode == RATIONAL and not b else
            real_arithmetic().from_raw(round_root((a, b), (den, 0), 1, bits, s))
            for a, b in zip(a_n, b_n)]


def scale_positions(mu: AtomicMeasure, x: Union[Fraction, int, str]) -> AtomicMeasure:
    x = (parse_rational(x) if isinstance(x, str)
         else _finite(x, "a scale factor"))
    if x <= 0:
        raise MeasureError(f"scale factor must be positive, got {x}")
    mu.require_no_zero_atom("scale_positions")
    return AtomicMeasure(mu.base, mu.mode,
                         tuple((pos.scale(x), w) for pos, w in mu.atoms))


def power_positions(mu: AtomicMeasure, n: int) -> AtomicMeasure:
    if not isinstance(n, int) or n < 1:
        raise MeasureError("power_positions takes a positive integer exponent")
    mu.require_no_zero_atom("power_positions")
    return AtomicMeasure(mu.base, mu.mode,
                         tuple((pos.power(n), w) for pos, w in mu.atoms))


def strip_zero_atom(mu: AtomicMeasure) -> Tuple[Weight, AtomicMeasure]:
    """Split off the mass at the origin.  Everything downstream analyses the
    restriction to (0, inf); root existence is unaffected by the split."""
    if not mu.atoms:
        raise MeasureError("measure carries mass only at the origin")
    if not mu.has_zero_atom():
        if mu.mode == RATIONAL:
            return Fraction(0), mu
        reals = real_arithmetic()
        return reals.from_raw(reals.ZERO), mu
    body = AtomicMeasure(mu.base, mu.mode, mu.atoms)
    object.__setattr__(body, "_keys", mu._keys)
    return mu.zero_mass, body


def normalize(mu: AtomicMeasure, bits: int = DEFAULT_PRECISION_BITS) -> AtomicMeasure:
    total = mu.total_mass()
    if not total:
        raise MeasureError("cannot normalize a measure with zero total mass")

    if mu.mode == RATIONAL:
        def share(w):
            return w / total
    else:
        reals = real_arithmetic()

        def share(w):  # rounded to nearest at bits
            return reals.from_raw(reals.quotient(
                reals.operand(w, bits), total._mpf_, bits))

    zero = share(mu.zero_mass) if mu.zero_mass else mu.zero_mass
    return with_weights(mu, [share(w) for w in mu.weights], mu.mode, zero)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def _atom_fields(mu: AtomicMeasure) -> List[Tuple[str, int, str]]:
    """pos_q, pos_k and weight of each atom of the measure document, the
    origin first."""
    def weight(w):
        if hasattr(w, "_mpf_"):
            # a real mass in exact dyadic form: it parses back to the
            # identical mpf, so emission is byte-stable under reload
            return ratio_text(*real_arithmetic().mpf_ratio(w))
        return ratio_text(w.numerator, w.denominator)

    atoms = [("0", 0, weight(mu.zero_mass))] if mu.has_zero_atom() else []
    atoms += [(ratio_text(pos.q.numerator, pos.q.denominator), pos.k,
               weight(w)) for pos, w in mu.atoms]
    return atoms


def measure_to_json_dict(mu: AtomicMeasure) -> dict:
    return {
        "radical_base": ratio_text(mu.base.numerator, mu.base.denominator),
        "mode": mu.mode,
        "atoms": [{"pos_q": q, "pos_k": k, "weight": w}
                  for q, k, w in _atom_fields(mu)],
    }


# the JSON names of the types ``json.loads`` returns
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number",
               float: "number", bool: "boolean", type(None): "null"}


def _require_object(value, where: str) -> None:
    if not isinstance(value, dict):
        name = _JSON_TYPES.get(type(value), type(value).__name__)
        raise MeasureError(f"{where}: expected a JSON object, got {name}")


def measure_from_json_dict(data: dict, bits: int = DEFAULT_PRECISION_BITS) -> AtomicMeasure:
    """The measure of a document, built in one pass over its atoms.  The
    square of each position, read as its key, has at most
    ``sys.get_int_max_str_digits()`` digits, so every product prints."""
    _require_object(data, "malformed measure document")
    try:
        base = parse_rational(str(data["radical_base"]))
        mode = data["mode"]
        raw_atoms = data["atoms"]
    except KeyError as exc:
        raise MeasureError(f"malformed measure document: missing {exc}") from exc
    if mode not in (RATIONAL, REAL):
        raise MeasureError(f"unknown scalar mode {mode!r}")
    if not isinstance(raw_atoms, list):
        raise MeasureError("malformed measure document: atoms must be a list")
    if len(raw_atoms) > MAX_ATOMS:
        raise MeasureError(f"a measure document holds at most {MAX_ATOMS} "
                           f"atoms, this one {len(raw_atoms)}")
    convert = _weight_converter(mode, bits)
    rational, zero = mode == RATIONAL, convert(0)
    # the base is checked once: Position names the fault of an atom
    root = (sqrt_ratio(base.numerator, base.denominator)
            if base.numerator > 0 else None)
    limit = sys.get_int_max_str_digits()
    built, squares = [], []
    for index, atom in enumerate(raw_atoms):
        _require_object(atom, f"atom {index}")
        try:
            q = parse_rational(str(atom["pos_q"]))
            k = atom["pos_k"]
            weight = convert(str(atom["weight"]))
        except KeyError as exc:
            raise MeasureError(f"atom {index}: missing {exc}") from exc
        except (ValueError, OverflowError) as exc:
            raise MeasureError(f"atom {index}: {exc}") from exc
        if type(k) is not int:  # bool is a subclass of int
            raise MeasureError(
                f"atom {index}: pos_k must be the JSON integer 0 or 1")
        # sign tests read numerators: comparing a Fraction with an int
        # checks the numbers.Rational ABC first
        sign = q.numerator
        if not sign and k:
            raise MeasureError(f"atom {index}: the origin cannot carry a radical")
        if (weight.numerator if rational else weight) <= 0:
            raise MeasureError(f"atom {index}: weight must be positive")
        if not sign:
            zero = _plus(zero, weight, bits)
            continue
        if base.numerator <= 0 or sign < 0 or k not in (0, 1):
            try:
                Position(q, k, base)
            except MeasureError as exc:
                raise MeasureError(f"atom {index}: {exc}") from exc
        if k and root is not None:  # a radical over a square base collapses
            q, k = Fraction(q.numerator * root[0], q.denominator * root[1]), 0
        pos = _position(q, k, base)
        square = _square(pos)
        # 2^(3 * limit) < 10^limit: the power is built only for long values
        if limit and max(square).bit_length() > 3 * limit \
                and max(square) >= 10 ** limit:
            raise MeasureError(
                f"atom {index}: the square of the position has more than "
                f"{limit} digits")
        built.append((pos, weight))
        squares.append(square)
    return _keyed_measure(base, mode, built, squares, zero)


def dumps_measure(mu: AtomicMeasure) -> str:
    """``json.dumps(measure_to_json_dict(mu), indent=2)`` and a newline,
    written directly: CPython encodes JSON in C only without an indent.  The
    numbers print as digits and "/" (pos_k as 0 or 1), which JSON strings
    hold unescaped."""
    atoms = ",\n".join([
        f'    {{\n      "pos_q": "{q}",\n      "pos_k": {k},\n'
        f'      "weight": "{w}"\n    }}' for q, k, w in _atom_fields(mu)])
    base = ratio_text(mu.base.numerator, mu.base.denominator)
    return (f'{{\n  "radical_base": "{base}",\n'
            f'  "mode": {json.dumps(mu.mode)},\n'
            + (f'  "atoms": [\n{atoms}\n  ]\n}}\n' if atoms
               else '  "atoms": []\n}\n'))


def loads_measure(text: str, bits: int = DEFAULT_PRECISION_BITS) -> AtomicMeasure:
    try:
        data = json.loads(text)
    # also an int literal beyond the digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise MeasureError(f"invalid JSON: {exc}") from exc
    return measure_from_json_dict(data, bits=bits)


def load_measure(path: str, bits: int = DEFAULT_PRECISION_BITS) -> AtomicMeasure:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise MeasureError(f"{path} is not UTF-8 text: {exc}") from exc
    return loads_measure(text, bits=bits)


def save_measure(mu: AtomicMeasure, path: str) -> None:
    text = dumps_measure(mu)  # a measure that does not print opens no file
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
