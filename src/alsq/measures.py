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
radius of the masses.  :func:`products` tables a convolution without
building its positions or masses, so ``solver`` decides the transform
question on the table of mu * t(mu) and never materializes that measure;
:func:`convolve` is ``products(...).measure()``.

Real-mode branches get :mod:`alsq.reals` from ``real_arithmetic`` once per
call; rational ones never load mpmath.
"""

from __future__ import annotations

import json
import operator
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .scalars import (
    DEFAULT_PRECISION_BITS,
    Record,
    Scalar,
    format_rational,
    parse_rational,
    real_arithmetic,
    round_root,
    sqrt_fraction,
)

RATIONAL = "rational"
REAL = "real"

# the most atoms a measure document may hold: at p = 321 a transform decision
# takes 0.9 to 2.3 s and its cost grows about as p^3.3 (9.3 s at p = 641)
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
        q, base = Fraction(q), Fraction(base)
        if q <= 0:
            raise MeasureError(f"position must be positive, got {q}")
        if k not in (0, 1):
            raise MeasureError(f"radical exponent must be 0 or 1, got {k}")
        if base <= 0:
            raise MeasureError(f"radical base must be positive, got {base}")
        if k == 1:
            root = sqrt_fraction(base)
            if root is not None:
                # collapse sqrt of a perfect square so equality stays syntactic
                q, k = q * root, 0
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "base", base)

    @staticmethod
    def of(value: Union["Position", Fraction, int, str], base: Fraction = Fraction(1)) -> "Position":
        if isinstance(value, Position):
            return value
        if isinstance(value, str):
            value = parse_rational(value)
        return Position(Fraction(value), 0, base)

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
        x = Fraction(x)
        if x <= 0:
            raise MeasureError(f"scale factor must be positive, got {x}")
        return Position(self.q * x, self.k, self.base)

    def as_fraction(self) -> Fraction:
        if self.k != 0:
            raise MeasureError(f"{self} is irrational")
        return self.q

    def to_mpf(self, bits: int = DEFAULT_PRECISION_BITS) -> "mpf":
        reals = real_arithmetic()
        return reals.from_raw(reals.position_raw(self, bits))

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
        if self.k == 0:
            return format_rational(self.q)
        if self.q == 1:
            return f"sqrt({format_rational(self.base)})"
        return f"{format_rational(self.q)}*sqrt({format_rational(self.base)})"

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
    """Immutable finitely atomic measure; atoms sorted by position."""

    __slots__ = _fields = ("base", "mode", "atoms", "zero_mass")

    def __init__(self, base: Fraction, mode: str,
                 atoms: Tuple[Tuple[Position, Weight], ...],
                 zero_mass: Weight = Fraction(0)):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "zero_mass", zero_mass)

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
        return _weight_nonzero(self.zero_mass)

    def require_no_zero_atom(self, op: str) -> None:
        if self.has_zero_atom():
            raise ZeroAtomError(
                f"{op} requires a measure without mass at the origin; "
                "apply strip_zero_atom first")

    def to_real(self, bits: int = DEFAULT_PRECISION_BITS) -> "AtomicMeasure":
        if self.mode == REAL:
            return self
        to_mpf = real_arithmetic().to_mpf
        return AtomicMeasure(
            self.base,
            REAL,
            tuple((pos, to_mpf(w, bits)) for pos, w in self.atoms),
            to_mpf(self.zero_mass, bits) if _weight_nonzero(self.zero_mass) else Fraction(0),
        )

    def __str__(self):
        show = format_rational
        if self.mode == REAL:
            decimal_str = real_arithmetic().decimal_str

            def show(w):
                return (format_rational(w) if type(w) is Fraction
                        else decimal_str(w))

        parts = []
        if self.has_zero_atom():
            parts.append(f"{show(self.zero_mass)}*d(0)")
        parts.extend(f"{show(w)}*d({pos})" for pos, w in self.atoms)
        return " + ".join(parts) if parts else "0"


def _weight_nonzero(w: Weight) -> bool:
    return w != 0


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
    inferred = Fraction(base) if base is not None else None
    if inferred is None:
        for pos_like, _ in pairs:
            if isinstance(pos_like, Position):
                inferred = pos_like.base
                break
    if inferred is None:
        inferred = Fraction(1)

    built: List[Tuple[Position, Weight]] = []
    convert = _weight_converter(mode, bits)
    zero = convert(zero_mass)
    for pos_like, w in pairs:
        weight = convert(w)
        if isinstance(pos_like, Position):
            pos = pos_like if pos_like.base == inferred else pos_like.rebase(inferred)
        else:
            raw = parse_rational(pos_like) if isinstance(pos_like, str) else Fraction(pos_like)
            if raw == 0:
                if weight <= 0:
                    raise MeasureError("mass at the origin must be positive")
                if mode == RATIONAL:
                    zero += weight
                else:
                    reals = real_arithmetic()
                    zero = reals.from_raw(reals.mpf_add(
                        zero._mpf_, weight._mpf_, bits, reals.round_nearest))
                continue
            pos = Position(raw, 0, inferred)
        if weight <= 0:
            raise MeasureError(f"weight at {pos} must be positive, got {weight}")
        built.append((pos, weight))

    # int keys order like the positions and are equal exactly when the
    # positions are; the stable sort names the first of two duplicates
    keyed = sorted(zip(int_keys([pos for pos, _ in built]), built),
                   key=lambda item: item[0])
    for (left_key, (left, _)), (right_key, _) in zip(keyed, keyed[1:]):
        if left_key == right_key:
            raise MeasureError(f"duplicate position {left}")
    if not built:
        raise MeasureError("a measure needs at least one atom on (0, inf)")
    return AtomicMeasure(inferred, mode, tuple([atom for _, atom in keyed]),
                         zero)


def _weight_converter(mode: str, bits: int):
    """The function that makes each weight of a ``mode`` measure.  A string
    is parsed as an exact rational (a non-finite one raises
    ``ScalarError``), rounded toward zero at ``bits`` in real mode."""
    if mode == RATIONAL:
        return _rational_weight
    reals = real_arithmetic()
    mpf, to_mpf = reals.mpf, reals.to_mpf

    def real_weight(w) -> Weight:
        if isinstance(w, str):
            w = parse_rational(w)
        if isinstance(w, mpf):
            return w
        return to_mpf(Fraction(w), bits)

    return real_weight


def _rational_weight(w) -> Fraction:
    if isinstance(w, str):
        return parse_rational(w)
    if hasattr(w, "_mpf_"):  # an mpf
        raise MeasureError("rational mode cannot hold floating weights")
    return Fraction(w)


def dirac(position, weight=1, mode: str = RATIONAL, base: Fraction = Fraction(1)) -> AtomicMeasure:
    return make_measure([(position, weight)], mode=mode, base=base)


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def _common_base(mu: AtomicMeasure, nu: AtomicMeasure) -> Fraction:
    if mu.base == nu.base:
        return mu.base
    if all(pos.k == 0 for pos in mu.support):
        return nu.base
    if all(pos.k == 0 for pos in nu.support):
        return mu.base
    raise IncompatibleBasesError(
        f"radical bases {mu.base} and {nu.base} are incompatible")


def _mode_join(mu: AtomicMeasure, nu: AtomicMeasure) -> str:
    return REAL if REAL in (mu.mode, nu.mode) else RATIONAL


def int_keys(positions: Sequence[Position]) -> List[int]:
    """One int per position: its square times the lcm of the squares'
    denominators.  Over a common base x_i*x_j = x_k*x_l exactly when
    key_i*key_j = key_k*key_l, and keys order like the positions, because
    ``squared`` is injective there."""
    return _scaled_keys(positions)[0]


def _scaled_keys(positions: Sequence[Position]) -> Tuple[List[int], int]:
    """The int keys of ``positions`` and the lcm that scales them."""
    # the reduced squares as int pairs; q^2 is reduced already, so only a
    # radical's q^2 * base needs a gcd (no Fraction is built: this runs per
    # product diagram, product table and witness check)
    squares = []
    for pos in positions:
        q = pos.q
        num, den = q.numerator * q.numerator, q.denominator * q.denominator
        if pos.k:
            num *= pos.base.numerator
            den *= pos.base.denominator
            common = gcd(num, den)
            num, den = num // common, den // common
        squares.append((num, den))
    scale = lcm(*[den for _, den in squares])
    return [num * (scale // den) for num, den in squares], scale


class Table:
    """A measure as the peel and the witness check read it: the int keys of
    its support in ascending order and its masses, with no scalar object
    per atom.

    ``keys`` are the int keys of the support (:func:`int_keys`).  The masses
    are the int numerators ``masses`` over the one denominator ``den``, a
    power of two in real mode.  Every mass stands for the values within
    ``radius`` times it, a Fraction that is 0 in rational mode.  Atom j sits
    at the product of the positions ``factors[j]``: one position for an atom
    of a measure, the first pair that reaches it for a product, with the
    pairs taken left factor outermost.
    """

    __slots__ = ("base", "mode", "keys", "masses", "den", "radius", "factors")

    def __init__(self, base: Fraction, mode: str, keys: List[int],
                 masses: List[int], den: int, radius: Fraction,
                 factors: Sequence[Tuple[Position, ...]]):
        self.base, self.mode, self.keys = base, mode, keys
        self.masses, self.den, self.radius = masses, den, radius
        self.factors = factors

    @property
    def p(self) -> int:
        return len(self.keys)

    def position(self, j: int) -> Position:
        return reduce(operator.mul, self.factors[j])

    def square(self, j: int) -> Fraction:
        """The square of the position of atom j, with no position built."""
        value = Fraction(1)
        for pos in self.factors[j]:
            value *= pos.squared()
        return value

    def weight(self, j: int) -> Weight:
        if self.mode == REAL:
            return real_arithmetic().from_dyadic(self.masses[j], self.den)
        return Fraction(self.masses[j], self.den)

    def measure(self) -> AtomicMeasure:
        den = self.den
        positions = [reduce(operator.mul, factors) for factors in self.factors]
        if self.mode == REAL:
            from_dyadic = real_arithmetic().from_dyadic
            weights = [from_dyadic(n, den) for n in self.masses]
        else:
            weights = [Fraction(n, den) for n in self.masses]
        return AtomicMeasure(self.base, self.mode,
                             tuple(list(zip(positions, weights))))


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
    den = lcm(*[w.denominator for w in weights])
    return [w.numerator * (den // w.denominator) for w in weights], den


def table(mu: AtomicMeasure, bits: int = DEFAULT_PRECISION_BITS,
          eps: Fraction = Fraction(0)) -> Table:
    """The table of ``mu`` itself (:func:`numerators`).  Each real mass
    stands for the values within relative ``eps`` of it."""
    masses, den = numerators(mu.weights, mu.mode, bits)
    return Table(mu.base, mu.mode, int_keys(mu.support), masses, den,
                 eps if mu.mode == REAL else Fraction(0),
                 [(pos,) for pos in mu.support])


# the roundings at bits a real factor mass may carry into ``products``,
# counting a conversion toward zero as three: a ``t_weight`` mass at a
# radical position carries nine, a witness mass six and a rational mass
# that ``numerators`` converts three; a product's mass adds one rounding
# of its sum to those of its two factors
_FACTOR_ROUNDINGS = 10


@lru_cache(maxsize=256)
def _product_radius(eps: Fraction, k: int, bits: int) -> Fraction:
    """The relative radius of a sum of products of two masses, each within
    relative ``eps`` of its value, computed with k roundings to nearest at
    ``bits``: (1 + eps)^2 (1 + g) - 1, where g bounds |y - x| / y for y the
    result of k such roundings on x, (1 - 2^-bits)^-k - 1 <= k / (2^bits -
    k)."""
    n = 1 << bits
    g = Fraction(k, n - k) if n > k else Fraction(n, n - 1) ** k - 1
    return (1 + eps) ** 2 * (1 + g) - 1


def products(mu: AtomicMeasure, nu: AtomicMeasure,
             bits: int = DEFAULT_PRECISION_BITS,
             eps: Fraction = Fraction(0)) -> Table:
    """The table of the multiplicative convolution mu * nu: atoms at all
    pairwise products x*y with mass summed over coinciding products.

    No scalar object is built per pair, and no position or mass per
    product.  The masses of each factor are int numerators over one
    denominator (:func:`numerators`), so every sum of pair products is
    exact.  In real mode each sum is then rounded once to nearest at
    ``bits``, and the table's radius covers the relative ``eps`` of each
    factor mass (2*eps + eps^2 for a product of two), the roundings the
    factor masses carry and that of the sum.  A product's key is the
    product of its factors' keys, divided by the gcd that brings the keys
    to the scale :func:`int_keys` gives them."""
    mu.require_no_zero_atom("convolve")
    nu.require_no_zero_atom("convolve")
    base = _common_base(mu, nu)
    mode = _mode_join(mu, nu)
    # every position of a measure is over the measure's base
    mu_points, nu_points = (
        list(m.support) if m.base == base
        else [pos.rebase(base) for pos in m.support] for m in (mu, nu))
    (mu_masses, mu_den), (nu_masses, nu_den) = (
        numerators(m.weights, mode, bits) for m in (mu, nu))
    # mu * mu, mu * t(mu) and a witness's square key one support once
    if mu.p == nu.p and all([x is y for x, y in zip(mu_points, nu_points)]):
        mu_keys, scale = _scaled_keys(mu_points)
        nu_keys = mu_keys
    else:
        keys, scale = _scaled_keys(mu_points + nu_points)
        mu_keys, nu_keys = keys[:mu.p], keys[mu.p:]
    merged = {}
    first = {}  # product key -> the first pair of positions that reaches it
    for px, kx, wx in zip(mu_points, mu_keys, mu_masses):
        for py, ky, wy in zip(nu_points, nu_keys, nu_masses):
            key = kx * ky
            if key in merged:
                merged[key] += wx * wy
            else:
                merged[key] = wx * wy
                first[key] = (px, py)
    order = sorted(merged)
    # the squares of the products are the keys over scale^2, so the lcm of
    # their denominators is scale^2 / g (g = 1 when nu has the support of mu)
    g = gcd(scale * scale, *order) if scale > 1 else 1
    masses, den = [merged[key] for key in order], mu_den * nu_den
    radius = Fraction(0)
    if mode == REAL:
        masses, den = real_arithmetic().round_dyadic(masses, den, bits)
        radius = _product_radius(eps, 2 * _FACTOR_ROUNDINGS + 1, bits)
    return Table(base, mode, order if g == 1 else [key // g for key in order],
                 masses, den, radius, [first[key] for key in order])


def convolve(mu: AtomicMeasure, nu: AtomicMeasure, bits: int = DEFAULT_PRECISION_BITS) -> AtomicMeasure:
    """Multiplicative convolution: :func:`products` with one position and
    one mass built per distinct product."""
    return products(mu, nu, bits).measure()


def t_weight(mu: AtomicMeasure, bits: int = DEFAULT_PRECISION_BITS) -> AtomicMeasure:
    """Multiply each mass by its position (the density-t reweighting).

    In real mode each product is rounded to nearest at ``bits``, as an mpf
    product under ``workprec(bits)`` rounds it."""
    mu.require_no_zero_atom("t_weight")
    atoms = []
    if mu.mode == RATIONAL:
        for pos, w in mu.atoms:
            if pos.k != 0:
                raise MeasureError(
                    f"t_weight at irrational position {pos} leaves the rational "
                    "field; use real mode")
            atoms.append((pos, w * pos.q))
    else:
        reals = real_arithmetic()
        for pos, w in mu.atoms:
            x = reals.position_raw(pos, bits)
            atoms.append((pos, reals.from_raw(reals.mpf_mul(
                reals.operand(w, bits), x, bits, reals.round_nearest))))
    return AtomicMeasure(mu.base, mu.mode, tuple(atoms))


def power_sums(mu: AtomicMeasure, count: int,
               bits: int = DEFAULT_PRECISION_BITS) -> Tuple[list, int, int]:
    """g_0 .. g_{count-1} exactly on ints over one denominator: pairs
    (a_n, b_n), den and s with g_n = (a_n + b_n sqrt(s)) / den.  A position
    is c or c*sqrt(s) for a rational c, s = u*v for the base u/v."""
    mu.require_no_zero_atom("moment")
    masses, den = numerators(mu.weights, mu.mode, bits)
    base, ks = mu.base, [pos.k for pos in mu.support]
    s = base.numerator * base.denominator
    cs = [pos.q / base.denominator if pos.k else pos.q for pos in mu.support]
    top = lcm(*[c.denominator for c in cs]) ** max(count - 1, 0)
    # x_i^n over the lcm^n, and from an odd to an even order a radical term
    # gains sqrt(s)^2 = s: each step divides exactly while n < count - 1
    steps = [[(c.numerator * s ** (k & odd), c.denominator)
              for c, k in zip(cs, ks)] for odd in (0, 1)]
    terms, sums = [m * top for m in masses], []
    for n in range(count):
        b = sum([t for t, k in zip(terms, ks) if k]) if n & 1 else 0
        sums.append((sum(terms) - b, b))
        terms = [t * a // d for t, (a, d) in zip(terms, steps[n & 1])]
    return sums, den * top, s


def moments(mu: AtomicMeasure, count: int,
            bits: int = DEFAULT_PRECISION_BITS) -> list:
    """g_0 .. g_{count-1} (:func:`power_sums`): exact Fractions where the
    value is rational in rational mode, else mpfs, each rounded once."""
    sums, den, s = power_sums(mu, count, bits)
    return [Fraction(a, den) if mu.mode == RATIONAL and not b else
            real_arithmetic().from_raw(round_root((a, b), (den, 0), 1, bits, s))
            for a, b in sums]


def moment(mu: AtomicMeasure, n: int, bits: int = DEFAULT_PRECISION_BITS):
    """n-th power moment, as :func:`moments` gives it."""
    if n < 0:
        raise MeasureError("moment order must be nonnegative")
    return moments(mu, n + 1, bits)[n]


def scale_positions(mu: AtomicMeasure, x: Union[Fraction, int, str]) -> AtomicMeasure:
    x = parse_rational(x) if isinstance(x, str) else Fraction(x)
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
        return reals.from_raw(reals.fzero), mu
    return mu.zero_mass, AtomicMeasure(mu.base, mu.mode, mu.atoms)


def normalize(mu: AtomicMeasure, bits: int = DEFAULT_PRECISION_BITS) -> AtomicMeasure:
    total = mu.total_mass()
    if not _weight_nonzero(total):
        raise MeasureError("cannot normalize a measure with zero total mass")

    if mu.mode == RATIONAL:
        def share(w):
            return w / total
    else:
        reals = real_arithmetic()

        def share(w):  # rounded to nearest at bits
            return reals.from_raw(reals.mpf_div(
                reals.operand(w, bits), total._mpf_, bits, reals.round_nearest))

    atoms = tuple((pos, share(w)) for pos, w in mu.atoms)
    zero = share(mu.zero_mass) if _weight_nonzero(mu.zero_mass) else mu.zero_mass
    return AtomicMeasure(mu.base, mu.mode, atoms, zero)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def measure_to_json_dict(mu: AtomicMeasure) -> dict:
    weight = format_rational
    if mu.mode == REAL:
        mpf_to_fraction = real_arithmetic().mpf_to_fraction

        def weight(w):
            # exact dyadic form: parses back to the identical mpf, so
            # emission is byte-stable under reload
            return format_rational(w if type(w) is Fraction
                                   else mpf_to_fraction(w))

    atoms = []
    if mu.has_zero_atom():
        atoms.append({"pos_q": "0", "pos_k": 0, "weight": weight(mu.zero_mass)})
    for pos, w in mu.atoms:
        atoms.append({
            "pos_q": format_rational(pos.q),
            "pos_k": pos.k,
            "weight": weight(w),
        })
    return {
        "radical_base": format_rational(mu.base),
        "mode": mu.mode,
        "atoms": atoms,
    }


def measure_from_json_dict(data: dict, bits: int = DEFAULT_PRECISION_BITS) -> AtomicMeasure:
    try:
        base = parse_rational(str(data["radical_base"]))
        mode = data["mode"]
        raw_atoms = data["atoms"]
    except (KeyError, TypeError) as exc:
        raise MeasureError(f"malformed measure document: missing {exc}") from exc
    if mode not in (RATIONAL, REAL):
        raise MeasureError(f"unknown scalar mode {mode!r}")
    if not isinstance(raw_atoms, list):
        raise MeasureError("malformed measure document: atoms must be a list")
    if len(raw_atoms) > MAX_ATOMS:
        raise MeasureError(f"a measure document holds at most {MAX_ATOMS} "
                           f"atoms, this one {len(raw_atoms)}")
    atoms: List[AtomLike] = []
    convert = _weight_converter(mode, bits)
    for index, atom in enumerate(raw_atoms):
        try:
            q = parse_rational(str(atom["pos_q"]))
            k = atom["pos_k"]
            weight = convert(str(atom["weight"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MeasureError(f"atom {index}: {exc}") from exc
        if type(k) is not int:  # bool is a subclass of int
            raise MeasureError(
                f"atom {index}: pos_k must be the JSON integer 0 or 1")
        if q == 0 and k != 0:
            raise MeasureError(f"atom {index}: the origin cannot carry a radical")
        if weight <= 0:
            raise MeasureError(f"atom {index}: weight must be positive")
        if q == 0:  # make_measure sums the masses at the origin
            atoms.append((q, weight))
            continue
        try:
            pos = Position(q, k, base)
        except MeasureError as exc:
            raise MeasureError(f"atom {index}: {exc}") from exc
        if not _square_prints(pos):
            raise MeasureError(
                f"atom {index}: the square of the position has more than "
                f"{sys.get_int_max_str_digits()} digits")
        atoms.append((pos, weight))
    return make_measure(atoms, mode=mode, base=base, bits=bits)


def _square_prints(pos: Position) -> bool:
    """Whether the numerator and the denominator of the square of ``pos``
    have at most ``sys.get_int_max_str_digits()`` digits (for a rational
    position: pos_q at most half of them), so that every product of two
    positions prints."""
    limit = sys.get_int_max_str_digits()
    if pos.k:
        square = pos.squared()
        num, den = square.numerator, square.denominator
    else:
        num, den = pos.q.numerator ** 2, pos.q.denominator ** 2
    # 2^(3 * limit) < 10^limit: the power is built only for long values
    return not limit or all(n.bit_length() <= 3 * limit or n < 10 ** limit
                            for n in (num, den))


def dumps_measure(mu: AtomicMeasure) -> str:
    return json.dumps(measure_to_json_dict(mu), indent=2) + "\n"


def loads_measure(text: str, bits: int = DEFAULT_PRECISION_BITS) -> AtomicMeasure:
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an int literal beyond the digit limit
        raise MeasureError(f"invalid JSON: {exc}") from exc
    return measure_from_json_dict(data, bits=bits)


def load_measure(path: str, bits: int = DEFAULT_PRECISION_BITS) -> AtomicMeasure:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_measure(handle.read(), bits=bits)


def save_measure(mu: AtomicMeasure, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_measure(mu))
