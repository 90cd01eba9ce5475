"""Decision procedures for square roots under multiplicative convolution.

Two questions are answered for a finitely atomic measure mu on (0, inf):

* ``sqrt_of``: does some nonnegative measure nu satisfy nu * nu = mu?
* ``aluthge_subnormal``: is the Aluthge transform W~ of the weighted shift
  attached to mu subnormal?  Its moments are sqrt(g_n g_{n+1} / (g_0 g_1)),
  so by Berger's theorem it is subnormal iff a probability measure nu has
  nu * nu = mu * t(mu) / (g_0 g_1), t reweighting each mass by its
  position: iff mu * t(mu) has a nonnegative square root, on any support.
  That root, over sqrt(g_0 g_1), is the Berger measure of W~.

Both are decided by a peel for every atom count; the four-atom family that
:mod:`alsq.closed_forms` states is not assumed here.  Measures on (0, inf)
multiply like elements of the group ring of a torsion-free ordered group,
which is an integral domain, so a root is unique when it exists.  Because
the order is compatible with multiplication, the root can be peeled off
smallest atom first: the smallest atom z of the residual target - root^2
can only come from the next root atom y times the first root atom y1, so
y*y1 = z and the mass of y is half the residual mass at z (relative to the
mass of y1).  The peel costs O(p^2) and ends with a witness, or with one of
two certificates that re-running the peel re-checks:

* ``peel-nonpositive-mass``: the forced mass of the next root atom is <= 0;
* ``peel-overflow``: the next root atom would square beyond the top atom.

One peel (:func:`_peel`) answers both questions.  Rational masses on
rational positions peel the signed square root Q of mu: mu has a root iff
Q >= 0, and mu * t(mu) iff mu = Q * Q and Q * t(Q) >= 0, where
``peel-overflow`` also says that mu is no signed square.  Real masses stop
at the first verdict, the root of mu, and radical positions as well: the
transform of those peels the product table of mu * t(mu) instead.

Relative to the first root atom every forced mass is rational for rational
input, and the root masses are those values times sqrt(a_1); so rational
input is always decided exactly.  A real mass is a dyadic rational standing
for every value within relative eps = max(tolerance, 2^(1 - precision_bits))
of it (``SolverConfig.radius``).  The peel carries an exact error radius
beside each mass, so ``impossible`` holds for every measure in that box and
a witness squares back within the error carried to each atom.
``undetermined`` arises only in real mode: a witness, which leaves out the
root atoms whose mass bound includes 0, fails its independent re-check by
convolution, or the radius reaches the masses themselves.

The peel reads tables (:class:`alsq.measures.Table`): that of mu, or the
product table of mu * t(mu) (:func:`alsq.measures.t_products`), which is
never materialized as a measure.  The witness check compares the table of
the witness's square (:func:`alsq.measures.square_products`) with the
target's; the transform of the signed peel re-squares Q against mu
instead.  Every product table comes from one pair loop, which forms each
unordered pair of atoms once.  A position or a Fraction is built only for
what a verdict prints.

The decision path takes its precision explicitly from ``SolverConfig``:
``t_weight`` and the witness masses round raw libmp values at
``precision_bits``, ``convolve`` sums exactly and rounds each real sum once
there, the peel and the witness check are exact, and none of them enters
mpmath's global context, so threads may decide at different
precisions at once.  The same holds for the closed forms, the loader,
``analyze`` and ``shifts.hankel_psd``; only ``selftest`` still switches that
context.  mpmath belongs to :mod:`alsq.reals`, which the real-mode branches
get from ``scalars.real_arithmetic``; a rational decision never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from heapq import heappop, heappush
from math import isqrt
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .diagram import Violation
from .measures import (
    RATIONAL,
    REAL,
    AtomicMeasure,
    MeasureError,
    Table,
    _key_position,
    _pair_products,
    _position,
    make_measure,
    measure_to_json_dict,
    square_products,
    support_keys,
    t_products,
    table,
    with_weights,
)
from .scalars import (
    DEFAULT_PRECISION_BITS,
    DEFAULT_TOLERANCE,
    Record,
    Scalar,
    real_arithmetic,
    scalar_str,
    sqrt_fraction,
)

WITNESS = "witness"
IMPOSSIBLE = "impossible"
UNDETERMINED = "undetermined"

# the note of an ``undetermined`` verdict whose witness does not square back
# to the target within the error the peel carried
UNVERIFIED = "witness failed independent re-verification"


class InternalError(RuntimeError):
    """A result contradicts the mathematics the code implements: a bug, not
    bad input."""


class SolverConfig(Record):
    """``radius`` is eps = max(tolerance, 2^(1 - precision_bits)): every
    real mass stands for the values within relative eps of it."""

    _fields = ("precision_bits", "tolerance")
    __slots__ = _fields + ("radius",)

    def __init__(self, precision_bits: int = DEFAULT_PRECISION_BITS,
                 tolerance: Fraction = DEFAULT_TOLERANCE):
        object.__setattr__(self, "precision_bits", precision_bits)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "radius", max(
            Fraction(tolerance), Fraction(2, 1 << precision_bits)))


DEFAULT_CONFIG = SolverConfig()


class Verdict(Record):
    __slots__ = _fields = ("outcome", "witness", "certificate", "residual",
                           "precision_bits", "notes")

    def __init__(self, outcome: str, witness: Optional[AtomicMeasure] = None,
                 certificate: Optional[Violation] = None,
                 residual: Optional[str] = None,
                 precision_bits: int = DEFAULT_PRECISION_BITS,
                 notes: Tuple[str, ...] = ()):
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "precision_bits", precision_bits)
        object.__setattr__(self, "notes", notes)

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "witness": measure_to_json_dict(self.witness) if self.witness else None,
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
            "residual": self.residual,
            "precision_bits": self.precision_bits,
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = [f"outcome: {self.outcome}"]
        if self.witness is not None:
            lines.append(f"witness: {self.witness}")
        if self.certificate is not None:
            lines.append(f"certificate: {self.certificate.render()}")
        if self.residual is not None:
            lines.append(f"residual: {self.residual}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the peel
# ---------------------------------------------------------------------------

class Peel(Record):
    """Result of a verdict of :func:`_peel`, such as :func:`peel_root`.

    When ``outcome`` is a witness, ``root`` lists one ``(j, c)`` per root
    atom, smallest first: the atom y satisfies y * y1 = (target atom j) and
    carries mass c * sqrt(a_1), where y1 is the first root atom
    (y1^2 = target atom 0) and a_1 the first target mass.  In real mode
    ``radii[j]`` is an int pair (r, q): r / q is the error, relative to a_1,
    that the peel carried to target atom j.  ``residual`` is the largest
    such error relative to the mass of its atom (an exact 0 in rational
    mode), and ``maybe`` lists the j of the root atoms whose mass bound
    includes 0: they are left out of ``root``.  The c and the residual are
    exact Fractions in rational mode and mpfs rounded toward zero at the
    working precision in real mode.  The transform witness of a rational
    peel lists ``(key, c)`` per atom of N instead.
    """

    __slots__ = _fields = ("outcome", "root", "certificate", "residual",
                           "note", "radii", "maybe")

    def __init__(self, outcome: str, root: Tuple[Tuple[int, Scalar], ...] = (),
                 certificate: Optional[Violation] = None,
                 residual: Scalar = Fraction(0), note: Optional[str] = None,
                 radii: Tuple[Tuple[int, int], ...] = (),
                 maybe: Tuple[int, ...] = ()):
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "note", note)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "maybe", maybe)


class _Powers(dict):
    """The powers of one int, each computed on first use."""

    def __init__(self, base: int):
        super().__init__()
        self.base = base

    def __missing__(self, exponent: int) -> int:
        value = self[exponent] = self.base ** exponent
        return value


def peel_root(target: AtomicMeasure, config: SolverConfig = DEFAULT_CONFIG) -> Peel:
    """Peel the unique root of ``target`` off its smallest atoms: the first
    verdict of :func:`_peel` on its :func:`table`."""
    return next(_peel(table(target, config.precision_bits, config.radius),
                      config))()


@lru_cache(maxsize=64)
def _spread(top: int, bottom: int) -> Tuple[int, int]:
    """2*rho / (1 - rho) for rho = top / bottom (ints hash faster)."""
    spread = Fraction(2 * top, bottom - top)
    return spread.numerator, spread.denominator


def _add(acc: dict, heap: list, key: int, n: int, e: int,
         powers: _Powers) -> None:
    """Add n / D^e to the mass at ``key`` in ``acc``, a dict of int pairs
    (n, e) whose keys are also in ``heap``."""
    if key in acc:
        m, f = acc[key]
        if f == e:
            acc[key] = m + n, e
        elif f > e:
            acc[key] = m + n * powers[f - e], f
        else:
            acc[key] = m * powers[e - f] + n, e
    else:
        acc[key] = n, e
        heappush(heap, key)


def _half(n: int, e: int, r: int, n1: int, d: int) -> Tuple[int, int, int]:
    """Half of the ball n / D^e +- r / D^e, D = d = 2*n1, with the whole
    factors of D that divide both of its ints divided out."""
    n, e, r = n * n1, e + 1, r * n1
    while e and n % d == 0 and r % d == 0:
        n, e, r = n // d, e - 1, r // d
    return n, e, r


def _peel(target: Table, config: SolverConfig) -> Iterator:
    """Peel the root of the measure mu tabled in ``target``: yield a call
    that builds the square-root peel once that is final (the transform
    alone does not build it), then, for exact masses, the transform's peel.

    Works on the int keys K_j of the target's support and on masses divided
    by the first mass, starting from the root atom y1 with key K_1 and mass
    1.  The root atom y with y*y1 at the residual atom z has key z / K_1:
    the target atom j sits at K_j*K_1 and the root atoms a, b meet at
    K_a*K_b.  No scalar object is built in the loop, and a position only
    for a certificate or a note.  A mass is an int pair (n, e) for n / D^e:
    with N_j the int numerators of the target masses and D = 2*N_1, the
    masses relative to a_1 are 2*N_j / D and halving multiplies by N_1 / D,
    so every mass lies in Z[1/D]; whole factors of D are divided out of a
    root mass, and one scalar is built per root atom.  The result does not
    depend on the denominator the numerators are over.

    A real target mass of relative radius rho stands for a ball: its
    midpoint n / D^e and radius r / D^e, r kept beside (n, e) at the same
    e.  The radius is 2*rho / (1 - rho) relative to a_1, rounded up once to
    a whole r over a denominator that makes the smallest radius about 2^32
    units; after that radii are exact: |a|*s + |b|*r + r*s for a product,
    r + s for a difference.  A residual ball wholly below 0 refutes, and so
    does one wholly above 0 where the root atom would overflow.  A ball
    holding 0 where a root atom could sit gives a maybe atom of mass in
    [0, hi], carried as 0 +- hi: it stays in the cross terms, so a later
    refutation holds for every mass in the box, and it moves no midpoint,
    so the witness leaves it out.  Real masses stop at the square-root
    peel.

    Exact masses peel the signed square root Q of mu: past a negative
    forced mass a root atom sits at every nonzero residual atom z, on a
    target atom or off them.  As the ring of measures on (0, inf) is a UFD
    and t an automorphism of it, mu * t(mu) = N * N forces mu = Q * Q and
    N = +-Q * t(Q) (README, "Square root vs. transform"); up to Q's first
    negative mass Q is the nonnegative root, so the square-root peel is
    final there, at an overflow, or at the end.

    N = Q * t(Q), relative to its first mass and times R_1, is accumulated
    from Q's first negative mass on, the pairs of earlier root atoms
    back-filled: before it N is a sum of products of positive masses, so no
    refutation is lost.  For a root atom of key K, R = sqrt(K) is the int
    that its y*y1 is times the lcm of the target's denominators; root atoms
    a, b add c_a c_b (R_a + R_b) (c_a^2 R_a for a = b) at K_a*K_b, the key
    of y_a*y_b*x_1 in the table of mu * t(mu).  Later pairs meet at the next
    root atom's z or beyond, so the atoms of N below z are final: the root
    that peel of that table finds there.  The first negative one refutes
    with its certificate (:func:`_negative`).  A nonzero residual atom
    beyond the top, or at a z that K_1 does not divide, refutes with
    ``peel-overflow``: mu is no signed square (:func:`_no_signed_square`).
    z / K_1 is (L*y*y1)^2, L the lcm of the denominators of mu's positions,
    so K_1 divides z exactly when y*y1 is a multiple of 1/L.

    A transform witness lists N as ``(key, c)`` pairs, each atom's key in
    the table of mu * t(mu) and its mass relative to the first, once Q has
    been re-squared against the target: Q * Q = mu gives N * N = mu * t(mu).
    The peel leaves mu - Q * Q at 0, so a re-square that misses the target
    is a bug and raises :class:`InternalError`.
    """
    rho = target.radius
    ball = bool(rho)
    if ball and rho >= 1:
        yield partial(Peel, UNDETERMINED, note=(
            f"at relative error {float(rho):.3g} a mass may be 0"))
        return
    nums, keys = target.masses, target.keys
    value = Fraction
    if target.mode == REAL:
        reals, bits = real_arithmetic(), config.precision_bits

        def value(n, q):  # as to_mpf rounds Fraction(n, q), with no gcd
            return reals.from_raw(reals.from_rational(n, q, bits,
                                                      reals.round_down))
    if ball:
        top, bottom = _spread(rho.numerator, rho.denominator)
        # over a denominator that makes the smallest radius about 2^32 units,
        # rounding each radius up to a whole unit adds at most 2^-32 of it
        shift = max(0, 32 + bottom.bit_length()
                    - (top * 2 * min(nums)).bit_length())
        nums = [n << shift for n in nums]
    n1 = nums[0]
    d = 2 * n1
    powers = _Powers(d)
    k1 = keys[0]
    # target atom j sits at K_j*K_1 with mass 2*N_j / D relative to a_1;
    # atom 0 is the square of the first root atom.  The keys ascend, so
    # they are a heap
    heap = [key * k1 for key in keys[1:]]
    index = dict(zip(heap, range(1, len(keys))))
    residual = dict(zip(heap, [(2 * n, 1) for n in nums[1:]]))
    # the root atom y with y*y1 at z squares to (z/K_1)^2; it overflows
    # beyond the top target atom K_top*K_1 when z^2 > K_top*K_1^3
    limit = keys[-1] * k1 ** 3
    root = [(k1, 1, 0, isqrt(k1))]
    if ball:
        # the radius of each residual ball at the e of its midpoint: every
        # term goes to both at one e, so the two dicts share their keys,
        # which the midpoints put on the heap, and their exponents.  And the
        # radius of each root atom, at the e of its mass
        radius = dict(zip(heap, [(-(-2 * n * top // bottom), 1)
                                 for n in nums[1:]]))
        spare, root_radius, radii, maybe = [], [0], [(0, 0)] * target.p, []
    found, found_heap, final = None, [], []
    while heap:
        z = heappop(heap)
        n, e = residual.pop(z)
        if ball:
            r = radius.pop(z)[0]
            j = index.get(z)
            if j is not None:
                radii[j] = r, e
            if n + r < 0:
                n, e, r = _half(n, e, r, n1, d)
                yield partial(_forced, target, j, len(root), z,
                              value(n, powers[e]),
                              value(r, powers[e]) if r else None)
                return
            if n <= r:  # the ball holds 0; off the target's atoms it always
                # does, the residual there being minus products of positive
                # midpoints
                if j is None or n + r == 0 or z * z > limit:
                    continue
                # its mass lies in [0, hi]: carried as 0 +- hi, it leaves the
                # midpoints alone, so the witness can leave it out
                r, e, _ = _half(n + r, e, 0, n1, d)
                n = 0
                maybe.append(j)
            elif j is None:
                raise InternalError("positive residual off the target's atoms")
            elif z * z > limit:
                yield partial(_overflow, target, j)
                return
            else:
                n, e, r = _half(n, e, r, n1, d)
            # the radii of the new root atom's terms, whose midpoints are
            # added below; a real root's midpoints are >= 0, so no abs()
            key = keys[j]
            for (other, m, f, _), s in zip(root[1:], root_radius[1:]):
                _add(radius, spare, other * key, 2 * (n * s + (m + s) * r),
                     e + f, powers)
            _add(radius, spare, key * key, (2 * n + r) * r, 2 * e, powers)
            root_radius.append(r)
        else:
            if n < 0 and found is None:
                # Q's first negative mass: mu has no square root, and N starts
                yield partial(_forced, target, index.get(z), len(root), z,
                              value(n * n1, powers[e + 1]))
                found = _add_pairs({}, found_heap, root, 0, powers)
            if not n:
                continue
            if found is not None:
                negative = _finalize(target, found, found_heap, z, final,
                                     powers)
                if negative:
                    yield Peel(IMPOSSIBLE, certificate=negative)
                    return
            elif z not in index:
                raise InternalError("positive residual off the target's atoms")
            if z * z > limit or z % k1:
                if found is None:
                    yield partial(_overflow, target, index[z])
                yield Peel(IMPOSSIBLE, certificate=_no_signed_square(
                    target, len(root), z, index.get(z), z * z > limit))
                return
            n, e = n * n1, e + 1  # half of n / D^e
            while e and n % d == 0:
                n, e = n // d, e - 1
            key = z // k1
        for other, m, f, _ in root[1:]:
            _add(residual, heap, other * key, -2 * n * m, e + f, powers)
        _add(residual, heap, key * key, -n * n, 2 * e, powers)
        root.append((key, n, e, isqrt(key)))
        if found is not None:
            _add_pairs(found, found_heap, root, len(root) - 1, powers)
    if ball:
        radii = tuple([(r, powers[e]) for r, e in radii])
        # the largest r / q over the mass 2*N_j / D of its atom, relative to
        # a_1
        worst, low = 0, 1
        for (r, q), n in zip(radii, nums):
            if r * n1 * low > worst * q * n:
                worst, low = r * n1, q * n
        # a maybe atom, of midpoint 0, is left out
        yield partial(Peel, WITNESS, root=tuple([
            (index.get(key * k1, 0), value(n, powers[e]))
            for key, n, e, _ in root if n]), residual=value(worst, low),
            radii=radii, maybe=tuple(maybe))
        return
    if found is None:
        yield lambda: Peel(WITNESS, root=tuple([
            (index.get(key * k1, 0), value(n, powers[e]))
            for key, n, e, _ in root]))
        found = _add_pairs({}, found_heap, root, 0, powers)
    negative = _finalize(target, found, found_heap, None, final, powers)
    if negative:
        yield Peel(IMPOSSIBLE, certificate=negative)
        return
    # Q * Q against the target, over D^(2*top): the masses relative to a_1
    # are N_j / N_1.  The peel left mu - Q * Q at 0, so a mismatch is a bug
    top = max([f for _, _, f, _ in root])
    masses = [m * powers[top - f] for _, m, f, _ in root]
    order, squares = _pair_products([key for key, _, _, _ in root], masses,
                                    masses)
    square = [(key, m) for key, m in zip(order, squares) if m]
    scale = powers[2 * top]
    if len(square) != len(keys) or any(
            key != k * k1 or m * n1 != t * scale
            for (key, m), k, t in zip(square, keys, nums)):
        raise InternalError("the signed root does not square back to mu")
    r1 = root[0][3]
    yield Peel(WITNESS, root=tuple([(w, Fraction(m, powers[f] * r1))
                                    for w, m, f in final]))


def _add_pairs(found: dict, heap: list, root: list, start: int,
               powers: _Powers) -> dict:
    """Add the pairs a <= b of root atoms with b >= start to N, ``found``."""
    for i in range(start, len(root)):
        key, n, e, r = root[i]
        for other, m, f, s in root[:i]:
            _add(found, heap, other * key, n * m * (s + r), e + f, powers)
        _add(found, heap, key * key, n * n * r, 2 * e, powers)
    return found


def _finalize(target: Table, found: dict, heap: list, bound: Optional[int],
              final: list, powers: _Powers) -> Optional[Violation]:
    """Move the atoms of N below ``bound`` (all for None) to ``final`` as
    (key, n, e), dropping 0s, and refute at the first negative one."""
    while heap and (bound is None or heap[0] < bound):
        w = heappop(heap)
        m, f = found.pop(w)
        if m < 0:
            return _negative(target, len(final), w, Fraction(
                m, powers[f] * isqrt(target.keys[0])))
        if m:
            final.append((w, m, f))
    return None


def _negative(target: Table, count: int, w: int, mass: Fraction) -> Violation:
    """The certificate of the peel of the table of mu * t(mu) at the first
    negative atom of N, its key w in that table, after ``count`` positive
    atoms of N; ``mass`` is its mass relative to the first root mass.  The
    table's masses are positive, so it has an atom at each product K_a*K_b
    of two keys of mu and nowhere else: the atom at w, if any, has as many
    atoms below it as there are distinct such products below w."""
    keys, scale, base = target.keys, target.scale, target.base
    below, at = set(), False
    for i, a in enumerate(keys):
        if a * a > w:
            break
        for b in keys[i:]:
            key = a * b
            if key >= w:
                at = at or key == w
                break
            below.add(key)
    a1 = _first_product_mass(target, target.position(0).q)
    return _nonpositive(
        len(below) if at else None, count, _at(w, scale * scale, base, at),
        scalar_str(_key_position(keys[0] ** 2, scale * scale, base)),
        scalar_str(a1), mass)


def _first_product_mass(target: Table, x1: Fraction) -> Fraction:
    """a_1^2 x_1, the first mass of mu * t(mu), for the rational measure mu
    tabled in ``target`` with first position x_1."""
    m, d = target.masses[0], target.den
    return Fraction(m * m * x1.numerator, d * d * x1.denominator)


def _no_signed_square(target: Table, count: int, z: int, j: Optional[int],
                      beyond: bool) -> Violation:
    """``peel-overflow`` of the signed peel: a nonzero residual atom at z,
    where the atom y of Q has a rational y*y1, beyond the top or off the
    multiples of 1/L, L the lcm of the denominators of mu's positions.
    mu is then no signed square, for the atoms y, y' of a signed root have
    y*y' on those multiples: for each prime, the lowest power of it in
    Q * Q is twice that in Q."""
    k1, scale = target.keys[0], target.scale
    first = target.position(0)
    if beyond:
        why = (f"would square to "
               f"{scalar_str(Fraction(z, k1 * scale) / first.q)}, beyond the "
               f"top atom {scalar_str(target.position(target.p - 1))}")
    else:
        why = (f"makes y*y1 no multiple of 1/{isqrt(scale)}, the reciprocal "
               "of the lcm of the denominators of mu's positions, as every "
               "product of two atoms of a signed root of mu is")
    return Violation(
        "peel-overflow", (j + 1,) if j is not None else (),
        f"mu is no signed square: after {count} atoms of its signed root Q "
        f"the smallest atom of mu - Q^2 sits at "
        f"{scalar_str(_key_position(z, k1 * scale, target.base))}; the atom "
        f"y of Q with y*y1 there (y1^2 = {scalar_str(first)}) {why}")


def _at(key: int, scale: int, base: Fraction, atom: bool) -> str:
    """The position whose square is key / scale: printed when the target
    has an atom there, else named by its square."""
    if atom:
        return scalar_str(_key_position(key, scale, base))
    return f"the position with square {scalar_str(Fraction(key, scale))}"


def _overflow(target: Table, j: int) -> Peel:
    y, first = target.position(j), target.position(0)
    return Peel(IMPOSSIBLE, certificate=Violation(
        "peel-overflow", (j + 1,),
        f"the root atom y with y*y1 = {scalar_str(y)} (y1^2 = "
        f"{scalar_str(first)}) would square to "
        f"{scalar_str(y * y / first)}, beyond the top atom "
        f"{scalar_str(target.position(target.p - 1))}"))


def _forced(target: Table, j: Optional[int], count: int, z: int, c: Scalar,
            bound: Optional[Scalar] = None) -> Peel:
    """``peel-nonpositive-mass`` of a peel of the table of mu, at z."""
    return Peel(IMPOSSIBLE, certificate=_nonpositive(
        j, count, _at(z, target.keys[0] * target.scale, target.base,
                      j is not None),
        scalar_str(target.position(0)), scalar_str(target.weight(0)), c,
        bound))


def _nonpositive(j: Optional[int], count: int, at: str, first: str, a1: str,
                 c: Scalar, bound: Optional[Scalar] = None) -> Violation:
    mass = f"{scalar_str(c)}*sqrt({a1})"
    if bound is not None:
        mass += f" +- {scalar_str(bound)}*sqrt({a1})"
    return Violation(
        "peel-nonpositive-mass", (j + 1,) if j is not None else (),
        f"after {count} root atoms the smallest atom of target - root^2 "
        f"sits at {at}; the root atom y with y*y1 there (y1^2 = {first}) is "
        f"forced to carry mass {mass}, which is not positive")


def _root_masses(cs: Sequence[Scalar], a1: Scalar, mode: str,
                 config: SolverConfig) -> Tuple[str, list, List[str]]:
    """The root's masses c * sqrt(a_1), exact when sqrt(a_1) is rational."""
    if mode == RATIONAL:
        root = sqrt_fraction(a1)
        if root is not None:
            return RATIONAL, [c * root for c in cs], []
    bits = config.precision_bits
    reals = real_arithmetic()
    from_raw, mpf_mul, to_raw = reals.from_raw, reals.mpf_mul, reals.to_raw
    # rounded to nearest at bits, as mpmath.sqrt and the mpf product at that
    # working precision round them
    scale = reals.mpf_sqrt(to_raw(a1, bits), bits, reals.round_nearest)
    weights = [from_raw(mpf_mul(to_raw(c, bits), scale, bits,
                                reals.round_nearest)) for c in cs]
    notes = []
    if mode == RATIONAL:
        notes.append(f"witness masses lie in Q(sqrt({scalar_str(a1)})); "
                     "emitted as reals")
    return REAL, weights, notes


def _decide(peel: Peel, a1: Scalar, mode: str,
            place: Callable[[list, str], AtomicMeasure],
            check: Optional[Table], config: SolverConfig,
            notes: List[str]) -> Verdict:
    """Turn a peel into a verdict: the root's masses are its c times
    sqrt(a1), and ``place(weights, mode)`` puts them on its support.  A
    witness is re-checked by convolving it with itself and comparing with
    the table ``check``, unless that is None because the peel re-squared
    its root itself."""
    bits = config.precision_bits
    if peel.outcome != WITNESS:
        extra = [peel.note] if peel.note else []
        return Verdict(peel.outcome, certificate=peel.certificate,
                       precision_bits=bits, notes=tuple(notes + extra))
    mode, weights, extra = _root_masses([c for _, c in peel.root], a1, mode,
                                        config)
    witness = place(weights, mode)
    if check is not None and not _verify(witness, check, peel.radii, config):
        return Verdict(UNDETERMINED, precision_bits=bits,
                       notes=tuple(notes + [UNVERIFIED]))
    if peel.maybe:
        extra.append(f"{len(peel.maybe)} root atoms whose mass bound "
                     "includes 0 were left out")
    # an exact 0 as decimal_str prints a zero mpf
    residual = (real_arithmetic().decimal_str(peel.residual)
                if peel.residual else "0.0")
    return Verdict(WITNESS, witness=witness, residual=residual,
                   precision_bits=bits, notes=tuple(notes + extra))


def verify_witness(
    witness: AtomicMeasure,
    target: AtomicMeasure,
    config: SolverConfig = DEFAULT_CONFIG,
) -> bool:
    """Independent check: convolve the witness with itself and compare, in
    real mode within the error that the peel of ``target`` carries to each
    of its atoms."""
    tabled = table(target, config.precision_bits, config.radius)
    peel = next(_peel(tabled, config))() if tabled.radius else Peel(WITNESS)
    return (peel.outcome == WITNESS
            and _verify(witness, tabled, peel.radii, config))


def _verify(witness: AtomicMeasure, target: Table,
            radii: Sequence[Tuple[int, int]], config: SolverConfig) -> bool:
    """Compare the table of the witness's square
    (:func:`alsq.measures.square_products`, p(p + 1) / 2 pairs for p root
    atoms) with ``target``.  Equal int keys at an equal scale give equal
    positions.  Exact masses
    must be equal; otherwise |S_j - T_j| <= r / q * a_1 + rho * S_j, as a
    re-squared mass S_j lies within the square's radius rho of the square
    of the peel's root, and that within r / q * a_1 of the target mass T_j,
    (r, q) = radii[j] (0 for a rational target)."""
    square = square_products(witness, config.precision_bits)
    if square.keys != target.keys or square.scale != target.scale:
        return False
    sden, tden, rho = square.den, target.den, square.radius
    if not rho and not radii:
        return all(s * tden == t * sden
                   for s, t in zip(square.masses, target.masses))
    top, bottom = rho.numerator, rho.denominator
    t1 = target.masses[0]
    for s, t, (r, q) in zip(square.masses, target.masses,
                            radii or [(0, 1)] * target.p):
        # the inequality above times sden * tden * q * bottom
        if (abs(s * tden - t * sden) * q * bottom
                > r * t1 * sden * bottom + top * s * tden * q):
            return False
    return True


# ---------------------------------------------------------------------------
# the two decision procedures
# ---------------------------------------------------------------------------

def aluthge_subnormal(
    mu: AtomicMeasure,
    config: SolverConfig = DEFAULT_CONFIG,
) -> Verdict:
    """Decide whether the Aluthge transform of the weighted shift attached
    to ``mu`` is subnormal: whether mu * t(mu) has a nonnegative square
    root N, on any support.

    Rational masses on rational positions are decided exactly by the second
    verdict of :func:`_peel` on mu: N = Q * t(Q) when mu = Q * Q, Q signed,
    and no N exists when mu is no signed square.  No product table of
    mu * t(mu) is formed, and a witness pairs the atoms of Q.  Real masses
    and radical positions read the first verdict of the peel of the table
    of mu * t(mu) (:func:`t_products`).
    """
    mu.require_no_zero_atom("aluthge_subnormal")
    notes: List[str] = []
    if mu.mode == RATIONAL and any(pos.k == 1 for pos in mu.support):
        mu = mu.to_real(config.precision_bits)
        notes.append("irrational positions: masses analysed numerically")
    if mu.mode == RATIONAL:
        target = table(mu, config.precision_bits)
        _, peel = _peel(target, config)
        return _transform(mu, target, peel, config, notes)
    target = t_products(mu, config.precision_bits, config.radius)
    return _transform(mu, target, next(_peel(target, config))(), config,
                      notes)


def _transform(mu: AtomicMeasure, target: Table, peel: Peel,
               config: SolverConfig, notes: List[str]) -> Verdict:
    """The transform verdict of the peel of mu or of mu * t(mu)."""
    keys, scale = support_keys(mu)
    if mu.mode == RATIONAL:
        a1, check = _first_product_mass(target, mu.support[0].q), None
        at = [w for w, _ in peel.root]
    else:
        a1, check = target.weight(0), target
        at = [target.keys[j] for j, _ in peel.root]

    def place(weights, mode):
        # N's atom n sits at key at[i] = key of n*x_1 in the table of
        # mu * t(mu); a root on supp(mu), atom m at K_0*K_m, keeps the keys
        # of mu
        k0 = keys[0]
        if len(at) == mu.p and all(
                w == k0 * key for w, key in zip(at, keys)):
            return with_weights(mu, weights, mode)
        x1 = mu.support[0]
        positions = [_key_position(w, scale * scale, mu.base) / x1
                     for w in at]
        return make_measure(list(zip(positions, weights)), mode=mode,
                            base=mu.base, bits=config.precision_bits)
    return _decide(peel, a1, mu.mode, place, check, config, notes)


def sqrt_of(
    mu: AtomicMeasure,
    config: SolverConfig = DEFAULT_CONFIG,
) -> Verdict:
    """Decide nu * nu = mu by peeling its unique root, the first verdict of
    :func:`_peel`; a witness sits at sqrt(x_1) * (x_j / x_1) over the
    radical base x_1.  Positions must be rational."""
    return next(verdicts(mu, config))


def verdicts(mu: AtomicMeasure,
             config: SolverConfig = DEFAULT_CONFIG) -> Iterator[Verdict]:
    """Yield ``sqrt_of(mu)``, then ``aluthge_subnormal(mu)``, each when
    asked for; rational masses give both from one peel of mu."""
    mu.require_no_zero_atom("sqrt_of")
    if any(pos.k == 1 for pos in mu.support):
        raise MeasureError(
            "square-root search requires rational atom positions; apply "
            "power_positions(mu, 2) first")
    target = table(mu, config.precision_bits, config.radius)
    peels = _peel(target, config)
    peel = next(peels)()
    support = mu.support
    base = support[0].q

    def place(weights, mode):
        root = sqrt_fraction(base)  # checked once, as Position checks it
        positions = [_position(support[j].q / base * root, 0, base)
                     if root is not None else
                     _position(support[j].q / base, 1, base)
                     for j, _ in peel.root]
        return make_measure(list(zip(positions, weights)), mode=mode,
                            base=base, bits=config.precision_bits)
    yield _decide(peel, target.weight(0), target.mode, place, target, config,
                  [])
    yield (aluthge_subnormal(mu, config) if target.mode == REAL else
           _transform(mu, target, next(peels), config, []))
