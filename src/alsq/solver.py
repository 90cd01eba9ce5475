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

One peel (:func:`_peel`) of the table of mu answers both questions, a
verdict each; a caller that needs the first alone does not resume it.  It
peels the signed square root Q of mu, on any positions and for rational
and real masses alike: mu has a root iff Q >= 0, and mu * t(mu) iff
mu = Q * Q and Q * t(Q) >= 0, where ``peel-overflow`` also says that mu is
no signed square; the argument holds over any field, so over R as well.

Relative to the first root atom every mass of Q is rational for rational
input, and every mass of N = Q * t(Q) lies in Q(sqrt(s)), s = u*v for the
base u/v, with an exact sign; so rational input is always decided exactly
(the root masses are those values times sqrt(a_1)).  A real mass is a
dyadic rational standing for every value within relative
eps = max(tolerance, 2^(1 - precision_bits)) of it
(``SolverConfig.radius``).  The peel carries an exact error radius
beside each mass, so ``impossible`` holds for every measure in that box and
a witness squares back within the error carried to each atom; an exact
mass is a ball of radius 0 in the same loop.
``undetermined`` arises only in real mode: a witness, which leaves out the
root atoms whose mass bound includes 0, fails its independent re-check,
the radius reaches the masses themselves, the signed root passes its cap
on atoms, or an atom of N has a negative midpoint inside its ball.

The square root's witness check compares the table of the witness's
square (:func:`alsq.measures.square_products`) with that of mu; the
transform re-squares Q against mu instead, and both end in one comparison
of masses (:func:`_matches`).  Both squares come from one pair loop, which
forms each unordered pair of atoms once and drops a product of merged
mass 0.
Once the peel has decided, no position or Fraction is multiplied or
divided on rational positions: a certificate prints its positions and
masses from the table's int keys and numerators
(:func:`alsq.measures._key_text`), and a witness atom is one Fraction of
ints (:func:`_placed`); only radical positions fall back to positions.

The decision path takes its precision explicitly from ``SolverConfig``:
the witness masses are rounded at ``precision_bits``, the peel and the
witness check are exact, and none of them enters mpmath's global
context, so threads may decide at different precisions at once.  The
same holds for the closed forms, the loader, ``analyze`` and
``shifts.hankel_psd``; only ``selftest`` still switches that context.
Each rounding runs on ints (:mod:`alsq.reals`), as libmp would round it;
a real mass is still an mpf, which mpmath holds and prints.  mpmath
belongs to :mod:`alsq.reals`, which the real-mode branches get from
``scalars.real_arithmetic``; a rational decision never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from heapq import heappop, heappush
from math import isqrt
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from . import measures
from .diagram import Violation
from .measures import (
    RATIONAL,
    REAL,
    AtomicMeasure,
    MeasureError,
    Table,
    _check_precision,
    _key_position,
    _key_root,
    _key_text,
    _pair_products,
    _position,
    _ratio_text,
    _square,
    measure_to_json_dict,
    square_products,
    support_keys,
    table,
    with_weights,
)
from .scalars import (
    DEFAULT_PRECISION_BITS,
    DEFAULT_TOLERANCE,
    Powers,
    Record,
    Scalar,
    Surd,
    real_arithmetic,
    round_root,
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
        _check_precision(precision_bits)
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

# the residual of an exact peel, built once
_EXACT = Fraction(0)


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
    working precision in real mode.  The transform witness of the peel of
    mu lists ``(key, c)`` per atom of N instead, and its ``maybe`` has one
    entry per maybe atom of Q (the j, or None off mu's atoms).
    """

    __slots__ = _fields = ("outcome", "root", "certificate", "residual",
                           "note", "radii", "maybe")

    def __init__(self, outcome: str, root: Tuple[Tuple[int, Scalar], ...] = (),
                 certificate: Optional[Violation] = None,
                 residual: Scalar = _EXACT, note: Optional[str] = None,
                 radii: Tuple[Tuple[int, int], ...] = (),
                 maybe: Tuple[int, ...] = ()):
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "note", note)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "maybe", maybe)


# the atoms the signed root of real masses may have per atom of mu; seeded
# squares, their twins and perturbed squares, at 64 and 128 bits and boxes
# up to 1/1000, needed at most 1.6
_ROOT_CAP = 4


def peel_root(target: AtomicMeasure, config: SolverConfig = DEFAULT_CONFIG) -> Peel:
    """Peel the unique root of ``target`` off its smallest atoms: the first
    verdict of :func:`_peel` on its :func:`table`."""
    return next(_peel(table(target, config.precision_bits, config.radius),
                      config, False))()


@lru_cache(maxsize=64)
def _spread(top: int, bottom: int) -> Tuple[int, int]:
    """2*rho / (1 - rho) for rho = top / bottom (ints hash faster)."""
    spread = Fraction(2 * top, bottom - top)
    return spread.numerator, spread.denominator


def _add(acc: dict, heap: list, key: int, n: int, e: int,
         powers: Powers) -> None:
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


def _peel(target: Table, config: SolverConfig,
          signed: bool = True) -> Iterator:
    """Peel the root of the measure mu tabled in ``target``: yield a call
    that builds the square-root peel once that is final (the transform
    alone does not build it), then the transform's peel.  A caller reads
    the first verdict alone by not resuming the generator.

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

    The peel takes off the signed square root Q of mu: past a negative
    forced mass a root atom sits at every nonzero residual atom z, on a
    target atom or off them.  As the ring of measures on (0, inf) over a
    field is a UFD and t an automorphism of it, mu * t(mu) = N * N forces
    mu = Q * Q and N = +-Q * t(Q) (README, "Square root vs. transform");
    up to Q's first negative mass Q is the nonnegative root, so the
    square-root peel is final there, at an overflow, or at the end.

    N = Q * t(Q), relative to its first mass and times R_1, is accumulated
    once the square-root verdict is final, the pairs of earlier root atoms
    back-filled, so that every atom of N is checked; an overflow before
    that verdict forms none, as Q >= 0 there.  N grows with Q, and is not
    formed once Q stops, because its first negative atom comes much
    earlier: after 5 root atoms on ``generate(GeneratorSpec(400,
    "arbitrary", 1))``, whose Q overflows only after 200.  For a root atom
    of key K, R = sqrt(K) is the int that its y*y1 is times the lcm of the
    target's denominators; root atoms a, b add c_a c_b (R_a + R_b) (c_a^2
    R_a for a = b) at K_a*K_b, the key of y_a*y_b*x_1 in the table of
    mu * t(mu).  On radical positions R = s*sqrt(K*K_1) (:func:`_rooted`),
    an int or a :class:`Surd` int*sqrt(s), and so is each mass of N, whose
    sign is exact.  Later pairs meet at the next root atom's z or beyond,
    so the atoms of N below z are final: the root that peel of that table
    finds there.  The first negative one refutes with its certificate
    (:func:`_negative`).  A nonzero residual atom beyond the top, or at a
    z that K_1 does not divide, refutes with
    ``peel-overflow``: mu is no signed square (:func:`_no_signed_square`).
    z / K_1 is scale*(y*y1)^2, so K_1 divides z exactly when (y*y1)^2 is a
    multiple of 1/scale; on rational positions, when y*y1 is one of 1/L,
    L^2 = scale.

    A real target mass of relative radius rho stands for a ball: its
    midpoint n / D^e and radius r / D^e, r kept beside (n, e) at the same
    e, and so does each mass of Q and of N.  The radius is 2*rho / (1 -
    rho) relative to a_1, rounded up once to a whole r over a denominator
    that makes the smallest radius about 2^32 units; after that radii are
    exact: |a|*s + |b|*r + r*s for a product, r + s for a sum.  An exact
    mass is a ball of radius 0 in the same loop, with no radius kept: its
    ball holds 0 only where the residual is 0, which is passed over.  Where Q
    could have an atom, on the lattice and at or below the top, a residual
    ball that holds 0 gives a maybe atom of either sign, carried as 0 +-
    hi: it stays in the cross terms and in N, so a refutation holds for
    every measure in the box, and it moves no midpoint, so a witness
    leaves it out; elsewhere such a ball is passed over.  So a ball wholly
    below 0 refutes the square root, and past it the transform is refuted
    only by an atom of N whose final ball lies wholly below 0 or by a
    residual ball that excludes 0 where Q cannot sit.  The square-root
    peel, whose root is >= 0 and sits on mu's atoms only, carries a maybe
    atom of mass in [0, hi] at an atom of mu; where the two peels part (a
    ball that holds 0 off mu's atoms, or around a negative midpoint) its
    verdict comes from a second peel with ``signed`` false.  Q is capped at
    ``_ROOT_CAP`` atoms per atom of mu: beyond, the transform is
    ``undetermined``.

    The witness of the transform is N, listed as ``(key, c)`` pairs, each
    atom's key in the table of mu * t(mu) and its mass relative to the
    first, once Q has been re-squared against the target.  Exactly, the
    peel leaves mu - Q * Q at 0, so a re-square that misses the target is
    a bug and raises :class:`InternalError`; then N * N = mu * t(mu).  For
    balls it checks |Q * Q - mu| <= delta atom by atom, delta_j the radius
    carried to atom j of mu, on the support of mu, and a miss is
    ``undetermined``.  As N * N = (Q * Q) * t(Q * Q), that bounds
    |N * N - mu * t(mu)| by (mu + delta) * t(mu + delta) - mu * t(mu)
    atom by atom, at most (2*e + e^2) * mu * t(mu) for e the largest
    delta_j / a_j, the witness's ``residual``; the printed masses add
    their rounding at the working precision.  A negative midpoint of N,
    its ball holding 0, leaves the transform ``undetermined``.
    """
    rho = target.radius
    ball = bool(rho)
    if ball and rho >= 1:
        peel = Peel(UNDETERMINED, note=(
            f"at relative error {float(rho):.3g} a mass may be 0"))
        yield lambda: peel
        yield peel
        return
    nums, keys = target.masses, target.keys
    k1, s = keys[0], target.surd
    value, rooted = Fraction, isqrt
    if target.mode == REAL:
        reals, bits = real_arithmetic(), config.precision_bits

        def value(n, q):  # as to_mpf rounds Fraction(n, q), with no gcd
            return reals.from_raw(reals.quotient_down(n, q, bits))
    surd = value  # of a mass of N, in Q(sqrt(s)) on radical positions
    if s:
        rooted = partial(_rooted, k1, s)
        surd = partial(_surd_value, s=s, bits=config.precision_bits)
    if ball:
        top, bottom = _spread(rho.numerator, rho.denominator)
        # over a denominator that makes the smallest radius about 2^32 units,
        # rounding each radius up to a whole unit adds at most 2^-32 of it
        shift = max(0, 32 + bottom.bit_length()
                    - (top * 2 * min(nums)).bit_length())
        nums = [n << shift for n in nums]
    n1 = nums[0]
    d = 2 * n1
    powers = Powers(d)
    # target atom j sits at K_j*K_1 with mass 2*N_j / D relative to a_1;
    # atom 0 is the square of the first root atom.  The keys ascend, so
    # they are a heap
    heap = [key * k1 for key in keys[1:]]
    index = dict(zip(heap, range(1, len(keys))))
    residual = dict(zip(heap, [(2 * n, 1) for n in nums[1:]]))
    # the root atom y with y*y1 at z squares to (z/K_1)^2; it overflows
    # beyond the top target atom K_top*K_1 when z^2 > K_top*K_1^3
    limit = keys[-1] * k1 ** 3
    root = [(k1, 1, 0, rooted(k1))]
    r1 = root[0][3]
    found, found_heap, final = None, [], []
    balls, maybe, radii = None, [], ()
    if ball:
        # the radius of each residual ball at the e of its midpoint: every
        # term goes to both at one e, so the two dicts share their keys,
        # which the midpoints put on the heap, and their exponents.  Then
        # the radius of each root atom, at the e of its mass, and N's radii
        radius = dict(zip(heap, [(-(-2 * n * top // bottom), 1)
                                 for n in nums[1:]]))
        spare, root_radius, radii = [], [0], [(0, 0)] * target.p
        balls = {}, spare, root_radius
        cap = _ROOT_CAP * target.p
    while heap:
        z = heappop(heap)
        n, e = residual.pop(z)
        r = radius.pop(z)[0] if ball else 0
        if not (n or r):
            continue
        j = index.get(z)
        if ball and j is not None:
            radii[j] = r, e
        # where Q could have an atom
        free = z * z <= limit and not z % k1
        if ball and -r <= n <= r:  # the ball holds 0
            if not free:
                continue
            if found is None and (j is None or n < 0):
                # the square-root peel and the signed one part here
                if signed:
                    yield lambda: next(_peel(target, config, False))()
                    found = _add_pairs({}, found_heap, root, 0, powers,
                                       balls)
                elif j is None or n + r == 0:
                    continue
            # a mass in [(n - r)/2, (n + r)/2], or in [0, (n + r)/2] for the
            # square root: carried as 0 +- hi, it leaves the midpoints alone
            n, r = 0, (n if found is None else abs(n)) + r
            maybe.append(j)
        elif found is None:
            if n < 0:
                # Q's first negative mass: mu has no square root, and N starts
                yield partial(_forced, target, j, len(root), z,
                              value(n * n1, powers[e + 1]),
                              value(r * n1, powers[e + 1]) if r else None)
                found = _add_pairs({}, found_heap, root, 0, powers, balls)
            elif j is None:
                raise InternalError("positive residual off the target's atoms")
        if found is not None:
            negative = _finalize(target, found, found_heap, z, final, powers,
                                 r1, balls, surd)
            if negative:
                yield Peel(IMPOSSIBLE, certificate=negative)
                return
        if not free:
            if found is None:
                # the square root overflows; Q >= 0 so far, so no atom of N
                # could refute and none is formed
                yield partial(_overflow, target, j)
            yield Peel(IMPOSSIBLE, certificate=_no_signed_square(
                target, len(root), z, j, z * z > limit))
            return
        if ball and found is not None and len(root) >= cap:
            yield Peel(UNDETERMINED, note=(
                f"the signed square root of mu reached {cap} atoms, "
                f"{_ROOT_CAP} per atom of mu, before mu - Q^2 vanished"))
            return
        # half the ball: n/2 +- r/2 over D^e when both ints are even, else
        # n*N_1 +- r*N_1 over D^(e + 1), which no factor of D divides; whole
        # factors of D that divide both ints are divided out
        if (n | r) & 1:
            n, e, r = n * n1, e + 1, r * n1
        else:
            n, r = n >> 1, r >> 1
            while e and not (n % d or r % d):
                n, e, r = n // d, e - 1, r // d
        key = z // k1
        if ball:
            # the radii of the new root atom's terms, whose midpoints are
            # added below
            a = abs(n)
            for (other, m, f, _), s in zip(root[1:], root_radius[1:]):
                _add(radius, spare, other * key,
                     2 * (a * s + (abs(m) + s) * r), e + f, powers)
            _add(radius, spare, key * key, (2 * a + r) * r, 2 * e, powers)
            root_radius.append(r)
        for other, m, f, _ in root[1:]:
            _add(residual, heap, other * key, -2 * n * m, e + f, powers)
        _add(residual, heap, key * key, -n * n, 2 * e, powers)
        root.append((key, n, e, rooted(key)))
        if found is not None:
            _add_pairs(found, found_heap, root, len(root) - 1, powers, balls)
    worst = _EXACT
    if ball:
        radii = tuple([(r, powers[e]) for r, e in radii])
        # the largest r / q over the mass 2*N_j / D of its atom, relative to
        # a_1
        worst, low = 0, 1
        for (r, q), n in zip(radii, nums):
            if r * n1 * low > worst * q * n:
                worst, low = r * n1, q * n
        worst = value(worst, low)
    if found is None:
        # a maybe atom, of midpoint 0, is left out
        yield lambda: Peel(WITNESS, root=tuple([
            (index.get(key * k1, 0), value(n, powers[e]))
            for key, n, e, _ in root if n]), residual=worst, radii=radii,
            maybe=tuple(maybe))
        found = _add_pairs({}, found_heap, root, 0, powers, balls)
    negative = _finalize(target, found, found_heap, None, final, powers, r1,
                         balls, surd)
    if negative:
        yield Peel(IMPOSSIBLE, certificate=negative)
        return
    if not _squares_back(root, keys, nums, powers, radii):
        if not ball:  # the peel left mu - Q * Q at 0
            raise InternalError("the signed root does not square back to mu")
        yield Peel(UNDETERMINED, note=UNVERIFIED)
        return
    witness = tuple([(w, surd(m, powers[f] * r1)) for w, m, f in final])
    if ball and any(m < 0 for _, m, _ in final):
        yield Peel(UNDETERMINED, note=(
            "an atom of N = Q*t(Q) has a negative midpoint and a mass bound "
            "that includes 0"))
    else:
        yield Peel(WITNESS, root=witness, residual=worst, maybe=tuple(maybe))


def _squares_back(root: list, keys: List[int], nums: List[int],
                  powers: Powers, radii: tuple) -> bool:
    """Whether the root atoms (key, n, e, R) of nonzero mass n / D^e square
    back to the target of int keys ``keys`` and numerators ``nums``, whose
    masses relative to a_1 are N_j / N_1: exactly for no ``radii``, or
    within r_j / q_j for (r_j, q_j) = radii[j].  The square is over
    D^(2*top)."""
    live = [(key, n, e) for key, n, e, _ in root if n]
    top = max([e for _, _, e in live])
    masses = [n * powers[top - e] for _, n, e in live]
    order, squares = _pair_products([key for key, _, _ in live], masses,
                                    masses)
    if order != [k * keys[0] for k in keys]:
        return False
    return _matches(squares, powers[2 * top], nums, nums[0], radii, 0)


def _matches(square: List[int], sden: int, target: List[int], tden: int,
             radii: Sequence[Tuple[int, int]], rho: Fraction) -> bool:
    """Whether the masses S_j = square[j] / sden of a re-squared root match
    the target masses T_j = target[j] / tden on the same keys.  Exact
    masses must be equal; otherwise |S_j - T_j| <= r / q * T_1 + rho * S_j,
    as a re-squared mass S_j lies within the square's radius rho of the
    square of the peel's root, and that within r / q * T_1 of the target
    mass T_j, (r, q) = radii[j] (0 for a rational target)."""
    if not rho and not radii:
        return all(s * tden == t * sden for s, t in zip(square, target))
    top, bottom, t1 = rho.numerator, rho.denominator, target[0]
    for s, t, (r, q) in zip(square, target, radii or [(0, 1)] * len(target)):
        # the inequality above times sden * tden * q * bottom
        if (abs(s * tden - t * sden) * q * bottom
                > r * t1 * sden * bottom + top * s * tden * q):
            return False
    return True


def _add_pairs(found: dict, heap: list, root: list, start: int,
               powers: Powers, balls: Optional[tuple] = None) -> dict:
    """Add the pairs a <= b of root atoms with b >= start to N, ``found``;
    for balls, ``balls`` holds N's radii, a spare heap and the radii of
    the root atoms, and the radii of the terms go to N's."""
    for i in range(start, len(root)):
        key, n, e, r = root[i]
        for other, m, f, s in root[:i]:
            _add(found, heap, other * key, n * m * (s + r), e + f, powers)
        _add(found, heap, key * key, n * n * r, 2 * e, powers)
        if balls:
            radius, spare, radii = balls
            a, b = abs(n), radii[i]
            for (other, m, f, s), c in zip(root[:i], radii):
                _add(radius, spare, other * key,
                     (a * c + (abs(m) + c) * b) * (s + r), e + f, powers)
            _add(radius, spare, key * key, (2 * a + b) * b * r, 2 * e, powers)
    return found


def _finalize(target: Table, found: dict, heap: list, bound: Optional[int],
              final: list, powers: Powers, r1: int,
              balls: Optional[tuple] = None,
              value: Callable = Fraction) -> Optional[Violation]:
    """Move the atoms of N below ``bound`` (all for None) to ``final`` as
    (key, n, e), dropping 0s, and refute at the first negative one (for
    balls, at the first wholly below 0), of mass n / (D^e * r1)."""
    while heap and (bound is None or heap[0] < bound):
        w = heappop(heap)
        m, f = found.pop(w)
        r = balls[0].pop(w)[0] if balls else 0
        if m + r < 0:
            q = powers[f] * r1
            return _negative(target, len(final), w, value(m, q),
                             value(r, q) if r else None, value)
        if m:
            final.append((w, m, f))
    return None


def _negative(target: Table, count: int, w: int, mass: Scalar,
              bound: Optional[Scalar] = None,
              value: Callable = Fraction) -> Violation:
    """The certificate of the peel of the table of mu * t(mu) at the first
    negative atom of N, its key w in that table, after ``count`` positive
    atoms of N; ``mass`` (+- ``bound`` for a ball) is its mass relative to
    the first root mass, and a real a_1 is printed as ``value(n, q)``
    rounds n / q.  The table's masses are positive, so it has an atom at
    each product K_a*K_b of two keys of mu and nowhere else: the atom at w,
    if any, has as many atoms below it as there are distinct such products
    below w."""
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
    a1 = _first_product_mass(target)
    return _nonpositive(
        len(below) if at else None, count, _at(w, scale * scale, base, at),
        _ratio_text(keys[0], scale),  # x_1^2, the first atom of mu * t(mu)
        _ratio_text(*a1) if value is Fraction else scalar_str(value(*a1)),
        mass, bound)


def _first_product_mass(target: Table) -> tuple:
    """a_1^2 x_1, the first mass of mu * t(mu) for mu tabled in ``target``,
    as n / q, not in lowest terms, from x_1 = s*sqrt(K_1 * scale) /
    (s * scale) (:func:`_rooted`): n is a :class:`Surd` for a radical x_1."""
    s, scale = target.surd or 1, target.scale
    m, d = target.masses[0], target.den
    return m * m * _rooted(target.keys[0], s, scale), d * d * s * scale


def _no_signed_square(target: Table, count: int, z: int, j: Optional[int],
                      beyond: bool) -> Violation:
    """``peel-overflow`` of the signed peel: a nonzero residual atom at z,
    where the atom y of Q has a rational (y*y1)^2, beyond the top or off
    the multiples of 1/scale (y*y1 off those of 1/L, L^2 = scale, on
    rational positions).  mu is then no signed square, for the atoms y, y'
    of a signed root have (y*y')^2 on them: for each prime, the lowest
    power of it in the rational y^4 over Q * Q is twice that over Q."""
    keys, scale, base = target.keys, target.scale, target.base
    k1 = keys[0]
    if beyond:
        why = (f"would square to {_over_first(target, z, k1 * scale)}, "
               f"beyond the top atom {_key_text(keys[-1], scale, base)}")
    else:
        what, unit, squares = (("(y*y1)^2", scale, "the squares of ")
                               if target.surd else ("y*y1", isqrt(scale), ""))
        why = (f"makes {what} no multiple of 1/{unit}, the reciprocal of the "
               f"lcm of the denominators of {squares}mu's positions, as "
               "every product of two atoms of a signed root of mu is"
               + (", squared" if squares else ""))
    return Violation(
        "peel-overflow", (j + 1,) if j is not None else (),
        f"mu is no signed square: after {count} atoms of its signed root Q "
        f"the smallest atom of mu - Q^2 sits at "
        f"{_key_text(z, k1 * scale, base)}; the atom y of Q with y*y1 there "
        f"(y1^2 = {_key_text(k1, scale, base)}) {why}")


def _at(key: int, scale: int, base: Fraction, atom: bool) -> str:
    """The position whose square is key / scale: printed when the target
    has an atom there, else named by its square."""
    if atom:
        return _key_text(key, scale, base)
    return f"the position with square {_ratio_text(key, scale)}"


def _rooted(k1: int, s: int, key: int):
    """s*sqrt(key * K_1): an int, or a :class:`Surd` int*sqrt(s) when the
    key at scale^2 is that of c*sqrt(u/v), c rational and u/v the base."""
    t = key * k1
    r = isqrt(t)
    return s * r if r * r == t else Surd(0, isqrt(t * s), s)


def _surd_value(n, q: int, s: int, bits: int):
    """n / q for an int or nonzero :class:`Surd` n and an int q > 0,
    rounded once to nearest at ``bits`` (``round_root``), as an mpf."""
    n = n if type(n) is Surd else Surd(n, 0, s)
    sign = n.sign()
    _, man, exp, bc = round_root((sign * n.a, sign * n.b), (q, 0), 1, bits, s)
    return real_arithmetic().from_raw((int(sign < 0), man, exp, bc))


def _over_first(target: Table, num: int, den: int) -> str:
    """The text of (num / den) / x_1, x_1 the first position of
    ``target``: one int pair for a rational x_1."""
    root = _key_root(target.keys[0], target.scale)
    if root is None:  # a radical x_1
        return scalar_str(_position(Fraction(num, den), 0, target.base)
                          / target.position(0))
    return _ratio_text(num * root[1], den * root[0])


def _overflow(target: Table, j: int) -> Peel:
    keys, scale, base = target.keys, target.scale, target.base
    return Peel(IMPOSSIBLE, certificate=Violation(
        "peel-overflow", (j + 1,),
        f"the root atom y with y*y1 = {_key_text(keys[j], scale, base)} "
        f"(y1^2 = {_key_text(keys[0], scale, base)}) would square to "
        f"{_over_first(target, keys[j], scale)}, beyond the top atom "
        f"{_key_text(keys[-1], scale, base)}"))


def _forced(target: Table, j: Optional[int], count: int, z: int, c: Scalar,
            bound: Optional[Scalar] = None) -> Peel:
    """``peel-nonpositive-mass`` of a peel of the table of mu, at z."""
    keys, scale, base = target.keys, target.scale, target.base
    a1 = (scalar_str(target.weight(0)) if target.mode == REAL
          else _ratio_text(target.masses[0], target.den))
    return Peel(IMPOSSIBLE, certificate=_nonpositive(
        j, count, _at(z, keys[0] * scale, base, j is not None),
        _key_text(keys[0], scale, base), a1, c, bound))


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
        if root is not None:  # each mass one Fraction of ints
            rn, rd = root.as_integer_ratio()
            return RATIONAL, [Fraction(n * rn, d * rd) for n, d in
                              map(Fraction.as_integer_ratio, cs)], []
    bits = config.precision_bits
    reals = real_arithmetic()
    from_raw, product, to_raw = reals.from_raw, reals.product, reals.to_raw
    # rounded to nearest at bits, as mpmath.sqrt and the mpf product at that
    # working precision round them
    scale = reals.sqrt_raw(to_raw(a1, bits), bits)
    weights = [from_raw(product(to_raw(c, bits), scale, bits)) for c in cs]
    notes = []
    if mode == RATIONAL:
        notes.append(f"witness masses lie in Q(sqrt({scalar_str(a1)})); "
                     "emitted as reals")
    return REAL, weights, notes


def _decide(peel: Peel, a1: Scalar, mode: str,
            place: Callable[[list, str], AtomicMeasure],
            check: Optional[Table], config: SolverConfig) -> Verdict:
    """Turn a peel into a verdict: the root's masses are its c times
    sqrt(a1), and ``place(weights, mode)`` puts them on its support.  A
    witness is re-checked by convolving it with itself and comparing with
    the table ``check``, unless that is None because the peel re-squared
    its root itself."""
    bits = config.precision_bits
    if peel.outcome != WITNESS:
        return Verdict(peel.outcome, certificate=peel.certificate,
                       precision_bits=bits,
                       notes=(peel.note,) if peel.note else ())
    mode, weights, extra = _root_masses([c for _, c in peel.root], a1, mode,
                                        config)
    witness = place(weights, mode)
    if check is not None and not _verify(witness, check, peel.radii, config):
        return Verdict(UNDETERMINED, precision_bits=bits, notes=(UNVERIFIED,))
    if peel.maybe:
        extra.append(f"{len(peel.maybe)} root atoms whose mass bound "
                     "includes 0 were left out")
    # an exact 0 as decimal_str prints a zero mpf
    residual = (real_arithmetic().decimal_str(peel.residual)
                if peel.residual else "0.0")
    return Verdict(WITNESS, witness=witness, residual=residual,
                   precision_bits=bits, notes=tuple(extra))


def _placed(positions: list, weights: list, mode: str,
            base: Fraction, config: SolverConfig) -> AtomicMeasure:
    """The witness of ``weights`` at ``positions``, built without the check
    of each atom in ``make_measure``: the positions ascend and the masses
    are positive by construction.  Its keys come from its own positions
    (``measures._keyed_measure``), so the re-square of :func:`_verify`
    does not read the peel's."""
    zero = (_EXACT if mode == RATIONAL
            else real_arithmetic().to_mpf(_EXACT, config.precision_bits))
    return measures._keyed_measure(base, mode, list(zip(positions, weights)),
                                   list(map(_square, positions)), zero)


def verify_witness(
    witness: AtomicMeasure,
    target: AtomicMeasure,
    config: SolverConfig = DEFAULT_CONFIG,
) -> bool:
    """Independent check: convolve the witness with itself and compare, in
    real mode within the error that the peel of ``target`` carries to each
    of its atoms."""
    tabled = table(target, config.precision_bits, config.radius)
    peel = (next(_peel(tabled, config, False))() if tabled.radius
            else Peel(WITNESS))
    return (peel.outcome == WITNESS
            and _verify(witness, tabled, peel.radii, config))


def _verify(witness: AtomicMeasure, target: Table,
            radii: Sequence[Tuple[int, int]], config: SolverConfig) -> bool:
    """Compare the table of the witness's square
    (:func:`alsq.measures.square_products`, p(p + 1) / 2 pairs for p root
    atoms) with ``target``: equal int keys at an equal scale give equal
    positions, and the masses must match (:func:`_matches`, within the
    square's radius)."""
    square = square_products(witness, config.precision_bits)
    return (square.keys == target.keys and square.scale == target.scale
            and _matches(square.masses, square.den, target.masses,
                         target.den, radii, square.radius))


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

    The second verdict of :func:`_peel` on mu decides it, for rational
    and real masses and on rational and radical positions alike:
    N = Q * t(Q) when mu = Q * Q, Q signed, and no N exists when mu is no
    signed square.  No product table of mu * t(mu) is formed, and a
    witness pairs the atoms of Q.
    """
    mu.require_no_zero_atom("aluthge_subnormal")
    target = table(mu, config.precision_bits, config.radius)
    peels = _peel(target, config)
    next(peels)
    return _transform(mu, target, next(peels), config)


def _transform(mu: AtomicMeasure, target: Table, peel: Peel,
               config: SolverConfig) -> Verdict:
    """The transform verdict of the peel of mu, which re-squared its root
    itself.  On radical positions the masses of N relative to the first
    and a_1^2 x_1 come rounded once at the working precision
    (:func:`_surd_value`), and the witness is real."""
    keys, scale = support_keys(mu)
    at = [w for w, _ in peel.root]
    s, (n, q) = target.surd, _first_product_mass(target)
    a1, mode = ((_surd_value(n, q, s, config.precision_bits), REAL) if s
                else (Fraction(n, q), mu.mode))

    def place(weights, mode):
        # N's atom n sits at key at[i] = key of n*x_1 in the table of
        # mu * t(mu); a root on supp(mu), atom m at K_0*K_m, keeps the keys
        # of mu
        k0 = keys[0]
        if len(at) == mu.p and all(
                w == k0 * key for w, key in zip(at, keys)):
            return with_weights(mu, weights, mode)
        if s:
            x1 = mu.atoms[0][0]
            positions = [_key_position(w, scale * scale, mu.base) / x1
                         for w in at]
        else:
            # a rational x has the key (x*L)^2 at scale L^2, so n*x_1 is
            # sqrt(w) / L^2 and x_1 is sqrt(K_0) / L
            den = isqrt(scale) * isqrt(k0)
            positions = [_position(Fraction(isqrt(w), den), 0, mu.base)
                         for w in at]
        return _placed(positions, weights, mode, mu.base, config)
    return _decide(peel, a1, mode, place, None, config)


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
    asked for, both from one peel of mu."""
    mu.require_no_zero_atom("sqrt_of")
    target = table(mu, config.precision_bits, config.radius)
    if target.surd:
        raise MeasureError(
            "square-root search requires rational atom positions; apply "
            "power_positions(mu, 2) first")
    peels = _peel(target, config)
    peel = next(peels)()

    def place(weights, mode):
        # x_j = R_j / L for R_j = sqrt(K_j) and L^2 the scale, so the root
        # atom x_j / sqrt(x_1) is R_j / R_1 times sqrt(x_1), over the
        # radical base x_1
        keys, base = target.keys, mu.atoms[0][0].q
        root = sqrt_fraction(base)  # checked once, as Position checks it
        k, num, den = 1, 1, isqrt(keys[0])
        if root is not None:
            k, num, den = 0, root.numerator, den * root.denominator
        positions = [_position(Fraction(isqrt(keys[j]) * num, den), k, base)
                     for j, _ in peel.root]
        return _placed(positions, weights, mode, base, config)
    yield _decide(peel, target.weight(0), target.mode, place, target, config)
    yield _transform(mu, target, next(peels), config)
