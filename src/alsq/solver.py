"""Decision procedures for square roots under multiplicative convolution.

Two questions are answered for a finitely atomic measure mu on (0, inf):

* ``sqrt_of``: does some nonnegative measure nu satisfy nu * nu = mu?
* ``aluthge_subnormal``: does the reweighted self-convolution mu * t(mu)
  admit a root with the same support as mu?  (Equivalently, the Aluthge
  transform of the weighted shift attached to mu is subnormal.)

Both are decided by the peel of :func:`peel_root` for every atom count;
the four-atom family that :mod:`alsq.closed_forms` states is not assumed
here.  Measures on (0, inf) multiply like elements of the group ring of a
torsion-free ordered group, which is an integral domain, so a root is
unique when it exists.  Because the order is compatible with
multiplication, the root can be peeled off smallest atom first: the
smallest atom z of the residual target - root^2 can only come from the
next root atom y times the first root atom y1, so y*y1 = z and the mass of
y is half the residual mass at z (relative to the mass of y1).  The peel
costs O(p^2) and ends with a witness, or with one of three certificates
that re-running the peel re-checks:

* ``peel-nonpositive-mass``: the forced mass of the next root atom is <= 0;
* ``peel-overflow``: the next root atom would square beyond the top atom;
* ``peel-support-mismatch``: the root's support differs from supp(mu) (the
  transform question only).

Relative to the first root atom every forced mass is rational for rational
input, and the root masses are those values times sqrt(a_1); so rational
input is always decided exactly.  A real mass is a dyadic rational standing
for every value within relative eps = max(tolerance, 2^(1 - precision_bits))
of it (``SolverConfig.radius``).  The peel carries an exact error radius
beside each mass, so ``impossible`` holds for every measure in that box and
a witness squares back within the error carried to each atom.
``undetermined`` arises only in real mode: a root atom of supp(mu) may have
mass 0, or a witness fails its independent re-check by convolution.

The peel and the witness check read tables (:class:`alsq.measures.Table`):
``aluthge_subnormal`` peels the product table of mu * t(mu) that
:func:`alsq.measures.products` returns and never materializes that measure,
``sqrt_of`` peels the table of mu, and the witness check compares the table
of the witness's square with the target's.  A position or a Fraction is
built only for what a verdict prints: the root's atoms, a certificate's
atoms and a_1 in a message.

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
from functools import lru_cache
from heapq import heappop, heappush
from typing import List, Optional, Sequence, Tuple

from .diagram import Violation
from .measures import (
    RATIONAL,
    REAL,
    AtomicMeasure,
    MeasureError,
    Position,
    Table,
    make_measure,
    measure_to_json_dict,
    products,
    t_weight,
    table,
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
    """Result of :func:`peel_root`.

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
    working precision in real mode.
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
    """Peel the unique root of ``target`` off its smallest atoms: the peel
    of its :func:`table`."""
    return _peel(table(target, config.precision_bits, config.radius), config)


def _peel(target: Table, config: SolverConfig) -> Peel:
    """Peel the unique root of the measure tabled in ``target``.

    Works on the int keys K_j of the target's support and on masses
    divided by the first mass, starting from the root atom y1 with key K_1
    and mass 1.  The root atom y with y*y1 = (target atom j) has key K_j:
    the target atom sits at K_j*K_1 and the root atoms a, b meet at
    K_a*K_b.

    No scalar object is built in the loop, and a position only for a
    certificate or a note.  A mass is an int triple (n, e, r) standing for
    the ball of midpoint n / D^e and radius r / D^e: with N_j the int
    numerators of the target masses and D = 2*N_1, the masses relative to
    a_1 are 2*N_j / D and halving multiplies by N_1 / D, so every midpoint
    lies in Z[1/D]; whole factors of D are divided out of a ball when they
    divide both its ints, and one scalar is built per root atom.  The
    result does not depend on the denominator the numerators are over.

    The radius is 0 in rational mode.  A real target mass of relative
    radius rho has 2*rho / (1 - rho) relative to a_1, rounded up once to a
    whole r; after that radii are exact: |a|*s + |b|*r + r*s for a product,
    r + s for a difference.  A residual ball wholly below 0 refutes, and so
    does one wholly above 0 where the root atom would overflow.  A ball
    holding 0 where a root atom could sit gives a maybe atom of mass in
    [0, hi], carried as 0 +- hi: it stays in the cross terms, so a later
    refutation holds for every mass in the box, and it moves no midpoint,
    so the witness leaves it out.
    """
    rho = target.radius
    if rho >= 1:
        return Peel(UNDETERMINED, note=(
            f"at relative error {float(rho):.3g} a mass may be 0"))
    nums = target.masses
    if rho:
        top, bottom = _spread(rho.numerator, rho.denominator)
        # over a denominator that makes the smallest radius about 2^32 units,
        # rounding each radius up to a whole unit adds at most 2^-32 of it
        shift = max(0, 32 + bottom.bit_length()
                    - (top * 2 * min(nums)).bit_length())
        nums = [n << shift for n in nums]
    n1 = nums[0]
    d = 2 * n1
    powers = _Powers(d)
    masses = [(1, 0, 0)] + [(2 * n, 1, 0) for n in nums[1:]]
    if rho:
        masses = [(n, e, -(-n * top // bottom)) for n, e, _ in masses]

    def half(x):
        n, e, r = x[0] * n1, x[1] + 1, x[2] * n1
        while e and n % d == 0 and r % d == 0:
            n, e, r = n // d, e - 1, r // d
        return n, e, r

    def twice(x):
        return 2 * x[0], x[1], 2 * x[2]

    def mul(x, y):
        (a, ea, r), (b, eb, s) = x, y
        if r or s:
            r = abs(a) * s + (abs(b) + s) * r
        return a * b, ea + eb, r

    def sub(x, y):
        (a, ea, r), (b, eb, s) = x, y
        if ea == eb:
            return a - b, ea, r + s
        if ea > eb:
            scale = powers[ea - eb]
            return a - b * scale, ea, r + s * scale
        scale = powers[eb - ea]
        return a * scale - b, eb, r * scale + s

    def neg(x):
        return -x[0], x[1], x[2]

    value = Fraction
    if target.mode == REAL:
        reals, bits = real_arithmetic(), config.precision_bits

        def value(n, q):  # as to_mpf rounds Fraction(n, q), with no gcd
            return reals.from_raw(reals.from_rational(n, q, bits,
                                                      reals.round_down))

    keys = target.keys
    k1 = keys[0]
    at = [key * k1 for key in keys]
    index = {z: j for j, z in enumerate(at)}
    residual = dict(zip(at[1:], masses[1:]))
    heap = at[1:]  # ascending, hence already a heap
    # the root atom y with y*y1 at z squares to (z/K_1)^2; it overflows
    # beyond the top target atom K_p*K_1 when z^2 > K_p*K_1^3
    limit = keys[-1] * k1 ** 3
    root = [(k1, masses[0], 0)]
    maybe = []
    radii = [(0, 0)] * target.p if rho else None
    while heap:
        z = heappop(heap)
        ball = residual.pop(z)
        n, e, r = ball
        j = index.get(z)
        if radii and j is not None:
            radii[j] = r, e
        if n + r < 0:
            c, e, r = half(ball)
            return Peel(IMPOSSIBLE, certificate=_nonpositive(
                target, len(root), z, j, k1, value(c, powers[e]),
                value(r, powers[e]) if r else None))
        if n <= r:  # the ball holds 0; off the target's atoms it always does,
            # the residual there being minus products of positive midpoints
            if j is None or n + r == 0 or z * z > limit:
                continue
            # its mass lies in [0, hi]: carried as 0 +- hi, it leaves the
            # midpoints alone, so the witness can leave it out
            hi, e, _ = half((n + r, e, 0))
            c = (0, e, hi)
            maybe.append(j)
        elif z * z > limit:
            y, first = target.position(j), target.position(0)
            return Peel(IMPOSSIBLE, certificate=Violation(
                "peel-overflow", (j + 1,),
                f"the root atom y with y*y1 = {scalar_str(y)} (y1^2 = "
                f"{scalar_str(first)}) would square to "
                f"{scalar_str(y * y / first)}, beyond the top atom "
                f"{scalar_str(target.position(target.p - 1))}"))
        else:
            c = half(ball)
        key = keys[j]
        double = twice(c)
        for other, mass, _ in root[1:]:
            _subtract(residual, heap, other * key, mul(double, mass), sub, neg)
        _subtract(residual, heap, key * key, mul(c, c), sub, neg)
        root.append((key, c, j))
    dropped = set(maybe)
    root = tuple([(j, value(c[0], powers[c[1]])) for _, c, j in root
                  if j not in dropped])
    if not rho:
        return Peel(WITNESS, root=root)
    radii = tuple([(r, powers[e]) for r, e in radii])
    # the largest r / q over the mass 2*N_j / D of its atom, relative to a_1
    top, low = 0, 1
    for (r, q), n in zip(radii, nums):
        if r * n1 * low > top * q * n:
            top, low = r * n1, q * n
    return Peel(WITNESS, root=root, residual=value(top, low), radii=radii,
                maybe=tuple(maybe))


@lru_cache(maxsize=64)
def _spread(top: int, bottom: int) -> Tuple[int, int]:
    """2*rho / (1 - rho) for rho = top / bottom (ints hash faster)."""
    spread = Fraction(2 * top, bottom - top)
    return spread.numerator, spread.denominator


def _subtract(residual: dict, heap: list, key: int, value, sub, neg) -> None:
    if key in residual:
        residual[key] = sub(residual[key], value)
    else:
        residual[key] = neg(value)
        heappush(heap, key)


def _at(target: Table, z: int, j: Optional[int], k1: int) -> str:
    """The position y*y1 at key z: a target atom, or else named by its
    square (z / K_1^2) * x_1^2."""
    if j is not None:
        return scalar_str(target.position(j))
    square = Fraction(z, k1 * k1) * target.square(0)
    return f"the position with square {scalar_str(square)}"


def _nonpositive(target: Table, count: int, z: int, j: Optional[int],
                 k1: int, c: Scalar, bound: Optional[Scalar]) -> Violation:
    a1 = scalar_str(target.weight(0))
    mass = f"{scalar_str(c)}*sqrt({a1})"
    if bound is not None:
        mass += f" +- {scalar_str(bound)}*sqrt({a1})"
    return Violation(
        "peel-nonpositive-mass", (j + 1,) if j is not None else (),
        f"after {count} root atoms the smallest atom of target - root^2 "
        f"sits at {_at(target, z, j, k1)}; the root atom y with y*y1 there "
        f"(y1^2 = {scalar_str(target.position(0))}) is forced to carry mass "
        f"{mass}, which is not positive")


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


def _decide(target: Table, peel: Peel, positions: Sequence[Position],
            base: Fraction, config: SolverConfig, notes: List[str]) -> Verdict:
    """Turn a peel into a verdict; every witness is re-checked by
    convolving it with itself."""
    bits = config.precision_bits
    if peel.outcome != WITNESS:
        extra = [peel.note] if peel.note else []
        return Verdict(peel.outcome, certificate=peel.certificate,
                       precision_bits=bits, notes=tuple(notes + extra))
    mode, weights, extra = _root_masses([c for _, c in peel.root],
                                        target.weight(0), target.mode, config)
    witness = make_measure(list(zip(positions, weights)), mode=mode,
                           base=base, bits=bits)
    if not _verify(witness, target, peel.radii, config):
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
    peel = _peel(tabled, config) if tabled.radius else Peel(WITNESS)
    return (peel.outcome == WITNESS
            and _verify(witness, tabled, peel.radii, config))


def _verify(witness: AtomicMeasure, target: Table,
            radii: Sequence[Tuple[int, int]], config: SolverConfig) -> bool:
    """Compare the table of the witness's square with ``target``.  Equal
    int keys and equal first squares give equal positions.  Exact masses
    must be equal; otherwise |S_j - T_j| <= r / q * a_1 + rho * S_j, as a
    re-squared mass S_j lies within the square's radius rho of the square
    of the peel's root, and that within r / q * a_1 of the target mass T_j,
    (r, q) = radii[j] (0 for a rational target)."""
    square = products(witness, witness, config.precision_bits)
    if square.keys != target.keys or square.square(0) != target.square(0):
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
    """Decide whether nu * nu = (mu reweighted by t and convolved with mu)
    is solvable with supp(nu) = supp(mu), by peeling the unique root of the
    reweighted square and comparing its support with supp(mu)."""
    mu.require_no_zero_atom("aluthge_subnormal")
    bits = config.precision_bits
    work = mu
    notes: List[str] = []
    if work.mode == RATIONAL and any(pos.k == 1 for pos in work.support):
        work = work.to_real(bits)
        notes.append("irrational positions: masses analysed numerically")
    target = products(work, t_weight(work, bits), bits, config.radius)
    peel = _peel(target, config)
    if peel.outcome == WITNESS:
        peel = _support_check(target, peel)
    # a witness that passed the support check sits on supp(mu)
    return _decide(target, peel, work.support, work.base, config, notes)


def _support_check(target: Table, peel: Peel) -> Peel:
    """Compare the root's support with supp(mu): a root atom y with
    y*x_1 = (target atom j) lies in supp(mu) iff that atom is x_1*x_m.

    The table of mu * t(mu) records the first pair per product with the
    left factor outermost, so that atom is x_1*x_m exactly when its first
    pair starts at x_1, the left factor of atom 0.  A root atom whose mass
    bound includes 0 may or may not be there."""
    x1 = target.factors[0][0]
    expected = {j for j, pair in enumerate(target.factors) if pair[0] is x1}
    got, maybe = {j for j, _ in peel.root}, set(peel.maybe)
    wrong = (got - expected) | (expected - got - maybe)
    if not wrong and not expected & maybe:
        return peel
    j = min(wrong or expected & maybe)
    where = scalar_str(target.position(j) / x1)
    if not wrong:
        return Peel(UNDETERMINED, note=(
            f"the mass bound of the root atom at {where}, an atom of mu, "
            "includes 0"))
    message = (f"the root has an atom at {where}, outside supp(mu)" if j in got
               else f"the root has no atom at {where}, an atom of mu")
    return Peel(IMPOSSIBLE, certificate=Violation("peel-support-mismatch",
                                                  (j + 1,), message))


def sqrt_of(
    mu: AtomicMeasure,
    config: SolverConfig = DEFAULT_CONFIG,
) -> Verdict:
    """Decide the square root problem nu * nu = mu by peeling its unique
    root; a witness sits at sqrt(x_1) * (x_j / x_1) over the radical base
    x_1.  Positions must be rational."""
    mu.require_no_zero_atom("sqrt_of")
    if any(pos.k == 1 for pos in mu.support):
        raise MeasureError(
            "square-root search requires rational atom positions; apply "
            "power_positions(mu, 2) first")
    target = table(mu, config.precision_bits, config.radius)
    peel = _peel(target, config)
    base = mu.support[0].q
    positions = [Position(mu.support[j].q / base, 1, base) for j, _ in peel.root]
    return _decide(target, peel, positions, base, config, [])
