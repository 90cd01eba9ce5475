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
input is always decided exactly, and ``undetermined`` only arises in real
mode (a forced mass within tolerance of zero, or a refutation reached after
a residual within tolerance of zero was taken as cancelled) or when a witness
fails its independent re-check by convolution.

The peel and the witness check read tables (:class:`alsq.measures.Table`):
``aluthge_subnormal`` peels the product table of mu * t(mu) that
:func:`alsq.measures.products` returns and never materializes that measure,
``sqrt_of`` peels the table of mu, and the witness check compares the table
of the witness's square with the target's.  A position or a Fraction is
built only for what a verdict prints: the root's atoms, a certificate's
atoms and a_1 in a message.

The decision path takes its precision explicitly from ``SolverConfig``:
``convolve``, ``t_weight``, the peel, the witness masses and the witness
check compute exactly or on raw libmp values rounded at ``precision_bits``,
and none of them enters mpmath's global context, so threads may call
``sqrt_of`` and ``aluthge_subnormal`` at different precisions at once.  The
same holds for the closed forms, the loader, ``analyze`` and
``shifts.hankel_psd``, which is exact; only the acceptance suite in
``selftest`` still switches that context.

mpmath belongs to :mod:`alsq.reals`.  The real-mode branches here get that
module from ``scalars.real_arithmetic`` once per call (the peel, the root
masses, the witness check), and a rational decision never loads mpmath: its
peel is on ints, and its ``residual`` is an exact 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    Scalar,
    real_arithmetic,
    scalar_str,
    sqrt_fraction,
)

WITNESS = "witness"
IMPOSSIBLE = "impossible"
UNDETERMINED = "undetermined"

# the note of an ``undetermined`` verdict whose rounded witness does not
# square back to the target within tolerance
UNVERIFIED = "witness failed independent re-verification"


class InternalError(RuntimeError):
    """A result contradicts the mathematics the code implements: a bug, not
    bad input."""


@dataclass(frozen=True)
class SolverConfig:
    precision_bits: int = DEFAULT_PRECISION_BITS
    tolerance: Fraction = DEFAULT_TOLERANCE


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class Verdict:
    outcome: str
    witness: Optional[AtomicMeasure] = None
    certificate: Optional[Violation] = None
    residual: Optional[str] = None
    precision_bits: int = DEFAULT_PRECISION_BITS
    notes: Tuple[str, ...] = ()

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

@dataclass(frozen=True)
class Peel:
    """Result of :func:`peel_root`.

    When ``outcome`` is a witness, ``root`` lists one ``(j, c)`` per root
    atom, smallest first: the atom y satisfies y * y1 = (target atom j) and
    carries mass c * sqrt(a_1), where y1 is the first root atom
    (y1^2 = target atom 0) and a_1 the first target mass.  ``residual`` is
    the worst relative residual accepted as cancelled, an exact 0 in
    rational mode.  ``doubt`` is set in real mode when a residual that could
    have been a root atom was taken as cancelled: a refutation after it is
    not certain.
    """

    outcome: str
    root: Tuple[Tuple[int, Scalar], ...] = ()
    certificate: Optional[Violation] = None
    residual: Scalar = Fraction(0)
    note: Optional[str] = None
    doubt: Optional[str] = None


# a real-mode residual within 2^(_ROUNDING_BITS - precision_bits) of its
# scale is rounding error, not a candidate root atom: each residual is a sum
# of at most p positive terms, each rounded a few times
_ROUNDING_BITS = 16


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
    return _peel(table(target, config.precision_bits), config)


def _peel(target: Table, config: SolverConfig) -> Peel:
    """Peel the unique root of the measure tabled in ``target``.

    Works on the int keys K_j of the target's support and on masses
    divided by the first mass, starting from the root atom y1 with key K_1
    and mass 1.  The root atom y with y*y1 = (target atom j) has key K_j:
    the target atom sits at K_j*K_1 and the root atoms a, b meet at
    K_a*K_b.  In real mode a residual within tolerance of zero counts as
    cancelled; one above rounding level at a key whose root atom would not
    overflow may hide a tiny root atom, so a later refutation is reported
    as ``undetermined``.

    No scalar object is built in the loop, and a position only for a
    certificate or a note.  Rational masses are int pairs (n, e) standing
    for n / D^e: with N_j the int numerators of the target masses over
    their common denominator and D = 2*N_1, the masses relative to a_1 are
    2*N_j / D and halving multiplies by N_1 / D, so every forced mass lies
    in Z[1/D]; whole factors of D are divided out of each forced mass, and
    one Fraction is built per root atom.  The result does not depend on the
    denominator the numerators are over.  Real masses are raw libmp
    values, each operation rounded to nearest at ``bits``, as mpf operators
    at that working precision round them and in the same order, without
    entering mpmath's global context.
    """
    exact = target.mode == RATIONAL
    bits = config.precision_bits
    if exact:
        nums = target.masses
        n1 = nums[0]
        d = 2 * n1
        powers = _Powers(d)
        masses = [(1, 0)] + [(2 * n, 1) for n in nums[1:]]

        def half(r):
            n, e = r[0] * n1, r[1] + 1
            while e and n % d == 0:
                n //= d
                e -= 1
            return n, e

        def twice(x):
            return 2 * x[0], x[1]

        def mul(x, y):
            return x[0] * y[0], x[1] + y[1]

        def sub(x, y):
            (a, ea), (b, eb) = x, y
            if ea == eb:
                return a - b, ea
            if ea > eb:
                return a - b * powers[ea - eb], ea
            return a * powers[eb - ea] - b, eb

        def neg(x):
            return -x[0], x[1]

        def value(x):
            return Fraction(x[0], powers[x[1]])
    else:
        reals = real_arithmetic()
        mpf_abs, mpf_div, mpf_gt = reals.mpf_abs, reals.mpf_div, reals.mpf_gt
        mpf_le, mpf_lt, mpf_mul = reals.mpf_le, reals.mpf_lt, reals.mpf_mul
        mpf_neg, mpf_sub = reals.mpf_neg, reals.mpf_sub
        round_nearest, two, fzero = reals.round_nearest, reals.TWO, reals.fzero

        raw = [reals.mpf_pos(w, bits, round_nearest) for w in target.masses]
        a1 = raw[0]
        masses = [mpf_div(w, a1, bits, round_nearest) for w in raw]
        tol = reals.to_raw(config.tolerance, bits)
        neg_tol = mpf_neg(tol, bits, round_nearest)
        rounding = reals.mpf_pow_int(two, _ROUNDING_BITS - bits, bits,
                                     round_nearest)

        def half(r):
            return mpf_div(r, two, bits, round_nearest)

        def twice(x):
            return reals.mpf_mul_int(x, 2, bits, round_nearest)

        def mul(x, y):
            return mpf_mul(x, y, bits, round_nearest)

        def sub(x, y):
            return mpf_sub(x, y, bits, round_nearest)

        def neg(x):
            return mpf_neg(x, bits, round_nearest)

        value = reals.from_raw
        worst = fzero
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
    doubt: Optional[str] = None
    while heap:
        z = heappop(heap)
        r = residual.pop(z)
        j = index.get(z)
        if exact:
            if not r[0]:
                continue
        else:
            wanted = masses[j] if j is not None else fzero
            size = mpf_abs(r, bits, round_nearest)
            scale = mpf_abs(wanted, bits, round_nearest)
            moved = mpf_abs(mpf_sub(wanted, r, bits, round_nearest), bits,
                            round_nearest)
            if mpf_gt(moved, scale):
                scale = moved
            if mpf_le(size, mpf_mul(tol, scale, bits, round_nearest)):
                ratio = mpf_div(size, scale, bits, round_nearest)
                if mpf_gt(ratio, worst):
                    worst = ratio
                if (doubt is None and z * z <= limit and mpf_gt(
                        size, mpf_mul(rounding, scale, bits, round_nearest))):
                    doubt = (
                        f"the residual {scalar_str(value(r))}*a1 at "
                        f"{_at(target, z, j, k1)} was taken as zero within "
                        "tolerance, but a root atom of that tiny mass "
                        "may sit there")
                continue
        c = half(r)
        if c[0] <= 0 if exact else mpf_lt(
                c, mpf_mul(neg_tol, scale, bits, round_nearest)):
            return _refuted(_nonpositive(target, len(root), z, j, value(c),
                                         k1), doubt)
        if not exact and mpf_le(c, mpf_mul(tol, scale, bits, round_nearest)):
            return Peel(UNDETERMINED, note=(
                f"the root atom y with y*y1 = {_at(target, z, j, k1)} has a "
                f"forced mass {scalar_str(value(c))}*sqrt(a1) within "
                "tolerance of zero"))
        # c > 0 here, so z is a target atom: elsewhere the residual is a
        # sum of subtracted positive terms
        if z * z > limit:
            y, first = target.position(j), target.position(0)
            return _refuted(Violation(
                "peel-overflow", (j + 1,),
                f"the root atom y with y*y1 = {scalar_str(y)} (y1^2 = "
                f"{scalar_str(first)}) would square to "
                f"{scalar_str(y * y / first)}, beyond the top atom "
                f"{scalar_str(target.position(target.p - 1))}"), doubt)
        key = keys[j]
        double = twice(c)
        for other, mass, _ in root[1:]:
            _subtract(residual, heap, other * key, mul(double, mass), sub, neg)
        _subtract(residual, heap, key * key, mul(c, c), sub, neg)
        root.append((key, c, j))
    root = tuple([(j, value(c)) for _, c, j in root])
    if exact:
        return Peel(WITNESS, root=root)
    return Peel(WITNESS, root=root, residual=value(worst), doubt=doubt)


def _refuted(certificate: Violation, doubt: Optional[str]) -> Peel:
    if doubt is None:
        return Peel(IMPOSSIBLE, certificate=certificate)
    return Peel(UNDETERMINED, note=f"{doubt}; without it: {certificate.rule}: "
                                   f"{certificate.message}")


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
                 c: Scalar, k1: int) -> Violation:
    return Violation(
        "peel-nonpositive-mass", (j + 1,) if j is not None else (),
        f"after {count} root atoms the smallest atom of target - root^2 "
        f"sits at {_at(target, z, j, k1)}; the root atom y with y*y1 there "
        f"(y1^2 = {scalar_str(target.position(0))}) is forced to carry mass "
        f"{scalar_str(c)}*sqrt({scalar_str(target.weight(0))}), which is "
        "not positive")


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
    if not _verify(witness, target, config):
        return Verdict(UNDETERMINED, precision_bits=bits,
                       notes=tuple(notes + [UNVERIFIED]))
    return Verdict(WITNESS, witness=witness,
                   residual=_residual_str(peel.residual), precision_bits=bits,
                   notes=tuple(notes + extra))


def _residual_str(residual: Scalar) -> str:
    """The residual as a verdict prints it: an exact 0 as ``decimal_str``
    prints a zero mpf."""
    if not residual:
        return "0.0"
    return real_arithmetic().decimal_str(residual)


def verify_witness(
    witness: AtomicMeasure,
    target: AtomicMeasure,
    config: SolverConfig = DEFAULT_CONFIG,
) -> bool:
    """Independent check: convolve the witness with itself and compare."""
    return _verify(witness, table(target, config.precision_bits), config)


def _verify(witness: AtomicMeasure, target: Table,
            config: SolverConfig) -> bool:
    """Compare the table of the witness's square with ``target``.  Equal
    int keys and equal first squares give equal positions; rational masses
    are compared exactly on cross-multiplied numerators, and otherwise each
    pair of masses at ``bits`` must be within the tolerance."""
    bits = config.precision_bits
    square = products(witness, witness, bits)
    if square.keys != target.keys or square.square(0) != target.square(0):
        return False
    if square.den is not None and target.den is not None:
        return all(a * target.den == b * square.den
                   for a, b in zip(square.masses, target.masses))
    reals = real_arithmetic()
    tol = reals.to_mpf(config.tolerance, bits)
    return all(reals.close_rel(x, y, tol) for x, y in zip(
        reals.masses_at(square.masses, square.den, bits),
        reals.masses_at(target.masses, target.den, bits)))


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
    target = products(work, t_weight(work, bits), bits)
    peel = _peel(target, config)
    if peel.outcome == WITNESS:
        mismatch = _support_mismatch(target, peel)
        if mismatch is not None:
            peel = _refuted(mismatch, peel.doubt)
    # a witness that passed the support check sits on supp(mu)
    return _decide(target, peel, work.support, work.base, config, notes)


def _support_mismatch(target: Table, peel: Peel) -> Optional[Violation]:
    """Compare the root's support with supp(mu): a root atom y with
    y*x_1 = (target atom j) lies in supp(mu) iff that atom is x_1*x_m.

    The table of mu * t(mu) records the first pair per product with the
    left factor outermost, so that atom is x_1*x_m exactly when its first
    pair starts at x_1, the left factor of atom 0."""
    x1 = target.factors[0][0]
    expected = {j for j, pair in enumerate(target.factors) if pair[0] is x1}
    got = {j for j, _ in peel.root}
    if got == expected:
        return None
    j = min(got ^ expected)
    where = scalar_str(target.position(j) / x1)
    message = (f"the root has an atom at {where}, outside supp(mu)" if j in got
               else f"the root has no atom at {where}, an atom of mu")
    return Violation("peel-support-mismatch", (j + 1,), message)


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
    target = table(mu, config.precision_bits)
    peel = _peel(target, config)
    base = mu.support[0].q
    positions = [Position(mu.support[j].q / base, 1, base) for j, _ in peel.root]
    return _decide(target, peel, positions, base, config, [])
