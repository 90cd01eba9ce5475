import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from heapq import heappop, heappush
from math import ceil, gcd, isqrt

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mpf, workprec

from alsq import solver
from alsq.analyze import AnalyzeOptions, analyze
from alsq.cli import main
from alsq.closed_forms import classify_small
from alsq.diagram import Violation, cardinality_check, structural_certificate
from alsq.generator import MODES, GeneratorSpec, generate
from alsq.measures import (
    AtomicMeasure,
    MeasureError,
    Position,
    ZeroAtomError,
    convolve,
    dumps_measure,
    has_radical,
    int_keys,
    loads_measure,
    make_measure,
    moments,
    normalize,
    power_positions,
    save_measure,
    scale_positions,
    square_products,
    strip_zero_atom,
    t_weight,
    table,
)
from alsq.reals import from_raw, mpf_to_fraction, position_raw, to_mpf
from alsq.scalars import DEFAULT_TOLERANCE, scalar_str
from alsq.shifts import hankel_psd, shift_rows
from alsq.solver import (
    IMPOSSIBLE,
    UNDETERMINED,
    WITNESS,
    Peel,
    SolverConfig,
    aluthge_subnormal,
    sqrt_of,
    verdicts,
    verify_witness,
)

F = Fraction


def _first_verdict(target, config=solver.DEFAULT_CONFIG):
    """The first verdict of the peel of ``target``, its square root's."""
    return next(solver._peel(table(target, config.precision_bits,
                                   config.radius), config, False))()


def _transform_peel(mu):
    return _first_verdict(convolve(mu, t_weight(mu)))


# ---------------------------------------------------------------------------
# the peel
# ---------------------------------------------------------------------------

def test_propagation_resolves_three_atom_system(three_atom_square):
    # root masses 1/4, 3/4, 1/2 relative to sqrt(a_1) = 1/4 of the target
    peel = _transform_peel(three_atom_square)
    assert peel.outcome == WITNESS
    assert peel.root == ((0, F(1)), (1, F(3)), (2, F(2)))


def test_propagation_single_atom():
    peel = _transform_peel(make_measure([(1, 1)]))
    assert peel.outcome == WITNESS
    assert peel.root == ((0, F(1)),)


def test_propagation_first_mass_of_sharp_example(five_atom_real):
    verdict = aluthge_subnormal(five_atom_real)
    with workprec(128):
        assert abs(verdict.witness.weights[0] - mpf(1) / 8) < mpf(2) ** -100


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 80), min_size=1, max_size=6, unique=True),
       st.lists(st.fractions(min_value=F(1, 8), max_value=F(3),
                             max_denominator=8), min_size=6, max_size=6))
def test_propagation_always_resolves_boundary_atoms(values, raw_weights):
    # rational input is always decided exactly; a root of the reweighted
    # square starts at the first atom of mu and ends at the last
    support = sorted(values)
    mu = make_measure(list(zip(support, raw_weights[:len(support)])))
    verdict = aluthge_subnormal(mu)
    assert verdict.outcome != UNDETERMINED
    if verdict.outcome == WITNESS:
        assert verdict.witness.support[0] == mu.support[0]
        assert verdict.witness.support[-1] == mu.support[-1]


def test_peel_refutes_the_nine_atom_instance_exactly():
    # the enumeration left this one undetermined; the peel forces -8/11
    mu = generate(GeneratorSpec(9, "arbitrary", 174,
                                position_style="geometric")).measure
    verdict = sqrt_of(mu)
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "peel-nonpositive-mass"
    assert "-8/11" in verdict.certificate.message


def test_real_mode_near_cancellation():
    # (d(1) + d(2))^2 with the top mass moved by a multiple of eps = 2^-64.
    # Each mass stands for its box of relative radius eps, and up to a shift
    # of 3*eps the box holds an exact square: 1 - eps, 2 + 2*eps and
    # (1 + eps)^2 / (1 - eps) = 1 + 3*eps + O(eps^2), within eps of
    # 1 + 3*eps.  So all three are witnesses, and impossible would be
    # unsound
    tol = mpf(2) ** -64

    def target(shift):
        with workprec(128):
            return make_measure([(1, 1), (2, 2), (4, 1 + shift * tol)],
                                mode="real")

    for shift in (F(1, 2), F(3, 2), 3):
        verdict = sqrt_of(target(shift))
        assert verdict.outcome == WITNESS
        assert verify_witness(verdict.witness, target(shift))
    # far outside the box the leftover atom still cannot be a root atom's
    # cross term
    verdict = sqrt_of(target(2 ** 20))
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "peel-overflow"


def test_real_mode_cancelled_root_atom_is_not_refuted():
    # (d(1) + d(2) + e*d(4))^2 with e within tolerance: at eps = 1/1000 the
    # residual 2e at 4 holds 0, so the root atom e at 4 is a maybe atom,
    # which the cross term 2e at 8 needs; no refutation may rest on it, and
    # the witness without it misses the atoms at 8 and 16 and fails its
    # re-check
    with workprec(128):
        target = make_measure([(1, 1), (2, 2), (4, mpf("1.0002")),
                               (8, mpf("0.0002")), (16, mpf("1e-8"))],
                              mode="real")
    verdict = sqrt_of(target, SolverConfig(tolerance=F(1, 1000)))
    assert verdict.outcome == UNDETERMINED
    assert verdict.notes == (solver.UNVERIFIED,)
    # the same with masses spanning 2^70 at the default tolerance, on the
    # transform question: the exact instance has a witness, and in real mode
    # the root atom at 8 has a mass bound that includes 0; left out, as the
    # square root leaves it, the witness fails its re-check
    rho = make_measure([(1, 1), (2, 1), (4, F(1, 2 ** 70))])
    mu = convolve(rho, rho)
    assert aluthge_subnormal(mu).outcome == WITNESS
    verdict = aluthge_subnormal(mu.to_real(128))
    assert verdict.outcome == UNDETERMINED
    assert verdict.notes == (solver.UNVERIFIED,)


def test_real_mode_rounding_level_cancellation_still_refutes():
    # the product 2*2 = 4 below the top root atom 5 cancels up to rounding
    # only, so a maybe atom sits at 4 and is left out of the witness;
    # doubling the top mass is still refuted, for every mass in the box
    rho = make_measure([(1, F(1, 3)), (2, F(1, 7)), (5, F(1, 11))])
    square = convolve(rho, rho).to_real(128)
    atoms = list(square.atoms)
    atoms[-1] = (atoms[-1][0], 2 * atoms[-1][1])
    assert sqrt_of(square).outcome == WITNESS
    verdict = sqrt_of(make_measure(atoms, mode="real"))
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "peel-overflow"


def test_solve_three_atom_witness(three_atom_square):
    target = convolve(three_atom_square, t_weight(three_atom_square))
    verdict = aluthge_subnormal(three_atom_square)
    assert verdict.outcome == WITNESS
    assert verdict.witness.weights == (F(1, 4), F(3, 4), F(1, 2))
    assert convolve(verdict.witness, verdict.witness).atoms == target.atoms


def test_solve_uniform_three_atoms_impossible():
    mu = make_measure([(1, F(1, 3)), (2, F(1, 3)), (4, F(1, 3))])
    verdict = aluthge_subnormal(mu)
    assert verdict.outcome == IMPOSSIBLE
    # mu is no signed square: its signed root has an atom at 4
    assert verdict.certificate.rule == "peel-overflow"
    assert "sits at 4;" in verdict.certificate.message
    assert "would square to 16, beyond the top atom 4" in \
        verdict.certificate.message
    # the peel of mu * t(mu) refutes further up
    peel = _transform_peel(mu)
    assert peel.certificate.rule == "peel-nonpositive-mass"
    assert "-9/16" in peel.certificate.message


# ---------------------------------------------------------------------------
# the peel against its Fraction / mpf reference
# ---------------------------------------------------------------------------

def _reference_peel(target, config=SolverConfig()):
    """The peel on Fraction midpoints and radii: the reference that the int
    peel must match field by field.

    A real mass a stands for the ball a*(1 +- eps); relative to a_1 that is
    (a / a_1)*(1 +- 2*eps/(1 - eps)), a radius the int peel rounds up once
    to a whole multiple of 1/D (D = 2*N_1, the masses N_j over 2^shift
    times their least common denominator, the shift making the smallest
    radius about 2^32 units).  Every later step is exact in both."""
    atoms = target.atoms
    exact = target.mode == "rational"
    bits = config.precision_bits
    weights = [w if exact else mpf_to_fraction(w) for _, w in atoms]
    eps = F(0) if exact else config.radius
    if eps >= 1:
        return Peel(UNDETERMINED,
                    note=f"at relative error {float(eps):.3g} a mass may be 0")
    den = 1
    for w in weights:
        den = den * w.denominator // gcd(den, w.denominator)
    spread = 2 * eps / (1 - eps)
    if eps:
        smallest = spread.numerator * 2 * min(weights) * den
        den <<= max(0, 32 + spread.denominator.bit_length()
                    - int(smallest).bit_length())
    d = 2 * weights[0] * den
    masses = [(w / weights[0], ceil(spread * w / weights[0] * d) / d)
              for w in weights]

    def shown(x):
        return scalar_str(x if exact else to_mpf(x, bits))

    keys = int_keys(target.support)
    k1 = keys[0]
    at = [key * k1 for key in keys]
    index = {z: j for j, z in enumerate(at)}
    residual = dict(zip(at[1:], masses[1:]))
    heap = at[1:]
    limit = keys[-1] * k1 ** 3
    root = [(k1, (F(1), F(0)), 0)]
    radii = [F(0)] * target.p
    maybe = []
    while heap:
        z = heappop(heap)
        mid, rad = residual.pop(z)
        j = index.get(z)
        if j is not None:
            radii[j] = rad
        if mid + rad < 0:
            mass = f"{shown(mid / 2)}*sqrt({shown(weights[0])})"
            if rad:
                mass += f" +- {shown(rad / 2)}*sqrt({shown(weights[0])})"
            return Peel(IMPOSSIBLE, certificate=_nonpositive(
                atoms, root, z, j, mass, k1))
        if mid <= rad:
            if j is None or mid + rad == 0 or z * z > limit:
                continue
            c = (F(0), (mid + rad) / 2)
            maybe.append(j)
        elif z * z > limit:
            return Peel(IMPOSSIBLE, certificate=Violation(
                "peel-overflow", (j + 1,),
                f"the root atom y with y*y1 = {atoms[j][0]} (y1^2 = "
                f"{atoms[0][0]}) would square to "
                f"{atoms[j][0] * atoms[j][0] / atoms[0][0]}, beyond the "
                f"top atom {atoms[-1][0]}"))
        else:
            c = (mid / 2, rad / 2)
        key = keys[j]
        for other, mass, _ in root[1:]:
            _reference_subtract(residual, heap, other * key,
                                _ball_product((2 * c[0], 2 * c[1]), mass))
        _reference_subtract(residual, heap, key * key, _ball_product(c, c))
        root.append((key, c, j))
    witness = tuple((j, c[0] if exact else to_mpf(c[0], bits))
                    for _, c, j in root if j not in maybe)
    if exact:
        return Peel(WITNESS, root=witness)
    return Peel(WITNESS, root=witness,
                radii=tuple((r.numerator, r.denominator) for r in radii),
                residual=to_mpf(max(r / (w / weights[0])
                                    for r, w in zip(radii, weights)), bits),
                maybe=tuple(maybe))


def _ball_product(x, y):
    (a, r), (b, s) = x, y
    return a * b, abs(a) * s + abs(b) * r + r * s


# the certificate texts of the reference, written on the target's atoms
def _at(atoms, z, j, k1):
    """The position y*y1 at key z: a target atom, or else named by its
    square (z / K_1^2) * x_1^2."""
    if j is not None:
        return str(atoms[j][0])
    return ("the position with square "
            f"{Fraction(z, k1 * k1) * atoms[0][0].squared()}")


def _nonpositive(atoms, root, z, j, c, k1) -> Violation:
    return Violation(
        "peel-nonpositive-mass", (j + 1,) if j is not None else (),
        f"after {len(root)} root atoms the smallest atom of target - root^2 "
        f"sits at {_at(atoms, z, j, k1)}; the root atom y with y*y1 there "
        f"(y1^2 = {atoms[0][0]}) is forced to carry mass {c}, which is not "
        "positive")


def _reference_subtract(residual, heap, key, value):
    mid, rad = value
    if key in residual:
        old_mid, old_rad = residual[key]
        residual[key] = (old_mid - mid, old_rad + rad)
    else:
        residual[key] = (-mid, rad)
        heappush(heap, key)


def _peel_fields(peel):
    """Every field of a peel, masses with their type."""
    cert = peel.certificate
    return (peel.outcome, [(j, type(c), c) for j, c in peel.root],
            type(peel.residual), peel.residual,
            [F(*radius) for radius in peel.radii], peel.maybe,
            peel.note, (cert.rule, cert.indices, cert.message) if cert else None)


def _assert_peel_matches_reference(target, config=SolverConfig()):
    assert _peel_fields(_first_verdict(target, config)) == \
        _peel_fields(_reference_peel(target, config))


_RATIOS = (F(2), F(3, 2), F(5, 3), F(7, 4))
_MASSES = st.fractions(min_value=F(1, 12), max_value=F(12),
                       max_denominator=12)


@st.composite
def _small_measures(draw, max_atoms=7):
    """Geometric, random or radical supports with small rational masses."""
    n = draw(st.integers(1, max_atoms))
    style = draw(st.sampled_from(["geometric", "random", "radical"]))
    if style == "geometric":
        ratio = draw(st.sampled_from(_RATIOS))
        start = draw(st.sampled_from([F(1), F(1, 3), F(5, 2)]))
        support = [start * ratio ** i for i in range(n)]
    else:
        qs = draw(st.lists(st.integers(1, 90), min_size=n, max_size=n,
                           unique=True))
        support = sorted(qs)
        if style == "radical":
            base = draw(st.sampled_from([F(2), F(3), F(5, 2)]))
            support = [Position(F(q), draw(st.integers(0, 1)), base)
                       for q in qs]
    masses = draw(st.lists(_MASSES, min_size=n, max_size=n))
    return make_measure(list(zip(support, masses)))


@st.composite
def _peel_targets(draw):
    kind = draw(st.sampled_from(["square", "twin", "transform", "plain",
                                 "arbitrary"]))
    if kind == "arbitrary":
        spec = GeneratorSpec(draw(st.integers(3, 23)), "arbitrary",
                             draw(st.integers(0, 10_000)),
                             position_style=draw(st.sampled_from(
                                 ["geometric", "random"])))
        target = generate(spec).measure
    else:
        mu = draw(_small_measures())
        if kind == "plain":
            target = mu
        elif kind == "transform" and all(pos.k == 0 for pos in mu.support):
            target = convolve(mu, t_weight(mu))
        else:
            target = convolve(mu, mu)
        if kind == "twin":
            atoms = list(target.atoms)
            factor = draw(st.sampled_from([F(2), F(1, 2), F(3, 2)]))
            atoms[-1] = (atoms[-1][0], atoms[-1][1] * factor)
            target = make_measure(atoms)
    bits = draw(st.sampled_from([None, 64, 128]))
    if bits is None:
        return target, SolverConfig()
    tolerance = draw(st.sampled_from([DEFAULT_TOLERANCE, F(1, 2 ** 40),
                                      F(1, 1000)]))
    return target.to_real(bits), SolverConfig(bits, tolerance)


@settings(max_examples=150, deadline=None)
@given(_peel_targets())
def test_peel_matches_fraction_reference(case):
    # rational squares, twins, transform targets, radical supports and
    # targets that are not squares, exact and at 64 and 128 bits
    target, config = case
    _assert_peel_matches_reference(target, config)


def _cancellation_targets(bits):
    tol = DEFAULT_TOLERANCE
    out = [(make_measure([(1, 1), (2, 2), (4, 1 + shift * tol)], mode="real",
                         bits=bits), SolverConfig(bits))
           for shift in (F(1, 2), F(3, 2), F(3))]
    with workprec(bits):
        cancelled = make_measure([(1, 1), (2, 2), (4, mpf("1.0002")),
                                  (8, mpf("0.0002")), (16, mpf("1e-8"))],
                                 mode="real")
    out.append((cancelled, SolverConfig(bits, F(1, 1000))))
    rho = make_measure([(1, 1), (2, 1), (4, F(1, 2 ** 70))])
    mu = convolve(rho, rho)
    out.append((convolve(mu, t_weight(mu)).to_real(bits), SolverConfig(bits)))
    rho = make_measure([(1, F(1, 3)), (2, F(1, 7)), (5, F(1, 11))])
    square = convolve(rho, rho).to_real(bits)
    atoms = list(square.atoms)
    atoms[-1] = (atoms[-1][0], 2 * atoms[-1][1])
    out.append((square, SolverConfig(bits)))
    out.append((make_measure(atoms, mode="real"), SolverConfig(bits)))
    # a residual 2^12 or 2^20 units of the last place at the top bit of the
    # cancelled atom at 4, both far inside the box of radius 2^-32
    for shift in (12, 20):
        out.append((make_measure(
            [(1, 1), (2, 2), (4, 1 + F(2 ** shift, 2 ** bits)), (8, F(1, 4)),
             (16, F(1, 100))], mode="real", bits=bits),
            SolverConfig(bits, F(1, 2 ** 32))))
    return out


@pytest.mark.parametrize("bits", [64, 128])
def test_peel_matches_fraction_reference_at_cancellation(bits):
    # the near-cancellation and rounding-floor cases of the real-mode tests
    cases = _cancellation_targets(bits)
    for target, config in cases:
        _assert_peel_matches_reference(target, config)
    peels = [_first_verdict(target, config) for target, config in cases]
    # the peel itself refutes or gives a root; maybe atoms sat where a
    # residual held 0 (the cancelled atom at 4, the cross terms of the tiny
    # atom at 4 of the transform target)
    assert {peel.outcome for peel in peels} == {WITNESS, IMPOSSIBLE}
    assert [peel.maybe for peel in peels[3:6]] == [(2,), (3, 4), (2,)]
    # both residuals at 4 hold 0, so a maybe atom of mass at most about
    # 2^-33 sits there; the mass 1/4 at 8 is then surely positive where its
    # root atom would square to 64, beyond the top atom 16: impossible for
    # every measure in the box
    below, above = peels[-2:]
    assert below.outcome == above.outcome == IMPOSSIBLE
    assert below.maybe == above.maybe == ()
    assert above.certificate.rule == "peel-overflow"


@st.composite
def _product_targets(draw):
    """The factor of mu * mu, rational or real, with the configuration to
    peel it at."""
    if draw(st.booleans()):
        mu = draw(_small_measures())
    else:
        mu = generate(GeneratorSpec(
            draw(st.integers(3, 23)), "arbitrary", draw(st.integers(0, 10_000)),
            position_style=draw(st.sampled_from(["geometric",
                                                 "random"])))).measure
    bits = draw(st.sampled_from([None, 64, 128]))
    if bits is None:
        return mu, SolverConfig()
    return mu.to_real(bits), SolverConfig(bits)


@settings(max_examples=120, deadline=None)
@given(_product_targets())
def test_peel_of_product_table_matches_peel_of_measure(case):
    # the peel that reads the product table of the pair loop gives, field
    # for field, the peel of the measure convolve builds, tabled with the
    # product table's radius (0 in rational mode)
    mu, config = case
    bits = config.precision_bits
    tabled = square_products(mu, bits)
    again = table(convolve(mu, mu, bits), bits, tabled.radius)
    assert _peel_fields(next(solver._peel(tabled, config))()) == \
        _peel_fields(next(solver._peel(again, config))())
    assert (tabled.keys, tabled.scale) == (again.keys, again.scale)
    assert [F(n, again.den) for n in again.masses] == \
        [F(n, tabled.den) for n in tabled.masses]


def _ladder_cases(p=23):
    """A p-atom geometric square, its top-scaled twin and a random-position
    p-atom instance."""
    rho = make_measure([(F(3, 2) ** i, F(1 + i % 7, 1 + i % 5))
                        for i in range((p + 1) // 2)])
    square = convolve(rho, rho)
    atoms = list(square.atoms)
    atoms[-1] = (atoms[-1][0], 2 * atoms[-1][1])
    spec = GeneratorSpec(p, "arbitrary", 50_000_023, position_style="random")
    return [square, make_measure(atoms), generate(spec).measure]


def test_transform_builds_positions_only_for_the_verdict(monkeypatch):
    # mu * t(mu) has up to ((p-1)^2 + 6)/2 atoms; the decision builds a
    # position only for what its verdict prints, not one per product
    from alsq import measures

    built = []
    real_position = measures._position

    def spy(*args):
        built.append(args)
        return real_position(*args)

    monkeypatch.setattr(measures, "_position", spy)
    outcomes = set()
    for mu in _ladder_cases():
        built.clear()
        verdict = aluthge_subnormal(mu)
        outcomes.add(verdict.outcome)
        assert verdict.outcome != UNDETERMINED
        assert len(built) <= 2 * mu.p + 2, (mu.p, len(built))
    assert outcomes == {WITNESS, IMPOSSIBLE}
    # the spy sees the products that convolve does build
    built.clear()
    target = convolve(mu, t_weight(mu))
    assert len(built) == target.p > 2 * mu.p + 2


def test_transform_refutation_forms_no_product_table(monkeypatch):
    # gen --p 400 --seed 1 is refuted from the signed root of mu: neither
    # the table of mu * t(mu) nor a witness's square is formed: the solver
    # has no convolve
    assert not hasattr(solver, "convolve")
    calls = []
    monkeypatch.setattr(solver, "square_products",
                        lambda *args: calls.append("square_products"))
    mu = generate(GeneratorSpec(400, "arbitrary", 1)).measure
    verdict = aluthge_subnormal(mu)
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "peel-nonpositive-mass"
    assert calls == []


def _generated(p, seed):
    """The instances ``generate`` gives at p for one seed, every mode."""
    out = []
    for mode in ("with-root", "with-aluthge-root", "perturbed", "arbitrary"):
        for style in ("geometric", "random"):
            try:
                out.append(generate(GeneratorSpec(p, mode, seed,
                                                  position_style=style)))
            except MeasureError:
                pass
    return [inst.measure for inst in out]


def _table_verdict(mu):
    """The transform verdict from the Fraction reference peel of the
    complete mu * t(mu), built by convolve, its witness re-squared against
    the table of it."""
    config = SolverConfig()
    product = convolve(mu, t_weight(mu))
    target = table(product)
    peel = _reference_peel(product, config)
    x1 = mu.support[0]

    def place(weights, mode):
        return make_measure([(product.support[j] / x1, w) for (j, _), w
                             in zip(peel.root, weights)], mode=mode,
                            base=mu.base)
    return solver._decide(peel, target.weight(0), target.mode, place, target,
                          config)


def _signed_squares(count, seed):
    """Q * Q for signed Q with 2-6 atoms on one- and two-ratio lattices,
    kept when every mass of Q * Q is positive."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b = rng.choice(_RATIOS), rng.choice((F(1), F(5), F(7, 3)))
        q = {}
        for _ in range(rng.randint(2, 6)):
            x = a ** rng.randint(0, 4) * b ** rng.randint(0, 1)
            q[x] = F(rng.choice((-3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))
        mu = _dict_square(q)
        if all(m > 0 for m in mu.values()):
            out.append(make_measure(list(mu.items())))
    return out


# signed Q whose square is positive while Q * t(Q) has a negative mass
_NOT_SUBNORMAL = [
    {1: 3, 2: 2, 4: 2, 8: -1, 16: 2, 32: 1},
    {1: 1, F(5, 3): F(3, 2), F(25, 9): -1, F(125, 27): 2, F(625, 81): F(3, 2),
     F(3125, 243): F(4, 3)},
    {1: F(1, 3), F(7, 4): F(3, 2), F(49, 16): 3, F(343, 64): -1,
     F(2401, 256): 2, F(16807, 1024): 2},
    {1: 1, F(7, 4): 1, F(49, 16): F(-1, 2), F(343, 64): 1, F(2401, 256): 1},
    {1: 1, F(3, 2): 1, F(9, 4): F(-1, 2), F(27, 8): 2, F(81, 16): F(4, 3)},
    {2: 1, 4: F(3, 2), 8: -1, 16: 2, 32: F(3, 2)},
]


def _transform_cases():
    """Every generate mode and style at p = 1..40 and geometric squares and
    their twins up to p = 39; and signed squares."""
    cases = [mu for p in range(1, 41) for mu in _generated(p, 1000 + p)]
    for q in range(2, 21):
        cases += _ladder_cases(2 * q - 1)[:2]
    squares = _signed_squares(150, 23) + [
        make_measure(list(_dict_square(q).items())) for q in _NOT_SUBNORMAL]
    return cases, squares


def test_transform_verdicts_equal_complete_table_peel():
    # the signed root of mu gives the outcome and the witness of the peel
    # of the complete table of mu * t(mu), and its certificate wherever mu
    # is a signed square; where it is not, the signed peel may stop first,
    # with peel-overflow, a rule no signed square gets
    cases, squares = _transform_cases()
    rules = Counter()
    for mu in cases + squares:
        got = aluthge_subnormal(mu).to_json_dict()
        want = _table_verdict(mu).to_json_dict()
        assert got["outcome"] == want["outcome"], mu
        rule = got["certificate"] and got["certificate"]["rule"]
        rules[rule, mu in squares] += 1
        if rule != "peel-overflow":
            assert got == want, mu
    assert rules["peel-overflow", True] == 0
    assert rules[None, True] and rules["peel-nonpositive-mass", True]
    assert rules["peel-overflow", False] and rules[None, False]


def test_transform_certificate_indexes_by_key_products():
    # the table of mu * t(mu) has an atom at each product K_a*K_b of two
    # keys of mu (K = x^2 here) and nowhere else: at 1, 3, 4, 9, 12 and 16
    # for mu on 1, 3 and 4.  The certificate at the key w numbers the atom
    # there by the distinct products below it, and names none off them
    target = table(make_measure([(1, F(1, 2)), (3, F(1, 4)), (4, F(1, 4))]))
    assert target.keys == [1, 9, 16]
    at = solver._negative(target, 4, 12 ** 2, F(-1, 3))
    assert (at.rule, at.indices) == ("peel-nonpositive-mass", (5,))
    assert "after 4 root atoms" in at.message
    assert "sits at 12;" in at.message and "-1/3*sqrt(1/4)" in at.message
    off = solver._negative(target, 4, 10 ** 2, F(-1, 3))
    assert off.indices == ()
    assert "sits at the position with square 100;" in off.message


def _dict_product(left, right):
    out = {}
    for x, a in left.items():
        for y, b in right.items():
            out[x * y] = out.get(x * y, 0) + a * b
    return {x: m for x, m in out.items() if m}


def _has_nonnegative_root(target):
    """Whether the measure {position: mass} has a nonnegative square root:
    its unique root, peeled smallest atom first in plain Fractions, has no
    negative mass and squares to no atom beyond the top."""
    x1 = min(target)
    top = max(target)
    residual = {x: m / target[x1] for x, m in target.items() if x != x1}
    root = {x1: F(1)}  # atom y as y * sqrt(x1), mass over sqrt(a_1)
    while True:
        live = [x for x, m in residual.items() if m]
        if not live:
            return True
        x = min(live)
        c = residual.pop(x) / 2
        if c < 0 or x * x / x1 > top:
            return False
        for y, b in root.items():
            residual[x * y / x1] = residual.get(x * y / x1, 0) - 2 * c * b
        residual[x * x / x1] = residual.get(x * x / x1, 0) - c * c
        root[x] = c


def test_no_signed_square_has_no_transform_root():
    # every transform peel-overflow ("no signed square") is right: mu * t(mu),
    # formed from dict products, has no nonnegative square root
    cases, _ = _transform_cases()
    reasons = Counter()
    for mu in cases:
        verdict = aluthge_subnormal(mu)
        if verdict.certificate and verdict.certificate.rule == "peel-overflow":
            message = verdict.certificate.message
            reasons["beyond the top atom" in message,
                    "no multiple of 1/" in message] += 1
            atoms = {pos.q: w for pos, w in mu.atoms}
            weighted = {x: w * x for x, w in atoms.items()}
            assert not _has_nonnegative_root(_dict_product(atoms, weighted))
    # both ways the signed root of mu can end
    assert reasons[True, False] >= 40 and reasons[False, True] >= 10


def test_transform_separates_from_the_square_root_at_p9():
    # mu = P(z)^2 at z = (3/2)^k for P = (1, 2, -1, 3, 2): no square root,
    # but the transform is subnormal with Berger measure P(z) P(3z/2)
    ratio, p = F(3, 2), [1, 2, -1, 3, 2]
    square, berger = [0] * 9, [0] * 9
    for k, a in enumerate(p):
        for m, b in enumerate(p):
            square[k + m] += a * b
            berger[k + m] += a * b * ratio ** m
    assert square == [1, 4, 2, 2, 17, 2, 5, 12, 4]
    mu = make_measure([(ratio ** k, m) for k, m in enumerate(square)])
    root = sqrt_of(mu)
    assert root.outcome == IMPOSSIBLE
    assert root.certificate.rule == "peel-nonpositive-mass"
    assert "sits at 9/4" in root.certificate.message
    assert "forced to carry mass -1*sqrt(1)" in root.certificate.message
    verdict = aluthge_subnormal(mu)
    assert verdict.outcome == WITNESS
    assert list(verdict.witness.atoms) == [
        (Position.of(ratio ** k), F(m)) for k, m in enumerate(berger)]
    assert berger == [1, 5, F(11, 4), F(45, 8), F(349, 8), F(75, 8),
                      F(63, 4), F(405, 8), F(81, 4)]


# signed Q at 2^0..2^6 whose square mu has 13 positive atoms
_Q13 = {F(2) ** k: F(m) for k, m in
        enumerate([5, F(5, 2), 5, F(-5, 3), 3, 4, 2])}


def test_transform_separates_at_p13_where_n_cancels_exactly():
    # mu = Q * Q has no square root; the transform is subnormal with
    # Berger measure N = Q * t(Q), whose atom at 8 cancels exactly
    q = _Q13
    square = _dict_product(q, q)
    assert len(square) == 13 and all(m > 0 for m in square.values())
    berger = _dict_product(q, {x: m * x for x, m in q.items()})
    assert sorted(berger) == [2 ** k for k in range(13) if k != 3]
    mu = make_measure(list(square.items()))
    root = sqrt_of(mu)
    assert root.outcome == IMPOSSIBLE
    assert root.certificate.rule == "peel-nonpositive-mass"
    verdict = aluthge_subnormal(mu)
    assert verdict.outcome == WITNESS
    assert list(verdict.witness.atoms) == [
        (Position.of(x), berger[x]) for x in sorted(berger)]


def test_radical_transform_witness_off_the_support():
    # Q = d(1) + 2d(sqrt2) - d(2) + 2d(2sqrt2) + d(4) on base 2: mu = Q * Q
    # has 7 atoms, its 2sqrt2 and 4sqrt2 cancel, and N = Q * t(Q) has 9,
    # there too, so the witness is placed off supp(mu) by key.  The
    # reference is over Z[sqrt2]: a position q*sqrt2^k is (q, k), a mass
    # a + b*sqrt2 is (a, b), and products are dict products of int pairs
    def times(x, y):
        (p, j), (q, k) = x, y
        return (2 * p * q, 0) if j + k == 2 else (p * q, j + k)

    def product(left, right):
        out = {}
        for x, (a, b) in left.items():
            for y, (c, d) in right.items():
                e, f = out.get(times(x, y), (0, 0))
                out[times(x, y)] = e + a * c + 2 * b * d, f + a * d + b * c
        return {x: m for x, m in out.items() if m != (0, 0)}

    def t_of(atoms):  # each mass times its position
        return {(q, k): (a * q, b * q) if k == 0 else (2 * b * q, a * q)
                for (q, k), (a, b) in atoms.items()}

    q = {(1, 0): (1, 0), (1, 1): (2, 0), (2, 0): (-1, 0), (2, 1): (2, 0),
         (4, 0): (1, 0)}
    square = product(q, q)
    assert square == {(1, 0): (1, 0), (1, 1): (4, 0), (2, 0): (2, 0),
                      (4, 0): (11, 0), (8, 0): (2, 0), (8, 1): (4, 0),
                      (16, 0): (1, 0)}
    n = product(q, t_of(q))
    assert len(n) == 9 and not set(n) <= set(square)
    assert product(n, n) == product(square, t_of(square))
    mu = make_measure([(Position(F(x), k, F(2)), F(a))
                       for (x, k), (a, _) in square.items()], base=F(2))
    for nu in (mu, mu.to_real(128)):
        verdict = aluthge_subnormal(nu)
        assert verdict.outcome == WITNESS
        # a_1 = x_1 = 1 and N_1 = 1: the witness is N, rounded at 128 bits
        got = dict(verdict.witness.atoms)
        assert set(got) == {Position(F(x), k, F(2)) for x, k in n}
        with workprec(256):
            root = mpmath.sqrt(2)
            for (x, k), (a, b) in n.items():
                want = a + b * root
                assert abs(to_mpf(got[Position(F(x), k, F(2))], 256) - want) \
                    <= mpf(2) ** -120 * want, (x, k)


@pytest.mark.parametrize("bits", [8, 16, 24, 32])
def test_real_transform_with_a_negative_midpoint_of_n_is_undetermined(bits):
    # at these precisions the ball of N's exact zero at 8 has a negative
    # midpoint, so the real transform cannot tell N >= 0 from N < 0 there
    mu = make_measure(list(_dict_product(_Q13, _Q13).items())).to_real(bits)
    root, transform = verdicts(mu, SolverConfig(bits))
    assert root.outcome == IMPOSSIBLE
    assert root.certificate.rule == "peel-nonpositive-mass"
    assert transform.outcome == UNDETERMINED
    assert transform.notes == (
        "an atom of N = Q*t(Q) has a negative midpoint and a mass bound "
        "that includes 0",)


def _decision_cases():
    """Every generate mode and style at p = 1..40 for seeds 1-3, the
    transform cases, the off-support instances at p = 7 and 8 and the
    separating instance at p = 9."""
    cases = [mu for seed in (1, 2, 3) for p in range(1, 41)
             for mu in _generated(p, seed)]
    transform, squares = _transform_cases()
    cases += transform + squares
    cases += [make_measure(list(_dict_square(q).items()))
              for _, q, _ in _OFF_SUPPORT]
    cases.append(make_measure([(F(3, 2) ** k, m) for k, m in
                               enumerate([1, 4, 2, 2, 17, 2, 5, 12, 4])]))
    return cases


def _verdict_json(decide, mu):
    try:
        return decide(mu).to_json_dict()
    except MeasureError as exc:
        return str(exc)


def test_square_root_verdict_equals_the_positive_peel(monkeypatch):
    # the signed peel's first verdict is the one the Fraction reference
    # peel of mu gives, byte for byte
    cases = _decision_cases()
    got = [_verdict_json(sqrt_of, mu) for mu in cases]
    # the peel yields a call that builds its square-root peel; the
    # reference peels the measure that each table was made of
    measures = {}
    real_table = solver.table

    def tabled(mu, *args):
        target = real_table(mu, *args)
        measures[id(target)] = mu
        return target
    monkeypatch.setattr(solver, "table", tabled)
    monkeypatch.setattr(solver, "_peel", lambda target, config: iter(
        [partial(_reference_peel, measures[id(target)], config)]))
    want = [_verdict_json(sqrt_of, mu) for mu in cases]
    for mu, g, w in zip(cases, got, want):
        assert g == w, mu
    rules = Counter(w["certificate"]["rule"] if w["certificate"] else
                    w["outcome"] for w in want if isinstance(w, dict))
    assert rules[WITNESS] >= 100 and rules["peel-overflow"] >= 10
    assert rules["peel-nonpositive-mass"] >= 100


def test_analyze_reads_both_verdicts_off_one_peel():
    for mu in _decision_cases():
        report = analyze(mu).to_json_dict()
        root = _verdict_json(sqrt_of, mu)
        assert report["sqrt"] == (root if isinstance(root, dict) else None)
        assert report["aluthge"] == aluthge_subnormal(mu).to_json_dict()


@pytest.mark.parametrize("mode", ["rational", "real"])
def test_positive_residual_off_the_atoms_is_an_internal_error(
        monkeypatch, tmp_path, capsys, mode):
    # with a nonnegative root the residual off the target's atoms is minus a
    # sum of products of positive masses; adding those products instead
    # puts positive mass at 2*2 = 4, which no atom of mu sits at.  Only the
    # negative terms are negated, so the radii of real masses stay >= 0
    mu = make_measure([(x, F(1, 5)) for x in (1, 2, 3, 10, 20)], mode=mode)
    add = solver._add
    monkeypatch.setattr(solver, "_add", lambda acc, heap, key, n, e, powers:
                        add(acc, heap, key, abs(n), e, powers))
    with pytest.raises(solver.InternalError, match="off the target's atoms"):
        sqrt_of(mu)
    path = tmp_path / "five.json"
    save_measure(mu, path)
    assert main(["sqrt", str(path)]) == 4
    assert "internal error: positive residual" in capsys.readouterr().err


def test_signed_root_that_does_not_square_back_is_an_internal_error(
        monkeypatch, tmp_path, capsys, three_atom_square):
    # a complete signed peel leaves mu - Q*Q at 0, so the re-square of Q can
    # miss mu only through a bug: one planted in the pair loop it reads
    pair_products = solver._pair_products

    def perturbed(keys, left, right):
        order, masses = pair_products(keys, left, right)
        return order, masses[:-1] + [masses[-1] + 1]

    monkeypatch.setattr(solver, "_pair_products", perturbed)
    with pytest.raises(solver.InternalError, match="square back"):
        aluthge_subnormal(three_atom_square)
    path = tmp_path / "three.json"
    save_measure(three_atom_square, path)
    assert main(["aluthge", str(path)]) == 4
    assert "internal error: the signed root does not square back to mu" in \
        capsys.readouterr().err


@pytest.mark.parametrize("bits", [None, 128, 256])
def test_decisions_enter_no_working_precision(monkeypatch, bits):
    # the decision path, analyze, the loader, the measure helpers and the
    # Hankel test pass precision explicitly or are exact: they never switch
    # mpmath's global context, so threads cannot disturb one another
    entered = []
    real_workprec = mpmath.workprec

    def spy(n, *args, **kwargs):
        entered.append(n)
        return real_workprec(n, *args, **kwargs)

    monkeypatch.setattr(mpmath, "workprec", spy)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "alsq" and hasattr(module, "workprec"):
            monkeypatch.setattr(module, "workprec", spy)
    config = SolverConfig() if bits is None else SolverConfig(bits)
    prec = config.precision_bits
    radical = make_measure([(Position(F(k), 1, F(2)), F(1, 3))
                            for k in (1, 2, 3)])
    for mu in [generate(spec).measure
               for spec in (GeneratorSpec(3, "with-root", 2),
                            GeneratorSpec(6, "with-root", 3),
                            GeneratorSpec(5, "with-aluthge-root", 4),
                            GeneratorSpec(9, "arbitrary", 174))] + [radical]:
        if bits is not None:
            mu = mu.to_real(bits)
        if mu.support[0].k == 0:  # rational positions
            sqrt_of(mu, config)
            _first_verdict(mu, config)
            _first_verdict(convolve(mu, t_weight(mu, prec), bits=prec), config)
            if mu.p <= 6:
                classify_small(mu, config)
        aluthge_subnormal(mu, config)
        analyze(mu, AnalyzeOptions(config, shift_terms=20))
        normalize(mu, prec)
        mu.total_mass()
        moments(mu, 4, prec)
        hankel_psd([from_raw(row[3]) for row in shift_rows(mu, 8, prec)], 3)
    loads_measure('''{"radical_base": "1", "mode": "real", "atoms": [
        {"pos_q": "1", "pos_k": 0, "weight": "0.125"},
        {"pos_q": "2", "pos_k": 0, "weight": "1.1e-3"},
        {"pos_q": "0", "pos_k": 0, "weight": "1/3"},
        {"pos_q": "0", "pos_k": 0, "weight": "0.3"}]}''', bits=prec)
    assert entered == []


# ---------------------------------------------------------------------------
# the transform decision
# ---------------------------------------------------------------------------

def test_transform_verdicts_for_examples(five_atom_real, six_atom_exact,
                                         three_atom_square):
    assert aluthge_subnormal(five_atom_real).outcome == WITNESS
    assert aluthge_subnormal(six_atom_exact).outcome == WITNESS
    assert aluthge_subnormal(three_atom_square).outcome == WITNESS


def test_transform_impossible_for_any_four_atoms():
    geometric = make_measure([(2 ** k, F(1, 4)) for k in range(4)])
    ragged = make_measure([(v, F(1, 4)) for v in (1, 2, 3, 7)])
    for mu in (geometric, ragged):
        verdict = aluthge_subnormal(mu)
        assert verdict.outcome == IMPOSSIBLE


@pytest.mark.parametrize("style", ["geometric", "random"])
def test_peel_refutes_four_atoms_as_the_closed_form_does(style):
    # no four-atom shortcut: both decisions peel, and their peel certificate
    # agrees with the closed-form four-atom family
    for seed in range(25):
        exact = generate(GeneratorSpec(4, "arbitrary", 7000 + seed,
                                       position_style=style)).measure
        for mu in (exact, exact.to_real(64), exact.to_real(128)):
            for verdict in (sqrt_of(mu), aluthge_subnormal(mu)):
                assert verdict.outcome == IMPOSSIBLE
                assert verdict.certificate.rule.startswith("peel-")
            assert classify_small(mu).outcome == IMPOSSIBLE
            assert analyze(mu).agreement is True


def test_transform_mass_convention(three_atom_square):
    # the witness carries total mass sqrt(gamma_1) when mu is a probability
    verdict = aluthge_subnormal(three_atom_square)
    mass = verdict.witness.total_mass()
    assert mass * mass == moments(three_atom_square, 2)[1]


def test_transform_rejects_zero_atom():
    mu = make_measure([(0, F(1, 2)), (1, F(1, 2))])
    with pytest.raises(ZeroAtomError):
        aluthge_subnormal(mu)


def test_transform_nonunit_first_atom_exact_square():
    mu = make_measure([(4, F(1, 4)), (8, F(1, 2)), (16, F(1, 4))])
    verdict = aluthge_subnormal(mu)
    assert verdict.outcome == WITNESS and verdict.witness.mode == "rational"
    target = convolve(mu, t_weight(mu))
    assert convolve(verdict.witness, verdict.witness).atoms == target.atoms


def test_transform_nonunit_first_atom_nonsquare():
    mu = make_measure([(3, F(1, 4)), (6, F(1, 2)), (12, F(1, 4))])
    verdict = aluthge_subnormal(mu)
    assert verdict.outcome == WITNESS and verdict.witness.mode == "real"
    target = convolve(mu, t_weight(mu))
    assert verify_witness(verdict.witness, target)
    # the masses c * sqrt(a_1), bit for bit as mpf arithmetic at 128 bits
    with workprec(128):
        scale = mpmath.sqrt(target.weights[0])
        expected = [mpmath.mpmathify(c) * scale
                    for _, c in _first_verdict(target).root]
    assert [w._mpf_ for w in verdict.witness.weights] == \
        [w._mpf_ for w in expected]


def test_verify_witness_compares_positions():
    witness = make_measure([(1, F(1, 2)), (2, F(1, 2))])
    square = make_measure([(1, F(1, 4)), (2, F(1, 2)), (4, F(1, 4))])
    assert verify_witness(witness, square)
    moved = make_measure([(1, F(1, 4)), (2, F(1, 2)), (5, F(1, 4))])
    assert not verify_witness(witness, moved)
    # halved, the root squares onto 1/4, 1/2 and 1: the same int keys as
    # 1, 2 and 4, at the scale 16 instead of 1
    halved = scale_positions(witness, F(1, 2))
    assert table(square).keys == square_products(halved).keys
    assert (table(square).scale, square_products(halved).scale) == (1, 16)
    assert not verify_witness(halved, square)
    # a root over the radical base 2 squares onto rational positions
    radical = make_measure([(Position(F(1), 1, F(2)), F(1, 2)),
                            (Position(F(2), 1, F(2)), F(1, 2))])
    assert verify_witness(radical, scale_positions(square, 2))
    assert not verify_witness(radical, square)


def test_verify_witness_rejects_a_mass_beyond_the_real_error():
    # at 128 bits a relative error of 2^-40 in one mass lies far outside
    # the error the peel carries to each atom
    rho = make_measure([(1, F(1, 2)), (3, F(1, 3)), (6, F(1, 6))])
    real = convolve(rho, rho).to_real(128)
    scaled = make_measure([(1, F(1, 2) * (1 + F(1, 2 ** 40))),
                           (3, F(1, 3)), (6, F(1, 6))])
    assert not verify_witness(scaled, real)
    assert verify_witness(rho, real)


# ---------------------------------------------------------------------------
# the square root decision
# ---------------------------------------------------------------------------

def test_sqrt_of_six_atom_example(six_atom_exact):
    verdict = sqrt_of(six_atom_exact)
    expected = make_measure([(1, F(1, 2)), (3, F(1, 3)), (6, F(1, 6))])
    assert verdict.outcome == WITNESS
    assert verdict.witness.atoms == expected.atoms


def test_sqrt_of_three_atom_square(three_atom_square):
    verdict = sqrt_of(three_atom_square)
    assert verdict.outcome == WITNESS
    assert verdict.witness.weights == (F(1, 2), F(1, 2))


def test_sqrt_of_four_atoms_impossible():
    mu = make_measure([(3 ** k, F(1, 4)) for k in range(4)])
    assert sqrt_of(mu).outcome == IMPOSSIBLE


def test_sqrt_of_two_atoms_impossible():
    verdict = sqrt_of(make_measure([(1, F(1, 2)), (2, F(1, 2))]))
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "peel-overflow"


def test_sqrt_of_single_atom_radical_witness():
    verdict = sqrt_of(make_measure([(2, 1)]))
    assert verdict.outcome == WITNESS
    pos = verdict.witness.support[0]
    assert pos.squared() == 2  # the atom sits at sqrt(2)


def test_sqrt_of_radical_positions_not_searched():
    mu = make_measure([(Position(F(1), 1, F(2)), 1)])
    with pytest.raises(MeasureError, match="power_positions"):
        sqrt_of(mu)


def test_sqrt_no_candidate_top_atom():
    # no atom squares to the product of the extremes: the second root atom
    # already squares beyond the top atom
    mu = make_measure([(1, F(1, 3)), (2, F(1, 3)), (3, F(1, 3))])
    verdict = sqrt_of(mu)
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "peel-overflow"


def test_second_radical_falls_back_to_numerics():
    # the masses force sqrt(2) for the first root atom and sqrt(3) for the
    # last; relative to sqrt(a_1) every forced mass stays rational, so the
    # refutation is exact and carries no numeric note
    target = make_measure([(1, 2), (2, 4), (4, F(13, 2)), (8, 10), (16, 12),
                           (32, 6), (64, 3)])
    verdict = sqrt_of(target)
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "peel-overflow"
    assert not verdict.notes


def test_conflicting_derivations_name_both_paths():
    # on root support {1,2,4} the products force b3 = 1 while the square at
    # 16 forces b3 = 3; the peel takes b3 = 1 from the products, and the
    # certificate names the leftover atom at 16 and the top atom it exceeds
    target = make_measure([(1, 1), (2, 2), (4, 3), (8, 2), (16, 9)])
    verdict = sqrt_of(target)
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "peel-overflow"
    assert verdict.certificate.indices == (5,)
    assert "y*y1 = 16" in verdict.certificate.message
    assert "top atom 16" in verdict.certificate.message


def test_build_system_detects_missing_product():
    # a root on {1,2,3} would put the product 2*2 = 4 into its square, and
    # the target has no atom there: the mass forced at 4 is negative
    target = make_measure([(v, F(1, 6)) for v in (1, 2, 3, 6, 9)])
    peel = _first_verdict(target)
    assert peel.outcome == IMPOSSIBLE
    assert peel.certificate.rule == "peel-nonpositive-mass"
    assert peel.certificate.indices == ()
    assert "sits at the position with square 16" in peel.certificate.message
    assert "-1/8" in peel.certificate.message
    assert sqrt_of(target).certificate.rule == "peel-nonpositive-mass"


def test_real_mode_root_with_two_radical_masses():
    # same support, but masses actually of the form (sqrt2, sqrt2, sqrt3,
    # sqrt3) squared; only the real path can represent the witness
    import mpmath
    from mpmath import workprec

    with workprec(128):
        s2, s3, s6 = mpmath.sqrt(2), mpmath.sqrt(3), mpmath.sqrt(6)
        masses = [2, 4, 2 * s6 + 2, 4 * s6, 2 * s6 + 3, 6, 3]
    target = make_measure(list(zip((1, 2, 4, 8, 16, 32, 64), masses)),
                          mode="real")
    verdict = sqrt_of(target)
    assert verdict.outcome == WITNESS
    assert verify_witness(verdict.witness, target)


# ---------------------------------------------------------------------------
# cross-cutting invariants
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([3, 5, 6]))
def test_sqrt_witness_implies_transform_witness(seed, p):
    mu = generate(GeneratorSpec(p, "with-root", seed)).measure
    if sqrt_of(mu).outcome == WITNESS:
        assert aluthge_subnormal(mu).outcome == WITNESS


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([3, 4, 5, 6]),
       st.sampled_from([F(1, 2), F(3), F(9), F(2, 5)]))
def test_transform_verdict_scaling_invariant(seed, p, factor):
    mode = "with-aluthge-root" if p != 4 else "arbitrary"
    mu = generate(GeneratorSpec(p, mode, seed)).measure
    assert aluthge_subnormal(mu).outcome == \
        aluthge_subnormal(scale_positions(mu, factor)).outcome


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([3, 4, 5, 6]),
       st.integers(2, 3))
def test_transform_verdict_power_invariant(seed, p, k):
    mode = "with-aluthge-root" if p != 4 else "arbitrary"
    mu = generate(GeneratorSpec(p, mode, seed)).measure
    assert aluthge_subnormal(mu).outcome == \
        aluthge_subnormal(power_positions(mu, k)).outcome


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([3, 5, 6]))
def test_transform_witness_support_matches_measure(seed, p):
    mu = generate(GeneratorSpec(p, "with-aluthge-root", seed)).measure
    verdict = aluthge_subnormal(mu)
    assert verdict.outcome == WITNESS
    assert [q.squared() for q in verdict.witness.support] == \
        [q.squared() for q in mu.support]


def _dict_square(q):
    """q * q for a dict {position: mass}, zero masses dropped."""
    out = {}
    for x, a in q.items():
        for y, b in q.items():
            out[x * y] = out.get(x * y, 0) + a * b
    return {x: m for x, m in out.items() if m}


# signed Q with mu = Q * Q > 0 and N = Q * t(Q) >= 0: W~_mu is subnormal with
# Berger measure N / sqrt(g_0 g_1); the masses of Q * Q cancel at 8 (and at
# 32 for p = 7), where N has atoms
_OFF_SUPPORT = [
    (7, {1: 1, 2: 2, 4: -1, 8: 2, 16: 1}, (1, 6, 3, 6, 61, 12, 12, 48, 16)),
    (8, {1: 1, 2: 3, 4: -1, 8: 3, 16: 3},
     (1, 9, 13, 9, 145, 126, 12, 216, 144)),
]


@pytest.mark.parametrize("p, q, n", _OFF_SUPPORT)
def test_transform_witness_off_the_support(p, q, n):
    mu_atoms = _dict_square(q)
    mu = make_measure(list(mu_atoms.items()))
    assert mu.p == p and 8 not in mu_atoms
    assert sqrt_of(mu).outcome == IMPOSSIBLE
    berger = {2 ** i: F(m) for i, m in enumerate(n)}
    # N is Q * t(Q), and its moments square to g_k g_{k+1}: plain sums
    n_dict = {}
    for x, a in q.items():
        for y, b in q.items():
            n_dict[x * y] = n_dict.get(x * y, 0) + a * b * y
    assert n_dict == berger
    for k in range(40):
        g_k = sum(F(m) * x ** k for x, m in mu_atoms.items())
        g_k1 = sum(F(m) * x ** (k + 1) for x, m in mu_atoms.items())
        assert sum(m * x ** k for x, m in berger.items()) ** 2 == g_k * g_k1
    exact = aluthge_subnormal(mu)
    assert exact.outcome == WITNESS
    assert dict(exact.witness.atoms) == {Position.of(x): m
                                         for x, m in berger.items()}
    for bits in (128, 53):
        verdict = aluthge_subnormal(mu.to_real(bits))
        assert verdict.outcome == WITNESS
        assert [pos for pos, _ in verdict.witness.atoms] == \
            [Position.of(x) for x in berger]
        assert [float(w) for _, w in verdict.witness.atoms] == list(n)


@pytest.mark.parametrize("p, q, n", _OFF_SUPPORT)
def test_off_support_witnesses_pass_the_structural_rules(p, q, n):
    # the rules and the cardinality bounds are necessary for mu * t(mu) to
    # have a root on any support: a witness off supp(mu) passes them all
    mu = make_measure(list(_dict_square(q).items()))
    assert structural_certificate(mu) is None
    assert structural_certificate(mu, exhaustive=True) == []
    assert cardinality_check(mu).ok


def test_no_structural_rule_fires_on_a_transform_witness():
    # every generate mode and style at p = 1..23, seeds 1..8: wherever the
    # transform has a witness no rule fires, no cardinality bound fails
    # and, at p = 3..6, the closed form finds the witness too
    witnesses = 0
    for seed in range(1, 9):
        for p in range(1, 24):
            for mu in _generated(p, seed):
                if aluthge_subnormal(mu).outcome != WITNESS:
                    continue
                witnesses += 1
                assert structural_certificate(mu) is None, mu
                assert cardinality_check(mu).ok, mu
                if 3 <= mu.p <= 6:
                    assert classify_small(mu).outcome == WITNESS, mu
    assert witnesses >= 100


def test_verdict_json_shape(three_atom_square):
    data = aluthge_subnormal(three_atom_square).to_json_dict()
    assert set(data) == {"outcome", "witness", "certificate", "residual",
                         "precision_bits", "notes"}
    assert data["outcome"] == "witness"
    assert data["witness"]["mode"] == "rational"
    assert data["certificate"] is None

    bad = make_measure([(1, F(1, 3)), (2, F(1, 3)), (4, F(1, 3))])
    data = aluthge_subnormal(bad).to_json_dict()
    assert data["outcome"] == "impossible"
    assert set(data["certificate"]) == {"rule", "indices", "message"}


# ---------------------------------------------------------------------------
# real masses past the first verdict: the signed peel on balls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, seed", [(10, 1), (10, 2), (20, 1), (20, 2)])
def test_real_square_has_a_transform_witness(q, seed):
    # the peel of the product table of mu * t(mu) lost these to its error;
    # the signed root of mu is the root itself, and N = Q * t(Q)
    rho = generate(GeneratorSpec(q, "arbitrary", seed)).measure
    square = convolve(rho, rho)
    root, transform = solver.verdicts(square.to_real(128))
    assert root.outcome == transform.outcome == WITNESS
    exact = aluthge_subnormal(square).witness
    assert [pos for pos, _ in transform.witness.atoms] == list(exact.support)
    for (_, got), want in zip(transform.witness.atoms, exact.weights):
        assert abs(mpf_to_fraction(got) / want - 1) < F(1, 2 ** 60)


def _ladder_seed_two(q, copy):
    """The geometric square of q root atoms and its twin, as the geo-ladder
    benchmark draws them for seed 2 and the given copy: ratios by q, masses
    from one random stream per copy."""
    ratios = (F(2), F(3), F(3, 2), F(5, 2), F(4, 3), F(5, 3))
    rng = random.Random(40_000_000 + 4 * 2 + copy)
    for size in range(3, q + 1):
        ratio = ratios[size % len(ratios)]
        rho = make_measure([(ratio ** i, F(rng.randint(1, 9),
                                           rng.randint(1, 6)))
                            for i in range(size)])
    square = convolve(rho, rho)
    atoms = list(square.atoms)
    atoms[-1] = (atoms[-1][0], 2 * atoms[-1][1])
    return square, make_measure(atoms)


def test_real_geometric_ladder_is_decided():
    # q = 11, ratio 5/3: the peel of mu * t(mu) left these three undetermined
    # at 128 bits; the signed root of mu decides them as the exact input is
    # decided
    square, twin = _ladder_seed_two(11, 0)
    other, _ = _ladder_seed_two(11, 1)
    for mu, want in ((square, WITNESS), (twin, IMPOSSIBLE), (other, WITNESS)):
        assert aluthge_subnormal(mu).outcome == want
        assert aluthge_subnormal(mu.to_real(128)).outcome == want


def _corner(mu, eps, rng):
    """A rational measure at a corner of the box of the real ``mu``: each
    mass times 1 + eps or 1 - eps."""
    return make_measure([(pos, mpf_to_fraction(w) * (1 + rng.choice((-1, 1))
                                                     * eps))
                         for pos, w in mu.atoms])


@pytest.mark.parametrize("bits", [64, 128])
def test_real_impossible_holds_for_the_whole_box(bits):
    # a real impossible holds for every measure within relative eps of the
    # masses: for the rational original, and at seeded corners of the box
    rng = random.Random(bits)
    config = SolverConfig(bits)
    refuted = Counter()
    for p in range(3, 13):
        for seed in (1, 2, 3, 4):
            for exact in _generated(p, 6000 + seed):
                mu = exact.to_real(bits)
                root, transform = solver.verdicts(mu, config)
                for name, verdict in (("sqrt", root), ("aluthge", transform)):
                    if verdict.outcome != IMPOSSIBLE:
                        continue
                    refuted[name, verdict.certificate.rule] += 1
                    decide = sqrt_of if name == "sqrt" else aluthge_subnormal
                    for other in [exact] + [_corner(mu, config.radius, rng)
                                            for _ in range(2)]:
                        assert decide(other).outcome == IMPOSSIBLE, (other,
                                                                     name)
    assert refuted["aluthge", "peel-overflow"] >= 80
    assert refuted["aluthge", "peel-nonpositive-mass"] >= 15
    assert refuted["sqrt", "peel-nonpositive-mass"] >= 60


def test_real_transform_refutes_by_a_negative_atom_of_n():
    # signed squares whose N = Q * t(Q) has a negative mass: the real peel
    # refutes at the same atom of N, its ball wholly below 0
    for q in _NOT_SUBNORMAL:
        mu = make_measure(list(_dict_square(q).items()))
        exact = aluthge_subnormal(mu).certificate
        real = aluthge_subnormal(mu.to_real(128)).certificate
        assert real.rule == exact.rule == "peel-nonpositive-mass"
        assert real.indices == exact.indices
        assert " +- " in real.message
        where = exact.message.split("; ")[0]
        assert real.message.startswith(where)


def test_real_transform_certificate_names_no_signed_square():
    # a residual ball that excludes 0 beyond the top: mu is no signed square
    mu = make_measure([(1, F(1, 3)), (2, F(1, 3)), (4, F(1, 3))])
    verdict = aluthge_subnormal(mu.to_real(128))
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "peel-overflow"
    assert verdict.certificate.message == \
        aluthge_subnormal(mu).certificate.message


def test_overflow_before_the_first_verdict_forms_no_atom_of_n(monkeypatch):
    # Q >= 0 up to an overflow before the square-root verdict, so no atom
    # of N = Q * t(Q) could refute the transform: the peel goes straight to
    # peel-overflow, for exact masses and for balls alike
    calls = []
    add_pairs = solver._add_pairs

    def spy(*args):
        calls.append(args)
        return add_pairs(*args)
    monkeypatch.setattr(solver, "_add_pairs", spy)
    mu = make_measure([(1, F(1, 3)), (2, F(1, 3)), (4, F(1, 3))])
    for case in (mu, mu.to_real(128)):
        rules = [verdict.certificate.rule for verdict in verdicts(case)]
        assert rules == ["peel-overflow", "peel-overflow"]
    assert calls == []


# SHA-256 of both verdicts of each measure below and of the first verdict
# of its peel, taken before exact masses ran the ball loop of the peel at
# radius 0: that merge must not move a verdict, a certificate or a radius
VERDICT_DIGEST = (
    "322ba6dffb80905445d620d18f13a12eda1b83d24ff9117257770931f5630226")


def _exact(c):
    return type(c).__name__, c if isinstance(c, F) else mpf_to_fraction(c)


def _verdict_record(mu, config):
    try:
        both = [verdict.to_json_dict() for verdict in verdicts(mu, config)]
    except MeasureError as exc:
        return f"error: {exc}\n"
    peel = _first_verdict(mu, config)
    cert = peel.certificate
    return json.dumps(both, sort_keys=True) + repr((
        peel.outcome, [(j, _exact(c)) for j, c in peel.root],
        _exact(peel.residual), peel.radii, peel.maybe, peel.note,
        cert.to_json_dict() if cert else None)) + "\n"


def _seeded_mix():
    """Seeded instances of every mode and style for p = 1..12."""
    cases = []
    for seed in range(8):
        for p in range(1, 13):
            for mode in MODES:
                for style in ("geometric", "random"):
                    try:
                        cases.append(generate(GeneratorSpec(
                            p, mode, seed, position_style=style)).measure)
                    except MeasureError:
                        pass
    return cases


def test_verdict_output_is_pinned():
    # the seeded mix and signed squares, with exact masses and at 3, 24 and
    # 128 bits, where radius 1/4 leaves many balls holding 0 and the signed
    # peel parts from the square-root peel
    cases = _seeded_mix() + _signed_squares(80, 28) + [make_measure(list(
        _dict_square(q).items())) for _, q, _ in _OFF_SUPPORT]
    digest = hashlib.sha256()
    for mu in cases:
        digest.update(_verdict_record(mu, SolverConfig()).encode())
        for bits in (3, 24, 128):
            digest.update(_verdict_record(mu.to_real(bits),
                                          SolverConfig(bits)).encode())
    assert digest.hexdigest() == VERDICT_DIGEST


# SHA-256 of the transform verdict, JSON and text, of each measure of
# :func:`_radical_cases`, exact and at 24 and 128 bits: the signed peel of
# mu on radical positions, N's masses in Q(sqrt b), recorded when that
# peel replaced the peel of the table of mu * t(mu)
RADICAL_TRANSFORM_DIGEST = (
    "ed632a368a699c3e2ac862c2403a31ba3ddb15875e841efa693ab09b357bc10c")


def _radical_cases():
    """Seeded measures over the radical bases 2, 3 and 5/2: uniformly
    radical and mixed supports, and squares of roots on the powers of
    c*sqrt(b) with their top-doubled twins."""
    rng = random.Random(32)
    cases = []
    for base in (F(2), F(3), F(5, 2)):
        for uniform in (True, False):
            for _ in range(8):
                atoms = {}
                for n in range(rng.randint(1, 6)):
                    k = 1 if uniform or not n else rng.randint(0, 1)
                    q = F(rng.randint(1, 12), rng.randint(1, 3))
                    atoms[Position(q, k, base)] = F(rng.randint(1, 9),
                                                    rng.randint(1, 5))
                cases.append(make_measure(list(atoms.items()), base=base))
        for _ in range(4):
            step = Position(rng.choice((F(1), F(3, 2), F(2))), 1, base)
            root = make_measure(
                [(step.power(i + 1), F(rng.randint(1, 9), rng.randint(1, 5)))
                 for i in range(rng.randint(2, 5))], base=base)
            square = convolve(root, root)
            atoms = list(square.atoms)
            atoms[-1] = (atoms[-1][0], 2 * atoms[-1][1])
            cases += [square, make_measure(atoms, base=base)]
    return cases


def test_radical_transform_output_is_pinned():
    # verdicts refuses radical positions, so the pin above does not reach
    # the transform on them; every case is decided, at 24 bits too
    digest = hashlib.sha256()
    outcomes = set()
    for mu in _radical_cases():
        for bits in (None, 24, 128):
            verdict = (aluthge_subnormal(mu) if bits is None else
                       aluthge_subnormal(mu.to_real(bits), SolverConfig(bits)))
            outcomes.add(verdict.outcome)
            digest.update((json.dumps(verdict.to_json_dict(), sort_keys=True)
                           + verdict.render() + "\n").encode())
    assert outcomes == {WITNESS, IMPOSSIBLE}
    assert digest.hexdigest() == RADICAL_TRANSFORM_DIGEST


# SHA-256 of real-mode analysis, at 3, 24, 53, 128 and 256 bits, of the
# real twins of the seeded mix: the JSON and text of ``analyze`` with 5
# shift terms, the measure document, convolve(mu, mu), t_weight, normalize
# and the total mass, taken while real mode still rounded through mpmath's
# libmp: rounding on ints must not move any of it
REAL_ANALYZE_DIGEST = (
    "9f4817ca8f643ded41332766b4e224cdf0e0dbac4a390e878ea4522f99bcfe2c")
# the same of the real twins of :func:`_radical_cases`, recorded when the
# transform on radical positions moved to the signed peel of mu
RADICAL_REAL_ANALYZE_DIGEST = (
    "ebca294d3c780d48e9090397c6f98db4d8ebab68761414db08c8eb17979b5ee2")


def _real_record(mu, bits):
    def exact(op, *args):
        try:
            value = op(*args)
        except MeasureError as exc:
            return f"error: {exc}"
        return (dumps_measure(value) if hasattr(value, "atoms")
                else repr(value._mpf_))

    report = analyze(mu, AnalyzeOptions(SolverConfig(bits), 5))
    body = strip_zero_atom(mu)[1]
    return "\n".join([
        json.dumps(report.to_json_dict(), sort_keys=True), report.render(),
        dumps_measure(mu), exact(convolve, body, body, bits),
        exact(t_weight, body, bits), exact(normalize, mu, bits),
        exact(mu.total_mass)]) + "\n"


def _real_digest(cases):
    digest = hashlib.sha256()
    for mu in cases:
        for bits in (3, 24, 53, 128, 256):
            digest.update(_real_record(mu.to_real(bits), bits).encode())
    return digest.hexdigest()


def test_real_analyze_output_is_pinned():
    # no other pin reaches real analyze, convolve, t_weight or normalize
    assert _real_digest(_seeded_mix()) == REAL_ANALYZE_DIGEST


def test_radical_real_analyze_output_is_pinned():
    assert _real_digest(_radical_cases()) == RADICAL_REAL_ANALYZE_DIGEST


# SHA-256 of both verdicts, JSON and text, of `gen --p 400 --seed 1` (two
# peel-nonpositive-mass certificates), `gen --p 300 --mode arbitrary --style
# random --seed 1` (peel-nonpositive-mass and peel-overflow) and the 204-atom
# square of `gen --p 20 --style random --seed 1` (two witnesses, x_1 = 4/49),
# taken before certificates were printed from int keys: large supports must
# print the same values
LARGE_VERDICT_DIGEST = (
    "f8b73b7da19038376b7bbd5b31a1edab52f4d83b7f11818eb6553e41334ad0ab")


def test_large_verdict_output_is_pinned():
    random20 = generate(GeneratorSpec(20, "arbitrary", 1,
                                      position_style="random")).measure
    cases = [generate(GeneratorSpec(400, "arbitrary", 1)).measure,
             generate(GeneratorSpec(300, "arbitrary", 1,
                                    position_style="random")).measure,
             convolve(random20, random20)]
    digest = hashlib.sha256()
    rules = []
    for mu in cases:
        both = list(verdicts(mu))
        rules.append([v.certificate.rule if v.certificate else v.outcome
                      for v in both])
        digest.update((json.dumps([v.to_json_dict() for v in both],
                                  sort_keys=True)
                       + "".join(v.render() for v in both) + "\n").encode())
    assert rules == [["peel-nonpositive-mass"] * 2,
                     ["peel-nonpositive-mass", "peel-overflow"],
                     [WITNESS, WITNESS]]
    assert digest.hexdigest() == LARGE_VERDICT_DIGEST


def test_the_radical_test_builds_no_support(monkeypatch):
    # has_radical reads the atoms; a refuted rational measure places no
    # witness, so deciding it reads no support tuple at all
    for mu in _radical_cases() + _seeded_mix()[:100]:
        assert has_radical(mu) == any(pos.k == 1 for pos in mu.support)
    mu = make_measure([(1, F(1, 3)), (2, F(1, 3)), (4, F(1, 3))])
    cases = mu, mu.to_real(128)
    reads = []
    support = AtomicMeasure.support.fget
    monkeypatch.setattr(AtomicMeasure, "support",
                        property(lambda mu: reads.append(mu) or support(mu)))
    for case in cases:
        assert [v.outcome for v in verdicts(case)] == [IMPOSSIBLE] * 2
        assert aluthge_subnormal(case).outcome == IMPOSSIBLE
    assert reads == []


def test_radical_transform_peels_the_table_of_mu(monkeypatch):
    # radical positions are peeled as rational ones are: the one table
    # peeled is that of mu itself, at the configured radius
    peeled = []
    peel = solver._peel

    def spy(target, config, signed=True):
        peeled.append(target)
        return peel(target, config, signed)

    monkeypatch.setattr(solver, "_peel", spy)
    eps = F(1, 2 ** 70)
    for mu in _radical_cases()[::3]:
        mu = mu.to_real(128)
        peeled.clear()
        aluthge_subnormal(mu, SolverConfig(128, eps))
        expected = table(mu, 128, eps)
        [got] = peeled
        assert (got.keys, got.scale, got.radius, got.masses, got.den) == \
            (expected.keys, expected.scale, expected.radius,
             expected.masses, expected.den)


def _radical_reference(atoms, base):
    """The transform verdict of the measure {(q, k): mass} on the positions
    q*sqrt(base)^k, from plain Fractions and dict products: the root N of
    T = mu * t(mu), peeled smallest atom first relative to its first mass,
    over Q(sqrt(base)) held as pairs (a, b) for a + b*sqrt(base).  None
    when T has no nonnegative root, else N's atoms {(q, k): (a, b)}, each
    mass over a_1*sqrt(x_1)."""
    def times(x, y):
        (p, j), (q, k) = x, y
        return (p * q * base, 0) if j + k == 2 else (p * q, j + k)

    def over(x, y):
        (p, j), (q, k) = x, y
        return (p / q / base, 1) if j < k else (p / q, j - k)

    def square(x):
        return x[0] * x[0] * base ** x[1]

    def mul(u, v):
        return u[0] * v[0] + u[1] * v[1] * base, u[0] * v[1] + u[1] * v[0]

    def add(acc, x, u):
        old = acc.get(x, (F(0), F(0)))
        acc[x] = old[0] + u[0], old[1] + u[1]

    def sign(u):
        if u[0] * u[1] >= 0:
            return (u[0] > 0 or u[1] > 0) - (u[0] < 0 or u[1] < 0)
        larger = u[0] if u[0] * u[0] > u[1] * u[1] * base else u[1]
        return 1 if larger > 0 else -1

    product = {}
    for x, a in atoms.items():
        for y, c in atoms.items():
            add(product, times(x, y), (a * c * (1 - y[1]) * y[0],
                                       a * c * y[1] * y[0]))
    order = sorted([x for x, m in product.items() if any(m)], key=square)
    first, top = product[order[0]], square(order[-1])
    norm = first[0] * first[0] - first[1] * first[1] * base
    residual = {x: mul(product[x], (first[0] / norm, -first[1] / norm))
                for x in order[1:]}
    x1 = min(atoms, key=square)
    root = {x1: (F(1), F(0))}
    while True:
        live = [x for x, m in residual.items() if any(m)]
        if not live:
            return root
        z = min(live, key=square)
        # pairs with the first atom too: that of y clears z
        c, y = (residual[z][0] / 2, residual[z][1] / 2), over(z, x1)
        if sign(c) < 0 or square(times(y, y)) > top:
            return None
        for other, d in root.items():
            add(residual, times(y, other), mul((-2 * c[0], -2 * c[1]), d))
        add(residual, times(y, y), mul((-c[0], -c[1]), c))
        root[y] = c


def _radical_reference_cases():
    """Seeded squares of roots on c*sqrt(b)^k, each with its top-doubled
    twin, signed squares on the powers of sqrt(b), the measures of
    :func:`_radical_cases`, and the 27-atom square of CI's radical family
    with its twin; as ({(q, k): mass}, base)."""
    rng = random.Random(38)

    def squared(q, base):
        out = {}
        for (p, j), a in q.items():
            for (r, k), b in q.items():
                x = (p * r * base, 0) if j + k == 2 else (p * r, j + k)
                out[x] = out.get(x, 0) + a * b
        return {x: m for x, m in out.items() if m}

    def with_twin(square, base):
        top = max(square, key=lambda x: x[0] * x[0] * base ** x[1])
        return [(square, base), ({**square, top: 2 * square[top]}, base)]

    cases = []
    for base in (F(2), F(3), F(5, 2)):
        for _ in range(6):
            root = {(F(rng.randint(1, 12), rng.randint(1, 3)),
                     rng.randint(0, 1)): F(rng.randint(1, 9), rng.randint(1, 5))
                    for _ in range(rng.randint(2, 6))}
            cases += with_twin(squared(root, base), base)
        found = 0
        while found < 6:
            signed = {(F(1), 0): F(1)}
            for i in range(1, rng.randint(3, 6)):
                signed[(base ** (i // 2), i % 2)] = F(
                    rng.choice((-2, -1, 1, 2, 3)), rng.randint(1, 3))
            square = squared(signed, base)
            if all(m > 0 for m in square.values()):
                cases.append((square, base))
                found += 1
    for mu in _radical_cases():
        cases.append(({(pos.q, pos.k): w for pos, w in mu.atoms}, mu.base))
    family = {(F(3, 2) ** i, i % 2): F(1 + i % 7, 1 + i % 5)
              for i in range(10)}
    return cases + with_twin(squared(family, F(2)), F(2))


def test_radical_transform_matches_fraction_reference():
    # N over Q(sqrt b) from dict products decides every case, with rational
    # masses and at to_real(128) alike: the same outcome, and a witness on
    # its support with its masses a_1*sqrt(x_1)*N_j/N_1, rounded at 128
    # bits or within the error carried; both certificates occur
    rules = Counter()
    for atoms, base in _radical_reference_cases():
        mu = make_measure([(Position(q, k, base), w)
                           for (q, k), w in atoms.items()], base=base)
        reference = _radical_reference(atoms, base)
        for real in (False, True):
            verdict = (aluthge_subnormal(mu.to_real(128), SolverConfig(128))
                       if real else aluthge_subnormal(mu))
            cert = verdict.certificate
            rules[real, cert.rule if cert else verdict.outcome] += 1
            assert verdict.outcome == (
                IMPOSSIBLE if reference is None else WITNESS), (atoms, real)
            if reference is None:
                continue
            got = dict(verdict.witness.atoms)
            assert set(got) == {Position(q, k, base) for q, k in reference}
            with workprec(256):
                root = mpmath.sqrt(to_mpf(base, 256))
                scale = to_mpf(mu.atoms[0][1], 256) * mpmath.sqrt(
                    from_raw(position_raw(mu.atoms[0][0], 256)))
                bound = mpf(2) ** (-50 if real else -120)
                for (q, k), (a, b) in reference.items():
                    want = (a + b * root) * scale
                    assert abs(to_mpf(got[Position(q, k, base)], 256)
                               - want) <= bound * want, (atoms, real)
    for real in (False, True):
        assert all(rules[real, rule] for rule in (
            WITNESS, "peel-overflow", "peel-nonpositive-mass"))


def test_real_square_root_verdict_is_the_first_verdict_peel(monkeypatch):
    # where a residual ball holds 0 off mu's atoms or around a negative
    # midpoint, the signed peel parts from the square-root peel; the square
    # root is then peeled again, stopped at its first verdict, and equals
    # the verdict of a peel that never goes past it
    forks = []
    peel = solver._peel

    def spy(target, config, signed=True):
        forks.append(signed)
        return peel(target, config, signed)

    cases = [(mu.to_real(128), SolverConfig()) for p in (5, 6)
             for seed in range(1, 9) for mu in _generated(p, 7000 + seed)]
    # at 3 bits a ball holds 0 around a negative midpoint of Q: the signed
    # reading has no square-root witness there, the second peel has one
    low = generate(GeneratorSpec(6, "perturbed", 29)).measure.to_real(3)
    cases.append((low, SolverConfig(3)))
    monkeypatch.setattr(solver, "_peel", spy)
    got = [sqrt_of(mu, config).to_json_dict() for mu, config in cases]
    assert forks.count(False) >= 5
    assert got[-1]["outcome"] == WITNESS and forks[-2:] == [True, False]
    monkeypatch.setattr(solver, "_peel", lambda target, config, signed=True:
                        peel(target, config, False))
    assert got == [sqrt_of(mu, config).to_json_dict()
                   for mu, config in cases]


def test_real_signed_root_is_capped(monkeypatch):
    # past the cap on Q's atom count the transform is undetermined
    q, _ = _OFF_SUPPORT[0][1:]
    mu = make_measure(list(_dict_square(q).items())).to_real(128)
    assert aluthge_subnormal(mu).outcome == WITNESS
    monkeypatch.setattr(solver, "_ROOT_CAP", F(1, 2))
    verdict = aluthge_subnormal(mu)
    assert verdict.outcome == UNDETERMINED
    assert verdict.notes == ("the signed square root of mu reached 7/2 "
                             "atoms, 1/2 per atom of mu, before mu - Q^2 "
                             "vanished",)


def _reference_transform_peel(target, config=SolverConfig()):
    """The transform verdict of the peel of ``target`` on Fraction
    midpoints and radii: the signed root Q and N = Q * t(Q), computed from
    Q once Q is known, against which the int peel's second verdict is
    compared field by field.

    Balls start as in :func:`_reference_peel`.  Up to the point where the
    square-root verdict is final, a residual ball that holds 0 is a maybe
    atom of mass in [0, hi] at an atom of mu below the top, as for the
    square root; that verdict is final at a ball wholly below 0, at a
    positive ball beyond the top, and at a ball that holds 0 off mu's atoms
    or around a negative midpoint where Q could sit.  From then on a ball
    that holds 0 where Q could sit (on the lattice, at or below the top) is
    a maybe atom of either sign.  The peel of Q stops at a ball that
    excludes 0 where Q cannot sit (no signed square) and past the cap on
    its atoms; an atom of N below that point whose ball lies wholly below 0
    refutes first."""
    exact = target.mode == "rational"
    bits = config.precision_bits
    eps = F(0) if exact else config.radius
    tabled = table(target, bits, eps)
    if eps >= 1:
        return Peel(UNDETERMINED,
                    note=f"at relative error {float(eps):.3g} a mass may be 0")
    weights = [w if exact else mpf_to_fraction(w) for _, w in target.atoms]
    den = 1
    for w in weights:
        den = den * w.denominator // gcd(den, w.denominator)
    spread = 2 * eps / (1 - eps)
    if eps:
        smallest = spread.numerator * 2 * min(weights) * den
        den <<= max(0, 32 + spread.denominator.bit_length()
                    - int(smallest).bit_length())
    d = 2 * weights[0] * den
    masses = [(w / weights[0], ceil(spread * w / weights[0] * d) / d)
              for w in weights]

    def shown(x):
        return x if exact else to_mpf(x, bits)

    keys = int_keys(target.support)
    k1 = keys[0]
    index = {key * k1: j for j, key in enumerate(keys)}
    residual = {key * k1: mass for key, mass in zip(keys[1:], masses[1:])}
    heap = sorted(residual)
    limit = keys[-1] * k1 ** 3
    root = [(k1, (F(1), F(0)))]
    radii, maybe = [F(0)] * target.p, []
    stop, signed = None, False
    cap = solver._ROOT_CAP * target.p
    while heap:
        z = heappop(heap)
        mid, rad = residual.pop(z)
        j = index.get(z)
        if j is not None:
            radii[j] = rad
        free = z * z <= limit and z % k1 == 0
        if abs(mid) <= rad:
            if not free or mid == rad == 0:
                continue
            if not signed and (j is None or mid < 0):
                signed = True
            c = (F(0), ((abs(mid) if signed else mid) + rad) / 2)
            maybe.append(j)
        else:
            if not signed and (mid < 0 or not free):
                signed = True
            if signed and not free:
                stop = z, Peel(IMPOSSIBLE, certificate=solver._no_signed_square(
                    tabled, len(root), z, j, z * z > limit))
                break
            c = (mid / 2, rad / 2)
        if signed and len(root) >= cap:
            stop = z, Peel(UNDETERMINED, note=(
                f"the signed square root of mu reached {cap} atoms, "
                f"{solver._ROOT_CAP} per atom of mu, before mu - Q^2 "
                "vanished"))
            break
        key = z // k1
        for other, mass in root[1:]:
            _reference_subtract(residual, heap, other * key,
                                _ball_product((2 * c[0], 2 * c[1]), mass))
        _reference_subtract(residual, heap, key * key, _ball_product(c, c))
        root.append((key, c))
    # N = Q * t(Q) at K_a*K_b, relative to its first mass and times R_1
    n_balls = {}
    for i, (ka, ca) in enumerate(root):
        for kb, cb in root[:i + 1]:
            factor = isqrt(ka) + isqrt(kb) if kb != ka else isqrt(ka)
            mid, rad = _ball_product(ca, cb)
            old = n_balls.get(ka * kb, (F(0), F(0)))
            n_balls[ka * kb] = (old[0] + mid * factor, old[1] + rad * factor)
    r1 = isqrt(k1)
    final = []
    for w in sorted(n_balls):
        if stop and w >= stop[0]:
            break
        mid, rad = n_balls[w]
        if mid + rad < 0:
            return Peel(IMPOSSIBLE, certificate=solver._negative(
                tabled, len(final), w, shown(mid / r1),
                shown(rad / r1) if rad else None,
                lambda n, q: shown(F(n, q))))
        if mid:
            final.append((w, mid))
    if stop:
        return stop[1]
    square = {}
    for i, (ka, ca) in enumerate(root):
        for kb, cb in root[:i + 1]:
            term = ca[0] * cb[0] * (2 if kb != ka else 1)
            square[ka * kb] = square.get(ka * kb, 0) + term
    square = {key: m for key, m in square.items() if m}
    ok = sorted(square) == [key * k1 for key in keys] and all(
        abs(square[key * k1] - mass) <= radius
        for key, (mass, _), radius in zip(keys, masses, radii))
    if not ok:
        assert not exact
        return Peel(UNDETERMINED, note=solver.UNVERIFIED)
    if any(mid < 0 for _, mid in final):
        return Peel(UNDETERMINED, note=(
            "an atom of N = Q*t(Q) has a negative midpoint and a mass bound "
            "that includes 0"))
    worst = max(r / (w / weights[0]) for r, w in zip(radii, weights))
    return Peel(WITNESS, root=tuple((w, shown(mid / r1)) for w, mid in final),
                residual=worst if exact else to_mpf(worst, bits),
                maybe=tuple(maybe))


@st.composite
def _transform_targets(draw):
    """Targets on rational positions for the signed peel: those of the
    first-verdict reference, and signed squares, with one mass moved by a
    small relative amount or not, exact and at 64 and 128 bits."""
    if draw(st.booleans()):
        target, config = draw(_peel_targets())
        assume(all(pos.k == 0 for pos in target.support))
        return target, config
    q = draw(st.sampled_from(_NOT_SUBNORMAL + [q for _, q, _ in _OFF_SUPPORT]
                             + [None]))
    if q is None:
        target = _signed_squares(1, draw(st.integers(0, 10_000)))[0]
    else:
        target = make_measure(list(_dict_square(q).items()))
    atoms = list(target.atoms)
    k = draw(st.integers(0, len(atoms) - 1))
    shift = draw(st.sampled_from([F(0), F(1, 2 ** 70), F(1, 2 ** 40),
                                  F(-1, 10 ** 6), F(1, 1000)]))
    atoms[k] = (atoms[k][0], atoms[k][1] * (1 + shift))
    target = make_measure(atoms)
    bits = draw(st.sampled_from([None, 64, 128]))
    if bits is None:
        return target, SolverConfig()
    tolerance = draw(st.sampled_from([DEFAULT_TOLERANCE, F(1, 2 ** 40),
                                      F(1, 1000)]))
    return target.to_real(bits), SolverConfig(bits, tolerance)


@settings(max_examples=300, deadline=None)
@given(_transform_targets())
def test_transform_peel_matches_fraction_reference(case):
    # the second verdict of the int peel, field by field: Q's and N's balls
    # decide the same refutation at the same atom with the same bound, and
    # a witness has the same masses, residual and maybe atoms
    target, config = case
    peels = solver._peel(table(target, config.precision_bits, config.radius),
                         config)
    next(peels)
    assert _peel_fields(next(peels)) == \
        _peel_fields(_reference_transform_peel(target, config))
