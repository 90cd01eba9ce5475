from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf, workprec

from alsq.generate import GeneratorSpec, generate
from alsq.measures import (
    MeasureError,
    Position,
    ZeroAtomError,
    convolve,
    dirac,
    make_measure,
    power_positions,
    scale_positions,
    t_weight,
)
from alsq.solver import (
    IMPOSSIBLE,
    UNDETERMINED,
    WITNESS,
    SolverConfig,
    aluthge_subnormal,
    peel_root,
    sqrt_of,
    verify_witness,
)

F = Fraction


def _transform_peel(mu):
    return peel_root(convolve(mu, t_weight(mu)))


# ---------------------------------------------------------------------------
# the peel
# ---------------------------------------------------------------------------

def test_propagation_resolves_three_atom_system(three_atom_square):
    # root masses 1/4, 3/4, 1/2 relative to sqrt(a_1) = 1/4 of the target
    peel = _transform_peel(three_atom_square)
    assert peel.outcome == WITNESS
    assert peel.root == ((0, F(1)), (1, F(3)), (2, F(2)))


def test_propagation_single_atom():
    peel = _transform_peel(dirac(1))
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


def test_transform_support_mismatch_names_the_atom(monkeypatch,
                                                   three_atom_square):
    # the reweighted square lies on {1, 2, 4, 8, 16} and its root on
    # {1, 2, 4}; hand aluthge_subnormal roots with a stray or missing atom
    from alsq import solver

    true_root = solver.peel_root(convolve(three_atom_square,
                                          t_weight(three_atom_square)))

    def decide(root, doubt=None):
        fake = solver.Peel(WITNESS, root=root, doubt=doubt,
                           keys=true_root.keys)
        monkeypatch.setattr(solver, "peel_root", lambda target, config: fake)
        return aluthge_subnormal(three_atom_square)

    stray = decide(true_root.root + ((3, F(1)),))
    assert stray.outcome == IMPOSSIBLE
    assert stray.certificate.rule == "peel-support-mismatch"
    assert stray.certificate.indices == (4,)
    assert "atom at 8, outside supp(mu)" in stray.certificate.message
    missing = decide(true_root.root[:1] + true_root.root[2:])
    assert missing.certificate.indices == (2,)
    assert "no atom at 2" in missing.certificate.message
    doubtful = decide(true_root.root[:1], doubt="a residual was cancelled")
    assert doubtful.outcome == UNDETERMINED
    assert "peel-support-mismatch" in doubtful.notes[-1]


def test_real_mode_near_cancellation():
    # (d(1) + d(2))^2 with the top mass moved by a multiple of the tolerance:
    # within it the square is accepted, just beyond it the forced mass is
    # too small to sign, and further out the leftover atom cannot be a root
    # atom's cross term
    tol = mpf(2) ** -64

    def target(shift):
        with workprec(128):
            return make_measure([(1, 1), (2, 2), (4, 1 + shift * tol)],
                                mode="real")

    assert sqrt_of(target(F(1, 2))).outcome == WITNESS
    assert sqrt_of(target(F(3, 2))).outcome == UNDETERMINED
    verdict = sqrt_of(target(3))
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "peel-overflow"


def test_real_mode_cancelled_root_atom_is_not_refuted():
    # (d(1) + d(2) + e*d(4))^2 with e within tolerance: the peel takes the
    # residual 2e at 4 as cancelled, then meets the cross term 2e at 8, which
    # no root atom can explain; the refutation rests on the cancellation
    with workprec(128):
        target = make_measure([(1, 1), (2, 2), (4, mpf("1.0002")),
                               (8, mpf("0.0002")), (16, mpf("1e-8"))],
                              mode="real")
    verdict = sqrt_of(target, SolverConfig(tolerance=F(1, 1000)))
    assert verdict.outcome == UNDETERMINED
    assert "peel-overflow" in verdict.notes[-1]
    # the same with masses spanning 2^70 at the default tolerance, on the
    # transform question: the exact instance has a witness
    rho = make_measure([(1, 1), (2, 1), (4, F(1, 2 ** 70))])
    mu = convolve(rho, rho)
    assert aluthge_subnormal(mu).outcome == WITNESS
    assert aluthge_subnormal(mu.to_real(128)).outcome == UNDETERMINED


def test_real_mode_rounding_level_cancellation_still_refutes():
    # the product 2*2 = 4 below the top root atom 5 cancels up to rounding
    # only; doubling the top mass is still refuted
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
    assert verdict.certificate.rule == "peel-nonpositive-mass"
    assert "-9/16" in verdict.certificate.message


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


def test_transform_mass_convention(three_atom_square):
    # the witness carries total mass sqrt(gamma_1) when mu is a probability
    from alsq.measures import moment
    verdict = aluthge_subnormal(three_atom_square)
    mass = verdict.witness.total_mass()
    assert mass * mass == moment(three_atom_square, 1)


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
                    for _, c in peel_root(target).root]
    assert [w._mpf_ for w in verdict.witness.weights] == \
        [w._mpf_ for w in expected]


def test_verify_witness_compares_positions():
    witness = make_measure([(1, F(1, 2)), (2, F(1, 2))])
    square = make_measure([(1, F(1, 4)), (2, F(1, 2)), (4, F(1, 4))])
    assert verify_witness(witness, square)
    moved = make_measure([(1, F(1, 4)), (2, F(1, 2)), (5, F(1, 4))])
    assert not verify_witness(witness, moved)
    # a root over the radical base 2 squares onto rational positions
    radical = make_measure([(Position(F(1), 1, F(2)), F(1, 2)),
                            (Position(F(2), 1, F(2)), F(1, 2))])
    assert verify_witness(radical, scale_positions(square, 2))
    assert not verify_witness(radical, square)


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
    verdict = sqrt_of(dirac(2, 1))
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
    peel = peel_root(target)
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
