from fractions import Fraction

import pytest

from alsq.closed_forms import classify_small
from alsq.generate import GeneratorSpec, generate
from alsq.measures import (
    MeasureError,
    Position,
    convolve,
    make_measure,
)
from alsq.solver import (
    IMPOSSIBLE,
    UNDETERMINED,
    UNVERIFIED,
    WITNESS,
    SolverConfig,
    Verdict,
    aluthge_subnormal,
    sqrt_of,
    verify_witness,
)

F = Fraction


def test_range_is_three_to_six():
    with pytest.raises(MeasureError):
        classify_small(make_measure([(1, 1), (2, 1)]))
    with pytest.raises(MeasureError):
        classify_small(make_measure([(k, 1) for k in range(1, 8)]))


def test_three_atom_witness(three_atom_square):
    verdict = classify_small(three_atom_square)
    assert verdict.outcome == WITNESS
    assert verdict.witness.weights == (F(1, 2), F(1, 2))
    assert convolve(verdict.witness, verdict.witness).atoms == \
        three_atom_square.atoms


def test_three_atom_support_refutation():
    verdict = classify_small(make_measure([(1, F(1, 4)), (2, F(1, 2)),
                                           (5, F(1, 4))]))
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "three-atom-support"


def test_three_atom_weight_refutation():
    verdict = classify_small(make_measure([(1, F(1, 3)), (2, F(1, 3)),
                                           (4, F(1, 3))]))
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "three-atom-weights"


def test_four_atoms_always_refuted():
    verdict = classify_small(make_measure([(2 ** k, F(1, 4))
                                           for k in range(4)]))
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "four-atom-family"


def test_five_atom_sharp_example(five_atom_real):
    verdict = classify_small(five_atom_real)
    assert verdict.outcome == WITNESS
    assert verify_witness(verdict.witness, five_atom_real)


def test_real_mode_identities_use_configured_precision():
    # at mpmath's default 53 bits the five-atom identities fail on this
    # constructed square; they must be evaluated at the configured 128 bits
    mu = generate(GeneratorSpec(5, "with-root", 0)).measure.to_real(128)
    verdict = classify_small(mu)
    assert verdict.outcome == WITNESS
    assert verify_witness(verdict.witness, mu)


def test_real_witness_failing_its_check_is_undetermined(monkeypatch):
    # the identities hold for these masses rounded to 64 bits within their
    # box of radius eps = 2^-63, and the witness rounded at 64 bits squares
    # back within the error the peel carries to each atom: a witness
    mu = generate(GeneratorSpec(5, "with-aluthge-root", 4046)).measure
    verdict = classify_small(mu.to_real(64), SolverConfig(64))
    assert verdict.outcome == WITNESS
    # a rounded measure whose peel finds no root (its witness failing the
    # re-check) is undetermined, not a fault
    from alsq import closed_forms

    monkeypatch.setattr(closed_forms, "sqrt_of", lambda mu, config: Verdict(
        UNDETERMINED, precision_bits=config.precision_bits))
    verdict = classify_small(mu.to_real(64), SolverConfig(64))
    assert verdict.outcome == UNDETERMINED
    assert verdict.notes == (UNVERIFIED,)


@pytest.mark.parametrize("bits", [None, 64])
def test_given_root_gives_the_same_verdict(bits):
    # analyze passes the root it already decided; alone, classify_small
    # decides it itself when the identities hold
    config = SolverConfig(bits) if bits else SolverConfig()
    outcomes = set()
    for seed in range(48):
        p = 3 + seed % 4
        kind = ("with-aluthge-root", "perturbed", "arbitrary")[seed % 3]
        if p == 4 and kind == "with-aluthge-root":
            kind = "arbitrary"
        mu = generate(GeneratorSpec(p, kind, 31_000 + seed)).measure
        if bits:
            mu = mu.to_real(bits)
        verdict = classify_small(mu, config)
        assert verdict == classify_small(mu, config,
                                         root=sqrt_of(mu, config)), seed
        outcomes.add(verdict.outcome)
    assert outcomes == {WITNESS, IMPOSSIBLE}


def test_five_atom_nongeometric_refuted():
    mu = make_measure([(v, F(1, 5)) for v in (1, 2, 4, 8, 17)])
    verdict = classify_small(mu)
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "five-atom-support"


def test_five_atom_weight_conditions_are_separate():
    base = generate(GeneratorSpec(5, "with-aluthge-root", 42)).measure
    atoms = list(base.atoms)
    pos, w = atoms[3]
    atoms[3] = (pos, w * F(3, 2))  # breaks the outer-mass identity only
    verdict = classify_small(make_measure(atoms))
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "five-atom-weights"
    assert verdict.certificate.indices == (1, 2, 4, 5)

    atoms = list(base.atoms)
    pos, w = atoms[2]
    atoms[2] = (pos, w * F(3, 2))  # breaks the middle-mass identity only
    verdict = classify_small(make_measure(atoms))
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.indices == (1, 2, 3, 5)


def test_six_atom_sharp_example(six_atom_exact):
    verdict = classify_small(six_atom_exact)
    assert verdict.outcome == WITNESS
    expected = make_measure([(1, F(1, 2)), (3, F(1, 3)), (6, F(1, 6))])
    assert verdict.witness.atoms == expected.atoms


def test_six_atom_mixed_pattern_refuted():
    mu = make_measure([(2 ** k, F(1, 6)) for k in range(6)])
    verdict = classify_small(mu)
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "six-atom-middle-case"


@pytest.mark.parametrize("support, rule, indices", [
    ((9, 18, 24, 32, 36, 48), "boundary-products", (5,)),
    ((1, 6, 16, 18, 24, 36), "extreme-square-match", (2, 1, 6)),
    ((4, 6, 8, 9, 12, 36), "extreme-square-match", (5, 1, 6)),
    ((1, 4, 8, 9, 16, 32), "six-atom-wide-square", (2, 1, 5)),
    ((3, 6, 8, 12, 18, 54), "six-atom-wide-square", (5, 2, 6)),
    ((1, 4, 6, 16, 18, 54), "six-atom-crossed-squares", (2, 4, 3, 5)),
    ((1, 3, 4, 9, 18, 36), "six-atom-case-support", (3, 1, 6)),
    ((1, 2, 4, 6, 8, 16), "six-atom-case-support", (4, 1, 6)),
], ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else v)
def test_six_atom_support_refutations(support, rule, indices):
    # each of the paper's six-atom support patterns that carries no root,
    # with all masses 1; the generic solver refutes both questions too
    mu = make_measure([(x, 1) for x in support])
    verdict = classify_small(mu)
    assert verdict.outcome == IMPOSSIBLE
    assert (verdict.certificate.rule, verdict.certificate.indices) == \
        (rule, indices)
    assert sqrt_of(mu).outcome == aluthge_subnormal(mu).outcome == IMPOSSIBLE


def test_six_atom_case_weight_refutation(six_atom_exact):
    atoms = list(six_atom_exact.atoms)
    pos, w = atoms[1]
    atoms[1] = (pos, w * F(6, 5))
    verdict = classify_small(make_measure(atoms))
    assert verdict.outcome == IMPOSSIBLE
    assert verdict.certificate.rule == "six-atom-case-weights"


def test_six_atom_case_two_witness():
    mu = generate(GeneratorSpec(6, "with-aluthge-root", 7, case="II")).measure
    verdict = classify_small(mu)
    assert verdict.outcome == WITNESS
    assert convolve(verdict.witness, verdict.witness).atoms == mu.atoms


def test_radical_positions_rejected():
    mu = make_measure([(Position(F(k), 1, F(2)), F(1, 3))
                       for k in (1, 2, 3)])
    with pytest.raises(MeasureError, match="power_positions"):
        classify_small(mu)


def test_agreement_with_generic_solver_bulk():
    agreements = 0
    for seed in range(150):
        p = (3, 4, 5, 6)[seed % 4]
        kind = ("with-aluthge-root", "perturbed", "arbitrary")[seed % 3]
        if p == 4 and kind == "with-aluthge-root":
            kind = "arbitrary"
        mu = generate(GeneratorSpec(p, kind, 20_000 + seed)).measure
        closed = classify_small(mu)
        generic = aluthge_subnormal(mu)
        assert closed.outcome == generic.outcome, (seed, p, kind)
        agreements += 1
    assert agreements == 150
