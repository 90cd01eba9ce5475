from fractions import Fraction

import pytest

from alsq.generate import RANDOM_POSITIONS, GeneratorSpec, generate
from alsq.measures import MeasureError, convolve
from alsq.solver import WITNESS, aluthge_subnormal, sqrt_of

F = Fraction


def test_determinism():
    a = generate(GeneratorSpec(5, "with-root", 7))
    b = generate(GeneratorSpec(5, "with-root", 7))
    assert a.measure.atoms == b.measure.atoms
    assert a.witness.atoms == b.witness.atoms
    c = generate(GeneratorSpec(5, "with-root", 8))
    assert c.measure.atoms != a.measure.atoms


def test_with_root_retains_exact_square():
    for seed in range(10):
        for p in (3, 5, 6):
            inst = generate(GeneratorSpec(p, "with-root", seed))
            assert inst.measure.p == p
            assert convolve(inst.witness, inst.witness).atoms == \
                inst.measure.atoms


def test_with_root_rejects_four_atoms():
    with pytest.raises(MeasureError):
        generate(GeneratorSpec(4, "with-root", 0))


def test_closed_form_mode_rejects_four_atoms():
    with pytest.raises(MeasureError, match="never admit"):
        generate(GeneratorSpec(4, "with-aluthge-root", 0))


def test_closed_form_cases_have_required_pattern():
    for seed in range(6):
        one = generate(GeneratorSpec(6, "with-aluthge-root", seed, case="I"))
        lam = [pos.q for pos in one.measure.support]
        assert lam[1] ** 2 == lam[0] * lam[3]
        assert lam[4] ** 2 == lam[3] * lam[5]
        two = generate(GeneratorSpec(6, "with-aluthge-root", seed, case="II"))
        lam = [pos.q for pos in two.measure.support]
        assert lam[1] ** 2 == lam[0] * lam[2]
        assert lam[4] ** 2 == lam[2] * lam[5]


def test_perturbed_instances_lose_their_root():
    for seed in range(6):
        for p in (3, 5, 6):
            inst = generate(GeneratorSpec(p, "perturbed", seed))
            assert aluthge_subnormal(inst.measure).outcome == "impossible"


def test_generated_roots_are_found_end_to_end():
    for seed in range(5):
        inst = generate(GeneratorSpec(5, "with-root", 100 + seed))
        assert sqrt_of(inst.measure).outcome == WITNESS
        assert aluthge_subnormal(inst.measure).outcome == WITNESS


def test_arbitrary_mode_styles():
    geo = generate(GeneratorSpec(5, "arbitrary", 3, position_style="geometric"))
    rnd = generate(GeneratorSpec(5, "arbitrary", 3, position_style="random"))
    assert geo.measure.p == rnd.measure.p == 5


def test_random_support_is_bounded_by_its_pool():
    assert RANDOM_POSITIONS == len({F(n, d) for n in range(1, 61)
                                    for d in range(1, 9)})
    with pytest.raises(MeasureError, match="310 distinct fractions"):
        generate(GeneratorSpec(RANDOM_POSITIONS + 1, "arbitrary", 1,
                               position_style="random"))


@pytest.mark.parametrize("index", [0, -1, 7])
def test_perturb_index_off_the_atoms_is_refused(index):
    # such an index used to perturb nothing: the instance kept its root
    # while its meta named the atom
    with pytest.raises(MeasureError, match="perturb_index names an atom 1 to 6"):
        generate(GeneratorSpec(6, "perturbed", 5, perturb_index=index))


def test_perturb_index_names_the_perturbed_atom():
    inst = generate(GeneratorSpec(6, "perturbed", 5, perturb_index=3))
    assert inst.meta["perturbed_atom"] == 3
    assert aluthge_subnormal(inst.measure).outcome == "impossible"
