import hashlib
from fractions import Fraction

import pytest

from alsq.generator import MODES, RANDOM_POSITIONS, GeneratorSpec, generate
from alsq.measures import MeasureError, convolve, dumps_measure
from alsq.solver import WITNESS, aluthge_subnormal, sqrt_of

F = Fraction


def test_determinism():
    a = generate(GeneratorSpec(5, "with-root", 7))
    b = generate(GeneratorSpec(5, "with-root", 7))
    assert a.measure.atoms == b.measure.atoms
    assert a.witness.atoms == b.witness.atoms
    c = generate(GeneratorSpec(5, "with-root", 8))
    assert c.measure.atoms != a.measure.atoms


# SHA-256 of the generator's output over the specs below, taken before the
# closed forms squared their roots with ``convolve``: every bench corpus is
# built by ``generate``, so its output must not move
GENERATOR_DIGEST = (
    "b20b4450dd8a40b33de9abb8f3b3905c54990568b536d319f68c49789ac52c9b")


def test_generator_output_is_pinned():
    digest = hashlib.sha256()
    for seed in range(20):
        for p in range(1, 9):
            for mode in MODES:
                for style in ("geometric", "random"):
                    for case in (None, "I", "II"):
                        try:
                            inst = generate(GeneratorSpec(p, mode, seed,
                                                          style, case))
                        except MeasureError as exc:
                            text = f"error: {exc}\n"
                        else:
                            text = (dumps_measure(inst.measure)
                                    + (dumps_measure(inst.witness)
                                       if inst.witness is not None
                                       else "None\n")
                                    + repr(sorted(inst.meta.items())) + "\n")
                        digest.update(text.encode())
    assert digest.hexdigest() == GENERATOR_DIGEST


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


@pytest.mark.parametrize("p", [1, 2, 4, 7])
def test_with_root_names_the_atom_counts_it_builds(p):
    # one root atom squares to one atom, four in progression to seven: the
    # refusal is about what the mode builds, not what squares can have
    with pytest.raises(MeasureError, match=f"with-root builds squares of "
                                           f"3, 5 or 6 atoms, not {p}$"):
        generate(GeneratorSpec(p, "with-root", 0))


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


@pytest.mark.parametrize("spec", [
    GeneratorSpec(4, "perturbed", 1, perturb_index=9),
    GeneratorSpec(4, "perturbed", 1, perturb_index=1),
    GeneratorSpec(6, "arbitrary", 1, perturb_index=2),
    GeneratorSpec(5, "with-root", 1, perturb_index=1),
])
def test_perturb_index_outside_a_perturbed_closed_form_is_refused(spec):
    # the four-atom perturbed path draws a random measure and perturbs
    # nothing, so an index there used to be dropped silently
    with pytest.raises(MeasureError, match="perturb_index applies only"):
        generate(spec)


@pytest.mark.parametrize("spec", [
    GeneratorSpec(6, "arbitrary", 1, case="I"),
    GeneratorSpec(5, "with-aluthge-root", 1, case="II"),
    GeneratorSpec(3, "perturbed", 1, case="I"),
    GeneratorSpec(4, "perturbed", 1, case="I"),
    GeneratorSpec(6, "with-root", 1, case="II"),
])
def test_case_outside_the_six_atom_closed_forms_is_refused(spec):
    with pytest.raises(MeasureError, match="case applies only"):
        generate(spec)


def test_closed_form_meta_names_the_case_it_drew():
    drawn = set()
    for seed in range(12):
        inst = generate(GeneratorSpec(6, "with-aluthge-root", seed))
        case = inst.meta["case"]
        drawn.add(case)
        lam = [pos.q for pos in inst.measure.support]
        if case == "I":
            assert lam[1] ** 2 == lam[0] * lam[3]
        else:
            assert lam[1] ** 2 == lam[0] * lam[2]
    assert drawn == {"I", "II"}
    assert generate(GeneratorSpec(6, "with-aluthge-root", 1,
                                  case="II")).meta["case"] == "II"
    assert generate(GeneratorSpec(5, "with-aluthge-root", 1)).meta["case"] \
        is None
