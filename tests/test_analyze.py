import hashlib
import json
from fractions import Fraction

import mpmath
import pytest

from alsq.analyze import AnalyzeOptions, analyze
from alsq.generator import GeneratorSpec, generate
from alsq.measures import (Position, convolve, dumps_measure, make_measure,
                           t_weight)
from alsq.solver import WITNESS, SolverConfig, aluthge_subnormal, verdicts

F = Fraction


def test_report_fields_for_six_atom_example(six_atom_exact):
    report = analyze(six_atom_exact)
    assert report.p == 6
    assert report.card == 15
    assert report.bounds == (11, 15)
    assert report.geometric is None
    assert report.structural is None
    assert report.ur_summary["nur_count"] == 6
    assert report.agreement is True
    assert report.sqrt_verdict.outcome == "witness"
    assert report.aluthge_verdict.outcome == "witness"
    assert report.zero_mass is None


def test_text_report_names_a_violated_rule():
    # 2 squares to 4, which no other pair of 1, 2, 3, 9 multiplies to
    report = analyze(make_measure([(x, 1) for x in (1, 2, 3, 9)]))
    assert report.structural["rule"] == "boundary-products"
    assert ("structure    : violated - the square of atom 2 (4) coincides "
            "with no other pairwise product, but a square root requires it "
            "to") in report.render().splitlines()


@pytest.mark.parametrize("bits", [None, 128])
def test_analyze_decides_the_root_once(monkeypatch, bits):
    # the closed form's witness is sqrt_of's root, reused, and each decision
    # is made once: for rational and real masses alike one signed peel of mu
    # gives both, and one square table re-checks the square root's witness
    # by convolution (the transform re-squares its signed root itself); the
    # product mu * t(mu) is never formed: the solver has no convolve
    from alsq import solver

    assert not hasattr(solver, "convolve")
    calls = {"_peel": 0, "square_products": 0}

    def spy(name):
        original = getattr(solver, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(solver, name, counting)

    for name in calls:
        spy(name)
    mu = generate(GeneratorSpec(5, "with-aluthge-root", 4000)).measure
    options = AnalyzeOptions()
    if bits:
        mu, options = mu.to_real(bits), AnalyzeOptions(SolverConfig(bits))
    report = analyze(mu, options)
    assert calls == {"_peel": 1, "square_products": 1}
    assert report.small_verdict.outcome == WITNESS
    assert report.small_verdict.witness == report.sqrt_verdict.witness


def test_undetermined_verdict_is_not_compared():
    # at 3 bits the transform is undetermined while the closed form finds
    # the witness: neither agreement nor disagreement.  In the signed peel of
    # this perturbed six-atom measure the error reaches the mass at 32, so
    # the root atom there is a maybe atom, and Q without it misses mu
    mu = generate(GeneratorSpec(6, "perturbed", 29)).measure.to_real(3)
    report = analyze(mu, AnalyzeOptions(SolverConfig(3)))
    assert report.small_verdict.outcome == WITNESS
    assert report.aluthge_verdict.outcome == "undetermined"
    assert report.agreement is None
    assert report.to_json_dict()["agreement"] is None
    text = report.render()
    assert "closed form  : witness (not compared: undetermined)" in text
    assert "DISAGREES" not in text


def test_report_is_deterministic(six_atom_exact):
    a = analyze(six_atom_exact).to_json_dict()
    b = analyze(six_atom_exact).to_json_dict()
    assert a == b


def test_input_digest_is_the_sha256_of_the_document(six_atom_exact):
    # the digest comes from the builtin SHA-256 module, not from hashlib
    for mu in (six_atom_exact, six_atom_exact.to_real(128),
               make_measure([(0, F(1, 3)), (Position(F(3), 1, F(2)), 1)])):
        assert analyze(mu).digest == hashlib.sha256(
            dumps_measure(mu).encode("utf-8")).hexdigest()


def test_zero_atom_is_stripped_and_noted():
    mu = make_measure([(0, F(1, 3)), (1, F(1, 3)), (2, F(1, 6)),
                       (4, F(1, 6))])
    report = analyze(mu)
    assert report.zero_mass == "1/3"
    assert report.p == 3
    assert any("origin" in note for note in report.notes)
    # the verdict matches the restriction: (1/3, 1/6, 1/6) is not admissible
    assert report.aluthge_verdict.outcome == "impossible"


def test_zero_atom_root_verdict_matches_restriction():
    body = [(1, F(1, 4)), (2, F(1, 2)), (4, F(1, 4))]
    with_zero = analyze(make_measure([(0, F(1, 5))] + body))
    without = analyze(make_measure(body))
    assert with_zero.aluthge_verdict.outcome == without.aluthge_verdict.outcome
    assert with_zero.sqrt_verdict.outcome == without.sqrt_verdict.outcome


def test_shift_tables_optional(six_atom_exact):
    plain = analyze(six_atom_exact)
    assert plain.shift_tables is None
    with_tables = analyze(six_atom_exact, AnalyzeOptions(shift_terms=5))
    assert with_tables.shift_tables["terms"] == 5
    assert len(with_tables.shift_tables["rows"]) == 5


def test_radical_positions_skip_search_paths():
    mu = make_measure([(Position(F(k), 1, F(2)), F(1, 3)) for k in (1, 2, 3)])
    report = analyze(mu)
    assert report.sqrt_verdict is None
    assert any("skipped" in note for note in report.notes)
    assert report.small_verdict is None
    assert report.aluthge_verdict is not None


def test_render_contains_key_lines(five_atom_real):
    text = analyze(five_atom_real).render()
    assert "9 distinct" in text
    assert "geometric, start 1, ratio 2" in text
    assert "square root  : witness" in text


def test_single_atom_report():
    report = analyze(make_measure([(F(9, 4), 2)]))
    assert report.p == 1
    assert report.card == 1
    assert report.bounds == (1, None)
    assert report.sqrt_verdict.outcome == "witness"
    assert report.aluthge_verdict.outcome == "witness"
    assert report.small_verdict is None
    assert "[1, -]" in report.render()


def test_two_atom_report_is_refuted():
    report = analyze(make_measure([(1, F(1, 2)), (2, F(1, 2))]))
    assert report.sqrt_verdict.outcome == "impossible"
    assert report.aluthge_verdict.outcome == "impossible"
    assert report.structural is not None


def test_analyze_builds_one_diagram(monkeypatch, capsys, tmp_path):
    import importlib

    import alsq.diagram
    from alsq.cli import main
    from alsq.measures import dumps_measure
    from alsq.selftest import example_one

    built = []
    original = alsq.diagram.pair_diagram

    def counting(source):
        built.append(source)
        return original(source)

    monkeypatch.setattr(alsq.diagram, "pair_diagram", counting)
    # the package exports the function analyze under the module's name
    monkeypatch.setattr(importlib.import_module("alsq.analyze"),
                        "pair_diagram", counting)
    # five atoms: classify_small tests the geometric profile too
    mu = example_one()
    report = analyze(mu)
    assert len(built) == 1 and report.diagram.card == report.card == 9
    path = tmp_path / "five.json"
    path.write_text(dumps_measure(mu))
    built.clear()
    main(["analyze", str(path), "--diagram"])
    assert len(built) == 1
    assert "coincidence classes:" in capsys.readouterr().out


def test_analyze_keys_each_support_once(monkeypatch, six_atom_exact):
    # the input's support is keyed by the loader and read from the measure
    # by the diagram, both tables and both witness checks; t(mu) and the
    # transform's witness keep it, so only the square root's support is new
    from alsq import measures
    from alsq.measures import dumps_measure, loads_measure

    keyed = []
    original = measures._keyed_measure

    def counting(*args):
        mu = original(*args)
        keyed.append(mu.support)
        return mu

    monkeypatch.setattr(measures, "_keyed_measure", counting)
    report = analyze(loads_measure(dumps_measure(six_atom_exact)))
    assert report.sqrt_verdict.outcome == report.aluthge_verdict.outcome \
        == WITNESS
    assert keyed == [six_atom_exact.support,
                     report.sqrt_verdict.witness.support]


def _spy_positions(monkeypatch):
    """Record each product and quotient of positions and each position
    read off an int key."""
    from alsq import measures, solver

    built = []
    for name in ("__mul__", "__truediv__"):
        original = getattr(Position, name)

        def counting(self, other, original=original, name=name):
            built.append((name, self, other))
            return original(self, other)
        monkeypatch.setattr(Position, name, counting)
    for module in (measures, solver):
        original = module._key_position

        def keyed(*args, original=original):
            built.append(("_key_position",) + args)
            return original(*args)
        monkeypatch.setattr(module, "_key_position", keyed)
    return built


def test_analyze_builds_positions_only_for_what_it_prints(monkeypatch,
                                                          six_atom_exact):
    # 15 distinct products, 6 of them shared: the report prints those 6
    # from int numerators, and builds no product position
    built = _spy_positions(monkeypatch)
    report = analyze(six_atom_exact)
    assert report.card == 15 and report.ur_summary["nur_count"] == 6
    assert report.sqrt_verdict.outcome == report.aluthge_verdict.outcome \
        == WITNESS
    assert built == []
    shared = [entry for entry in report.diagram.entries if not entry.is_ur]
    assert report.ur_summary["nur_products"] == \
        [str(entry.position) for entry in shared]
    assert len(built) == 6  # each position is built once and kept
    # reading every entry builds the rest, as classify_ur does
    positions = [entry.position for entry in report.diagram.entries]
    assert len(built) == 15
    assert positions == sorted(positions)
    # a structural rule prints its product from int numerators too: 2
    # squares to 4, which no other pair of 1, 2, 3, 9 multiplies to
    built.clear()
    report = analyze(make_measure([(x, 1) for x in (1, 2, 3, 9)]))
    assert report.structural["rule"] == "boundary-products"
    assert "the square of atom 2 (4)" in report.structural["message"]
    assert built == []


# one instance per certificate of the peel, its two verdicts in order, and
# witnesses on mu's support, on radicals and off mu's support
_PRINTED = [
    # the root overflows, and mu is no signed square beyond the top
    ([(16, F(8, 7)), (64, F(5, 8))], "peel-overflow", "peel-overflow"),
    # a negative forced mass, then an overflow beyond the top
    ([(1, F(49, 64)), (F(17, 4), F(21, 80)), (F(289, 16), F(1, 64))],
     "peel-nonpositive-mass", "peel-overflow"),
    # a negative forced mass, then a negative atom of N
    ([(1, F(1, 4)), (4, F(11, 5)), (16, F(1, 2)), (64, F(2, 5)),
      (256, F(1, 10))], "peel-nonpositive-mass", "peel-nonpositive-mass"),
    # a residual atom off the multiples of 1/L, L the lcm of the
    # denominators of the positions
    ([(4, F(8, 11)), (F(9, 2), F(7, 4)), (F(17, 2), F(1, 4))],
     "peel-nonpositive-mass", "peel-overflow"),
    # the square of 1/2 at 2/7 and 1/2 at 4/7: x_1 = 4/49
    ([(F(4, 49), F(1, 4)), (F(8, 49), F(1, 2)), (F(16, 49), F(1, 4))],
     WITNESS, WITNESS),
    # (d(sqrt 2) + d(2 sqrt 2))^2: the root sits on radicals over x_1 = 2
    ([(2, 1), (4, 2), (8, 1)], WITNESS, WITNESS),
    # the square of the signed Q = 1, 2, -1, 2, 1 at 1, 2, 4, 8, 16 has no
    # atom at 8, where N = Q * t(Q) has one
    ([(1, 1), (2, 4), (4, 2), (16, 11), (64, 2), (128, 4), (256, 1)],
     "peel-nonpositive-mass", WITNESS),
]


@pytest.mark.parametrize("bits", [None, 128])
@pytest.mark.parametrize("atoms, first, second", _PRINTED, ids=[
    "overflow", "forced-then-beyond-top", "forced-then-negative-n",
    "off-the-lattice", "witness-at-4-49", "witness-on-radicals",
    "witness-off-support"])
def test_verdicts_build_positions_only_for_what_they_print(
        monkeypatch, atoms, first, second, bits):
    # each certificate prints its values and each witness places its atoms
    # from int keys and numerators: no product, quotient or keyed position
    mu = make_measure(atoms)
    if bits is not None:
        mu = mu.to_real(bits)
    built = _spy_positions(monkeypatch)
    both = list(verdicts(mu, SolverConfig(bits or 128)))
    assert [v.certificate.rule if v.certificate else v.outcome
            for v in both] == [first, second]
    assert built == []
    for verdict in both:
        if verdict.witness is not None:
            assert all(w > 0 for w in verdict.witness.weights)
            assert list(verdict.witness.support) == \
                sorted(verdict.witness.support)


def test_analysis_ignores_global_precision():
    # a rational, a radical-position and a real-mode instance, each with
    # witnesses, certificates and shift tables in its report
    rational = generate(GeneratorSpec(5, "with-aluthge-root", 11)).measure
    radical = make_measure([(Position(F(k), 1, F(2)), F(1, 3))
                            for k in (1, 2, 3)])
    real = generate(GeneratorSpec(6, "with-root", 12)).measure.to_real(128)
    options = AnalyzeOptions(shift_terms=20)

    def results(mu):
        # the report, and on their own the convolution, the reweighting
        # and the real-mode transform verdict, masses as raw values
        def atoms(measure):
            return [(str(pos), getattr(w, "_mpf_", w)) for pos, w in measure.atoms]

        at_128 = mu.to_real(128)
        return repr((analyze(mu, options).to_json_dict(),
                     atoms(convolve(mu, mu)), atoms(t_weight(at_128)),
                     aluthge_subnormal(at_128).to_json_dict()))

    saved = mpmath.mp.prec
    for mu in (rational, radical, real):
        expected = results(mu)
        for prec in (53, 300):
            mpmath.mp.prec = prec
            try:
                got = results(mu)
                assert mpmath.mp.prec == prec
            finally:
                mpmath.mp.prec = saved
            assert got == expected
