import json
from fractions import Fraction

import mpmath
import pytest

from alsq.analyze import AnalyzeOptions, analyze
from alsq.generator import GeneratorSpec, generate
from alsq.measures import Position, convolve, make_measure, t_weight
from alsq.solver import WITNESS, SolverConfig, aluthge_subnormal

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
    # product table of mu * t(mu) (t_products) is never built
    from alsq import solver

    calls = {"_peel": 0, "square_products": 0, "t_products": 0}

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
    assert calls == {"_peel": 1, "square_products": 1, "t_products": 0}
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
    original = measures._scaled_keys

    def counting(positions):
        keyed.append(tuple(positions))
        return original(positions)

    monkeypatch.setattr(measures, "_scaled_keys", counting)
    report = analyze(loads_measure(dumps_measure(six_atom_exact)))
    assert report.sqrt_verdict.outcome == report.aluthge_verdict.outcome \
        == WITNESS
    assert keyed == [six_atom_exact.support,
                     report.sqrt_verdict.witness.support]


def test_analyze_builds_positions_only_for_what_it_prints(monkeypatch,
                                                          six_atom_exact):
    # 15 distinct products, 6 of them shared: the report prints those 6
    built = []
    original = Position.__mul__

    def counting(self, other):
        built.append((self, other))
        return original(self, other)

    monkeypatch.setattr(Position, "__mul__", counting)
    report = analyze(six_atom_exact)
    assert report.card == 15 and report.ur_summary["nur_count"] == 6
    assert len(built) == 6
    shared = [entry for entry in report.diagram.entries if not entry.is_ur]
    assert report.ur_summary["nur_products"] == \
        [str(entry.position) for entry in shared]
    assert len(built) == 6  # each position is built once and kept
    # reading every entry builds the rest, as classify_ur does
    positions = [entry.position for entry in report.diagram.entries]
    assert len(built) == 15
    assert positions == sorted(positions)


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
