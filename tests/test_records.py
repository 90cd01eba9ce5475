"""The package's records (``scalars.Record``): constructors, defaults,
immutability, equality, hash and ``repr`` as the dataclasses they replaced
had them."""

import copy
import pickle
from fractions import Fraction

import pytest

from alsq.analyze import AnalysisReport, AnalyzeOptions, analyze
from alsq.diagram import (CardinalityCheck, DiagramEntry, Violation,
                          cardinality_check, classify_ur, pair_diagram)
from alsq.generator import GeneratedInstance, GeneratorSpec
from alsq.measures import AtomicMeasure, Position, make_measure, support_keys
from alsq.scalars import DEFAULT_TOLERANCE
from alsq.selftest import CriterionResult
from alsq.solver import DEFAULT_CONFIG, Peel, SolverConfig, Verdict

F = Fraction


def _square():
    return make_measure([(1, F(1, 4)), (2, F(1, 2)), (4, F(1, 4))])


def _diagram():
    return pair_diagram(make_measure([(1, F(1, 2)), (2, F(1, 2))]))


# two equal, separately built instances of each record with value equality
VALUE_RECORDS = {
    "Position": lambda: Position(F(3), 1, F(2)),
    "AtomicMeasure": _square,
    "SolverConfig": lambda: SolverConfig(64, F(1, 10)),
    "Verdict": lambda: Verdict("impossible",
                               certificate=Violation("r", (1, 2), "m")),
    "Peel": lambda: Peel("witness", ((0, F(1)),)),
    "CardinalityCheck": lambda: CardinalityCheck(4, 7, 7, 7, True),
    "Violation": lambda: Violation("r", (1, 2), "m"),
    "AnalyzeOptions": lambda: AnalyzeOptions(SolverConfig(64), 3),
    "GeneratorSpec": lambda: GeneratorSpec(6, "perturbed", 5, case="I"),
}


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_equal_fields_make_equal_records_with_equal_hashes(name):
    first, second = VALUE_RECORDS[name](), VALUE_RECORDS[name]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    assert first != "not a record"


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_records_reject_assignment_and_have_no_dict(name):
    record = VALUE_RECORDS[name]()
    field = record._fields[0]
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.unknown = 1
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, field)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_records_copy_and_pickle_to_equal_records(name):
    record = VALUE_RECORDS[name]()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_differing_fields_or_classes_make_unequal_records():
    assert Violation("r", (1,), "m") != Violation("r", (2,), "m")
    assert Verdict("witness") != Verdict("witness", precision_bits=64)
    assert SolverConfig(64) != SolverConfig(128)
    assert GeneratorSpec(3, "arbitrary", 1) != GeneratorSpec(3, "arbitrary", 2)


def test_reprs_are_the_dataclass_reprs():
    assert repr(GeneratorSpec(6, "perturbed", 5)) == (
        "GeneratorSpec(p=6, mode='perturbed', seed=5, "
        "position_style='geometric', case=None, perturb_index=None)")
    assert repr(Verdict("impossible", certificate=Violation("r", (1, 2), "m"),
                        notes=("a",))) == (
        "Verdict(outcome='impossible', witness=None, "
        "certificate=Violation(rule='r', indices=(1, 2), message='m'), "
        "residual=None, precision_bits=128, notes=('a',))")
    # the UR partner sets and the key map stay out of the diagram's repr
    assert repr(_diagram()) == (
        "ProductDiagram(support=(Position(1), Position(2)), keys=(1, 4), "
        "entries=(DiagramEntry(position=Position(1), pairs=((0, 0),)), "
        "DiagramEntry(position=Position(2), pairs=((0, 1),)), "
        "DiagramEntry(position=Position(4), pairs=((1, 1),))))")
    assert repr(classify_ur(_diagram())) == (
        "URClassification(ur=(Position(1), Position(2), Position(4)), nur=())")
    assert repr(cardinality_check(_diagram())) == (
        "CardinalityCheck(p=2, card=3, lower=3, upper=None, ok=True)")
    assert repr(_square()) == (
        "AtomicMeasure(base=Fraction(1, 1), mode='rational', "
        "atoms=((Position(1), Fraction(1, 4)), (Position(2), Fraction(1, 2)), "
        "(Position(4), Fraction(1, 4))), zero_mass=Fraction(0, 1))")
    # radius is derived, not a field
    assert repr(SolverConfig(64, F(1, 10))) == \
        "SolverConfig(precision_bits=64, tolerance=Fraction(1, 10))"
    assert repr(AnalyzeOptions()) == (
        "AnalyzeOptions(config=SolverConfig(precision_bits=128, "
        "tolerance=Fraction(1, 18446744073709551616)), shift_terms=0)")
    assert repr(Peel("witness")) == (
        "Peel(outcome='witness', root=(), certificate=None, "
        "residual=Fraction(0, 1), note=None, radii=(), maybe=())")
    assert repr(CriterionResult(1, "n", True, "d", 0.5)) == (
        "CriterionResult(number=1, name='n', passed=True, detail='d', "
        "seconds=0.5)")
    assert repr(GeneratedInstance(_square(), None)) == (
        f"GeneratedInstance(measure={_square()!r}, witness=None, meta={{}})")
    assert repr(Position(F(3), 1, F(2))) == "Position(3*sqrt(2))"


def test_analysis_report_hides_its_diagram():
    report = analyze(_square())
    assert report.diagram is not None
    text = repr(report)
    assert text.startswith("AnalysisReport(digest='e8678d37e7bcec10")
    assert text.endswith(", agreement=True, shift_tables=None, notes=[])")
    assert "diagram" not in text and "ProductDiagram" not in text


@pytest.mark.parametrize("build", [
    lambda: DiagramEntry(Position(F(2), 0, F(1)), ((0, 1),)),
    _diagram,
    lambda: classify_ur(_diagram())])
def test_diagram_records_compare_by_identity(build):
    first, second = build(), build()
    assert first == first and first != second
    assert hash(first) == object.__hash__(first)
    assert len({first, second}) == 2
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(first, first._fields[0], None)


def test_cached_support_keys_are_not_a_field():
    # make_measure keeps the keys it sorted by; a measure built directly
    # keys its support on first use.  Neither shows in equality, hash,
    # repr, copy or pickle.
    keyed = _square()
    bare = AtomicMeasure(keyed.base, keyed.mode, keyed.atoms, keyed.zero_mass)
    assert keyed._keys == ([1, 4, 16], 1) and bare._keys is None
    assert "_keys" not in AtomicMeasure._fields
    assert keyed == bare and hash(keyed) == hash(bare)
    assert repr(keyed) == repr(bare)
    for other in (copy.copy(keyed), copy.deepcopy(keyed),
                  pickle.loads(pickle.dumps(keyed))):
        assert other == keyed and repr(other) == repr(keyed)
        assert support_keys(other) == keyed._keys
    assert pickle.dumps(keyed) == pickle.dumps(bare)
    assert support_keys(bare) == keyed._keys and bare._keys == keyed._keys
    with pytest.raises(AttributeError, match="cannot assign"):
        keyed._keys = None


def test_diagram_entries_build_their_position_when_read():
    diagram = _diagram()
    entry = diagram.entries[1]
    assert entry.pairs == ((0, 1),)
    assert entry.position == Position(F(2), 0, F(1))
    assert entry.position is entry.position
    built = DiagramEntry(Position(F(2), 0, F(1)), ((0, 1),))
    assert repr(built) == repr(entry) == \
        "DiagramEntry(position=Position(2), pairs=((0, 1),))"


def test_mutable_records_take_assignment_and_are_unhashable():
    report = analyze(_square())
    report.notes = ["edited"]
    assert report.notes == ["edited"]
    assert report == report and report != analyze(_square())
    with pytest.raises(TypeError):
        hash(report)
    result = CriterionResult(1, "n", True, "d", 0.5)
    result.passed = False
    assert result == CriterionResult(1, "n", False, "d", 0.5)
    with pytest.raises(TypeError):
        hash(result)


def test_defaults_match_the_dataclass_defaults():
    spec = GeneratorSpec(3, "arbitrary", 1)
    assert (spec.position_style, spec.case, spec.perturb_index) == \
        ("geometric", None, None)
    assert GeneratorSpec(p=3, mode="arbitrary", seed=1,
                         position_style="geometric") == spec
    verdict = Verdict("witness")
    assert (verdict.witness, verdict.certificate, verdict.residual,
            verdict.precision_bits, verdict.notes) == (None, None, None, 128, ())
    assert AnalyzeOptions() == AnalyzeOptions(DEFAULT_CONFIG, 0)
    assert SolverConfig() == SolverConfig(128, DEFAULT_TOLERANCE)
    assert AtomicMeasure(F(1), "rational", ()).zero_mass == 0
    # each instance gets a meta dict of its own
    first, second = (GeneratedInstance(_square(), None) for _ in range(2))
    first.meta["k"] = 1
    assert second.meta == {}
    assert AnalysisReport(*[None] * 14).notes == []


def test_solver_radius_is_unchanged():
    assert SolverConfig(64, F(1, 10)).radius == F(1, 10)
    assert SolverConfig(64, F(1, 2 ** 80)).radius == F(2, 2 ** 64)
    assert SolverConfig().radius == DEFAULT_TOLERANCE
    assert SolverConfig(3).radius == F(1, 4)
