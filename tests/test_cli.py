import hashlib
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import alsq
from alsq.cli import MAX_SHIFT_TERMS, build_parser, main
from alsq.generator import GeneratorSpec, generate
from alsq.measures import (MAX_ATOMS, MeasureError, Position, dumps_measure,
                           load_measure, make_measure)
from alsq.selftest import example_one, example_two
from alsq.shifts import moment_sequence
from alsq.solver import IMPOSSIBLE, Verdict, aluthge_subnormal

F = Fraction


@pytest.fixture
def six_atom_file(tmp_path):
    path = tmp_path / "six.json"
    path.write_text(dumps_measure(example_two()))
    return str(path)


@pytest.fixture
def four_atom_file(tmp_path):
    mu = make_measure([(2 ** k, F(1, 4)) for k in range(4)])
    path = tmp_path / "four.json"
    path.write_text(dumps_measure(mu))
    return str(path)


def test_analyze_text_output(capsys, six_atom_file):
    code = main(["analyze", six_atom_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "15 distinct" in out
    assert "square root  : witness" in out


def test_analyze_json_schema(capsys, six_atom_file):
    code = main(["analyze", six_atom_file, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["schema"] == "alsq/1"
    assert data["card"] == 15
    assert data["agreement"] is True
    assert data["sqrt"]["outcome"] == "witness"


def test_analyze_diagram_flag(capsys, six_atom_file):
    main(["analyze", six_atom_file, "--diagram"])
    out = capsys.readouterr().out
    assert "coincidence classes:" in out


def test_aluthge_exit_codes(capsys, six_atom_file, four_atom_file):
    assert main(["aluthge", six_atom_file]) == 0
    assert main(["aluthge", four_atom_file]) == 2
    out = capsys.readouterr().out
    assert "[peel-overflow] mu is no signed square" in out


def test_sqrt_json_verdict(capsys, four_atom_file):
    code = main(["sqrt", four_atom_file, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 2
    assert data["outcome"] == "impossible"
    assert data["schema"] == "alsq/1"


def test_sqrt_text_notes_a_radical_witness(capsys, tmp_path):
    # 2*d(1) + 4*d(2) + 2*d(4) = 2*(d(1) + d(2))^2: the root's masses are
    # sqrt(2), irrational over exact positions
    path = tmp_path / "radical.json"
    path.write_text(dumps_measure(make_measure([(1, 2), (2, 4), (4, 2)])))
    assert main(["sqrt", str(path)]) == 0
    assert "note: witness masses lie in Q(sqrt(2)); emitted as reals" in \
        capsys.readouterr().out.splitlines()


def test_convolve_writes_file(tmp_path, capsys, six_atom_file):
    out_path = tmp_path / "conv.json"
    code = main(["convolve", six_atom_file, six_atom_file,
                 "--out", str(out_path)])
    assert code == 0
    result = load_measure(str(out_path))
    assert result.p == 15


def test_shift_table(capsys, six_atom_file):
    code = main(["shift", six_atom_file, "--terms", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "aluthge gamma" in out
    assert len([l for l in out.splitlines() if l.strip()]) == 5


def test_shift_table_matches_analyze(capsys, six_atom_file):
    assert main(["shift", six_atom_file, "--terms", "6"]) == 0
    text = capsys.readouterr().out.splitlines()
    assert main(["shift", six_atom_file, "--terms", "6", "--json"]) == 0
    tables = json.loads(capsys.readouterr().out)["shift_tables"]
    main(["analyze", six_atom_file, "--shift-terms", "6"])
    report = capsys.readouterr().out.splitlines()
    assert ["    " + line for line in text] == report[-7:]
    main(["analyze", six_atom_file, "--shift-terms", "6", "--json"])
    assert json.loads(capsys.readouterr().out)["shift_tables"] == tables
    assert main(["shift", six_atom_file, "--terms", "0"]) == 1
    assert "error: argument --terms: must be at least 1, got 0" in \
        capsys.readouterr().err


def test_low_precision_real_witness_is_no_internal_fault(capsys, tmp_path):
    # at 64 bits the closed-form witness of this instance is rounded; it
    # squares back within the error the peel carries from the box of radius
    # 2^-63, so it is a witness
    path = tmp_path / "m.json"
    mu = generate(GeneratorSpec(5, "with-aluthge-root", 4046)).measure
    path.write_text(dumps_measure(mu.to_real(64)))
    assert main(["analyze", "--precision", "64", "--json", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["closed_form"]["outcome"] == "witness"
    assert main(["shift", "--precision", "64", str(path)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_recurrence_output(capsys, six_atom_file):
    code = main(["recurrence", six_atom_file, "--max-order", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "order 6" in out
    # g[n+6] = sum_j c_j g[n+j] on the exact moments of the six atoms
    head, terms = out.split(" = ")
    assert head == "order 6: g[n+6]"
    c = [F(term.split(")*g[n+")[0].lstrip("(")) for term in terms.split(" + ")]
    assert len(c) == 6
    g = moment_sequence(example_two(), 20)
    assert all(g[n + 6] == sum(c[j] * g[n + j] for j in range(6))
               for n in range(14))


def test_recurrence_below_the_atom_count_is_not_found(capsys, six_atom_file):
    # g_0..g_5 of six atoms fit some order-3 recurrence; g_6 rules it out
    assert main(["recurrence", six_atom_file, "--max-order", "3"]) == 3
    assert capsys.readouterr().out == "no linear recurrence of order <= 3\n"
    assert main(["recurrence", six_atom_file, "--max-order", "3", "--json"]) == 3
    assert json.loads(capsys.readouterr().out)["order"] is None


def test_gen_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    witness_path = tmp_path / "wit.json"
    code = main(["gen", "--p", "5", "--mode", "with-root", "--seed", "11",
                 "--out", str(out_path), "--witness-out", str(witness_path)])
    assert code == 0
    mu = load_measure(str(out_path))
    assert mu.p == 5
    assert load_measure(str(witness_path)).p == 3
    assert main(["sqrt", str(out_path)]) == 0


def test_gen_stdout_json(capsys):
    code = main(["gen", "--p", "3", "--mode", "with-aluthge-root",
                 "--seed", "5"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["schema"] == "alsq/1"
    assert len(data["measure"]["atoms"]) == 3
    assert data["witness"] is not None


def test_gen_determinism(capsys):
    main(["gen", "--p", "6", "--seed", "9", "--mode", "with-aluthge-root"])
    first = capsys.readouterr().out
    main(["gen", "--p", "6", "--seed", "9", "--mode", "with-aluthge-root"])
    assert capsys.readouterr().out == first


def test_missing_file_is_usage_error(capsys, tmp_path):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_invalid_measure_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"radical_base": "1", "mode": "rational", "atoms": []}')
    assert main(["analyze", str(path)]) == 1


def test_precision_flag_roundtrip(capsys, six_atom_file):
    code = main(["aluthge", six_atom_file, "--precision", "192", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["precision_bits"] == 192


def test_usage_errors_exit_one(capsys, six_atom_file):
    # argparse's own exit status 2 would read as "impossible"
    assert main(["sqrt", "--max-candidates", "5", six_atom_file]) == 1
    assert main(["sqrt", "--bogus", six_atom_file]) == 1
    assert main(["sqrt", "--seed", "3", six_atom_file]) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "--p", "3", "--json"], ["gen", "--p", "3", "--precision", "64"],
    ["selftest", "--tol", "1/10"], ["selftest", "--json"],
    ["recurrence", "FILE", "--precision", "64"],
    ["recurrence", "FILE", "--tol", "1/10"], ["shift", "FILE", "--tol", "1/10"],
    ["convolve", "FILE", "FILE", "--tol", "1/10"]], ids=" ".join)
def test_flags_a_command_does_not_read_are_refused(capsys, six_atom_file, argv):
    assert main([six_atom_file if a == "FILE" else a for a in argv]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_internal_fault_exits_four(capsys, monkeypatch, six_atom_file):
    # exact masses that satisfy the closed-form identities but have no
    # peeled root contradict the characterization: an internal fault, not a
    # usage error
    def no_root(mu, config):
        return (Verdict(IMPOSSIBLE, precision_bits=config.precision_bits),
                aluthge_subnormal(mu, config))

    # the package exports the function analyze under the module's name;
    # analyze reads its square-root verdict off solver.verdicts
    monkeypatch.setattr(importlib.import_module("alsq.analyze"), "verdicts",
                        no_root)
    assert main(["analyze", six_atom_file]) == 4
    captured = capsys.readouterr()
    assert "Traceback (most recent call last)" in captured.err
    assert "internal error: closed-form witness failed" in captured.err
    assert main(["analyze", six_atom_file, "--json"]) == 4
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "internal"
    assert "indicates a bug" in data["error"]


def _cli(*argv):
    """``python -m alsq.cli`` in a subprocess with a timeout, so that a hang
    fails the test instead of stalling the suite."""
    env = dict(os.environ)
    src = str(Path(alsq.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "alsq.cli", *argv],
                          capture_output=True, text=True, timeout=15, env=env)


def _assert_usage_error(result):
    assert result.returncode == 1
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("bits", ["0", "-5"])
@pytest.mark.parametrize("command", ["analyze", "sqrt", "aluthge", "shift",
                                     "convolve"])
def test_nonpositive_precision_is_usage_error(six_atom_file, command, bits):
    files = [six_atom_file] * (2 if command == "convolve" else 1)
    _assert_usage_error(_cli(command, "--precision", bits, *files))


def test_tolerance_outside_unit_interval_is_usage_error(tmp_path):
    # a square by construction, which a tolerance of 0 or below refutes
    path = tmp_path / "m.json"
    mu = generate(GeneratorSpec(5, "with-aluthge-root", 7)).measure
    path.write_text(dumps_measure(mu.to_real(128)))
    for tol in ("1e100000000", "0", "-1", "1", "abc"):
        _assert_usage_error(_cli("aluthge", "--tol", tol, str(path)))
    assert main(["aluthge", "--tol", "1e-30", str(path)]) == 0
    assert main(["aluthge", "--tol", "1/1000", str(path)]) == 0


@pytest.mark.parametrize("mode, weight", [
    ("real", "1e1000000"), ("rational", "1e300000"), ("rational", "1" * 5001)],
    ids=["real-exponent", "rational-exponent", "rational-digits"])
def test_oversized_weight_is_usage_error(tmp_path, mode, weight):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"radical_base": "1", "mode": mode, "atoms": [
        {"pos_q": "1", "pos_k": 0, "weight": weight},
        {"pos_q": "2", "pos_k": 0, "weight": "1"}]}))
    result = _cli("analyze", str(path))
    _assert_usage_error(result)
    assert len(result.stderr) < 200  # the input is quoted by a prefix only


def test_precision_above_maximum_is_usage_error(tmp_path):
    # 1000000 bits took 30 s on this square and 20000000 did not return
    path = tmp_path / "m.json"
    path.write_text(dumps_measure(
        generate(GeneratorSpec(5, "with-aluthge-root", 7)).measure))
    for bits in ("65537", "1000000", "20000000"):
        result = _cli("aluthge", "--precision", bits, str(path))
        _assert_usage_error(result)
        assert "at most 65536" in result.stderr
    assert _cli("aluthge", "--precision", "65536", str(path)).returncode == 0


def _big_document(path, positions):
    path.write_text(json.dumps({"radical_base": "1", "mode": "rational",
                                "atoms": [{"pos_q": q, "pos_k": 0,
                                           "weight": "1/3"}
                                          for q in positions]}))
    return str(path)


def test_too_many_atoms_is_usage_error(tmp_path):
    # a transform decision at p = 321 takes seconds and grows about as p^3.3
    over = _big_document(tmp_path / "over.json",
                         [str(q) for q in range(1, MAX_ATOMS + 2)])
    result = _cli("analyze", over)
    _assert_usage_error(result)
    assert f"at most {MAX_ATOMS} atoms" in result.stderr
    at_cap = _big_document(tmp_path / "cap.json",
                           [str(q) for q in range(1, MAX_ATOMS + 1)])
    assert load_measure(at_cap).p == MAX_ATOMS


def test_low_precision_sharp_example_is_never_refuted(tmp_path):
    # the paper's five-atom example with its 128-bit masses, read at 53 bits:
    # the box of radius 2^-52 around those masses holds the example, which
    # has a root, so impossible would be unsound
    path = tmp_path / "one.json"
    path.write_text(dumps_measure(example_one()))
    assert _cli("aluthge", "--precision", "53", str(path)).returncode == 0
    assert main(["sqrt", "--precision", "53", str(path)]) == 0
    # at 1 and 2 bits the box lets a mass be 0: undetermined, not a fault
    for bits in ("1", "2"):
        assert main(["analyze", "--precision", bits, "--shift-terms", "3",
                     str(path)]) == 3


def test_oversized_products_give_no_traceback(tmp_path):
    # products of these positions have 8001 digits, more than prints
    path = _big_document(tmp_path / "big.json", ["1e4000", "3e4000", "7e4000"])
    for command in ("analyze", "sqrt", "aluthge"):
        result = _cli(command, path)
        _assert_usage_error(result)
        assert "atom 0: the square of the position" in result.stderr
    # within the bound every verdict prints; a certificate quotes a value
    # beyond the digit limit by its size
    path = _big_document(tmp_path / "wide.json",
                         ["1/3" + "0" * 2148, "5" + "0" * 2148])
    result = _cli("aluthge", "--json", path)
    assert result.returncode == 2 and not result.stderr
    message = json.loads(result.stdout)["certificate"]["message"]
    assert "(a number of more than" in message
    assert _cli("analyze", path).returncode == 2


def test_recurrence_quotes_oversized_coefficients_by_size(tmp_path):
    # each square prints, but the recurrence coefficients are products of
    # up to five positions, more digits than the interpreter prints
    path = _big_document(tmp_path / "rec.json",
                         [f"{q}e2000" for q in (1, 2, 5, 9, 13)])
    result = _cli("recurrence", "--max-order", "6", path)
    assert result.returncode == 0 and not result.stderr
    assert result.stdout.startswith("order 5: g[n+5] = ")
    assert "((a number of more than" in result.stdout
    result = _cli("recurrence", "--json", "--max-order", "6", path)
    assert result.returncode == 0 and not result.stderr
    data = json.loads(result.stdout)
    assert data["order"] == 5
    assert "(a number of more than" in data["coefficients"][0]
    assert data["coefficients"][-1] == "30" + "0" * 2000  # the sum of the atoms


def test_recurrence_of_a_hundred_atoms_is_read_off_the_support(tmp_path):
    # a recurrence search over the 201 exact moments ran past 60 s
    path = str(tmp_path / "g100.json")
    assert _cli("gen", "--p", "100", "--seed", "1", "--out", path).returncode == 0
    result = _cli("recurrence", "--max-order", "100", path)
    assert result.returncode == 0 and not result.stderr
    assert result.stdout.startswith("order 100: g[n+100] = ")


def test_recurrence_of_a_real_file_is_that_of_its_rational_twin(tmp_path):
    # only the support is read: real masses are accepted, radical
    # positions are not
    atoms = [(1, F(1, 4)), (2, F(1, 2)), (4, F(1, 4))]
    outputs = []
    for mode in ("rational", "real"):
        path = tmp_path / f"{mode}.json"
        path.write_text(dumps_measure(make_measure(atoms, mode=mode)))
        result = _cli("recurrence", str(path))
        assert result.returncode == 0 and not result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("order 3: g[n+3] = ")
    path = tmp_path / "radical.json"
    path.write_text(dumps_measure(make_measure(
        [(Position(F(1), 1, F(2)), F(1, 2)), (2, F(1, 2))], base=F(2))))
    result = _cli("recurrence", str(path))
    assert result.returncode == 1 and not result.stdout
    assert "rational positions" in result.stderr


def test_gen_beyond_the_random_positions_is_usage_error():
    # the random style draws from 310 distinct fractions; 311 atoms never
    # returned
    result = _cli("gen", "--p", "311", "--style", "random")
    _assert_usage_error(result)
    assert "310 distinct fractions" in result.stderr
    result = _cli("gen", "--p", "310", "--style", "random")
    assert result.returncode == 0
    assert len(json.loads(result.stdout)["measure"]["atoms"]) == 310


@pytest.mark.parametrize("argv", [
    ["shift", "--terms", "2000000"], ["shift", "--terms", "0"],
    ["shift", "--terms", "101"],
    ["analyze", "--shift-terms", "2000000"], ["analyze", "--shift-terms", "-1"],
    ["analyze", "--shift-terms", "101"],
    ["recurrence", "--max-order", "100000"], ["recurrence", "--max-order", "-2"],
    ["recurrence", "--max-order", "0"], ["recurrence", "--max-order", "401"]],
    ids=" ".join)
def test_count_out_of_range_is_usage_error(four_atom_file, argv):
    # without a bound the large counts were still running after 10 s, and
    # a negative --shift-terms silently dropped the tables
    result = _cli(*argv, four_atom_file)
    _assert_usage_error(result)
    assert f"argument {argv[1]}: must be at " in result.stderr


def test_counts_at_their_bounds_are_accepted(capsys, four_atom_file):
    assert main(["recurrence", "--max-order", str(MAX_ATOMS), four_atom_file]) == 0
    assert capsys.readouterr().out.startswith("order 4: ")
    assert main(["shift", "--terms", str(MAX_SHIFT_TERMS), four_atom_file]) == 0
    assert len(capsys.readouterr().out.splitlines()) == MAX_SHIFT_TERMS + 1
    assert main(["analyze", "--shift-terms", str(MAX_SHIFT_TERMS),
                 four_atom_file]) == 2
    assert "shift tables" in capsys.readouterr().out
    assert main(["analyze", "--shift-terms", "0", four_atom_file]) == 2
    assert "shift tables" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--p", "6", "--mode", "arbitrary"], ["--p", "6", "--mode", "with-root"],
    ["--p", "5", "--mode", "with-aluthge-root"],
    ["--p", "4", "--mode", "perturbed"], ["--p", "5"]], ids=" ".join)
def test_gen_case_it_does_not_read_is_usage_error(argv):
    # only the six-atom closed forms read --case; it was silently dropped.
    # generate refuses it, and the CLI prints generate's message
    result = _cli("gen", *argv, "--case", "I")
    _assert_usage_error(result)
    assert not result.stdout
    mode = argv[3] if len(argv) > 2 else "arbitrary"
    with pytest.raises(MeasureError, match="case applies only") as refused:
        generate(GeneratorSpec(int(argv[1]), mode, 0, case="I"))
    assert result.stderr == f"error: {refused.value}\n"


@pytest.mark.parametrize("mode", ["with-aluthge-root", "perturbed"])
def test_gen_six_atom_closed_forms_take_case(capsys, mode):
    assert main(["gen", "--p", "6", "--mode", mode, "--case", "II"]) == 0
    assert json.loads(capsys.readouterr().out)["measure"]["atoms"]


@pytest.mark.parametrize("p", ["401", "3000", "0", "-1"])
def test_gen_outside_the_atom_bound_is_usage_error(tmp_path, p):
    # 401 atoms used to be written to a file that `analyze` then refused
    out = tmp_path / "m.json"
    result = _cli("gen", "--p", p, "--out", str(out))
    _assert_usage_error(result)
    assert not out.exists()


def test_gen_mode_choices_are_the_generator_modes():
    # the parser names them itself, so that building it imports no generator
    from alsq.generator import MODES

    commands, = [action.choices for action in build_parser()._actions
                 if isinstance(action.choices, dict)]
    mode, = [action for action in commands["gen"]._actions
             if action.dest == "mode"]
    assert mode.choices == MODES


def test_help_text_is_pinned(capsys, monkeypatch):
    # one digest over `alsq --help` and the --help of every subcommand, at
    # argparse's default width
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for command in ([], ["analyze"], ["sqrt"], ["aluthge"], ["convolve"],
                    ["shift"], ["recurrence"], ["gen"], ["selftest"]):
        assert main(command + ["--help"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == \
        "9928c029c192b6369389fa233fdabcb9f6594933adc6fb9dea6e5344564f5d37"
