"""mpmath is loaded by ``alsq.reals`` alone, and only for real-mode values.

A rational run of the CLI never imports mpmath, which saves every such
process the import.  Each case runs in a fresh interpreter: this process
has mpmath loaded already."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import alsq
from alsq.cli import main
from alsq.generate import GeneratorSpec, generate
from alsq.measures import dumps_measure, make_measure
from alsq.selftest import example_one, example_two

F = Fraction
PACKAGE = Path(alsq.__file__).resolve().parent

# runs ``alsq`` commands in one fresh interpreter and prints, per command,
# its exit code, whether mpmath is loaded after it, and its stdout
_PROBE = """
import contextlib, io, json, sys
import alsq
from alsq import cli
print(json.dumps(["import", 0, "mpmath" in sys.modules, ""]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    print(json.dumps([argv[0], code, "mpmath" in sys.modules, out.getvalue()]))
"""


def _probe(runs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(runs)],
                          capture_output=True, text=True, timeout=60, env=env,
                          check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def _in_process(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue()


def _write(path, mu):
    path.write_text(dumps_measure(mu))
    return str(path)


@pytest.fixture
def rational_files(tmp_path):
    """A witness for both questions, a refutation of both, a transform
    witness, and a square whose root has rational masses."""
    return [_write(tmp_path / "six.json", example_two()),
            _write(tmp_path / "arbitrary.json",
                   generate(GeneratorSpec(6, "arbitrary", 4)).measure),
            _write(tmp_path / "five.json",
                   generate(GeneratorSpec(5, "with-aluthge-root", 2)).measure),
            _write(tmp_path / "square.json",
                   make_measure([(1, F(1, 4)), (2, F(1, 2)), (4, F(1, 4))]))]


def test_rational_runs_never_load_mpmath(rational_files):
    runs = []
    for path in rational_files:
        runs += [["analyze", "--json", path], ["analyze", "--diagram", path],
                 ["sqrt", path], ["aluthge", "--json", path],
                 ["convolve", path, rational_files[0]]]
    records = _probe(runs)
    assert [command for command, *_ in records] == \
        ["import"] + [argv[0] for argv in runs]
    for argv, (_, code, loaded, out) in zip([["import"]] + runs, records):
        assert not loaded, argv
        if argv[0] != "import":
            assert (code, out) == _in_process(argv), argv
    # both outcomes occurred, so both paths were taken
    assert {code for _, code, _, _ in records[1:]} >= {0, 2}


def test_a_real_value_loads_mpmath_with_identical_output(tmp_path,
                                                         rational_files):
    real = _write(tmp_path / "real.json", example_one())
    runs = [["sqrt", rational_files[0]], ["analyze", "--json", real],
            ["aluthge", real]]
    records = _probe(runs)
    assert [loaded for _, _, loaded, _ in records] == [False, False, True,
                                                       True]
    for argv, (_, code, _, out) in zip(runs, records[1:]):
        assert (code, out) == _in_process(argv), argv
    # shift tables of rational input are rounded and printed on ints
    argv = ["analyze", "--shift-terms", "3", rational_files[0]]
    (_, code, loaded, out), = _probe([argv])[1:]
    assert not loaded and (code, out) == _in_process(argv)


def _module_level_imports(tree):
    """The modules imported by statements that run when the module is
    imported: everything outside function bodies."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found.extend([module] if node.module else
                         [module + alias.name for alias in node.names])
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def _loads_mpmath(module: str) -> bool:
    return (module.split(".")[0] == "mpmath"
            or module in (".reals", "alsq.reals"))


def test_only_reals_and_selftest_import_mpmath_at_module_level():
    allowed, found = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        imports = [module for module in
                   _module_level_imports(ast.parse(path.read_text()))
                   if _loads_mpmath(module)]
        if imports:
            (allowed if path.name in ("reals.py", "selftest.py")
             else found)[path.name] = imports
    assert set(allowed) == {"reals.py", "selftest.py"}  # the scan sees them
    assert found == {}
