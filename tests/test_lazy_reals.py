"""mpmath is loaded by ``alsq.reals`` alone, and only for real-mode values.

A rational run of the CLI never imports mpmath, which saves every such
process the import, and no run imports ``dataclasses``, ``inspect`` or
``traceback``.  Likewise the generator and the shift tables load only for
the commands that read them, through the package's lazy names.  Each case
runs in a fresh interpreter: this process has mpmath loaded already."""

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
from alsq.generator import GeneratorSpec, generate
from alsq.measures import dumps_measure, make_measure
from alsq.selftest import example_one, example_two

F = Fraction
PACKAGE = Path(alsq.__file__).resolve().parent

# modules that cost a CLI process milliseconds at start-up and that no
# command needs: dataclasses loads inspect, ast, dis and tokenize, and
# traceback loads linecache and textwrap
_UNUSED = ("dataclasses", "inspect", "traceback")

# runs ``alsq`` commands in one fresh interpreter and prints, per command,
# its exit code, whether mpmath is loaded after it, its stdout, which of
# ``_UNUSED`` are loaded and which ``alsq`` submodules are
_PROBE = """
import contextlib, io, json, sys
import alsq
from alsq import cli
unused = json.loads(sys.argv[2])
def loaded():
    return [name for name in unused if name in sys.modules]
def submodules():
    return sorted(name for name in sys.modules if name.startswith("alsq."))
print(json.dumps(["import", 0, "mpmath" in sys.modules, "", loaded(),
                  submodules()]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    print(json.dumps([argv[0], code, "mpmath" in sys.modules, out.getvalue(),
                      loaded(), submodules()]))
"""


def _fresh(*args):
    """The stdout lines of ``python -c *args`` in a fresh interpreter that
    imports this ``alsq``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", *args], capture_output=True,
                          text=True, timeout=60, env=env, check=True)
    return done.stdout.splitlines()


def _records(runs):
    return [json.loads(line)
            for line in _fresh(_PROBE, json.dumps(runs), json.dumps(_UNUSED))]


def _probe(runs):
    """Per command: its name, exit code, whether mpmath is loaded, its
    stdout and which of ``_UNUSED`` are loaded."""
    return [record[:5] for record in _records(runs)]


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
    for argv, (_, code, loaded, out, _) in zip([["import"]] + runs, records):
        assert not loaded, argv
        if argv[0] != "import":
            assert (code, out) == _in_process(argv), argv
    # both outcomes occurred, so both paths were taken
    assert {code for _, code, *_ in records[1:]} >= {0, 2}


def test_a_real_value_loads_mpmath_with_identical_output(tmp_path,
                                                         rational_files):
    real = _write(tmp_path / "real.json", example_one())
    runs = [["sqrt", rational_files[0]], ["analyze", "--json", real],
            ["aluthge", real]]
    records = _probe(runs)
    assert [loaded for _, _, loaded, *_ in records] == [False, False, True,
                                                        True]
    for argv, (_, code, _, out, _) in zip(runs, records[1:]):
        assert (code, out) == _in_process(argv), argv
    # shift tables of rational input are rounded and printed on ints
    argv = ["analyze", "--shift-terms", "3", rational_files[0]]
    (_, code, loaded, out, _), = _probe([argv])[1:]
    assert not loaded and (code, out) == _in_process(argv)


def test_no_run_loads_dataclasses_inspect_or_traceback(tmp_path,
                                                       rational_files):
    real = _write(tmp_path / "real.json", example_one())
    runs = []
    for path in (rational_files[0], rational_files[1], real):
        runs += [["analyze", "--json", path], ["sqrt", path],
                 ["aluthge", path], ["convolve", path, path]]
    records = _probe(runs)
    assert [command for command, *_ in records] == \
        ["import"] + [argv[0] for argv in runs]
    assert records[-1][2]  # the real file took the real-mode paths
    for argv, (_, code, _, _, unused) in zip([["import"]] + runs, records):
        assert unused == [], argv
        assert code in (0, 2), argv



def test_only_the_commands_that_read_them_load_generator_or_shift_tables(
        rational_files):
    lazy = {"alsq.generator", "alsq.shifts"}
    runs = []
    for path in rational_files:
        runs += [["analyze", "--json", path], ["sqrt", path],
                 ["aluthge", "--json", path], ["convolve", path, path]]
    records = _records(runs)
    assert [command for command, *_ in records] == \
        ["import"] + [argv[0] for argv in runs]
    for argv, (*_, submodules) in zip([["import"]] + runs, records):
        assert not lazy & set(submodules), argv
    # a module once loaded stays, so each of these runs on its own
    six = rational_files[0]
    for argv, needed in ((["analyze", "--shift-terms", "4", six], "alsq.shifts"),
                         (["shift", six], "alsq.shifts"),
                         (["recurrence", six], "alsq.shifts"),
                         (["gen", "--p", "4", "--seed", "1"], "alsq.generator")):
        (_, code, _, out, _, submodules), = _records([argv])[1:]
        assert lazy & set(submodules) == {needed}, argv
        assert (code, out) == _in_process(argv), argv


# which public names a fresh ``import alsq`` leaves to its ``__getattr__``,
# which of those are submodules, and which names of ``__all__`` a star
# import fails to bind
_STAR = """
import json, types
import alsq
lazy = [name for name in alsq.__all__ if name not in vars(alsq)]
names = {}
exec("from alsq import *", names)
print(json.dumps({
    "lazy": lazy,
    "modules": [name for name in lazy
                if isinstance(getattr(alsq, name), types.ModuleType)],
    "missing": [name for name in alsq.__all__ if name not in names]}))
"""


def test_star_import_binds_every_public_name():
    report = json.loads(_fresh(_STAR)[0])
    assert report["missing"] == []
    assert len(set(alsq.__all__)) == len(alsq.__all__) == 60
    assert {"GeneratedInstance", "GeneratorSpec", "generate", "shifts",
            "support_characteristic"} <= set(report["lazy"])


def test_no_name_served_lazily_is_shadowed_by_a_submodule():
    # importing a submodule binds its file name on the package, over any
    # function served under that name; only a submodule itself may share it
    report = json.loads(_fresh(_STAR)[0])
    files = {path.stem for path in PACKAGE.glob("*.py")}
    assert set(report["lazy"]) & files == set(report["modules"]) == {"shifts"}


@pytest.mark.parametrize("imports", [
    "import alsq.generator; from alsq import generate",
    "from alsq import generate; import alsq.generator"],
    ids=["submodule first", "package name first"])
def test_generate_is_the_function_whichever_is_imported_first(imports):
    assert _fresh(imports + "; import alsq, types; print(isinstance("
                  "generate, types.FunctionType) and generate is "
                  "alsq.generate is alsq.generator.generate)") == ["True"]

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


def test_no_module_imports_dataclasses():
    # an import inside a function would still load it on the path that
    # calls the function, so every import statement counts
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        imports = [alias.name if isinstance(node, ast.Import) else node.module
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names]
        if "dataclasses" in imports:
            found[path.name] = imports
    assert found == {}


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


# what ``alsq.reals`` keeps of mpmath: the mpf container and its context's
# ``make_mpf``, and the parser and the printer of decimal text
_REALS_MPMATH = {"mpf", "mp", "from_str", "to_str"}
# libmp's rounding modes, by the names libmp exports them under
_ROUNDING_MODES = {"round_ceiling", "round_down", "round_fast", "round_floor",
                   "round_nearest", "round_up"}


def test_reals_keeps_only_the_mpf_container_and_the_decimal_text():
    from mpmath import libmp

    tree = ast.parse((PACKAGE / "reals.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mpmath":
                    imported[alias.name] = "import"
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "mpmath":
            imported.update((alias.name, node.module) for alias in node.names)
    assert set(imported) == _REALS_MPMATH
    # no module of the package names libmp's arithmetic, its conversions
    # that round or its rounding modes, through alsq.reals or otherwise
    forbidden = ({name for name in dir(libmp) if name.startswith("mpf_")}
                 | {"from_rational", "from_man_exp"} | _ROUNDING_MODES)
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        if names & forbidden:
            found[path.name] = sorted(names & forbidden)
    assert found == {}
