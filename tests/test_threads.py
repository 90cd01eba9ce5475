"""Real-mode results do not depend on which thread computes them.

Real arithmetic in ``alsq`` takes its precision explicitly or is exact, and
never switches mpmath's global context; only the acceptance suite in
``selftest`` still does.  So threads running ``analyze`` and the decision
path at different precisions at the same time must each get the serial
results bit for bit and leave the global precision as it was, and no other
code may name ``workprec``.  The same holds in a fresh interpreter where the
threads' first real-mode calls load mpmath at once."""

import ast
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import mpmath

import alsq
from alsq.analyze import AnalyzeOptions, analyze
from alsq.generator import GeneratorSpec, generate
from alsq.measures import convolve, make_measure, t_weight
from alsq.shifts import shift_rows
from alsq.solver import SolverConfig, aluthge_subnormal, sqrt_of

F = Fraction
ROUNDS = 3
THREADS = 6


def _measures():
    out = [generate(GeneratorSpec(p, mode, seed)).measure
           for p, mode, seed in ((3, "with-root", 1), (5, "with-aluthge-root", 2),
                                 (6, "with-root", 3), (6, "arbitrary", 4),
                                 (9, "arbitrary", 174))]
    rho = make_measure([(F(3, 2) ** i, F(i % 5 + 1, i % 3 + 2))
                        for i in range(8)])
    out.append(convolve(rho, rho))
    return out


def _raw(mu):
    return [(str(pos), w._mpf_) for pos, w in mu.atoms]


def _verdict(verdict):
    return (verdict.outcome,
            _raw(verdict.witness) if verdict.witness else None,
            verdict.certificate.to_json_dict() if verdict.certificate else None,
            verdict.residual, verdict.notes)


def _results(measures, bits):
    config = SolverConfig(bits)
    out = []
    for mu in measures:
        real = mu.to_real(bits)
        weighted = t_weight(real, bits)
        out.append((_raw(convolve(real, real, bits=bits)),
                    _raw(convolve(real, weighted, bits=bits)),
                    _raw(weighted),
                    _verdict(sqrt_of(real, config)),
                    _verdict(aluthge_subnormal(real, config)),
                    shift_rows(real, 12, bits),
                    analyze(real, AnalyzeOptions(config, 12)).to_json_dict()))
    return out


def test_threads_at_different_precisions_match_serial_runs():
    measures = _measures()
    expected = {bits: _results(measures, bits) for bits in (128, 256)}
    assert expected[128] != expected[256]
    mismatches = []
    done = []
    prec = mpmath.mp.prec

    def work(bits):
        for _ in range(ROUNDS):
            if _results(measures, bits) != expected[bits]:
                mismatches.append(bits)
        done.append(bits)

    threads = [threading.Thread(target=work, args=((128, 256)[i % 2],))
               for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(done) == THREADS
    assert mismatches == []
    # threads entering and leaving workprec at once restore one another's
    # precision, so any entry from these calls would show here
    assert mpmath.mp.prec == prec


# In a fresh interpreter that has not loaded mpmath, THREADS threads make
# the process's first real-mode call at once, each importing alsq.reals;
# every thread must get the results a serial run gets afterwards.
_FIRST_REAL_CALL = """
import sys, threading
from alsq import AnalyzeOptions, GeneratorSpec, SolverConfig, analyze
from alsq import aluthge_subnormal, convolve, generate, sqrt_of

THREADS = int(sys.argv[1])
measures = [generate(GeneratorSpec(p, mode, seed)).measure
            for p, mode, seed in ((3, "with-root", 1), (5, "with-aluthge-root", 2),
                                  (6, "arbitrary", 4))]


def raw(mu):
    return [(str(pos), w._mpf_) for pos, w in mu.atoms] if mu else None


def results(bits):
    config = SolverConfig(bits)
    out = []
    for mu in measures:
        real = mu.to_real(bits)
        out.append((raw(convolve(real, real, bits=bits)),
                    [(v.outcome, raw(v.witness), v.residual, v.notes)
                     for v in (sqrt_of(real, config),
                               aluthge_subnormal(real, config))],
                    analyze(real, AnalyzeOptions(config, 6)).to_json_dict()))
    return out


assert "mpmath" not in sys.modules
barrier = threading.Barrier(THREADS)
got = {}


def work(i):
    barrier.wait()
    got[i] = results((128, 256)[i % 2])


threads = [threading.Thread(target=work, args=(i,)) for i in range(THREADS)]
sys.setswitchinterval(1e-6)
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=120)
assert not any(thread.is_alive() for thread in threads)
sys.setswitchinterval(0.005)
expected = {bits: results(bits) for bits in (128, 256)}
assert expected[128] != expected[256]
print(sorted(i for i in range(THREADS)
             if got.get(i) != expected[(128, 256)[i % 2]]))
"""


def test_threads_making_the_first_real_call_match_serial_runs():
    env = dict(os.environ)
    src = str(Path(alsq.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _FIRST_REAL_CALL, str(THREADS)],
        capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"  # no thread differs


def _workprec_uses(tree):
    """(enclosing function or None, line) of every name, attribute and
    imported name ``workprec`` in a module."""
    uses = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        names = ((node.id,) if isinstance(node, ast.Name)
                 else (node.attr,) if isinstance(node, ast.Attribute)
                 else (node.name, node.asname) if isinstance(node, ast.alias)
                 else ())
        if "workprec" in names:
            uses.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return uses


def test_only_selftest_uses_workprec():
    allowed, found = [], []
    for path in sorted(Path(alsq.__file__).parent.glob("*.py")):
        for function, line in _workprec_uses(ast.parse(path.read_text())):
            (allowed if path.name == "selftest.py" else found).append(
                f"{path.name}:{line} in {function}")
    assert allowed  # the scan sees selftest's uses
    assert found == []
