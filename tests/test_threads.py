"""Real-mode results do not depend on which thread computes them.

The decision path and the shift tables take their precision explicitly and
never switch mpmath's global context, so threads working at different
precisions at the same time must each get the serial results bit for bit.
``analyze`` is left out: its closed forms still switch that context."""

import sys
import threading
from fractions import Fraction

from alsq.generate import GeneratorSpec, generate
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
                    shift_rows(real, 12, bits)))
    return out


def test_threads_at_different_precisions_match_serial_runs():
    measures = _measures()
    expected = {bits: _results(measures, bits) for bits in (128, 256)}
    assert expected[128] != expected[256]
    mismatches = []
    done = []

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
