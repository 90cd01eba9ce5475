"""Seeded corpora and the timed operation of each workload.

Every corpus is built through the public ``alsq`` API (``generate``,
``make_measure``, ``convolve``, ``dumps_measure``) from the run's seed alone,
so the same seed gives the same inputs.  An :class:`Instance` keeps the
answers known by construction for the oracle.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from alsq import (
    AnalyzeOptions,
    GeneratorSpec,
    aluthge_subnormal,
    analyze,
    convolve,
    dumps_measure,
    generate,
    loads_measure,
    make_measure,
    sqrt_of,
)

import oracle
from oracle import IMPOSSIBLE, WITNESS, Decided

SMALL_MIX_SIZE = 400
REAL_SLICE_SIZE = 400
CLI_BATCH_SIZE = 40
REAL_BITS = 128
REAL_SHIFT_TERMS = 20
LADDER_QS = tuple(range(3, 13))          # root atoms; the squares have 2q - 1
LADDER_RATIOS = (Fraction(2), Fraction(3), Fraction(3, 2), Fraction(5, 2),
                 Fraction(4, 3), Fraction(5, 3))
TWIN_FACTOR = 2                          # scales the mass at the top atom
ARBITRARY_PS = tuple(range(7, 24))
LADDER_COPIES = 4                        # seeded ladders per geo-ladder corpus
ARBITRARY_COPIES = 4                     # fixed arbitrary instances per size
KNOWN_UNDETERMINED = GeneratorSpec(9, "arbitrary", 174,
                                   position_style="geometric")


@dataclass
class Instance:
    label: str
    measure: object                       # alsq.AtomicMeasure as analysed
    known_sqrt: Optional[str] = None
    known_aluthge: Optional[str] = None
    text: Optional[str] = None            # JSON document (small-mix)
    path: Optional[str] = None            # measure file (cli-batch)
    ladder: bool = False                  # square or twin of the ladder

    @property
    def p(self) -> int:
        return self.measure.p


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def mix_spec(index: int, seed_base: int) -> GeneratorSpec:
    """The p = 3..6 proportions of the property tests, on fresh seeds."""
    p = (3, 4, 5, 6)[index % 4]
    kind = ("with-root", "perturbed", "with-aluthge-root",
            "arbitrary")[(index // 4) % 4]
    if p == 4 and kind in ("with-root", "with-aluthge-root"):
        kind = "arbitrary"
    return GeneratorSpec(p, kind, seed_base + index)


def mix_instance(spec: GeneratorSpec) -> Instance:
    # squares (with-root) and closed-form roots (with-aluthge-root) are
    # squares rho * rho, so mu * t(mu) = (rho * t(rho))^2 has a root too
    known = WITNESS if spec.mode in ("with-root", "with-aluthge-root") else None
    return Instance(repr(spec), generate(spec).measure, known, known)


def build_small_mix(seed: int, workdir: Path) -> List[Instance]:
    out = []
    for i in range(SMALL_MIX_SIZE):
        inst = mix_instance(mix_spec(i, 10_000_000 + 10_000 * seed))
        inst.text = dumps_measure(inst.measure)
        out.append(inst)
    return out


def build_real_slice(seed: int, workdir: Path) -> List[Instance]:
    """A fixed mix, in an order drawn from the seed.

    At 53 bits ``classify_small`` contradicts the witness of about one
    instance in eight, and which ones depends on the instance.  Drawing the
    mix per seed would make the number of failures differ between seeds;
    a fixed mix fails on the same instances in every run, so a change in
    the count is a change in the program."""
    out = []
    for i in range(REAL_SLICE_SIZE):
        inst = mix_instance(mix_spec(i, 20_000_000))
        inst.measure = inst.measure.to_real(REAL_BITS)
        inst.label += f".to_real({REAL_BITS})"
        out.append(inst)
    random.Random(seed).shuffle(out)
    return out


def build_cli_batch(seed: int, workdir: Path) -> List[Instance]:
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for i in range(CLI_BATCH_SIZE):
        inst = mix_instance(mix_spec(i, 30_000_000 + 10_000 * seed))
        inst.path = str(workdir / f"m{i:03d}.json")
        with open(inst.path, "w", encoding="utf-8") as handle:
            handle.write(dumps_measure(inst.measure))
        out.append(inst)
    return out


def ladder_ratio(p: int) -> Fraction:
    """The common ratio depends on the size only: the cost of a geometric
    instance grows with the size of its numbers, so a seed-drawn ratio would
    make the run's cost depend on the seed."""
    return LADDER_RATIOS[p % len(LADDER_RATIOS)]


def geometric_measure(p: int, ratio: Fraction, rng: random.Random):
    return make_measure([(ratio ** i, Fraction(rng.randint(1, 9),
                                               rng.randint(1, 6)))
                         for i in range(p)])


def build_ladder(seed: int, copy: int = 0) -> List[Instance]:
    """Exact geometric squares rho * rho for each q, each followed by its
    twin whose top mass is scaled by TWIN_FACTOR.  The lowest q atoms of the
    twin force the root rho, whose square then misses the top atom, so the
    twin has no root."""
    rng = random.Random(40_000_000 + LADDER_COPIES * seed + copy)
    out = []
    for q in LADDER_QS:
        ratio = ladder_ratio(q)
        rho = geometric_measure(q, ratio, rng)
        mu = convolve(rho, rho)
        label = f"ladder(q={q}, ratio={ratio}, seed={seed}, copy={copy})"
        out.append(Instance(f"{label}.square", mu, WITNESS, WITNESS,
                            ladder=True))
        atoms = list(mu.atoms)
        top_pos, top_mass = atoms[-1]
        atoms[-1] = (top_pos, top_mass * TWIN_FACTOR)
        out.append(Instance(f"{label}.twin", make_measure(atoms), IMPOSSIBLE,
                            None, ladder=True))
    return out


def build_geo_ladder(seed: int, workdir: Path) -> List[Instance]:
    """Seeded ladders plus a fixed set of arbitrary instances.

    The arbitrary instances do not depend on the seed: their cost varies
    with the path elimination happens to take, and they fill the middle of
    the latency distribution, so drawing them per seed would move the median
    latency by 15% between seeds.  The seeded ladders vary the inputs."""
    out = []
    for copy in range(LADDER_COPIES):
        out += build_ladder(seed, copy)
    for copy in range(ARBITRARY_COPIES):
        rng = random.Random(50_000_000 + copy)
        for p in ARBITRARY_PS:
            ratio = ladder_ratio(p)
            out.append(Instance(f"arbitrary(p={p}, ratio={ratio}, copy={copy})",
                                geometric_measure(p, ratio, rng)))
        for p in ARBITRARY_PS:
            spec = GeneratorSpec(p, "arbitrary", 50_000_000 + 100 * copy + p,
                                 position_style="random")
            out.append(Instance(repr(spec), generate(spec).measure))
    out.append(Instance(repr(KNOWN_UNDETERMINED),
                        generate(KNOWN_UNDETERMINED).measure))
    return out


# ---------------------------------------------------------------------------
# timed operations; each returns the raw result, read() turns it into the
# three decisions (sqrt, aluthge, closed form) the oracle checks
# ---------------------------------------------------------------------------

Decisions = Tuple[Optional[Decided], Optional[Decided], Optional[Decided]]

REAL_OPTIONS = AnalyzeOptions(shift_terms=REAL_SHIFT_TERMS)
DEFAULT_OPTIONS = AnalyzeOptions()


def run_small_mix(inst: Instance):
    return analyze(loads_measure(inst.text))


def run_real_slice(inst: Instance):
    return analyze(inst.measure, REAL_OPTIONS)


def run_geo_ladder(inst: Instance):
    return sqrt_of(inst.measure), aluthge_subnormal(inst.measure)


def cli_command(path: str, shift_terms: int = 0) -> List[str]:
    argv = [sys.executable, "-m", "alsq.cli", "analyze", "--json", path]
    if shift_terms:
        argv += ["--shift-terms", str(shift_terms)]
    return argv


class CliError(RuntimeError):
    pass


def run_cli_process(argv: List[str], env: dict, cwd: str) -> str:
    done = subprocess.run(argv, env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)
    if done.returncode not in (0, 2, 3):
        raise CliError(f"exit {done.returncode}: {done.stderr.strip()[-300:]}")
    return done.stdout


def read_report(report) -> Decisions:
    return tuple(None if v is None else oracle.decided_from_verdict(v)
                 for v in (report.sqrt_verdict, report.aluthge_verdict,
                           report.small_verdict))


def read_pair(pair) -> Decisions:
    sqrt, aluthge = pair
    return (oracle.decided_from_verdict(sqrt),
            oracle.decided_from_verdict(aluthge), None)


def read_cli(stdout: str) -> Decisions:
    payload = json.loads(stdout)
    return tuple(oracle.decided_from_json(payload[key])
                 for key in ("sqrt", "aluthge", "closed_form"))


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path], List[Instance]]
    shift_terms: int
    in_process: Optional[Callable[[Instance], object]]  # None: CLI process
    read: Callable[[object], Decisions]

    def options(self) -> AnalyzeOptions:
        return REAL_OPTIONS if self.shift_terms else DEFAULT_OPTIONS


WORKLOADS = {
    "small-mix": Workload("small-mix", build_small_mix, 0, run_small_mix,
                          read_report),
    "geo-ladder": Workload("geo-ladder", build_geo_ladder, 0, run_geo_ladder,
                           read_pair),
    "real-slice": Workload("real-slice", build_real_slice, REAL_SHIFT_TERMS,
                           run_real_slice, read_report),
    "cli-batch": Workload("cli-batch", build_cli_batch, 0, None, read_cli),
}
