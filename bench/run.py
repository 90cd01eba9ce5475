#!/usr/bin/env python3
"""Benchmark for alsq: end-to-end decision metrics and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload small-mix --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` next to this directory; without it the
run stops with exit code 2 and prints no result.  One process drives one
closed-loop client: the next instance starts when the previous one is done.
Workloads (see ``workloads.py``): ``small-mix``, ``geo-ladder``,
``real-slice`` and ``cli-batch``.

``--trace 0`` runs complete passes over the corpus until ``--seconds`` have
elapsed and prints the ``end_to_end`` metrics of ``BENCHMARK.json``.
``--trace 1`` makes one untraced pass, then one traced pass that also times
each layer's public functions standalone on every instance, and prints the
``per_layer`` metrics.  Units come from ``BENCHMARK.json``; the metric names
computed here must match it exactly.

Durations are scaled to a reference machine speed measured during the run
(see :class:`Speed`); the unscaled figures are printed too.  Latency
percentiles are taken over instances, each instance counting with its median
over the passes.

Lines before the last start with ``#``: the environment, the run shape
(passes, sample count, tail percentile), the failure and undetermined
shares, and every failing instance with its reasons.  The last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
``attempted`` counts the corpus instances run and ``failed`` those with a
failing run, so both repeat exactly for a seed however many passes fit in
the time; ``correct`` is false only when a run failed fatally (see
``oracle.py``).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
WARMUP_INSTANCES = 8
CLI_SAMPLE = 8
TAIL_LEVELS = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)
TAIL_BEYOND = 10
CALIBRATE_EVERY = 0.025
SPEED_NEIGHBOURS = 3
PROCESS_REFERENCE_MS = 80.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import alsq; "
                "print(time.perf_counter() - t)")
SOLVER_RULES = (
    "boundary-products", "candidates-exhausted", "double-extreme-match",
    "doubly-ur-column", "equation-mismatch", "extreme-square-match",
    "four-atom-family", "nonpositive-forced-mass", "propagation-conflict",
    "six-atom-crossed-squares", "six-atom-wide-square", "support-cardinality",
    "support-product-mismatch", "ur-chain-midpoint", "ur-corner-triangle",
    "ur-diagonals-edge", "ur-rectangle",
    # rules of the planned unique-root peel
    "peel-nonpositive-mass", "peel-overflow", "peel-support-mismatch",
)
MODULES = ("measures", "diagram", "solver", "closed_forms", "shifts",
           "analyze", "cli")


def stop(message: str, code: int = 2) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values):
    """(level, value, beyond): the highest level in TAIL_LEVELS with at least
    TAIL_BEYOND samples above its nearest-rank percentile; the maximum when
    there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for level in TAIL_LEVELS:
        index = math.ceil(level * n) - 1
        if n - 1 - index >= TAIL_BEYOND:
            return level, ordered[index], n - 1 - index
    return 1.0, ordered[-1], 0


def median(values):
    return statistics.median(values) if values else 0.0


def per_instance(samples, instances: int):
    """Median latency of each instance over the passes; samples are in pass
    order.  Percentiles are taken over instances, so the tail percentile does
    not change with the number of passes."""
    return [median(samples[i::instances]) for i in range(instances)]


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def fraction_kernel() -> Fraction:
    """Fixed pure-Python work shaped like the package's: Fraction products
    and sums, hashed into a dict."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 240):
        x = Fraction(i, i + 1) * Fraction(3, 7) + Fraction(1, i)
        seen[x] = i
        total += x
    return total


def process_kernel(env: dict):
    """A fresh interpreter importing what the CLI imports besides alsq; its
    start-up slows with the machine as a CLI process does, which the
    in-process kernel does not track."""
    return lambda: subprocess.run(
        [sys.executable, "-c", "import argparse, fractions, json, mpmath"],
        env=env, cwd=str(ROOT), capture_output=True, timeout=60, check=True)


class Speed:
    """Tracks the machine's speed during a run.

    On a shared host the same work runs markedly slower in some seconds
    than in others.  A fixed kernel that calls no package code, so that no
    change to the package makes it faster, runs between operations at most
    every CALIBRATE_EVERY seconds.  A duration measured at time t is scaled
    by reference_ms over the median kernel time of the SPEED_NEIGHBOURS
    kernels nearest to t, so times read as measured at the speed where the
    kernel takes reference_ms.
    """

    def __init__(self, kernel=fraction_kernel, reference_ms=2.0):
        self.kernel = kernel
        self.reference_ms = reference_ms
        self.at = []
        self.ms = []
        self.last = -math.inf

    def tick(self) -> None:
        began = time.perf_counter()
        if began - self.last < CALIBRATE_EVERY:
            return
        self.kernel()
        self.last = time.perf_counter()
        self.at.append((began + self.last) / 2)
        self.ms.append((self.last - began) * 1e3)

    def scale(self, when: float) -> float:
        index = bisect.bisect(self.at, when)
        low = max(0, min(index - SPEED_NEIGHBOURS // 2,
                         len(self.ms) - SPEED_NEIGHBOURS))
        return self.reference_ms / statistics.median(
            self.ms[low:low + SPEED_NEIGHBOURS])

    def scaled(self, samples):
        """[(time, duration)] -> [duration at the reference speed]."""
        return [value * self.scale(when) for when, value in samples]

    def report(self) -> dict:
        return {"kernel_ms_median": median(self.ms), "kernels": len(self.ms),
                "reference_ms": self.reference_ms}


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def environment() -> dict:
    import mpmath

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
    }


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_seconds(env: dict) -> float:
    """`import alsq` in a fresh interpreter, as a CLI process pays it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=str(ROOT), capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip())


def set_up(workload, seed: int, workdir: Path, env: dict, speed: Speed):
    """Build the corpus SETUP_REPEATS times; each set-up is one import in a
    fresh interpreter plus one corpus build.  Returns the last corpus and the
    import and set-up times in seconds, each as (time, duration)."""
    import_seconds(env)  # writes the bytecode cache once, untimed
    imports, setups, corpus = [], [], None
    for i in range(SETUP_REPEATS):
        speed.tick()
        began = time.perf_counter()
        imported = import_seconds(env)
        speed.tick()
        start = time.perf_counter()
        corpus = workload.build(seed, workdir / f"setup{i}")
        ended = time.perf_counter()
        imports.append(((began + start) / 2, imported))
        setups.append(((began + ended) / 2, imported + ended - start))
    speed.tick()
    return corpus, imports, setups


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

class Checker:
    """Runs the oracle on the first result of each instance and requires
    later passes to repeat its verdicts.

    ``attempted`` and ``failed`` count corpus instances, not instance runs:
    an instance fails when any of its runs fails.  The number of passes a
    run completes depends on the machine's speed, so counting runs would
    make the counts differ between two runs of the same seed."""

    def __init__(self, workload):
        self.workload = workload
        self.first = {}
        self.seen = set()
        self.failing = set()
        self.fatal = 0
        self.decisions = self.undetermined = 0
        self.failures = {}

    @property
    def attempted(self) -> int:
        return len(self.seen)

    @property
    def failed(self) -> int:
        return len(self.failing)

    def record(self, index, inst, raw, error) -> None:
        import oracle

        self.seen.add(index)
        if error is not None:
            reasons = [(error, True)]
        else:
            try:
                decided = self.workload.read(raw)
            except (ValueError, KeyError, TypeError) as exc:
                decided, reasons = None, [(f"unreadable result: {exc!r}", True)]
            if decided is not None:
                fingerprint = tuple(d and d.outcome for d in decided)
                if index not in self.first:
                    target, exact = oracle.masses_of(inst.measure)
                    self.first[index] = (fingerprint, oracle.check(
                        target, exact, inst.known_sqrt, inst.known_aluthge,
                        *decided))
                    for d in decided[:2]:
                        if d is not None:
                            self.decisions += 1
                            self.undetermined += (d.outcome
                                                  == oracle.UNDETERMINED)
                expected, reasons = self.first[index]
                if fingerprint != expected:
                    reasons = reasons + [(f"verdicts {fingerprint} differ from "
                                          f"the first pass {expected}", True)]
        if reasons:
            self.failing.add(index)
            self.fatal += any(fatal for _, fatal in reasons)
            self.failures.setdefault(inst.label, reasons)

    def report(self) -> None:
        fail_share = self.failed / self.attempted
        undetermined_share = (self.undetermined / self.decisions
                              if self.decisions else 0.0)
        print("# shares " + json.dumps({
            "fail_share": fail_share, "failed": self.failed,
            "attempted": self.attempted,
            "undetermined_share": undetermined_share,
            "undetermined": self.undetermined, "decisions": self.decisions}))
        for label, reasons in self.failures.items():
            kinds = "; ".join(f"{'FATAL ' if fatal else ''}{text}"
                              for text, fatal in reasons)
            print(f"# failure {label}: {kinds}")

    @property
    def correct(self) -> bool:
        return self.fatal == 0


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def operation(workload, env: dict):
    """The timed call for one instance."""
    import workloads

    if workload.in_process is not None:
        return workload.in_process
    return lambda inst: workloads.run_cli_process(
        workloads.cli_command(inst.path, workload.shift_terms), env, str(ROOT))


def attempt(op, inst):
    try:
        return op(inst), None
    except Exception as exc:  # any exception is a failed operation
        return None, f"{type(exc).__name__}: {exc}"


def warm_up(op, corpus) -> None:
    for inst in sorted(corpus, key=lambda inst: inst.p)[:WARMUP_INSTANCES]:
        attempt(op, inst)


def peak_rss_mb(workload) -> float:
    who = (resource.RUSAGE_SELF if workload.in_process is not None
           else resource.RUSAGE_CHILDREN)
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(workload, corpus, seconds: float, env: dict, speed: Speed,
              imports, setups):
    op = operation(workload, env)
    warm_up(op, corpus)
    checker = Checker(workload)
    timed = []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for index, inst in enumerate(corpus):
            speed.tick()
            began = time.perf_counter()
            raw, error = attempt(op, inst)
            ended = time.perf_counter()
            timed.append(((began + ended) / 2, (ended - began) * 1e3))
            checker.record(index, inst, raw, error)
        passes += 1
    speed.tick()
    samples = speed.scaled(timed)
    latency = per_instance(samples, len(corpus))
    level, tail_ms, beyond = tail(latency)
    raw_ms = [ms for _, ms in timed]
    print("# run " + json.dumps({
        "passes": passes, "instances": len(corpus), "samples": len(samples),
        "tail_percentile": level * 100, "tail_beyond": beyond}))
    print("# speed " + json.dumps(speed.report()))
    print("# unscaled " + json.dumps({
        "throughput_ips": len(raw_ms) / (sum(raw_ms) / 1e3),
        "latency_p50_ms": median(per_instance(raw_ms, len(corpus))),
        "latency_tail_ms": tail(per_instance(raw_ms, len(corpus)))[1]}))
    checker.report()
    print("# setup " + json.dumps({
        "import_s": [s for _, s in imports], "setup_s": [s for _, s in setups],
        "scaled_setup_s": speed.scaled(setups)}))
    metrics = {
        "throughput_ips": len(samples) / (sum(samples) / 1e3),
        "latency_p50_ms": median(latency),
        "latency_tail_ms": tail_ms,
        "ok_share": 1 - checker.failed / checker.attempted,
        "decided_share": (1 - checker.undetermined / checker.decisions
                          if checker.decisions else 1.0),
        "peak_rss_mb": peak_rss_mb(workload),
        "setup_s": median(speed.scaled(setups)),
    }
    return checker, metrics


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

class Tracer:
    """Times calls into the package's public functions from outside."""

    def __init__(self):
        self.times = defaultdict(list)  # name -> [(time, ms)]
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)
        self.current = {}

    def span(self, name, fn, *args):
        began = time.perf_counter()
        result = fn(*args)
        ended = time.perf_counter()
        elapsed = (ended - began) * 1e3
        self.times[name].append(((began + ended) / 2, elapsed))
        self.busy[name.split(".", 1)[0]] += elapsed
        self.current[name] = self.current.get(name, 0.0) + elapsed
        return result

    def count_verdict(self, verdict) -> None:
        notes = " ".join(verdict.notes)
        if verdict.certificate is not None:
            notes += " " + verdict.certificate.message
            rule = verdict.certificate.rule
            key = rule if rule in SOLVER_RULES else "other"
            self.counts[f"solver.rule.{key}"] += 1
        for pattern in (r"candidate supports tried: (\d+)",
                        r"all (\d+) admissible candidate supports"):
            for found in re.findall(pattern, notes):
                self.counts["solver.candidates_tried"] += int(found)
        self.counts["solver.undetermined"] += verdict.outcome == "undetermined"


# calls analyze makes, by the standalone span that stands for each
ANALYZE_PARTS = ("measures.dumps_measure", "diagram.pair_diagram",
                 "diagram.cardinality_check", "diagram.geometric_profile",
                 "diagram.structural_certificate", "solver.sqrt_of",
                 "solver.aluthge_subnormal", "closed_forms.classify_small")
SHIFT_PARTS = (("shifts.weights_from_measure", 1),
               ("shifts.aluthge_weights", 1),
               ("shifts.moments_from_weights", 2))


def trace_layers(tracer: Tracer, inst, workload) -> float:
    """Call each layer's public functions on one instance; returns analyze
    time minus the standalone calls it is made of."""
    from alsq import (aluthge_subnormal, aluthge_weights, analyze,
                      cardinality_check, classify_small, convolve,
                      dumps_measure, geometric_profile, loads_measure,
                      moments_from_weights, pair_diagram, sqrt_of,
                      structural_certificate, t_weight, verify_witness,
                      weights_from_measure)
    import workloads

    mu = inst.measure
    tracer.current = {}
    span = tracer.span
    text = span("measures.dumps_measure", dumps_measure, mu)
    span("measures.loads_measure", loads_measure, text)
    reweighted = span("measures.convolve", convolve, mu, t_weight(mu))
    diagram = span("diagram.pair_diagram", pair_diagram, mu)
    tracer.counts["diagram.products"] += sum(len(e.pairs)
                                             for e in diagram.entries)
    tracer.counts["diagram.card"] += diagram.card
    span("diagram.structural_certificate", structural_certificate, mu)
    span("diagram.cardinality_check", cardinality_check, mu)
    span("diagram.geometric_profile", geometric_profile, mu)
    root = span("solver.sqrt_of", sqrt_of, mu)
    transform = span("solver.aluthge_subnormal", aluthge_subnormal, mu)
    for verdict in (root, transform):
        tracer.count_verdict(verdict)
    if root.witness is not None:
        span("solver.verify_witness", verify_witness, root.witness, mu)
    if transform.witness is not None:
        span("solver.verify_witness", verify_witness, transform.witness,
             reweighted)
    if 3 <= mu.p <= 6:
        closed = span("closed_forms.classify_small", classify_small, mu)
        if ("undetermined" not in (closed.outcome, transform.outcome)
                and closed.outcome != transform.outcome):
            tracer.counts["closed_forms.disagreements"] += 1
    alpha = span("shifts.weights_from_measure", weights_from_measure, mu,
                 workloads.REAL_SHIFT_TERMS + 1)
    span("shifts.aluthge_weights", aluthge_weights, alpha)
    span("shifts.moments_from_weights", moments_from_weights, alpha)
    span("analyze.analyze", analyze, mu, workload.options())
    if inst.ladder:
        now = time.perf_counter()
        for name in ("solver.sqrt_of", "solver.aluthge_subnormal",
                     "diagram.structural_certificate"):
            tracer.times[f"{name}.p{mu.p}.ms"].append(
                (now, tracer.current[name]))
    parts = sum(tracer.current.get(name, 0.0) for name in ANALYZE_PARTS)
    if workload.shift_terms:
        parts += sum(weight * tracer.current[name]
                     for name, weight in SHIFT_PARTS)
    return tracer.current["analyze.analyze"] - parts


def scaling_probe(tracer: Tracer, seed: int, speed: Speed) -> None:
    """Time the ladder of squares and twins for the scaling table."""
    from alsq import aluthge_subnormal, sqrt_of, structural_certificate
    import workloads

    for inst in workloads.build_ladder(seed):
        for name, fn in (("solver.sqrt_of", sqrt_of),
                         ("solver.aluthge_subnormal", aluthge_subnormal),
                         ("diagram.structural_certificate",
                          structural_certificate)):
            speed.tick()
            began = time.perf_counter()
            fn(inst.measure)
            ended = time.perf_counter()
            tracer.times[f"{name}.p{inst.p}.ms"].append(
                ((began + ended) / 2, (ended - began) * 1e3))


def cli_main_captured(argv):
    from alsq import cli

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code not in (0, 2, 3):
        raise RuntimeError(f"alsq {' '.join(argv)} exited {code}")


def cli_sample(tracer: Tracer, corpus, workload, workdir: Path,
               env: dict, speed: Speed) -> None:
    """Run `alsq analyze --json` in process and as a process on a few
    instances with at most six atoms."""
    from alsq import dumps_measure
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    sample = [inst for inst in corpus if inst.p <= 6][:CLI_SAMPLE]
    for i, inst in enumerate(sample):
        path = inst.path
        if path is None:
            path = str(workdir / f"cli{i}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(dumps_measure(inst.measure))
        argv = workloads.cli_command(path, workload.shift_terms)
        speed.tick()
        tracer.span("cli.main", cli_main_captured, argv[3:])
        speed.tick()
        tracer.span("cli.process", workloads.run_cli_process, argv, env,
                    str(ROOT))


def timed_pass(corpus, speed: Speed, call):
    """Run call(inst) for each instance; returns the results and the
    (time, seconds) each instance took."""
    results, timed = [], []
    for inst in corpus:
        speed.tick()
        began = time.perf_counter()
        results.append(call(inst))
        ended = time.perf_counter()
        timed.append(((began + ended) / 2, ended - began))
    return results, timed


def traced_run(workload, corpus, seed: int, workdir: Path, env: dict,
               speed: Speed, imports):
    op = operation(workload, env)
    warm_up(op, corpus)
    checker = Checker(workload)
    results, untraced_times = timed_pass(corpus, speed,
                                         lambda inst: attempt(op, inst))
    for index, (inst, (raw, error)) in enumerate(zip(corpus, results)):
        checker.record(index, inst, raw, error)
    del results

    tracer = Tracer()

    def traced(inst):
        attempt(op, inst)
        return time.perf_counter(), trace_layers(tracer, inst, workload)

    unattributed, traced_times = timed_pass(corpus, speed, traced)
    start = time.perf_counter()
    cli_sample(tracer, corpus, workload, workdir / "cli", env, speed)
    busy_wall = sum(s for _, s in traced_times) + time.perf_counter() - start
    if not any(inst.ladder for inst in corpus):
        scaling_probe(tracer, seed, speed)
    speed.tick()

    untraced_s = sum(speed.scaled(untraced_times))
    traced_s = sum(speed.scaled(traced_times))
    print("# run " + json.dumps({
        "passes": 1, "instances": len(corpus),
        "untraced_s": untraced_s, "traced_s": traced_s}))
    print("# speed " + json.dumps(speed.report()))
    checker.report()
    metrics = {}
    for name, timed in tracer.times.items():
        values = speed.scaled(timed)
        if name.endswith(".ms"):
            metrics[name] = median(values)
            continue
        metrics[f"{name}.ms_p50"] = median(values)
        if name in ("solver.sqrt_of", "solver.aluthge_subnormal"):
            level, value, beyond = tail(values)
            metrics[f"{name}.ms_tail"] = value
            print(f"# tail {name}: p{level * 100:g} over {len(values)} "
                  f"samples ({beyond} beyond)")
    for name in ("diagram.products", "diagram.card", "solver.candidates_tried",
                 "solver.undetermined", "closed_forms.disagreements"):
        metrics[name] = tracer.counts[name]
    for rule in SOLVER_RULES + ("other",):
        metrics[f"solver.rule.{rule}"] = tracer.counts[f"solver.rule.{rule}"]
    metrics["analyze.unattributed_ms"] = median(speed.scaled(unattributed))
    metrics["cli.import_s"] = median(speed.scaled(imports))
    for module in MODULES:
        metrics[f"{module}.busy_share"] = tracer.busy[module] / 1e3 / busy_wall
    metrics["bench.trace_overhead_s"] = traced_s - untraced_s
    metrics["oracle.failures"] = checker.failed
    return checker, metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "alsq" / "__init__.py").is_file():
        stop(f"no package source at {SRC / 'alsq'}; run from a checkout of "
             "the repository")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        stop(f"missing {spec_path}")
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, str(SRC))
    import alsq
    if Path(alsq.__file__).resolve().parent != SRC / "alsq":
        stop(f"imported alsq from {alsq.__file__}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        stop(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(workloads.WORKLOADS)}")

    env = child_env()
    print("# env " + json.dumps(environment()))
    print("# workload " + json.dumps({
        "name": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace}))
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    try:
        speed = Speed()
        if workload.in_process is None and not args.trace:
            speed = Speed(process_kernel(env), PROCESS_REFERENCE_MS)
        corpus, imports, setups = set_up(workload, args.seed, workdir, env,
                                         speed)
        if args.trace:
            checker, metrics = traced_run(workload, corpus, args.seed,
                                          workdir, env, speed, imports)
        else:
            checker, metrics = timed_run(workload, corpus, args.seconds, env,
                                         speed, imports, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if units.keys() != metrics.keys():
        stop("metrics differ from BENCHMARK.json: missing "
             f"{sorted(units.keys() - metrics.keys())}, undeclared "
             f"{sorted(metrics.keys() - units.keys())}", code=3)
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
