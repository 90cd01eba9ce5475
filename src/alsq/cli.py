"""Command-line interface.

Exit codes: 0 when a witness was found (or the command simply succeeded),
2 for a certified impossibility, 3 for an undetermined outcome, 1 for usage
or input errors, and 4 for an internal fault (a result that contradicts the
mathematics, i.e. a bug); under ``--json`` an internal fault also prints
``{"error": ..., "kind": "internal"}`` on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from .analyze import AnalyzeOptions, analyze, render_shift_rows, shift_table
from .diagram import render_diagram
from .measures import (
    MAX_ATOMS,
    MeasureError,
    convolve,
    dumps_measure,
    has_radical,
    load_measure,
    measure_to_json_dict,
    save_measure,
    strip_zero_atom,
)
from .scalars import (
    DEFAULT_PRECISION_BITS,
    DEFAULT_TOLERANCE,
    ScalarError,
    parse_rational,
    scalar_str,
)
from .solver import (
    IMPOSSIBLE,
    UNDETERMINED,
    WITNESS,
    InternalError,
    SolverConfig,
    Verdict,
    aluthge_subnormal,
    sqrt_of,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_IMPOSSIBLE = 2
EXIT_UNDETERMINED = 3
EXIT_INTERNAL = 4

_VERDICT_EXIT = {WITNESS: EXIT_OK, IMPOSSIBLE: EXIT_IMPOSSIBLE,
                 UNDETERMINED: EXIT_UNDETERMINED}

SCHEMA = "alsq/1"


# the largest --precision: a decision at 65536 bits takes about a second,
# and the cost grows faster than linearly beyond it
MAX_PRECISION_BITS = 65536

# the most rows of shift tables (--terms, --shift-terms): exact moments of
# the geometric 400-atom `gen --p 400 --seed 1` (ratio 4) reach 80000 bits
# at row 100, where `alsq shift` takes 0.9 to 1.4 s on a 2-core host, most
# of it in the moments' big-int products; the cost grows faster than
# linearly in the rows (4.4 s at 200, 10 s at 300)
MAX_SHIFT_TERMS = 100


def _bounded(low: int, high: int):
    """argparse type of an integer in [low, high]."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return integer


def _tolerance(text: str) -> Fraction:
    try:
        tol = parse_rational(text)
    except ScalarError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not 0 < tol < 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {tol}")
    return tol


def _flag(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


def _print_verdict(verdict: Verdict, args) -> int:
    if args.json:
        payload = verdict.to_json_dict()
        payload["schema"] = SCHEMA
        print(json.dumps(payload, indent=2))
    else:
        print(verdict.render())
    return _VERDICT_EXIT[verdict.outcome]


def cmd_analyze(args) -> int:
    mu = load_measure(args.measure, bits=args.precision)
    options = AnalyzeOptions(SolverConfig(args.precision, args.tol), args.shift_terms)
    report = analyze(mu, options)
    if args.json:
        payload = report.to_json_dict()
        if args.diagram:
            payload["diagram"] = render_diagram(report.diagram)
        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
        if args.diagram:
            print()
            print(render_diagram(report.diagram))
    return _VERDICT_EXIT[report.aluthge_verdict.outcome]


def cmd_sqrt(args) -> int:
    _, mu = strip_zero_atom(load_measure(args.measure, bits=args.precision))
    return _print_verdict(sqrt_of(mu, SolverConfig(args.precision, args.tol)), args)


def cmd_aluthge(args) -> int:
    _, mu = strip_zero_atom(load_measure(args.measure, bits=args.precision))
    return _print_verdict(aluthge_subnormal(mu, SolverConfig(args.precision, args.tol)), args)


def cmd_convolve(args) -> int:
    left = load_measure(args.left, bits=args.precision)
    right = load_measure(args.right, bits=args.precision)
    result = convolve(left, right, bits=args.precision)
    if args.out:
        save_measure(result, args.out)
        print(f"wrote {result.p} atoms to {args.out}")
    elif args.json:
        print(dumps_measure(result), end="")
    else:
        print(result)
    return EXIT_OK


def cmd_shift(args) -> int:
    _, mu = strip_zero_atom(load_measure(args.measure, bits=args.precision))
    tables = shift_table(mu, args.terms, args.precision)
    if args.json:
        print(json.dumps({"schema": SCHEMA, "shift_tables": tables}, indent=2))
    else:
        print("\n".join(render_shift_rows(tables["rows"])))
    return EXIT_OK


def cmd_recurrence(args) -> int:
    from .shifts import support_characteristic

    # only the support is read; radical positions are refused
    _, mu = strip_zero_atom(load_measure(args.measure))
    if has_radical(mu):
        print("error: the recurrence needs rational positions", file=sys.stderr)
        return EXIT_ERROR
    # the moments g_n = sum w_i x_i^n, with p distinct atoms x_i of positive
    # mass w_i, obey the recurrence with characteristic polynomial P exactly
    # when P(x_i) = 0 at every atom, so the minimal one is prod(t - x_i), of
    # order p; selftest criterion 11 checks that it annihilates the moments
    # and that the p x p Hankel matrix of the moments is positive definite
    found = mu.p <= args.max_order
    coefficients = ([scalar_str(-c) for c in support_characteristic(mu)[:-1]]
                    if found else None)
    if args.json:
        payload = {
            "schema": SCHEMA,
            "order": mu.p if found else None,
            "coefficients": coefficients,
        }
        print(json.dumps(payload, indent=2))
    elif not found:
        print(f"no linear recurrence of order <= {args.max_order}")
    else:
        terms = " + ".join(f"({c})*g[n+{j}]" for j, c in enumerate(coefficients))
        print(f"order {mu.p}: g[n+{mu.p}] = {terms}")
    return EXIT_OK if found else EXIT_UNDETERMINED


def cmd_gen(args) -> int:
    from .generator import GeneratorSpec, generate

    spec = GeneratorSpec(p=args.p, mode=args.mode, seed=args.seed,
                         position_style=args.style, case=args.case)
    instance = generate(spec)
    if args.out:
        save_measure(instance.measure, args.out)
        print(f"wrote {instance.measure.p}-atom measure to {args.out}")
        if args.witness_out and instance.witness is not None:
            save_measure(instance.witness, args.witness_out)
            print(f"wrote retained witness to {args.witness_out}")
    else:
        payload = {
            "schema": SCHEMA,
            "measure": measure_to_json_dict(instance.measure),
            "witness": measure_to_json_dict(instance.witness)
            if instance.witness is not None else None,
            "meta": instance.meta,
        }
        print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all(verbose=True)
    return EXIT_OK if all(r.passed for r in results) else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alsq",
        description="Square roots of finitely atomic measures under "
                    "multiplicative convolution, with exact certificates.")
    # libmp reads precision 0 as exact and may never return
    precision = _flag("--precision", type=_bounded(1, MAX_PRECISION_BITS),
                      default=DEFAULT_PRECISION_BITS, metavar="BITS",
                      help="working precision in bits")
    tol = _flag("--tol", type=_tolerance, default=DEFAULT_TOLERANCE,
                metavar="DECIMAL",
                help="in (0, 1) (default 2^-64): each real mass stands for "
                     "the values within relative max(tol, 2^(1-precision)) "
                     "of it")
    as_json = _flag("--json", action="store_true",
                    help="emit machine-readable JSON")
    decide = [precision, tol, as_json]
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", parents=decide,
                               help="full report for a measure file")
    p_analyze.add_argument("measure")
    p_analyze.add_argument("--diagram", action="store_true",
                           help="append the ASCII product diagram")
    p_analyze.add_argument("--shift-terms", type=_bounded(0, MAX_SHIFT_TERMS),
                           default=0, metavar="N",
                           help="include N rows of shift/moment tables")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sqrt = sub.add_parser("sqrt", parents=decide,
                            help="decide the square root problem")
    p_sqrt.add_argument("measure")
    p_sqrt.set_defaults(func=cmd_sqrt)

    p_aluthge = sub.add_parser("aluthge", parents=decide,
                               help="decide subnormality of the transformed shift")
    p_aluthge.add_argument("measure")
    p_aluthge.set_defaults(func=cmd_aluthge)

    p_conv = sub.add_parser("convolve", parents=[precision, as_json],
                            help="multiplicative convolution of two measures")
    p_conv.add_argument("left")
    p_conv.add_argument("right")
    p_conv.add_argument("--out", help="write the result to a measure file")
    p_conv.set_defaults(func=cmd_convolve)

    p_shift = sub.add_parser("shift", parents=[precision, as_json],
                             help="shift weight and moment tables")
    p_shift.add_argument("measure")
    p_shift.add_argument("--terms", type=_bounded(1, MAX_SHIFT_TERMS), default=8,
                         metavar="N")
    p_shift.set_defaults(func=cmd_shift)

    p_rec = sub.add_parser("recurrence", parents=[as_json],
                           help="minimal linear recurrence of the moments")
    p_rec.add_argument("measure")
    # a measure's moments obey a recurrence of order at most its atom count
    p_rec.add_argument("--max-order", type=_bounded(1, MAX_ATOMS), default=8,
                       metavar="M")
    p_rec.set_defaults(func=cmd_recurrence)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--p", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0,
                       help="seed of the generator")
    p_gen.add_argument("--mode", choices=("with-root", "with-aluthge-root",
                                          "arbitrary", "perturbed"),
                       default="arbitrary")
    p_gen.add_argument("--style", choices=("geometric", "random"),
                       default="geometric")
    p_gen.add_argument("--case", choices=("I", "II"), default=None,
                       help="six-atom closed-form pattern")
    p_gen.add_argument("--out", help="write the measure to a file")
    p_gen.add_argument("--witness-out",
                       help="write the retained witness, when one exists")
    p_gen.set_defaults(func=cmd_gen)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2, our impossible code
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        return args.func(args)
    except (MeasureError, ScalarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except InternalError as exc:
        import traceback  # loaded only on a fault: it costs ~4 ms at start-up

        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        if getattr(args, "json", False):  # gen and selftest take no --json
            print(json.dumps({"error": str(exc), "kind": "internal"}, indent=2))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
