#!/usr/bin/env python3
"""Compare saved outputs of bench/run.py.

    python3 bench/compare.py --base a1.log a2.log ... --new b1.log b2.log ...
    python3 bench/compare.py --repeat r1.log r2.log ...

Each log is the standard output of one run.  ``--base``/``--new`` prints, per
workload and metric, the median and quartiles of each side and the ratio of
the medians.  ``--repeat`` takes traced runs (``--trace 1``, one pass) of
one workload and seed and exits 1 unless every count metric, ``attempted``
and ``failed`` are identical.

Both refuse, with exit code 2, to compare runs whose mpmath backend, Python
version or mpmath version differ: with gmpy the real-mode workload runs many
times faster, so such numbers measure the environment, not the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

ENV_KEYS = ("backend", "python", "mpmath")


def load(path: str) -> dict:
    run = {"path": path}
    with open(path, encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    for line in lines:
        for tag in ("env", "workload"):
            if line.startswith(f"# {tag} "):
                run[tag] = json.loads(line[len(tag) + 3:])
    if "env" not in run or "workload" not in run:
        raise SystemExit(f"{path}: not an output of bench/run.py")
    run["result"] = json.loads(lines[-1])
    return run


def require_same_environment(runs) -> None:
    seen = {tuple(run["env"][key] for key in ENV_KEYS) for run in runs}
    if len(seen) > 1:
        print("refusing to compare runs from different environments "
              f"({', '.join(ENV_KEYS)}): {sorted(seen)}", file=sys.stderr)
        sys.exit(2)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_workload(runs):
    grouped = defaultdict(lambda: defaultdict(list))
    units = {}
    for run in runs:
        if run["workload"]["trace"]:
            continue
        for name, metric in run["result"]["metrics"].items():
            grouped[run["workload"]["name"]][name].append(metric["value"])
            units[name] = metric["unit"]
    return grouped, units


def compare(base, new) -> int:
    base_metrics, units = by_workload(base)
    new_metrics, _ = by_workload(new)
    for workload in sorted(base_metrics.keys() & new_metrics.keys()):
        print(f"{workload}  (median [quartiles] over "
              f"{len(base_metrics[workload]['setup_s'])} base and "
              f"{len(new_metrics[workload]['setup_s'])} new runs)")
        for name, values in base_metrics[workload].items():
            other = new_metrics[workload].get(name)
            if not other:
                continue
            b1, b2, b3 = quartiles(values)
            n1, n2, n3 = quartiles(other)
            ratio = n2 / b2 if b2 else float("nan")
            print(f"  {name:44s} {b2:12.6g} [{b1:.4g}, {b3:.4g}]  ->"
                  f" {n2:12.6g} [{n1:.4g}, {n3:.4g}]  x{ratio:.3f} "
                  f"{units[name]}")
    return 0


def repeat(runs) -> int:
    keys = {(run["workload"]["name"], run["workload"]["seed"],
             run["workload"]["trace"]) for run in runs}
    if len(keys) != 1 or not runs[0]["workload"]["trace"]:
        print(f"need traced runs of one workload and seed: {sorted(keys)}",
              file=sys.stderr)
        return 2
    first = runs[0]["result"]
    problems = []
    for run in runs[1:]:
        result = run["result"]
        for field in ("attempted", "failed", "correct"):
            if result[field] != first[field]:
                problems.append(f"{run['path']}: {field} {result[field]} != "
                                f"{first[field]}")
        for name, metric in first["metrics"].items():
            if metric["unit"] == "count" and \
                    result["metrics"][name]["value"] != metric["value"]:
                problems.append(f"{run['path']}: {name} "
                                f"{result['metrics'][name]['value']} != "
                                f"{metric['value']}")
    for problem in problems:
        print(problem)
    counted = sum(m["unit"] == "count" for m in first["metrics"].values())
    print(f"{len(runs)} runs, {counted} counts: "
          + ("identical" if not problems else f"{len(problems)} differ"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--new", nargs="+", default=[])
    parser.add_argument("--repeat", nargs="+", default=[])
    args = parser.parse_args(argv)
    if args.repeat:
        runs = [load(path) for path in args.repeat]
        require_same_environment(runs)
        return repeat(runs)
    if not args.base or not args.new:
        parser.error("give --repeat, or both --base and --new")
    base = [load(path) for path in args.base]
    new = [load(path) for path in args.new]
    require_same_environment(base + new)
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main())
