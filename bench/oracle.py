"""Correctness oracle for the benchmark.

It shares no code with the solver and does not call ``alsq.convolve``.  A
measure is reduced to a dict from the *squared* atom position (an exact
Fraction, so radical positions q*sqrt(s) are covered too) to its mass as an
exact Fraction; real masses are mpf values, which are dyadic and convert
exactly.  Witnesses are re-squared with the small convolution below.

Each instance carries the answers known by construction.  ``check`` returns
the reasons an instance failed, each marked fatal or not:

* fatal: a witness that does not re-square to its target, or a solver
  verdict (``sqrt_of`` / ``aluthge_subnormal``) contradicting a known answer;
* cross-check: the closed form (``classify_small``) contradicting a known
  answer or disagreeing with ``aluthge_subnormal``.

Both kinds count as failures; only fatal ones make a run incorrect, because
``analyze`` reports the closed form as a cross-check (its ``agreement``
field) and decides by the solver verdicts.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Dict, List, Optional, Tuple

WITNESS = "witness"
IMPOSSIBLE = "impossible"
UNDETERMINED = "undetermined"

# relative tolerance for witnesses whose masses are reals
REAL_TOL = Fraction(1, 2 ** 56)

Masses = Dict[Fraction, Fraction]


class Decided:
    """One decider's answer: outcome plus the witness, if any, as masses."""

    __slots__ = ("outcome", "witness", "exact")

    def __init__(self, outcome: str, witness: Optional[Masses], exact: bool):
        self.outcome = outcome
        self.witness = witness
        self.exact = exact


def _mpf_fraction(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def masses_of(measure) -> Tuple[Masses, bool]:
    """Squared position -> exact mass for an alsq measure; also whether
    every mass was an exact rational."""
    out: Masses = {}
    exact = True
    for pos, w in measure.atoms:
        key = pos.q * pos.q * (pos.base if pos.k else 1)
        if isinstance(w, Fraction):
            out[key] = w
        else:
            exact = False
            out[key] = _mpf_fraction(w)
    return out, exact


def masses_of_json(doc: dict) -> Tuple[Masses, bool]:
    """The same reduction for a measure document as the CLI prints it."""
    base = Fraction(doc["radical_base"])
    out: Masses = {}
    for atom in doc["atoms"]:
        q = Fraction(atom["pos_q"])
        out[q * q * (base if int(atom["pos_k"]) else 1)] = Fraction(atom["weight"])
    return out, doc["mode"] == "rational"


def decided_from_verdict(verdict) -> Decided:
    if verdict.witness is None:
        return Decided(verdict.outcome, None, True)
    masses, exact = masses_of(verdict.witness)
    return Decided(verdict.outcome, masses, exact)


def decided_from_json(payload: Optional[dict]) -> Optional[Decided]:
    if payload is None:
        return None
    if payload["witness"] is None:
        return Decided(payload["outcome"], None, True)
    masses, exact = masses_of_json(payload["witness"])
    return Decided(payload["outcome"], masses, exact)


def square(masses: Masses) -> Masses:
    """Self-convolution keyed by squared positions."""
    items = sorted(masses.items())
    out: Masses = {}
    for i, (ki, wi) in enumerate(items):
        out[ki * ki] = out.get(ki * ki, 0) + wi * wi
        for kj, wj in items[i + 1:]:
            key = ki * kj
            out[key] = out.get(key, 0) + 2 * wi * wj
    return out


def reweighted_square(masses: Masses) -> Masses:
    """mu * t(mu), the target of the transform question; positions must be
    rational, so every squared position is a rational square."""
    t_masses = {}
    for key, w in masses.items():
        num, den = isqrt(key.numerator), isqrt(key.denominator)
        if num * num != key.numerator or den * den != key.denominator:
            raise ValueError(f"position sqrt({key}) is not rational")
        t_masses[key] = w * Fraction(num, den)
    out: Masses = {}
    for ka, wa in masses.items():
        for kb, wb in t_masses.items():
            out[ka * kb] = out.get(ka * kb, 0) + wa * wb
    return out


def matches(got: Masses, want: Masses, exact: bool) -> bool:
    if got.keys() != want.keys():
        return False
    if exact:
        return got == want
    return all(abs(got[k] - want[k]) <= REAL_TOL * abs(want[k]) for k in want)


def check(
    target: Masses,
    target_exact: bool,
    known_sqrt: Optional[str],
    known_aluthge: Optional[str],
    sqrt: Optional[Decided],
    aluthge: Optional[Decided],
    closed: Optional[Decided],
) -> List[Tuple[str, bool]]:
    """Reasons this instance failed, as (message, fatal) pairs."""
    problems: List[Tuple[str, bool]] = []
    known_closed = known_aluthge if known_aluthge is not None else known_sqrt
    squared_target = None
    for name, got, known, fatal in (("sqrt", sqrt, known_sqrt, True),
                                    ("aluthge", aluthge, known_aluthge, True),
                                    ("closed_form", closed, known_closed, False)):
        if got is None:
            continue
        if got.witness is not None:
            exact = target_exact and got.exact
            if name == "aluthge":
                if squared_target is None:
                    squared_target = reweighted_square(target)
                if got.witness.keys() != target.keys():
                    problems.append(("aluthge witness support differs from the "
                                     "measure's support", True))
                elif not matches(square(got.witness), squared_target, exact):
                    problems.append(("aluthge witness does not square to "
                                     "mu * t(mu)", True))
            elif not matches(square(got.witness), target, exact):
                problems.append((f"{name} witness does not square to mu", True))
        if (known is not None and got.outcome != UNDETERMINED
                and got.outcome != known):
            problems.append((f"{name} says {got.outcome}, known {known}", fatal))
    if (closed is not None and aluthge is not None
            and UNDETERMINED not in (closed.outcome, aluthge.outcome)
            and closed.outcome != aluthge.outcome):
        problems.append((f"closed_form says {closed.outcome}, aluthge says "
                         f"{aluthge.outcome}", False))
    return problems
