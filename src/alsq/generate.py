"""Deterministic random instance generation.

Given a seed, every mode reproduces the same measure.  ``with-root`` builds
mu as an explicit self-convolution square (the square root is retained),
``with-aluthge-root`` uses the closed-form weight identities for 3, 5 or 6
atoms, ``perturbed`` breaks exactly one of those identities, and
``arbitrary`` draws unconstrained supports and masses.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Tuple

from .measures import (MAX_ATOMS, AtomicMeasure, MeasureError, convolve,
                       make_measure)
from .scalars import Record

WITH_ROOT = "with-root"
WITH_ALUTHGE_ROOT = "with-aluthge-root"
ARBITRARY = "arbitrary"
PERTURBED = "perturbed"

MODES = (WITH_ROOT, WITH_ALUTHGE_ROOT, ARBITRARY, PERTURBED)


class GeneratorSpec(Record):
    """``position_style`` is "geometric" or "random", ``case`` the p = 6
    closed form ("I" or "II") and ``perturb_index`` the 1-based atom that
    perturbed mode disturbs."""

    __slots__ = _fields = ("p", "mode", "seed", "position_style", "case",
                           "perturb_index")

    def __init__(self, p: int, mode: str, seed: int,
                 position_style: str = "geometric",
                 case: Optional[str] = None,
                 perturb_index: Optional[int] = None):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "position_style", position_style)
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "perturb_index", perturb_index)


class GeneratedInstance(Record):
    __slots__ = _fields = ("measure", "witness", "meta")

    def __init__(self, measure: AtomicMeasure,
                 witness: Optional[AtomicMeasure],
                 meta: Optional[dict] = None):
        object.__setattr__(self, "measure", measure)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "meta", {} if meta is None else meta)


def _positive_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.randint(1, 12))


def _ratio(rng: random.Random) -> Fraction:
    # a ratio strictly above 1 with a small denominator
    den = rng.randint(1, 4)
    num = rng.randint(den + 1, 4 * den + 4)
    return Fraction(num, den)


def _square_start(rng: random.Random) -> Fraction:
    c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return c * c


def _geometric_support(rng: random.Random, p: int) -> List[Fraction]:
    start = Fraction(1) if rng.random() < 0.7 else _square_start(rng)
    ratio = _ratio(rng)
    return [start * ratio ** i for i in range(p)]


# random positions are n/d with 1 <= n <= 60 and 1 <= d <= 8, of which this
# many are distinct
RANDOM_POSITIONS = 310


def _random_support(rng: random.Random, p: int) -> List[Fraction]:
    if p > RANDOM_POSITIONS:
        raise MeasureError(
            f"random positions are drawn from {RANDOM_POSITIONS} distinct "
            f"fractions, too few for {p} atoms")
    points = set()
    while len(points) < p:
        points.add(Fraction(rng.randint(1, 60), rng.randint(1, 8)))
    return sorted(points)


def generate(spec: GeneratorSpec) -> GeneratedInstance:
    if not 1 <= spec.p <= MAX_ATOMS:  # what a measure document may hold
        raise MeasureError(
            f"a generated measure has 1 to {MAX_ATOMS} atoms, got {spec.p}")
    if spec.mode not in MODES:
        raise MeasureError(f"unknown generator mode {spec.mode!r}")
    rng = random.Random(spec.seed)
    if spec.mode == WITH_ROOT:
        return _with_root(spec, rng)
    if spec.mode == WITH_ALUTHGE_ROOT:
        return _with_aluthge_root(spec, rng)
    if spec.mode == PERTURBED:
        return _perturbed(spec, rng)
    return _arbitrary(spec, rng)


def _arbitrary(spec: GeneratorSpec, rng: random.Random) -> GeneratedInstance:
    if spec.position_style == "geometric":
        support = _geometric_support(rng, spec.p)
    else:
        support = _random_support(rng, spec.p)
    weights = [_positive_weight(rng) for _ in support]
    mu = make_measure(list(zip(support, weights)))
    return GeneratedInstance(mu, None, {"mode": spec.mode})


def _with_root(spec: GeneratorSpec, rng: random.Random) -> GeneratedInstance:
    """mu = rho * rho with rho retained; reachable atom counts are 3 (two
    root atoms), 5 (three in progression) and 6 (three generic)."""
    p = spec.p
    if p == 3:
        t = _ratio(rng)
        rho = make_measure([(Fraction(1), _positive_weight(rng)),
                            (t, _positive_weight(rng))])
    elif p == 5:
        r = _ratio(rng)
        rho = make_measure([(r ** i, _positive_weight(rng)) for i in range(3)])
    elif p == 6:
        r = _ratio(rng)
        bigger = _ratio(rng)
        big = r * bigger  # ensures 1 < r < R and six distinct products
        rho = make_measure([(Fraction(1), _positive_weight(rng)),
                            (r, _positive_weight(rng)),
                            (big, _positive_weight(rng))])
    else:
        raise MeasureError(
            f"no square of a positive measure has exactly {p} atoms; "
            "choose p in {3, 5, 6}")
    mu = convolve(rho, rho)
    if mu.p != p:  # accidental coincidence collapsed products; redraw
        return _with_root(spec, rng)
    return GeneratedInstance(mu, rho, {"mode": spec.mode})


def _with_aluthge_root(spec: GeneratorSpec, rng: random.Random) -> GeneratedInstance:
    p = spec.p
    if p == 3:
        measure, witness = _closed_form_three(rng)
    elif p == 5:
        measure, witness = _closed_form_five(rng)
    elif p == 6:
        case = spec.case or rng.choice(("I", "II"))
        measure, witness = _closed_form_six(rng, case)
    elif p == 4:
        raise MeasureError(
            "four-atom measures never admit a root; the closed-form "
            "generator cannot produce one")
    else:
        raise MeasureError(
            f"closed-form construction covers p in {{3, 5, 6}}, not {p}")
    return GeneratedInstance(measure, witness,
                             {"mode": spec.mode, "case": spec.case})


def _closed_form_three(rng: random.Random) -> Tuple[AtomicMeasure, AtomicMeasure]:
    u = Fraction(rng.randint(1, 9), rng.randint(1, 6))
    w = Fraction(rng.randint(1, 9), rng.randint(1, 6))
    total = (u + w) ** 2
    a = [u * u / total, 2 * u * w / total, w * w / total]
    r = _ratio(rng)
    mu = make_measure([(r ** i, a[i]) for i in range(3)])
    witness = make_measure([(Fraction(1), u / (u + w)), (r, w / (u + w))])
    return mu, witness


def _closed_form_five(rng: random.Random) -> Tuple[AtomicMeasure, AtomicMeasure]:
    c = [Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(3)]
    scale = c[0] + c[1] + c[2]
    c = [x / scale for x in c]
    a = [c[0] * c[0], 2 * c[0] * c[1], c[1] * c[1] + 2 * c[0] * c[2],
         2 * c[1] * c[2], c[2] * c[2]]
    r = _ratio(rng)
    mu = make_measure([(r ** i, a[i]) for i in range(5)])
    witness = make_measure([(Fraction(1), c[0]), (r, c[1]), (r * r, c[2])])
    return mu, witness


def _closed_form_six(rng: random.Random, case: str) -> Tuple[AtomicMeasure, AtomicMeasure]:
    c1 = Fraction(rng.randint(1, 9), rng.randint(1, 6))
    cm = Fraction(rng.randint(1, 9), rng.randint(1, 6))
    c6 = Fraction(rng.randint(1, 9), rng.randint(1, 6))
    scale = c1 + cm + c6
    c1, cm, c6 = c1 / scale, cm / scale, c6 / scale
    if case == "I":
        # support 1, R, rR, R^2, rR^2, (rR)^2 with witness atoms 1, R, rR
        r = _ratio(rng)
        big = r * _ratio(rng)
        support = [Fraction(1), big, r * big, big ** 2, r * big ** 2,
                   (r * big) ** 2]
        witness_support = [Fraction(1), big, r * big]
        weights = [c1 * c1, 2 * c1 * cm, 2 * c1 * c6, cm * cm, 2 * cm * c6,
                   c6 * c6]
    elif case == "II":
        # support 1, R, R^2, x, Rx, x^2 with witness atoms 1, R, x
        big = _ratio(rng)
        x = big * big * _ratio(rng)
        support = [Fraction(1), big, big ** 2, x, big * x, x * x]
        witness_support = [Fraction(1), big, x]
        weights = [c1 * c1, 2 * c1 * cm, cm * cm, 2 * c1 * c6, 2 * cm * c6,
                   c6 * c6]
    else:
        raise MeasureError(f"unknown six-atom case {case!r}")
    if len({v for v in support}) != 6 or sorted(support) != support:
        # rare collision of the progression parameters; redraw
        return _closed_form_six(rng, case)
    mu = make_measure(list(zip(support, weights)))
    witness = make_measure([(pos, w) for pos, w in
                            zip(witness_support, (c1, cm, c6))])
    return mu, witness


def _perturbed(spec: GeneratorSpec, rng: random.Random) -> GeneratedInstance:
    """Start from a closed-form instance and break one weight identity by a
    factor 1 + delta, delta in [1/100, 1/2]."""
    base_spec = GeneratorSpec(spec.p, WITH_ALUTHGE_ROOT, rng.randrange(2 ** 62),
                              spec.position_style, spec.case)
    if spec.p == 4:
        support = (_geometric_support(rng, 4) if spec.position_style == "geometric"
                   else _random_support(rng, 4))
        weights = [_positive_weight(rng) for _ in support]
        mu = make_measure(list(zip(support, weights)))
        return GeneratedInstance(mu, None, {"mode": spec.mode})
    base = _with_aluthge_root(base_spec, rng)
    delta = Fraction(rng.randint(1, 50), 100)
    if spec.perturb_index is None:
        index = rng.randrange(base.measure.p)
    elif 1 <= spec.perturb_index <= base.measure.p:
        index = spec.perturb_index - 1
    else:  # an index off the atoms would perturb nothing
        raise MeasureError(
            f"perturb_index names an atom 1 to {base.measure.p}, "
            f"got {spec.perturb_index}")
    atoms = [(pos, w * (1 + delta) if n == index else w)
             for n, (pos, w) in enumerate(base.measure.atoms)]
    mu = make_measure(atoms)
    return GeneratedInstance(mu, None,
                             {"mode": spec.mode, "perturbed_atom": index + 1,
                              "delta": str(delta)})
