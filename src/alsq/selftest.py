"""Acceptance suite: every claim the tool makes, checked mechanically.

Each criterion function returns a :class:`CriterionResult`; ``run_all``
prints one PASS/FAIL line per criterion.  The same functions back the
pytest acceptance module, so `alsq selftest` and the test suite agree by
construction.  Criterion 12 re-checks impossibility verdicts against an
independent brute-force root search (float multistart prescan, then a
256-bit polish), which shares no code with the exact solver.  Criterion 13
checks that real mode is sound at low precision: instances with a root,
rounded to 53, 64 and 128 bits, are never declared impossible.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple

import mpmath
from mpmath import mpf, workprec

from .closed_forms import classify_small
from .diagram import cardinality_check, geometric_profile, pair_diagram
from .generator import GeneratorSpec, generate
from .measures import (
    RATIONAL,
    REAL,
    AtomicMeasure,
    Position,
    convolve,
    make_measure,
    t_weight,
)
from .reals import mpf_to_fraction, to_mpf
from .scalars import Record
from .shifts import (
    aluthge_moment_sequence,
    hankel_psd,
    moment_sequence,
    support_characteristic,
)
from .solver import (
    IMPOSSIBLE,
    UNDETERMINED,
    WITNESS,
    SolverConfig,
    aluthge_subnormal,
    sqrt_of,
)
from .analyze import analyze


class CriterionResult(Record):
    __slots__ = _fields = ("number", "name", "passed", "detail", "seconds")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None

    def __init__(self, number: int, name: str, passed: bool, detail: str,
                 seconds: float):
        self.number, self.name, self.passed = number, name, passed
        self.detail, self.seconds = detail, seconds

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.number:>2} {status} ({self.seconds:6.2f}s) "
                f"{self.name}: {self.detail}")


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def example_one(bits: int = 128) -> AtomicMeasure:
    """Five atoms at 1,2,4,8,16 with masses involving sqrt(2); the sharp
    minimal-cardinality instance."""
    with workprec(bits):
        s2 = mpmath.sqrt(2)
        weights = [mpf(1) / 8, (s2 - 1) / 2, (7 - 4 * s2) / 4, (s2 - 1) / 2,
                   mpf(1) / 8]
    return make_measure(list(zip([1, 2, 4, 8, 16], weights)), mode=REAL,
                        bits=bits)


def example_two() -> AtomicMeasure:
    """Six rational atoms on 1,3,6,9,18,36; the sharp maximal-cardinality
    instance."""
    return make_measure([
        (1, Fraction(1, 4)), (3, Fraction(1, 3)), (6, Fraction(1, 6)),
        (9, Fraction(1, 9)), (18, Fraction(1, 9)), (36, Fraction(1, 36)),
    ])


@lru_cache(maxsize=None)
def _corpus_p3() -> Tuple[List[AtomicMeasure], List[AtomicMeasure]]:
    good = [generate(GeneratorSpec(3, "with-aluthge-root", 1000 + i)).measure
            for i in range(200)]
    bad = [generate(GeneratorSpec(3, "perturbed", 2000 + i, perturb_index=3)).measure
           for i in range(200)]
    return good, bad


@lru_cache(maxsize=None)
def _corpus_p4() -> List[AtomicMeasure]:
    out = []
    for i in range(500):
        style = "geometric" if i % 2 == 0 else "random"
        out.append(generate(GeneratorSpec(4, "arbitrary", 3000 + i,
                                          position_style=style)).measure)
    return out


@lru_cache(maxsize=None)
def _corpus_p5() -> Tuple[List[AtomicMeasure], List[AtomicMeasure]]:
    good = [generate(GeneratorSpec(5, "with-aluthge-root", 4000 + i)).measure
            for i in range(200)]
    bad = []
    rng = random.Random(4999)
    for i in range(200):
        base = generate(GeneratorSpec(5, "with-aluthge-root", 5000 + i)).measure
        delta = Fraction(rng.randint(1, 50), 100)
        which = i % 3
        atoms = list(base.atoms)
        if which == 0:  # break the geometric support by moving the top atom
            pos, w = atoms[4]
            atoms[4] = (Position(pos.q * (1 + delta), pos.k, pos.base), w)
        elif which == 1:  # break a2^2 * a5 = a4^2 * a1 alone
            pos, w = atoms[3]
            atoms[3] = (pos, w * (1 + delta))
        else:  # break the middle-mass identity alone
            pos, w = atoms[2]
            atoms[2] = (pos, w * (1 + delta))
        bad.append(make_measure(atoms))
    return good, bad


@lru_cache(maxsize=None)
def _corpus_p6() -> Tuple[List[AtomicMeasure], List[AtomicMeasure], List[AtomicMeasure]]:
    case_one = [generate(GeneratorSpec(6, "with-aluthge-root", 6000 + i,
                                       case="I")).measure for i in range(100)]
    case_two = [generate(GeneratorSpec(6, "with-aluthge-root", 7000 + i,
                                       case="II")).measure for i in range(100)]
    middle = []
    rng = random.Random(8000)
    for i in range(100):
        r = Fraction(rng.randint(2, 5), 1) + Fraction(rng.randint(0, 3), 4)
        if i % 2 == 0:
            exponents = (0, 1, 2, 3, 4, 5)       # geometric
        else:
            exponents = (0, 1, 2, 4, 5, 6)       # gapped middle pattern
        support = [r ** e for e in exponents]
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                   for _ in support]
        middle.append(make_measure(list(zip(support, weights))))
    return case_one, case_two, middle


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1() -> CriterionResult:
    """Sharp five-atom example: card 9, geometric (1,2), both roots found,
    square root matching the closed form to 1e-25, within one second."""
    start = time.time()
    mu = example_one()
    report = analyze(mu)
    elapsed = time.time() - start
    problems = []
    if report.card != 9:
        problems.append(f"card {report.card} != 9")
    if report.geometric != ("1", "2"):
        problems.append(f"profile {report.geometric} != (1, 2)")
    if report.aluthge_verdict.outcome != WITNESS:
        problems.append(f"transform verdict {report.aluthge_verdict.outcome}")
    if report.sqrt_verdict.outcome != WITNESS:
        problems.append(f"root verdict {report.sqrt_verdict.outcome}")
    else:
        with workprec(200):
            s2 = mpmath.sqrt(2)
            expected = [s2 / 4, (2 - s2) / 2, s2 / 4]
            witness = report.sqrt_verdict.witness
            if [pos.squared() for pos in witness.support] != [1, 4, 16]:
                problems.append("root support differs from 1,2,4")
            else:
                for (pos, w), target in zip(witness.atoms, expected):
                    rel = abs(to_mpf(w, 200) - target) / target
                    if rel >= mpf("1e-25"):
                        problems.append(f"atom {pos}: relative error {rel}")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s >= 1s")
    return CriterionResult(1, "sharp five-atom example", not problems,
                           "; ".join(problems) or
                           "card 9, profile (1,2), both witnesses at 1e-25",
                           elapsed)


def criterion_2() -> CriterionResult:
    """Sharp six-atom example: card 15, exact rational square root, closed
    form agrees, within one second."""
    start = time.time()
    mu = example_two()
    report = analyze(mu)
    elapsed = time.time() - start
    problems = []
    if report.card != 15:
        problems.append(f"card {report.card} != 15")
    expected = make_measure([(1, Fraction(1, 2)), (3, Fraction(1, 3)),
                             (6, Fraction(1, 6))])
    witness = report.sqrt_verdict.witness if report.sqrt_verdict else None
    if witness is None or witness.mode != RATIONAL or \
            witness.atoms != expected.atoms:
        problems.append(f"square root {witness} is not the exact expected one")
    if report.small_verdict is None or report.small_verdict.outcome != WITNESS:
        problems.append("closed form did not produce a witness")
    if report.agreement is not True:
        problems.append("agreement flag is not true")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s >= 1s")
    return CriterionResult(2, "sharp six-atom example", not problems,
                           "; ".join(problems) or
                           "card 15, exact root 1/2,1/3,1/6, closed form agrees",
                           elapsed)


def criterion_3() -> CriterionResult:
    """Cardinality bounds hold for every witnessed instance over a 2000
    instance sweep (plus the two sharp examples), and both bounds are hit."""
    start = time.time()
    rng = random.Random(31)
    instances: List[AtomicMeasure] = []
    for i in range(2000):
        p = (4, 5, 6)[i % 3]
        if p == 4:
            spec = GeneratorSpec(4, "arbitrary", 31000 + i,
                                 position_style="geometric" if i % 2 else "random")
        else:
            mode = ("with-root", "with-aluthge-root", "arbitrary",
                    "perturbed")[(i // 3) % 4]
            spec = GeneratorSpec(p, mode, 31000 + i)
        mu = generate(spec).measure
        if i % 2 == 1:
            mu = mu.to_real()
        instances.append(mu)
    instances.append(example_one())
    instances.append(example_two())
    exceptions = 0
    witnessed = 0
    undetermined = 0
    lower_hit = upper_hit = False
    for mu in instances:
        va = aluthge_subnormal(mu)
        vs = sqrt_of(mu)
        if UNDETERMINED in (va.outcome, vs.outcome):
            undetermined += 1
        if va.outcome != WITNESS and vs.outcome != WITNESS:
            continue
        witnessed += 1
        card = cardinality_check(mu)
        if not (card.lower <= card.card and
                (card.upper is None or card.card <= card.upper)):
            exceptions += 1
        if card.card == card.lower:
            lower_hit = True
        if card.upper is not None and card.card == card.upper:
            upper_hit = True
    passed = exceptions == 0 and lower_hit and upper_hit
    detail = (f"{witnessed} witnessed of {len(instances)}, {exceptions} bound "
              f"exceptions, lower hit: {lower_hit}, upper hit: {upper_hit}, "
              f"undetermined: {undetermined}")
    return CriterionResult(3, "cardinality bounds", passed, detail,
                           time.time() - start)


def criterion_4() -> CriterionResult:
    """Geometric support if and only if the product count is 2p-1, over 500
    geometric and 500 perturbed supports."""
    start = time.time()
    rng = random.Random(41)
    failures = 0
    for i in range(1000):
        p = rng.randint(2, 8)
        ratio = Fraction(rng.randint(2, 9), rng.randint(1, 4))
        if ratio <= 1:
            ratio += 1
        points = [ratio ** k for k in range(p)]
        if i >= 500:  # perturb one interior position, keeping order
            k = rng.randrange(p)
            bump = 1 + Fraction(1, rng.randint(7, 30))
            points[k] *= bump
            points = sorted(set(points))
            p = len(points)
            if p < 2:
                continue
        support = [Position(q, 0, Fraction(1)) for q in points]
        profile = geometric_profile(support)
        count = pair_diagram(support).card
        if (profile is not None) != (count == 2 * p - 1):
            failures += 1
    return CriterionResult(4, "geometric support equivalence", failures == 0,
                           f"{failures} mismatches in 1000 supports",
                           time.time() - start)


def criterion_5() -> CriterionResult:
    """Three-atom dichotomy: 200 closed-form instances all witnessed, 200
    perturbed ones all refuted, within five seconds."""
    start = time.time()
    good, bad = _corpus_p3()
    problems = []
    for n, mu in enumerate(good):
        va = aluthge_subnormal(mu)
        vs = sqrt_of(mu)
        if va.outcome != WITNESS or vs.outcome != WITNESS:
            problems.append(f"good #{n}: {va.outcome}/{vs.outcome}")
    for n, mu in enumerate(bad):
        va = aluthge_subnormal(mu)
        vs = sqrt_of(mu)
        if va.outcome != IMPOSSIBLE or vs.outcome != IMPOSSIBLE:
            problems.append(f"bad #{n}: {va.outcome}/{vs.outcome}")
    elapsed = time.time() - start
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s >= 5s")
    return CriterionResult(5, "three-atom dichotomy", not problems,
                           "; ".join(problems[:3]) or
                           "200 witnessed, 200 refuted", elapsed)


def criterion_6() -> CriterionResult:
    """Every four-atom measure is refuted, never undetermined."""
    start = time.time()
    wrong = 0
    undetermined = 0
    for mu in _corpus_p4():
        verdict = aluthge_subnormal(mu)
        if verdict.outcome == UNDETERMINED:
            undetermined += 1
        elif verdict.outcome != IMPOSSIBLE:
            wrong += 1
    passed = wrong == 0 and undetermined == 0
    return CriterionResult(6, "four-atom impossibility", passed,
                           f"500 instances, {wrong} wrong, "
                           f"{undetermined} undetermined",
                           time.time() - start)


def criterion_7() -> CriterionResult:
    """Five-atom characterization: closed-form instances witnessed, each
    single broken condition refuted, closed form and solver agree."""
    start = time.time()
    good, bad = _corpus_p5()
    problems = []
    for n, mu in enumerate(good):
        va = aluthge_subnormal(mu)
        vc = classify_small(mu)
        if va.outcome != WITNESS or vc.outcome != WITNESS:
            problems.append(f"good #{n}: {va.outcome}/{vc.outcome}")
    for n, mu in enumerate(bad):
        va = aluthge_subnormal(mu)
        vc = classify_small(mu)
        if va.outcome != IMPOSSIBLE or vc.outcome != IMPOSSIBLE:
            problems.append(f"bad #{n}: {va.outcome}/{vc.outcome}")
    return CriterionResult(7, "five-atom characterization", not problems,
                           "; ".join(problems[:3]) or
                           "200 witnessed, 200 refuted, full agreement",
                           time.time() - start)


def criterion_8() -> CriterionResult:
    """Six-atom trichotomy: both admissible patterns witnessed with exactly
    verified three-atom roots, the mixed pattern refuted, full agreement."""
    start = time.time()
    case_one, case_two, middle = _corpus_p6()
    problems = []
    for label, pool, expected in (("I", case_one, WITNESS),
                                  ("II", case_two, WITNESS),
                                  ("mixed", middle, IMPOSSIBLE)):
        for n, mu in enumerate(pool):
            vc = classify_small(mu)
            va = aluthge_subnormal(mu)
            if vc.outcome != expected or va.outcome != expected:
                problems.append(
                    f"{label} #{n}: closed {vc.outcome}, solver {va.outcome}")
                continue
            if expected == WITNESS:
                witness = vc.witness
                if witness.mode != RATIONAL or witness.p != 3:
                    problems.append(f"{label} #{n}: witness not exact 3-atom")
                    continue
                if convolve(witness, witness).atoms != mu.atoms:
                    problems.append(f"{label} #{n}: witness square differs")
    return CriterionResult(8, "six-atom trichotomy", not problems,
                           "; ".join(problems[:3]) or
                           "100+100 witnessed (exact squares), 100 refuted",
                           time.time() - start)


def criterion_9() -> CriterionResult:
    """Transformed moments to 2^-100 for twenty orders on a hundred random
    measures, against their definition, not the closed form they are
    rounded from: Fraction moments summed here, then by mpf operators at
    256 bits alpha_k and the product of the sqrt(alpha_k alpha_{k+1})^2."""
    start = time.time()
    rng = random.Random(91)
    bound = mpf(2) ** -100
    worst = mpf(0)
    failures = 0
    for i in range(100):
        p = rng.randint(1, 6)
        style = "geometric" if i % 2 == 0 else "random"
        mu = generate(GeneratorSpec(p, "arbitrary", 9000 + i,
                                    position_style=style)).measure
        if i % 3 == 2:
            mu = mu.to_real()
        tilde = aluthge_moment_sequence(mu, 21)
        exact = [(pos.q, w if mu.mode == RATIONAL else mpf_to_fraction(w))
                 for pos, w in mu.atoms]
        with workprec(256):
            gammas = [to_mpf(sum(w * x ** n for x, w in exact), 256)
                      for n in range(23)]
            alpha = [mpmath.sqrt(b / a) for a, b in zip(gammas, gammas[1:])]
            reference = mpf(1)
            for n in range(21):
                err = abs(tilde[n] - reference) / reference
                worst = max(worst, err)
                failures += err >= bound
                reference *= mpmath.sqrt(alpha[n] * alpha[n + 1]) ** 2
    return CriterionResult(
        9, "transformed moments from weights", failures == 0,
        f"worst relative error {mpmath.nstr(worst, 5)} over 100 measures",
        time.time() - start)


def criterion_10() -> CriterionResult:
    """Hankel positivity of the transformed moments for every witnessed
    instance of criteria 5, 7 and 8."""
    start = time.time()
    good3, _ = _corpus_p3()
    good5, _ = _corpus_p5()
    case_one, case_two, _ = _corpus_p6()
    failures = 0
    count = 0
    for mu in list(good3) + list(good5) + list(case_one) + list(case_two):
        tilde = aluthge_moment_sequence(mu, 14)
        # positivity at order six implies it for every smaller order
        ok_a, ok_b = hankel_psd(tilde, 6)
        count += 1
        if not (ok_a and ok_b):
            failures += 1
    return CriterionResult(10, "transformed-moment positivity", failures == 0,
                           f"{count} witnessed instances, {failures} failures",
                           time.time() - start)


def criterion_11() -> CriterionResult:
    """The support's characteristic polynomial is the minimal recurrence of
    the exact moments, as ``alsq recurrence`` prints it: it has degree p,
    annihilates 3p moments, and the p x p Hankel matrix of the moments is
    positive definite, so no recurrence of order below p holds."""
    start = time.time()
    rng = random.Random(111)
    failures = 0
    for i in range(100):
        p = rng.randint(1, 6)
        style = "geometric" if i % 2 == 0 else "random"
        mu = generate(GeneratorSpec(p, "arbitrary", 11000 + i,
                                    position_style=style)).measure
        gammas = moment_sequence(mu, 3 * p)
        c = support_characteristic(mu)
        # the length is checked before any coefficient is read, so a wrong
        # polynomial fails the criterion instead of raising
        annihilates = len(c) == p + 1 and c[p] == 1 and not any(
            sum(c[j] * gammas[n + j] for j in range(p + 1))
            for n in range(2 * p))
        if not (annihilates and hankel_psd(gammas, p - 1, Fraction(0))[0]):
            failures += 1
    return CriterionResult(11, "moment recurrences", failures == 0,
                           f"100 measures, {failures} failures",
                           time.time() - start)


def criterion_12() -> CriterionResult:
    """Soundness audit: a brute-force root search at 256 bits finds no root
    for any instance the solver declared impossible."""
    start = time.time()
    _, bad3 = _corpus_p3()
    p4 = _corpus_p4()
    _, bad5 = _corpus_p5()
    _, _, bad6 = _corpus_p6()
    sample = list(bad3[:50]) + list(p4[:50]) + list(bad5[:50]) + list(bad6[:50])
    audited = 0
    unsound = 0
    for mu in sample:
        verdict = aluthge_subnormal(mu)
        if verdict.outcome != IMPOSSIBLE:
            continue
        audited += 1
        target = convolve(mu, t_weight(mu))
        if _oracle_finds_root(target, mu.support):
            unsound += 1
    return CriterionResult(
        12, "impossibility soundness audit", unsound == 0,
        f"{audited} impossible verdicts audited, {unsound} contradicted",
        time.time() - start)


def criterion_13() -> CriterionResult:
    """Sound real mode: the witnessed instances of criteria 5, 7 and 8,
    rounded to 53, 64 and 128 bits, are never impossible for ``sqrt_of``,
    ``aluthge_subnormal`` or ``classify_small``, and at least 99.9% of the
    refuted instances of criteria 5 to 8 stay impossible at 64 and 128
    bits."""
    start = time.time()
    good3, bad3 = _corpus_p3()
    good5, bad5 = _corpus_p5()
    case_one, case_two, middle = _corpus_p6()
    witnessed = list(good3) + list(good5) + list(case_one) + list(case_two)
    refuted = list(bad3) + list(_corpus_p4()) + list(bad5) + list(middle)
    unsound = []
    kept = total = 0
    for bits in (53, 64, 128):
        config = SolverConfig(bits)
        for n, mu in enumerate(witnessed):
            real = mu.to_real(bits)
            for decide in (sqrt_of, aluthge_subnormal, classify_small):
                if decide(real, config).outcome == IMPOSSIBLE:
                    unsound.append(f"{decide.__name__} on witnessed #{n} at "
                                   f"{bits} bits")
        if bits == 53:
            continue
        for mu in refuted:
            total += 1
            kept += aluthge_subnormal(mu.to_real(bits),
                                      config).outcome == IMPOSSIBLE
    passed = not unsound and kept >= 0.999 * total
    detail = (f"{3 * 3 * len(witnessed)} witnessed decisions, {len(unsound)} "
              f"impossible; {kept} of {total} refuted stay impossible")
    if unsound:
        detail += f" (first: {unsound[0]})"
    return CriterionResult(13, "sound real mode", passed, detail,
                           time.time() - start)


# ---------------------------------------------------------------------------
# independent brute-force oracle
# ---------------------------------------------------------------------------

def _oracle_finds_root(target: AtomicMeasure, support: Sequence[Position],
                       starts: int = 40, seed: int = 123) -> bool:
    """Multistart float Newton prescan, then 256-bit confirmation of any
    near-solution.  Shares nothing with the exact solving pipeline."""
    diagram = pair_diagram(list(support))
    masses = {}
    for pos, w in target.atoms:
        masses[pos.squared()] = float(to_mpf(w, 64))
    equations = []
    for entry in diagram.entries:
        key = entry.position.squared()
        if key not in masses:
            return False  # support cannot carry a root at all
        equations.append((entry.pairs, masses[key]))
    if len(masses) != diagram.card:
        return False
    q = len(support)
    rng = random.Random(seed)
    scale = max(m for _, m in equations)
    found = None
    for _ in range(starts):
        b = [rng.uniform(0.05, 1.2) * scale ** 0.5 for _ in range(q)]
        b = _float_newton(equations, b, q)
        if b is not None:
            found = b
            break
    if found is None:
        return False
    return _confirm_root(target, support, found)


def _residual_vector(equations, b):
    out = []
    for pairs, mass in equations:
        value = 0.0
        for i, j in pairs:
            factor = 1.0 if i == j else 2.0
            value += factor * b[i] * b[j]
        out.append(value - mass)
    return out


def _float_newton(equations, b, q, iterations=120):
    scale = max(1.0, max(abs(m) for _, m in equations))
    current = _residual_vector(equations, b)
    best = max(abs(r) for r in current)
    for _ in range(iterations):
        if best < 1e-12 * scale:
            return b if all(x > 1e-9 for x in b) else None
        jac = [[0.0] * q for _ in equations]
        for row, (pairs, _) in enumerate(equations):
            for i, j in pairs:
                # d/db_i of (2 - delta_ij) b_i b_j is 2 b_j in every case
                jac[row][i] += 2.0 * b[j]
                if j != i:
                    jac[row][j] += 2.0 * b[i]
        step = _least_squares_step(jac, current, q)
        if step is None:
            return None
        damping = 1.0
        improved = False
        for _ in range(30):
            trial = [x - damping * s for x, s in zip(b, step)]
            trial_res = _residual_vector(equations, trial)
            trial_norm = max(abs(r) for r in trial_res)
            if trial_norm < best:
                b, current, best = trial, trial_res, trial_norm
                improved = True
                break
            damping /= 2
        if not improved:
            return None  # critical point of an infeasible least-squares problem
    if best < 1e-12 * scale and all(x > 1e-9 for x in b):
        return b
    return None


def _least_squares_step(jac, residual, q):
    # normal equations J^T J s = J^T r, solved by Gaussian elimination
    ata = [[sum(jac[r][i] * jac[r][j] for r in range(len(jac)))
            for j in range(q)] for i in range(q)]
    atb = [sum(jac[r][i] * residual[r] for r in range(len(jac)))
           for i in range(q)]
    for col in range(q):
        pivot = max(range(col, q), key=lambda r: abs(ata[r][col]))
        if abs(ata[pivot][col]) < 1e-300:
            return None
        ata[col], ata[pivot] = ata[pivot], ata[col]
        atb[col], atb[pivot] = atb[pivot], atb[col]
        lead = ata[col][col]
        for r in range(q):
            if r == col:
                continue
            factor = ata[r][col] / lead
            if factor:
                ata[r] = [x - factor * y for x, y in zip(ata[r], ata[col])]
                atb[r] -= factor * atb[col]
    return [atb[i] / ata[i][i] for i in range(q)]


def _confirm_root(target: AtomicMeasure, support, b, bits: int = 256) -> bool:
    """Polish a float candidate at 256 bits and accept it only if the
    masses stay positive and the witness square matches the target."""
    diagram = pair_diagram(list(support))
    with workprec(bits):
        masses = {pos.squared(): to_mpf(w, bits) for pos, w in target.atoms}
        equations = [(entry.pairs, masses[entry.position.squared()])
                     for entry in diagram.entries]
        values = [mpf(x) for x in b]
        q = len(values)
        for _ in range(80):
            residual = []
            jac = mpmath.zeros(len(equations), q)
            for row, (pairs, mass) in enumerate(equations):
                acc = mpf(0)
                for i, j in pairs:
                    factor = 1 if i == j else 2
                    acc += factor * values[i] * values[j]
                    jac[row, i] += 2 * values[j]
                    if j != i:
                        jac[row, j] += 2 * values[i]
                residual.append(acc - mass)
            worst = max(abs(r) for r in residual)
            scale = max(abs(m) for _, m in equations)
            # target masses may themselves carry 128-bit rounding, so accept
            # anything far below every genuine infeasibility gap yet above
            # that representation floor
            if worst < scale * mpf(2) ** -100:
                return all(v > mpf(2) ** -64 for v in values)
            fvec = mpmath.matrix(residual)
            try:
                if len(equations) == q:
                    step = mpmath.lu_solve(jac, fvec)
                else:
                    jt = jac.T
                    step = mpmath.lu_solve(jt * jac, jt * fvec)
            except ZeroDivisionError:
                return False
            values = [values[i] - step[i] for i in range(q)]
    return False


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

ALL_CRITERIA: Tuple[Callable[[], CriterionResult], ...] = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
)


def run_all(verbose: bool = False) -> List[CriterionResult]:
    results = []
    for criterion in ALL_CRITERIA:
        result = criterion()
        results.append(result)
        if verbose:
            print(result.line(), flush=True)
    if verbose:
        failed = [r.number for r in results if not r.passed]
        total = sum(r.seconds for r in results)
        if failed:
            print(f"FAILED criteria: {failed} (total {total:.1f}s)")
        else:
            print(f"all {len(results)} criteria passed (total {total:.1f}s)")
    return results
