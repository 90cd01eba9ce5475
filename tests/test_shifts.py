import hashlib
import json
import math
import random
from types import SimpleNamespace
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf, workprec
from mpmath.libmp import mpf_pos, round_nearest

from alsq import selftest, shifts
from alsq.analyze import shift_table
from alsq.generator import GeneratorSpec, generate
from alsq.measures import (
    MeasureError,
    Position,
    dirac,
    make_measure,
    moment,
    normalize,
)
from alsq.reals import from_raw, mpf_to_fraction, to_mpf
from alsq.scalars import float_str, round_root
from alsq.shifts import (
    HANKEL_TOLERANCE,
    aluthge_moment_sequence,
    aluthge_weights,
    hankel_psd,
    moment_sequence,
    moments_from_weights,
    root_texts,
    shift_rows,
    support_characteristic,
    weights_from_measure,
)
from alsq.solver import WITNESS, aluthge_subnormal

F = Fraction


def _close(x, y, bits=128, tol_exp=-100):
    with workprec(bits):
        return abs(mpf(x) - mpf(y)) <= mpf(2) ** tol_exp * max(1, abs(mpf(y)))


# ---------------------------------------------------------------------------
# weights and moments
# ---------------------------------------------------------------------------

def test_shift_weights_two_atoms():
    mu = make_measure([(1, F(1, 2)), (2, F(1, 2))])
    alpha = weights_from_measure(mu, 3)
    with workprec(128):
        expected = [mpmath.sqrt(mpf(3) / 2), mpmath.sqrt(mpf(5) / 3),
                    mpmath.sqrt(mpf(9) / 5)]
        for a, e in zip(alpha, expected):
            assert _close(a, e)


def test_shift_weights_of_point_mass_are_constant():
    alpha = weights_from_measure(dirac(F(9, 4), 3), 6)
    with workprec(128):
        for a in alpha:
            assert _close(a, mpf(3) / 2)


def test_shift_weights_nondecreasing():
    for seed in range(20):
        mu = generate(GeneratorSpec(1 + seed % 5, "arbitrary", 600 + seed,
                                    position_style="random")).measure
        alpha = weights_from_measure(mu, 10)
        with workprec(128):
            slack = mpf(2) ** -100
            assert all(alpha[n + 1] >= alpha[n] - slack
                       for n in range(len(alpha) - 1))


def test_aluthge_weights_constant_fixed_point():
    alpha = [mpf(2)] * 5
    assert all(_close(a, 2) for a in aluthge_weights(alpha))


def test_aluthge_weight_fourth_root():
    mu = make_measure([(1, F(1, 2)), (2, F(1, 2))])
    tilde = aluthge_weights(weights_from_measure(mu, 2))
    with workprec(128):
        assert _close(tilde[0], (mpf(5) / 2) ** (mpf(1) / 4))


def test_moments_from_unweighted_shift():
    gammas = moments_from_weights([mpf(1)] * 4)
    assert all(_close(g, 1) for g in gammas)


def test_moment_weight_round_trip():
    mu = make_measure([(1, F(1, 3)), (3, F(1, 3)), (5, F(1, 3))])
    alpha = weights_from_measure(mu, 6)
    gammas = moments_from_weights(alpha)
    reference = moment_sequence(normalize(mu), 7)
    for got, expected in zip(gammas, reference):
        assert _close(got, to_mpf(expected, 128))


def test_transformed_moment_identity_sample():
    bound = mpf(2) ** -100
    for seed in range(15):
        mu = generate(GeneratorSpec(1 + seed % 6, "arbitrary", 800 + seed,
                                    position_style="random")).measure
        with workprec(128):
            tilde = aluthge_moment_sequence(mu, 12)
            gammas = [to_mpf(g, 128) for g in
                      moment_sequence(normalize(mu), 13)]
            for n in range(12):
                lhs = tilde[n] * tilde[n] * gammas[1]
                rhs = gammas[n] * gammas[n + 1]
                assert abs(lhs - rhs) <= bound * rhs


def test_witness_moments_match_transformed_moments(three_atom_square):
    # a found root, normalized, has exactly the transformed moment sequence
    verdict = aluthge_subnormal(three_atom_square)
    assert verdict.outcome == WITNESS
    nu = normalize(verdict.witness)
    tilde = aluthge_moment_sequence(three_atom_square, 10)
    for n in range(10):
        assert _close(to_mpf(moment(nu, n), 128), tilde[n])


def _pin_mix():
    """p = 3..6 measures, each also with radical positions q*sqrt(2), and
    both in real mode."""
    out = []
    for seed in range(8):
        mu = generate(GeneratorSpec(3 + seed % 4, "arbitrary", 700 + seed,
                                    position_style="random")).measure
        radical = make_measure([(Position(pos.q, 1, F(2)), w)
                                for pos, w in mu.atoms])
        out += [mu, radical, mu.to_real(128), radical.to_real(96)]
    return out


def _reference_moments(mu, count):
    """g_0 .. g_{count-1} at 600 bits: the exact rational and sqrt(base)
    parts, each converted once."""
    def fraction(w):
        return mpf_to_fraction(w) if isinstance(w, mpf) else F(w)

    def value(q):
        return mpf(q.numerator) / q.denominator

    with workprec(600):
        root = mpmath.sqrt(value(F(mu.base)))
        gammas = []
        for n in range(count):
            parts = [F(0), F(0)]
            for pos, w in mu.atoms:
                parts[pos.k * n % 2] += (fraction(w) * pos.q ** n
                                         * pos.base ** (pos.k * n // 2))
            gammas.append(value(parts[0]) + value(parts[1]) * root)
    return gammas


def _rounded(x, bits):
    return from_raw(mpf_pos(x._mpf_, bits, round_nearest))


def _reference_rows(mu, terms, bits):
    """The four shift columns by mpf operators at 600 bits from the
    moments at 600 bits, each rounded once to ``bits``: the exact value
    rounded once, unless it lies within about 2^-590 of a rounding
    boundary (an exact tie is computed exactly)."""
    g = _reference_moments(mu, terms + 2)
    with workprec(600):
        columns = [[mpmath.sqrt(g[n + 1] / g[n]),
                    mpmath.sqrt(mpmath.sqrt(g[n + 2] / g[n])),
                    g[n] / g[0],
                    mpmath.sqrt(g[n] * g[n + 1] / (g[0] * g[1]))]
                   for n in range(terms)]
    return [tuple(_rounded(x, bits)._mpf_ for x in row) for row in columns]


def test_moment_sequence_equals_per_moment_values():
    for mu in _pin_mix():
        for bits in (64, 128):
            got = moment_sequence(mu, 22, bits=bits)
            expected = [moment(mu, n, bits=bits) for n in range(22)]
            assert got == expected
            assert [type(g) for g in got] == [type(g) for g in expected]


def test_shift_entries_are_the_exact_values_rounded_once():
    """Every entry of ``shift_rows``, at rational and radical positions in
    both modes, is the exact value rounded once to nearest; the column
    functions give the same values, and ``aluthge_weights`` and
    ``moments_from_weights`` round their exact values once as well."""
    rng = random.Random(16)
    measures = _pin_mix() + [
        generate(GeneratorSpec(rng.randint(1, 6), "arbitrary",
                               rng.randrange(10 ** 6),
                               position_style="random")).measure.to_real(53)
        for _ in range(8)]
    for mu in measures:
        for bits in (53, 64, 128):
            rows = shift_rows(mu, 9, bits=bits)
            assert rows == _reference_rows(mu, 9, bits), (mu, bits)
            alpha = weights_from_measure(mu, 10, bits=bits)
            assert [a._mpf_ for a in alpha[:9]] == [row[0] for row in rows]
            assert [g._mpf_ for g in aluthge_moment_sequence(mu, 9, bits)] \
                == [row[3] for row in rows]
            with workprec(600):
                means = [mpmath.sqrt(a * b) for a, b in zip(alpha, alpha[1:])]
                products = [mpmath.fprod(a * a for a in alpha[:k])
                            for k in range(11)]
            assert aluthge_weights(alpha, bits=bits) == \
                [_rounded(x, bits) for x in means]
            assert moments_from_weights(alpha, bits=bits) == \
                [_rounded(x, bits) for x in products]


def _planted_entries():
    """Closed forms (x, y, r) at and next to decimal ties of the 15th digit
    and at powers of ten: 125099998037788.5 and 33.59154052734375 are exact
    ties, 6253943201945045 rounds up to 15 digits, 10^23 is no 53-bit
    value, so its rounding at 53 bits lies below it, those of 10^-29 and
    10^21 at 48 bits print as 9.99999999999999e-30 and 9.99999999999998e+20,
    10^20 is a 48-bit value, and 1 + 3^-1400 has terms of over 2048 bits."""
    tie = F("33.59154052734375")
    below = int(tie * 2 ** 122)
    values = [F(250199996075577, 2), F(6253943201945045), tie,
              F(below, 2 ** 122), F(below + 1, 2 ** 122), F(10 ** 23),
              F(10 ** 23 + 1), F(10 ** 23 - 1), F(10 ** 22 + 1),
              F(10 ** 16 + 3, 10 ** 21), F(1, 10 ** 29), F(10 ** 21),
              F(10 ** 20), F(3 ** 1400 + 1, 3 ** 1400)]
    return [((v.numerator ** r, 0), (v.denominator ** r, 0), r)
            for v in values for r in (1, 2, 4)]


def test_shift_table_text_is_float_str_of_the_rounded_entry(monkeypatch):
    """``analyze.shift_table`` prints each entry as ``float_str`` prints the
    value ``shift_rows`` rounds at ``bits``, byte for byte, though
    ``root_texts`` rounds at ``bits`` only near a decimal tie: on rational,
    radical and real-mode measures and on planted ties, with both of its
    paths taken at 53 bits and up."""
    exact = []
    monkeypatch.setattr(shifts, "round_root",
                        lambda *args: exact.append(args) or round_root(*args))
    planted = _planted_entries()
    for bits in (1, 48, 53, 64, 128, 200):
        for mu in _pin_mix():
            texts = [row[1:] for row in shift_table(mu, 12, bits)["rows"]]
            assert texts == [tuple(float_str(man, exp) for _, man, exp, _ in row)
                             for row in shift_rows(mu, 12, bits)], (mu, bits)
        del exact[:]
        texts = root_texts(planted, bits)
        assert len(texts) == len(planted)
        for (x, y, r), text in zip(planted, texts):
            assert text == \
                float_str(*round_root(x, y, r, bits)[1:3]), (x, y, r, bits)
        assert 0 < len(exact) <= len(planted)
        assert len(exact) == len(planted) if bits == 1 else bits < 53 \
            or len(exact) < len(planted), bits


def test_root_texts_survive_a_wrong_decimal_exponent(monkeypatch):
    """An estimate of the decimal exponent off by one or two either way,
    as log10 of ints of millions of bits could make it, sends the entry to
    the exact path instead of printing a digit too few or too many."""
    def log10(x):  # off by up to 1.3 either way, by the int
        return math.log10(x) + (1.3, 0, -1.3)[x % 3]
    monkeypatch.setattr(shifts, "math", SimpleNamespace(
        log10=log10, floor=math.floor, isqrt=math.isqrt))
    planted = _planted_entries()
    for bits in (53, 128):
        assert root_texts(planted, bits) == \
            [float_str(*round_root(x, y, r, bits)[1:3]) for x, y, r in planted]


def test_root_texts_keep_the_order_of_a_mixed_batch(monkeypatch):
    """One ``root_texts`` call on the planted ties and on values laid out
    in each of ``float_str``'s forms (e <= -5, -5 < e < 0, 0 <= e < 15 and
    e >= 15), shuffled among radical entries, which take the exact path,
    entries of over 2048 bits and values beyond 10^+-700, whose powers of
    ten are kept for the call only: text i is that of entry i."""
    exact = []
    monkeypatch.setattr(shifts, "round_root",
                        lambda *args: exact.append(args) or round_root(*args))
    rng = random.Random(34)
    values = [F(rng.randrange(10 ** 8, 10 ** 9), 10 ** 8) * F(10) ** e
              for e in (-12, -6, -5, -4, -3, -1, 0, 3, 9, 14, 15, 16, 22, 40)]
    decimal = [((v.numerator ** r, 0), (v.denominator ** r, 0), r)
               for v in values for r in (1, 2, 4)]
    radical = [((rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 6)),
                (rng.randrange(1, 10 ** 6), rng.randrange(0, 10 ** 3)), r)
               for r in (1, 2, 4) for _ in range(6)]
    big = [((3 ** 1400 * v.numerator, 0), (3 ** 1400 * v.denominator, 0), 2)
           for v in values[::3]]
    huge = [((v.numerator ** r, 0), (v.denominator ** r, 0), r)
            for e in (-3100, -2400, -760, 700, 710, 1600, 3500)
            for v in [F(rng.randrange(10 ** 8, 10 ** 9), 10 ** 8) * F(10) ** e]
            for r in (1, 2, 4)]
    entries = _planted_entries() + decimal + radical + big + huge
    rng.shuffle(entries)
    for bits in (24, 53, 128):
        del exact[:]
        texts = root_texts(entries, bits, 2)
        assert len(texts) == len(entries)
        for (x, y, r), text in zip(entries, texts):
            assert text == float_str(*round_root(x, y, r, bits, 2)[1:3]), \
                (x, y, r, bits)
        assert len(radical) <= len(exact) <= len(entries)
        assert bits < 53 or len(exact) < len(entries), bits
        # from 53 bits the long entries, far from a tie, take the decimal
        # path
        assert bits < 53 or not [
            args for args in exact if args[:3] in big + huge], bits
    laid_out = [text for entry, text in zip(entries, texts) if entry in decimal]
    for form in (lambda t: "e-" in t, lambda t: t.startswith("0."),
                 lambda t: "e" not in t and not t.startswith("0."),
                 lambda t: "e+" in t):
        assert any(map(form, laid_out))


# SHA-256 of the shift tables test_shift_text_output_is_pinned prints
SHIFT_TEXT_DIGEST = \
    "1c215ba18ee4c9a6d56ee2a6138afa292ac725848538bbc579c624e7174338ce"


def test_shift_text_output_is_pinned():
    """The text of ``analyze.shift_table``, 20 rows, byte for byte, on a
    seeded p = 3..6 mix of every generator mode at geometric and random
    positions, each also at radical positions q*sqrt(2): rational masses
    at 64 bits, ``to_real(53)`` at 53 and ``to_real(128)`` at 128."""
    digest = hashlib.sha256()
    for seed in range(16):
        p = 3 + seed % 4
        kind = ("with-root", "perturbed", "with-aluthge-root",
                "arbitrary")[seed // 4]
        if p == 4 and kind in ("with-root", "with-aluthge-root"):
            kind = "arbitrary"
        mu = generate(GeneratorSpec(p, kind, 900 + seed, position_style=(
            "geometric", "random")[seed % 2])).measure
        radical = make_measure([(Position(pos.q, 1, F(2)), w)
                                for pos, w in mu.atoms])
        for nu in (mu, radical):
            for masses, bits in ((nu, 64), (nu.to_real(53), 53),
                                 (nu.to_real(128), 128)):
                digest.update(json.dumps(shift_table(masses, 20, bits))
                              .encode() + b"\n")
    assert digest.hexdigest() == SHIFT_TEXT_DIGEST


def test_radical_entries_of_rational_value_take_the_decimal_path(
        monkeypatch):
    """On the radical half of the mix of test_shift_text_output_is_pinned
    half of the entries with a radical part have x and y of the form
    (0, b), so x / y is rational: ``root_texts`` prints them as (b_x, 0) /
    (b_y, 0), with the same texts and the same fallbacks to
    ``round_root``."""
    exact = []
    monkeypatch.setattr(shifts, "round_root",
                        lambda *args: exact.append(args) or round_root(*args))
    radical = both = fallbacks = total = 0
    for seed in range(16):
        p = 3 + seed % 4
        kind = ("with-root", "perturbed", "with-aluthge-root",
                "arbitrary")[seed // 4]
        if p == 4 and kind in ("with-root", "with-aluthge-root"):
            kind = "arbitrary"
        mu = generate(GeneratorSpec(p, kind, 900 + seed, position_style=(
            "geometric", "random")[seed % 2])).measure
        nu = make_measure([(Position(pos.q, 1, F(2)), w)
                           for pos, w in mu.atoms])
        for masses, bits in ((nu, 64), (nu.to_real(53), 53),
                             (nu.to_real(128), 128)):
            entries, s = shifts._entries(masses, 20, bits)
            ratios = [(x, y, r) for x, y, r in entries if not (x[0] or y[0])]
            if bits == 64:
                radical += sum(1 for x, y, _ in entries if x[1] or y[1])
                both += len(ratios)
            del exact[:]
            texts = root_texts(ratios, bits, s)
            fell = len(exact)
            del exact[:]
            assert root_texts([((x[1], 0), (y[1], 0), r)
                               for x, y, r in ratios], bits) == texts
            assert len(exact) == fell
            fallbacks, total = fallbacks + fell, total + len(ratios)
    assert (radical, both) == (960, 480)
    # near a decimal tie
    assert fallbacks < total // 10


# ---------------------------------------------------------------------------
# Hankel positivity
# ---------------------------------------------------------------------------

def _det(rows):
    matrix = [list(map(F, row)) for row in rows]
    size = len(matrix)
    sign = F(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if matrix[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
            sign = -sign
        for r in range(col + 1, size):
            factor = matrix[r][col] / matrix[col][col]
            matrix[r] = [x - factor * y for x, y in zip(matrix[r], matrix[col])]
    out = sign
    for idx in range(size):
        out *= matrix[idx][idx]
    return out


def test_hankel_psd_two_by_two():
    mu = make_measure([(1, F(1, 2)), (2, F(1, 2))])
    gammas = moment_sequence(mu, 4)
    matrix = [[gammas[0], gammas[1]], [gammas[1], gammas[2]]]
    assert _det(matrix) == F(1, 4)
    assert hankel_psd(gammas, 1) == (True, True)


def test_hankel_psd_singular_matrix_still_passes():
    mu = make_measure([(1, F(1, 2)), (2, F(1, 2))])
    gammas = moment_sequence(mu, 7)
    matrix = [[gammas[i + j] for j in range(3)] for i in range(3)]
    assert _det(matrix) == 0  # two atoms give rank two
    assert hankel_psd(gammas, 2) == (True, True)


def test_hankel_psd_point_mass_all_orders():
    gammas = [F(2) ** n for n in range(10)]
    for n in range(1, 5):
        assert hankel_psd(gammas, n) == (True, True)


def test_hankel_psd_rejects_non_moment_sequence():
    gammas = [F(1), F(5), F(2), F(30), F(3), F(40), F(4), F(50)]
    ok_a, _ = hankel_psd(gammas, 1)
    assert not ok_a


def test_hankel_needs_enough_entries():
    with pytest.raises(MeasureError):
        hankel_psd([F(1), F(1), F(1)], 1)


def _reference_hankel_psd(gammas, n, bits=128, tol=HANKEL_TOLERANCE):
    """The symmetric-eigenvalue test under ``workprec``: the reference
    whose verdicts the exact test must give."""
    with workprec(bits):
        values = [to_mpf(g, bits) for g in gammas]
        results = []
        for offset in (0, 1):
            size = n + 1
            matrix = mpmath.matrix(size, size)
            for i in range(size):
                for j in range(size):
                    matrix[i, j] = values[i + j + offset]
            eigenvalues, _ = mpmath.eigsy(matrix)
            trace = mpmath.fsum(matrix[i, i] for i in range(size))
            threshold = -to_mpf(tol, bits) * trace
            results.append(min(eigenvalues) > threshold)
    return results[0], results[1]


def _perturbed(gammas, rng):
    """One entry sign-flipped, bumped by a relative 2^-1..2^-40 or
    2^-60..2^-70, or moved by an additive 2^-100..2^-130."""
    out = list(gammas)
    i = rng.randrange(len(out))
    kind, sign = rng.randrange(3), rng.choice((-1, 1))
    if kind == 0:
        out[i] = -out[i]
    elif kind == 1:
        k = rng.choice(list(range(1, 41)) + list(range(60, 71)))
        out[i] = out[i] * (1 + sign * F(1, 2 ** k))
    else:
        out[i] = out[i] + sign * F(1, 2 ** rng.randint(100, 130))
    return out


def _as_mpf(values):
    return [to_mpf(v, 256) for v in values]


def _assert_reference_verdicts(cases):
    rejected = 0
    for gammas, n in cases:
        verdict = hankel_psd(gammas, n)
        assert verdict == _reference_hankel_psd(gammas, n), (gammas, n)
        rejected += not all(verdict)
    assert rejected  # the cases are not all positive


def _criterion_10_sequences():
    good3, _ = selftest._corpus_p3()
    good5, _ = selftest._corpus_p5()
    case_one, case_two, _ = selftest._corpus_p6()
    return [aluthge_moment_sequence(mu, 14) for mu in
            list(good3) + list(good5) + list(case_one) + list(case_two)]


def test_hankel_psd_exact_boundary():
    # [[1, b], [b, 1]] + tol * 2 * I has determinant (1 + 2 tol)^2 - b^2
    tol = HANKEL_TOLERANCE
    assert tol == F(1, 2 ** 64)  # the default, apart from the solver's
    edge = 1 + 2 * tol
    assert hankel_psd([F(1), edge, F(1), edge], 1) == (False, True)
    below = edge - F(1, 2 ** 200)
    assert hankel_psd([F(1), below, F(1), below], 1) == (True, True)
    assert hankel_psd(_as_mpf([1, edge, 1, edge]), 1) == (False, True)


def test_hankel_psd_matches_eigenvalue_reference_on_criterion_10():
    """Criterion 10's corpus (every instance is accepted by both tests, at
    order 6: the criterion asserts so) and perturbations of it at orders 1,
    2, 3 and 6, as mpf values."""
    sequences = _criterion_10_sequences()
    assert len(sequences) == 600
    for gammas in sequences[::15]:
        assert hankel_psd(gammas, 6) == _reference_hankel_psd(gammas, 6) == \
            (True, True)
    rng = random.Random(10)
    cases = []
    for index in range(200):
        n = (1, 2, 3, 6)[index % 4]
        gammas = rng.choice(sequences)[:2 * n + 2]
        perturbed = _perturbed([mpf_to_fraction(g) for g in gammas], rng)
        cases.append((_as_mpf(perturbed), n))
    _assert_reference_verdicts(cases)


def test_hankel_psd_matches_eigenvalue_reference_on_rational_moments():
    rng = random.Random(11)
    cases = []
    for index in range(120):
        mu = generate(GeneratorSpec(1 + index % 6, "arbitrary", 500 + index,
                                    position_style=("geometric", "random")[index % 2])).measure
        n = 1 + index % 4
        gammas = moment_sequence(mu, 2 * n + 2)
        cases.append((gammas if index % 3 == 0 else _perturbed(gammas, rng), n))
    _assert_reference_verdicts(cases)


def test_hankel_psd_matches_eigenvalue_reference_on_real_and_radical_moments():
    """Both moment columns of ``shift_rows`` at orders 1..8, for rational
    measures, their ``to_real(64/128/256)`` copies and supports moved to
    q * sqrt(2), as they are and perturbed."""
    rng = random.Random(12)
    cases = []
    for index in range(120):
        mu = generate(GeneratorSpec(1 + index % 6, "arbitrary", 700 + index,
                                    position_style=("geometric", "random")[index % 2])).measure
        if index % 5 == 4:
            mu = make_measure([(Position(pos.q, 1, F(2)), w)
                               for pos, w in mu.atoms], base=F(2))
        if index % 4:
            mu = mu.to_real((64, 128, 256)[index % 4 - 1])
        n = 1 + index % 8
        column = 2 + index % 2
        gammas = [from_raw(row[column]) for row in shift_rows(mu, 2 * n + 2)]
        if index % 3:
            gammas = _as_mpf(_perturbed([mpf_to_fraction(g) for g in gammas], rng))
        cases.append((gammas, n))
    _assert_reference_verdicts(cases)


# ---------------------------------------------------------------------------
# recurrences
# ---------------------------------------------------------------------------

def _assert_support_polynomial_is_the_minimal_recurrence(mu):
    """prod(t - x_i) annihilates the exact moments, and the p x p Hankel
    matrix is positive definite (no shorter recurrence) while the
    (p + 1) x (p + 1) one is singular."""
    p = mu.p
    c = support_characteristic(mu)
    gammas = moment_sequence(mu, 3 * p + 2)
    assert len(c) == p + 1 and c[p] == 1
    assert all(sum(c[j] * gammas[n + j] for j in range(p + 1)) == 0
               for n in range(2 * p + 2))
    assert hankel_psd(gammas, p - 1, F(0))[0]
    assert not hankel_psd(gammas, p, F(0))[0]


def test_recurrence_six_atom_example(six_atom_exact):
    assert six_atom_exact.p == 6
    _assert_support_polynomial_is_the_minimal_recurrence(six_atom_exact)


def test_recurrence_order_matches_atom_count():
    for seed in range(25):
        mu = generate(GeneratorSpec(1 + seed % 6, "arbitrary", 900 + seed,
                                    position_style="random")).measure
        _assert_support_polynomial_is_the_minimal_recurrence(mu)


def test_support_characteristic_matches_fraction_product():
    # prod(t - x) multiplied out one factor at a time on Fractions; seeded
    # supports of 1 to 40 atoms, integer, geometric and random rational
    rng = random.Random(11)
    for _ in range(60):
        style = rng.choice(["random", "geometric"])
        mu = generate(GeneratorSpec(rng.randint(1, 40), "arbitrary",
                                    rng.randrange(10 ** 6),
                                    position_style=style)).measure
        coeffs = [F(1)]
        for pos in mu.support:
            x = pos.as_fraction()
            coeffs = [high - x * low
                      for high, low in zip([F(0)] + coeffs, coeffs + [F(0)])]
        assert support_characteristic(mu) == tuple(coeffs)


def test_criterion_11_fails_without_raising_on_a_wrong_polynomial(monkeypatch):
    def without_top_atom(mu):
        coeffs = [F(1)]
        for pos in mu.support[:-1]:
            x = pos.as_fraction()
            coeffs = [high - x * low
                      for high, low in zip([F(0)] + coeffs, coeffs + [F(0)])]
        return tuple(coeffs)

    monkeypatch.setattr(selftest, "support_characteristic", without_top_atom)
    assert selftest.criterion_11().passed is False
