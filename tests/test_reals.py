"""Real mode rounds on ints: each helper of ``alsq.reals`` gives the raw
value of the libmp call it stands for, and a real-mode ``analyze`` runs no
libmp function but the parser and the printer of decimal text."""

import os
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mpf
from mpmath import libmp
from mpmath.libmp import (from_float, from_int, from_man_exp, from_rational,
                          from_str, mpf_add, mpf_div, mpf_mul, mpf_pos,
                          mpf_sqrt, round_down, round_nearest)

from alsq import reals
from alsq.analyze import AnalyzeOptions, analyze
from alsq.generator import MODES, GeneratorSpec, generate
from alsq.measures import (MeasureError, Position, convolve, dumps_measure,
                           make_measure, normalize, strip_zero_atom, t_weight)
from alsq.scalars import ScalarError
from alsq.solver import SolverConfig

F = Fraction
PRECISIONS = (1, 2, 3, 24, 53, 64, 128, 256, 1024)


def _tie(man: int, bits: int) -> bool:
    """Whether the int man > 0 lies exactly halfway between two values of
    ``bits`` bits."""
    drop = man.bit_length() - bits
    return drop > 0 and man & ((1 << drop) - 1) == 1 << (drop - 1)


def _halfway(rng, bits):
    """A mantissa halfway between two of ``bits`` bits."""
    drop = rng.randint(1, bits + 8)
    return (rng.getrandbits(bits) | 1 << (bits - 1)) << drop | 1 << (drop - 1)


def _mantissa(rng, bits):
    """A mantissa of 1 to 3 * bits + 8 bits, often narrower or wider than
    ``bits``, and a quarter of the time halfway between two of ``bits``."""
    if rng.random() < 0.25:
        return _halfway(rng, bits)
    width = rng.randint(1, 3 * bits + 8)
    return rng.getrandbits(width) | 1 << (width - 1)


def _raw(rng, bits, signed=True):
    """A normalized raw value: a mantissa of at most ``bits`` bits, as
    every mpf of that precision has, at an exponent out to +-2000."""
    man = rng.getrandbits(rng.randint(1, bits)) | 1
    sign = rng.randint(0, 1) if signed else 0
    return from_man_exp(-man if sign else man, rng.randint(-2000, 2000))


def _samples(per_precision=120, seed=37):
    rng = random.Random(seed)
    for bits in PRECISIONS:
        for _ in range(per_precision):
            yield rng, bits


def test_the_sample_covers_ties_zero_and_wide_mantissas():
    ties = wide = 0
    for rng, bits in _samples():
        man = _mantissa(rng, bits)
        ties += _tie(man, bits)
        wide += man.bit_length() > bits
    assert ties > 150 and wide > 600


def test_rounded_and_normalized_match_from_man_exp():
    ties = 0
    for rng, bits in _samples():
        man, exp = _mantissa(rng, bits), rng.randint(-2000, 2000)
        ties += _tie(man, bits)
        for sign in (0, 1):
            n = -man if sign else man
            assert reals.rounded(sign, man, exp, bits) == from_man_exp(
                n, exp, bits, round_nearest), (sign, man, exp, bits)
            assert reals.normalized(sign, man, exp) == from_man_exp(n, exp)
        assert reals.rounded(0, 0, exp, bits) == reals.normalized(0, 0, exp) \
            == from_man_exp(0, exp, bits, round_nearest)
    assert ties > 150


def test_quotient_down_matches_from_rational():
    exact = 0
    for rng, bits in _samples():
        d = _mantissa(rng, bits) << rng.randint(0, 40)
        if rng.random() < 0.3:  # an exact quotient, its mantissa wide
            n = d * _mantissa(rng, bits)
            exact += 1
        else:
            n = _mantissa(rng, bits) << rng.randint(0, 2000)
        for value in (n, -n, 0):
            assert reals.quotient_down(value, d, bits) == from_rational(
                value, d, bits, round_down), (value, d, bits)
    assert exact > 200


def test_product_total_and_quotient_match_libmp():
    ties = Counter()
    for rng, bits in _samples():
        x, y = _raw(rng, bits), _raw(rng, bits)
        if rng.random() < 0.3:
            # a product that is a tie: the tie times a power of two; a
            # quotient that is one: the tie times the divisor, over it
            tie = _halfway(rng, bits)
            if rng.random() < 0.5:
                x = from_man_exp(tie, rng.randint(-2000, 2000))
                y = from_man_exp(rng.choice((1, -1)), rng.randint(-99, 99))
            else:
                x = from_man_exp(tie * y[1], rng.randint(-2000, 2000))
        ties["product"] += _tie(x[1] * y[1], bits)
        assert reals.product(x, y, bits) == mpf_mul(x, y, bits,
                                                    round_nearest)
        assert reals.quotient(x, y, bits) == mpf_div(x, y, bits,
                                                     round_nearest)
        ties["quotient"] += x[1] % y[1] == 0 and _tie(x[1] // y[1], bits)
        # a sum that is a tie: the tie split in two at one exponent
        tie, e = _halfway(rng, bits), rng.randint(-2000, 2000)
        part = rng.randint(1, tie)
        for u, v in ((x, y), (x, from_man_exp(rng.randint(-9, 9), e)),
                     (libmp.fzero, y),
                     (from_man_exp(part, e), from_man_exp(tie - part, e))):
            assert reals.total(u, v, bits) == mpf_add(u, v, bits,
                                                      round_nearest)
            low = min(u[2], v[2])
            exact = ((-1) ** u[0] * (u[1] << u[2] - low)
                     + (-1) ** v[0] * (v[1] << v[2] - low))
            ties["total"] += _tie(abs(exact), bits)
        assert reals.product(libmp.fzero, y, bits) == libmp.fzero
        assert reals.quotient(libmp.fzero, y, bits) == libmp.fzero
    assert min(ties.values()) > 20, ties


def test_sqrt_raw_matches_mpf_sqrt():
    for rng, bits in _samples():
        x = _raw(rng, bits, signed=False)
        square = from_man_exp(x[1] * x[1], 2 * x[2])  # an exact root
        for value in (x, square):
            assert reals.sqrt_raw(value, bits) == mpf_sqrt(
                value, bits, round_nearest), (value, bits)


def test_to_raw_matches_the_libmp_conversions():
    for rng, bits in _samples(60):
        man, exp = _mantissa(rng, bits), rng.randint(-2000, 2000)
        wide = from_man_exp(man, exp)  # an mpf wider than bits
        narrow = _raw(rng, bits)
        for raw in (wide, narrow, libmp.fzero):
            assert reals.to_raw(reals.from_raw(raw), bits) == mpf_pos(
                raw, bits, round_nearest)
        q = _mantissa(rng, bits)
        for value in (F(man, q), F(-man, q), F(0)):
            assert reals.to_raw(value, bits) == from_rational(
                value.numerator, value.denominator, bits, round_down)
        for value in (man, -man, 0):
            assert reals.to_raw(value, bits) == from_int(value, bits,
                                                         round_nearest)
        f = rng.uniform(-1e300, 1e300) * 2.0 ** rng.randint(-900, 0)
        assert reals.to_raw(f, bits) == from_float(f, bits, round_nearest)
        text = f"{rng.randint(1, 10 ** 30)}e{rng.randint(-300, 300)}"
        assert reals.to_raw(text, bits) == from_str(text, bits,
                                                    round_nearest)
    for f in (float("inf"), float("-inf"), float("nan"), 0.0, -0.0):
        assert reals.to_raw(f, 24) == from_float(f, 24, round_nearest)
    with pytest.raises(ScalarError):
        reals.to_raw(object(), 24)


def test_dyadic_helpers_match_libmp():
    rng = random.Random(38)
    for bits in PRECISIONS:
        for _ in range(30):
            den = 1 << rng.randint(0, 2100)
            nums = [_mantissa(rng, bits) << rng.randint(0, 40)
                    for _ in range(rng.randint(1, 6))]
            exp = 1 - den.bit_length()
            assert reals.round_dyadic(nums, den, bits) == reals.to_dyadic(
                [from_man_exp(n, exp, bits, round_nearest) for n in nums])
            for n in nums + [0, -nums[0]]:
                assert reals.from_dyadic(n, den)._mpf_ == from_man_exp(n, exp)
                x = reals.from_dyadic(n, den)
                assert reals.dyadic_text(x) == str(reals.mpf_to_fraction(x))
    for special in (libmp.finf, libmp.fninf, libmp.fnan):
        with pytest.raises(ScalarError, match="non-finite"):
            reals.dyadic_text(reals.from_raw(special))


def test_position_raw_matches_libmp():
    rng = random.Random(39)
    for bits in PRECISIONS:
        for _ in range(20):
            q = F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
            base = F(rng.choice((2, 3, 5, 7)), rng.randint(1, 9))
            pos = Position(q, 1, base)
            value = from_rational(q.numerator, q.denominator, bits,
                                  round_down)
            root = mpf_sqrt(from_rational(base.numerator, base.denominator,
                                          bits, round_down),
                            bits, round_nearest)
            assert reals.position_raw(pos, bits) == mpf_mul(
                value, root, bits, round_nearest)
            assert reals.position_raw(Position(q, 0, base), bits) == value


_ALLOWED = ("to_str", "from_str")


def _libmp_calls(run):
    """The libmp functions that ``run()`` calls other than through
    ``to_str`` and ``from_str``, counted by name."""
    where = os.path.dirname(libmp.__file__)
    calls, inside = Counter(), [0]

    def profile(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(where):
            return
        if event == "call":
            if code.co_name in _ALLOWED:
                inside[0] += 1
            elif not inside[0]:
                calls[code.co_name] += 1
        elif event == "return" and code.co_name in _ALLOWED:
            inside[0] -= 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def _real_cases():
    cases = []
    for seed in range(3):
        for p in range(3, 8):
            for mode in MODES:
                try:
                    cases.append(generate(GeneratorSpec(p, mode, seed)).measure)
                except MeasureError:
                    pass
    two = Position(1, 1, F(2))
    cases += [make_measure([(two, F(1, 3)), (two.power(3), F(2, 3))]),
              make_measure([(0, F(1, 5)), (1, F(1, 4)), (2, F(1, 2)),
                            (4, F(1, 4))])]
    return cases


@pytest.mark.parametrize("bits", [3, 24, 128, 256])
def test_real_analyze_runs_no_libmp_arithmetic(bits):
    # mpmath holds real masses and prints them; it computes nothing
    measures = [mu.to_real(bits) for mu in _real_cases()]
    outcomes = set()

    def run():
        for mu in measures:
            report = analyze(mu, AnalyzeOptions(SolverConfig(bits), 5))
            report.render()
            report.to_json_dict()
            dumps_measure(mu)
            outcomes.add(report.aluthge_verdict.outcome)
            body = strip_zero_atom(mu)[1]
            convolve(body, body, bits)
            t_weight(body, bits)
            normalize(mu, bits)
            mu.total_mass()

    assert _libmp_calls(run) == Counter()
    assert len(outcomes) >= 2
    # the spy sees libmp arithmetic where it runs
    assert _libmp_calls(lambda: mpf(1) + mpf(2))["mpf_add"] == 1
