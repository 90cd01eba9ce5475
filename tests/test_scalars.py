import random
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mpf, workprec
from mpmath.libmp import from_man_exp, to_str

from alsq.reals import (from_dyadic, from_raw, mpf_to_fraction, to_dyadic,
                        to_mpf)
from alsq.scalars import ScalarError, float_str, parse_rational, sqrt_fraction

F = Fraction


def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("7") == F(7)
    assert parse_rational("0.125") == F(1, 8)
    with pytest.raises(ScalarError):
        parse_rational("a/b")


def test_parse_rational_bounds_digits_before_building():
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert parse_rational(f"1e-{limit - 1}") == F(1, 10 ** (limit - 1))
    assert parse_rational("1" * limit) == int("1" * limit)
    hostile = [f"1e{limit}", f"1e-{limit}", "1e100000000", "-1E1000000",
               "1" * (limit + 1), "1/" + "3" * (limit + 1),
               "1" * limit + "." + "1" * limit,
               "1" * (limit - 1000) + "." + "1" * 1001 + "e-1",
               "1e" + "9" * (limit + 1)]
    for text in hostile:
        start = time.perf_counter()
        with pytest.raises(ScalarError) as caught:
            parse_rational(text)
        assert time.perf_counter() - start < 0.5
        assert len(str(caught.value)) < 100  # quotes a prefix only


def test_sqrt_fraction():
    assert sqrt_fraction(F(9, 4)) == F(3, 2)
    assert sqrt_fraction(F(2)) is None
    assert sqrt_fraction(F(-1)) is None


def test_mpf_fraction_round_trip():
    x = to_mpf(F(355, 113), 128)
    back = mpf_to_fraction(x)
    assert to_mpf(back, 128) == x
    assert mpf_to_fraction(mpf(0)) == 0


def test_to_mpf_rounds_like_working_precision():
    with workprec(300):
        wide = mpf(1) / 3
    values = [F(1, 3), F(-2, 7), F(10 ** 40 + 1, 3), F(5, 8), 7, -5,
              2 ** 200 + 1, 0.1, "0.1", "3/7", "-2.5e-30", wide, mpf(-3)]
    for bits in (24, 53, 128, 200):
        for value in values:
            with workprec(bits):
                expected = +mpmath.mpmathify(value)
            assert to_mpf(value, bits)._mpf_ == expected._mpf_, (value, bits)


_DYADIC = st.builds(lambda man, exp: from_raw(from_man_exp(man, exp)),
                    st.integers(0, 2 ** 140), st.integers(-300, 300))


@given(st.lists(_DYADIC, min_size=1, max_size=6))
def test_dyadic_masses_are_exact(values):
    # a real table holds its masses as ints over one power of two
    nums, den = to_dyadic([v._mpf_ for v in values])
    assert den & (den - 1) == 0
    for value, n in zip(values, nums):
        assert F(n, den) == mpf_to_fraction(value)
        assert from_dyadic(n, den)._mpf_ == value._mpf_



def test_float_str_rounds_the_binary_value_in_to_str_layout():
    # the layout of mpmath's to_str, on seeded values of 1 to 200 bits
    rng = random.Random(16)
    for _ in range(3000):
        bits = rng.choice([1, 2, 53, 64, 128, 200])
        man, exp = rng.getrandbits(bits) | 1, rng.randint(-400, 400)
        assert float_str(man, exp) == to_str((0, man, exp, man.bit_length()),
                                             15), (man, exp)
    # at the decimal rounding boundaries: exact ties round away from zero,
    # and the binary neighbours of the decimal tie 33.59154052734375 round
    # to either side of it
    below = int(F("33.59154052734375") * 2 ** 122)
    cases = {(250199996075577, -1): "125099998037789.0",
             (6253943201945045, 0): "6.25394320194505e+15",
             (below + 1, -122): "33.5915405273438",
             (below, -122): "33.5915405273437",
             (265845599156982927946660514679933784543, -121):
                 "99.9999999999999",
             (1, 0): "1.0", (5, -1): "2.5", (10 ** 20, 0): "1.0e+20",
             (3, -20): "2.86102294921875e-6", (1, -14): "6.103515625e-5"}
    for (man, exp), text in cases.items():
        assert float_str(man, exp) == text, (man, exp)


def _reference_parse_rational(text: str) -> Fraction:
    """parse_rational before its fast path for d+ and d+/d+: every string
    through Fraction's regular expression."""
    text = text.strip()
    limit = sys.get_int_max_str_digits()
    mantissa, _, exponent = text.lstrip("+-").upper().partition("E")
    try:
        size = len(mantissa)
        if size > limit:
            size = max(map(len, mantissa.split("/")))
        if exponent:
            whole, _, decimals = mantissa.partition(".")
            shift = int(exponent)
            size = max(len(whole) + len(decimals) + max(shift, 0),
                       len(decimals) + max(-shift, 0) + 1)
        if not limit or size <= limit:
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarError(f"malformed rational {text[:40]!r}") from exc
    raise ScalarError(f"rational {text[:40]!r} has more than {limit} digits")


def _outcome(parse, text):
    try:
        value = parse(text)
    except ScalarError as exc:
        return "error", str(exc)
    return "value", type(value), value


def test_parse_rational_matches_the_regular_expression_path():
    limit = sys.get_int_max_str_digits()
    rng = random.Random(18)
    alphabet = "0123456789/-+.eE _ \t٣٠²"
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
             for _ in range(20000)]
    texts += [f"{rng.randint(0, 10 ** 6)}/{rng.randint(0, 50)}"
              for _ in range(2000)]
    texts += ["²", "٣/4", "1_0", " 3/4 ", "0/5", "1/0", "-3/4", "2e3",
              "٣/٠", "00/007", "/5", "5/", "", "+3/4", "3//4", "١٢٣"]
    # at the digit limit and one past it, whole and per part of p/q
    texts += ["9" * limit, "9" * (limit + 1), "1" + "0" * (limit - 1),
              "7" * limit + "/" + "3" * limit, "7" * (limit + 1) + "/3",
              "7/" + "3" * (limit + 1), "1/" + "0" * limit,
              "7" * (limit - 2) + "/3", "7" * (limit - 1) + "/3"]
    for text in texts:
        assert _outcome(parse_rational, text) == \
            _outcome(_reference_parse_rational, text), repr(text[:40])
    # the decimal digits are those of Fraction's \d: every one of them
    digits = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isdecimal()]
    for digit in digits:
        for text in (digit, f"{digit}/7", f"7/{digit}"):
            assert _outcome(parse_rational, text) == \
                _outcome(_reference_parse_rational, text), repr(text)
