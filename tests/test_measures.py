import hashlib
import json
import math
import random
import re
import sys
from fractions import Fraction
from math import lcm

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf, workprec
from mpmath.libmp import from_rational, round_nearest

from alsq.diagram import pair_diagram
from alsq.measures import (
    RATIONAL,
    REAL,
    AtomicMeasure,
    IncompatibleBasesError,
    MeasureError,
    Position,
    ZeroAtomError,
    _common_base,
    _key_parts,
    _key_position,
    convolve,
    dumps_measure,
    int_keys,
    loads_measure,
    make_measure,
    measure_to_json_dict,
    moments,
    normalize,
    power_positions,
    power_sums,
    scale_positions,
    square_products,
    strip_zero_atom,
    t_weight,
    table,
)
from alsq.reals import from_raw, mpf_to_fraction, position_raw, to_mpf
from alsq.scalars import ScalarError, parse_rational, scalar_str

F = Fraction


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_POSITION_POOL = sorted({F(n, d) for n in range(1, 13) for d in (1, 2, 3)})

_weights = st.fractions(min_value=F(1, 9), max_value=F(4),
                        max_denominator=9)


@st.composite
def measures(draw, min_atoms=1, max_atoms=4):
    p = draw(st.integers(min_atoms, max_atoms))
    positions = draw(st.lists(st.sampled_from(_POSITION_POOL),
                              min_size=p, max_size=p, unique=True))
    weights = draw(st.lists(_weights, min_size=p, max_size=p))
    return make_measure(list(zip(positions, weights)))


# ---------------------------------------------------------------------------
# positions
# ---------------------------------------------------------------------------

def test_position_ordering_mixes_radicals():
    base = F(2)
    rational = Position(F(3, 2), 0, base)
    radical = Position(F(1), 1, base)  # sqrt(2) ~ 1.414...
    assert radical < rational
    assert Position(F(2), 1, base) > rational  # 2*sqrt(2) ~ 2.83


def test_position_product_closes_radicals():
    base = F(3)
    a = Position(F(2), 1, base)
    b = Position(F(5), 1, base)
    prod = a * b
    assert prod.k == 0 and prod.q == 30  # 2*5*3


def test_position_collapses_square_base():
    pos = Position(F(3), 1, F(4))
    assert pos.k == 0 and pos.q == 6


def test_position_power_and_scale():
    pos = Position(F(2), 1, F(2))
    assert pos.power(2) == Position(F(8), 0, F(2))
    assert pos.scale(F(1, 2)) == Position(F(1), 1, F(2))
    with pytest.raises(MeasureError):
        pos.scale(F(-1))


_POSITION_BASES = (F(1), F(2), F(3), F(5, 2), F(4), F(9, 4))


@st.composite
def position_pairs(draw):
    """Two positions over one base: rational, radical or perfect-square
    (where k = 1 collapses to k = 0 at construction)."""
    base = draw(st.sampled_from(_POSITION_BASES))
    q = st.fractions(min_value=F(1, 30), max_value=F(50), max_denominator=30)
    return tuple(Position(draw(q), draw(st.integers(0, 1)), base)
                 for _ in range(2))


def _fields(pos):
    return pos.q, pos.k, pos.base, type(pos.q), type(pos.base)


@settings(max_examples=300)
@given(position_pairs())
def test_position_products_match_validating_constructor(pair):
    # the reference rebuilds each result from its square alone:
    # (q * sqrt(base)^k)^2 = square, with k the parity of the exponents
    a, b = pair
    base = a.base
    for result, k, square in ((a * b, a.k + b.k, a.squared() * b.squared()),
                              (a / b, a.k - b.k, a.squared() / b.squared())):
        k %= 2
        q_squared = square / base ** k
        q = F(math.isqrt(q_squared.numerator), math.isqrt(q_squared.denominator))
        assert q * q == q_squared
        expected = Position(q, k, base)
        assert _fields(result) == _fields(expected)
        assert result == expected and hash(result) == hash(expected)


def test_position_validation():
    with pytest.raises(MeasureError):
        Position(F(0), 0, F(1))
    with pytest.raises(MeasureError):
        Position(F(1), 2, F(1))
    with pytest.raises(IncompatibleBasesError):
        Position(F(1), 1, F(2)) * Position(F(1), 1, F(3))


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_convolve_identity_element():
    mu = make_measure([(2, F(1, 3)), (3, F(2, 3))])
    assert convolve(make_measure([(1, 1)]), mu).atoms == mu.atoms


def test_convolve_three_atom_root_squares_to_six_atoms():
    nu = make_measure([(1, F(1, 2)), (3, F(1, 3)), (6, F(1, 6))])
    expected = make_measure([
        (1, F(1, 4)), (3, F(1, 3)), (6, F(1, 6)),
        (9, F(1, 9)), (18, F(1, 9)), (36, F(1, 36))])
    assert convolve(nu, nu).atoms == expected.atoms


def test_convolve_two_atom_square():
    nu = make_measure([(1, F(1, 2)), (2, F(1, 2))])
    expected = make_measure([(1, F(1, 4)), (2, F(1, 2)), (4, F(1, 4))])
    assert convolve(nu, nu).atoms == expected.atoms


def test_convolve_merges_coinciding_products():
    mu = make_measure([(1, F(1, 2)), (2, F(1, 4)), (4, F(1, 4))])
    square = convolve(mu, mu)
    # 4 arises from 1*4 and 2*2
    assert dict(square.atoms)[Position.of(F(4))] == 2 * F(1, 2) * F(1, 4) + F(1, 16)


def test_convolve_incompatible_radical_bases():
    mu = make_measure([(Position(F(1), 1, F(2)), 1)])
    nu = make_measure([(Position(F(1), 1, F(3)), 1)])
    with pytest.raises(IncompatibleBasesError):
        convolve(mu, nu)


def test_convolve_rebase_when_one_side_rational():
    mu = make_measure([(Position(F(1), 1, F(2)), 1)])   # sqrt(2)
    nu = make_measure([(2, F(1, 2))])
    out = convolve(mu, nu)
    assert out.support[0] == Position(F(2), 1, F(2))


# ---------------------------------------------------------------------------
# int keys against plain Position products
# ---------------------------------------------------------------------------

_RADICAL_BASES = (F(2), F(3), F(5, 2), F(6))


# masses with large, mostly coprime denominators: their lcm is large
_wide_weights = st.one_of(_weights, st.builds(
    F, st.integers(1, 10 ** 15), st.integers(10 ** 6, 10 ** 12)))


@st.composite
def keyed_measures(draw, base, radical, max_atoms=6, weights=_weights):
    """Up to ``max_atoms`` atoms q*sqrt(base)^k, k = 1 allowed when
    ``radical``, with rational or real masses."""
    p = draw(st.integers(1, max_atoms))
    atoms = {}
    for _ in range(p):
        pos = Position(draw(st.sampled_from(_POSITION_POOL)),
                       draw(st.integers(0, 1)) if radical else 0, base)
        atoms.setdefault(pos.squared(), (pos, draw(weights)))
    mu = make_measure(list(atoms.values()), base=base)
    return mu.to_real(draw(st.sampled_from((64, 128)))) if draw(st.booleans()) else mu


@st.composite
def keyed_pairs(draw):
    """Two measures over one radical base, or a rational measure over one
    base with a radical one over another (joined by _common_base)."""
    base = draw(st.sampled_from(_RADICAL_BASES))

    def measure(over, radical):
        return draw(keyed_measures(over, radical, 12, _wide_weights))

    if draw(st.booleans()):
        return measure(base, True), measure(base, True)
    other = draw(st.sampled_from((F(1), F(7))))
    pair = [measure(other, False), measure(base, True)]
    return tuple(pair) if draw(st.booleans()) else tuple(reversed(pair))


def _position_convolve(mu, nu, bits=128):
    """Reference: merge masses on Position products, pair by pair; a real
    mass is the exact sum of the products of the converted masses, rounded
    once to nearest at ``bits``."""
    base = _common_base(mu, nu)
    mode = REAL if REAL in (mu.mode, nu.mode) else RATIONAL
    def atoms(measure):
        if mode == RATIONAL:
            return measure.atoms
        return [(pos, mpf_to_fraction(to_mpf(w, bits)))
                for pos, w in measure.atoms]

    merged = {}
    for px, wx in atoms(mu):
        for py, wy in atoms(nu):
            key = px.rebase(base) * py.rebase(base)
            merged[key] = merged[key] + wx * wy if key in merged else wx * wy
    if mode == REAL:
        # make_mpf keeps the raw value; mpf(...) would round it at 53 bits
        merged = {key: mpmath.mp.make_mpf(from_rational(
            w.numerator, w.denominator, bits, round_nearest))
            for key, w in merged.items()}
    return sorted(merged.items(), key=lambda item: item[0].squared())


@settings(max_examples=150)
@given(keyed_pairs())
def test_int_keyed_convolve_matches_position_products(pair):
    mu, nu = pair
    out = convolve(mu, nu)
    expected = _position_convolve(mu, nu)
    assert [pos for pos, _ in out.atoms] == [pos for pos, _ in expected]
    assert all(pos.base == out.base for pos in out.support)
    assert [type(w) for _, w in out.atoms] == [type(w) for _, w in expected]
    if out.mode == REAL:
        # bit for bit the exact sum rounded once at 128 bits
        assert [w._mpf_ for _, w in out.atoms] == [w._mpf_ for _, w in expected]
    else:
        assert [w for _, w in out.atoms] == [w for _, w in expected]


def _random_factor(rng, base, top_den):
    """2..8 atoms q*sqrt(base)^k, k mixed, q of denominator up to
    ``top_den``, with rational masses."""
    atoms = {}
    for _ in range(rng.randint(2, 8)):
        pos = Position(F(rng.randint(1, 30), rng.randint(1, top_den)),
                       rng.randint(0, 1), base)
        atoms[pos.squared()] = (pos, F(rng.randint(1, 20), rng.randint(1, 9)))
    return make_measure(list(atoms.values()), base=base)


def test_convolve_on_distinct_supports_matches_dict_products():
    # convolve puts both factors on the union of their supports, with mass
    # 0 off their own; the reference multiplies plain Fraction dicts keyed
    # by squared position, as the benchmark oracle keys measures
    rng = random.Random(33)
    for base in (F(1), F(2), F(5, 2)):
        for _ in range(40):
            mu = _random_factor(rng, base, 2)
            nu = _random_factor(rng, base, 7)
            expected = {}
            for x, a in mu.atoms:
                for y, b in nu.atoms:
                    key = x.squared() * y.squared()
                    expected[key] = expected.get(key, 0) + a * b
            for out in (convolve(mu, nu), convolve(nu, mu)):
                assert [(pos.squared(), w) for pos, w in out.atoms] == \
                    sorted(expected.items())
            real_mu, real_nu = mu.to_real(24), nu.to_real(24)
            assert dumps_measure(convolve(real_mu, real_nu, 24)) == \
                dumps_measure(convolve(real_nu, real_mu, 24))


@settings(max_examples=150)
@given(keyed_pairs())
def test_product_table_matches_its_measure(pair):
    # the table of a square that the witness check reads holds the int
    # keys, positions and masses of the measure convolve builds
    for mu in pair:
        table = square_products(mu)
        out = convolve(mu, mu)
        assert table.keys == int_keys(out.support)
        assert [_key_position(key, table.scale, table.base)
                for key in table.keys] == \
            list(out.support)
        assert [table.weight(j) for j in range(table.p)] == list(out.weights)
        if out.mode == RATIONAL:
            assert [F(n, table.den) for n in table.masses] == \
                list(out.weights)
            assert table.radius == 0
        else:
            # the rounded sums, held exactly as ints over one power of two,
            # with a radius that covers the roundings
            assert table.den & (table.den - 1) == 0
            assert [F(n, table.den) for n in table.masses] == \
                [mpf_to_fraction(w) for w in out.weights]
            assert 0 < table.radius < F(1, 2 ** 50)


@settings(max_examples=150)
@given(keyed_pairs())
def test_key_text_is_the_text_of_the_keyed_position(pair):
    # certificates quote positions off int keys and values off int pairs
    # (scalar_str of int parts) as scalar_str quotes the position and the
    # Fraction: on the keys of rational and radical supports and of their
    # squares
    for mu in pair:
        for keyed in (table(mu), square_products(mu)):
            scale, base = keyed.scale, keyed.base
            for key in keyed.keys:
                assert _key_position(key, scale, base).squared() == \
                    F(key, scale)
                assert scalar_str(*_key_parts(key, scale, base)) == \
                    scalar_str(_key_position(key, scale, base))
                assert scalar_str(key, scale) == scalar_str(F(key, scale))
                assert scalar_str(-key, 3 * scale) == \
                    scalar_str(F(-key, 3 * scale))


def test_key_text_of_a_value_beyond_the_digit_limit():
    # a value with more digits than the interpreter prints is quoted by its
    # size, as scalar_str quotes it, for a rational and a radical position
    # and for a ratio
    big = 10 ** (sys.get_int_max_str_digits() + 1)
    for key, scale, base in ((big * big, 3 * 3, F(1)), (4, big * big, F(1)),
                             (2 * big * big, 1, F(2))):
        text = scalar_str(*_key_parts(key, scale, base))
        assert text == scalar_str(_key_position(key, scale, base))
        assert text.startswith("(a number of more than")
    assert scalar_str(big, 7) == scalar_str(F(big, 7)) == \
        scalar_str(7, big)


def test_t_products_refuses_a_radical_rational_position():
    # mu * t(mu) is convolve(mu, t_weight(mu)); t_weight refuses what the
    # product cannot hold
    mu = make_measure([(Position(F(1), 1, F(2)), F(1, 2)), (2, F(1, 2))],
                      base=F(2))
    with pytest.raises(MeasureError, match="t_weight at irrational position"):
        t_weight(mu)


@pytest.mark.parametrize("bits", [None, 128])
def test_t_products_refuses_mass_at_the_origin(bits):
    mu = make_measure([(0, F(1, 4)), (1, F(1, 4)), (2, F(1, 2))])
    if bits:
        mu = mu.to_real(bits)
    with pytest.raises(ZeroAtomError, match="t_weight requires a measure "
                       "without mass at the origin"):
        t_weight(mu)


@settings(max_examples=150)
@given(st.sampled_from(_RADICAL_BASES + (F(1),)).flatmap(
    lambda base: keyed_measures(base, True)))
def test_int_keyed_diagram_matches_position_products(mu):
    points = mu.support
    grouped = {}
    for i in range(mu.p):
        for j in range(i, mu.p):
            grouped.setdefault(points[i] * points[j], []).append((i, j))
    expected = sorted(grouped.items(), key=lambda item: item[0].squared())
    diagram = pair_diagram(mu)
    assert [(diagram.product(*e.pairs[0]), list(e.pairs))
            for e in diagram.entries] == expected
    keys = int_keys(points)
    assert all(isinstance(k, int) for k in keys) and keys == sorted(set(keys))
    squares = [pos.squared() for pos in points]
    scale = lcm(*(s.denominator for s in squares))
    assert keys == [s.numerator * (scale // s.denominator) for s in squares]


@settings(max_examples=60)
@given(measures(max_atoms=3), measures(max_atoms=3))
def test_convolve_commutative_and_mass_multiplicative(mu, nu):
    left = convolve(mu, nu)
    right = convolve(nu, mu)
    assert left.atoms == right.atoms
    assert left.total_mass() == mu.total_mass() * nu.total_mass()


def test_real_convolve_commutative_bit_for_bit():
    # each mass is an exact sum rounded once, so the order of the pairs
    # cannot change it
    rng = random.Random(15)
    for _ in range(60):
        mu, nu = (make_measure(
            [(2 ** k, F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)))
             for k in rng.sample(range(12), rng.randint(3, 7))]).to_real(64)
            for _ in range(2))
        left, right = convolve(mu, nu, 64), convolve(nu, mu, 64)
        assert left.support == right.support
        assert [w._mpf_ for w in left.weights] == \
            [w._mpf_ for w in right.weights]


def test_real_total_mass_is_exact():
    mu = make_measure([(1, 1), (2, F(1, 2 ** 600))], mode=REAL)
    assert mpf_to_fraction(mu.total_mass()) == 1 + F(1, 2 ** 600)


@settings(max_examples=25)
@given(measures(max_atoms=4), measures(max_atoms=4), measures(max_atoms=4))
def test_convolve_associative(mu, nu, rho):
    assert convolve(convolve(mu, nu), rho).atoms == \
        convolve(mu, convolve(nu, rho)).atoms


@settings(max_examples=40)
@given(measures(max_atoms=3), measures(max_atoms=3),
       st.sampled_from([F(1, 2), F(2), F(3, 4), F(5)]))
def test_convolve_scale_compatibility(mu, nu, x):
    scaled = convolve(scale_positions(mu, x), nu)
    assert scaled.atoms == scale_positions(convolve(mu, nu), x).atoms


@settings(max_examples=40)
@given(measures(max_atoms=3), measures(max_atoms=3), st.integers(1, 3))
def test_convolve_power_compatibility(mu, nu, k):
    powered = convolve(power_positions(mu, k), power_positions(nu, k))
    assert powered.atoms == power_positions(convolve(mu, nu), k).atoms


@settings(max_examples=40)
@given(measures(max_atoms=3), measures(max_atoms=3), st.integers(0, 6))
def test_moment_homomorphism(mu, nu, n):
    assert moments(convolve(mu, nu), n + 1)[n] == \
        moments(mu, n + 1)[n] * moments(nu, n + 1)[n]


# ---------------------------------------------------------------------------
# reweighting and moments
# ---------------------------------------------------------------------------

def test_t_weight_doubles_mass_at_two():
    out = t_weight(make_measure([(1, F(1, 2)), (2, F(1, 2))]))
    assert out.weights == (F(1, 2), F(1))


def test_t_weight_fixes_unit_position():
    assert t_weight(make_measure([(1, 1)])).atoms == \
        make_measure([(1, 1)]).atoms


@settings(max_examples=40)
@given(measures())
def test_t_weight_total_mass_is_first_moment(mu):
    assert t_weight(mu).total_mass() == moments(mu, 2)[1]


@settings(max_examples=40)
@given(measures(), st.integers(0, 5))
def test_t_weight_shifts_moments(mu, n):
    assert moments(t_weight(mu), n + 1)[n] == moments(mu, n + 2)[n + 1]


def test_t_weight_radical_position_requires_real_mode():
    mu = make_measure([(Position(F(1), 1, F(2)), 1)])
    with pytest.raises(MeasureError):
        t_weight(mu)
    out = t_weight(mu.to_real())
    with workprec(128):
        assert abs(out.weights[0] - mpmath.sqrt(2)) < mpf(2) ** -100
    # masses that round: bit for bit the mpf products at 128 bits
    mu = make_measure([(Position(F(q), 1, F(2)), w)
                       for q, w in ((1, F(1, 3)), (3, F(2, 7)), (5, F(5, 11)))],
                      mode="real")
    out = t_weight(mu)
    with workprec(128):
        expected = [w * from_raw(position_raw(pos, 128))
                    for pos, w in mu.atoms]
    assert [w._mpf_ for w in out.weights] == [w._mpf_ for w in expected]


def test_moment_values():
    mu = make_measure([(1, F(1, 2)), (2, F(1, 2))])
    assert moments(mu, 3)[2] == F(5, 2)
    assert moments(mu, 1)[0] == 1


def test_moment_of_sharp_five_atom_example(five_atom_real):
    # first moment is 33/8 + sqrt(2)
    with workprec(128):
        expected = mpf(33) / 8 + mpmath.sqrt(2)
        assert abs(moments(five_atom_real, 2)[1] - expected) < \
            mpf(2) ** -100


def test_moment_radical_positions_even_orders_exact():
    mu = make_measure([(Position(F(1), 1, F(2)), F(1, 2)),
                       (Position(F(2), 0, F(2)), F(1, 2))])
    assert moments(mu, 3)[2] == F(1, 2) * 2 + F(1, 2) * 4
    assert isinstance(moments(mu, 2)[1], mpf)


def _plain_power_sums(mu, count):
    """The rational part and the sqrt(base) coefficient of each moment
    g_0 .. g_{count-1}, by a plain loop over the moments and the atoms on
    Fractions."""
    out = []
    for n in range(count):
        parts = [F(0), F(0)]
        for pos, w in mu.atoms:
            parts[pos.k * n % 2] += w * pos.q ** n * pos.base ** (pos.k * n // 2)
        out.append(tuple(parts))
    return out


def _as_parts(a_n, b_n, den, s, base):
    """(a + b sqrt(s)) / den as the rational part and the coefficient of
    sqrt(base) = sqrt(s) / base.denominator."""
    return [(F(a, den), F(b * base.denominator, den))
            for a, b in zip(a_n, b_n)]


# the most power_sums may hold at once on `gen --p 200` to 102 moments: the
# sums themselves take about 0.3 MB there (moments of up to 40,215 bits),
# running totals of one atom at a time peaked at 0.6 MB and a loop over the
# moments at 1.4 MB, and the 200 x 102 powers held at once would take tens
# of MB
POWER_SUMS_PEAK_BYTES = 2_000_000


def test_power_sums_peak_memory_stays_bounded():
    """``power_sums`` on the 200-atom `gen --p 200 --seed 1` to 102 moments
    peaks below a fixed bound under tracemalloc and equals a plain loop."""
    import tracemalloc

    from alsq.generator import GeneratorSpec, generate

    mu = generate(GeneratorSpec(200, "arbitrary", 1)).measure
    tracemalloc.start()
    try:
        sums = power_sums(mu, 102)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < POWER_SUMS_PEAK_BYTES, peak
    assert _as_parts(*sums, mu.base) == _plain_power_sums(mu, 102)


def test_power_sums_match_a_plain_loop_at_mixed_positions():
    """Rational, radical and mixed supports, rational and real masses, and
    counts 0 to 23: the same sums as the plain loop (a real mass is the
    dyadic rational it holds)."""
    rng = random.Random(39)
    for case in range(24):
        ks = [(0, 1, case % 2 or i % 2)[case % 3] for i in range(1 + case % 6)]
        atoms = [(Position(F(rng.randint(1, 40), rng.randint(1, 9)), k, F(3, 2)),
                  F(rng.randint(1, 20), rng.randint(1, 7))) for k in ks]
        mu = make_measure(atoms, base=F(3, 2))
        for nu in (mu, mu.to_real(64)):
            exact = make_measure([(pos, mpf_to_fraction(w) if nu.mode == REAL
                                   else w) for pos, w in nu.atoms], base=nu.base)
            for count in (0, 1, 2, 23):
                assert _as_parts(*power_sums(nu, count), nu.base) == \
                    _plain_power_sums(exact, count), (atoms, count)


# ---------------------------------------------------------------------------
# rescaling, zero atom, normalization
# ---------------------------------------------------------------------------

def test_scale_positions_examples():
    mu = make_measure([(2, F(1, 2)), (4, F(1, 2))])
    assert scale_positions(mu, F(1, 2)).support == \
        make_measure([(1, 1), (2, 1)]).support
    assert scale_positions(mu, 1).atoms == mu.atoms
    with pytest.raises(MeasureError):
        scale_positions(mu, 0)


def test_power_positions_examples():
    mu = make_measure([(1, F(1, 2)), (2, F(1, 2))])
    assert power_positions(mu, 2).support == \
        make_measure([(1, 1), (4, 1)]).support
    with pytest.raises(MeasureError):
        power_positions(mu, 0)


def test_strip_zero_atom():
    mu = make_measure([(0, F(1, 2)), (1, F(1, 2))])
    mass, rest = strip_zero_atom(mu)
    assert mass == F(1, 2)
    assert rest.atoms == ((Position.of(F(1)), F(1, 2)),)
    assert not rest.has_zero_atom()


def test_strip_zero_atom_without_zero_is_identity():
    mu = make_measure([(1, F(1, 2)), (2, F(1, 2))])
    mass, rest = strip_zero_atom(mu)
    assert mass == 0 and rest is mu


def test_measure_cannot_live_at_origin_alone():
    with pytest.raises(MeasureError):
        make_measure([(0, F(1))])


def test_zero_atom_blocks_other_operations():
    mu = make_measure([(0, F(1, 2)), (1, F(1, 2))])
    for op in (lambda m: convolve(m, m), t_weight,
               lambda m: moments(m, 2), lambda m: scale_positions(m, 2),
               lambda m: power_positions(m, 2)):
        with pytest.raises(ZeroAtomError):
            op(mu)


_ROOT2, _ROOT3 = Position(F(1), 1, F(2)), Position(F(1), 1, F(3))


@pytest.mark.parametrize("call, error, message", [
    (lambda: make_measure([(1, 0)]), MeasureError,
     "weight at 1 must be positive, got 0"),
    (lambda: make_measure([(1, -1)]), MeasureError,
     "weight at 1 must be positive, got -1"),
    (lambda: make_measure([(1, 1)], mode="x"), MeasureError,
     "unknown scalar mode 'x'"),
    (lambda: make_measure([(0, -1), (1, 1)]), MeasureError,
     "mass at the origin must be positive"),
    (lambda: make_measure([(1, mpf(1))]), MeasureError,
     "rational mode cannot hold floating weights"),
    (lambda: _ROOT2.rebase(F(3)), IncompatibleBasesError,
     r"cannot move radical position sqrt\(2\) to base 3"),
    (lambda: _ROOT2 / _ROOT3, IncompatibleBasesError,
     "positions over different radical bases: 2 vs 3"),
    (lambda: _ROOT2.power(0), MeasureError,
     "positions admit positive integer powers only"),
    (lambda: _ROOT2.as_fraction(), MeasureError,
     r"sqrt\(2\) is irrational"),
    (lambda: strip_zero_atom(AtomicMeasure(F(1), RATIONAL, (), F(1))),
     MeasureError, "measure carries mass only at the origin"),
], ids=["weight-0", "weight-negative", "mode", "origin-negative",
        "floating-weight", "rebase", "quotient", "power-0", "as-fraction",
        "origin-only"])
def test_measure_api_errors_name_their_cause(call, error, message):
    # the loader checks documents before these, so the CLI never reaches them
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_make_measure_refuses_a_non_finite_real_weight(value):
    # inf and nan pass "<= 0"; refused here, the document and the digest of
    # analyze are never asked to print them
    weight = mpf(value)
    for atoms, zero in (([(1, weight)], 0), ([(1, 1)], weight),
                        ([(1, 1), (2, weight)], 0)):
        with pytest.raises(MeasureError,
                           match=f"a real weight must be finite, got "
                                 f"{re.escape(str(weight))}"):
            make_measure(atoms, mode=REAL, zero_mass=zero)


@pytest.mark.parametrize("mode", [RATIONAL, REAL])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")],
                         ids=["inf", "-inf", "nan"])
def test_make_measure_refuses_a_non_finite_float(mode, value):
    # Fraction raises OverflowError on +-inf and ValueError on nan
    weight = "a real weight" if mode == REAL else "a weight"
    for atoms, what in (([(1, value)], weight), ([(value, 1)], "a position"),
                        ([(1, 1), (2, value)], weight)):
        with pytest.raises(MeasureError, match=f"{what} must be finite, "
                                               f"got {value!r}"):
            make_measure(atoms, mode=mode)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")],
                         ids=["inf", "-inf", "nan"])
def test_a_non_finite_base_scale_or_position_is_named(value):
    # Fraction raised a bare OverflowError or ValueError from each
    mu = make_measure([(1, 1), (2, 1)])
    for call, what in ((lambda: make_measure([(1, 1)], base=value),
                        "a radical base"),
                       (lambda: scale_positions(mu, value), "a scale factor"),
                       (lambda: Position.of(value), "a position"),
                       (lambda: Position(value, 0, 1), "a position"),
                       (lambda: Position(1, 1, value), "a radical base"),
                       (lambda: Position(1, 0, value), "a radical base"),
                       (lambda: Position.of(1, base=value), "a radical base"),
                       (lambda: Position.of(2).scale(value),
                        "a scale factor")):
        with pytest.raises(MeasureError, match=f"{what} must be finite, "
                                               f"got {value!r}"):
            call()


@pytest.mark.parametrize("bits", [0, -1])
def test_a_precision_below_one_bit_is_refused(bits):
    # at 0 bits to_real rounded every mass to 0; each entry point checks once
    from alsq.solver import SolverConfig

    mu = make_measure([(1, F(1, 3)), (2, F(2, 3))])
    for call in (lambda: SolverConfig(bits), lambda: mu.to_real(bits),
                 lambda: mu.to_real(128).to_real(bits),
                 lambda: convolve(mu, mu, bits)):
        with pytest.raises(MeasureError, match=(
                f"precision must be at least 1 bit, got {bits}")):
            call()


@pytest.mark.parametrize("tolerance, message", [
    (float("nan"), "a tolerance must be finite, got nan"),
    (float("inf"), "a tolerance must be finite, got inf"),
    (F(-1), "a tolerance must be nonnegative, got -1"),
], ids=["nan", "inf", "negative"])
def test_a_non_finite_or_negative_tolerance_is_refused(tolerance, message):
    # the CLI's --tol refuses these; the library raised a bare ValueError or
    # OverflowError, or took a negative tolerance as 2^(1 - precision)
    from alsq.solver import SolverConfig

    with pytest.raises(MeasureError, match=message):
        SolverConfig(128, tolerance)


def test_position_order_and_origin_mass_print():
    assert Position.of(1) <= Position.of(2)
    assert not Position.of(2) <= Position.of(1)
    assert str(make_measure([(0, F(1, 2)), (1, 1)])) == "1/2*d(0) + 1*d(1)"


def test_normalize_examples():
    assert normalize(make_measure([(1, 2)])).weights == (F(1),)
    mu = normalize(make_measure([(1, 1), (2, 1)]))
    assert mu.weights == (F(1, 2), F(1, 2))


@settings(max_examples=40)
@given(measures())
def test_normalize_idempotent(mu):
    once = normalize(mu)
    assert normalize(once).atoms == once.atoms
    assert once.total_mass() == 1


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def test_json_round_trip_is_byte_stable():
    mu = make_measure([(F(3, 2), F(1, 3)), (2, F(2, 3)),
                       (Position(F(1), 1, F(2)), F(1, 7))], base=F(2))
    text = dumps_measure(mu)
    again = dumps_measure(loads_measure(text))
    assert text == again


@settings(max_examples=60)
@given(measures())
def test_json_round_trip_random(mu):
    text = dumps_measure(mu)
    assert dumps_measure(loads_measure(text)) == text


def test_json_round_trip_hundred_generated():
    from alsq.generator import GeneratorSpec, generate

    for seed in range(100):
        mu = generate(GeneratorSpec(1 + seed % 6, "arbitrary", 70_000 + seed,
                                    position_style="random")).measure
        if seed % 3 == 0:
            mu = mu.to_real()
        text = dumps_measure(mu)
        assert dumps_measure(loads_measure(text)) == text


def test_json_round_trip_real_mode(five_atom_real):
    text = dumps_measure(five_atom_real)
    again = loads_measure(text)
    assert dumps_measure(again) == text
    assert again.mode == "real"


def _dumps_cases():
    from alsq.generator import MODES, GeneratorSpec, generate

    cases = []
    for seed in range(60):  # seeded corpora, every mode and style
        spec = GeneratorSpec((3, 5, 6)[seed % 3], MODES[seed % 4],
                             90_000 + seed,
                             position_style=("geometric", "random")[seed % 2])
        cases.append(generate(spec).measure)
    zero = make_measure([(0, F(1, 5)), (2, F(2, 5)), (3, F(2, 5))])
    radical = make_measure([(F(3, 2), F(1, 3)), (2, F(2, 3)),
                            (Position(F(1), 1, F(2)), F(1, 7)),
                            (Position(F(5, 3), 1, F(2)), F(4))], base=F(2))
    cases += [
        zero, radical,
        zero.to_real(), radical.to_real(53), cases[0].to_real(128),
        make_measure([(1, "1/3"), (2, "2/3")], mode=REAL, bits=64),
        generate(GeneratorSpec(400, "arbitrary", 1)).measure,
        make_measure([(F(1, 7), 1)], base=F(3, 5)),
        # no atom on (0, inf): an empty list
        AtomicMeasure(F(1), RATIONAL, ()),
        AtomicMeasure(F(1), RATIONAL, (), F(1, 2)),
    ]
    return cases


def test_dumps_measure_is_the_indented_json_document():
    for mu in _dumps_cases():
        assert dumps_measure(mu) == \
            json.dumps(measure_to_json_dict(mu), indent=2) + "\n"


def test_positions_store_pos_k_as_an_int():
    # a bool or float exponent is accepted, and JSON prints it as 0 or 1
    for k in (True, 1.0):
        pos = Position(F(3), k, F(2))
        assert type(pos.k) is int and pos == Position(F(3), 1, F(2))
    mu = make_measure([(Position(F(3), True, F(2)), 1)], base=F(2))
    assert '"pos_k": 1,' in dumps_measure(mu)
    assert loads_measure(dumps_measure(mu)) == mu


def test_loader_checks_positions_as_position_does():
    def document(base, q, k):
        return json.dumps({"radical_base": base, "mode": "rational",
                           "atoms": [{"pos_q": q, "pos_k": k, "weight": "1"},
                                     {"pos_q": "1", "pos_k": 0,
                                      "weight": "1"}]})

    for base, q, k in (("0", "2", 0), ("-2", "2", 1), ("2", "-3", 1),
                       ("2", "3", 2), ("2", "3", -1)):
        with pytest.raises(MeasureError) as caught:
            Position(parse_rational(q), k, parse_rational(base))
        with pytest.raises(MeasureError) as loaded:
            loads_measure(document(base, q, k))
        assert str(loaded.value) == f"atom 0: {caught.value}"
    # a radical over a square base is rational, as Position makes it
    mu = loads_measure(document("9/4", "2", 1))
    assert mu.support == (Position(F(1), 0, F(9, 4)),
                          Position(F(2), 1, F(9, 4)))
    assert mu.support[1].k == 0 and mu.support[1].q == 3
    assert loads_measure(document("2", "3", 1)).support[1] == \
        Position(F(3), 1, F(2))


def test_json_unsorted_atoms_are_sorted():
    text = '''{"radical_base": "1", "mode": "rational",
               "atoms": [{"pos_q": "4", "pos_k": 0, "weight": "1/2"},
                         {"pos_q": "2", "pos_k": 0, "weight": "1/2"}]}'''
    mu = loads_measure(text)
    assert [pos.q for pos in mu.support] == [2, 4]


def test_json_zero_weight_rejected_with_atom_index():
    text = '''{"radical_base": "1", "mode": "rational",
               "atoms": [{"pos_q": "1", "pos_k": 0, "weight": "1/2"},
                         {"pos_q": "2", "pos_k": 0, "weight": "0"}]}'''
    with pytest.raises(MeasureError, match="atom 1"):
        loads_measure(text)


def test_json_validation_errors():
    bad = [
        '{"radical_base": "1", "mode": "rational", "atoms": [{"pos_q": "x", "pos_k": 0, "weight": "1"}]}',
        '{"radical_base": "1", "mode": "odd", "atoms": []}',
        '{"radical_base": "0", "mode": "rational", "atoms": [{"pos_q": "1", "pos_k": 0, "weight": "1"}]}',
        '{"radical_base": "1", "mode": "rational", "atoms": [{"pos_q": "2", "pos_k": 0, "weight": "1"}, {"pos_q": "2", "pos_k": 0, "weight": "1"}]}',
        '{"radical_base": "1", "mode": "rational", "atoms": [{"pos_q": "0", "pos_k": 1, "weight": "1"}]}',
        'not json',
    ]
    for text in bad:
        with pytest.raises(MeasureError):
            loads_measure(text)


@pytest.mark.parametrize("pos_k", ["1.7", "0.2", "true", "false", "1.0",
                                   '"1"', "null"])
def test_json_non_integer_pos_k_rejected_with_atom_index(pos_k):
    # a JSON integer only: int() would truncate 1.7 to a radical and 0.2 to
    # a rational position
    text = ('{"radical_base": "2", "mode": "rational", "atoms": ['
            '{"pos_q": "1", "pos_k": 0, "weight": "1/2"}, '
            f'{{"pos_q": "3", "pos_k": {pos_k}, "weight": "1/2"}}]}}')
    with pytest.raises(MeasureError, match="atom 1: pos_k"):
        loads_measure(text)


def test_json_positions_bounded_so_products_print():
    # the square of every position fits the digit limit, so every product
    # of two positions prints; at 1e4000 a product has 8001 digits
    half = sys.get_int_max_str_digits() // 2

    def document(q, k=0, base="1"):
        return json.dumps({"radical_base": base, "mode": "rational",
                           "atoms": [{"pos_q": q, "pos_k": k, "weight": "1"},
                                     {"pos_q": "1", "pos_k": 0,
                                      "weight": "1"}]})

    for q in ("1e4000", "1/" + "3" * (half + 1), "9" * (half + 1)):
        with pytest.raises(MeasureError, match="atom 0: the square"):
            loads_measure(document(q))
    mu = loads_measure(document("9" * half))
    assert str(mu.support[-1] * mu.support[-1]) == \
        str((10 ** half - 1) ** 2)
    # a radical position is bounded on q^2 * base
    with pytest.raises(MeasureError, match="atom 0: the square"):
        loads_measure(document("9" * half, 1, "11"))
    assert loads_measure(document("9" * (half - 1), 1, "11")).support[1].k


def test_real_mode_accepts_decimal_and_rational_weights():
    text = '''{"radical_base": "1", "mode": "real",
               "atoms": [{"pos_q": "1", "pos_k": 0, "weight": "0.25"},
                         {"pos_q": "2", "pos_k": 0, "weight": "3/4"}]}'''
    mu = loads_measure(text)
    assert mu.mode == "real"
    assert mu.total_mass() == 1


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "0x10"])
def test_real_mode_nonfinite_or_malformed_weight_rejected(weight, tmp_path,
                                                          capsys):
    from alsq.cli import main

    text = json.dumps({"radical_base": "1", "mode": "real", "atoms": [
        {"pos_q": "1", "pos_k": 0, "weight": "1/4"},
        {"pos_q": "2", "pos_k": 0, "weight": weight},
        {"pos_q": "4", "pos_k": 0, "weight": "1/4"}]})
    with pytest.raises(MeasureError, match="atom 1"):
        loads_measure(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["aluthge", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: atom 1") and "Traceback" not in err


def test_real_mode_tiny_weight_is_accepted():
    # a real mass stands for the values within relative eps of it, whatever
    # its size, so a weight far below eps is a valid mass
    text = '''{"radical_base": "1", "mode": "real",
               "atoms": [{"pos_q": "1", "pos_k": 0, "weight": "1e-30"},
                         {"pos_q": "2", "pos_k": 0, "weight": "1/2"}]}'''
    mu = loads_measure(text)
    assert mu.p == 2 and 0 < mu.weights[0] < mpf("1e-29")


# ---------------------------------------------------------------------------
# hostile documents
# ---------------------------------------------------------------------------

_LIMIT = sys.get_int_max_str_digits()

_number_strings = st.one_of(
    st.fractions(min_value=F(1, 10 ** 6), max_value=F(10 ** 6),
                 max_denominator=10 ** 6).map(str),
    st.builds("{}e{}{}".format, st.integers(1, 99),
              st.sampled_from(["", "-", "+"]),
              st.one_of(st.integers(0, 2 * _LIMIT), st.integers(0, 10 ** 9))),
    st.builds(lambda digit, n: digit * n, st.sampled_from("0123456789"),
              st.integers(1, 2 * _LIMIT)),
    st.builds("{}.{}".format, st.integers(0, 99),
              st.builds(lambda n: "3" * n, st.integers(1, 2 * _LIMIT))),
    st.builds("{}/{}".format, st.integers(-5, 10 ** 6),
              st.integers(-5, 10 ** 6)),
    st.sampled_from(["nan", "inf", "-inf", "NaN", "0x10", "", " ", "-1",
                     "0", "-0", "1e", "e5", "--1", "1.5.2", "1_", "١٢"]),
    st.text(max_size=12),
)

# one field as JSON text: a string, or a value of another JSON type (an
# int literal may exceed the digit limit, a float literal overflow)
_json_fields = st.one_of(
    _number_strings.map(json.dumps),
    st.sampled_from(["true", "false", "null", "[]", "{}", "[1]", "1e400",
                     "-1e400", "1e-400", "0.5", "-2", "1" * (_LIMIT + 1)]),
    st.integers(-3, 10 ** 30).map(str),
    st.floats().map(json.dumps),
)


@st.composite
def _hostile_documents(draw):
    """A document whose fields are mostly usual, large but valid values,
    each replaced by a hostile one with probability 1/8."""
    def field(*usual):
        if draw(st.integers(0, 7)) == 0:
            return draw(_json_fields)
        return json.dumps(draw(st.sampled_from(usual)))

    def pos_k():
        if draw(st.integers(0, 7)) == 0:
            return draw(st.sampled_from(["1.7", "0.2", "1.0", "true",
                                         "false", '"1"', "-0.0"]))
        return field(0, 1)

    atoms = [f'{{"pos_q": {field(str(q), f"{q}e2000", f"{q}e4000")}, '
             f'"pos_k": {pos_k()}, '
             f'"weight": {field("1/3", "0.25", "1e-50", "7e4000", "3" * 4000)}}}'
             for q in draw(st.lists(st.integers(0, 60), min_size=1, max_size=4))]
    atom_list = f"[{', '.join(atoms)}]"
    if draw(st.integers(0, 19)) == 0:
        atom_list = draw(_json_fields)
    return (f'{{"radical_base": {field("1", "2", "1e4000")}, '
            f'"mode": {field("rational", "real")}, "atoms": {atom_list}}}')


@settings(max_examples=300, deadline=2000)
@given(_hostile_documents(), st.sampled_from([64, 128]))
def test_loader_rejects_hostile_documents_cleanly(text, bits):
    """The loader returns a measure or raises its own errors, without a
    stall; every measure it accepts has JSON integer radical exponents and
    survives a JSON round trip."""
    try:
        mu = loads_measure(text, bits)
    except (MeasureError, ScalarError):
        return
    assert all(type(atom["pos_k"]) is int
               for atom in json.loads(text)["atoms"])
    assert loads_measure(dumps_measure(mu), bits) == mu


# ---------------------------------------------------------------------------
# loader output
# ---------------------------------------------------------------------------

def _loader_corpus():
    """Seeded (document, bits) pairs: generated documents of every mode,
    in order and shuffled, with atoms at the origin, at radical positions
    over square and non-square bases and in real mode, and a fixed draw of
    documents with hostile fields."""
    from alsq.generator import MODES, GeneratorSpec, generate

    rng = random.Random(35)
    half = _LIMIT // 2
    corpus = []

    def add(base, mode, atoms, shuffle=False):
        atoms = list(atoms)
        if shuffle:
            rng.shuffle(atoms)
        text = json.dumps({"radical_base": base, "mode": mode,
                           "atoms": atoms})
        corpus.extend((text, bits) for bits in (64, 128))

    def with_origin(atoms, weights):
        atoms = list(atoms)
        for weight in weights:
            atoms.insert(rng.randrange(len(atoms) + 1),
                         {"pos_q": "0", "pos_k": 0, "weight": weight})
        return atoms

    generated = []
    for seed in range(32):
        mode = MODES[seed % 4]
        p = rng.choice((3, 5, 6) if mode != "arbitrary" else (1, 2, 4, 7))
        mu = generate(GeneratorSpec(p, mode, 35_000 + seed, position_style=(
            "geometric", "random")[seed // 4 % 2])).measure
        doc = measure_to_json_dict(mu)
        generated.append(doc)
        add("1", "rational", doc["atoms"])
        add("1", "rational", doc["atoms"], shuffle=True)
        add("1", "real", doc["atoms"], shuffle=seed % 2)
        real = measure_to_json_dict(mu.to_real((64, 128)[seed % 2]))
        add("1", "real", real["atoms"], shuffle=True)
        origin = with_origin(doc["atoms"], ["1/7", "3/11"][:1 + seed % 2])
        add("1", ("rational", "real")[seed % 2], origin, shuffle=seed % 3 == 0)

    # radicals over square and non-square bases, mixed with rational atoms
    for index in range(48):
        base = ("2", "3/5", "7", "12", "9/4", "4", "1", "25/9")[index % 8]
        qs = rng.sample(range(1, 40), rng.randint(1, 6))
        atoms = [{"pos_q": f"{q}/{rng.choice((1, 2, 3, 5))}",
                  "pos_k": rng.randint(0, 1),
                  "weight": f"{rng.randint(1, 30)}/{rng.randint(1, 30)}"}
                 for q in qs]
        if index % 5 == 0:
            atoms = with_origin(atoms, ["2/9"])
        add(base, ("rational", "real")[index % 3 == 0], atoms,
            shuffle=index % 2)

    # hostile fields, one or two per document
    def hostile(atoms):
        at = rng.randrange(len(atoms))
        atom = atoms[at] = dict(atoms[at])
        kind = rng.randrange(10)
        if kind == 0:
            atom["weight"] = rng.choice(["0", "-1/3", "-0.5", "0/7"])
        elif kind == 1:
            atoms.insert(rng.randrange(len(atoms) + 1), dict(atom))
        elif kind == 2:  # the same position written another way
            q = parse_rational(atom["pos_q"])
            atoms.append({"pos_q": f"{q.numerator * 3}/{q.denominator * 3}",
                          "pos_k": atom["pos_k"], "weight": "1/2"})
        elif kind == 3:
            atom["pos_k"] = rng.choice([2, True, False, -1, 1.0])
        elif kind == 4:
            atom["pos_q"] = rng.choice(["9" * (half + 1),
                                        "1/" + "3" * (half + 1),
                                        f"{rng.randint(1, 9)}e{half}"])
        elif kind == 5:  # a radical whose q^2 * base exceeds the limit
            atom["pos_q"], atom["pos_k"] = "9" * half, 1
        elif kind == 6:
            atom["pos_q"], atom["pos_k"] = "0", rng.choice([0, 1])
        elif kind == 7:
            atom["pos_q"] = rng.choice(["-3", "-1/2"])
        elif kind == 8:
            atoms.insert(rng.randrange(len(atoms) + 1), {
                "pos_q": "0", "pos_k": 0,
                "weight": rng.choice(["0", "-2", "1/5"])})
        else:  # 2 sqrt(9/4) = 3
            atoms.append({"pos_q": "2", "pos_k": 1, "weight": "1"})
            atoms.append({"pos_q": "3", "pos_k": 0, "weight": "1"})
        return atoms

    for index in range(160):
        doc = generated[index % len(generated)]
        atoms = list(doc["atoms"])
        for _ in range(1 + index % 2):
            atoms = hostile(atoms)
        base = (("1", "11", "9/4", "2")[index % 4] if index % 16
                else ("0", "-2")[index // 16 % 2])
        add(base, ("rational", "real")[index % 3 == 0], atoms,
            shuffle=index % 4 == 1)
    # no atom on (0, inf)
    add("1", "rational", [{"pos_q": "0", "pos_k": 0, "weight": "1"}])
    add("1", "real", [])
    return corpus


def _loaded_text(text, bits):
    """The measure a document loads to, its keys (in hex: a key may pass
    the digit limit), its positions' fields and its raw masses; or the
    loader's error."""
    try:
        mu = loads_measure(text, bits)
    except (MeasureError, ScalarError) as exc:
        return f"{type(exc).__name__}: {exc}"
    keys, scale = mu._keys
    return repr((mu, [hex(key) for key in keys], hex(scale),
                 [(pos.q, pos.k, pos.base) for pos in mu.support],
                 [getattr(w, "_mpf_", w) for w in (mu.zero_mass,) + mu.weights]))


# SHA-256 of what test_loader_output_is_pinned loads
LOADER_DIGEST = \
    "6bdf17889e40ea8fb194db9b4c7f7c24bf5e3960cadcd9cb2b27d8d6622dd3e4"


def test_loader_output_is_pinned():
    """Every measure and every error of ``loads_measure`` on a seeded
    corpus (:func:`_loader_corpus`), byte for byte."""
    digest = hashlib.sha256()
    with workprec(53):
        for text, bits in _loader_corpus():
            digest.update(_loaded_text(text, bits).encode() + b"\n")
    assert digest.hexdigest() == LOADER_DIGEST
