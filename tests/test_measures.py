import json
import math
import random
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
    _FACTOR_ROUNDINGS,
    _common_base,
    _product_radius,
    convolve,
    dirac,
    dumps_measure,
    int_keys,
    loads_measure,
    make_measure,
    measure_to_json_dict,
    moment,
    normalize,
    power_positions,
    scale_positions,
    square_products,
    strip_zero_atom,
    t_products,
    t_weight,
    table,
)
from alsq.reals import mpf_to_fraction, to_mpf
from alsq.scalars import ScalarError, parse_rational

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
    assert convolve(dirac(1), mu).atoms == mu.atoms


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


@settings(max_examples=150)
@given(keyed_pairs())
def test_product_table_matches_its_measure(pair):
    # the table of a square that the witness check reads holds the int
    # keys, positions and masses of the measure convolve builds
    for mu in pair:
        table = square_products(mu)
        out = convolve(mu, mu)
        assert table.keys == int_keys(out.support)
        assert [table.position(j) for j in range(table.p)] == \
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
@given(st.sampled_from((F(1), F(7), F(5, 2))).flatmap(
    lambda base: keyed_measures(base, False, 12, _wide_weights)))
def test_t_products_is_the_table_of_mu_times_t_mu(mu):
    # the table holds the products, masses and positions of
    # convolve(mu, t_weight(mu)), and a real one the radius of a product of
    # masses within 2^-70
    eps = F(1, 2 ** 70)
    got = t_products(mu, 128, eps)
    expected = table(convolve(mu, t_weight(mu, 128), 128), 128)
    assert (got.base, got.mode, got.keys, got.scale) == \
        (expected.base, expected.mode, expected.keys, expected.scale)
    assert got.radius == (0 if mu.mode == RATIONAL else _product_radius(
        eps, 2 * _FACTOR_ROUNDINGS + 1, 128))
    assert [F(n, got.den) for n in got.masses] == \
        [F(n, expected.den) for n in expected.masses]
    if mu.mode == REAL:
        assert (got.masses, got.den) == (expected.masses, expected.den)
    assert [got.position(j) for j in range(got.p)] == \
        [expected.position(j) for j in range(expected.p)]


def test_t_products_refuses_a_radical_rational_position():
    mu = make_measure([(Position(F(1), 1, F(2)), F(1, 2)), (2, F(1, 2))],
                      base=F(2))
    with pytest.raises(MeasureError, match="t_weight at irrational position"):
        t_products(mu)


@pytest.mark.parametrize("bits", [None, 128])
def test_t_products_refuses_mass_at_the_origin(bits):
    mu = make_measure([(0, F(1, 4)), (1, F(1, 4)), (2, F(1, 2))])
    if bits:
        mu = mu.to_real(bits)
    with pytest.raises(ZeroAtomError, match="t_weight requires a measure "
                       "without mass at the origin"):
        t_products(mu)


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
    assert [(e.position, list(e.pairs)) for e in diagram.entries] == expected
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
    assert moment(convolve(mu, nu), n) == moment(mu, n) * moment(nu, n)


# ---------------------------------------------------------------------------
# reweighting and moments
# ---------------------------------------------------------------------------

def test_t_weight_doubles_mass_at_two():
    out = t_weight(make_measure([(1, F(1, 2)), (2, F(1, 2))]))
    assert out.weights == (F(1, 2), F(1))


def test_t_weight_fixes_unit_position():
    assert t_weight(dirac(1)).atoms == dirac(1).atoms


@settings(max_examples=40)
@given(measures())
def test_t_weight_total_mass_is_first_moment(mu):
    assert t_weight(mu).total_mass() == moment(mu, 1)


@settings(max_examples=40)
@given(measures(), st.integers(0, 5))
def test_t_weight_shifts_moments(mu, n):
    assert moment(t_weight(mu), n) == moment(mu, n + 1)


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
        expected = [w * pos.to_mpf(128) for pos, w in mu.atoms]
    assert [w._mpf_ for w in out.weights] == [w._mpf_ for w in expected]


def test_moment_values():
    mu = make_measure([(1, F(1, 2)), (2, F(1, 2))])
    assert moment(mu, 2) == F(5, 2)
    assert moment(mu, 0) == 1


def test_moment_of_sharp_five_atom_example(five_atom_real):
    # first moment is 33/8 + sqrt(2)
    with workprec(128):
        expected = mpf(33) / 8 + mpmath.sqrt(2)
        assert abs(moment(five_atom_real, 1) - expected) < mpf(2) ** -100


def test_moment_radical_positions_even_orders_exact():
    mu = make_measure([(Position(F(1), 1, F(2)), F(1, 2)),
                       (Position(F(2), 0, F(2)), F(1, 2))])
    assert moment(mu, 2) == F(1, 2) * 2 + F(1, 2) * 4
    assert isinstance(moment(mu, 1), mpf)


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
               lambda m: moment(m, 1), lambda m: scale_positions(m, 2),
               lambda m: power_positions(m, 2)):
        with pytest.raises(ZeroAtomError):
            op(mu)


def test_normalize_examples():
    assert normalize(dirac(1, 2)).weights == (F(1),)
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
