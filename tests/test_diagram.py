import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alsq import diagram as diagram_module
from alsq.diagram import (
    cardinality_check,
    geometric_profile,
    pair_diagram,
    render_diagram,
    structural_certificate,
    ur_summary,
)
from alsq.measures import (MeasureError, Position, convolve, make_measure,
                           scale_positions)
from alsq.solver import IMPOSSIBLE, aluthge_subnormal, sqrt_of

F = Fraction


def _entry_of_pair(diagram):
    """The entry of each index pair (i, j), in both orders, read off the
    diagram's entries."""
    return {pair: entry for entry in diagram.entries
            for i, j in entry.pairs for pair in ((i, j), (j, i))}


def _products(diagram):
    """The product of each entry, built from its first pair."""
    return [diagram.product(*e.pairs[0]) for e in diagram.entries]


def _support(values):
    return [Position(F(v), 0, F(1)) for v in values]


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------

def test_powers_of_two_give_nine_products():
    diagram = pair_diagram(_support([1, 2, 4, 8, 16]))
    assert diagram.card == 9
    assert [pos.q for pos in _products(diagram)] == [2 ** k for k in range(9)]


def test_six_atom_example_gives_fifteen_products(six_atom_exact):
    diagram = pair_diagram(six_atom_exact)
    assert diagram.card == 15
    assert [int(pos.q) for pos in _products(diagram)] == [
        1, 3, 6, 9, 18, 27, 36, 54, 81, 108, 162, 216, 324, 648, 1296]


def test_two_atom_diagram_complete():
    diagram = pair_diagram(_support([1, 2]))
    assert [(pos.q, e.pairs) for pos, e in
            zip(_products(diagram), diagram.entries)] == [
        (1, ((0, 0),)), (2, ((0, 1),)), (4, ((1, 1),))]


def test_every_pair_appears_exactly_once():
    diagram = pair_diagram(_support([1, 3, 6, 9, 18, 36]))
    seen = [pair for entry in diagram.entries for pair in entry.pairs]
    assert len(seen) == 21 and len(set(seen)) == 21


def test_duplicate_support_rejected():
    with pytest.raises(MeasureError):
        pair_diagram(_support([1, 1, 2]))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classification_powers_of_two():
    diagram = pair_diagram(_support([1, 2, 4, 8, 16]))
    ur = [diagram.product(*e.pairs[0]) for e in diagram.entries if e.is_ur]
    assert sorted(pos.q for pos in ur) == [1, 2, 128, 256]


def test_classification_six_atom_coincidences(six_atom_exact):
    entry_of = _entry_of_pair(pair_diagram(six_atom_exact))
    assert entry_of[1, 2].pairs == ((0, 4), (1, 2))  # value 18
    assert entry_of[2, 2].pairs == ((0, 5), (2, 2))  # value 36


def test_ur_summary_prints_shared_products_as_positions_do():
    # seeded supports from a small pool of c * r^a * sqrt(base)^b, so that
    # many products coincide: rational, radical (sqrt(base) itself too),
    # and k = 1 + 1 products
    rng = random.Random(35)
    texts = []
    for _ in range(200):
        base = rng.choice([F(2), F(3, 5), F(7, 3), F(1), F(9, 4)])
        c, r = rng.choice([F(1), F(2, 3), F(5, 2)]), rng.choice([F(2), F(3, 2)])
        pool = {Position(c * r ** a * base ** (b // 2), b % 2, base)
                for a in range(-2, 3) for b in range(-1, 3)}
        # a square base collapses the radicals: fewer distinct points
        points = rng.sample(sorted(pool, key=Position.squared),
                            min(len(pool), rng.randint(1, 7)))
        diagram = pair_diagram(sorted(points, key=Position.squared))
        shared = [e for e in diagram.entries if not e.is_ur]
        summary = ur_summary(diagram)
        assert summary["nur_products"] == [
            str(diagram.product(*e.pairs[0])) for e in shared]
        assert summary["nur_count"] == len(shared)
        assert summary["ur_count"] == diagram.card - len(shared)
        texts += summary["nur_products"]
    assert any(t.startswith("sqrt(") for t in texts)
    assert any("*sqrt(" in t and "/" in t.split("*")[0] for t in texts)
    assert any("/" in t and "sqrt" not in t for t in texts)
    assert any(t.isdecimal() for t in texts)


def test_two_atoms_all_unique():
    summary = ur_summary(pair_diagram(_support([1, 2])))
    assert summary["ur_count"] == 3 and not summary["nur_products"]


@settings(max_examples=50)
@given(st.lists(st.integers(1, 60), min_size=2, max_size=7, unique=True))
def test_corner_products_always_unique(values):
    support = _support(sorted(values))
    diagram = pair_diagram(support)
    entry_of, p = _entry_of_pair(diagram), diagram.p
    for pair in ((0, 0), (0, 1), (p - 2, p - 1), (p - 1, p - 1)):
        assert entry_of[pair].is_ur


@settings(max_examples=100)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=9, unique=True))
def test_pair_tables_match_entries(values):
    # the UR partner sets and coincide are read in both orders by the
    # rules; each must agree with the entry lists
    diagram = pair_diagram(_support(sorted(values)))
    p = diagram.p
    holder = {pair: entry for entry in diagram.entries
              for pair in entry.pairs}
    for i in range(p):
        for j in range(p):
            entry = holder[min(i, j), max(i, j)]
            assert (j in diagram.ur[i]) == (i in diagram.ur[j]) == \
                (len(entry.pairs) == 1)
            for k in range(p):
                for l in range(p):
                    assert diagram.coincide((i, j), (k, l)) == \
                        (holder[min(k, l), max(k, l)] is entry)


# ---------------------------------------------------------------------------
# geometric profile
# ---------------------------------------------------------------------------

def test_profile_examples(six_atom_exact):
    a, r = geometric_profile(_support([1, 3, 9, 27]))
    assert (a.q, r.q) == (1, 3)
    assert geometric_profile(six_atom_exact.support) is None
    a, r = geometric_profile(_support([1, 2, 4, 8, 16]))
    assert (a.q, r.q) == (1, 2)
    assert pair_diagram(_support([1, 2, 4, 8, 16])).card == 9


def test_profile_with_radical_ratio():
    # 1, sqrt(2), 2 is geometric with ratio sqrt(2)
    support = [Position(F(1), 0, F(2)), Position(F(1), 1, F(2)),
               Position(F(2), 0, F(2))]
    a, r = geometric_profile(support)
    assert r == Position(F(1), 1, F(2))


@settings(max_examples=200)
@given(st.sampled_from(("rational", "radical", "random")),
       st.fractions(min_value=F(6, 5), max_value=F(4), max_denominator=6),
       st.sampled_from((F(2), F(3), F(5, 3))),
       st.integers(1, 7), st.booleans(), st.integers(5, 40),
       st.lists(st.integers(1, 60), min_size=1, max_size=7, unique=True))
def test_profile_iff_minimal_product_count(style, ratio, base, p, perturb,
                                           denom, values):
    """geometric_profile's O(p) ratio test agrees with the counting criterion
    card = 2p - 1, on rational ratios, radical ratios q*sqrt(base) and random
    supports."""
    if style == "random":
        support = _support(sorted(values))
    else:
        step = Position(ratio, 1 if style == "radical" else 0, base)
        support = [Position(F(1), 0, base)] + [step.power(k)
                                               for k in range(1, p)]
        if perturb and p > 1:
            support[-1] = support[-1].scale(1 + F(1, denom))
    profile = geometric_profile(support)
    count = pair_diagram(support).card
    assert (profile is not None) == (count == 2 * len(support) - 1)
    if profile is not None:
        assert profile[0] == support[0]
        assert all(right == left * profile[1]
                   for left, right in zip(support, support[1:]))


def test_seven_atom_square_of_a_nonnegative_root_is_geometric():
    """mu = rho * rho for rho >= 0 on 4 atoms has 7 atoms exactly when
    supp(rho) is geometric, and then supp(mu) is a 7-term geometric
    progression.  supp(mu) = A*A for A = supp(rho), and |A*A| >= 2|A| - 1
    with equality iff A is geometric (Freiman's 2k - 1 theorem, in the
    torsion-free group (0, inf)).  A root of q atoms gives 2q - 1 to
    q(q + 1)/2 atoms, so q = 3 gives at most 6 and q >= 5 at least 9:
    every 7-atom square of a nonnegative root is one of these."""
    rng = random.Random(7)
    for geometric in (True, False) * 100:
        if geometric:
            first = F(rng.randint(1, 9), rng.randint(1, 4))
            top = rng.randint(2, 12)
            ratio = F(top, rng.randint(1, top - 1))
            points = [first * ratio ** k for k in range(4)]
        else:
            points = set()
            while len(points) < 4:
                points.add(F(rng.randint(1, 60), rng.randint(1, 4)))
            points = sorted(points)
        rho = make_measure([(x, F(rng.randint(1, 9), rng.randint(1, 9)))
                            for x in points])
        mu = convolve(rho, rho)
        if not geometric:  # no two of these products coincide
            assert mu.p == 10, points
            continue
        a, r = geometric_profile(mu)
        assert mu.p == 7
        assert (a.q, r.q) == (points[0] ** 2, points[1] / points[0])
        witness = sqrt_of(mu).witness
        assert [(pos.q, w) for pos, w in witness.atoms] == \
            [(pos.q, w) for pos, w in rho.atoms]


# ---------------------------------------------------------------------------
# cardinality bounds
# ---------------------------------------------------------------------------

def test_bounds_for_six_atoms(six_atom_exact):
    check = cardinality_check(six_atom_exact)
    assert check.bounds() == (11, 15) and check.ok


def test_bounds_attained_below(five_atom_real):
    check = cardinality_check(five_atom_real)
    assert check.card == 9 == check.lower


def test_bounds_for_four_atoms():
    check = cardinality_check(_support([1, 2, 4, 8]))
    assert check.bounds() == (7, 7) and check.ok
    loose = cardinality_check(_support([2, 3, 5, 7]))
    assert loose.card == 10 and not loose.ok


def test_cardinality_rule_fires_only_above_the_upper_bound():
    # the geometric support reaches the maximum 7 for four atoms and passes
    at_bound = structural_certificate(_support([1, 2, 4, 8]), exhaustive=True)
    assert "support-cardinality" not in [v.rule for v in at_bound]
    above = [v for v in structural_certificate(_support([1, 2, 3, 4]),
                                               exhaustive=True)
             if v.rule == "support-cardinality"]
    assert [(v.indices, v.message) for v in above] == [
        ((), "9 distinct pairwise products exceed the admissible maximum 7 "
             "for 4 atoms")]


# ---------------------------------------------------------------------------
# structural certificates
# ---------------------------------------------------------------------------

def test_unique_second_square_is_refuted():
    violation = structural_certificate(_support([1, 2, 3, 5, 7, 11]))
    assert violation is not None and violation.rule == "boundary-products"
    assert 2 in violation.indices


def test_six_atom_example_passes_all_rules(six_atom_exact):
    assert structural_certificate(six_atom_exact) is None


def test_three_atoms_need_middle_square_coincidence():
    assert structural_certificate(_support([1, 2, 4])) is None
    violation = structural_certificate(_support([1, 2, 5]))
    assert violation is not None and violation.rule == "boundary-products"


def test_two_atoms_always_refuted():
    violation = structural_certificate(_support([1, 2]))
    assert violation is not None and violation.rule == "ur-diagonals-edge"


def test_exhaustive_mode_returns_every_violation():
    violations = structural_certificate(_support([1, 2, 3, 5, 7, 11]),
                                        exhaustive=True)
    assert isinstance(violations, list) and len(violations) > 1
    rules = {v.rule for v in violations}
    assert "boundary-products" in rules


def test_certificates_ignore_weights_and_scaling():
    mu = make_measure([(1, F(1, 9)), (2, F(5, 9)), (5, F(3, 9))])
    direct = structural_certificate(mu)
    scaled = structural_certificate(scale_positions(mu, F(7, 3)))
    assert direct.rule == scaled.rule and direct.indices == scaled.indices


def test_wide_square_rule_for_six_atoms():
    # second atom squared equals product of first and fifth
    support = _support([1, 4, 6, 8, 16, 50])
    violation = structural_certificate(support)
    assert violation is not None


@pytest.mark.parametrize("support, rule, indices", [
    ((1, 2, 3, 4), "extreme-square-match", (2, 1, 4)),
    ((1, 2, 3, 9), "extreme-square-match", (3, 1, 4)),
    ((1, 2, 3, 4, 8), "double-extreme-match", (2, 4)),
    ((6, 24, 27, 32, 36, 54), "six-atom-wide-square", (5, 2, 6)),
    ((1, 4, 6, 8, 16, 50), "six-atom-wide-square", (2, 1, 5)),
    ((1, 4, 6, 16, 18, 54), "six-atom-crossed-squares", (2, 4, 3, 5)),
], ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else v)
def test_exhaustive_mode_lists_rules_the_first_rule_hides(support, rule,
                                                          indices):
    # an earlier rule refutes each of these first; the exhaustive list
    # still names the later one, and the generic solver refutes both
    # questions
    mu = make_measure([(x, 1) for x in support])
    assert structural_certificate(mu).rule != rule
    assert (rule, indices) in [(v.rule, v.indices) for v in
                               structural_certificate(mu, exhaustive=True)]
    assert sqrt_of(mu).outcome == aluthge_subnormal(mu).outcome == IMPOSSIBLE


def _brute_force_rectangles(diagram):
    """Every 4-subset, with its three four-cycles in turn."""
    out, entry_of = [], _entry_of_pair(diagram)
    for quad in combinations(range(diagram.p), 4):
        a, b, c, d = quad
        cycles = (((a, b), (b, c), (c, d), (d, a)),
                  ((a, b), (b, d), (d, c), (c, a)),
                  ((a, c), (c, b), (b, d), (d, a)))
        if any(all(entry_of[pair].is_ur for pair in cycle)
               for cycle in cycles):
            out.append(quad)
    return out


@settings(max_examples=150)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True),
       st.integers(1, 6))
def test_ur_rectangle_matches_brute_force(values, denom):
    # small integers over a few denominators make every UR density occur
    support = _support(sorted(F(v, denom) for v in values))
    diagram = pair_diagram(support)
    found = structural_certificate(diagram, exhaustive=True)
    rectangles = [v for v in found if v.rule == "ur-rectangle"]
    expected = _brute_force_rectangles(diagram)
    assert [tuple(i - 1 for i in v.indices) for v in rectangles] == expected
    for v, quad in zip(rectangles, expected):
        names = ", ".join(str(i + 1) for i in quad)
        assert v.message == (f"atoms {names} carry a four-cycle of uniquely "
                             "represented products, which is impossible")
    assert found == structural_certificate(support, exhaustive=True)


def test_first_rule_mode_stops_at_the_first_violation(monkeypatch):
    # boundary-products fires 5 times here, among 88 violations in all; the
    # first-rule mode builds the first of them and no other
    support = _support([1, 2, 3, 5, 7])
    everything = structural_certificate(support, exhaustive=True)
    assert len(everything) == 88
    assert [v.rule for v in everything].count("boundary-products") == 5
    built = []
    make = diagram_module._v

    def spy(*args):
        built.append(make(*args))
        return built[-1]

    monkeypatch.setattr(diagram_module, "_v", spy)
    assert structural_certificate(support) == everything[0]
    assert built == everything[:1]


def test_violation_json_shape():
    violation = structural_certificate(_support([1, 2, 5]))
    data = violation.to_json_dict()
    assert set(data) == {"rule", "indices", "message"}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_single_atom():
    text = render_diagram(_support([3]))
    assert "9" in text and "uniquely represented" in text


def test_render_marks_coincidences(six_atom_exact):
    text = render_diagram(six_atom_exact)
    assert "9*" in text and "(1,4) = (2,2)" in text


def test_render_three_atom_chain():
    # geometric three-atom support: five products, middle one doubly realized
    text = render_diagram(_support([1, 2, 4]))
    assert "4*" in text and "(1,3) = (2,2)" in text


def test_render_rejects_large_supports():
    with pytest.raises(MeasureError):
        render_diagram(_support(list(range(1, 15))))


def test_render_alignment_is_stable(six_atom_exact):
    lines = render_diagram(six_atom_exact).splitlines()
    rows = [l for l in lines if l.strip() and l.lstrip()[0].isdigit()]
    assert len({len(r) for r in rows if r.endswith("1296")}) <= 1


# ---------------------------------------------------------------------------
# pinned output
# ---------------------------------------------------------------------------

# SHA-256 of the diagram output over the supports below, taken while the
# diagram kept p x p tables of entry indices and UR flags: reading UR
# partner sets and key products instead must not move a certificate, a
# summary, a rendered table or a pair lookup
DIAGRAM_DIGEST = (
    "2006056c2dbc9ffea93a706105078d7fe4b264a012c0ba65c2aa2e2922c0d278")


def _pinned_supports():
    rng = random.Random(2929)
    supports = []
    for p in range(1, 13):
        for denom in (1, 2, 3):
            # small integers over a few denominators: dense coincidences
            for _ in range(6):
                values = rng.sample(range(1, 30), p)
                supports.append(_support(sorted(F(v, denom) for v in values)))
    supports.append(_support([F(3, 2) ** k for k in range(12)]))
    step = Position(F(3, 2), 1, F(2))
    radical = [Position(F(1), 0, F(2))] + [step.power(k) for k in range(1, 10)]
    supports.append(radical)
    supports.append(radical[:-1] + [radical[-1].scale(F(7, 6))])
    return supports


def _diagram_record(support):
    diagram = pair_diagram(support)
    first = structural_certificate(diagram)
    every = structural_certificate(diagram, exhaustive=True)
    entry_of = _entry_of_pair(diagram)
    cells = [(entry_of[i, j].pairs, str(diagram.product(i, j)))
             for i in range(diagram.p) for j in range(diagram.p)]
    return json.dumps([None if first is None else first.to_json_dict(),
                       [v.to_json_dict() for v in every],
                       ur_summary(diagram)]) + render_diagram(diagram) \
        + repr(cells) + "\n"


def test_diagram_output_is_pinned():
    digest = hashlib.sha256()
    for support in _pinned_supports():
        digest.update(_diagram_record(support).encode())
    assert digest.hexdigest() == DIAGRAM_DIGEST
