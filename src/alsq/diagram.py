"""Product diagrams of a support and the structural certificate rules.

For a support x_1 < ... < x_p the pairwise products x_i*x_j (i <= j) form a
triangular array.  A product value is *uniquely represented* (UR) when only
one unordered index pair realizes it.  If mu * t(mu), for a measure mu on
this support, is to have a nonnegative square root on any support, a
family of purely combinatorial conditions on the UR/non-UR pattern must
hold; any failure is returned as a :class:`Violation`, which constitutes a
sound impossibility certificate independent of the weights.  No rule
assumes that the root sits on supp(mu); the tests run the rules on
transform witnesses whose Berger measure leaves supp(mu).

Products are compared on the int keys of :func:`alsq.measures.int_keys`; a
measure's keys are the ones kept on it (:func:`alsq.measures.support_keys`),
so no support is keyed twice.  :func:`pair_diagram` groups the key products
and builds no position: an entry builds its product the first time its
``position`` is read, which the decision path never does; the rules'
messages and :func:`ur_summary` print products from int numerators
(:func:`_product_text`).  Every function that reads a support accepts a
:class:`ProductDiagram` in place of a measure or a position sequence, so
one diagram can serve them all.

The rules read which products x_i*x_j are uniquely represented (the sets
``ur[i]``) and whether two pairs have the same key product (``coincide``),
and each yields its violations as it finds them, so the first-rule mode of
:func:`structural_certificate` stops at the first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from .measures import (AtomicMeasure, MeasureError, Position,
                       _position_text, _ratio_text, int_keys, support_keys)
from .scalars import Record

Pair = Tuple[int, int]  # 0-based, i <= j


# ---------------------------------------------------------------------------
# diagram and classification
# ---------------------------------------------------------------------------

class DiagramEntry(Record):
    """The product ``position`` of each index pair in ``pairs``.  An entry
    of :func:`pair_diagram` holds the support instead and builds the
    product of its first pair when ``position`` is first read."""

    _fields = ("position", "pairs")
    __slots__ = ("_position", "pairs", "_support")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, position: Position, pairs: Tuple[Pair, ...]):
        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "pairs", pairs)

    @property
    def position(self) -> Position:
        try:
            return self._position
        except AttributeError:
            i, j = self.pairs[0]
            position = self._support[i] * self._support[j]
            object.__setattr__(self, "_position", position)
            return position

    @property
    def is_ur(self) -> bool:
        return len(self.pairs) == 1


class ProductDiagram(Record):
    """The distinct pairwise products of ``support``, ascending; ``keys``
    are the support's int keys.  ``ur[i]`` is the frozenset of the j for
    which x_i*x_j is uniquely represented, so j is in ``ur[i]`` exactly
    when i is in ``ur[j]``; ``by_key`` maps each product key to its
    entry."""

    __slots__ = _fields = ("support", "keys", "entries", "ur", "by_key")
    _hidden = ("ur", "by_key")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, support: Tuple[Position, ...], keys: Tuple[int, ...],
                 entries: Tuple[DiagramEntry, ...],
                 ur: Tuple[FrozenSet[int], ...],
                 by_key: Dict[int, DiagramEntry]):
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "ur", ur)
        object.__setattr__(self, "by_key", by_key)

    @property
    def p(self) -> int:
        return len(self.support)

    @property
    def card(self) -> int:
        return len(self.entries)

    def entry_of_pair(self, i: int, j: int) -> DiagramEntry:
        return self.by_key[self.keys[i] * self.keys[j]]

    def product(self, i: int, j: int) -> Position:
        return self.support[i] * self.support[j]

    def coincide(self, first: Pair, second: Pair) -> bool:
        """Whether two index pairs have the same product."""
        (i, j), (k, l) = first, second
        keys = self.keys
        return keys[i] * keys[j] == keys[k] * keys[l]


class URClassification(Record):
    __slots__ = _fields = ("ur", "nur")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, ur: Tuple[Position, ...], nur: Tuple[Position, ...]):
        object.__setattr__(self, "ur", ur)
        object.__setattr__(self, "nur", nur)


Source = Union[ProductDiagram, AtomicMeasure, Sequence[Position]]


def _support_of(source: Source) -> Tuple[Tuple[Position, ...], Tuple[int, ...]]:
    """The support and its int keys; a support must be strictly increasing."""
    if isinstance(source, ProductDiagram):
        return source.support, source.keys
    if isinstance(source, AtomicMeasure):
        source.require_no_zero_atom("support analysis")
        points = source.support
        keys = tuple(support_keys(source)[0])
    else:
        points = tuple(source)
        keys = tuple(int_keys(points))
    if not points:
        raise MeasureError("empty support")
    for a, b in zip(keys, keys[1:]):
        if a >= b:
            raise MeasureError("support must be strictly increasing without duplicates")
    return points, keys


def _diagram_of(source: Source) -> ProductDiagram:
    return source if isinstance(source, ProductDiagram) else pair_diagram(source)


def pair_diagram(support: Union[AtomicMeasure, Sequence[Position]]) -> ProductDiagram:
    """Group all p(p+1)/2 pairwise products by exact equality of value."""
    points, keys = _support_of(support)
    grouped: Dict[int, List[Pair]] = {}
    for i, ki in enumerate(keys):
        for j in range(i, len(keys)):
            grouped.setdefault(ki * keys[j], []).append((i, j))
    by_key: Dict[int, DiagramEntry] = {}  # ascending keys, so in entry order
    ur: List[set] = [set() for _ in keys]
    for key in sorted(grouped):
        pairs = tuple(grouped[key])  # ascending, as generated
        entry = object.__new__(DiagramEntry)  # its position built when read
        object.__setattr__(entry, "pairs", pairs)
        object.__setattr__(entry, "_support", points)
        by_key[key] = entry
        if len(pairs) == 1:
            (a, b), = pairs
            ur[a].add(b)
            ur[b].add(a)
    return ProductDiagram(points, keys, tuple(by_key.values()),
                          tuple(map(frozenset, ur)), by_key)


def classify_ur(diagram: ProductDiagram) -> URClassification:
    ur = tuple(e.position for e in diagram.entries if e.is_ur)
    nur = tuple(e.position for e in diagram.entries if not e.is_ur)
    return URClassification(ur, nur)


def ur_summary(diagram: ProductDiagram) -> dict:
    """The numbers of uniquely represented and of shared products, and the
    shared products as ``str`` prints their positions, read off the int
    numerators and denominators of the first pair of each: no position is
    built."""
    nur = [_product_text(diagram.support, *entry.pairs[0])
           for entry in diagram.entries if len(entry.pairs) > 1]
    return {"ur_count": diagram.card - len(nur), "nur_count": len(nur),
            "nur_products": nur}


def _product_text(support: Tuple[Position, ...], i: int, j: int) -> str:
    """``str(support[i] * support[j])``, read off the int numerators and
    denominators of the two positions: no position is built."""
    x, y = support[i], support[j]
    num = x.q.numerator * y.q.numerator
    den = x.q.denominator * y.q.denominator
    if x.k and y.k:  # sqrt(base)^2
        num, den = num * x.base.numerator, den * x.base.denominator
    return _position_text(_ratio_text(num, den), x.k != y.k, x.base)


# ---------------------------------------------------------------------------
# geometric profile
# ---------------------------------------------------------------------------

def geometric_profile(source: Source) -> Optional[Tuple[Position, Position]]:
    """Return (first atom, common ratio) when the support is a geometric
    progression, else None.  Equivalently, the product diagram has the
    minimal card = 2p - 1."""
    points, keys = _support_of(source)
    if len(points) == 1:
        return points[0], Position(Fraction(1), 0, points[0].base)
    k0, k1 = keys[0], keys[1]
    if any(right * k0 != left * k1 for left, right in zip(keys, keys[1:])):
        return None
    return points[0], points[1] / points[0]


# ---------------------------------------------------------------------------
# cardinality bounds
# ---------------------------------------------------------------------------

class CardinalityCheck(Record):
    __slots__ = _fields = ("p", "card", "lower", "upper", "ok")

    def __init__(self, p: int, card: int, lower: int, upper: Optional[int],
                 ok: bool):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "card", card)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "ok", ok)

    def bounds(self) -> Tuple[int, Optional[int]]:
        return (self.lower, self.upper)


def cardinality_check(source: Source) -> CardinalityCheck:
    """Compare card(supp of the reweighted self-convolution) against the
    bounds 2p-1 <= card <= floor(((p-1)^2 + 6)/2); the upper bound applies
    for p >= 4 and its failure certifies that no square root exists."""
    diagram = _diagram_of(source)
    p = diagram.p
    card = diagram.card
    lower = 2 * p - 1
    upper = ((p - 1) ** 2 + 6) // 2 if p >= 4 else None
    ok = card >= lower and (upper is None or card <= upper)
    return CardinalityCheck(p, card, lower, upper, ok)


# ---------------------------------------------------------------------------
# violations
# ---------------------------------------------------------------------------

class Violation(Record):
    """A failed necessary condition; a sound proof that no root exists.

    ``indices`` are 1-based atom indices witnessing the failed rule.
    """

    __slots__ = _fields = ("rule", "indices", "message")

    def __init__(self, rule: str, indices: Tuple[int, ...], message: str):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "message", message)

    def render(self) -> str:
        return f"[{self.rule}] {self.message}"

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "indices": list(self.indices),
            "message": self.message,
        }


def _v(rule: str, indices: Sequence[int], message: str) -> Violation:
    return Violation(rule, tuple(int(i) + 1 for i in indices), message)


def _check_boundary_products(diagram: ProductDiagram) -> Iterator[Violation]:
    """The squares of the second and next-to-last atoms, and the extreme
    cross products, are forced to coincide with some other product."""
    p = diagram.p
    if p < 3:
        return
    # a dict keeps each pair once: at p = 3 both squares are atom 2's
    members: Dict[Pair, str] = {
        (1, 1): "the square of atom 2",
        (p - 2, p - 2): f"the square of atom {p - 1}",
        (0, p - 1): f"the product of atoms 1 and {p}",
    }
    if p >= 4:
        members[0, p - 2] = f"the product of atoms 1 and {p - 1}"
        members[1, p - 1] = f"the product of atoms 2 and {p}"
    for pair, label in members.items():
        if pair[1] in diagram.ur[pair[0]]:
            yield _v(
                "boundary-products", pair,
                f"{label} ({_product_text(diagram.support, *pair)}) "
                "coincides with no other pairwise product, but a square root "
                "requires it to")


def _check_cardinality(diagram: ProductDiagram) -> Iterator[Violation]:
    check = cardinality_check(diagram)
    if check.upper is not None and check.card > check.upper:
        yield _v(
            "support-cardinality", (),
            f"{check.card} distinct pairwise products exceed the admissible "
            f"maximum {check.upper} for {check.p} atoms")


def _check_extreme_square(diagram: ProductDiagram) -> Iterator[Violation]:
    p = diagram.p
    if p < 4:
        return
    extreme = (0, p - 1)
    if diagram.coincide((1, 1), extreme):
        yield _v(
            "extreme-square-match", (1, 0, p - 1),
            "the square of atom 2 equals the product of the extreme atoms, "
            f"which forces p = 3 but p = {p}")
    if diagram.coincide((p - 2, p - 2), extreme):
        yield _v(
            "extreme-square-match", (p - 2, 0, p - 1),
            f"the square of atom {p - 1} equals the product of the extreme "
            f"atoms, which forces p = 3 but p = {p}")


def _check_double_extreme(diagram: ProductDiagram) -> Iterator[Violation]:
    p = diagram.p
    if p < 5:
        return
    if (diagram.coincide((1, 1), (0, p - 2))
            and diagram.coincide((p - 2, p - 2), (1, p - 1))):
        yield _v(
            "double-extreme-match", (1, p - 2),
            f"the squares of atoms 2 and {p - 1} match the opposite near-extreme "
            f"products simultaneously, which forces p = 4 but p = {p}")


def _check_doubly_ur_column(diagram: ProductDiagram) -> Iterator[Violation]:
    p = diagram.p
    ur = diagram.ur
    if p < 3:
        return
    for k in range(1, p - 1):
        if k in ur[0] and k in ur[1]:
            yield _v(
                "doubly-ur-column", (0, 1, k),
                f"the products of atom {k + 1} with both atoms 1 and 2 are "
                "uniquely represented, but at least one must coincide")
        if k in ur[p - 2] and k in ur[p - 1]:
            yield _v(
                "doubly-ur-column", (p - 2, p - 1, k),
                f"the products of atom {k + 1} with both atoms {p - 1} and {p} "
                "are uniquely represented, but at least one must coincide")
    full = sorted(ur[0] & ur[p - 1] - {0, p - 1})
    if len(full) >= 2:
        yield _v(
            "doubly-ur-column", (full[0], full[1]),
            f"atoms {full[0] + 1} and {full[1] + 1} both form uniquely "
            f"represented products with the two extreme atoms; only one may")
    elif len(full) == 1:
        k = full[0]
        if not diagram.coincide((k, k), (0, p - 1)):
            yield _v(
                "doubly-ur-column", (k,),
                f"atom {k + 1} forms uniquely represented products with both "
                "extreme atoms, so its square must equal their product; it "
                "does not")


def _check_ur_diagonals_edge(diagram: ProductDiagram) -> Iterator[Violation]:
    ur = diagram.ur
    squares = [i for i, partners in enumerate(ur) if i in partners]
    for i, j in combinations(squares, 2):
        if j in ur[i]:
            yield _v(
                "ur-diagonals-edge", (i, j),
                f"the squares of atoms {i + 1} and {j + 1} and their mutual "
                "product are all uniquely represented, which is impossible")


def _check_ur_corner_triangle(diagram: ProductDiagram) -> Iterator[Violation]:
    ur = diagram.ur
    for i, partners in enumerate(ur):
        if i not in partners:
            continue
        for j, k in combinations(sorted(partners - {i}), 2):
            if k in ur[j]:
                yield _v(
                    "ur-corner-triangle", (i, j, k),
                    f"the square of atom {i + 1} and the three products among "
                    f"atoms {i + 1}, {j + 1}, {k + 1} are all uniquely "
                    "represented, which is impossible")


def _check_ur_chain_midpoint(diagram: ProductDiagram) -> Iterator[Violation]:
    ur = diagram.ur
    squares = [i for i, partners in enumerate(ur) if i in partners]
    for i, k in combinations(squares, 2):
        for j in sorted(ur[i] & ur[k] - {i, k}):
            if not diagram.coincide((j, j), (i, k)):
                yield _v(
                    "ur-chain-midpoint", (i, j, k),
                    f"the chain of uniquely represented products through "
                    f"atoms {i + 1}, {j + 1}, {k + 1} forces the square of "
                    f"atom {j + 1} to equal the product of atoms {i + 1} "
                    f"and {k + 1}; it does not")


def _check_ur_rectangle(diagram: ProductDiagram) -> Iterator[Violation]:
    """Four atoms carrying a four-cycle a-b-c-d of UR products: b and d are
    two common UR neighbours of a and c.  One violation per set of four."""
    neighbours = [partners - {i} for i, partners in enumerate(diagram.ur)]
    quads = set()
    for a, c in combinations(range(diagram.p), 2):
        for b, d in combinations(neighbours[a] & neighbours[c], 2):
            quads.add(tuple(sorted((a, b, c, d))))
    for quad in sorted(quads):
        yield _v("ur-rectangle", quad,
                 f"atoms {quad[0] + 1}, {quad[1] + 1}, {quad[2] + 1}, "
                 f"{quad[3] + 1} carry a four-cycle of uniquely represented "
                 "products, which is impossible")


def _check_six_atom_rules(diagram: ProductDiagram) -> Iterator[Violation]:
    if diagram.p != 6:
        return
    if diagram.coincide((1, 1), (0, 4)):
        yield _v(
            "six-atom-wide-square", (1, 0, 4),
            "the square of atom 2 equals the product of atoms 1 and 5, which "
            "six-atom supports with a root never satisfy")
    if diagram.coincide((4, 4), (1, 5)):
        yield _v(
            "six-atom-wide-square", (4, 1, 5),
            "the square of atom 5 equals the product of atoms 2 and 6, which "
            "six-atom supports with a root never satisfy")
    if diagram.coincide((1, 1), (0, 3)) and diagram.coincide((4, 4), (2, 5)):
        yield _v(
            "six-atom-crossed-squares", (1, 3, 2, 4),
            "the squares of atoms 2 and 5 match the crossed products of atoms "
            "1,4 and 3,6 simultaneously, which six-atom supports with a root "
            "never satisfy")


_RULE_SEQUENCE = (
    _check_boundary_products,
    _check_cardinality,
    _check_extreme_square,
    _check_double_extreme,
    _check_doubly_ur_column,
    _check_ur_diagonals_edge,
    _check_ur_corner_triangle,
    _check_ur_chain_midpoint,
    _check_ur_rectangle,
    _check_six_atom_rules,
)


def structural_certificate(
    source: Source,
    exhaustive: bool = False,
) -> Union[Optional[Violation], List[Violation]]:
    """Run the necessary-condition rules in fixed cheapest-first order.

    Returns the first Violation (or None), or every violation when
    ``exhaustive`` is set; each rule yields its violations as it finds
    them, so the first-rule mode stops at the first.  All rules are
    weight-independent.
    """
    diagram = _diagram_of(source)
    found = (v for rule in _RULE_SEQUENCE for v in rule(diagram))
    return list(found) if exhaustive else next(found, None)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

MAX_RENDER_ATOMS = 12


def render_diagram(source: Source) -> str:
    """ASCII triangular table of pairwise products; '*' marks products with
    several index pairs, and the coincidence classes are listed below."""
    diagram = _diagram_of(source)
    p = diagram.p
    if p > MAX_RENDER_ATOMS:
        raise MeasureError(
            f"diagram rendering supports at most {MAX_RENDER_ATOMS} atoms; "
            "use the JSON output instead")
    cells = {}
    width = 4
    for i in range(p):
        for j in range(i, p):
            text = str(diagram.product(i, j))
            text += "" if j in diagram.ur[i] else "*"
            cells[(i, j)] = text
            width = max(width, len(text) + 2)
    header = "i\\j".rjust(5) + "".join(str(j + 1).rjust(width) for j in range(p))
    lines = [
        f"pairwise products of {p} atoms "
        f"({diagram.card} distinct, * = multiple index pairs)",
        header,
    ]
    for i in range(p):
        row = str(i + 1).rjust(5) + " " * (width * i)
        row += "".join(cells[(i, j)].rjust(width) for j in range(i, p))
        lines.append(row)
    classes = [e for e in diagram.entries if not e.is_ur]
    if classes:
        lines.append("coincidence classes:")
        for entry in classes:
            refs = " = ".join(f"({i + 1},{j + 1})" for i, j in entry.pairs)
            lines.append(f"  {entry.position}: {refs}")
    else:
        lines.append("all products uniquely represented")
    return "\n".join(lines)
