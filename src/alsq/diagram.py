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
``position`` is read, which the decision path does only for what it prints
(the shared products of ``analyze``'s report, a rule's message).  Every
function that reads a support accepts a :class:`ProductDiagram` in place of
a measure or a position sequence, so one diagram can serve them all.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .measures import (AtomicMeasure, MeasureError, Position, int_keys,
                       support_keys)
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
    are the support's int keys.  ``index[i][j]`` is the entry holding
    x_i*x_j and ``ur[i][j]`` whether that product is uniquely represented,
    both p x p and symmetric."""

    __slots__ = _fields = ("support", "keys", "entries", "index", "ur")
    _hidden = ("index", "ur")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, support: Tuple[Position, ...], keys: Tuple[int, ...],
                 entries: Tuple[DiagramEntry, ...],
                 index: Tuple[Tuple[int, ...], ...],
                 ur: Tuple[Tuple[bool, ...], ...]):
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "ur", ur)

    @property
    def p(self) -> int:
        return len(self.support)

    @property
    def card(self) -> int:
        return len(self.entries)

    def entry_of_pair(self, i: int, j: int) -> DiagramEntry:
        return self.entries[self.index[i][j]]

    def product(self, i: int, j: int) -> Position:
        return self.entry_of_pair(i, j).position

    def coincide(self, first: Pair, second: Pair) -> bool:
        """Whether two index pairs have the same product."""
        (i, j), (k, l) = first, second
        return self.index[i][j] == self.index[k][l]


class URClassification(Record):
    __slots__ = _fields = ("ur", "nur")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, ur: Tuple[Position, ...], nur: Tuple[Position, ...]):
        object.__setattr__(self, "ur", ur)
        object.__setattr__(self, "nur", nur)

    def summary(self) -> dict:
        return _summary(len(self.ur), self.nur)


def _summary(ur_count: int, nur: Sequence[Position]) -> dict:
    return {
        "ur_count": ur_count,
        "nur_count": len(nur),
        "nur_products": [str(pos) for pos in nur],
    }


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
    p = len(keys)
    entries = []
    index = [[0] * p for _ in range(p)]
    ur = [[False] * p for _ in range(p)]
    for n, key in enumerate(sorted(grouped)):
        pairs = tuple(grouped[key])  # ascending, as generated
        entry = object.__new__(DiagramEntry)  # its position built when read
        object.__setattr__(entry, "pairs", pairs)
        object.__setattr__(entry, "_support", points)
        entries.append(entry)
        for a, b in pairs:
            index[a][b] = index[b][a] = n
            ur[a][b] = ur[b][a] = len(pairs) == 1
    return ProductDiagram(points, keys, tuple(entries),
                          tuple(map(tuple, index)), tuple(map(tuple, ur)))


def classify_ur(diagram: ProductDiagram) -> URClassification:
    ur = tuple(e.position for e in diagram.entries if e.is_ur)
    nur = tuple(e.position for e in diagram.entries if not e.is_ur)
    return URClassification(ur, nur)


def ur_summary(diagram: ProductDiagram) -> dict:
    """``classify_ur(diagram).summary()``, with a position built only for
    the shared products, the ones it prints."""
    nur = [e.position for e in diagram.entries if not e.is_ur]
    return _summary(diagram.card - len(nur), nur)


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


def _check_boundary_products(diagram: ProductDiagram) -> List[Violation]:
    """The squares of the second and next-to-last atoms, and the extreme
    cross products, are forced to coincide with some other product."""
    p = diagram.p
    out: List[Violation] = []
    if p < 3:
        return out
    members: List[Tuple[Pair, str]] = [
        ((1, 1), "the square of atom 2"),
        ((p - 2, p - 2), f"the square of atom {p - 1}"),
        ((0, p - 1), f"the product of atoms 1 and {p}"),
    ]
    if p >= 4:
        members.append(((0, p - 2), f"the product of atoms 1 and {p - 1}"))
        members.append(((1, p - 1), f"the product of atoms 2 and {p}"))
    seen = set()
    for pair, label in members:
        if pair in seen:
            continue
        seen.add(pair)
        if diagram.ur[pair[0]][pair[1]]:
            out.append(_v(
                "boundary-products", pair,
                f"{label} ({diagram.product(*pair)}) coincides with no other "
                "pairwise product, but a square root requires it to"))
    return out


def _check_cardinality(diagram: ProductDiagram) -> List[Violation]:
    p = diagram.p
    if p < 4:
        return []
    upper = ((p - 1) ** 2 + 6) // 2
    if diagram.card > upper:
        return [_v(
            "support-cardinality", (),
            f"{diagram.card} distinct pairwise products exceed the admissible "
            f"maximum {upper} for {p} atoms")]
    return []


def _check_extreme_square(diagram: ProductDiagram) -> List[Violation]:
    p = diagram.p
    out: List[Violation] = []
    if p < 4:
        return out
    extreme = (0, p - 1)
    if diagram.coincide((1, 1), extreme):
        out.append(_v(
            "extreme-square-match", (1, 0, p - 1),
            "the square of atom 2 equals the product of the extreme atoms, "
            f"which forces p = 3 but p = {p}"))
    if diagram.coincide((p - 2, p - 2), extreme):
        out.append(_v(
            "extreme-square-match", (p - 2, 0, p - 1),
            f"the square of atom {p - 1} equals the product of the extreme "
            f"atoms, which forces p = 3 but p = {p}"))
    return out


def _check_double_extreme(diagram: ProductDiagram) -> List[Violation]:
    p = diagram.p
    if p < 5:
        return []
    if (diagram.coincide((1, 1), (0, p - 2))
            and diagram.coincide((p - 2, p - 2), (1, p - 1))):
        return [_v(
            "double-extreme-match", (1, p - 2),
            f"the squares of atoms 2 and {p - 1} match the opposite near-extreme "
            f"products simultaneously, which forces p = 4 but p = {p}")]
    return []


def _check_doubly_ur_column(diagram: ProductDiagram) -> List[Violation]:
    p = diagram.p
    ur = diagram.ur
    out: List[Violation] = []
    if p < 3:
        return out
    for k in range(1, p - 1):
        if ur[0][k] and ur[1][k]:
            out.append(_v(
                "doubly-ur-column", (0, 1, k),
                f"the products of atom {k + 1} with both atoms 1 and 2 are "
                "uniquely represented, but at least one must coincide"))
        if ur[p - 2][k] and ur[p - 1][k]:
            out.append(_v(
                "doubly-ur-column", (p - 2, p - 1, k),
                f"the products of atom {k + 1} with both atoms {p - 1} and {p} "
                "are uniquely represented, but at least one must coincide"))
    full = [k for k in range(1, p - 1) if ur[0][k] and ur[p - 1][k]]
    if len(full) >= 2:
        out.append(_v(
            "doubly-ur-column", (full[0], full[1]),
            f"atoms {full[0] + 1} and {full[1] + 1} both form uniquely "
            f"represented products with the two extreme atoms; only one may"))
    elif len(full) == 1:
        k = full[0]
        if not diagram.coincide((k, k), (0, p - 1)):
            out.append(_v(
                "doubly-ur-column", (k,),
                f"atom {k + 1} forms uniquely represented products with both "
                "extreme atoms, so its square must equal their product; it "
                "does not"))
    return out


def _check_ur_diagonals_edge(diagram: ProductDiagram) -> List[Violation]:
    p = diagram.p
    ur = diagram.ur
    out: List[Violation] = []
    for i in range(p):
        for j in range(i + 1, p):
            if ur[i][i] and ur[j][j] and ur[i][j]:
                out.append(_v(
                    "ur-diagonals-edge", (i, j),
                    f"the squares of atoms {i + 1} and {j + 1} and their mutual "
                    "product are all uniquely represented, which is impossible"))
    return out


def _check_ur_corner_triangle(diagram: ProductDiagram) -> List[Violation]:
    p = diagram.p
    ur = diagram.ur
    out: List[Violation] = []
    for i in range(p):
        if not ur[i][i]:
            continue
        others = [j for j in range(p) if j != i]
        for j, k in combinations(others, 2):
            if ur[i][j] and ur[i][k] and ur[j][k]:
                out.append(_v(
                    "ur-corner-triangle", (i, j, k),
                    f"the square of atom {i + 1} and the three products among "
                    f"atoms {i + 1}, {j + 1}, {k + 1} are all uniquely "
                    "represented, which is impossible"))
    return out


def _check_ur_chain_midpoint(diagram: ProductDiagram) -> List[Violation]:
    p = diagram.p
    ur = diagram.ur
    out: List[Violation] = []
    for i in range(p):
        for k in range(i + 1, p):
            if not (ur[i][i] and ur[k][k]):
                continue
            for j in range(p):
                if j in (i, k):
                    continue
                if ur[i][j] and ur[j][k]:
                    if not diagram.coincide((j, j), (i, k)):
                        out.append(_v(
                            "ur-chain-midpoint", (i, j, k),
                            f"the chain of uniquely represented products through "
                            f"atoms {i + 1}, {j + 1}, {k + 1} forces the square of "
                            f"atom {j + 1} to equal the product of atoms {i + 1} "
                            f"and {k + 1}; it does not"))
    return out


def _check_ur_rectangle(diagram: ProductDiagram) -> List[Violation]:
    """Four atoms carrying a four-cycle a-b-c-d of UR products: b and d are
    two common UR neighbours of a and c.  One violation per set of four."""
    p = diagram.p
    neighbours = [{j for j in range(p) if j != i and diagram.ur[i][j]}
                  for i in range(p)]
    quads = set()
    for a, c in combinations(range(p), 2):
        for b, d in combinations(neighbours[a] & neighbours[c], 2):
            quads.add(tuple(sorted((a, b, c, d))))
    return [
        _v("ur-rectangle", quad,
           f"atoms {quad[0] + 1}, {quad[1] + 1}, {quad[2] + 1}, {quad[3] + 1} "
           "carry a four-cycle of uniquely represented products, which is "
           "impossible")
        for quad in sorted(quads)
    ]


def _check_six_atom_rules(diagram: ProductDiagram) -> List[Violation]:
    if diagram.p != 6:
        return []
    out: List[Violation] = []
    if diagram.coincide((1, 1), (0, 4)):
        out.append(_v(
            "six-atom-wide-square", (1, 0, 4),
            "the square of atom 2 equals the product of atoms 1 and 5, which "
            "six-atom supports with a root never satisfy"))
    if diagram.coincide((4, 4), (1, 5)):
        out.append(_v(
            "six-atom-wide-square", (4, 1, 5),
            "the square of atom 5 equals the product of atoms 2 and 6, which "
            "six-atom supports with a root never satisfy"))
    if diagram.coincide((1, 1), (0, 3)) and diagram.coincide((4, 4), (2, 5)):
        out.append(_v(
            "six-atom-crossed-squares", (1, 3, 2, 4),
            "the squares of atoms 2 and 5 match the crossed products of atoms "
            "1,4 and 3,6 simultaneously, which six-atom supports with a root "
            "never satisfy"))
    return out


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
    ``exhaustive`` is set.  All rules are weight-independent.
    """
    diagram = _diagram_of(source)
    found: List[Violation] = []
    for rule in _RULE_SEQUENCE:
        violations = rule(diagram)
        if violations:
            if not exhaustive:
                return violations[0]
            found.extend(violations)
    return found if exhaustive else None


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
            entry = diagram.entry_of_pair(i, j)
            text = str(entry.position) + ("*" if not entry.is_ur else "")
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
