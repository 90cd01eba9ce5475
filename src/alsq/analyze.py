"""Full analysis of a measure: support combinatorics, both root decisions,
closed-form agreement, and optional shift tables.  Only the shift tables
and real-mode values use :mod:`alsq.reals`, which loads mpmath."""

from __future__ import annotations

from typing import List, Optional

from .closed_forms import classify_small
from .diagram import (
    ProductDiagram,
    cardinality_check,
    geometric_profile,
    pair_diagram,
    structural_certificate,
    ur_summary,
)
from .measures import (
    AtomicMeasure,
    MeasureError,
    dumps_measure,
    has_radical,
    strip_zero_atom,
)
from .scalars import Record, scalar_str
from .solver import (DEFAULT_CONFIG, UNDETERMINED, WITNESS, SolverConfig,
                     Verdict, aluthge_subnormal, verdicts)

try:  # the builtin SHA-256: importing hashlib also loads OpenSSL (_hashlib)
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


class AnalyzeOptions(Record):
    __slots__ = _fields = ("config", "shift_terms")

    def __init__(self, config: SolverConfig = DEFAULT_CONFIG,
                 shift_terms: int = 0):  # 0 disables the tables
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "shift_terms", shift_terms)


class AnalysisReport(Record):
    # the product diagram every support statistic was read from is kept for
    # render_diagram, not serialized
    __slots__ = _fields = (
        "digest", "mode", "p", "zero_mass", "card", "bounds", "geometric",
        "ur_summary", "structural", "sqrt_verdict", "aluthge_verdict",
        "small_verdict", "agreement", "shift_tables", "notes", "diagram")
    _hidden = ("diagram",)
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None

    def __init__(self, digest: str, mode: str, p: int,
                 zero_mass: Optional[str], card: int, bounds: tuple,
                 geometric: Optional[tuple], ur_summary: dict,
                 structural: Optional[dict], sqrt_verdict: Optional[Verdict],
                 aluthge_verdict: Verdict, small_verdict: Optional[Verdict],
                 agreement: Optional[bool], shift_tables: Optional[dict],
                 notes: Optional[List[str]] = None,
                 diagram: Optional[ProductDiagram] = None):
        self.digest, self.mode, self.p = digest, mode, p
        self.zero_mass, self.card, self.bounds = zero_mass, card, bounds
        self.geometric = geometric
        self.ur_summary, self.structural = ur_summary, structural
        self.sqrt_verdict, self.aluthge_verdict = sqrt_verdict, aluthge_verdict
        self.small_verdict, self.agreement = small_verdict, agreement
        self.shift_tables = shift_tables
        self.notes = [] if notes is None else notes
        self.diagram = diagram

    def to_json_dict(self) -> dict:
        return {
            "schema": "alsq/1",
            "input_digest": self.digest,
            "mode": self.mode,
            "p": self.p,
            "zero_mass": self.zero_mass,
            "card": self.card,
            "bounds": list(self.bounds),
            "geometric_profile": list(self.geometric) if self.geometric else None,
            "ur": self.ur_summary,
            "structural_certificate": self.structural,
            "sqrt": self.sqrt_verdict.to_json_dict() if self.sqrt_verdict else None,
            "aluthge": self.aluthge_verdict.to_json_dict(),
            "closed_form": self.small_verdict.to_json_dict() if self.small_verdict else None,
            "agreement": self.agreement,
            "shift_tables": self.shift_tables,
            "notes": self.notes,
        }

    def render(self) -> str:
        lines = [
            f"input digest : {self.digest[:16]}",
            f"atoms        : {self.p} ({self.mode} mode)"
            + (f", mass {self.zero_mass} at the origin (stripped)"
               if self.zero_mass else ""),
            f"products     : {self.card} distinct, admissible range "
            f"[{self.bounds[0]}, {self.bounds[1] if self.bounds[1] else '-'}]",
            "support      : "
            + (f"geometric, start {self.geometric[0]}, ratio {self.geometric[1]}"
               if self.geometric else "not geometric"),
            f"ur pattern   : {self.ur_summary['ur_count']} unique / "
            f"{self.ur_summary['nur_count']} shared products",
        ]
        if self.structural:
            lines.append(f"structure    : violated - {self.structural['message']}")
        else:
            lines.append("structure    : all necessary conditions hold")
        if self.sqrt_verdict:
            lines.append(f"square root  : {self.sqrt_verdict.outcome}")
            if self.sqrt_verdict.witness is not None:
                lines.append(f"    root = {self.sqrt_verdict.witness}")
            if self.sqrt_verdict.certificate is not None:
                lines.append(f"    {self.sqrt_verdict.certificate.render()}")
        lines.append(f"transform    : {self.aluthge_verdict.outcome}"
                     + (" (subnormal)" if self.aluthge_verdict.outcome == WITNESS else ""))
        if self.aluthge_verdict.witness is not None:
            lines.append(f"    root of reweighted square = "
                         f"{self.aluthge_verdict.witness}")
        if self.aluthge_verdict.certificate is not None:
            lines.append(f"    {self.aluthge_verdict.certificate.render()}")
        if self.small_verdict is not None:
            mark = {None: "not compared: undetermined",
                    True: "agrees with the generic solver",
                    False: "DISAGREES with the generic solver"}[self.agreement]
            lines.append(f"closed form  : {self.small_verdict.outcome} "
                         f"({mark})")
        for note in self.notes:
            lines.append(f"note         : {note}")
        if self.shift_tables:
            lines.append("shift tables :")
            lines.extend("    " + line
                         for line in render_shift_rows(self.shift_tables["rows"]))
        return "\n".join(lines)


def analyze(mu: AtomicMeasure, options: AnalyzeOptions = AnalyzeOptions()) -> AnalysisReport:
    digest = sha256(dumps_measure(mu).encode("utf-8")).hexdigest()
    zero_note: Optional[str] = None
    zero, body = strip_zero_atom(mu)
    if mu.has_zero_atom():
        zero_note = scalar_str(zero)
    config = options.config
    notes: List[str] = []

    diagram = pair_diagram(body)
    card = cardinality_check(diagram)
    profile = geometric_profile(diagram)
    geometric = (str(profile[0]), str(profile[1])) if profile else None
    violation = structural_certificate(diagram)

    try:
        sqrt_verdict, aluthge_verdict = verdicts(body, config)
    except MeasureError as exc:
        notes.append(f"square-root search skipped: {exc}")
        sqrt_verdict, aluthge_verdict = None, aluthge_subnormal(body, config)

    small_verdict = None
    agreement = None
    if 3 <= body.p <= 6 and not has_radical(body):
        # rational positions, so sqrt_of decided: reuse its root
        small_verdict = classify_small(body, config, root=sqrt_verdict)
        # an undetermined verdict neither agrees nor disagrees
        outcomes = (small_verdict.outcome, aluthge_verdict.outcome)
        if UNDETERMINED not in outcomes:
            agreement = outcomes[0] == outcomes[1]

    shift_tables = None
    if options.shift_terms > 0:
        shift_tables = shift_table(body, options.shift_terms,
                                   config.precision_bits)

    if zero_note:
        notes.insert(0, "analysis applies to the restriction away from the "
                        "origin; root existence is unaffected")

    return AnalysisReport(
        digest=digest,
        mode=mu.mode,
        p=body.p,
        zero_mass=zero_note,
        card=card.card,
        bounds=card.bounds(),
        geometric=geometric,
        ur_summary=ur_summary(diagram),
        structural=violation.to_json_dict() if violation else None,
        sqrt_verdict=sqrt_verdict,
        aluthge_verdict=aluthge_verdict,
        small_verdict=small_verdict,
        agreement=agreement,
        shift_tables=shift_tables,
        notes=notes,
        diagram=diagram,
    )


def shift_table(mu: AtomicMeasure, terms: int, bits: int) -> dict:
    """Rows n < terms of the shift tables, numbered: each entry is the
    exact value rounded once at ``bits`` and printed to 15 digits as
    ``float_str`` prints it (:func:`shift_text_rows`).  The texts come
    from ``shifts.root_texts``, a column at a time: each from one integer
    root of the exact value, rounded at ``bits`` only where that could
    change the text: near a decimal tie of the 15th digit, and at radical
    or very large entries."""
    from .shifts import shift_text_rows

    rows = [(n,) + row
            for n, row in enumerate(shift_text_rows(mu, terms, bits))]
    return {"terms": terms, "rows": rows}


def render_shift_rows(rows) -> List[str]:
    """A header line and one aligned line per row of a shift table."""
    lines = [f"{'n':>3} {'alpha':>22} {'aluthge alpha':>22} "
             f"{'gamma':>22} {'aluthge gamma':>22}"]
    lines.extend("{:>3} {:>22} {:>22} {:>22} {:>22}".format(*row)
                 for row in rows)
    return lines
