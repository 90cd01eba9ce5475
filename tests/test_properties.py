"""Bulk randomized agreement and soundness properties.

These complement the per-module tests: the closed forms, the generic
pipeline and the square-root search must tell one consistent story across
thousands of seeded instances.
"""

from fractions import Fraction

from alsq.closed_forms import classify_small
from alsq.diagram import cardinality_check, structural_certificate
from alsq.generator import GeneratorSpec, generate
from alsq.measures import convolve, t_weight
from alsq.solver import (
    IMPOSSIBLE,
    UNDETERMINED,
    WITNESS,
    aluthge_subnormal,
    sqrt_of,
    verify_witness,
)

F = Fraction


def _instance(seed: int):
    p = (3, 4, 5, 6)[seed % 4]
    kind = ("with-root", "perturbed", "with-aluthge-root",
            "arbitrary")[(seed // 4) % 4]
    if p == 4 and kind in ("with-root", "with-aluthge-root"):
        kind = "arbitrary"
    return generate(GeneratorSpec(p, kind, 500_000 + seed)).measure


def _arbitrary(ps=range(7, 24), seeds=3):
    for p in ps:
        for seed in range(seeds):
            for style in ("geometric", "random"):
                yield generate(GeneratorSpec(p, "arbitrary", 700_000 + seed,
                                             position_style=style)).measure


def test_oracle_agreement_ten_thousand_instances():
    undetermined = 0
    for seed in range(10_000):
        mu = _instance(seed)
        closed = classify_small(mu)
        generic = aluthge_subnormal(mu)
        assert closed.outcome == generic.outcome, (seed, closed.outcome,
                                                   generic.outcome)
        if generic.outcome == UNDETERMINED:
            undetermined += 1
    # tracked, not assumed: no undetermined outcomes have been observed for
    # up to six atoms
    assert undetermined == 0


def test_sqrt_and_transform_equivalue_small_atom_counts():
    for seed in range(400):
        mu = _instance(seed)
        assert sqrt_of(mu).outcome == aluthge_subnormal(mu).outcome, seed


def test_witnessed_instances_satisfy_structural_theory():
    checked = 0
    for seed in range(600):
        mu = _instance(seed)
        verdict = aluthge_subnormal(mu)
        if verdict.outcome != WITNESS:
            continue
        checked += 1
        assert structural_certificate(mu) is None
        assert cardinality_check(mu).ok
        assert verify_witness(verdict.witness, convolve(mu, t_weight(mu)))
    assert checked > 100


def test_doubly_unique_column_theory_on_witnesses():
    from alsq.diagram import pair_diagram

    for seed in range(300):
        mu = _instance(seed)
        if aluthge_subnormal(mu).outcome != WITNESS:
            continue
        diagram = pair_diagram(mu)
        p = diagram.p
        # the entry of each index pair (i, j), i <= j
        entry_of = {pair: entry for entry in diagram.entries
                    for pair in entry.pairs}
        full = [k for k in range(1, p - 1)
                if entry_of[0, k].is_ur and entry_of[k, p - 1].is_ur]
        assert len(full) <= 1
        for k in full:
            assert diagram.product(k, k).squared() == \
                diagram.product(0, p - 1).squared()


def test_rational_mode_is_never_undetermined():
    measures = [_instance(seed) for seed in range(1000)]
    measures += list(_arbitrary())
    for mu in measures:
        assert sqrt_of(mu).outcome != UNDETERMINED, mu
        assert aluthge_subnormal(mu).outcome != UNDETERMINED, mu


def test_structural_certificates_imply_impossible_peel():
    # the structural rules are explanations, not the decision; whenever one
    # fires the peel must refute the transform question on its own
    fired = 0
    for mu in _arbitrary(range(2, 24), 6):
        if structural_certificate(mu) is None:
            continue
        fired += 1
        assert aluthge_subnormal(mu).outcome == IMPOSSIBLE, mu
    assert fired > 100
