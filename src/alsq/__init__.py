"""Exact square roots of finitely atomic measures under multiplicative
convolution, and subnormality of Aluthge-transformed weighted shifts."""

from .measures import (
    AtomicMeasure,
    IncompatibleBasesError,
    MeasureError,
    Position,
    ZeroAtomError,
    convolve,
    dirac,
    dumps_measure,
    load_measure,
    loads_measure,
    make_measure,
    measure_from_json_dict,
    measure_to_json_dict,
    moment,
    normalize,
    power_positions,
    save_measure,
    scale_positions,
    strip_zero_atom,
    t_weight,
)
from .diagram import (
    CardinalityCheck,
    ProductDiagram,
    URClassification,
    Violation,
    cardinality_check,
    classify_ur,
    geometric_profile,
    pair_diagram,
    render_diagram,
    structural_certificate,
)
from .solver import (
    IMPOSSIBLE,
    UNDETERMINED,
    WITNESS,
    InternalError,
    Peel,
    SolverConfig,
    Verdict,
    aluthge_subnormal,
    peel_root,
    sqrt_of,
    verify_witness,
)
from .closed_forms import classify_small
from .shifts import (
    aluthge_moment_sequence,
    aluthge_weights,
    hankel_psd,
    moment_sequence,
    moments_from_weights,
    shift_rows,
    support_characteristic,
    weights_from_measure,
)
from .generate import GeneratedInstance, GeneratorSpec, generate
from .analyze import AnalysisReport, AnalyzeOptions, analyze

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
