"""Exact square roots of finitely atomic measures under multiplicative
convolution, and subnormality of Aluthge-transformed weighted shifts."""

from .measures import (
    AtomicMeasure,
    IncompatibleBasesError,
    MeasureError,
    Position,
    ZeroAtomError,
    convolve,
    dumps_measure,
    load_measure,
    loads_measure,
    make_measure,
    measure_from_json_dict,
    measure_to_json_dict,
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
    Violation,
    cardinality_check,
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
    SolverConfig,
    Verdict,
    aluthge_subnormal,
    sqrt_of,
    verify_witness,
)
from .closed_forms import classify_small
from .analyze import AnalysisReport, AnalyzeOptions, analyze

__version__ = "0.1.0"

# The generator and the shift tables are imported on first use (PEP 562),
# so that a process which reads neither, such as ``alsq analyze`` without
# shift tables, does not compile them.  No submodule may share a name with
# a function served here: once imported, the submodule would shadow it.
_LAZY = {
    **dict.fromkeys(("GeneratedInstance", "GeneratorSpec", "generate"),
                    "generator"),
    **dict.fromkeys(("aluthge_weights", "hankel_psd", "moment_sequence",
                     "moments_from_weights", "shift_rows", "shifts",
                     "support_characteristic", "weights_from_measure"),
                    "shifts"),
}


def __getattr__(name: str):
    try:
        source = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    module = import_module(f".{source}", __name__)
    value = module if name == source else getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


# it keeps the submodule names that ``from alsq import *`` has always bound
__all__ = [
    "AnalysisReport", "AnalyzeOptions", "AtomicMeasure", "CardinalityCheck",
    "GeneratedInstance", "GeneratorSpec", "IMPOSSIBLE",
    "IncompatibleBasesError", "InternalError", "MeasureError", "Position",
    "ProductDiagram", "SolverConfig", "UNDETERMINED", "Verdict", "Violation",
    "WITNESS", "ZeroAtomError",
    "aluthge_subnormal", "aluthge_weights", "analyze", "cardinality_check",
    "classify_small", "closed_forms", "convolve", "diagram", "dumps_measure",
    "generate", "geometric_profile", "hankel_psd", "load_measure",
    "loads_measure", "make_measure", "measure_from_json_dict",
    "measure_to_json_dict", "measures", "moment_sequence",
    "moments_from_weights", "normalize", "pair_diagram", "power_positions",
    "render_diagram", "save_measure", "scalars", "scale_positions",
    "shift_rows", "shifts", "solver", "sqrt_of", "strip_zero_atom",
    "structural_certificate", "support_characteristic", "t_weight",
    "verify_witness", "weights_from_measure",
]
