"""Fuzzy cardinal semantic transformations.

Crisp, discrete-fuzzy and triangular-fuzzy cardinals; the four carry-kind
cardinal semantic operators (line, distribution, fusion, multi); common-carry
formation for multi-operand operators; a scenario evaluator over named
entities; and brute-force oracles for verification.
"""

from .carry import common_carry_dfn, common_carry_tri
from .errors import (
    DomainError,
    FuzzySnsError,
    InvalidRadixError,
    MixedFamilyError,
    OperatorSpecError,
    ParseError,
    ScenarioValidationError,
    StepExecutionError,
)
from .formats import (
    format_fraction,
    format_scalar,
    parse_fraction,
    parse_scalar,
    scenario_from_json,
    scenario_to_json,
)
from .numbers import (
    DiscreteFuzzyNumber,
    FuzzyScalar,
    TriangularFuzzyNumber,
    as_grade,
    crisp_value,
    dfn_floor_div,
    dfn_mod,
    dfn_zadeh_binary,
    family,
    joint_family,
    lift_discrete,
    lift_triangular,
    tfn_add,
    tfn_floor_div,
    tfn_membership,
    tfn_mul,
    tfn_scale,
    tfn_sub,
)
from .operators import (
    TransformOptions,
    TransformResult,
    apply_D,
    apply_F,
    apply_L,
    apply_M,
    crisp_D,
    crisp_F,
    crisp_L,
    crisp_M,
)
from .scenario import (
    Diagnostic, Form, Multeity, OperatorSpec, Scenario, Trace, TraceStep, run, validate,
    valence_matches,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """The oracle's names, imported on first use (and ``random`` with them)."""
    if name in ("alpha_cut_check", "equivalence_suite", "random_dfn", "zadeh_oracle"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DiscreteFuzzyNumber",
    "Diagnostic",
    "DomainError",
    "Form",
    "FuzzyScalar",
    "FuzzySnsError",
    "InvalidRadixError",
    "MixedFamilyError",
    "Multeity",
    "OperatorSpec",
    "OperatorSpecError",
    "ParseError",
    "Scenario",
    "ScenarioValidationError",
    "StepExecutionError",
    "Trace",
    "TraceStep",
    "TransformOptions",
    "TransformResult",
    "TriangularFuzzyNumber",
    "alpha_cut_check",
    "apply_D",
    "apply_F",
    "apply_L",
    "apply_M",
    "as_grade",
    "common_carry_dfn",
    "common_carry_tri",
    "crisp_D",
    "crisp_F",
    "crisp_L",
    "crisp_M",
    "crisp_value",
    "dfn_floor_div",
    "dfn_mod",
    "dfn_zadeh_binary",
    "equivalence_suite",
    "family",
    "format_fraction",
    "format_scalar",
    "joint_family",
    "lift_discrete",
    "lift_triangular",
    "parse_fraction",
    "parse_scalar",
    "random_dfn",
    "run",
    "scenario_from_json",
    "scenario_to_json",
    "tfn_add",
    "tfn_floor_div",
    "tfn_membership",
    "tfn_mul",
    "tfn_scale",
    "tfn_sub",
    "valence_matches",
    "validate",
    "zadeh_oracle",
]
