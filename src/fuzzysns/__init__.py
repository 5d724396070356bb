"""Fuzzy cardinal semantic transformations.

Crisp, discrete-fuzzy and triangular-fuzzy cardinals; the four carry-kind
cardinal semantic operators (line, distribution, fusion, multi); common-carry
formation for multi-operand operators; a scenario evaluator over named
entities; and brute-force oracles for verification.
"""

from types import ModuleType as _ModuleType

# numbers first: compiled from source before the other modules, the largest module
# leaves the heap's high-water mark, and so an eval's peak RSS, lower.
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
from .operators import (
    TransformOptions,
    TransformResult,
    apply_D,
    apply_F,
    apply_L,
    apply_M,
    common_carry_dfn,
    common_carry_tri,
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

_LAZY = ("alpha_cut_check", "equivalence_suite", "random_dfn", "zadeh_oracle")


def __getattr__(name: str):
    """The oracle's names, imported on first use (and ``random`` with them)."""
    if name in _LAZY:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    """The module's names and the oracle's, without importing the oracle."""
    return sorted({*globals(), *_LAZY})


# The imports above are the public API: every public name they bind, and the oracle's.
__all__ = sorted([
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + [*_LAZY])
