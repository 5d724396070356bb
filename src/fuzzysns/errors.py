"""Exception hierarchy shared across the package, and its one argument-type rule."""

from collections.abc import Iterable


def _typed(value, cls: type, name: str):
    """The one argument-type rule: ``value`` if it is a ``cls``, else a TypeError naming it."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be {cls.__name__}, not {type(value).__name__}")
    return value


class FuzzySnsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FuzzySnsError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class InvalidRadixError(FuzzySnsError, ValueError):
    """A radix (divisor) has a component or support value below 1."""


class MixedFamilyError(FuzzySnsError, TypeError):
    """Discrete and triangular fuzzy values were mixed in one operation."""


class OperatorSpecError(FuzzySnsError, ValueError):
    """An operator description is structurally invalid (valence, lengths)."""


class ScenarioValidationError(FuzzySnsError, ValueError):
    """A scenario failed validation; carries the diagnostics list."""

    def __init__(self, diagnostics):
        self.diagnostics = list(_typed(diagnostics, Iterable, "diagnostics"))
        lines = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"scenario is not runnable: {lines}")


class StepExecutionError(FuzzySnsError, RuntimeError):
    """A scenario step failed while running; records the step index."""

    def __init__(self, step: int, cause: Exception):
        self.step = step
        self.cause = cause
        super().__init__(f"step {step} failed: {cause}")


class ParseError(FuzzySnsError, ValueError):
    """Input text could not be parsed; may carry line/column positions."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
