"""Named entities with fuzzy cardinals plus an ordered list of operator steps.

A scenario holds the initial state of a multeity (entity id -> cardinal), the
operator steps to apply in order, and the transform options.  Running it
yields a trace: per step, the transform result and a read-only view of the
state after remainders go back to operands and new cardinals to images; each
write is stored once, per entity, and the views read it there.  Evaluation is
single-pass and strictly sequential; remainders do not feed back into the
same step, and entities a step does not name are untouched by it.  Steps are
:class:`OperatorSpec` records; the valence of each :class:`Form`
(:func:`valence_matches`) is a scenario rule, as the operators accept any W, V >= 1.
:func:`validate` checks a whole scenario in one pass before anything runs.
It follows each entity's family through the steps, so a step that would mix
discrete and triangular values is refused up front, not part-way through.
The same pass plans the run, each step's joint family, which :func:`run`
applies without classifying the step's values again.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Mapping
from enum import Enum
from functools import partial

from .errors import (
    DomainError,
    FuzzySnsError,
    InvalidRadixError,
    MixedFamilyError,
    ScenarioValidationError,
    StepExecutionError,
)
from .numbers import FuzzyScalar, _check_natural, _check_radix, _join_families, _Record, family
from .operators import _FAMILIES, DEFAULT_OPTIONS, TransformResult, _transform

# Not called here: run applies each step through _transform.  The benchmark's
# tracer (perfbench/tracer.py) wraps these names and fails when one is missing.
from .operators import apply_D, apply_F, apply_L, apply_M  # noqa: F401

Multeity = dict[str, FuzzyScalar]


class Form(str, Enum):
    """Operator form: Line, Distribution, Fusion, Multi."""

    L = "L"
    D = "D"
    F = "F"
    M = "M"


def valence_matches(form: Form, w: int, v: int) -> bool:
    """Strict operand/image counts per form: L=(1,1), D=(1,>=2), F=(>=2,1), M=(>=2,>=2).

    The operator functions themselves are deliberately looser (any W, V >= 1)
    so degenerate valences can be cross-checked; scenarios enforce this rule.
    """
    one_operand, one_image = form in (Form.L, Form.D), form in (Form.L, Form.F)
    return (w == 1 if one_operand else w >= 2) and (v == 1 if one_image else v >= 2)


class OperatorSpec(_Record):
    """Description of one operator application inside a scenario.

    ``operands``/``images`` are entity ids; ``radices`` has one radix per
    operand, ``rates`` one conversion rate per image.  The record itself is
    permissive; :func:`validate` reports valence and radix
    violations as diagnostics instead of raising here.
    """

    __slots__ = ("form", "operands", "images", "radices", "rates")

    def __init__(
        self, form: Form | str, operands: Iterable[str], images: Iterable[str],
        radices: Iterable[FuzzyScalar], rates: Iterable[FuzzyScalar],
    ):
        self._init(Form(form), tuple(operands), tuple(images), tuple(radices), tuple(rates))


class Scenario(_Record):
    __slots__ = ("initial", "steps", "options")

    def __init__(self, initial: Mapping, steps: Iterable[OperatorSpec], options=DEFAULT_OPTIONS):
        self._init(dict(initial), tuple(steps), options)


class Diagnostic(_Record):
    """One validation finding; ``step`` is None for multeity-level issues."""

    __slots__ = ("step", "message")

    def __init__(self, step: int | None, message: str):
        self._init(step, message)

    def __str__(self) -> str:
        if self.step is None:
            return self.message
        return f"step {self.step}: {self.message}"


class _State(Mapping):
    """The multeity after step ``index``: a read-only view of the write history."""

    def __init__(self, history: dict[str, tuple[list[int], list]], index: int):
        self._history, self._index = history, index

    def __getitem__(self, entity_id: str) -> FuzzyScalar:
        indices, values = self._history[entity_id]
        return values[bisect_right(indices, self._index) - 1]

    def __len__(self) -> int:
        return len(self._history)

    def __iter__(self):
        return iter(self._history)


class TraceStep(_Record):
    __slots__ = ("index", "spec", "result", "state")

    def __init__(self, index: int, spec: OperatorSpec, result: TransformResult, state: Mapping):
        self._init(index, spec, result, state)


class Trace(_Record):
    __slots__ = ("steps", "final", "warnings")

    def __init__(self, steps: tuple[TraceStep, ...], final: Multeity, warnings: tuple[str, ...]):
        self._init(steps, final, warnings)


def validate(scenario: Scenario) -> list[Diagnostic]:
    """All reasons the scenario cannot run; empty list means runnable.

    One pass classifies each initial cardinal, radix and rate once.  A step
    moves its known entities into its joint family, as ``run`` writes them,
    so a mix that an earlier step makes is reported before any step runs.  A
    value that is not a fuzzy scalar is reported on its own, not as a mix.
    """
    return _plan(scenario)[0]


def _plan(scenario: Scenario) -> tuple[list[Diagnostic], list[str]]:
    """:func:`validate`'s diagnostics, and the plan for :func:`run`: each step's joint family."""
    out: list[Diagnostic] = []
    joints: list[str] = []
    families: dict[str, str | None] = {}
    for entity_id, cardinal in scenario.initial.items():
        if not isinstance(entity_id, str) or not entity_id:
            out.append(Diagnostic(None, f"entity id {entity_id!r} must be a nonempty string"))
        try:
            families[entity_id] = family(cardinal)
        except DomainError:
            families[entity_id] = None
            out.append(Diagnostic(None, f"entity {entity_id!r} has an invalid cardinal"))
    for index, step in enumerate(scenario.steps):
        w, v = len(step.operands), len(step.images)
        if not valence_matches(step.form, w, v):
            out.append(Diagnostic(index, f"form {step.form.value} cannot take valence ({w}, {v})"))
        if len(step.radices) != w:
            out.append(Diagnostic(index, f"{len(step.radices)} radices for {w} operands"))
        if len(step.rates) != v:
            out.append(Diagnostic(index, f"{len(step.rates)} rates for {v} images"))
        entities = (*step.operands, *step.images)
        for entity_id in entities:
            if entity_id not in families:
                out.append(Diagnostic(index, f"unknown entity '{entity_id}'"))
        overlap = set(step.operands) & set(step.images)
        if overlap:
            out.append(Diagnostic(index, f"operand and image entities overlap: {sorted(overlap)}"))
        for role, ids in (("operand", step.operands), ("image", step.images)):
            if len(set(ids)) < len(ids):
                repeated = sorted(e for e, n in Counter(ids).items() if n > 1)
                out.append(Diagnostic(index, f"{role} entities listed more than once: {repeated}"))
        tags = [families.get(e) for e in entities]
        rules = [("radix", n, _check_radix) for n in step.radices]
        rules += [("rate", r, partial(_check_natural, what="conversion rate")) for r in step.rates]
        for what, value, rule in rules:
            try:
                tags.append(family(value))
            except DomainError:
                out.append(Diagnostic(index, f"{what} {value!r} is not a fuzzy scalar"))
                continue
            try:
                rule(value)
            except (DomainError, InvalidRadixError) as exc:
                out.append(Diagnostic(index, str(exc)))
        try:
            joint = _join_families(filter(None, tags))
        except MixedFamilyError:
            out.append(Diagnostic(index, "step mixes discrete and triangular values"))
        else:
            families.update((e, joint) for e in entities if e in families)
            joints.append(joint)
    return out, joints


def run(scenario: Scenario) -> Trace:
    """Apply every step in order, threading the multeity state through.

    Raises ScenarioValidationError up front if validation fails, and
    StepExecutionError (with the step index) if an operator rejects its
    inputs mid-run or a value grows too long to convert to text.
    """
    diagnostics, joints = _plan(scenario)
    if diagnostics:
        raise ScenarioValidationError(diagnostics)
    state: Multeity = dict(scenario.initial)
    history = {entity_id: ([-1], [value]) for entity_id, value in state.items()}
    trace_steps: list[TraceStep] = []
    warnings: list[str] = []
    for index, (step, joint) in enumerate(zip(scenario.steps, joints)):
        try:
            result = _transform(
                _FAMILIES[joint], step.form in (Form.F, Form.M),
                [state[e] for e in step.operands], [state[e] for e in step.images],
                step.radices, step.rates, scenario.options, step.operands, step.images,
            )
        except (FuzzySnsError, ValueError) as exc:
            raise StepExecutionError(index, exc) from exc
        for entity_id, value in (*result.remainders.items(), *result.new_image_cardinals.items()):
            state[entity_id] = value
            history[entity_id][0].append(index)
            history[entity_id][1].append(value)
        warnings.extend(f"step {index}: {w}" for w in result.warnings)
        trace_steps.append(TraceStep(index, step, result, _State(history, index)))
    return Trace(tuple(trace_steps), state, tuple(warnings))
