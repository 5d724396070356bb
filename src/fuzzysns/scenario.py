"""Named entities with fuzzy cardinals plus an ordered list of operator steps.

A scenario holds the initial state of a multeity (entity id -> cardinal), the
operator steps to apply in order, and the transform options.  Running it
yields a trace: per step, the transform result and a read-only view of the
state after remainders go back to operands and new cardinals to images; the
views read each value where the step result holds it.  Evaluation is
single-pass and strictly sequential; remainders do not feed back into the
same step, and entities a step does not name are untouched by it.  Steps are the
operators' :class:`OperatorSpec` records, each run as it is; the valence of each
:class:`Form` (:func:`valence_matches`) is a scenario rule, as the operators accept any W, V >= 1.
:func:`validate` checks a whole scenario in one pass before anything runs.
It follows each entity's family through the steps, so a step that would mix
discrete and triangular values is refused up front, not part-way through.
The same pass plans the run, each step's joint family, which :func:`run`
applies without classifying the step's values again.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Mapping

from .errors import (
    DomainError,
    FuzzySnsError,
    MixedFamilyError,
    ScenarioValidationError,
    StepExecutionError,
    _typed,
)
from .numbers import FuzzyScalar, _check_natural, _check_radix, _join_families, _Record, family
from .numbers import _pairs, _shown
from .operators import DEFAULT_OPTIONS, Form, OperatorSpec, TransformOptions, TransformResult
from .operators import _repeated, _transform

# Not called here: run applies each step through _transform.  The benchmark's
# tracer (perfbench/tracer.py) wraps these names and fails when one is missing.
from .operators import apply_D, apply_F, apply_L, apply_M  # noqa: F401

Multeity = dict[str, FuzzyScalar]


def valence_matches(form: Form | str, w: int, v: int) -> bool:
    """Strict operand/image counts per form: L=(1,1), D=(1,>=2), F=(>=2,1), M=(>=2,>=2).

    The operator functions themselves are deliberately looser (any W, V >= 1)
    so degenerate valences can be cross-checked; scenarios enforce this rule.
    """
    form, w, v = Form(form), _typed(w, int, "w"), _typed(v, int, "v")  # a Form or its letter
    return (w >= 2 if form.fuses else w == 1) and (v >= 2 if form.fans_out else v == 1)


class Scenario(_Record):
    __slots__ = ("initial", "steps", "options")

    def __init__(self, initial: Mapping, steps: Iterable[OperatorSpec], options=DEFAULT_OPTIONS):
        initial, steps = dict(_pairs(initial, "initial")), tuple(_typed(steps, Iterable, "steps"))
        for k, step in enumerate(steps):
            _typed(step, OperatorSpec, f"steps[{k}]")
        self._init(initial, steps, _typed(options, TransformOptions, "options"))


class Diagnostic(_Record):
    """One validation finding; ``step`` is None for multeity-level issues."""

    __slots__ = ("step", "message")

    def __init__(self, step: int | None, message: str):
        self._init(step, message)

    def __str__(self) -> str:
        return self.message if self.step is None else f"step {self.step}: {self.message}"


class _State(Mapping):
    """The multeity after step ``index``: a read-only view of the step results.

    ``run`` is the (initial copy, write indices per entity, results) tuple all states share; a
    written entity holds its last writer's remainder or new image, read from its flat values.
    """

    __slots__ = ("_run", "_index")

    def __init__(self, run: tuple[Multeity, dict[str, list[int]], list], index: int):
        self._run, self._index = run, index

    def __getitem__(self, entity_id: str) -> FuzzyScalar:
        initial, writes, results = self._run
        indices = writes[entity_id]
        if not (k := bisect_right(indices, self._index)):
            return initial[entity_id]
        for ids, values in results[indices[k - 1]]._written():
            if entity_id in ids:
                return values[ids.index(entity_id)]

    def __len__(self) -> int:
        return len(self._run[1])

    def __iter__(self):
        return iter(self._run[1])


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

    One pass classifies each initial cardinal, radix and rate once and follows each
    entity's family as ``run`` writes it, so a mix made by an earlier step is reported
    up front; a non-scalar value is reported on its own.  Ids may be any values (an
    unhashable one is an unknown entity); overlaps and repeats list them in
    first-appearance order, as ``apply_*`` do.
    """
    return _plan(scenario)[0]


def _plan(scenario: Scenario) -> tuple[list[Diagnostic], list[str]]:
    """:func:`validate`'s diagnostics and :func:`run`'s plan, each step's joint family."""
    _typed(scenario, Scenario, "scenario")
    out: list[Diagnostic] = []
    joints: list[str] = []
    families: dict[str, str | None] = {}
    for entity_id, cardinal in scenario.initial.items():
        if not isinstance(entity_id, str) or not entity_id:
            message = f"entity id {_shown(entity_id)} must be a nonempty string"
            out.append(Diagnostic(None, message))
        try:
            families[entity_id] = family(cardinal)
        except DomainError:
            families[entity_id] = None
            out.append(Diagnostic(None, f"entity {_shown(entity_id)} has an invalid cardinal"))
    for index, step in enumerate(scenario.steps):
        w, v, r = len(step.operands), len(step.images), len(step.radices)
        if not valence_matches(step.form, w, v):
            out.append(Diagnostic(index, f"form {step.form.value} cannot take valence ({w}, {v})"))
        if r != w:
            out.append(Diagnostic(index, f"{r} radices for {w} operands"))
        if len(step.rates) != v:
            out.append(Diagnostic(index, f"{len(step.rates)} rates for {v} images"))
        entities = (*step.operands, *step.images)
        try:
            repeats, known = len(set(entities)) < len(entities), families
        except TypeError:  # an unhashable id is unknown, and the set-based checks skip the step
            repeats, known = False, [*families]  # compared by ==, which needs no hash
        if unknown := [e for e in entities if e not in known]:
            out += [Diagnostic(index, f"unknown entity '{_shown(e, str)}'") for e in unknown]
            entities = [e for e in entities if e in known]
        if repeats:  # else no operand is also an image and no id is listed twice
            if shared := set(step.images).intersection(step.operands):
                overlap = [e for e in dict.fromkeys(step.operands) if e in shared]
                message = f"operand and image entities overlap: {_shown(overlap)}"
                out.append(Diagnostic(index, message))
            for role, ids in (("operand", step.operands), ("image", step.images)):
                if repeated := _repeated(ids):
                    message = f"{role} entities listed more than once: {_shown(repeated)}"
                    out.append(Diagnostic(index, message))
        tags = [families.get(e) for e in entities]
        for k, value in enumerate((*step.radices, *step.rates)):
            what = "radix" if k < r else "rate"
            try:
                tags.append(family(value))
            except DomainError:
                out.append(Diagnostic(index, f"{what} {_shown(value)} is not a fuzzy scalar"))
                continue
            try:
                _check_natural(value, "conversion rate") if what == "rate" else _check_radix(value)
            except ValueError as exc:
                out.append(Diagnostic(index, str(exc)))
        try:
            joint = _join_families(filter(None, tags))
        except MixedFamilyError:
            out.append(Diagnostic(index, "step mixes discrete and triangular values"))
        else:
            families.update(dict.fromkeys(entities, joint))
            joints.append(joint)
    return out, joints


def run(scenario: Scenario) -> Trace:
    """Apply every step in order; each written value is held once, by its step result.

    A result holds the step's own id tuples and one tuple of values; no map is built here.
    Besides the results, only a copy of ``scenario.initial``, the steps that wrote each entity
    and the current values (``Trace.final``) are kept; step states read these.  Raises
    ScenarioValidationError if validation fails, StepExecutionError (with the index) if a step does.
    """
    diagnostics, joints = _plan(scenario)
    if diagnostics:
        raise ScenarioValidationError(diagnostics)
    current = dict(scenario.initial)
    writes: dict[str, list[int]] = {entity_id: [] for entity_id in current}
    # States read results, not trace_steps: each TraceStep holds its state, so that is a cycle.
    results: list[TransformResult] = []
    shared = (dict(current), writes, results)  # a copy: editing scenario.initial changes no state
    trace_steps: list[TraceStep] = []
    for index, (step, joint) in enumerate(zip(scenario.steps, joints)):
        try:
            result = _transform(
                joint, step, [current[e] for e in step.operands],
                [current[e] for e in step.images], scenario.options,
            )
        except (FuzzySnsError, ValueError) as exc:
            raise StepExecutionError(index, exc) from exc
        for ids, values in result._written():
            current.update(zip(ids, values))
            for entity_id in ids:
                writes[entity_id].append(index)
        results.append(result)
        trace_steps.append(TraceStep(index, step, result, _State(shared, index)))
    warnings = tuple(f"step {t.index}: {w}" for t in trace_steps for w in t.result.warnings)
    return Trace(tuple(trace_steps), current, warnings)
