"""The crisp projection of a fuzzy run is the crisp run, step by step.

Take the mode of every triangular value and the core (the one value of grade
1) of every discrete value.  When each discrete value a scenario starts with
(initial cardinals, radices and rates) has a single value of grade 1, the
projection of every step's partial carries, common carry, remainders,
transformants, new images and state equals the same step of the crisp run on
the projected scenario: the same ids, forms, remainder mode and clamping.
It holds because the triangular rules act on the modes componentwise, sup-min
maps cores to cores, a formed discrete carry keeps the least mode at grade 1
and a clamp never moves a core, crisp remainders being non-negative.

A fuzzy run can stop where the crisp run goes on: a lower bound or support
value below 0 that the crisp run never sees becomes a later operand.  Such a
run is compared on the steps before the one that failed; the crisp run never
stops first.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzysns import (
    DiscreteFuzzyNumber,
    Form,
    OperatorSpec,
    Scenario,
    StepExecutionError,
    TransformOptions,
    TriangularFuzzyNumber,
    run,
    validate,
)
from test_cli import random_scenario


def project(value):
    """The mode of a triangular value, the core of a discrete one, a crisp value itself."""
    if isinstance(value, TriangularFuzzyNumber):
        return value.mode
    if isinstance(value, DiscreteFuzzyNumber):
        core = [v for v, g in value.points if g == 1]
        assert len(core) == 1, f"{value} has no single value of grade 1"
        return core[0]
    return value


def in_scope(scenario):
    """Every discrete value the scenario starts with has a single value of grade 1."""
    values = [*scenario.initial.values()]
    for step in scenario.steps:
        values += [*step.radices, *step.rates]
    return all(
        sum(g == 1 for _, g in value.points) == 1
        for value in values if isinstance(value, DiscreteFuzzyNumber)
    )


def crisp_projection(scenario):
    steps = [
        OperatorSpec(step.form, step.operands, step.images,
                     map(project, step.radices), map(project, step.rates))
        for step in scenario.steps
    ]
    initial = {e: project(value) for e, value in scenario.initial.items()}
    return Scenario(initial, steps, scenario.options)


def projected_steps(scenario):
    """Per step: every value of the result and the state, projected; and the failing step.

    A run can only stop on an operand below 0, which no crisp run holds.
    """
    try:
        trace, failed = run(scenario), None
    except StepExecutionError as exc:
        assert str(exc.cause).startswith("operand cardinal must be >= 0"), exc
        failed = exc.step
        trace = run(Scenario(scenario.initial, scenario.steps[:failed], scenario.options))
    steps = []
    for step in trace.steps:
        result = step.result
        maps = (result.partial_carries, result.remainders, result.transformants,
                result.new_image_cardinals, step.state)
        carry = None if result.common_carry is None else project(result.common_carry)
        steps.append(([{e: project(v) for e, v in m.items()} for m in maps], carry))
    return steps, failed


def check_law(scenario):
    """Assert the law on one runnable, in-scope scenario; True when the fuzzy run stops early."""
    crisp = crisp_projection(scenario)
    assert validate(crisp) == []
    want, crisp_failed = projected_steps(crisp)
    got, failed = projected_steps(scenario)
    assert crisp_failed in (None, failed)
    assert got == want[:len(got)]
    if failed is None:
        assert len(got) == len(want)
    return failed is not None


def test_law_on_seeded_random_scenarios():
    checked = stopped = 0
    for seed in range(600):
        scenario = random_scenario(random.Random(seed))
        if validate(scenario) or not in_scope(scenario):
            continue
        stopped += check_law(scenario)
        checked += 1
    assert checked >= 500 and 0 < stopped < checked, (checked, stopped)


def _dfn(draw, low, high):
    values = draw(st.lists(st.integers(low, high), min_size=1, max_size=4, unique=True))
    grades = {v: draw(st.sampled_from(("0.2", "0.5", "0.8", "1/3"))) for v in values}
    grades[draw(st.sampled_from(values))] = 1
    return DiscreteFuzzyNumber(grades)


def _tfn(draw, low, high):
    a = draw(st.integers(low, high))
    m = draw(st.integers(a, high))
    return TriangularFuzzyNumber(a, m, draw(st.integers(m, high)))


@st.composite
def fuzzy_scenarios(draw):
    """A runnable scenario in one fuzzy family, crisp values mixed in, in scope of the law."""
    fuzzy = draw(st.sampled_from((_dfn, _tfn)))

    def scalar(low, high):
        return fuzzy(draw, low, high) if draw(st.booleans()) else draw(st.integers(low, high))

    names = [f"e{k}" for k in range(draw(st.integers(2, 6)))]
    initial = {name: scalar(0, 30) for name in names}
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        form = draw(st.sampled_from(list(Form) if len(names) >= 4 else [Form.L]))
        w = 1 if form in (Form.L, Form.D) else 2
        v = 1 if form in (Form.L, Form.F) else 2
        chosen = draw(st.permutations(names))[:w + v]
        radices = [scalar(1, 6) for _ in range(w)]
        rates = [scalar(0, 4) for _ in range(v)]
        steps.append(OperatorSpec(form, chosen[:w], chosen[w:], radices, rates))
    mode = draw(st.sampled_from(("correlated", "extension")))
    options = TransformOptions(mode, clamp_negative=draw(st.booleans()))
    return Scenario(initial, steps, options)


@given(fuzzy_scenarios())
@settings(max_examples=150, deadline=None)
def test_law_on_generated_scenarios(scenario):
    assert validate(scenario) == [] and in_scope(scenario)
    check_law(scenario)
