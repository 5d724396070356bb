"""Every triangular step of a whole run follows the interval rules at alpha = 0 and 1.

Read a step's operands and images from the state before it, and its radices
and rates from its spec, a crisp value as the degenerate triple (v; v; v).
When the step's joint family is triangular, each triple it computes has as
its bounds the alpha = 0 interval rule, the least and the greatest of ``op``
over the four corners of its arguments' bounds, and as its mode ``op`` on the
arguments' modes, the alpha = 1 rule:

- partial carry ``N // n``, and the common carry of F and M, ``min`` of the
  partials in operand order;
- remainder ``N - p * n``, each ``op`` by the rule in turn, then ``max(0, .)``
  on each component when ``clamp_negative`` is set; only its lower bound can
  be below 0, since p <= N // n keeps its mode and upper bound at 0 or above;
- transformant ``p * r`` and new image ``image + p * r``.

``oracle.equivalence_suite`` checks the same rules one call at a time; this
checks them on every step of seeded ``random_scenario`` runs, where a step's
values are earlier steps' results.  A run that stops on an operand below 0 is
checked on the steps before the one that failed.
"""

import random
from functools import reduce
from operator import add, floordiv, mul, sub

from fuzzysns import (
    Form,
    Scenario,
    StepExecutionError,
    TriangularFuzzyNumber,
    joint_family,
    run,
    validate,
)
from fuzzysns.numbers import TRIANGULAR
from test_cli import random_scenario


def triple(value):
    if isinstance(value, TriangularFuzzyNumber):
        return value.lower, value.mode, value.upper
    return value, value, value


def rule(op, a, b):
    """``op`` on two triples: the bounds over the four corners (alpha = 0), the mode on the modes."""
    corners = [op(x, y) for x in (a[0], a[2]) for y in (b[0], b[2])]
    return min(corners), op(a[1], b[1]), max(corners)


def check_step(spec, before, result, clamp):
    operands = [triple(before[e]) for e in spec.operands]
    radices = [triple(n) for n in spec.radices]
    partials = [rule(floordiv, big_n, n) for big_n, n in zip(operands, radices)]
    assert [triple(result.partial_carries[e]) for e in spec.operands] == partials
    if spec.form in (Form.F, Form.M):
        carry = reduce(lambda a, b: rule(min, a, b), partials)
        assert triple(result.common_carry) == carry
    else:
        carry = partials[0]
        assert result.common_carry is None
    for e, big_n, n in zip(spec.operands, operands, radices):
        rem = rule(sub, big_n, rule(mul, carry, n))
        assert rem[1] >= 0 and rem[2] >= 0, rem
        if clamp:
            rem = tuple(max(0, x) for x in rem)
        assert triple(result.remainders[e]) == rem
    for e, r in zip(spec.images, spec.rates):
        q = rule(mul, carry, triple(r))
        assert triple(result.transformants[e]) == q
        assert triple(result.new_image_cardinals[e]) == rule(add, triple(before[e]), q)


def check_run(scenario):
    """Check every triangular step of one valid scenario; the forms of the steps checked."""
    try:
        trace = run(scenario)
    except StepExecutionError as exc:
        assert str(exc.cause).startswith("operand cardinal must be >= 0"), exc
        trace = run(Scenario(scenario.initial, scenario.steps[:exc.step], scenario.options))
    checked, before = [], scenario.initial
    for step in trace.steps:
        spec = step.spec
        values = [before[e] for e in (*spec.operands, *spec.images)]
        if joint_family([*values, *spec.radices, *spec.rates]) == TRIANGULAR:
            check_step(spec, before, step.result, scenario.options.clamp_negative)
            checked.append(spec.form)
        before = step.state
    return checked


def test_triangular_steps_of_seeded_random_runs():
    checked = []
    for seed in range(400):
        scenario = random_scenario(random.Random(seed))
        if not validate(scenario):
            checked += check_run(scenario)
    assert len(checked) >= 300 and set(checked) == set(Form), (len(checked), set(checked))
