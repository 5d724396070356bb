"""The public API's type contract.

An argument of the wrong Python type raises a TypeError whose message starts with the name of
the parameter; a value of the right type outside the domain raises a FuzzySnsError.  No
AttributeError, unpacking ValueError or TypeError with another message escapes.  A form is read
by ``Form``, whose ValueError for what is not a form is kept.
"""

import inspect
import itertools
import operator
from fractions import Fraction

import pytest

import fuzzysns
from fuzzysns import (
    DiscreteFuzzyNumber, FuzzySnsError, OperatorSpec, Scenario, TransformOptions,
    TriangularFuzzyNumber, parse_fraction, parse_scalar, run, scenario_to_json, validate,
)
from fuzzysns.formats import parse_discrete, parse_triangular

# Each function, its parameter and the type it takes.
_FUNCTIONS = [
    (run, "scenario must be Scenario"),
    (validate, "scenario must be Scenario"),
    (scenario_to_json, "scenario must be Scenario"),
    (parse_triangular, "text must be str"),
    (parse_discrete, "text must be str"),
    (parse_scalar, "text must be str"),
    (parse_fraction, "text must be str"),
]
_VALUES = [7, None, b"x", [], object()]


@pytest.mark.parametrize("function,rule", _FUNCTIONS, ids=[f.__name__ for f, _ in _FUNCTIONS])
@pytest.mark.parametrize("value", _VALUES, ids=["int", "None", "bytes", "list", "object"])
def test_a_wrong_argument_type_is_a_type_error_naming_the_parameter(function, rule, value):
    with pytest.raises(TypeError) as caught:
        function(value)
    assert type(caught.value) is TypeError
    assert str(caught.value) == f"{rule}, not {type(value).__name__}"


_TRI, _DFN = TriangularFuzzyNumber(1, 2, 3), DiscreteFuzzyNumber({1: 1})
# The value set: each outcome string below has one letter per value, in this order.
_ZOO = [None, 7, -3, True, 2.5, "x", [], (1, 2, 3), {}, Fraction(1, 3), _TRI, _DFN, object()]
_SCENARIO = Scenario({"a": 1}, [])

# Every public callable with 1 to 3 required positional parameters (equivalence_suite,
# random_dfn and main left out): arguments it accepts, one per parameter tried.
_VALID = {
    "Diagnostic": (0, "m"),
    "DiscreteFuzzyNumber": ({1: 1},),
    "Form": ("L",),
    "ParseError": ("m",),
    "Scenario": ({"a": 1}, [], TransformOptions()),
    "ScenarioValidationError": ([],),
    "StepExecutionError": (0, ValueError("x")),
    "Trace": ((), {}, ()),
    "TriangularFuzzyNumber": (1, 2, 3),
    "as_grade": (1,),
    "common_carry_dfn": ([_DFN],),
    "common_carry_tri": ([_TRI],),
    "crisp_value": (7,),
    "dfn_floor_div": (_DFN, 2),
    "dfn_mod": (_DFN, 2),
    "dfn_zadeh_binary": (operator.add, _DFN, _DFN),
    "family": (7,),
    "format_fraction": (1,),
    "format_scalar": (7,),
    "joint_family": ([7],),
    "lift_discrete": (7,),
    "lift_triangular": (7,),
    "parse_fraction": ("1",),
    "parse_scalar": ("7",),
    "run": (_SCENARIO,),
    "scenario_from_json": ('{"entities": []}',),
    "scenario_to_json": (_SCENARIO,),
    "tfn_add": (_TRI, _TRI),
    "tfn_floor_div": (_TRI, _TRI),
    "tfn_membership": (2, _TRI),
    "tfn_mul": (_TRI, _TRI),
    "tfn_scale": (_TRI, 2),
    "tfn_sub": (_TRI, _TRI),
    "valence_matches": ("L", 1, 1),
    "validate": (_SCENARIO,),
    "zadeh_oracle": (operator.add, _DFN, _DFN),
}

# (callable, parameter) -> the outcome of each value of _ZOO in that parameter, the other
# arguments valid: "." returns, "T" TypeError naming the parameter, "E" FuzzySnsError,
# "V" Form's ValueError.
_TABLE = {
    ("Diagnostic", "step"): ".............",
    ("Diagnostic", "message"): ".............",
    ("DiscreteFuzzyNumber", "points"): "TTTTTEEEETTTT",
    ("Form", "value"): "VVVVVVVVVVVVV",
    ("ParseError", "message"): ".............",
    ("Scenario", "initial"): "TTTTTE.E.TTTT",
    ("Scenario", "steps"): "TTTTTT.T.TTTT",
    ("Scenario", "options"): "TTTTTTTTTTTTT",
    ("ScenarioValidationError", "diagnostics"): "TTTTT....TTTT",
    ("StepExecutionError", "step"): ".............",
    ("StepExecutionError", "cause"): ".............",
    ("Trace", "steps"): ".............",
    ("Trace", "final"): ".............",
    ("Trace", "warnings"): ".............",
    ("TriangularFuzzyNumber", "lower"): "EE.EEEEEEEEEE",
    ("TriangularFuzzyNumber", "mode"): "EEEEEEEEEEEEE",
    ("TriangularFuzzyNumber", "upper"): "E.EEEEEEEEEEE",
    ("as_grade", "value"): "EEEEEEEEE.EEE",
    ("common_carry_dfn", "partials"): "TTTTTEEETTTTT",
    ("common_carry_tri", "partials"): "TTTTTEEETTTTT",
    ("crisp_value", "value"): "E..EEEEEEE..E",
    ("dfn_floor_div", "a"): "EEEEEEEEEEE.E",
    ("dfn_floor_div", "n"): "E.EEEEEEEEE.E",
    ("dfn_mod", "a"): "EEEEEEEEEEE.E",
    ("dfn_mod", "n"): "E.EEEEEEEEE.E",
    ("dfn_zadeh_binary", "op"): "TTTTTTTTTTTTT",
    ("dfn_zadeh_binary", "a"): "EEEEEEEEEEE.E",
    ("dfn_zadeh_binary", "b"): "EEEEEEEEEEE.E",
    ("family", "value"): "E..EEEEEEE..E",
    ("format_fraction", "value"): "E..E.EEEE.EEE",
    ("format_scalar", "value"): "E..EEEEEEE..E",
    ("joint_family", "values"): "TTTTTE...TTTT",
    ("lift_discrete", "value"): "E..EEEEEEEE.E",
    ("lift_triangular", "value"): "E..EEEEEEE.EE",
    ("parse_fraction", "text"): "TTTTTETTTTTTT",
    ("parse_scalar", "text"): "TTTTTETTTTTTT",
    ("run", "scenario"): "TTTTTTTTTTTTT",
    ("scenario_from_json", "text"): "TTTTTETTTTTTT",
    ("scenario_to_json", "scenario"): "TTTTTTTTTTTTT",
    ("tfn_add", "a"): "EEEEEEEEEE.EE",
    ("tfn_add", "b"): "EEEEEEEEEE.EE",
    ("tfn_floor_div", "num"): "EEEEEEEEEE.EE",
    ("tfn_floor_div", "div"): "EEEEEEEEEE.EE",
    ("tfn_membership", "x"): "E..E.EEEE.EEE",
    ("tfn_membership", "a"): "EEEEEEEEEE.EE",
    ("tfn_mul", "a"): "EEEEEEEEEE.EE",
    ("tfn_mul", "b"): "EEEEEEEEEE.EE",
    ("tfn_scale", "a"): "EEEEEEEEEE.EE",
    ("tfn_scale", "c"): "E.EEEEEEEEEEE",
    ("tfn_sub", "a"): "EEEEEEEEEE.EE",
    ("tfn_sub", "b"): "EEEEEEEEEE.EE",
    ("valence_matches", "form"): "VVVVVVVVVVVVV",
    ("valence_matches", "w"): "T...TTTTTTTTT",
    ("valence_matches", "v"): "T...TTTTTTTTT",
    ("validate", "scenario"): "TTTTTTTTTTTTT",
    ("zadeh_oracle", "op"): "TTTTTTTTTTTTT",
    ("zadeh_oracle", "a"): "TTTTTTTTTTT.T",
    ("zadeh_oracle", "b"): "TTTTTTTTTTT.T",
}


def _required(function) -> list[str]:
    parameters = inspect.signature(function).parameters.values()
    return [p.name for p in parameters if p.default is p.empty
            and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


def _outcome(function, args) -> str:
    """The letter of one call's outcome; a broken contract raises it."""
    try:
        function(*args)
    except FuzzySnsError:
        return "E"
    except TypeError as exc:
        names = list(inspect.signature(function).parameters)
        if any(str(exc).startswith((f"{name} must be ", f"{name}[")) for name in names):
            return f"T{str(exc).partition(' ')[0].partition('[')[0]}"
        raise
    except ValueError as exc:
        if str(exc).endswith("is not a valid Form"):
            return "V"
        raise
    return "."


def test_the_table_covers_every_public_callable_with_one_to_three_required_arguments():
    skipped = {"equivalence_suite", "random_dfn", "main"}
    in_scope = set()
    for name in set(fuzzysns.__all__) - skipped:
        value = getattr(fuzzysns, name)
        try:
            required = _required(value)
        except (TypeError, ValueError):  # no signature: the exception classes taking *args
            continue
        if 1 <= len(required) <= 3:
            in_scope.add(name)
    assert set(_VALID) == in_scope
    assert {name for name, _ in _TABLE} == in_scope


@pytest.mark.parametrize("name,parameter", _TABLE, ids=[f"{n}-{p}" for n, p in _TABLE])
def test_each_value_in_each_parameter_has_its_outcome(name, parameter):
    function, valid = getattr(fuzzysns, name), _VALID[name]
    k = list(inspect.signature(function).parameters).index(parameter)
    assert _outcome(function, valid) == "."
    outcomes = [_outcome(function, (*valid[:k], value, *valid[k + 1:])) for value in _ZOO]
    # A TypeError must name this parameter, not another one.
    assert {o[1:] for o in outcomes if o.startswith("T")} <= {parameter}
    assert "".join(o[0] for o in outcomes) == _TABLE[name, parameter]


def test_no_combination_of_values_lets_an_internal_error_out():
    """Every public callable in the table, with every combination of the values."""
    calls = 0
    for name in _VALID:
        function = getattr(fuzzysns, name)
        for args in itertools.product(_ZOO, repeat=len(_required(function))):
            _outcome(function, args)  # raises what the contract does not allow
            calls += 1
    assert calls == 13_104


_SPEC = OperatorSpec("L", ["a"], ["b"], [2], [1])


@pytest.mark.parametrize("call,error,message", [
    (lambda: Scenario({"a": 5, "b": 0}, [_SPEC], 7), TypeError,
     "options must be TransformOptions, not int"),
    (lambda: Scenario({"a": 1}, [7]), TypeError, "steps[0] must be OperatorSpec, not int"),
    (lambda: Scenario({"a": 1}, [_SPEC, 7]), TypeError, "steps[1] must be OperatorSpec, not int"),
    (lambda: Scenario(7, []), TypeError, "initial must be Iterable, not int"),
    (lambda: Scenario("x", []), FuzzySnsError, "initial must be a mapping or pairs, got 'x'"),
    (lambda: DiscreteFuzzyNumber("x"), FuzzySnsError, "points must be a mapping or pairs, got 'x'"),
    (lambda: DiscreteFuzzyNumber(7), TypeError, "points must be Iterable, not int"),
    (lambda: DiscreteFuzzyNumber([(1, 1, 1)]), FuzzySnsError,
     "points must be a mapping or pairs, got (1, 1, 1)"),
    (lambda: fuzzysns.common_carry_dfn(7), TypeError, "partials must be Sequence, not int"),
    (lambda: fuzzysns.common_carry_tri(7), TypeError, "partials must be Sequence, not int"),
    (lambda: fuzzysns.joint_family(7), TypeError, "values must be Iterable, not int"),
    (lambda: fuzzysns.zadeh_oracle(7, 7, 7), TypeError, "op must be Callable, not int"),
    (lambda: fuzzysns.zadeh_oracle(operator.add, _DFN, 7), TypeError,
     "b must be DiscreteFuzzyNumber, not int"),
    (lambda: fuzzysns.apply_D(1, 7, 2, 7), TypeError, "images must be Sequence, not int"),
    (lambda: fuzzysns.apply_F([1], 0, 7, 1), TypeError, "radices must be Sequence, not int"),
    (lambda: fuzzysns.apply_L(5, 0, 2, 1, options=7), TypeError,
     "options must be TransformOptions, not int"),
    (lambda: fuzzysns.apply_M([5], [0], [2], [1], options=None), TypeError,
     "options must be TransformOptions, not NoneType"),
    (lambda: fuzzysns.format_scalar(True), FuzzySnsError, "not a fuzzy scalar: True"),
    (lambda: fuzzysns.scenario_from_json(b"{}"), TypeError, "text must be str, not bytes"),
    (lambda: fuzzysns.ScenarioValidationError(7), TypeError,
     "diagnostics must be Iterable, not int"),
])
def test_a_refusal_names_the_parameter_or_the_value(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def test_format_scalar_refuses_any_other_object():
    with pytest.raises(FuzzySnsError, match="^not a fuzzy scalar: <object object at "):
        fuzzysns.format_scalar(object())
