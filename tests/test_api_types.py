"""The public API's type contract.

An argument of the wrong Python type raises a TypeError whose message starts with the name of
the parameter; a value of the right type outside the domain raises a FuzzySnsError.  No
AttributeError, unpacking ValueError or TypeError with another message escapes.  A form is read
by ``Form``, whose ValueError for what is not a form is kept.
"""

import functools
import inspect
import itertools
import operator
import re
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


# --- the keyword and 4-or-more-parameter paths --------------------------------------------

_TRI_SUM = TriangularFuzzyNumber(2, 4, 6)
# Every callable with a keyword or 4 or more parameters that the table above does not reach:
# a valid call, by keyword.
_VALID_CALLS = {
    "apply_L": dict(operand=5, image=0, radix=2, rate=1, options=TransformOptions(),
                    operand_id="a", image_id="b"),
    "apply_D": dict(operand=5, images=[0, 0], radix=2, rates=[1, 1], options=TransformOptions(),
                    operand_id="a", image_ids=["b", "c"]),
    "apply_F": dict(operands=[5, 7], image=0, radices=[2, 3], rate=1, options=TransformOptions(),
                    operand_ids=["a", "c"], image_id="b"),
    "apply_M": dict(operands=[5, 7], images=[0, 0], radices=[2, 3], rates=[1, 1],
                    options=TransformOptions(), operand_ids=["a", "c"], image_ids=["b", "d"]),
    "crisp_L": dict(operand=5, image=0, radix=2, rate=1, operand_id="a", image_id="b"),
    "crisp_D": dict(operand=5, images=[0, 0], radix=2, rates=[1, 1], operand_id="a",
                    image_ids=["b", "c"]),
    "crisp_F": dict(operands=[5, 7], image=0, radices=[2, 3], rate=1, operand_ids=["a", "c"],
                    image_id="b"),
    "crisp_M": dict(operands=[5, 7], images=[0, 0], radices=[2, 3], rates=[1, 1],
                    operand_ids=["a", "c"], image_ids=["b", "d"]),
    "OperatorSpec": dict(form="L", operands=["a"], images=["b"], radices=[2], rates=[1]),
    "TransformResult": dict(partial_carries={"a": 2}, common_carry=None, remainders={"a": 1},
                            transformants={"b": 2}, new_image_cardinals={"b": 2}, warnings=()),
    "alpha_cut_check": dict(a=_TRI, b=_TRI, op="add", result=_TRI_SUM,
                            levels=[0, Fraction(1, 2), 1]),
    "TransformOptions": dict(remainder_mode="extension", clamp_negative=True),
}

# (callable, parameter) -> the outcome of each value of _ZOO in that parameter, the other
# arguments as in _VALID_CALLS: the letters of _TABLE, and "D" for one of alpha_cut_check's
# documented ValueErrors (an op other than add or sub, a level outside [0, 1]).
_KEYWORD_TABLE = {
    ("apply_L", "operand"): "E.EEEEEEEE..E",
    ("apply_L", "image"): "E.EEEEEEEE..E",
    ("apply_L", "radix"): "E.EEEEEEEE..E",
    ("apply_L", "rate"): "E.EEEEEEEE..E",
    ("apply_L", "options"): "TTTTTTTTTTTTT",
    ("apply_L", "operand_id"): "......T.T....",
    ("apply_L", "image_id"): "......T.T....",
    ("apply_D", "operand"): "E.EEEEEEEE..E",
    ("apply_D", "images"): "TTTTTEEETTTTT",
    ("apply_D", "radix"): "E.EEEEEEEE..E",
    ("apply_D", "rates"): "TTTTTEEETTTTT",
    ("apply_D", "options"): "TTTTTTTTTTTTT",
    ("apply_D", "operand_id"): "......T.T....",
    ("apply_D", "image_ids"): ".TTTTEEETTTTT",
    ("apply_F", "operands"): "TTTTTEEETTTTT",
    ("apply_F", "image"): "E.EEEEEEEE..E",
    ("apply_F", "radices"): "TTTTTEEETTTTT",
    ("apply_F", "rate"): "E.EEEEEEEE..E",
    ("apply_F", "options"): "TTTTTTTTTTTTT",
    ("apply_F", "operand_ids"): ".TTTTEEETTTTT",
    ("apply_F", "image_id"): "......T.T....",
    ("apply_M", "operands"): "TTTTTEEETTTTT",
    ("apply_M", "images"): "TTTTTEEETTTTT",
    ("apply_M", "radices"): "TTTTTEEETTTTT",
    ("apply_M", "rates"): "TTTTTEEETTTTT",
    ("apply_M", "options"): "TTTTTTTTTTTTT",
    ("apply_M", "operand_ids"): ".TTTTEEETTTTT",
    ("apply_M", "image_ids"): ".TTTTEEETTTTT",
    ("crisp_L", "operand"): "E.EEEEEEEEEEE",
    ("crisp_L", "image"): "E.EEEEEEEEEEE",
    ("crisp_L", "radix"): "E.EEEEEEEEEEE",
    ("crisp_L", "rate"): "E.EEEEEEEEEEE",
    ("crisp_L", "operand_id"): "......T.T....",
    ("crisp_L", "image_id"): "......T.T....",
    ("crisp_D", "operand"): "E.EEEEEEEEEEE",
    ("crisp_D", "images"): "TTTTTEEETTTTT",
    ("crisp_D", "radix"): "E.EEEEEEEEEEE",
    ("crisp_D", "rates"): "TTTTTEEETTTTT",
    ("crisp_D", "operand_id"): "......T.T....",
    ("crisp_D", "image_ids"): ".TTTTEEETTTTT",
    ("crisp_F", "operands"): "TTTTTEEETTTTT",
    ("crisp_F", "image"): "E.EEEEEEEEEEE",
    ("crisp_F", "radices"): "TTTTTEEETTTTT",
    ("crisp_F", "rate"): "E.EEEEEEEEEEE",
    ("crisp_F", "operand_ids"): ".TTTTEEETTTTT",
    ("crisp_F", "image_id"): "......T.T....",
    ("crisp_M", "operands"): "TTTTTEEETTTTT",
    ("crisp_M", "images"): "TTTTTEEETTTTT",
    ("crisp_M", "radices"): "TTTTTEEETTTTT",
    ("crisp_M", "rates"): "TTTTTEEETTTTT",
    ("crisp_M", "operand_ids"): ".TTTTEEETTTTT",
    ("crisp_M", "image_ids"): ".TTTTEEETTTTT",
    ("OperatorSpec", "form"): "VVVVVVVVVVVVV",
    ("OperatorSpec", "operands"): "TTTTT....TTTT",
    ("OperatorSpec", "images"): "TTTTT....TTTT",
    ("OperatorSpec", "radices"): "TTTTT....TTTT",
    ("OperatorSpec", "rates"): "TTTTT....TTTT",
    ("TransformResult", "partial_carries"): "TTTTTTTTETTTT",
    ("TransformResult", "common_carry"): ".............",
    ("TransformResult", "remainders"): "TTTTTTTTETTTT",
    ("TransformResult", "transformants"): "TTTTTTTTETTTT",
    ("TransformResult", "new_image_cardinals"): "TTTTTTTTETTTT",
    ("TransformResult", "warnings"): ".............",
    ("alpha_cut_check", "a"): "TTTTTTTTTT.TT",
    ("alpha_cut_check", "b"): "TTTTTTTTTT.TT",
    ("alpha_cut_check", "op"): "DDDDDDDDDDDDD",
    ("alpha_cut_check", "result"): "TTTTTTTTTT.TT",
    ("alpha_cut_check", "levels"): "TTTTTE.D.TTTT",
    ("TransformOptions", "remainder_mode"): "EEEEEEEEEEEEE",
    ("TransformOptions", "clamp_negative"): "EEE.EEEEEEEEE",
}
_DOCUMENTED = r"alpha-cut check supports add/sub only, got |level .* outside \[0, 1\]$"


def _keyword_outcome(name: str, arguments: dict) -> str:
    """The letter of one call by keyword; a broken contract raises it."""
    function = getattr(fuzzysns, name)
    try:
        return _outcome(functools.partial(function, **arguments), ())
    except ValueError as exc:
        if name == "alpha_cut_check" and re.match(_DOCUMENTED, str(exc)):
            return "D"
        raise


def test_the_keyword_table_covers_every_parameter_of_its_callables():
    assert set(_KEYWORD_TABLE) == {
        (name, parameter) for name in _VALID_CALLS
        for parameter in inspect.signature(getattr(fuzzysns, name)).parameters
    }


@pytest.mark.parametrize("name,parameter", _KEYWORD_TABLE,
                         ids=[f"{n}-{p}" for n, p in _KEYWORD_TABLE])
def test_each_value_in_each_keyword_has_its_outcome(name, parameter):
    valid = _VALID_CALLS[name]
    assert _keyword_outcome(name, valid) == "."
    outcomes = [_keyword_outcome(name, {**valid, parameter: value}) for value in _ZOO]
    assert {o[1:] for o in outcomes if o.startswith("T")} <= {parameter}
    assert "".join(o[0] for o in outcomes) == _KEYWORD_TABLE[name, parameter]


@pytest.mark.parametrize("call,message", [
    (lambda: fuzzysns.crisp_D(1, 7, 2, 7), "images must be Sequence, not int"),
    (lambda: fuzzysns.crisp_F([1], 0, 7, 1), "radices must be Sequence, not int"),
    (lambda: fuzzysns.apply_D(1, [0], 2, [1], image_ids=7), "image_ids must be Sequence, not int"),
    (lambda: fuzzysns.apply_L(7, 0, 3, 1, operand_id=[]), "operand_id must be Hashable, not list"),
    (lambda: fuzzysns.apply_L(7, 0, 3, 1, image_id=[]), "image_id must be Hashable, not list"),
    (lambda: fuzzysns.apply_F([7, 9], 0, [3, 2], 1, operand_ids=["a", ["b"]]),
     "operand_ids[1] must be Hashable, not list"),
    (lambda: OperatorSpec("L", 7, ["b"], [2], [1]), "operands must be Iterable, not int"),
    (lambda: OperatorSpec("L", ["a"], ["b"], [2], None), "rates must be Iterable, not NoneType"),
    (lambda: fuzzysns.TransformResult(7, None, {}, {}, {}),
     "partial_carries must be Mapping, not int"),
    (lambda: fuzzysns.alpha_cut_check(7, _TRI, "add", _TRI_SUM, [0]),
     "a must be TriangularFuzzyNumber, not int"),
    (lambda: fuzzysns.alpha_cut_check(_TRI, _TRI, "add", _TRI_SUM, 7),
     "levels must be Iterable, not int"),
])
def test_a_keyword_or_plural_argument_of_the_wrong_type_is_named(call, message):
    with pytest.raises(TypeError) as caught:
        call()
    assert type(caught.value) is TypeError
    assert str(caught.value) == message


@pytest.mark.parametrize("level,message", [
    ("1e-100000", "number '1e-100000' has an exponent beyond +-4300"),
    (True, "level must be numeric, got True"),
], ids=["exponent", "bool"])
def test_alpha_cut_check_reads_each_level_by_the_exact_number_rule(level, message):
    with pytest.raises(fuzzysns.DomainError) as caught:
        fuzzysns.alpha_cut_check(_TRI, _TRI, "add", _TRI_SUM, [level])
    assert str(caught.value) == message


def test_a_json_object_with_two_repeated_keys_names_the_first_listed():
    with pytest.raises(fuzzysns.ParseError) as caught:
        fuzzysns.scenario_from_json('{"6": 1, "7": 1, "7": 1, "6": 1}')
    assert str(caught.value) == "key '6' appears more than once in one JSON object"
