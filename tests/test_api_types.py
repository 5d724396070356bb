"""An argument of the wrong Python type raises TypeError naming the parameter."""

import pytest

from fuzzysns import parse_fraction, parse_scalar, run, scenario_to_json, validate
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
