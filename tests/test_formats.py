import json
import re
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import dfn, discretes, tri, triangles
from fuzzysns import (
    Form,
    OperatorSpec,
    ParseError,
    Scenario,
    TransformOptions,
    format_fraction,
    format_scalar,
    parse_fraction,
    parse_scalar,
    scenario_from_json,
    scenario_to_json,
)
from fuzzysns.formats import parse_discrete


class TestFractionText:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(1), "1"),
            (Fraction(2, 5), "0.4"),
            (Fraction(1, 4), "0.25"),
            (Fraction(3, 8), "0.375"),
            (Fraction(3, 20), "0.15"),
            (Fraction(1, 3), "1/3"),
            (Fraction(-5, 2), "-2.5"),
            (Fraction(7), "7"),
        ],
    )
    def test_format(self, value, text):
        assert format_fraction(value) == text

    @pytest.mark.parametrize("text", ["1", "0.4", "0.25", "1/3", "-2.5", "7", "2/5"])
    def test_round_trip(self, text):
        assert format_fraction(parse_fraction(text)) in (text, format_fraction(Fraction(text)))

    def test_parse_rejects_junk(self):
        with pytest.raises(ParseError):
            parse_fraction("one half")

    # Grade text is ASCII: ``Fraction`` alone reads "١/٢" and "1_0/2_0" as 1/2.
    @pytest.mark.parametrize("text", ["١/٢", "1_0/2_0", "0.5_0"])
    def test_parse_rejects_non_ascii_and_underscores(self, text):
        with pytest.raises(ParseError, match=re.escape(f"not a number: {text!r}")):
            parse_fraction(text)

    @pytest.mark.parametrize(
        "text, value",
        [("1/3", Fraction(1, 3)), (".5", Fraction(1, 2)), ("5.", Fraction(5)),
         ("1e-3", Fraction(1, 1000)), (" 0.25 ", Fraction(1, 4))],
    )
    def test_parse_reads_plain_decimal_forms(self, text, value):
        assert parse_fraction(text) == value


class TestScalarLiterals:
    def test_triangular(self):
        assert parse_scalar("(4; 7; 9)") == tri(4, 7, 9)
        assert parse_scalar("(-5;1;6)") == tri(-5, 1, 6)
        assert format_scalar(tri(-5, 1, 6)) == "(-5; 1; 6)"

    def test_discrete(self):
        assert parse_scalar("{1|0.4, 2|1, 3|0.6}") == dfn({1: "0.4", 2: 1, 3: "0.6"})
        assert format_scalar(dfn({3: "0.6", 1: "0.4", 2: 1})) == "{1|0.4, 2|1, 3|0.6}"

    def test_crisp(self):
        assert parse_scalar("7") == 7
        assert format_scalar(7) == "7"

    @pytest.mark.parametrize(
        "value",
        [7, tri(-5, 1, 6), tri(3, 3, 3), dfn({1: "0.4", 2: 1}), dfn({-1: "0.5", 1: 1})],
    )
    def test_print_parse_round_trip(self, value):
        assert parse_scalar(format_scalar(value)) == value

    def test_non_decimal_grade_round_trips_as_ratio(self):
        value = dfn({1: Fraction(1, 3), 2: 1})
        assert format_scalar(value) == "{1|1/3, 2|1}"
        assert parse_scalar(format_scalar(value)) == value

    @pytest.mark.parametrize(
        "text",
        ["(1; 2)", "(1; 2; 3; 4)", "(a; b; c)", "{1|}", "{|1}", "{1:0.5}", "nope", "{}"],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_scalar(text)

    @given(value=triangles(low=-20, high=20))
    def test_triangular_round_trip_randomized(self, value):
        assert parse_scalar(format_scalar(value)) == value

    @given(value=discretes(low=-10, high=25))
    def test_discrete_round_trip_randomized(self, value):
        assert parse_scalar(format_scalar(value)) == value


class TestScenarioDocuments:
    def make_scenario(self):
        return Scenario(
            {
                "i": tri(4, 7, 9),
                "j": 10,
                "d": dfn({6: "0.5", 7: 1}),
            },
            [
                OperatorSpec(Form.L, ("i",), ("j",), (3,), (2,)),
                OperatorSpec(Form.F, ("i", "d"), ("j",), (tri(2, 3, 4), 4), (2,)),
            ],
            TransformOptions(remainder_mode="extension", clamp_negative=True),
        )

    def test_serialize_parse_round_trip(self):
        scenario = self.make_scenario()
        text = scenario_to_json(scenario)
        parsed = scenario_from_json(text)
        assert parsed == scenario
        assert scenario_to_json(parsed) == text

    def test_grades_survive_as_exact_decimals(self):
        text = scenario_to_json(Scenario({"d": dfn({6: "0.5", 7: 1})}, []))
        assert '"0.5"' in text
        assert scenario_from_json(text).initial["d"].grade(6) == Fraction(1, 2)

    def test_numeric_grades_parse_exactly(self):
        text = """
        {"entities": [{"id": "d", "kind": "discrete", "value": [[6, 0.3], [7, 1]]}],
         "steps": []}
        """
        scenario = scenario_from_json(text)
        assert scenario.initial["d"].grade(6) == Fraction(3, 10)

    def test_mapping_value_form_accepted(self):
        text = '{"entities": [{"id": "d", "value": {"6": "0.5", "7": 1}}], "steps": []}'
        assert scenario_from_json(text).initial["d"] == dfn({6: "0.5", 7: 1})

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as excinfo:
            scenario_from_json('{"entities": [,]}')
        assert excinfo.value.line == 1
        assert excinfo.value.column is not None

    def test_duplicate_entity_id_rejected(self):
        text = """
        {"entities": [{"id": "i", "kind": "crisp", "value": 7},
                      {"id": "i", "kind": "crisp", "value": 8}],
         "steps": []}
        """
        with pytest.raises(ParseError):
            scenario_from_json(text)

    def test_kind_mismatch_rejected(self):
        text = '{"entities": [{"id": "i", "kind": "crisp", "value": [1, 2, 3]}], "steps": []}'
        with pytest.raises(ParseError):
            scenario_from_json(text)

    def test_unknown_form_rejected(self):
        text = """
        {"entities": [{"id": "i", "kind": "crisp", "value": 7}],
         "steps": [{"form": "Q", "operands": ["i"], "images": ["i"], "radix": 3, "rates": [1]}]}
        """
        with pytest.raises(ParseError):
            scenario_from_json(text)

    def test_bad_remainder_mode_rejected(self):
        text = '{"entities": [], "steps": [], "options": {"remainder_mode": "sideways"}}'
        with pytest.raises(ParseError):
            scenario_from_json(text)

    def test_multi_operand_radix_must_be_listed_per_operand(self):
        text = """
        {"entities": [{"id": "a", "kind": "crisp", "value": 7},
                      {"id": "b", "kind": "crisp", "value": 9},
                      {"id": "k", "kind": "crisp", "value": 0}],
         "steps": [{"form": "F", "operands": ["a", "b"], "images": ["k"],
                    "radix": 3, "rates": [2]}]}
        """
        with pytest.raises(ParseError):
            scenario_from_json(text)

    def test_single_operand_triangular_radix_reads_as_triple(self):
        text = """
        {"entities": [{"id": "i", "kind": "crisp", "value": 7},
                      {"id": "j", "kind": "crisp", "value": 0}],
         "steps": [{"form": "L", "operands": ["i"], "images": ["j"],
                    "radix": [2, 3, 4], "rates": [1]}]}
        """
        scenario = scenario_from_json(text)
        assert scenario.steps[0].radices == (tri(2, 3, 4),)


def test_parse_discrete_rejects_duplicate_support_value():
    with pytest.raises(ParseError, match="duplicate support value 1"):
        parse_discrete("{1|0.5, 1|1}")


def _line_document(value=7, radix=3, rates=(2,)):
    step = {"form": "L", "operands": ["a"], "images": ["b"], "radix": radix, "rates": list(rates)}
    entities = [{"id": "a", "value": value}, {"id": "b", "value": 0}]
    return json.dumps({"entities": entities, "steps": [step]})


@pytest.mark.parametrize(
    "text, where",
    [
        (_line_document(value="{1|0.5}"), "entities[0].value"),
        (_line_document(radix="{2|0.5}"), "steps[0].radix"),
        (_line_document(rates=["(3; 2; 1)"]), "steps[0].rates[0]"),
        (_line_document(rates=["nope"]), "steps[0].rates[0]"),
    ],
    ids=["value", "radix", "rate", "rate-junk"],
)
def test_string_literal_errors_carry_their_location(text, where):
    with pytest.raises(ParseError, match=rf"^{re.escape(where)}: "):
        scenario_from_json(text)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"steps": []}, "scenario document: missing 'entities'"),
        ({"entities": [{"id": "a"}]}, "entities[0]: missing 'value'"),
        ({"entities": [7]}, "entities[0] must be a JSON object"),
        ({"entities": [], "steps": [{"form": "L"}]}, "steps[0]: missing 'operands'"),
        ({"entities": [], "options": []}, "options must be a JSON object"),
    ],
    ids=["document", "entity", "entity-type", "step", "options-type"],
)
def test_key_table_names_the_record(doc, message):
    with pytest.raises(ParseError) as excinfo:
        scenario_from_json(json.dumps(doc))
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"entities": [{"id": "d", "value": {"6": "0.5", "6": 1}}]}', "6"),
        ('{"entities": [{"id": "a", "value": 3, "value": 5}]}', "value"),
        (
            '{"entities": [{"id": "a", "value": 7}, {"id": "b", "value": 0}],'
            ' "steps": [{"form": "L", "operands": ["a"], "images": ["b"],'
            ' "radix": 3, "radix": 2, "rates": [1]}]}',
            "radix",
        ),
    ],
    ids=["mapping-value", "entity", "step"],
)
def test_key_repeated_in_one_object_is_refused(text, key):
    with pytest.raises(ParseError, match=f"^key '{key}' appears more than once"):
        scenario_from_json(text)


# Ids of more than one character: the JSON decoder shares one-character strings anyway.
_SHARED = json.dumps({
    "entities": [{"id": f"e{k}", "value": k} for k in range(5)]
    + [{"id": "d0", "value": "{1|0.5, 2|1}"}, {"id": "d1", "value": 0}],
    "steps": [
        {"form": "F", "operands": ["e0", "e1"], "images": ["e2"], "radix": [3, 2], "rates": [2]},
        {"form": "D", "operands": ["e2"], "images": ["e3", "e4"], "radix": 2, "rates": [3, 2]},
        {"form": "F", "operands": ["e3", "e4"], "images": ["e0"], "radix": [3, 2], "rates": [3]},
        {"form": "L", "operands": ["d0"], "images": ["d1"], "radix": [[2, 0.5], [3, 1]],
         "rates": ["{1|1, 2|0.5}"]},
        {"form": "L", "operands": ["e1"], "images": ["no-such"], "radix": 2, "rates": [2]},
    ],
})


def test_step_ids_are_the_entity_key_objects():
    scenario = scenario_from_json(_SHARED)
    keys = {key: key for key in scenario.initial}
    ids = [e for step in scenario.steps for e in (*step.operands, *step.images)]
    assert all(e is keys[e] for e in ids if e != "no-such")
    assert scenario.steps[-1].images == ("no-such",)  # an unknown id is kept as read


def test_equal_all_int_radix_and_rate_tuples_are_one_object():
    steps = scenario_from_json(_SHARED).steps
    assert steps[0].radices == (3, 2) and steps[0].radices is steps[2].radices
    assert steps[1].rates == (3, 2) and steps[1].rates is steps[0].radices
    twos = (steps[0].rates, steps[1].radices, steps[4].radices, steps[4].rates)
    assert twos[0] == (2,) and all(t is twos[0] for t in twos)


def test_fuzzy_radices_and_rates_are_read_without_hashing_a_grade(monkeypatch):
    def refuse(self):
        raise AssertionError("a Fraction was hashed")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    step = scenario_from_json(_SHARED).steps[3]
    assert step.radices == (dfn({2: "0.5", 3: 1}),)
    assert step.rates == (dfn({1: 1, 2: "0.5"}),)
