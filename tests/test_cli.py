import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dfn, tri
from fuzzysns import (
    Form,
    FuzzySnsError,
    OperatorSpec,
    ParseError,
    Scenario,
    TransformOptions,
    family,
    format_scalar,
    run,
    scenario_from_json,
    scenario_to_json,
)
from fuzzysns import cli
from fuzzysns.cli import main


def write(tmp_path, text, name="scenario.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestEval:
    def test_crisp_line_text_output(self, tmp_path, capsys, crisp_line_scenario_text):
        code = main(["eval", write(tmp_path, crisp_line_scenario_text)])
        captured = capsys.readouterr()
        assert code == 0
        assert "p=2 rem=1 q=4 N'_j=14" in captured.out
        assert "final:" in captured.out
        assert "j = 14" in captured.out

    def test_triangular_remainder_and_warning(self, tmp_path, capsys):
        scenario = Scenario(
            {"i": tri(4, 7, 9), "j": 10},
            [OperatorSpec(Form.L, ("i",), ("j",), (3,), (2,))],
        )
        code = main(["eval", write(tmp_path, scenario_to_json(scenario))])
        captured = capsys.readouterr()
        assert code == 0
        assert "(-5; 1; 6)" in captured.out
        assert "negative lower bound" in captured.err

    def test_malformed_file_exits_2_with_position(self, tmp_path, capsys):
        code = main(["eval", write(tmp_path, '{"entities": [,]}')])
        captured = capsys.readouterr()
        assert code == 2
        assert "line 1" in captured.err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["eval", str(tmp_path / "absent.json")])
        assert code == 2

    def test_validation_failure_exits_1(self, tmp_path, capsys):
        text = """
        {"entities": [{"id": "i", "kind": "crisp", "value": 7}],
         "steps": [{"form": "L", "operands": ["i"], "images": ["ghost"],
                    "radix": 3, "rates": [2]}]}
        """
        code = main(["eval", write(tmp_path, text)])
        captured = capsys.readouterr()
        assert code == 1
        assert "ghost" in captured.err

    def test_json_format(self, tmp_path, capsys, crisp_line_scenario_text):
        code = main(["eval", write(tmp_path, crisp_line_scenario_text), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["steps"][0]["partial_carries"] == {"i": "2"}
        assert doc["final"] == {"i": "1", "j": "14"}

    def test_csv_format(self, tmp_path, capsys, crisp_line_scenario_text):
        code = main(["eval", write(tmp_path, crisp_line_scenario_text), "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "step,form,field,entity,value"
        assert "0,L,partial_carry,i,2" in lines
        assert ",,final,j,14" in lines

    def test_csv_quotes_discrete_literals(self, tmp_path, capsys):
        import csv as csv_module
        import io

        scenario = Scenario(
            {"i": dfn({6: "0.5", 7: 1}), "j": 0},
            [OperatorSpec(Form.L, ("i",), ("j",), (3,), (2,))],
        )
        code = main(["eval", write(tmp_path, scenario_to_json(scenario)), "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 0
        rows = list(csv_module.reader(io.StringIO(captured.out)))
        remainder_rows = [r for r in rows if r[2] == "remainder"]
        assert remainder_rows[0][4] == "{0|0.5, 1|1}"

    def test_csv_round_trips_ids_with_line_breaks(self, tmp_path, capsys):
        import csv as csv_module

        scenario = Scenario(
            {"c\rd": 7, "e\nf": 0}, [OperatorSpec(Form.L, ("c\rd",), ("e\nf",), (3,), (2,))]
        )
        code = main(["eval", write(tmp_path, scenario_to_json(scenario)), "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 0
        rows = list(csv_module.reader(io.StringIO(captured.out, newline="")))
        assert rows == [
            ["step", "form", "field", "entity", "value"],
            ["0", "L", "partial_carry", "c\rd", "2"],
            ["0", "L", "remainder", "c\rd", "1"],
            ["0", "L", "transformant", "e\nf", "4"],
            ["0", "L", "new_image", "e\nf", "4"],
            ["", "", "final", "c\rd", "1"],
            ["", "", "final", "e\nf", "4"],
        ]

    def test_text_trace_quotes_ids_that_do_not_print(self, tmp_path, capsys):
        scenario = Scenario(
            {"c\rd": 7, "e\nf": 0, "g h": 1},
            [OperatorSpec(Form.L, ("c\rd",), ("e\nf",), (3,), (2,))],
        )
        code = main(["eval", write(tmp_path, scenario_to_json(scenario))])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == [
            "step 0 L: p=2 rem=1 q=4 N'_\"e\\nf\"=4",
            "final:",
            '  "c\\rd" = 1',
            '  "e\\nf" = 4',
            "  g h = 1",
        ]

    def test_remainder_mode_flag_overrides(self, tmp_path, capsys):
        scenario = Scenario(
            {"i": dfn({5: "0.5", 7: 1}), "j": 0},
            [OperatorSpec(Form.L, ("i",), ("j",), (3,), (1,))],
        )
        path = write(tmp_path, scenario_to_json(scenario))
        main(["eval", path])
        correlated_out = capsys.readouterr().out
        main(["eval", path, "--remainder-mode", "extension"])
        extension_out = capsys.readouterr().out
        assert "rem={1|1, 2|0.5}" in correlated_out
        assert "rem={-1|0.5, 1|1, 2|0.5, 4|0.5}" in extension_out

    def test_multi_operand_labels(self, tmp_path, capsys):
        scenario = Scenario(
            {"i": 17, "j1": 0, "j2": 1, "i1": 10, "i2": 9, "k1": 0, "k2": 2},
            [
                OperatorSpec(Form.D, ("i",), ("j1", "j2"), (5,), (2, 3)),
                OperatorSpec(Form.M, ("i1", "i2"), ("k1", "k2"), (3, 4), (1, 2)),
            ],
        )
        path = write(tmp_path, scenario_to_json(scenario))
        assert main(["eval", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            "step 0 D: p=3 rem=2 q_j1=6 q_j2=9 N'_j1=6 N'_j2=10",
            "step 1 M: p_i1=3 p_i2=2 p.=2 rem_i1=4 rem_i2=1 q_k1=2 q_k2=4 N'_k1=2 N'_k2=6",
        ]

        assert main(["eval", path, "--format", "csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(r[0], r[2], r[3]) for r in rows if r[0]] == [
            ("0", "partial_carry", "i"), ("0", "remainder", "i"),
            ("0", "transformant", "j1"), ("0", "transformant", "j2"),
            ("0", "new_image", "j1"), ("0", "new_image", "j2"),
            ("1", "partial_carry", "i1"), ("1", "partial_carry", "i2"),
            ("1", "common_carry", ""),
            ("1", "remainder", "i1"), ("1", "remainder", "i2"),
            ("1", "transformant", "k1"), ("1", "transformant", "k2"),
            ("1", "new_image", "k1"), ("1", "new_image", "k2"),
        ]

        assert main(["eval", path, "--format", "json"]) == 0
        steps = json.loads(capsys.readouterr().out)["steps"]
        keys = [
            "index", "form", "partial_carries", "common_carry", "remainders",
            "transformants", "new_image_cardinals", "state",
        ]
        assert [list(step) for step in steps] == [keys, keys]
        assert steps[0]["common_carry"] is None
        assert steps[1]["common_carry"] == "2"
        assert steps[1]["partial_carries"] == {"i1": "3", "i2": "2"}
        assert steps[1]["remainders"] == {"i1": "4", "i2": "1"}
        assert steps[0]["transformants"] == {"j1": "6", "j2": "9"}
        assert steps[1]["new_image_cardinals"] == {"k1": "2", "k2": "6"}

    def test_clamp_flag(self, tmp_path, capsys):
        scenario = Scenario(
            {"i": tri(4, 7, 9), "j": 10},
            [OperatorSpec(Form.L, ("i",), ("j",), (3,), (2,))],
        )
        code = main(["eval", write(tmp_path, scenario_to_json(scenario)), "--clamp-negative"])
        captured = capsys.readouterr()
        assert code == 0
        assert "rem=(0; 1; 6)" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize(
        "step",
        [
            pytest.param(
                '{"form": "F", "operands": ["a", "a"], "images": ["b"], '
                '"radix": [2, 3], "rates": [1]}',
                id="operands",
            ),
            pytest.param(
                '{"form": "D", "operands": ["a"], "images": ["b", "b"], '
                '"radix": 2, "rates": [1, 1]}',
                id="images",
            ),
        ],
    )
    def test_entity_listed_twice_in_one_step_exits_1(self, tmp_path, capsys, step):
        text = (
            '{"entities": [{"id": "a", "value": 7}, {"id": "b", "value": 0}], '
            '"steps": [%s]}' % step
        )
        assert main(["eval", write(tmp_path, text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid: step 0: ")
        assert "listed more than once: ['" in captured.err

    @pytest.mark.parametrize("rate", ["-1", "[-1, 1, 2]"])
    def test_negative_rate_exits_1(self, tmp_path, capsys, rate):
        text = (
            '{"entities": [{"id": "a", "value": 7}, {"id": "b", "value": 0}], '
            '"steps": [{"form": "L", "operands": ["a"], "images": ["b"], '
            '"radix": 2, "rates": [%s]}]}' % rate
        )
        assert main(["eval", write(tmp_path, text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid: step 0: conversion rate must be >= 0")


class TestCarry:
    def test_triangular(self, capsys):
        code = main(["carry", "--family", "tri", "(1;2;4)", "(2;3;3)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "(1; 2; 3)"

    def test_discrete(self, capsys):
        code = main(["carry", "--family", "dfn", "{1|0.4,2|1,3|0.6}", "{2|0.7,3|1}"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "{1|0.4, 2|1, 3|0.6}"

    def test_single_input_echoed(self, capsys):
        code = main(["carry", "--family", "tri", "(1; 2; 3)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "(1; 2; 3)"

    def test_family_mix_exits_2(self, capsys):
        code = main(["carry", "--family", "tri", "(1;2;3)", "{2|1}"])
        assert code == 2

    def test_bad_literal_exits_2(self, capsys):
        code = main(["carry", "--family", "dfn", "{1|}"])
        assert code == 2

    def test_triangular_literal_as_discrete_exits_2(self, capsys):
        assert main(["carry", "--family", "dfn", "(1;2;3)"]) == 2
        assert capsys.readouterr().err.startswith("error: discrete literal must look like ")


class TestTable:
    def test_three_point_sampling(self, capsys):
        code = main(["table", "(0;1;2)", "--resolution", "3"])
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines() == [
            "x,mu",
            "0,0",
            "1,1",
            "2,0",
        ]

    def test_six_point_sampling_hits_mode(self, capsys):
        code = main(["table", "(4;7;9)", "--resolution", "6"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,mu"
        assert len(lines) == 7
        assert "7,1" in lines

    def test_degenerate_triple(self, capsys):
        code = main(["table", "(3;3;3)", "--resolution", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines() == ["x,mu", "3,1", "3,1"]

    def test_low_resolution_exits_1(self, capsys):
        assert main(["table", "(0;1;2)", "--resolution", "1"]) == 1

    def test_bad_literal_exits_2(self, capsys):
        assert main(["table", "(0;1)", "--resolution", "3"]) == 2

    def test_resolution_above_the_bound_exits_1_before_any_row(self, capsys, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(cli, "_table", no_rows)
        assert main(["table", "(0;1;2)", "--resolution", str(10**100)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: resolution must be at most {cli.MAX_TABLE_ROWS}\n"


class TestOracleCheck:
    def test_all_green(self, capsys):
        code = main(["oracle-check", "--seed", "42", "--cases", "100"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "100/100 ok"

    def test_deterministic_per_seed(self, capsys):
        main(["oracle-check", "--seed", "5", "--cases", "50"])
        first = capsys.readouterr().out
        main(["oracle-check", "--seed", "5", "--cases", "50"])
        assert capsys.readouterr().out == first

    def test_zero_cases_exits_1(self, capsys):
        assert main(["oracle-check", "--seed", "1", "--cases", "0"]) == 1


def random_scenario(rng):
    families = ("crisp", "tri", "dfn")

    def scalar(fam, low=0, high=30):
        if fam == "crisp":
            return rng.randint(low, high)
        if fam == "tri":
            a = rng.randint(low, high)
            m = rng.randint(a, high)
            b = rng.randint(m, high)
            return tri(a, m, b)
        size = rng.randint(1, 4)
        values = rng.sample(range(low, high + 1), size)
        grades = {v: f"0.{rng.randint(1, 9)}" for v in values}
        grades[rng.choice(values)] = 1
        return dfn(grades)

    names = rng.sample("abcdefghijklmnopqrstuvwxyz", rng.randint(2, 8))
    # Each entity's family as the steps so far leave it: a step writes its joint
    # family to every entity it names, and crisp joins either fuzzy family.
    family_of = {name: rng.choice(families) for name in names}
    entities = {name: scalar(family_of[name]) for name in names}
    steps = []
    for _ in range(rng.randint(1, 3)):
        # A step's form and fuzzy family are drawn among those with enough
        # entities to fill it; with none, the scenario stops here.
        fits = []
        for form in Form:
            w = 1 if form in (Form.L, Form.D) else 2
            v = 1 if form in (Form.L, Form.F) else 2
            for fuzzy in families[1:]:
                pool = [name for name in names if family_of[name] in ("crisp", fuzzy)]
                if len(pool) >= w + v:
                    fits.append((form, w, v, fuzzy, pool))
        if not fits:
            break
        form, w, v, fuzzy, pool = rng.choice(fits)
        chosen = rng.sample(pool, w + v)
        joint = fuzzy if any(family_of[name] == fuzzy for name in chosen) else "crisp"
        fam = rng.choice(("crisp", joint) if joint != "crisp" else families)
        family_of.update((name, joint if fam == "crisp" else fam) for name in chosen)
        steps.append(
            OperatorSpec(
                form,
                tuple(chosen[:w]),
                tuple(chosen[w:]),
                tuple(scalar(fam, 1, 9) for _ in range(w)),
                tuple(scalar(fam, 0, 9) for _ in range(v)),
            )
        )
    options = TransformOptions(
        remainder_mode=rng.choice(("correlated", "extension")),
        clamp_negative=rng.choice((False, True)),
    )
    return Scenario(entities, steps, options)


def test_json_trace_states_are_the_formatted_step_states(tmp_path, capsys):
    rng = random.Random(1618)
    pinned = [
        Scenario({"a": tri(2, 4, 9), "b": dfn({1: 1, 3: "0.5"})}, []),
        # Step 0 writes every entity: "a" its remainder, "b" its image.
        Scenario(
            {"a": dfn({7: 1, 9: "0.5"}), "b": 2},
            [OperatorSpec(Form.L, ("a",), ("b",), (3,), (2,))],
        ),
    ]
    families = set()
    for scenario in [random_scenario(rng) for _ in range(300)] + pinned:
        try:
            trace = run(scenario)
        except FuzzySnsError:
            assert scenario not in pinned
            continue
        assert main(["eval", write(tmp_path, scenario_to_json(scenario)), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["steps"]) == len(trace.steps)
        for step, step_doc in zip(trace.steps, doc["steps"]):
            expected = [(k, format_scalar(v)) for k, v in step.state.items()]
            assert list(step_doc["state"].items()) == expected
            families.update(map(family, step.result.remainders.values()))
        final = [(k, format_scalar(v)) for k, v in trace.final.items()]
        assert list(doc["final"].items()) == final
    assert families == {"crisp", "discrete", "triangular"}


def test_scenario_round_trip_randomized():
    rng = random.Random(2718)
    for _ in range(200):
        scenario = random_scenario(rng)
        text = scenario_to_json(scenario)
        parsed = scenario_from_json(text)
        assert parsed == scenario
        assert scenario_to_json(parsed) == text


BIG = "9" * 4000
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer string conversion limit"
)


def _big_line_step(entity, radix, rate):
    return (
        '{"entities": [{"id": "i", "value": %s}, {"id": "j", "value": 0}], "steps": [{"form": '
        '"L", "operands": ["i"], "images": ["j"], "radix": %s, "rates": [%s]}]}'
        % (entity, radix, rate)
    )


@pytest.mark.parametrize(
    "data, code",
    [
        pytest.param(b'{"entities": [\xff]}', 2, id="not-utf8"),
        pytest.param(
            b'{"entities": [{"id": "i", "value": %s}]}' % (b"9" * 5000), 2,
            marks=needs_digit_limit, id="5000-digit-literal",
        ),
        pytest.param(b"[" * 100000 + b"]" * 100000, 2, id="nested-100000-deep"),
        pytest.param(
            _big_line_step(BIG, 1, BIG).encode(), 1,
            marks=needs_digit_limit, id="result-too-long-to-print",
        ),
        pytest.param(
            b'{"entities": [{"id": "i", "value": 1e5000}]}', 2,
            marks=needs_digit_limit, id="float-too-long-to-print",
        ),
        pytest.param(
            _big_line_step(f"[0, 1, {BIG}]", f"[1, 1, {BIG}]", 1).encode(), 1,
            marks=needs_digit_limit, id="warning-too-long-to-print",
        ),
    ],
)
def test_hostile_eval_input_exits_without_traceback(tmp_path, capsys, data, code):
    path = tmp_path / "hostile.json"
    path.write_bytes(data)
    assert main(["eval", str(path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@needs_digit_limit
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["table", f"(0; 0; {'9' * 4300})", "--resolution", "3"], id="table"),
        pytest.param(["carry", "--family", "dfn", f"{{0|1/{2 ** 14000}, 1|1}}"], id="carry"),
    ],
)
def test_output_too_long_to_print_exits_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# The late document's step 0 prints; only step 1's image is too long, so a
# renderer that wrote before formatting everything would leave step 0 on stdout.
_LATE_BIG = (
    '{"entities": [{"id": "a", "value": 1}, {"id": "b", "value": 0}, {"id": "i", "value": %s},'
    ' {"id": "j", "value": 0}], "steps": [{"form": "L", "operands": ["a"], "images": ["b"],'
    ' "radix": 1, "rates": [1]}, {"form": "L", "operands": ["i"], "images": ["j"],'
    ' "radix": 1, "rates": [%s]}]}' % (BIG, BIG)
)


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "document", [_big_line_step(BIG, 1, BIG), _LATE_BIG], ids=["first-step", "late-step"]
)
def test_eval_result_too_long_to_print_leaves_stdout_empty(tmp_path, capsys, fmt, document):
    assert main(["eval", write(tmp_path, document), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot print the result: ")


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_warning_of_a_result_too_long_to_print_leaves_one_error_line(tmp_path, capsys, fmt):
    # The remainder's least value, -BIG**2, is past the digit limit: the warning shows it by
    # its size, and the trace, too long to print, is refused before any warning is written.
    document = _big_line_step(f"[0, 1, {BIG}]", f"[1, 1, {BIG}]", 1)
    bits = (int(BIG) ** 2).bit_length()
    warning = f"step 0: remainder for 'i' has negative lower bound int of {bits} bits"
    assert run(scenario_from_json(document)).warnings == (warning,)
    assert main(["eval", write(tmp_path, document), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: cannot print the result: ")


# JSON-shaped text: scenario documents whose leaves are any JSON value, and
# some values no scenario reader should choke on.
_KEYS = st.sampled_from(
    ["entities", "steps", "options", "id", "value", "kind", "form", "operands", "images",
     "radix", "rates", "remainder_mode", "clamp_negative", ""]
)
_leaves = st.one_of(
    st.integers().map(str),
    st.floats().map(json.dumps),
    st.sampled_from(["true", "false", "null", "1e5000", "-1e-5000", "9" * 5000, "0.5"]),
    st.sampled_from(['"1/0"', '"(1;2;3)"', '"{1|1}"', '"{1|0.5, 2|1}"', '"L"', '"M"']),
    st.text(max_size=6).map(json.dumps),
)


def _json_list(items):
    return "[" + ", ".join(items) + "]"


def _json_object(pairs):
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs.items()) + "}"


_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(_json_list),
        st.dictionaries(_KEYS, inner, max_size=4).map(_json_object),
    ),
    max_leaves=12,
)
_ids = st.sampled_from(["a", "b", "c", "d"]).map(json.dumps)
_entity = st.fixed_dictionaries({"id": _ids, "value": _values}).map(_json_object)
_step = st.fixed_dictionaries(
    {
        "form": st.sampled_from(["L", "D", "F", "M"]).map(json.dumps) | _values,
        "operands": st.lists(_ids, min_size=1, max_size=2).map(_json_list),
        "images": st.lists(_ids, min_size=1, max_size=2).map(_json_list),
        "radix": _values,
        "rates": _values,
    }
).map(_json_object)
_documents = st.one_of(
    st.fixed_dictionaries(
        {"entities": st.lists(_entity, max_size=4).map(_json_list),
         "steps": st.lists(_step, max_size=3).map(_json_list)}
    ).map(_json_object),
    _values,
    st.text(max_size=40),
)


@settings(max_examples=200, deadline=None)
@given(text=_documents)
def test_json_shaped_text_ends_in_parse_error_or_exit_code(tmp_path_factory, text):
    try:
        scenario_from_json(text)
    except ParseError:
        pass
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["eval", str(path)]) in (0, 1, 2)


_LINE = {"form": "L", "operands": ["a"], "images": ["b"], "radix": 3, "rates": [2]}

# The stdlib-only contract.  ``python -S`` leaves site-packages off sys.path, so a
# child under it has the standard library and ``src`` only: no pytest, no hypothesis.
# ``-X dev -W error`` makes a warning in the child an error.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_PYTHON_S = [sys.executable, "-X", "dev", "-W", "error", "-S"]
# Stdout is buffered in the child whatever the caller's environment says; the tests of
# write failures run both ways, as buffered and unbuffered writes fail at different calls.
_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
_ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
_STDOUT_MODES = {"buffered": _ENV, "unbuffered": {**_ENV, "PYTHONUNBUFFERED": "1"}}


def _python_s(*args):
    """Run ``python -X dev -W error -S *args`` with ``src`` on the path; output in bytes."""
    return subprocess.run([*_PYTHON_S, *args], capture_output=True, timeout=60, env=_ENV)


def test_site_packages_are_not_importable_under_python_s():
    done = _python_s("-c", "import hypothesis")
    assert done.returncode == 1
    assert b"ModuleNotFoundError: No module named 'hypothesis'" in done.stderr


_SHIPPED = Path(__file__).resolve().parents[1] / "scenarios"
# Run-time checks after validate: a negative image of an all-crisp step, a negative operand.
_RUNTIME = (
    '{"entities": [{"id": "c", "value": %s}, {"id": "d", "value": %s}], "steps": [{"form":'
    ' "L", "operands": ["c"], "images": ["d"], "radix": 3, "rates": [1]}]}'
)
# Both sides of the sup-min kernel: step 0's sums and differences are dense (alpha-cut
# bitsets), step 1's supports lie 10**18 apart (the pair loop; a bitset over that hull
# would not fit in memory).
_KERNEL = """
{"entities": [{"id": "p", "value": "{0|0.5, 1|0.5, 2|1, 3|0.5, 4|1/3, 5|2/6, 6|0.5, 7|0.2}"},
              {"id": "q", "value": "{3|0.5, 4|1, 5|0.5, 6|1/3, 7|0.5, 8|0.2}"},
              {"id": "r", "value": 0},
              {"id": "w", "value": "{0|1, 1000000000000000000|0.5}"},
              {"id": "v", "value": "{0|1, 1|0.5}"}],
 "steps": [{"form": "F", "operands": ["p", "q"], "images": ["r"], "radix": [2, 2], "rates": [1]},
           {"form": "L", "operands": ["w"], "images": ["v"], "radix": 2, "rates": [1]}],
 "options": {"remainder_mode": "extension", "clamp_negative": true}}
"""
_KERNEL_OUT = "\n".join([
    "step 0 F: p_p={0|0.5, 1|1, 2|1/3, 3|0.5} p_q={1|0.5, 2|1, 3|0.5, 4|0.2}"
    " p.={0|0.5, 1|1, 2|1/3, 3|0.5} rem_p={0|1, 1|0.5, 2|0.5, 3|0.5, 4|0.5, 5|1/3, 6|0.5, 7|0.2}"
    " rem_q={0|0.5, 1|0.5, 2|1, 3|0.5, 4|0.5, 5|0.5, 6|1/3, 7|0.5, 8|0.2}"
    " q={0|0.5, 1|1, 2|1/3, 3|0.5} N'_r={0|0.5, 1|1, 2|1/3, 3|0.5}",
    "step 1 L: p={0|1, 500000000000000000|0.5} rem={0|1, 1000000000000000000|0.5}"
    " q={0|1, 500000000000000000|0.5} N'_v={0|1, 1|0.5, 500000000000000000|0.5,"
    " 500000000000000001|0.5}",
    "final:",
    "  p = {0|1, 1|0.5, 2|0.5, 3|0.5, 4|0.5, 5|1/3, 6|0.5, 7|0.2}",
    "  q = {0|0.5, 1|0.5, 2|1, 3|0.5, 4|0.5, 5|0.5, 6|1/3, 7|0.5, 8|0.2}",
    "  r = {0|0.5, 1|1, 2|1/3, 3|0.5}",
    "  w = {0|1, 1000000000000000000|0.5}",
    "  v = {0|1, 1|0.5, 500000000000000000|0.5, 500000000000000001|0.5}",
    "",
]).encode()


def _row(name, argv, document=None, code=0, out=None, err=None):
    """One command: argv, a document whose path ends argv, and its exit code.

    ``out`` and ``err``, when given, are the exact stdout and stderr bytes.
    """
    return pytest.param(argv, document, code, out, err, id=name)


# One row per code path that imports something of its own, not per document.
_COMMANDS = [
    _row("eval-text-warning", ["eval", str(_SHIPPED / "triangular_line.json")]),
    _row("eval-json", ["eval", str(_SHIPPED / "discrete_fusion.json"), "--format", "json"]),
    # The CSV writer is a lazy import; a quoted "\r" in a field is why bytes are compared.
    _row("eval-csv", ["eval", "--format", "csv"], json.dumps({
        "entities": [{"id": "c\rd", "value": 7}, {"id": "e\nf", "value": 0}],
        "steps": [{**_LINE, "operands": ["c\rd"], "images": ["e\nf"]}],
    })),
    _row("eval-overrides", [
        "eval", str(_SHIPPED / "triangular_line.json"), "--format", "json",
        "--remainder-mode", "extension", "--clamp-negative",
    ]),
    _row("parse-failure", ["eval"], '{"entities": [{"id": "d", "value": {"6": "0.5", "6": 1}}]}',
         code=2, out=b"", err=b"error: key '6' appears more than once in one JSON object\n"),
    _row("validation-failure", ["eval"], json.dumps({
        "entities": [{"id": "a", "value": [1, 2, 3]}, {"id": "b", "value": 0},
                     {"id": "c", "value": "{1|1}"}],
        "steps": [{**_LINE, "operands": ["a"], "radix": 1, "rates": [1]},
                  {**_LINE, "operands": ["c"], "radix": 1, "rates": [1]}],
    }), code=1),
    _row("runtime-failure-image", ["eval"], _RUNTIME % (7, -2), code=1, out=b"",
         err=b"error: step 0 failed: image cardinal must be >= 0, got -2\n"),
    _row("runtime-failure-operand", ["eval"], _RUNTIME % (-3, 2), code=1, out=b"",
         err=b"error: step 0 failed: operand cardinal must be >= 0, got -3\n"),
    _row("kernel", ["eval"], _KERNEL, out=_KERNEL_OUT, err=b""),
    _row("carry-tri", ["carry", "--family", "tri", "(1;2;4)", "(2;3;3)"]),
    # Disjoint supports: the least-mode partial is the carry.
    _row("carry-dfn-disjoint", ["carry", "--family", "dfn", "{1|0.5, 2|1}", "{5|1, 6|0.3}"],
         out=b"{1|0.5, 2|1}\n"),
    # Above the least mode only the intersection remains: 3 is dropped.
    _row("carry-dfn-above-the-mode",
         ["carry", "--family", "dfn", "{1|0.5,2|1,4|0.7}", "{2|0.6,3|1,4|0.9}"],
         out=b"{1|0.5, 2|1, 4|0.7}\n"),
    _row("table", ["table", "(4;7;9)"]),
    # The oracle and ``random`` load lazily.
    _row("oracle-check", ["oracle-check", "--cases", "200"]),
]


@pytest.mark.parametrize("argv, document, code, out, err", _COMMANDS)
def test_command_prints_the_same_bytes_in_process_and_under_python_s(
    tmp_path, capsysbinary, argv, document, code, out, err
):
    if document is not None:
        argv = [*argv, write(tmp_path, document)]
    assert main(argv) == code
    captured = capsysbinary.readouterr()
    if out is not None:
        assert captured.out == out
    if err is not None:
        assert captured.err == err
    done = _python_s("-m", "fuzzysns.cli", *argv)
    assert done.stderr == captured.err, done.stderr.decode(errors="replace")
    assert done.stdout == captured.out
    assert done.returncode == code


# A decimal exponent sets a grade's size; one of 1e-1000000 made eval run for
# minutes.  Each route a number's text takes into a Fraction is bounded:
# a JSON float, a JSON string grade, and a grade in a CLI literal.
@pytest.mark.parametrize(
    "argv, data",
    [
        pytest.param(
            ["eval"], b'{"entities": [{"id": "i", "value": [[0, 1], [1, 1e-1000000]]}]}',
            id="json-float",
        ),
        pytest.param(
            ["eval"], b'{"entities": [{"id": "i", "value": [[0, 1], [1, "1e-1_000_000"]]}]}',
            id="json-string-grade",
        ),
        pytest.param(["carry", "--family", "dfn", "{0|1, 1|1e-1000000}"], None, id="literal"),
    ],
)
def test_huge_grade_exponent_exits_2_promptly(tmp_path, argv, data):
    if data is not None:
        path = tmp_path / "exponent.json"
        path.write_bytes(data)
        argv = [*argv, str(path)]
    done = _python_s("-m", "fuzzysns.cli", *argv)
    assert done.returncode == 2
    assert done.stdout == b""
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "exponent" in lines[0]


def chain_document(steps):
    """``steps`` L steps along a chain of crisp entities ``e0``, ``e1``, ..."""
    return json.dumps({
        "entities": [{"id": f"e{k}", "value": 7 + k % 5} for k in range(steps + 1)],
        "steps": [{**_LINE, "operands": [f"e{k}"], "images": [f"e{k + 1}"]} for k in range(steps)],
    })


def test_eval_into_a_closed_pipe_exits_1_without_traceback(tmp_path):
    # About 150 KB of text, more than a pipe holds: eval is still writing when the reader leaves.
    path = write(tmp_path, chain_document(3000))
    for env in _STDOUT_MODES.values():
        child = subprocess.Popen(
            [*_PYTHON_S, "-m", "fuzzysns.cli", "eval", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        with child:
            assert child.stdout.readline() == b"step 0 L: p=2 rem=1 q=4 N'_e1=12\n"
            child.stdout.close()
            err = child.stderr.read()
            assert child.wait(timeout=60) == 1
        assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("mode", _STDOUT_MODES)
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", str(_SHIPPED / "crisp_line.json")],
        ["eval", str(_SHIPPED / "crisp_line.json"), "--format", "csv"],
        ["eval", str(_SHIPPED / "discrete_fusion.json"), "--format", "json"],
        ["table", "(4;7;9)"],
        ["oracle-check", "--cases", "20"],
    ],
    ids=["eval-text", "eval-csv", "eval-json", "table", "oracle-check"],
)
def test_output_into_a_full_device_is_one_error_line(argv, mode):
    with open("/dev/full", "wb") as full:
        done = subprocess.run(
            [*_PYTHON_S, "-m", "fuzzysns.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, env=_STDOUT_MODES[mode], timeout=60,
        )
    assert done.returncode == 1
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output: "), lines


# Every shipped scenario runs clean in every format and reads back from its
# own serialization; stderr holds only the scenario's own warnings.
_SCENARIOS = sorted(_SHIPPED.glob("*.json"))


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("path", _SCENARIOS, ids=lambda path: path.stem)
def test_shipped_scenario_runs_and_round_trips(capsys, path, fmt):
    scenario = scenario_from_json(path.read_text(encoding="utf-8"))
    assert scenario_from_json(scenario_to_json(scenario)) == scenario
    assert main(["eval", str(path), "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.out
    assert captured.err == "".join(f"warning: {w}\n" for w in run(scenario).warnings)


def _document(entity=None, step=None, **top):
    entity = {"id": "a", "value": 7, **(entity or {})}
    doc = {"entities": [entity, {"id": "b", "value": 0}], "steps": [{**_LINE, **(step or {})}]}
    return json.dumps({**doc, **top})


@pytest.mark.parametrize(
    "text, where, key",
    [
        (_document(stepz=[]), "scenario document", "stepz"),
        (_document(entity={"knd": "crisp"}), "entities[0]", "knd"),
        (_document(step={"rate": [2]}), "steps[0]", "rate"),
        (_document(options={"remainder_mod": "extension"}), "options", "remainder_mod"),
    ],
    ids=["document", "entity", "step", "options"],
)
def test_unknown_key_exits_2_and_names_it(tmp_path, capsys, text, where, key):
    assert main(["eval", write(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}: unknown key {key!r}\n"


@pytest.mark.parametrize(
    "value",
    ["{1|0.5, 1|1}", [[1, "0.5"], [1, 1]], {"1": "0.5", "01": 1}],
    ids=["literal", "pairs", "mapping"],
)
def test_duplicate_support_value_exits_2(tmp_path, capsys, value):
    assert main(["eval", write(tmp_path, _document(entity={"value": value}))]) == 2
    assert capsys.readouterr().err == "error: entities[0].value: duplicate support value 1\n"


def test_carry_duplicate_support_value_exits_2(capsys):
    assert main(["carry", "--family", "dfn", "{1|0.5, 1|1}", "{1|1}"]) == 2
    assert capsys.readouterr().err == "error: duplicate support value 1\n"


@pytest.mark.parametrize("clamp", [1, "yes", None])
def test_non_boolean_clamp_option_exits_2(tmp_path, capsys, clamp):
    text = _document(options={"clamp_negative": clamp})
    assert main(["eval", write(tmp_path, text)]) == 2
    assert capsys.readouterr().err.startswith("error: options: clamp_negative must be a boolean")


# Integer text is an optional sign and ASCII digits: ``int`` alone would read
# "6_0" as 60 and the Arabic-Indic "٦" as 6.
@pytest.mark.parametrize(
    "value, message",
    [
        ("{6_0|1}", "support value must be an integer: '6_0|1'"),
        ("{٦|1}", "support value must be an integer: '٦|1'"),
        ({"6_0": 1}, "support key '6_0' is not an integer"),
        ({"٦": 1}, "support key '٦' is not an integer"),
        ("( 1_0 ; 2_0; 30 )", "triangular components must be integers: '( 1_0 ; 2_0; 30 )'"),
        ("6_0", "not a fuzzy-number literal: '6_0'"),
        ("1 0", "not a fuzzy-number literal: '1 0'"),
    ],
    ids=["literal-underscore", "literal-arabic-indic", "key-underscore", "key-arabic-indic",
         "triangular-underscore", "crisp-underscore", "crisp-inner-space"],
)
def test_non_ascii_integer_text_exits_2(tmp_path, capsys, value, message):
    assert main(["eval", write(tmp_path, _document(entity={"value": value}))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: entities[0].value: {message}\n"


@pytest.mark.parametrize("literal", ["{6_0|1}", "{٦|1}"])
def test_carry_non_ascii_integer_text_exits_2(capsys, literal):
    assert main(["carry", "--family", "dfn", literal]) == 2
    assert capsys.readouterr().err == f"error: support value must be an integer: '{literal[1:-1]}'\n"


@needs_digit_limit
def test_integer_text_beyond_the_digit_limit_exits_2(tmp_path, capsys):
    assert main(["eval", write(tmp_path, _document(entity={"value": "9" * 4301}))]) == 2
    assert capsys.readouterr().err.startswith("error: entities[0].value: not a fuzzy-number literal")


@pytest.mark.parametrize("rates", [2, "2", {"2": 1}], ids=["int", "string", "object"])
def test_rates_must_be_a_list(tmp_path, capsys, rates):
    assert main(["eval", write(tmp_path, _document(step={"rates": rates}))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: steps[0]: 'rates' must be a list\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (_document(step={"operands": "a"}), "steps[0]: 'operands' must be a list of entity ids"),
        (_document(step={"operands": [1]}), "steps[0]: 'operands' must be a list of entity ids"),
        (_document(steps={}), "'steps' must be a list"),
        (_document(entities={}), "'entities' must be a list"),
        (_document(entity={"id": ""}), "entities[0]: entity id must be a nonempty string"),
        (_document(entity={"id": 5}), "entities[0]: entity id must be a nonempty string"),
    ],
    ids=["operands-string", "operands-ints", "steps-object", "entities-object",
         "id-empty", "id-int"],
)
def test_malformed_record_exits_2_and_names_it(tmp_path, capsys, text, message):
    assert main(["eval", write(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# Grade text is ASCII too: "١/٢", "1_0/2_0" and "0.5_0" used to read as 1/2.
_BAD_GRADES = ["١/٢", "1_0/2_0", "0.5_0"]


@pytest.mark.parametrize("grade", _BAD_GRADES)
@pytest.mark.parametrize("form", ["literal", "pairs", "mapping"])
def test_non_ascii_grade_text_exits_2(tmp_path, capsys, form, grade):
    value = {
        "literal": f"{{6|{grade}, 7|1}}",
        "pairs": [[6, grade], [7, 1]],
        "mapping": {"6": grade, "7": 1},
    }[form]
    assert main(["eval", write(tmp_path, _document(entity={"value": value}))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: entities[0].value: not a number: {grade!r}\n"


@pytest.mark.parametrize("grade", _BAD_GRADES)
def test_carry_non_ascii_grade_text_exits_2(capsys, grade):
    assert main(["carry", "--family", "dfn", f"{{6|{grade}, 7|1}}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not a number: {grade!r}\n"


def test_family_conflict_made_by_an_earlier_step_is_invalid_before_any_step_runs(
    tmp_path, capsys
):
    # Step 0 makes "b" triangular; step 1 then meets it with a discrete "c".
    doc = {
        "entities": [
            {"id": "a", "value": [1, 2, 3]},
            {"id": "b", "value": 0},
            {"id": "c", "value": "{1|1}"},
        ],
        "steps": [
            {**_LINE, "operands": ["a"], "images": ["b"], "radix": 1, "rates": [1]},
            {**_LINE, "operands": ["c"], "images": ["b"], "radix": 1, "rates": [1]},
        ],
    }
    assert main(["eval", write(tmp_path, json.dumps(doc))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid: step 1: step mixes discrete and triangular values\n"


class TestMessagesKeepToOneLine:
    """An id or a path that holds a line break shows as its JSON string literal on stderr."""

    def test_unknown_id_with_a_line_feed_is_one_invalid_line(self, tmp_path, capsys):
        text = json.dumps({
            "entities": [{"id": "a", "value": 7}],
            "steps": [{"form": "L", "operands": ["a"], "images": ["x\ny"],
                       "radix": 3, "rates": [1]}],
        })
        code = main(["eval", write(tmp_path, text)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == ["invalid: step 0: unknown entity '\"x\\ny\"'"]

    def test_remainder_warning_for_an_id_with_a_carriage_return_is_one_line(
        self, tmp_path, capsys
    ):
        scenario = Scenario(
            {"c\rd": tri(4, 7, 9), "j": 10},
            [OperatorSpec(Form.L, ("c\rd",), ("j",), (3,), (2,))],
        )
        code = main(["eval", write(tmp_path, scenario_to_json(scenario))])
        err = capsys.readouterr().err
        assert code == 0
        assert err.splitlines() == [
            "warning: step 0: remainder for '\"c\\rd\"' has negative lower bound -5"
        ]

    def test_unreadable_path_with_a_line_feed_is_one_error_line(self, tmp_path, capsys):
        code = main(["eval", str(tmp_path / "no\nfile.json")])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot read ")
        assert "no\\nfile.json" in lines[0]
