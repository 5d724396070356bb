import pytest

from conftest import dfn, tri
from fuzzysns import (
    Form,
    OperatorSpec,
    Scenario,
    ScenarioValidationError,
    StepExecutionError,
    TransformOptions,
    run,
    validate,
)


def line_step(operand, image, radix, rate, form=Form.L):
    return OperatorSpec(form, (operand,), (image,), (radix,), (rate,))


class TestValidate:
    def test_well_formed_scenario_is_clean(self):
        s = Scenario({"i": 7, "j": 10}, [line_step("i", "j", 3, 2)])
        assert validate(s) == []

    def test_unknown_entity_named_with_step(self):
        s = Scenario({"i": 7}, [line_step("i", "X", 3, 2)])
        diagnostics = validate(s)
        assert len(diagnostics) == 1
        assert diagnostics[0].step == 0
        assert "'X'" in diagnostics[0].message

    def test_zero_radix_flagged(self):
        s = Scenario({"i": 7, "j": 1}, [line_step("i", "j", 0, 2)])
        assert any("radix" in d.message for d in validate(s))

    def test_bad_valence_flagged(self):
        bad = OperatorSpec(Form.F, ("i",), ("j",), (3,), (2,))
        s = Scenario({"i": 7, "j": 1}, [bad])
        assert any("valence" in d.message for d in validate(s))

    def test_operand_image_overlap_flagged(self):
        s = Scenario({"i": 7}, [line_step("i", "i", 3, 2)])
        assert any("overlap" in d.message for d in validate(s))

    def test_family_mix_flagged(self):
        s = Scenario(
            {"i": tri(4, 7, 9), "j": dfn({1: 1})},
            [line_step("i", "j", 3, 2)],
        )
        assert any("mixes" in d.message for d in validate(s))

    def test_empty_entity_id_flagged(self):
        s = Scenario({"": 7}, [])
        assert any("nonempty" in d.message for d in validate(s))

    def test_length_mismatch_flagged(self):
        bad = OperatorSpec(Form.D, ("i",), ("j", "k"), (3,), (2,))
        s = Scenario({"i": 7, "j": 0, "k": 0}, [bad])
        assert any("rates" in d.message for d in validate(s))

    @pytest.mark.parametrize("rate", [-1, tri(-1, 1, 2)])
    def test_negative_rate_flagged(self, rate):
        s = Scenario({"i": 7, "j": 1}, [line_step("i", "j", 3, rate)])
        assert [d.message for d in validate(s)] == [
            f"conversion rate must be >= 0, got {rate}"
        ]


class TestRun:
    def test_single_line_step(self):
        s = Scenario({"i": 7, "j": 10}, [line_step("i", "j", 3, 2)])
        trace = run(s)
        assert trace.final == {"i": 1, "j": 14}
        assert len(trace.steps) == 1
        assert trace.steps[0].result.carry == 2

    def test_chained_place_value_promotion(self):
        s = Scenario(
            {"ones": 13, "threes": 0, "sixes": 0},
            [
                line_step("ones", "threes", 3, 1),
                line_step("threes", "sixes", 2, 1),
            ],
        )
        trace = run(s)
        assert trace.steps[0].result.carry == 4
        assert trace.steps[0].result.remainder == 1
        assert trace.steps[1].result.carry == 2
        assert trace.steps[1].result.remainder == 0
        assert trace.final == {"ones": 1, "threes": 0, "sixes": 2}

    def test_empty_step_list(self):
        s = Scenario({"i": 7}, [])
        trace = run(s)
        assert trace.steps == ()
        assert trace.final == {"i": 7}

    def test_determinism(self):
        s = Scenario(
            {"i": tri(4, 7, 9), "j": 10},
            [line_step("i", "j", 3, 2)],
        )
        assert run(s) == run(s)

    def test_step_locality(self):
        s = Scenario(
            {"i": 7, "j": 10, "bystander": tri(1, 2, 3)},
            [line_step("i", "j", 3, 2)],
        )
        trace = run(s)
        assert trace.final["bystander"] == tri(1, 2, 3)

    def test_invalid_scenario_refuses_to_run(self):
        s = Scenario({"i": 7}, [line_step("i", "X", 3, 2)])
        with pytest.raises(ScenarioValidationError):
            run(s)

    def test_mid_run_operator_error_carries_step_index(self):
        # Step 0 leaves a negative lower bound in "i"; step 1 uses it as operand.
        s = Scenario(
            {"i": tri(4, 7, 9), "j": 0, "k": 0},
            [
                line_step("i", "j", 3, 2),
                line_step("i", "k", 2, 1),
            ],
        )
        with pytest.raises(StepExecutionError) as excinfo:
            run(s)
        assert excinfo.value.step == 1

    def test_warnings_accumulate_with_step_prefix(self):
        s = Scenario({"i": tri(4, 7, 9), "j": 10}, [line_step("i", "j", 3, 2)])
        trace = run(s)
        assert any(w.startswith("step 0:") for w in trace.warnings)

    def test_remainder_written_back_per_operand(self):
        s = Scenario(
            {"a": 7, "b": 9, "k": 0},
            [OperatorSpec(Form.F, ("a", "b"), ("k",), (3, 4), (2,))],
        )
        trace = run(s)
        assert trace.final == {"a": 1, "b": 1, "k": 4}

    def test_options_thread_through(self):
        s = Scenario(
            {"i": dfn({5: "0.5", 7: 1}), "j": 0},
            [line_step("i", "j", 3, 1)],
            TransformOptions(remainder_mode="extension"),
        )
        trace = run(s)
        assert trace.final["i"].points[0][0] == -1
        assert any("negative" in w for w in trace.warnings)
