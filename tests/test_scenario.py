import copy
import gc
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import dfn, tri
from fuzzysns import (
    Diagnostic,
    Form,
    FuzzySnsError,
    MixedFamilyError,
    OperatorSpec,
    OperatorSpecError,
    Scenario,
    ScenarioValidationError,
    StepExecutionError,
    TransformOptions,
    TransformResult,
    apply_D,
    apply_F,
    apply_L,
    apply_M,
    family,
    joint_family,
    run,
    validate,
)
from fuzzysns import operators
from fuzzysns import scenario as scenario_module
from fuzzysns.cli import _RENDERERS
from test_cli import random_scenario


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

    def test_every_fault_of_one_step_in_order(self):
        step = OperatorSpec(
            Form.L, ("a", "a", "X"), ("a", "t", "t"), (0, 1.5), (-1, "2"),
        )
        s = Scenario({"a": dfn({1: 1}), "t": tri(1, 2, 3)}, [step])
        assert validate(s) == [Diagnostic(0, message) for message in (
            "form L cannot take valence (3, 3)",
            "2 radices for 3 operands",
            "2 rates for 3 images",
            "unknown entity 'X'",
            "operand and image entities overlap: ['a']",
            "operand entities listed more than once: ['a']",
            "image entities listed more than once: ['t']",
            "radix must be >= 1, got 0",
            "radix 1.5 is not a fuzzy scalar",
            "conversion rate must be >= 0, got -1",
            "rate '2' is not a fuzzy scalar",
            "step mixes discrete and triangular values",
        )]

    def test_family_follows_the_writes(self):
        # Step 0 makes the crisp "b" triangular; step 1 then meets it with a discrete "c".
        s = Scenario(
            {"a": tri(1, 2, 3), "b": 0, "c": dfn({1: 1})},
            [line_step("a", "b", 1, 1), line_step("c", "b", 1, 1)],
        )
        assert validate(s) == [Diagnostic(1, "step mixes discrete and triangular values")]

    def test_crisp_joint_family_moves_nothing(self):
        # "a" meets "b" before "b" turns discrete; "a" stays crisp and may meet "d".
        s = Scenario(
            {"a": 5, "b": 0, "c": dfn({1: 1}), "d": tri(1, 2, 3)},
            [line_step("a", "b", 2, 1), line_step("c", "b", 1, 1), line_step("a", "d", 1, 1)],
        )
        assert validate(s) == []


    @pytest.mark.parametrize("cardinal", [1.5, True])
    def test_non_scalar_cardinal_reported_not_raised(self, cardinal):
        s = Scenario({"a": cardinal, "b": 0}, [line_step("a", "b", 3, 2)])
        assert [d.message for d in validate(s)] == ["entity 'a' has an invalid cardinal"]
        with pytest.raises(ScenarioValidationError):
            run(s)


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


def _random_value(rng, family, low):
    if family == "crisp":
        return rng.randint(low, 12)
    if family == "triangular":
        a, m, b = sorted(rng.randint(low, 12) for _ in range(3))
        return tri(a, m, b)
    values = rng.sample(range(low, 13), rng.randint(1, 3))
    grades = {v: f"0.{rng.randint(1, 9)}" for v in values}
    grades[rng.choice(values)] = 1
    return dfn(grades)


def _random_scenario(seed):
    """A runnable scenario over all four forms, with entities no step names."""
    rng = random.Random(f"state-view-{seed}")
    family = rng.choice(("crisp", "discrete", "triangular"))
    named = [f"e{k}" for k in range(6)]
    entities = named + [f"bystander{k}" for k in range(rng.randint(0, 3))]
    rng.shuffle(entities)
    initial = {e: _random_value(rng, family, 0) for e in entities}
    steps = []
    for _ in range(rng.choice((0, 1, 3, 6))):
        form = rng.choice(list(Form))
        w = 1 if form in (Form.L, Form.D) else rng.randint(2, 3)
        v = 1 if form in (Form.L, Form.F) else rng.randint(2, 3)
        picked = rng.sample(named, w + v)
        radices = [_random_value(rng, family, 1) for _ in range(w)]
        rates = [_random_value(rng, family, 0) for _ in range(v)]
        steps.append(OperatorSpec(form, picked[:w], picked[w:], radices, rates))
    mode = rng.choice(("correlated", "extension"))
    return Scenario(initial, steps, TransformOptions(mode, clamp_negative=True))


class TestTraceStates:
    @pytest.mark.parametrize("seed", range(60))
    def test_states_replay_the_writes(self, seed):
        scenario = _random_scenario(seed)
        trace = run(scenario)
        expected = dict(scenario.initial)
        for step in trace.steps:
            expected.update(step.result.remainders)
            expected.update(step.result.new_image_cardinals)
            assert step.state == expected
            assert all(step.state[e] is value for e, value in expected.items())
            assert len(step.state) == len(expected)
            assert list(step.state.items()) == list(expected.items())
        assert type(trace.final) is dict
        assert list(trace.final.items()) == list(expected.items())

    def test_state_is_read_only(self):
        trace = run(Scenario({"i": 7, "j": 10}, [line_step("i", "j", 3, 2)]))
        with pytest.raises(TypeError):
            trace.steps[0].state["x"] = 0
        assert dict(trace.steps[0].state) == {"i": 1, "j": 14}

    @pytest.mark.parametrize("seed", range(10))
    def test_states_ignore_later_edits_of_the_initial_multeity(self, seed):
        scenario = _random_scenario(seed)
        trace = run(scenario)
        before = [dict(step.state) for step in trace.steps]
        for entity_id in scenario.initial:
            scenario.initial[entity_id] = object()
        assert [dict(step.state) for step in trace.steps] == before

    @pytest.mark.parametrize("seed", range(10))
    def test_trace_is_freed_by_reference_counting(self, seed):
        scenario = _random_scenario(seed)
        gc.disable()
        try:
            gc.collect()
            trace = run(scenario)
            del trace
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_long_chain_stores_no_state_copies(self):
        # One copy of a 1500-entity state per step would take tens of megabytes.
        count = 1500
        initial = {f"e{k}": 1000 + k for k in range(count)}
        steps = [line_step(f"e{k}", f"e{k + 1}", 3, 1) for k in range(count - 1)]
        scenario = Scenario(initial, steps)
        tracemalloc.start()
        try:
            trace = run(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.steps) == count - 1
        assert peak < 10 * 1024 * 1024


def _discrete_scenario(seed):
    """Discrete entities and radices over every form, extension remainders, clamped."""
    rng = random.Random(f"discrete-{seed}")

    def number(low, high):
        values = rng.sample(range(low, high), rng.randint(1, min(10, high - low)))
        grades = {v: Fraction(rng.randint(1, 4), 4) for v in values}
        grades[rng.choice(values)] = 1
        return dfn(grades)

    names = [f"e{k}" for k in range(8)]
    steps = []
    for _ in range(12):
        form = rng.choice(list(Form))
        w = 1 if form in (Form.L, Form.D) else 2
        v = 1 if form in (Form.L, Form.F) else 2
        picked = rng.sample(names, w + v)
        radices = [number(2, 7) for _ in range(w)]
        rates = [number(0, 3) for _ in range(v)]
        steps.append(OperatorSpec(form, picked[:w], picked[w:], radices, rates))
    initial = {name: number(0, 40) for name in names}
    return Scenario(initial, steps, TransformOptions("extension", clamp_negative=True))


@pytest.mark.parametrize("seed", range(5))
def test_run_builds_no_pair_tuple(monkeypatch, seed):
    # A number stores its support and grades; its (value, grade) pairs are built
    # only when ``points`` is read, and nothing on the eval path reads it.
    clamped = []
    kernel = operators.dfn_zadeh_binary

    def spy(op, a, b):
        clamped.append(op is max)
        return kernel(op, a, b)

    monkeypatch.setattr(operators, "dfn_zadeh_binary", spy)
    trace = run(_discrete_scenario(seed))
    assert any(clamped)
    numbers = list(trace.final.values())
    for step in trace.steps:
        result = step.result
        numbers += [*step.spec.radices, *step.spec.rates, *step.state.values()]
        numbers += [result.common_carry] * (result.common_carry is not None)
        for values in (result.partial_carries, result.remainders, result.transformants,
                       result.new_image_cardinals):
            numbers += values.values()
    assert {family(n) for n in numbers} == {"discrete"}
    assert not [n for n in numbers if hasattr(n, "_points")]


def _runs():
    """Traces of the discrete scenarios and of 200 random draws over every family."""
    rng = random.Random(3141)
    traces = [run(_discrete_scenario(seed)) for seed in range(5)]
    for scenario in [random_scenario(rng) for _ in range(200)]:
        try:
            traces.append(run(scenario))
        except FuzzySnsError:
            continue
    assert len(traces) > 150
    return traces


_SINGLES = ("carry", "remainder", "transformant", "new_image")


def _singles(result):
    """The single-value properties that ``result`` has one value for, by name."""
    out = {}
    for name in _SINGLES:
        try:
            out[name] = getattr(result, name)
        except OperatorSpecError:
            continue
    return out


def test_eval_builds_no_result_map():
    # A result is stored flat; run, the step states, every renderer and the four
    # single-value properties read that form, so no result's four maps are built.
    for trace in _runs():
        for render in _RENDERERS.values():
            assert render(trace)
        singles = []
        for step in trace.steps:
            dict(step.state)
            singles.append(_singles(step.result))
        assert not [s.index for s in trace.steps if hasattr(s.result, "_maps")]
        for step, single in zip(trace.steps, singles):
            result = step.result
            expected = {name: next(iter(m.values()))
                        for name, m in zip(_SINGLES, _maps(result)) if len(m) == 1}
            if result.common_carry is not None:
                expected["carry"] = result.common_carry
            assert single == expected
            assert len(single) == 4 or step.spec.form is not Form.L


def _maps(result):
    return [result.partial_carries, result.remainders, result.transformants,
            result.new_image_cardinals]


def test_results_from_run_round_trip():
    # Each map is derived from the flat form on first read and kept; the constructor,
    # equality, hash, copies and pickles go by the maps as before.
    for trace in _runs():
        for step in trace.steps:
            result, operands, images = step.result, step.spec.operands, step.spec.images
            w, v = len(operands), len(images)
            assert len(result._values) == 2 * (w + v)
            ends = (0, w, 2 * w, 2 * w + v, 2 * (w + v))
            expected = [
                dict(zip(ids, result._values[start:end]))
                for ids, start, end in zip((operands, operands, images, images), ends, ends[1:])
            ]
            first = _maps(result)
            assert first == expected
            assert all(a is b for a, b in zip(first, _maps(result)))
            assert TransformResult(*result._fields) == result
            with pytest.raises(TypeError):
                hash(result)
            twins = [copy.deepcopy(result)]
            twins += [pickle.loads(pickle.dumps(result, protocol)) for protocol in (2, 5)]
            assert twins == [result] * 3


def _three_family_scenario(seed):
    """Crisp, discrete and triangular entities; steps may turn a crisp one fuzzy."""
    rng = random.Random(f"family-flow-{seed}")
    families = ["crisp"] * 6 + ["discrete"] * 2 + ["triangular"] * 2
    initial = {f"e{k}": _random_value(rng, family, 0) for k, family in enumerate(families)}
    steps = []
    for _ in range(rng.randint(2, 4)):
        form = rng.choice(list(Form))
        w = 1 if form in (Form.L, Form.D) else 2
        v = 1 if form in (Form.L, Form.F) else 2
        picked = rng.sample(sorted(initial), w + v)
        radices = [rng.randint(1, 3) for _ in range(w)]
        rates = [rng.randint(0, 2) for _ in range(v)]
        steps.append(OperatorSpec(form, picked[:w], picked[w:], radices, rates))
    return Scenario(initial, steps, TransformOptions(clamp_negative=True))


class TestFamilyFlow:
    def test_clean_validation_means_no_family_mix_at_run_time(self):
        clean = 0
        for seed in range(300):
            scenario = _three_family_scenario(seed)
            if validate(scenario):
                continue
            clean += 1
            try:
                run(scenario)
            except StepExecutionError as exc:
                assert not isinstance(exc.cause, MixedFamilyError), (seed, exc)
        assert clean >= 50


def _reference_step(step, state, options):
    """The step through the public operator of its form, as ``run`` once dispatched it."""
    operands = [state[e] for e in step.operands]
    images = [state[e] for e in step.images]
    if step.form == Form.L:
        return apply_L(
            operands[0], images[0], step.radices[0], step.rates[0],
            options=options, operand_id=step.operands[0], image_id=step.images[0],
        )
    if step.form == Form.D:
        return apply_D(
            operands[0], images, step.radices[0], step.rates,
            options=options, operand_id=step.operands[0], image_ids=step.images,
        )
    if step.form == Form.F:
        return apply_F(
            operands, images[0], step.radices, step.rates[0],
            options=options, operand_ids=step.operands, image_id=step.images[0],
        )
    return apply_M(
        operands, images, step.radices, step.rates,
        options=options, operand_ids=step.operands, image_ids=step.images,
    )


class TestPlannedRun:
    def test_run_equals_a_replay_through_the_public_operators(self):
        rng = random.Random(2718)
        seen = set()
        for _ in range(400):
            scenario = random_scenario(rng)
            if validate(scenario):
                continue
            try:
                trace, failure = run(scenario), None
            except StepExecutionError as exc:
                trace, failure = None, exc
            state, warnings = dict(scenario.initial), []
            for index, step in enumerate(scenario.steps):
                try:
                    result = _reference_step(step, state, scenario.options)
                except (FuzzySnsError, ValueError) as exc:
                    # run stops at the same step, for the same reason.
                    assert failure is not None and failure.step == index
                    assert type(failure.cause) is type(exc) and str(failure.cause) == str(exc)
                    break
                state.update(result.remainders)
                state.update(result.new_image_cardinals)
                warnings.extend(f"step {index}: {w}" for w in result.warnings)
                options = scenario.options
                seen.add((family(result.carry), options.remainder_mode, options.clamp_negative))
                if trace is not None:
                    assert trace.steps[index].result == result
                    assert dict(trace.steps[index].state) == state
            else:
                assert failure is None
                assert trace.final == state and list(trace.warnings) == warnings
        # Every family in both remainder modes, clamped and not.
        assert len(seen) == 12, sorted(seen)

    @pytest.mark.parametrize("seed", range(12))
    def test_run_classifies_nothing_again(self, monkeypatch, seed):
        scenario = _random_scenario(seed)
        calls = {"joint_family": 0, "operators._check_radix": 0, "scenario._check_radix": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(operators, "joint_family", counting("joint_family", joint_family))
        for module in (operators, scenario_module):
            name = f"{module.__name__.rsplit('.', 1)[1]}._check_radix"
            monkeypatch.setattr(module, "_check_radix", counting(name, module._check_radix))
        trace = run(scenario)
        radices = sum(len(step.radices) for step in scenario.steps)
        assert len(trace.steps) == len(scenario.steps)
        assert calls == {
            "joint_family": 0, "operators._check_radix": 0, "scenario._check_radix": radices,
        }


class TestHashableIds:
    """``validate`` reports on ids of any hashable type, in first-appearance order."""

    def test_mixed_type_repeats_are_diagnostics(self):
        step = OperatorSpec(Form.M, ("a", 1, "a", 1), ("b", "c"), (2, 2, 2, 2), (1, 1))
        s = Scenario({"a": 7, "b": 0, "c": 0}, [step])
        assert validate(s) == [
            Diagnostic(0, "unknown entity '1'"),
            Diagnostic(0, "unknown entity '1'"),
            Diagnostic(0, "operand entities listed more than once: ['a', 1]"),
        ]
        with pytest.raises(ScenarioValidationError):
            run(s)

    def test_mixed_type_overlap_is_a_diagnostic(self):
        step = OperatorSpec(Form.M, ("a", 1), (1, "a"), (2, 2), (1, 1))
        s = Scenario({"a": 7, "b": 0}, [step])
        assert "operand and image entities overlap: ['a', 1]" in [d.message for d in validate(s)]

    def test_validate_lists_repeats_in_the_operators_order(self):
        ids = ("b", "a", "b", "a")
        with pytest.raises(OperatorSpecError) as excinfo:
            apply_M([7] * 4, [0, 0], [2] * 4, [1, 1], operand_ids=ids)
        s = Scenario({"a": 7, "b": 9, "c": 0, "d": 0},
                     [OperatorSpec(Form.M, ids, ("c", "d"), (2,) * 4, (1, 1))])
        assert str(excinfo.value) == "entity ids listed more than once: ['b', 'a']"
        assert [d.message for d in validate(s)] == [
            "operand entities listed more than once: ['b', 'a']"
        ]

    @pytest.mark.parametrize("chunk", range(4))
    def test_odd_ids_and_scalars_never_raise_from_validate(self, chunk):
        for seed in range(500 * chunk, 500 * (chunk + 1)):
            scenario = _odd_scenario(random.Random(f"odd-ids-{seed}"))
            diagnostics = validate(scenario)
            assert all(isinstance(d, Diagnostic) for d in diagnostics), seed
            try:
                run(scenario)
            except (ScenarioValidationError, StepExecutionError):
                pass


class TestIdsThatCannotBeHashedOrPrinted:
    """``validate`` and the operators name any id; an int too long for ``str`` by its size."""

    def test_unhashable_step_ids_are_unknown_entities(self):
        steps = [
            OperatorSpec(Form.L, (["a"],), ("b",), (2,), (1,)),
            OperatorSpec(Form.F, ("a", ("a", ["x"])), ("b",), (2, 2), (1,)),
        ]
        s = Scenario({"a": 7, "b": 0}, steps)
        assert validate(s) == [
            Diagnostic(0, "unknown entity '['a']'"),
            Diagnostic(1, "unknown entity '('a', ['x'])'"),
        ]
        with pytest.raises(ScenarioValidationError):
            run(s)

    def test_int_ids_too_long_for_str_show_their_size(self):
        big = 10**5000
        step = OperatorSpec(Form.F, (big, big), ("c",), (2, 2), (1,))
        assert [str(d) for d in validate(Scenario({big: 1, "b": 0}, [step]))] == [
            "entity id int of 16610 bits must be a nonempty string",
            "step 0: unknown entity 'c'",
            "step 0: operand entities listed more than once: [int of 16610 bits]",
        ]
        with pytest.raises(OperatorSpecError) as excinfo:
            apply_F([7, 7], 0, [2, 2], 1, operand_ids=(big, big))
        assert str(excinfo.value) == "entity ids listed more than once: [int of 16610 bits]"
        extension = TransformOptions("extension")
        result = apply_L(dfn({6: 1, 9: "0.5"}), 0, 3, 1, options=extension, operand_id=big)
        assert result.warnings == (
            "remainder for 'int of 16610 bits' has negative support values (min -3)",
        )


# Hashable ids that are not nonempty strings; 1 and True are one dict key.
_ODD_IDS = ("", 1, True, None, 2.0, (1,))
# Values no slot accepts, or accepts only when they are at least 0 or 1.
_ODD_SCALARS = (-1, 0, True, 1.5, "2", None, Fraction(1, 2), -(10**5000), tri(-2, 0, 1))


def _odd_scalar(rng, odd, fuzzy, low):
    if rng.random() < odd:
        return rng.choice(_ODD_SCALARS)
    return _random_value(rng, rng.choice(("crisp", fuzzy)), low)


def _odd_scenario(rng):
    """A library-built scenario whose ids and values a document could not hold.

    Half the draws take ids from ``_ODD_IDS`` as well as from six strings, so
    an id may be odd, unknown, repeated or shared between operands and images.  Any
    value may be one of ``_ODD_SCALARS``, and one step in four has a random
    valence and radix and rate counts off by one; the rest can run.
    """
    names = ["a", "b", "c", "d", "e", "f"]
    pool = names + list(_ODD_IDS) if rng.random() < 0.5 else names
    odd = rng.choice((0.0, 0.05, 0.3))
    fuzzy = rng.choice(("discrete", "triangular"))
    known = names + rng.sample(pool[len(names):], rng.randint(0, len(pool) - len(names)))
    initial = {e: _odd_scalar(rng, odd, fuzzy, 0) for e in known}
    steps = []
    for _ in range(rng.randint(1, 4)):
        form = rng.choice(list(Form))
        w = 1 if form in (Form.L, Form.D) else rng.randint(2, 3)
        v = 1 if form in (Form.L, Form.F) else rng.randint(2, 3)
        ids = rng.sample(pool, w + v)
        counts = (w, v)
        if rng.random() < 0.25:
            w, v = rng.randint(1, 3), rng.randint(1, 3)
            ids = [rng.choice(pool) for _ in range(w + v)]
            counts = (max(0, w + rng.randint(-1, 1)), max(0, v + rng.randint(-1, 1)))
        steps.append(OperatorSpec(
            form, ids[:w], ids[w:],
            [_odd_scalar(rng, odd, fuzzy, 1) for _ in range(counts[0])],
            [_odd_scalar(rng, odd, fuzzy, 0) for _ in range(counts[1])],
        ))
    options = TransformOptions(rng.choice(("correlated", "extension")), rng.random() < 0.5)
    return Scenario(initial, steps, options)


class TestValuesPastTheDigitLimitAndUnprintableIds:
    """Every diagnostic shows an id or a value on one line, whatever the value."""

    def test_non_scalars_holding_a_long_int_are_diagnostics(self):
        big = 10**5000
        rate = Scenario({"a": 7, "b": 0}, [line_step("a", "b", 2, [big])])
        assert validate(rate) == [
            Diagnostic(0, "rate [int of 16610 bits] is not a fuzzy scalar")
        ]
        assert validate(Scenario({"a": [big]}, [])) == [
            Diagnostic(None, "entity 'a' has an invalid cardinal")
        ]

    def test_long_negative_radix_is_shown_by_its_size(self):
        s = Scenario({"a": 7, "b": 0}, [line_step("a", "b", -(10**5000), 1)])
        assert [str(d) for d in validate(s)] == [
            "step 0: radix must be >= 1, got int of 16610 bits"
        ]

    @pytest.mark.parametrize("chunk", range(4))
    def test_validate_never_raises_and_every_message_is_one_line(self, chunk):
        for seed in range(500 * chunk, 500 * (chunk + 1)):
            scenario = _long_or_unprintable_scenario(random.Random(f"one-line-{seed}"))
            diagnostics = validate(scenario)
            assert all(len(str(d).splitlines()) == 1 for d in diagnostics), seed
            try:
                warnings = run(scenario).warnings
            except (ScenarioValidationError, StepExecutionError) as exc:
                warnings = (str(exc),)
            assert all(len(w.splitlines()) == 1 for w in warnings), seed


# Values past the int digit limit, alone or inside a container no slot accepts.
_LONG_SCALARS = ([10**5000], (-(10**5000),), {1: 10**5000}, 10**5000, -(10**5000))


def _long_or_unprintable_scenario(rng):
    """A library-built scenario whose ids may hold line breaks and whose values may be long.

    Ids come from four strings and two that do not print; one value in five is one
    of ``_LONG_SCALARS``.  Steps name ids at random, so some are unknown or repeated.
    """
    pool = ["a", "b", "c", "d", "a\nb", "c\rd"]
    fuzzy = rng.choice(("discrete", "triangular"))

    def value(low):
        if rng.random() < 0.2:
            return rng.choice(_LONG_SCALARS)
        return _random_value(rng, rng.choice(("crisp", fuzzy)), low)

    known = rng.sample(pool, rng.randint(2, len(pool)))
    initial = {e: value(0) for e in known}
    steps = []
    for _ in range(rng.randint(1, 3)):
        form = rng.choice(list(Form))
        w = 1 if form in (Form.L, Form.D) else 2
        v = 1 if form in (Form.L, Form.F) else 2
        ids = [rng.choice(pool) for _ in range(w + v)]
        steps.append(OperatorSpec(
            form, ids[:w], ids[w:], [value(1) for _ in range(w)], [value(0) for _ in range(v)]
        ))
    options = TransformOptions(rng.choice(("correlated", "extension")), rng.random() < 0.5)
    return Scenario(initial, steps, options)
