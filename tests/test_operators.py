import operator
import random
import re

import pytest

from pinned_cases import DISTRIBUTION_CASES, FUSION_CASES, LINE_CASES, MULTI_CASES
from conftest import dfn, tri
from fuzzysns import (
    DiscreteFuzzyNumber,
    DomainError,
    InvalidRadixError,
    MixedFamilyError,
    OperatorSpec,
    OperatorSpecError,
    Scenario,
    StepExecutionError,
    TransformOptions,
    TriangularFuzzyNumber,
    apply_D,
    apply_F,
    apply_L,
    apply_M,
    crisp_D,
    crisp_F,
    crisp_L,
    crisp_M,
    crisp_value,
    dfn_zadeh_binary,
    lift_discrete,
    run,
    zadeh_oracle,
)
from fuzzysns import operators
from fuzzysns.numbers import DISCRETE, TRIANGULAR

EXTENSION = TransformOptions(remainder_mode="extension")


@pytest.mark.parametrize("name,args,expected", LINE_CASES, ids=[c[0] for c in LINE_CASES])
def test_line_pinned_cases(name, args, expected):
    result = apply_L(**args)
    assert result.carry == expected["carry"]
    assert result.remainder == expected["remainder"]
    assert result.transformant == expected["transformant"]
    assert result.new_image == expected["new_image"]


@pytest.mark.parametrize(
    "name,args,expected", DISTRIBUTION_CASES, ids=[c[0] for c in DISTRIBUTION_CASES]
)
def test_distribution_pinned_cases(name, args, expected):
    result = apply_D(**args)
    assert result.carry == expected["carry"]
    assert result.remainder == expected["remainder"]
    assert list(result.transformants.values()) == expected["transformants"]
    assert list(result.new_image_cardinals.values()) == expected["new_images"]


@pytest.mark.parametrize("name,args,expected", FUSION_CASES, ids=[c[0] for c in FUSION_CASES])
def test_fusion_pinned_cases(name, args, expected):
    result = apply_F(**args)
    assert list(result.partial_carries.values()) == expected["partials"]
    assert result.common_carry == expected["common"]
    assert list(result.remainders.values()) == expected["remainders"]
    assert result.transformant == expected["transformant"]
    assert result.new_image == expected["new_image"]


@pytest.mark.parametrize("name,args,expected", MULTI_CASES, ids=[c[0] for c in MULTI_CASES])
def test_multi_pinned_cases(name, args, expected):
    result = apply_M(**args)
    assert list(result.partial_carries.values()) == expected["partials"]
    assert result.common_carry == expected["common"]
    assert list(result.remainders.values()) == expected["remainders"]
    assert list(result.transformants.values()) == expected["transformants"]
    assert list(result.new_image_cardinals.values()) == expected["new_images"]


class TestDiscreteLine:
    def test_fuzzy_cardinal_crisp_operator(self):
        result = apply_L(dfn({6: "0.5", 7: 1, 8: "0.3"}), 1, 3, 2)
        assert result.carry == dfn({2: 1})
        assert result.transformant == dfn({4: 1})
        assert result.new_image == dfn({5: 1})
        assert result.remainder == dfn({0: "0.5", 1: 1, 2: "0.3"})

    def test_fuzzy_radix_carries_spread(self):
        result = apply_L(7, 0, dfn({2: "0.6", 3: 1}), 1)
        assert result.carry == dfn({2: 1, 3: "0.6"})
        assert result.new_image == dfn({2: 1, 3: "0.6"})
        # Correlated remainder: 7 mod 2 and 7 mod 3 both land on 1; max grade wins.
        assert result.remainder == dfn({1: 1})

    def test_fuzzy_radix_correlated_remainder_spreads(self):
        result = apply_L(8, 0, dfn({3: "0.6", 5: 1}), 1)
        assert result.remainder == dfn({2: "0.6", 3: 1})

    def test_fuzzy_image_cardinal(self):
        result = apply_L(dfn({6: "0.5", 7: 1}), dfn({0: 1, 1: "0.4"}), 3, 2)
        assert result.new_image == dfn_zadeh_binary(
            operator.add, dfn({0: 1, 1: "0.4"}), dfn({4: 1})
        )

    def test_remainder_modes_differ(self):
        cardinal = dfn({5: "0.5", 7: 1})
        correlated = apply_L(cardinal, 0, 3, 1).remainder
        extension = apply_L(cardinal, 0, 3, 1, options=EXTENSION).remainder
        assert correlated == dfn({2: "0.5", 1: 1})
        assert extension == dfn({-1: "0.5", 1: 1, 2: "0.5", 4: "0.5"})

    def test_extension_remainder_matches_oracle_composition(self):
        cardinal = dfn({5: "0.5", 7: 1, 9: "0.2"})
        radix = dfn({2: "0.6", 3: 1})
        result = apply_L(cardinal, 0, radix, 1, options=EXTENSION)
        carry = zadeh_oracle(operator.floordiv, cardinal, radix)
        product = zadeh_oracle(operator.mul, carry, radix)
        assert result.remainder == zadeh_oracle(operator.sub, cardinal, product)

    def test_negative_extension_remainder_flagged(self):
        result = apply_L(dfn({5: "0.5", 7: 1}), 0, 3, 1, options=EXTENSION)
        assert any("negative" in w for w in result.warnings)

    def test_clamp_mode_raises_floor_to_zero(self):
        options = TransformOptions(remainder_mode="extension", clamp_negative=True)
        result = apply_L(dfn({5: "0.5", 7: 1}), 0, 3, 1, options=options)
        assert result.remainder.points[0][0] >= 0
        assert result.warnings == ()

    @pytest.mark.parametrize(
        "cardinal, clamped",
        [
            (dfn({4: "0.3", 5: "0.6", 7: 1}), dfn({0: "0.6", 1: 1, 2: "0.6", 4: "0.6"})),
            (dfn({4: "0.6", 5: "0.3", 7: 1}), dfn({0: "0.6", 1: 1, 2: "0.3", 4: "0.6"})),
        ],
    )
    def test_clamp_collapse_keeps_the_larger_grade(self, cardinal, clamped):
        # The extension remainders hold -2 and -1 with different grades;
        # both become 0, which keeps the larger of the two.
        options = TransformOptions(remainder_mode="extension", clamp_negative=True)
        assert apply_L(cardinal, 0, 3, 1, options=options).remainder == clamped


class TestTriangularEdges:
    def test_negative_remainder_warning(self):
        result = apply_L(tri(4, 7, 9), 10, 3, 2)
        assert result.remainder == tri(-5, 1, 6)
        assert any("negative lower bound -5" in w for w in result.warnings)

    def test_clamp_negative(self):
        result = apply_L(tri(4, 7, 9), 10, 3, 2, options=TransformOptions(clamp_negative=True))
        assert result.remainder == tri(0, 1, 6)
        assert result.warnings == ()

    def test_zero_lower_radix_rejected(self):
        with pytest.raises(InvalidRadixError):
            apply_L(tri(4, 7, 9), 0, tri(0, 1, 2), 1)

    def test_negative_operand_rejected(self):
        with pytest.raises(DomainError):
            apply_L(tri(-1, 7, 9), 0, 3, 1)

    def test_family_mix_rejected(self):
        with pytest.raises(MixedFamilyError):
            apply_L(tri(4, 7, 9), 0, dfn({3: 1}), 1)
        with pytest.raises(MixedFamilyError):
            apply_M([tri(1, 2, 3), dfn({2: 1})], [0, 0], [1, 1], [1, 1])

    def test_fuzzy_image_alone_lifts_the_call(self):
        # A fuzzy initial image cardinal makes the whole result triangular.
        result = apply_L(7, tri(1, 2, 3), 3, 2)
        assert result.carry == tri(2, 2, 2)
        assert result.new_image == tri(5, 6, 7)


class TestFusionAndMulti:
    def test_disjoint_partial_carries_form_via_least_mode(self):
        # Radix 1 makes the partial carries equal the operands themselves.
        result = apply_F([dfn({2: 1}), dfn({5: "0.5", 6: 1})], 0, [1, 1], 1)
        assert result.common_carry == dfn({2: 1})

    def test_crisp_operands_reproduce_crisp_fusion(self):
        fuzzy = apply_F([7, 9], 0, [3, 4], 2)
        crisp = crisp_F([7, 9], 0, [3, 4], 2)
        assert fuzzy == crisp

    def test_blocked_carry_zeroes_triangular_transformants(self):
        result = apply_M([0, tri(5, 9, 13)], [0, 0], [3, 4], [2, 5])
        assert result.common_carry.upper == 0
        assert list(result.transformants.values()) == [tri(0, 0, 0), tri(0, 0, 0)]

    def test_discrete_fusion_remainders_use_formed_carry(self):
        cardinals = [dfn({6: "0.5", 7: 1}), dfn({9: 1})]
        result = apply_F(cardinals, 0, [3, 4], 1)
        common = result.common_carry
        for cardinal, radix, remainder in zip(cardinals, [3, 4], result.remainders.values()):
            product = zadeh_oracle(operator.mul, common, lift_discrete(radix))
            assert remainder == zadeh_oracle(operator.sub, cardinal, product)

    def test_triangular_common_carry_dominated_by_partials(self):
        result = apply_F([tri(4, 7, 9), tri(3, 9, 20)], 0, [3, 4], 1)
        for partial in result.partial_carries.values():
            assert result.common_carry.lower <= partial.lower
            assert result.common_carry.mode <= partial.mode
            assert result.common_carry.upper <= partial.upper


class TestValenceDegenerations:
    def test_distribution_with_one_image_equals_line(self):
        d = apply_D(tri(4, 7, 9), [0], 3, [2])
        line = apply_L(tri(4, 7, 9), 0, 3, 2)
        assert d.carry == line.carry
        assert d.remainder == line.remainder
        assert list(d.transformants.values()) == [line.transformant]

    def test_single_image_distribution_with_fuzzy_rate(self):
        result = apply_D(7, [1], 3, [tri(1, 2, 3)])
        assert list(result.transformants.values()) == [tri(2, 4, 6)]
        assert list(result.new_image_cardinals.values()) == [tri(3, 5, 7)]

    def test_multi_degenerations(self):
        m = apply_M([tri(4, 7, 9), tri(5, 9, 13)], [0], [3, 4], [2], image_ids=("k",))
        f = apply_F([tri(4, 7, 9), tri(5, 9, 13)], 0, [3, 4], 2)
        assert m.common_carry == f.common_carry
        assert m.remainders == f.remainders
        assert m.transformants == f.transformants


def _random_scalar(rng, fam, low, high, radix=False):
    lo = 1 if radix else low
    if fam == "crisp":
        return rng.randint(lo, high)
    a = rng.randint(lo, high)
    m = rng.randint(a, high)
    b = rng.randint(m, high)
    return TriangularFuzzyNumber(a, m, b)


def _lift_slot(rng, value, fuzzy, fam):
    """Degenerate lift when this slot is fuzzy under the current pattern."""
    if not fuzzy:
        return value
    if fam == "triangular":
        return TriangularFuzzyNumber(value, value, value)
    return DiscreteFuzzyNumber({value: 1})


PATTERNS = {
    "fuzzy_cardinal": ("N",),
    "fuzzy_radix": ("n",),
    "fuzzy_rate": ("r",),
    "fuzzy_radix_rate": ("n", "r"),
    "whole": ("N", "n", "r", "img"),
}


@pytest.mark.parametrize("fam", ["triangular", "discrete"])
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
@pytest.mark.parametrize("form", ["L", "D", "F", "M"])
def test_crisp_consistency_master_property(form, pattern, fam):
    """Degenerate fuzzy arguments reproduce the crisp operator field by field."""
    rng = random.Random(f"{form}/{pattern}/{fam}")
    slots = PATTERNS[pattern]
    for _ in range(150):
        w = 1 if form in "LD" else rng.randint(2, 4)
        v = 1 if form in "LF" else rng.randint(2, 4)
        operands = [rng.randint(0, 400) for _ in range(w)]
        images = [rng.randint(0, 50) for _ in range(v)]
        radices = [rng.randint(1, 9) for _ in range(w)]
        rates = [rng.randint(0, 6) for _ in range(v)]

        f_operands = [_lift_slot(rng, x, "N" in slots, fam) for x in operands]
        f_images = [_lift_slot(rng, x, "img" in slots, fam) for x in images]
        f_radices = [_lift_slot(rng, x, "n" in slots, fam) for x in radices]
        f_rates = [_lift_slot(rng, x, "r" in slots, fam) for x in rates]

        if form == "L":
            got = apply_L(f_operands[0], f_images[0], f_radices[0], f_rates[0])
            want = crisp_L(operands[0], images[0], radices[0], rates[0])
        elif form == "D":
            got = apply_D(f_operands[0], f_images, f_radices[0], f_rates)
            want = crisp_D(operands[0], images, radices[0], rates)
        elif form == "F":
            got = apply_F(f_operands, f_images[0], f_radices, f_rates[0])
            want = crisp_F(operands, images[0], radices, rates[0])
        else:
            got = apply_M(f_operands, f_images, f_radices, f_rates)
            want = crisp_M(operands, images, radices, rates)

        for mapping, crisp_mapping in (
            (got.partial_carries, want.partial_carries),
            (got.remainders, want.remainders),
            (got.transformants, want.transformants),
            (got.new_image_cardinals, want.new_image_cardinals),
        ):
            assert mapping.keys() == crisp_mapping.keys()
            for key in mapping:
                assert crisp_value(mapping[key]) == crisp_mapping[key]
        if want.common_carry is None:
            assert got.common_carry is None
        else:
            assert crisp_value(got.common_carry) == want.common_carry


def test_mode_tracking_follows_crisp_operator():
    """Modes of triangular outputs equal the crisp operator on input modes."""
    rng = random.Random(99)
    for _ in range(300):
        operands = [_random_scalar(rng, rng.choice(("crisp", "tri")), 0, 300) for _ in range(2)]
        radices = [_random_scalar(rng, rng.choice(("crisp", "tri")), 1, 9, radix=True) for _ in range(2)]
        rate = _random_scalar(rng, rng.choice(("crisp", "tri")), 0, 6)
        image = _random_scalar(rng, rng.choice(("crisp", "tri")), 0, 40)

        def mode(x):
            return x.mode if isinstance(x, TriangularFuzzyNumber) else x

        got = apply_F(operands, image, radices, rate)
        if isinstance(got.common_carry, int):
            continue  # all-crisp draw
        want = crisp_F(
            [mode(x) for x in operands], mode(image), [mode(x) for x in radices], mode(rate)
        )
        assert got.common_carry.mode == want.common_carry
        for key in got.remainders:
            assert got.remainders[key].mode == want.remainders[key]
        assert got.transformant.mode == want.transformant
        assert got.new_image.mode == want.new_image


def test_triangular_ordering_invariant_randomized():
    rng = random.Random(4242)
    for _ in range(2000):
        form = rng.choice("LDFM")
        w = 1 if form in "LD" else rng.randint(2, 3)
        v = 1 if form in "LF" else rng.randint(2, 3)
        kinds = ("crisp", "tri")
        operands = [_random_scalar(rng, rng.choice(kinds), 0, 500) for _ in range(w)]
        images = [_random_scalar(rng, rng.choice(kinds), 0, 50) for _ in range(v)]
        radices = [_random_scalar(rng, rng.choice(kinds), 1, 9, radix=True) for _ in range(w)]
        rates = [_random_scalar(rng, rng.choice(kinds), 0, 6) for _ in range(v)]
        if form == "L":
            result = apply_L(operands[0], images[0], radices[0], rates[0])
        elif form == "D":
            result = apply_D(operands[0], images, radices[0], rates)
        elif form == "F":
            result = apply_F(operands, images[0], radices, rates[0])
        else:
            result = apply_M(operands, images, radices, rates)
        fields = [
            *result.partial_carries.values(),
            *result.remainders.values(),
            *result.transformants.values(),
            *result.new_image_cardinals.values(),
        ]
        if result.common_carry is not None:
            fields.append(result.common_carry)
        for value in fields:
            if isinstance(value, TriangularFuzzyNumber):
                assert value.lower <= value.mode <= value.upper


def _fused_forms_form_a_carry_even_for_one_operand():
    # Correlated remainders belong to L and D; F and M always form a common
    # carry and subtract it with the extension, whatever the operand count.
    cardinal = dfn({5: "0.5", 7: 1})
    extension = dfn({-1: "0.5", 1: 1, 2: "0.5", 4: "0.5"})
    for fused in (apply_F([cardinal], 0, [3], 1), apply_M([cardinal], [0], [3], [1])):
        assert fused.common_carry is not None
        assert fused.remainder == extension
    for single in (apply_L(cardinal, 0, 3, 1), apply_D(cardinal, [0], 3, [1])):
        assert single.common_carry is None
        assert single.remainder == dfn({1: 1, 2: "0.5"})


def _negative_image_rejected_only_when_all_crisp():
    with pytest.raises(DomainError):
        apply_L(7, -1, 3, 2)
    assert apply_L(dfn({5: "0.5", 7: 1}), -1, 3, 1).new_image == dfn({0: "0.5", 1: 1})


def _crisp_operators_reject_bool_and_fuzzy_arguments():
    for bad in (True, tri(1, 2, 3), dfn({2: 1})):
        for call in (
            lambda: crisp_L(bad, 0, 3, 1),
            lambda: crisp_D(7, [bad], 3, [1]),
            lambda: crisp_F([7, 9], 0, [3, bad], 1),
            lambda: crisp_M([7, 9], [0, 0], [3, 4], [1, bad]),
        ):
            with pytest.raises(DomainError):
                call()


def _id_count_mismatch_rejected():
    two = ("a", "b")
    for call in (
        lambda: apply_D(7, [0], 3, [1], image_ids=two),
        lambda: crisp_D(7, [0], 3, [1], image_ids=two),
        lambda: apply_F([7], 0, [3], 1, operand_ids=two),
        lambda: crisp_F([7], 0, [3], 1, operand_ids=two),
        lambda: apply_M([7], [0], [3], [1], operand_ids=two),
        lambda: crisp_M([7], [0], [3], [1], operand_ids=two),
        lambda: apply_M([7], [0], [3], [1], image_ids=two),
        lambda: crisp_M([7], [0], [3], [1], image_ids=two),
    ):
        with pytest.raises(OperatorSpecError):
            call()


def _repeated_ids_rejected():
    # Results are keyed by entity id: a repeated id would collapse two operands
    # (or images) into one entry and form the carry from the wrong partials.
    for call, repeated in (
        (lambda: apply_F([7, 100], 0, [3, 2], 1, operand_ids=("x", "x")), "['x']"),
        (lambda: apply_D(7, [0, 5], 3, [1, 2], image_ids=("a", "a")), "['a']"),
        (lambda: crisp_M([7, 9, 4], [0, 0], [3, 4, 2], [1, 1], operand_ids="yzy"), "['y']"),
        (lambda: apply_M([7], [0, 0, 0], [3], [1, 1, 1], image_ids=("a", "b", "b")), "['b']"),
    ):
        with pytest.raises(OperatorSpecError, match=re.escape(f"more than once: {repeated}")):
            call()
    assert apply_F([7, 100], 0, [3, 2], 1, operand_ids=("x", "y")).common_carry == 2


def _fused_carry_has_no_single_remainder():
    result = apply_F([7, 9], 0, [3, 2], 1)
    assert result.carry == 2
    with pytest.raises(OperatorSpecError, match="no single remainder: 2 present"):
        result.remainder


def _operand_and_image_counts_checked():
    for call, message in (
        (lambda: apply_F([7, 9], 0, [3], 1), "2 operands but 1 radices"),
        (lambda: apply_F([], 0, [], 1), "an operator needs at least one operand and one image"),
    ):
        with pytest.raises(OperatorSpecError, match=message):
            call()


def _default_entity_ids():
    cases = [
        (apply_L(7, 0, 3, 1), ("i",), ("j",)),
        (crisp_L(7, 0, 3, 1), ("i",), ("j",)),
        (apply_D(7, [0], 3, [1]), ("i",), ("j",)),
        (crisp_D(7, [0, 0], 3, [1, 1]), ("i",), ("j1", "j2")),
        (apply_D(7, [0, 0], 3, [1, 1]), ("i",), ("j1", "j2")),
        (apply_F([7], 0, [3], 1), ("i",), ("k",)),
        (crisp_F([7, 9], 0, [3, 4], 1), ("i1", "i2"), ("k",)),
        (apply_F([7, 9], 0, [3, 4], 1), ("i1", "i2"), ("k",)),
        (apply_M([7], [0], [3], [1]), ("i",), ("k",)),
        (crisp_M([7, 9], [0, 0], [3, 4], [1, 1]), ("i1", "i2"), ("k1", "k2")),
        (apply_M([7, 9], [0, 0], [3, 4], [1, 1]), ("i1", "i2"), ("k1", "k2")),
    ]
    for result, operand_ids, image_ids in cases:
        assert tuple(result.partial_carries) == tuple(result.remainders) == operand_ids
        assert tuple(result.transformants) == tuple(result.new_image_cardinals) == image_ids


def _crisp_results_are_plain_ints():
    for result in (
        apply_L(7, 1, 3, 2),
        crisp_L(7, 1, 3, 2),
        apply_D(7, [1, 2], 3, [2, 3]),
        crisp_D(7, [1, 2], 3, [2, 3]),
        apply_F([7, 9], 1, [3, 4], 2),
        crisp_F([7, 9], 1, [3, 4], 2),
        apply_M([7, 9], [1, 2], [3, 4], [2, 3]),
        crisp_M([7, 9], [1, 2], [3, 4], [2, 3]),
    ):
        values = [
            *result.partial_carries.values(),
            *result.remainders.values(),
            *result.transformants.values(),
            *result.new_image_cardinals.values(),
        ]
        if result.common_carry is not None:
            values.append(result.common_carry)
        assert all(type(value) is int for value in values)


OPERATOR_CONTRACT = [
    _fused_forms_form_a_carry_even_for_one_operand,
    _negative_image_rejected_only_when_all_crisp,
    _crisp_operators_reject_bool_and_fuzzy_arguments,
    _id_count_mismatch_rejected,
    _repeated_ids_rejected,
    _fused_carry_has_no_single_remainder,
    _operand_and_image_counts_checked,
    _default_entity_ids,
    _crisp_results_are_plain_ints,
]


@pytest.mark.parametrize("check", OPERATOR_CONTRACT, ids=lambda check: check.__name__[1:])
def test_operator_contract(check):
    """Behaviours every operator entry point keeps, whatever its family path."""
    check()


@pytest.mark.parametrize("clamp", ["yes", 1, None])
def test_options_refuse_non_boolean_clamp(clamp):
    with pytest.raises(OperatorSpecError, match="clamp_negative must be a boolean"):
        TransformOptions(clamp_negative=clamp)


@pytest.mark.parametrize(
    "options", [TransformOptions(), EXTENSION], ids=["correlated", "extension"]
)
@pytest.mark.parametrize(
    "operands,family,called",
    [
        ((dfn({7: 1, 9: "0.5"}), dfn({4: "0.5", 5: 1})), DiscreteFuzzyNumber,
         {"dfn_floor_div", "dfn_mod"}),
        ((tri(7, 9, 12), tri(4, 5, 5)), TriangularFuzzyNumber, {"tfn_floor_div"}),
    ],
    ids=["discrete", "triangular"],
)
def test_crisp_radices_reach_the_family_arithmetic_lifted(
    monkeypatch, options, operands, family, called
):
    radices = []
    discrete, triangular = operators._FAMILIES[DISCRETE], operators._FAMILIES[TRIANGULAR]
    for name, fam, attr in (
        ("dfn_floor_div", discrete, "floor_div"), ("dfn_mod", discrete, "correlated"),
        ("tfn_floor_div", triangular, "floor_div"),
    ):
        def record(cardinal, radix, name=name, real=getattr(fam, attr)):
            radices.append((name, radix))
            return real(cardinal, radix)

        monkeypatch.setattr(fam, attr, record)
    apply_L(operands[0], 0, 3, 1, options=options)
    apply_F(operands, 0, (3, 2), 1, options=options)
    if options.remainder_mode == "extension":
        called = called - {"dfn_mod"}
    assert {name for name, _ in radices} == called
    assert all(isinstance(radix, family) for _, radix in radices), radices


def test_family_entries_expose_the_same_names():
    names = {"lift", "floor_div", "mul", "add", "sub", "common", "clamp", "negative", "correlated"}
    assert [set(vars(fam)) for fam in operators._FAMILIES.values()] == [names] * 3


@pytest.mark.parametrize("form", ["L", "D", "F", "M"])
def test_result_columns_follow_the_field_order(form):
    w, v = (1 if form in "LD" else 2), (1 if form in "LF" else 2)
    result = run(Scenario(
        {"a": 7, "b": 9, "c": 0, "d": 1},
        [OperatorSpec(form, "ab"[:w], "cd"[:v], (2,) * w, (3,) * v)],
    )).steps[0].result
    columns = result._columns()
    assert tuple(columns) == result.__match_args__[:-1]
    assert columns["common_carry"] == ((None,), (result.common_carry,))
    for name in ("partial_carries", "remainders", "transformants", "new_image_cardinals"):
        assert dict(zip(*columns[name])) == getattr(result, name)
    assert result._written() == tuple(columns[name] for name in result._WRITES)
    assert result._WRITES == ("remainders", "new_image_cardinals")


# One fault per check, in the order the public operators run the checks.  Each
# edits a valid M call; the message of the earlier check wins any pair.
_VALID_M = {
    "operands": [7, 5], "images": [0, 1], "radices": [2, 3], "rates": [1, 1],
    "operand_ids": ["a", "b"], "image_ids": ["c", "d"],
}
_FAULTS = [
    ("counts", lambda call: call["rates"].append(1),
     OperatorSpecError, "2 images but 3 rates"),
    ("mixed families",
     lambda call: call.update(operands=[call["operands"][0], tri(1, 2, 3)],
                              images=[call["images"][0], dfn({1: 1})]),
     MixedFamilyError, "cannot mix discrete and triangular values in one operation"),
    ("repeated ids", lambda call: call.update(operand_ids=["a", "a"]),
     OperatorSpecError, "entity ids listed more than once: ['a']"),
    ("radix below 1", lambda call: call["radices"].__setitem__(0, 0),
     InvalidRadixError, "radix must be >= 1, got 0"),
    ("negative operand", lambda call: call["operands"].__setitem__(0, -1),
     DomainError, "operand cardinal must be >= 0, got -1"),
    ("negative rate", lambda call: call["rates"].__setitem__(0, -1),
     DomainError, "conversion rate must be >= 0, got -1"),
    ("negative crisp image", lambda call: call["images"].__setitem__(0, -2),
     DomainError, "image cardinal must be >= 0, got -2"),
]


@pytest.mark.parametrize(
    "first,second",
    [(i, j) for i in range(len(_FAULTS)) for j in range(i, len(_FAULTS))],
    ids=[f"{_FAULTS[i][0]}+{_FAULTS[j][0]}"
         for i in range(len(_FAULTS)) for j in range(i, len(_FAULTS))],
)
def test_the_earlier_check_names_a_two_fault_call(first, second):
    call = {key: list(value) for key, value in _VALID_M.items()}
    for fault in {first, second}:
        _FAULTS[fault][1](call)
    _, _, error, message = _FAULTS[first]
    with pytest.raises(error) as caught:
        apply_M(call.pop("operands"), call.pop("images"), call.pop("radices"),
                call.pop("rates"), **call)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("call,error,message", [
    (lambda: apply_L(5, 0, -(10**5000), 1), InvalidRadixError,
     "radix must be >= 1, got int of 16610 bits"),
    (lambda: apply_L(-(10**5000), 0, 2, 1), DomainError,
     "operand cardinal must be >= 0, got int of 16610 bits"),
    (lambda: TriangularFuzzyNumber(10**5000, 0, 1), DomainError,
     "triangular triple out of order: (int of 16610 bits; 0; 1)"),
    (lambda: DiscreteFuzzyNumber([(10**5000, 1)] * 2), DomainError,
     "duplicate support value int of 16610 bits"),
    (lambda: TransformOptions(clamp_negative=10**5000), OperatorSpecError,
     "clamp_negative must be a boolean: int of 16610 bits"),
], ids=["radix", "operand", "triangular", "discrete", "clamp_negative"])
def test_an_int_past_the_digit_limit_is_named_by_its_size_in_its_own_error(
    call, error, message
):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_run_names_a_long_negative_operand_by_its_size():
    scenario = Scenario(
        {"a": -(10**5000), "b": 0}, [OperatorSpec("L", ("a",), ("b",), (2,), (1,))]
    )
    with pytest.raises(StepExecutionError) as excinfo:
        run(scenario)
    assert str(excinfo.value) == (
        "step 0 failed: operand cardinal must be >= 0, got int of 16610 bits"
    )
