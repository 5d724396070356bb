import operator
from functools import reduce

import pytest
from hypothesis import given, settings

from conftest import dfn, discretes, tri
from fuzzysns import alpha_cut_check, equivalence_suite, zadeh_oracle


class TestZadehOracle:
    def test_singleton_subtraction_goes_negative(self):
        assert zadeh_oracle(operator.sub, dfn({2: 1}), dfn({3: 1})) == dfn({-1: 1})

    @given(a=discretes())
    @settings(max_examples=100)
    def test_additive_identity(self, a):
        assert zadeh_oracle(operator.add, a, dfn({0: 1})) == a

    def test_collision_takes_best_pair(self):
        a = dfn({1: "0.5", 2: 1})
        b = dfn({1: 1, 2: "0.5"})
        assert zadeh_oracle(operator.add, a, b) == dfn({2: "0.5", 3: 1, 4: "0.5"})


class TestAlphaCutCheck:
    def test_componentwise_addition_is_exact(self):
        a = tri(1, 2, 3)
        assert alpha_cut_check(a, a, "add", tri(2, 4, 6), [0, 0.5, 1])

    def test_self_subtraction_mode_is_zero(self):
        a = tri(1, 2, 3)
        result = tri(a.lower - a.upper, 0, a.upper - a.lower)
        assert alpha_cut_check(a, a, "sub", result, [1])

    def test_detects_wrong_result(self):
        a = tri(1, 2, 3)
        assert not alpha_cut_check(a, a, "add", tri(2, 4, 7), [0, 0.5, 1])

    def test_rejects_unsupported_operation(self):
        with pytest.raises(ValueError):
            alpha_cut_check(tri(1, 2, 3), tri(1, 2, 3), "mul", tri(1, 4, 9), [0.5])

    def test_rejects_level_out_of_range(self):
        with pytest.raises(ValueError):
            alpha_cut_check(tri(1, 2, 3), tri(1, 2, 3), "add", tri(2, 4, 6), [1.5])

    def test_fractional_levels(self):
        a, b = tri(0, 4, 8), tri(2, 2, 6)
        assert alpha_cut_check(a, b, "sub", tri(-6, 2, 6), ["1/3", "2/3", 0, 1])


def test_equivalence_suite_is_deterministic_and_green():
    first = equivalence_suite(7, 300)
    second = equivalence_suite(7, 300)
    assert first == second == (300, 300)


def test_equivalence_suite_calls_every_operator_form(monkeypatch):
    from fuzzysns import operators

    calls = dict.fromkeys("LDFM", 0)
    for form in calls:
        def counted(*args, _form=form, _apply=getattr(operators, f"apply_{form}"), **kwargs):
            calls[_form] += 1
            return _apply(*args, **kwargs)

        monkeypatch.setattr(operators, f"apply_{form}", counted)
    assert equivalence_suite(7, 300) == (300, 300)
    assert all(calls.values()), calls


def test_equivalence_suite_catches_swapped_image_cardinals(monkeypatch):
    from fuzzysns import operators

    transform = operators._transform

    def swapped(*args, **kwargs):
        result = transform(*args, **kwargs)
        ids, cardinals = list(result.new_image_cardinals), list(result.new_image_cardinals.values())
        if len(ids) < 2:
            return result
        cardinals[0], cardinals[1] = cardinals[1], cardinals[0]
        return operators.TransformResult(
            result.partial_carries, result.common_carry, result.remainders,
            result.transformants, dict(zip(ids, cardinals)), result.warnings,
        )

    monkeypatch.setattr(operators, "_transform", swapped)
    passed, total = equivalence_suite(0, 300)
    assert total == 300 and passed < 300


def test_equivalence_suite_catches_straight_triangular_division(monkeypatch):
    from fuzzysns import operators
    from fuzzysns.numbers import TRIANGULAR

    def straight(num, div):  # pairs the divisor's bounds straight, not in reverse
        return tri(num.lower // div.lower, num.mode // div.mode, num.upper // div.upper)

    monkeypatch.setattr(operators._FAMILIES[TRIANGULAR], "floor_div", straight)
    passed, total = equivalence_suite(0, 300)
    assert total == 300 and passed < 300


def test_equivalence_suite_catches_a_larger_mode_common_carry(monkeypatch):
    from fuzzysns import operators
    from fuzzysns.numbers import DISCRETE

    def larger_mode(a, b):  # the pair rule formed around the larger of the two modes
        grades_a, grades_b = dict(a.points), dict(b.points)
        if grades_a.keys().isdisjoint(grades_b):
            return a if a.mode >= b.mode else b
        top = max(a.mode, b.mode)
        out = {v: max(grades_a.get(v, 0), grades_b.get(v, 0))
               for v in grades_a.keys() | grades_b.keys() if v < top}
        out.update((v, min(grades_a[v], grades_b[v])) for v in grades_a.keys() & grades_b.keys()
                   if v > top)
        return dfn({**out, top: 1})

    monkeypatch.setattr(
        operators._FAMILIES[DISCRETE], "common", lambda partials: reduce(larger_mode, partials)
    )
    passed, total = equivalence_suite(0, 300)
    assert total == 300 and passed < 300


def test_equivalence_suite_catches_a_discrete_clamp_against_one(monkeypatch):
    from fuzzysns import operators
    from fuzzysns.numbers import DISCRETE, dfn_zadeh_binary

    def clamp_to_one(value):
        return dfn_zadeh_binary(max, value, dfn({1: 1}))

    monkeypatch.setattr(operators._FAMILIES[DISCRETE], "clamp", clamp_to_one)
    passed, total = equivalence_suite(0, 300)
    assert total == 300 and passed < 300


def test_equivalence_suite_catches_a_correlated_remainder_by_floor_division(monkeypatch):
    from fuzzysns import numbers, operators
    from fuzzysns.numbers import DISCRETE

    monkeypatch.setattr(operators._FAMILIES[DISCRETE], "correlated", numbers.dfn_floor_div)
    passed, total = equivalence_suite(0, 300)
    assert total == 300 and passed < 300
