import json
import operator
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import discretes, dfn, radix_triangles, tri, triangles
from fuzzysns import (
    DiscreteFuzzyNumber,
    DomainError,
    Form,
    InvalidRadixError,
    MixedFamilyError,
    OperatorSpec,
    Scenario,
    as_grade,
    common_carry_dfn,
    crisp_value,
    dfn_floor_div,
    dfn_mod,
    dfn_zadeh_binary,
    format_fraction,
    lift_discrete,
    lift_triangular,
    parse_scalar,
    scenario_from_json,
    scenario_to_json,
    tfn_add,
    tfn_floor_div,
    tfn_membership,
    tfn_mul,
    tfn_scale,
    tfn_sub,
    zadeh_oracle,
)
from fuzzysns import numbers, operators
from fuzzysns.numbers import _cut_sums, _grade_levels, _grade_text


@st.composite
def tied_discretes(draw, low=-40, high=40, max_size=40):
    """Supports of up to ``max_size`` values whose grades are k/3, k/6 or k/10.

    Denominators mix within one number, so grades repeat (1/3 == 2/6,
    1/2 == 3/6 == 5/10) as well as coincide exactly.
    """
    values = draw(
        st.lists(st.integers(low, high), min_size=1, max_size=max_size, unique=True)
    )
    grades = {}
    for v in values:
        denominator = draw(st.sampled_from([3, 6, 10]))
        grades[v] = Fraction(draw(st.integers(1, denominator)), denominator)
    grades[draw(st.sampled_from(values))] = Fraction(1)
    return DiscreteFuzzyNumber(grades)


class TestTriangularInvariants:
    def test_rejects_disorder(self):
        with pytest.raises(DomainError):
            tri(3, 2, 4)
        with pytest.raises(DomainError):
            tri(1, 5, 4)

    def test_rejects_non_integers(self):
        with pytest.raises(DomainError):
            tri(1.0, 2, 3)
        with pytest.raises(DomainError):
            tri(True, 1, 2)

    def test_degenerate_is_crisp(self):
        assert tri(4, 4, 4).is_crisp
        assert not tri(4, 4, 5).is_crisp


class TestMembership:
    def test_mode_has_grade_one(self):
        assert tfn_membership(7, tri(4, 7, 9)) == 1

    def test_boundary_and_midpoint(self):
        a = tri(4, 7, 9)
        assert tfn_membership(4, a) == 0
        assert tfn_membership(5.5, a) == Fraction(1, 2)

    def test_outside_support(self):
        assert tfn_membership(10, tri(4, 7, 9)) == 0
        assert tfn_membership(3, tri(4, 7, 9)) == 0

    def test_degenerate_segments(self):
        assert tfn_membership(4, tri(4, 4, 9)) == 1
        assert tfn_membership(9, tri(4, 9, 9)) == 1
        assert tfn_membership(3, tri(3, 3, 3)) == 1
        assert tfn_membership(2, tri(3, 3, 3)) == 0

    def test_falling_edge(self):
        assert tfn_membership(8, tri(4, 7, 9)) == Fraction(1, 2)

    @pytest.mark.parametrize(
        "x, message",
        [
            ("abc", "not a number: 'abc'"),
            (None, "x must be numeric, got None"),
            (True, "x must be numeric, got True"),
            ("1e4000000", "number '1e4000000' has an exponent beyond +-4300"),
        ],
    )
    def test_x_that_is_not_an_exact_number_is_a_domain_error(self, x, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            tfn_membership(x, tri(4, 7, 9))


class TestTriangularArithmetic:
    def test_sub_swaps_bounds(self):
        assert tfn_sub(tri(4, 7, 9), tri(3, 6, 9)) == tri(-5, 1, 6)

    def test_add_identity(self):
        a = tri(2, 5, 11)
        assert tfn_add(tri(0, 0, 0), a) == a

    def test_mul_componentwise(self):
        assert tfn_mul(tri(1, 2, 3), tri(2, 2, 2)) == tri(2, 4, 6)

    def test_mul_rejects_negative_components(self):
        with pytest.raises(DomainError):
            tfn_mul(tri(-1, 2, 3), tri(1, 1, 1))
        with pytest.raises(DomainError):
            tfn_mul(tri(1, 2, 3), tri(-2, 0, 1))

    def test_scale(self):
        assert tfn_scale(tri(1, 2, 3), 4) == tri(4, 8, 12)
        assert tfn_scale(tri(-1, 2, 3), 0) == tri(0, 0, 0)
        with pytest.raises(DomainError):
            tfn_scale(tri(1, 2, 3), -1)

    def test_floor_div_examples(self):
        assert tfn_floor_div(tri(4, 7, 9), tri(3, 3, 3)) == tri(1, 2, 3)
        assert tfn_floor_div(tri(6, 6, 6), tri(1, 2, 3)) == tri(2, 3, 6)
        assert tfn_floor_div(tri(0, 0, 0), tri(1, 2, 3)) == tri(0, 0, 0)

    def test_floor_div_errors(self):
        with pytest.raises(InvalidRadixError):
            tfn_floor_div(tri(4, 7, 9), tri(0, 1, 2))
        with pytest.raises(DomainError):
            tfn_floor_div(tri(-1, 7, 9), tri(1, 2, 3))

    @given(a=triangles(), b=triangles())
    def test_add_sub_stay_ordered(self, a, b):
        for result in (tfn_add(a, b), tfn_sub(a, b), tfn_mul(a, b)):
            assert result.lower <= result.mode <= result.upper

    @given(a=triangles(), b=radix_triangles())
    def test_floor_div_stays_ordered(self, a, b):
        result = tfn_floor_div(a, b)
        assert result.lower <= result.mode <= result.upper

    @given(
        num=triangles(),
        div=radix_triangles(),
        bump=st.integers(0, 10),
    )
    def test_floor_div_anti_monotone_in_divisor(self, num, div, bump):
        wider = tri(div.lower + min(bump, div.mode - div.lower), div.mode, div.upper)
        assert tfn_floor_div(num, wider).upper <= tfn_floor_div(num, div).upper

    @given(x=st.integers(0, 10**6), y=st.integers(0, 10**6))
    @settings(max_examples=200)
    def test_crisp_embedding(self, x, y):
        lx, ly = lift_triangular(x), lift_triangular(y)
        assert crisp_value(tfn_add(lx, ly)) == x + y
        assert crisp_value(tfn_sub(lx, ly)) == x - y
        assert crisp_value(tfn_mul(lx, ly)) == x * y
        if y >= 1:
            assert crisp_value(tfn_floor_div(lx, ly)) == x // y


class TestDiscreteInvariants:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            dfn({})

    def test_rejects_grade_out_of_range(self):
        with pytest.raises(DomainError):
            dfn({1: 0})
        with pytest.raises(DomainError):
            dfn({1: "1.5"})

    def test_requires_normality(self):
        with pytest.raises(DomainError):
            dfn({1: "0.5", 2: "0.9"})

    def test_points_sorted_and_exact(self):
        a = dfn({7: 1, 5: "0.3"})
        assert a.support == (5, 7)
        assert a.grade(5) == Fraction(3, 10)
        assert a.mode == 7

    def test_grade_of_absent_values_is_zero(self):
        a = dfn({-2: "0.5", 3: 1, 8: "1/3"})
        probes = (-5, -2, 0, 3, 5, 8, 9)
        expected = [0, Fraction(1, 2), 0, 1, 0, Fraction(1, 3), 0]
        assert [a.grade(v) for v in probes] == expected
        assert dfn({4: 1}).grade(3) == 0 and dfn({4: 1}).grade(5) == 0

    @given(a=tied_discretes(), probe=st.integers(-45, 45))
    @settings(max_examples=200)
    def test_grade_matches_points(self, a, probe):
        assert a.grade(probe) == dict(a.points).get(probe, 0)

    def test_mode_is_smallest_grade_one_value(self):
        assert dfn({4: 1, 2: 1, 3: "0.5"}).mode == 2

    def test_as_grade_decimal_exactness(self):
        assert as_grade(0.3) == Fraction(3, 10)
        assert as_grade("0.3") == Fraction(3, 10)
        assert as_grade(1) == 1

    def test_as_grade_bounds_the_exponent(self):
        assert as_grade("1e-4300") == Fraction(1, 10**4300)
        assert as_grade(" 0.5E+0_0 ") == Fraction(1, 2)
        arabic_indic_4301 = "\u0664\u0663\u0660\u0661"
        for text in ("1e-4301", "1e-1_000_000", "1e-" + arabic_indic_4301, "1E-" + "9" * 5000):
            with pytest.raises(DomainError, match="exponent"):
                as_grade(text)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer string conversion limit"
    )
    def test_int_grade_past_the_digit_limit_is_named_by_its_size(self):
        with pytest.raises(DomainError, match=r"^grade int of 16610 bits outside \(0, 1\]$"):
            as_grade(10**5000)
        # Any other value past the limit is named by its type.
        with pytest.raises(DomainError, match=r"^grade a long Fraction outside \(0, 1\]$"):
            as_grade(Fraction(10**5000, 3))

    @pytest.mark.parametrize("text", ["1/0", "abc", "nan"])
    def test_grade_text_that_is_not_a_number_is_a_domain_error(self, text):
        with pytest.raises(DomainError, match=re.escape(f"not a number: {text!r}")):
            as_grade(text)
        with pytest.raises(DomainError, match=re.escape(f"not a number: {text!r}")):
            DiscreteFuzzyNumber({1: text})
        with pytest.raises(DomainError, match=re.escape(f"not a number: {text!r}")):
            tfn_membership(text, tri(4, 7, 9))
        with pytest.raises(DomainError, match=re.escape(f"not a number: {text!r}")):
            format_fraction(text)


class TestZadehBinary:
    def test_singletons_reduce_to_crisp(self):
        assert dfn_zadeh_binary(operator.add, dfn({2: 1}), dfn({3: 1})) == dfn({5: 1})

    def test_mul_example(self):
        a = dfn({1: "0.4", 2: 1})
        b = dfn({10: 1})
        assert dfn_zadeh_binary(operator.mul, a, b) == dfn({10: "0.4", 20: 1})

    def test_add_with_collision(self):
        a = dfn({1: "0.5", 2: 1})
        b = dfn({1: 1, 2: "0.5"})
        assert dfn_zadeh_binary(operator.add, a, b) == dfn({2: "0.5", 3: 1, 4: "0.5"})

    def test_negative_supports_representable(self):
        assert dfn_zadeh_binary(operator.sub, dfn({2: 1}), dfn({3: 1})) == dfn({-1: 1})

    @given(a=discretes(), b=discretes())
    @settings(max_examples=300)
    def test_matches_oracle(self, a, b):
        for op in (operator.add, operator.sub, operator.mul):
            assert dfn_zadeh_binary(op, a, b) == zadeh_oracle(op, a, b)

    @given(a=discretes(max_size=20), b=discretes(max_size=20, high=60))
    @settings(max_examples=200)
    def test_matches_oracle_wide_supports(self, a, b):
        assert dfn_zadeh_binary(operator.add, a, b) == zadeh_oracle(operator.add, a, b)

    @given(
        a=tied_discretes(),
        b=tied_discretes(),
        op=st.sampled_from([operator.add, operator.sub, operator.mul]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_with_tied_grades(self, a, b, op):
        assert dfn_zadeh_binary(op, a, b) == zadeh_oracle(op, a, b)

    @given(
        a=tied_discretes(),
        n=tied_discretes(low=1, high=40),
        op=st.sampled_from([operator.floordiv, operator.mod]),
    )
    @settings(max_examples=200, deadline=None)
    def test_div_mod_match_oracle_with_tied_grades(self, a, n, op):
        assert dfn_zadeh_binary(op, a, n) == zadeh_oracle(op, a, n)

    @given(a=tied_discretes(), b=tied_discretes())
    @settings(max_examples=100, deadline=None)
    def test_each_support_pair_visited_once(self, a, b):
        calls = []

        def op(x, y):
            calls.append((x, y))
            return x + y

        dfn_zadeh_binary(op, a, b)
        assert len(calls) == len(a.points) * len(b.points)
        assert sorted(calls) == sorted((x, y) for x, _ in a.points for y, _ in b.points)

    @given(a=tied_discretes(), x=st.integers(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_singleton_operand_visits_each_pair_once(self, a, x):
        for left, right in ((a, lift_discrete(x)), (lift_discrete(x), a)):
            calls = []

            def op(p, q):
                calls.append((p, q))
                return p - q

            dfn_zadeh_binary(op, left, right)
            assert sorted(calls) == sorted(
                (p, q) for p, _ in left.points for q, _ in right.points
            )

    @given(a=discretes(), b=discretes())
    @settings(max_examples=100)
    def test_normality_closure(self, a, b):
        result = dfn_zadeh_binary(operator.add, a, b)
        assert any(g == 1 for _, g in result.points)

    @pytest.mark.parametrize("a, b", [(7, dfn({3: 1})), (dfn({7: 1}), 3), (None, dfn({3: 1}))])
    def test_non_discrete_operand_is_a_domain_error(self, a, b):
        with pytest.raises(DomainError):
            dfn_zadeh_binary(operator.add, a, b)

    @pytest.mark.parametrize("a, b", [(tri(1, 2, 3), dfn({3: 1})), (dfn({7: 1}), tri(1, 2, 3))])
    def test_triangular_operand_is_a_mixed_family_error(self, a, b):
        with pytest.raises(MixedFamilyError):
            dfn_zadeh_binary(operator.add, a, b)


class TestDiscreteDivMod:
    def test_floor_div_collapses_colliding_supports(self):
        assert dfn_floor_div(dfn({6: "0.5", 7: 1, 8: "0.3"}), 3) == dfn({2: 1})

    def test_floor_div_crisp(self):
        assert dfn_floor_div(dfn({7: 1}), 3) == dfn({2: 1})

    def test_floor_div_fuzzy_divisor(self):
        result = dfn_floor_div(dfn({7: 1}), dfn({2: "0.6", 3: 1}))
        assert result == dfn({3: "0.6", 2: 1})

    def test_floor_div_rejects_zero_in_divisor(self):
        with pytest.raises(InvalidRadixError):
            dfn_floor_div(dfn({7: 1}), 0)
        with pytest.raises(InvalidRadixError):
            dfn_floor_div(dfn({7: 1}), dfn({0: "0.5", 3: 1}))

    def test_mod_examples(self):
        assert dfn_mod(dfn({7: 1}), 3) == dfn({1: 1})
        assert dfn_mod(dfn({6: "0.5", 7: 1, 8: "0.3"}), 3) == dfn({0: "0.5", 1: 1, 2: "0.3"})
        assert dfn_mod(dfn({3: 1, 6: "0.7"}), 3) == dfn({0: 1})

    def test_mod_rejects_bad_radix(self):
        with pytest.raises(InvalidRadixError):
            dfn_mod(dfn({7: 1}), 0)

    @given(a=tied_discretes(), n=tied_discretes(low=1, high=40))
    @settings(max_examples=200, deadline=None)
    def test_mod_discrete_radix_matches_oracle(self, a, n):
        assert dfn_mod(a, n) == zadeh_oracle(operator.mod, a, n)

    @pytest.mark.parametrize("fn", [dfn_floor_div, dfn_mod])
    def test_radix_error_classes(self, fn):
        with pytest.raises(DomainError):
            fn(dfn({7: 1}), True)
        with pytest.raises(InvalidRadixError):
            fn(dfn({7: 1}), 0)
        with pytest.raises(MixedFamilyError):
            fn(dfn({7: 1}), tri(1, 2, 3))

    @pytest.mark.parametrize("fn", [dfn_floor_div, dfn_mod])
    def test_cardinal_error_classes(self, fn):
        with pytest.raises(DomainError):
            fn(7, 3)
        with pytest.raises(DomainError):
            fn("7", 3)
        with pytest.raises(MixedFamilyError):
            fn(tri(6, 7, 8), 3)
        with pytest.raises(MixedFamilyError):
            fn(tri(6, 7, 8), dfn({3: 1}))

    @given(a=discretes(), n=st.integers(1, 9))
    @settings(max_examples=200)
    def test_div_mod_normality_closure(self, a, n):
        assert any(g == 1 for _, g in dfn_floor_div(a, n).points)
        assert any(g == 1 for _, g in dfn_mod(a, n).points)

    @given(a=tied_discretes(), n=st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_crisp_radix_matches_oracle_with_tied_grades(self, a, n):
        radix = lift_discrete(n)
        assert dfn_floor_div(a, n) == zadeh_oracle(operator.floordiv, a, radix)
        assert dfn_mod(a, n) == zadeh_oracle(operator.mod, a, radix)

    @given(x=st.integers(0, 10**6), n=st.integers(1, 10**3))
    @settings(max_examples=200)
    def test_crisp_embedding(self, x, n):
        assert crisp_value(dfn_floor_div(lift_discrete(x), n)) == x // n
        assert crisp_value(dfn_mod(lift_discrete(x), n)) == x % n


def test_lift_and_collapse_round_trip():
    assert crisp_value(lift_triangular(9)) == 9
    assert crisp_value(lift_discrete(9)) == 9
    assert crisp_value(tri(1, 2, 3)) is None
    assert crisp_value(dfn({1: 1, 2: "0.5"})) is None


def test_lift_and_collapse_refuse_the_wrong_kind():
    assert crisp_value(5) == 5
    with pytest.raises(DomainError, match="crisp value"):
        crisp_value(True)
    with pytest.raises(MixedFamilyError, match="cannot lift a discrete"):
        lift_triangular(dfn({2: 1}))
    with pytest.raises(DomainError, match="grade must be numeric, got None"):
        as_grade(None)


# The kernel builds its result without re-validation (``_trusted``); it must be
# the number the validating constructor builds from the same points.
_TRUSTED_OPS = [operator.add, operator.sub, operator.mul, max]


def _assert_validated_equal(result):
    rebuilt = DiscreteFuzzyNumber(list(result.points))
    assert result == rebuilt and hash(result) == hash(rebuilt)
    values = [v for v, _ in result.points]
    assert all(x < y for x, y in zip(values, values[1:]))
    assert all(isinstance(g, Fraction) and 0 < g <= 1 for _, g in result.points)
    assert any(g == 1 for _, g in result.points)


class TestTrustedKernelResult:
    @given(a=discretes(low=-30), b=discretes(low=-30), op=st.sampled_from(_TRUSTED_OPS))
    @settings(max_examples=200, deadline=None)
    def test_equals_validated_construction(self, a, b, op):
        _assert_validated_equal(dfn_zadeh_binary(op, a, b))

    @given(a=discretes(), n=discretes(low=1, high=12),
           op=st.sampled_from([operator.floordiv, operator.mod]))
    @settings(max_examples=200, deadline=None)
    def test_div_mod_equal_validated_construction(self, a, n, op):
        _assert_validated_equal(dfn_zadeh_binary(op, a, n))

    @pytest.mark.parametrize("op", [operator.truediv, operator.lt], ids=["truediv", "lt"])
    def test_non_integer_op_result_is_a_domain_error(self, op):
        with pytest.raises(DomainError, match="support value must be an integer"):
            dfn_zadeh_binary(op, dfn({1: 1, 4: "0.5"}), dfn({2: 1}))

    def test_only_the_pair_loop_checks_support_values(self, monkeypatch):
        a = dfn({v: 1 if v == 4 else "0.5" for v in range(10)})
        b = dfn({v: 1 if v == 2 else "0.3" for v in range(8)})
        checked = []
        as_int = numbers._as_int

        def counting(value, what):
            checked.append(value)
            return as_int(value, what)

        monkeypatch.setattr(numbers, "_as_int", counting)
        for op in (operator.add, operator.sub):  # dense: the alpha-cut bitset side
            dfn_zadeh_binary(op, a, b)
        assert checked == []
        product = dfn_zadeh_binary(operator.mul, a, b)  # the pair loop: each value once
        assert sorted(checked) == list(product.support)


# A number stores ``support`` and ``grades``; ``points`` is derived on first read.
def _kept_per_point(build, count):
    """Bytes per point that ``build()`` keeps alive, its ints and grades already existing."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        number = build()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(number.support) == count
    return kept / count


def _seeded_number(rng, low=-20, high=40):
    values = rng.sample(range(low, high), rng.randint(1, 12))
    grades = {v: Fraction(rng.randint(1, 6), 6) for v in values}
    grades[rng.choice(values)] = Fraction(1)
    return grades


def _construction_paths(seed):
    """One number from each way a discrete number is built, by name."""
    rng = random.Random(f"paths-{seed}")
    a, b = dfn(_seeded_number(rng)), dfn(_seeded_number(rng))
    dense = [dfn({k: Fraction(1, 2) for k in range(12)} | _seeded_number(rng, 0, 12))
             for _ in range(2)]
    bitset, ran = _kernel_path(rng.choice((operator.add, operator.sub)), *dense)
    assert ran
    disjoint = dfn({v + 100: g for v, g in _seeded_number(rng).items()})
    negative = dfn(_seeded_number(rng, -20, 0) | _seeded_number(rng, 0, 20))
    literal = "{" + ", ".join(f"{v}|{g}" for v, g in _seeded_number(rng).items()) + "}"
    document = scenario_to_json(Scenario({"a": a, "b": 3}, []))
    return {
        "mapping": a,
        "pairs": DiscreteFuzzyNumber(list(_seeded_number(rng).items())),
        "bitset": bitset,
        "pair-loop": dfn_zadeh_binary(operator.mul, a, b),
        "clamp": operators._FAMILIES[numbers.DISCRETE].clamp(negative),
        "common-carry": common_carry_dfn([a, dfn(dict(zip(a.support, a.grades[::-1])))]),
        "common-carry-disjoint": common_carry_dfn([a, disjoint]),
        "parse": parse_scalar(literal),
        "parse-json": scenario_from_json(document).initial["a"],
        "lift": lift_discrete(rng.randint(-5, 5)),
    }


class TestStoredTuples:
    COUNT = 10_000

    def _out(self):
        grades = [Fraction(k, 7) for k in range(1, 8)]
        return {v: grades[v % 7] for v in range(10**6, 10**6 + self.COUNT)}

    def test_trusted_keeps_under_32_bytes_per_point(self):
        out = self._out()
        assert _kept_per_point(lambda: DiscreteFuzzyNumber._trusted(out), self.COUNT) < 32

    def test_validating_constructor_keeps_under_32_bytes_per_point(self):
        pairs = list(self._out().items())
        assert _kept_per_point(lambda: DiscreteFuzzyNumber(pairs), self.COUNT) < 32

    @pytest.mark.parametrize("seed", range(20))
    def test_every_construction_path_agrees(self, seed):
        for name, number in _construction_paths(seed).items():
            assert type(number) is DiscreteFuzzyNumber, name
            support, grades = number.support, number.grades
            assert number.support is support and number.grades is grades, name
            assert type(support) is tuple and type(grades) is tuple, name
            assert all(type(v) is int for v in support), name
            assert all(x < y for x, y in zip(support, support[1:])), name
            assert all(type(g) is Fraction and 0 < g <= 1 for g in grades), name
            assert number.points == tuple(zip(support, grades)), name
            assert number.points is not number.points, name  # built on each read, not kept
            assert DiscreteFuzzyNumber(number.points) == number, name


def _denominators():
    smooth = st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 6), st.integers(0, 6))
    return smooth | st.integers(1, 10**6)


@st.composite
def graded_discretes(draw):
    values = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=8, unique=True))
    grades = {}
    for v in values:
        q = draw(_denominators())
        grades[v] = Fraction(draw(st.integers(1, q)), q)
    grades[draw(st.sampled_from(values))] = Fraction(1)
    return DiscreteFuzzyNumber(grades)


class TestGradeLiterals:
    @given(graded_discretes())
    @settings(max_examples=200, deadline=None)
    def test_str_is_the_format_fraction_literal(self, number):
        expected = ", ".join(f"{v}|{format_fraction(g)}" for v, g in number.points)
        assert str(number) == "{" + expected + "}"

    def test_cache_stays_within_its_bound(self):
        for k in range(1, 5001):
            str(DiscreteFuzzyNumber({0: 1, 1: Fraction(k, 10007)}))
        info = _grade_text.cache_info()
        assert info.maxsize is not None and 0 < info.currsize <= info.maxsize

    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(1, 3), "1/3"), (Fraction(5, 8), "0.625"), (7, "7"), (-3, "-3"),
            # A float is read through its decimal repr, as ``as_grade`` reads it.
            (0.1, "0.1"), (2.5e-7, "0.00000025"),
        ],
    )
    def test_format_fraction_is_unchanged_and_uncached(self, value, text):
        assert format_fraction(value) == text
        assert not hasattr(format_fraction, "cache_info")

    @pytest.mark.parametrize(
        "value, message",
        [
            ("1e2000000", "number '1e2000000' has an exponent beyond +-4300"),
            (None, "value must be numeric, got None"),
            (True, "value must be numeric, got True"),
        ],
    )
    def test_format_fraction_refuses_what_is_not_an_exact_number(self, value, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            format_fraction(value)


# --- the two sides of the sup-min kernel ---------------------------------------

_SUMS = [operator.add, operator.sub]

# Contiguous supports: the hull of their sum is never wider than the pair count.
contiguous_discretes = tied_discretes().map(
    lambda n: DiscreteFuzzyNumber([(k - 20, g) for k, (_, g) in enumerate(n.points)])
)
# Two or more values 10**6 apart: the hull of a sum is wider than any pair count.
spread_discretes = tied_discretes().filter(lambda n: len(n.points) > 1).map(
    lambda n: DiscreteFuzzyNumber([(v * 10**6, g) for v, g in n.points])
)


def _kernel_path(op, a, b):
    """(result, whether the bitset helper ran) of one public kernel call."""
    with mock.patch.object(numbers, "_cut_sums", wraps=numbers._cut_sums) as spy:
        result = dfn_zadeh_binary(op, a, b)
    return result, spy.call_count == 1


class TestAlphaCutSums:
    @given(a=tied_discretes(low=-40), b=tied_discretes(low=-40), op=st.sampled_from(_SUMS))
    @example(a=dfn({-3: 1}), b=dfn({-7: 1}), op=operator.sub)
    @example(a=dfn({-3: 1}), b=dfn({-40: "1/3", 2: 1, 40: "2/6"}), op=operator.add)
    @example(
        a=dfn({-40: Fraction(1, 2), -1: 1, 6: Fraction(3, 6), 9: "0.5"}),
        b=dfn({-2: Fraction(5, 10), 0: 1, 40: Fraction(1, 3)}),
        op=operator.sub,
    )
    @settings(max_examples=300, deadline=None)
    def test_helper_matches_oracle(self, a, b, op):
        result = _cut_sums(_grade_levels(a, b), a, b, op is operator.sub)
        assert result == zadeh_oracle(op, a, b)
        _assert_validated_equal(result)

    @given(a=contiguous_discretes, b=contiguous_discretes, op=st.sampled_from(_SUMS))
    @settings(max_examples=200, deadline=None)
    def test_dense_inputs_take_the_bitset_path(self, a, b, op):
        result, bitset = _kernel_path(op, a, b)
        assert bitset
        assert result == zadeh_oracle(op, a, b)

    @given(a=spread_discretes, b=tied_discretes(), op=st.sampled_from(_SUMS), swap=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_sparse_inputs_take_the_pair_loop(self, a, b, op, swap):
        if swap:
            a, b = b, a
        result, bitset = _kernel_path(op, a, b)
        assert not bitset
        assert result == zadeh_oracle(op, a, b)

    @pytest.mark.parametrize("op", [operator.mul, operator.floordiv, operator.mod, max])
    def test_other_ops_take_the_pair_loop(self, op):
        a = dfn({k: 1 if k == 5 else "0.5" for k in range(1, 10)})
        result, bitset = _kernel_path(op, a, a)
        assert not bitset
        assert result == zadeh_oracle(op, a, a)

    @pytest.mark.parametrize("op", _SUMS, ids=["add", "sub"])
    def test_sparse_wide_hull_allocates_no_bitset(self, op):
        # A bitset over this hull would need about 10**17 bytes.
        a = dfn({0: 1, 10**18: "0.5"})
        b = dfn({0: 1, 1: "0.5"})
        expected = zadeh_oracle(op, a, b)
        tracemalloc.start()
        try:
            result = dfn_zadeh_binary(op, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == expected
        assert peak < 1 << 20


class _UnhashableGrade(Fraction):
    """A grade that refuses to be hashed."""

    def __hash__(self):
        raise TypeError("a grade was hashed")


def _unhashable(points):
    return DiscreteFuzzyNumber({v: _UnhashableGrade(as_grade(g)) for v, g in points.items()})


def _plain(number):
    return DiscreteFuzzyNumber([(v, Fraction(g)) for v, g in number.points])


class TestNoGradeIsHashed:
    dense = _unhashable({4: "0.5", 5: "1/3", 6: 1, 7: "2/6", 8: "0.5"})
    sparse = _unhashable({4: "0.5", 60: 1, 900: "1/3"})
    radix = _unhashable({2: "0.5", 3: 1})

    @pytest.mark.parametrize(
        "op",
        [operator.add, operator.sub, operator.mul, operator.floordiv, operator.mod, max],
        ids=["add", "sub", "mul", "floordiv", "mod", "max"],
    )
    @pytest.mark.parametrize("a", [dense, sparse], ids=["dense", "sparse"])
    def test_kernel(self, a, op):
        result = dfn_zadeh_binary(op, a, self.radix)
        assert result == zadeh_oracle(op, _plain(a), _plain(self.radix))

    def test_literals(self):
        assert str(self.sparse) == "{4|0.5, 60|1, 900|1/3}"
        scenario = Scenario(
            {"x": self.dense, "y": 0}, [OperatorSpec(Form.L, ("x",), ("y",), (self.radix,), (1,))]
        )
        document = json.loads(scenario_to_json(scenario))
        assert document["entities"][0]["value"][1] == [5, "1/3"]
        assert document["steps"][0]["radix"] == [[2, "0.5"], [3, "1"]]


class _Count(int):
    """An ``int`` subclass: crisp wherever a plain ``int`` is."""


@pytest.mark.parametrize(
    "value,tag,lowest",
    [
        (0, numbers.CRISP, 0),
        (7, numbers.CRISP, 7),
        (-3, numbers.CRISP, -3),
        (_Count(4), numbers.CRISP, 4),
        (_Count(-2), numbers.CRISP, -2),
        (dfn({-1: "0.5", 2: 1}), numbers.DISCRETE, -1),
        (tri(2, 4, 9), numbers.TRIANGULAR, 2),
    ],
    ids=["zero", "int", "negative-int", "int-subclass", "negative-int-subclass",
         "discrete", "triangular"],
)
def test_classification_of_scalars(value, tag, lowest):
    assert numbers.family(value) == tag
    assert numbers._lowest(value) == lowest
    assert numbers._is_int(value) is (tag == numbers.CRISP)
    if lowest < 0:
        with pytest.raises(DomainError, match=re.escape(f"count must be >= 0, got {value}")):
            numbers._check_natural(value, "count")
    else:
        assert numbers._check_natural(value, "count") is None


@pytest.mark.parametrize("value", [True, False, 1.0, "1", None], ids=repr)
def test_classification_refuses_bool_and_non_scalars(value):
    assert numbers._is_int(value) is False
    with pytest.raises(DomainError, match=re.escape(f"not a fuzzy scalar: {value!r}")):
        numbers.family(value)
    message = f"crisp value must be an integer, got {value!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        numbers._lowest(value)
    with pytest.raises(DomainError, match=re.escape(message)):
        numbers._check_natural(value, "count")
