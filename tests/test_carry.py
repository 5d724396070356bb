import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dfn, discretes, tri, triangles
from fuzzysns import DomainError, OperatorSpecError, common_carry_dfn, common_carry_tri


class TestTriangularFormation:
    def test_componentwise_minimum(self):
        assert common_carry_tri([tri(1, 2, 4), tri(2, 3, 3)]) == tri(1, 2, 3)

    def test_single_partial_is_its_own_carry(self):
        assert common_carry_tri([tri(1, 2, 3)]) == tri(1, 2, 3)

    def test_three_partials(self):
        assert common_carry_tri([tri(0, 1, 5), tri(2, 2, 2), tri(1, 3, 4)]) == tri(0, 1, 2)

    def test_empty_rejected(self):
        with pytest.raises(OperatorSpecError):
            common_carry_tri([])

    @pytest.mark.parametrize("stray", [5, dfn({2: 1}), None], ids=["int", "discrete", "none"])
    def test_non_triangular_rejected(self, stray):
        # The partial-carry rule common_carry_dfn follows: a DomainError naming the value.
        with pytest.raises(DomainError, match="expected a triangular fuzzy number, got"):
            common_carry_tri([tri(1, 2, 3), stray])

    @given(parts=st.lists(triangles(high=20), min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_permutation_invariance(self, parts):
        results = {
            common_carry_tri(list(perm)) for perm in itertools.permutations(parts)
        }
        assert len(results) == 1

    @given(parts=st.lists(triangles(high=20), min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_dominated_by_every_partial(self, parts):
        formed = common_carry_tri(parts)
        for p in parts:
            assert formed.lower <= p.lower
            assert formed.mode <= p.mode
            assert formed.upper <= p.upper

    @given(a=triangles(high=20), b=triangles(high=20))
    def test_idempotent_and_commutative(self, a, b):
        assert common_carry_tri([a, a]) == a
        assert common_carry_tri([a, b]) == common_carry_tri([b, a])


class TestDiscreteFormation:
    def test_disjoint_supports_pick_least_mode(self):
        assert common_carry_dfn([dfn({2: 1}), dfn({5: "0.5", 6: 1})]) == dfn({2: 1})

    def test_overlap_merges_on_union(self):
        a = dfn({1: "0.4", 2: 1, 3: "0.6"})
        b = dfn({2: "0.7", 3: 1})
        assert common_carry_dfn([a, b]) == dfn({1: "0.4", 2: 1, 3: "0.6"})

    def test_overlap_result_can_differ_from_both_inputs(self):
        # Formed, not chosen: off-mode grades need not match either partial.
        a = dfn({1: "0.2", 2: 1, 3: "0.8"})
        b = dfn({1: "0.6", 3: 1})
        formed = common_carry_dfn([a, b])
        assert formed == dfn({1: "0.6", 2: 1, 3: "0.8"})
        assert formed != a and formed != b

    def test_values_above_mode_missing_from_one_partial_are_dropped(self):
        a = dfn({2: 1, 5: "0.6"})
        b = dfn({2: "0.4", 3: 1})
        # Above the merged mode the min with an absent grade is 0.
        assert common_carry_dfn([a, b]) == dfn({2: 1})

    def test_values_below_mode_are_inherited_from_either_partial(self):
        a = dfn({0: "0.3", 2: 1})
        b = dfn({1: "0.5", 2: 1})
        assert common_carry_dfn([a, b]) == dfn({0: "0.3", 1: "0.5", 2: 1})

    def test_idempotent(self):
        a = dfn({1: "0.4", 2: 1, 3: "0.6"})
        assert common_carry_dfn([a, a]) == a

    def test_single_partial(self):
        a = dfn({4: 1, 6: "0.2"})
        assert common_carry_dfn([a]) == a

    def test_empty_rejected(self):
        with pytest.raises(OperatorSpecError):
            common_carry_dfn([])

    def test_non_discrete_rejected(self):
        with pytest.raises(DomainError):
            common_carry_dfn([tri(1, 2, 3)])

    def test_crisp_collapse(self):
        formed = common_carry_dfn([dfn({4: 1}), dfn({2: 1}), dfn({3: 1})])
        assert formed == dfn({2: 1})

    @given(a=discretes(high=12), b=discretes(high=12))
    @settings(max_examples=500)
    def test_mode_is_min_of_partial_modes(self, a, b):
        assert common_carry_dfn([a, b]).mode == min(a.mode, b.mode)

    @given(a=discretes(high=12), b=discretes(high=12))
    @settings(max_examples=200)
    def test_result_is_normal_and_mode_dominated(self, a, b):
        formed = common_carry_dfn([a, b])
        assert any(g == 1 for _, g in formed.points)
        assert formed.mode <= a.mode and formed.mode <= b.mode

    def test_fold_order_is_operand_order(self):
        # The pair rule is folded left to right; pin one three-way outcome.
        a = dfn({1: "0.4", 2: 1})
        b = dfn({2: "0.7", 3: 1})
        c = dfn({0: "0.2", 4: 1})
        assert common_carry_dfn([a, b, c]) == common_carry_dfn([common_carry_dfn([a, b]), c])

    def test_fold_order_changes_the_formed_carry(self):
        # The pair rule is not associative: swapping the last two operands
        # changes the result, so operand order is part of the contract.
        a = dfn({0: 1, 1: "0.4", 4: 1})
        b = dfn({2: "0.2", 3: "0.1", 4: 1})
        c = dfn({0: 1, 1: "0.8", 7: "0.4"})
        assert common_carry_dfn([a, b, c]) == dfn({0: 1})
        assert common_carry_dfn([a, c, b]) == dfn({0: 1, 1: "0.4"})


def reference_pair(a, b):
    """The pair rule value by value, as the ``common_carry_dfn`` docstring states it."""
    support_a, support_b = set(a.support), set(b.support)
    if not support_a & support_b:
        return a if a.mode <= b.mode else b
    least_mode = min(a.mode, b.mode)
    points = {}
    for value in sorted(support_a | support_b):
        ga, gb = a.grade(value), b.grade(value)
        if value == least_mode:
            grade = Fraction(1)
        elif value < least_mode:
            grade = max(ga, gb)
        else:
            grade = min(ga, gb)
        if grade > 0:
            points[value] = grade
    return dfn(points)


def reference_carry(parts):
    return functools.reduce(reference_pair, parts)


@st.composite
def nested(draw):
    """A pair whose second support lies inside the first."""
    outer = draw(discretes(high=12))
    values = draw(st.lists(st.sampled_from(outer.support), min_size=1, unique=True))
    grades = {v: Fraction(draw(st.integers(1, 10)), 10) for v in values}
    grades[draw(st.sampled_from(values))] = Fraction(1)
    return [outer, dfn(grades)]


class TestDiscreteFormationReference:
    @given(parts=st.lists(discretes(high=12), min_size=2, max_size=4))
    @settings(max_examples=300)
    def test_matches_reference(self, parts):
        assert common_carry_dfn(parts) == reference_carry(parts)

    @given(a=discretes(high=12), b=discretes(low=13, high=25), upper_first=st.booleans())
    def test_disjoint_supports_match_reference(self, a, b, upper_first):
        parts = [b, a] if upper_first else [a, b]
        assert common_carry_dfn(parts) == reference_carry(parts) == a

    @given(pair=nested(), inner_first=st.booleans())
    def test_nested_supports_match_reference(self, pair, inner_first):
        parts = pair[::-1] if inner_first else pair
        assert common_carry_dfn(parts) == reference_carry(parts)


def test_formation_handles_many_random_permutation_sets():
    rng = random.Random(7)
    for _ in range(50):
        count = rng.randint(1, 5)
        parts = []
        for _ in range(count):
            a = rng.randint(0, 10)
            m = rng.randint(a, 12)
            b = rng.randint(m, 15)
            parts.append(tri(a, m, b))
        expected = tri(
            min(p.lower for p in parts),
            min(p.mode for p in parts),
            min(p.upper for p in parts),
        )
        for perm in itertools.permutations(parts):
            assert common_carry_tri(list(perm)) == expected
