"""Common-carry formation for multi-operand operators.

A multi-operand operator does not pick one of its partial carries; it forms a
new carry from all of them.  For triangular partials the formation is the
componentwise minimum of (lower; mode; upper).  For discrete partials the rule
depends on whether the supports intersect: disjoint supports select the
partial with the least mode outright; intersecting supports are recombined
around the least mode, the union below it and the intersection above it.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import reduce

from .errors import DomainError, OperatorSpecError
from .numbers import DiscreteFuzzyNumber, TriangularFuzzyNumber, _shown


def common_carry_tri(partials: Sequence[TriangularFuzzyNumber]) -> TriangularFuzzyNumber:
    """Componentwise minimum of the partial carries.

    Commutative, associative and idempotent, so the fold order of the
    operands never matters.
    """
    if not partials:
        raise OperatorSpecError("common carry needs at least one partial carry")
    return TriangularFuzzyNumber(
        min(p.lower for p in partials),
        min(p.mode for p in partials),
        min(p.upper for p in partials),
    )


def _form_pair(a: DiscreteFuzzyNumber, b: DiscreteFuzzyNumber) -> DiscreteFuzzyNumber:
    grades_a, grades_b = dict(a.points), dict(b.points)
    if grades_a.keys().isdisjoint(grades_b):
        # Disjoint supports: the partial with the least mode is the carry.
        return a if a.mode <= b.mode else b
    least_mode = min(a.mode, b.mode)
    union, shared = grades_a.keys() | grades_b.keys(), grades_a.keys() & grades_b.keys()
    out = {v: max(grades_a.get(v, 0), grades_b.get(v, 0)) for v in union if v < least_mode}
    out[least_mode] = Fraction(1)
    out.update((v, min(grades_a[v], grades_b[v])) for v in shared if v > least_mode)
    return DiscreteFuzzyNumber(out)


def common_carry_dfn(partials: Sequence[DiscreteFuzzyNumber]) -> DiscreteFuzzyNumber:
    """Form a discrete common carry, folding pairwise in operand order.

    Pair rule: disjoint supports pick the least-mode partial.  Intersecting
    supports meet at the least of the two modes, which keeps grade 1: below
    it, the union of the supports, each value at its larger grade; above it,
    the intersection, each value at its smaller grade.  The pair rule is not
    known to be associative, so the operand order is the contract.
    """
    if not partials:
        raise OperatorSpecError("common carry needs at least one partial carry")
    for p in partials:
        if not isinstance(p, DiscreteFuzzyNumber):
            raise DomainError(f"expected a discrete fuzzy number, got {_shown(p)}")
    return reduce(_form_pair, partials)
