"""Independent brute-force verifiers used by the test suite and the CLI.

Nothing here shares arithmetic helpers with the production modules: the
sup-min evaluator re-enumerates every support pair into buckets, and the
alpha-cut checker builds its interval arithmetic inline.  Agreement between
these and the production paths is therefore evidence, not tautology.
:func:`equivalence_suite` re-derives discrete and triangular L, D, F and M
calls alike; the one value it takes from production is the common carry of a
discrete F or M call, whose formation ``tests/test_carry.py`` and the CLI's
``carry`` checks in CI pin instead.
Performance is a non-goal; the evaluator is quadratic in support size.
"""

from __future__ import annotations

import random
from fractions import Fraction
from collections.abc import Callable, Sequence
from operator import add, floordiv, mod, mul, sub

from .numbers import DiscreteFuzzyNumber, TriangularFuzzyNumber


def zadeh_oracle(
    op: Callable[[int, int], int],
    a: DiscreteFuzzyNumber,
    b: DiscreteFuzzyNumber,
) -> DiscreteFuzzyNumber:
    """Literal sup-min evaluation: bucket every pair, then take max of mins."""
    buckets: dict[int, list[Fraction]] = {}
    for x, grade_x in a.points:
        for y, grade_y in b.points:
            z = op(x, y)
            smaller = grade_x if grade_x <= grade_y else grade_y
            buckets.setdefault(z, []).append(smaller)
    graded = {}
    for z in sorted(buckets):
        best = buckets[z][0]
        for g in buckets[z][1:]:
            if g > best:
                best = g
        graded[z] = best
    return DiscreteFuzzyNumber(graded)


def _cut(a: TriangularFuzzyNumber, level: Fraction) -> tuple[Fraction, Fraction]:
    lo = Fraction(a.lower) + level * (Fraction(a.mode) - Fraction(a.lower))
    hi = Fraction(a.upper) - level * (Fraction(a.upper) - Fraction(a.mode))
    return lo, hi


def alpha_cut_check(
    a: TriangularFuzzyNumber,
    b: TriangularFuzzyNumber,
    op: str,
    result: TriangularFuzzyNumber,
    levels: Sequence,
) -> bool:
    """Check a triangular add/sub result against interval arithmetic per level.

    At each level the alpha-cut of ``result`` must equal the interval
    combination of the alpha-cuts of ``a`` and ``b`` in exact rationals.
    Multiplication and division are deliberately unsupported: the
    componentwise rules for those are not interval arithmetic in general.
    """
    if op not in ("add", "sub"):
        raise ValueError(f"alpha-cut check supports add/sub only, got {op!r}")
    for raw in levels:
        level = Fraction(repr(raw)) if isinstance(raw, float) else Fraction(raw)
        if not 0 <= level <= 1:
            raise ValueError(f"level {level} outside [0, 1]")
        a_lo, a_hi = _cut(a, level)
        b_lo, b_hi = _cut(b, level)
        if op == "add":
            expect = (a_lo + b_lo, a_hi + b_hi)
        else:
            expect = (a_lo - b_hi, a_hi - b_lo)
        if _cut(result, level) != expect:
            return False
    return True


def random_dfn(
    rng: random.Random,
    max_size: int = 15,
    low: int = 0,
    high: int = 40,
) -> DiscreteFuzzyNumber:
    """Random normal discrete fuzzy number with tenth-valued grades."""
    size = rng.randint(1, min(max_size, high - low + 1))
    support = rng.sample(range(low, high + 1), size)
    grades = {v: Fraction(rng.randint(1, 10), 10) for v in support}
    grades[rng.choice(support)] = Fraction(1)
    return DiscreteFuzzyNumber(grades)


def equivalence_suite(seed: int, cases: int) -> tuple[int, int]:
    """Compare the production sup-min paths against this oracle on random cases.

    Each case is one of four kinds: a raw binary combination (add/sub/mul);
    carry division or the correlated remainder (the extensions of two-place
    floor division and mod) over a crisp or discrete radix; one discrete L, D,
    F or M call in extension mode, whose partial carries, remainders,
    transformants and image cardinals one reference path re-derives for every
    form; or one triangular L, D, F or M call, whose every result triple,
    common carry included, is re-derived twice: its bounds as intervals at
    alpha = 0 (the min and max of ``op`` over the four corners, which for
    ``+`` and ``-`` are the endpoint sums and differences; the componentwise
    min for the common carry) and its mode at alpha = 1.  Values are
    non-negative and radices at least 1, where ``*`` and ``//`` are monotone,
    so the corners bound them exactly.  For a discrete F or M call the
    reference takes the common carry from the result: its formation is pinned
    by ``tests/test_carry.py`` and the CLI's ``carry`` checks in CI.  A
    triangular call that raises fails its case.  Returns (passed, total);
    deterministic for a given seed.
    """
    from .numbers import dfn_floor_div, dfn_mod, dfn_zadeh_binary
    from .operators import TransformOptions, apply_D, apply_F, apply_L, apply_M

    rng = random.Random(seed)
    extension = TransformOptions(remainder_mode="extension")
    forms = (apply_L, apply_D, apply_F, apply_M)

    def lift(value):
        return value if isinstance(value, DiscreteFuzzyNumber) else DiscreteFuzzyNumber({value: 1})

    def pick(low: int, high: int):
        """A crisp value in [low, high] or, half the time, a small discrete one."""
        if rng.random() < 0.5:
            return random_dfn(rng, max_size=3, low=low, high=high)
        return rng.randint(low, high)

    def pick_tri(low: int, high: int):
        """A triangular value in [low, high] or, half the time, a crisp one."""
        lower, mode, upper = sorted(rng.randint(low, high) for _ in range(3))
        return TriangularFuzzyNumber(lower, mode, upper) if rng.random() < 0.5 else mode

    def triple(value) -> tuple:
        if isinstance(value, TriangularFuzzyNumber):
            return value.lower, value.mode, value.upper
        return value, value, value

    def corners(op, a: tuple, b: tuple) -> tuple:
        """``op`` over the alpha = 0 intervals of ``a`` and ``b``, and over their modes."""
        ends = [op(x, y) for x in (a[0], a[2]) for y in (b[0], b[2])]
        return min(ends), op(a[1], b[1]), max(ends)

    passed = 0
    for _ in range(cases):
        kind = rng.randrange(4)
        if kind == 0:
            op = rng.choice((add, sub, mul))
            a, b = random_dfn(rng), random_dfn(rng)
            ok = dfn_zadeh_binary(op, a, b) == zadeh_oracle(op, a, b)
        elif kind == 1:
            production, op = rng.choice(((dfn_floor_div, floordiv), (dfn_mod, mod)))
            a, n = random_dfn(rng), pick(1, 6)
            ok = production(a, n) == zadeh_oracle(op, a, lift(n))
        elif kind == 2:  # one L, D, F or M call: W = 1 or 2 operands, V = 1 or 2 images
            form = rng.randrange(4)
            w, v = form // 2 + 1, form % 2 + 1
            cardinals = [random_dfn(rng, max_size=15 if w == 1 else 6) for _ in range(w)]
            radices, rates = [pick(1, 6) for _ in range(w)], [pick(0, 5) for _ in range(v)]
            images = [pick(0, 20) for _ in range(v)]
            args = (xs[0] if len(xs) == 1 else xs for xs in (cardinals, images, radices, rates))
            result = forms[form](*args, options=extension)
            carries = [zadeh_oracle(floordiv, c, lift(n)) for c, n in zip(cardinals, radices)]
            carry = carries[0] if w == 1 else result.common_carry
            transformants = [zadeh_oracle(mul, carry, lift(r)) for r in rates]
            expected = [
                carries,
                [zadeh_oracle(sub, c, zadeh_oracle(mul, carry, lift(n)))
                 for c, n in zip(cardinals, radices)],
                transformants,
                [zadeh_oracle(add, lift(i), q) for i, q in zip(images, transformants)],
            ]
            got = [list(m.values()) for m in (result.partial_carries, result.remainders,
                                              result.transformants, result.new_image_cardinals)]
            ok = got == expected and (w == 2 or result.common_carry is None)
        else:  # the same call over triangular cardinals
            form = rng.randrange(4)
            w, v = form // 2 + 1, form % 2 + 1
            cardinals = [TriangularFuzzyNumber(*sorted(rng.randint(0, 40) for _ in range(3)))
                         for _ in range(w)]
            radices, rates = [pick_tri(1, 6) for _ in range(w)], [pick_tri(0, 5) for _ in range(v)]
            images = [pick_tri(0, 20) for _ in range(v)]
            args = (xs[0] if len(xs) == 1 else xs for xs in (cardinals, images, radices, rates))
            try:
                result = forms[form](*args)
            except ValueError:  # every call drawn here is valid: raising fails the case
                continue
            carries = [corners(floordiv, triple(c), triple(n)) for c, n in zip(cardinals, radices)]
            carry = carries[0] if w == 1 else tuple(map(min, zip(*carries)))
            transformants = [corners(mul, carry, triple(r)) for r in rates]
            expected = [
                carries,
                [corners(sub, triple(c), corners(mul, carry, triple(n)))
                 for c, n in zip(cardinals, radices)],
                transformants,
                [corners(add, triple(i), q) for i, q in zip(images, transformants)],
                [carry] if w == 2 else [],
            ]
            common = [] if result.common_carry is None else [result.common_carry]
            got = [[triple(x) for x in m] for m in (
                result.partial_carries.values(), result.remainders.values(),
                result.transformants.values(), result.new_image_cardinals.values(), common,
            )]
            ok = got == expected
        passed += ok
    return passed, cases
