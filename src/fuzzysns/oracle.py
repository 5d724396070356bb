"""Independent brute-force verifiers used by the test suite and the CLI.

Nothing here shares arithmetic helpers with the production modules: the
sup-min evaluator re-enumerates every support pair into buckets, and the
alpha-cut checker builds its interval arithmetic inline.  Agreement between
these and the production paths is therefore evidence, not tautology.
Performance is a non-goal; the evaluator is quadratic in support size.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from collections.abc import Callable, Sequence

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

    Covers the raw binary combination (add/sub/mul), carry division and the
    correlated remainder (the extension of two-place mod) over crisp and
    discrete radices, and every sup-min step of discrete line and fusion
    applications: carries, transformants, image cardinals, and extension-mode
    remainders (for fusion, relative to the formed common carry).  Returns
    (passed, total); deterministic for a given seed.
    """
    from .numbers import dfn_floor_div, dfn_mod, dfn_zadeh_binary, lift_discrete
    from .operators import TransformOptions, apply_F, apply_L

    rng = random.Random(seed)
    extension = TransformOptions(remainder_mode="extension")

    def pick_radix():
        if rng.random() < 0.5:
            return random_dfn(rng, max_size=3, low=1, high=6)
        return rng.randint(1, 6)

    def pick_rate():
        if rng.random() < 0.5:
            return random_dfn(rng, max_size=3, low=0, high=5)
        return rng.randint(0, 5)

    passed = 0
    for _ in range(cases):
        kind = rng.randrange(5)
        ok = True
        if kind == 0:
            op = rng.choice((operator.add, operator.sub, operator.mul))
            a, b = random_dfn(rng), random_dfn(rng)
            ok = dfn_zadeh_binary(op, a, b) == zadeh_oracle(op, a, b)
        elif kind == 1:
            a = random_dfn(rng)
            n = pick_radix()
            ok = dfn_floor_div(a, n) == zadeh_oracle(
                operator.floordiv, a, lift_discrete(n)
            )
        elif kind == 2:
            a = random_dfn(rng)
            n = pick_radix()
            ok = dfn_mod(a, n) == zadeh_oracle(operator.mod, a, lift_discrete(n))
        elif kind == 3:
            cardinal = random_dfn(rng)
            radix = pick_radix()
            rate = pick_rate()
            image = random_dfn(rng, max_size=3) if rng.random() < 0.5 else rng.randint(0, 20)
            result = apply_L(cardinal, image, radix, rate, options=extension)
            carry = zadeh_oracle(operator.floordiv, cardinal, lift_discrete(radix))
            transformant = zadeh_oracle(operator.mul, carry, lift_discrete(rate))
            new_image = zadeh_oracle(operator.add, lift_discrete(image), transformant)
            remainder = zadeh_oracle(
                operator.sub,
                cardinal,
                zadeh_oracle(operator.mul, carry, lift_discrete(radix)),
            )
            ok = (
                result.carry == carry
                and result.transformant == transformant
                and result.new_image == new_image
                and result.remainder == remainder
            )
        else:
            cardinals = [random_dfn(rng, max_size=6), random_dfn(rng, max_size=6)]
            radices = [pick_radix(), pick_radix()]
            rate = pick_rate()
            image = rng.randint(0, 20)
            result = apply_F(cardinals, image, radices, rate, options=extension)
            carries = [
                zadeh_oracle(operator.floordiv, big_n, lift_discrete(n))
                for big_n, n in zip(cardinals, radices)
            ]
            common = result.common_carry  # formation is checked elsewhere
            transformant = zadeh_oracle(operator.mul, common, lift_discrete(rate))
            new_image = zadeh_oracle(operator.add, lift_discrete(image), transformant)
            remainders = [
                zadeh_oracle(
                    operator.sub,
                    big_n,
                    zadeh_oracle(operator.mul, common, lift_discrete(n)),
                )
                for big_n, n in zip(cardinals, radices)
            ]
            ok = (
                list(result.partial_carries.values()) == carries
                and result.transformant == transformant
                and result.new_image == new_image
                and list(result.remainders.values()) == remainders
            )
        passed += ok
    return passed, cases
