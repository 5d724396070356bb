"""Independent brute-force verifiers used by the test suite and the CLI.

Nothing here shares arithmetic helpers with the production modules: the sup-min evaluator
re-enumerates every support pair into buckets, and interval arithmetic and the common-carry
rule are written inline (levels are read by ``numbers._exact``, which computes nothing).
Agreement between these and the production paths is therefore evidence, not tautology.
:func:`equivalence_suite` re-derives every output of an L, D, F or M call in
either fuzzy family, either remainder mode and with or without the clamp.
Performance is a non-goal; the evaluator is quadratic in support size.
"""

from __future__ import annotations

import random
from fractions import Fraction
from collections.abc import Callable, Iterable
from functools import reduce
from operator import add, floordiv, mod, mul, sub
from types import SimpleNamespace

from .errors import _typed
from .numbers import DiscreteFuzzyNumber, TriangularFuzzyNumber, _exact


def zadeh_oracle(
    op: Callable[[int, int], int], a: DiscreteFuzzyNumber, b: DiscreteFuzzyNumber
) -> DiscreteFuzzyNumber:
    """Literal sup-min evaluation: bucket every pair, then take max of mins."""
    _typed(op, Callable, "op")
    _typed(a, DiscreteFuzzyNumber, "a")
    _typed(b, DiscreteFuzzyNumber, "b")
    buckets: dict[int, list[Fraction]] = {}
    b_points = b.points  # each read builds the pairs
    for x, grade_x in a.points:
        for y, grade_y in b_points:
            buckets.setdefault(op(x, y), []).append(min(grade_x, grade_y))
    return DiscreteFuzzyNumber({z: max(grades) for z, grades in buckets.items()})


def _cut(a: TriangularFuzzyNumber, level: Fraction) -> tuple[Fraction, Fraction]:
    lo = Fraction(a.lower) + level * (Fraction(a.mode) - Fraction(a.lower))
    hi = Fraction(a.upper) - level * (Fraction(a.upper) - Fraction(a.mode))
    return lo, hi


def alpha_cut_check(
    a: TriangularFuzzyNumber,
    b: TriangularFuzzyNumber,
    op: str,
    result: TriangularFuzzyNumber,
    levels: Iterable,
) -> bool:
    """Check a triangular add/sub result against interval arithmetic per level.

    At each level, read by ``numbers._exact`` (a float by its decimal repr, a bool refused),
    the alpha-cut of ``result`` must equal the interval combination of the alpha-cuts of ``a``
    and ``b`` in exact rationals.
    Multiplication and division are deliberately unsupported: the
    componentwise rules for those are not interval arithmetic in general.
    """
    for name, value in (("a", a), ("b", b), ("result", result)):
        _typed(value, TriangularFuzzyNumber, name)
    if op not in ("add", "sub"):
        raise ValueError(f"alpha-cut check supports add/sub only, got {op!r}")
    for raw in _typed(levels, Iterable, "levels"):
        level = _exact(raw, "level")
        if not 0 <= level <= 1:
            raise ValueError(f"level {level} outside [0, 1]")
        a_lo, a_hi = _cut(a, level)
        b_lo, b_hi = _cut(b, level)
        expect = (a_lo + b_lo, a_hi + b_hi) if op == "add" else (a_lo - b_hi, a_hi - b_lo)
        if _cut(result, level) != expect:
            return False
    return True


def random_dfn(
    rng: random.Random, max_size: int = 15, low: int = 0, high: int = 40
) -> DiscreteFuzzyNumber:
    """Random normal discrete fuzzy number with tenth-valued grades."""
    size = rng.randint(1, min(max_size, high - low + 1))
    support = rng.sample(range(low, high + 1), size)
    grades = {v: Fraction(rng.randint(1, 10), 10) for v in support}
    grades[rng.choice(support)] = Fraction(1)
    return DiscreteFuzzyNumber(grades)


def equivalence_suite(seed: int, cases: int) -> tuple[int, int]:
    """Compare the production paths against this oracle on random cases.

    A third of the cases run the sup-min kernel alone (add, sub or mul).  The
    rest make one L, D, F or M call (W, V = 1 or 2) in the discrete or the
    triangular family, ``remainder_mode`` correlated or extension and
    ``clamp_negative`` on or off, and re-derive its partial carries, common
    carry, remainders, transformants and new images from a per-family table.
    Discrete: :func:`zadeh_oracle` on values lifted to singletons, the pair rule
    of the common carry written out, the clamp a sup-min ``max`` against 0.
    Triangular: a triple's bounds are the min and max of ``op`` over the
    alpha = 0 corners (exact for the non-negative values and radices >= 1
    drawn), its mode ``op`` on the modes; common carry and clamp componentwise.
    A call that raises fails its case.  Returns (passed, total), fixed per seed.
    """
    from .numbers import dfn_zadeh_binary
    from .operators import TransformOptions, apply_D, apply_F, apply_L, apply_M

    rng = random.Random(seed)
    forms = (apply_L, apply_D, apply_F, apply_M)

    def singleton(value):
        return value if isinstance(value, DiscreteFuzzyNumber) else DiscreteFuzzyNumber({value: 1})

    def pick(low: int, high: int):
        """A crisp value in [low, high] or, half the time, a small discrete one."""
        return random_dfn(rng, 3, low, high) if rng.random() < 0.5 else rng.randint(low, high)

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

    def form_pair(a: DiscreteFuzzyNumber, b: DiscreteFuzzyNumber) -> DiscreteFuzzyNumber:
        """Disjoint supports: the least-mode partial; else union below it, intersection above."""
        grades_a, grades_b = dict(a.points), dict(b.points)
        if grades_a.keys().isdisjoint(grades_b):
            return a if a.mode <= b.mode else b
        least = min(a.mode, b.mode)
        grades = {v: max(grades_a.get(v, 0), grades_b.get(v, 0))
                  for v in grades_a.keys() | grades_b.keys() if v < least}
        grades.update((v, min(g, grades_b[v])) for v, g in grades_a.items()
                      if v > least and v in grades_b)
        return DiscreteFuzzyNumber({**grades, least: 1})

    discrete = SimpleNamespace(
        cardinal=lambda w: random_dfn(rng, max_size=15 if w == 1 else 6), pick=pick,
        lift=singleton, op=zadeh_oracle, common=lambda partials: reduce(form_pair, partials),
        clamp=lambda r: zadeh_oracle(max, r, singleton(0)),
        correlated=lambda c, n: zadeh_oracle(mod, c, n),
    )
    triangular = SimpleNamespace(
        cardinal=lambda w: TriangularFuzzyNumber(*sorted(rng.randint(0, 40) for _ in range(3))),
        pick=pick_tri, lift=triple, op=corners,
        common=lambda partials: tuple(map(min, zip(*partials))),
        clamp=lambda r: tuple(max(0, x) for x in r), correlated=None,
    )

    passed = 0
    for _ in range(cases):
        fam = rng.choice((None, discrete, triangular))
        if fam is None:  # the sup-min kernel alone
            op, a, b = rng.choice((add, sub, mul)), random_dfn(rng), random_dfn(rng)
            passed += dfn_zadeh_binary(op, a, b) == zadeh_oracle(op, a, b)
            continue
        form = rng.randrange(4)
        w, v = form // 2 + 1, form % 2 + 1
        mode, clamp = rng.choice(("correlated", "extension")), rng.random() < 0.5
        cardinals = [fam.cardinal(w) for _ in range(w)]
        radices, rates = [fam.pick(1, 6) for _ in range(w)], [fam.pick(0, 5) for _ in range(v)]
        images = [fam.pick(0, 20) for _ in range(v)]
        args = (xs[0] if len(xs) == 1 else xs for xs in (cardinals, images, radices, rates))
        try:
            result = forms[form](*args, options=TransformOptions(mode, clamp))
        except ValueError:  # every call drawn here is valid: raising fails the case
            continue
        lift, op = fam.lift, fam.op
        pairs = [(lift(c), lift(n)) for c, n in zip(cardinals, radices)]
        carries = [op(floordiv, c, n) for c, n in pairs]
        carry = carries[0] if w == 1 else fam.common(carries)
        correlated = fam.correlated if mode == "correlated" and w == 1 else None
        remainders = [correlated(c, n) if correlated else op(sub, c, op(mul, carry, n))
                      for c, n in pairs]
        transformants = [op(mul, carry, lift(r)) for r in rates]
        expected = [
            carries,
            [fam.clamp(r) for r in remainders] if clamp else remainders,
            transformants,
            [op(add, lift(i), q) for i, q in zip(images, transformants)],
            [carry] if w == 2 else [],
        ]
        common = {} if result.common_carry is None else {"": result.common_carry}
        got = [[lift(x) for x in m.values()] for m in (
            result.partial_carries, result.remainders, result.transformants,
            result.new_image_cardinals, common,
        )]
        passed += got == expected
    return passed, cases
