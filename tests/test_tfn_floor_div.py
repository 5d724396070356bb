"""How far the alpha-cuts of the triangular floor division ``tfn_floor_div`` lie from
the extension principle's cut of the real quotient.

For a dividend N with components 0-60 and a divisor n with components 1-9, and
[N_lo, N_hi] and [n_lo, n_hi] their alpha-cuts, the real quotient's alpha-cut is
[N_lo/n_hi, N_hi/n_lo].  The gap at an end is the floor division's cut end minus
that end.

No end is 1 or more below the quotient's: both quotient ends are convex in alpha,
so each lies on or below the chord between its values at alpha = 0 and 1, and the
floor division's ends run along that chord with each corner floored, which loses
less than 1.  Above it, the gap grows to over 28 at the interior levels, mostly at
the lower end for high alpha and the upper end for low alpha.  Over 20,000 seeded
pairs and the seven levels alpha = k/8, 0 < k < 8, the cuts with a gap over 1 are
pinned below.
"""

import random
from fractions import Fraction

from conftest import tri
from fuzzysns import tfn_floor_div

# The largest gap at (lower end, upper end) of the cut, per alpha = k/8.
_WORST = {
    1: (Fraction(385, 64), Fraction(397, 16)),
    2: (Fraction(333, 28), Fraction(85, 3)),
    3: (Fraction(835, 48), Fraction(849, 32)),
    4: (Fraction(223, 10), Fraction(113, 5)),
    5: (Fraction(837, 32), Fraction(845, 48)),
    6: (Fraction(335, 12), Fraction(603, 50)),
    7: (Fraction(391, 16), Fraction(1393, 228)),
}
# Of the 140,000 cuts: those with a gap over 1 at the lower end, the upper end, either.
_OFF_BY_MORE_THAN_1 = (18_059, 61_986, 72_071)


def _cut8(t, k):
    """Eight times the alpha-cut of ``t`` at alpha = k/8, as two ints."""
    return 8 * t.lower + k * (t.mode - t.lower), 8 * t.upper - k * (t.upper - t.mode)


def _random_triangle(rng, low, high):
    return tri(*sorted(rng.randint(low, high) for _ in range(3)))


def test_floor_division_gap_on_seeded_draws():
    rng = random.Random(2022)
    worst = {k: [Fraction(-1), Fraction(-1)] for k in _WORST}
    off = [0, 0, 0]
    for _ in range(20_000):
        dividend, divisor = _random_triangle(rng, 0, 60), _random_triangle(rng, 1, 9)
        quotient = tfn_floor_div(dividend, divisor)
        for k, ends in worst.items():
            (big_lo, big_hi), (n_lo, n_hi), (q_lo, q_hi) = (
                _cut8(t, k) for t in (dividend, divisor, quotient)
            )
            # q_lo/8 - big_lo/n_hi and q_hi/8 - big_hi/n_lo: the factors of 8 cancel in the quotient.
            gaps = (
                Fraction(q_lo * n_hi - 8 * big_lo, 8 * n_hi),
                Fraction(q_hi * n_lo - 8 * big_hi, 8 * n_lo),
            )
            assert all(gap > -1 for gap in gaps), (dividend, divisor, k)
            ends[:] = map(max, ends, gaps)
            off[0] += gaps[0] > 1
            off[1] += gaps[1] > 1
            off[2] += gaps[0] > 1 or gaps[1] > 1
    assert {k: tuple(ends) for k, ends in worst.items()} == _WORST
    assert tuple(off) == _OFF_BY_MORE_THAN_1
