"""The alpha-cuts of the triangular product ``tfn_mul``, in closed form.

For componentwise non-negative ``a`` and ``b`` and alpha in [0, 1], with
[A_lo, A_hi] and [B_lo, B_hi] their alpha-cuts, the alpha-cut of
``tfn_mul(a, b)`` is the extension principle's cut [A_lo*B_lo, A_hi*B_hi]
with both ends shifted up by alpha*(1 - alpha) times a spread product:

- lower end: A_lo*B_lo + alpha*(1 - alpha)*(a.mode - a.lower)*(b.mode - b.lower)
- upper end: A_hi*B_hi + alpha*(1 - alpha)*(a.upper - a.mode)*(b.upper - b.mode)

Each end of the product's cut is a line in alpha and each end of the
extension principle's cut a quadratic; their difference is the shift.  So the
product is exact at alpha = 0 and 1, and in between, where both spread products
are not 0, it is neither an inner nor an outer approximation.
"""

import random
from fractions import Fraction

from hypothesis import given

from conftest import tri, triangles
from fuzzysns import tfn_mul

_LEVELS = [Fraction(k, 8) for k in range(9)]


def _cut(t, alpha):
    return t.lower + alpha * (t.mode - t.lower), t.upper - alpha * (t.upper - t.mode)


def _assert_closed_form(a, b):
    product = tfn_mul(a, b)
    for alpha in _LEVELS:
        (a_lo, a_hi), (b_lo, b_hi) = _cut(a, alpha), _cut(b, alpha)
        shift = alpha * (1 - alpha)
        assert _cut(product, alpha) == (
            a_lo * b_lo + shift * (a.mode - a.lower) * (b.mode - b.lower),
            a_hi * b_hi + shift * (a.upper - a.mode) * (b.upper - b.mode),
        ), (a, b, alpha)


def _random_triangle(rng, high=50):
    return tri(*sorted(rng.randint(0, high) for _ in range(3)))


def test_closed_form_on_seeded_draws():
    rng = random.Random(2022)
    for _ in range(1000):
        _assert_closed_form(_random_triangle(rng), _random_triangle(rng))


@given(a=triangles(), b=triangles())
def test_closed_form_on_generated_triangles(a, b):
    _assert_closed_form(a, b)

