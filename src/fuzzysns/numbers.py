"""Fuzzy number representations and the arithmetic primitives built on them.

Two representations are supported: triangular fuzzy numbers, stored as an
integer triple (lower; mode; upper), and discrete fuzzy numbers, stored as two
parallel tuples: the sorted integer support values and their membership
grades.  The (value, grade) pairs are built on each read.  Grades are exact
``fractions.Fraction`` values in (0, 1] so that equality checks and round-trips
never suffer binary-float drift.  A plain ``int`` plays the role of a crisp
value; ``FuzzyScalar`` is the union of the three.

The sup-min kernel has two sides.  ``+`` and ``-`` whose result hull is no
wider than the pair count sum the operands' alpha-cuts as ``int`` bitsets and
never call ``op``; every other ``op``, and a sum over sparse, wide supports,
call ``op`` exactly once per support pair.  Either way the kernel builds its
result without validating it again: every grade it writes is an operand's
grade, its result is a dict keyed by value, and the pair of the two operands'
modes has grade 1.  Only the values ``op`` returns are checked, once, after
the pair loop; the bitset side builds ``int``s.  No grade is hashed on the
way: grade levels and grade literals are keyed by ``as_integer_ratio()``.
"""

from __future__ import annotations

import functools
import operator
import re
from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from .errors import DomainError, InvalidRadixError, MixedFamilyError

GradeLike = int | float | str | Fraction
_ONE = Fraction(1)  # the grade of a lifted crisp value and of a formed carry's mode


def _is_int(value) -> bool:
    """The one crisp-value rule: a plain ``int``, never a ``bool``."""
    return type(value) is int or isinstance(value, int) and not isinstance(value, bool)


def _shown(value, show=repr) -> str:
    """The one rule for an id or a value in message or label text: ``show(value)`` on one line."""
    try:
        text = show(value)
    except ValueError:  # past the int digit limit: an int shows its size, a container its items
        if isinstance(value, int):
            return f"int of {value.bit_length()} bits"
        if isinstance(value, dict):
            return "{" + ", ".join(f"{_shown(k)}: {_shown(v)}" for k, v in value.items()) + "}"
        if not isinstance(value, (list, tuple)):
            return f"a long {type(value).__name__}"
        items = ", ".join(map(_shown, value)) + "," * (len(value) == 1 and type(value) is tuple)
        return f"[{items}]" if isinstance(value, list) else f"({items})"
    return text if text.isprintable() else _json_str(text)  # a line break shows as \n


def _as_int(value, what: str) -> int:
    if not _is_int(value):
        raise DomainError(f"{what} must be an integer, got {_shown(value)}")
    return value


# The exponent of a decimal number's text: "e" or "E", a sign, digits that
# may be Unicode digits and may hold underscores, as ``Fraction`` reads them.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]*)")
# The same limit ``int`` puts on the digits of a literal by default.
MAX_EXPONENT = 4300


def _fraction_from_text(text: str) -> Fraction:
    """``Fraction(text)``, refusing an exponent over ``MAX_EXPONENT`` in magnitude.

    The exponent sets the number of digits of the numerator or denominator,
    which every later step (arithmetic, formatting) pays for, so it is
    checked on the text, before the Fraction is built.
    """
    match = _EXPONENT.search(text)
    if match:
        digits = match[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise DomainError(
                f"number {_shown(text.strip())} has an exponent beyond +-{MAX_EXPONENT}"
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a number: {_shown(text)}") from exc


def _exact(value, what: str) -> Fraction:
    """The one exact-number rule: a Fraction as given, an int (not a bool) as a Fraction, a
    float by its decimal repr (0.3 is 3/10), text by :func:`_fraction_from_text` (bounded)."""
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, (float, str)):
        return _fraction_from_text(repr(value) if isinstance(value, float) else value)
    raise DomainError(f"{what} must be numeric, got {_shown(value)}")


def as_grade(value: GradeLike) -> Fraction:
    """Coerce a membership grade to an exact Fraction in (0, 1], by :func:`_exact`."""
    grade = _exact(value, "grade")
    if not 0 < grade <= 1:  # an int grade is shown as an int: by its size past the digit limit
        raise DomainError(f"grade {_shown(value if _is_int(value) else grade, str)} outside (0, 1]")
    return grade


def format_fraction(value: GradeLike) -> str:
    """Exact decimal when the denominator is 2^a * 5^b, else "p/q"; read by :func:`_exact`."""
    f = _exact(value, "value")
    if f.denominator == 1:
        return str(f.numerator)
    reduced = f.denominator
    twos = fives = 0
    while reduced % 2 == 0:
        reduced //= 2
        twos += 1
    while reduced % 5 == 0:
        reduced //= 5
        fives += 1
    if reduced != 1:
        return f"{f.numerator}/{f.denominator}"
    places = max(twos, fives)
    scaled = abs(f.numerator) * 10**places // f.denominator
    digits = str(scaled).rjust(places + 1, "0")
    sign = "-" if f.numerator < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


@functools.lru_cache(maxsize=1024)
def _grade_text(ratio: tuple[int, int]) -> str:
    """The literal of the grade ``Fraction(*ratio)``, formatted once per grade.

    A run prints few distinct grades many times.  The key is the grade's
    ``as_integer_ratio()``, a tuple of ints, so no ``Fraction`` is hashed.
    """
    return format_fraction(Fraction(*ratio))


class _Record:
    """A frozen record: its constructor sets every ``__slots__`` entry once, in order, by ``_init``.

    Nothing writes a slot afterwards.  The fields are ``__match_args__``, ``__slots__`` unless a
    class names them; a derived field is a property, built on each read.  Equality and hash go by
    the field tuple, within one class; the repr is ``Name(field=value, ...)``; copies and pickles
    are rebuilt by ``__init__``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls.__match_args__ = vars(cls).get("__match_args__", cls.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        get = operator.attrgetter(*fields)  # the bare value for a single field
        cls._fields = property(get if len(fields) > 1 else lambda self: (get(self),))

    def _init(self, *values) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_shown(getattr(self, name))}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {_shown(name)}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {_shown(name)}")

    def __reduce__(self):
        return type(self), self._fields


class TriangularFuzzyNumber(_Record):
    """Integer triple (lower; mode; upper) with piecewise-linear membership.

    A degenerate triple lower == mode == upper represents a crisp value.
    Bounds are plain integers: remainder subtraction can push them negative.
    """

    __slots__ = ("lower", "mode", "upper")

    def __init__(self, lower: int, mode: int, upper: int):
        for name, value in zip(self.__slots__, (lower, mode, upper)):
            _as_int(value, name)
        if not lower <= mode <= upper:
            shown = "; ".join(_shown(v, str) for v in (lower, mode, upper))
            raise DomainError(f"triangular triple out of order: ({shown})")
        self._init(lower, mode, upper)

    @property
    def is_crisp(self) -> bool:
        return self.lower == self.mode == self.upper

    def __str__(self) -> str:
        return f"({self.lower}; {self.mode}; {self.upper})"


class DiscreteFuzzyNumber(_Record):
    """Finite, normal fuzzy number: integer support values with exact grades.

    A number is stored as two parallel tuples: ``support``, its values in
    increasing order, and ``grades``, the grade of each.  Any mapping or
    iterable of (value, grade) pairs is accepted; grades go through
    :func:`as_grade`.  At least one grade must be exactly 1 (normality), so
    every number has a mode.

    The record's one field is ``points``, the (value, grade) pairs in support
    order: repr, equality, hash, match, copies and pickles go by it.  Each read
    builds it from the two tuples and keeps nothing, so a number that is only
    computed with never builds its pairs.
    """

    __slots__ = ("support", "grades")
    __match_args__ = ("points",)

    # __post_init__ is a method of its own so perfbench/tracer.py can wrap it to count
    # numbers.dfn_new; the ROADMAP item on tracer hooks folds it back into __init__.
    def __init__(self, points: Mapping[int, GradeLike] | Iterable[tuple[int, GradeLike]]):
        self.__post_init__(points)

    def __post_init__(self, points):
        items: Iterable = points.items() if isinstance(points, Mapping) else points
        seen: dict[int, Fraction] = {}
        for value, grade in items:
            value = _as_int(value, "support value")
            if value in seen:
                raise DomainError(f"duplicate support value {_shown(value, str)}")
            seen[value] = as_grade(grade)
        if not seen:
            raise DomainError("support must be nonempty")
        if not any(g == 1 for g in seen.values()):
            raise DomainError("discrete fuzzy number must be normal (some grade == 1)")
        support = tuple(sorted(seen))
        self._init(support, tuple(map(seen.__getitem__, support)))

    @classmethod
    def _trusted(cls, out: dict[int, Fraction]) -> DiscreteFuzzyNumber:
        """A lifted crisp value or the sup-min kernel's result: ``out`` sorted, nothing checked.

        Grades, distinctness, normality and integer support values hold by
        construction, or are checked by :func:`dfn_zadeh_binary` (module docstring).
        """
        number = object.__new__(cls)
        support = tuple(sorted(out))
        number._init(support, tuple(map(out.__getitem__, support)))
        return number

    @property
    def points(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(zip(self.support, self.grades))

    @property
    def mode(self) -> int:
        """Smallest support value carrying grade exactly 1."""
        return self.support[self.grades.index(1)]

    @property
    def is_singleton(self) -> bool:
        return len(self.support) == 1

    def grade(self, value: int) -> Fraction:
        """Membership of ``value``: 0 off the support; a bisection over ``support``."""
        index = bisect_left(self.support, value)
        if index < len(self.support) and self.support[index] == value:
            return self.grades[index]
        return Fraction(0)

    def __str__(self) -> str:
        pairs = zip(self.support, self.grades)
        literals = (f"{v}|{_grade_text(g.as_integer_ratio())}" for v, g in pairs)
        return "{" + ", ".join(literals) + "}"


FuzzyScalar = int | DiscreteFuzzyNumber | TriangularFuzzyNumber

# Family tags for dispatch over the crisp/discrete/triangular union.
CRISP = "crisp"
DISCRETE = "discrete"
TRIANGULAR = "triangular"


def family(value: FuzzyScalar) -> str:
    if type(value) is int:  # the common case, settled by one test
        return CRISP
    if isinstance(value, TriangularFuzzyNumber):
        return TRIANGULAR
    if isinstance(value, DiscreteFuzzyNumber):
        return DISCRETE
    if not _is_int(value):
        raise DomainError(f"not a fuzzy scalar: {_shown(value)}")
    return CRISP


def _join_families(tags: Iterable[str]) -> str:
    """The one mixing rule over family tags: crisp joins either fuzzy family."""
    joint = CRISP
    for tag in tags:
        if joint == CRISP:
            joint = tag
        elif tag not in (CRISP, joint):
            raise MixedFamilyError("cannot mix discrete and triangular values in one operation")
    return joint


def joint_family(values: Iterable[FuzzyScalar]) -> str:
    """Family shared by a group of scalars; crisp mixes with either fuzzy kind.

    Raises MixedFamilyError when discrete and triangular values are combined.
    """
    return _join_families(map(family, values))


def lift_triangular(value: FuzzyScalar) -> TriangularFuzzyNumber:
    if isinstance(value, TriangularFuzzyNumber):
        return value
    if isinstance(value, DiscreteFuzzyNumber):
        raise MixedFamilyError("cannot lift a discrete fuzzy number to triangular")
    v = _as_int(value, "crisp value")
    return TriangularFuzzyNumber(v, v, v)


def lift_discrete(value: FuzzyScalar) -> DiscreteFuzzyNumber:
    if isinstance(value, DiscreteFuzzyNumber):
        return value
    if isinstance(value, TriangularFuzzyNumber):
        raise MixedFamilyError("cannot lift a triangular fuzzy number to discrete")
    return DiscreteFuzzyNumber._trusted({_as_int(value, "crisp value"): _ONE})


def _lowest(value: FuzzyScalar) -> int:
    """The least value a crisp, triangular or discrete scalar can take."""
    if type(value) is int:  # the common case, settled by one test
        return value
    if isinstance(value, TriangularFuzzyNumber):
        return value.lower
    if isinstance(value, DiscreteFuzzyNumber):
        return value.support[0]
    return _as_int(value, "crisp value")


def _check_radix(value: FuzzyScalar) -> None:
    """The one radix rule: every value a radix can take is at least 1."""
    if _lowest(value) < 1:
        raise InvalidRadixError(f"radix must be >= 1, got {_shown(value, str)}")


def _check_natural(value: FuzzyScalar, what: str) -> None:
    """The one natural-number rule: every value ``value`` can take is at least 0."""
    if _lowest(value) < 0:
        raise DomainError(f"{what} must be >= 0, got {_shown(value, str)}")


def crisp_value(value: FuzzyScalar) -> int | None:
    """The crisp integer a degenerate fuzzy value collapses to, else None."""
    if isinstance(value, TriangularFuzzyNumber):
        return value.mode if value.is_crisp else None
    if isinstance(value, DiscreteFuzzyNumber):
        return value.support[0] if value.is_singleton else None
    return _as_int(value, "crisp value")


def _operands(lift: Callable, needs: str, *values) -> None:
    """The one operand rule of a family's arithmetic: each value is a fuzzy number, else a
    DomainError (``needs``) names it, and ``lift`` refuses one of the other family."""
    for value in values:
        if not isinstance(value, (DiscreteFuzzyNumber, TriangularFuzzyNumber)):
            raise DomainError(f"{needs}, got {_shown(value)}")
        lift(value)  # MixedFamilyError for the other family's number


# --- triangular arithmetic -------------------------------------------------

_triangular = functools.partial(
    _operands, lift_triangular, "triangular arithmetic needs triangular fuzzy numbers")


def tfn_membership(x, a: TriangularFuzzyNumber) -> Fraction:
    """Membership grade of x under the triple's piecewise-linear profile.

    Rising edge on [lower, mode], falling edge on [mode, upper], zero outside;
    a degenerate edge contributes grade 1 at the shared point.  Exact result;
    ``x`` is read by :func:`_exact` (a float through its decimal repr).
    """
    x = _exact(x, "x")
    _triangular(a)
    if x < a.lower or x > a.upper:
        return Fraction(0)
    if x == a.mode:
        return Fraction(1)
    if x < a.mode:
        return (x - a.lower) / (a.mode - a.lower)
    return (a.upper - x) / (a.upper - a.mode)


def tfn_add(a: TriangularFuzzyNumber, b: TriangularFuzzyNumber) -> TriangularFuzzyNumber:
    _triangular(a, b)
    return TriangularFuzzyNumber(a.lower + b.lower, a.mode + b.mode, a.upper + b.upper)


def tfn_sub(a: TriangularFuzzyNumber, b: TriangularFuzzyNumber) -> TriangularFuzzyNumber:
    """Bound-swapping subtraction: (a.lower - b.upper; a.mode - b.mode; a.upper - b.lower)."""
    _triangular(a, b)
    return TriangularFuzzyNumber(a.lower - b.upper, a.mode - b.mode, a.upper - b.lower)


def tfn_mul(a: TriangularFuzzyNumber, b: TriangularFuzzyNumber) -> TriangularFuzzyNumber:
    """Componentwise product; defined only for componentwise-nonnegative triples."""
    _triangular(a, b)
    _check_natural(a, "componentwise factor")
    _check_natural(b, "componentwise factor")
    return TriangularFuzzyNumber(a.lower * b.lower, a.mode * b.mode, a.upper * b.upper)


def tfn_scale(a: TriangularFuzzyNumber, c: int) -> TriangularFuzzyNumber:
    _triangular(a)
    _check_natural(_as_int(c, "scale factor"), "scale factor")
    return TriangularFuzzyNumber(a.lower * c, a.mode * c, a.upper * c)


def tfn_floor_div(num: TriangularFuzzyNumber, div: TriangularFuzzyNumber) -> TriangularFuzzyNumber:
    """Carry-style floor division, pairing the divisor's components in reverse.

    (num.lower // div.upper; num.mode // div.mode; num.upper // div.lower) stays ordered.
    """
    _triangular(num, div)
    _check_radix(div)
    _check_natural(num, "dividend")
    return TriangularFuzzyNumber(
        num.lower // div.upper, num.mode // div.mode, num.upper // div.lower
    )


# --- discrete arithmetic ---------------------------------------------------

def _grade_levels(a: DiscreteFuzzyNumber, b: DiscreteFuzzyNumber) -> list:
    """(grade, new ``a`` values, new ``b`` values) per distinct grade, highest first.

    Grades are bucketed by ``as_integer_ratio()``: a tuple of ints hashes in
    C, and a Fraction is always reduced, so equal grades share a key.
    """
    buckets: dict[tuple[int, int], tuple[Fraction, list[int], list[int]]] = {}
    for side, number in ((1, a), (2, b)):
        for v, g in zip(number.support, number.grades):
            key = g.as_integer_ratio()
            level = buckets.get(key)
            if level is None:
                level = buckets[key] = (g, [], [])
            level[side].append(v)
    return sorted(buckets.values(), key=operator.itemgetter(0), reverse=True)


def _cut_sums(
    levels: list, a: DiscreteFuzzyNumber, b: DiscreteFuzzyNumber, subtract: bool
) -> DiscreteFuzzyNumber:
    """``a + b`` (``a - b`` if ``subtract``) over ``levels``, by alpha-cut bitsets.

    The alpha-cut of a sum at grade g is the Minkowski sum of the operands'
    cuts at g.  Each cut is an ``int`` with bit k set for the value
    ``low + k``, ``b``'s values negated under subtraction; a level ORs the
    cuts shifted by its new points, and the bits no higher level reached
    take its grade.
    """
    sign = -1 if subtract else 1
    a_low = a.support[0]
    b_low = -b.support[-1] if subtract else b.support[0]
    base = a_low + b_low
    cut_a = cut_b = reached = 0
    out: dict[int, Fraction] = {}
    for g, new_a, new_b in levels:
        step = 0
        for x in new_a:
            shift = x - a_low
            step |= cut_b << shift
            cut_a |= 1 << shift
        for y in new_b:
            shift = sign * y - b_low
            cut_b |= 1 << shift
            step |= cut_a << shift
        fresh = step & ~reached
        reached |= fresh
        bits = bin(fresh)[:1:-1]  # bit k at index k
        k = bits.find("1")
        while k >= 0:
            out[base + k] = g
            k = bits.find("1", k + 1)
    return DiscreteFuzzyNumber._trusted(out)


def dfn_zadeh_binary(
    op: Callable[[int, int], int],
    a: DiscreteFuzzyNumber,
    b: DiscreteFuzzyNumber,
) -> DiscreteFuzzyNumber:
    """Sup-min extension of a binary integer function to discrete fuzzy numbers.

    The support is the image of the support cross-product; support values that
    collide keep the maximum of their min-combined grades.  Every discrete
    operation is one such call, crisp operands lifted to singletons.

    Both operands' support values are bucketed by grade and the distinct
    grades visited highest first.  At each level the new ``a`` values are
    paired with the ``b`` values seen so far, then the new ``b`` values with
    the ``a`` values seen so far, this level's included.  The level's grade is
    then each new pair's min, and the first grade written for a result value
    is its sup.  Only the distinct grades are compared.

    When ``op`` is ``operator.add`` or ``operator.sub`` and the result's hull
    is no wider than the pair count, ``(max a - min a) + (max b - min b) + 1
    <= |a|*|b|``, the levels are summed as alpha-cut bitsets
    (:func:`_cut_sums`) and ``op`` is never called.  Otherwise ``op`` is
    called exactly once per support pair, always as ``op(x, y)`` with ``x``
    from ``a``.  The choice rests on ``op``'s identity and the operands alone.
    """
    _operands(lift_discrete, "sup-min extension needs discrete fuzzy numbers", a, b)
    levels = _grade_levels(a, b)
    if op is operator.add or op is operator.sub:
        width = (a.support[-1] - a.support[0]) + (b.support[-1] - b.support[0]) + 1
        if width <= len(a.support) * len(b.support):
            return _cut_sums(levels, a, b, op is operator.sub)
    seen_a: list[int] = []
    seen_b: list[int] = []
    out: dict[int, Fraction] = {}
    put = out.setdefault
    for g, new_a, new_b in levels:
        for x in new_a:
            for y in seen_b:
                put(op(x, y), g)
        seen_a += new_a
        for y in new_b:
            for x in seen_a:
                put(op(x, y), g)
        seen_b += new_b
    for value in out:  # op is any callable and can return a float or a bool
        _as_int(value, "support value")
    return DiscreteFuzzyNumber._trusted(out)


def dfn_floor_div(a: DiscreteFuzzyNumber, n: int | DiscreteFuzzyNumber) -> DiscreteFuzzyNumber:
    """Carry of a discrete cardinal over a crisp or discrete radix: sup-min ``t // s``.

    A crisp radix is lifted to a singleton, so each support value t maps to
    t // n keeping its grade.  Collisions keep the max grade.
    """
    _check_radix(n)
    return dfn_zadeh_binary(operator.floordiv, a, lift_discrete(n))


def dfn_mod(a: DiscreteFuzzyNumber, n: int | DiscreteFuzzyNumber) -> DiscreteFuzzyNumber:
    """Correlated remainder over a crisp or discrete radix: sup-min ``t mod s``.

    Each support value t maps to its own remainder, which keeps the remainder
    paired with the support value it came from; the cross-product alternative
    (``N - carry * radix``) is a separate, selectable path.
    """
    _check_radix(n)
    return dfn_zadeh_binary(operator.mod, a, lift_discrete(n))
