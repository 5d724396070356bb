"""The four carry-kind operators, written once for every form and family.

Line (L), distribution (D), fusion (F) and multi (M) are one algorithm over
W >= 1 operands and V >= 1 images: floor a partial carry out of each operand
over its radix, form a common carry from the partials (F and M only), subtract
carry times radix for each operand's remainder, and give each image the carry
times its conversion rate.  :func:`_transform` runs it over a small per-family
arithmetic (crisp integers, discrete fuzzy numbers, triangular fuzzy numbers),
reached from ``apply_*`` and ``crisp_*`` through :func:`_apply`'s checks and
from ``scenario.run`` directly, in the family ``scenario.validate`` planned.

Every slot (cardinals, radices, conversion rates) accepts crisp integers,
discrete fuzzy numbers or triangular fuzzy numbers, with one restriction:
discrete and triangular values cannot meet in a single call.  Crisp arguments
are lifted into the fuzzy family of the call; because the lifts are arithmetic
identities, every published mixed-fuzziness case falls out of the one path.

Remainder semantics for the discrete family are configurable: the default
``correlated`` mode maps each support value straight to its own remainder
(t mod n), while ``extension`` mode composes N - carry * radix with full
cross-product extension, which decorrelates the carry from its source value
and can produce negative support values.  Formed common carries (F and M, even
with a single operand) always use the extension subtraction, since a formed
carry has no source value to correlate with.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from functools import reduce
from types import SimpleNamespace

from .errors import DomainError, OperatorSpecError
from .numbers import (
    CRISP, DISCRETE, TRIANGULAR, DiscreteFuzzyNumber, FuzzyScalar, TriangularFuzzyNumber,
    _ONE, _Record, _as_int, _check_natural, _check_radix, _lowest, _shown, dfn_floor_div, dfn_mod,
    dfn_zadeh_binary, joint_family, lift_discrete, lift_triangular,
    tfn_add, tfn_floor_div, tfn_mul, tfn_sub,
)

REMAINDER_MODES = ("correlated", "extension")


class TransformOptions(_Record):
    """Knobs for the fuzzy paths.

    ``remainder_mode`` (one of ``REMAINDER_MODES``) selects correlated vs
    cross-product discrete remainders; ``clamp_negative`` raises negative remainder
    support values, or a triangular remainder's lower bound, to zero instead of
    flagging them (the mode and upper bound of a triangular remainder are never negative).
    """

    __slots__ = ("remainder_mode", "clamp_negative")

    def __init__(self, remainder_mode: str = "correlated", clamp_negative: bool = False):
        if remainder_mode not in REMAINDER_MODES:
            raise OperatorSpecError(f"unknown remainder mode {_shown(remainder_mode)}")
        if not isinstance(clamp_negative, bool):
            raise OperatorSpecError(f"clamp_negative must be a boolean: {_shown(clamp_negative)}")
        self._init(remainder_mode, clamp_negative)


DEFAULT_OPTIONS = TransformOptions()


class TransformResult(_Record):
    """Everything one operator application produces, its fields in output order.

    Maps are keyed by entity id in operand/image order; ``common_carry`` is None for L and D.
    ``warnings`` records nonfatal problems (negative remainder bounds).  Stored flat: operand
    ids (keying partial carries and remainders), image ids (keying transformants and new image
    cardinals) and one tuple of the map values, all read by :meth:`_columns`; ``_WRITES`` names
    the two fields a step writes back.  Each read of a map builds a new dict, the caller's.
    """

    __slots__ = ("_operand_ids", "_image_ids", "_values", "common_carry", "warnings")
    __match_args__ = ("partial_carries", "common_carry", "remainders", "transformants",
                      "new_image_cardinals", "warnings")
    _WRITES = ("remainders", "new_image_cardinals")  # the fields a step writes back

    def __init__(
        self, partial_carries: dict[str, FuzzyScalar], common_carry: FuzzyScalar | None,
        remainders: dict[str, FuzzyScalar], transformants: dict[str, FuzzyScalar],
        new_image_cardinals: dict[str, FuzzyScalar], warnings: tuple[str, ...] = (),
    ):
        maps = [partial_carries, remainders, transformants, new_image_cardinals]
        p, r, q, n = keys = [tuple(m) for m in maps]
        if r != p or n != q:
            raise OperatorSpecError(f"remainders or new images keyed unlike partial carries or "
                                    f"transformants: {_shown(keys)}")
        self._init(p, q, tuple(v for m in maps for v in m.values()), common_carry, warnings)

    def _columns(self) -> dict[str, tuple[tuple, tuple]]:
        """Name -> (ids, values) of every field but ``warnings``, in order; common carry id None."""
        p, q, values = self._operand_ids, self._image_ids, self._values
        a, c = len(p), 2 * len(p) + len(q)
        return dict(zip(self.__match_args__, ((p, values[:a]), ((None,), (self.common_carry,)),
                    (p, values[a:2 * a]), (q, values[2 * a:c]), (q, values[c:]))))

    def _written(self) -> tuple[tuple[tuple, tuple], ...]:
        """(ids, values) of each field a step writes back, in ``_WRITES`` order."""
        return operator.itemgetter(*self._WRITES)(self._columns())

    partial_carries, remainders, transformants, new_image_cardinals = (
        property(lambda self, name=name: dict(zip(*self._columns()[name])))
        for name in __match_args__[:-1] if name != "common_carry")

    def _single(self, name: str, what: str) -> FuzzyScalar:
        ids, values = self._columns()[name]
        if len(ids) != 1:
            raise OperatorSpecError(f"no single {what}: {len(ids)} present")
        return values[0]

    @property
    def carry(self) -> FuzzyScalar:
        """The carry: common carry when formed, else the sole partial carry."""
        if self.common_carry is not None:
            return self.common_carry
        return self._single("partial_carries", "partial carry")

    remainder, transformant, new_image = (
        property(lambda self, name=name, what=what: self._single(name, what))
        for name, what in zip(__match_args__[2:5], ("remainder", "transformant", "image cardinal")))


# --- per-family arithmetic ---------------------------------------------------

def _check_partials(partials: Sequence, cls: type, what: str) -> None:
    """The one partial-carry rule: at least one partial carry, each a ``cls``."""
    if not partials:
        raise OperatorSpecError("common carry needs at least one partial carry")
    for p in partials:
        if not isinstance(p, cls):
            raise DomainError(f"expected {what}, got {_shown(p)}")


def common_carry_tri(partials: Sequence[TriangularFuzzyNumber]) -> TriangularFuzzyNumber:
    """Componentwise minimum of the partial carries.

    Commutative, associative and idempotent, so the fold order of the
    operands never matters.
    """
    _check_partials(partials, TriangularFuzzyNumber, "a triangular fuzzy number")
    return TriangularFuzzyNumber(
        min(p.lower for p in partials),
        min(p.mode for p in partials),
        min(p.upper for p in partials),
    )


def _form_pair(a: DiscreteFuzzyNumber, b: DiscreteFuzzyNumber) -> DiscreteFuzzyNumber:
    grades_a, grades_b = dict(zip(a.support, a.grades)), dict(zip(b.support, b.grades))
    if grades_a.keys().isdisjoint(grades_b):
        # Disjoint supports: the partial with the least mode is the carry.
        return a if a.mode <= b.mode else b
    least_mode = min(a.mode, b.mode)
    union, shared = grades_a.keys() | grades_b.keys(), grades_a.keys() & grades_b.keys()
    out = {v: max(grades_a.get(v, 0), grades_b.get(v, 0)) for v in union if v < least_mode}
    out[least_mode] = _ONE
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
    _check_partials(partials, DiscreteFuzzyNumber, "a discrete fuzzy number")
    return reduce(_form_pair, partials)


# The arithmetic each family lends the operator algorithm, the same nine names in each.
# ``floor_div``, ``mul``, ``add`` and ``sub`` take values of the family, lifted by ``lift``;
# ``common`` forms a common carry from the partial carries; ``clamp`` and ``negative`` (the
# warning's wording) handle a remainder below zero, which a crisp one never is; ``correlated``
# maps each support value to its own remainder, for the discrete family only.  The lambdas
# look the module's functions up at call time, so that perfbench/tracer.py, which replaces
# them as module attributes, sees every call.
_FAMILIES = {
    CRISP: SimpleNamespace(
        lift=lambda value: value,
        floor_div=operator.floordiv,
        mul=operator.mul,
        add=operator.add,
        sub=operator.sub,
        common=min,
        clamp=None,
        negative="",
        correlated=None,
    ),
    DISCRETE: SimpleNamespace(
        lift=lift_discrete,
        floor_div=lambda cardinal, radix: dfn_floor_div(cardinal, radix),
        mul=lambda a, b: dfn_zadeh_binary(operator.mul, a, b),
        add=lambda a, b: dfn_zadeh_binary(operator.add, a, b),
        sub=lambda a, b: dfn_zadeh_binary(operator.sub, a, b),
        common=lambda partials: common_carry_dfn(partials),
        clamp=lambda value: dfn_zadeh_binary(max, value, lift_discrete(0)),
        negative="has negative support values (min {})",
        correlated=lambda cardinal, radix: dfn_mod(cardinal, radix),
    ),
    TRIANGULAR: SimpleNamespace(
        lift=lift_triangular,
        floor_div=lambda cardinal, radix: tfn_floor_div(cardinal, radix),
        mul=lambda a, b: tfn_mul(a, b),
        add=lambda a, b: tfn_add(a, b),
        sub=lambda a, b: tfn_sub(a, b),
        common=lambda partials: common_carry_tri(partials),
        clamp=lambda t: TriangularFuzzyNumber(max(0, t.lower), t.mode, t.upper),
        negative="has negative lower bound {}",
        correlated=None,
    ),
}


# --- the one operator algorithm ----------------------------------------------

def _repeated(ids: Sequence) -> list:
    """The one repeated-id rule: each id listed more than once, in first-appearance order."""
    counts = dict.fromkeys(ids, 0)
    if len(counts) == len(ids):
        return []
    for i in ids:
        counts[i] += 1
    return [i for i, n in counts.items() if n > 1]


def _ids(ids: Sequence[str] | None, count: int, prefix: str) -> tuple[str, ...]:
    if ids is None:
        return (prefix,) if count == 1 else tuple(f"{prefix}{k}" for k in range(1, count + 1))
    out = tuple(ids)
    if len(out) != count:
        raise OperatorSpecError(f"{len(out)} entity ids for {count} values")
    if repeated := _repeated(out):
        raise OperatorSpecError(f"entity ids listed more than once: {_shown(repeated)}")
    return out


def _apply(
    fused: bool,
    operands: Sequence[FuzzyScalar], images: Sequence[FuzzyScalar],
    radices: Sequence[FuzzyScalar], rates: Sequence[FuzzyScalar],
    options: TransformOptions,
    operand_ids: Sequence[str] | None, image_ids: Sequence[str] | None,
) -> TransformResult:
    """One public call: every check, in order, then :func:`_transform` in the joint family."""
    if len(operands) != len(radices):
        raise OperatorSpecError(f"{len(operands)} operands but {len(radices)} radices")
    if len(images) != len(rates):
        raise OperatorSpecError(f"{len(images)} images but {len(rates)} rates")
    if not operands or not images:
        raise OperatorSpecError("an operator needs at least one operand and one image")
    fam = _FAMILIES[joint_family((*operands, *images, *radices, *rates))]
    op_ids = _ids(operand_ids, len(operands), "i")
    img_ids = _ids(image_ids, len(images), "k" if fused else "j")
    for n in radices:
        _check_radix(n)
    for big_n in operands:  # before the rates; _transform checks them again
        _check_natural(big_n, "operand cardinal")
    for r in rates:
        _check_natural(r, "conversion rate")
    return _transform(fam, fused, operands, images, radices, rates, options, op_ids, img_ids)


def _transform(
    fam: SimpleNamespace, fused: bool, operands: Sequence[FuzzyScalar],
    images: Sequence[FuzzyScalar], radices: Sequence[FuzzyScalar], rates: Sequence[FuzzyScalar],
    options: TransformOptions, op_ids: Sequence[str], img_ids: Sequence[str],
) -> TransformResult:
    """Carry, common carry, remainders, transformants and images of one call in ``fam``.

    ``fused`` is True for F and M: a common carry is formed even from a single partial, and
    remainders always subtract it by extension.  Otherwise (L and D, one operand) the partial
    carry is the carry and discrete remainders follow ``options.remainder_mode``.  Counts, ids,
    radices and rates come checked, by :func:`_apply` or by ``scenario.validate``; the run-time
    values, operands and the images of a crisp call, are checked here.  The result is stored
    flat: ``op_ids`` and ``img_ids`` as given and one tuple of the map values, in field order.
    """
    for big_n in operands:
        _check_natural(big_n, "operand cardinal")
    if fam is _FAMILIES[CRISP]:  # a fuzzy image may dip below zero, a crisp one may not
        for img in images:
            _check_natural(img, "image cardinal")
    # Lifted once each, after the checks, so an error names the value as given.
    cardinals = [fam.lift(big_n) for big_n in operands]
    radices = [fam.lift(n) for n in radices]
    values = [fam.floor_div(c, n) for c, n in zip(cardinals, radices)]  # the partial carries
    carry = fam.common(values) if fused else values[0]
    correlated = fam.correlated if options.remainder_mode == "correlated" and not fused else None
    warnings: list[str] = []
    for op_id, cardinal, n in zip(op_ids, cardinals, radices):
        rem = correlated(cardinal, n) if correlated else fam.sub(cardinal, fam.mul(carry, n))
        low = _lowest(rem)
        if low < 0 and options.clamp_negative:
            rem = fam.clamp(rem)
        elif low < 0:
            shown = fam.negative.format(_shown(low, str))
            warnings.append(f"remainder for '{_shown(op_id, str)}' {shown}")
        values.append(rem)
    transformants = [fam.mul(carry, fam.lift(r)) for r in rates]
    values += transformants
    values += [fam.add(fam.lift(img), q) for img, q in zip(images, transformants)]
    result = object.__new__(TransformResult)
    result._init(op_ids, img_ids, tuple(values), carry if fused else None, tuple(warnings))
    return result


# --- the four operators, in any fuzziness pattern and crisp-only -------------

def apply_L(
    operand: FuzzyScalar, image: FuzzyScalar, radix: FuzzyScalar, rate: FuzzyScalar, *,
    options: TransformOptions = DEFAULT_OPTIONS, operand_id: str = "i", image_id: str = "j",
) -> TransformResult:
    """Line operator over one operand and one image, in any fuzziness pattern."""
    return _apply(
        False, (operand,), (image,), (radix,), (rate,), options, (operand_id,), (image_id,)
    )


def apply_D(
    operand: FuzzyScalar, images: Sequence[FuzzyScalar],
    radix: FuzzyScalar, rates: Sequence[FuzzyScalar], *,
    options: TransformOptions = DEFAULT_OPTIONS,
    operand_id: str = "i", image_ids: Sequence[str] | None = None,
) -> TransformResult:
    """Distribution operator: one carry and remainder, a fan-out per image."""
    return _apply(False, (operand,), images, (radix,), rates, options, (operand_id,), image_ids)


def apply_F(
    operands: Sequence[FuzzyScalar], image: FuzzyScalar,
    radices: Sequence[FuzzyScalar], rate: FuzzyScalar, *,
    options: TransformOptions = DEFAULT_OPTIONS,
    operand_ids: Sequence[str] | None = None, image_id: str = "k",
) -> TransformResult:
    """Fusion operator: a common carry formed from all partial carries."""
    return _apply(True, operands, (image,), radices, (rate,), options, operand_ids, (image_id,))


def apply_M(
    operands: Sequence[FuzzyScalar], images: Sequence[FuzzyScalar],
    radices: Sequence[FuzzyScalar], rates: Sequence[FuzzyScalar], *,
    options: TransformOptions = DEFAULT_OPTIONS,
    operand_ids: Sequence[str] | None = None, image_ids: Sequence[str] | None = None,
) -> TransformResult:
    """Multi operator: fusion carry formation plus distribution fan-out."""
    return _apply(True, operands, images, radices, rates, options, operand_ids, image_ids)


def _require_ints(*values) -> None:
    for value in values:
        _as_int(value, "crisp operator argument")


def crisp_L(
    operand: int, image: int, radix: int, rate: int, *,
    operand_id: str = "i", image_id: str = "j",
) -> TransformResult:
    """Line operator over natural numbers: the baseline every fuzzy L collapses to.

    carry = operand // radix; remainder = operand mod radix;
    transformant = carry * rate; image gains the transformant.
    """
    _require_ints(operand, image, radix, rate)
    return apply_L(operand, image, radix, rate, operand_id=operand_id, image_id=image_id)


def crisp_D(
    operand: int, images: Sequence[int], radix: int, rates: Sequence[int], *,
    operand_id: str = "i", image_ids: Sequence[str] | None = None,
) -> TransformResult:
    """Distribution operator over natural numbers: one carry fans out to several images."""
    _require_ints(operand, *images, radix, *rates)
    return apply_D(operand, images, radix, rates, operand_id=operand_id, image_ids=image_ids)


def crisp_F(
    operands: Sequence[int], image: int, radices: Sequence[int], rate: int, *,
    operand_ids: Sequence[str] | None = None, image_id: str = "k",
) -> TransformResult:
    """Fusion operator over natural numbers: common carry = min of the partial carries.

    Remainders subtract the common carry (N_w - p * n_w), which differs from
    N_w mod n_w whenever the common carry is below an operand's own carry.
    """
    _require_ints(*operands, image, *radices, rate)
    return apply_F(operands, image, radices, rate, operand_ids=operand_ids, image_id=image_id)


def crisp_M(
    operands: Sequence[int], images: Sequence[int], radices: Sequence[int], rates: Sequence[int],
    *, operand_ids: Sequence[str] | None = None, image_ids: Sequence[str] | None = None,
) -> TransformResult:
    """Multi operator over natural numbers: fusion-style carry, distribution-style fan-out."""
    _require_ints(*operands, *images, *radices, *rates)
    return apply_M(operands, images, radices, rates, operand_ids=operand_ids, image_ids=image_ids)
