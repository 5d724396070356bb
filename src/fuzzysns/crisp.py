"""Records shared by the operators and the scenario layer.

The four operator forms, their valences, one operator application inside a
scenario, and everything one application produces.  The operators
themselves, crisp and fuzzy alike, are one algorithm in
:mod:`fuzzysns.operators`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import OperatorSpecError
from .numbers import FuzzyScalar


class Form(str, Enum):
    """Operator form: Line, Distribution, Fusion, Multi."""

    L = "L"
    D = "D"
    F = "F"
    M = "M"


def valence_matches(form: Form, w: int, v: int) -> bool:
    """Strict operand/image counts per form: L=(1,1), D=(1,>=2), F=(>=2,1), M=(>=2,>=2).

    The operator functions themselves are deliberately looser (any W, V >= 1)
    so degenerate valences can be cross-checked; scenarios enforce this rule.
    """
    if form == Form.L:
        return w == 1 and v == 1
    if form == Form.D:
        return w == 1 and v >= 2
    if form == Form.F:
        return w >= 2 and v == 1
    return w >= 2 and v >= 2


@dataclass(frozen=True)
class OperatorSpec:
    """Description of one operator application inside a scenario.

    ``operands``/``images`` are entity ids; ``radices`` has one radix per
    operand, ``rates`` one conversion rate per image.  The record itself is
    permissive; :func:`fuzzysns.scenario.validate` reports valence and radix
    violations as diagnostics instead of raising here.
    """

    form: Form
    operands: tuple[str, ...]
    images: tuple[str, ...]
    radices: tuple[FuzzyScalar, ...]
    rates: tuple[FuzzyScalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "form", Form(self.form))
        object.__setattr__(self, "operands", tuple(self.operands))
        object.__setattr__(self, "images", tuple(self.images))
        object.__setattr__(self, "radices", tuple(self.radices))
        object.__setattr__(self, "rates", tuple(self.rates))


@dataclass(frozen=True)
class TransformResult:
    """Everything one operator application produces.

    Maps are keyed by entity id in operand/image order.  ``common_carry`` is
    None for single-operand forms.  ``warnings`` records validation issues
    (negative remainder bounds) that are reported but do not fail the call.
    """

    partial_carries: dict[str, FuzzyScalar]
    common_carry: Optional[FuzzyScalar]
    remainders: dict[str, FuzzyScalar]
    transformants: dict[str, FuzzyScalar]
    new_image_cardinals: dict[str, FuzzyScalar]
    warnings: tuple[str, ...] = field(default=())

    def _single(self, mapping: dict, what: str) -> FuzzyScalar:
        if len(mapping) != 1:
            raise OperatorSpecError(f"no single {what}: {len(mapping)} present")
        return next(iter(mapping.values()))

    @property
    def carry(self) -> FuzzyScalar:
        """The carry: common carry when formed, else the sole partial carry."""
        if self.common_carry is not None:
            return self.common_carry
        return self._single(self.partial_carries, "partial carry")

    @property
    def remainder(self) -> FuzzyScalar:
        return self._single(self.remainders, "remainder")

    @property
    def transformant(self) -> FuzzyScalar:
        return self._single(self.transformants, "transformant")

    @property
    def new_image(self) -> FuzzyScalar:
        return self._single(self.new_image_cardinals, "image cardinal")
