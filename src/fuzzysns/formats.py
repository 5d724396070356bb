"""Text and JSON round-trip formats for fuzzy values, scenarios and grades.

Literal syntax: crisp values print as bare integers, triangular triples as
"(lower; mode; upper)", discrete numbers as "{value|grade, ...}" sorted by
support value.  Grades print as exact decimals when the denominator allows it
and as "p/q" otherwise, so every printed literal re-parses to an identical
value.  Integer text is an optional sign and ASCII digits, :func:`_int_from_text`.
Scenario files are JSON documents; floats inside them are read as exact
fractions, never binary floats.  Each record (document, entity, step,
options) is read against one key table, :func:`_record`.  Option keys and
defaults come from :class:`TransformOptions`; every discrete value reaches
:class:`DiscreteFuzzyNumber` as pairs, which alone rules on duplicate support
values.  A key written twice in one JSON object is refused as it is read.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable
from fractions import Fraction

from .errors import DomainError, ParseError, _typed
from .numbers import (
    DiscreteFuzzyNumber,
    FuzzyScalar,
    TriangularFuzzyNumber,
    _fraction_from_text,
    _grade_text,
    _is_int,
    family,
    format_fraction,
)
from .operators import Form, OperatorSpec, TransformOptions
from .scenario import Scenario


def parse_fraction(text: str) -> Fraction:
    """Grade text: what ``Fraction`` reads, in ASCII and without underscores.

    The exponent bound comes first, so an oversized exponent is named as such.
    """
    try:
        value = _fraction_from_text(_typed(text, str, "text"))
    except DomainError as exc:
        raise ParseError(str(exc)) from exc
    if not text.isascii() or "_" in text:
        raise ParseError(f"not a number: {text!r}")
    return value


# Integer text: an optional sign and ASCII digits, whitespace around.  ``int``
# alone would also read underscores ("6_0") and non-ASCII digits ("٦").
_INTEGER = re.compile(r"\s*[-+]?[0-9]+\s*")


def _int_from_text(text: str) -> int:
    """The one integer-text rule; any other text is a ValueError."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def format_scalar(value: FuzzyScalar) -> str:
    """The literal of a crisp, triangular or discrete value, each type's ``str``; any other
    value, a ``bool`` included, is refused by :func:`family`."""
    family(value)
    return str(value)


def _build(where: str | None, make: Callable, *args, **kwargs):
    """``make(*args, **kwargs)``, a constructor's complaint raised as a ParseError at ``where``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        raise ParseError(str(exc) if where is None else f"{where}: {exc}") from exc


def parse_triangular(text: str) -> TriangularFuzzyNumber:
    body = _typed(text, str, "text").strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ParseError(f"triangular literal must look like (a; m; b): {text!r}")
    parts = body[1:-1].split(";")
    if len(parts) != 3:
        raise ParseError(f"triangular literal needs three components: {text!r}")
    try:
        lower, mode, upper = (_int_from_text(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"triangular components must be integers: {text!r}") from exc
    return _build(None, TriangularFuzzyNumber, lower, mode, upper)


def parse_discrete(text: str) -> DiscreteFuzzyNumber:
    body = _typed(text, str, "text").strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ParseError(f"discrete literal must look like {{v|grade, ...}}: {text!r}")
    points = []
    for chunk in body[1:-1].split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"empty entry in discrete literal: {text!r}")
        value_text, sep, grade_text = chunk.partition("|")
        if not sep:
            raise ParseError(f"discrete entry needs value|grade: {chunk!r}")
        try:
            value = _int_from_text(value_text)
        except ValueError as exc:
            raise ParseError(f"support value must be an integer: {chunk!r}") from exc
        points.append((value, parse_fraction(grade_text)))
    return _build(None, DiscreteFuzzyNumber, points)


def parse_scalar(text: str) -> FuzzyScalar:
    """Parse a crisp, triangular, or discrete literal by its leading bracket."""
    body = _typed(text, str, "text").strip()
    if body.startswith("("):
        return parse_triangular(body)
    if body.startswith("{"):
        return parse_discrete(body)
    try:
        return _int_from_text(body)
    except ValueError as exc:
        raise ParseError(f"not a fuzzy-number literal: {text!r}") from exc


# --- scenario files ----------------------------------------------------------

def _scalar_to_json(value: FuzzyScalar) -> object:
    if isinstance(value, TriangularFuzzyNumber):
        return [value.lower, value.mode, value.upper]
    if isinstance(value, DiscreteFuzzyNumber):
        pairs = zip(value.support, value.grades)
        return [[v, _grade_text(g.as_integer_ratio())] for v, g in pairs]
    return value


def _scalar_from_json(node: object, where: str) -> FuzzyScalar:
    if _is_int(node):
        return node
    if isinstance(node, str):
        return _build(where, parse_scalar, node)
    if isinstance(node, dict):
        node = [[_support_key(key, where), grade] for key, grade in node.items()]
    if isinstance(node, list):
        if len(node) == 3 and all(_is_int(x) for x in node):
            return _build(where, TriangularFuzzyNumber, *node)
        if all(isinstance(x, list) and len(x) == 2 for x in node):
            points = [
                (v, _build(where, parse_fraction, g) if isinstance(g, str) else g) for v, g in node
            ]
            return _build(where, DiscreteFuzzyNumber, points)
    raise ParseError(f"{where}: cannot read fuzzy scalar from {node!r}")


def _scalars(nodes: list, where: str, field: str, table: dict, indexed: bool = True) -> tuple:
    """``nodes`` read as the scalars ``where.field[k]`` (``where.field`` unless ``indexed``).
    An all-``int`` tuple is shared through ``table``; a fuzzy one is not: its hash hashes grades."""
    if {*map(type, nodes)} <= {int}:  # JSON gives exact ints; a bool is not one
        values = tuple(nodes)
        return table.setdefault(values, values)
    at = f"{where}.{field}"
    return tuple(_scalar_from_json(x, f"{at}[{k}]" if indexed else at) for k, x in enumerate(nodes))


def _support_key(key: str, where: str) -> int:
    try:
        return _int_from_text(key)
    except ValueError as exc:
        raise ParseError(f"{where}: support key {key!r} is not an integer") from exc


def _record(node: object, where: str, required: tuple, optional: tuple = ()) -> dict:
    """``node`` as a record: an object with every ``required`` key and no key outside the two."""
    if not isinstance(node, dict):
        raise ParseError(f"{where} must be a JSON object")
    for key in required:
        if key not in node:
            raise ParseError(f"{where}: missing {key!r}")
    for key in node:
        if key not in required and key not in optional:
            raise ParseError(f"{where}: unknown key {key!r}")
    return node


def _step_to_json(step: OperatorSpec) -> dict:
    radices = [_scalar_to_json(n) for n in step.radices]
    return {
        "form": step.form.value,
        "operands": list(step.operands),
        "images": list(step.images),
        "radix": radices[0] if len(radices) == 1 else radices,
        "rates": [_scalar_to_json(r) for r in step.rates],
    }


def _step_from_json(node: object, index: int, table: dict) -> OperatorSpec:
    """One step; each id known to ``table`` is held as that entity's key object."""
    where = f"steps[{index}]"
    _record(node, where, ("form", "operands", "images", "radix", "rates"))
    try:
        form = Form(node["form"])
    except ValueError as exc:
        raise ParseError(f"{where}: unknown form {node['form']!r}") from exc
    ids = node["operands"], node["images"]
    for key, raw in zip(("operands", "images"), ids):
        if not isinstance(raw, list) or not {*map(type, raw)} <= {str}:  # JSON gives exact strs
            raise ParseError(f"{where}: '{key}' must be a list of entity ids")
    operands, images = (tuple(map(table.get, raw, raw)) for raw in ids)  # unknown ids as read
    raw_radix, several = node["radix"], len(operands) != 1
    if several and (not isinstance(raw_radix, list) or len(raw_radix) != len(operands)):
        raise ParseError(f"{where}: 'radix' must list one radix per operand")
    radices = _scalars(raw_radix if several else [raw_radix], where, "radix", table, several)
    if not isinstance(node["rates"], list):
        raise ParseError(f"{where}: 'rates' must be a list")
    rates = _scalars(node["rates"], where, "rates", table)
    return OperatorSpec(form, operands, images, radices, rates)


def scenario_to_json(scenario: Scenario) -> str:
    _typed(scenario, Scenario, "scenario")
    doc = {
        "entities": [
            {"id": entity_id, "kind": family(value), "value": _scalar_to_json(value)}
            for entity_id, value in scenario.initial.items()
        ],
        "steps": [_step_to_json(step) for step in scenario.steps],
        "options": {key: getattr(scenario.options, key) for key in TransformOptions.__slots__},
    }
    return json.dumps(doc, indent=2)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; a key written twice in it is a ParseError."""
    members = dict(pairs)
    if len(members) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"key {key!r} appears more than once in one JSON object")
            seen.add(key)
    return members


def scenario_from_json(text: str) -> Scenario:
    """Parse a scenario document; malformed JSON reports line and column.

    Nesting too deep to read, numbers too long to convert, exponents beyond
    ``MAX_EXPONENT`` and a key repeated within one object are parse errors too.
    """
    _typed(text, str, "text")
    try:
        doc = json.loads(text, parse_float=_fraction_from_text, object_pairs_hook=_unique_keys)
        return _scenario_from_doc(doc)
    except ParseError:
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from exc


def _scenario_from_doc(doc: object) -> Scenario:
    _record(doc, "scenario document", ("entities",), ("steps", "options"))
    for key in ("entities", "steps"):
        if not isinstance(doc.get(key, []), list):
            raise ParseError(f"'{key}' must be a list")
    initial: dict[str, FuzzyScalar] = {}
    for k, node in enumerate(doc["entities"]):
        where = f"entities[{k}]"
        _record(node, where, ("id", "value"), ("kind",))
        entity_id = node["id"]
        if not isinstance(entity_id, str) or not entity_id:
            raise ParseError(f"{where}: entity id must be a nonempty string")
        if entity_id in initial:
            raise ParseError(f"{where}: duplicate entity id {entity_id!r}")
        value = _scalar_from_json(node["value"], f"{where}.value")
        kind = node.get("kind")
        if kind is not None and kind != family(value):
            raise ParseError(
                f"{where}: declared kind {kind!r} does not match value kind {family(value)!r}"
            )
        initial[entity_id] = value
    table = {key: key for key in initial}  # ids, then all-int radix and rate tuples
    steps = tuple(_step_from_json(node, k, table) for k, node in enumerate(doc.get("steps", [])))
    options = _record(doc.get("options", {}), "options", (), TransformOptions.__slots__)
    return Scenario(initial, steps, _build("options", TransformOptions, **options))
