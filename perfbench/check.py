"""Output gate: re-derive every step of a generated scenario independently.

The reference below replays the scenario document step by step with its own
crisp and triangular arithmetic, its own common-carry formation and
``fuzzysns.oracle.zadeh_oracle`` for every sup-min extension, so it shares no
arithmetic with the production kernels a later change may replace.  It then
compares, field by field, what ``fuzzysns eval`` printed: partial and common
carries, remainders, transformants, new image cardinals, per-step state
snapshots (JSON output) and the final state.  Each step is re-derived from
the pre-step state, so the first wrong value is reported with its step.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from collections import namedtuple
from fractions import Fraction

from fuzzysns.numbers import DiscreteFuzzyNumber
from fuzzysns.oracle import zadeh_oracle

Tri = namedtuple("Tri", "lower mode upper")
ONE = Fraction(1)


class Mismatch(Exception):
    pass


# --- values ------------------------------------------------------------------
# Reference values are plain ints (crisp), Tri triples (triangular) and
# dicts {support value: Fraction grade} (discrete).  ``canon`` maps them, and
# ``parse_literal`` maps printed literals, to one comparable form.

def from_doc(node):
    if isinstance(node, int):
        return node
    if len(node) == 3 and all(isinstance(x, int) for x in node):
        return Tri(*node)
    return {v: Fraction(g) for v, g in node}


def canon(value):
    if isinstance(value, Tri):
        return ("T", *value)
    if isinstance(value, dict):
        return ("D", tuple(sorted(value.items())))
    return value


def parse_literal(text: str):
    text = text.strip()
    if text.startswith("("):
        return ("T", *(int(x) for x in text[1:-1].split(";")))
    if text.startswith("{"):
        points = []
        for chunk in text[1:-1].split(","):
            v, g = chunk.split("|")
            points.append((int(v), Fraction(g.strip())))
        return ("D", tuple(sorted(points)))
    return int(text)


def family(value) -> str:
    if isinstance(value, Tri):
        return "triangular"
    if isinstance(value, dict):
        return "discrete"
    return "crisp"


def lift(value, fam: str):
    if not isinstance(value, int) or fam == "crisp":
        return value
    return Tri(value, value, value) if fam == "triangular" else {value: ONE}


def zadeh(op, a: dict, b: dict) -> dict:
    return dict(zadeh_oracle(op, DiscreteFuzzyNumber(a), DiscreteFuzzyNumber(b)).points)


def floor_div(a, n):
    if isinstance(a, Tri):
        return Tri(a.lower // n.upper, a.mode // n.mode, a.upper // n.lower)
    if isinstance(a, dict):
        return zadeh(operator.floordiv, a, n)
    return a // n


def mul(a, b):
    if isinstance(a, Tri):
        return Tri(a.lower * b.lower, a.mode * b.mode, a.upper * b.upper)
    if isinstance(a, dict):
        return zadeh(operator.mul, a, b)
    return a * b


def add(a, b):
    if isinstance(a, Tri):
        return Tri(a.lower + b.lower, a.mode + b.mode, a.upper + b.upper)
    if isinstance(a, dict):
        return zadeh(operator.add, a, b)
    return a + b


def sub(a, b):
    if isinstance(a, Tri):
        return Tri(a.lower - b.upper, a.mode - b.mode, a.upper - b.lower)
    if isinstance(a, dict):
        return zadeh(operator.sub, a, b)
    return a - b


def clamp(value):
    if isinstance(value, Tri):
        return Tri(*(max(0, x) for x in value))
    out: dict = {}
    for v, g in value.items():
        v = max(0, v)
        if g > out.get(v, 0):
            out[v] = g
    return out


def negative(value) -> bool:
    if isinstance(value, Tri):
        return value.lower < 0
    if isinstance(value, dict):
        return min(value) < 0
    return value < 0


def mode(value: dict) -> int:
    return min(v for v, g in value.items() if g == 1)


def common_carry(partials: list):
    """Crisp/triangular minimum, or the discrete pair rule folded in order."""
    if isinstance(partials[0], int):
        return min(partials)
    if isinstance(partials[0], Tri):
        return Tri(*(min(p[k] for p in partials) for k in range(3)))
    acc = partials[0]
    for nxt in partials[1:]:
        if not set(acc) & set(nxt):
            acc = acc if mode(acc) <= mode(nxt) else nxt
            continue
        least = min(mode(acc), mode(nxt))
        out = {least: ONE}
        for v in sorted(set(acc) | set(nxt)):
            if v != least:
                ga, gb = acc.get(v, 0), nxt.get(v, 0)
                g = max(ga, gb) if v < least else min(ga, gb)
                if g > 0:
                    out[v] = g
        acc = out
    return acc


# --- the reference replay ----------------------------------------------------

def replay(doc: dict):
    """Yield (step index, form, expected fields, state after) for each step.

    Fields are keyed ("p", operand), ("c", None), ("rem", operand),
    ("q", image) and ("N", image), with canonical values.
    """
    state = {e["id"]: from_doc(e["value"]) for e in doc["entities"]}
    correlated = doc["options"]["remainder_mode"] == "correlated"
    clamping = doc["options"]["clamp_negative"]
    for index, step in enumerate(doc["steps"]):
        ops, imgs = step["operands"], step["images"]
        radices = [step["radix"]] if len(ops) == 1 else step["radix"]
        radices = [from_doc(n) for n in radices]
        rates = [from_doc(r) for r in step["rates"]]
        values = [state[e] for e in ops + imgs] + radices + rates
        fams = {family(v) for v in values} - {"crisp"}
        if len(fams) > 1:
            raise Mismatch(f"step {index}: generated step mixes families")
        fam = fams.pop() if fams else "crisp"
        radices = [lift(n, fam) for n in radices]
        rates = [lift(r, fam) for r in rates]
        cards = [lift(state[e], fam) for e in ops]
        partials = [floor_div(c, n) for c, n in zip(cards, radices)]
        multi = step["form"] in ("F", "M")
        carry = common_carry(partials) if multi else partials[0]
        fields = {("p", e): canon(p) for e, p in zip(ops, partials)}
        if multi:
            fields[("c", None)] = canon(carry)
        for e, c, n in zip(ops, cards, radices):
            if fam == "discrete" and correlated and not multi:
                rem = zadeh(operator.mod, c, n)
            else:
                rem = sub(c, mul(carry, n))
            if fam != "crisp" and clamping:
                rem = clamp(rem)
            elif negative(rem):
                raise Mismatch(f"step {index}: generated step leaves a negative remainder")
            fields[("rem", e)] = canon(rem)
            state[e] = rem
        for e, r in zip(imgs, rates):
            q = mul(carry, r)
            fields[("q", e)] = canon(q)
            state[e] = add(lift(state[e], fam), q)
            fields[("N", e)] = canon(state[e])
        yield index, step["form"], fields, state


# --- printed output ----------------------------------------------------------

_STEP = re.compile(r"step (\d+) ([LDFM]): (.*)")
_FIELD = re.compile(r"(p\.|p|rem|q|N')(?:_(\S+?))?=(\{[^}]*\}|\([^)]*\)|-?\d+)")
_KIND = {"p": "p", "p.": "c", "rem": "rem", "q": "q", "N'": "N"}


def _text_steps(text: str, doc: dict):
    if not text.endswith("\n"):
        raise Mismatch("text output does not end with a newline")
    lines = text[:-1].split("\n")
    steps = []
    for line in lines:
        m = _STEP.fullmatch(line)
        if m is None:
            break
        step = doc["steps"][len(steps)]
        fields = {}
        for label, entity, literal in _FIELD.findall(m.group(3)):
            kind = _KIND[label]
            if kind == "c":
                entity = None
            elif not entity:
                entity = (step["images"] if kind == "q" else step["operands"])[0]
            fields[(kind, entity)] = parse_literal(literal)
        steps.append((int(m.group(1)), m.group(2), fields, None))
    rest = lines[len(steps):]
    if not rest or rest[0] != "final:":
        raise Mismatch("text output has no 'final:' section after the steps")
    final = {}
    for line in rest[1:]:
        entity, sep, literal = line.strip().partition(" = ")
        if not sep:
            raise Mismatch(f"unreadable final line {line!r}")
        final[entity] = parse_literal(literal)
    return steps, final


def _json_steps(text: str):
    doc = json.loads(text)
    cache: dict = {}

    def lit(s):
        if s not in cache:
            cache[s] = parse_literal(s)
        return cache[s]

    if doc["warnings"]:
        raise Mismatch(f"unexpected warnings {doc['warnings'][:3]}")
    steps = []
    for node in doc["steps"]:
        fields = {("p", e): lit(v) for e, v in node["partial_carries"].items()}
        if node["common_carry"] is not None:
            fields[("c", None)] = lit(node["common_carry"])
        fields.update({("rem", e): lit(v) for e, v in node["remainders"].items()})
        fields.update({("q", e): lit(v) for e, v in node["transformants"].items()})
        fields.update({("N", e): lit(v) for e, v in node["new_image_cardinals"].items()})
        state = {e: lit(v) for e, v in node["state"].items()}
        steps.append((node["index"], node["form"], fields, state))
    return steps, {e: lit(v) for e, v in doc["final"].items()}


def check_output(doc: dict, fmt: str, text: str) -> None:
    """Raise Mismatch at the first printed value the reference disagrees with."""
    steps, final = _json_steps(text) if fmt == "json" else _text_steps(text, doc)
    if len(steps) != len(doc["steps"]):
        raise Mismatch(f"{len(steps)} steps printed for {len(doc['steps'])} in the scenario")
    last = {e["id"]: from_doc(e["value"]) for e in doc["entities"]}
    for (index, form, want, state), (got_index, got_form, got, got_state) in zip(
        replay(doc), steps
    ):
        if (got_index, got_form) != (index, form):
            raise Mismatch(f"step {index}: printed as step {got_index} {got_form}")
        if got != want:
            bad = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
            raise Mismatch(f"step {index} {form}: fields {bad[:4]} differ from the reference")
        if got_state is not None and got_state != {e: canon(v) for e, v in state.items()}:
            raise Mismatch(f"step {index} {form}: state snapshot differs from the reference")
        last = state
    if final != {e: canon(v) for e, v in last.items()}:
        raise Mismatch("final state differs from the reference")


def main(argv: list[str]) -> int:
    """``check.py SCENARIO OUTPUT FORMAT``: exit 1 with a message on mismatch."""
    scenario, output, fmt = argv
    with open(scenario) as f:
        doc = json.load(f)
    with open(output) as f:
        text = f.read()
    try:
        check_output(doc, fmt, text)
    except (Mismatch, ValueError, KeyError, IndexError, TypeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
