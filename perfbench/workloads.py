"""Seeded scenario generators for the benchmark workloads.

Each generator turns a seed into one scenario document (the JSON that
``fuzzysns eval`` reads) plus the output format the workload evaluates it
with.  Shapes are fixed per workload: the seed moves values and grades (and
crisp radices, which cost the same whatever they are), not sizes, so every
seed asks for about the same amount of work.  Every generated step is valid:
valences match their forms, radices are >= 1, no step mixes discrete and
triangular values, and the options clamp negative remainders, so no
evaluation fails.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Sizes are fixed: CHAIN_ENTITIES crisp entities in crisp-chain; a
# FUSION_WIDTH-wide value range per dfn-fusion group; MIXED_ENTITIES entities
# and MIXED_STEPS steps in mixed-json (20 per family, which the cursor walk in
# mixed_json needs not to be a multiple of 6).
CHAIN_ENTITIES = 3000
FUSION_WIDTH = 1000
MIXED_ENTITIES = 40
MIXED_STEPS = 400

GRADES = ("0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1/3", "2/3")


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str
    doc: dict

    def text(self) -> str:
        return json.dumps(self.doc)

    def shape(self) -> dict:
        """N entities, S steps, initial discrete support sizes, file bytes."""
        supports = [
            len(e["value"]) for e in self.doc["entities"] if e["kind"] == "discrete"
        ]
        return {
            "entities": len(self.doc["entities"]),
            "steps": len(self.doc["steps"]),
            "discrete_entities": len(supports),
            "support_min": min(supports, default=0),
            "support_max": max(supports, default=0),
            "support_total": sum(supports),
            "bytes": len(self.text().encode()),
            "format": self.fmt,
        }


def _dfn(rng: random.Random, size: int, low: int, high: int) -> list:
    """Normal discrete literal: ``size`` support values spread over [low, high).

    One value is drawn from each of ``size`` equal strata of the range, so
    the support is sparse and random but its gaps, and with them the support
    sizes that sums and carries produce, hardly vary with the seed.  The
    grade-1 point sits at the middle rank for the same reason: the mode's
    position decides how much of a support survives common-carry formation.
    """
    bounds = [low + (high - low) * k // size for k in range(size + 1)]
    support = [rng.randrange(bounds[k], bounds[k + 1]) for k in range(size)]
    points = [[v, rng.choice(GRADES)] for v in support]
    points[size // 2][1] = "1"
    return points


def _step(form: str, operands, images, radices, rates) -> dict:
    return {
        "form": form,
        "operands": list(operands),
        "images": list(images),
        "radix": radices[0] if len(operands) == 1 else list(radices),
        "rates": list(rates),
    }


def _valence(form: str) -> tuple[int, int]:
    return {"L": (1, 1), "D": (1, 2), "F": (2, 1), "M": (2, 2)}[form]


def crisp_chain(seed: int) -> Workload:
    """N crisp entities and N-1 steps cycling L/D/F/M over neighbours.

    Rates stay below their radix so values shrink along the chain instead of
    growing into big integers.
    """
    rng = random.Random(f"crisp-chain:{seed}")
    ids = [f"e{k}" for k in range(CHAIN_ENTITIES)]
    doc_entities = [
        {"id": e, "kind": "crisp", "value": rng.randrange(0, 10**6)} for e in ids
    ]
    steps = []
    for k in range(CHAIN_ENTITIES - 1):
        form = "LDFM"[k % 4]
        w, v = _valence(form)
        names = [ids[(k + off) % CHAIN_ENTITIES] for off in range(w + v)]
        radices = [rng.randint(2, 12) for _ in range(w)]
        rates = [rng.randint(1, min(radices) - 1) for _ in range(v)]
        steps.append(_step(form, names[:w], names[w:], radices, rates))
    doc = {
        "entities": doc_entities,
        "steps": steps,
        "options": {"remainder_mode": "correlated", "clamp_negative": False},
    }
    return Workload("crisp-chain", "text", doc)


def dfn_fusion(seed: int) -> Workload:
    """Two independent groups of large-support discrete steps.

    Each group owns fresh entities: an F or M step over two operands whose
    support values are spread over one ``FUSION_WIDTH``-wide range, then an
    L or D step on a third fresh operand over the same range.  The first group has a
    crisp radix and rate; the second a discrete radix and rate, which sends
    its carries and products through the sup-min kernel too.  Support sizes,
    radices and rates are fixed, because they set the number of support pairs.
    """
    rng = random.Random(f"dfn-fusion:{seed}")
    groups = (
        ("F", "L", 100, 2, 1),
        ("M", "D", 150, [[3, "1"], [4, "0.5"]], [[2, "1"], [3, "0.5"]]),
    )
    entities = []
    steps = []
    for g, (multi, single, size, radix, rate) in enumerate(groups):
        base = rng.randrange(0, FUSION_WIDTH)
        for form, operands in ((multi, [f"g{g}a0", f"g{g}a1"]), (single, [f"g{g}b"])):
            w, v = _valence(form)
            images = [f"g{g}{'kj'[w == 1]}{k}" for k in range(v)]
            for name in operands:
                value = _dfn(rng, size, base, base + FUSION_WIDTH)
                entities.append({"id": name, "kind": "discrete", "value": value})
            entities.extend({"id": name, "kind": "crisp", "value": 0} for name in images)
            steps.append(_step(form, operands, images, [radix] * w, [rate] * v))
    doc = {
        "entities": entities,
        "steps": steps,
        "options": {"remainder_mode": "extension", "clamp_negative": True},
    }
    return Workload("dfn-fusion", "text", doc)


def mixed_json(seed: int) -> Workload:
    """Half triangular, half small discrete entities; steps alternate families.

    Step k uses family k % 2 and cycles L/D/F/M every two steps.  Within a
    family a cursor walks the entities: a step's images are the next step's
    operands.  One L/D/F/M cycle moves the cursor 6 places; with 20 entities
    per family (not a multiple of 6) every entity takes every role in turn,
    so each is regularly reduced by a correlated L/D remainder and discrete
    supports stay small whatever the seed.  The JSON output re-renders the
    whole state after every step.
    """
    rng = random.Random(f"mixed-json:{seed}")
    half = MIXED_ENTITIES // 2
    families = {
        "triangular": [f"t{k}" for k in range(half)],
        "discrete": [f"d{k}" for k in range(MIXED_ENTITIES - half)],
    }
    doc_entities = []
    for e in families["triangular"]:
        lower = rng.randrange(0, 50)
        mode = lower + rng.randrange(0, 20)
        doc_entities.append(
            {"id": e, "kind": "triangular", "value": [lower, mode, mode + rng.randrange(0, 20)]}
        )
    for k, e in enumerate(families["discrete"]):
        base = rng.randrange(0, 20)
        doc_entities.append(
            {"id": e, "kind": "discrete", "value": _dfn(rng, 1 + k % 6, base, base + 12)}
        )
    cursor = {"triangular": 0, "discrete": 0}
    doc_steps = []
    for k in range(MIXED_STEPS):
        fam = ("triangular", "discrete")[k % 2]
        form = "LDFM"[(k // 2) % 4]
        w, v = _valence(form)
        ids = families[fam]
        names = [ids[(cursor[fam] + off) % len(ids)] for off in range(w + v)]
        cursor[fam] += w
        # Radix sizes and rates follow the step index, not the seed: they
        # set the remainder supports and with them the size of every state.
        radices = []
        for j in range(w):
            n = 2 + (5 * k + j) % 8
            if (k // 2 + j) % 3 == 0:
                n = [n, n + 1, n + 2] if fam == "triangular" else [[n, "1"], [n + 1, rng.choice(GRADES)]]
            radices.append(n)
        rates = [1 + (k // 2 + j) % 2 for j in range(v)]
        doc_steps.append(_step(form, names[:w], names[w:], radices, rates))
    doc = {
        "entities": doc_entities,
        "steps": doc_steps,
        "options": {"remainder_mode": "correlated", "clamp_negative": True},
    }
    return Workload("mixed-json", "json", doc)


GENERATORS = {"crisp-chain": crisp_chain, "dfn-fusion": dfn_fusion, "mixed-json": mixed_json}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)

