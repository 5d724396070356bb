"""Span tracer for one ``fuzzysns eval``, installed from outside the package.

Run as a script it imports fuzzysns, replaces the public functions of each
layer at the module attribute where callers look them up, runs the CLI's
``main`` on the remaining arguments, and only then writes what it kept in
memory: a JSON header (span names and counters) at SPANS and the spans
themselves, four doubles each (name id, parent index, start, end), at
SPANS.bin::

    PYTHONPATH=src python perfbench/tracer.py SPANS eval FILE --format text

``layer_metrics`` turns those files into the per-layer metrics; a span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import array
import json
import operator
import sys
import time
from collections import defaultdict

ZADEH_OPS = {
    operator.add: "add",
    operator.sub: "sub",
    operator.mul: "mul",
    operator.floordiv: "floordiv",
    operator.mod: "mod",
}
ZADEH_NAMES = sorted(ZADEH_OPS.values())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array.array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.current = -1.0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, count=None):
        """``fn`` recording one span per call.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``count(counts, args, result)`` adds to the counters.
        """
        spans = self.spans
        clock = time.perf_counter
        fixed = self.name_id(name) if isinstance(name, str) else None

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(*args))
            parent = self.current
            index = len(spans)
            spans.extend((nid, parent, clock(), 0.0))
            self.current = index // 4
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self.counts, args, result)
            finally:
                spans[index + 3] = clock()
                self.current = parent
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path + ".bin", "wb") as f:
            self.spans.tofile(f)
        with open(path, "w") as f:
            json.dump({"names": self.names, "counts": dict(self.counts)}, f)


def zadeh_name(op, a, b) -> str:
    name = ZADEH_OPS.get(op)
    if name is None:
        # dfn_floor_div passes a lambda for t // s over a discrete radix.
        name = "floordiv" if "floor_div" in getattr(op, "__qualname__", "") else "other"
    return f"numbers.zadeh.{name}"


def _count_zadeh(counts, args, result) -> None:
    _, a, b = args
    name = zadeh_name(*args)
    counts[name + ".pairs"] += len(a.points) * len(b.points)
    counts[name + ".out_support"] += len(result.points)


def _count_partials(counts, args, result) -> None:
    counts["carry.partial_support"] += sum(len(p.points) for p in args[0])


def _count_states(counts, args, result) -> None:
    counts["scenario.state_entries"] += sum(len(step.state) for step in result.steps)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; a missing one raises AttributeError."""
    from fuzzysns import cli, numbers, operators, scenario

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "scenario_from_json", "formats.parse", None),
        (cli, "run", "scenario.run", _count_states),
        (cli, "format_scalar", "formats.format_scalar", None),
        (scenario, "validate", "scenario.validate", None),
        (operators, "common_carry_dfn", "carry.common_carry_dfn", _count_partials),
        (operators, "common_carry_tri", "carry.common_carry_tri", None),
        (operators, "dfn_floor_div", "numbers.dfn_floor_div", None),
        (operators, "dfn_mod", "numbers.dfn_mod", None),
        (operators, "dfn_zadeh_binary", zadeh_name, _count_zadeh),
        (numbers, "dfn_zadeh_binary", zadeh_name, _count_zadeh),
        (numbers.DiscreteFuzzyNumber, "__post_init__", "numbers.dfn_new", None),
    ]
    for form in "LDFM":
        targets.append((scenario, f"apply_{form}", f"operators.apply_{form}", None))
        targets.append((operators, f"crisp_{form}", f"crisp.{form}", None))
    for op in ("add", "sub", "mul", "floor_div"):
        targets.append((operators, f"tfn_{op}", f"numbers.tfn.{op}", None))
    for owner, attr, name, count in targets:
        # No default: a target this version lacks fails the traced eval
        # instead of silently reading 0 for its layer.
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count))


def _self_times(header: dict, spans: array.array) -> tuple[dict, dict, dict]:
    """Per span name: calls, summed duration and summed self time."""
    names = header["names"]
    count = len(spans) // 4
    durations = [spans[4 * k + 3] - spans[4 * k + 2] for k in range(count)]
    child = [0.0] * count
    for k in range(count):
        parent = int(spans[4 * k + 1])
        if parent >= 0:
            child[parent] += durations[k]
    calls: dict = defaultdict(int)
    total: dict = defaultdict(float)
    own: dict = defaultdict(float)
    for k in range(count):
        name = names[int(spans[4 * k])]
        calls[name] += 1
        total[name] += durations[k]
        own[name] += durations[k] - child[k]
    return calls, total, own


def load(path: str) -> tuple[dict, array.array]:
    with open(path) as f:
        header = json.load(f)
    spans = array.array("d")
    with open(path + ".bin", "rb") as f:
        spans.frombytes(f.read())
    return header, spans


def layer_metrics(path: str) -> tuple[dict, dict]:
    """(counts, times) of one traced eval, keyed by metric name.

    Counts are exact and must repeat run to run.  Times are seconds summed
    over calls and are self times, except ``cli.main_s`` (the whole traced
    ``main``) and ``cli.render_s`` (``main`` minus its parse and run spans:
    argument parsing, file read, rendering and printing).  ``pairs`` is
    |a|*|b| per sup-min call, ``out_support`` its result's support size,
    ``carry.partial_support`` the summed support sizes of discrete partial
    carries, and ``scenario.state_entries`` the summed snapshot sizes.
    """
    header, spans = load(path)
    calls, total, own = _self_times(header, spans)
    counters = header["counts"]

    def group(prefix: str):
        keys = [k for k in calls if k.startswith(prefix)]
        return sum(calls[k] for k in keys), sum(own[k] for k in keys)

    counts = {
        "formats.format_scalar.calls": calls["formats.format_scalar"],
        "scenario.state_entries": counters.get("scenario.state_entries", 0),
        "crisp.calls": group("crisp.")[0],
        "carry.common_carry_dfn.calls": calls["carry.common_carry_dfn"],
        "carry.common_carry_tri.calls": calls["carry.common_carry_tri"],
        "carry.partial_support": counters.get("carry.partial_support", 0),
        "numbers.dfn_new.calls": calls["numbers.dfn_new"],
        "numbers.tfn.calls": group("numbers.tfn.")[0],
    }
    times = {
        "cli.main_s": total["cli.main"],
        "formats.parse_s": own["formats.parse"],
        "formats.format_scalar_s": own["formats.format_scalar"],
        "cli.render_s": total["cli.main"] - total["formats.parse"] - total["scenario.run"],
        "scenario.validate_s": own["scenario.validate"],
        "scenario.run.self_s": own["scenario.run"],
        "operators.self_s": group("operators.apply_")[1],
        "crisp.s": group("crisp.")[1],
        "carry.common_carry_dfn_s": own["carry.common_carry_dfn"],
        "carry.common_carry_tri_s": own["carry.common_carry_tri"],
        "numbers.dfn_new.s": own["numbers.dfn_new"],
        "numbers.tfn.s": group("numbers.tfn.")[1],
        "numbers.dfn_floor_div_s": own["numbers.dfn_floor_div"],
        "numbers.dfn_mod_s": own["numbers.dfn_mod"],
    }
    for form in "LDFM":
        counts[f"operators.apply_{form}.calls"] = calls[f"operators.apply_{form}"]
    for op in ZADEH_NAMES:
        name = f"numbers.zadeh.{op}"
        counts[name + ".calls"] = calls[name]
        counts[name + ".pairs"] = counters.get(name + ".pairs", 0)
        counts[name + ".out_support"] = counters.get(name + ".out_support", 0)
        times[name + ".s"] = own[name]
    return counts, times


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from fuzzysns import cli

    code = cli.main(cli_args)
    sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
