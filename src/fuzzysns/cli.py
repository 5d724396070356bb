"""Command-line front end.

Subcommands: ``eval`` runs a scenario file and prints the transformation
trace, ``carry`` forms a common carry from inline literals, ``table`` samples
a triangular membership function into CSV, and ``oracle-check`` runs the
randomized brute-force equivalence suite.  The text, JSON and CSV traces render
one walk over each step result's flat values (:func:`_walk`, which builds no map)
into a list of output chunks (JSON: one per step; text, CSV and ``table``: lines
joined into blocks as made, :func:`_in_blocks`), all formatted before :func:`_print`
writes the first, each as given.  Subcommands raise; only :func:`main` maps errors to
exit codes: 0 success, 1 validation or runtime failure (a result too long to print, or
a stdout that cannot be written, included), 2 parse failure (an unreadable file included).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from types import SimpleNamespace

# run, scenario_from_json and format_scalar are called through this module's globals
# because perfbench/tracer.py replaces them; the ROADMAP item on tracer hooks removes that.
from .errors import DomainError, FuzzySnsError, ParseError, ScenarioValidationError
from .formats import format_scalar, parse_discrete, parse_triangular, scenario_from_json
from .numbers import _shown, format_fraction, tfn_membership
from .operators import (
    REMAINDER_MODES, TransformOptions, TransformResult, common_carry_dfn, common_carry_tri,
)
from .scenario import Scenario, Trace, run

PARSE_FAILURE = 2
VALIDATION_FAILURE = 1
# `table` builds every row before printing, so its row count is bounded.
MAX_TABLE_ROWS = 10**6

# Presentation of each result field, by field name: CSV name, text label when the field
# holds one value (None: always the prefix), and label prefix before an entity id.
_FIELDS = {
    "partial_carries": ("partial_carry", "p", "p_"),
    "common_carry": ("common_carry", "p.", None),
    "remainders": ("remainder", "rem", "rem_"),
    "transformants": ("transformant", "q", "q_"),
    "new_image_cardinals": ("new_image", None, "N'_"),
}


def _walk(result: TransformResult):
    """(field, CSV name, text label, entity id, literal) of each value, in the result's order.

    The common carry has entity id None, and literal None when none was formed.
    """
    for name, (ids, values) in result._columns().items():
        csv_name, sole, prefix = _FIELDS[name]
        for entity_id, scalar in zip(ids, values):
            label = sole if len(ids) == 1 and sole else prefix + _shown(entity_id, str)
            literal = None if scalar is None else format_scalar(scalar)
            yield name, csv_name, label, entity_id, literal


def _in_blocks(lines):
    """A renderer: the lines ``lines(*args)`` yields, joined into ~64 KiB blocks as they come."""
    def render(*args) -> list[str]:
        blocks, block, size = [], [], 0
        for line in lines(*args):
            block.append(line)
            size += len(line)
            if size >= 1 << 16:
                blocks.append("\n".join(block))
                block, size = [], 0
        if block:
            blocks.append("\n".join(block))
        return blocks
    return render


@_in_blocks
def _trace_text(trace: Trace):
    for step in trace.steps:
        parts = [
            f"{label}={literal}"
            for _, _, label, _, literal in _walk(step.result) if literal is not None
        ]
        yield f"step {step.index} {step.spec.form.value}: " + " ".join(parts)
    yield "final:"
    yield from (f"  {_shown(e, str)} = {format_scalar(v)}" for e, v in trace.final.items())


def _json_block(head: str, lines, tail: str, pad: str) -> str:
    """A container as ``json.dumps(..., indent=2)`` writes it, from its member lines."""
    return head + "\n" + ",\n".join(lines) + "\n" + pad + tail if lines else head + tail


# One chunk per step, written as is: each is a step's text already; joining them cost peak RSS.
def _trace_json(trace: Trace) -> list[str]:
    # Each entity's state line, encoded once: from step 0's state, then as each step writes it.
    seed = trace.steps[0].state if trace.steps else trace.final
    state = {k: f"        {_json_str(k)}: {_json_str(format_scalar(v))}" for k, v in seed.items()}
    chunks = ["{", '  "steps": [' if trace.steps else '  "steps": [],']
    for step in trace.steps:
        fields: dict = {"index": str(step.index), "form": _json_str(step.spec.form.value)}
        for name, _, _, entity_id, literal in _walk(step.result):
            if entity_id is None:
                fields[name] = "null" if literal is None else _json_str(literal)
                continue
            line = f"        {_json_str(entity_id)}: {_json_str(literal)}"
            fields.setdefault(name, []).append(line)
            if name in TransformResult._WRITES:
                state[entity_id] = line
        fields["state"] = list(state.values())
        members = [
            f'      "{k}": ' + (v if isinstance(v, str) else _json_block("{", v, "}", "      "))
            for k, v in fields.items()
        ]
        tail = "}" if step is trace.steps[-1] else "},"
        chunks.append(_json_block("    {", members, tail, "    "))
    if trace.steps:
        chunks.append("  ],")
    final = _json_block("{", [line[4:] for line in state.values()], "}", "  ")
    warnings = _json_block("[", ["    " + _json_str(w) for w in trace.warnings], "]", "  ")
    return [*chunks, f'  "final": {final},', f'  "warnings": {warnings}', "}"]


@_in_blocks
def _trace_csv(trace: Trace):
    import csv

    # writerow returns write's result: the row minus the "\r\n" that makes both line breaks quoted.
    row = csv.writer(SimpleNamespace(write=lambda line: line[:-2]), lineterminator="\r\n").writerow
    yield row(["step", "form", "field", "entity", "value"])
    for step in trace.steps:
        for _, csv_name, _, entity_id, literal in _walk(step.result):
            if literal is not None:
                yield row([step.index, step.spec.form.value, csv_name, entity_id, literal])
    yield from (row(["", "", "final", k, format_scalar(v)]) for k, v in trace.final.items())


_RENDERERS = {"text": _trace_text, "json": _trace_json, "csv": _trace_csv}


def _print(render, *args, warnings=()) -> None:
    """Print each string of the list ``render(*args)`` returns, as given, on a line of its own.

    A number too long to print is a DomainError raised before any output, ``warnings`` included.
    """
    try:
        chunks = render(*args)
    except ValueError as exc:
        raise DomainError(f"cannot print the result: {exc}") from exc
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for chunk in chunks:
        print(chunk)


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        with open(args.scenario, encoding="utf-8") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {_shown(args.scenario, str)}: {exc}") from exc
    scenario = scenario_from_json(text)
    del text  # not needed once parsed: free it before the run
    options = TransformOptions(
        args.remainder_mode or scenario.options.remainder_mode,
        args.clamp_negative or scenario.options.clamp_negative,
    )
    # A Scenario is frozen: rebuild it (a copy of initial) to carry the CLI's options.
    scenario = Scenario(scenario.initial, scenario.steps, options)
    trace = run(scenario)
    _print(_RENDERERS[args.format], trace, warnings=trace.warnings)
    return 0


def cmd_carry(args: argparse.Namespace) -> int:
    if args.family == "tri":
        formed = common_carry_tri([parse_triangular(text) for text in args.literals])
    else:
        formed = common_carry_dfn([parse_discrete(text) for text in args.literals])
    _print(lambda: [format_scalar(formed)])
    return 0


@_in_blocks
def _table(number, resolution: int):
    span = Fraction(number.upper - number.lower)
    yield "x,mu"
    for k in range(resolution):
        x = Fraction(number.lower) + span * k / (resolution - 1)
        yield f"{format_fraction(x)},{format_fraction(tfn_membership(x, number))}"


def cmd_table(args: argparse.Namespace) -> int:
    if args.resolution < 2:
        raise DomainError("resolution must be at least 2")
    if args.resolution > MAX_TABLE_ROWS:
        raise DomainError(f"resolution must be at most {MAX_TABLE_ROWS}")
    _print(_table, parse_triangular(args.literal), args.resolution)
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    from .oracle import equivalence_suite

    if args.cases < 1:
        raise DomainError("--cases must be at least 1")
    passed, total = equivalence_suite(args.seed, args.cases)
    print(f"{passed}/{total} ok")
    return 0 if passed == total else VALIDATION_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzysns",
        description="Fuzzy cardinal semantic transformations over crisp, discrete and"
        " triangular cardinals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    eval_parser = sub.add_parser("eval", help="run a scenario file and print the trace")
    eval_parser.add_argument("scenario", help="path to a scenario JSON document")
    eval_parser.add_argument("--format", choices=tuple(_RENDERERS), default="text")
    eval_parser.add_argument(
        "--remainder-mode", choices=REMAINDER_MODES, default=None,
        help="override the scenario's discrete remainder semantics",
    )
    eval_parser.add_argument(
        "--clamp-negative", action="store_true",
        help="clamp negative remainder values to zero instead of flagging them",
    )
    eval_parser.set_defaults(func=cmd_eval)

    carry_parser = sub.add_parser("carry", help="form a common carry from partial carries")
    carry_parser.add_argument("--family", choices=("tri", "dfn"), required=True)
    carry_parser.add_argument("literals", nargs="+", help='literals like "(1;2;4)" or "{2|1}"')
    carry_parser.set_defaults(func=cmd_carry)

    table_parser = sub.add_parser("table", help="sample a triangular membership function as CSV")
    table_parser.add_argument("literal", help='triangular literal like "(4; 7; 9)"')
    table_parser.add_argument("--resolution", type=int, default=11)
    table_parser.set_defaults(func=cmd_table)

    oracle_parser = sub.add_parser("oracle-check", help="run the brute-force equivalence suite")
    oracle_parser.add_argument("--seed", type=int, default=0)
    oracle_parser.add_argument("--cases", type=int, default=1000)
    oracle_parser.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a write that fails is caught here, not at interpreter exit
        return code
    except ScenarioValidationError as exc:
        for diagnostic in exc.diagnostics:
            print(f"invalid: {diagnostic}", file=sys.stderr)
        return VALIDATION_FAILURE
    except FuzzySnsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_FAILURE if isinstance(exc, ParseError) else VALIDATION_FAILURE
    except OSError as exc:  # writing stdout failed; reading the scenario raises ParseError
        # Stdout to devnull, so the interpreter's final flush of what is left does not raise.
        os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):  # a reader that left (``eval ... | head``)
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return VALIDATION_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
