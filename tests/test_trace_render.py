"""The ``eval`` renderers: pinned output digests and a reference writer.

The renderers return lists of chunks that ``eval`` prints one per line, as given.  The
reference below builds the whole JSON document and dumps it with
``json.dumps(doc, indent=2)``, and writes the CSV into one ``StringIO``; the
chunked writers must print the same bytes.
"""

import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from conftest import dfn, tri
from fuzzysns import (
    Form,
    FuzzySnsError,
    OperatorSpec,
    Scenario,
    TransformOptions,
    format_scalar,
    run,
    scenario_from_json,
)
from fuzzysns import cli
from fuzzysns.scenario import Trace
from test_cli import chain_document, random_scenario

_SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# sha256 of ``eval --format {json,csv,text}`` stdout per shipped scenario and flag set.
_DIGESTS = {
    ("crisp_line", "json"): "7eaaef6ef4782490452d745ad6de6b34633ebf825f7df28418391cd512b3b12a",
    ("crisp_line", "csv"): "7a8bc5775391c3fa243d78441b500397ae95e87e68b65d8c64b5c486f30a77b4",
    ("discrete_fusion", "json"): "1d79e2b13a8cdbefdec93ee80f1177a92affe614e944fb95cb7c1c4bef34f7a3",
    ("discrete_fusion", "csv"): "cd20bba66085b67c59d122e6e6f8fd845fea7634afe840195dcb88367814d947",
    ("triangular_line", "json"): "eb2446b71d43fdaa8190496dc5c7096c934bb8f6a33e3be224f01c86abdda37b",
    ("triangular_line", "csv"): "f5b58082c06003ca8f4c115d8b01361caccc41919030743a497138c84f8a8b3b",
    ("crisp_line", "text"): "026735afd4754564d35f2e9145680b612bb8cded472a1647f8c5a7fad0d4558d",
    ("discrete_fusion", "text"): "52c2ac57c0052d57b470caa878d2da253a64c2afb80c5aeb29eebc73f28710d3",
    ("triangular_line", "text"): "4af48ca1e104aae7927a4ec3a8fdd0d71f3f0381a6c26b7fa57826b0bf991c6e",
}
# Clamping changes the triangular line's negative remainder; elsewhere the
# flags leave the output as it is.
_CLAMPED = {
    ("triangular_line", "json"): "435f6126431148535c655ae705e4291aad7f5d92edb764d5f505cfa8bc656a21",
    ("triangular_line", "csv"): "8dc17aae1b4a21ab610c6cd6bee18a09cabb5ac30195d6b615e9b2889ec24b96",
    ("triangular_line", "text"): "bb5698624019e9974d19b12b4273da75402365e69fefc8d859ce68acb60599aa",
}
_FLAGS = {
    "default": [],
    "extension": ["--remainder-mode", "extension"],
    "clamp": ["--clamp-negative"],
}


@pytest.mark.parametrize("flags", _FLAGS)
@pytest.mark.parametrize("key", _DIGESTS, ids="-".join)
def test_eval_output_digest_is_pinned(capsys, key, flags):
    stem, fmt = key
    argv = ["eval", str(_SCENARIOS / f"{stem}.json"), "--format", fmt, *_FLAGS[flags]]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    expected = _CLAMPED.get(key, _DIGESTS[key]) if flags == "clamp" else _DIGESTS[key]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


def _reference_json(trace):
    seed = trace.steps[0].state if trace.steps else trace.final
    state = {k: format_scalar(v) for k, v in seed.items()}
    steps = []
    for step in trace.steps:
        doc = {"index": step.index, "form": step.spec.form.value}
        for name, _, _, entity_id, literal in cli._walk(step.result):
            if entity_id is None:
                doc[name] = literal
            else:
                doc.setdefault(name, {})[entity_id] = literal
                if name in ("remainders", "new_image_cardinals"):
                    state[entity_id] = literal
        doc["state"] = dict(state)
        steps.append(doc)
    return json.dumps({"steps": steps, "final": state, "warnings": list(trace.warnings)}, indent=2)


def _reference_csv(trace):
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["step", "form", "field", "entity", "value"])
    for step in trace.steps:
        for _, csv_name, _, entity_id, literal in cli._walk(step.result):
            if literal is not None:
                writer.writerow([step.index, step.spec.form.value, csv_name, entity_id, literal])
    for entity_id, value in trace.final.items():
        writer.writerow(["", "", "final", entity_id, format_scalar(value)])
    return buffer.getvalue().rstrip("\n")


def _assert_matches_reference(trace):
    for render, reference in ((cli._trace_json, _reference_json), (cli._trace_csv, _reference_csv)):
        chunks = render(trace)
        assert isinstance(chunks, list) and all(type(chunk) is str for chunk in chunks)
        assert "\n".join(chunks) == reference(trace)


# Ids JSON escapes: a quote, a backslash, control characters, a non-ASCII
# letter, a line separator and an astral character (a surrogate pair).
_ODD = ['q"uote', "back\\slash", "new\nline\x01", "café", "sep\u2028", "smile\U0001F600"]


def _pinned_traces():
    odd = {name: k for k, name in enumerate(_ODD)}
    tris = {"a": tri(1, 4, 9), "b": tri(0, 2, 3), "c": 5, "d": tri(2, 2, 2), "e": 0}
    dfns = {"a": dfn({7: 1, 9: "0.5"}), "b": dfn({2: "0.3", 5: 1}), "c": 3, "d": 0}
    scenarios = [
        Scenario({}, []),
        Scenario({"a": tri(2, 4, 9), "b": dfn({1: 1, 3: "0.5"}), "c": 4}, []),
        # L (no common carry), then F (a formed one) over the odd ids.
        Scenario(odd, [
            OperatorSpec(Form.L, (_ODD[0],), (_ODD[1],), (3,), (2,)),
            OperatorSpec(Form.F, (_ODD[2], _ODD[3]), (_ODD[4],), (2, 3), (1,)),
            OperatorSpec(Form.M, (_ODD[5], _ODD[0]), (_ODD[1], _ODD[2]), (2, 2), (1, 3)),
        ]),
        # D and M with several images, triangular and discrete.
        Scenario(tris, [
            OperatorSpec(Form.D, ("a",), ("b", "c", "e"), (2,), (1, 2, 3)),
            OperatorSpec(Form.M, ("c", "d"), ("a", "b", "e"), (2, 3), (1, 1, 2)),
        ]),
        Scenario(dfns, [
            OperatorSpec(Form.D, ("a",), ("b", "c"), (3,), (1, 2)),
            OperatorSpec(Form.M, ("a", "b"), ("c", "d"), (2, 2), (1, 2)),
        ], TransformOptions("extension", True)),
    ]
    traces = [run(scenario) for scenario in scenarios]
    # A warning holding quotes and a backslash, on a trace with and without steps.
    for trace in traces[1:3]:
        traces.append(Trace(trace.steps, trace.final, ('step 0: "quoted" \\ warning', "plain")))
    return traces


def test_pinned_traces_match_the_reference():
    traces = _pinned_traces()
    assert any(step.result.common_carry is None for step in traces[2].steps)
    assert any(step.result.common_carry is not None for step in traces[2].steps)
    assert any(trace.warnings for trace in traces[:5])
    for trace in traces:
        _assert_matches_reference(trace)


def test_random_traces_match_the_reference():
    rng = random.Random(4242)
    rendered = 0
    for _ in range(300):
        try:
            trace = run(random_scenario(rng))
        except FuzzySnsError:
            continue
        _assert_matches_reference(trace)
        rendered += 1
    assert rendered > 250


def _assert_in_blocks(chunks):
    lines = [chunk.split("\n") for chunk in chunks]
    # Each block is under 64 KiB of lines plus the one that fills it, and all but the last fill it.
    assert all(sum(map(len, block[:-1])) < 1 << 16 for block in lines)
    assert len(chunks) > 1 and all(sum(map(len, block)) >= 1 << 16 for block in lines[:-1])


# sha256 of the 20,001 lines of ``table "(0;1;1000)" --resolution 20000``, 593 KB.
_TABLE_DIGEST = "aacd6907c660a969b362c6c286d06376fa98626cfcab445ff2b51917eb1b6a27"


def test_table_and_text_render_lists():
    trace = _pinned_traces()[2]
    for chunks in (cli._trace_text(trace), cli._table(tri(4, 7, 9), 6)):
        assert isinstance(chunks, list) and all(type(chunk) is str for chunk in chunks)
    chunks = cli._table(tri(0, 1, 1000), 20000)
    _assert_in_blocks(chunks)
    assert hashlib.sha256("\n".join(chunks).encode("utf-8")).hexdigest() == _TABLE_DIGEST


@pytest.mark.parametrize(
    "chunks",
    [
        [f"line {k} " + "x" * (k % 700) for k in range(1000)],
        ["y" * 70000, "z", "", "w" * (1 << 16), "v"],
        ["only"],
    ],
    ids=["many-blocks", "chunks-past-a-block", "one-chunk"],
)
def test_print_writes_the_joined_text(capsys, chunks):
    cli._print(lambda: chunks)
    assert capsys.readouterr().out == "\n".join(chunks) + "\n"


# sha256 of the text and CSV traces of a 3,000-step crisp chain, 150 KB and 365 KB.
_CHAIN_DIGESTS = {
    "text": "e49cd54c7640f6348af6fd1e1d6fd7d475929ebb308f01e937987d479d9dac5a",
    "csv": "eda6e436ea1ac0eb01bb41e2dbc383f8a99365b7a243df8e1384c0b0b1ce3113",
}


@pytest.mark.parametrize("fmt", _CHAIN_DIGESTS)
def test_long_text_and_csv_traces_are_rendered_as_blocks(fmt):
    chunks = cli._RENDERERS[fmt](run(scenario_from_json(chain_document(3000))))
    _assert_in_blocks(chunks)
    text = "\n".join(chunks) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _CHAIN_DIGESTS[fmt]
