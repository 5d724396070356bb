"""The public records: construction, repr, equality, hash, frozenness, copies, match.

Every record class behaves as a frozen record whose fields are listed in
order: the repr is ``Name(field=value, ...)``, equality and hash go by the
field tuple and only between instances of the same class, and no field can
be assigned or deleted.  A second block checks that ``import fuzzysns.cli``
loads none of the modules that ``eval`` does not need, that ``__all__`` is
exactly the package's public imports and the oracle's lazy names, and that no
module imports a name it does not use.
"""

import ast
import copy
import functools
import json
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import fuzzysns
from conftest import dfn, tri
from fuzzysns import (
    Diagnostic,
    DiscreteFuzzyNumber,
    Form,
    OperatorSpec,
    OperatorSpecError,
    Scenario,
    Trace,
    TraceStep,
    TransformOptions,
    TransformResult,
    TriangularFuzzyNumber,
    apply_L,
    run,
)
from test_cli import _python_s


def _spec():
    return OperatorSpec(Form.L, ("a",), ("b",), (3,), (2,))


def _result():
    return apply_L(dfn({7: 1, 9: "0.5"}), 2, 3, 2, operand_id="a", image_id="b")


def _trace():
    return run(Scenario({"a": dfn({7: 1, 9: "0.5"}), "b": 2}, [_spec()]))


# (class, field names in order, positional values, another value of the first
# field, defaults of the trailing fields)
RECORDS = [
    (TriangularFuzzyNumber, ("lower", "mode", "upper"), (1, 2, 5), 0, {}),
    (DiscreteFuzzyNumber, ("points",), (((1, Fraction(1, 2)), (3, Fraction(1))),),
     ((3, Fraction(1)),), {}),
    (TransformOptions, ("remainder_mode", "clamp_negative"), ("extension", True), "correlated",
     {"remainder_mode": "correlated", "clamp_negative": False}),
    (TransformResult,
     ("partial_carries", "common_carry", "remainders", "transformants",
      "new_image_cardinals", "warnings"),
     ({"a": 2}, None, {"a": 1}, {"b": 4}, {"b": 6}, ("w",)), {"a": 3}, {"warnings": ()}),
    (OperatorSpec, ("form", "operands", "images", "radices", "rates"),
     (Form.F, ("a", "b"), ("c",), (2, tri(1, 2, 3)), (dfn({1: 1}),)), Form.M, {}),
    (Scenario, ("initial", "steps", "options"),
     ({"a": 7, "b": tri(0, 1, 2)}, (_spec(),), TransformOptions("extension")), {"a": 7},
     {"options": TransformOptions()}),
    (Diagnostic, ("step", "message"), (3, "bad radix"), None, {}),
    (TraceStep, ("index", "spec", "result", "state"), (0, _spec(), _result(), {"a": 1}), 1, {}),
    (Trace, ("steps", "final", "warnings"), ((), {"a": 1}, ("step 0: w",)), (None,), {}),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def _same(cls, name, a, b):
    """A stored slot is read as the same object; a derived field is built anew on each read."""
    return a is b if name in cls.__slots__ else a == b


@pytest.mark.parametrize("cls, names, values, changed, defaults", RECORDS, ids=IDS)
class TestRecord:
    def test_positional_keyword_and_default_args(self, cls, names, values, changed, defaults):
        positional = cls(*values)
        keyword = cls(**dict(zip(names, values)))
        assert positional == keyword
        assert tuple(getattr(positional, n) for n in names) == tuple(
            getattr(keyword, n) for n in names
        )
        required = names[: len(names) - len(defaults)]
        if defaults:
            short = cls(*values[: len(required)])
            for name, default in defaults.items():
                assert getattr(short, name) == default
        else:
            with pytest.raises(TypeError):
                cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, "extra")

    def test_repr_lists_fields_in_order(self, cls, names, values, changed, defaults):
        record = cls(*values)
        fields = ", ".join(f"{n}={getattr(record, n)!r}" for n in names)
        assert repr(record) == f"{cls.__name__}({fields})"

    def test_equality_and_hash_by_fields(self, cls, names, values, changed, defaults):
        a, b = cls(*values), cls(*values)
        assert a == b and not a != b
        assert a != cls(changed, *values[1:])
        fields = tuple(getattr(a, n) for n in names)
        assert a != fields and fields != a
        assert a.__eq__(fields) is NotImplemented
        try:
            expected = hash(fields)
        except TypeError:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == expected

    def test_not_equal_to_another_record_class(self, cls, names, values, changed, defaults):
        for other_cls, _, other_values, *_ in RECORDS:
            if other_cls is not cls:
                assert cls(*values) != other_cls(*other_values)

    def test_fields_cannot_be_assigned_or_deleted(self, cls, names, values, changed, defaults):
        record = cls(*values)
        for name in names:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, before)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert _same(cls, name, getattr(record, name), before)
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    def test_copy_deepcopy_and_pickle_round_trips(self, cls, names, values, changed, defaults):
        record = cls(*values)
        copies = [copy.copy(record), copy.deepcopy(record)]
        copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in (2, 5)]
        for twin in copies:
            assert type(twin) is cls
            assert twin == record

    def test_match_args(self, cls, names, values, changed, defaults):
        assert cls.__match_args__ == names
        record = cls(*values)
        match record:
            case cls(first):
                assert _same(cls, names[0], first, getattr(record, names[0]))
            case _:
                pytest.fail("no match")


def test_match_binds_every_field_in_order():
    match tri(1, 2, 5):
        case TriangularFuzzyNumber(lower, mode, upper):
            assert (lower, mode, upper) == (1, 2, 5)
    match _spec():
        case OperatorSpec(Form.L, operands, images, radices, rates):
            assert (operands, images, radices, rates) == (("a",), ("b",), (3,), (2,))
        case _:
            pytest.fail("no match")


def test_trace_from_run_survives_copy_and_pickle():
    trace = _trace()
    for twin in (copy.deepcopy(trace), pickle.loads(pickle.dumps(trace))):
        assert twin.final == trace.final and twin.warnings == trace.warnings
        assert [dict(s.state) for s in twin.steps] == [dict(s.state) for s in trace.steps]
        assert [s.result for s in twin.steps] == [s.result for s in trace.steps]


def test_records_keep_their_checks_and_canonical_forms():
    assert OperatorSpec("L", ["a"], ["b"], [3], [2]) == _spec()
    assert DiscreteFuzzyNumber({3: 1, 1: "0.5"}).points == ((1, Fraction(1, 2)), (3, 1))
    assert Scenario({"a": 1}, []).options == TransformOptions()
    assert Scenario([("a", 1)], iter([_spec()])).steps == (_spec(),)
    assert str(Diagnostic(None, "m")) == "m" and str(Diagnostic(2, "m")) == "step 2: m"
    assert str(tri(1, 2, 5)) == "(1; 2; 5)"


_CARRIES, _TRANSFORMANTS = {"a": 2, "c": 3}, {"b": 4, "d": 6}


@pytest.mark.parametrize("remainders, new_images", [
    ({"a": 1, "e": 0}, {"b": 6, "d": 7}),
    ({"c": 0, "a": 1}, {"b": 6, "d": 7}),
    ({"a": 1}, {"b": 6, "d": 7}),
    ({"a": 1, "c": 0}, {"b": 6, "e": 7}),
    ({"a": 1, "c": 0}, {"d": 7, "b": 6}),
    ({"a": 1, "c": 0}, {"b": 6, "d": 7, "e": 8}),
], ids=["other-remainder-id", "remainders-reordered", "remainder-missing",
        "other-image-id", "images-reordered", "image-extra"])
def test_result_refuses_maps_keyed_unlike_their_carries(remainders, new_images):
    # A result stores one id tuple per role: the partial carries' ids key the remainders
    # and the transformants' ids key the new image cardinals, in the same order.
    kept = TransformResult(_CARRIES, 2, {"a": 1, "c": 0}, _TRANSFORMANTS, {"b": 6, "d": 7})
    assert kept.remainders == {"a": 1, "c": 0} and kept.new_image_cardinals == {"b": 6, "d": 7}
    with pytest.raises(OperatorSpecError, match="keyed unlike partial carries or transformants"):
        TransformResult(_CARRIES, 2, remainders, _TRANSFORMANTS, new_images)


def _views(result):
    """Everything a result shows: its maps, single values, repr and a twin to compare with."""
    maps = [result.partial_carries, result.remainders, result.transformants,
            result.new_image_cardinals]
    return maps, result.carry, repr(result), TransformResult(*result._fields)


def test_hand_built_result_keeps_none_of_the_callers_dicts():
    carries, remainders, transformants, images = {"a": 2}, {"a": 1}, {"b": 4}, {"b": 6}
    result = TransformResult(carries, None, remainders, transformants, images, ("w",))
    before = _views(result)
    carries["a"] = 99
    remainders["a"] = 98
    images["z"] = 0  # a key the record's image ids do not have
    transformants.clear()
    assert _views(result) == before
    assert result == before[-1] and result.carry == 2
    twins = [copy.deepcopy(result)]
    twins += [pickle.loads(pickle.dumps(result, protocol)) for protocol in (2, 5)]
    assert twins == [result] * 3


def test_a_map_read_from_a_result_belongs_to_the_caller():
    result = apply_L(7, 10, 3, 2)
    before = _views(result)
    result.remainders["i"] = 99
    result.new_image_cardinals["k"] = 0
    assert _views(result) == before and result.remainder == 1
    trace = _trace()
    step = trace.steps[0]
    before, state = _views(step.result), dict(step.state)
    step.result.remainders["a"] = 99
    step.result.partial_carries.clear()
    assert _views(step.result) == before and step.result.remainder == state["a"]
    assert dict(step.state) == state and step.result == _trace().steps[0].result


def test_every_slot_is_set_when_the_constructor_returns():
    records = [cls(*values) for cls, _, values, *_ in RECORDS]
    records.append(DiscreteFuzzyNumber._trusted({4: Fraction(1, 2), 2: Fraction(1)}))
    trace = run(Scenario({"a": dfn({7: 1, 9: "0.5"}), "b": 2, "c": 9, "d": 5}, [
        _spec(), OperatorSpec(Form.M, ("c", "d"), ("a", "b"), (2, 3), (1, dfn({0: 1, 1: 1})))]))
    records += [trace, *trace.steps, *(step.result for step in trace.steps)]
    for record in records:
        unset = [name for name in type(record).__slots__ if not hasattr(record, name)]
        assert not unset, (type(record).__name__, unset)


# --- import budget -------------------------------------------------------------

# Modules ``eval`` does not need: they load on first use of what needs them.
UNNEEDED = ("dataclasses", "inspect", "typing", "csv", "random", "fuzzysns.oracle")
# Exported by ``fuzzysns`` but imported from ``fuzzysns.oracle`` on first use.
ORACLE_NAMES = ("alpha_cut_check", "equivalence_suite", "random_dfn", "zadeh_oracle")

# Each key but "loaded" lists the names that break the public-name rule: ``__all__``
# is every public non-module global of ``fuzzysns`` plus the oracle's, each once, and
# ``dir(fuzzysns)`` lists them all without importing the oracle.
_PROBE = f"""
import json, sys
from types import ModuleType
import fuzzysns.cli
loaded = sorted(m for m in {UNNEEDED!r} if m in sys.modules)
import fuzzysns
names = fuzzysns.__all__
listed = dir(fuzzysns)
dir_loaded = sorted({{"fuzzysns.oracle"}} & set(sys.modules))
public = {{n for n, v in vars(fuzzysns).items() if n[0] != "_" and not isinstance(v, ModuleType)}}
star = {{}}
exec("from fuzzysns import *", star)
del star["__builtins__"]
print(json.dumps({{
    "loaded": loaded,
    "duplicate": sorted({{n for n in names if names.count(n) > 1}}),
    "private": [n for n in names if n.startswith("_")],
    "module": [n for n in names if isinstance(getattr(fuzzysns, n, None), ModuleType)],
    "missing": [n for n in names if getattr(fuzzysns, n, None) is None],
    "unlisted": sorted(public - set(names)),
    "oracle": sorted(set({ORACLE_NAMES!r}) - set(names)),
    "star": sorted(set(star) ^ set(names)),
    "undir": sorted(set(names) - set(listed)),
    "dir_loaded": dir_loaded,
}}))
"""


@functools.cache
def _probe() -> dict:
    done = _python_s("-c", _PROBE)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_loads_no_unneeded_module():
    assert _probe()["loaded"] == []


def test_all_lists_every_public_import_once():
    faults = {k: v for k, v in _probe().items() if k != "loaded"}
    rules = (
        "duplicate", "private", "module", "missing", "unlisted", "oracle", "star", "undir",
        "dir_loaded",
    )
    assert faults == dict.fromkeys(rules, [])


def test_lazy_names_resolve_to_the_oracle_functions():
    from fuzzysns import oracle

    for name in ORACLE_NAMES:
        assert getattr(fuzzysns, name) is getattr(oracle, name)
    with pytest.raises(AttributeError):
        fuzzysns.not_a_name



def test_every_name_a_module_imports_is_used_in_it():
    """No unused import in ``fuzzysns``: a name each module imports is read in it, but for
    ``__init__``'s public names and lines marked ``# noqa: F401`` (the tracer's names)."""
    unused = []
    for path in sorted(Path(fuzzysns.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, tree = source.splitlines(), ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in "".join(lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                public = path.name == "__init__.py" and not name.startswith("_")
                if name not in read and not public:
                    unused.append(f"{path.stem}.{name}")
    assert unused == []

@pytest.mark.parametrize("record", [
    lambda: Scenario({10**5000: 1}, []),
    lambda: OperatorSpec("L", (10**5000,), ("b",), (2,), (1,)),
    lambda: TriangularFuzzyNumber(1, 2, 10**5000),
], ids=["Scenario", "OperatorSpec", "TriangularFuzzyNumber"])
def test_repr_shows_an_int_past_the_digit_limit_by_its_size(record):
    assert "int of 16610 bits" in repr(record())
