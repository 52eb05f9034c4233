"""The scenario-file reader: orjson where a byte scan shows that it parses a
document as the stdlib reader does, the stdlib reader everywhere else.

``reference_load`` is the reader as it was before the orjson path, kept as
the oracle: ``load_scenario`` must give the same structure bit for bit and an
equal raw dict, or raise the same exception with the same message. The
oracle looks for booleans among the numbers in every file, where
``load_scenario`` looks only in files whose bytes hold ``true`` or ``false``.
"""
import copy
import gc
import json
import math
import struct
from decimal import Decimal, localcontext

import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtypicality import SchemaError, ValidationError, core, load_scenario, structure_from_dict
from qtypicality.core import structure_to_dict
from conftest import random_structure
from test_fuzz import UNRUH, mutated_scenarios

LAYOUTS = {
    "compact": json.dumps,
    "indented": lambda data: json.dumps(data, indent=2),
    "crlf": lambda data: json.dumps(data, indent=2).replace("\n", "\r\n"),
}


def reference_load(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SchemaError("scenario file must contain a JSON object")
    core._reject_booleans(data)
    return structure_from_dict(data), data


def outcome(load, path):
    """What ``load(path)`` gives, with floats compared by their bits: the
    arrays' bytes, the labels and the raw dict's repr (which tells an int
    from an equal float, and NaN from NaN), or the exception's type and
    message."""
    try:
        structure, raw = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return (
        structure.psi0.tobytes(),
        [step.matrix.tobytes() for step in structure.schedule],
        structure.labels,
        [idx.tobytes() for idx in structure.cells.values()],
        repr(raw),
    )


def assert_same_outcome(path):
    expected = outcome(reference_load, path)
    assert outcome(load_scenario, path) == expected
    return expected


def write(path, text):
    path.write_bytes(text.encode("utf-8"))  # no newline translation
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


@settings(max_examples=300, deadline=None)
@given(mutated_scenarios(), st.sampled_from(sorted(LAYOUTS)))
def test_same_outcome_as_the_reference_reader(workdir, scenario, layout):
    assert_same_outcome(write(workdir / "scenario.json", LAYOUTS[layout](scenario)))


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_boolean_among_numbers_has_the_references_outcome(tmp_path, layout):
    data = json.loads(json.dumps(UNRUH))
    data["psi0"][0][0] = True
    path = write(tmp_path / "boolean.json", LAYOUTS[layout](data))
    assert assert_same_outcome(path) == (
        SchemaError, "malformed scenario: psi0 has non-numeric entries (a boolean)")


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_an_export_takes_the_orjson_path(tmp_path, layout):
    path = write(tmp_path / "unruh.json", LAYOUTS[layout](UNRUH))
    assert core._orjson_readable(path.read_bytes())
    load_scenario(path)
    assert_same_outcome(path)


def finite_doubles():
    """Doubles from every bit pattern, and hypothesis's edge cases (zeros,
    subnormals, the largest values)."""
    from_bits = st.integers(0, 2**64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
    )
    return st.one_of(from_bits, st.floats()).filter(math.isfinite)


@st.composite
def long_decimals(draw):
    """A decimal number of 17 to 40 significant digits as ``d.ddd...e±x``:
    either random digits, or the midpoint of two adjacent doubles rounded to
    that many digits, where a reader that rounds wrongly shows it."""
    digits = draw(st.integers(17, 40))
    sign = draw(st.sampled_from(["", "-"]))
    if draw(st.booleans()):
        lead = draw(st.sampled_from("123456789"))
        rest = draw(st.text("0123456789", min_size=digits - 1, max_size=digits - 1))
        return f"{sign}{lead}.{rest}e{draw(st.integers(-330, 310))}"
    low = abs(draw(finite_doubles().filter(lambda x: abs(x) < 1.7976931348623157e308)))
    with localcontext() as ctx:
        ctx.prec = 800  # enough for the exact midpoint of any two doubles
        mid = (Decimal(low) + Decimal(math.nextafter(low, math.inf))) / 2
        return f"{sign}{mid:.{digits - 1}e}"


def assert_parses_like_float(text):
    doc = f"[{text}]".encode()
    assert core._orjson_readable(doc)
    expected = float(text)
    if math.isinf(expected):  # the stdlib reader reads it, as inf
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(doc)
        return
    (value,) = orjson.loads(doc)
    assert type(value) is float
    assert struct.pack("<d", value) == struct.pack("<d", expected), text


@settings(max_examples=2000, deadline=None)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(2.225073858507201e-308)  # the largest subnormal
@example(2.2250738585072014e-308)  # the smallest normal
@example(1e308)
@example(-1e308)
@example(1.7976931348623157e308)
@given(finite_doubles())
def test_float_reprs_parse_to_their_bits(value):
    assert_parses_like_float(repr(value))


@settings(max_examples=2000, deadline=None)
@example("1." + "0" * 39 + "e-400")
@example("9.999999999999999999999999999999999999999e308")
@example("2.4703282292062327208828439643411068618e-324")  # half the smallest subnormal
@given(long_decimals())
def test_long_decimals_parse_as_float_does(text):
    assert_parses_like_float(text)


def test_brackets_inside_strings_do_not_count(tmp_path):
    data = json.loads(json.dumps(UNRUH))
    data["cells"] = {"[" * 100 + "{": data["cells"]["U"], "]]}": data["cells"]["D"]}
    path = write(tmp_path / "labels.json", json.dumps(data))
    assert core._orjson_readable(path.read_bytes())
    assert assert_same_outcome(path)[2] == ("[" * 100 + "{", "]]}")


def test_a_backslash_takes_the_reference_path(tmp_path):
    data = json.loads(json.dumps(UNRUH))
    data["cells"] = {'U"[[': data["cells"]["U"], "Dé": data["cells"]["D"]}
    text = json.dumps(data)  # escapes the quote and the e-acute
    path = write(tmp_path / "escaped.json", text)
    assert "\\" in text and not core._orjson_readable(path.read_bytes())
    assert assert_same_outcome(path)[2] == ('U"[[', "Dé")


@pytest.mark.parametrize("depth, fast", [(core._ORJSON_MAX_DEPTH, True),
                                         (core._ORJSON_MAX_DEPTH + 1, False)])
def test_depth_limit(tmp_path, depth, fast):
    inner = depth - 1  # the file's own object is one level
    text = json.dumps(UNRUH)[:-1] + ', "extra": ' + "[" * inner + "]" * inner + "}"
    path = write(tmp_path / "deep.json", text)
    assert core._orjson_readable(path.read_bytes()) is fast
    load_scenario(path)
    assert_same_outcome(path)


@pytest.mark.parametrize("value", [2**63 - 1, 2**63, 2**64, -2**63 - 1, 10**400])
def test_long_integers_stay_integers(tmp_path, value):
    text = json.dumps(UNRUH)[:-1] + f', "extra": [{value}, {{"n": {value}}}]}}'
    path = write(tmp_path / "int.json", text)
    assert core._orjson_readable(path.read_bytes()) is (len(str(abs(value))) < 19)
    _, raw = load_scenario(path)
    assert raw["extra"] == [value, {"n": value}]
    assert all(type(n) is int for n in (raw["extra"][0], raw["extra"][1]["n"]))


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_error_positions_in_a_malformed_file_are_the_stdlib_readers(tmp_path, newline):
    text = json.dumps(UNRUH, indent=2).replace('"dim"', "dim").replace("\n", newline)
    path = write(tmp_path / "bad.json", text)
    with pytest.raises(json.JSONDecodeError) as expected:
        reference_load(path)
    with pytest.raises(json.JSONDecodeError) as got:
        load_scenario(path)
    fields = ("msg", "lineno", "colno", "pos")
    assert [getattr(got.value, f) for f in fields] == [getattr(expected.value, f) for f in fields]
    assert expected.value.lineno > 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 3000 + "]" * 3000, "nested too deeply"),
        (json.dumps(UNRUH)[:-1] + ', "extra": ' + "1" * 5000 + "}", "malformed scenario"),
    ],
)
def test_what_the_stdlib_reader_cannot_read_is_a_schema_error(tmp_path, text, message):
    """Too deep for the stdlib reader's recursion limit, or an integer past
    the interpreter's digit limit: it raises RecursionError or ValueError."""
    with pytest.raises(SchemaError, match=message):
        load_scenario(write(tmp_path / "unreadable.json", text))


def _set(*keys, value):
    """A mutation that sets ``data[k1][k2]...`` of the Unruh export to ``value``."""
    def mutate(data):
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return mutate


# name: mutation of the Unruh export's [re, im] nests
NEST_CASES = {
    "ragged matrix rows": lambda data: data["schedule"][0][1].pop(),
    "a longer row": lambda data: data["schedule"][0][1].append([0.0, 0.0]),
    "three numbers in one entry": _set("psi0", 0, value=[0.0, 0.0, 0.0]),
    "three numbers in every entry": _set("psi0", value=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
    "one number in one entry": _set("psi0", 0, value=[0.0]),
    "a pair as a string": _set("psi0", 0, value="00"),
    "a pair as an object": _set("psi0", 0, value={"re": 0.0, "im": 0.0}),
    "a pair as a number": _set("psi0", 0, value=0.0),
    "a pair of pairs": _set("psi0", 0, value=[[0.0, 0.0], [0.0, 0.0]]),
    "a pair of pairs in a matrix": _set("schedule", 1, 0, 0, value=[[0.5, 0.0], [0.5, 0.0]]),
    "null among the numbers": _set("psi0", 0, 1, value=None),
    "integer-only pairs": _set("psi0", value=[[0, 0], [1, 0]]),
    "an integer-only matrix": _set("schedule", 2, value=[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]),
    "2**63 in psi0": _set("psi0", 0, 0, value=2**63),
    "2**64 in psi0": _set("psi0", 0, 0, value=2**64),
    "-2**63-1 in psi0": _set("psi0", 0, 0, value=-2**63 - 1),
    "a long integer among floats": _set("psi0", 1, 0, value=2**62 + 1),
    "an empty psi0": _set("psi0", value=[]),
    "an empty schedule": _set("schedule", value=[]),
    "an empty matrix row": _set("schedule", 0, 1, value=[]),
}


@pytest.mark.parametrize("layout", ["compact", "indented"])
@pytest.mark.parametrize("name", sorted(NEST_CASES))
def test_an_odd_pair_nest_has_the_references_outcome(tmp_path, name, layout):
    data = copy.deepcopy(UNRUH)
    NEST_CASES[name](data)
    assert_same_outcome(write(tmp_path / "case.json", LAYOUTS[layout](data)))


def test_three_numbers_an_entry_keep_their_messages(tmp_path):
    data = copy.deepcopy(UNRUH)
    data["psi0"][0] = [0.0, 0.0, 0.0]
    error, message = assert_same_outcome(write(tmp_path / "one.json", json.dumps(data)))
    assert error is SchemaError and message.startswith("malformed scenario: ")
    data["psi0"] = [z + [0.0] for z in UNRUH["psi0"]]
    assert assert_same_outcome(write(tmp_path / "all.json", json.dumps(data))) == (
        SchemaError, "malformed scenario: complex entries must be [re, im] pairs")


@pytest.fixture
def collector_setting():
    """Restores the collector's setting after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _writes(text):
    return lambda path: write(path, text)


def _mutated(mutate):
    def make(path):
        data = copy.deepcopy(UNRUH)
        mutate(data)
        return write(path, json.dumps(data))
    return make


# name: (how the file is made, the exception load_scenario raises or None)
COLLECTOR_CASES = {
    "success": (_mutated(lambda data: None), None),
    "malformed JSON": (_writes('{"dim": 2,'), json.JSONDecodeError),
    "conversion error": (_mutated(_set("psi0", 0, 1, value="x")), SchemaError),
    "non-unitary step": (_mutated(_set("schedule", 0, 0, 0, value=[2.0, 0.0])), ValidationError),
    "missing file": (lambda path: path, OSError),
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case", sorted(COLLECTOR_CASES))
def test_load_leaves_the_collector_as_it_found_it(tmp_path, collector_setting, case, enabled):
    make, error = COLLECTOR_CASES[case]
    path = make(tmp_path / "scenario.json")
    (gc.enable if enabled else gc.disable)()
    if error is None:
        load_scenario(path)
    else:
        with pytest.raises(error):
            load_scenario(path)
    assert gc.isenabled() is enabled


def test_loading_a_wide_file_runs_no_collection(tmp_path, collector_setting, rng):
    structure = random_structure(rng, dim=32, n_steps=10, n_cells=4)
    path = write(tmp_path / "wide.json", json.dumps(structure_to_dict(structure)))
    gc.enable()
    gc.collect()
    phases = []
    gc.callbacks.append(record := lambda phase, info: phases.append(phase))
    try:
        load_scenario(path)  # the result is dropped at once
    finally:
        gc.callbacks.remove(record)
    assert phases == []
    assert gc.isenabled()
