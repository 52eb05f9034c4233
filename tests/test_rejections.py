"""Input checks of the library, each with the exception type and the message
it raises, and the one range check of every threshold."""
import numpy as np
import pytest

from qtypicality import (
    FactorUnitary,
    PartitionSchedule,
    QuantumStructure,
    SchemaError,
    SSet,
    ValidationError,
    branch_following_check,
    build_graph,
    build_unruh,
    load_scenario,
    mutual_typicality,
)
from qtypicality import wavepacket
from qtypicality.cli import main, parse_slice, parse_sset

# Each step's unitarity defect, 8.0e-11, is within core.UNITARITY_TOL; three
# of them move the occupations at t=3 by 2.4e-10, within the structure's slack.
STRETCHED_STEP = np.diag([1 + 4e-11, 1 + 4e-11])


def stretched_structure():
    return QuantumStructure(2, [1.0, 0.0], [STRETCHED_STEP] * 3, {"U": [0], "D": [1]})


def unruh_graph(slices, **thresholds):
    model = build_unruh()
    return build_graph(model.structure, PartitionSchedule(slices), **thresholds)


def array_file(tmp_path):
    path = tmp_path / "array.json"
    path.write_text("[]")
    return load_scenario(path)


def packets_at_two_times():
    packet = wavepacket.gaussian_packet(0.0, 1.0, 0.0, n_points=256, length=50.0)
    return wavepacket.superposition(packet, wavepacket.free_evolve(packet, 1.0))


UNRUH_SLICE = ({"U"}, {"D"})

# (call of tmp_path, exception type, message)
REJECTIONS = {
    "duplicate slice time": (
        lambda _: unruh_graph([(1, UNRUH_SLICE), (1, UNRUH_SLICE)]),
        ValidationError, "duplicate time index in partition schedule",
    ),
    "epsilon_exclude": (
        lambda _: unruh_graph([(1, UNRUH_SLICE)], epsilon_exclude=1.5),
        ValidationError, "epsilon_exclude 1.5 outside (0, 1)",
    ),
    "factor index": (
        lambda _: FactorUnitary(np.eye(2), 3, 2), ValidationError, "factor index 3 out of range",
    ),
    "step dimension": (
        lambda _: QuantumStructure(2, [1.0, 0.0], [np.eye(3)], {"U": [0], "D": [1]}),
        ValidationError, "schedule step 0 has wrong dimension",
    ),
    "superposition times": (
        lambda _: packets_at_two_times(), ValidationError, "superposing states at different times",
    ),
    "array scenario": (array_file, SchemaError, "scenario file must contain a JSON object"),
    "empty s-set region": (
        lambda _: parse_sset("1:"), ValidationError,
        "bad s-set '1:' (expected TIME:LABELS): empty region",
    ),
    "empty slice region": (
        lambda _: parse_slice("1:A|"), ValidationError,
        "bad slice '1:A|' (expected TIME:R|R...): empty region",
    ),
    "slice without time": (
        lambda _: parse_slice("1A"), ValidationError,
        "bad slice '1A' (expected TIME:R|R...): not enough values to unpack (expected 2, got 1)",
    ),
    "slice missing a cell": (
        lambda _: build_graph(stretched_structure(),
                              PartitionSchedule([(1, UNRUH_SLICE), (3, ({"U"},))])),
        ValidationError, "slice t=3 does not cover all cells",
    ),
}


@pytest.mark.parametrize("call, error, message", REJECTIONS.values(), ids=REJECTIONS)
def test_rejection_names_its_input(tmp_path, call, error, message):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message


# Every threshold entry point, with the name its message gives the value.
UNRUH_U1, UNRUH_D3 = SSet(1, {"U"}), SSet(3, {"D"})
THRESHOLD_CALLS = {
    "build_graph epsilon_exclude": (
        "epsilon_exclude", lambda v: unruh_graph([(1, UNRUH_SLICE)], epsilon_exclude=v),
    ),
    "build_graph tau_link": (
        "tau_link", lambda v: unruh_graph([(1, UNRUH_SLICE)], tau_link=v),
    ),
    "mutual_typicality": (
        "threshold", lambda v: mutual_typicality(build_unruh().structure, UNRUH_U1, UNRUH_D3, v),
    ),
    "PairMasses.typical": (
        "threshold",
        lambda v: build_unruh().structure.pair_table([UNRUH_U1], [UNRUH_D3]).typical(v),
    ),
    "branch_following_check": (
        "threshold",
        lambda v: branch_following_check(build_unruh().structure, [UNRUH_U1, UNRUH_D3], v),
    ),
}
OUTSIDE_UNIT_INTERVAL = [0.0, 1.0, -0.1, float("nan")]


@pytest.mark.parametrize("value", OUTSIDE_UNIT_INTERVAL)
@pytest.mark.parametrize("name, call", THRESHOLD_CALLS.values(), ids=THRESHOLD_CALLS)
def test_threshold_outside_unit_interval(name, call, value):
    with pytest.raises(ValidationError) as info:
        call(value)
    assert type(info.value) is ValidationError
    assert str(info.value) == f"{name} {value} outside (0, 1)"


@pytest.mark.parametrize("value", OUTSIDE_UNIT_INTERVAL)
@pytest.mark.parametrize("option", ["--epsilon-exclude", "--tau-link", "--threshold"])
def test_threshold_option_outside_unit_interval(capsys, option, value):
    assert main(["scenario", "unruh", option, str(value)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} {value} outside (0, 1)\n"
