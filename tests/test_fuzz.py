"""Random inputs through the CLI: every run exits with a documented code.

Two properties: scenario files with values replaced or deleted at random
JSON paths, and random option values for every subcommand. Each run must
exit 0, 2, 3 or 4 (argparse's ``SystemExit(2)`` counts as 2), raise nothing
else, and write strict JSON on success. Some command lines carry an unknown
command or option, which the CLI rejects. Values are drawn from small pools
of boundary cases, so every example stays cheap; files go to a temporary
directory.
"""
import contextlib
import copy
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtypicality import build_unruh, matched_markov_chain, process_to_dict, structure_to_dict
from qtypicality.cli import main, parse_command_line

EXIT_CODES = {0, 2, 3, 4}

NUMBERS = ["0", "1", "-1", "2", "3", "0.5", "0.08", "1e308", "-1e308", "1e-320",
           "nan", "inf", "-inf", "x", ""]
THRESHOLDS = ["0.08", "0.2", "0.5", "0", "1", "-0.1", "1e-320", "nan", "inf", "x"]
SSETS = ["1:U", "3:D", "2:U,D", "0:U", "2:D", "4:U", "-1:U", "1:", "x:U", "1:X", "1.5:U",
         ":", "1:U,,D"]
SLICES = ["1:U|D", "2:U|D", "3:U|D", "0:U|D", "1:U", "1:U,D", "4:U|D", "-1:U|D", "1:X|U|D",
          "1:U||D", "1:U|U", "1:", "x:U|D", "2:D|U"]
FILES = ["FILE", "DIR"]  # a fresh file, or a directory that cannot be written

# Every option of every subcommand and the values drawn for it; None marks a flag.
# --sweep is passed with one draw per spec only, which keeps a sweep cheap.
OPTIONS = {
    "scenario": {
        "--detector-d2": None,
        "--obstacle": ["U1", "D1", "X"],
        "--export": FILES,
        "--epsilon-exclude": THRESHOLDS,
        "--tau-link": THRESHOLDS,
        "--threshold": THRESHOLDS,
    },
    "typicality": {
        "--scenario-file": ["SCENARIO", "DIR", "MISSING"],
        "--s1": SSETS,
        "--s2": SSETS,
        "--threshold": THRESHOLDS,
    },
    "graph": {
        "--scenario-file": ["SCENARIO", "DIR", "MISSING"],
        "--slice": SLICES,
        "--epsilon-exclude": THRESHOLDS,
        "--tau-link": THRESHOLDS,
    },
    "stat-bound": {
        "--seed": ["0", "7", "-1", "-5", str(2**70), "1.5", "x"],
        "--n": ["-1", "0", "1", "2", "3", "5", "x"],
        "--p": ["0.5,0.5", "1.0", "0.2,0.3,0.5", "0.1,0.2,0.3,0.2,0.2", "nan,nan",
                "-0.5,1.5", "0.3,0.3", "1e308,1e308", "0,1", "", "a,b"],
        "--N": ["-1", "0", "1", "2", "12", "40", "9" * 400, "1.5"],
        "--eps": NUMBERS,
        "--sweep": None,
    },
    "wavepacket": {
        "--separations": ["4", "6,8", "0", "-4", "nan", "inf", "1e308", "4,", "x"],
        "--sigma": NUMBERS,
        "--momentum": NUMBERS + ["1e305", "-1e307", "1e-305"],
        "--n-points": ["-4", "0", "1", "2", "64", "256", "x"],
        "--length": NUMBERS + ["20", "1e305"],
        "--snapshot": FILES,
    },
    "audit": {
        "--scenario-file": ["SCENARIO", "DIR", "MISSING"],
    },
}
POSITIONAL = {"scenario": ["unruh", "fig1", "nonadditivity", "other"]}
# Words no subcommand knows. An option-like word is never taken as another
# option's value, so it may go anywhere after the command.
UNKNOWN_COMMANDS = ["bogus", "Audit", "stat", ""]
UNKNOWN_OPTIONS = ["--bogus", "--=x", "-q"]

# Replacement values for a scenario file: numbers at and past the boundaries,
# wrong types and shapes, labels present and absent.
REPLACEMENTS = st.one_of(
    # Copied, since a later mutation may change a drawn list in place.
    # 2**63, 2**64 and -2**63 - 1 lie at and past the ends of a 64-bit integer.
    st.sampled_from([0, 1, -1, 2, 3, 0.5, 1.5, 1e308, -1e308, 5e-324, 10**400,
                     2**63, 2**64, -2**63 - 1,
                     float("nan"), float("inf"), True, None, "", "U", "D", "X",
                     [], {}, [0.0, 0.0], [1.0, 0.0], [[1.0, 0.0]], [0, 1], {"U": [0]}])
    .map(copy.deepcopy),
    st.floats(-2.0, 2.0),
    st.integers(-3, 3),
)


FILE_COMMANDS = [
    ["audit", "--scenario-file", "SCENARIO"],
    ["graph", "--scenario-file", "SCENARIO", "--slice", "1:U|D", "--slice", "2:U|D",
     "--slice", "3:U|D"],
    ["typicality", "--scenario-file", "SCENARIO", "--s1", "1:U", "--s2", "3:D"],
]


def unruh_export():
    """The file that ``scenario unruh --export`` writes, as parsed JSON."""
    structure = build_unruh().structure
    data = structure_to_dict(structure)
    data["stochastic"] = process_to_dict(matched_markov_chain(structure))
    return json.loads(json.dumps(data))


UNRUH = unruh_export()


@st.composite
def mutated_scenarios(draw):
    """The Unruh export with one to three values replaced or deleted, each at
    a random JSON path."""
    data = copy.deepcopy(UNRUH)
    for _ in range(draw(st.integers(1, 3))):
        node = data
        while node:
            keys = list(node) if isinstance(node, dict) else range(len(node))
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
            elif draw(st.booleans()):
                del node[key]
                break
            else:
                node[key] = draw(REPLACEMENTS)
                break
    return data


# Values starting with '-', which argparse takes as a value only when it
# reads as a negative number.
DASH_VALUES = ["-1", "-0.5", "-inf", "-x", "-", "--"]


def rarely(draw) -> bool:
    return draw(st.integers(0, 11)) == 11


@st.composite
def command_lines(draw):
    """A subcommand with a random subset of its options at random values;
    about one line in five has an unknown command or option.

    Now and then an option is abbreviated, written as ``--opt=value`` or
    repeated, a value is empty or starts with '-', a ``--`` is inserted or
    the positional moves, so that both the exact reader and argparse see
    the lines the reader must leave to argparse.
    """
    command = draw(st.sampled_from(list(OPTIONS)))
    pool = {**OPTIONS[command], "--format": ["json", "csv"], "--output": FILES}

    def group(option):
        """The option with its value, if it takes one."""
        if option == "--sweep":
            return [option, "--sweep-draws", "1"]
        if pool[option] is None:
            return [option]
        return [option, draw(st.sampled_from(pool[option]))]

    groups = [group(option) for option in draw(st.lists(st.sampled_from(list(pool)), unique=True))]
    if groups and rarely(draw):  # again, with a value of its own
        groups.append(group(draw(st.sampled_from(groups))[0]))
    valued = [group for group in groups if len(group) == 2]
    # A file option keeps its placeholder, which argparse might otherwise
    # take as a path in the working directory ('-1' is a negative number).
    unwritten = [group for group in valued if pool[group[0]] is not FILES]
    if unwritten and rarely(draw):
        draw(st.sampled_from(unwritten))[1] = draw(st.sampled_from(DASH_VALUES))
    if valued and rarely(draw):
        draw(st.sampled_from(valued))[1] = ""
    if valued and rarely(draw):
        group = draw(st.sampled_from(valued))
        group[:] = [group[0] + "=" + group[1]]
    long_options = [group for group in groups if len(group[0]) > 3]
    if long_options and rarely(draw):  # unique, or ambiguous like --s
        group = draw(st.sampled_from(long_options))
        group[0] = group[0][: draw(st.integers(3, len(group[0]) - 1))]
    argv = [command, *(word for group in groups for word in group)]
    if command in POSITIONAL:
        word = draw(st.sampled_from(POSITIONAL[command]))
        argv.insert(draw(st.integers(0, len(argv))) if rarely(draw) else 1, word)
    if rarely(draw):
        argv.insert(draw(st.integers(1, len(argv))), "--")
    if draw(st.integers(0, 9)) == 9:
        argv[0] = draw(st.sampled_from(UNKNOWN_COMMANDS))
    if draw(st.integers(0, 9)) == 9:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(UNKNOWN_OPTIONS)))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory for the scenario files and reports of the runs."""
    return tmp_path_factory.mktemp("fuzz")


def fill(argv, root):
    """``argv`` with each placeholder word, alone or after '=', replaced by its path."""
    paths = {"FILE": root / "out.file", "DIR": root, "SCENARIO": root / "scenario.json",
             "MISSING": root / "missing.json"}
    words = []
    for arg in argv:
        option, eq, value = arg.partition("=")
        words.append(option + eq + str(paths.get(value, value)) if eq else str(paths.get(arg, arg)))
    return words


def run(argv):
    """Exit code and stdout of ``main(argv)``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, stdout.getvalue()


def check(argv, root, scenario=UNRUH):
    (root / "scenario.json").write_text(json.dumps(scenario))
    argv = fill(argv, root)
    code, out = run(argv)
    assert code in EXIT_CODES, (argv, code)
    if code == 0:
        args = parse_command_line(argv)
        if args.format == "json" and not args.output:
            json.loads(out, parse_constant=pytest.fail)  # strict JSON: no NaN or Infinity


@settings(max_examples=150, deadline=None)
@given(mutated_scenarios(), st.sampled_from(FILE_COMMANDS))
def test_mutated_scenario_file_exits_with_a_documented_code(workdir, scenario, argv):
    check(argv, workdir, scenario)


@settings(max_examples=200, deadline=None)
@example(["stat-bound", "--seed", "-1"])
@example(["wavepacket", "--momentum", "1e308"])
@example(["wavepacket", "--n-points", str(10**15)])  # rejected before any grid is built
@given(command_lines())
def test_random_options_exit_with_a_documented_code(workdir, argv):
    check(argv, workdir)
