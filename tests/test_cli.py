import argparse
import contextlib
import csv
import enum
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtypicality import (
    PartitionSchedule,
    build_graph,
    build_unruh,
    correspondence_audit,
    load_scenario,
    matched_markov_chain,
    obstacle_variant,
    process_to_dict,
    structure_to_dict,
)
from qtypicality import cli, core, stats
from qtypicality.cli import _json, build_parser, main, parse_command_line, parse_slice
from conftest import near_classical_structure, random_structure
from test_fuzz import command_lines
from test_rejections import stretched_structure

SCHEMA_DIR = "schemas"

# Edge list of the Unruh graph (Fig. 3) without the link measures, which are
# round-off around zero.
UNRUH_EDGE_ROWS = [
    ["kind", "path_id", "time_a", "region_a", "time_b", "region_b"],
    ["link", "", "1", "U", "3", "D"],
    ["link", "", "1", "D", "3", "U"],
    ["path", "0", "1", "U", "2", "U"],
    ["path", "0", "2", "U", "3", "D"],
    ["path", "1", "1", "D", "2", "U"],
    ["path", "1", "2", "U", "3", "U"],
]


EDGE_HEADER = "kind,path_id,time_a,region_a,time_b,region_b,value"
UNRUH_SLICES = ("--slice", "1:U|D", "--slice", "2:U|D", "--slice", "3:U|D")

# Every command with a CSV form and its pinned header; SCENARIO stands for
# an exported Unruh scenario file.
CSV_FORMS = [
    (("scenario", "unruh"), EDGE_HEADER),
    (
        ("typicality", "--scenario-file", "SCENARIO", "--s1", "1:U", "--s2", "3:D"),
        "m_big,m_small,norm1_sq,norm2_sq,threshold,verdict",
    ),
    (("graph", "--scenario-file", "SCENARIO", *UNRUH_SLICES), EDGE_HEADER),
    (("stat-bound", "--N", "10"), "n,N,eps,p,mass,bound,holds"),
    (("wavepacket", "--separations", "4,8"), "separation_sigma,m_big"),
]
CSV_IDS = [argv[0] for argv, _ in CSV_FORMS]

# One JSON request per command, with the keys of its report's config and of
# config.thresholds; a command records only the options it takes.
OUTPUT_KEYS = {"command", "output"}
REPORT_CONFIGS = [
    (
        ("scenario", "unruh"),
        OUTPUT_KEYS | {"thresholds", "scenario", "detector_d2", "obstacle"},
        {"epsilon_exclude", "tau_link", "typicality"},
    ),
    (("scenario", "fig1"), OUTPUT_KEYS | {"thresholds", "scenario"}, {"typicality"}),
    (("scenario", "nonadditivity"), OUTPUT_KEYS | {"scenario"}, set()),
    (
        ("typicality", "--scenario-file", "SCENARIO", "--s1", "1:U", "--s2", "3:D"),
        OUTPUT_KEYS | {"thresholds", "scenario_path", "s1", "s2"},
        {"typicality"},
    ),
    (
        ("graph", "--scenario-file", "SCENARIO", *UNRUH_SLICES),
        OUTPUT_KEYS | {"thresholds", "scenario_path", "slices"},
        {"epsilon_exclude", "tau_link"},
    ),
    (
        ("stat-bound", "--N", "10"),
        OUTPUT_KEYS | {"seed", "n", "p", "N", "eps", "sweep", "sweep_draws"},
        set(),
    ),
    (
        ("wavepacket", "--separations", "4,8"),
        OUTPUT_KEYS | {"separations", "sigma", "momentum", "n_points", "grid_length"},
        set(),
    ),
    (("audit", "--scenario-file", "SCENARIO"), OUTPUT_KEYS | {"scenario_path"}, set()),
]
REPORT_IDS = ["-".join(argv[:2]) if argv[0] == "scenario" else argv[0]
              for argv, _, _ in REPORT_CONFIGS]

# The shared options each command does not read, and so does not take.
ALL_SHARED = ("--epsilon-exclude", "--tau-link", "--threshold", "--seed")
UNTAKEN = {
    ("scenario", "unruh"): ("--seed",),
    ("typicality", "--scenario-file", "s.json", "--s1", "1:U", "--s2", "3:D"): (
        "--epsilon-exclude", "--tau-link", "--seed"
    ),
    ("graph", "--scenario-file", "s.json", "--slice", "1:U|D"): ("--threshold", "--seed"),
    ("stat-bound",): ("--epsilon-exclude", "--tau-link", "--threshold"),
    ("wavepacket",): ALL_SHARED,
    ("audit", "--scenario-file", "s.json"): ALL_SHARED,
}
UNTAKEN_OPTIONS = [(argv, option) for argv, options in UNTAKEN.items() for option in options]


def fill(argv, **paths):
    """``argv`` with each placeholder word replaced by its path."""
    return [str(paths.get(arg, arg)) for arg in argv]


def assert_crlf_csv(text, header):
    lines = text.split("\r\n")
    assert lines[0] == header
    assert len(lines) > 2 and lines[-1] == ""
    assert not any("\r" in line or "\n" in line for line in lines)


def edge_rows_as_text(graph):
    """The graph's edge rows as ``csv.reader`` returns them."""
    return [[str(field) for field in row] for row in graph.edge_rows()]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def exported(tmp_path, capsys):
    path = tmp_path / "unruh.json"
    code, _, err = run(capsys, "scenario", "unruh", "--export", str(path))
    assert code == 0, err
    return str(path)


class TestScenarioCommand:
    def test_unruh_report(self, capsys):
        payload = run_json(capsys, "scenario", "unruh")
        assert payload["version"]
        assert payload["config"]["scenario"] == "unruh"
        results = payload["results"]
        assert results["typicality"]["U1_vs_D3"]["m_big"] == pytest.approx(0.0, abs=1e-12)
        assert results["exclusion_U2"] == pytest.approx(0.0, abs=1e-12)
        paths = {tuple(p) for p in results["graph"]["path_names"]}
        assert paths == {("U@1", "U@2", "D@3"), ("D@1", "U@2", "U@3")}

    def test_unruh_detector_report(self, capsys):
        payload = run_json(capsys, "scenario", "unruh", "--detector-d2")
        results = payload["results"]
        assert results["click_occupation_t2"] == pytest.approx(0.0, abs=1e-12)
        assert results["typicality"]["U1_vs_D3"]["m_big"] == pytest.approx(1.0, abs=1e-12)
        assert len(results["graph"]["path_names"]) == 4

    def test_fig1_report(self, capsys):
        results = run_json(capsys, "scenario", "fig1")["results"]
        assert results["matched_pair"]["m_big"] == 0.0
        assert results["pinhole_exclusion"] == pytest.approx(0.5, abs=1e-12)

    def test_nonadditivity_report(self, capsys):
        results = run_json(capsys, "scenario", "nonadditivity")["results"]
        assert results["combined"] == pytest.approx(1.0, abs=1e-12)
        assert results["additive"] is False

    def test_csv_output(self, capsys):
        code, out, err = run(capsys, "scenario", "unruh", "--format", "csv")
        assert code == 0, err
        model = build_unruh()
        g = build_graph(model.structure, model.partition_schedule())
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == edge_rows_as_text(g)
        assert [row[:6] for row in rows] == UNRUH_EDGE_ROWS
        assert [float(row[6]) for row in rows[1:3]] == pytest.approx([0.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize(
        "command",
        [("scenario", "fig1"), ("scenario", "nonadditivity"), ("audit", "--scenario-file")],
    )
    def test_no_csv_form_is_parse_error(self, capsys, exported, command):
        if command[0] == "audit":
            command += (exported,)
        code, out, err = run(capsys, *command, "--format", "csv")
        assert code == 2
        assert out == ""
        assert "has no CSV form" in err

    def test_refused_call_writes_no_export(self, capsys, tmp_path):
        export = tmp_path / "fig1.json"
        code, out, err = run(capsys, "scenario", "fig1", "--format", "csv",
                             "--export", str(export))
        assert (code, out) == (2, "")
        assert "has no CSV form" in err
        assert not export.exists()

    def test_determinism(self, capsys):
        first = run(capsys, "scenario", "unruh")[1]
        second = run(capsys, "scenario", "unruh")[1]
        assert first == second

    @pytest.mark.parametrize("argv", [argv for argv, _, _ in REPORT_CONFIGS], ids=REPORT_IDS)
    def test_report_matches_schema(self, capsys, repo_root, exported, argv):
        jsonschema = pytest.importorskip("jsonschema")
        payload = run_json(capsys, *fill(argv, SCENARIO=exported))
        schema = json.loads((repo_root / SCHEMA_DIR / "report.schema.json").read_text())
        jsonschema.validate(payload, schema)


class TestSharedOptions:
    @pytest.mark.parametrize("argv, keys, threshold_keys", REPORT_CONFIGS, ids=REPORT_IDS)
    def test_config_records_only_what_the_command_takes(
        self, capsys, exported, argv, keys, threshold_keys
    ):
        config = run_json(capsys, *fill(argv, SCENARIO=exported))["config"]
        assert set(config) == keys
        assert set(config.get("thresholds", ())) == threshold_keys

    @pytest.mark.parametrize(
        "argv, option", UNTAKEN_OPTIONS, ids=[f"{a[0]}{o}" for a, o in UNTAKEN_OPTIONS]
    )
    def test_untaken_option_is_parse_error(self, capsys, argv, option):
        value = "7" if option == "--seed" else "0.5"
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, value])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestScenarioFileRoundTrip:
    def test_export_matches_scenario_schema(self, exported, repo_root):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (repo_root / SCHEMA_DIR / "scenario.schema.json").read_text()
        )
        jsonschema.validate(json.loads(open(exported).read()), schema)

    def test_typicality_on_exported(self, capsys, exported):
        results = run_json(
            capsys,
            "typicality",
            "--scenario-file", exported,
            "--s1", "1:U",
            "--s2", "3:D",
        )["results"]
        assert results["m_big"] == pytest.approx(0.0, abs=1e-12)
        assert results["verdict"] == "MutuallyTypical"

    def test_empty_projection_emits_strict_json(self, capsys, exported):
        # D2 carries no mass, so m_small = M / 0 is infinite: encoded as null.
        code, out, err = run(
            capsys,
            "typicality",
            "--scenario-file", exported,
            "--s1", "2:D",
            "--s2", "1:U",
        )
        assert code == 0, err
        results = json.loads(out, parse_constant=pytest.fail)["results"]
        assert results["m_small"] is None
        assert results["m_big"] == pytest.approx(1.0, abs=1e-12)

    def test_typicality_csv(self, capsys, exported):
        code, out, _ = run(
            capsys,
            "typicality",
            "--scenario-file", exported,
            "--s1", "1:U",
            "--s2", "3:D",
            "--format", "csv",
        )
        assert code == 0
        header, row = out.splitlines()
        assert header.split(",")[0] == "m_big"
        assert row.split(",")[-1] == "MutuallyTypical"

    def test_graph_on_exported(self, capsys, exported):
        results = run_json(
            capsys,
            "graph",
            "--scenario-file", exported,
            "--slice", "1:U|D",
            "--slice", "2:U|D",
            "--slice", "3:U|D",
        )["results"]
        assert {tuple(p) for p in results["path_names"]} == {
            ("U@1", "U@2", "D@3"),
            ("D@1", "U@2", "U@3"),
        }

    def test_graph_csv_on_exported(self, capsys, exported):
        slices = ["1:U|D", "2:U|D", "3:U|D"]
        code, out, err = run(
            capsys,
            "graph",
            "--scenario-file", exported,
            *(arg for s in slices for arg in ("--slice", s)),
            "--format", "csv",
        )
        assert code == 0, err
        structure, _ = load_scenario(exported)
        schedule = PartitionSchedule(parse_slice(s) for s in slices)
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == edge_rows_as_text(build_graph(structure, schedule))
        assert [row[:6] for row in rows] == UNRUH_EDGE_ROWS

    def test_audit_on_exported(self, capsys, exported):
        results = run_json(capsys, "audit", "--scenario-file", exported)["results"]
        assert results["passed"] is True
        assert results["c7"]["witness"] is not None

    @pytest.mark.parametrize(
        "model, options",
        [(build_unruh, ()), (lambda: obstacle_variant("U1"), ("--obstacle", "U1")),
         (lambda: obstacle_variant("D1"), ("--obstacle", "D1"))],
        ids=["unruh", "obstacle-U1", "obstacle-D1"],
    )
    def test_audit_witness_survives_export(self, capsys, tmp_path, model, options):
        # The export sorts the cell labels; tied defects must still name one witness.
        path = tmp_path / "model.json"
        code, _, err = run(capsys, "scenario", "unruh", *options, "--export", str(path))
        assert code == 0, err
        exported = run_json(capsys, "audit", "--scenario-file", str(path))["results"]["c7"]
        q = model().structure
        in_memory = correspondence_audit(q, matched_markov_chain(q)).to_dict()["c7"]
        assert in_memory["max_quantum_defect"] == exported["max_quantum_defect"]
        witnesses = in_memory["witness"], exported["witness"]
        assert [[w["t1"], w["t2"], w["region2"]] for w in witnesses] == [
            [exported["witness"]["t1"], exported["witness"]["t2"], ["D"]]
        ] * 2
        for key in ("quantum_total", "quantum_termwise_sum"):
            assert witnesses[0][key] == pytest.approx(witnesses[1][key], abs=1e-12)

    def test_output_file(self, capsys, exported, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "typicality",
            "--scenario-file", exported,
            "--s1", "1:U",
            "--s2", "3:D",
            "--output", str(out_path),
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["results"]["m_big"] == pytest.approx(
            0.0, abs=1e-12
        )


class TestStatBound:
    def test_point_value_json(self, capsys):
        rows = run_json(
            capsys, "stat-bound", "--n", "2", "--p", "0.5,0.5", "--N", "16",
            "--eps", "0.125",
        )["results"]
        assert rows[0]["mass"] == pytest.approx(5034 / 65536, abs=1e-12)
        assert rows[0]["holds"] is True

    def test_large_n_does_not_overflow(self, capsys):
        # N = 5000 once raised OverflowError in the float multinomial.
        rows = run_json(capsys, "stat-bound", "--N", "5000", "--eps", "0.01")["results"]
        exact = sum(math.comb(5000, k) for k in range(5001) if 2 * (k / 5000 - 0.5) ** 2 >= 0.01)
        assert rows[0]["mass"] == pytest.approx(exact / 2**5000, rel=1e-9, abs=1e-10)
        assert rows[0]["holds"] is True

    def test_csv_form(self, capsys):
        code, out, _ = run(capsys, "stat-bound", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,N,eps,p,mass,bound,holds"
        assert lines[1].endswith("true")

    def test_config_records_the_spec_only_without_sweep(self, capsys):
        spec_keys = {"n", "p", "N", "eps"}
        sweep = run_json(capsys, "stat-bound", "--sweep", "--sweep-draws", "1", "--N", "9")
        assert not spec_keys & set(sweep["config"])
        assert sweep["config"]["sweep"] is True and sweep["config"]["sweep_draws"] == 1
        single = run_json(capsys, "stat-bound", "--N", "9")["config"]
        assert {key: single[key] for key in spec_keys} == {
            "n": 2, "p": [0.5, 0.5], "N": 9, "eps": 0.125
        }
        assert single["sweep"] is False

    @pytest.mark.parametrize("p, big_n, eps", [
        # The probabilities sum past 1 within the input tolerance, so their
        # weights are not a probability measure and the plain Markov bound
        # (negative with p_1 > 1) does not hold for them.
        ("0,1.0000000000001", "1", "1e-20"),
        ("0,1.0,9e-13", "5", "0.07999999999963998"),
    ])
    def test_mass_off_a_unit_sum_passes_its_markov_check(self, capsys, p, big_n, eps):
        n = str(p.count(",") + 1)
        rows = run_json(capsys, "stat-bound", "--n", n, "--p", p, "--N", big_n, "--eps", eps)
        assert rows["results"][0]["holds"] is True


# Each command's first request, in an order where the export comes first,
# with the package modules it loads besides those of ``import qtypicality.cli``.
FIRST_REQUESTS = [
    (["scenario", "unruh", "--export", "U"], {"graph", "scenarios", "stochastic", "typicality"}),
    (["scenario", "unruh", "--detector-d2"], {"graph", "scenarios", "typicality"}),
    (["scenario", "fig1"], {"graph", "scenarios", "typicality"}),
    (["scenario", "nonadditivity"], {"graph", "scenarios", "typicality"}),
    (["audit", "--scenario-file", "U"], {"stochastic", "typicality"}),
    (["graph", "--scenario-file", "U", "--slice", "1:U|D", "--slice", "3:U|D"],
     {"graph", "typicality"}),
    (["typicality", "--scenario-file", "U", "--s1", "1:U", "--s2", "3:D"], {"typicality"}),
    (["stat-bound", "--N", "10"], {"stats"}),
    (["wavepacket", "--separations", "4"], {"typicality", "wavepacket"}),
]
# The modules that ``import qtypicality.cli`` loads: every command reads core.
CLI_MODULES = {"qtypicality", "qtypicality.cli", "qtypicality.core", "qtypicality.errors"}
# Run in a fresh interpreter per request, so that no earlier request preloads
# a module. Prints the exit code, the numpy modules the request imports, and
# the package modules loaded after the import and after the request.
FIRST_REQUEST = """
import json, sys
package = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "qtypicality")
import qtypicality.cli as cli
at_import = package()
before = set(sys.modules)
code = cli.main(json.loads(sys.argv[1]))
new = sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy")
print(json.dumps([code, new, at_import, package()]))
"""


@pytest.fixture(scope="module")
def first_requests(tmp_path_factory, src_env):
    """``(argv, expected modules, code, numpy imports, modules at import,
    modules after)`` of each of ``FIRST_REQUESTS``, in order."""
    work = tmp_path_factory.mktemp("first")
    seen = []
    for argv, expected in FIRST_REQUESTS:
        argv = fill(argv, U=work / "u.json") + ["--output", str(work / "report")]
        done = subprocess.run(
            [sys.executable, "-c", FIRST_REQUEST, json.dumps(argv)],
            env=src_env, capture_output=True, text=True, check=True,
        )
        seen.append((argv, expected, *json.loads(done.stdout)))
    return seen


def test_first_requests_import_no_numpy_submodule(first_requests):
    """numpy.random (a generator), numpy.ma (np.unique) and the like cost
    milliseconds per process; only wavepacket needs one, numpy.fft."""
    assert len(first_requests) == 9
    for argv, _, code, imported, _, _ in first_requests:
        assert code == 0, argv
        allowed = {"numpy.fft"} if argv[0] == "wavepacket" else set()
        assert {".".join(m.split(".")[:2]) for m in imported} <= allowed, (argv, imported)


def test_importing_the_cli_loads_core_alone(first_requests):
    for _, _, _, _, at_import, _ in first_requests:
        assert set(at_import) == CLI_MODULES


def test_first_requests_load_only_the_modules_they_read(first_requests):
    """stat-bound loads stats but not graph, audit stochastic but not stats,
    and so on: each handler imports what it reads."""
    for argv, expected, code, _, _, loaded in first_requests:
        assert code == 0, argv
        assert set(loaded) == CLI_MODULES | {"qtypicality." + m for m in expected}, argv


def test_orjson_waits_for_a_scenario_file(src_env):
    """Only reading a scenario file imports orjson."""
    script = (
        "import sys, qtypicality.cli as cli\n"
        "assert 'orjson' not in sys.modules\n"
        "assert cli.main(['stat-bound', '--N', '10']) == 0\n"
        "assert 'orjson' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", script], env=src_env, capture_output=True, check=True)


def test_stat_bound_sweep_still_draws_from_its_seed(capsys):
    argv = ("stat-bound", "--sweep", "--sweep-draws", "1", "--seed")
    first = run_json(capsys, *argv, "7")["results"]
    assert run_json(capsys, *argv, "7")["results"] == first
    assert run_json(capsys, *argv, "8")["results"] != first


class TestWavepacket:
    def test_sweep_json(self, capsys):
        rows = run_json(capsys, "wavepacket", "--separations", "4,8")["results"]
        assert [r["separation_sigma"] for r in rows] == [4.0, 8.0]
        assert rows[1]["m_big"] < 0.01

    def test_snapshot_file(self, capsys, tmp_path):
        snap = tmp_path / "density.csv"
        code, _, _ = run(
            capsys, "wavepacket", "--separations", "4", "--snapshot", str(snap)
        )
        assert code == 0
        assert snap.read_text().splitlines()[0] == "x,density"


class TestCsvContract:
    @pytest.mark.parametrize("argv, header", CSV_FORMS, ids=CSV_IDS)
    def test_header_and_crlf(self, capsys, exported, argv, header):
        code, out, err = run(capsys, *fill(argv, SCENARIO=exported), "--format", "csv")
        assert code == 0, err
        assert_crlf_csv(out, header)

    def test_snapshot_header_and_crlf(self, capsys, tmp_path):
        snap = tmp_path / "density.csv"
        code, _, err = run(
            capsys, "wavepacket", "--separations", "4", "--snapshot", str(snap)
        )
        assert code == 0, err
        assert_crlf_csv(snap.read_bytes().decode("utf-8"), "x,density")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [argv for argv, _ in CSV_FORMS], ids=CSV_IDS)
    def test_output_file_matches_stdout(self, capsys, exported, tmp_path, argv, fmt):
        argv = fill(argv, SCENARIO=exported) + ["--format", fmt]
        code, stdout, err = run(capsys, *argv)
        assert code == 0, err
        out_path = tmp_path / "report.out"
        code, out, err = run(capsys, *argv, "--output", str(out_path))
        assert code == 0 and out == "", err
        if fmt == "json":  # the report records where it was written
            stdout = stdout.replace('"path": null', f'"path": {json.dumps(str(out_path))}', 1)
        assert out_path.read_bytes() == stdout.encode("utf-8")


class TestExitCodes:
    def test_malformed_json_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "audit", "--scenario-file", str(bad))
        assert code == 2
        assert "parse error" in err

    def test_missing_file_is_parse_error(self, capsys):
        code, _, _ = run(capsys, "audit", "--scenario-file", "/nonexistent.json")
        assert code == 2

    def test_bad_sset_syntax(self, capsys, exported):
        code, _, err = run(
            capsys,
            "typicality",
            "--scenario-file", exported,
            "--s1", "notatime:U",
            "--s2", "3:D",
        )
        assert code == 2
        assert "s-set" in err

    def test_nan_psi0_is_parse_error(self, capsys, exported, tmp_path):
        data = json.loads(open(exported).read())
        data["psi0"][0] = [float("nan"), 0.0]
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(data))  # Python's json reads and writes NaN
        code, out, err = run(
            capsys, "typicality", "--scenario-file", str(bad), "--s1", "1:U", "--s2", "3:D"
        )
        assert code == 2
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("entry", ["psi0", "schedule"])
    def test_infinite_imaginary_part_is_parse_error(self, capsys, exported, tmp_path, entry):
        # 1j * inf has a NaN real part; reading it must not warn.
        data = json.loads(open(exported).read())
        if entry == "psi0":
            data["psi0"][0] = [0.0, float("inf")]
        else:
            data["schedule"][1][0][1] = [0.0, float("inf")]
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "audit", "--scenario-file", str(bad))
        assert (code, out) == (2, "")
        assert "non-finite" in err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "psi0", 5),
            (None, "cells", [[0], [1]]),
            ("cells", "D", [1.7]),
            ("cells", "D", [1.0]),
            ("cells", "D", [True]),
            ("stochastic", "kernels", [[[1.0, 0.0], [0.0]]] * 3),
            ("stochastic", "initial", [[1.0], 0.0]),
            (None, "dim", 2.7),
            (None, "psi0", [[10**400, 0.0], [0.0, 0.0]]),  # no float holds it
            ("stochastic", "initial", [10**400, 0.0]),
            ("stochastic", "kernels", [[[10**400, 0.0], [0.0, 1.0]]] * 3),
        ],
    )
    def test_malformed_scenario_is_parse_error(
        self, capsys, exported, tmp_path, section, key, value
    ):
        data = json.loads(open(exported).read())
        (data if section is None else data[section])[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "audit", "--scenario-file", str(bad))
        assert code == 2, err
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("audit", "--scenario-file", "ARRAY"), "scenario file must contain a JSON object"),
            (("graph", "--scenario-file", "STRETCHED", "--slice", "1:U|D", "--slice", "3:U"),
             "slice t=3 does not cover all cells"),
        ],
        ids=["array", "slice-missing-a-cell"],
    )
    def test_library_rejection_is_parse_error(self, capsys, tmp_path, argv, message):
        array, stretched = tmp_path / "array.json", tmp_path / "stretched.json"
        array.write_text("[]")
        stretched.write_text(json.dumps(structure_to_dict(stretched_structure())))
        code, out, err = run(capsys, *fill(argv, ARRAY=array, STRETCHED=stretched))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d.__setitem__("psi0", [[str(x) for x in z] for z in d["psi0"]]), "psi0"),
            (lambda d: d["psi0"][1].__setitem__(0, None), "psi0"),
            (lambda d: d.__setitem__("psi0", [[bool(x) for x in z] for z in d["psi0"]]), "psi0"),
            (lambda d: d["schedule"][2][0][1].__setitem__(1, "0.5"), "schedule matrix 2"),
            (lambda d: d["stochastic"].__setitem__(
                "initial", [str(x) for x in d["stochastic"]["initial"]]), "initial"),
            (lambda d: d["stochastic"]["kernels"][1][0].__setitem__(0, "1"), "kernel 1"),
            (lambda d: d["stochastic"]["kernels"][0][1].__setitem__(1, None), "kernel 0"),
        ],
        ids=["psi0-strings", "psi0-null", "psi0-booleans", "schedule-string",
             "initial-strings", "kernel-string", "kernel-null"],
    )
    def test_non_numbers_are_named(self, capsys, exported, tmp_path, edit, field):
        # numpy reads "0.5" as 0.5 and null as NaN; the schema asks for numbers.
        data = json.loads(open(exported).read())
        edit(data)
        bad = tmp_path / "strings.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "audit", "--scenario-file", str(bad))
        assert (code, out) == (2, "")
        assert f" {field} has non-numeric entries" in err

    @pytest.mark.parametrize(
        "edit, section",
        [
            (lambda d: d.__setitem__("psi0", [[0.0, False], [True, 0.0]]), "psi0"),
            (lambda d: d["schedule"][0][0][1].__setitem__(1, False), "schedule"),
            (lambda d: d["stochastic"].__setitem__("initial", [0.0, True]), "stochastic.initial"),
            (lambda d: d["stochastic"]["kernels"][1][1].__setitem__(1, False),
             "stochastic.kernels"),
        ],
        ids=["psi0", "schedule", "initial", "kernels"],
    )
    def test_booleans_among_numbers_are_named(self, capsys, exported, tmp_path, edit, section):
        # Each boolean stands where the export has an equal 0.0 or 1.0, and
        # numpy would read it as that number; the schema asks for numbers.
        data = json.loads(open(exported).read())
        edit(data)
        bad = tmp_path / "booleans.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "audit", "--scenario-file", str(bad))
        assert (code, out) == (2, "")
        assert f"error: malformed scenario: {section} has non-numeric entries (a boolean)" in err

    def test_a_true_label_is_not_a_boolean(self, capsys, exported, tmp_path):
        data = json.loads(open(exported).read())
        data["cells"] = {"true": data["cells"]["U"], "D": data["cells"]["D"]}
        data["stochastic"]["states"] = ["true", "D"]
        path = tmp_path / "true_label.json"
        path.write_text(json.dumps(data))
        assert b'"true"' in path.read_bytes()
        report = run_json(capsys, "audit", "--scenario-file", str(path))
        assert report["results"]["passed"]

    @pytest.mark.parametrize(
        "states", ["UD", {"U": 0, "D": 1}, [0, 1]], ids=["string", "object", "numbers"]
    )
    def test_malformed_twin_states_are_named(self, capsys, exported, tmp_path, states):
        # Each was once read as two labels; the schema asks for an array of strings.
        data = json.loads(open(exported).read())
        if states == [0, 1]:  # numeric cell labels, so that only the type is wrong
            data["cells"] = {"0": data["cells"]["U"], "1": data["cells"]["D"]}
        data["stochastic"]["states"] = states
        bad = tmp_path / "bad_states.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "audit", "--scenario-file", str(bad))
        assert (code, out) == (2, "")
        assert "malformed stochastic section: states must be an array of strings" in err

    def test_nan_kernel_is_named(self, capsys, exported, tmp_path):
        data = json.loads(open(exported).read())
        data["stochastic"]["kernels"][1][0][0] = float("nan")
        bad = tmp_path / "nan_kernel.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "audit", "--scenario-file", str(bad))
        assert code == 2
        assert out == ""
        assert "kernel 1 has non-finite entries" in err

    @pytest.mark.parametrize("argv", [["--p", "nan,nan"], ["--eps", "nan"]])
    def test_nan_stat_bound_is_parse_error(self, capsys, argv):
        code, out, err = run(
            capsys, "stat-bound", "--n", "2", "--N", "10", "--eps", "0.1", *argv
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("big_n, eps", [("1", "1e-320"), ("4", "1e-309")])
    def test_infinite_stat_bound_is_parse_error(self, capsys, big_n, eps, fmt):
        code, out, err = run(capsys, "stat-bound", "--N", big_n, "--eps", eps, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "1/(eps*N)" in err

    @pytest.mark.parametrize(
        "argv",
        [("--sweep", "--sweep-draws", "0"), ("--sweep", "--sweep-draws", "-1"),
         ("--seed", "-1")],  # --seed is checked even without --sweep
        ids=["0", "-1", "seed-1"],
    )
    def test_sweep_without_draws_is_parse_error(self, capsys, argv):
        code, out, err = run(capsys, "stat-bound", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and argv[-2] in err

    def test_oversized_sweep_is_guard_violation_before_drawing(self, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a refused sweep drew")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        code, out, err = run(capsys, "stat-bound", "--sweep", "--sweep-draws", str(10**6))
        assert (code, out) == (3, "")
        assert err == (f"guard violation: a sweep of {192 * 10**6} rows exceeds "
                       f"the limit of {2**20} rows\n")

    @pytest.mark.parametrize("draws, code", [(2, 0), (3, 3)])
    def test_sweep_row_limit_is_inclusive(self, capsys, monkeypatch, draws, code):
        # 192 rows a draw; the stand-in measures keep each row cheap.
        monkeypatch.setattr(stats, "ENUMERATION_LIMIT", 2 * 192)
        monkeypatch.setattr(stats, "typical_set_complement_mass", lambda spec: 0.0)
        monkeypatch.setattr(stats, "typical_set_bound", lambda spec: 1.0)
        got, out, err = run(capsys, "stat-bound", "--sweep", "--sweep-draws", str(draws))
        assert got == code, err
        if code == 0:
            assert len(json.loads(out)["results"]) == 2 * 192
        else:
            assert out == "" and "a sweep of 576 rows exceeds the limit of 384 rows" in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("unruh", "--obstacle", "U1", "--detector-d2"), "--detector-d2"),
            (("nonadditivity", "--export", "FILE"), "--export"),
            (("fig1", "--detector-d2"), "--detector-d2"),
            (("fig1", "--obstacle", "D1"), "--obstacle"),
            (("nonadditivity", "--detector-d2"), "--detector-d2"),
            (("nonadditivity", "--obstacle", "U1"), "--obstacle"),
            (("fig1", "--epsilon-exclude", "0.2"), "--epsilon-exclude"),
            (("fig1", "--tau-link", "0.3"), "--tau-link"),
            (("nonadditivity", "--threshold", "0.5", "--tau-link", "0.3"), "--tau-link"),
            (("nonadditivity", "--threshold", "0.5"), "--threshold"),
            (("nonadditivity", "--epsilon-exclude", "0.2"), "--epsilon-exclude"),
        ],
    )
    def test_unused_scenario_option_is_parse_error(self, capsys, tmp_path, argv, option):
        export = tmp_path / "export.json"
        code, out, err = run(capsys, "scenario", *fill(argv, FILE=export))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and option in err
        assert not export.exists()

    @pytest.mark.parametrize(
        "argv, thresholds",
        [
            (("fig1", "--threshold", "0.2"), {"typicality": 0.2}),
            (("nonadditivity", "--threshold", "0.08", "--tau-link", "0.08"), None),
        ],
    )
    def test_ignored_threshold_at_its_default_is_accepted(self, capsys, argv, thresholds):
        config = run_json(capsys, "scenario", *argv)["config"]
        assert config.get("thresholds") == thresholds

    @pytest.mark.parametrize(
        "argv",
        [
            ("stat-bound", "--output", "DIR"),
            ("scenario", "unruh", "--export", "DIR"),
            ("wavepacket", "--separations", "4", "--snapshot", "DIR"),
            ("typicality", "--scenario-file", "DIR", "--s1", "1:U", "--s2", "3:D"),
            ("audit", "--scenario-file", "UTF16"),
        ],
    )
    def test_unusable_file_is_parse_error(self, capsys, tmp_path, argv):
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes("\ufeff{}".encode("utf-16-le"))  # starts 0xff 0xfe
        code, out, err = run(capsys, *fill(argv, DIR=tmp_path, UTF16=utf16))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000 + "]" * 100_000,
            "[" * 200_000 + "]" * 200_000,
            # The escaped quote makes a count of quotes take the brackets for a string.
            '{"a": "\\"", "b": ' + "[" * 200_000 + "]" * 200_000 + "}",
        ],
        ids=["100k", "200k", "after-escaped-quote"],
    )
    def test_deeply_nested_file_is_parse_error(self, tmp_path, src_env, text):
        """The stdlib reader raises RecursionError on it, and orjson 3.8 crashes
        the process from about 150,000 levels; run in a child so that a crash
        fails only this test."""
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        done = subprocess.run(
            [sys.executable, "-m", "qtypicality.cli", "audit", "--scenario-file", str(deep)],
            env=src_env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: scenario file is nested too deeply to read\n"

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("--sigma", "nan"), "sigma"),
            (("--momentum", "nan"), "momentum"),
            (("--momentum", "inf"), "momentum"),
            (("--momentum", "0"), "momentum"),
            (("--separations", "4,nan"), "separation"),
            (("--length", "nan"), "length"),
            # dt = sigma/momentum: 0.5*k**2*dt overflows, or dt itself does.
            (("--separations", "4", "--momentum", "1e-305"), "phase"),
            (("--separations", "4", "--momentum", "1e-320"), "phase"),
            # the packets' plane-wave phase momentum * x overflows
            (("--momentum", "1e308"), "phase"),
            # |momentum| + 3/sigma reaches pi/dx, 64.3 on the default grid
            (("--momentum", "100"), "momentum 100.0 aliases"),
            (("--momentum", "-61.4"), "momentum -61.4 aliases"),
            (("--momentum", "30", "--n-points", "1024", "--length", "100"), "momentum 30.0 aliases"),
        ],
    )
    def test_bad_wavepacket_argument_is_parse_error(self, capsys, argv, name):
        code, out, err = run(capsys, "wavepacket", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and name in err

    def test_unknown_slice_label_is_named(self, capsys, exported):
        code, out, err = run(
            capsys, "graph", "--scenario-file", exported, "--slice", "1:X|U|D"
        )
        assert code == 2
        assert out == ""
        assert err == "error: unknown cell label 'X'\n"

    def test_wavepacket_without_points_is_parse_error(self, capsys):
        code, out, err = run(capsys, "wavepacket", "--n-points", "0")
        assert code == 2
        assert out == ""
        assert "n_points" in err

    def test_bad_threshold(self, capsys):
        code, _, _ = run(capsys, "scenario", "unruh", "--threshold", "2.0")
        assert code == 2

    def test_guard_violation(self, capsys):
        code, _, err = run(
            capsys, "stat-bound", "--n", "2", "--p", "0.5,0.5", "--N", "2000000",
            "--eps", "0.0001",
        )
        assert code == 3
        assert "guard" in err

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_guard_violation_at_a_400_digit_repetition_count(self, capsys, n):
        probs = "1.0" if n == "1" else "0.5,0.5"
        code, out, err = run(capsys, "stat-bound", "--n", n, "--p", probs, "--N", "9" * 400)
        assert code == 3
        assert out == ""
        assert err.startswith("guard violation: ")

    def test_guard_violation_at_an_unbounded_grid(self, capsys):
        code, out, err = run(capsys, "wavepacket", "--n-points", str(10**15))
        assert code == 3
        assert out == ""
        assert err.startswith("guard violation: n_points 1000000000000000 exceeds")

    @pytest.mark.parametrize("make", [near_classical_structure, random_structure])
    def test_graph_over_twelve_singleton_slices(self, capsys, tmp_path, make):
        # A raw product of 4**12 regions either way. The near-classical steps
        # force links that keep four paths; the Haar steps force none, and the
        # tenth slice would form 4**10 path extensions.
        structure = make(np.random.default_rng(0), dim=16, n_steps=12, n_cells=4)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(structure_to_dict(structure)))
        output = tmp_path / "graph.json"
        slices = [arg for t in range(1, 13) for arg in ("--slice", f"{t}:c0|c1|c2|c3")]
        code, out, err = run(
            capsys, "graph", "--scenario-file", str(scenario), *slices, "--output", str(output)
        )
        assert out == ""
        if make is near_classical_structure:
            assert (code, err) == (0, "")
            assert len(json.loads(output.read_text())["results"]["paths"]) == 4
        else:
            assert code == 3
            assert err == "guard violation: slice t=10: 1048576 path extensions exceed 1000000\n"
            assert not output.exists()

    def test_audit_rejects_accumulated_row_sum_slack(self, capsys, exported, tmp_path):
        # Rows pass the twin's 1e-12 check, and the mass after a step,
        # 1 + 1.8e-12, is within the twin's slack: the audit runs, and this
        # twin's marginals are not the structure's occupations.
        data = json.loads(open(exported).read())
        slack = 0.5 + 0.9e-12
        data["stochastic"]["initial"] = [slack, 0.5]
        data["stochastic"]["kernels"] = [[[slack, 0.5], [0.5, slack]]] * 3
        bad = tmp_path / "slack.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "audit", "--scenario-file", str(bad))
        assert (code, err) == (4, "audit failed: c3\n")
        assert json.loads(out)["results"]["c7"]["mu_additive"] is True

    def test_failing_audit(self, capsys, exported, tmp_path):
        data = json.loads(open(exported).read())
        # corrupt the stochastic twin so the marginals no longer match
        data["stochastic"]["initial"] = [1.0, 0.0]
        data["stochastic"]["kernels"] = [
            [[1.0, 0.0], [0.0, 1.0]] for _ in data["stochastic"]["kernels"]
        ]
        bad = tmp_path / "mismatched.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "audit", "--scenario-file", str(bad))
        assert code == 4
        assert "audit failed" in err
        assert json.loads(out)["results"]["passed"] is False

    def test_failing_audit_names_its_failed_checks(self, capsys, exported, tmp_path):
        # The report is on stdout; stderr names only the checks that fail.
        data = json.loads(open(exported).read())
        data["stochastic"]["initial"] = [1.0, 0.0]
        bad = tmp_path / "mismatched.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "audit", "--scenario-file", str(bad))
        assert code == 4
        assert err == "audit failed: c3\n"
        assert json.loads(out)["results"]["passed"] is False


EVERY_COMMAND = "{scenario,typicality,graph,stat-bound,wavepacket,audit}"
# Command lines whose text comes from the top-level parser, or that end in
# it; "F" is never read, since parsing fails first.
TOP_LEVEL_ARGVS = [
    [], ["-h"], ["--version"], ["bogus"], ["audit", "-h"],
    ["audit", "--scenario-file", "F", "--bogus"],
    ["audit", "--scenario-file", "F", "--version"], ["--version", "audit"],
    ["audit", "--scenario-file", "F", "--=x"],
]


# One well-formed line per command, each read without a parser; OUT and SNAP
# stand for files, SCENARIO for an exported Unruh scenario file.
WELL_FORMED = [
    ["scenario", "unruh", "--detector-d2"],
    ["graph", "--scenario-file", "SCENARIO", "--slice", "1:U|D", "--slice", "3:U|D"],
    ["stat-bound", "--seed", "3", "--n", "3", "--p", "0.2,0.3,0.5", "--N", "12",
     "--eps", "0.1", "--sweep", "--sweep-draws", "1", "--format", "csv", "--output", "OUT"],
    ["wavepacket", "--separations", "4,8", "--sigma", "1", "--momentum", "2",
     "--n-points", "1024", "--length", "100", "--snapshot", "SNAP", "--format", "json",
     "--output", "OUT"],
    ["audit", "--scenario-file", "SCENARIO", "--output", "OUT"],
    ["typicality", "--scenario-file", "SCENARIO", "--s1", "1:U", "--s2", "3:D",
     "--output", "OUT"],
]


def parse_outcome(parse, argv):
    """The repr of the Namespace ``parse(argv)`` returns (reprs, since NaN !=
    NaN), or the exit code, stdout and stderr with which argparse exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return repr(parse(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def full_parse(argv):
    return build_parser().parse_args(argv)


# Each valued option of each command, and the words that make the rest of a
# line well formed; 'F' is never read.
VALUED_OPTIONS = [
    (command, flag)
    for command, (_, _, rows) in cli._COMMANDS.items()
    for (flag,), kwargs in rows
    if flag.startswith("--") and kwargs.get("action") != "store_true"
]
REQUIRED_WORDS = {
    "scenario": ["unruh"],
    "typicality": ["--scenario-file", "F", "--s1", "1:U", "--s2", "3:D"],
    "graph": ["--scenario-file", "F", "--slice", "1:U|D"],
    "audit": ["--scenario-file", "F"],
}


@st.composite
def any_command_lines(draw):
    """A fuzz command line, one in three behind -h, --help or --version."""
    argv = draw(command_lines())
    return draw(st.sampled_from([[]] * 6 + [["-h"], ["--help"], ["--version"]])) + argv


class TestCommandParser:
    """``main`` parses with ``parse_command_line``, which takes one of two
    paths: it reads a well-formed line from the option rows, and gives any
    other to the full parser, which is the reference."""

    @settings(max_examples=600, deadline=None)
    @example([])
    @example(["audit", "--scenario-file", "F", "--=x"])
    @example(["stat-bound", "--n", "2", "--n", "3"])
    @example(["stat-bound", "--n", "-1"])
    @example(["audit", "--scenario-file", "--"])
    @example(["scenario", "--export", "unruh"])
    @example(["wavepacket", "--snapshot", "", "--momentum=--"])
    @given(any_command_lines())
    def test_same_outcome_as_the_full_parser(self, argv):
        """Except that an option the full parser hands over as [] (one written
        '--opt=--') is refused, as '--opt' alone is."""
        reference = parse_outcome(full_parse, argv)
        if isinstance(reference, str) and "[]" in reference:
            code, out, err = parse_outcome(parse_command_line, argv)
            assert (code, out) == (2, "") and "expected one argument" in err
        else:
            assert parse_outcome(parse_command_line, argv) == reference

    @pytest.mark.parametrize("command, flag", VALUED_OPTIONS, ids=map(" ".join, VALUED_OPTIONS))
    def test_a_value_written_as_equals_dashes_is_refused(self, command, flag):
        argv = [command, *REQUIRED_WORDS.get(command, []), flag + "=--"]
        code, out, err = parse_outcome(main, argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"qtypicality {command}: error: argument {flag}: expected one argument\n")
        assert err == parse_outcome(full_parse, argv[:-1] + [flag])[2]

    @pytest.mark.parametrize("argv", TOP_LEVEL_ARGVS, ids=" ".join)
    def test_top_level_text_is_the_full_parsers(self, argv):
        code, out, err = parse_outcome(main, argv)
        assert (code, out, err) == parse_outcome(full_parse, argv)
        if code == 2 and argv[:1] == ["audit"]:
            assert EVERY_COMMAND in err  # the top-level usage line

    @pytest.mark.parametrize("argv", WELL_FORMED, ids=lambda argv: argv[0])
    def test_a_well_formed_call_builds_no_parser(self, capsys, monkeypatch, tmp_path,
                                                 exported, argv):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        argv = fill(argv, SCENARIO=exported, OUT=tmp_path / "out", SNAP=tmp_path / "snap.csv")
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert built == []

    def test_an_abbreviated_call_reads_as_the_exact_one(self, capsys, exported):
        exact = run(capsys, "audit", "--scenario-file", exported)
        assert exact[0] == 0, exact[2]
        assert run(capsys, "audit", "--scen", exported) == exact

    @pytest.mark.parametrize(
        "argv", [["stat-bound", "--p", "0.5,x"], ["wavepacket", "--separations", "4,"]]
    )
    def test_bad_float_list_names_its_type(self, argv):
        code, out, err = parse_outcome(main, argv)
        assert (code, out) == (2, "")
        assert f"invalid float_list value: {argv[-1]!r}" in err


def stdlib_json(data):
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


class Kind(str, enum.Enum):
    WHICH = "which-way \u00e9\n"
    BORN = "Born"


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 0.1]
BIG_INTS = [2**64, -(2**64) - 1, 2**200, 0, 1, -1]
finite = st.floats(allow_nan=False, allow_infinity=False)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(BIG_INTS),
    finite,
    st.sampled_from(SPECIAL_FLOATS),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F)),  # control characters
    finite.map(np.float64),
    st.sampled_from(list(Kind)),
)
# Control characters, quotes, backslashes and non-ASCII: every escape the encoder writes.
escaped_text = st.text(
    alphabet=st.characters(max_codepoint=0x1F) | st.sampled_from('"\\/\u2028\u00e9\U0001f600')
)
# Cells of one scalar type, for tables of equal-width list rows.
table_cells = [
    st.integers() | st.sampled_from(BIG_INTS),
    finite | st.sampled_from(SPECIAL_FLOATS),
    st.text(max_size=4) | escaped_text,
    st.booleans(),
    st.none(),
]


def tables(cells):
    """One or more list rows of one width (1 to 4), all cells from ``cells``:
    the one-template path."""
    return st.integers(1, 4).flatmap(
        lambda width: st.lists(st.lists(cells, min_size=width, max_size=width),
                               min_size=1, max_size=6)
    )


class Row(list):
    pass


NEAR_MISSES = {
    "ragged": lambda row: row + row[:1],
    "tuple": tuple,
    "empty": lambda row: [],
    "mixed": lambda row: row[:-1] + [0.5 if type(row[-1]) is int else 1],
    "subclass": Row,
}


@st.composite
def near_miss_tables(draw):
    """A table with one more row, a changed copy of one of its rows, that
    takes it off the one-template path."""
    rows = draw(st.one_of(*map(tables, table_cells)))
    k = draw(st.integers(0, len(rows) - 1))
    rows.insert(k, NEAR_MISSES[draw(st.sampled_from(sorted(NEAR_MISSES)))](rows[k]))
    return rows


json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        *map(tables, table_cells),
        near_miss_tables(),
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=6),
        # one scalar type per list: the joined fast path
        st.lists(st.integers() | st.sampled_from(BIG_INTS), max_size=6),
        st.lists(finite | st.sampled_from(SPECIAL_FLOATS), max_size=6),
        st.lists(st.text(max_size=4), max_size=6),
        st.lists(st.booleans(), max_size=6),
        st.lists(st.none(), max_size=3),
    ),
    max_leaves=40,
)


class TestReportEncoder:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_bytes_equal_the_stdlib_encoder(self, data):
        assert _json(data) == stdlib_json(data)

    @pytest.mark.parametrize(
        "data",
        [{}, [], (), {"a": []}, [{}], [[[]]], {"k": {"j": {}}}, [True, 1, False, 0],
         [1, 1.0], [np.float64(1.5), 2.5], Kind.WHICH, [Kind.BORN, "Born"],
         {Kind.BORN: 1, "a": 2}, SPECIAL_FLOATS, BIG_INTS, "\x00\x1f\u2028\U0001f600"],
    )
    def test_edge_cases_equal_the_stdlib_encoder(self, data):
        assert _json(data) == stdlib_json(data)

    @pytest.mark.parametrize(
        "data",
        [[[2**200, -1], [0, 2**64]], [[-0.0, 5e-324], [1e308, 0.1]], [['"\\', "\x00\u2028"]],
         [[True, False]] * 3, [[None]] * 2, [[[1, 2]], [[3, 4]]],
         [[1, 2], [3]], [[1, 2], (3, 4)], [[], []], [[1], []], [[1, 2.0], [3, 4.0]],
         [[1, 2], [3.5, 4.5]], [[1, True]], [[0, 1], [True, False]], [Row([1, 2]), [3, 4]],
         [Row([1, 2]), Row([3, 4])], [[Kind.BORN, "Born"]], [[np.float64(1.5), 2.5]]],
    )
    def test_tables_and_near_misses_equal_the_stdlib_encoder(self, data):
        assert _json(data) == stdlib_json(data)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_table_cell_raises_as_the_generic_path(self, bad):
        # Row-major order: the first non-finite cell is named, as when each
        # row (here a tuple, so not a table) is encoded on its own.
        table = [[0.5, 1.5], [2.5, bad], [-bad, 3.5]]
        with pytest.raises(ValueError) as raised:
            _json(table)
        with pytest.raises(ValueError) as generic:
            _json(list(map(tuple, table)))
        assert str(raised.value) == str(generic.value)
        assert str(raised.value).endswith(repr(bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    @pytest.mark.parametrize(
        "place", [lambda x: x, lambda x: [x], lambda x: [0.5, x], lambda x: [1, x],
                  lambda x: {"a": {"b": x}}],
    )
    def test_non_finite_float_raises_value_error(self, bad, place):
        with pytest.raises(ValueError):
            _json(place(bad))

    @pytest.mark.parametrize("data", [{1: "a"}, {True: 1}, {None: 1}, {1.5: 1},
                                      {"a": {2: 3}}, [{"a": 1, 2: 3}]])
    def test_non_string_key_raises_type_error(self, data):
        # json.dumps would convert these keys; no report has one.
        with pytest.raises(TypeError):
            _json(data)

    def test_unknown_type_raises_type_error(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            _json({"a": object()})

    def test_does_not_call_the_stdlib_encoder(self, monkeypatch):
        monkeypatch.setattr(json, "dumps", pytest.fail)
        assert _json({"b": [1.5, 2], "a": None}) == '{\n  "a": null,\n  "b": [\n    1.5,\n    2\n  ]\n}\n'

    def test_export_bytes_equal_the_stdlib_encoder(self, capsys, tmp_path):
        path = tmp_path / "unruh.json"
        code, _, err = run(capsys, "scenario", "unruh", "--export", str(path))
        assert code == 0, err
        structure = build_unruh().structure
        data = structure_to_dict(structure)
        data["stochastic"] = process_to_dict(matched_markov_chain(structure))
        assert path.read_bytes() == stdlib_json(data).encode()

    def test_graph_report_bytes_equal_the_stdlib_encoder(self, capsys, exported):
        code, out, err = run(capsys, "graph", "--scenario-file", exported, *UNRUH_SLICES)
        assert code == 0, err
        assert out == stdlib_json(json.loads(out))


@st.composite
def coded_tables(draw):
    """Codes of 0 to 6 rows and width 0 to 6 over int or escaped str values."""
    values = draw(
        st.lists(st.integers() | st.sampled_from(BIG_INTS), min_size=1, max_size=6)
        | st.lists(escaped_text | st.text(max_size=4), min_size=1, max_size=6)
        | st.integers(1, 6).map(range)
    )
    shape = (draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    codes = draw(st.lists(st.integers(0, len(values) - 1),
                          min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return np.array(codes, dtype=np.intp).reshape(shape), values


def nested(value, keys):
    """``value`` under ``keys``, one dict level per key."""
    for key in reversed(keys):
        value = {key: value, key + "!": 0}
    return value


class TestCodedTableText:
    @settings(max_examples=300, deadline=None)
    @given(coded_tables(), st.lists(st.text(max_size=3), min_size=2, max_size=4))
    def test_text_equals_the_stdlib_encoder_of_the_rows(self, table, keys):
        codes, values = table
        rows = [[values[c] for c in row] for row in codes.tolist()]
        text = _json(nested(core.CodedTable(codes, values), keys))
        assert text == stdlib_json(nested(rows, keys))
        # A value no cell refers to is never encoded, not even one that cannot be.
        unused = [*values, math.nan, "\x00", 2**70]
        assert _json(nested(core.CodedTable(codes, unused), keys)) == text

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_referenced_non_finite_value_raises(self, bad):
        table = core.CodedTable(np.array([[0, 1]], dtype=np.intp), [0.5, bad])
        with pytest.raises(ValueError, match="not JSON compliant"):
            _json({"a": {"b": table}})

    def test_graph_tables_expand_to_the_paths_and_their_names(self):
        model = build_unruh(with_detector_d2=True)
        graph = build_graph(model.structure, model.partition_schedule())
        data = graph.to_dict()
        paths, names = data["paths"], data["path_names"]
        assert paths.codes.dtype == np.intp and paths.codes is names.codes
        assert paths.codes.tolist() == list(map(list, graph.paths))
        assert [[names.values[c] for c in row] for row in names.codes.tolist()] == [
            list(graph.node_names(p)) for p in graph.paths
        ]
