import csv
import io
import json
import math

import pytest

from qtypicality import PartitionSchedule, build_graph, build_unruh, load_scenario
from qtypicality.cli import main, parse_slice

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

    def test_determinism(self, capsys):
        first = run(capsys, "scenario", "unruh")[1]
        second = run(capsys, "scenario", "unruh")[1]
        assert first == second

    def test_report_matches_schema(self, capsys, repo_root):
        jsonschema = pytest.importorskip("jsonschema")
        payload = run_json(capsys, "scenario", "unruh")
        schema = json.loads((repo_root / SCHEMA_DIR / "report.schema.json").read_text())
        jsonschema.validate(payload, schema)


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
        "argv, name",
        [
            (("--sigma", "nan"), "sigma"),
            (("--momentum", "nan"), "momentum"),
            (("--momentum", "inf"), "momentum"),
            (("--momentum", "0"), "momentum"),
            (("--separations", "4,nan"), "separation"),
            (("--length", "nan"), "length"),
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
