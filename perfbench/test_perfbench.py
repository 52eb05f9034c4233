"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qtypicality import cli, core  # noqa: E402
from qtypicality.core import ProjectedVector  # noqa: E402


def test_self_times_on_synthetic_span_tree():
    # r [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9];
    # c [11, 12] is a second root in another request.
    spans = [
        (-1, 0, "r", 0.0, 10.0),
        (0, 0, "a", 1.0, 4.0),
        (1, 0, "a1", 2.0, 3.0),
        (0, 0, "b", 5.0, 9.0),
        (-1, 1, "c", 11.0, 12.0),
    ]
    own = tracing.self_times(spans)
    assert own == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert sum(own) == (10.0 - 0.0) + (12.0 - 11.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert run.percentile(values, 0.99) == 990
    assert run.percentile([3.0], 0.99) == 3.0


def test_ref_ratios_take_each_requests_median_over_its_repeats():
    passes = [
        {"requests": [["a", 2.0, "ok", 1.0], ["b", 1.0, "ok", 1.0]]},
        {"requests": [["a", 6.0, "ok", 2.0], ["b", 9.0, "ok", 3.0]]},
        {"requests": [["a", 8.0, "ok", 2.0], ["b", 1.0, "ok", 0.5]]},
    ]
    assert run.ref_ratios(passes) == {"a": 3.0, "b": 2.0}


def _small_scenarios(tmp_path) -> tuple:
    rng = np.random.default_rng(7)
    haar = str(tmp_path / "haar.json")
    workloads.haar_scenario(rng, haar, 8, 3, 4)
    near = str(tmp_path / "near.json")
    workloads.near_classical_scenario(rng, near, 16, 4, 4, 0.1)
    return haar, near


def _argvs(tmp_path) -> list:
    haar, near = _small_scenarios(tmp_path)
    return [
        ["scenario", "unruh"],
        ["scenario", "unruh", "--detector-d2"],
        ["scenario", "unruh", "--obstacle", "U1"],
        ["scenario", "fig1"],
        ["scenario", "nonadditivity"],
        ["typicality", "--scenario-file", haar, "--s1", "1:c0", "--s2", "3:c1,c2"],
        ["graph", "--scenario-file", near, "--slice", "1:c0|c1|c2|c3",
         "--slice", "2:c0|c1|c2|c3", "--slice", "4:c0|c1|c2|c3"],
        ["audit", "--scenario-file", haar],
        ["stat-bound", "--n", "3", "--p", "0.2,0.3,0.5", "--N", "30", "--eps", "0.05"],
        ["wavepacket", "--separations", "4,8"],
    ]


def _reports(tmp_path, argvs, tracer=None) -> list:
    out = []
    for i, argv in enumerate(argvs):
        path = tmp_path / f"report{i}.json"
        if tracer is not None:
            tracer.request = i
        try:
            assert cli.main(argv + ["--output", str(path)]) == 0
        finally:
            if tracer is not None:
                tracer.request = None
        out.append(path.read_bytes())
    return out


def _namespace_snapshot() -> dict:
    snap = {}
    for name in tracing.PACKAGE_MODULES:
        module = tracing._module(name)
        snap[name] = dict(vars(module))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("qtypicality"):
                snap[f"{name}:{value.__name__}"] = dict(vars(value))
    return snap


def test_wrappers_leave_reports_byte_identical(tmp_path):
    argvs = _argvs(tmp_path)
    plain = _reports(tmp_path, argvs)
    before = _namespace_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _namespace_snapshot() != before
        traced = _reports(tmp_path, argvs, tracer)
    finally:
        tracer.remove()
    assert traced == plain
    assert _namespace_snapshot() == before
    assert _reports(tmp_path, argvs) == plain

    names = {span[2] for span in tracer.spans}
    # Imported-by-value names are wrapped too: the sweep reaches
    # report_from_masses through wavepacket's own binding.
    assert "typicality.report_from_masses" in names
    assert {"cli.main", "core.evolve", "graph.build_graph", "stochastic.correspondence_audit",
            "stats.typical_set_complement_mass", "wavepacket.free_evolve"} <= names
    layers = tracer.layer_metrics(report_bytes=sum(map(len, plain)))
    assert layers["cli.report_bytes"] == sum(map(len, plain))
    assert layers["stochastic.twin_steps"] > 0
    assert 0.0 < layers["core.project_distinct_frac"] <= 1.0


def test_step_counts_come_from_arguments(tmp_path):
    haar, _ = _small_scenarios(tmp_path)
    structure, _ = core.load_scenario(haar)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.request = 0
        state = core.evolve(structure, ProjectedVector(structure.psi0, 0), 3)
        core.evolve(structure, state, 1)
    finally:
        tracer.request = None
        tracer.remove()
    assert tracer.counts["core.steps_applied"] == 3
    assert tracer.counts["core.steps_applied_adjoint"] == 2
    assert tracer.counts["core.step_bytes_computed"] == 5 * 8 * 8 * 16
    assert [span[2] for span in tracer.spans] == ["core.evolve", "core.evolve"]


def _fingerprint(plan, workdir: pathlib.Path) -> str:
    text = json.dumps({"requests": plan.requests, "order": plan.order}, sort_keys=True)
    text = text.replace(str(workdir), "<dir>")
    files = sorted(
        (p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in workdir.iterdir()
    )
    return text + json.dumps(files)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    prints = []
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        workdir = tmp_path / label
        prints.append(_fingerprint(workloads.make_plan(name, seed, str(workdir)), workdir))
    assert prints[0] == prints[1]
    assert prints[0] != prints[2]


def test_graph_check_catches_a_dropped_path(tmp_path):
    _, near = _small_scenarios(tmp_path)
    report_path = tmp_path / "graph.json"
    argv = ["graph", "--scenario-file", near] + workloads._singleton_slices((1, 2, 3, 4), 4)
    assert cli.main(argv + ["--output", str(report_path)]) == 0
    report = checks.strict_json(report_path.read_text())
    oracle = checks.Oracle(near)
    checks.check_graph(report, oracle)
    assert report["results"]["paths"]
    report["results"]["paths"].pop()
    report["results"]["path_names"].pop()
    with pytest.raises(checks.CheckFailed):
        checks.check_graph(report, oracle)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_strict_json_rejects_non_finite_numbers(token):
    with pytest.raises(checks.CheckFailed):
        checks.strict_json('{"m_small": %s}' % token)


def test_benchmark_manifest_matches_the_harness():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        tuple(m) for m in tracing.LAYER_METRICS
    ]
