"""Benchmark of the qtypicality package, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md). Every line before the last is for
people; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The program is imported from ``src/`` of the
checkout; nothing is installed. Besides Python's bytecode caches, a run
writes only under ``.perfbench_work/`` (inputs, removed at exit) and
``.perfbench_out/`` (a result record per run and the spans of traced runs).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("audit", "trajectory", "statistics", "cli_mix")
SETUP_SPAWNS = 11
RUN_LIMIT_S = 170.0  # a run must end within 180 s
HERE = os.path.dirname(os.path.abspath(__file__))


class RunError(Exception):
    pass


def pinned_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(root: str, env: dict) -> list:
    """Wall time of fresh interpreters importing the CLI module."""
    cmd = [sys.executable, "-c", "import qtypicality.cli"]
    subprocess.run(cmd, cwd=root, env=env, check=True, timeout=60)  # writes bytecode once
    times = []
    for _ in range(SETUP_SPAWNS):
        # No timeout here: waiting with one polls in steps of up to 50 ms,
        # which would round every spawn time to that grid.
        start = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


# -- output checks ------------------------------------------------------------


def verdicts(plan, reports: dict) -> dict:
    """request id -> None when its first report passed its checks, else why.

    ``checks`` loads numpy, so it is imported only after ``main`` has
    pinned the thread variables.
    """
    import checks

    out = {}
    for rid, first in reports.items():
        try:
            check(checks, plan.requests[rid], first, reports)
            out[rid] = None
        except checks.CheckFailed as exc:
            out[rid] = f"check: {exc}"
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            out[rid] = f"check: malformed report: {exc!r}"
    return out


def check(c, req, first, reports) -> None:
    import numpy as np

    spec = req["check"]
    if "summary" in first:
        check_lib(c, req, c.strict_json(first["summary"]), reports)
        return
    with open(first["path"], encoding="utf-8") as fh:
        report = c.strict_json(fh.read())
    results = report["results"]
    kind = spec["type"]
    if kind == "audit":
        c.check_audit(results, c.Oracle(spec["scenario"]),
                      np.random.default_rng(spec["sample_seed"]), spec["sample_pairs"])
    elif kind == "graph":
        c.check_graph(report, c.Oracle(spec["scenario"]))
    elif kind == "typicality":
        c.check_typicality(report, c.Oracle(spec["scenario"]))
    elif kind == "stat_bound":
        c.check_stat_bound(results, spec)
    elif kind == "scenario":
        c.check_scenario(spec["name"], results)
    elif kind == "wavepacket":
        c.check_wavepacket(results, report["config"]["separations"])
    else:
        raise c.CheckFailed(f"no check for {kind!r}")


def check_lib(c, req, summary, reports) -> None:
    """Checks of the statistics chain's library requests."""
    d = req["spec"]
    n, big_n, eps, probs = d["n"], d["N"], d["eps"], d["p"]
    call = req["call"]
    if call == "build_measurement_chain":
        c.require(summary == {"dim": n**big_n, "n_steps": big_n, "cells": n**big_n},
                  f"chain shape {summary}")
    elif call == "typical_region":
        c.require(summary["size"] == c.typical_count(probs, big_n, eps),
                  f"typical region has {summary['size']} sequences")
    else:
        c.close(summary["mass"], c.tail_mass(n, probs, big_n, eps), c.ORACLE_TAIL_TOL,
                f"{call} mass")
        c.require(summary["mass"] <= 1.0 / (eps * big_n), f"{call} {summary['mass']} above 1/(eps N)")
        if call == "typical_set_complement_mass":
            excl = reports.get(f"{req['group']}.exclusion_measure")
            c.require(excl is not None, "no exclusion measure to compare with")
            c.close(summary["mass"], json.loads(excl["summary"])["mass"], c.TAIL_TOL,
                    "complement mass vs exclusion measure")


# -- metrics ------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(root: str, name: str, seed: int, seconds: int, traced: bool) -> dict:
    import workloads

    started = time.perf_counter()
    env = pinned_env(root)
    workdir = os.path.join(".perfbench_work", f"{name}-s{seed}")
    outdir = ".perfbench_out"
    os.makedirs(outdir, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup = None if traced else measure_setup(root, env)
        plan = workloads.make_plan(name, seed, workdir)
        plan_path = os.path.join(workdir, "plan.json")
        result_path = os.path.join(workdir, "result.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump({"requests": plan.requests, "order": plan.order, "seconds": seconds,
                       "trace": traced,
                       "spans_path": os.path.join(outdir, f"spans-{name}-s{seed}.jsonl")}, fh)
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path,
                               result_path], cwd=root, env=env, timeout=budget)
        if proc.returncode != 0:
            raise RunError(f"worker exited with code {proc.returncode}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        checked = verdicts(plan, result["reports"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, incorrect, errors = tally(result["passes"], checked)
    plain = [p for p in result["passes"] if not p["traced"]]
    best = best_times(plain)
    list_times = [best[rid] for rid in plan.order]
    ok = sum(1 for p in plain for r in p["requests"] if r[2] == "ok")
    issued = sum(len(p["requests"]) for p in plain)
    if traced:
        metrics = layer_summary(result, sum(list_times), plan.order)
        samples = {"passes": len(result["layers"])}
    else:
        ratios = ref_ratios(plain)
        list_refs = [ratios[rid] for rid in plan.order]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_ref": (sum(list_refs), "ref"),
            "request_ref.p50": (statistics.median(list_refs), "ref"),
            "request_ref.p99": (percentile(list_refs, 0.99), "ref"),
            "ok_frac": (ok / issued, "ratio"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        refs = [r[3] for p in plain for r in p["requests"]]
        samples = {"setup_spawns": setup, "passes": len(plain),
                   "requests_per_pass": len(plan.order), "issued": issued,
                   "repeats": min(len(plain) * plan.order.count(rid) for rid in best),
                   "ref_s.median": statistics.median(refs),
                   "fastest_wall_s": sum(list_times)}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": traced,
        "correct": not incorrect, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "errors": errors, "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": result["passes"],
    }


def tally(passes: list, checked: dict) -> tuple:
    """Mark each request record with its final status; count the failures.

    Returns (attempted, failed, ids whose output was wrong, first error by id).
    """
    attempted = failed = 0
    incorrect, errors = set(), {}
    for p in passes:
        for record in p["requests"]:
            rid, status = record[0], record[2]
            if status == "ok" and checked.get(rid):
                status = record[2] = checked[rid]
            attempted += 1
            if status != "ok":
                failed += 1
                errors.setdefault(rid, status)
                if status.startswith("check:"):
                    incorrect.add(rid)
    return attempted, failed, incorrect, errors


def best_times(passes: list) -> dict:
    """request id -> its fastest time over every repeat in ``passes``."""
    best: dict = {}
    for p in passes:
        for rid, dt, *_ in p["requests"]:
            best[rid] = min(dt, best.get(rid, math.inf))
    return best


def ref_ratios(passes: list) -> dict:
    """request id -> median over its repeats of its time in references.

    Each repeat's time is divided by the reference time the worker took
    just before it, so that a phase in which the host runs slow cancels.
    """
    ratios: dict = {}
    for p in passes:
        for rid, dt, _, ref in p["requests"]:
            ratios.setdefault(rid, []).append(dt / ref)
    return {rid: statistics.median(r) for rid, r in ratios.items()}


def layer_summary(result: dict, plain_wall: float, order: list) -> dict:
    import tracing

    layers = result["layers"]
    traced = best_times([p for p in result["passes"] if p["traced"]])
    out = {}
    for name, unit, _ in tracing.LAYER_METRICS:
        if name == "trace.overhead_s":
            value = sum(traced[rid] for rid in order) - plain_wall
        elif unit == "s":
            value = statistics.median(layer[name] for layer in layers)
        else:  # counts and ratios repeat exactly from pass to pass
            value = layers[0][name]
        out[name] = (value, unit)
    return out


def describe(summary: dict) -> list:
    name, s = summary["workload"], summary["samples"]
    lines = [
        f"{name}: {summary['attempted']} requests attempted, {summary['failed']} failed "
        f"(failed_frac {summary['failed_frac']:.4f}), outputs "
        + ("correct" if summary["correct"] else "INCORRECT")
    ]
    notes = {
        "setup_s": f"median of {len(s.get('setup_spawns') or ())} interpreter spawns",
        "wall_ref": f"sum over {s.get('requests_per_pass')} requests of each one's median of {s.get('repeats')}+ repeats",
        "request_ref.p50": f"n={s.get('requests_per_pass')}",
        "request_ref.p99": f"n={s.get('requests_per_pass')}"
        + ("" if (s.get("requests_per_pass") or 0) >= 1000 else " (under 1000: not a tail estimate)"),
    }
    for metric, m in summary["metrics"].items():
        note = notes.get(metric, f"traced passes={s.get('passes')}" if summary["trace"] else "")
        lines.append(f"  {name} {metric:<30} {m['value']:<14.6g} {m['unit']:<6} {note}")
    if "ref_s.median" in s:
        lines.append(f"  {name} 1 ref = {s['ref_s.median'] * 1e3:.3f} ms (median reference time); "
                     f"fastest repeats sum to {s['fastest_wall_s']:.4f} s")
    for rid, status in list(summary["errors"].items())[:10]:
        lines.append(f"  {name} failed request {rid}: {status[:200]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qtypicality", "cli.py")):
        sys.stderr.write("perfbench: run from the repository root (no src/qtypicality here)\n")
        return 2
    # Pin BLAS/OpenMP threads before numpy loads, here and in every child.
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, os.path.join(root, "src"))

    env = environment()
    print(f"perfbench seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            summary = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            summary["env"] = env
            record = os.path.join(".perfbench_out", f"{name}-s{args.seed}-trace{args.trace}.json")
            with open(record, "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=1, sort_keys=True)
            print("\n".join(describe(summary)), flush=True)
            summaries.append(summary)
    except (RunError, subprocess.SubprocessError, OSError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
