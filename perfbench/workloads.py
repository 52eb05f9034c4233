"""Seeded request generators for the benchmark's workloads.

Each generator takes the seed and a work directory, writes the scenario
files its requests read, and returns a ``Plan``: the distinct requests and
the fixed order in which one pass issues them. Sizes (dimensions, step
counts, cell counts, request counts) are fixed per workload; the seed only
draws matrix entries, states, probabilities, thresholds and the shuffle, so
every seed asks the program for the same amount of work.

A request is one call into a public entry point:

* ``{"kind": "cli", "argv": [...]}`` runs ``qtypicality.cli.main(argv)``
  with ``--output`` pointing at the request's report file;
* ``{"kind": "lib", "call": ..., "spec": ...}`` runs one library function
  of the statistics chain (see ``worker.LIB_CALLS``).

Every request also names the output check the worker runs on it.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("audit", "trajectory", "statistics", "cli_mix")


@dataclass
class Plan:
    requests: dict  # request id -> request dict
    order: list  # request ids, in the order one pass issues them


# -- random quantum structures ----------------------------------------------


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def small_angle_unitary(rng: np.random.Generator, d: int, angle: float) -> np.ndarray:
    """exp(i * angle * H) for a random Hermitian H of unit spectral radius."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (z + z.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    w = w / np.abs(w).max()
    return (v * np.exp(1j * angle * w)) @ v.conj().T


def equal_cells(d: int, n_cells: int) -> dict:
    size = d // n_cells
    return {f"c{c}": list(range(c * size, (c + 1) * size)) for c in range(n_cells)}


def _complex_out(arr: np.ndarray):
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def write_scenario(path: str, psi0, schedule, cells: dict) -> None:
    """Write a scenario file without a ``stochastic`` section."""
    data = {
        "dim": int(psi0.shape[0]),
        "psi0": _complex_out(psi0),
        "schedule": [_complex_out(m) for m in schedule],
        "cells": cells,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def haar_scenario(rng, path, d, n_steps, n_cells) -> None:
    write_scenario(
        path,
        random_state(rng, d),
        [haar_unitary(rng, d) for _ in range(n_steps)],
        equal_cells(d, n_cells),
    )


def near_classical_scenario(rng, path, d, n_steps, n_cells, angle) -> None:
    """Steps are a cell permutation times a small-angle unitary.

    Each cell's branch follows the permutation with a little leakage, so
    branches stay mutually typical across several steps and the trajectory
    graph has forced links and few admissible paths.
    """
    size = d // n_cells
    schedule = []
    for _ in range(n_steps):
        perm = rng.permutation(n_cells)
        image = np.concatenate([np.arange(size) + perm[c] * size for c in range(n_cells)])
        p = np.zeros((d, d), dtype=complex)
        p[image, np.arange(d)] = 1.0
        schedule.append(p @ small_angle_unitary(rng, d, angle))
    write_scenario(path, random_state(rng, d), schedule, equal_cells(d, n_cells))


def _singleton_slices(times, n_cells) -> list:
    region = "|".join(f"c{c}" for c in range(n_cells))
    return [arg for t in times for arg in ("--slice", f"{t}:{region}")]


# -- workloads --------------------------------------------------------------

# Every request takes well under a second so that it repeats dozens of
# times a run; see README.md for why only short requests time steadily.
AUDIT_DIM, AUDIT_STEPS, AUDIT_CELLS, AUDIT_FILES = 32, 5, 4, 3
NEAR_DIM, NEAR_STEPS, NEAR_CELLS, NEAR_TIMES = 32, 10, 8, (2, 4, 6, 8, 10)
NEAR_ANGLE = 0.15
HAAR_DIM, HAAR_STEPS, HAAR_CELLS, HAAR_TIMES = 16, 6, 4, (1, 2, 3, 4, 5)
TRAJECTORY_PAIRS = 2
CHAIN_N = 12
TWO, THREE = (0.4, 0.6), (0.2, 0.3, 0.5)  # outcome probabilities before jitter
STAT_BOUND_SMALL = ((THREE, 100, 0.03), (THREE, 150, 0.03))
STAT_BOUND_LARGE = ((TWO, 1500, 0.02), (TWO, 2000, 0.02))


def _cli(path_of, rid, argv, check) -> dict:
    return {
        "kind": "cli",
        "argv": list(argv) + ["--output", path_of(f"{rid}.report.json")],
        "check": check,
    }


def _probs(rng, base) -> list:
    """``base`` moved by up to 0.02 per outcome, so every seed asks for the
    same amount of work; six decimals keep the CLI argument exact."""
    p = [round(b + float(rng.uniform(-0.02, 0.02)), 6) for b in base[:-1]]
    return p + [round(1.0 - sum(p), 6)]


def _stat_bound(path_of, rid, rng, base, big_n, eps) -> dict:
    p = _probs(rng, base)
    argv = ["stat-bound", "--n", str(len(p)), "--p", ",".join(repr(x) for x in p),
            "--N", str(big_n), "--eps", repr(eps)]
    return _cli(path_of, rid, argv, {"type": "stat_bound", "n": len(p), "p": p,
                                     "N": big_n, "eps": eps})


def plan_audit(rng, path_of) -> Plan:
    requests = {}
    for i in range(AUDIT_FILES):
        scenario = path_of(f"audit{i}.scenario.json")
        haar_scenario(rng, scenario, AUDIT_DIM, AUDIT_STEPS, AUDIT_CELLS)
        requests[f"audit{i}"] = _cli(
            path_of, f"audit{i}", ["audit", "--scenario-file", scenario],
            {"type": "audit", "scenario": scenario, "sample_pairs": 8,
             "sample_seed": int(rng.integers(2**31))},
        )
    return Plan(requests, list(requests))


def plan_trajectory(rng, path_of) -> Plan:
    """Near-classical and Haar-random structures, alternating."""
    requests = {}
    for i in range(TRAJECTORY_PAIRS):
        near = path_of(f"near{i}.scenario.json")
        near_classical_scenario(rng, near, NEAR_DIM, NEAR_STEPS, NEAR_CELLS, NEAR_ANGLE)
        requests[f"near{i}"] = _cli(
            path_of, f"near{i}",
            ["graph", "--scenario-file", near] + _singleton_slices(NEAR_TIMES, NEAR_CELLS),
            {"type": "graph", "scenario": near},
        )
        haar = path_of(f"haar{i}.scenario.json")
        haar_scenario(rng, haar, HAAR_DIM, HAAR_STEPS, HAAR_CELLS)
        requests[f"haar{i}"] = _cli(
            path_of, f"haar{i}",
            ["graph", "--scenario-file", haar] + _singleton_slices(HAAR_TIMES, HAAR_CELLS),
            {"type": "graph", "scenario": haar},
        )
    return Plan(requests, list(requests))


def plan_statistics(rng, path_of) -> Plan:
    requests = {}
    spec = {"n": 2, "p": _probs(rng, TWO), "N": CHAIN_N, "eps": 0.05}
    for call in ("build_measurement_chain", "typical_region",
                 "exclusion_measure", "typical_set_complement_mass"):
        requests[f"chain.{call}"] = {
            "kind": "lib", "call": call, "spec": spec, "group": "chain",
            "check": {"type": "chain"},
        }
    # The large-N requests crash with OverflowError in the exact-integer
    # tail sum; they stay in the traffic and count as failed requests.
    for base, big_n, eps in STAT_BOUND_SMALL + STAT_BOUND_LARGE:
        rid = f"bound{len(base)}_{big_n}"
        requests[rid] = _stat_bound(path_of, rid, rng, base, big_n, eps)
    return Plan(requests, list(requests))


def plan_cli_mix(rng, path_of) -> Plan:
    """1000 small requests a pass, every subcommand, in a seeded order."""
    pool: dict = {}  # request id -> (request, copies per pass)
    builtin = [
        ("unruh", ["scenario", "unruh"]),
        ("unruh_d2", ["scenario", "unruh", "--detector-d2"]),
        ("unruh_u1", ["scenario", "unruh", "--obstacle", "U1"]),
        ("unruh_d1", ["scenario", "unruh", "--obstacle", "D1"]),
        ("fig1", ["scenario", "fig1"]),
        ("nonadd", ["scenario", "nonadditivity"]),
    ]
    for rid, argv in builtin:
        pool[rid] = (_cli(path_of, rid, argv, {"type": "scenario", "name": rid}), 50)
    for i, d in enumerate((8, 16, 32, 8, 16, 32)):
        n_steps, n_cells = 4, 4
        scenario = path_of(f"typ{i}.scenario.json")
        haar_scenario(rng, scenario, d, n_steps, n_cells)
        s1 = f"{int(rng.integers(0, n_steps + 1))}:c{int(rng.integers(n_cells))}"
        s2 = f"{int(rng.integers(0, n_steps + 1))}:c{int(rng.integers(n_cells))},c{int(rng.integers(n_cells))}"
        pool[f"typ{i}"] = (_cli(
            path_of, f"typ{i}",
            ["typicality", "--scenario-file", scenario, "--s1", s1, "--s2", s2],
            {"type": "typicality", "scenario": scenario, "s1": s1, "s2": s2},
        ), 50)
    for i, d in enumerate((16, 32)):
        scenario = path_of(f"gra{i}.scenario.json")
        haar_scenario(rng, scenario, d, 4, 4)
        pool[f"gra{i}"] = (_cli(
            path_of, f"gra{i}",
            ["graph", "--scenario-file", scenario] + _singleton_slices((1, 2, 4), 4),
            {"type": "graph", "scenario": scenario},
        ), 50)
    for i, d in enumerate((16, 32)):
        scenario = path_of(f"aud{i}.scenario.json")
        haar_scenario(rng, scenario, d, 4, 4)
        pool[f"aud{i}"] = (_cli(
            path_of, f"aud{i}", ["audit", "--scenario-file", scenario],
            {"type": "audit", "scenario": scenario, "sample_pairs": 4,
             "sample_seed": int(rng.integers(2**31))},
        ), 24)
    for i in range(4):
        rid = f"sb{i}"
        pool[rid] = (_stat_bound(path_of, rid, rng, TWO, 16 + 4 * i, 0.05), 40)
    pool["wave"] = (_cli(path_of, "wave", ["wavepacket"], {"type": "wavepacket"}), 92)

    order = [rid for rid, (_, copies) in pool.items() for _ in range(copies)]
    rng.shuffle(order)
    return Plan({rid: req for rid, (req, _) in pool.items()}, order)


PLANNERS = {
    "audit": plan_audit,
    "trajectory": plan_trajectory,
    "statistics": plan_statistics,
    "cli_mix": plan_cli_mix,
}


def make_plan(workload: str, seed: int, workdir: str) -> Plan:
    """Write the workload's input files under ``workdir`` and return its plan."""
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    def path_of(name: str) -> str:
        return os.path.join(workdir, name)

    return PLANNERS[workload](rng, path_of)
