"""Output checks and the benchmark's own dense-matrix oracle.

The oracle reads a scenario file itself and builds U(t) as explicit matrix
products, so its projections, measures and cell masses share no code with
the package's evolution engine. Every check raises ``CheckFailed`` with a
reason; the worker counts that request as failed and the run as incorrect.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np

from qtypicality import typicality
from qtypicality.core import QuantumStructure, SSet

MEASURE_TOL = 1e-9  # oracle vs program, measures and masses of order one
TAIL_TOL = 1e-12  # two exact computations of one atypical mass
ORACLE_TAIL_TOL = 1e-10  # exact integers vs log-space terms, up to 1e5 terms
C3_TOL = 1e-10
BORDER_TOL = 1e-9  # values this close to a threshold may fall either way


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def strict_json(text: str):
    """Parse RFC 8259 JSON: ``NaN`` and ``Infinity`` are rejected."""

    def reject(token):
        raise CheckFailed(f"non-finite JSON token {token}")

    try:
        return json.loads(text, parse_constant=reject)
    except ValueError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None


def close(a, b, tol, what) -> None:
    require(a is not None and abs(a - b) <= tol, f"{what}: {a!r} vs oracle {b!r}")


# -- dense oracle -------------------------------------------------------------


def _complex(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


class Oracle:
    """Heisenberg vectors U(t)^dagger E U(t) psi0 from dense matrix products."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.dim = int(data["dim"])
        self.psi0 = _complex(data["psi0"])
        self.steps = [_complex(m) for m in data["schedule"]]
        self.cells = {label: np.asarray(idx) for label, idx in data["cells"].items()}
        self.labels = tuple(self.cells)
        u = np.eye(self.dim, dtype=complex)
        self.u = [u]
        for step in self.steps:
            u = step @ u
            self.u.append(u)
        self.states = [u @ self.psi0 for u in self.u]
        self._vectors: dict = {}

    @property
    def times(self) -> range:
        return range(len(self.u))

    def mask(self, region) -> np.ndarray:
        out = np.zeros(self.dim)
        for label in region:
            out[self.cells[label]] = 1.0
        return out

    def occupation(self, t: int, region) -> float:
        return float(np.sum(np.abs(self.states[t]) ** 2 * self.mask(region)))

    def vector(self, t: int, region) -> np.ndarray:
        key = (t, frozenset(region))
        if key not in self._vectors:
            u = self.u[t]
            self._vectors[key] = u.conj().T @ (self.mask(region) * (u @ self.psi0))
        return self._vectors[key]

    def measure(self, s1, s2):
        """(M, m, |S1 psi0|^2, |S2 psi0|^2) for s-sets given as (time, region)."""
        v1, v2 = self.vector(*s1), self.vector(*s2)
        n1 = float(np.vdot(v1, v1).real)
        n2 = float(np.vdot(v2, v2).real)
        diff = float(np.vdot(v1 - v2, v1 - v2).real)
        hi, lo = max(n1, n2), min(n1, n2)
        return diff / hi, (diff / lo if lo > 0 else math.inf), n1, n2

    def max_nonadditivity(self) -> float:
        """max |mass(t2, l2) - sum over l of chained mass (t1, l) -> (t2, l2)|."""
        ind = np.stack([self.mask([label]) for label in self.labels])
        worst = 0.0
        for t1, t2 in itertools.combinations(self.times, 2):
            branches = np.stack([self.mask([lab]) * self.states[t1] for lab in self.labels], 1)
            moved = self.u[t2] @ self.u[t1].conj().T @ branches
            chained = (ind @ np.abs(moved) ** 2).sum(axis=1)
            total = ind @ np.abs(self.states[t2]) ** 2
            worst = max(worst, float(np.abs(total - chained).max()))
        return worst


def inequality_chain_holds(m_big: float, m_small: float) -> bool:
    """sqrt(M) <= sqrt(m) <= sqrt(M) / (1 - sqrt(M)), and M <= 0.08 => m <= 2M."""
    r_big, r_small = math.sqrt(m_big), math.sqrt(m_small)
    if r_big > r_small + MEASURE_TOL:
        return False
    if r_big < 1.0 and r_small > r_big / (1.0 - r_big) + MEASURE_TOL:
        return False
    return not (m_big <= 0.08 and m_small > 2.0 * m_big + MEASURE_TOL)


def tail_mass(n: int, probs, big_n: int, eps: float) -> float:
    """Atypical mass of the product measure, summed in log space."""
    log_fact = [math.lgamma(k + 1) for k in range(big_n + 1)]
    total = 0.0
    for counts in _compositions(big_n, n):
        if sum((k / big_n - p) ** 2 for k, p in zip(counts, probs)) < eps:
            continue
        if any(k and p == 0.0 for k, p in zip(counts, probs)):
            continue
        log_w = log_fact[big_n] - sum(log_fact[k] for k in counts)
        total += math.exp(log_w + sum(k * math.log(p) for k, p in zip(counts, probs) if k))
    return total


def typical_count(probs, big_n: int, eps: float) -> int:
    """Number of length-N two-outcome sequences inside the deviation cutoff."""
    return sum(
        math.comb(big_n, k)
        for k in range(big_n + 1)
        if (k / big_n - probs[0]) ** 2 + ((big_n - k) / big_n - probs[1]) ** 2 < eps
    )


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


# -- report checks --------------------------------------------------------------


def check_audit(results: dict, oracle: Oracle, rng, samples: int) -> None:
    """c3 and c5 verdicts, c7 against the oracle, and sampled pair measures.

    The sampled pairs are also measured by the program itself, on a
    structure built from the oracle's matrices, and both must agree.
    """
    structure = QuantumStructure(
        oracle.dim, oracle.psi0, oracle.steps,
        {label: idx.tolist() for label, idx in oracle.cells.items()},
    )
    require(results["c3"]["pass"] and results["c3"]["max_error"] <= C3_TOL,
            f"c3 failed: {results['c3']}")
    c5 = results["c5"]
    require(c5["agreements"] == c5["pairs_in_regime"] and c5["pass"], f"c5 failed: {c5}")
    close(results["c7"]["max_quantum_defect"], oracle.max_nonadditivity(), MEASURE_TOL,
          "c7 max quantum defect")
    regions = [frozenset({lab}) for lab in oracle.labels] + [frozenset(oracle.labels)]
    ssets = [(t, r) for t in oracle.times for r in regions]
    pairs = list(itertools.combinations(ssets, 2))
    for i in rng.choice(len(pairs), size=min(samples, len(pairs)), replace=False):
        s1, s2 = pairs[i]
        m_big, m_small, n1, n2 = oracle.measure(s1, s2)
        report = typicality.mutual_typicality(structure, SSet(*s1), SSet(*s2))
        close(report.m_big, m_big, MEASURE_TOL, f"M of {s1} vs {s2}")
        close(report.norm1_sq, n1, MEASURE_TOL, "projected mass")
        require(typicality.check_inequality_chain(report), f"program chain fails for {s1}, {s2}")
        require(inequality_chain_holds(m_big, m_small), f"oracle chain fails for {s1}, {s2}")


def check_graph(report: dict, oracle: Oracle) -> None:
    """Nodes, links and the full admissible path list against the oracle."""
    config, results = report["config"], report["results"]
    eps = config["thresholds"]["epsilon_exclude"]
    tau = config["thresholds"]["tau_link"]
    nodes = results["nodes"]
    slice_times = [int(s.split(":", 1)[0]) for s in config["slices"]]
    slice_of = [slice_times.index(n["time"]) for n in nodes]
    for n in nodes:
        occ = oracle.occupation(n["time"], n["region"])
        close(n["occupation"], occ, MEASURE_TOL, f"occupation of {n['region']}@{n['time']}")
        if abs(occ - eps) > BORDER_TOL:
            require(n["excluded"] == (occ <= eps), f"exclusion flag of {n['region']}@{n['time']}")
    links = {(lk["a"], lk["b"]): lk["m_big"] for lk in results["links"]}
    live = [i for i, n in enumerate(nodes) if not n["excluded"]]
    for a, b in itertools.combinations(live, 2):
        if slice_of[a] == slice_of[b]:
            continue
        m_big, _, n1, n2 = oracle.measure(
            (nodes[a]["time"], nodes[a]["region"]), (nodes[b]["time"], nodes[b]["region"])
        )
        if (a, b) in links:
            close(links[(a, b)], m_big, MEASURE_TOL, f"link measure {a}-{b}")
        elif abs(m_big - tau) > BORDER_TOL and max(n1, n2) > 1e-12:
            require(m_big > tau, f"missing link {a}-{b} with M={m_big}")
    require(all(slice_of[a] != slice_of[b] for a, b in links), "link inside one slice")

    candidates = [
        [i for i in live if slice_of[i] == s] for s in range(len(slice_times))
    ]
    grid = np.stack(np.meshgrid(*candidates, indexing="ij"), -1).reshape(-1, len(candidates))
    keep = np.ones(len(grid), dtype=bool)
    for a, b in links:
        keep &= (grid[:, slice_of[a]] == a) == (grid[:, slice_of[b]] == b)
    paths = np.asarray(results["paths"], dtype=np.int64).reshape(-1, len(candidates))
    require(np.array_equal(paths, grid[keep]), "admissible path list differs from the oracle's")
    names = [
        "+".join(sorted(n["region"])) + f"@{n['time']}" for n in nodes
    ]
    require(
        results["path_names"] == [[names[i] for i in p] for p in results["paths"]],
        "path names do not match the path node indices",
    )


def check_typicality(report: dict, oracle: Oracle) -> None:
    config, results = report["config"], report["results"]

    def sset(text):
        t, labels = text.split(":", 1)
        return int(t), frozenset(labels.split(","))

    m_big, m_small, n1, n2 = oracle.measure(sset(config["s1"]), sset(config["s2"]))
    close(results["m_big"], m_big, MEASURE_TOL, "M")
    close(results["norm1_sq"], n1, MEASURE_TOL, "|S1 psi0|^2")
    close(results["norm2_sq"], n2, MEASURE_TOL, "|S2 psi0|^2")
    if abs(m_big - results["threshold"]) > BORDER_TOL:
        expect = "MutuallyTypical" if m_big <= results["threshold"] else "NotTypical"
        require(results["verdict"] == expect, f"verdict {results['verdict']} at M={m_big}")
    require(inequality_chain_holds(results["m_big"], results["m_small"]), "inequality chain")


def check_stat_bound(results: list, spec: dict) -> None:
    require(len(results) == 1, "expected one stat-bound row")
    row = results[0]
    oracle = tail_mass(spec["n"], spec["p"], spec["N"], spec["eps"])
    close(row["mass"], oracle, ORACLE_TAIL_TOL, "tail mass")
    bound = 1.0 / (spec["eps"] * spec["N"])
    require(row["bound"] == bound, f"bound {row['bound']} != 1/(eps N) = {bound}")
    require(row["mass"] <= bound and row["holds"] == (row["mass"] < bound), f"row {row}")


def check_scenario(name: str, results: dict) -> None:
    """Values the paper's interferometer and beam-splitter models fix exactly."""
    if name in ("unruh", "unruh_d2", "unruh_u1", "unruh_d1"):
        g = results["graph"]
        for path in g["paths"]:
            require(not any(g["nodes"][i]["excluded"] for i in path), "path visits excluded node")
            for lk in g["links"]:
                require((lk["a"] in path) == (lk["b"] in path), "path breaks a link")
        arrival = results["detector_arrival"]
        require(abs(sum(arrival.values()) - 1.0) <= MEASURE_TOL, f"arrival {arrival}")
    if name == "unruh":
        require(abs(results["typicality"]["U1_vs_D3"]["m_big"]) <= 1e-12, "U1 vs D3 not typical")
        require(abs(results["exclusion_U2"]) <= 1e-12, "U2 excluded")
        require(
            sorted(map(tuple, results["graph"]["path_names"]))
            == [("D@1", "U@2", "U@3"), ("U@1", "U@2", "D@3")],
            "unruh paths",
        )
    elif name == "unruh_d2":
        require(abs(results["click_occupation_t2"]) <= 1e-12, "counter clicks")
        require(abs(results["typicality"]["U1_vs_D3"]["m_big"] - 1.0) <= 1e-12, "U1 vs D3")
        require(len(results["graph"]["path_names"]) == 4, "detector variant paths")
    elif name == "unruh_u1":
        require(abs(results["detector_arrival"]["D"]) <= 1e-12, "blocked U1 reaches D")
    elif name == "unruh_d1":
        require(abs(results["detector_arrival"]["U"]) <= 1e-12, "blocked D1 reaches U")
    elif name == "fig1":
        require(results["matched_pair"]["m_big"] == 0.0, "matched pair")
        require(abs(results["pinhole_exclusion"] - 0.5) <= 1e-12, "pinhole exclusion")
    elif name == "nonadd":
        require(abs(results["combined"] - 1.0) <= 1e-12, "combined mass")
        require(abs(results["term_u1"] - 0.25) <= 1e-12, "U1 term")
        require(abs(results["term_d1"] - 0.25) <= 1e-12, "D1 term")
        require(results["additive"] is False, "nonadditivity witness")


def check_wavepacket(results: list, separations) -> None:
    """Branch supports become mutually typical as the packets separate."""
    require([r["separation_sigma"] for r in results] == list(separations), "sweep rows")
    values = [r["m_big"] for r in results]
    require(all(0.0 <= v <= 1.0 for v in values), f"M out of range: {values}")
    require(all(a > b for a, b in zip(values, values[1:])), f"M not decreasing: {values}")
    require(values[-1] <= 0.08, f"well separated packets not typical: {values}")
