"""Each process's error budget: its slack bounds the drift of its total mass.

A structure accepted by its constructor (steps within ``UNITARITY_TOL``, an
initial vector within ``NORM_TOL``) and a twin accepted by its own (rows and
initial sum within ``ROW_SUM_TOL``) must pass every check that compares the
program's own masses with their exact values: the graph's slice sums, the
derived twin's row sums, the twin's measure checks and its additivity. The
three structures below were refused by constants set one by one; the
property tests draw inputs at the edge of each input tolerance.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtypicality import (
    PartitionSchedule,
    QuantumStructure,
    StochasticProcessSpec,
    build_graph,
    correspondence_audit,
    matched_markov_chain,
    process_to_dict,
    structure_to_dict,
)
from qtypicality.cli import main
from qtypicality.core import NORM_TOL, UNITARITY_TOL
from qtypicality.stochastic import MARGINAL_TOL, ROW_SUM_TOL

from conftest import random_unitary

UD = ({"U"}, {"D"})


def stretched(e, n_steps):
    """Steps ``diag(1 + e, 1 + e)``: each squared norm grows by ``2e + e^2``."""
    return QuantumStructure(2, [1.0, 0.0], [np.diag([1 + e, 1 + e])] * n_steps,
                            {"U": [0], "D": [1]})


def rotated(theta, n_steps):
    """Exactly unitary rotations by ``theta`` of ``(1, 1) / sqrt(2)``: each
    step moves ``theta`` of mass from U to D."""
    c, s = math.cos(theta), math.sin(theta)
    return QuantumStructure(2, np.full(2, math.sqrt(0.5)), [[[c, -s], [s, c]]] * n_steps,
                            {"U": [0], "D": [1]})


OWN_RESULTS = {
    # The derived twin's rows sum to 1 + 1.2e-12, past ROW_SUM_TOL.
    "row-sum": lambda: stretched(6e-13, 1),
    # The occupations at t = 2 sum to 1 + 1.6e-10, at t = 3 to 1 + 2.4e-10.
    "occupation-sum": lambda: stretched(4e-11, 3),
    # Each transfer kernel misses the next occupations by 3e-11, and the
    # twin's marginal, which chains them, misses by 1.2e-10 at t = 4.
    "marginal-drift": lambda: rotated(3e-11, 4),
}


@pytest.mark.parametrize("make", OWN_RESULTS.values(), ids=OWN_RESULTS)
class TestOwnResultsAccepted:
    def test_audit_of_the_derived_twin_passes(self, make):
        q = make()
        audit = correspondence_audit(q, matched_markov_chain(q))
        assert audit.passed, audit.to_dict()
        assert audit.c3_max_error <= MARGINAL_TOL

    def test_graph_at_every_time(self, make):
        q = make()
        graph = build_graph(q, PartitionSchedule([(t, UD) for t in q.times]))
        assert len(graph.nodes) == 2 * len(q.times)

    def test_cli_audit_and_graph_exit_0(self, make, tmp_path, capsys):
        q, path = make(), tmp_path / "scenario.json"
        path.write_text(json.dumps(structure_to_dict(q)))
        slices = [word for t in q.times[1:] for word in ("--slice", f"{t}:U|D")]
        for argv in (["audit"], ["graph", *slices]):
            assert main([*argv, "--scenario-file", str(path)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            json.loads(captured.out)


def test_drifting_marginal_falls_back_where_the_chain_would_miss():
    # The transfer at t = 3 would carry the twin's marginal 1.2e-10 from the
    # occupations at t = 4; the step takes rows equal to those instead.
    q = rotated(3e-11, 4)
    twin = matched_markov_chain(q)
    assert all(np.abs(k - np.eye(2)).max() < 1e-20 for k in twin.kernels[:3])  # transfers
    assert np.array_equal(twin.kernels[3], np.tile(q.occupations(4), (2, 1)))


def drifting(n_steps):
    """Steps ``H sqrt(1 + 0.99e-10)``, H the 2 x 2 Hadamard, from ``(1, 0)``:
    each within ``UNITARITY_TOL``, and the occupations the twin's fallback
    rows copy drift from a unit sum step by step."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0) * math.sqrt(1.0 + 0.99e-10)
    return QuantumStructure(2, [1.0, 0.0], [h] * n_steps, {"U": [0], "D": [1]})


def audit_file(tmp_path, capsys, data):
    """Exit code, stdout and stderr of ``qtypicality audit`` on ``data``."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    code = main(["audit", "--scenario-file", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("n_steps", [4, 6, 10])
class TestDriftingTwin:
    """c3 allows ``MARGINAL_TOL`` plus both processes' slack at each time; the
    twin's marginals miss the occupations by 3.96e-10, 1.29e-9 and 4.26e-9,
    within 0.21, 0.38 and 0.57 of that."""

    def test_audit_passes_on_the_budget(self, n_steps):
        q = drifting(n_steps)
        c = matched_markov_chain(q)
        audit = correspondence_audit(q, c)
        assert audit.passed, audit.to_dict()
        assert audit.c3_max_error > MARGINAL_TOL
        gaps = np.array([np.abs(q.occupations(t) - c.occupations(t)).max() for t in q.times])
        assert np.all(gaps <= 0.6 * (MARGINAL_TOL + q._slack + c._slack))

    def test_cli_audit_exits_0(self, n_steps, tmp_path, capsys):
        code, out, err = audit_file(tmp_path, capsys, structure_to_dict(drifting(n_steps)))
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["c3"]["pass"] is True


def with_twin(q, initial, kernels):
    """``q``'s scenario with a ``stochastic`` section of states U and D."""
    data = structure_to_dict(q)
    data["stochastic"] = {"states": ["U", "D"], "initial": initial, "kernels": kernels}
    return data


class TestFileTwins:
    """A file twin's sums are held at each time to the larger of
    ``ROW_SUM_TOL`` and the structure's slack."""

    def test_derived_twin_round_trips_through_its_file(self, tmp_path, capsys):
        # Case (a): the derived twin's rows sum to 1 + 1.2e-12.
        q = OWN_RESULTS["row-sum"]()
        twin = process_to_dict(matched_markov_chain(q))
        assert max(abs(sum(row) - 1.0) for row in twin["kernels"][0]) > ROW_SUM_TOL
        code, out, err = audit_file(tmp_path, capsys, {**structure_to_dict(q), "stochastic": twin})
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["passed"] is True

    def test_rows_within_row_sum_tol_on_an_exact_structure(self, tmp_path, capsys):
        q = QuantumStructure(2, [1.0, 0.0], [np.eye(2)] * 2, {"U": [0], "D": [1]})
        assert q._slack[-1] < ROW_SUM_TOL
        off = [[1.0 + 5e-13, 0.0], [0.0, 1.0 + 5e-13]]
        code, _, err = audit_file(tmp_path, capsys, with_twin(q, [1.0, 0.0], [off] * 2))
        assert (code, err) == (0, "")

    def test_rows_past_both_tolerances_are_refused(self, tmp_path, capsys):
        q = QuantumStructure(2, [1.0, 0.0], [np.eye(2)], {"U": [0], "D": [1]})
        off = [[1.0 + 2e-12, 0.0], [0.0, 1.0]]
        code, _, err = audit_file(tmp_path, capsys, with_twin(q, [1.0, 0.0], [off]))
        assert (code, err) == (2, "error: kernel 0 is not row-stochastic\n")

    def test_a_miss_past_the_allowance_fails_c3(self, tmp_path, capsys):
        q = drifting(4)
        # The twin starts 2 MARGINAL_TOL from the occupations, past the
        # allowance at t = 0, where both slacks are below 1e-14.
        assert q._slack[0] < 1e-14
        start = [1.0 - 2 * MARGINAL_TOL, 2 * MARGINAL_TOL]
        kernels = [k.tolist() for k in matched_markov_chain(q).kernels]
        code, out, err = audit_file(tmp_path, capsys, with_twin(q, start, kernels))
        assert (code, err) == (4, "audit failed: c3\n")
        assert json.loads(out)["results"]["c3"]["max_error"] >= 2 * MARGINAL_TOL * 0.99


@st.composite
def edge_structures(draw):
    """A structure with ``dim <= 16`` and ``T <= 6``: random unitaries, each
    stretched (so that every squared norm grows by the whole defect) or
    perturbed in a random direction, by up to ``UNITARITY_TOL``, and an
    initial vector whose squared norm is off by up to ``NORM_TOL``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim, n_steps = draw(st.integers(1, 16)), draw(st.integers(0, 6))
    schedule = []
    for _ in range(n_steps):
        u, size = random_unitary(rng, dim), draw(st.floats(0.0, 0.99)) * UNITARITY_TOL
        if draw(st.booleans()):
            schedule.append(u * math.sqrt(1.0 + size))
        else:
            e = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            first_order = u.conj().T @ e
            schedule.append(u + size / np.abs(first_order + first_order.conj().T).max() * e)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 *= math.sqrt(1.0 + draw(st.floats(-0.99, 0.99)) * NORM_TOL) / np.linalg.norm(psi0)
    parts = np.array_split(rng.permutation(dim), draw(st.integers(1, dim)))
    return QuantumStructure(dim, psi0, schedule, {f"c{k}": p.tolist() for k, p in enumerate(parts)})


@st.composite
def edge_twins(draw):
    """A chain with ``n <= 16`` states and ``T <= 6`` kernels whose initial sum
    and row sums are off by up to ``ROW_SUM_TOL``, all one way or each its own."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, n_steps = draw(st.integers(1, 16)), draw(st.integers(0, 6))
    one_way = draw(st.floats(-0.99, 0.99))

    def rows(count):
        p = rng.random((count, n)) + 0.01
        off = np.full(count, one_way) if draw(st.booleans()) else rng.uniform(-0.99, 0.99, count)
        return p / p.sum(axis=1, keepdims=True) * (1.0 + off * ROW_SUM_TOL)[:, None]

    return StochasticProcessSpec([f"s{i}" for i in range(n)], rows(1)[0],
                                 [rows(n) for _ in range(n_steps)])


def assert_within_slack(process):
    for t in process.times:
        occ = process.occupations(t)
        for total in (math.fsum(occ), float(occ.sum()), sum(occ.tolist())):
            assert abs(total - 1.0) <= process._slack[t], (t, total, process._slack)


@settings(max_examples=40, deadline=None)
@given(edge_structures())
def test_structure_mass_within_slack(q):
    assert_within_slack(q)
    build_graph(q, PartitionSchedule([(t, (q.labels,)) for t in q.times]))
    assert_within_slack(matched_markov_chain(q))


@settings(max_examples=40, deadline=None)
@given(edge_twins())
def test_twin_mass_within_slack(c):
    assert_within_slack(c)
    # Identity steps on one index per state: a structure for the twin's labels.
    q = QuantumStructure(c.dim, np.full(c.dim, c.dim**-0.5), [np.eye(c.dim)] * c.n_steps,
                         {label: [i] for i, label in enumerate(c.labels)})
    assert correspondence_audit(q, c).c7_mu_additive
