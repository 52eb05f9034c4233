"""Shared fixtures and independent oracles.

The oracle helpers deliberately avoid the package's evolution code: they
build dense evolution operators and diagonal projectors with plain numpy
matrix products, so every comparison pits two independent computations
against each other.
"""
import math
import os

import numpy as np
import pytest

from qtypicality import QuantumStructure

INV_SQRT2 = 1.0 / math.sqrt(2.0)
SPLITTER = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) * INV_SQRT2


def dense_step(step, dim):
    """Materialize a schedule step as a dense matrix."""
    if step.num_factors == 1:
        return step.matrix
    return np.column_stack(
        [step.apply(np.eye(dim, dtype=complex)[:, j]) for j in range(dim)]
    )


def evolution_operator(structure, t):
    """U(t) as an explicit matrix product of the schedule steps."""
    out = np.eye(structure.dim, dtype=complex)
    for k in range(t):
        out = dense_step(structure.schedule[k], structure.dim) @ out
    return out


def projector(structure, region):
    """Diagonal 0/1 projector matrix for a set of cell labels."""
    diag = np.zeros(structure.dim)
    for label in region:
        diag[structure.cells[label]] = 1.0
    return np.diag(diag).astype(complex)


def heisenberg_operator(structure, sset):
    """U(t)^dagger E(region) U(t) as one dense matrix."""
    u = evolution_operator(structure, sset.time)
    return u.conj().T @ projector(structure, sset.region) @ u


def chain_oracle(structure, ssets):
    """Time-ordered chained projection of psi0, by dense matrix products."""
    vec = structure.psi0.copy()
    for sset in sorted(ssets, key=lambda s: s.time):
        vec = heisenberg_operator(structure, sset) @ vec
    return vec


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_structure(rng, dim=8, n_steps=3, n_cells=None):
    """Random structure: Haar-ish steps, random state, random cell partition."""
    n_cells = n_cells or rng.integers(2, dim + 1)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    schedule = [random_unitary(rng, dim) for _ in range(n_steps)]
    assignment = np.concatenate(
        [np.arange(n_cells), rng.integers(0, n_cells, size=dim - n_cells)]
    )
    rng.shuffle(assignment)
    cells = {
        f"c{c}": np.flatnonzero(assignment == c).tolist() for c in range(n_cells)
    }
    return QuantumStructure(dim, psi0, schedule, cells)


def near_classical_structure(rng, dim=16, n_steps=4, n_cells=4, angle=0.1):
    """Steps that permute equal blocks of cells after a small rotation, so
    many node pairs across times are mutually typical."""
    size = dim // n_cells
    schedule = []
    for _ in range(n_steps):
        q, r = np.linalg.qr(np.eye(dim) + angle * random_unitary(rng, dim))
        small = q * (np.diag(r) / np.abs(np.diag(r)))
        perm = rng.permutation(n_cells)
        image = np.concatenate([np.arange(size) + perm[c] * size for c in range(n_cells)])
        step = np.zeros((dim, dim), dtype=complex)
        step[image, np.arange(dim)] = 1.0
        schedule.append(step @ small)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    cells = {f"c{c}": list(range(c * size, (c + 1) * size)) for c in range(n_cells)}
    return QuantumStructure(dim, psi0 / np.linalg.norm(psi0), schedule, cells)


def random_region(rng, structure):
    labels = list(structure.labels)
    size = int(rng.integers(1, len(labels) + 1))
    return frozenset(rng.choice(labels, size=size, replace=False).tolist())


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def repo_root():
    import pathlib

    return pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def src_env(repo_root):
    """The environment of a child Python that imports this checkout's package."""
    paths = [str(repo_root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
