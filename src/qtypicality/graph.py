"""Admissible trajectory reconstruction from exclusions and typicality links.

A partition schedule slices a handful of time indices into disjoint,
exhaustive cell regions. Each (time, region) node carries its occupation
mass; nodes with negligible occupation are excluded, and node pairs across
slices whose mutual typicality is small become forced equivalences. An
admissible trajectory visits one node per slice, avoids excluded nodes, and
respects every forced link in both directions.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import core, typicality
from .core import CellProcess, QuantumStructure, SSet
from .errors import ResourceLimitError, ValidationError

PATH_SPACE_LIMIT = 10**6
DEFAULT_EPSILON_EXCLUDE = core.DEFAULT_EPSILON_EXCLUDE
DEFAULT_TAU_LINK = core.DEFAULT_TAU_LINK


@dataclass(frozen=True)
class PartitionSchedule:
    """Ordered time slices, each a tuple of disjoint exhaustive regions."""

    slices: tuple

    def __init__(self, slices: Iterable):
        normalized = tuple(
            (core._as_int(t, "time index"), tuple(map(core._as_region, regions)))
            for t, regions in slices
        )
        object.__setattr__(self, "slices", normalized)

    def validate(self, process: CellProcess) -> None:
        if not self.slices:
            raise ValidationError("partition schedule is empty")
        times = [t for t, _ in self.slices]
        if len(set(times)) != len(times):
            raise ValidationError("duplicate time index in partition schedule")
        for t, regions in self.slices:
            process.check_time(t)
            seen: set = set()
            for region in regions:
                process.region_mask(region)  # rejects unknown labels
                for label in sorted(region):  # a frozenset's order follows the hash seed
                    if label in seen:
                        raise ValidationError(
                            f"slice t={t}: label {label!r} appears in two regions"
                        )
                    seen.add(label)
            if seen != set(process.labels):
                raise ValidationError(f"slice t={t} does not cover all cells")


@dataclass(frozen=True)
class GraphNode:
    time: int
    region: frozenset
    occupation: float
    excluded: bool

    @property
    def name(self) -> str:
        return "+".join(sorted(self.region)) + f"@{self.time}"


@dataclass(frozen=True)
class TrajectoryGraph:
    """Nodes per slice, forced links (with their measures), admissible paths."""

    nodes: tuple
    slices: tuple  # node-index lists, one per schedule slice
    links: tuple  # (node_a, node_b, m_big) triples, a < b
    paths: tuple  # tuples of node indices, one per slice

    def node_names(self, path: Sequence[int]) -> tuple:
        return tuple(self.nodes[i].name for i in path)

    def to_dict(self) -> dict:
        """The report's dict. ``paths`` and ``path_names`` are
        ``core.CodedTable``s over one array of node indices, one row per
        path: the indices themselves and the nodes' names."""
        width = len(self.slices)
        codes = np.fromiter(
            itertools.chain.from_iterable(self.paths), np.intp, len(self.paths) * width
        ).reshape(len(self.paths), width)
        return {
            "nodes": [
                {
                    "time": n.time,
                    "region": sorted(n.region),
                    "occupation": n.occupation,
                    "excluded": n.excluded,
                }
                for n in self.nodes
            ],
            "links": [
                {"a": a, "b": b, "m_big": m} for a, b, m in self.links
            ],
            "paths": core.CodedTable(codes, range(len(self.nodes))),
            "path_names": core.CodedTable(codes, [n.name for n in self.nodes]),
        }

    def edge_rows(self):
        """Plot-ready edge list, header first: forced links, then the
        consecutive edges of each path."""
        yield ("kind", "path_id", "time_a", "region_a", "time_b", "region_b", "value")
        ends = [(n.time, "+".join(sorted(n.region))) for n in self.nodes]
        for a, b, m in self.links:
            yield ("link", "", *ends[a], *ends[b], m)
        for pid, path in enumerate(self.paths):
            for a, b in zip(path, path[1:]):
                yield ("path", pid, *ends[a], *ends[b], "")


def build_graph(
    process: CellProcess,
    schedule: PartitionSchedule,
    epsilon_exclude: float = DEFAULT_EPSILON_EXCLUDE,
    tau_link: float = DEFAULT_TAU_LINK,
) -> TrajectoryGraph:
    """Build the exclusion/link graph of either process, with its paths.

    Paths come from ``_admissible_paths``, whose guard refuses a slice that
    would form over ``PATH_SPACE_LIMIT`` extensions. Each slice's masses must
    first sum to 1 within the process's slack at its time (``core._budget``).
    """
    schedule.validate(process)
    epsilon_exclude = core._check_threshold(epsilon_exclude, "epsilon_exclude")
    tau_link = core._check_threshold(tau_link, "tau_link")

    nodes: list[GraphNode] = []
    slices: list[tuple] = []
    for t, regions in schedule.slices:
        occ = core.occupations(process, t)
        slice_nodes = []
        total = 0.0
        for region in regions:
            # fsum is exact before its one rounding, so the frozenset's
            # hash-seeded order cannot move the last digit; for one or two
            # labels it equals the plain sum.
            mass = math.fsum(occ[label] for label in region)
            total += mass
            slice_nodes.append(len(nodes))
            nodes.append(GraphNode(t, region, mass, mass <= epsilon_exclude))
        if abs(total - 1.0) > process._slack[t]:
            raise ValidationError(f"slice t={t} occupations sum to {total}")
        slices.append(tuple(slice_nodes))

    # Links across all slice pairs, not only adjacent ones: the rule holds
    # for arbitrary pairs of s-sets. One pair table per slice pair.
    candidates = [
        [i for i in slice_nodes if not nodes[i].excluded] for slice_nodes in slices
    ]
    ssets = [[SSet(nodes[i].time, nodes[i].region) for i in cands] for cands in candidates]
    links = []
    for si, sj in itertools.combinations(range(len(slices)), 2):
        table = process.pair_table(ssets[si], ssets[sj])
        hits = np.nonzero(table.typical(tau_link))  # row-major: links in (row, column) order
        for i, j, m_big in zip(*(x.tolist() for x in hits), table.m_big[hits].tolist()):
            links.append((candidates[si][i], candidates[sj][j], m_big))

    times = [t for t, _ in schedule.slices]
    paths = _admissible_paths(times, candidates, [(a, b) for a, b, _ in links])

    return TrajectoryGraph(
        nodes=tuple(nodes),
        slices=tuple(tuple(s) for s in slices),
        links=tuple(links),
        paths=tuple(paths),
    )


def _admissible_paths(times, candidates: Sequence[Sequence[int]], links: Iterable[tuple]) -> list:
    """Paths with one candidate node per slice that visit both ends of every
    link or neither, in ``itertools.product(*candidates)`` order.

    Each link ``(a, b)`` joins candidates of two slices, ``a`` the earlier.
    Prefixes grow a slice at a time; one that breaks a link due there is
    dropped. Slice ``k`` raises ``ResourceLimitError`` naming ``times[k]``
    before it would form over ``PATH_SPACE_LIMIT`` extensions, so a result
    keeps at most the limit's paths, from at most slices × limit extensions.
    A cumulative count would refuse a link-free graph of exactly that many.
    """
    slice_of = {node: k for k, nodes in enumerate(candidates) for node in nodes}
    due: list = [[] for _ in candidates]  # per slice: (slice of a, a, b)
    for a, b in links:
        due[slice_of[b]].append((slice_of[a], a, b))
    prefixes = [()]
    for t, cands, checks in zip(times, candidates, due):
        if (formed := len(prefixes) * len(cands)) > PATH_SPACE_LIMIT:
            raise ResourceLimitError(
                f"slice t={t}: {formed} path extensions exceed {PATH_SPACE_LIMIT}"
            )
        prefixes = [
            prefix + (c,)
            for prefix in prefixes
            for c in cands
            if not checks or all((prefix[k] == a) == (b == c) for k, a, b in checks)
        ]
    return prefixes


def branch_following_check(
    structure: QuantumStructure,
    branch_regions: Sequence[SSet],
    tau: float = DEFAULT_TAU_LINK,
) -> bool:
    """Check that a nested branch list confines trajectories.

    For every earlier/later pair the pair must either be mutually typical
    (measure at most ``tau``) or the later projection must survive chaining
    through the earlier one up to a relative mass loss of ``tau``. All pairs
    are judged as one ``pair_table``; the chain loss is computed only for
    pairs that are not typical, in ``itertools.combinations`` order.
    """
    times = [s.time for s in branch_regions]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValidationError("branch regions must be strictly time-ordered")
    for s in branch_regions:
        structure.check_sset(s)
    typical = structure.pair_table(branch_regions, branch_regions).typical(tau)
    projections = core.project_initials(structure, branch_regions)  # cached by the table
    for i, j in zip(*np.nonzero(np.triu(~typical, 1))):
        later = projections[j]
        if later.norm_sq < typicality.DEGENERATE_NORM_TOL:
            continue  # dead branch constrains nothing
        chained = core.chain_project(structure, [branch_regions[i], branch_regions[j]], at_time=0)
        loss = later.amplitudes - chained.amplitudes
        if float((loss.conj() @ loss).real) / later.norm_sq > tau:
            return False
    return True
