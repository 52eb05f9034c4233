"""The CSR cell table shared by both processes.

``dict_table`` is the dict-of-views table that ``core.CellTable`` replaced,
kept verbatim as the oracle: the new table must hold the same labels in the
same order and the same sorted read-only index arrays, and must reject an
invalid mapping with the same text, naming the same first offending cell.
"""
import collections.abc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtypicality import (
    ExperimentSpec,
    ValidationError,
    build_measurement_chain,
    build_unruh,
    matched_markov_chain,
)
from qtypicality import core
from qtypicality.core import CellProcess, CellTable


def dict_table(cells, dim):
    """Sorted, read-only index arrays per label, checked in one pass to
    partition ``range(dim)``. An error names the offending cell."""
    members = {str(label): list(idx) for label, idx in cells.items()}
    labels = list(members)
    sizes = [len(idx) for idx in members.values()]
    owner = np.repeat(np.arange(len(labels)), sizes)
    flat = [i for idx in members.values() for i in idx]
    try:
        valid = all(map(core._is_index, dict(zip(map(type, flat), flat)).values()))
        indices = np.array(flat, dtype=np.intp) if valid else None
    except OverflowError:
        indices = None
    if indices is None or (indices.size and not 0 <= indices.min() <= indices.max() < dim):
        bad = next(k for k, i in enumerate(flat) if not (core._is_index(i) and 0 <= i < dim))
        kind = "an out-of-range" if core._is_index(flat[bad]) else "a non-integer"
        raise ValidationError(f"cell {labels[owner[bad]]!r} has {kind} index {flat[bad]!r}")
    flat = indices[np.lexsort((indices, owner))]
    counts = np.bincount(flat, minlength=dim)
    if counts.max() > 1:
        again = np.flatnonzero(flat == np.argmax(counts))[1]
        raise ValidationError(f"cell {labels[owner[again]]!r} claims index {flat[again]} twice")
    if counts.min() == 0:
        raise ValidationError(f"cells do not cover basis index {np.argmin(counts)}")
    flat.setflags(write=False)
    bounds = list(itertools.accumulate(sizes, initial=0))
    return {label: flat[lo:hi] for label, lo, hi in zip(labels, bounds, bounds[1:])}


FOREIGN = [-1, 2**70, -(2**70), np.uint64(2**64 - 1), True, np.bool_(False), 1.0, 2.5, "1",
           None, np.int32(0)]


@st.composite
def cell_mappings(draw, faults=True):
    """A mapping of unequal, possibly empty cells holding scattered indices,
    under int or str labels in any order, and its dimension. With
    ``faults``, one index may be dropped, repeated, or replaced by a value
    out of range or of another type."""
    dim = draw(st.integers(1, 12))
    n_cells = draw(st.integers(1, 6))
    owner = draw(st.lists(st.integers(0, n_cells - 1), min_size=dim, max_size=dim))
    cells = [[] for _ in range(n_cells)]
    for i in draw(st.permutations(range(dim))):
        cells[owner[i]].append(i)
    fault = draw(st.sampled_from(["drop", "repeat", "foreign", None, None])) if faults else None
    cell = draw(st.integers(0, n_cells - 1))
    at = draw(st.integers(0, len(cells[cell])))
    if fault == "drop" and cells[cell]:
        del cells[cell][min(at, len(cells[cell]) - 1)]
    elif fault == "repeat":
        cells[cell].insert(at, draw(st.integers(0, dim - 1)))
    elif fault == "foreign":
        cells[cell].insert(at, draw(st.sampled_from(FOREIGN + [dim])))
    labels = draw(st.lists(st.one_of(st.integers(-2, 12), st.text("ab1", max_size=2)),
                           min_size=n_cells, max_size=n_cells, unique=True))
    container = draw(st.sampled_from([list, tuple]))
    return dict(zip(labels, map(container, cells))), dim


def first_repeat(labels):
    seen = set()
    return next(label for label in labels if label in seen or seen.add(label))


class TestAgainstTheDictTable:
    @settings(max_examples=300, deadline=None)
    @given(cell_mappings())
    def test_contents_and_errors_match(self, case):
        cells, dim = case
        labels = [str(label) for label in cells]
        if len(set(labels)) < len(labels):  # the dict table merged them silently
            message = f"duplicate cell label {first_repeat(labels)!r}"
            with pytest.raises(ValidationError, match=f"^{message}$"):
                CellTable(cells, dim)
            return
        try:
            expected = dict_table(cells, dim)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                CellTable(cells, dim)
            assert str(got.value) == str(exc)
            return
        table = CellTable(cells, dim)
        assert isinstance(table, collections.abc.Mapping)
        assert table.labels == tuple(table) == tuple(expected)
        assert len(table) == len(expected) and table.dim == dim
        for (label, idx), (want_label, want) in zip(table.items(), expected.items()):
            assert label == want_label and label in table
            assert idx.dtype == np.intp and idx.tolist() == want.tolist()
            assert not idx.flags.writeable
        assert "no such cell" not in table and table.get("no such cell") is None

    @settings(max_examples=200, deadline=None)
    @given(cell_mappings(faults=False), st.data())
    def test_region_masks_and_cell_masses_match(self, case, data):
        cells, dim = case
        if len({str(label) for label in cells}) < len(cells):
            return
        expected = dict_table(cells, dim)
        process = CellProcess(dim, cells, 0)
        region = data.draw(st.sets(st.sampled_from(list(expected))))
        mask = np.zeros(dim, dtype=bool)
        if region:
            mask[np.concatenate([expected[label] for label in region])] = True
        assert process.region_mask(region).tobytes() == mask.tobytes()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        vecs = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
        oracle = np.array(
            [[np.sum((np.abs(v) ** 2)[idx]) for idx in expected.values()] for v in vecs]
        )
        assert core._cell_masses(process, vecs).tobytes() == oracle.tobytes()


class TestCellTable:
    def test_is_a_read_only_mapping_of_views(self):
        table = CellTable({"U": [2, 0], "D": [1]}, 3)
        assert not isinstance(table, collections.abc.MutableMapping)
        with pytest.raises(TypeError):
            table["U"] = np.array([0])
        assert table["U"].tolist() == [0, 2] and np.shares_memory(table["U"], table.flat)
        with pytest.raises(KeyError):
            table["X"]

    def test_a_table_of_another_dimension_is_rejected(self):
        with pytest.raises(ValidationError, match=r"^cell table spans 2 indices, not 3$"):
            CellProcess(3, CellTable({"a": [0, 1]}, 2), 0)

    @pytest.mark.parametrize(
        "process",
        [lambda: build_measurement_chain(ExperimentSpec(3, (0.2, 0.3, 0.5), 4, 0.1)),
         lambda: matched_markov_chain(build_unruh().structure)],
        ids=["measurement-chain", "markov-twin"],
    )
    def test_one_index_per_label_tables_equal_the_general_ones(self, process):
        process = process()
        general = CellTable({label: [i] for i, label in enumerate(process.labels)}, process.dim)
        table = process.cells
        assert table.labels == general.labels
        for name in ("flat", "bounds"):
            got, want = getattr(table, name), getattr(general, name)
            assert got.dtype == want.dtype == np.intp and got.tolist() == want.tolist()
            assert not got.flags.writeable
        blocks = general.size_blocks()
        assert [(c.tolist(), b.tolist()) for c, b in table.size_blocks()] == [
            (c.tolist(), b.tolist()) for c, b in blocks
        ]

    def test_chain_build_memory_is_bounded(self):
        # At N=16 the labels, psi0 and the table hold about 8 MB. A mapping of
        # one-index lists, copied into a dict of views, peaked at about 37 MB.
        spec = ExperimentSpec(2, (0.3, 0.7), 16, 0.05)
        tracemalloc.start()
        try:
            build_measurement_chain(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
