import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtypicality import (
    ExperimentSpec,
    PartitionSchedule,
    ResourceLimitError,
    SchemaError,
    SSet,
    ValidationError,
    branch_following_check,
    build_graph,
    build_measurement_chain,
    build_unruh,
)
from qtypicality.graph import _admissible_paths

FIG3_PATHS = {("U@1", "U@2", "D@3"), ("D@1", "U@2", "U@3")}
FIG5_PATHS = {
    ("U@1", "U@2", "U@3"),
    ("U@1", "U@2", "D@3"),
    ("D@1", "U@2", "U@3"),
    ("D@1", "U@2", "D@3"),
}


def path_names(graph):
    return {graph.node_names(p) for p in graph.paths}


def unruh_graph(detector=False, epsilon_exclude=0.01, tau_link=0.08):
    model = build_unruh(with_detector_d2=detector)
    return build_graph(
        model.structure, model.partition_schedule(), epsilon_exclude, tau_link
    )


class TestBuildGraph:
    def test_fig3_two_paths(self):
        graph = unruh_graph()
        assert path_names(graph) == FIG3_PATHS
        excluded = {n.name for n in graph.nodes if n.excluded}
        assert excluded == {"D@2"}
        forced = {
            frozenset((graph.nodes[a].name, graph.nodes[b].name))
            for a, b, _ in graph.links
        }
        assert frozenset(("U@1", "D@3")) in forced
        assert frozenset(("D@1", "U@3")) in forced

    def test_fig5_four_paths(self):
        graph = unruh_graph(detector=True)
        # click nodes never fire, so paths run over the photon cells only
        assert path_names(graph) == FIG5_PATHS
        cross = [
            (a, b)
            for a, b, _ in graph.links
            if abs(graph.nodes[a].time - graph.nodes[b].time) == 2
        ]
        assert cross == []

    def test_single_slice_whole_space(self):
        model = build_unruh()
        schedule = PartitionSchedule([(1, ({"U", "D"},))])
        graph = build_graph(model.structure, schedule)
        assert len(graph.nodes) == 1
        assert graph.paths == ((0,),)

    def test_fig3_invariant_over_threshold_ranges(self):
        for tau in (1e-6, 0.01, 0.08):
            for eps in (1e-12, 1e-6, 0.01):
                graph = unruh_graph(epsilon_exclude=eps, tau_link=tau)
                assert path_names(graph) == FIG3_PATHS

    def test_monotonicity_in_tau_and_epsilon(self):
        links_small = {(a, b) for a, b, _ in unruh_graph(tau_link=0.01).links}
        links_large = {(a, b) for a, b, _ in unruh_graph(tau_link=0.6).links}
        assert links_small <= links_large
        kept_tight = {n.name for n in unruh_graph(epsilon_exclude=0.4).nodes if not n.excluded}
        kept_loose = {n.name for n in unruh_graph(epsilon_exclude=1e-9).nodes if not n.excluded}
        assert kept_tight <= kept_loose

    def test_time_symmetry(self):
        model = build_unruh()
        forward = build_graph(model.structure, model.partition_schedule())
        reversed_schedule = PartitionSchedule(reversed(model.partition_schedule().slices))
        backward = build_graph(model.structure, reversed_schedule)
        fwd = {tuple(forward.node_names(p)) for p in forward.paths}
        bwd = {tuple(reversed(backward.node_names(p))) for p in backward.paths}
        assert fwd == bwd

    def test_empty_schedule_rejected(self):
        model = build_unruh()
        with pytest.raises(ValidationError):
            build_graph(model.structure, PartitionSchedule([]))

    def test_bad_partition_rejected(self):
        model = build_unruh()
        with pytest.raises(ValidationError):
            build_graph(model.structure, PartitionSchedule([(1, ({"U"},))]))
        with pytest.raises(ValidationError):
            build_graph(
                model.structure, PartitionSchedule([(1, ({"U", "D"}, {"D"}))])
            )

    def test_unknown_label_is_schema_error(self):
        model = build_unruh()
        with pytest.raises(SchemaError, match="unknown cell label 'X'"):
            build_graph(model.structure, PartitionSchedule([(1, ({"X"}, {"U"}, {"D"}))]))

    def test_path_space_guard_in_graph(self):
        spec = ExperimentSpec(2, (0.5, 0.5), 10, 0.1)
        structure = build_measurement_chain(spec)
        singletons = tuple({label} for label in structure.labels)
        schedule = PartitionSchedule([(9, singletons), (10, singletons)])
        with pytest.raises(ResourceLimitError):
            build_graph(structure, schedule)

    def test_serialization_shapes(self):
        graph = unruh_graph()
        data = graph.to_dict()
        assert {"nodes", "links", "paths", "path_names"} <= set(data)
        rows = list(graph.edge_rows())
        assert rows[0][0] == "kind"
        assert {len(row) for row in rows} == {7}


def product_oracle(candidates, links):
    """Admissible paths by scanning the whole candidate product."""
    return [
        combo
        for combo in itertools.product(*candidates)
        if all((a in combo) == (b in combo) for a, b in links)
    ]


@st.composite
def link_problems(draw):
    """Candidates per slice (node indices with excluded ones left out, possibly
    none) and forced links between candidates of different slices."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    bounds = list(itertools.accumulate(sizes, initial=0))
    excluded = draw(st.sets(st.integers(0, bounds[-1] - 1)))
    candidates = [
        [i for i in range(lo, hi) if i not in excluded]
        for lo, hi in zip(bounds, bounds[1:])
    ]
    pairs = [
        (a, b)
        for earlier, later in itertools.combinations(candidates, 2)
        for a in earlier
        for b in later
    ]
    links = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return candidates, links


class TestAdmissiblePaths:
    @settings(max_examples=300, deadline=None)
    @given(link_problems())
    @example(([[0, 1], [2, 3], [4, 5]], []))  # no links: the whole product
    @example(([[0, 1], [2, 3]], [(0, 2), (1, 2)]))  # every path pruned
    @example(([[0, 1], [], [4]], [(0, 4)]))  # a slice with no candidate
    def test_prefix_extension_equals_product_scan(self, problem):
        candidates, links = problem
        assert _admissible_paths(candidates, links) == product_oracle(candidates, links)

    @settings(max_examples=40, deadline=None)
    @given(
        times=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
        groups=st.lists(
            st.lists(st.integers(0, 3), min_size=8, max_size=8), min_size=4, max_size=4
        ),
        epsilon_exclude=st.sampled_from([1e-9, 0.05, 0.2]),
        tau_link=st.sampled_from([1e-6, 0.08, 0.5]),
    )
    def test_build_graph_equals_product_scan(self, times, groups, epsilon_exclude, tau_link):
        # A branching measurement chain: nested regions give forced links and
        # unrecorded outcomes carry no mass, so some nodes are excluded.
        structure = build_measurement_chain(ExperimentSpec(2, (0.3, 0.7), 3, 0.1))
        labels = structure.labels
        schedule = PartitionSchedule(
            (t, [
                {lab for lab, g in zip(labels, grouping) if g == region}
                for region in sorted(set(grouping))
            ])
            for t, grouping in zip(times, groups)
        )
        graph = build_graph(structure, schedule, epsilon_exclude, tau_link)
        candidates = [
            [i for i in nodes if not graph.nodes[i].excluded] for nodes in graph.slices
        ]
        links = [(a, b) for a, b, _ in graph.links]
        assert list(graph.paths) == product_oracle(candidates, links)


class TestBranchFollowing:
    @pytest.fixture
    def toy(self):
        # two-outcome measurement repeated twice: a genuine branching tree
        return build_measurement_chain(ExperimentSpec(2, (0.5, 0.5), 2, 0.1))

    def test_nested_branches_follow(self, toy):
        branches = [
            SSet(1, {"0,0", "0,1"}),  # first outcome 0
            SSet(2, {"0,0"}),  # then second outcome 0
        ]
        assert branch_following_check(toy, branches)

    def test_swapped_branch_fails(self, toy):
        branches = [
            SSet(1, {"0,0", "0,1"}),
            SSet(2, {"1,0"}),  # belongs to the complementary branch
        ]
        assert not branch_following_check(toy, branches)

    def test_single_element_vacuous(self, toy):
        assert branch_following_check(toy, [SSet(1, {"0,0", "0,1"})])

    def test_non_time_ordered_rejected(self, toy):
        with pytest.raises(ValidationError):
            branch_following_check(toy, [SSet(2, {"0,0"}), SSet(1, {"0,0", "0,1"})])
