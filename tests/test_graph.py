import itertools
import json
import subprocess
import sys

import numpy as np
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
    QuantumStructure,
    Verdict,
    build_unruh,
    matched_markov_chain,
    mu_typicality,
    mutual_typicality,
    obstacle_variant,
)
from qtypicality import core, typicality
from qtypicality.graph import _admissible_paths

from conftest import random_structure, random_unitary

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

    @pytest.mark.parametrize("time", [1.5, float("nan"), True])
    def test_non_integral_slice_time_rejected(self, time):
        with pytest.raises(ValidationError, match="time index .* is not an integer"):
            PartitionSchedule([(time, ({"U", "D"},))])

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


def reference_links_and_paths(structure, graph, tau_link):
    """Forced links by one ``mutual_typicality`` call per node pair, in slice
    pair order and then by node index, and the paths they admit."""
    nodes = graph.nodes
    links = []
    for earlier, later in itertools.combinations(graph.slices, 2):
        for a in earlier:
            for b in later:
                if nodes[a].excluded or nodes[b].excluded:
                    continue
                report = mutual_typicality(
                    structure,
                    SSet(nodes[a].time, nodes[a].region),
                    SSet(nodes[b].time, nodes[b].region),
                    threshold=tau_link,
                )
                if report.verdict is Verdict.MUTUALLY_TYPICAL:
                    links.append((a, b, report.m_big))
    candidates = [[i for i in s if not nodes[i].excluded] for s in graph.slices]
    return links, product_oracle(candidates, [(a, b) for a, b, _ in links])


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


def singleton_schedule(structure, times):
    return PartitionSchedule((t, [{label} for label in structure.labels]) for t in times)


class TestLinksMatchThePairLoop:
    @pytest.mark.parametrize("tau_link", [0.02, 0.08, 0.5])
    def test_near_classical_and_haar_structures(self, rng, tau_link):
        total_links = 0
        for make in (near_classical_structure, random_structure) * 3:
            structure = make(rng, dim=16, n_steps=4, n_cells=4)
            graph = build_graph(
                structure, singleton_schedule(structure, structure.times), 0.01, tau_link
            )
            links, paths = reference_links_and_paths(structure, graph, tau_link)
            assert list(graph.links) == links
            assert list(graph.paths) == paths
            total_links += len(links)
        assert total_links > 0

    @pytest.mark.parametrize(
        "model",
        [build_unruh(), build_unruh(with_detector_d2=True), obstacle_variant("U1"),
         obstacle_variant("D1")],
        ids=["unruh", "detector", "obstacle-U1", "obstacle-D1"],
    )
    def test_unruh_models(self, model):
        graph = build_graph(model.structure, model.partition_schedule())
        links, paths = reference_links_and_paths(model.structure, graph, 0.08)
        assert list(graph.links) == links
        assert list(graph.paths) == paths

    def test_grouped_regions_and_excluded_nodes(self, rng):
        structure = near_classical_structure(rng, dim=24, n_steps=3, n_cells=6)
        schedule = PartitionSchedule(
            [(0, [{"c0", "c1"}, {"c2"}, {"c3", "c4", "c5"}]),
             (2, [{"c0"}, {"c1", "c2", "c3"}, {"c4"}, {"c5"}]),
             (3, [{label} for label in structure.labels])]
        )
        graph = build_graph(structure, schedule, 0.1, 0.3)
        assert any(node.excluded for node in graph.nodes)
        links, paths = reference_links_and_paths(structure, graph, 0.3)
        assert list(graph.links) == links
        assert list(graph.paths) == paths


def link_names(graph):
    return {frozenset((graph.nodes[a].name, graph.nodes[b].name)) for a, b, _ in graph.links}


def mirrored(names):
    """The names with the arms swapped: the D1 obstacle mirrors U1."""
    swap = str.maketrans("UD", "DU")
    return {type(n)(x.translate(swap) for x in n) for n in names}


class TestGraphOnTheTwin:
    """``build_graph`` on a structure and on its matched Markov twin, with the
    same partition schedule and thresholds: the links that only the
    typicality rule makes."""

    def graphs(self, model):
        schedule = model.partition_schedule()
        twin = matched_markov_chain(model.structure)
        return build_graph(model.structure, schedule), build_graph(twin, schedule)

    def test_unruh_twin_has_no_which_way_links(self):
        quantum, twin = self.graphs(build_unruh())
        assert link_names(quantum) == {frozenset(("U@1", "D@3")), frozenset(("D@1", "U@3"))}
        assert path_names(quantum) == FIG3_PATHS
        assert link_names(twin) == set()
        assert {n.name for n in twin.nodes if n.excluded} == {"D@2"}
        assert path_names(twin) == FIG5_PATHS

    @pytest.mark.parametrize("arm", ["U1", "D1"])
    def test_obstacle_twin_keeps_one_absorber_link(self, arm):
        quantum, twin = self.graphs(obstacle_variant(arm))
        fix = mirrored if arm == "D1" else set
        assert link_names(quantum) == fix({
            frozenset(("BLOCK@1", "BLOCK@2")), frozenset(("BLOCK@1", "BLOCK@3")),
            frozenset(("BLOCK@2", "BLOCK@3")), frozenset(("D@1", "U@3")),
        })
        assert path_names(quantum) == fix({
            ("BLOCK@1", "BLOCK@2", "BLOCK@3"), ("D@1", "D@2", "U@3"), ("D@1", "U@2", "U@3"),
        })
        assert link_names(twin) == {frozenset(("BLOCK@1", "BLOCK@2"))}
        # The tiled fallback at step 2 lets the absorbed branch leave BLOCK.
        assert path_names(twin) == fix({
            ("BLOCK@1", "BLOCK@2", "BLOCK@3"), ("BLOCK@1", "BLOCK@2", "U@3"),
            ("D@1", "D@2", "BLOCK@3"), ("D@1", "D@2", "U@3"),
            ("D@1", "U@2", "BLOCK@3"), ("D@1", "U@2", "U@3"),
        })

    def test_twin_links_are_the_mu_verdicts(self):
        model = obstacle_variant("U1")
        twin = matched_markov_chain(model.structure)
        graph = build_graph(twin, model.partition_schedule())
        live = [n for n in graph.nodes if not n.excluded]
        expected = {
            frozenset((a.name, b.name))
            for a, b in itertools.combinations(live, 2)
            if a.time != b.time
            and mu_typicality(twin, SSet(a.time, a.region), SSet(b.time, b.region)).verdict
            is Verdict.MUTUALLY_TYPICAL
        }
        assert link_names(graph) == expected


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


def per_pair_branch_following(structure, branch_regions, tau):
    """``branch_following_check`` as one report per pair: each pair is judged
    by ``mutual_typicality`` before its chain loss is computed."""
    times = [s.time for s in branch_regions]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValidationError("branch regions must be strictly time-ordered")
    for s in branch_regions:
        structure.check_sset(s)
    for i, j in itertools.combinations(range(len(branch_regions)), 2):
        s_i, s_j = branch_regions[i], branch_regions[j]
        report = mutual_typicality(structure, s_i, s_j, threshold=tau)
        if report.verdict is Verdict.MUTUALLY_TYPICAL:
            continue
        later = core.project_initial(structure, s_j)
        chained = core.chain_project(structure, [s_i, s_j], at_time=0)
        if later.norm_sq < typicality.DEGENERATE_NORM_TOL:
            continue
        loss = later.amplitudes - chained.amplitudes
        if float((loss.conj() @ loss).real) / later.norm_sq > tau:
            return False
    return True


def outcome(check, *args):
    try:
        return check(*args)
    except Exception as exc:  # compared as data below
        return type(exc).__name__, str(exc)


@st.composite
def branch_lists(draw):
    """A random structure, a branch list with distinct times in order (or,
    now and then, one time repeated), regions nested, unrelated or empty,
    and a threshold."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_structure(rng, dim=draw(st.sampled_from([2, 4, 6])), n_steps=3)
    times = sorted(draw(st.sets(st.integers(0, 3), max_size=4)))
    if times and draw(st.integers(0, 9)) == 0:
        times.append(times[-1])
    labels = list(q.labels)
    branches = []
    for t in times:
        region = draw(st.sets(st.sampled_from(labels), min_size=0, max_size=len(labels)))
        branches.append(SSet(t, region))
    tau = draw(st.one_of(
        st.sampled_from([0.08, 0.3, 0.9, 0.5, 0.0, 1.0, -0.1, float("nan")]),
        st.floats(0.01, 0.99),
    ))
    return q, branches, tau


class TestBranchFollowingTable:
    @settings(max_examples=150, deadline=None)
    @given(branch_lists())
    def test_table_equals_the_per_pair_loop(self, problem):
        q, branches, tau = problem
        got = outcome(branch_following_check, q, branches, tau)
        expected = outcome(per_pair_branch_following, q, branches, tau)
        if len(branches) < 2 and not 0.0 < tau < 1.0:
            # The table checks tau even when it has no pair to judge.
            assert expected is True
            assert got == ("ValidationError", f"threshold {float(tau)} outside (0, 1)")
        else:
            assert got == expected

    def test_dead_later_branch_constrains_nothing(self):
        q = build_unruh().structure
        assert branch_following_check(q, [SSet(1, {"U"}), SSet(2, set())])

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_bad_tau_rejected_without_pairs(self, tau):
        q = build_unruh().structure
        for branches in ([], [SSet(1, {"U"})]):
            with pytest.raises(ValidationError, match="threshold"):
                branch_following_check(q, branches, tau)


# Graph requests on regions of three and more labels, and two rejections
# that name one label of a region; run in one process per hash seed.
HASH_SEED_REQUESTS = """
import sys
from qtypicality.cli import main
path = sys.argv[1]
for slices in (["1:c0,c1,c2|c3,c4,c5,c6,c7", "3:c0,c3,c5|c1,c2,c4,c6,c7"],
               ["1:c0,c1,c2|c3,c2,c1"], ["1:c0,c1,c2|c3,c4,c5,c6,c7,X,Y"]):
    code = main(["graph", "--scenario-file", path] + [a for s in slices for a in ("--slice", s)])
    print("exit", code, flush=True)
"""


def test_reports_do_not_depend_on_the_hash_seed(tmp_path, src_env):
    """A region is a frozenset, whose iteration order follows the salted
    string hash; node masses and error texts must not."""
    rng = np.random.default_rng(1803)
    dim, n_cells = 32, 8
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    structure = QuantumStructure(
        dim,
        psi0 / np.linalg.norm(psi0),
        [random_unitary(rng, dim) for _ in range(4)],
        {f"c{c}": list(range(4 * c, 4 * c + 4)) for c in range(n_cells)},
    )
    path = tmp_path / "haar.json"
    path.write_text(json.dumps(core.structure_to_dict(structure)))
    outputs = set()
    for seed in range(8):
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_REQUESTS, str(path)],
            env={**src_env, "PYTHONHASHSEED": str(seed)}, capture_output=True, text=True, check=True,
        )
        outputs.add((done.stdout, done.stderr))
    assert len(outputs) == 1
    out, err = outputs.pop()
    assert json.loads(out.split("exit 0")[0])["results"]["nodes"][0]["region"] == ["c0", "c1", "c2"]
    assert out.count("exit 2") == 2
    assert err.splitlines() == [
        "error: slice t=1: label 'c1' appears in two regions",
        "error: unknown cell label 'X'",
    ]
