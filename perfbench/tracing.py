"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install`` wraps the public functions of each ``qtypicality``
module, including every name another module imported by value (for example
``wavepacket.report_from_masses`` or the package-level re-exports), and
``Tracer.remove`` puts the originals back. While a request is open each
wrapped call records a span ``(parent, request, name, start, end)`` and
bumps the counters derived from its arguments or result; outside a request
the wrappers pass straight through, so the benchmark's own output checks
leave no spans.

A layer's time is the self time of its spans: a span's duration minus the
durations of its child spans. Children of one span never overlap (a request
runs on one thread), so their summed durations are the time they cover.

Per-element helpers (``stats.deviation``, ``stats.frequency``,
``stats.sequence_label``) are left unwrapped: they run once per outcome
sequence, and a span each would cost more than the work they do.
"""
from __future__ import annotations

import collections
import functools
import importlib
import json
import math
import time
import weakref

import numpy as np

#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("core.construct_s", "s", "lower"),
    ("core.evolve_s", "s", "lower"),
    ("core.steps_applied", "count", "lower"),
    ("core.steps_applied_adjoint", "count", "lower"),
    ("core.step_bytes_computed", "B", "lower"),
    ("core.project_s", "s", "lower"),
    ("core.project_calls", "count", "lower"),
    ("core.project_distinct_frac", "ratio", "higher"),
    ("core.chain_calls", "count", "lower"),
    ("core.occupations_calls", "count", "lower"),
    ("typicality.pairs", "count", "lower"),
    ("typicality.pair_s", "s", "lower"),
    ("typicality.exclusion_s", "s", "lower"),
    ("stochastic.twin_s", "s", "lower"),
    ("stochastic.twin_steps", "count", "lower"),
    ("stochastic.cylinder_calls", "count", "lower"),
    ("stochastic.cylinder_s", "s", "lower"),
    ("stochastic.audit_self_s", "s", "lower"),
    ("graph.build_self_s", "s", "lower"),
    ("graph.paths_scanned", "count", "lower"),
    ("graph.paths_admissible", "count", "higher"),
    ("graph.path_yield", "ratio", "higher"),
    ("graph.links", "count", "higher"),
    ("stats.chain_build_s", "s", "lower"),
    ("stats.region_s", "s", "lower"),
    ("stats.tail_mass_s", "s", "lower"),
    ("stats.sequences", "count", "lower"),
    ("stats.compositions", "count", "lower"),
    ("wavepacket.fft_calls", "count", "lower"),
    ("wavepacket.fft_points", "count", "lower"),
    ("wavepacket.sweep_self_s", "s", "lower"),
    ("scenarios.build_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: module -> {function or Class.method: the time metric its self time feeds}
WRAPPED = {
    "core": {
        "QuantumStructure.__init__": "core.construct_s",
        "structure_from_dict": "core.construct_s",
        "structure_to_dict": "core.construct_s",
        "load_scenario": "core.construct_s",
        "evolve": "core.evolve_s",
        "state_at": "core.evolve_s",
        "heisenberg_project": "core.project_s",
        "chain_project": "core.project_s",
        "occupations": "core.project_s",
    },
    "typicality": {
        "mutual_typicality": "typicality.pair_s",
        "mutual_typicality_measure_mu": "typicality.pair_s",
        "report_from_masses": "typicality.pair_s",
        "check_inequality_chain": "typicality.pair_s",
        "exclusion_measure": "typicality.exclusion_s",
    },
    "stochastic": {
        "StochasticProcessSpec.__init__": "stochastic.twin_s",
        "matched_markov_chain": "stochastic.twin_s",
        "process_from_dict": "stochastic.twin_s",
        "process_to_dict": "stochastic.twin_s",
        "cylinder_measure": "stochastic.cylinder_s",
        "mu_sset": "stochastic.cylinder_s",
        "mu_symmetric_difference": "stochastic.cylinder_s",
        "mu_typicality": "stochastic.cylinder_s",
        "correspondence_audit": "stochastic.audit_self_s",
    },
    "graph": {
        "PartitionSchedule.__init__": "graph.build_self_s",
        "build_graph": "graph.build_self_s",
        "branch_following_check": "graph.build_self_s",
    },
    "stats": {
        "ExperimentSpec.__init__": "stats.tail_mass_s",
        "build_measurement_chain": "stats.chain_build_s",
        "typical_region": "stats.region_s",
        "atypical_region": "stats.region_s",
        "typical_set_complement_mass": "stats.tail_mass_s",
        "typical_set_bound": "stats.tail_mass_s",
        "born_frequency_report": "stats.tail_mass_s",
    },
    "scenarios": {
        "build_unruh": "scenarios.build_s",
        "obstacle_variant": "scenarios.build_s",
        "build_beamsplitter_fig1": "scenarios.build_s",
        "nonadditivity_demo": "scenarios.build_s",
    },
    "wavepacket": {
        name: "wavepacket.sweep_self_s"
        for name in (
            "gaussian_packet", "superposition", "free_evolve", "position_mean",
            "position_var", "momentum_mean_sq", "spread_sigma", "packet_support",
            "mask_interval", "support_condition_check", "separation_sweep",
        )
    },
    "cli": {
        "main": "cli.self_s",
        "build_parser": "cli.self_s",
        "parse_sset": "cli.self_s",
        "parse_slice": "cli.self_s",
    },
}

PACKAGE_MODULES = ("__init__",) + tuple(WRAPPED)
TWIN_SPAN = "stochastic.matched_markov_chain"


def self_times(spans) -> list:
    """Self time of each span; ``spans[i]`` is ``(parent, request, name, start, end)``."""
    covered = [0.0] * len(spans)
    for parent, _, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, _, start, end) in enumerate(spans)]


def _module(name: str):
    return importlib.import_module("qtypicality" if name == "__init__" else f"qtypicality.{name}")


class Tracer:
    """Spans and counters of the requests issued while it is installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.request = None
        self.counts: collections.Counter = collections.Counter()
        self.project_keys: set = set()
        self._patches: list = []  # (owner, attribute, original)
        self._step_bytes = weakref.WeakKeyDictionary()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        before, after = self._hooks()
        replaced = {}
        for mod_name, functions in WRAPPED.items():
            module = _module(mod_name)
            for qualname in functions:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                name = f"{mod_name}.{qualname}"
                wrapper = self._wrap(name, original, before.get(name), after.get(name))
                self._patch(owner, attr, original, wrapper)
                if not owner_name:
                    replaced[id(original)] = (original, wrapper)
        # Names imported by value into other modules still point at the
        # originals; patch every one of them too.
        for mod_name in PACKAGE_MODULES:
            module = _module(mod_name)
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, value, hit[1])
        core = _module("core")
        self._patch(core, "_apply_step", core._apply_step, self._count_twin_steps(core._apply_step))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- recording --------------------------------------------------------------

    def _wrap(self, name, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1][0] if tracer.stack else -1
            tracer.stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[span_id] = (parent, tracer.request, name, start, end)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_twin_steps(self, fn):
        """Count the steps the Markov twin applies through ``core._apply_step``.

        Steps applied inside ``core.evolve`` are counted from its arguments;
        only those applied directly under the twin's span are counted here.
        """
        tracer = self

        @functools.wraps(fn)
        def apply_step(*args, **kwargs):
            if tracer.stack and tracer.stack[-1][1] == TWIN_SPAN:
                tracer.counts["stochastic.twin_steps"] += 1
            return fn(*args, **kwargs)

        return apply_step

    # -- counters ---------------------------------------------------------------

    def _hooks(self):
        counts = self.counts

        def bump(metric):
            def hook(args, kwargs):
                counts[metric] += 1
            return hook

        def evolve(args, kwargs):
            structure, state, to_time = _bind(args, kwargs, ("structure", "state", "to_time"))
            t0, t1 = int(state.at_time), int(to_time)
            if t1 >= t0:
                counts["core.steps_applied"] += t1 - t0
            else:
                counts["core.steps_applied_adjoint"] += t0 - t1
            prefix = self._step_bytes_prefix(structure)
            lo, hi = sorted((t0, t1))
            if 0 <= lo and hi < len(prefix):
                counts["core.step_bytes_computed"] += int(prefix[hi] - prefix[lo])

        def project(args, kwargs):
            structure, sset, state, at_time = _bind(
                args, kwargs, ("structure", "sset", "state", "at_time"), defaults={"at_time": None}
            )
            counts["core.project_calls"] += 1
            # hash() of the bytes is stable within the process, which is the
            # scope of one pass's distinct count.
            digest = hash(np.ascontiguousarray(state.amplitudes).tobytes())
            self.project_keys.add(
                (self.request, digest, int(state.at_time), int(sset.time),
                 tuple(sorted(sset.region)), at_time)
            )

        def sequences(args, kwargs):
            (spec,) = _bind(args, kwargs, ("spec",))
            counts["stats.sequences"] += spec.n ** spec.N

        def compositions(args, kwargs):
            (spec,) = _bind(args, kwargs, ("spec",))
            counts["stats.compositions"] += math.comb(spec.N + spec.n - 1, spec.n - 1)

        def fft(args, kwargs):
            (state,) = _bind(args, kwargs, ("state",))
            counts["wavepacket.fft_calls"] += 2
            counts["wavepacket.fft_points"] += 2 * state.n_points

        def graph_built(result):
            scanned = 1
            for slice_nodes in result.slices:
                scanned *= sum(1 for i in slice_nodes if not result.nodes[i].excluded)
            counts["graph.paths_scanned"] += scanned
            counts["graph.paths_admissible"] += len(result.paths)
            counts["graph.links"] += len(result.links)

        before = {
            "core.evolve": evolve,
            "core.heisenberg_project": project,
            "core.chain_project": bump("core.chain_calls"),
            "core.occupations": bump("core.occupations_calls"),
            "typicality.mutual_typicality": bump("typicality.pairs"),
            "stochastic.cylinder_measure": bump("stochastic.cylinder_calls"),
            "stats.build_measurement_chain": sequences,
            "stats.typical_region": sequences,
            "stats.atypical_region": sequences,
            "stats.typical_set_complement_mass": compositions,
            "wavepacket.free_evolve": fft,
        }
        after = {"graph.build_graph": graph_built}
        return before, after

    def _step_bytes_prefix(self, structure):
        prefix = self._step_bytes.get(structure)
        if prefix is None:
            sizes = [
                step.nbytes if isinstance(step, np.ndarray) else step.matrix.nbytes
                for step in structure.schedule
            ]
            prefix = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
            self._step_bytes[structure] = prefix
        return prefix

    # -- results ----------------------------------------------------------------

    def reset(self) -> None:
        """Drop the spans and counts of the previous traced pass."""
        self.spans = []
        self.stack = []
        self.counts.clear()
        self.project_keys = set()

    def layer_metrics(self, report_bytes: int) -> dict:
        """Per-layer values of the spans and counts recorded since ``reset``."""
        out = {name: 0 for name, _, _ in LAYER_METRICS}
        metric_of = {
            f"{mod}.{fn}": metric for mod, fns in WRAPPED.items() for fn, metric in fns.items()
        }
        for span, own in zip(self.spans, self_times(self.spans)):
            out[metric_of[span[2]]] += own
        out.update(self.counts)
        calls = self.counts["core.project_calls"]
        out["core.project_distinct_frac"] = len(self.project_keys) / calls if calls else 0.0
        scanned = self.counts["graph.paths_scanned"]
        out["graph.path_yield"] = self.counts["graph.paths_admissible"] / scanned if scanned else 0.0
        out["cli.report_bytes"] = report_bytes
        return out


def write_spans(path: str, passes: list) -> None:
    """One JSON line per span: pass, id, parent id, request, name, start, end."""
    with open(path, "w", encoding="utf-8") as fh:
        for pass_index, spans in passes:
            for i, (parent, request, name, start, end) in enumerate(spans):
                fh.write(json.dumps([pass_index, i, parent, request, name, start, end]) + "\n")


def _bind(args, kwargs, names, defaults=None):
    if len(args) == len(names):  # the package's own calls are positional
        return args
    values = dict(defaults or {})
    values.update(zip(names, args))
    values.update((k, v) for k, v in kwargs.items() if k in names)
    return tuple(values[name] for name in names)
