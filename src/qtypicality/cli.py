"""Command-line surface producing reproducible JSON/CSV reports.

Every JSON report embeds the resolved configuration, tool version, and the
thresholds in effect, so a report is a complete record of its own run.
Identical configuration and seed give byte-identical output.

Exit codes: 0 success, 2 parse/configuration error, 3 computational guard
violation, 4 audit assertion failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import sys

import numpy as np

from . import __version__, core, graph, scenarios, stats, stochastic, typicality, wavepacket
from .core import SSet
from .errors import ResourceLimitError, ValidationError

EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_AUDIT = 4


def _csv(rows) -> str:
    """CSV text of ``rows``, the header being the first; lines end in CRLF."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, results, rows=None, **extra) -> None:
    """Write the JSON report, or ``rows`` under ``--format csv``.

    The report's ``config`` block records the command, its scenario file,
    the thresholds, the output settings, the seed and ``extra``. ``rows``
    is iterated only for CSV, so commands may pass a generator.
    """
    if args.format == "csv":
        if rows is None:
            raise ValidationError(f"{args.command} has no CSV form")
        text = _csv(rows)
    else:
        config = {
            "command": args.command,
            "scenario_path": getattr(args, "scenario_file", None),
            "thresholds": {
                "epsilon_exclude": args.epsilon_exclude,
                "tau_link": args.tau_link,
                "typicality": args.threshold,
            },
            "output": {"format": args.format, "path": args.output},
            "seed": args.seed,
            **extra,
        }
        text = _json({"version": __version__, "config": config, "results": results})
    _write(args.output, text)


def parse_sset(text: str) -> SSet:
    """Parse 'TIME:LABEL[,LABEL...]' into an s-set."""
    try:
        time_part, labels = text.split(":", 1)
        region = [lab for lab in labels.split(",") if lab]
        if not region:
            raise ValueError("empty region")
        return SSet(int(time_part), region)
    except ValueError as exc:
        raise ValidationError(f"bad s-set {text!r} (expected TIME:LABELS): {exc}")


def parse_slice(text: str):
    """Parse 'TIME:LAB[,LAB]|LAB...' into a partition slice."""
    try:
        time_part, regions = text.split(":", 1)
        parsed = [
            frozenset(lab for lab in chunk.split(",") if lab)
            for chunk in regions.split("|")
        ]
        if not all(parsed):
            raise ValueError("empty region")
        return int(time_part), tuple(parsed)
    except ValueError as exc:
        raise ValidationError(f"bad slice {text!r} (expected TIME:R|R...): {exc}")


def _export_scenario(structure, path: str) -> None:
    data = core.structure_to_dict(structure)
    data["stochastic"] = stochastic.process_to_dict(
        stochastic.matched_markov_chain(structure)
    )
    _write(path, _json(data))


def _cmd_scenario(args) -> int:
    if args.scenario == "unruh":
        if args.obstacle:
            model = scenarios.obstacle_variant(args.obstacle)
        else:
            model = scenarios.build_unruh(with_detector_d2=args.detector_d2)
        st = model.structure
        if args.export:
            _export_scenario(st, args.export)
        g = graph.build_graph(
            st, model.partition_schedule(), args.epsilon_exclude, args.tau_link
        )
        reports = {
            "U1_vs_D3": typicality.mutual_typicality(
                st, SSet(1, {"U"}), SSet(3, {"D"}), args.threshold
            ).to_dict(),
            "D1_vs_U3": typicality.mutual_typicality(
                st, SSet(1, {"D"}), SSet(3, {"U"}), args.threshold
            ).to_dict(),
        }
        results = {
            "cells": list(st.labels),
            "detector_arrival": core.occupations(st, 3),
            "exclusion_U2": typicality.exclusion_measure(st, SSet(2, {"U"})),
            "typicality": reports,
            "graph": g.to_dict(),
        }
        if "CLICK" in st.labels:
            # Mass diverted out of the photon arms, i.e. the counter's rate.
            results["click_occupation_t2"] = typicality.exclusion_measure(
                st, SSet(2, {"U", "D"})
            )
        _emit(
            args,
            results,
            g.edge_rows(),
            scenario="unruh",
            detector_d2=args.detector_d2,
            obstacle=args.obstacle,
        )
    elif args.scenario == "fig1":
        st = scenarios.build_beamsplitter_fig1()
        if args.export:
            _export_scenario(st, args.export)
        results = {
            "matched_pair": typicality.mutual_typicality(
                st, SSet(1, {"A"}), SSet(2, {"A"}), args.threshold
            ).to_dict(),
            "crossed_pair": typicality.mutual_typicality(
                st, SSet(1, {"A"}), SSet(2, {"B"}), args.threshold
            ).to_dict(),
            "pinhole_exclusion": typicality.exclusion_measure(st, SSet(1, {"A"})),
        }
        _emit(args, results, scenario="fig1")
    else:  # nonadditivity
        witness = scenarios.nonadditivity_demo()
        results = {
            "combined": witness.combined,
            "term_u1": witness.term_u1,
            "term_d1": witness.term_d1,
            "additive": abs(
                witness.combined - (witness.term_u1 + witness.term_d1)
            ) <= 1e-12,
        }
        _emit(args, results, scenario="nonadditivity")
    return 0


def _cmd_typicality(args) -> int:
    structure, _ = core.load_scenario(args.scenario_file)
    s1, s2 = parse_sset(args.s1), parse_sset(args.s2)
    report = typicality.mutual_typicality(structure, s1, s2, args.threshold)
    header = [field.name for field in dataclasses.fields(report)]
    rows = [header, dataclasses.astuple(report)]
    _emit(args, report.to_dict(), rows, s1=args.s1, s2=args.s2)
    return 0


def _cmd_graph(args) -> int:
    structure, _ = core.load_scenario(args.scenario_file)
    schedule = graph.PartitionSchedule(parse_slice(s) for s in args.slice)
    g = graph.build_graph(structure, schedule, args.epsilon_exclude, args.tau_link)
    _emit(args, g.to_dict(), g.edge_rows(), slices=list(args.slice))
    return 0


def _stat_rows(args):
    rng = np.random.default_rng(args.seed)
    if args.sweep:
        for n in (2, 3):
            for big_n in range(1, 17):
                for eps in (0.02, 0.05, 0.1, 0.125, 0.25, 0.5):
                    for _ in range(args.sweep_draws):
                        p = rng.dirichlet(np.ones(n))
                        yield stats.ExperimentSpec(n, p, big_n, eps)
    else:
        yield stats.ExperimentSpec(args.n, args.p, args.N, args.eps)


def _cmd_stat_bound(args) -> int:
    rows = []
    for spec in _stat_rows(args):
        mass = stats.typical_set_complement_mass(spec)
        bound = stats.typical_set_bound(spec)
        rows.append(
            {
                "n": spec.n,
                "p": list(spec.probs),
                "N": spec.N,
                "eps": spec.epsilon,
                "mass": mass,
                "bound": bound,
                "holds": mass < bound,
            }
        )
    rows.sort(key=lambda r: (r["n"], r["N"], r["eps"], r["p"]))
    csv_rows = itertools.chain(
        [["n", "N", "eps", "p", "mass", "bound", "holds"]],
        (
            [r["n"], r["N"], r["eps"], ";".join(map(repr, r["p"])), r["mass"],
             r["bound"], str(r["holds"]).lower()]
            for r in rows
        ),
    )
    _emit(
        args,
        rows,
        csv_rows,
        n=args.n,
        p=list(args.p),
        N=args.N,
        eps=args.eps,
        sweep=args.sweep,
        sweep_draws=args.sweep_draws,
    )
    return 0


def _cmd_wavepacket(args) -> int:
    rows = wavepacket.separation_sweep(
        separations_sigma=args.separations,
        sigma=args.sigma,
        momentum=args.momentum,
        n_points=args.n_points,
        length=args.length,
    )
    if args.snapshot:
        state = wavepacket.superposition(
            wavepacket.gaussian_packet(
                -args.separations[0] * args.sigma / 2,
                args.sigma,
                -args.momentum,
                args.n_points,
                args.length,
            ),
            wavepacket.gaussian_packet(
                args.separations[0] * args.sigma / 2,
                args.sigma,
                args.momentum,
                args.n_points,
                args.length,
            ),
        )
        density = zip(state.x.tolist(), state.density().tolist())
        _write(args.snapshot, _csv(itertools.chain([["x", "density"]], density)))
    _emit(
        args,
        [{"separation_sigma": s, "m_big": m} for s, m in rows],
        itertools.chain([["separation_sigma", "m_big"]], rows),
        separations=list(args.separations),
        sigma=args.sigma,
        momentum=args.momentum,
        n_points=args.n_points,
        grid_length=args.length,
    )
    return 0


def _cmd_audit(args) -> int:
    structure, raw = core.load_scenario(args.scenario_file)
    if "stochastic" in raw:
        chain = stochastic.process_from_dict(raw["stochastic"])
    else:
        chain = stochastic.matched_markov_chain(structure)
    audit = stochastic.correspondence_audit(structure, chain)
    _emit(args, audit.to_dict())
    if not audit.passed:
        sys.stderr.write(
            "audit failed: " + json.dumps(audit.to_dict(), sort_keys=True) + "\n"
        )
        return EXIT_AUDIT
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtypicality",
        description="Typicality analysis of finite-dimensional quantum processes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--epsilon-exclude", type=float, default=0.01)
    common.add_argument("--tau-link", type=float, default=0.08)
    common.add_argument("--threshold", type=float, default=0.08)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--output", default=None, help="write report here instead of stdout")
    common.add_argument("--seed", type=int, default=0)

    sub = parser.add_subparsers(dest="command", required=True)

    p_scn = sub.add_parser("scenario", parents=[common], help="built-in experiments")
    p_scn.add_argument("scenario", choices=("unruh", "fig1", "nonadditivity"))
    p_scn.add_argument("--detector-d2", action="store_true")
    p_scn.add_argument("--obstacle", choices=("U1", "D1"), default=None)
    p_scn.add_argument("--export", default=None, help="also write the scenario JSON here")
    p_scn.set_defaults(func=_cmd_scenario)

    p_typ = sub.add_parser("typicality", parents=[common], help="pairwise measure")
    p_typ.add_argument("--scenario-file", required=True)
    p_typ.add_argument("--s1", required=True, help="TIME:LABEL[,LABEL...]")
    p_typ.add_argument("--s2", required=True)
    p_typ.set_defaults(func=_cmd_typicality)

    p_gra = sub.add_parser("graph", parents=[common], help="trajectory graph")
    p_gra.add_argument("--scenario-file", required=True)
    p_gra.add_argument(
        "--slice", action="append", required=True, help="TIME:REGION|REGION..."
    )
    p_gra.set_defaults(func=_cmd_graph)

    p_sta = sub.add_parser("stat-bound", parents=[common], help="typical-set tail bound")
    p_sta.add_argument("--n", type=int, default=2)
    p_sta.add_argument("--p", type=lambda s: [float(x) for x in s.split(",")], default=[0.5, 0.5])
    p_sta.add_argument("--N", type=int, default=16)
    p_sta.add_argument("--eps", type=float, default=0.125)
    p_sta.add_argument("--sweep", action="store_true")
    p_sta.add_argument("--sweep-draws", type=int, default=20)
    p_sta.set_defaults(func=_cmd_stat_bound)

    p_wav = sub.add_parser("wavepacket", parents=[common], help="grid-packet sweep")
    p_wav.add_argument(
        "--separations",
        type=lambda s: [float(x) for x in s.split(",")],
        default=[4.0, 6.0, 8.0, 10.0],
        help="separations in units of sigma",
    )
    p_wav.add_argument("--sigma", type=float, default=1.0)
    p_wav.add_argument("--momentum", type=float, default=2.0)
    p_wav.add_argument("--n-points", type=int, default=4096)
    p_wav.add_argument("--length", type=float, default=200.0)
    p_wav.add_argument("--snapshot", default=None, help="write |psi(x)|^2 CSV here")
    p_wav.set_defaults(func=_cmd_wavepacket)

    p_aud = sub.add_parser("audit", parents=[common], help="correspondence audit")
    p_aud.add_argument("--scenario-file", required=True)
    p_aud.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("epsilon_exclude", "tau_link", "threshold"):
            if not 0.0 < getattr(args, name) < 1.0:
                raise ValidationError(f"--{name.replace('_', '-')} must be in (0, 1)")
        return args.func(args)
    except json.JSONDecodeError as exc:
        sys.stderr.write(
            f"parse error: {exc.msg} at line {exc.lineno} column {exc.colno}\n"
        )
        return EXIT_PARSE
    except (ValidationError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except ResourceLimitError as exc:
        sys.stderr.write(f"guard violation: {exc}\n")
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
