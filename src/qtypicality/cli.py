"""Command-line surface producing reproducible JSON/CSV reports.

Every JSON report embeds the tool version and its command's resolved
options; a command takes only the thresholds and seed it reads (any other
exits 2). Identical configuration gives byte-identical output.

One table, ``_COMMANDS``, lists each command's handler, help text and
options, the options as ``add_argument(*flags, **kwargs)`` rows.
``build_parser`` gives the rows to argparse, which stays the reference. A
well-formed command line (exact long options, plain values, nothing
repeated or missing) is read from the rows alone into the Namespace
argparse would return, without building a parser. Any other line goes to
argparse: help, the version, abbreviations, ``--opt=value``, values
starting with '-', and every error. A line that names a command builds
that command's subparser alone, any other the full parser; the texts are
the same either way, as the usage line names every command.

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
import math
import sys
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from . import __version__, core, graph, scenarios, stats, stochastic, typicality, wavepacket
from .core import SSet
from .errors import ResourceLimitError, ValidationError

EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_AUDIT = 4

# Key under a report's ``config.thresholds`` of each threshold option.
_THRESHOLD_KEYS = {"epsilon_exclude": "epsilon_exclude", "tau_link": "tau_link",
                   "threshold": "typicality"}
_THRESHOLD_DEFAULTS = {
    "epsilon_exclude": graph.DEFAULT_EPSILON_EXCLUDE,
    "tau_link": graph.DEFAULT_TAU_LINK,
    "threshold": typicality.DEFAULT_THRESHOLD,
}


def _csv(rows) -> str:
    """CSV text of ``rows``, the header being the first; lines end in CRLF."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _json(data) -> str:
    """The report text ``json.dumps(data, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"``, byte for byte, in one recursive pass.

    Unlike ``json.dumps``, a key that is not a ``str`` raises ``TypeError``
    instead of being converted; no report has one.
    """
    return _json_value(data, "\n") + "\n"


def _json_float(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    raise ValueError("Out of range float values are not JSON compliant: " + repr(value))


# Text of each scalar type, for lists whose items all have that exact type.
_JSON_SCALARS = {
    str: _json_string,
    int: int.__repr__,
    float: float.__repr__,  # after a finiteness check of the whole list
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_value(value, newline: str) -> str:
    """``value``'s JSON text; ``newline`` starts each line at its depth."""
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is float:
        return _json_float(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is dict:
        return _json_object(value, newline)
    if kind is list or kind is tuple:
        return _json_array(value, newline)
    # Subclasses, in the order of json.encoder's isinstance checks.
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    if isinstance(value, (list, tuple)):
        return _json_array(value, newline)
    if isinstance(value, dict):
        return _json_object(value, newline)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_scalar(values, kinds: set):
    """The text function of ``values``' one scalar type, given the set of
    their types, or None."""
    scalar = _JSON_SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
    if scalar is float.__repr__ and not all(map(math.isfinite, values)):
        scalar = _json_float  # raises at the first non-finite value
    return scalar


def _json_array(items, newline: str) -> str:
    if not items:
        return "[]"
    inner = newline + "  "
    kinds = set(map(type, items))
    if kinds == {list}:
        # A table of list rows of one non-zero width whose cells share one
        # scalar type is one template filled with its cells in row-major order.
        widths = set(map(len, items))
        cells = list(itertools.chain.from_iterable(items))
        scalar = _json_scalar(cells, set(map(type, cells))) if len(widths) == 1 and cells else None
        if scalar is not None:
            cell = inner + "  "
            row = "[" + cell + ("," + cell).join(["%s"] * widths.pop()) + inner + "]"
            table = "[" + inner + ("," + inner).join([row] * len(items)) + newline + "]"
            if scalar is not int.__repr__ and scalar is not float.__repr__:
                cells = map(scalar, cells)  # "%s" gives an int's or a float's repr itself
            return table % tuple(cells)
    scalar = _json_scalar(items, kinds)
    if scalar is None:
        texts = [_json_value(item, inner) for item in items]
    else:
        texts = map(scalar, items)
    return "[" + inner + ("," + inner).join(texts) + newline + "]"


def _json_object(mapping, newline: str) -> str:
    if not mapping:
        return "{}"
    inner = newline + "  "
    texts = [
        _json_string(key) + ": " + _json_value(value, inner)
        for key, value in sorted(mapping.items())
    ]
    return "{" + inner + ("," + inner).join(texts) + newline + "}"


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, results, rows=None, **extra) -> None:
    """Write the JSON report, or ``rows`` under ``--format csv``.

    The report's ``config`` block records the command, the output settings,
    the thresholds the command takes, if any, and ``extra``. ``rows`` is
    iterated only for CSV, so commands may pass a generator.
    """
    if args.format == "csv":
        if rows is None:
            raise ValidationError(f"{args.command} has no CSV form")
        text = _csv(rows)
    else:
        taken = vars(args)
        config = {
            "command": args.command,
            "output": {"format": args.format, "path": args.output},
            **extra,
        }
        thresholds = {key: taken[name] for name, key in _THRESHOLD_KEYS.items() if name in taken}
        if thresholds:
            config["thresholds"] = thresholds
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


# Options of ``scenario`` that each built-in experiment would ignore; the
# obstacle variants of the interferometer have no in-arm detector, fig1
# reads only --threshold and nonadditivity no threshold at all.
_UNUSED_SCENARIO_OPTIONS = {
    "unruh": (),
    "unruh with --obstacle": ("detector_d2",),
    "fig1": ("detector_d2", "obstacle", "epsilon_exclude", "tau_link"),
    "nonadditivity": ("detector_d2", "obstacle", "export",
                      "epsilon_exclude", "tau_link", "threshold"),
}
_SCENARIO_DEFAULTS = {"detector_d2": False, "obstacle": None, "export": None,
                      **_THRESHOLD_DEFAULTS}


def _cmd_scenario(args) -> int:
    variant = args.scenario
    if variant == "unruh" and args.obstacle:
        variant = "unruh with --obstacle"
    for name in _UNUSED_SCENARIO_OPTIONS[variant]:
        if getattr(args, name) != _SCENARIO_DEFAULTS[name]:
            option = "--" + name.replace("_", "-")
            raise ValidationError(f"{option} does not apply to scenario {variant}")
        if name in _THRESHOLD_KEYS:
            delattr(args, name)  # so the report's config does not record it
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
    _emit(args, report.to_dict(), rows, scenario_path=args.scenario_file, s1=args.s1, s2=args.s2)
    return 0


def _cmd_graph(args) -> int:
    structure, _ = core.load_scenario(args.scenario_file)
    schedule = graph.PartitionSchedule(parse_slice(s) for s in args.slice)
    g = graph.build_graph(structure, schedule, args.epsilon_exclude, args.tau_link)
    _emit(args, g.to_dict(), g.edge_rows(), scenario_path=args.scenario_file,
          slices=list(args.slice))
    return 0


def _stat_rows(args):
    if args.sweep:
        # Only a sweep draws, so only a sweep imports numpy.random.
        rng = np.random.default_rng(args.seed)
        for n in (2, 3):
            for big_n in range(1, 17):
                for eps in (0.02, 0.05, 0.1, 0.125, 0.25, 0.5):
                    for _ in range(args.sweep_draws):
                        p = rng.dirichlet(np.ones(n))
                        yield stats.ExperimentSpec(n, p, big_n, eps)
    else:
        yield stats.ExperimentSpec(args.n, args.p, args.N, args.eps)


def _cmd_stat_bound(args) -> int:
    if args.sweep_draws < 1:
        raise ValidationError("--sweep-draws must be at least 1")
    if args.seed < 0:
        raise ValidationError("--seed must be non-negative")
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
    # A sweep draws its own specs, so the single-run options would be noise.
    single = {} if args.sweep else {"n": args.n, "p": list(args.p), "N": args.N, "eps": args.eps}
    _emit(args, rows, csv_rows, **single, seed=args.seed, sweep=args.sweep,
          sweep_draws=args.sweep_draws)
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
        state = wavepacket.superposition(*wavepacket.packet_pair(
            args.separations[0], args.sigma, args.momentum, args.n_points, args.length
        ))
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
    _emit(args, audit.to_dict(), scenario_path=args.scenario_file)
    if not audit.passed:
        sys.stderr.write(
            "audit failed: " + json.dumps(audit.to_dict(), sort_keys=True) + "\n"
        )
        return EXIT_AUDIT
    return 0


def float_list(text: str) -> list:
    """Parse 'X[,X...]' into a list of floats."""
    return [float(x) for x in text.split(",")]


# Each command's options as ``add_argument(*flags, **kwargs)`` rows of one
# flag each, in the order the subparser adds them: the output options, the
# thresholds the command reads, then its own. ``build_parser`` gives the rows to argparse;
# ``_read_command_line`` reads a well-formed command line with them alone.
_OUTPUT_ROWS = (
    (("--format",), {"choices": ("json", "csv"), "default": "json"}),
    (("--output",), {"default": None, "help": "write report here instead of stdout"}),
)


def _threshold_rows(*dests) -> tuple:
    return tuple(
        (("--" + dest.replace("_", "-"),), {"type": float, "default": _THRESHOLD_DEFAULTS[dest]})
        for dest in dests
    )


_SCENARIO_FILE_ROW = (("--scenario-file",), {"required": True})

# Each command's handler, help text and option rows, in the order the usage
# line lists the commands.
_COMMANDS = {
    "scenario": (_cmd_scenario, "built-in experiments", (
        *_OUTPUT_ROWS,
        *_threshold_rows(*_THRESHOLD_DEFAULTS),
        (("scenario",), {"choices": ("unruh", "fig1", "nonadditivity")}),
        (("--detector-d2",), {"action": "store_true"}),
        (("--obstacle",), {"choices": ("U1", "D1"), "default": None}),
        (("--export",), {"default": None, "help": "also write the scenario JSON here"}),
    )),
    "typicality": (_cmd_typicality, "pairwise measure", (
        *_OUTPUT_ROWS,
        *_threshold_rows("threshold"),
        _SCENARIO_FILE_ROW,
        (("--s1",), {"required": True, "help": "TIME:LABEL[,LABEL...]"}),
        (("--s2",), {"required": True}),
    )),
    "graph": (_cmd_graph, "trajectory graph", (
        *_OUTPUT_ROWS,
        *_threshold_rows("epsilon_exclude", "tau_link"),
        _SCENARIO_FILE_ROW,
        (("--slice",), {"action": "append", "required": True, "help": "TIME:REGION|REGION..."}),
    )),
    "stat-bound": (_cmd_stat_bound, "typical-set tail bound", (
        *_OUTPUT_ROWS,
        (("--seed",), {"type": int, "default": 0}),
        (("--n",), {"type": int, "default": 2}),
        (("--p",), {"type": float_list, "default": [0.5, 0.5]}),
        (("--N",), {"type": int, "default": 16}),
        (("--eps",), {"type": float, "default": 0.125}),
        (("--sweep",), {"action": "store_true"}),
        (("--sweep-draws",), {"type": int, "default": 20}),
    )),
    "wavepacket": (_cmd_wavepacket, "grid-packet sweep", (
        *_OUTPUT_ROWS,
        (("--separations",), {"type": float_list, "default": [4.0, 6.0, 8.0, 10.0],
                               "help": "separations in units of sigma"}),
        (("--sigma",), {"type": float, "default": 1.0}),
        (("--momentum",), {"type": float, "default": 2.0}),
        (("--n-points",), {"type": int, "default": 4096}),
        (("--length",), {"type": float, "default": 200.0}),
        (("--snapshot",), {"default": None, "help": "write |psi(x)|^2 CSV here"}),
    )),
    "audit": (_cmd_audit, "correspondence audit", (*_OUTPUT_ROWS, _SCENARIO_FILE_ROW)),
}


def build_parser(commands=tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The parser with a subparser for each of ``commands``, in table order."""
    parser = argparse.ArgumentParser(
        prog="qtypicality",
        description="Typicality analysis of finite-dimensional quantum processes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # A parser of fewer commands names all of them in its usage line, so the
    # errors it reports itself (unrecognized arguments, an ambiguous '--=x')
    # read as the full parser's. The full parser has no metavar: its error
    # for a missing command names the dest, "command".
    every = set(_COMMANDS) <= set(commands)
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if every else "{" + ",".join(_COMMANDS) + "}")
    for name, (handler, help, rows) in _COMMANDS.items():
        if name not in commands:
            continue
        p = sub.add_parser(name, help=help)
        for flags, kwargs in rows:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=handler)
    return parser


def _read_command_line(argv: list):
    """The Namespace that ``build_parser().parse_args(argv)`` returns, read
    from the option rows alone, or None unless ``argv`` is well formed.

    Well formed: a command name, then that command's exact long options
    (no abbreviation, no ``=``), each valued one followed by a value not
    starting with '-', the type and choices of each value accepted, no
    option but an appended one twice, at most one positional, and every
    required argument present. Such a line parses without error and gives
    argparse no text to print; any other line is argparse's to read.
    """
    if not (argv and all(type(token) is str for token in argv) and argv[0] in _COMMANDS):
        return None
    handler, _, rows = _COMMANDS[argv[0]]
    # argparse sets the command, then every default in row order, then func.
    # It would also pass a string default through the row's type; no row
    # with a type has one.
    values = {"command": argv[0]}
    rows_by_token, required = {}, []
    for (flag,), kwargs in rows:
        dest = flag.lstrip("-").replace("-", "_")
        values[dest] = False if kwargs.get("action") == "store_true" else kwargs.get("default")
        # The positional, if any, is read from every token not starting with '-'.
        key = flag if flag.startswith("-") else ""
        rows_by_token[key] = dest, kwargs
        if kwargs.get("required") or not key:
            required.append(dest)
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        key = token if token.startswith("-") else ""
        if key not in rows_by_token:
            return None
        dest, kwargs = rows_by_token[key]
        action = kwargs.get("action")
        if action == "store_true":
            value = True
        else:
            if key:
                token = next(tokens, None)
                if token is None or token.startswith("-"):
                    return None
            try:
                value = kwargs.get("type", str)(token)
            except Exception:  # argparse reports it, or raises what it does not catch
                return None
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
        if action == "append":
            value = [*(values[dest] or ()), value]
        elif dest in given:
            return None
        values[dest] = value
        given.add(dest)
    if not given.issuperset(required):
        return None
    values["func"] = handler
    return argparse.Namespace(**values)


def parse_command_line(argv=None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``. A well-formed ``argv`` is read
    from the option rows without a parser; any other builds only the
    subparser of the command that ``argv`` starts with, if it names one."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_command_line(argv)
    if args is not None:
        return args
    if argv and argv[0] in _COMMANDS:
        return build_parser(argv[:1]).parse_args(argv)
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_command_line(argv)
    try:
        for name in _THRESHOLD_KEYS:
            if name in vars(args) and not 0.0 < getattr(args, name) < 1.0:
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
