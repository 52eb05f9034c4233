"""Closed-loop client for one workload: one process, one request at a time.

Usage: python3 perfbench/worker.py PLAN_JSON RESULT_JSON

Runs whole passes over the plan's request list until the next pass would
end after the time budget, and never fewer than two passes, so that every
request is repeated and its report can be compared byte for byte. The
process runs nothing but the program: it times each request, keeps the
first report of every distinct request for the parent to check, and
compares later repeats by digest. With tracing on, passes alternate
untraced and traced.

Before a request, once ``REF_EVERY_S`` has passed since the last one, the
client also times a fixed reference computation (``reference_job``), and
records with each request the latest reference time. The host's speed
changes by tens of percent over seconds to minutes; a request's time over
the reference time taken just before it cancels much of that.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

from qtypicality import cli, stats, typicality
from qtypicality.core import SSet

import tracing

MIN_PASSES = 2
REF_EVERY_S = 0.05
_REF_MATRIX = np.random.default_rng(0).normal(size=(32, 32)) * (1 + 1j)


def reference_job() -> float:
    """Seconds taken by a fixed mix of interpreted Python and small complex
    matrix products, the kinds of work the program does (4.5-7 ms on one
    core of a 2-vCPU Intel Xeon virtual machine)."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    m = _REF_MATRIX
    for _ in range(200):
        m = m @ _REF_MATRIX
        m /= np.abs(m).max()
    return time.perf_counter() - start


def _spec(d: dict):
    return stats.ExperimentSpec(d["n"], d["p"], d["N"], d["eps"])


#: Library requests of the statistics chain; ``ctx`` holds the earlier
#: results of the same spec within a pass.
LIB_CALLS = {
    "build_measurement_chain": lambda ctx, d: stats.build_measurement_chain(_spec(d)),
    "typical_region": lambda ctx, d: stats.typical_region(_spec(d)),
    "exclusion_measure": lambda ctx, d: typicality.exclusion_measure(
        ctx["build_measurement_chain"], SSet(d["N"], ctx["typical_region"])
    ),
    "typical_set_complement_mass": lambda ctx, d: stats.typical_set_complement_mass(_spec(d)),
}


def summarize(call: str, result) -> dict:
    """The JSON-comparable report of one library request."""
    if call == "build_measurement_chain":
        return {"dim": result.dim, "n_steps": result.n_steps, "cells": len(result.labels)}
    if call == "typical_region":
        joined = "\n".join(sorted(result)).encode()
        return {"size": len(result), "sha256": hashlib.sha256(joined).hexdigest()}
    return {"mass": result}


class Client:
    def __init__(self, plan: dict):
        self.plan = plan
        self.digests: dict = {}  # request id -> sha256 of its first report
        self.reports: dict = {}  # request id -> first report (path or summary)
        self.ref_s = self.ref_at = 0.0  # latest reference time, and when it ended

    def run_pass(self, tracer) -> tuple:
        records = []
        report_bytes = 0
        group, ctx = None, {}
        for position, rid in enumerate(self.plan["order"]):
            req = self.plan["requests"][rid]
            if time.perf_counter() - self.ref_at >= REF_EVERY_S:
                self.ref_s = reference_job()
                self.ref_at = time.perf_counter()
            if req.get("group") != group:  # release the previous spec's chain
                group, ctx = req.get("group"), {}
            if tracer is not None:
                tracer.request = position
            try:
                if req["kind"] == "cli":
                    dt, status, size = self._cli(rid, req)
                    report_bytes += size
                else:
                    dt, status = self._lib(rid, req, ctx)
            finally:
                if tracer is not None:
                    tracer.request = None
            records.append([rid, dt, status, self.ref_s])
        return records, report_bytes

    def _cli(self, rid, req) -> tuple:
        argv = req["argv"]
        out_path = argv[argv.index("--output") + 1]
        if os.path.exists(out_path):
            os.remove(out_path)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed request, not a failed run
            return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}", 0
        dt = time.perf_counter() - start
        if code != 0:
            return dt, f"exit code {code}", 0
        with open(out_path, "rb") as fh:
            data = fh.read()
        if rid not in self.digests:
            first = out_path + ".first"
            os.replace(out_path, first)
            self.reports[rid] = {"path": first}
        return dt, self._compare(rid, data), len(data)

    def _lib(self, rid, req, ctx) -> tuple:
        start = time.perf_counter()
        try:
            result = LIB_CALLS[req["call"]](ctx, req["spec"])
        except Exception as exc:
            return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - start
        ctx[req["call"]] = result
        try:
            text = json.dumps(summarize(req["call"], result), sort_keys=True, allow_nan=False)
        except ValueError as exc:
            return dt, f"check: report is not strict JSON: {exc}"
        if rid not in self.digests:
            self.reports[rid] = {"summary": text}
        return dt, self._compare(rid, text.encode())

    def _compare(self, rid, data: bytes) -> str:
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(rid, digest) != digest:
            return "check: report differs from an earlier repeat of the same request"
        return "ok"


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    client = Client(plan)
    tracer = tracing.Tracer() if plan["trace"] else None
    passes, layers, spans = [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            records, report_bytes = client.run_pass(tracer if traced else None)
        finally:
            if traced:
                tracer.remove()
        elapsed = time.perf_counter() - t0
        passes.append({"traced": traced, "elapsed_s": elapsed, "requests": records})
        if traced:
            layers.append(tracer.layer_metrics(report_bytes))
            spans.append((len(passes) - 1, tracer.spans))
        spent = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and spent + elapsed > plan["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracing.write_spans(plan["spans_path"], spans)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"passes": passes, "reports": client.reports, "layers": layers,
             "peak_rss_mb": peak_rss_mb},
            fh,
        )


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
