"""Run one job of a benchmark pass in a fresh interpreter.

Usage: python3 bench/worker.py '<spec as JSON>'

The spec names the workload, seed and query indices, and whether to
trace.  With ``"setup_only": true`` the worker only imports the library
and builds the seeded inputs, which is what the set-up time measures.
Every job runs under ``speed.SpeedProbe`` and reports each time both
as measured and at nominal machine speed; in a traced job the probes
fall inside spans and add about 2 % to their self times.  The result is one JSON
object on standard output; the library's own output is captured per
query.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import abperfect  # noqa: E402
import abperfect.cli  # noqa: E402

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run_query(query, main, sweep) -> dict:
    if query.kind == "sweep":
        theorem, n_max = query.args
        report = sweep(theorem, n_max, jobs=1)
        return {"passed": report.passed, "checked": report.checked,
                "violations": report.to_dict()["violations"]}
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(query.args))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_job(spec: dict) -> dict:
    every = workloads.queries(spec["workload"], spec["seed"])
    selected = [every[i] for i in spec["queries"]]
    if spec.get("setup_only"):
        return {}
    enumerate_graphs = abperfect.enumerate_graphs
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    main, sweep = abperfect.cli.main, abperfect.sweep
    outputs, stamps = [], []
    with SpeedProbe() as probe:
        for query in selected:
            began = time.perf_counter()
            try:
                outputs.append(_run_query(query, main, sweep))
            except Exception as exc:  # a raising query is a failed query, not a failed run
                outputs.append({"raised": f"{type(exc).__name__}: {exc}"})
            stamps.append((began, time.perf_counter()))
    span = (stamps[0][0], stamps[-1][1])
    result = {
        "raw_elapsed_s": span[1] - span[0],
        "raw_latencies_s": [t1 - t0 for t0, t1 in stamps],
        "outputs": outputs,
        "elapsed_s": probe.nominal(*span),
        "latencies_s": [probe.nominal(t0, t1) for t0, t1 in stamps],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    sweeps = [q.args for q in selected if q.kind == "sweep"]
    if sweeps:
        top = max(n for _, n in sweeps)
        result["level_counts"] = [sum(1 for _ in enumerate_graphs(n)) for n in range(1, top + 1)]
    if tracer is not None:
        result["trace"] = tracer.summary()
        # Canonical forms exist up to 8 vertices, the sweeps' range.
        result["trace"]["scan_classes"] = tracer.distinct_scan_classes() if sweeps else []
        tracer.write(spec["spans_path"])
    return result


if __name__ == "__main__":
    print(json.dumps(run_job(json.loads(sys.argv[1]))))
