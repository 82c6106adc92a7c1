"""The abperfect benchmark: four workloads timed end to end, per-layer spans on request.

Usage, from the repository root:

    python3 bench/run.py --workload check_corpus --seed 1 --seconds 15 --trace 0

Workloads (``workloads.py`` builds their inputs; the seed sets the send order):

- sweep_hereditary: ``sweep("theorem4", 7)`` and ``sweep("figure3_inclusions", 7)``;
- sweep_enumerate: ``sweep("lemma1", 8)``;
- solve_corpus: ``params --g6 G --format json`` for each graph of the solve corpus;
- check_corpus: ``check`` on four pairs, ``forbidden`` and ``recognize`` per graph.

Every pass runs one client in a closed loop, single process, ``jobs=1``.
Each sweep gets a fresh interpreter, so it starts with a cold enumeration
cache as a CLI sweep does; a corpus pass runs in one fresh interpreter
through ``abperfect.cli.main``.  A run makes as many passes as fit in
``--seconds`` at the nominal pass times below, at least one, so the
number of passes does not depend on how fast the code under test is.

Times are reported at nominal machine speed (see ``speed.py``): on a
shared machine the raw time of one pass moved by a third between
consecutive runs.  ``wall_s`` is the median over passes of a pass's time
from its first call to its last verdict; ``query_ms_p50`` and
``query_ms_p95`` are quantiles (see ``quantile``) of each query's median
latency across passes; ``setup_s`` is the median of several set-ups.
Raw times go to the run record beside them.

``--trace 1`` adds one traced pass after the timed ones and reports the
per-layer metrics; end-to-end metrics always come from untraced passes.
``<span>.self_s`` is a span's time less its child spans' and
``<span>.calls`` its count (``tracer.py`` names the spans);
``perfectness.is_ab_perfect.subsets`` sums the subsets each scan visited,
the counterexample's rank in size-then-lex order or 2^n-1;
``perfectness.distinct_class_ratio`` is distinct (invariant, isomorphism
class) pairs over the solver calls made from the scan, on the sweeps
only and 0 elsewhere; ``harness.enumerate_graphs.graphs`` counts the
graphs enumeration yields; ``trace.overhead_ratio`` is the traced pass's
time over ``wall_s``.
The seed that results are quoted on is DEFAULT_SEED and the one that
confirms them is CONFIRM_SEED.

Output: one line per metric, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run appends its raw
values and metadata to ``bench/results/runs.jsonl``; a traced run also
writes its spans to ``bench/results/spans-<workload>-<job>.bin``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import speed  # noqa: E402
import workloads  # noqa: E402

WORKER = BENCH / "worker.py"
RESULTS = BENCH / "results"

DEFAULT_SEED = 1
CONFIRM_SEED = 2
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0
# Seconds per untraced pass, measured on a 2-vCPU 2.1 GHz Xeon VM with
# Python 3.11; they fix the number of passes a run makes.
NOMINAL_PASS_S = {
    workloads.SWEEP_HEREDITARY: 14.0,
    workloads.SWEEP_ENUMERATE: 17.0,
    workloads.SOLVE_CORPUS: 11.0,
    workloads.CHECK_CORPUS: 5.0,
}

END_TO_END = {
    "wall_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_SPANS = (
    "solvers.clique_number",
    "solvers.chromatic_number",
    "solvers.grundy_number",
    "solvers.achromatic_number",
    "solvers.pseudoachromatic_number",
    "perfectness.is_ab_perfect",
    "perfectness.recognize_structure",
    "forbidden.contains_induced",
    "graphs.canonical_form",
    "graphs.induced_subgraph",
)
PER_LAYER = {
    **{f"{span}.{kind}": unit
       for span in LAYER_SPANS
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "perfectness.is_ab_perfect.subsets": "count",
    "perfectness.distinct_class_ratio": "ratio",
    "graphs.is_isomorphic.calls": "count",
    "graphs.Graph.calls": "count",
    "harness.enumerate_graphs.self_s": "s",
    "harness.enumerate_graphs.graphs": "count",
    "harness.sweep.self_s": "s",
    "graph6.to_graph6.self_s": "s",
    "graph6.parse.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
# What the run record keeps of each pass.
PASS_FIELDS = ("wall_s", "raw_wall_s", "latencies_s", "raw_latencies_s", "peak_rss_mb")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.

    The latencies of a corpus fall in clusters, and where the 95th
    percentile sits in a gap, interpolating between two neighbours moved it
    by 9 % between runs; this estimate moved by 2 %.
    """
    x = sorted(values)
    n, steps = len(x), 64
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_scale = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        points = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(
            math.exp(log_scale + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) for t in points
        ))
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def _worker(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; its result and its wall time."""
    began = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run's time limit: {spec}") from exc
    wall = time.perf_counter() - began
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout), wall


def _pass(workload: str, seed: int, jobs, trace: bool, deadline: float) -> dict:
    """One pass over every query, one fresh interpreter per job."""
    results = []
    for index, job in enumerate(jobs):
        spec = {"workload": workload, "seed": seed, "queries": job, "trace": trace,
                "spans_path": str(RESULTS / f"spans-{workload}-{index}.bin")}
        results.append(_worker(spec, deadline)[0])
    return {
        "wall_s": sum(r["elapsed_s"] for r in results),
        "raw_wall_s": sum(r["raw_elapsed_s"] for r in results),
        "latencies_s": [x for r in results for x in r["latencies_s"]],
        "raw_latencies_s": [x for r in results for x in r["raw_latencies_s"]],
        "outputs": [x for r in results for x in r["outputs"]],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "level_counts": [r.get("level_counts") for r in results],
        "traces": [r["trace"] for r in results if "trace" in r],
    }


def _failures(queries, jobs, run_pass: dict, expected: dict) -> tuple[int, list[str]]:
    import checks

    if queries[0].kind == "sweep":
        failed, reasons = 0, []
        for job, counts in zip(jobs, run_pass["level_counts"]):
            for i in job:
                out = run_pass["outputs"][i]
                problems = ([out["raised"]] if "raised" in out
                            else checks.sweep_problems(queries[i], out, counts))
                failed += bool(problems)
                reasons += problems
        return failed, reasons
    failed, reasons = checks.cli_failures(queries, run_pass["outputs"], expected)
    return len(failed), reasons


def _layer_metrics(traced: dict, untraced_wall: float) -> dict:
    spans, counters, classes = {}, {}, set()
    for trace in traced["traces"]:
        for name, row in trace["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            total["calls"] += row["calls"]
            total["self_s"] += row["self_s"]
        for name, count in trace["counters"].items():
            counters[name] = counters.get(name, 0) + count
        classes.update(trace["scan_classes"])
    values = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if span in spans and kind in ("calls", "self_s"):
            values[name] = spans[span][kind]
        else:
            values[name] = counters.get(name, 0)
    # Measured on the sweeps only, and 0 elsewhere.
    scan_calls = counters.get("perfectness.scan_solver_calls", 0)
    if classes and scan_calls:
        values["perfectness.distinct_class_ratio"] = len(classes) / scan_calls
    values["trace.overhead_ratio"] = traced["wall_s"] / untraced_wall
    return values


def _traced_record(traced: dict) -> dict:
    """The traced pass for the run record, without the long class lists."""
    record = {k: traced[k] for k in PASS_FIELDS}
    record["traces"] = [
        {k: v for k, v in trace.items() if k != "scan_classes"} for trace in traced["traces"]
    ]
    return record


def _reference_s() -> float:
    """Median of a few timings of the speed probe's reference work, in this process."""
    return statistics.median(speed.time_reference() for _ in range(5))


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "abperfect" / "__init__.py").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import checks

    deadline = time.monotonic() + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    queries = workloads.queries(workload, seed)
    jobs = workloads.jobs(workload, seed)
    expected = checks.load_expected()

    setup_spec = {"workload": workload, "seed": seed, "queries": [], "setup_only": True}
    raw_setup, setup = [], []
    for _ in range(SETUP_REPEATS):
        before = _reference_s()
        raw = _worker(setup_spec, deadline)[1]
        raw_setup.append(raw)
        setup.append(raw * speed.REFERENCE_NOMINAL_S / ((before + _reference_s()) / 2))

    count = max(1, int(seconds // NOMINAL_PASS_S[workload]))
    passes = [_pass(workload, seed, jobs, False, deadline) for _ in range(count)]
    traced = _pass(workload, seed, jobs, True, deadline) if trace else None

    attempted, failed, reasons = 0, 0, []
    for checked_pass in passes + ([traced] if traced else []):
        n_failed, why = _failures(queries, jobs, checked_pass, expected)
        attempted += len(queries)
        failed += n_failed
        reasons += why

    latencies_ms = [
        statistics.median(times) * 1000 for times in zip(*(p["latencies_s"] for p in passes))
    ]
    end_to_end = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "query_ms_p50": quantile(latencies_ms, 0.50),
        "query_ms_p95": quantile(latencies_ms, 0.95),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    per_layer = _layer_metrics(traced, end_to_end["wall_s"]) if traced else {}

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "queries_per_pass": len(queries),
        "setup_s": setup,
        "raw_setup_s": raw_setup,
        "passes": [{k: p[k] for k in PASS_FIELDS} for p in passes],
        "traced_pass": _traced_record(traced) if traced else None,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": reasons[:50],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    shown = {**{k: (v, END_TO_END[k]) for k, v in record["end_to_end"].items()},
             **{k: (v, PER_LAYER[k]) for k, v in record["per_layer"].items()}}
    print(f"workload={args.workload} seed={args.seed} passes={len(record['passes'])} "
          f"queries/pass={record['queries_per_pass']} failed_ratio={record['failed_ratio']:.4g}")
    for reason in record["failures"][:10]:
        print(f"FAILED {reason}")
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")
    reported = record["per_layer"] if args.trace else record["end_to_end"]
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
