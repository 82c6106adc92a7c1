"""In-memory spans around the library's public entry points.

``Tracer.install`` replaces each target in every loaded ``abperfect``
module that looks it up, including values of module-level dicts such as
the solver table of the ab-perfectness scan.  The class target ``Graph``
is replaced by a traced function, and only outside the module that
defines it, so that module's own constructions stay inside the spans of
its functions and its ``isinstance`` checks still see the class.

Each call records one span (name, start, end, parent) in flat arrays; a
generator target records one span per resumption.  Nothing is written
until ``write``, and self times are computed from the spans afterwards.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter
from math import comb

PACKAGE = "abperfect"
SOLVERS = {
    "clique_number": "omega",
    "chromatic_number": "chi",
    "grundy_number": "gamma",
    "achromatic_number": "alpha",
    "pseudoachromatic_number": "psi",
}
SCAN = "perfectness.is_ab_perfect"

# Span name -> (defining module, attribute).
TARGETS = {
    **{f"solvers.{name}": ("solvers", name) for name in SOLVERS},
    SCAN: ("perfectness", "is_ab_perfect"),
    "perfectness.recognize_structure": ("perfectness", "recognize_structure"),
    "forbidden.contains_induced": ("forbidden", "contains_induced"),
    "graphs.is_isomorphic": ("graphs", "is_isomorphic"),
    "harness.enumerate_graphs": ("harness", "enumerate_graphs"),
    "graphs.canonical_form": ("graphs", "canonical_form"),
    "graphs.Graph": ("graphs", "Graph"),
    "graphs.induced_subgraph": ("graphs", "induced_subgraph"),
    "graph6.to_graph6": ("graph6", "to_graph6"),
    "graph6.parse": ("graph6", "parse_graph6"),
    "harness.sweep": ("harness", "sweep"),
    "cli.main": ("cli", "main"),
}


def subset_rank(n: int, subset) -> int:
    """1-based position of ``subset`` among nonempty subsets of range(n),
    ordered by size and then lexicographically: the subsets a scan in that
    order visits up to and including this one."""
    members = sorted(subset)
    k = len(members)
    rank = sum(comb(n, size) for size in range(1, k))
    prev = -1
    for i, v in enumerate(members):
        rank += sum(comb(n - u - 1, k - i - 1) for u in range(prev + 1, v))
        prev = v
    return rank + 1


def _scanned_subsets(args, verdict) -> int:
    n = args[0].n
    if verdict.counterexample is None:
        return (1 << n) - 1
    return subset_rank(n, verdict.counterexample[0])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        # (invariant, n, adjacency) of each solver call made from the scan.
        self.scan_inputs: set = set()
        self.originals: dict = {}

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` recording a span per call (per resumption for a generator)."""
        name_id = len(self.names)
        self.names.append(name)
        open_, close = self._open, self._close

        if inspect.isgeneratorfunction(fn):
            counters = self.counters

            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    i = open_(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(i)
                    counters[name + ".graphs"] += 1
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            i = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def _wrap_scan(self, name: str, fn):
        traced = self.wrap(name, fn)
        counters = self.counters

        def scan(*args, **kwargs):
            verdict = traced(*args, **kwargs)
            counters[name + ".subsets"] += _scanned_subsets(args, verdict)
            return verdict

        return scan

    def _wrap_solver(self, name: str, invariant: str, fn):
        traced = self.wrap(name, fn)
        names, span_name, stack = self.names, self.span_name, self.stack
        scan_inputs, counters = self.scan_inputs, self.counters

        def solver(g, *args, **kwargs):
            caller = stack[-1]
            if caller >= 0 and names[span_name[caller]] == SCAN:
                scan_inputs.add((invariant, g.n, g.adj))
                counters["perfectness.scan_solver_calls"] += 1
            return traced(g, *args, **kwargs)

        return solver

    def install(self) -> None:
        """Replace every target wherever a loaded abperfect module looks it up."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        replacements = {}
        for name, (module_name, attr) in TARGETS.items():
            defining = modules[f"{PACKAGE}.{module_name}"]
            original = getattr(defining, attr)
            self.originals[name] = original
            if attr in SOLVERS:
                wrapped = self._wrap_solver(name, SOLVERS[attr], original)
            elif name == SCAN:
                wrapped = self._wrap_scan(name, original)
            else:
                wrapped = self.wrap(name, original)
            replacements[id(original)] = (wrapped, defining)
        # self.originals keeps every original alive, so equal ids mean the same object.
        for module in modules.values():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                hit = replacements.get(id(value))
                if hit and not (inspect.isclass(value) and hit[1] is module):
                    namespace[key] = hit[0]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replacements:
                            value[k] = replacements[id(v)][0]

    def summary(self) -> dict:
        """Per span name: calls and self seconds, plus the counters."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i, name_id in enumerate(self.span_name):
            self_s[name_id] += end[i] - start[i] - child[i]
            calls[name_id] += 1
        return {
            "spans": {
                name: {"calls": calls[i], "self_s": self_s[i]}
                for i, name in enumerate(self.names)
            },
            "counters": dict(self.counters),
        }

    def distinct_scan_classes(self) -> list[str]:
        """(invariant, canonical class) of every solver input from the scan."""
        graph = self.originals["graphs.Graph"]
        canonical_form = self.originals["graphs.canonical_form"]
        classes = {}
        for invariant, n, adj in self.scan_inputs:
            key = (n, adj)
            if key not in classes:
                classes[key] = canonical_form(graph(n, adj)).hex()
        return sorted({f"{inv}:{classes[(n, adj)]}" for inv, n, adj in self.scan_inputs})

    def write(self, path) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": ["name:i", "parent:i", "start:d", "end:d"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for values in (self.span_name, self.parent, self.start, self.end):
                values.tofile(handle)


def read_spans(path) -> tuple[list[str], list[tuple[int, int, float, float]]]:
    """Spans written by ``Tracer.write``, as (name id, parent, start, end)."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = []
        for spec in header["arrays"]:
            values = array(spec.split(":")[1])
            values.fromfile(handle, header["count"])
            columns.append(values)
    return header["names"], list(zip(*columns))
