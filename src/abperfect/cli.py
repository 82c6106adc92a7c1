"""Command-line front end: solvers, perfectness checks, recognition, sweeps.

Exit status: 0 on success, 1 when a sweep or cycle table finds
violations, 2 on usage errors, unparsable input, or a solver capacity
cap.  The json format is the stable contract; text output is
human-oriented and may change.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .forbidden import FAMILIES, PATTERNS, FreeReport, family_check
from .graph6 import parse_graph6, parse_graph6_lines
from .graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    k44_c7_graph,
    path_graph,
)
from .harness import THEOREM_IDS, SweepReport, cycle_alpha_psi, sweep
from .perfectness import (
    PerfectnessVerdict,
    StructureTree,
    is_ab_perfect,
    recognize_structure,
)
from .solvers import INVARIANT_CHAIN, profile

FORMATS = ("text", "json", "csv")

_NAMED_HELP = (
    "kN (complete), pN (path), cN (cycle), eN (empty), kA,B (complete "
    "bipartite), p3+k2, 3k2, fig2 (the 13-vertex K4,4-with-C7 witness)"
)


def _named_graph(token: str) -> Graph:
    t = token.strip().lower()
    if t == "fig2":
        return k44_c7_graph()
    if t in ("p3+k2", "3k2"):
        return PATTERNS[t.upper()].graph
    bipartite = re.fullmatch(r"k(\d+),(\d+)", t)
    if bipartite:
        return complete_bipartite(int(bipartite.group(1)), int(bipartite.group(2)))
    family = re.fullmatch(r"([kpce])(\d+)", t)
    if family:
        n = int(family.group(2))
        maker = {
            "k": complete_graph,
            "p": path_graph,
            "c": cycle_graph,
            "e": empty_graph,
        }[family.group(1)]
        return maker(n)
    raise ValueError(f"unknown named graph {token!r}; expected {_NAMED_HELP}")


def _load_graphs(args) -> tuple[list[Graph], bool]:
    """Graphs from --g6/--named/--file; second item flags single-graph mode."""
    if args.g6 is not None:
        return [parse_graph6(args.g6)], True
    if args.named is not None:
        return [_named_graph(args.named)], True
    if args.file == "-" and sys.stdin is None:  # started with fd 0 closed
        raise OSError("stdin is closed")
    # Bytes, not sys.stdin's text, which is decoded per the locale: a non-ASCII
    # byte reaches the parser as a lone surrogate, which names its line.
    data = sys.stdin.buffer.read() if args.file == "-" else Path(args.file).read_bytes()
    text = io.StringIO(data.decode("ascii", "surrogateescape"), newline=None)
    return list(parse_graph6_lines(text)), False


def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--g6", metavar="STR", help="one graph6 string")
    group.add_argument("--named", metavar="KIND", help=f"named graph: {_NAMED_HELP}")
    group.add_argument(
        "--file", metavar="PATH", help="file of graph6 lines ('-' for stdin)"
    )


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="text")


# ---------------------------------------------------------------------------
# Rendering: one function for every subcommand and format
# ---------------------------------------------------------------------------


class _Kind(NamedTuple):
    """How one kind of result reads as text lines and as CSV rows."""

    fields: tuple[str, ...]
    lines: Callable[[Any], list[str]]
    rows: Callable[[Any], list[dict]]


def _show(fmt: str, kind: _Kind, results: list, single: bool = False) -> None:
    """Print ``results`` in ``fmt``.

    JSON is each result's ``to_dict()`` (cycle rows are dicts already), a
    list unless ``single``; text is the kind's lines; CSV is a header row,
    when there are results, and the kind's rows.
    """
    if fmt == "json":
        print(json.dumps(results[0] if single else results, default=lambda r: r.to_dict()))
    elif fmt == "text":
        print("\n".join(line for r in results for line in kind.lines(r)))
    else:
        writer = csv.DictWriter(sys.stdout, kind.fields, lineterminator="\n")
        if results:
            writer.writeheader()
        writer.writerows(row for r in results for row in kind.rows(r))


def _members(vertices, sep: str = " ") -> str:
    return sep.join(str(x) for x in sorted(vertices))


def _pairs(row: dict) -> list[str]:
    return ["  ".join(f"{key}={value}" for key, value in row.items())]


def _verdict_lines(v: PerfectnessVerdict) -> list[str]:
    a, b = v.pair
    if v.perfect:
        return [f"{a}-{b}-perfect"]
    vertices, a_val, b_val = v.counterexample
    return [
        f"not {a}-{b}-perfect: minimal counterexample {{{_members(vertices, ',')}}} "
        f"with {a}={a_val}, {b}={b_val}"
    ]


def _verdict_rows(v: PerfectnessVerdict) -> list[dict]:
    vertices, a_val, b_val = v.counterexample or ((), "", "")
    a, b = v.pair
    return [
        {
            "a": a,
            "b": b,
            "perfect": v.perfect,
            "vertices": _members(vertices),
            "a_value": a_val,
            "b_value": b_val,
        }
    ]


def _tree_lines(tree: StructureTree, depth: int = 0) -> list[str]:
    label = tree.kind
    if tree.m is not None:
        label += f" m={tree.m}"
    if tree.reason:
        label += f" ({tree.reason})"
    lines = ["  " * depth + label]
    for child in tree.children:
        lines.extend(_tree_lines(child, depth + 1))
    return lines


def _tree_rows(tree: StructureTree, depth: int = 0) -> list[dict]:
    rows = [
        {
            "depth": depth,
            "kind": tree.kind,
            "m": "" if tree.m is None else tree.m,
            "reason": tree.reason or "",
        }
    ]
    for child in tree.children:
        rows.extend(_tree_rows(child, depth + 1))
    return rows


def _free_lines(r: FreeReport) -> list[str]:
    if r.free:
        return [f"free of ({', '.join(r.family)})"]
    name, vertices = r.witness
    return [f"contains {name} on vertices {_members(vertices)}"]


def _free_rows(r: FreeReport) -> list[dict]:
    name, vertices = r.witness or ("", ())
    return [
        {
            "family": " ".join(r.family),
            "free": r.free,
            "witness_pattern": name,
            "witness_vertices": _members(vertices),
        }
    ]


def _sweep_lines(r: SweepReport) -> list[str]:
    status = "pass" if r.passed else f"{len(r.violations)} violation(s)"
    header = (
        f"{r.theorem}: checked {r.checked} graphs up to n={r.n_max}: "
        f"{status} [{r.elapsed_ms} ms]"
    )
    return [header] + [f"  {g6}  {detail}" for g6, detail in r.violations]


_PROFILE = _Kind(INVARIANT_CHAIN, lambda p: _pairs(p.to_dict()), lambda p: [p.to_dict()])
_VERDICT = _Kind(
    ("a", "b", "perfect", "vertices", "a_value", "b_value"), _verdict_lines, _verdict_rows
)
_TREE = _Kind(("depth", "kind", "m", "reason"), _tree_lines, _tree_rows)
_FREE = _Kind(("family", "free", "witness_pattern", "witness_vertices"), _free_lines, _free_rows)
_SWEEP = _Kind(("graph6", "detail"), _sweep_lines, lambda r: r.to_dict()["violations"])
_CYCLE = _Kind(("n", "alpha", "psi", "predicted_equal", "equal"), _pairs, lambda row: [row])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _per_graph(kind: _Kind, solve: Callable[[Graph, Any], Any]) -> Callable[[Any], int]:
    """A subcommand that prints ``solve(g, args)`` for each input graph as ``kind``."""

    def run(args) -> int:
        graphs, single = _load_graphs(args)
        _show(args.format, kind, [solve(g, args) for g in graphs], single)
        return 0

    return run


def _cmd_sweep(args) -> int:
    result = sweep(args.theorem, args.max_n, jobs=args.jobs)
    _show(args.format, _SWEEP, [result], single=True)
    return 0 if result.passed else 1


def _cmd_cycles(args) -> int:
    rows = cycle_alpha_psi(args.max_n)
    _show(args.format, _CYCLE, rows)
    mismatched = any(row["equal"] != row["predicted_equal"] for row in rows)
    return 1 if mismatched else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call; parsing leaves no state on it, and help text reads the
    terminal width when it is printed."""
    parser = argparse.ArgumentParser(
        prog="abperfect",
        description="Exact coloring invariants and perfectness checks for small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="compute the five invariants")
    _add_source_flags(p_params)
    _add_format_flag(p_params)
    p_params.set_defaults(func=_per_graph(_PROFILE, lambda g, args: profile(g)))

    p_check = sub.add_parser("check", help="ab-perfectness with minimal counterexample")
    p_check.add_argument("--a", choices=INVARIANT_CHAIN, required=True)
    p_check.add_argument("--b", choices=INVARIANT_CHAIN, required=True)
    _add_source_flags(p_check)
    _add_format_flag(p_check)
    p_check.set_defaults(
        func=_per_graph(_VERDICT, lambda g, args: is_ab_perfect(g, args.a, args.b))
    )

    p_rec = sub.add_parser("recognize", help="structural decomposition")
    _add_source_flags(p_rec)
    _add_format_flag(p_rec)
    p_rec.set_defaults(func=_per_graph(_TREE, lambda g, args: recognize_structure(g)))

    p_forb = sub.add_parser("forbidden", help="forbidden-family scan")
    p_forb.add_argument("--family", choices=sorted(FAMILIES), required=True)
    _add_source_flags(p_forb)
    _add_format_flag(p_forb)
    p_forb.set_defaults(func=_per_graph(_FREE, lambda g, args: family_check(g, args.family)))

    p_sweep = sub.add_parser("sweep", help="verify one theorem over all small graphs")
    p_sweep.add_argument("--theorem", choices=THEOREM_IDS, required=True)
    p_sweep.add_argument("--max-n", type=int, required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)
    _add_format_flag(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cyc = sub.add_parser("cycles", help="achromatic vs pseudoachromatic on cycles")
    p_cyc.add_argument("--max-n", type=int, required=True)
    _add_format_flag(p_cyc)
    p_cyc.set_defaults(func=_cmd_cycles)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout, as ``| head`` does: stop quietly.  The
        # interpreter flushes stdout once more on exit, into devnull now.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
