"""Regenerate ``expected.json``: the CLI's answer for every corpus query.

Usage: python3 bench/freeze.py

Every answer is validated before it is frozen: each invariant of a
profile, and both sides of each counterexample, are re-solved with a
witness that ``abperfect.colorings`` (or a clique test) must accept;
forbidden-pattern witnesses must induce their pattern; accepted
structure trees must rebuild a graph isomorphic to the input; and the
rules of ``checks.graph_problems`` must hold.  Run it only when the
corpora change, never to make a failing check pass.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import abperfect as ab  # noqa: E402
from abperfect.cli import main  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _solved_with_witness(g, invariant: str) -> int:
    """The invariant's value, after checking the solver's witness."""
    value, witness = checks.SOLVE[invariant](g, witness=True)
    if invariant == "omega":
        members = sorted(witness)
        ok = len(members) == value and all(
            g.has_edge(u, v) for i, u in enumerate(members) for v in members[i + 1:]
        )
    else:
        ok = witness.k == value and {
            "chi": ab.is_proper(g, witness),
            "gamma": ab.is_grundy(g, witness),
            "alpha": ab.is_proper(g, witness) and ab.is_complete_coloring(g, witness),
            "psi": ab.is_complete_coloring(g, witness),
        }[invariant]
    if not ok:
        raise SystemExit(f"invalid {invariant} witness on {ab.to_graph6(g)}: {witness}")
    return value


def _validate(g6: str, key: str, answer: dict) -> None:
    g = ab.parse_graph6(g6)
    if key == "params":
        for invariant in checks.INVARIANTS:
            if _solved_with_witness(g, invariant) != answer[invariant]:
                raise SystemExit(f"{g6}: {invariant} witness disagrees with {answer}")
    elif key.startswith("check ") and answer["counterexample"] is not None:
        a, b = answer["pair"]
        sub = ab.induced_subgraph(g, answer["counterexample"]["vertices"])
        values = (_solved_with_witness(sub, a), _solved_with_witness(sub, b))
        expected = (answer["counterexample"]["a_value"], answer["counterexample"]["b_value"])
        if values != expected:
            raise SystemExit(f"{g6}: counterexample re-solves to {values}, CLI said {expected}")
    elif key == "forbidden" and answer["witness"] is not None:
        pattern = ab.PATTERNS[answer["witness"]["pattern"]].graph
        sub = ab.induced_subgraph(g, answer["witness"]["vertices"])
        if not ab.is_isomorphic(sub, pattern):
            raise SystemExit(f"{g6}: witness {answer['witness']} does not induce its pattern")
    elif key == "recognize" and checks.accepted_tree(answer):
        if not ab.is_isomorphic(ab.rebuild(ab.recognize_structure(g)), g):
            raise SystemExit(f"{g6}: accepted structure does not rebuild the graph")


def freeze() -> dict:
    argvs = [("params", "--g6", g6, "--format", "json") for g6 in workloads.solve_corpus()]
    argvs += [argv for g6 in workloads.check_corpus() for argv in workloads.check_argvs(g6)]
    expected: dict[str, dict] = {}
    for argv in argvs:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(list(argv))
        if code != 0:
            raise SystemExit(f"{argv} exited {code}")
        g6, key = argv[argv.index("--g6") + 1], checks.query_key(argv)
        answer = json.loads(out.getvalue())
        _validate(g6, key, answer)
        expected.setdefault(g6, {})[key] = answer
    for g6, answers in expected.items():
        problems = checks.graph_problems(g6, answers)
        if problems:
            raise SystemExit("\n".join(problems))
    return expected


if __name__ == "__main__":
    frozen = freeze()
    with open(checks.EXPECTED_PATH, "w", encoding="ascii") as handle:
        json.dump(frozen, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    print(f"froze answers for {len(frozen)} graphs in {checks.EXPECTED_PATH.name}")
