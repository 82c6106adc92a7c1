"""Verdict checks: every query's output against known answers.

Sweeps are checked against published counts.  CLI outputs are checked
against ``expected.json`` (frozen by ``freeze.py``) and against rules
that hold whatever the frozen values say: the invariant chain, fig2's
profile, the cycle rule for alpha < psi, Theorem 4's agreement of the
omega-psi verdict with quartet-freeness and recognition, and a re-solve
of every counterexample.
"""

from __future__ import annotations

import json
from pathlib import Path

import abperfect as ab

import workloads

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Graphs on n = 1..8 vertices up to isomorphism (OEIS A000088).
CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)
# Connected quasi-threshold graphs correspond to rooted trees: A000081
# summed over n = 1..8 gives lemma1's 200.
SWEEP_CHECKED = {("theorem4", 7): 1252, ("figure3_inclusions", 7): 1256, ("lemma1", 8): 200}
FIG2_PROFILE = (2, 3, 4, 5, 6)
INVARIANTS = ("omega", "chi", "gamma", "alpha", "psi")
NAMED = {g6: name for name, g6 in workloads.named_graphs().items()}
SOLVE = {
    "omega": ab.clique_number,
    "chi": ab.chromatic_number,
    "gamma": ab.grundy_number,
    "alpha": ab.achromatic_number,
    "psi": ab.pseudoachromatic_number,
}


def alpha_below_psi_on_cycle(n: int) -> bool:
    """alpha(C_n) < psi(C_n) exactly when n = 2x^2 + x + 1 for some x >= 1."""
    return any(2 * x * x + x + 1 == n for x in range(1, n))


def query_key(argv) -> str:
    """Name of a CLI query's answer within one graph's expected record."""
    if argv[0] == "check":
        return f"check {argv[2]} {argv[4]}"
    return argv[0]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="ascii") as handle:
        return json.load(handle)


def sweep_problems(query, output: dict, level_counts) -> list[str]:
    theorem, n_max = query.args
    problems = []
    if not output["passed"]:
        problems.append(f"{theorem} n={n_max} failed: {output['violations'][:3]}")
    want = SWEEP_CHECKED[(theorem, n_max)]
    if output["checked"] != want:
        problems.append(f"{theorem} n={n_max} checked {output['checked']}, expected {want}")
    if list(level_counts[:n_max]) != list(CLASS_COUNTS[:n_max]):
        problems.append(f"class counts {level_counts}, expected {CLASS_COUNTS[:n_max]}")
    return problems


def _counterexample_problems(g6: str, verdict: dict) -> list[str]:
    witness = verdict["counterexample"]
    if verdict["perfect"]:
        return [] if witness is None else [f"{g6}: perfect verdict with a counterexample"]
    a, b = verdict["pair"]
    sub = ab.induced_subgraph(ab.parse_graph6(g6), witness["vertices"])
    got = (SOLVE[a](sub), SOLVE[b](sub))
    if got != (witness["a_value"], witness["b_value"]) or got[0] == got[1]:
        return [f"{g6}: counterexample {witness} re-solves to {a}={got[0]}, {b}={got[1]}"]
    return []


def graph_problems(g6: str, answers: dict) -> list[str]:
    """Rules one graph's parsed CLI answers must obey, keyed as by ``query_key``."""
    problems = []
    if "params" in answers:
        values = tuple(answers["params"][k] for k in INVARIANTS)
        if any(x > y for x, y in zip(values, values[1:])):
            problems.append(f"{g6}: chain violated by {values}")
        named = NAMED.get(g6)
        if named == "fig2" and values != FIG2_PROFILE:
            problems.append(f"fig2 profile {values}, expected {FIG2_PROFILE}")
        if named and named.startswith("C"):
            n = int(named[1:])
            if (values[3] < values[4]) != alpha_below_psi_on_cycle(n):
                problems.append(f"C{n}: alpha={values[3]} psi={values[4]} breaks the 2x^2+x+1 rule")
    checks = [answers[k] for k in answers if k.startswith("check ")]
    for verdict in checks:
        problems += _counterexample_problems(g6, verdict)
    if {"check omega psi", "forbidden", "recognize"} <= answers.keys():
        perfect = answers["check omega psi"]["perfect"]
        free = answers["forbidden"]["free"]
        accepted = accepted_tree(answers["recognize"])
        if not perfect == free == accepted:
            problems.append(
                f"{g6}: Theorem 4 disagreement: omega-psi-perfect={perfect} "
                f"quartet-free={free} recognized={accepted}"
            )
    return problems


def accepted_tree(tree: dict) -> bool:
    """Whether a recognize tree, as printed in JSON, has no rejected node."""
    return tree["kind"] != "rejected" and all(accepted_tree(c) for c in tree["children"])


def cli_failures(queries, outputs, expected: dict) -> tuple[set[int], list[str]]:
    """Indices of failed CLI queries, with the reasons.

    A query fails if it raised, exited non-zero, printed other JSON than
    the frozen answer, or belongs to a graph whose answers break a rule.
    """
    failed, reasons = set(), []
    by_graph: dict[str, dict] = {}
    members: dict[str, list[int]] = {}
    for i, (query, out) in enumerate(zip(queries, outputs)):
        key = query_key(query.args)
        want = expected.get(query.graph6, {}).get(key)
        if "raised" in out or out["code"] != 0:
            failed.add(i)
            reasons.append(f"{query.args}: {out.get('raised') or out['stderr'].strip()}")
            continue
        try:
            got = json.loads(out["stdout"])
        except json.JSONDecodeError:
            failed.add(i)
            reasons.append(f"{query.args}: printed no JSON: {out['stdout'][:200]!r}")
            continue
        if got != want:
            failed.add(i)
            reasons.append(f"{query.args}: printed {got}, expected {want}")
        by_graph.setdefault(query.graph6, {})[key] = got
        members.setdefault(query.graph6, []).append(i)
    for g6, answers in by_graph.items():
        try:
            problems = graph_problems(g6, answers)
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"{g6}: malformed answers {answers}: {exc!r}"]
        if problems:
            failed.update(members[g6])
            reasons += problems
    return failed, reasons
