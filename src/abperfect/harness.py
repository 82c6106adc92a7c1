"""Small-graph enumeration and theorem sweep drivers.

Canonical enumeration extends each (n-1)-vertex representative by one
new vertex with every possible neighborhood and dedups by canonical
form.  Every isomorphism class on n vertices arises this way: delete any
vertex of a member, map the rest onto its class representative, and the
deleted vertex's neighborhood gives the extension mask.  Each class is
represented by its first child.  Two rules skip children that are never
first without labelling them: a neighborhood that an automorphism of the
parent maps to an earlier one, and a child with a deletion whose degree
multiset only parents before its own have, so that an earlier parent
already produced its class.

A sweep walks those classes bottom-up, and the theorem is one check per
class over the graph, its solved invariants and its ab-perfect flags,
run where the class is solved.  The flags are hereditary first: a
class's one-vertex deletions are read one level down, its enumeration
parent first, and a pair is solved on the class only while every
deletion read so far is perfect for it.  One dict per level maps a
deletion's rows to its flags, seeded with the empty graph's all-True
flags, so a sweep labels each deletion at most once.  Sweeps stop
collecting after 100 violations and are deterministic: identical
reports (elapsed time aside) across runs and across worker counts.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, Iterator

from .forbidden import PATTERNS, contains_induced, family_check
from .graph6 import to_graph6
from .graphs import (
    CAPS,
    CapacityError,
    Graph,
    _automorphisms,
    _trusted,
    canonical_form,
    check_cap,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    is_connected,
    universal_vertices,
)
from .perfectness import is_ab_perfect, recognize_structure
from .solvers import INVARIANT_CHAIN, INVARIANT_SOLVERS, _colorable

if TYPE_CHECKING:
    from concurrent.futures import Executor

VIOLATION_LIMIT = 100


def _extension_masks(parent: Graph) -> list[int]:
    """Neighbourhoods of the new vertex whose child can be first of its class.

    A mask that an automorphism of the parent maps to a smaller mask gives
    a child isomorphic to an earlier child of the same parent, so it is
    skipped.  Any set of automorphisms prunes exactly; the generators from
    the parent's canonical search (at most 13 per parent up to 7 vertices)
    leave 79,264 children at level 8, the rooted graphs on 8 vertices,
    against 133,632 unpruned.
    """
    masks = range(1 << parent.n)
    images = []
    for sigma in _automorphisms(parent):
        image = [0] * len(masks)
        for mask in masks[1:]:
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << sigma[low.bit_length() - 1]
        images.append(image)
    return [mask for mask in masks if all(image[mask] >= mask for image in images)]


def _degree_weights(rows: tuple[int, ...]) -> list[int]:
    """16^deg(v) for each vertex v: their sum codes the degree multiset."""
    return [1 << 4 * row.bit_count() for row in rows]


def _produced_earlier(rows: tuple[int, ...], index: int, last: dict[int, int]) -> bool:
    """Whether the child g with these rows, built from parent ``index``, is never first.

    ``last`` maps each degree code, the sum of ``_degree_weights``, to the
    largest index of a representative one level down with that code.  The code of g - v is
    g's code less 16^deg(v) and, for each neighbour u of v,
    16^deg(u) - 16^(deg(u)-1).  When every representative with that code
    comes before ``index``, g - v is isomorphic to an earlier parent, and
    that parent, extended by every mask, has a child isomorphic to g
    before any child of parent ``index``.  The code only has to be an
    isomorphism invariant: two degree multisets sharing a code would only
    raise ``last``.  g - (n-1) is the parent itself and is not tested.
    """
    weights = _degree_weights(rows)
    code = sum(weights)
    drops = [weight - (weight >> 4) for weight in weights]
    for v in range(len(rows) - 1):
        row = rows[v]
        lost = weights[v]
        while row:
            low = row & -row
            lost += drops[low.bit_length() - 1]
            row ^= low
        if last[code - lost] < index:
            return True
    return False


@lru_cache(maxsize=None)
def _canonical_level(n: int) -> dict[bytes, Graph]:
    """One representative per isomorphism class on n vertices, keyed by canonical form.

    Each class keeps its first child in parent order and then mask order;
    pruning skips only children that are never first.  Orbit pruning
    (``_extension_masks``) skips a mask an automorphism of the parent
    maps lower; earlier-parent pruning (``_produced_earlier``) skips a
    child with a deletion isomorphic to an earlier parent.  Together they
    leave 1, 2, 4, 11, 34, 174, 1,623 and 32,817 children to label at
    levels 1 to 8, against 79,264 at level 8 with orbit pruning alone.
    """
    if n == 1:
        g = empty_graph(1)
        return {canonical_form(g): g}
    parents = _canonical_level(n - 1).values()
    last = {sum(_degree_weights(parent.adj)): i for i, parent in enumerate(parents)}
    seen: dict[bytes, Graph] = {}
    new = 1 << (n - 1)
    for i, parent in enumerate(parents):
        base = parent.adj
        for mask in _extension_masks(parent):
            rows = tuple(row | new if mask >> u & 1 else row for u, row in enumerate(base))
            rows += (mask,)
            if _produced_earlier(rows, i, last):
                continue
            g = _trusted(n, rows)
            key = canonical_form(g)
            if key not in seen:
                seen[key] = g
    return seen


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """Stream one graph per isomorphism class on n vertices."""
    check_cap("canonical enumeration", n)
    yield from _canonical_level(n).values()


# ---------------------------------------------------------------------------
# The flag table: the ab-perfect flags of each class, built level by level.
#
# Every proper induced subgraph of G lies inside some G - v, so by the
# definition of ab-perfectness alone
#     perfect_ab(G) = [a(G) = b(G)] and perfect_ab(G - v) for every v,
# with each G - v read from the level below by its rows, down to the
# empty graph, which is perfect for every pair.  The deletions are read
# first and a(G), b(G) solved only where they all hold; the flag is the
# same either way.  No theorem a sweep verifies is assumed.
# ---------------------------------------------------------------------------


Pair = tuple[str, str]
Flags = dict[Pair, bool]
LevelFlags = dict[tuple[int, ...], Flags]


@dataclass(frozen=True)
class _Target:
    """One table-backed sweep: the check run on each class and what it needs.

    ``check(g, values, flags)`` returns a violation detail, or None, and
    works out any per-graph result beyond the invariants itself.
    ``values`` maps each solved invariant to its raw value, so a broken
    chain reaches the check instead of raising: the invariants in
    ``invariants`` are solved on every class, those of a pair in ``pairs``
    only where the pair can still hold (see ``_live_pairs``).  ``flags``
    maps each pair (a, b) to whether the class is a-b-perfect.  A graph
    failing ``hypothesis`` is not checked or counted.  ``witnesses``
    checks graphs outside the table after it, appending to the violations
    and returning how many graphs it checked.
    """

    check: Callable[[Graph, dict[str, int], Flags], str | None]
    pairs: tuple[Pair, ...] = ()
    invariants: tuple[str, ...] = ()
    hypothesis: Callable[[Graph], bool] | None = None
    witnesses: Callable[[list[tuple[str, str]]], int] | None = None


def _check_row(theorem: str, g: Graph, live: tuple[Pair, ...]) -> tuple[Flags, str | None] | None:
    """Worker body: g's flags and its check's detail, or None off the hypothesis.

    Solves the target's own invariants and both sides of each ``live``
    pair, each invariant once; a pair that is not live is False unsolved.
    """
    target = _TARGETS[theorem]
    if target.hypothesis is not None and not target.hypothesis(g):
        return None
    wanted = set(target.invariants).union(*live)
    values = {name: solve(g) for name, solve in INVARIANT_SOLVERS.items() if name in wanted}
    flags = {(a, b): (a, b) in live and values[a] == values[b] for a, b in target.pairs}
    return flags, target.check(g, values, flags)


def _live_pairs(g: Graph, pairs: tuple[Pair, ...], below: LevelFlags) -> tuple[Pair, ...]:
    """The pairs for which every one-vertex deletion of g is perfect.

    Each deletion g - v is built by shifting the higher bits of each row
    down one place and its flags are read from ``below`` by those rows.
    On a miss the deletion is labelled once with its canonical form and
    its class representative's flags are stored under its rows.  g - (n-1)
    is g's enumeration parent, a representative one level down, so it is
    read first and never labelled.  The other deletions are read only
    while some pair is still alive.
    """
    n = g.n
    live = pairs
    for v in (n - 1, *range(n - 1)):
        if not live:
            break
        low = (1 << v) - 1
        deleted = tuple(
            (row & low) | (row >> (v + 1) << v) for u, row in enumerate(g.adj) if u != v
        )
        flags = below.get(deleted)
        if flags is None:
            key = canonical_form(_trusted(n - 1, deleted))
            flags = below[deleted] = below[_canonical_level(n - 1)[key].adj]
        live = tuple(pair for pair in live if flags[pair])
    return live


def _table_rows(
    theorem: str, n_max: int, pool: Executor | None = None
) -> Iterator[tuple[Graph, tuple[Flags, str | None] | None]]:
    """Each class up to n_max vertices with its ``_check_row`` result, in enumeration order.

    For each level, the calling process first reads the flags of every
    class's deletions from the level below and finds the pairs still
    alive; a pair with an imperfect deletion is False without a solve.
    One dict per level maps a deletion's rows to its flags, seeded with
    the empty graph's all-True flags, the base case of the definition;
    it holds the representatives' flags and gains each labelled deletion,
    and is dropped with the level.  The classes are then solved and
    checked independently, in ``pool`` when given.
    """
    target = _TARGETS[theorem]
    check = partial(_check_row, theorem)
    below: LevelFlags = {(): dict.fromkeys(target.pairs, True)}
    for n in range(1, n_max + 1):
        graphs = list(enumerate_graphs(n))
        lives = [_live_pairs(g, target.pairs, below) for g in graphs]
        if pool is None:
            results = map(check, graphs, lives)
        else:
            results = pool.map(check, graphs, lives, chunksize=16)
        here: LevelFlags = {}
        for g, result in zip(graphs, results):
            if result is not None and result[0]:
                here[g.adj] = result[0]
            yield g, result
        below = here


# ---------------------------------------------------------------------------
# Theorem targets (one per table-backed sweep id); each check returns a
# detail string on violation and None on success.
# ---------------------------------------------------------------------------


def _check_eq1_chain(g: Graph, values: dict[str, int], flags: Flags) -> str | None:
    chain = [values[name] for name in INVARIANT_CHAIN]
    if any(a > b for a, b in zip(chain, chain[1:])):
        joined = " ".join(f"{k}={v}" for k, v in zip(INVARIANT_CHAIN, chain))
        return f"chain violated: {joined}"
    return None


def _check_theorem4(g: Graph, values: dict[str, int], flags: Flags) -> str | None:
    omega_psi, chi_psi = flags["omega", "psi"], flags["chi", "psi"]
    quartet_free = family_check(g, "omega_psi_quartet").free
    structure = recognize_structure(g).accepted
    if not omega_psi == chi_psi == quartet_free == structure:
        return (
            "equivalence broken: "
            f"omega_psi={omega_psi} "
            f"chi_psi={chi_psi} "
            f"quartet_free={quartet_free} "
            f"structure={structure}"
        )
    return None


def _equivalence_target(b: str, family: str, label: str) -> _Target:
    """omega-b-perfect, chi-b-perfect and ``family``-free coincide."""

    def check(g: Graph, values: dict[str, int], flags: Flags) -> str | None:
        p_omega, p_chi = flags["omega", b], flags["chi", b]
        free = family_check(g, family).free
        if not p_omega == p_chi == free:
            return f"omega_{b}={p_omega} chi_{b}={p_chi} {label}_free={free}"
        return None

    return _Target(check, pairs=(("omega", b), ("chi", b)))


def _is_c4_p4_free(g: Graph) -> bool:
    # P4 first: most graphs hold one, and the conjunction is order-free.
    return (
        contains_induced(g, PATTERNS["P4"]) is None
        and contains_induced(g, PATTERNS["C4"]) is None
    )


def _lemma1_filter(g: Graph) -> bool:
    return is_connected(g) and _is_c4_p4_free(g)


def _check_lemma1(g: Graph, values: dict[str, int], flags: Flags) -> str | None:
    if not universal_vertices(g):
        return "connected (C4,P4)-free graph without a universal vertex"
    return None


def _interpolation_target(mode: str, label: str, high: str) -> _Target:
    """A ``mode`` coloring exists with every count from chi(G) to high(G).

    high(G), alpha or gamma, is by definition the largest count the test
    ``_colorable`` accepts, so the test answers it and each count of the
    gap, each searched at most once.  chi comes from the invariant table.
    """

    def check(g: Graph, values: dict[str, int], flags: Flags) -> str | None:
        fits, chi = _colorable(g, mode), values["chi"]
        top = next(k for k in range(g.n, 0, -1) if fits(k))
        gap = next((k for k in range(chi, top) if not fits(k)), None)
        if gap is not None:
            return f"no {label} coloring with {gap} colors (chi={chi}, {high}={top})"
        return None

    return _Target(check, invariants=("chi",))


# omega_psi implies omega_alpha implies omega_gamma implies omega_chi
_FIGURE3_ORDER = ("psi", "alpha", "gamma", "chi")


def _check_figure3_inclusions(g: Graph, values: dict[str, int], flags: Flags) -> str | None:
    for stronger, weaker in zip(_FIGURE3_ORDER, _FIGURE3_ORDER[1:]):
        if flags["omega", stronger] and not flags["omega", weaker]:
            return f"inclusion omega_{stronger} -> omega_{weaker} violated"
    return None


# Witnesses that the inclusions between perfectness classes are strict:
# each graph is perfect for the first pair and imperfect for the second.
SEPARATION_WITNESSES: tuple[tuple[str, Graph, tuple[str, str], tuple[str, str]], ...] = (
    ("P4", PATTERNS["P4"].graph, ("omega", "chi"), ("omega", "gamma")),
    ("C4", PATTERNS["C4"].graph, ("omega", "alpha"), ("omega", "psi")),
    ("C5", cycle_graph(5), ("alpha", "psi"), ("omega", "chi")),
    ("P3+K2", PATTERNS["P3+K2"].graph, ("omega", "gamma"), ("omega", "alpha")),
)


def _sweep_figure3_witnesses(violations: list[tuple[str, str]]) -> int:
    for name, g, perfect_pair, imperfect_pair in SEPARATION_WITNESSES:
        for (a, b), expected, wrong in (
            (perfect_pair, True, "not"),
            (imperfect_pair, False, "unexpectedly"),
        ):
            if is_ab_perfect(g, a, b).perfect != expected:
                violations.append((to_graph6(g), f"witness {name} {wrong} {a}-{b}-perfect"))
    return len(SEPARATION_WITNESSES)


_TARGETS: dict[str, _Target] = {
    "eq1_chain": _Target(_check_eq1_chain, invariants=INVARIANT_CHAIN),
    "theorem4": _Target(_check_theorem4, pairs=(("omega", "psi"), ("chi", "psi"))),
    "theorem1_cs": _equivalence_target("gamma", "p4_only", "p4"),
    "theorem2_cs": _equivalence_target("alpha", "achro_triple", "triple"),
    "lemma1": _Target(_check_lemma1, hypothesis=_lemma1_filter),
    "interpolation_hhp": _interpolation_target("proper_complete", "proper complete", "alpha"),
    "interpolation_grundy": _interpolation_target("grundy", "Grundy", "gamma"),
    "figure3_inclusions": _Target(
        _check_figure3_inclusions,
        pairs=tuple(("omega", b) for b in _FIGURE3_ORDER),
        witnesses=_sweep_figure3_witnesses,
    ),
}

THEOREM_IDS = tuple(sorted(_TARGETS)) + ("lemma2",)


@dataclass
class SweepReport:
    """Outcome of one theorem sweep."""

    theorem: str
    n_max: int
    checked: int
    violations: list[tuple[str, str]]
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "n_max": self.n_max,
            "checked": self.checked,
            "violations": [
                {"graph6": g6, "detail": detail} for g6, detail in self.violations
            ],
            "elapsed_ms": self.elapsed_ms,
        }


def _sweep_lemma2(n_max: int) -> tuple[int, list[tuple[str, str]]]:
    """Two complete components plus isolated vertices keep omega = psi.

    Grid: component sizes 1..5 each, 0..3 isolated vertices, restricted
    to total order <= n_max.
    """
    checked = 0
    violations: list[tuple[str, str]] = []
    for m1 in range(1, 6):
        for m2 in range(1, 6):
            for t in range(4):
                if m1 + m2 + t > n_max:
                    continue
                g = disjoint_union(complete_graph(m1), complete_graph(m2))
                if t:
                    g = disjoint_union(g, empty_graph(t))
                checked += 1
                expected = max(m1, m2)
                omega, psi = INVARIANT_SOLVERS["omega"](g), INVARIANT_SOLVERS["psi"](g)
                if not omega == psi == expected:
                    violations.append(
                        (
                            to_graph6(g),
                            f"m1={m1} m2={m2} t={t}: omega={omega} psi={psi} "
                            f"expected {expected}",
                        )
                    )
    return checked, violations


def _worker_count(jobs: int, items: int) -> int:
    """Worker processes for ``items`` work items: at most jobs, cpus, or items.

    The cpus are those this process may run on where the platform says
    (``os.sched_getaffinity``), and otherwise every cpu of the machine.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, cpus, items)


def _sweep_table(theorem: str, n_max: int, jobs: int) -> tuple[int, list[tuple[str, str]]]:
    target = _TARGETS[theorem]
    workers = 1
    if jobs > 1:
        classes = sum(len(_canonical_level(n)) for n in range(1, n_max + 1))
        workers = _worker_count(jobs, classes)
    pool: Executor | nullcontext = nullcontext()
    broken: tuple[type[Exception], ...] = ()
    if workers > 1:
        # Imported here: multiprocessing adds about 15 ms to every start-up.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        from multiprocessing import get_context

        pool = ProcessPoolExecutor(workers, mp_context=get_context("spawn"))
        broken = (BrokenProcessPool,)
    checked = 0
    violations: list[tuple[str, str]] = []
    try:
        with pool as executor:
            for g, result in _table_rows(theorem, n_max, executor):
                if result is None:
                    continue
                checked += 1
                if result[1] is not None and len(violations) < VIOLATION_LIMIT:
                    violations.append((to_graph6(g), result[1]))
    except broken:
        raise RuntimeError(
            f"sweep(jobs={jobs}) lost its worker processes.  Workers are spawned and "
            "import the calling script again, so a script calling sweep with jobs > 1 "
            'must do so under `if __name__ == "__main__":`.'
        ) from None
    if target.witnesses is not None:
        checked += target.witnesses(violations)
    return checked, violations


def sweep(theorem: str, n_max: int, jobs: int = 1) -> SweepReport:
    """Run one theorem check over every canonical graph with at most n_max vertices.

    Table-backed theorems derive the ab-perfect flags bottom-up, reading
    each class's deletions before solving it (see ``_table_rows``).
    ``jobs`` > 1 solves each level's classes in a process pool of at most
    ``jobs`` workers, once this process has read their deletions; rows
    are checked in enumeration order, so the report is identical for any
    count.
    """
    start = time.monotonic()
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if theorem == "lemma2":
        check_cap("lemma2 sweep", n_max)
        checked, violations = _sweep_lemma2(n_max)
    elif theorem in _TARGETS:
        cap = CAPS["canonical enumeration"]
        if not 1 <= n_max <= cap:
            raise CapacityError(f"{theorem} sweep capped at n={cap}, got {n_max}")
        checked, violations = _sweep_table(theorem, n_max, jobs)
    else:
        raise ValueError(f"unknown theorem {theorem!r}, expected one of {THEOREM_IDS}")
    elapsed = int((time.monotonic() - start) * 1000)
    return SweepReport(theorem, n_max, checked, violations[:VIOLATION_LIMIT], elapsed)


# ---------------------------------------------------------------------------
# Cycle table
# ---------------------------------------------------------------------------

def _alpha_psi_split_predicted(n: int) -> bool:
    """n values of the form 2x^2 + x + 1 (x >= 1) are exactly where alpha < psi."""
    x = 1
    while 2 * x * x + x + 1 <= n:
        if 2 * x * x + x + 1 == n:
            return True
        x += 1
    return False


def cycle_alpha_psi(n_max: int) -> list[dict]:
    """Achromatic vs pseudoachromatic numbers of cycles up to n_max vertices."""
    cap = CAPS["cycle table"]
    if not 3 <= n_max <= cap:
        raise CapacityError(f"cycle table covers n in 3..{cap}, got {n_max}")
    rows = []
    for n in range(3, n_max + 1):
        g = cycle_graph(n)
        alpha, psi = INVARIANT_SOLVERS["alpha"](g), INVARIANT_SOLVERS["psi"](g)
        predicted_equal = not _alpha_psi_split_predicted(n)
        rows.append(
            {
                "n": n,
                "alpha": alpha,
                "psi": psi,
                "predicted_equal": predicted_equal,
                "equal": alpha == psi,
            }
        )
    return rows
