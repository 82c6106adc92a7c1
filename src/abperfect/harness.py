"""Small-graph enumeration and theorem sweep drivers.

- Enumeration: ``_canonical_level`` builds one level of representatives,
  one per isomorphism class, indexed by colour refinement, and restricted
  to a pattern-free class for ``lemma1``; its docstring gives the argument.
  ``enumerate_graphs`` is the public entry.  ``_class_index`` finds the
  class of any rows on a level, kept in the level's one map.
- The flag table: the comment above ``Pair`` states the definition it
  evaluates, ``_table_rows`` walks the classes bottom-up and
  ``_live_pairs`` reads each class's deletions one level down.
- Sweeps: each theorem id is a stream of rows (graph, details), a
  ``_Target`` in ``_TARGETS`` on the full levels, or ``lemma1``'s
  (P4, C4)-free classes or ``lemma2``'s grid; ``sweep`` counts the rows
  and keeps the first violations.  Reports are identical, elapsed
  time aside, across runs and worker counts.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .forbidden import PATTERNS, _copy_through, family_check
from .graph6 import to_graph6
from .graphs import (
    CAPS,
    CapacityError,
    Graph,
    _automorphisms,
    _degree_code,
    _mapping_exists,
    _refine,
    _trusted,
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
    """Neighbourhoods of the new vertex whose child can be first of its class, ascending.

    A mask that an automorphism of the parent maps to a smaller mask gives
    a child isomorphic to an earlier child of the same parent, so it is
    skipped.  Any set of automorphisms prunes exactly; the generators from
    the parent's canonical search (at most 13 per parent up to 7 vertices)
    leave 79,264 children at level 8, the rooted graphs on 8 vertices,
    against 133,632 unpruned.  Each generator filters the masks that the
    ones before it kept, so a mask is kept when no generator lowers it.
    """
    masks = range(1 << parent.n)
    kept = list(masks)
    for sigma in _automorphisms(parent):
        image = [0] * len(masks)
        for mask in masks[1:]:
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << sigma[low.bit_length() - 1]
        kept = [mask for mask in kept if image[mask] >= mask]
    return kept


def _produced_earlier(parent: Graph, index: int, last: dict[int, int]) -> Callable[[int], bool]:
    """Whether the child of parent ``index`` by a mask is never first, as a test on masks.

    ``last`` maps each degree code (``graphs._degree_code``) to the largest
    index of a representative one level down with that code.  When every
    representative with the code of a deletion g - v comes before
    ``index``, g - v is isomorphic to an earlier parent, and that parent,
    extended by every mask, has a child isomorphic to g before any child of
    parent ``index``.  The code only has to be an isomorphism invariant:
    two degree multisets sharing a code would only raise ``last``.
    g - (n-1) is the parent itself and is not tested.

    The codes come from the parent's tables, built once per parent, with
    w(u) = 16^deg(u) in the parent P:
    - ``pcode[v]``, the code of P - v;
    - ``rise[M]``, the sum of 15 w(u) over u in M: adding the new vertex
      with neighbourhood M adds 16^|M| + rise[M] to P's code, each
      neighbour's weight going from w(u) to 16 w(u);
    - ``drop[M]``, the sum of 15 (w(u) - w(u)/16) over u in M: in P - v a
      neighbour u of v weighs w(u)/16, so its rise is that much smaller.
    So the child g by mask M has code(g - v) = pcode[v] + 16^|M - v| +
    rise[M - v] - drop[M & N(v)], and no child is built to be tested.

    A code that no representative has reads as -1.  The full level below
    has every class, so this never happens there.  On a level restricted
    to a hereditary class it means g - v is outside the class, so g is
    outside it too and is skipped as well.
    """
    adj = parent.adj
    full = (1 << parent.n) - 1
    rise, drop = [0], [0]
    for row in adj:
        weight = 1 << 4 * row.bit_count()
        rise += [r + 15 * weight for r in rise]
        drop += [d + 15 * (weight - (weight >> 4)) for d in drop]
    deletions = [
        (_degree_code(adj, full ^ 1 << v), full ^ 1 << v, row) for v, row in enumerate(adj)
    ]

    def produced_earlier(mask: int) -> bool:
        for pcode, keep, row in deletions:
            rest = mask & keep
            code = pcode + (1 << 4 * rest.bit_count()) + rise[rest] - drop[mask & row]
            if last.get(code, -1) < index:
                return True
        return False

    return produced_earlier


_Bucket = tuple[tuple[Graph, bytes], ...]


class _Level(NamedTuple):
    """One level of the enumeration, indexed by colour refinement.

    ``graphs`` lists the representatives in enumeration order.
    ``buckets`` maps a refinement invariant (``graphs._refine``) to the
    representatives sharing it, each with its refined cells as bytes.
    ``by_rows`` maps adjacency rows to their class's index in ``graphs``.
    It stays empty until ``_class_index`` first reads the level, which
    then enters the representatives' rows, and others as it finds them.
    """

    graphs: list[Graph]
    buckets: dict[int, _Bucket]
    by_rows: dict[tuple[int, ...], int]


def _isomorph_in(bucket: _Bucket, g: Graph, cells: list[int]) -> Graph | None:
    """The member of ``bucket`` isomorphic to g, whose refined cells are ``cells``, if any.

    Each member is tried by one mapping search that sends every cell of g
    onto the member's cell of the same number, the test ``is_isomorphic``
    runs once the invariants agree.
    """
    for member, member_cells in bucket:
        if _mapping_exists(g, member, cells, dict(enumerate(member_cells))):
            return member
    return None


def _class_index(level: _Level, rows: tuple[int, ...]) -> int:
    """The index on ``level`` of the class of the graph with ``rows``, which must be there.

    A one-vertex deletion of a class is always on the full level below,
    which has every class.  The first lookup on a level fills its map with
    the representatives' rows.  Rows not yet in the map are refined, a
    bucket of one member answering with no search, and the answer is kept
    in the map for every later caller.
    """
    if not level.by_rows:
        level.by_rows.update((g.adj, i) for i, g in enumerate(level.graphs))
    index = level.by_rows.get(rows)
    if index is None:
        g = _trusted(len(rows), rows)
        cells, key = _refine(g)
        bucket = level.buckets[key]
        member = bucket[0][0] if len(bucket) == 1 else _isomorph_in(bucket, g, cells)
        assert member is not None, "the class of a deletion is always one level down"
        index = level.by_rows[rows] = level.by_rows[member.adj]
    return index


def _children(n: int, free_of: tuple[str, ...]) -> Iterator[Graph]:
    """The children of level n - 1 that pruning keeps, by parent and then by mask."""
    if n == 1:
        yield empty_graph(1)
        return
    parents = _canonical_level(n - 1, free_of).graphs
    new = 1 << (n - 1)
    last = {_degree_code(parent.adj, new - 1): i for i, parent in enumerate(parents)}
    for i, parent in enumerate(parents):
        base = parent.adj
        produced_earlier = _produced_earlier(parent, i, last)
        for mask in _extension_masks(parent):
            if not produced_earlier(mask):
                rows = tuple(row | new if mask >> u & 1 else row for u, row in enumerate(base))
                yield _trusted(n, rows + (mask,))


@lru_cache(maxsize=None)
def _canonical_level(n: int, free_of: tuple[str, ...]) -> _Level:
    """One representative per class on n vertices free of ``free_of``, indexed by refinement.

    ``free_of`` names ``PATTERNS``; with none, the level holds every
    isomorphism class.  Every class arises as a child: delete any vertex
    of a member, map the rest onto its representative one level down, and
    the deleted vertex's neighbourhood is the mask.  Each class keeps its
    first child in parent order and then mask order; pruning skips only
    children that are never first.  Both prunes are built once per parent
    and test each mask without building its child.  Orbit pruning
    (``_extension_masks``) skips a mask an automorphism of the parent maps
    lower; earlier-parent pruning (``_produced_earlier``) skips a child
    with a deletion isomorphic to an earlier parent.  Together they leave
    1, 2, 4, 11, 34, 174, 1,623 and 32,817 children to refine at levels 1
    to 8 of the full enumeration, against 79,264 at level 8 with orbit
    pruning alone.  A child is kept when ``_isomorph_in`` finds no
    representative in its bucket: 628 mapping searches to level 7, of
    which 597 find the child's class.

    Pattern-freeness is hereditary, so a restricted level is exact:
    - every deletion of a member is a member, so the members one level
      down are exactly the full representatives free of the patterns, in
      the same order, and they are the only parents a member can have;
    - a member's first (parent, mask) pair in the full enumeration has a
      member parent, survives orbit pruning as before, and survives
      earlier-parent pruning, which skips only children outside the class
      or isomorphic to a child of an earlier member parent;
    so each member has the same representative, in the same order.  A
    child that holds a pattern is dropped before it is refined: the
    (P4, C4)-free levels refine 1, 2, 4, 9, 20, 48, 115 and 288 children.
    Its parent is a member, so a copy of a pattern in a child holds the
    new vertex n - 1, and only the copies through it are looked for
    (``forbidden._copy_through``).

    The cache holds two kinds of level, at most 8 of each, the
    enumeration cap: the full levels, ``free_of == ()``, and ``lemma1``'s
    (P4, C4)-free levels, ``("C4", "P4")``.
    """
    patterns = [PATTERNS[name] for name in free_of]
    level = _Level([], {}, {})
    for g in _children(n, free_of):
        if any(_copy_through(g, pattern, True) is not None for pattern in patterns):
            continue
        cells, key = _refine(g)
        bucket = level.buckets.get(key, ())
        if _isomorph_in(bucket, g, cells) is None:
            level.buckets[key] = bucket + ((g, bytes(cells)),)
            level.graphs.append(g)
    return level


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """Iterate one graph per isomorphism class on n vertices.

    The cap is checked when it is called, not when the iterator is first read.
    """
    check_cap("canonical enumeration", n)
    return iter(_canonical_level(n, ()).graphs)


# ---------------------------------------------------------------------------
# The flag table: the ab-perfect flags of each class, built level by level.
#
# Every proper induced subgraph of G lies inside some G - v, so by the
# definition of ab-perfectness alone
#     perfect_ab(G) = [a(G) = b(G)] and perfect_ab(G - v) for every v,
# with each G - v read from the level below by its class index, down to
# the empty graph, which is perfect for every pair.  The deletions are
# read first and a(G), b(G) solved only where they all hold; the flag is
# the same either way.  No theorem a sweep verifies is assumed.
# ---------------------------------------------------------------------------


Pair = tuple[str, str]
Flags = dict[Pair, bool]
Row = tuple[Graph, list[str]]


@dataclass(frozen=True)
class _Target:
    """One table-backed sweep: the check run on every class and what it needs.

    ``check(g, values, flags)`` returns a violation detail, or None, and
    works out any per-graph result beyond the invariants itself.
    ``values`` maps each solved invariant to its raw value, so a broken
    chain reaches the check instead of raising: the invariants in
    ``invariants`` are solved on every class, those of a pair in ``pairs``
    only where the pair can still hold (see ``_live_pairs``).  ``flags``
    maps each pair (a, b) to whether the class is a-b-perfect.
    ``witnesses()`` streams rows of graphs outside the table, checked
    after it; by default there are none.
    """

    check: Callable[[Graph, dict[str, int], Flags], str | None]
    pairs: tuple[Pair, ...] = ()
    invariants: tuple[str, ...] = ()
    witnesses: Callable[[], Iterable[Row]] = tuple


def _check_row(theorem: str, g: Graph, live: tuple[Pair, ...]) -> tuple[Flags, list[str]]:
    """Worker body: g's flags and its check's details.

    Solves both sides of each ``live`` pair and the target's own
    invariants, each invariant once; a pair that is not live is False
    unsolved.
    """
    target = _TARGETS[theorem]
    wanted = set(target.invariants).union(*live)
    values = {name: solve(g) for name, solve in INVARIANT_SOLVERS.items() if name in wanted}
    flags = {(a, b): (a, b) in live and values[a] == values[b] for a, b in target.pairs}
    detail = target.check(g, values, flags)
    return flags, [] if detail is None else [detail]


def _live_pairs(g: Graph, target: _Target, level: _Level, below: list[Flags]) -> tuple[Pair, ...]:
    """The pairs of ``target`` for which every one-vertex deletion of g is perfect.

    ``below`` lists the flags of ``level``'s classes, the full level one
    down.  Each g - v is built by shifting the higher bits of each row
    down one place and read at its ``_class_index``: g - (n-1), g's
    enumeration parent, first, its rows being a representative's, which
    the level's first lookup puts in the map, and the others only while
    some pair is still alive.
    """
    live = target.pairs
    for v in (g.n - 1, *range(g.n - 1)):
        if not live:
            break
        low = (1 << v) - 1
        deleted = tuple(
            (row & low) | (row >> (v + 1) << v) for u, row in enumerate(g.adj) if u != v
        )
        flags = below[_class_index(level, deleted)]
        live = tuple(pair for pair in live if flags[pair])
    return live


def _table_rows(
    theorem: str, n_max: int, pool: Executor | None = None
) -> Iterator[tuple[Graph, tuple[Flags, list[str]]]]:
    """Each class up to n_max vertices with its ``_check_row`` result, in enumeration order.

    For each level, the calling process first reads the flags of every
    class's deletions from the level below and finds the pairs still
    alive; a pair with an imperfect deletion is False without a solve.
    A level's flags are a list by class index, dropped once the level
    above is read; a deletion's class is found in the cached level's map,
    so it is refined at most once per process, whichever sweep asks.  The
    classes are then solved and checked independently, in ``pool``.
    """
    target = _TARGETS[theorem]
    check = partial(_check_row, theorem)
    below: list[Flags] = []
    for n in range(1, n_max + 1):
        graphs = _canonical_level(n, ()).graphs
        lives = [target.pairs] * len(graphs)  # n = 1: G - v is the empty graph, all-perfect
        if n > 1:
            level = _canonical_level(n - 1, ())
            lives = [_live_pairs(g, target, level, below) for g in graphs]
        if pool is None:
            results = map(check, graphs, lives)
        else:
            results = pool.map(check, graphs, lives, chunksize=16)
        here: list[Flags] = []
        for g, result in zip(graphs, results):
            here.append(result[0])
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


def _equivalence_target(b: str, **facts: Callable[[Graph], bool]) -> _Target:
    """omega-b-perfect, chi-b-perfect and each of ``facts``, tests of g, coincide.

    A violation lists every value as ``name=value``, the facts under their
    keyword names.
    """
    pairs = (("omega", b), ("chi", b))
    names = (f"omega_{b}", f"chi_{b}", *facts)
    tests = tuple(facts.values())

    def check(g: Graph, values: dict[str, int], flags: Flags) -> str | None:
        seen = (flags[pairs[0]], flags[pairs[1]], *(test(g) for test in tests))
        if any(seen) and not all(seen):
            return " ".join(f"{name}={value}" for name, value in zip(names, seen))
        return None

    return _Target(check, pairs=pairs)


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


def _sweep_figure3_witnesses() -> Iterator[Row]:
    for name, g, perfect_pair, imperfect_pair in SEPARATION_WITNESSES:
        yield g, [
            f"witness {name} {wrong} {a}-{b}-perfect"
            for (a, b), expected, wrong in (
                (perfect_pair, True, "not"),
                (imperfect_pair, False, "unexpectedly"),
            )
            if is_ab_perfect(g, a, b).perfect != expected
        ]


_TARGETS: dict[str, _Target] = {
    "eq1_chain": _Target(_check_eq1_chain, invariants=INVARIANT_CHAIN),
    "theorem4": _equivalence_target(
        "psi",
        quartet_free=lambda g: family_check(g, "omega_psi_quartet").free,
        structure=lambda g: recognize_structure(g).accepted,
    ),
    "theorem1_cs": _equivalence_target("gamma", p4_free=lambda g: family_check(g, "p4_only").free),
    "theorem2_cs": _equivalence_target(
        "alpha", triple_free=lambda g: family_check(g, "achro_triple").free
    ),
    "interpolation_hhp": _interpolation_target("proper_complete", "proper complete", "alpha"),
    "interpolation_grundy": _interpolation_target("grundy", "Grundy", "gamma"),
    "figure3_inclusions": _Target(
        _check_figure3_inclusions,
        pairs=tuple(("omega", b) for b in _FIGURE3_ORDER),
        witnesses=_sweep_figure3_witnesses,
    ),
}

THEOREM_IDS = tuple(sorted([*_TARGETS, "lemma1"])) + ("lemma2",)


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


def _sweep_lemma1(n_max: int) -> Iterator[Row]:
    """Every connected (P4, C4)-free graph has a universal vertex: one row per such class."""
    for n in range(1, n_max + 1):
        for g in _canonical_level(n, ("C4", "P4")).graphs:
            if is_connected(g):
                detail = "connected (C4,P4)-free graph without a universal vertex"
                yield g, [] if universal_vertices(g) else [detail]


def _sweep_lemma2(n_max: int) -> Iterator[Row]:
    """Two complete components plus isolated vertices keep omega = psi.

    Grid: component sizes 1..5 each, 0..3 isolated vertices, restricted
    to total order <= n_max.
    """
    for m1 in range(1, 6):
        for m2 in range(1, 6):
            for t in range(4):
                if m1 + m2 + t > n_max:
                    continue
                g = disjoint_union(complete_graph(m1), complete_graph(m2))
                if t:
                    g = disjoint_union(g, empty_graph(t))
                expected = max(m1, m2)
                omega, psi = INVARIANT_SOLVERS["omega"](g), INVARIANT_SOLVERS["psi"](g)
                detail = f"m1={m1} m2={m2} t={t}: omega={omega} psi={psi} expected {expected}"
                yield g, [] if omega == psi == expected else [detail]


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


def _sweep_table(theorem: str, n_max: int, jobs: int) -> Iterator[Row]:
    workers = 1
    if jobs > 1:
        classes = sum(len(_canonical_level(n, ()).graphs) for n in range(1, n_max + 1))
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
    try:
        with pool as executor:
            for g, (_, details) in _table_rows(theorem, n_max, executor):
                yield g, details
    except broken:
        raise RuntimeError(
            f"sweep(jobs={jobs}) lost its worker processes.  Workers are spawned and "
            "import the calling script again, so a script calling sweep with jobs > 1 "
            'must do so under `if __name__ == "__main__":`.'
        ) from None
    yield from _TARGETS[theorem].witnesses()


def sweep(theorem: str, n_max: int, jobs: int = 1) -> SweepReport:
    """Run one theorem check over every canonical graph with at most n_max vertices.

    Table-backed theorems derive the ab-perfect flags bottom-up, reading
    each class's deletions before solving it (see ``_table_rows``).
    ``jobs`` > 1 solves each level's classes in a process pool of at most
    ``jobs`` workers, once this process has read their deletions; rows
    are checked in enumeration order, so the report is identical for any
    count.  ``lemma1`` and ``lemma2`` run in this process.  Each row is
    one checked graph; its details are kept in row order up to
    ``VIOLATION_LIMIT`` violations in all.
    """
    start = time.monotonic()
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if theorem == "lemma2":
        check_cap("lemma2 sweep", n_max)
        rows = _sweep_lemma2(n_max)
    elif theorem in _TARGETS or theorem == "lemma1":
        cap = CAPS["canonical enumeration"]
        if not 1 <= n_max <= cap:
            raise CapacityError(f"{theorem} sweep capped at n={cap}, got {n_max}")
        rows = _sweep_lemma1(n_max) if theorem == "lemma1" else _sweep_table(theorem, n_max, jobs)
    else:
        raise ValueError(f"unknown theorem {theorem!r}, expected one of {THEOREM_IDS}")
    checked = 0
    violations: list[tuple[str, str]] = []
    for g, details in rows:
        checked += 1
        room = VIOLATION_LIMIT - len(violations)
        violations += ((to_graph6(g), detail) for detail in details[:room])
    elapsed = int((time.monotonic() - start) * 1000)
    return SweepReport(theorem, n_max, checked, violations, elapsed)


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
