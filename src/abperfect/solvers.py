"""Exact solvers for the five coloring invariants of small graphs.

clique number      -- branch and bound over adjacency bitsets
chromatic number   -- iterative deepening k-colorability from the clique bound
Grundy number      -- memoized peeling of maximal independent sets, each
                      vertex mask's feasible color counts kept as one bitmask
achromatic and pseudoachromatic numbers
                   -- backtracking over canonically-ordered set partitions
                      with an edge bound: uncovered color pairs vs. the
                      edges between unplaced vertices plus, per unplaced
                      vertex, the colors on its placed neighbors

``INVARIANT_SOLVERS`` is the invariant table: it maps each invariant's name
to its solver in chain order, and ``INVARIANT_CHAIN`` is its keys.  The
ab-perfectness scan, the sweeps and ``profile`` all read it.  Whether a
coloring of one mode with exactly k colors exists is one per-graph test,
``_colorable``, asked by ``has_coloring`` and the interpolation sweeps.

Every cap in ``graphs.CAPS`` is a hard error, never a silent fallback: an
approximate answer would poison the theorem sweeps built on these solvers.
Search order is fixed so witnesses are deterministic: the chromatic search takes
vertices ascending, the complete-coloring search takes them by descending
degree with ties broken by label, both try colors ascending, and the
Grundy search lists maximal independent sets from one Bron-Kerbosch that
pivots on the first vertex of p|x with the most candidates and tries the
other candidates in ascending bit order.  Complete colorings come back in
vertex labels with colors numbered by first occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple

from .colorings import Coloring
from .graphs import Graph, bits, check_cap, complement

# has_coloring decides each mode with the search of this solver, under its cap.
_MODE_SOLVERS = {
    "complete": "pseudoachromatic_number",
    "proper_complete": "achromatic_number",
    "grundy": "grundy_number",
}

COLORING_MODES = tuple(_MODE_SOLVERS)


@dataclass(frozen=True)
class ParameterProfile:
    """The 5-tuple of invariants for one graph.

    The constructor enforces the universal chain
    omega <= chi <= gamma <= alpha <= psi; a violation can only mean a
    solver bug, so it is a hard error.
    """

    omega: int
    chi: int
    gamma: int
    alpha: int
    psi: int

    def __post_init__(self):
        chain = self.as_tuple()
        if any(x < 1 for x in chain) or any(
            a > b for a, b in zip(chain, chain[1:])
        ):
            raise ValueError(f"invariant chain violated: {chain}")

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return tuple(vars(self).values())

    def to_dict(self) -> dict[str, int]:
        return dict(vars(self))


# ---------------------------------------------------------------------------
# Clique number
# ---------------------------------------------------------------------------


def clique_number(g: Graph, witness: bool = False) -> int | tuple[int, frozenset[int]]:
    """Size of a maximum clique, optionally with one witness vertex set."""
    adj = g.adj
    best_size = 0
    best_mask = 0

    def expand(clique: int, size: int, cand: int) -> None:
        nonlocal best_size, best_mask
        if size > best_size:
            best_size, best_mask = size, clique
        while cand:
            if size + cand.bit_count() <= best_size:
                return
            low = cand & -cand
            cand ^= low
            expand(clique | low, size + 1, cand & adj[low.bit_length() - 1])

    expand(0, 0, (1 << g.n) - 1)
    if witness:
        return best_size, frozenset(bits(best_mask))
    return best_size


# ---------------------------------------------------------------------------
# Chromatic number
# ---------------------------------------------------------------------------


def _proper_k_coloring(g: Graph, k: int) -> list[int] | None:
    """First proper coloring with at most k colors in canonical order."""
    n, adj = g.n, g.adj
    color = [0] * n
    class_masks = [0] * (k + 1)

    def assign(v: int, used: int) -> bool:
        if v == n:
            return True
        row = adj[v]
        for c in range(1, min(k, used + 1) + 1):
            if class_masks[c] & row:
                continue
            color[v] = c
            class_masks[c] |= 1 << v
            if assign(v + 1, max(used, c)):
                return True
            class_masks[c] &= ~(1 << v)
        color[v] = 0
        return False

    return color if assign(0, 0) else None


def chromatic_number(g: Graph, witness: bool = False) -> int | tuple[int, Coloring]:
    """Least number of colors in a proper coloring."""
    check_cap("chromatic_number", g.n)
    k = clique_number(g)
    while True:
        found = _proper_k_coloring(g, k)
        if found is not None:
            # The first success sits exactly at chi, so all k colors appear.
            return (k, Coloring(tuple(found))) if witness else k
        k += 1


# ---------------------------------------------------------------------------
# Grundy number
# ---------------------------------------------------------------------------


def _maximal_independent_sets(
    non: tuple[int, ...], p: int, x: int = 0, chosen: int = 0, out: list[int] | None = None
) -> list[int]:
    """Called as ``(non, mask)``: the maximal independent sets of the subgraph
    on ``mask``, as masks, each once.

    ``non`` holds the complement's rows, so these are its maximal cliques,
    found by Bron-Kerbosch with pivoting.  In the recursion ``chosen`` is
    the set built so far, ``p`` the vertices that may still join it, ``x``
    those already tried, and ``out`` collects the sets.  The pivot is the
    first vertex of p|x whose row holds the most of p; the other candidates
    are tried in ascending bit order.  This order fixes which Grundy witness
    ``grundy_number`` returns.
    """
    if out is None:
        out = []
    if not p:
        if not x:
            out.append(chosen)
        return out
    best, pivot_row = -1, 0
    px = p | x
    while px:
        low = px & -px
        px ^= low
        row = non[low.bit_length() - 1]
        cnt = (p & row).bit_count()
        if cnt > best:
            best, pivot_row = cnt, row
    cand = p & ~pivot_row
    while cand:
        low = cand & -cand
        cand ^= low
        row = non[low.bit_length() - 1]
        _maximal_independent_sets(non, p & row, x & row, chosen | low, out)
        p ^= low
        x |= low
    return out


def _grundy_reachable(g: Graph) -> dict[int, int]:
    """For each reachable vertex mask, its feasible Grundy color counts as one int.

    Bit t of ``memo[S]`` is set when the subgraph on S has a Grundy
    coloring with exactly t colors.  A coloring is Grundy with first class
    C1 exactly when C1 is a maximal independent set and the rest is Grundy
    on the remainder, so counts(0) = 1 and counts(S) is the OR over maximal
    independent M in S of counts(S minus M), shifted left by one.  The sets
    M come from ``_maximal_independent_sets`` over the complement's rows.
    """
    non = complement(g).adj
    memo: dict[int, int] = {0: 1}

    def reach(mask: int) -> int:
        got = memo.get(mask)
        if got is None:
            got = 0
            for s in _maximal_independent_sets(non, mask):
                got |= reach(mask ^ s)
            got = memo[mask] = got << 1
        return got

    reach((1 << g.n) - 1)
    return memo


def grundy_number(g: Graph, witness: bool = False) -> int | tuple[int, Coloring]:
    """Largest number of colors in a Grundy coloring."""
    check_cap("grundy_number", g.n)
    memo = _grundy_reachable(g)
    full = (1 << g.n) - 1
    value = memo[full].bit_length() - 1
    if not witness:
        return value
    non = complement(g).adj
    color = [0] * g.n
    mask, need = full, value
    level = 0
    while mask:
        level += 1
        for s in _maximal_independent_sets(non, mask):
            if memo[mask ^ s] >> (need - 1) & 1:
                for v in bits(s):
                    color[v] = level
                mask ^= s
                need -= 1
                break
    return value, Coloring(tuple(color))


# ---------------------------------------------------------------------------
# Complete colorings (achromatic / pseudoachromatic)
# ---------------------------------------------------------------------------


class _Plan(NamedTuple):
    """One graph prepared for the complete-coloring search.

    Step i places vertex ``order[i]``; ``back[i]`` and ``ahead[i]`` are the
    vertex masks of its neighbors placed at earlier and at later steps, and
    ``inner[i]`` counts the edges with both endpoints placed at step i or
    later (``inner[n]`` is 0, ``inner[0]`` is |E|); the last two feed the
    edge bound of ``_complete_partition``.
    """

    order: tuple[int, ...]
    back: tuple[int, ...]
    ahead: tuple[int, ...]
    inner: tuple[int, ...]


def _plan(g: Graph) -> _Plan:
    """Branch in degree-descending order, ties broken by label."""
    adj = g.adj
    degree = [row.bit_count() for row in adj]
    order = sorted(range(g.n), key=degree.__getitem__, reverse=True)  # stable
    back, placed = [], 0
    for v in order:
        back.append(adj[v] & placed)
        placed |= 1 << v
    ahead = [adj[v] ^ mask for v, mask in zip(order, back)]
    inner = list(accumulate([mask.bit_count() for mask in reversed(ahead)], initial=0))
    inner.reverse()
    return _Plan(tuple(order), tuple(back), tuple(ahead), tuple(inner))


def _complete_partition(plan: _Plan, k: int, proper: bool) -> list[int] | None:
    """First assignment into exactly k classes forming a complete coloring.

    Vertices are placed in plan order (degree descending, ties by label)
    and colors tried ascending; a new color may open only after all
    smaller ones, which breaks the k! color symmetry.  Returns 0-based
    colors by vertex, the search's one per-vertex state: an entry is written
    when its vertex is placed and read only by neighbors placed later, so
    backtracking leaves it.  None at once when k > n or k(k-1)/2 > |E|.
    Prunes on: properness, classes that can no longer all open, and the
    edge bound below.

    Edge bound.  Once steps 0..i are placed, each uncovered color pair
    needs an edge of its own with an unplaced endpoint.  An edge between
    two unplaced vertices covers at most one pair, and there are
    ``inner[i + 1]`` of them.  The edges from an unplaced vertex u to
    placed ones cover at most |C(u)| pairs, C(u) being the colors on u's
    placed neighbors, since u takes one color.  So a branch is cut when
    the uncovered pairs exceed ``cross + inner[i + 1]``, ``cross`` being
    the sum of |C(u)| over unplaced u.  ``reach[c]`` is the vertex mask
    with a placed neighbor of color c, so placing a vertex at color c adds
    its later neighbors outside ``reach[c]`` to ``cross``.  The bound cuts
    only subtrees holding no complete k-coloring, so the first one found
    does not depend on it.
    """
    order, back, ahead, inner = plan
    n = len(order)
    if k > n or k * (k - 1) // 2 > inner[0]:
        return None
    color = [0] * n
    seen = [0] * k  # seen[c]: colors already joined to c by an edge
    reach = [0] * k

    def place(i: int, used: int, uncovered: int, cross: int) -> bool:
        if k - used > n - i:
            return False
        if i == n:
            return True  # every class open, and uncovered <= cross + inner[n] = 0
        nbrs = back[i]
        ncol = 0  # colors on the placed neighbors of order[i]
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            ncol |= 1 << color[low.bit_length() - 1]
        v, later = order[i], ahead[i]
        cross -= ncol.bit_count()  # order[i] is no longer unplaced
        slack = cross + inner[i + 1]
        for c in range(used + 1 if used < k else k):
            cbit = 1 << c
            if proper and ncol & cbit:
                continue
            new = ncol & ~seen[c] & ~cbit
            left = uncovered - new.bit_count()
            fresh = later & ~reach[c]
            gain = fresh.bit_count()
            if left > slack + gain:
                continue
            color[v] = c
            reach[c] |= fresh
            if new:
                seen[c] |= new
                for d in bits(new):
                    seen[d] |= cbit
            if place(i + 1, used + (c == used), left, cross + gain):
                return True
            reach[c] ^= fresh
            if new:
                seen[c] ^= new
                for d in bits(new):
                    seen[d] ^= cbit
        return False

    return color if place(0, 0, k * (k - 1) // 2, 0) else None


def _largest_complete(g: Graph, proper: bool, witness: bool) -> int | tuple[int, Coloring]:
    """Most colors in a complete coloring, proper or not, by descending k from
    n; ``_complete_partition`` turns down each k with k(k-1)/2 > |E| on entry.
    Witness colors are renumbered by first occurrence."""
    m = g.edge_count()
    if m < 3 and not witness:
        # Distinct color pairs need distinct edges, so k(k-1)/2 <= |E| < 3
        # caps k at 2, or 1 with no edge.  The cap is met: given an edge,
        # color one endpoint 2 and every other vertex 1 for a complete
        # 2-coloring; two edges form no cycle, so a proper 2-coloring
        # exists too, complete via any edge.
        return 1 + (m > 0)
    plan = _plan(g)
    for k in range(g.n, 0, -1):
        found = _complete_partition(plan, k, proper)
        if found is not None:
            if not witness:
                return k
            first: dict[int, int] = {}
            for c in found:
                first.setdefault(c, len(first) + 1)
            return k, Coloring(tuple(first[c] for c in found))
    raise AssertionError("unreachable: an optimal proper coloring is complete")


def pseudoachromatic_number(g: Graph, witness: bool = False) -> int | tuple[int, Coloring]:
    """Largest number of colors in a complete coloring (properness not required)."""
    check_cap("pseudoachromatic_number", g.n)
    return _largest_complete(g, False, witness)


def achromatic_number(g: Graph, witness: bool = False) -> int | tuple[int, Coloring]:
    """Largest number of colors in a proper complete coloring."""
    check_cap("achromatic_number", g.n)
    return _largest_complete(g, True, witness)


# ---------------------------------------------------------------------------
# Decision procedure and profile
# ---------------------------------------------------------------------------


def _colorable(g: Graph, mode: str) -> Callable[[int], bool]:
    """Whether g has a ``mode`` coloring with exactly k colors, as a test of k that
    sets up its search once; modes and caps are the caller's to check."""
    if mode == "grundy":
        counts = _grundy_reachable(g)[(1 << g.n) - 1]
        return lambda k: bool(counts >> k & 1)
    plan, proper = _plan(g), mode == "proper_complete"
    return lambda k: _complete_partition(plan, k, proper) is not None


def has_coloring(g: Graph, k: int, mode: str) -> bool:
    """Does a coloring with exactly k colors of the given mode exist?  Asks
    ``_colorable``, the per-graph test the interpolation sweeps share."""
    if mode not in COLORING_MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {COLORING_MODES}")
    if not 1 <= k <= g.n:
        raise ValueError(f"color count must be in 1..{g.n}, got {k}")
    check_cap(_MODE_SOLVERS[mode], g.n)
    return _colorable(g, mode)(k)


# One dict object for every reader: a value replaced in place (a test's
# counting solver, a tracer's span) is seen by the scan, the sweeps and profile.
INVARIANT_SOLVERS = {
    "omega": clique_number,
    "chi": chromatic_number,
    "gamma": grundy_number,
    "alpha": achromatic_number,
    "psi": pseudoachromatic_number,
}

INVARIANT_CHAIN = tuple(INVARIANT_SOLVERS)


def profile(g: Graph) -> ParameterProfile:
    """All five invariants; the chain inequality is asserted on construction."""
    check_cap("profile", g.n)
    return ParameterProfile(*(solve(g) for solve in INVARIANT_SOLVERS.values()))
