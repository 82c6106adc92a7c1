"""Exact solvers for the five coloring invariants of small graphs.

Each search and its prunes are described where they are written:
``clique_number`` (branch and bound), ``chromatic_number`` (by
``_proper_k_coloring``, upward from the clique bound), ``grundy_number``
(by the peeling memo ``_grundy_reachable``; ``_grundy_at_least`` decides
gamma >= t) and the achromatic and pseudoachromatic numbers (by
``_complete_partition`` over one ``_plan``).  ``INVARIANT_SOLVERS`` is the
invariant table in chain order, ``INVARIANT_STEPS`` the subset scan's
steps, and ``_colorable`` the one per-graph k-coloring test.  Caps are
hard errors, never approximations, and every search order is fixed, so
witnesses are deterministic.
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


def _grundy_at_least(g: Graph, t: int) -> bool:
    """Whether g has a Grundy coloring with at least t colors, that is t <= gamma(g).

    The same peeling as ``_grundy_reachable``, as a decision: the subgraph
    on S has a Grundy coloring with >= t colors exactly when some maximal
    independent M in S leaves S minus M one with >= t-1 colors.  Every S
    has one with >= 0 colors and a nonempty S one with >= 1, so t <= 1 is
    answered on entry.  The walk is depth-first over the sets that
    ``_maximal_independent_sets`` yields and stops at the first success,
    so only refutations are remembered: ``refuted[S]`` is the least t
    refuted on S.  The memo is monotone: a coloring with >= t' colors has
    >= t colors when t <= t', so a refutation at t holds for every larger
    t, and any query (S, t') with t' >= ``refuted[S]`` is refused.

    Degree cut.  In a Grundy coloring a vertex v of color c has a neighbor
    of each color 1..c-1, so c - 1 <= deg(v) and no coloring of the
    subgraph on S uses more than Delta(G[S]) + 1 colors.  A query with
    t > Delta(G[S]) + 1 is refused before its sets are listed.
    """
    adj = g.adj
    non = complement(g).adj
    refuted: dict[int, int] = {}

    def at_least(mask: int, t: int) -> bool:
        if t <= 1:
            return t <= 0 or mask != 0
        if refuted.get(mask, t + 1) <= t:
            return False
        if any((adj[v] & mask).bit_count() >= t - 1 for v in bits(mask)):
            for s in _maximal_independent_sets(non, mask):
                if at_least(mask ^ s, t - 1):
                    return True
        refuted[mask] = t
        return False

    return at_least((1 << g.n) - 1, t)


# ---------------------------------------------------------------------------
# Complete colorings (achromatic / pseudoachromatic)
# ---------------------------------------------------------------------------


class _Plan(NamedTuple):
    """One graph prepared for the complete-coloring search.

    Step i places vertex ``order[i]``; ``back[i]`` and ``ahead[i]`` are the
    vertex masks of its neighbors placed at earlier and at later steps, and
    ``inner[i]`` counts the edges with both endpoints placed at step i or
    later (``inner[n]`` is 0, ``inner[0]`` is |E|); the last two feed the
    edge bound of ``_complete_partition``, and ``inner`` its unopened-color
    cut too.  ``unplaced[i]`` is the mask of the vertices placed at step i
    or later (``unplaced[n]`` is 0): the class claims count, per opened
    color c, the unplaced vertices next to a c-vertex, since each meets at
    most one of c's missing partners.
    ``degrees`` holds the vertex degrees in step order, so descending: the
    degree cover counts the vertices of degree >= k-1 and sums the rest,
    since each class meets the other k-1 classes and a vertex meets at
    most deg(v) of them.  Both are built with ``back`` in one loop; the
    plan is rebuilt for every call of a subset scan, so it holds masks
    and counts, not per-step neighbor lists.
    """

    order: tuple[int, ...]
    back: tuple[int, ...]
    ahead: tuple[int, ...]
    inner: tuple[int, ...]
    unplaced: tuple[int, ...]
    degrees: tuple[int, ...]


def _plan(g: Graph) -> _Plan:
    """Branch in degree-descending order, ties broken by label."""
    adj = g.adj
    degree = [row.bit_count() for row in adj]
    order = sorted(range(g.n), key=degree.__getitem__, reverse=True)  # stable
    back, unplaced, degrees = [], [], []
    placed, full = 0, (1 << g.n) - 1
    for v in order:
        back.append(adj[v] & placed)
        unplaced.append(full ^ placed)
        degrees.append(degree[v])
        placed |= 1 << v
    unplaced.append(0)
    ahead = [adj[v] ^ mask for v, mask in zip(order, back)]
    inner = list(accumulate([mask.bit_count() for mask in reversed(ahead)], initial=0))
    inner.reverse()
    return _Plan(
        tuple(order), tuple(back), tuple(ahead), tuple(inner), tuple(unplaced), tuple(degrees)
    )


def _complete_partition(plan: _Plan, k: int, proper: bool) -> list[int] | None:
    """First assignment into exactly k classes forming a complete coloring.

    Vertices are placed in plan order (degree descending, ties by label);
    a new color may open only after all smaller ones, which breaks the k!
    color symmetry.  Colors are tried newest first: the unopened one, then
    the opened ones from the most recent down.  The colors allowed at a
    node and every prune depend only on the assignment so far, so a
    refuted k visits the same nodes in any order, and a feasible k stops
    at the first solution in this one.  Opening colors early reaches it
    sooner: psi visits a third of the nodes that ascending order did on
    the bench's solve corpus.  Returns 0-based colors by vertex, the
    search's one per-vertex state: an entry is written when its vertex is
    placed and read only by neighbors placed later, so backtracking
    leaves it.  None at once when k(k-1)/2 > |E| or the
    degree cover below fails.  Prunes on: properness, the class claims,
    the edge bound and the unopened colors below.  Each prune, and each
    refusal, cuts only subtrees holding no complete k-coloring, proper or
    not, so the first one found does not depend on them.

    Degree cover.  A class meets the other k-1 classes, and a vertex meets
    at most deg(v) of them.  So each class holds a vertex of degree >= k-1,
    or >= 2 vertices whose degrees sum to >= k-1.  With h the number of
    vertices of degree >= k-1 and L the sum of the other degrees, k is
    refused when k > h + min((n-h)//2, L//(k-1)).

    Class claims, at each node where fewer vertices are unplaced than k.
    Each unopened color needs at least one unplaced vertex.  An opened
    color c may still miss k-1-|seen[c]| partners.  If that is more than
    ``reach[c] & unplaced`` (the unplaced vertices next to a c-vertex), c
    also needs an unplaced vertex: each such neighbor takes one color, so
    it meets at most one missing partner.  Classes are disjoint, so a node
    is cut when the claims outnumber the unplaced vertices.

    Edge bound.  Once steps 0..i are placed, each uncovered color pair
    needs an edge of its own with an unplaced endpoint.  An edge between
    two unplaced vertices covers at most one pair, and there are
    ``inner[i + 1]`` of them.  The edges from an unplaced vertex u to
    placed ones cover at most |C(u)| pairs, C(u) being the colors on u's
    placed neighbors, since u takes one color.  So a branch is cut when
    the uncovered pairs exceed ``cross + inner[i + 1]``, ``cross`` being
    the sum of |C(u)| over unplaced u.  ``reach[c]`` is the vertex mask
    with a placed neighbor of color c, so placing a vertex at color c adds
    its later neighbors outside ``reach[c]`` to ``cross``.

    Unopened colors.  Once order[i] takes color c, r = k - used colors are
    still unopened, ``used`` counting c.  No placed vertex has one, so each
    pair of them needs an edge with both endpoints unplaced, and an edge
    joins one pair.  The child is cut when r(r-1)/2 > ``inner[i + 1]``.
    The edge bound cannot see this: ``cross`` may pay for these pairs.
    """
    order, back, ahead, inner, unplaced, degrees = plan
    n = len(order)
    if k * (k - 1) // 2 > inner[0]:  # every k > n: k(k-1)/2 > n(n-1)/2 >= |E|
        return None
    if degrees[k - 1] < k - 1:  # fewer than k vertices of degree >= k-1; never at k = 1
        low = [d for d in degrees if d < k - 1]
        if k > n - len(low) + min(len(low) // 2, sum(low) // (k - 1)):
            return None
    color = [0] * n
    seen = [0] * k  # seen[c]: colors already joined to c by an edge
    reach = [0] * k

    def place(i: int, used: int, uncovered: int, cross: int) -> bool:
        # Class claims: spare is the unplaced vertices less the claims, and
        # the claims are at most k, so they can cut only when n - i < k.
        spare = n - i - k
        if spare < 0:
            spare += used  # each unopened color claims one vertex
            if spare < 0:
                return False
            free = unplaced[i]
            for c in range(used):
                if k - 1 - seen[c].bit_count() > (reach[c] & free).bit_count():
                    spare -= 1
                    if spare < 0:
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
        for c in range(used if used < k else k - 1, -1, -1):
            cbit = 1 << c
            if proper and ncol & cbit:
                continue
            new = ncol & ~seen[c] & ~cbit
            left = uncovered - new.bit_count()
            fresh = later & ~reach[c]
            gain = fresh.bit_count()
            if left > slack + gain:
                continue
            r = k - used - (c == used)  # colors still unopened; their pairs need inner edges
            if r * (r - 1) > 2 * inner[i + 1]:
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
    n; ``_complete_partition`` turns down each k with k(k-1)/2 > |E|, or
    failing the degree cover, on entry.  Witness colors are renumbered by
    first occurrence."""
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


def _solved(name: str) -> Callable[[Graph, int], int]:
    """A step that solves ``name`` in full, through the table at call time."""
    return lambda h, x: INVARIANT_SOLVERS[name](h)


# The subset scan's steps: (h, x) -> the invariant's value on h, for an h
# whose value is known to be x or x + 1.  gamma and chi decide it with one
# search each: gamma = x + 1 exactly when h has a Grundy coloring with
# >= x + 1 colors, and chi = x exactly when h has a proper coloring with
# <= x colors (none at x = 0).  omega, alpha and psi keep their full
# solves, read from ``INVARIANT_SOLVERS`` at call time so that a solver
# replaced there reaches the scan too.  A decision at x + 1 was no faster
# for them on the bench's check corpus: alpha's and psi's descending
# search refuses most k above x + 1 on entry.
INVARIANT_STEPS: dict[str, Callable[[Graph, int], int]] = {
    "omega": _solved("omega"),
    "chi": lambda h, x: x if _proper_k_coloring(h, x) is not None else x + 1,
    "gamma": lambda h, x: x + _grundy_at_least(h, x + 1),
    "alpha": _solved("alpha"),
    "psi": _solved("psi"),
}


def profile(g: Graph) -> ParameterProfile:
    """All five invariants; the chain inequality is asserted on construction."""
    check_cap("profile", g.n)
    return ParameterProfile(*(solve(g) for solve in INVARIANT_SOLVERS.values()))
