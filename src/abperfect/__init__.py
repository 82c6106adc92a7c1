"""Exact computation of the five vertex-coloring invariants on small graphs.

The package covers the clique, chromatic, Grundy, achromatic and
pseudoachromatic numbers, detection of the forbidden induced subgraphs
that govern when pairs of these invariants agree hereditarily
(ab-perfectness), the structural recognizer for the omega-psi-perfect
graphs, and an enumeration harness that machine-verifies the supporting
theorems over all small graphs.
"""

from .colorings import Coloring, is_complete_coloring, is_grundy, is_proper
from .forbidden import (
    FAMILIES,
    PATTERNS,
    FreeReport,
    Pattern,
    contains_induced,
    family_check,
)
from .graph6 import Graph6Error, parse_graph6, parse_graph6_lines, to_graph6
from .graphs import (
    MAX_VERTICES,
    CapacityError,
    Graph,
    canonical_form,
    complement,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edge_list,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    join,
    k44_c7_graph,
    path_graph,
    universal_vertices,
)
from .harness import (
    THEOREM_IDS,
    SweepReport,
    cycle_alpha_psi,
    enumerate_graphs,
    sweep,
)
from .perfectness import (
    PerfectnessVerdict,
    StructureTree,
    decompose_trivially_perfect,
    is_ab_perfect,
    rebuild,
    recognize_structure,
)
from .solvers import (
    INVARIANT_CHAIN,
    ParameterProfile,
    achromatic_number,
    chromatic_number,
    clique_number,
    grundy_number,
    has_coloring,
    profile,
    pseudoachromatic_number,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "Coloring",
    "FAMILIES",
    "FreeReport",
    "Graph",
    "Graph6Error",
    "INVARIANT_CHAIN",
    "MAX_VERTICES",
    "PATTERNS",
    "ParameterProfile",
    "Pattern",
    "PerfectnessVerdict",
    "StructureTree",
    "SweepReport",
    "THEOREM_IDS",
    "achromatic_number",
    "canonical_form",
    "chromatic_number",
    "clique_number",
    "complement",
    "complete_bipartite",
    "complete_graph",
    "connected_components",
    "contains_induced",
    "cycle_alpha_psi",
    "cycle_graph",
    "decompose_trivially_perfect",
    "disjoint_union",
    "empty_graph",
    "enumerate_graphs",
    "family_check",
    "from_edge_list",
    "grundy_number",
    "has_coloring",
    "induced_subgraph",
    "is_ab_perfect",
    "is_complete_coloring",
    "is_connected",
    "is_grundy",
    "is_isomorphic",
    "is_proper",
    "join",
    "k44_c7_graph",
    "parse_graph6",
    "parse_graph6_lines",
    "path_graph",
    "profile",
    "pseudoachromatic_number",
    "rebuild",
    "recognize_structure",
    "sweep",
    "to_graph6",
    "universal_vertices",
]
