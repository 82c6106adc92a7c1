#!/usr/bin/env python3
"""ab-perfect graphs and minimal counterexamples.

A graph is ab-perfect when the invariants a and b agree on every induced
subgraph.  The checker scans subsets smallest-first, so the returned
counterexample is always minimal.  The classical story: C4-freeness was
once claimed to characterize the omega-psi-perfect graphs, but P4 is
C4-free and not omega-psi-perfect, and the corrected characterization
needs the full quartet C4, P4, P3+K2, 3K2.
"""

from abperfect import (
    complete_graph,
    contains_induced,
    cycle_graph,
    disjoint_union,
    family_check,
    is_ab_perfect,
    path_graph,
    PATTERNS,
    recognize_structure,
)

print("=" * 64)
print("Minimal counterexamples")
print("=" * 64)

p4 = path_graph(4)
verdict = is_ab_perfect(p4, "omega", "psi")
vertices, a_val, b_val = verdict.counterexample
print(f"P4 omega-psi: perfect={verdict.perfect}")
print(f"  counterexample {sorted(vertices)}: omega={a_val}, psi={b_val}")
print(f"  P4 is C4-free: {contains_induced(p4, PATTERNS['C4']) is None}")
print("  ... so C4-freeness alone cannot characterize omega-psi-perfectness,")
print("  and the same graph also refutes 'alpha-psi-perfect implies")
print(f"  chi-alpha-perfect': chi-alpha verdict = "
      f"{is_ab_perfect(p4, 'chi', 'alpha').perfect}")

print()
c5 = cycle_graph(5)
verdict = is_ab_perfect(c5, "omega", "chi")
vertices, a_val, b_val = verdict.counterexample
print(f"C5 omega-chi (the classical odd hole): counterexample {sorted(vertices)}"
      f" with omega={a_val}, chi={b_val}")

print()
print("=" * 64)
print("The four equivalent characterizations")
print("=" * 64)
print("For any graph the following agree: omega-psi-perfect, chi-psi-perfect,")
print("(C4,P4,P3+K2,3K2)-free, and the recursive join/union structure.")
print()

for name, g in [
    ("K3 u K3", disjoint_union(complete_graph(3), complete_graph(3))),
    ("P4", path_graph(4)),
    ("C4", cycle_graph(4)),
    ("K5", complete_graph(5)),
]:
    record = (
        is_ab_perfect(g, "omega", "psi").perfect,
        is_ab_perfect(g, "chi", "psi").perfect,
        family_check(g, "omega_psi_quartet").free,
        recognize_structure(g).accepted,
    )
    print(f"{name:8s} -> {record}   all_equal={len(set(record)) == 1}")
