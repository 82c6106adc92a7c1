#!/usr/bin/env python3
"""Forbidden induced subgraphs: the families behind each perfectness class.

Hereditary graph classes are exactly the H-free classes, so each
perfectness notion comes with a forbidden family: a single P4 for the
Grundy pairs, the triple (P4, P3+K2, 3K2) for the achromatic pairs, the
quartet with C4 added for the pseudoachromatic pairs, and odd holes plus
antiholes for classical perfection.
"""

from abperfect import (
    CapacityError,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    family_check,
    k44_c7_graph,
    path_graph,
)

print("=" * 64)
print("Family scans")
print("=" * 64)

hosts = [
    ("P4", path_graph(4)),
    ("C5", cycle_graph(5)),
    ("K3 u K3", disjoint_union(complete_graph(3), complete_graph(3))),
    ("K4,4 + C7 witness", k44_c7_graph()),
    ("co-C7", complement(cycle_graph(7))),
]

for family in ("p4_only", "achro_triple", "omega_psi_quartet", "odd_holes_and_antiholes"):
    print(f"\nfamily {family}:")
    for name, g in hosts:
        try:
            report = family_check(g, family)
        except CapacityError as exc:  # odd holes: hosts of at most 10 vertices
            print(f"  {name:20s} {exc}")
            continue
        if report.free:
            print(f"  {name:20s} free")
        else:
            pattern, vertices = report.witness
            print(f"  {name:20s} contains {pattern} on {sorted(vertices)}")

print()
print("Witnesses are lexicographically smallest, so reports are stable;")
print("each witness set genuinely induces the named pattern.")
