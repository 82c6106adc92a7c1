#!/usr/bin/env python3
"""Machine verification: every supporting theorem swept over all small graphs.

Enumeration is canonical: one representative per isomorphism class.  Each
level extends the representatives one level down by a vertex and keeps a
child unless a mapping search finds an isomorphic graph in its colour
refinement bucket, so each sweep covers every graph of the stated size
exactly once.  The same drivers back the command-line interface:
`abperfect sweep --theorem theorem4 --max-n 7`.

Sizes here are chosen to finish in a few seconds; the acceptance suite
runs the full-depth versions (theorem4 up to n=7, and the cycle table to
n=12).
"""

from abperfect import cycle_alpha_psi, enumerate_graphs, sweep

print("=" * 64)
print("Canonical enumeration")
print("=" * 64)
for n in range(1, 8):
    count = sum(1 for _ in enumerate_graphs(n))
    print(f"  isomorphism classes on {n} vertices: {count}")

print()
print("=" * 64)
print("Sweeps")
print("=" * 64)
for theorem, n_max in [
    ("eq1_chain", 6),
    ("theorem4", 6),
    ("theorem1_cs", 6),
    ("theorem2_cs", 6),
    ("lemma1", 7),
    ("lemma2", 13),
    ("interpolation_hhp", 6),
    ("interpolation_grundy", 6),
    ("figure3_inclusions", 5),
]:
    report = sweep(theorem, n_max)
    status = "pass" if report.passed else f"{len(report.violations)} violation(s)"
    print(
        f"{theorem}: checked {report.checked} graphs up to n={n_max}: "
        f"{status} [{report.elapsed_ms} ms]"
    )
    for g6, detail in report.violations:
        print(f"  {g6}  {detail}")

print()
print("=" * 64)
print("Cycles: achromatic vs pseudoachromatic")
print("=" * 64)
print("alpha(Cn) < psi(Cn) exactly when n = 2x^2 + x + 1 (4, 11, 22, ...):")
for row in cycle_alpha_psi(12):
    marker = "" if row["equal"] else "   <-- split"
    print(f"  C{row['n']:>2}: alpha={row['alpha']} psi={row['psi']}{marker}")
