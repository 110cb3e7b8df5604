#!/usr/bin/env python3
"""Closed-form spectra of central graphs, checked against the eigensolver.

The central graph C(G) subdivides every edge of G once and joins all
originally non-adjacent vertices. For an r-regular G (r >= 2) the
characteristic polynomial of A_alpha(C(G)) factors into a power of
(x - 2 alpha), one quadratic from the all-ones direction, and one quadratic
per remaining adjacency eigenvalue of G. This script roots those factors and
compares with a dense eigensolve of the explicitly built graph.
"""

import numpy as np

from alphacentral import (a_alpha_matrix, central_graph, charpoly_central_regular,
                          eigenvalues_sym, generate, spectrum_central_regular)

# the smallest interesting case: C(K3) is a hexagon
k3 = generate("complete", [3])
ck3 = central_graph(k3)
print(f"C(K3): n={ck3.n}, m={ck3.m}, degrees={ck3.degree_sequence}")
spec = spectrum_central_regular(k3, 0.0)
print("closed-form spectrum at alpha=0:", [round(v, 6) for v in spec.values])
hexagon = eigenvalues_sym(a_alpha_matrix(generate("cycle", [6]), 0.0))
print("spectrum of C6:                 ", [round(v, 6) for v in hexagon.values])

# factor structure for the Petersen graph
pet = generate("petersen")
print(f"\nfactored characteristic polynomial of A_alpha(C(Petersen))), alpha=0.25:")
fac = charpoly_central_regular(pet, 0.25)
print(f"  (x - {fac.linear_root})^{fac.linear_mult}")
for f in fac.factors:
    c = ", ".join(f"{x:.6g}" for x in f.coeffs)
    print(f"  [{f.label}] coeffs ({c}) x{f.mult}")

# sweep the whole catalog against the oracle
print("\nfactorization vs eigensolver (max positionwise gap):")
catalog = [generate("complete", [n]) for n in (3, 5, 7)] \
    + [generate("cycle", [n]) for n in (4, 8)] + [pet]
for g in catalog:
    built = central_graph(g)
    worst = 0.0
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        closed = spectrum_central_regular(g, a).values
        oracle = eigenvalues_sym(a_alpha_matrix(built, a)).values
        worst = max(worst, max(abs(x - y) for x, y in zip(closed, oracle)))
    print(f"  C({g.label}): order {built.n}, worst deviation {worst:.2e}")

# at alpha=1 the spectrum is just the degree multiset
print("\nalpha=1 degeneration for C(C5): spectrum equals the degree multiset")
c5 = generate("cycle", [5])
spec = spectrum_central_regular(c5, 1.0)
degrees = sorted(central_graph(c5).degree_sequence, reverse=True)
print("  closed:", [round(v, 9) for v in spec.values])
print("  degrees:", degrees)
