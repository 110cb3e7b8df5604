#!/usr/bin/env python3
"""Closed-form spectra of central vertex joins.

The join takes C(G1) plus G2 and connects every original G1 vertex to every
G2 vertex. With G1 regular, the characteristic polynomial factors into the
subdivision power, shifted A_alpha(G2) eigenvalues, quadratics from G1, and
a coronal factor of degree 2 + k, k the number of cells in the coarsest
equitable partition of G2: a cubic when G2 is regular, a quartic when
G2 = K_{p,q}, and rooted the same way for any other G2.
"""

from alphacentral import (Graph, a_alpha_matrix, central_vertex_join,
                          charpoly_cvjoin, eigenvalues_sym, generate,
                          spectrum_cvjoin_kpq, spectrum_cvjoin_regular)

pet, c5 = generate("petersen"), generate("cycle", [5])
join = central_vertex_join(pet, c5)
print(f"Petersen vjoin C5: n={join.n}, m={join.m}")

alpha = 0.5
fac = charpoly_cvjoin(pet, c5, alpha)
print(f"\nfactor provenance at alpha={alpha}:")
print(f"  subdivision: (x - {fac.linear_root})^{fac.linear_mult}")
for f in fac.factors:
    c = ", ".join(f"{x:.6g}" for x in f.coeffs)
    print(f"  [{f.label}] degree {f.degree} x{f.mult}")
total = fac.linear_mult + sum(f.degree * f.mult for f in fac.factors)
print(f"  degree accounting: {total} == order {fac.order}")

closed = spectrum_cvjoin_regular(pet, c5, alpha)
oracle = eigenvalues_sym(a_alpha_matrix(join, alpha))
dev = max(abs(x - y) for x, y in zip(closed.values, oracle.values))
print(f"closed form vs eigensolver: {closed.n} values, max gap {dev:.2e}")

# complete bipartite second factor: the coronal clears to a quartic
print("\nPetersen vjoin K_{2,3} at alpha=0.25:")
fac = charpoly_cvjoin(pet, (2, 3), 0.25)
quartic = next(f for f in fac.factors if f.label == "coronal")
print("  quartic coronal factor coeffs:",
      [round(c, 6) for c in quartic.coeffs])
closed = spectrum_cvjoin_kpq(pet, 2, 3, 0.25)
built = central_vertex_join(pet, generate("complete_bipartite", [2, 3]))
oracle = eigenvalues_sym(a_alpha_matrix(built, 0.25))
dev = max(abs(x - y) for x, y in zip(closed.values, oracle.values))
print(f"  {closed.n} values, max gap vs eigensolver {dev:.2e}")

# arbitrary G2: the paw has three cells, so its coronal factor is a quintic
paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)], "paw")
k3 = generate("complete", [3])
fac = charpoly_cvjoin(k3, paw, 0.3)
coronal = next(f for f in fac.factors if f.label == "coronal")
print(f"\nK3 vjoin paw (generic G2) at alpha=0.3: coronal factor of degree {coronal.degree}")
closed = spectrum_cvjoin_regular(k3, paw, 0.3)
oracle = eigenvalues_sym(a_alpha_matrix(central_vertex_join(k3, paw), 0.3))
print("  rooted spectrum:", " ".join(f"{v:.6g}" for v in closed.values))
dev = max(abs(x - y) for x, y in zip(closed.values, oracle.values))
print(f"  {closed.n} values, max gap vs eigensolver {dev:.2e}")
