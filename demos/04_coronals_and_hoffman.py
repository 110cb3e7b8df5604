#!/usr/bin/env python3
"""Matrix coronals and Hoffman polynomials.

The coronal of M at x is the entry sum of (xI - M)^{-1}. It is the quantity
through which a join's second factor enters the characteristic polynomial.
Closed forms exist for constant row sums (n/(x - a)) and for the family
matrices of complete bipartite graphs; both are checked here against
coronal_eval, which sums c_i / (x - mu_i) over one eigendecomposition. The Hoffman polynomial of a connected regular graph
maps its adjacency matrix to the all-ones matrix.
"""

import numpy as np

from alphacentral import (a_alpha_matrix, adjacency_matrix, coronal_eval,
                          coronal_kpq_alpha, coronal_regular, generate,
                          hoffman_poly)

pet = generate("petersen")
print("coronal of A(Petersen): constant row sums r=3 give 10/(x-3)")
for x in (4.0, 5.0, 10.0):
    closed = coronal_regular(10, 3)(x)
    solved = coronal_eval(adjacency_matrix(pet), x)
    print(f"  x={x:>4}: closed {closed:.12g}, spectral {solved:.12g}")

print("\ncoronal of A_alpha(K_{2,3}) has a genuine rational closed form:")
k23 = generate("complete_bipartite", [2, 3])
for a in (0.0, 0.5):
    rf = coronal_kpq_alpha(2, 3, a)
    num = " + ".join(f"{c:g} x^{k}" for k, c in enumerate(rf.numerator.coeffs))
    den = " + ".join(f"{c:g} x^{k}" for k, c in enumerate(rf.denominator.coeffs))
    print(f"  alpha={a}: ({num}) / ({den})")
    for x in (3.0, 7.0):
        print(f"    x={x}: closed {rf(x):.12g}, "
              f"spectral {coronal_eval(a_alpha_matrix(k23, a), x):.12g}")

print("\nHoffman polynomials P with P(A) = J:")
for fam, params in [("petersen", []), ("complete", [4]), ("cycle", [4]),
                    ("shrikhande", [])]:
    g = generate(fam, params)
    p = hoffman_poly(g)
    A = adjacency_matrix(g)
    pa = np.zeros((g.n, g.n))
    for c in reversed(p.coeffs):
        pa = pa @ A + float(c) * np.eye(g.n)
    err = np.max(np.abs(pa - np.ones((g.n, g.n))))
    coeffs = ", ".join(f"{c:.6g}" for c in p.coeffs)
    print(f"  {g.label}: degree {p.degree}, coeffs ({coeffs}), "
          f"||P(A) - J||_max = {err:.2e}")
