"""Factored characteristic polynomials and explicit spectra for the central
graph of a regular graph and for central vertex joins, evaluated without ever
assembling the large matrix.

For an r-regular G on n vertices (m = nr/2 edges, r >= 2, connected) with
adjacency eigenvalues r = l_1 > l_2 >= ... >= l_n, the characteristic
polynomial of A_alpha(central_graph(G)) factors as

    (x - 2a)^(m-n)
    * [x^2 - (2a + n - 1 - r(1-a)) x + (2an - 2a + 2ar - 2r)]
    * prod over i >= 2 of
      [x^2 + ((1-a) l_i - 2a - na + 1) x
           - (1-a^2) l_i + (2n-r) a^2 - 2a(1-r) - r]

and for the join of G1 (r1-regular) with an arbitrary G2 on n2 vertices,

    (x - 2a)^(m1-n1)
    * prod over i of (x - a n1 - mu_i)          mu_i = eigenvalues of A_alpha(G2)
    * prod over j >= 2 of
      [(x - 2a)(x - a(n1+n2) + (1-a) l_j + 1) - (1-a)^2 (l_j + r1)]
    * [(x - 2a)(x - n1 - a n2 + (1-a) r1 + 1
                - n1 (1-a)^2 Gamma(x - a n1)) - 2 r1 (1-a)^2]

where Gamma is the coronal of A_alpha(G2). The coronal term clears to a
cubic when G2 is regular (absorbing the mu_1 = r2 linear factor) and to a
quartic when G2 = K_{p,q} (absorbing the two non-trivial eigenvalues); the
quartic contributes exactly four roots, which is what makes the dimension
count close. The (1-a)^2 power on the coronal coupling is the one confirmed
against the dense eigensolver; see verify.formula_discrepancy_notes for the
recorded check of the single-power variant.

Degenerate alphas produce genuinely multiple roots (at alpha = 1 everything
collapses toward the degree multiset), so solve_poly_real recovers root
clusters by centroid averaging plus Newton on the derivative of matching
order instead of trusting raw companion-matrix output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError, ParameterError, PreconditionError
from .graphs import adjacency_matrix, as_complete_bipartite, is_connected, regularity
from .spectra import (Polynomial, Spectrum, _coronal_spectral, _coronal_values,
                      a_alpha_matrix, eigenvalues_sym)

TOL_MATCH = 1e-8
TOL_DET = 1e-9
TOL_ROOT = 1e-10

_CLUSTER_RADIUS = 5e-5  # relative; collapses companion-root multiplets


@dataclass(frozen=True)
class CoronalTerm:
    """Evaluable coronal factor for a join with a generic (non-closed) G2.

    Only the value at a point is available; the net degree it contributes
    to the full product is 2 (numerator degree n2+2 over the charpoly of
    A_alpha(G2), whose n2 linear factors are listed separately). It holds
    the spectral pair (w, c) of A_alpha(G2) from spectra._coronal_spectral,
    so Gamma(x) = sum(c / (x - w)) costs O(n2) per evaluation.
    """

    w: np.ndarray
    c: np.ndarray
    n1: int
    n2: int
    r1: int
    alpha: float

    @property
    def degree(self):
        return 2

    def __call__(self, lam):
        a = self.alpha
        gamma = _coronal_values(self.w, self.c, lam - a * self.n1)
        return ((lam - 2 * a)
                * (lam - self.n1 - a * self.n2 + (1 - a) * self.r1 + 1
                   - self.n1 * (1 - a) ** 2 * gamma)
                - 2 * self.r1 * (1 - a) ** 2)


@dataclass(frozen=True)
class Factor:
    """One factor of a FactoredCharPoly: a Polynomial or a CoronalTerm."""

    poly: object
    mult: int
    label: str

    @property
    def degree(self):
        return self.poly.degree

    def is_polynomial(self):
        return isinstance(self.poly, Polynomial)


@dataclass(frozen=True)
class FactoredCharPoly:
    """Characteristic polynomial in factored form.

    linear_root/linear_mult hold the (x - 2 alpha)^k subdivision factor
    (mult may be zero); factors hold everything else. The sum of factor
    degrees times multiplicities always equals the order of the implied
    matrix; construction fails rather than pad.
    """

    linear_root: float
    linear_mult: int
    factors: tuple
    order: int

    def __post_init__(self):
        total = self.linear_mult + sum(f.degree * f.mult for f in self.factors)
        if total != self.order:
            raise InternalCheckError(
                f"factor degrees sum to {total}, expected matrix order {self.order}")

    def evaluate(self, lam):
        val = (lam - self.linear_root) ** self.linear_mult
        for f in self.factors:
            val *= f.poly(lam) ** f.mult
        return val

    def roots(self):
        """All roots with multiplicity, descending. Polynomial factors only."""
        vals = [self.linear_root] * self.linear_mult
        for f in self.factors:
            if not f.is_polynomial():
                raise PreconditionError(
                    "coronal factor is evaluable only; no closed root formula")
            if f.degree == 1:
                c0, c1 = f.poly.coeffs
                vals.extend([-c0 / c1] * f.mult)
            elif f.degree == 2:
                vals.extend(quadratic_roots(f.poly) * f.mult)
            else:
                vals.extend(solve_poly_real(f.poly) * f.mult)
        return sorted(vals, reverse=True)

    def to_json(self):
        factors = []
        for f in self.factors:
            if f.is_polynomial():
                entry = dict(f.poly.to_json())
            else:
                entry = {"evaluable": True, "degree": f.degree}
            entry["mult"] = f.mult
            entry["label"] = f.label
            factors.append(entry)
        return {"linear": {"root": float(self.linear_root), "mult": self.linear_mult},
                "factors": factors}


# ---------------------------------------------------------------------------
# real root extraction

def quadratic_roots(poly):
    """Both real roots of a quadratic known to split over the reals."""
    c0, c1, c2 = poly.coeffs
    disc = c1 * c1 - 4.0 * c2 * c0
    scale = max(1.0, c1 * c1, abs(4.0 * c2 * c0))
    if disc < 0:
        if disc < -1e-9 * scale:
            raise InternalCheckError(f"quadratic discriminant {disc:.3e} is negative")
        disc = 0.0
    s = np.sqrt(disc)
    if c1 >= 0:
        big = -(c1 + s) / (2.0 * c2)
    else:
        big = -(c1 - s) / (2.0 * c2)
    small = (c0 / (c2 * big)) if big != 0 else -c1 / (2.0 * c2)
    return sorted((float(big), float(small)), reverse=True)


def solve_poly_real(poly, tol_root=TOL_ROOT):
    """All roots of a polynomial whose roots are guaranteed real.

    Companion-matrix roots are clustered (radius ~5e-5 relative) to recover
    multiple roots, each cluster is replaced by its centroid and polished by
    Newton iteration on the derivative of order (multiplicity - 1), where
    the root is simple again. A surviving decisively complex root or a bad
    residual signals a transcription bug upstream and raises.
    """
    coeffs = [float(c) for c in poly.coeffs]
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [-coeffs[0] / coeffs[1]]
    raw = np.roots(coeffs[::-1])
    scale = 1.0 + float(np.max(np.abs(raw)))
    delta = _CLUSTER_RADIUS * scale
    order = np.argsort(raw.real)
    raw = raw[order]
    clusters = [[raw[0]]]
    for z in raw[1:]:
        ref = np.mean(clusters[-1])
        if abs(z - clusters[-1][-1]) < delta or abs(z.real - ref.real) < delta:
            clusters[-1].append(z)
        else:
            clusters.append([z])

    out = []
    for cl in clusters:
        mult = len(cl)
        if mult == 1 and abs(cl[0].imag) > 1e-7 * scale:
            raise InternalCheckError(
                f"complex root {cl[0]:.6g} from a factor that must split over the reals")
        z = float(np.mean([w.real for w in cl]))
        d = np.array(coeffs)
        for _ in range(mult - 1):
            d = np.polynomial.polynomial.polyder(d)
        dd = np.polynomial.polynomial.polyder(d)
        for _ in range(3):
            fz = np.polynomial.polynomial.polyval(z, d)
            fpz = np.polynomial.polynomial.polyval(z, dd)
            if fpz == 0.0:
                break
            z -= fz / fpz
        out.extend([z] * mult)

    norm = max(abs(c) for c in coeffs)
    for z in out:
        resid = abs(np.polynomial.polynomial.polyval(z, np.array(coeffs)))
        if resid > tol_root * norm * max(1.0, abs(z)) ** deg:
            raise InternalCheckError(
                f"root residual {resid:.3e} at {z:.6g} exceeds tolerance")
    return sorted(out, reverse=True)


# ---------------------------------------------------------------------------
# central graph of a regular graph

def _require_regular_base(G, what):
    r = regularity(G)
    if r is None:
        raise PreconditionError(
            f"{what} needs a regular base graph; this one has degree spread "
            f"{min(G.degree_sequence)}..{max(G.degree_sequence)}. "
            "Use eigenvalues_sym on the explicitly built graph instead.")
    if not is_connected(G):
        raise PreconditionError(
            f"{what} needs a connected base graph. "
            "Use eigenvalues_sym on the explicitly built graph instead.")
    if r < 2:
        raise PreconditionError(
            f"{what} needs degree r >= 2 (got r={r}); the subdivision factor "
            "exponent m - n would be negative. "
            "Use eigenvalues_sym on the explicitly built graph instead.")
    return r


def _base_eigen_groups(G):
    """Clustered adjacency eigenvalues with one Perron copy removed."""
    groups = list(eigenvalues_sym(adjacency_matrix(G)).groups)
    top, mult = groups[0]
    if mult == 1:
        return groups[1:]
    groups[0] = (top, mult - 1)
    return groups


def _f_principal_central(n, r, a):
    return Polynomial.of([2 * a * n - 2 * a + 2 * a * r - 2 * r,
                          -(2 * a + n - 1 - r * (1 - a)),
                          1.0])


def _f_eigen_central(n, r, a, li):
    return Polynomial.of([-(1 - a * a) * li + (2 * n - r) * a * a - 2 * a * (1 - r) - r,
                          (1 - a) * li - 2 * a - n * a + 1,
                          1.0])


def charpoly_central_regular(G, alpha):
    """Factored characteristic polynomial of A_alpha(central_graph(G)).

    G must be connected and r-regular with r >= 2. The adjacency
    eigenvalues of G come from the dense eigensolver; the factor list keeps
    their clustered multiplicities.
    """
    a = float(alpha)
    if not (0 <= a <= 1):
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
    r = _require_regular_base(G, "central-graph closed form")
    n, m = G.n, G.m
    factors = [Factor(_f_principal_central(n, r, a), 1, "principal")]
    for li, mult in _base_eigen_groups(G):
        factors.append(Factor(_f_eigen_central(n, r, a, li), mult,
                              f"base-eigenvalue {li:.10g}"))
    return FactoredCharPoly(2 * a, m - n, tuple(factors), n + m)


def spectrum_central_regular(G, alpha):
    """Spectrum of A_alpha(central_graph(G)) from the factorization.

    Quadratic factors are rooted by the explicit formula; the result has
    exactly n + m values.
    """
    fac = charpoly_central_regular(G, alpha)
    vals = fac.roots()
    if len(vals) != fac.order:
        raise InternalCheckError(
            f"assembled {len(vals)} eigenvalues for a matrix of order {fac.order}")
    return Spectrum.from_values(vals)


# ---------------------------------------------------------------------------
# central vertex join

def _g_quad_cvjoin(n1, n2, r1, a, lj):
    lin1 = Polynomial.of([-2 * a, 1.0])
    lin2 = Polynomial.of([-a * (n1 + n2) + (1 - a) * lj + 1, 1.0])
    return lin1 * lin2 - Polynomial.of([(1 - a) ** 2 * (lj + r1)])


def _coronal_cubic(n1, r1, n2, r2, a):
    shift = Polynomial.of([-(a * n1 + r2), 1.0])
    lin = Polynomial.of([-n1 - a * n2 + (1 - a) * r1 + 1, 1.0])
    inner = shift * lin - Polynomial.of([n1 * (1 - a) ** 2 * n2])
    return Polynomial.of([-2 * a, 1.0]) * inner - (2 * r1 * (1 - a) ** 2) * shift


def _coronal_quartic(n1, r1, p, q, a):
    s = p + q
    xs = Polynomial.of([-a * n1, 1.0])  # x = lambda - alpha*n1
    dsh = xs * xs - (a * s) * xs + Polynomial.of([(2 * a - 1) * p * q])
    nsh = s * xs + Polynomial.of([-a * s * s + 2 * p * q])
    lin = Polynomial.of([-n1 - a * s + (1 - a) * r1 + 1, 1.0])
    inner = dsh * lin - (n1 * (1 - a) ** 2) * nsh
    return Polynomial.of([-2 * a, 1.0]) * inner - (2 * r1 * (1 - a) ** 2) * dsh


def charpoly_cvjoin(G1, g2, alpha):
    """Factored characteristic polynomial of A_alpha(central_vertex_join(G1, G2)).

    G1 must be connected and r1-regular with r1 >= 2. g2 selects the route:

    - (p, q) tuple: K_{p,q} with the coronal cleared to a quartic.
    - regular Graph: coronal cleared to a cubic (one r2 eigenvalue absorbed).
    - non-regular complete bipartite Graph: rerouted to the quartic.
    - any other Graph: every eigenvalue of A_alpha(G2) appears as a linear
      factor and the coronal term stays an evaluable rational expression.
    """
    a = float(alpha)
    if not (0 <= a <= 1):
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
    r1 = _require_regular_base(G1, "vertex-join closed form")
    n1, m1 = G1.n, G1.m

    if isinstance(g2, tuple):
        p, q = g2
        if p < 1 or q < 1:
            raise ParameterError(f"need p, q >= 1, got ({p}, {q})")
        return _charpoly_cvjoin_kpq(G1, n1, m1, r1, p, q, a)

    G2 = g2
    r2 = regularity(G2)
    if r2 is None:
        pq = as_complete_bipartite(G2)
        if pq is not None:
            return _charpoly_cvjoin_kpq(G1, n1, m1, r1, pq[0], pq[1], a)
        return _charpoly_cvjoin_generic(G1, G2, n1, m1, r1, a)

    n2 = G2.n
    factors = []
    mu = list(eigenvalues_sym(a_alpha_matrix(G2, a)).groups)
    top, mult = mu[0]  # r2, simple when G2 is connected
    mu[0] = (top, mult - 1)
    for val, k in mu:
        if k > 0:
            factors.append(Factor(Polynomial.of([-(a * n1 + val), 1.0]), k,
                                  f"g2-eigenvalue {val:.10g}"))
    for lj, mult in _base_eigen_groups(G1):
        factors.append(Factor(_g_quad_cvjoin(n1, n2, r1, a, lj), mult,
                              f"base-eigenvalue {lj:.10g}"))
    factors.append(Factor(_coronal_cubic(n1, r1, n2, r2, a), 1, "coronal"))
    return FactoredCharPoly(2 * a, m1 - n1, tuple(factors), n1 + m1 + n2)


def _charpoly_cvjoin_kpq(G1, n1, m1, r1, p, q, a):
    factors = []
    if q > 1:
        factors.append(Factor(Polynomial.of([-a * (n1 + p), 1.0]), q - 1,
                              "bipartite-part-q"))
    if p > 1:
        factors.append(Factor(Polynomial.of([-a * (n1 + q), 1.0]), p - 1,
                              "bipartite-part-p"))
    for lj, mult in _base_eigen_groups(G1):
        factors.append(Factor(_g_quad_cvjoin(n1, p + q, r1, a, lj), mult,
                              f"base-eigenvalue {lj:.10g}"))
    quartic = _coronal_quartic(n1, r1, p, q, a)
    if quartic.degree != 4:
        raise InternalCheckError(
            f"coronal factor for K_{{{p},{q}}} has degree {quartic.degree}, expected 4")
    factors.append(Factor(quartic, 1, "coronal"))
    return FactoredCharPoly(2 * a, m1 - n1, tuple(factors), n1 + m1 + p + q)


def _charpoly_cvjoin_generic(G1, G2, n1, m1, r1, a):
    w, c = _coronal_spectral(a_alpha_matrix(G2, a))
    factors = []
    for val, k in Spectrum.from_values(w).groups:
        factors.append(Factor(Polynomial.of([-(a * n1 + val), 1.0]), k,
                              f"g2-eigenvalue {val:.10g}"))
    for lj, mult in _base_eigen_groups(G1):
        factors.append(Factor(_g_quad_cvjoin(n1, G2.n, r1, a, lj), mult,
                              f"base-eigenvalue {lj:.10g}"))
    factors.append(Factor(CoronalTerm(w, c, n1, G2.n, r1, a), 1, "coronal"))
    return FactoredCharPoly(2 * a, m1 - n1, tuple(factors), n1 + m1 + G2.n)


def spectrum_cvjoin_regular(G1, G2, alpha):
    """Spectrum of A_alpha(central_vertex_join(G1, G2)) for regular G1, G2.

    Assembles 2*alpha with multiplicity m1 - n1, the shifted A_alpha(G2)
    eigenvalues, the 2(n1 - 1) quadratic roots, and the three roots of the
    coronal cubic.
    """
    r2 = regularity(G2)
    if r2 is None:
        raise PreconditionError("spectrum_cvjoin_regular needs a regular G2; "
                                "use spectrum_cvjoin_kpq or the eigensolver")
    if not is_connected(G2):
        raise PreconditionError("spectrum_cvjoin_regular needs a connected G2")
    fac = charpoly_cvjoin(G1, G2, alpha)
    vals = fac.roots()
    if len(vals) != fac.order:
        raise InternalCheckError(
            f"assembled {len(vals)} eigenvalues for a matrix of order {fac.order}")
    return Spectrum.from_values(vals)


def spectrum_cvjoin_kpq(G1, p, q, alpha):
    """Spectrum of A_alpha(central_vertex_join(G1, K_{p,q})).

    The coronal-cleared factor must contribute exactly four roots for the
    dimension count m1 + n1 + p + q to close; a mismatch raises rather than
    padding.
    """
    fac = charpoly_cvjoin(G1, (p, q), alpha)
    coronal = [f for f in fac.factors if f.label == "coronal"]
    if len(coronal) != 1 or coronal[0].degree * coronal[0].mult != 4:
        raise InternalCheckError("coronal factor must contribute exactly 4 roots")
    vals = fac.roots()
    if len(vals) != fac.order:
        raise InternalCheckError(
            f"assembled {len(vals)} eigenvalues for a matrix of order {fac.order}")
    return Spectrum.from_values(vals)
