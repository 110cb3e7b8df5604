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

Every non-linear factor is rooted as the eigenvalues of a small symmetric
block, so its roots are real by construction and two close but distinct
roots are never merged. The base-eigenvalue quadratics are the 2x2 blocks

    central:  [[a(n-1) - (1-a)(1 + l_i),     (1-a) sqrt(l_i + r)],  [., 2a]]
    join:     [[a(n1+n2) - (1-a) l_j - 1,    (1-a) sqrt(l_j + r1)], [., 2a]]

built for every l at once and rooted by one batched eigvalsh. The central
principal factor is the central block at l_1 = r with (1-a) n added to its
top-left entry. It, the coronal cubic and the coronal quartic are the
symmetrized quotients of A_alpha over an equitable partition of the built
graph (Godsil and Royle, Algebraic Graph Theory, section 9.3): part X has
diagonal entry a d_X + (1-a) 2 e(X)/|X|, and parts X, Y are coupled by
(1-a) e(X, Y)/sqrt(|X| |Y|), where d_X is the degree of a vertex of X and
e counts edges. The parts are {V, S} (original and subdivision vertices),
{V1, S, V2} and {V1, S, P, Q}. The blocks take the raw eigenvalue arrays
of A(G1) and A_alpha(G2) with one Perron copy dropped; CLUSTER_TOL grouping
only names and counts the factors (factors, to_json, evaluate) and never
moves a root. Every root is checked against its factor as written above,
to TOL_ROOT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InternalCheckError, ParameterError, PreconditionError
from .graphs import adjacency_matrix, as_complete_bipartite, is_connected, regularity
from .spectra import (Polynomial, Spectrum, _coronal_spectral, _coronal_values,
                      _eigh_checked, a_alpha_matrix)

TOL_MATCH = 1e-8
TOL_DET = 1e-9
TOL_ROOT = 1e-10


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


@dataclass(frozen=True, eq=False)
class FactorFamily:
    """k factors of degree d, rooted as the eigenvalues of k symmetric
    d x d blocks.

    coeffs[i] (ascending, monic) is factor i as the factorization writes
    it, and every eigenvalue of blocks[i] must be a root of it to TOL_ROOT:
    |factor(z)| <= TOL_ROOT * max|coeffs[i]| * max(1, |z|)^d. keys,
    when given, is the eigenvalue each factor comes from, descending:
    factors whose keys lie within CLUSTER_TOL are listed as one factor with
    multiplicity, labelled "label key". Without keys the k factors are
    equal. lead, when given, names row 0 as a factor of its own, and keys
    then belong to rows 1..k-1.
    """

    label: str
    blocks: np.ndarray
    coeffs: np.ndarray
    keys: np.ndarray = None
    lead: str = None

    @property
    def degree(self):
        return self.blocks.shape[2]

    @property
    def count(self):
        return self.blocks.shape[0]

    def roots(self):
        """(k, d) array; row i holds the roots of factor i, ascending, each
        checked against coeffs[i]."""
        if self.degree == 1:
            return self.blocks[:, :, 0]
        z = np.linalg.eigvalsh(self.blocks)
        cols = self.coeffs.T[:, :, None]
        val = cols[-1]
        for c in cols[-2::-1]:
            val = val * z + c
        if np.abs(val).max() <= TOL_ROOT:  # monic, so no bound is below TOL_ROOT
            return z
        bound = (TOL_ROOT * np.abs(self.coeffs).max(axis=1, keepdims=True)
                 * np.maximum(1.0, np.abs(z)) ** self.degree)
        bad = np.abs(val) > bound
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise InternalCheckError(
                f"{self.label} root {z[i, j]:.6g} leaves residual {abs(val[i, j]):.3e} "
                "in its factor, above TOL_ROOT")
        return z

    def groups(self):
        """(label, first row, multiplicity) per distinct factor."""
        out, start = ([(self.lead, 0, 1)], 1) if self.lead else ([], 0)
        if self.keys is None:
            if self.count > start:
                out.append((self.label, start, self.count - start))
            return out
        for key, mult in Spectrum.from_values(self.keys).groups:
            out.append((f"{self.label} {key:.10g}", start, mult))
            start += mult
        return out


def _linears(label, roots, keys=None):
    roots = np.asarray(roots, dtype=float).reshape(-1)
    coeffs = np.ones((len(roots), 2))
    coeffs[:, 0] = -roots
    return FactorFamily(label, roots.reshape(-1, 1, 1), coeffs, keys)


def _quadratics(label, top, off, bottom, c0, c1, keys=None, lead=None):
    """Blocks [[top, off], [off, bottom]] against factors x^2 + c1 x + c0;
    the arguments are scalars or length-k arrays."""
    k = np.broadcast(top, off, bottom, c0, c1).size
    blocks = np.empty((k, 2, 2))
    blocks[:, 0, 0] = top
    blocks[:, 0, 1] = blocks[:, 1, 0] = off
    blocks[:, 1, 1] = bottom
    coeffs = np.ones((k, 3))
    coeffs[:, 0] = c0
    coeffs[:, 1] = c1
    return FactorFamily(label, blocks, coeffs, keys, lead)


def _quotient(label, sizes, degrees, edges, a, coeffs):
    """One block: the symmetrized quotient of A_alpha over an equitable
    partition. edges[X][Y] counts the edges between parts X and Y, and
    edges[X][X] twice those inside X, so edges[X][Y] / |X| is the quotient
    of the adjacency matrix."""
    d = len(sizes)
    block = [[(1 - a) * edges[i][j] / math.sqrt(sizes[i] * sizes[j])
              + (a * degrees[i] if i == j else 0.0) for j in range(d)]
             for i in range(d)]
    return FactorFamily(label, np.array([block]), np.array([coeffs], dtype=float))


@dataclass(frozen=True, eq=False)
class FactoredCharPoly:
    """Characteristic polynomial in factored form.

    linear_root/linear_mult hold the (x - 2 alpha)^k subdivision factor
    (mult may be zero); families hold every other rootable factor, and
    coronal_term the evaluable-only coronal of a generic G2. The factor
    degrees always sum to the order of the implied matrix; construction
    fails rather than pad.
    """

    linear_root: float
    linear_mult: int
    families: tuple
    order: int
    coronal_term: CoronalTerm = None

    def __post_init__(self):
        total = self.linear_mult + sum(f.degree * f.count for f in self.families)
        if self.coronal_term is not None:
            total += self.coronal_term.degree
        if total != self.order:
            raise InternalCheckError(
                f"factor degrees sum to {total}, expected matrix order {self.order}")

    @cached_property
    def factors(self):
        """One Factor per distinct factor, with its multiplicity."""
        out = [Factor(Polynomial.of(fam.coeffs[start].tolist()), mult, label)
               for fam in self.families for label, start, mult in fam.groups()]
        if self.coronal_term is not None:
            out.append(Factor(self.coronal_term, 1, "coronal"))
        return tuple(out)

    def evaluate(self, lam):
        val = (lam - self.linear_root) ** self.linear_mult
        for f in self.factors:
            val *= f.poly(lam) ** f.mult
        return val

    def roots(self):
        """All roots with multiplicity, descending, from the symmetric blocks."""
        self._require_rootable()
        parts = [np.full(self.linear_mult, float(self.linear_root))]
        parts += [fam.roots().ravel() for fam in self.families]
        return np.sort(np.concatenate(parts))[::-1].tolist()

    def factor_roots(self):
        """(label, roots descending) for each entry of factors, from the same
        blocks as roots()."""
        self._require_rootable()
        out = []
        for fam in self.families:
            z = fam.roots()
            for label, start, mult in fam.groups():
                out.append((label, sorted(z[start:start + mult].ravel().tolist(),
                                          reverse=True)))
        return out

    def _require_rootable(self):
        if self.coronal_term is not None:
            raise PreconditionError(
                "G2 is neither regular nor complete bipartite: the coronal factor "
                "is evaluable only and has no closed root formula. Use "
                "eigenvalues_sym (the spectrum command) on the explicitly built "
                "graph instead.")

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


def _spectrum(fac):
    vals = fac.roots()
    if len(vals) != fac.order:
        raise InternalCheckError(
            f"assembled {len(vals)} eigenvalues for a matrix of order {fac.order}")
    return Spectrum.from_values(vals)


def _float_alpha(alpha):
    a = float(alpha)
    if not (0 <= a <= 1):
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
    return a


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


def _adjacency_spectrum(G):
    """Adjacency eigenvalues of G, descending; the Perron root r comes first."""
    return _eigh_checked(adjacency_matrix(G))[0][::-1]


def _sqrt_shift(l, r):
    # l >= -r for an r-regular graph; a rounding undershoot would give nan
    return np.sqrt(np.maximum(l + r, 0.0))


def _f_principal_central(n, r, a):
    return (2 * a * n - 2 * a + 2 * a * r - 2 * r, -(2 * a + n - 1 - r * (1 - a)), 1.0)


def charpoly_central_regular(G, alpha):
    """Factored characteristic polynomial of A_alpha(central_graph(G)).

    G must be connected and r-regular with r >= 2. The adjacency
    eigenvalues of G come from the dense eigensolver; the factor list keeps
    their clustered multiplicities. Row 0 of the block stack belongs to the
    Perron root r and gives the principal factor: the original vertices of
    the central graph induce the complement J - I - A(G), which maps the
    all-ones vector to n - 1 - r times itself but an eigenvector for l
    orthogonal to it to -1 - l times itself, so row 0 gains (1-a) n on its
    top-left entry.
    """
    a = _float_alpha(alpha)
    r = _require_regular_base(G, "central-graph closed form")
    n, m = G.n, G.m
    l = _adjacency_spectrum(G)
    top = (a * (n - 1) - (1 - a)) - (1 - a) * l
    top[0] += (1 - a) * n
    c0 = -(1 - a * a) * l + ((2 * n - r) * a * a - 2 * a * (1 - r) - r)
    c1 = (1 - a) * l + (1 - 2 * a - n * a)
    c0[0], c1[0], _ = _f_principal_central(n, r, a)
    fam = _quadratics("base-eigenvalue", top, (1 - a) * _sqrt_shift(l, r), 2 * a,
                      c0, c1, keys=l[1:], lead="principal")
    return FactoredCharPoly(2 * a, m - n, (fam,), n + m)


def spectrum_central_regular(G, alpha):
    """Spectrum of A_alpha(central_graph(G)) from the factorization; the
    result has exactly n + m values."""
    return _spectrum(charpoly_central_regular(G, alpha))


# ---------------------------------------------------------------------------
# central vertex join

def _join_quadratics(l, n1, n2, r1, a):
    b = (1 - a) * l + (1 - a * (n1 + n2))  # (x - 2a)(x + b) - (1-a)^2 (l + r1)
    return _quadratics("base-eigenvalue", -b, (1 - a) * _sqrt_shift(l, r1), 2 * a,
                       -2 * a * b - (1 - a) ** 2 * (l + r1), b - 2 * a, keys=l)


def _coronal_cubic(n1, r1, n2, r2, a):
    """(x - 2a)[(x - s)(x - t) - n1 n2 (1-a)^2] - 2 r1 (1-a)^2 (x - s),
    ascending, with s = a n1 + r2 and t = n1 + a n2 - (1-a) r1 - 1."""
    s = a * n1 + r2
    t = n1 + a * n2 - (1 - a) * r1 - 1
    v = 2 * r1 * (1 - a) ** 2
    i0, i1 = s * t - n1 * n2 * (1 - a) ** 2, -(s + t)  # the bracket
    return (-2 * a * i0 + v * s, i0 - 2 * a * i1 - v, i1 - 2 * a, 1.0)


def _coronal_quartic(n1, r1, p, q, a):
    """(x - 2a)[D (x - t) - n1 (1-a)^2 N] - 2 r1 (1-a)^2 D, ascending, where
    N/D is the coronal of A_alpha(K_{p,q}) (spectra.coronal_kpq_alpha) at
    x - a n1 and t = n1 + a(p + q) - (1-a) r1 - 1."""
    s, h = p + q, a * n1
    d0, d1 = h * h + a * s * h + (2 * a - 1) * p * q, -2 * h - a * s  # D, monic
    n0 = -s * h - a * s * s + 2 * p * q  # N = s x + n0
    t = n1 + a * s - (1 - a) * r1 - 1
    w, v = n1 * (1 - a) ** 2, 2 * r1 * (1 - a) ** 2
    i0, i1, i2 = -t * d0 - w * n0, d0 - t * d1 - w * s, d1 - t  # the bracket
    return (-2 * a * i0 - v * d0, i0 - 2 * a * i1 - v * d1, i1 - 2 * a * i2 - v,
            i2 - 2 * a, 1.0)


def charpoly_cvjoin(G1, g2, alpha):
    """Factored characteristic polynomial of A_alpha(central_vertex_join(G1, G2)).

    G1 must be connected and r1-regular with r1 >= 2. g2 selects the route:

    - (p, q) tuple: K_{p,q} with the coronal cleared to a quartic.
    - regular Graph: coronal cleared to a cubic (one r2 eigenvalue absorbed).
    - non-regular complete bipartite Graph: rerouted to the quartic.
    - any other Graph: every eigenvalue of A_alpha(G2) appears as a linear
      factor and the coronal term stays an evaluable rational expression.
    """
    a = _float_alpha(alpha)
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
    mu = _eigh_checked(a_alpha_matrix(G2, a))[0][-2::-1]  # drop r2
    inner, sub = n1 * (n1 - 1) - 2 * m1, 2 * m1  # edge counts inside V1, V1 to S
    coronal = _quotient("coronal", [n1, m1, n2], [n1 - 1 + n2, 2, n1 + r2],
                        [[inner, sub, n1 * n2], [sub, 0, 0], [n1 * n2, 0, n2 * r2]],
                        a, _coronal_cubic(n1, r1, n2, r2, a))
    families = (_linears("g2-eigenvalue", a * n1 + mu, keys=mu),
                _join_quadratics(_adjacency_spectrum(G1)[1:], n1, n2, r1, a),
                coronal)
    return FactoredCharPoly(2 * a, m1 - n1, families, n1 + m1 + n2)


def _charpoly_cvjoin_kpq(G1, n1, m1, r1, p, q, a):
    inner, sub = n1 * (n1 - 1) - 2 * m1, 2 * m1
    coronal = _quotient("coronal", [n1, m1, p, q], [n1 - 1 + p + q, 2, n1 + q, n1 + p],
                        [[inner, sub, n1 * p, n1 * q], [sub, 0, 0, 0],
                         [n1 * p, 0, 0, p * q], [n1 * q, 0, p * q, 0]],
                        a, _coronal_quartic(n1, r1, p, q, a))
    families = (_linears("bipartite-part-q", np.full(q - 1, a * (n1 + p))),
                _linears("bipartite-part-p", np.full(p - 1, a * (n1 + q))),
                _join_quadratics(_adjacency_spectrum(G1)[1:], n1, p + q, r1, a),
                coronal)
    return FactoredCharPoly(2 * a, m1 - n1, families, n1 + m1 + p + q)


def _charpoly_cvjoin_generic(G1, G2, n1, m1, r1, a):
    w, c = _coronal_spectral(a_alpha_matrix(G2, a))
    families = (_linears("g2-eigenvalue", a * n1 + w[::-1], keys=w[::-1]),
                _join_quadratics(_adjacency_spectrum(G1)[1:], n1, G2.n, r1, a))
    return FactoredCharPoly(2 * a, m1 - n1, families, n1 + m1 + G2.n,
                            CoronalTerm(w, c, n1, G2.n, r1, a))


def spectrum_cvjoin_regular(G1, G2, alpha):
    """Spectrum of A_alpha(central_vertex_join(G1, G2)) for regular G1, G2.

    Assembles 2*alpha with multiplicity m1 - n1, the shifted A_alpha(G2)
    eigenvalues, the 2(n1 - 1) roots of the base-eigenvalue blocks, and the
    three eigenvalues of the coronal block.
    """
    r2 = regularity(G2)
    if r2 is None:
        raise PreconditionError("spectrum_cvjoin_regular needs a regular G2; "
                                "use spectrum_cvjoin_kpq or the eigensolver")
    if not is_connected(G2):
        raise PreconditionError("spectrum_cvjoin_regular needs a connected G2")
    return _spectrum(charpoly_cvjoin(G1, G2, alpha))


def spectrum_cvjoin_kpq(G1, p, q, alpha):
    """Spectrum of A_alpha(central_vertex_join(G1, K_{p,q})).

    The coronal-cleared factor must contribute exactly four roots for the
    dimension count m1 + n1 + p + q to close; a mismatch raises rather than
    padding.
    """
    fac = charpoly_cvjoin(G1, (p, q), alpha)
    coronal = [f for f in fac.families if f.label == "coronal"]
    if len(coronal) != 1 or coronal[0].degree * coronal[0].count != 4:
        raise InternalCheckError("coronal factor must contribute exactly 4 roots")
    return _spectrum(fac)
