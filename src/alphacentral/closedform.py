"""Factored characteristic polynomials and explicit spectra for central
vertex joins and central graphs, evaluated without ever assembling the large
matrix.

For G1 r1-regular on n1 vertices (m1 = n1 r1/2 edges, r1 >= 2) with
adjacency eigenvalues r1 = l_1 >= l_2 >= ... >= l_n1, and any G2 on n2
vertices, the characteristic polynomial of A_alpha(central_vertex_join(G1, G2))
factors as

    (x - 2a)^(m1-n1)
    * prod over i of (x - a n1 - mu_i)          mu_i = eigenvalues of A_alpha(G2)
    * prod over j >= 2 of
      [(x - 2a)(x - a(n1+n2) + (1-a) l_j + 1) - (1-a)^2 (l_j + r1)]
    * [(x - 2a)(x - n1 - a n2 + (1-a) r1 + 1
                - n1 (1-a)^2 Gamma(x - a n1)) - 2 r1 (1-a)^2]

where Gamma is the coronal of A_alpha(G2). The (1-a)^2 power on the coronal
coupling is the one confirmed against the dense eigensolver. The rejected
single-power coupling n1 (1-a) Gamma is this route's arrowhead with its
cell weights divided by 1 - a; verify.formula_discrepancy_notes records its
check.

The central graph C(G) is the join with an empty G2: n2 = 0, no mu_i, and
Gamma = 0, so with n = n1 and r = r1 its polynomial is the n2 = 0 case of
the one above, and the last bracket is the paper's principal factor
x^2 - (2a + n - 1 - r(1-a)) x + (2an - 2a + 2ar - 2r). Both go through one
route, which takes G2 only as the split described below.

Every factor is the secular equation of a small symmetric arrowhead, the
bordered diagonal matrix [[corner, sqrt(w)^T], [sqrt(w), diag(p)]] whose
characteristic polynomial is F(x) prod(x - p) with

    F(x) = x - t - sum of w_i / (x - p_i)

(Golub, "Some modified matrix eigenvalue problems", SIAM Review 15, 1973),
so its roots are the eigenvalues of the block: real by construction, and
two close but distinct roots are never merged. Each base-eigenvalue
quadratic is the 2x2 arrowhead with t = a(n1+n2) - (1-a) l_j - 1, pole 2a
and weight (1-a)^2 (l_j + r1), built for every l at once; each
"g2-eigenvalue" factor is a 1x1 one. Factors of one kind form an
ArrowheadStack, rooted by one batched eigvalsh and checked by one secular
sign test.

The k cells of the coarsest equitable partition of G2 (the parts {P, Q} for
K_{p,q} given as (p, q)) span an A_alpha(G2)-invariant space holding the
all-ones vector, so Gamma(y) = sum of c_i / (y - v_i) over the k
cell-constant eigenpairs (v_i, x_i), c_i = (x_i^T 1)^2. One
eigendecomposition of A_alpha(G2) + sigma P (P the projector onto
cell-constant vectors, sigma = 2 Delta(G2) + 1) splits G2 into the n2 - k
other eigenvalues, the linear factors, and the k pairs (v_i, c_i); the
central graph's split is empty. The last bracket times the k linear factors
it cancels is the characteristic polynomial of the arrowhead

    [[a(n1-1+n2) + (1-a)(n1-1-r1),  (1-a) sqrt(2 r1),  (1-a) sqrt(n1 c)^T],
     [.,                            2a,                0                 ],
     [.,                            0,                 diag(a n1 + v)    ]]

the symmetrized quotient of A_alpha over V1, S and the cells of G2 (Godsil
and Royle, Algebraic Graph Theory, section 9.3): 2x2 for the central graph
(k = 0), 3x3 for regular G2, 4x4 for K_{p,q}. Its corner keeps the quotient
expression while t = n1 + a n2 - (1-a) r1 - 1 keeps the bracket's, so the
check compares the quotient block with the bracket.

The blocks take the raw eigenvalue arrays of A(G1) and A_alpha(G2) with one
Perron copy dropped; CLUSTER_TOL grouping only names and counts the factors
(factors, to_json) and never moves a root. Every root is checked against its
factor in secular form, to TOL_ROOT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InternalCheckError, PreconditionError
from .graphs import _colours, adjacency_matrix, generate
from .spectra import (Spectrum, _check_alpha, _coronal_spectral, _eigh_checked,
                      a_alpha_matrix)

TOL_MATCH = 1e-8
TOL_ROOT = 1e-10


@dataclass(frozen=True)
class Factor:
    """One factor of a FactoredCharPoly; poly is a one-row ArrowheadStack,
    with coeffs, degree and a point value."""

    poly: object
    mult: int
    label: str

    @property
    def degree(self):
        return self.poly.degree


_ENDS = np.array([1.0, -1.0])[:, None, None]  # rows z - h and -(z + h) of ArrowheadStack.roots


@dataclass(frozen=True, eq=False)
class ArrowheadStack:
    """K factors of degree d, factor i the characteristic polynomial of the
    symmetric d x d arrowhead blocks[i].

    Row i has the secular function F(x) = x - t[i] - sum(weights[i] / (x -
    poles[i])) and the factor F(x) prod(x - poles[i]); blocks[i] holds the
    poles on its diagonal past the corner and sqrt(weights[i]) on its
    border. F increases between consecutive poles (weights >= 0). keys,
    when given, is the eigenvalue each row comes from, descending: rows
    whose keys lie within CLUSTER_TOL are listed as one factor with
    multiplicity, labelled "label key". Without keys the K factors are
    equal.
    """

    label: str
    blocks: np.ndarray
    t: np.ndarray
    poles: np.ndarray
    weights: np.ndarray
    keys: np.ndarray = None

    @property
    def degree(self):
        return self.blocks.shape[2]

    @property
    def count(self):
        return self.blocks.shape[0]

    def roots(self):
        """(K, d) array; row i holds the eigenvalues of blocks[i], ascending,
        each within h = TOL_ROOT * max(1, |z|max of the row) of a root of
        factor i. A degree-1 row is its own root and is returned unchecked.

        F increases on each pole-free piece of [lo, hi] = [z - h, z + h] and
        runs from -inf to +inf between two poles, so the interval holds a
        root iff [F(lo) <= 0] + [-F(hi) <= 0] + (poles in (lo, hi)) >= 2; a
        pole of weight 0 is itself a root. -F(hi) is the secular function
        with t and the poles negated, taken at -hi, so at both ends the
        denominators are the end minus a pole: where an end falls on a pole
        that is +0, which gives F's limit from inside the interval. An end
        on a pole of weight 0 gives nan and counts as neither sign. No
        coefficient or product over the poles is formed, so the bound holds
        at any degree and any pole multiplicity.
        """
        if self.degree == 1:
            return self.blocks[:, :, 0]
        z = np.linalg.eigvalsh(self.blocks)
        h = TOL_ROOT * np.maximum(1.0, np.maximum(-z[:, :1], z[:, -1:]))
        y = _ENDS * z - h
        p, w = self.poles[:, None, :], self.weights[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            d = y[..., None] - _ENDS[..., None] * p
            signs = y - _ENDS * self.t[:, None] <= (w / d).sum(axis=-1)
        if signs.all():
            return z
        inside = (d < 0).all(axis=0).sum(axis=-1)  # lo < p and p < hi
        bad = signs.sum(axis=0) + inside < 2
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise InternalCheckError(
                f"{self.label} root {z[i, j]:.6g} is not within {h[i, 0]:.3e} of a "
                "root of its factor in secular form")
        return z

    def groups(self):
        """(label, first row, multiplicity) per distinct factor."""
        if self.keys is None:
            return [(self.label, 0, self.count)] if self.count else []
        out, start = [], 0
        for key, mult in Spectrum.from_values(self.keys).groups:
            out.append((f"{self.label} {key:.10g}", start, mult))
            start += mult
        return out

    def factor(self, row):
        """The given row as a one-row stack, the view that Factor.poly holds:
        it has coeffs, to_json and a point value."""
        s = slice(row, row + 1)
        return ArrowheadStack(self.label, self.blocks[s], self.t[s], self.poles[s],
                              self.weights[s])

    def __call__(self, x):
        """A one-row stack's factor at x, F(x) prod(x - p) multiplied out so
        that it stays finite at the poles."""
        (t,), (p,), (w,) = self.t, self.poles, self.weights
        d = x - p
        others = np.where(np.eye(len(d), dtype=bool), 1.0, d).prod(axis=1)
        return d.prod() * (x - t) - w @ others

    @cached_property
    def coeffs(self):
        """Ascending monomial coefficients of a one-row stack's factor; for
        factors and to_json only."""
        (t,), (p,), (w,) = self.t, self.poles, self.weights
        out = np.convolve(np.poly(p), [1.0, -t])  # descending
        for j, wj in enumerate(w):
            out[2:] -= wj * np.poly(np.delete(p, j))
        return tuple(out[::-1].tolist())

    def to_json(self):
        return {"coeffs": list(self.coeffs)}


def _arrowheads(label, corner, t, poles, weights, keys=None):
    """The stack of blocks [[corner, sqrt(w)^T], [sqrt(w), diag(p)]] against
    the factors of (t, poles, weights): poles and weights are (K, d - 1)
    arrays, t has length K and corner broadcasts to it."""
    k, m = poles.shape
    blocks = np.zeros((k, m + 1, m + 1))
    blocks[:, 0, 0] = corner
    blocks.reshape(k, (m + 1) ** 2)[:, m + 2::m + 2] = poles  # the diagonal past the corner
    blocks[:, 0, 1:] = blocks[:, 1:, 0] = np.sqrt(weights)
    return ArrowheadStack(label, blocks, t, poles, weights, keys)


@dataclass(frozen=True, eq=False)
class FactoredCharPoly:
    """Characteristic polynomial in factored form.

    linear_root/linear_mult hold the (x - 2 alpha)^k subdivision factor
    (mult may be zero); families hold every other factor as ArrowheadStacks,
    each rooted by its own blocks. The factor degrees always sum to the
    order of the implied matrix; construction fails rather than pad.
    """

    linear_root: float
    linear_mult: int
    families: tuple
    order: int

    def __post_init__(self):
        total = self.linear_mult + sum(f.degree * f.count for f in self.families)
        if total != self.order:
            raise InternalCheckError(
                f"factor degrees sum to {total}, expected matrix order {self.order}")

    @cached_property
    def factors(self):
        """One Factor per distinct factor, with its multiplicity."""
        return tuple(Factor(fam.factor(start), mult, label)
                     for fam in self.families for label, start, mult in fam.groups())

    def evaluate(self, lam):
        val = (lam - self.linear_root) ** self.linear_mult
        for f in self.factors:
            val *= f.poly(lam) ** f.mult
        return val

    def roots(self):
        """All roots with multiplicity as an array, descending, from the
        symmetric blocks."""
        parts = [np.full(self.linear_mult, float(self.linear_root))]
        parts += [fam.roots().ravel() for fam in self.families]
        return np.sort(np.concatenate(parts))[::-1]

    def factor_roots(self):
        """(label, roots descending) for each entry of factors, from the same
        blocks as roots()."""
        out = []
        for fam in self.families:
            z = fam.roots()
            for label, start, mult in fam.groups():
                out.append((label, sorted(z[start:start + mult].ravel().tolist(),
                                          reverse=True)))
        return out

    def to_json(self):
        factors = [dict(f.poly.to_json(), mult=f.mult, label=f.label)
                   for f in self.factors]
        return {"linear": {"root": float(self.linear_root), "mult": self.linear_mult},
                "factors": factors}


def _spectrum(fac):
    """The spectrum of fac's roots; FactoredCharPoly has checked their count."""
    return Spectrum.from_values(fac.roots())


# ---------------------------------------------------------------------------
# the join route, shared by central graphs and central vertex joins

def _require_regular_base(G, what):
    """Degree r of the base graph, which must be regular with r >= 2.

    Connectivity is not needed: 1 is an r-eigenvector of A(G) whatever the
    components, and the complement J - I - A maps an eigenvector orthogonal
    to 1 of eigenvalue l to -1 - l times itself, so every other eigenvalue
    (extra copies of r included) enters a base-eigenvalue factor.
    """
    deg = G.degree_sequence
    r = deg[0]
    if min(deg) != max(deg):
        raise PreconditionError(
            f"{what} needs a regular base graph; this one has degree spread "
            f"{min(deg)}..{max(deg)}. "
            "Use eigenvalues_sym on the explicitly built graph instead.")
    if r < 2:
        raise PreconditionError(
            f"{what} needs degree r >= 2 (got r={r}); the subdivision factor "
            "exponent m - n would be negative. "
            "Use eigenvalues_sym on the explicitly built graph instead.")
    return r


def _charpoly_join(G1, r1, a, mu, v, c, label):
    """The factorization of the module docstring for G1 joined with a second
    graph given only by its split: mu the n2 - k eigenvalues of A_alpha(G2)
    orthogonal to the cell-constant vectors, descending, and (v, c) the k
    cell-constant eigenpairs. label names the arrowhead's factor."""
    n1, m1 = G1.n, G1.m
    n2 = len(mu) + len(v)
    shifted, no_poles = a * n1 + mu, np.empty((len(mu), 0))
    # adjacency eigenvalues of G1 but the Perron root r1, descending
    l = _eigh_checked(adjacency_matrix(G1))[0][-2::-1]
    t = a * (n1 + n2) - (1 - a) * l - 1
    # l >= -r1 for an r1-regular graph; a rounding undershoot would give nan
    base_weights = (1 - a) ** 2 * np.maximum(l + r1, 0.0)
    poles = np.concatenate(([2 * a], a * n1 + v))
    weights = np.concatenate(([2 * r1 * (1 - a) ** 2], n1 * (1 - a) ** 2 * c))
    corner = a * (n1 - 1 + n2) + (1 - a) * (n1 - 1 - r1)
    families = (
        _arrowheads("g2-eigenvalue", shifted, shifted, no_poles, no_poles, keys=mu),
        _arrowheads("base-eigenvalue", t, t, np.full((len(l), 1), 2 * a),
                    base_weights[:, None], keys=l),
        _arrowheads(label, corner, np.array([n1 + a * n2 - (1 - a) * r1 - 1]),
                    poles[None], weights[None]))
    return FactoredCharPoly(2 * a, m1 - n1, families, n1 + m1 + n2)


# ---------------------------------------------------------------------------
# central graph of a regular graph

_EMPTY = np.empty(0)


def charpoly_central_regular(G, alpha):
    """Factored characteristic polynomial of A_alpha(central_graph(G)).

    G must be r-regular with r >= 2. C(G) is the join of G with an empty
    second graph, so this is the join's factorization with an empty split
    (see the module docstring): the adjacency eigenvalues of G, from the
    dense eigensolver, give the base-eigenvalue factors with their clustered
    multiplicities, and the 2x2 arrowhead over the original and subdivision
    vertices gives the principal factor.
    """
    a = float(alpha)
    _check_alpha(a, allow_one=True)
    r = _require_regular_base(G, "central-graph closed form")
    return _charpoly_join(G, r, a, _EMPTY, _EMPTY, _EMPTY, "principal")


def spectrum_central_regular(G, alpha):
    """Spectrum of A_alpha(central_graph(G)) from the factorization; the
    result has exactly n + m values."""
    return _spectrum(charpoly_central_regular(G, alpha))


# ---------------------------------------------------------------------------
# central vertex join

def _g2_split(g2, a):
    """The split (mu, v, c) of a second graph that _charpoly_join takes.

    g2 is any Graph, or a (p, q) tuple for K_{p,q}. Each vertex of G2 is
    coloured by its cell: the coarsest equitable partition's colours from
    graphs._colours, or the parts {P, Q} for a tuple (so the coronal factor
    of K_{p,q} is a quartic even when p = q). One checked eigendecomposition
    of A_alpha(G2) + sigma P splits, by index, into the n2 - k eigenvalues
    orthogonal to the cell-constant vectors and the k cell-constant pairs
    (v_i, c_i), c_i = (x_i^T 1)^2 as in the coronal.
    """
    if isinstance(g2, tuple):
        p, q = g2
        G2, colour = generate("complete_bipartite", [p, q]), [0] * p + [1] * q
    else:
        G2, colour = g2, _colours(g2)
    n2, k = G2.n, max(colour) + 1

    # sigma exceeds the spread of A_alpha(G2), whose spectral radius is at
    # most its largest degree, so the cell-constant eigenvalues come last
    M = a_alpha_matrix(G2, a)
    sigma = 2 * M.sum(axis=1).max() + 1
    colour = np.array(colour)
    same = colour[:, None] == colour
    M += sigma * (same / same.sum(axis=1))
    w, c = _coronal_spectral(M)
    return w[:n2 - k][::-1], w[n2 - k:] - sigma, c[n2 - k:]


def charpoly_cvjoin(G1, g2, alpha):
    """Factored characteristic polynomial of A_alpha(central_vertex_join(G1, G2)).

    G1 must be r1-regular with r1 >= 2; G2 is any Graph, or a (p, q) tuple
    for K_{p,q}. The split of G2 (_g2_split) gives the "g2-eigenvalue"
    linear factors and the cells of the coronal arrowhead (see the module
    docstring).
    """
    a = float(alpha)
    _check_alpha(a, allow_one=True)
    r1 = _require_regular_base(G1, "vertex-join closed form")
    return _charpoly_join(G1, r1, a, *_g2_split(g2, a), "coronal")


def spectrum_cvjoin_regular(G1, G2, alpha):
    """Spectrum of A_alpha(central_vertex_join(G1, G2)) for any Graph G2.

    The name is historical: G2 once had to be regular. Assembles 2*alpha
    with multiplicity m1 - n1, the shifted A_alpha(G2) eigenvalues, the
    2(n1 - 1) roots of the base-eigenvalue blocks, and the 2 + k
    eigenvalues of the coronal arrowhead.
    """
    return _spectrum(charpoly_cvjoin(G1, G2, alpha))


def spectrum_cvjoin_kpq(G1, p, q, alpha):
    """Spectrum of A_alpha(central_vertex_join(G1, K_{p,q})); the coronal
    factor over the parts {P, Q} contributes four roots."""
    return _spectrum(charpoly_cvjoin(G1, (p, q), alpha))
