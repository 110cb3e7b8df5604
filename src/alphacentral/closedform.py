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
and weight (1-a)^2 (l_j + r1); each "g2-eigenvalue" factor is linear, and
its root a n1 + mu_i is taken as it is. Every other factor of one case is
one row of a single ArrowheadStack of block size 2 + k (k the number of
cells below): the n1 - 1 base-eigenvalue rows, each padded with k poles of
weight 0 at n1 + n2, and last the arrowhead below. The built graph's
largest degree, at most n1 + n2 - 1, bounds its spectral radius, so the
padding poles lie above every root; they leave the secular function
unchanged, their eigenvalues come last in each row and are dropped by
position. One batched eigvalsh and one secular sign test root the whole
case. A Factor is one row in secular form, (t, poles, weights), with the
roots of the rows it stands for; its coefficients and point value are read
from that row.

The k cells of the coarsest equitable partition of G2 (the parts {P, Q}
for K_{p,q} given as (p, q)) span an A_alpha(G2)-invariant space holding
the all-ones vector, so Gamma(y) = sum of c_i / (y - v_i) over the k
cell-constant eigenpairs (v_i, x_i), c_i = (x_i^T 1)^2, and the n2 - k
other eigenvalues mu_i of A_alpha(G2) give the linear factors. Every G2
reaches the join as one split, (mu, v, c) (_g2_split). A Graph's cell
count, cell sizes and quotient are read from Graph._quotient alone, and
one solver, spectra._coronal_quotient, turns every quotient into its pairs
(v, c), for the coronal check and for every G2 in the join: one cell is
read off, two cells take one Jacobi rotation in closed form, and k >= 3
cells one checked eigensolve of order k.

mu is affine in alpha whenever any two cells are joined completely or not
at all (a generalized join of regular graphs over the cells; Cardoso, de
Freitas, Martins and Robbiano, Discrete Math. 313 (2013) 733-741). Off
the cell-constant vectors A_alpha(G2) then acts on cell X as alpha d_X +
(1 - alpha) A(G2[X]), so mu = alpha d + (1 - alpha) lam over the
alpha-free Graph._cell_spectra: each cell's degree d_X and the adjacency
spectrum of the regular graph G2[X], less one Perron copy. One cell
covers every regular G2, whose own adjacency spectrum is lam. K_{p,q}
given as (p, q) writes its quotient down, d = (q, p), R = [[0, sqrt(pq)],
[sqrt(pq), 0]] and s = (p, q), and its two edgeless cells, d = q (p - 1
times) and p (q - 1 times) with lam = 0, with no graph formed. Regular
graphs, K_{p,q} given either way, wheels, complete multipartite graphs,
cones over regular graphs and disjoint unions of regular graphs thus pay
no eigensolve of order n2 per alpha: the adjacency spectra of G1 and of
the cells of G2 are each solved once per Graph instance and kept on it
(graphs.Graph), so a sweep over alphas solves neither again. Only a G2
with two cells joined partly, such as P4, takes mu from one checked
eigensolve of A_alpha(G2) + sigma P per alpha (P the projector onto the
cell-constant vectors, sigma = 2 Delta(G2) + 1, so that the cell-constant
eigenvalues come last); the central graph's split is empty.

The last bracket times the k linear factors it cancels is the
characteristic polynomial of the arrowhead

    [[a(n1-1+n2) + (1-a)(n1-1-r1),  (1-a) sqrt(2 r1),  (1-a) sqrt(n1 c)^T],
     [.,                            2a,                0                 ],
     [.,                            0,                 diag(a n1 + v)    ]]

the symmetrized quotient of A_alpha over V1, S and the cells of G2 (Godsil
and Royle, Algebraic Graph Theory, section 9.3): 2x2 for the central graph
(k = 0), 3x3 for regular G2, 4x4 for K_{p,q}. Its corner keeps the quotient
expression while t = n1 + a n2 - (1-a) r1 - 1 keeps the bracket's, so the
check compares the quotient block with the bracket.

The blocks take the raw eigenvalue array of A(G1) with one Perron copy
dropped, and the linear factors take mu as _g2_split gives it. In A(G1)
each bipartite component's -r1 is exact, so its base row has weight 0 and
its root 2a lies on its pole. CLUSTER_TOL grouping only names and counts
the factors (factors and to_json) and never moves a root. A
FactoredCharPoly roots its stack once, when it is made, and checks every
root against its factor in secular form, to TOL_ROOT; roots(), factors,
evaluate and to_json read those checked rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InternalCheckError, PreconditionError
from .graphs import _sizes, regularity
from .spectra import Spectrum, _check_alpha, _coronal_quotient, _eigh_checked, a_alpha_matrix

TOL_MATCH = 1e-8
TOL_ROOT = 1e-10


@dataclass(frozen=True, eq=False)
class Factor:
    """One distinct factor of a FactoredCharPoly, standing for mult rows:
    the secular form F(x) = x - t - sum(weights / (x - poles)) of the first
    of them, whose factor F(x) prod(x - poles) has degree len(poles) + 1,
    and roots, the roots of all mult rows, descending."""

    label: str
    mult: int
    t: float
    poles: np.ndarray
    weights: np.ndarray
    roots: tuple

    @property
    def degree(self):
        return len(self.poles) + 1

    def __call__(self, x):
        """The factor at x, F(x) prod(x - p) multiplied out so that it stays
        finite at the poles."""
        d = x - self.poles
        others = np.where(np.eye(len(d), dtype=bool), 1.0, d).prod(axis=1)
        return d.prod() * (x - self.t) - self.weights @ others

    @cached_property
    def coeffs(self):
        """Ascending monomial coefficients of the factor; for to_json and
        display only."""
        p = self.poles
        out = np.convolve(np.poly(p), [1.0, -self.t])  # descending
        for j, wj in enumerate(self.weights):
            out[2:] -= wj * np.poly(np.delete(p, j))
        return tuple(out[::-1].tolist())


_ENDS = np.array([1.0, -1.0])[:, None, None]  # rows z - h and -(z + h) of ArrowheadStack.roots


@dataclass(frozen=True, eq=False)
class ArrowheadStack:
    """K factors, factor i the characteristic polynomial of the symmetric
    d x d arrowhead blocks[i], rooted together.

    Row i has the secular function F(x) = x - t[i] - sum(weights[i] / (x -
    poles[i])) and the factor F(x) prod(x - poles[i]); blocks[i] holds the
    poles on its diagonal past the corner and sqrt(weights[i]) on its
    border. F increases between consecutive poles (weights >= 0). keys is
    the eigenvalue each row comes from, descending, which
    FactoredCharPoly.factors groups by. kept, a (K, d) bool mask, marks the
    eigenvalues of each block that are roots of its factor: a row padded to
    the block size d has poles of weight 0 above every root of its factor,
    which leave F unchanged and are the block's last eigenvalues, not kept.
    """

    label: str
    blocks: np.ndarray
    t: np.ndarray
    poles: np.ndarray
    weights: np.ndarray
    keys: np.ndarray
    kept: np.ndarray

    def roots(self):
        """(K, d) array; row i holds the eigenvalues of blocks[i], ascending,
        each within h = TOL_ROOT * max(1, |z|max over the row's kept
        eigenvalues) of a root of factor i. A degree-1 row [[t]] has no
        poles and F(x) = x - t; eigvalsh returns t exactly and the test
        below passes it like any other row.

        F increases on each pole-free piece of [lo, hi] = [z - h, z + h] and
        runs from -inf to +inf between two poles, so the interval holds a
        root iff [F(lo) <= 0] + [-F(hi) <= 0] + (poles in (lo, hi)) >= 2. A
        pole of weight 0 is itself a root, as the factor vanishes there, so
        an eigenvalue whose interval holds one (a padding pole, the pole 2a
        of a bipartite base's row, or the cell pole of K_{p,p} that the
        all-ones vector misses) passes without the count. -F(hi) is the
        secular function with t and the poles negated, taken at -hi, so at
        both ends the denominators are the end minus a pole: where an end
        falls on a pole that is +0, which gives F's limit from inside the
        interval. An end on a pole of weight 0 gives nan and counts as
        neither sign. No coefficient or product over the poles is formed, so
        the bound holds at any degree and any pole multiplicity.
        """
        z = np.linalg.eigvalsh(self.blocks)
        h = TOL_ROOT * np.abs(z).max(axis=1, keepdims=True, initial=1.0, where=self.kept)
        y = _ENDS * z - h
        p, w = self.poles[:, None, :], self.weights[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            d = y[..., None] - _ENDS[..., None] * p
            signs = y - _ENDS * self.t[:, None] <= (w / d).sum(axis=-1)
        ok = signs.all(axis=0) | ((d <= 0).all(axis=0) & (w == 0)).any(axis=-1)
        if not ok.all():
            self._count_poles(z, h, d, signs, ok)
        return z

    def _count_poles(self, z, h, d, signs, ok):
        """The pole count of roots' check, for the eigenvalues that the end
        signs and the weight-0 poles left unproven (~ok). d holds each
        interval's ends minus the poles, so a pole inside the interval has
        d < 0 at both ends. Raises on the first eigenvalue without a root."""
        inside = (d < 0).all(axis=0).sum(axis=-1)  # lo < p and p < hi
        bad = ~ok & (signs.sum(axis=0) + inside < 2)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise InternalCheckError(
                f"{self.label} root {z[i, j]:.6g} in row {i} is not within {h[i, 0]:.3e} "
                "of a root of its factor in secular form")


@dataclass(frozen=True, eq=False)
class FactoredCharPoly:
    """Characteristic polynomial in factored form.

    linear_root/linear_mult hold the (x - 2 alpha)^k subdivision factor
    (mult may be zero), and shifted the roots of the linear "g2-eigenvalue"
    factors, keyed by mu. stack holds every other factor as one row: first
    the base-eigenvalue quadratics, keyed by stack.keys and padded to the
    block size of the last row, then the factor named label. The factor
    degrees always sum to the order of the implied matrix; construction
    fails rather than pad. Construction then sets rows to stack.roots(), so
    each of its roots has passed the secular check before the
    FactoredCharPoly exists; roots(), factors, evaluate and to_json read it
    and run no eigensolver.
    """

    linear_root: float
    linear_mult: int
    shifted: np.ndarray
    mu: np.ndarray
    stack: ArrowheadStack
    label: str
    order: int
    rows: np.ndarray = field(init=False)

    def __post_init__(self):
        total = self.linear_mult + len(self.shifted) + np.count_nonzero(self.stack.kept)
        if total != self.order:
            raise InternalCheckError(
                f"factor degrees sum to {total}, expected matrix order {self.order}")
        object.__setattr__(self, "rows", self.stack.roots())

    @cached_property
    def factors(self):
        """One Factor per distinct factor, with its multiplicity, from the
        checked rows: the g2-eigenvalue linear factors keyed by mu,
        the base-eigenvalue quadratics (the stack's rows but the last,
        without their padding) keyed by stack.keys, and the last row. Rows
        whose keys lie within CLUSTER_TOL are one factor, labelled "kind
        key"."""
        s, z, x = self.stack, self.rows, self.shifted
        none = np.empty((len(x), 0))
        out = []
        for kind, keys, t, poles, weights, roots in (
                ("g2-eigenvalue", self.mu, x, none, none, x[:, None]),
                ("base-eigenvalue", s.keys, s.t[:-1], s.poles[:-1, :1], s.weights[:-1, :1],
                 z[:-1, :2]),
                (self.label, None, s.t[-1:], s.poles[-1:], s.weights[-1:], z[-1:])):
            groups = ([(kind, 1)] if keys is None else
                      [(f"{kind} {key:.10g}", mult)
                       for key, mult in Spectrum.from_values(keys).groups])
            start = 0
            for label, mult in groups:
                rows = roots[start:start + mult].ravel().tolist()
                out.append(Factor(label, mult, t[start], poles[start], weights[start],
                                  tuple(sorted(rows, reverse=True))))
                start += mult
        return tuple(out)

    def evaluate(self, lam):
        val = (lam - self.linear_root) ** self.linear_mult
        for f in self.factors:
            val *= f(lam) ** f.mult
        return val

    def roots(self):
        """All roots with multiplicity as an array, descending: the linear
        roots as they are, and every other root from the checked rows, each
        row's padding dropped by position."""
        parts = [np.full(self.linear_mult, float(self.linear_root)), self.shifted,
                 self.rows[self.stack.kept]]
        return np.sort(np.concatenate(parts))[::-1]

    def to_json(self):
        factors = [{"coeffs": list(f.coeffs), "mult": f.mult, "label": f.label}
                   for f in self.factors]
        return {"linear": {"root": float(self.linear_root), "mult": self.linear_mult},
                "factors": factors}


# ---------------------------------------------------------------------------
# the join route, shared by central graphs and central vertex joins

def _require_regular_base(G, what):
    """Degree r of the base graph, which must be regular with r >= 2.

    Connectivity is not needed: 1 is an r-eigenvector of A(G) whatever the
    components, and the complement J - I - A maps an eigenvector orthogonal
    to 1 of eigenvalue l to -1 - l times itself, so every other eigenvalue
    (extra copies of r included) enters a base-eigenvalue factor.
    """
    r = regularity(G)
    if r is None:
        deg = G.degree_sequence
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
    cell-constant eigenpairs. label names the arrowhead's factor, the last
    row of the one padded stack."""
    n1, m1 = G1.n, G1.m
    n2, d = len(mu) + len(v), 2 + len(v)
    # adjacency eigenvalues of G1 but the Perron root r1, descending
    l = G1._adjacency_eigenvalues[-2::-1]
    b = (1 - a) ** 2
    blocks = np.zeros((n1, d, d))
    diagonal = blocks.reshape(n1, d * d)[:, ::d + 1]  # the corner, then the poles
    diagonal[:, 1] = 2 * a
    diagonal[:-1, 2:] = n1 + n2
    diagonal[-1, 2:] = a * n1 + v
    diagonal[:-1, 0] = a * (n1 + n2) - (1 - a) * l - 1
    diagonal[-1, 0] = a * (n1 - 1 + n2) + (1 - a) * (n1 - 1 - r1)
    t = diagonal[:, 0].copy()
    t[-1] = n1 + a * n2 - (1 - a) * r1 - 1
    weights = np.zeros((n1, d - 1))
    # l >= -r1 for an r1-regular graph; a rounding undershoot would give nan
    weights[:-1, 0] = b * np.maximum(l + r1, 0.0)
    weights[-1, 0] = 2 * r1 * b
    weights[-1, 1:] = n1 * b * c
    blocks[:, 0, 1:] = blocks[:, 1:, 0] = np.sqrt(weights)
    kept = np.ones((n1, d), dtype=bool)
    kept[:-1, 2:] = False
    stack = ArrowheadStack(f"base-eigenvalue and {label}", blocks, t, diagonal[:, 1:],
                           weights, l, kept)
    return FactoredCharPoly(2 * a, m1 - n1, a * n1 + mu, mu, stack, label, n1 + m1 + n2)


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
    a = float(_check_alpha(alpha))
    r = _require_regular_base(G, "central-graph closed form")
    return _charpoly_join(G, r, a, _EMPTY, _EMPTY, _EMPTY, "principal")


def spectrum_central_regular(G, alpha):
    """Spectrum of A_alpha(central_graph(G)) from the factorization; the
    result has exactly n + m values."""
    return Spectrum(tuple(charpoly_central_regular(G, alpha).roots().tolist()))


# ---------------------------------------------------------------------------
# central vertex join

def _g2_split(g2, a):
    """The split (mu, v, c) of a second graph that _charpoly_join takes:
    (v, c) from spectra._coronal_quotient on the quotient of G2, and mu
    from the cells' own spectra.

    g2 is any Graph, or a (p, q) tuple for K_{p,q}, its sizes decided by
    graphs._sizes as generate decides them. A Graph gives its
    Graph._quotient and its Graph._cell_spectra (d, lam), so mu = alpha d +
    (1 - alpha) lam, sorted descending, with no eigensolve: one cell (a
    regular graph) holds d = r2 and the graph's own adjacency spectrum less
    one copy of r2, and several cells, joined completely or not at all,
    hold each cell's degree and induced spectrum. A tuple writes both down
    as plain Python numbers with no graph formed: its quotient d = (q, p),
    R = [[0, sqrt(pq)], [sqrt(pq), 0]] and s = (p, q), so the coronal
    factor of K_{p,q} is a quartic even when p = q, and its two edgeless
    cells, d = q (p - 1 times) and p (q - 1 times) with lam = 0.

    A Graph whose cells are joined partly (_cell_spectra None, as for P4)
    takes mu from one checked eigensolve of A_alpha(G2) + sigma P, P the
    projector onto the cell-constant vectors, built from each vertex's cell
    (Graph._cell_colours) and the cell sizes: sigma exceeds the spread of
    A_alpha(G2), whose spectral radius is at most its largest degree, so
    the n2 - k eigenvalues orthogonal to the cell-constant vectors come
    first.
    """
    if isinstance(g2, tuple):
        p, q = _sizes("complete_bipartite", g2, ("p", "q"))
        y = math.sqrt(p * q)
        quotient = (q, p), ((0.0, y), (y, 0.0)), (p, q)
        cell_spectra = np.array([q] * (p - 1) + [p] * (q - 1)), 0.0
    else:
        quotient, cell_spectra = g2._quotient, g2._cell_spectra
    if cell_spectra is None:
        M = a_alpha_matrix(g2, a)
        sigma = 2 * M.sum(axis=1).max() + 1
        colour, size = np.array(g2._cell_colours), quotient[2]
        M += sigma * ((colour[:, None] == colour) / size[colour])
        mu = _eigh_checked(M)[0][:g2.n - len(size)][::-1]
    else:
        d, lam = cell_spectra
        mu = np.sort(a * d + (1 - a) * lam)[::-1]
    return (mu, *_coronal_quotient(quotient, a))


def charpoly_cvjoin(G1, g2, alpha):
    """Factored characteristic polynomial of A_alpha(central_vertex_join(G1, G2)).

    G1 must be r1-regular with r1 >= 2; G2 is any Graph, or a (p, q) tuple
    for K_{p,q}. The split of G2 (_g2_split) gives the "g2-eigenvalue"
    linear factors and the cells of the coronal arrowhead (see the module
    docstring).
    """
    a = float(_check_alpha(alpha))
    r1 = _require_regular_base(G1, "vertex-join closed form")
    return _charpoly_join(G1, r1, a, *_g2_split(g2, a), "coronal")


def spectrum_cvjoin_regular(G1, G2, alpha):
    """Spectrum of A_alpha(central_vertex_join(G1, G2)) for any Graph G2.

    The name is historical: G2 once had to be regular. Assembles 2*alpha
    with multiplicity m1 - n1, the shifted A_alpha(G2) eigenvalues, the
    2(n1 - 1) roots of the base-eigenvalue blocks, and the 2 + k
    eigenvalues of the coronal arrowhead.
    """
    return Spectrum(tuple(charpoly_cvjoin(G1, G2, alpha).roots().tolist()))


def spectrum_cvjoin_kpq(G1, p, q, alpha):
    """Spectrum of A_alpha(central_vertex_join(G1, K_{p,q})); the coronal
    factor over the parts {P, Q} contributes four roots."""
    return Spectrum(tuple(charpoly_cvjoin(G1, (p, q), alpha).roots().tolist()))
