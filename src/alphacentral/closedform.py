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
coupling is the one confirmed against the dense eigensolver; see
verify.formula_discrepancy_notes for the recorded check of the single-power
variant.

The central graph C(G) is the join with an empty G2: n2 = 0, no mu_i, and
Gamma = 0, so with n = n1 and r = r1 its polynomial is the n2 = 0 case of
the one above, and the last bracket is the paper's principal factor
x^2 - (2a + n - 1 - r(1-a)) x + (2an - 2a + 2ar - 2r). Both go through one
route, which takes G2 only as the split described below.

Every non-linear factor is rooted as the eigenvalues of a small symmetric
block, so its roots are real by construction and two close but distinct
roots are never merged. The base-eigenvalue quadratics are the 2x2 blocks

    [[a(n1+n2) - (1-a) l_j - 1,    (1-a) sqrt(l_j + r1)], [., 2a]]

built for every l at once and rooted by one batched eigvalsh.

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
(k = 0), 3x3 for regular G2, 4x4 for K_{p,q}. Its roots are checked against
the bracket in secular form.

The blocks take the raw eigenvalue arrays of A(G1) and A_alpha(G2) with one
Perron copy dropped; CLUSTER_TOL grouping only names and counts the factors
(factors, to_json) and never moves a root. Every root is checked against its
factor as written above, to TOL_ROOT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InternalCheckError, ParameterError, PreconditionError
from .graphs import adjacency_matrix, equitable_partition, generate
from .spectra import Polynomial, Spectrum, _eigh_checked, a_alpha_matrix

TOL_MATCH = 1e-8
TOL_ROOT = 1e-10


@dataclass(frozen=True)
class Factor:
    """One factor of a FactoredCharPoly: a Polynomial, or the CoronalFactor."""

    poly: object
    mult: int
    label: str

    @property
    def degree(self):
        return self.poly.degree


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
    equal.
    """

    label: str
    blocks: np.ndarray
    coeffs: np.ndarray
    keys: np.ndarray = None

    @property
    def degree(self):
        return self.blocks.shape[2]

    @property
    def count(self):
        return self.blocks.shape[0]

    def factor(self, row):
        return Polynomial.of(self.coeffs[row].tolist())

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
        if self.keys is None:
            return [(self.label, 0, self.count)] if self.count else []
        out, start = [], 0
        for key, mult in Spectrum.from_values(self.keys).groups:
            out.append((f"{self.label} {key:.10g}", start, mult))
            start += mult
        return out


_ENDS = np.array([[1.0], [-1.0]])  # rows z - h and -(z + h) of CoronalFactor.roots


@dataclass(frozen=True, eq=False)
class CoronalFactor:
    """The join's coronal factor: the bracket of the factorization times the
    k linear factors x - a n1 - v_i it cancels, of degree 2 + k, rooted as
    the eigenvalues of the arrowhead block. label names it: "coronal" for a
    join, "principal" for a central graph (k = 0).

    With (v_i, c_i) the cell-constant eigenpairs of A_alpha(G2), Gamma(y) =
    sum(c / (y - v)). poles p = (2a, a n1 + v) and weights W = (2 r1 (1-a)^2,
    n1 (1-a)^2 c) make the bracket divided by x - 2a the secular function
    F(x) = x - t - sum(W / (x - p)), t = n1 + a n2 - (1-a) r1 - 1, and the
    factor F(x) prod(x - p). F increases between consecutive poles (W >= 0).
    """

    block: np.ndarray
    t: float
    poles: np.ndarray
    weights: np.ndarray
    label: str
    count = 1

    @property
    def degree(self):
        return 1 + len(self.poles)

    def __call__(self, x):
        """The factor's value at x, F(x) prod(x - p) multiplied out so that
        it stays finite at the poles."""
        d = x - self.poles
        others = np.where(np.eye(len(d), dtype=bool), 1.0, d).prod(axis=1)
        return d.prod() * (x - self.t) - self.weights @ others

    def roots(self):
        """(1, 2 + k) array of the block's eigenvalues, ascending, each
        within h = TOL_ROOT * max(1, |z|max) of a root of the factor.

        F increases on each pole-free piece of [lo, hi] = [z - h, z + h] and
        runs from -inf to +inf between two poles, so the interval holds a
        root iff [F(lo) <= 0] + [-F(hi) <= 0] + (poles in (lo, hi)) >= 2; a
        pole of weight 0 is itself a root. -F(hi) is the secular function
        with t and the poles negated, taken at -hi, so at both ends the
        denominators are the end minus a pole: where an end falls on a pole
        that is +0, which gives F's limit from inside the interval. An end
        on a pole of weight 0 gives nan and counts as neither sign. No
        coefficient or product over the poles is formed, so the bound holds
        at any k and any pole multiplicity.
        """
        z = np.linalg.eigvalsh(self.block)
        h = TOL_ROOT * max(1.0, -z[0], z[-1])
        y = _ENDS * z - h
        with np.errstate(divide="ignore", invalid="ignore"):
            d = y[..., None] - _ENDS[..., None] * self.poles
            signs = y - _ENDS * self.t - (self.weights / d).sum(axis=-1) <= 0
        if signs.all():
            return z[None, :]
        inside = ((y[0][:, None] < self.poles) & (self.poles < -y[1][:, None])).sum(axis=1)
        ok = signs.sum(axis=0) + inside >= 2
        if not ok.all():
            raise InternalCheckError(
                f"{self.label} root {z[np.argmin(ok)]:.6g} is not within {h:.3e} of a "
                "root of its factor in secular form")
        return z[None, :]

    def groups(self):
        return [(self.label, 0, 1)]

    def factor(self, row):
        return self

    @cached_property
    def coeffs(self):
        """Ascending monomial coefficients; for factors and to_json only."""
        out = np.convolve(np.poly(self.poles), [1.0, -self.t])  # descending
        for j, w in enumerate(self.weights):
            out[2:] -= w * np.poly(np.delete(self.poles, j))
        return tuple(out[::-1].tolist())

    def to_json(self):
        return {"coeffs": list(self.coeffs)}


def _linears(label, roots, keys=None):
    roots = np.asarray(roots, dtype=float).reshape(-1)
    coeffs = np.ones((len(roots), 2))
    coeffs[:, 0] = -roots
    return FactorFamily(label, roots.reshape(-1, 1, 1), coeffs, keys)


def _quadratics(label, top, off, bottom, c0, c1, keys=None):
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
    return FactorFamily(label, blocks, coeffs, keys)


@dataclass(frozen=True, eq=False)
class FactoredCharPoly:
    """Characteristic polynomial in factored form.

    linear_root/linear_mult hold the (x - 2 alpha)^k subdivision factor
    (mult may be zero); families hold every other factor, each rooted by
    its own blocks. The factor degrees always sum to the order of the
    implied matrix; construction fails rather than pad.
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


def _adjacency_spectrum(G):
    """Adjacency eigenvalues of G, descending; the Perron root r comes first."""
    return _eigh_checked(adjacency_matrix(G))[0][::-1]


def _sqrt_shift(l, r):
    # l >= -r for an r-regular graph; a rounding undershoot would give nan
    return np.sqrt(np.maximum(l + r, 0.0))


def _join_quadratics(l, n1, n2, r1, a):
    b = (1 - a) * l + (1 - a * (n1 + n2))  # (x - 2a)(x + b) - (1-a)^2 (l + r1)
    return _quadratics("base-eigenvalue", -b, (1 - a) * _sqrt_shift(l, r1), 2 * a,
                       -2 * a * b - (1 - a) ** 2 * (l + r1), b - 2 * a, keys=l)


def _charpoly_join(G1, r1, a, mu, v, c, label):
    """The factorization of the module docstring for G1 joined with a second
    graph given only by its split: mu the n2 - k eigenvalues of A_alpha(G2)
    orthogonal to the cell-constant vectors, descending, and (v, c) the k
    cell-constant eigenpairs. label names the arrowhead's factor."""
    n1, m1 = G1.n, G1.m
    n2 = len(mu) + len(v)
    diagonal = np.concatenate(([a * (n1 - 1 + n2) + (1 - a) * (n1 - 1 - r1), 2 * a],
                               a * n1 + v))
    weights = np.concatenate(([2 * r1 * (1 - a) ** 2], n1 * (1 - a) ** 2 * c))
    block = np.diag(diagonal)
    block[0, 1:] = block[1:, 0] = np.sqrt(weights)
    arrowhead = CoronalFactor(block, n1 + a * n2 - (1 - a) * r1 - 1, diagonal[1:],
                              weights, label)
    families = (_linears("g2-eigenvalue", a * n1 + mu, keys=mu),
                _join_quadratics(_adjacency_spectrum(G1)[1:], n1, n2, r1, a), arrowhead)
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
    a = _float_alpha(alpha)
    r = _require_regular_base(G, "central-graph closed form")
    return _charpoly_join(G, r, a, _EMPTY, _EMPTY, _EMPTY, "principal")


def spectrum_central_regular(G, alpha):
    """Spectrum of A_alpha(central_graph(G)) from the factorization; the
    result has exactly n + m values."""
    return _spectrum(charpoly_central_regular(G, alpha))


# ---------------------------------------------------------------------------
# central vertex join

def charpoly_cvjoin(G1, g2, alpha):
    """Factored characteristic polynomial of A_alpha(central_vertex_join(G1, G2)).

    G1 must be r1-regular with r1 >= 2; G2 is any Graph, or a (p, q) tuple
    for K_{p,q}. The cells of G2 are its coarsest equitable partition, or
    the parts {P, Q} for a tuple (so the coronal factor of K_{p,q} is a
    quartic even when p = q). One checked eigendecomposition of
    A_alpha(G2) + sigma P splits, by index, into the n2 - k eigenvalues
    orthogonal to the cell-constant vectors, listed as "g2-eigenvalue"
    linear factors, and the k cell-constant pairs that build the coronal
    arrowhead (see the module docstring).
    """
    a = _float_alpha(alpha)
    r1 = _require_regular_base(G1, "vertex-join closed form")
    if isinstance(g2, tuple):
        p, q = g2
        if p < 1 or q < 1:
            raise ParameterError(f"need p, q >= 1, got ({p}, {q})")
        G2, colour = generate("complete_bipartite", [p, q]), [0] * p + [1] * q
    else:
        G2, colour = g2, [0] * g2.n
        for i, cell in enumerate(equitable_partition(g2)):
            for u in cell:
                colour[u] = i
    n2, k = G2.n, max(colour) + 1

    # sigma exceeds the spread of A_alpha(G2), whose spectral radius is at
    # most its largest degree, so the cell-constant eigenvalues come last
    M = a_alpha_matrix(G2, a)
    sigma = 2 * M.sum(axis=1).max() + 1
    colour = np.array(colour)
    same = colour[:, None] == colour
    M += sigma * (same / same.sum(axis=1))
    w, V = _eigh_checked(M)
    return _charpoly_join(G1, r1, a, w[:n2 - k][::-1], w[n2 - k:] - sigma,
                          V[:, n2 - k:].sum(axis=0) ** 2, "coronal")


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
