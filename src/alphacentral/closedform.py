"""Factored characteristic polynomials and explicit spectra for the central
graph of a regular graph and for central vertex joins, evaluated without ever
assembling the large matrix.

For an r-regular G on n vertices (m = nr/2 edges, r >= 2) with adjacency
eigenvalues r = l_1 >= l_2 >= ... >= l_n, the characteristic polynomial of
A_alpha(central_graph(G)) factors as

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

where Gamma is the coronal of A_alpha(G2). The (1-a)^2 power on the coronal
coupling is the one confirmed against the dense eigensolver; see
verify.formula_discrepancy_notes for the recorded check of the single-power
variant.

Every non-linear factor is rooted as the eigenvalues of a small symmetric
block, so its roots are real by construction and two close but distinct
roots are never merged. The base-eigenvalue quadratics are the 2x2 blocks

    central:  [[a(n-1) - (1-a)(1 + l_i),     (1-a) sqrt(l_i + r)],  [., 2a]]
    join:     [[a(n1+n2) - (1-a) l_j - 1,    (1-a) sqrt(l_j + r1)], [., 2a]]

built for every l at once and rooted by one batched eigvalsh. The central
principal factor is the central block at l_1 = r with (1-a) n added to its
top-left entry: the symmetrized quotient of A_alpha over the parts {V, S}
(original and subdivision vertices) of the built graph.

The k cells of the coarsest equitable partition of G2 (the parts {P, Q} for
K_{p,q} given as (p, q)) span an A_alpha(G2)-invariant space holding the
all-ones vector, so Gamma(y) = sum of c_i / (y - v_i) over the k
cell-constant eigenpairs (v_i, x_i), c_i = (x_i^T 1)^2. One
eigendecomposition of A_alpha(G2) + sigma P (P the projector onto
cell-constant vectors, sigma = 2 Delta(G2) + 1) lists the n2 - k other
eigenvalues, the linear factors, first. The bracket times the k linear
factors it cancels is the characteristic polynomial of the arrowhead

    [[a(n1-1+n2) + (1-a)(n1-1-r1),  (1-a) sqrt(2 r1),  (1-a) sqrt(n1 c)^T],
     [.,                            2a,                0                 ],
     [.,                            0,                 diag(a n1 + v)    ]]

the symmetrized quotient of A_alpha over V1, S and the cells of G2 (Godsil
and Royle, Algebraic Graph Theory, section 9.3): 3x3 for regular G2, 4x4
for K_{p,q}. Its roots are checked against the bracket in secular form.

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
        out, start = ([(self.lead, 0, 1)], 1) if self.lead else ([], 0)
        if self.keys is None:
            if self.count > start:
                out.append((self.label, start, self.count - start))
            return out
        for key, mult in Spectrum.from_values(self.keys).groups:
            out.append((f"{self.label} {key:.10g}", start, mult))
            start += mult
        return out


_LOW_HIGH = np.array([[-1.0], [1.0]])  # F(z - h) <= 0 <= F(z + h)


@dataclass(frozen=True, eq=False)
class CoronalFactor:
    """The join's coronal factor: the bracket of the factorization times the
    k linear factors x - a n1 - v_i it cancels, of degree 2 + k, rooted as
    the eigenvalues of the arrowhead block.

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
    label = "coronal"
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

        F increases on each pole-free piece of [z - h, z + h] and runs from
        -inf to +inf between two poles, so the interval holds a root iff
        [F(z - h) <= 0] + [F(z + h) >= 0] + (poles inside) >= 2; a pole of
        weight 0 is itself a root. No coefficient or product over the poles
        is formed, so the bound holds at any k and any pole multiplicity.
        """
        z = np.linalg.eigvalsh(self.block)
        h = TOL_ROOT * max(1.0, -z[0], z[-1])
        y = z + h * _LOW_HIGH
        F = y - self.t - (self.weights / (y[..., None] - self.poles)).sum(axis=-1)
        signs = F * _LOW_HIGH >= 0
        if signs.all():
            return z[None, :]
        ok = signs.sum(axis=0) + (np.abs(z[:, None] - self.poles) < h).sum(axis=1) >= 2
        if not ok.all():
            raise InternalCheckError(
                f"coronal root {z[np.argmin(ok)]:.6g} is not within {h:.3e} of a "
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
        """All roots with multiplicity, descending, from the symmetric blocks."""
        parts = [np.full(self.linear_mult, float(self.linear_root))]
        parts += [fam.roots().ravel() for fam in self.families]
        return np.sort(np.concatenate(parts))[::-1].tolist()

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
# central graph of a regular graph

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


def _f_principal_central(n, r, a):
    return (2 * a * n - 2 * a + 2 * a * r - 2 * r, -(2 * a + n - 1 - r * (1 - a)), 1.0)


def charpoly_central_regular(G, alpha):
    """Factored characteristic polynomial of A_alpha(central_graph(G)).

    G must be r-regular with r >= 2. The adjacency eigenvalues of G come
    from the dense eigensolver; the factor list keeps their clustered
    multiplicities. Row 0 of the block stack belongs to the Perron root r
    and gives the principal factor: the original vertices of the central
    graph induce the complement J - I - A(G), which maps the all-ones vector
    to n - 1 - r times itself but an eigenvector for l orthogonal to it to
    -1 - l times itself, so row 0 gains (1-a) n on its top-left entry.
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
    n1, m1 = G1.n, G1.m
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
    mu = w[:n2 - k][::-1]
    c = V[:, n2 - k:].sum(axis=0) ** 2

    diagonal = np.concatenate(([a * (n1 - 1 + n2) + (1 - a) * (n1 - 1 - r1), 2 * a],
                               w[n2 - k:] + (a * n1 - sigma)))
    weights = np.concatenate(([2 * r1 * (1 - a) ** 2], n1 * (1 - a) ** 2 * c))
    block = np.diag(diagonal)
    block[0, 1:] = block[1:, 0] = np.sqrt(weights)
    coronal = CoronalFactor(block, n1 + a * n2 - (1 - a) * r1 - 1, diagonal[1:], weights)
    families = (_linears("g2-eigenvalue", a * n1 + mu, keys=mu),
                _join_quadratics(_adjacency_spectrum(G1)[1:], n1, n2, r1, a), coronal)
    return FactoredCharPoly(2 * a, m1 - n1, families, n1 + m1 + n2)


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
