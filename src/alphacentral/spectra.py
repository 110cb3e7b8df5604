"""The degree/adjacency interpolation family A_alpha = alpha*D + (1-alpha)*A,
its spectra, characteristic polynomials, coronals, Hoffman polynomials, and
energy.

Two scalar modes run through this module. Float mode (numpy float64) backs
every oracle comparison; exact mode (Fraction entries, alpha passed as a
Fraction) backs cospectrality certificates where float equality would prove
nothing. Functions dispatch on the dtype of their inputs.

Each kind of input is decided in one place:

- alpha by one gate, _check_alpha: a real number (int, float, Fraction,
  numpy scalar) in [0, 1], or [0, 1) for the energy, is returned as
  given, and anything else raises ParameterError. Every entry point takes
  its alpha from the gate; one that computes in float converts it only
  after the gate.
- a size (the order of coronal_regular, the p and q of coronal_kpq_alpha)
  by graphs._size, the package's one integer rule; coronal_regular's row
  sum by the real-number test of the alpha gate, with no range.
- whether a matrix is exact by its dtype: char_poly sends the integer
  kinds that exactalg.charpoly_int takes (bool, signed, unsigned) and
  object arrays to the exact engine.

Every eigensolve but one goes through one gate, _eigh_checked: the input
must be square and exactly symmetric (a nan entry is refused by position),
is converted to float64 entry by entry with float(), and its eigenpairs
must pass the TOL_EIG residual check. The empty matrix has the empty
spectrum. The exception is closedform.ArrowheadStack.roots, which calls
np.linalg.eigvalsh directly on its stack of small arrowhead blocks; its
secular test, each root against its factor to TOL_ROOT, takes the place
of the residual check.
Polynomial evaluates and serializes; it has no other algebra.
A float polynomial given by its roots (char_poly, hoffman_poly) is
multiplied out in one place, _from_roots, where no roots give the constant.
Every exact charpoly runs in exactalg's engine, entered through
exactalg.charpoly_int.

Numerical contracts (absolute unless noted):

- TOL_EIG:      relative eigensolver residual, ||M V - V L||_F <= TOL_EIG*n*||M||_2;
                R = M V - V L is divided by ||M|| before squaring when
                its plain sum of squares fails
- TOL_NUM:      value comparisons against closed forms in the tests; no
                package code reads it
- CLUSTER_TOL:  width of a (value, multiplicity) group: a value joins the
                current group while it lies within CLUSTER_TOL of the
                group's first (largest) value
- TOL_HOFFMAN:  max-norm of P(A) - J for the Hoffman polynomial
- TOL_SING:     minimum allowed distance from a resolvent evaluation point
                to the spectrum; scaled by max(1, |pole|max), also the
                width below which verify.coronal_equal_check merges poles
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import exactalg
from .errors import InternalCheckError, ParameterError, PreconditionError, SingularityError
from .graphs import _size, _sizes, is_connected, regularity

TOL_EIG = 1e-12
TOL_NUM = 1e-9
CLUSTER_TOL = 1e-7
TOL_HOFFMAN = 1e-8
TOL_SING = 1e-8


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Spectrum:
    """All real eigenvalues, descending, with a clustered multiplicity view.

    values keeps the raw solver output; groups, derived from values on first
    use, is the clustered view used to compare against closed-form
    multiplicity claims.
    """

    values: tuple

    @classmethod
    def from_values(cls, values):
        """The values sorted descending; groups follow on first use."""
        return cls(tuple(np.sort(np.asarray(values, dtype=float).ravel())[::-1].tolist()))

    @cached_property
    def groups(self):
        """(first value, count) per group. A value joins the current group
        when it lies less than CLUSTER_TOL below the group's first (largest)
        value, not below its neighbour, so every group spans less than
        CLUSTER_TOL and a chain of closely spaced values may split into
        several groups."""
        groups = []
        for v in self.values:
            if groups and groups[-1][0] - v < CLUSTER_TOL:
                rep, mult = groups[-1]
                groups[-1] = (rep, mult + 1)
            else:
                groups.append((v, 1))
        return tuple(groups)

    @property
    def n(self):
        return len(self.values)

    def to_json(self):
        return {"values": list(self.values),
                "groups": [[v, m] for v, m in self.groups]}

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial, coefficients in ascending degree order.

    Coefficients are floats or Fractions; mixing is not supported. The zero
    polynomial is the empty/zero tuple; otherwise the leading coefficient
    is nonzero.
    """

    coeffs: tuple

    @classmethod
    def of(cls, coeffs):
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0 * x if not self.coeffs else self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def to_json(self):
        cs = [str(c) if isinstance(c, Fraction) else float(c) for c in self.coeffs]
        return {"coeffs": cs}


@dataclass(frozen=True)
class RationalFunction:
    """Ratio of two polynomials; the carrier for matrix coronals."""

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self):
        if all(c == 0 for c in self.denominator.coeffs):
            raise ParameterError("rational function with zero denominator")

    def __call__(self, x):
        return self.numerator(x) / self.denominator(x)


# ---------------------------------------------------------------------------
# the matrix family

def a_alpha_matrix(G, alpha):
    """alpha*D(G) + (1-alpha)*A(G).

    Row i sums to degree d_i for every alpha; the trace is 2*m*alpha.
    Both modes start from G's cached adjacency matrix A, take D from its
    row sums, and return a new array the caller owns. A Fraction alpha
    selects exact mode and yields an object array of Fractions; a float
    yields float64, filled as (1-alpha)*A with alpha*d_i then written onto
    the zero diagonal: bit for bit the sum, with one temporary.
    """
    alpha = _check_alpha(alpha)
    A = G._adjacency
    deg = A.sum(axis=1)
    if isinstance(alpha, Fraction):
        # one Fraction per distinct value, shared by every entry that holds it
        M = np.where(A == 1, 1 - alpha, Fraction(0))
        diag = {d: alpha * int(d) for d in set(deg.tolist())}
        M[np.diag_indices(G.n)] = [diag[d] for d in deg.tolist()]
        return M
    M = (1.0 - alpha) * A
    M.reshape(-1)[::G.n + 1] = alpha * deg
    return M


def _check_alpha(alpha, allow_one=True):
    """The one alpha gate: alpha as given when it is a real number in [0, 1]
    ([0, 1) without allow_one); anything else raises ParameterError."""
    if not isinstance(alpha, (float, numbers.Real)):  # float first: the ABC check is slow
        raise ParameterError(f"alpha must be a real number, got {alpha!r}")
    hi_ok = alpha <= 1 if allow_one else alpha < 1
    if not (0 <= alpha and hi_ok):
        span = "[0, 1]" if allow_one else "[0, 1)"
        raise ParameterError(f"alpha must lie in {span}, got {alpha}")
    return alpha


# ---------------------------------------------------------------------------
# eigensolving

def eigenvalues_sym(M):
    """All eigenvalues of a symmetric matrix, descending, as a Spectrum.

    Backed by numpy's symmetric eigensolver, whose eigenvalues come back
    ascending, so they are reversed and not sorted again. The
    backward-stability contract ||M V - V L||_F <= TOL_EIG * n * ||M||_2 is
    checked on every call; a violation raises InternalCheckError.
    """
    w, _ = _eigh_checked(M)
    return Spectrum(tuple(w[::-1].tolist()))


def _eigh_checked(M):
    """Ascending eigenvalues and orthonormal eigenvectors of a symmetric
    matrix, with the TOL_EIG residual contract checked."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {M.shape}")
    if not (M == M.T).all():
        nan = np.argwhere(M != M)
        if nan.size:
            raise ParameterError(f"matrix has a nan entry at {tuple(nan[0].tolist())}")
        raise ParameterError("matrix is not exactly symmetric")
    # float() of each entry, Fractions included
    M = M.astype(float, copy=False)
    n = M.shape[0]
    w, V = np.linalg.eigh(M)
    try:
        scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    except IndexError:  # the empty matrix
        return w, V
    R = M @ V - V * w
    resid = math.sqrt(np.vdot(R, R))
    # a nan residual fails, and so does an eigenvalue that overflowed to inf
    if not resid <= TOL_EIG * n * scale < math.inf:
        # vdot squares R's entries, which overflows above about 1e154
        resid = scale * np.linalg.norm(R / scale)
        if not resid <= TOL_EIG * n * scale < math.inf:
            raise InternalCheckError(
                f"eigensolver residual {resid:.3e} exceeds {TOL_EIG:.0e} * n * ||M||")
    return w, V


def char_poly(M):
    """Characteristic polynomial det(lambda*I - M), monic, ascending coeffs.

    Exact mode (a bool, integer or object array: integer or Fraction
    entries) runs the multi-prime Hessenberg engine, O(n^3) per prime with
    CRT reconstruction, through exactalg.charpoly_exact and returns
    Fraction coefficients. Float mode multiplies out the eigenvalues of the
    (symmetric) input; the empty matrix gives the polynomial 1.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {M.shape}")
    if M.dtype.kind in "biuO":
        return Polynomial.of(exactalg.charpoly_exact(M.tolist()))
    return _from_roots(eigenvalues_sym(M).values)


def _from_roots(roots, scale=1.0):
    """scale * prod(x - r) over the roots as a float Polynomial; the
    constant scale when there are none."""
    coeffs = scale * np.poly(np.asarray(roots, dtype=float))  # descending
    return Polynomial.of(np.atleast_1d(coeffs)[::-1].tolist())


# ---------------------------------------------------------------------------
# coronals: Gamma_M(x) = sum of entries of (xI - M)^{-1}

def coronal_eval(M, x):
    """Evaluate the coronal of a symmetric matrix at a point x in spectral
    form.

    With M = V diag(w) V^T, Gamma(x) = sum_i c_i / (x - w_i) where
    c_i = (v_i^T 1)^2: one O(n^3) eigendecomposition, then O(n) per point.
    Within a repeated eigenvalue the eigenvectors are arbitrary, but the sum
    of their c_i is ||P_i 1||^2 for the eigenprojection P_i, so Gamma is not.
    A graph's coronal needs only its k cell-constant pairs, which
    _coronal_quotient gives without the whole matrix. Raises
    SingularityError when x is within TOL_SING of an eigenvalue.
    """
    w, V = _eigh_checked(M)
    d = float(x) - w
    gap = np.abs(d).min(initial=math.inf)
    if gap < TOL_SING:
        raise SingularityError(
            f"x={x} is within {gap:.2e} of the spectrum (tolerance {TOL_SING:.0e})")
    return float((V.sum(axis=0) ** 2 / d).sum())


def _coronal_quotient(quotient, a):
    """(w, c), w ascending, with Gamma_{A_a(G)}(x) = sum(c / (x - w)), for a
    float a and the alpha-free quotient (d, R, s) of a graph G over k
    cells (Graph._quotient, or K_{p,q}'s two parts written down by
    closedform._g2_split): the coronal lives on the k x k symmetrized
    quotient S = a diag(d) + (1 - a) R. The one place where a quotient
    becomes coronal pairs.

    The cell-constant vectors span an A_a(G)-invariant space that holds
    the all-ones vector, so only their k eigenpairs carry weight, and a
    unit eigenvector u of S gives c = (u^T sqrt(s))^2 for the cell sizes
    s. w holds the k cell-constant eigenvalues, so the other n - k
    eigenvalues of A_a(G) are not poles.

    - One cell (every regular graph) is read off: the all-ones vector is an
      eigenvector of A_a(G) with eigenvalue d at every a, so (w, c) = (d, s).
    - Two cells are diagonalized by one Jacobi rotation in closed form
      (Golub and Van Loan, Matrix Computations, section 8.5), in scalar
      arithmetic. It divides only by S's off-diagonal entry y, and S is
      diagonal where y = 0 (a = 1, or no edge between the cells). The
      residues of coronal_kpq_alpha would instead divide by the gap
      between S's eigenvalues, which is 0 at p = q, a = 1.
    - Three cells or more take one checked eigensolve of order k per alpha.
    """
    d, R, s = quotient
    if len(s) == 1:
        return d, s
    if len(s) == 2:
        (r00, r01), (_, r11) = R
        x, z, y = a * d[0] + (1 - a) * r00, a * d[1] + (1 - a) * r11, (1 - a) * r01
        # t, the tan of the rotation angle, is at most 1 in size, and 0 where y = 0
        tau = (z - x) / (2 * y) if y else math.inf
        t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
        cos = 1 / math.sqrt(1 + t * t)
        sin = t * cos
        sp, sq = math.sqrt(s[0]), math.sqrt(s[1])
        # S (cos, -sin) = (x - t y)(cos, -sin) and S (sin, cos) = (z + t y)(sin, cos)
        (w1, c1), (w2, c2) = sorted(((x - t * y, (cos * sp - sin * sq) ** 2),
                                     (z + t * y, (sin * sp + cos * sq) ** 2)))
        return np.array([w1, w2]), np.array([c1, c2])
    w, U = _eigh_checked(a * np.diag(d) + (1 - a) * R)
    return w, (np.sqrt(s) @ U) ** 2


def coronal_regular(n, a):
    """Coronal of any n x n matrix with constant row sum a: n / (x - a).

    For an r-regular graph both A and A_alpha have row sums r, so this is
    their coronal with a = r. n is decided by graphs._size; a row sum that
    is not a real number (the numbers.Real test of _check_alpha, without
    its range) raises ParameterError.
    """
    n = _size(n, "order must be a positive integer")
    if not isinstance(a, numbers.Real):
        raise ParameterError(f"row sum must be a real number, got {a!r}")
    return RationalFunction(Polynomial.of([n]), Polynomial.of([-a, 1]))


def coronal_kpq_alpha(p, q, alpha):
    """Closed-form coronal of A_alpha(K_{p,q}).

    ((p+q)x - alpha(p+q)^2 + 2pq) / (x^2 - alpha(p+q)x + (2 alpha - 1)pq).
    At alpha = 0 this reduces to the adjacency coronal of K_{p,q}.
    """
    p, q = _sizes("complete_bipartite", (p, q), ("p", "q"))
    alpha = _check_alpha(alpha)
    s = p + q
    num = Polynomial.of([-alpha * s * s + 2 * p * q, s])
    den = Polynomial.of([(2 * alpha - 1) * p * q, -alpha * s, 1])
    return RationalFunction(num, den)


# ---------------------------------------------------------------------------
# Hoffman polynomial

def hoffman_poly(G):
    """Polynomial P with P(A(G)) = J for a connected regular graph.

    Built from the clustered distinct adjacency eigenvalues r = l_1 > l_2 >
    ... > l_t as n * prod(x - l_i) / prod(r - l_i) over i >= 2. The defining
    identity is verified to TOL_HOFFMAN before returning.
    """
    r = regularity(G)
    if r is None:
        raise PreconditionError("Hoffman polynomial needs a regular graph")
    if not is_connected(G):
        raise PreconditionError("Hoffman polynomial needs a connected graph")
    A = G._adjacency
    groups = Spectrum.from_values(G._adjacency_eigenvalues).groups
    rest = np.array([v for v, _ in groups[1:]])
    poly = _from_roots(rest, G.n / np.prod(r - rest))
    PA = _poly_on_matrix(poly, A)
    dev = np.max(np.abs(PA - np.ones((G.n, G.n))))
    if dev > TOL_HOFFMAN:
        raise InternalCheckError(f"||P(A) - J||_max = {dev:.3e} exceeds {TOL_HOFFMAN:.0e}")
    return poly


def _poly_on_matrix(poly, A):
    n = A.shape[0]
    acc = np.zeros((n, n))
    for c in reversed(poly.coeffs):
        acc = acc @ A + float(c) * np.eye(n)
    return acc


# ---------------------------------------------------------------------------
# energy

def a_alpha_energy(G, alpha):
    """Sum of |eigenvalue - 2*alpha*m/n| over the spectrum of A_alpha(G).

    Defined for alpha in [0, 1); reduces to (1-alpha) times the adjacency
    energy on regular graphs.
    """
    a = float(_check_alpha(alpha, allow_one=False))
    spec = eigenvalues_sym(a_alpha_matrix(G, a))
    shift = 2.0 * a * G.m / G.n
    return float(sum(abs(v - shift) for v in spec.values))
