"""Exact linear algebra over integers and rationals.

Two independent routes are kept deliberately separate:

- charpoly_int, the one exact engine: Hessenberg reduction and the
  Hessenberg recurrence, O(n^3) per prime, run on a (K, n, n) int64 stack
  of K word-size primes at once and reconstructed by CRT (Garner). The
  prime budget is Hadamard's bound on the principal minors: with row
  2-norms |r_i|, every coefficient is at most B = prod_i (1 + ceil(|r_i|))
  in absolute value, B is computed in integer arithmetic, and primes are
  taken downward from the order's int64 limit until their product exceeds
  2B, so the result is exact, not heuristic. This is the standard
  multimodular coefficient bound (Dumas, Pernet and Wan, "Efficient
  computation of the characteristic polynomial", ISSAC 2005).
  charpoly_exact scales a rational matrix to integers and enters the
  engine through charpoly_int, so every exact charpoly runs there.
- det_exact: plain fraction-preserving Gaussian elimination. Slower, used
  as the cross-check oracle for the charpoly route.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import numpy as np

from .errors import InternalCheckError, ParameterError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    # deterministic Miller-Rabin for n < 3.3e24
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _prime_below(p):
    """The largest prime below p."""
    for q in range(p - 1, 1, -1):
        if _is_prime(q):
            return q
    raise ValueError("prime supply exhausted")


def _crt_symmetric(residues, garner, prod):
    """Combine residues into the integer of least absolute value."""
    x = 0
    for r, (p, radix, inv) in zip(residues, garner):
        x += radix * ((r - x) * inv % p)
    return x - prod if 2 * x > prod else x


def _hessenberg_mod(H, p):
    """Reduce each H[k] to upper-Hessenberg form mod p[k] by similarity, in place.

    The pivot is chosen per prime: an entry can vanish mod one prime only.
    n * (p-1)^2 < 2^63 keeps each column sum exact in int64.
    """
    K, n, _ = H.shape
    ks, pc, pm = np.arange(K), p[:, None], p[:, None, None]
    for j in range(n - 2):
        piv = j + 1 + (H[:, j + 1:, j] != 0).argmax(axis=1)
        if (piv != j + 1).any():
            H[ks, j + 1], H[ks, piv] = H[ks, piv], H[ks, j + 1]
            H[ks, :, j + 1], H[ks, :, piv] = H[ks, :, piv], H[ks, :, j + 1]
        if not H[:, j + 2:, j].any():
            continue
        inv = [pow(int(u), -1, int(q)) if u else 0 for u, q in zip(H[:, j + 1, j], p)]
        mult = H[:, j + 2:, j] * np.array(inv, dtype=np.int64)[:, None] % pc
        # row ops L; rows j+1.. are zero left of column j
        H[:, j + 2:, j:] = (H[:, j + 2:, j:] - mult[:, :, None] * H[:, j + 1, None, j:]) % pm
        # column ops L^{-1}
        H[:, :, j + 1] = (H[:, :, j + 1] + np.einsum("kir,kr->ki", H[:, :, j + 2:], mult)) % pc


def _hessenberg_charpoly_mod(H, p):
    """Ascending charpoly coefficients of each upper-Hessenberg H[k] mod p[k]:
    P_m = x P_{m-1} - sum_{i<=m} h_im (h_{i+1,i} ... h_{m,m-1}) P_{i-1},
    with the subdiagonal products kept as a running suffix product."""
    n, pc = H.shape[1], p[:, None]
    P = np.zeros((len(p), n + 1, n + 1), dtype=np.int64)
    P[:, 0, 0] = 1
    suffix = np.ones((len(p), n), dtype=np.int64)
    for m in range(1, n + 1):
        suffix[:, :m - 1] = suffix[:, :m - 1] * H[:, m - 1, m - 2, None] % pc
        w = H[:, :m, m - 1] * suffix[:, :m] % pc
        P[:, m, 1:] = P[:, m - 1, :-1]
        # P_{i-1} has degree < m; the sum is at most n * (p-1)^2
        P[:, m, :m] = (P[:, m, :m] - np.einsum("ki,kid->kd", w, P[:, :m, :m])) % pc
    return P[:, n]


def charpoly_int(M):
    """Exact characteristic polynomial of a square integer matrix (sequence of
    sequences of ints, bools or numpy integers, or a numpy integer or bool
    array), as its n+1 monic coefficients in ascending degree order. Any
    other entry, a float or a Fraction included, raises ParameterError
    instead of being truncated.

    The coefficient of x^k is (-1)^(n-k) times the sum of the principal
    minors of order n-k. By Hadamard's inequality a minor on the rows S is at
    most the product of those rows' 2-norms, and a row of a submatrix is no
    longer than the full row, so |c_k| <= e_{n-k}(|r_1|, ..., |r_n|), the
    elementary symmetric polynomial of the row norms. Every coefficient is
    therefore at most B = prod_i (1 + ceil(|r_i|)), computed in integers, and
    residues modulo primes whose product exceeds 2B fix it exactly.
    """
    if isinstance(M, np.ndarray) and M.dtype.kind in "biu":
        M = M.tolist()  # numpy bools have no __index__
    try:
        rows = [[operator.index(x) for x in row] for row in M]
    except TypeError as exc:
        raise ParameterError(f"charpoly_int needs integer entries: {exc}") from None
    n = len(rows)
    if n == 0:
        return [1]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    bound, A = _row_norm_bound(rows)
    primes, prod = _primes_above(n, bound)
    if prod <= 2 * bound:
        raise InternalCheckError(
            f"prime product of {prod.bit_length()} bits does not exceed twice the "
            f"{bound.bit_length()}-bit coefficient bound")
    p = np.array(primes, dtype=np.int64)
    if A is not None:
        H = A[None] % p[:, None, None]
    else:
        H = np.array([[[x % q for x in r] for r in rows] for q in primes], dtype=np.int64)
    _hessenberg_mod(H, p)
    coeffs_mod = _hessenberg_charpoly_mod(H, p).T.tolist()
    # Garner's constants: the product of the earlier primes and its inverse
    garner, radix = [], 1
    for q in primes:
        garner.append((q, radix, pow(radix, -1, q)))
        radix *= q
    return [_crt_symmetric(c, garner, prod) for c in coeffs_mod]


def _row_norm_bound(rows):
    """(B, A): B = prod_i (1 + ceil(||r_i||_2)) bounds every charpoly
    coefficient of the square integer matrix `rows`; A is the matrix as int64,
    or None when an entry does not fit. The squared norms are summed in int64
    only when n * max|a_ij|^2 < 2^63 keeps every sum exact."""
    try:
        A = np.array(rows, dtype=np.int64)
    except OverflowError:
        A = None
    if A is not None and len(rows) * max(int(A.max()), -int(A.min())) ** 2 < 2 ** 63:
        sq = (A * A).sum(axis=1).tolist()
    else:
        sq = [sum(x * x for x in r) for r in rows]
    bound = 1
    for s in sq:
        r = math.isqrt(s)
        bound *= 2 + r if r * r < s else 1 + r
    return bound, A


def _primes_above(n, bound):
    """The engine's primes for order n, taken downward from its limit until
    their product exceeds 2 * bound, as (primes, product)."""
    # n * (p-1)^2 < 2^63 keeps the engine's int64 sums exact
    p = min(math.isqrt((2 ** 63 - 1) // n), 2 ** 30)
    primes, prod = [], 1
    while prod <= 2 * bound:
        p = _prime_below(p)
        primes.append(p)
        prod *= p
    return primes, prod


def charpoly_exact(M):
    """Exact characteristic polynomial of a square rational matrix, as ascending
    monic Fraction coefficients. Scales by the lcm c of the entries'
    denominators and runs the integer engine: if p is the charpoly of c*M,
    the charpoly of M has coefficients p_k * c^(k-n)."""
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
            for row in M]
    c = math.lcm(*{x.denominator for row in rows for x in row})
    ints = charpoly_int([[x.numerator * (c // x.denominator) for x in row]
                         for row in rows])
    return [Fraction(ck, c ** (len(rows) - k)) for k, ck in enumerate(ints)]


def det_exact(M):
    """Determinant by exact Gaussian elimination over Fractions.

    Independent of the charpoly route; used to cross-check it.
    """
    rows = [[Fraction(x) for x in row] for row in M]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    sign = 1
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pivot = rows[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = rows[r][col] / pivot
            if factor == 0:
                continue
            rows[r][col] = Fraction(0)
            for cix in range(col + 1, n):
                rows[r][cix] -= factor * rows[col][cix]
    return sign * det
