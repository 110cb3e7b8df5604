"""Exact characteristic polynomials over integers and rationals.

charpoly_int is the one exact engine. It has two routes, chosen by one exact
integer test on the input:

- Power sums. Let rho be the largest absolute row sum. When
  n * max(rho, 2)^n < 2^63, decided in Python integers, every entry of A^k
  for k <= n, every partial sum forming it and every trace product used is
  below 2^63, so the power sums s_k = tr A^k are exact in int64. They come
  from about 2 sqrt(n) matrix products by baby-step giant-step (Paterson
  and Stockmeyer, SIAM J. Comput. 2 (1973) 60-66), and Newton's identities
  over Python integers turn them into the coefficients. The max(rho, 2)
  caps this route at n <= 57: on larger matrices with rho <= 1 the
  O(n^3.5) product chain loses to Hessenberg. Inside the domain the one
  slower corner is rho <= 1 at n of about 50 to 57, which no caller builds:
  at n = 56 a perfect matching takes 1.38 against 1.17 ms and the zero
  matrix 1.38 against 0.99 ms (best of 100, one core of an Intel Xeon,
  numpy 2.4).
- Hessenberg. Every other matrix takes Hessenberg reduction and the
  Hessenberg recurrence, O(n^3) per prime, run on a (K, n, n) int64 stack
  of K word-size primes at once and reconstructed by CRT over one basis.
  The prime budget is Hadamard's bound on the principal minors: with row
  2-norms |r_i|, every coefficient is at most B = prod_i (1 + ceil(|r_i|))
  in absolute value, B is computed in integer arithmetic, and primes are
  taken downward from the order's int64 limit until their product exceeds
  2B, so the result is exact, not heuristic. This is the standard
  multimodular coefficient bound (Dumas, Pernet and Wan, "Efficient
  computation of the characteristic polynomial", ISSAC 2005).

charpoly_exact scales a rational matrix to integers and enters the engine
through charpoly_int, so every exact charpoly runs there.

The tests cross-check both routes against each other and against an
independent determinant by fraction-preserving Gaussian elimination
(tests/reference.py).
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from fractions import Fraction

import numpy as np

from .errors import InternalCheckError, ParameterError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the largest n with n * 2^n < 2^63, the power-sum route's order limit
_POWER_SUM_MAX_ORDER = 57


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


def _crt_symmetric(residues, primes, prod):
    """For each row of residues, one residue per prime, the integer of least
    absolute value with those residues; prod is the primes' product P. One
    basis serves every row: e_k = (P / p_k) ((P / p_k)^-1 mod p_k) is 1 mod
    p_k and 0 mod every other prime, so sum_k r_k e_k has the residues."""
    basis = [prod // p * pow(prod // p, -1, p) for p in primes]
    xs = (sum(map(operator.mul, r, basis)) % prod for r in residues)
    return [x - prod if 2 * x > prod else x for x in xs]


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

    A matrix with n * max(rho, 2)^n < 2^63, rho its largest absolute row sum,
    takes the power-sum route, which needs no bound (see the module
    docstring). Every other matrix takes the Hessenberg route modulo primes
    with this budget. The coefficient of x^k is (-1)^(n-k) times the sum of
    the principal minors of order n-k. By Hadamard's inequality a minor on
    the rows S is at most the product of those rows' 2-norms, and a row of a
    submatrix is no longer than the full row, so |c_k| <= e_{n-k}(|r_1|,
    ..., |r_n|), the elementary symmetric polynomial of the row norms. Every
    coefficient is therefore at most B = prod_i (1 + ceil(|r_i|)), computed
    in integers, and residues modulo primes whose product exceeds 2B fix it
    exactly.
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
        raise ParameterError("matrix is not square")
    bound, A = _row_norm_bound(rows)
    if n <= _POWER_SUM_MAX_ORDER and A is not None and _powers_fit_int64(A):
        return _charpoly_power_sums(A)
    return _charpoly_hessenberg(rows, bound, A)


def _powers_fit_int64(A):
    """n * max(rho, 2)^n < 2^63, with rho the largest absolute row sum of the
    int64 matrix A, decided in Python integers. The row sums are formed in
    int64 only when n * max|a_ij| < 2^63 keeps them exact; otherwise rho is
    at least max|a_ij| and the test fails anyway."""
    n = len(A)
    amax = max(int(A.max()), -int(A.min()))
    if n * amax >= 2 ** 63:
        return False
    rho = int(np.abs(A).sum(axis=1).max())
    return n * max(rho, 2) ** n < 2 ** 63


def _charpoly_power_sums(A):
    """Charpoly of the int64 matrix A from its power sums (_power_sums) by
    Newton's identities k c_(n-k) = -sum_(i<=k) c_(n-k+i) s_i over Python
    integers. Each division is exact for exact s_k, so a remainder can only
    come from a defect."""
    n, s = len(A), _power_sums(A)
    c = [1]  # c[k] is the coefficient of x^(n-k)
    for k in range(1, n + 1):
        q, r = divmod(-sum(map(operator.mul, reversed(c), s[1:k + 1])), k)
        if r:
            raise InternalCheckError(
                f"power sums of an order-{n} matrix fail Newton's identity at k = {k}")
        c.append(q)
    return c[::-1]


def _power_sums(A):
    """s_k = tr A^k for k = 0..n, by baby-step giant-step (Paterson and
    Stockmeyer, SIAM J. Comput. 2 (1973) 60-66): with b = isqrt(n), the baby
    steps A^0..A^b and the giant steps A^(bi), bi <= n, take about 2 sqrt(n)
    products, and s_(bi+j) = <A^(bi), (A^j)^T>.

    The caller has checked n * max(rho, 2)^n < 2^63 (_powers_fit_int64).
    Every entry of A^k, and every partial sum forming it, is at most rho^k;
    every partial sum of a trace product is at most n rho^(bi+j). Only the
    products with bi + j <= n are formed, so no int64 value wraps."""
    n = len(A)
    b = math.isqrt(n)
    powers = [np.eye(n, dtype=np.int64), A]
    while len(powers) <= b:
        powers.append(powers[-1] @ A)
    giants = [powers[0], powers[b]]
    while b * len(giants) <= n:
        giants.append(giants[-1] @ powers[b])
    babies = np.stack(powers[:b]).transpose(0, 2, 1).reshape(b, n * n)
    s = []
    for i, G in enumerate(giants):
        s += (babies[:n + 1 - b * i] @ G.ravel()).tolist()
    return s


def _charpoly_hessenberg(rows, bound, A):
    """Charpoly of the square integer matrix `rows` modulo the primes that
    cover `bound` (see _row_norm_bound), by Hessenberg reduction and the
    Hessenberg recurrence on one int64 stack, then CRT; A is `rows` as int64
    or None."""
    primes, prod = _primes_above(len(rows), bound)
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
    return _crt_symmetric(_hessenberg_charpoly_mod(H, p).T.tolist(), primes, prod)


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
    the charpoly of M has coefficients p_k * c^(k-n).

    Entries are numbers.Rational (int, bool, Fraction, numpy integers) or
    finite floats, taken at their exact binary value; any other entry, a
    string, nan or None included, raises ParameterError.

    The matrix is walked once, giving each entry the slot of its object
    among the distinct entry objects (a_alpha_matrix shares one Fraction
    per distinct value); only those are converted and scaled, and the
    integer matrix is read off their slots."""
    slot, entries, cells = {}, [], []
    for row in M:
        cells.append([])
        for x in row:
            k = slot.setdefault(id(x), len(entries))
            if k == len(entries):
                entries.append(x)  # kept alive, so no other entry reuses its id
            cells[-1].append(k)
    values = [_exact_value(x) for x in entries]
    c = math.lcm(*(x.denominator for x in values))
    scaled = [x.numerator * (c // x.denominator) for x in values]
    ints = charpoly_int([[scaled[k] for k in r] for r in cells])
    return [Fraction(ck, c ** (len(cells) - k)) for k, ck in enumerate(ints)]


def _exact_value(x):
    """An entry of charpoly_exact as an int or Fraction of Python ints."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, numbers.Rational):  # Fraction(x) keeps a numpy int64 numerator, which wraps
        return Fraction(int(x.numerator), int(x.denominator))
    if isinstance(x, (float, np.floating)) and np.isfinite(x):
        return Fraction(*x.as_integer_ratio())
    raise ParameterError(
        f"charpoly_exact needs rational or finite float entries, got {x!r}")
