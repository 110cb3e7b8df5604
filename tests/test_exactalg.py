import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphacentral import (InternalCheckError, ParameterError, a_alpha_matrix,
                          central_vertex_join, char_poly, exactalg, generate)
from alphacentral.exactalg import (_crt_symmetric, _is_prime, _prime_below, _primes_above,
                                   _row_norm_bound, charpoly_exact, charpoly_int)
from reference import crt_garner, det_exact


def _assert_charpoly_matches_det(m, coeffs, xs):
    """coeffs must evaluate to det(xI - m) at every x; n+1 points pin them."""
    n = len(m)
    for x in xs:
        shifted = [[x * (i == j) - m[i][j] for j in range(n)] for i in range(n)]
        assert sum(c * x ** k for k, c in enumerate(coeffs)) == det_exact(shifted)


def test_prime_spot_checks():
    assert _is_prime(2) and _is_prime(3) and _is_prime(268435399)
    assert not _is_prime(1) and not _is_prime(268435398) and not _is_prime(25)
    for n in range(-2, 3000):
        assert _is_prime(n) == (n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1)))


def test_crt_basis_agrees_with_garner_on_random_residues():
    rng = random.Random(47)
    engine = [_prime_below(2 ** 30)]
    while len(engine) < 9:
        engine.append(_prime_below(engine[-1]))
    for primes in ([7], [3, 5, 7], engine[:1], engine[:2], engine[:5], engine):
        prod = math.prod(primes)
        # the symmetric range: negative values, both ends and zero included
        values = [0, 1, -1, prod // 2, -(prod // 2)]
        values += [rng.randrange(-(prod // 2), prod // 2 + 1) for _ in range(40)]
        rows = [[v % p for p in primes] for v in values]
        rows += [[rng.randrange(p) for p in primes] for _ in range(40)]
        got = _crt_symmetric(rows, primes, prod)
        assert got == [crt_garner(r, primes) for r in rows]
        assert got[:len(values)] == values


def test_charpoly_int_swap_matrix():
    assert charpoly_int([[0, 1], [1, 0]]) == [-1, 0, 1]


def test_charpoly_int_diagonal():
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    assert charpoly_int([[1, 0, 0], [0, 2, 0], [0, 0, 3]]) == [-6, 11, -6, 1]


def test_charpoly_int_matches_float_eigenvalues():
    rng = random.Random(11)
    for n in (1, 2, 5, 9, 17):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-5, 5)
        coeffs = charpoly_int(m)
        w = np.linalg.eigvalsh(np.array(m, dtype=float))
        approx = np.poly(w)[::-1]
        scale = max(1.0, max(abs(c) for c in approx))
        assert max(abs(c - a) for c, a in zip(coeffs, approx)) < 1e-6 * scale


def test_charpoly_int_big_entries():
    # entries large enough that the modular images differ per prime
    m = [[10 ** 12, 3], [3, -(10 ** 11)]]
    tr = 10 ** 12 - 10 ** 11
    det = 10 ** 12 * -(10 ** 11) - 9
    assert charpoly_int(m) == [det, -tr, 1]


def test_det_exact_known():
    assert det_exact([[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(3)]]) == \
        Fraction(1, 2)
    assert det_exact([[1, 2], [2, 4]]) == 0


def test_det_exact_needs_pivot_swap():
    assert det_exact([[0, 1], [1, 0]]) == -1


@pytest.mark.parametrize("engine", [charpoly_int, det_exact])
def test_non_square_matrix_is_a_parameter_error(engine):
    with pytest.raises(ParameterError, match="not square"):
        engine([[1, 2, 3], [4, 5, 6]])


def test_charpoly_exact_scaling():
    # charpoly of M derived from the integer engine on lcm-scaled entries
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(0)]]
    coeffs = charpoly_exact(m)
    # x^2 - tr x + det
    assert coeffs == [Fraction(-1, 9), Fraction(-1, 2), Fraction(1)]


def test_charpoly_exact_reads_entries_by_value_not_by_object():
    # the same matrix as shared objects, as fresh objects from a generator
    # whose rows are freed once read, and with exact float and int entries
    values = [[Fraction(1, 2), Fraction(1, 3), Fraction(0)],
              [Fraction(1, 3), Fraction(2), Fraction(-3, 4)],
              [Fraction(0), Fraction(-3, 4), Fraction(1, 2)]]
    shared = np.empty((3, 3), dtype=object)
    shared[:] = values
    fresh = ([Fraction(x.numerator, x.denominator) for x in row] for row in values)
    mixed = [[0.5, Fraction(1, 3), 0], [Fraction(1, 3), 2, -0.75], [0, -0.75, 0.5]]
    want = charpoly_exact(values)
    assert charpoly_exact(shared) == charpoly_exact(fresh) == charpoly_exact(mixed) == want
    _assert_charpoly_matches_det(values, want, [Fraction(2), Fraction(-1, 2)])


def test_charpoly_exact_agrees_with_determinant():
    rng = random.Random(3)
    for n in (2, 4, 6):
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[j][i] = m[i][j]
        _assert_charpoly_matches_det(m, charpoly_exact(m), [Fraction(2), Fraction(-1, 2)])


def test_charpoly_int_pivot_vanishing_mod_one_prime():
    # the largest prime below the engine's limit is used at every bit budget;
    # it zeroes the first subdiagonal entry modulo that prime alone, so only
    # that prime swaps rows and columns at the first step
    n = 5
    q = _prime_below(min(math.isqrt((2 ** 63 - 1) // n), 2 ** 30))
    rng = random.Random(7)
    m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    m[1][0], m[2][0] = q, 3
    coeffs = charpoly_int(m)
    assert len(coeffs) == n + 1 and coeffs[n] == 1
    _assert_charpoly_matches_det(m, coeffs, range(n + 1))


def test_charpoly_int_hessenberg_and_triangular_inputs():
    rng = random.Random(13)
    n = 7
    hess = [[rng.randint(-6, 6) if i <= j + 1 else 0 for j in range(n)]
            for i in range(n)]
    _assert_charpoly_matches_det(hess, charpoly_int(hess), range(n + 1))
    tri = [[rng.randint(-6, 6) if i >= j else 0 for j in range(n)] for i in range(n)]
    # prod(x - tri[i][i]), multiplied out over Python ints (descending)
    expected = np.array([1], dtype=object)
    for i in range(n):
        expected = np.convolve(expected, np.array([1, -tri[i][i]], dtype=object))
    assert charpoly_int(tri) == expected[::-1].tolist()


def test_charpoly_int_zero_matrix_and_order_one():
    assert charpoly_int([[0] * 6 for _ in range(6)]) == [0] * 6 + [1]
    assert charpoly_int([[0]]) == [0, 1]
    assert charpoly_int([[-7]]) == [7, 1]
    assert charpoly_int([]) == [1]


def test_charpoly_int_entries_beyond_int64_take_the_bignum_branch():
    big = 2 ** 62 + 11
    m = [[big, 3], [5, -(2 ** 70)]]
    assert charpoly_int(m) == [big * -(2 ** 70) - 15, -(big - 2 ** 70), 1]
    m3 = [[big, 1, -2], [4, 0, 2 ** 65], [1, -1, 3]]
    _assert_charpoly_matches_det(m3, charpoly_int(m3), range(4))


def test_charpoly_int_random_nonsymmetric_order_30():
    rng = random.Random(29)
    n = 30
    m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    _assert_charpoly_matches_det(m, charpoly_int(m), [Fraction(3, 2), Fraction(-5, 7)])


def test_strongly_regular_16_6_2_2_adjacency_charpoly_closed_form():
    # SRG(16,6,2,2) has spectrum 6, 2^6, (-2)^9
    expected = np.array([1, -6], dtype=object)  # descending
    for root, mult in ((2, 6), (-2, 9)):
        for _ in range(mult):
            expected = np.convolve(expected, np.array([1, -root], dtype=object))
    expected = expected[::-1].tolist()
    for name in ("shrikhande", "rook4x4"):
        g = generate(name)
        m = [[0] * g.n for _ in range(g.n)]
        for i, j in g.edges:
            m[i][j] = m[j][i] = 1
        assert charpoly_int(m) == expected


def test_charpoly_int_rejects_non_integral_entries():
    # int() would truncate 0.5 to 0 and 1.9 to 1, and Fraction(1, 2) to 0
    for bad in ([[0.5, 0], [0, 1.9]], [[Fraction(1, 2), 0], [0, 1]],
                [[2.0, 0], [0, 1]], np.array([[1.0, 2.0], [2.0, 1.0]])):
        with pytest.raises(ParameterError, match="integer entries"):
            charpoly_int(bad)


def test_charpoly_int_takes_numpy_integers_and_bools():
    a = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    # K3: (x - 2)(x + 1)^2
    assert charpoly_int(a) == charpoly_int(a.astype(bool)) == charpoly_int(a.tolist()) \
        == [-2, -3, 0, 1]


def _chosen_primes(m):
    primes, prod = _primes_above(len(m), _row_norm_bound(m)[0])
    assert prod == math.prod(primes)
    return primes, prod


_ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-(2 ** 80), 2 ** 80),
                     st.sampled_from([2 ** 62, -(2 ** 62), 2 ** 63 - 1, -(2 ** 63), 2 ** 64]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_prime_budget_covers_every_coefficient(m):
    coeffs = charpoly_int(m)
    primes, prod = _chosen_primes(m)
    assert _row_norm_bound(m)[0] >= sum(abs(c) for c in coeffs)
    assert prod > 2 * max(abs(c) for c in coeffs)
    # the fewest primes: dropping the last one no longer covers the bound
    assert math.prod(primes[:-1]) <= 2 * _row_norm_bound(m)[0]
    _assert_charpoly_matches_det(m, coeffs, range(len(m) + 1))


def test_row_norm_bound_is_tight_on_one_signed_diagonals():
    # with every d_i of one sign, |c_k| = e_{n-k}(|d|) and their sum is
    # prod (1 + |d_i|), which is the bound itself
    for d in ([3, 0, 7, 1, 2 ** 40], [-1, -5, -(2 ** 70), 0]):
        m = [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]
        coeffs = charpoly_int(m)
        assert _row_norm_bound(m)[0] == sum(abs(c) for c in coeffs)
        assert _chosen_primes(m)[1] > 2 * max(abs(c) for c in coeffs)


def test_row_norm_bound_rounds_norms_up():
    # x^2 - 2x + 2: the coefficients sum to 5 in absolute value, while the
    # row norms are sqrt(2); rounding them down would give (1 + 1)^2 = 4
    m = [[1, 1], [-1, 1]]
    assert charpoly_int(m) == [2, -2, 1]
    assert _row_norm_bound(m)[0] == (1 + 2) ** 2


def test_row_norm_bound_is_tight_on_a_scaled_hadamard_matrix():
    # Sylvester's H_8 has orthogonal rows of norm sqrt(8): |det| meets
    # Hadamard's inequality, here (2^40 * sqrt(8))^8 = 2^332
    h = [[1]]
    for _ in range(3):
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    m = [[2 ** 40 * x for x in r] for r in h]
    coeffs = charpoly_int(m)
    assert abs(coeffs[0]) == 2 ** 332
    bound = _row_norm_bound(m)[0]
    assert sum(abs(c) for c in coeffs) <= bound < 2 * abs(coeffs[0])
    assert _chosen_primes(m)[1] > 2 * max(abs(c) for c in coeffs)
    _assert_charpoly_matches_det(m, coeffs, range(9))


def test_order_67_join_needs_at_most_ten_primes(monkeypatch):
    # the largest coefficient has 197 bits and the row-norm bound 236: 9 primes
    used = []
    hessenberg = exactalg._hessenberg_mod

    def spy(H, p):
        used.append(len(p))
        return hessenberg(H, p)

    monkeypatch.setattr(exactalg, "_hessenberg_mod", spy)
    g = central_vertex_join(generate("shrikhande"), generate("path", [3]))
    poly = char_poly(a_alpha_matrix(g, Fraction(2, 5)))
    assert g.n == 67 and len(poly.coeffs) == 68
    assert len(used) == 1 and used[0] <= 10


def test_rational_charpoly_enters_the_engine_through_charpoly_int(monkeypatch):
    calls = []
    engine = exactalg.charpoly_int

    def spy(M):
        calls.append(len(M))
        return engine(M)

    monkeypatch.setattr(exactalg, "charpoly_int", spy)
    char_poly(a_alpha_matrix(generate("petersen"), Fraction(1, 3)))
    assert calls == [10]


def test_prime_set_below_twice_the_bound_is_refused(monkeypatch):
    q = _prime_below(2 ** 30)
    monkeypatch.setattr(exactalg, "_primes_above", lambda n, bound: ([q], q))
    with pytest.raises(InternalCheckError, match="coefficient bound"):
        charpoly_int([[2 ** 40, 0], [0, 2 ** 40]])
