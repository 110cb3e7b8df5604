import math
import random
from fractions import Fraction

import numpy as np
import pytest

from alphacentral import (Graph, InternalCheckError, ParameterError, PreconditionError,
                          SingularityError, a_alpha_energy, a_alpha_matrix,
                          adjacency_matrix, char_poly, coronal_eval,
                          coronal_kpq_alpha, coronal_regular, degree_matrix,
                          eigenvalues_sym, generate, hoffman_poly)
from alphacentral.spectra import TOL_NUM, Polynomial, Spectrum
from alphacentral.exactalg import det_exact


# --- the matrix family

def test_a_half_of_k2():
    m = a_alpha_matrix(generate("complete", [2]), 0.5)
    assert np.allclose(m, [[0.5, 0.5], [0.5, 0.5]])


def test_alpha_zero_is_adjacency():
    g = generate("petersen")
    assert (a_alpha_matrix(g, 0.0) == adjacency_matrix(g)).all()


def test_alpha_one_on_c4_is_twice_identity():
    assert (a_alpha_matrix(generate("cycle", [4]), 1.0) == 2 * np.eye(4)).all()


def test_alpha_domain():
    g = generate("complete", [3])
    for bad in (-0.1, 1.5, Fraction(9, 8)):
        with pytest.raises(ParameterError):
            a_alpha_matrix(g, bad)


def test_exact_mode_matrix():
    m = a_alpha_matrix(generate("complete", [2]), Fraction(1, 3))
    assert m[0, 0] == Fraction(1, 3) and m[0, 1] == Fraction(2, 3)


def test_exact_mode_matrix_matches_entrywise_definition():
    # reference: every entry set one at a time from alpha*d_i and 1 - alpha
    graphs = [generate("petersen"), generate("path", [4]), Graph.from_edges(3, []),
              Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])]
    for g in graphs:
        deg = g.degree_sequence
        for a in (Fraction(0), Fraction(2, 5), Fraction(1)):
            ref = [[Fraction(0)] * g.n for _ in range(g.n)]
            for i in range(g.n):
                ref[i][i] = a * deg[i]
            for i, j in g.edges:
                ref[i][j] = ref[j][i] = 1 - a
            m = a_alpha_matrix(g, a)
            assert m.dtype == object and m.shape == (g.n, g.n)
            assert all(type(x) is Fraction for x in m.ravel())
            assert m.tolist() == ref


def test_row_sums_and_trace():
    for fam, params in [("petersen", []), ("complete_bipartite", [2, 3]),
                        ("path", [5])]:
        g = generate(fam, params)
        for a in (0.0, 0.3, 1.0):
            m = a_alpha_matrix(g, a)
            assert np.allclose(m.sum(axis=1), g.degree_sequence, atol=TOL_NUM)
            assert abs(np.trace(m) - 2 * g.m * a) < TOL_NUM


def test_alpha_difference_is_scaled_laplacian():
    g = generate("petersen")
    a, b = 0.7, 0.2
    lap = degree_matrix(g) - adjacency_matrix(g)
    diff = a_alpha_matrix(g, a) - a_alpha_matrix(g, b)
    assert np.allclose(diff, (a - b) * lap, atol=1e-12)


def test_half_alpha_psd():
    # for alpha >= 1/2 the family is positive semidefinite
    for g in (generate("petersen"), generate("complete_bipartite", [2, 3])):
        for a in (0.5, 0.75, 1.0):
            w = eigenvalues_sym(a_alpha_matrix(g, a)).values
            assert w[-1] >= -TOL_NUM


# --- eigensolving

def test_c6_spectrum():
    # circulant closed form: 2 cos(2 pi k / 6)
    s = eigenvalues_sym(adjacency_matrix(generate("cycle", [6])))
    assert np.allclose(s.values, [2, 1, 1, -1, -1, -2], atol=1e-9)
    assert [m for _, m in s.groups] == [1, 2, 2, 1]


def test_k4_spectrum():
    s = eigenvalues_sym(adjacency_matrix(generate("complete", [4])))
    assert np.allclose(s.values, [3, -1, -1, -1], atol=1e-9)


@pytest.mark.parametrize("a", [0.0, 0.25, 0.7])
def test_k2_family_spectrum(a):
    s = eigenvalues_sym(a_alpha_matrix(generate("complete", [2]), a))
    assert np.allclose(s.values, [1.0, 2 * a - 1], atol=1e-12)


def test_nonsymmetric_rejected():
    with pytest.raises(ParameterError):
        eigenvalues_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_non_finite_eigenvalues_fail_the_residual_check():
    # eigh returns nan for an infinite entry, so the residual is nan, and
    # 1e308 entries overflow an eigenvalue to inf, so the bound is inf; both
    # must fail the TOL_EIG check instead of returning a Spectrum
    for m in ([[np.inf, 1.0], [1.0, 0.0]], [[0.0, -np.inf], [-np.inf, 0.0]],
              [[1e308, 1e308], [1e308, 1e308]]):
        with np.errstate(all="ignore"), pytest.raises(InternalCheckError, match="residual"):
            eigenvalues_sym(np.array(m))


def test_spectrum_groups_by_distance_from_the_groups_first_value():
    # both adjacent gaps are 0.6e-7 < CLUSTER_TOL, but 0.0 lies 1.2e-7 below
    # the group's first value, so it starts a group of its own
    assert Spectrum.from_values([1.2e-7, 0.6e-7, 0.0]).groups == ((1.2e-07, 2), (0.0, 1))


def test_eigensolver_takes_integer_and_exact_input():
    ints = np.array([[2, 1], [1, 2]])
    exact = np.array([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]], dtype=object)
    for m in (ints, exact):
        assert eigenvalues_sym(m).values == pytest.approx((3.0, 1.0), abs=1e-14)
    with pytest.raises(ParameterError):
        eigenvalues_sym(np.array([[Fraction(0), Fraction(1)], [Fraction(1, 2), Fraction(0)]]))


def test_exact_matrix_spectrum_is_that_of_its_entrywise_float_conversion():
    m = a_alpha_matrix(generate("petersen"), Fraction(1, 3))
    floats = np.array([[float(x) for x in row] for row in m])
    assert eigenvalues_sym(m) == eigenvalues_sym(floats)


def test_empty_matrix_has_the_empty_spectrum():
    assert eigenvalues_sym(np.zeros((0, 0))) == Spectrum(values=())


def test_residual_check_does_not_overflow_on_huge_entries():
    # the squared residual of a matrix with entries near 1e300 overflows,
    # but the residual itself is tiny relative to ||M||
    values = eigenvalues_sym(np.array([[1e300, 0.0], [0.0, 1.0]])).values
    assert values == pytest.approx((1e300, 1.0), rel=1e-12)
    petersen = adjacency_matrix(generate("petersen"))
    big = eigenvalues_sym(1e200 * petersen).values
    assert np.allclose(np.array(big) / 1e200, eigenvalues_sym(petersen).values, atol=1e-12)


@pytest.mark.parametrize("m, where", [([[np.nan, 1.0], [1.0, 0.0]], r"\(0, 0\)"),
                                      ([[0.0, 2.0], [np.nan, 0.0]], r"\(1, 0\)")])
def test_nan_entry_is_named(m, where):
    with pytest.raises(ParameterError, match="nan entry at " + where):
        eigenvalues_sym(np.array(m))


def test_spectrum_json_shape():
    s = Spectrum.from_values([2.0, 1.0, 1.0])
    j = s.to_json()
    assert j["values"] == [2.0, 1.0, 1.0]
    assert j["groups"] == [[2.0, 1], [1.0, 2]]


# --- characteristic polynomials

def test_charpoly_zero_matrix():
    p = char_poly(np.zeros((3, 3)))
    assert np.allclose(p.coeffs, [0, 0, 0, 1])


def test_charpoly_of_the_empty_float_matrix_is_one():
    # the empty product, as the exact path gives for the empty object matrix
    assert char_poly(np.zeros((0, 0))) == Polynomial((1.0,))


def test_charpoly_k2():
    p = char_poly(adjacency_matrix(generate("complete", [2])))
    assert np.allclose(p.coeffs, [-1, 0, 1], atol=1e-12)


def test_charpoly_degree_one_central_k3_exact():
    # the central graph of K3 is 2-regular on 6 vertices, so at alpha = 1
    # the matrix is 2I and the polynomial is (x - 2)^6
    from alphacentral import central_graph
    ck3 = central_graph(generate("complete", [3]))
    p = char_poly(a_alpha_matrix(ck3, Fraction(1)))
    assert p.coeffs == (64, -192, 240, -160, 60, -12, 1)


def test_charpoly_exact_matches_float():
    g = generate("petersen")
    pf = char_poly(a_alpha_matrix(g, 0.25))
    pe = char_poly(a_alpha_matrix(g, Fraction(1, 4)))
    assert np.allclose([float(c) for c in pe.coeffs], pf.coeffs, atol=1e-8)


def test_charpoly_exact_vs_elimination_determinant():
    # cross-check on small orders: charpoly evaluated at integer points
    # equals det(xI - M) computed by exact Gaussian elimination
    rng = random.Random(7)
    for n in range(1, 9):
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        p = char_poly(np.array(m, dtype=object))
        for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 2)):
            shifted = [[x * (1 if i == j else 0) - m[i][j] for j in range(n)]
                       for i in range(n)]
            assert p(x) == det_exact(shifted)


def test_polynomial_json():
    p = Polynomial.of([Fraction(-1, 2), Fraction(1)])
    assert p.to_json() == {"coeffs": ["-1/2", "1"]}
    q = Polynomial.of([0.0, 1.0])
    assert q.to_json() == {"coeffs": [0.0, 1.0]}


# --- coronals

def test_coronal_regular_petersen():
    # constant row sum r = 3 on 10 vertices: Gamma(5) = 10/(5-3) = 5
    assert coronal_eval(adjacency_matrix(generate("petersen")), 5.0) == pytest.approx(5.0, abs=1e-10)
    assert coronal_regular(10, 3)(5.0) == pytest.approx(5.0)


def test_coronal_k23_at_3():
    val = coronal_eval(adjacency_matrix(generate("complete_bipartite", [2, 3])), 3.0)
    assert val == pytest.approx(9.0, abs=1e-9)


def test_coronal_zero_matrix():
    assert coronal_eval(np.zeros((7, 7)), 1.0) == pytest.approx(7.0, abs=1e-12)


def _petersen_k4_star():
    # Petersen, K4 and K_{1,3} side by side at alpha = 0.3: the two cubic
    # parts share the eigenvalue 3, whose eigenspace carries ||P 1||^2 = 14
    # however eigh splits it between two eigenvectors; 1.6 (five times) and
    # -0.5 (four times) repeat with P 1 = 0
    edges = (list(generate("petersen").edges)
             + [(i, j) for i in range(10, 14) for j in range(i + 1, 14)]
             + [(14, 15), (14, 16), (14, 17)])
    return a_alpha_matrix(Graph.from_edges(18, edges), 0.3)


def _random_symmetric():
    b = np.random.default_rng(7).standard_normal((12, 12))
    return b + b.T


@pytest.mark.parametrize("make", [_random_symmetric, _petersen_k4_star,
                                  lambda: np.zeros((5, 5))],
                         ids=["random", "petersen+k4+star", "zero"])
def test_coronal_spectral_form_matches_linear_solve(make):
    m = make()
    n = m.shape[0]
    w = np.linalg.eigvalsh(m)
    points = [x for x in np.linspace(w[0] - 2.0, w[-1] + 2.0, 201)
              if np.min(np.abs(w - x)) >= 0.1]
    assert len(points) > 150
    for x in points:
        solved = np.ones(n) @ np.linalg.solve(x * np.eye(n) - m, np.ones(n))
        # abs guards the zeros of Gamma between poles, where no relative
        # error is meaningful
        assert coronal_eval(m, x) == pytest.approx(solved, rel=1e-12, abs=1e-12)


def test_coronal_singularity():
    with pytest.raises(SingularityError):
        coronal_eval(adjacency_matrix(generate("petersen")), 3.0)


def test_coronal_regular_trivial():
    assert coronal_regular(1, 0)(2.0) == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        coronal_regular(0, 1)


@pytest.mark.parametrize("x", [4.0, 5.0, 10.0])
@pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_coronal_regular_agrees_with_solve(x, a):
    g = generate("petersen")
    closed = coronal_regular(10, 3)(x)
    solved = coronal_eval(a_alpha_matrix(g, a), x)
    assert abs(closed - solved) < TOL_NUM


def test_coronal_kpq_alpha_zero_reduces_to_adjacency_form():
    rf = coronal_kpq_alpha(2, 3, 0.0)
    assert list(rf.numerator.coeffs) == [12, 5]
    assert list(rf.denominator.coeffs) == [-6, 0, 1]


def test_coronal_kpq_value():
    assert coronal_kpq_alpha(2, 3, 0.5)(3.0) == pytest.approx(14.5 / 1.5)


@pytest.mark.parametrize("x", [3.0, 4.0, 7.0])
@pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75])
def test_coronal_kpq_agrees_with_solve(x, a):
    g = generate("complete_bipartite", [2, 3])
    closed = coronal_kpq_alpha(2, 3, a)(x)
    solved = coronal_eval(a_alpha_matrix(g, a), x)
    assert abs(closed - solved) < TOL_NUM


def test_coronal_kpq_exact_alpha():
    rf = coronal_kpq_alpha(2, 3, Fraction(1, 2))
    assert rf(Fraction(3)) == Fraction(29, 3)


# --- Hoffman polynomials

def test_hoffman_petersen():
    # distinct eigenvalues 3, 1, -2 give P(x) = (x - 1)(x + 2)
    p = hoffman_poly(generate("petersen"))
    assert np.allclose(p.coeffs, [-2, 1, 1], atol=1e-8)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_hoffman_complete(n):
    # K_n has two distinct eigenvalues (n-1 and -1), so the minimal
    # polynomial with P(A) = J is n (x + 1) / n = x + 1
    p = hoffman_poly(generate("complete", [n]))
    assert np.allclose(p.coeffs, [1.0, 1.0], atol=1e-8)
    # the scaled power form n (x+1)^(n-1) / n^(n-1) also maps A to J
    A = adjacency_matrix(generate("complete", [n]))
    power = n * np.linalg.matrix_power(A + np.eye(n), n - 1) / n ** (n - 1)
    assert np.allclose(power, np.ones((n, n)), atol=1e-8)


def test_hoffman_c4():
    p = hoffman_poly(generate("cycle", [4]))
    assert np.allclose(p.coeffs, [0, 1, 0.5], atol=1e-8)


def test_hoffman_preconditions():
    with pytest.raises(PreconditionError):
        hoffman_poly(generate("complete_bipartite", [2, 3]))
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                         (3, 4), (4, 5), (3, 5)])
    with pytest.raises(PreconditionError):
        hoffman_poly(two_triangles)


# --- energy

def test_energy_k2():
    assert a_alpha_energy(generate("complete", [2]), 0.0) == pytest.approx(2.0)


@pytest.mark.parametrize("a", [0.0, 0.25, 0.5])
def test_energy_petersen_regular_identity(a):
    # adjacency energy of the Petersen graph is 3 + 5*1 + 4*2 = 16
    assert a_alpha_energy(generate("petersen"), a) == pytest.approx((1 - a) * 16, abs=1e-9)


def test_energy_k23():
    assert a_alpha_energy(generate("complete_bipartite", [2, 3]), 0.0) == \
        pytest.approx(2 * math.sqrt(6), abs=1e-9)


def test_energy_alpha_one_rejected():
    with pytest.raises(ParameterError):
        a_alpha_energy(generate("complete", [3]), 1.0)
