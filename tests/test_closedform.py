import dataclasses
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from alphacentral import (Graph, InternalCheckError, PreconditionError,
                          a_alpha_matrix, adjacency_matrix, central_graph,
                          central_vertex_join, char_poly,
                          charpoly_central_regular, charpoly_cvjoin,
                          eigenvalues_sym, equitable_partition, generate,
                          spectrum_central_regular, spectrum_cvjoin_kpq,
                          spectrum_cvjoin_regular)
from alphacentral.closedform import TOL_MATCH, _arrowheads
from alphacentral.exactalg import det_exact

PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)], "paw")


def _oracle(graph, a):
    return eigenvalues_sym(a_alpha_matrix(graph, a))


def _max_dev(spec1, spec2):
    assert spec1.n == spec2.n
    return max(abs(x - y) for x, y in zip(spec1.values, spec2.values))


# --- block roots

def _quadratic_stack(corner, t, pole, weight):
    """A stack of 2x2 arrowheads [[corner, sqrt(weight)], [., pole]]
    against the factors (x - pole)(x - t) - weight."""
    corner, t, pole, weight = (np.array(v, dtype=float) for v in (corner, t, pole, weight))
    return _arrowheads("test", corner, t, pole[:, None], weight[:, None])


def test_block_roots_simple():
    # [[0, 1], [1, 0]] has characteristic polynomial x^2 - 1
    z = _quadratic_stack([0.0], [0.0], [0.0], [1.0]).roots()
    assert z == pytest.approx(np.array([[-1.0, 1.0]]), abs=1e-15)


def test_block_roots_wide_scale():
    # [[1e6, 1], [1, 0]]: x^2 - 1e6 x - 1, roots about 1e6 and -1e-6; the
    # small root keeps its relative accuracy, which the naive quadratic
    # formula loses
    fam = _quadratic_stack([1e6], [1e6], [0.0], [1.0])
    assert fam.factor(0).coeffs == (-1.0, -1e6, 1.0)
    small, big = fam.roots()[0]
    assert big == pytest.approx(5e5 + np.sqrt(2.5e11 + 1), rel=1e-12)
    assert small == pytest.approx(-1.0 / big, rel=1e-9)


def test_block_roots_alpha_one_double_root():
    # at alpha = 1 every block of C(K3), the principal arrowhead included, is
    # diag(2, 2): each double root 2 comes back exactly, not as a complex pair
    fac = charpoly_central_regular(generate("complete", [3]), 1.0)
    rooted = [fam.roots() for fam in fac.families]
    assert sum(z.size for z in rooted) == fac.order == 6
    for z in rooted:
        assert (z == 2.0).all()


def test_block_disagreeing_with_factor_raises():
    # the block's eigenvalues are +-1, the factor x^2 - 4's roots +-2
    fam = _quadratic_stack([0.0], [0.0], [0.0], [1.0])
    with pytest.raises(InternalCheckError, match="test root"):
        dataclasses.replace(fam, weights=np.array([[4.0]])).roots()
    # one bad row in a batch is enough: diag(1, 3) against (x - 3)(x - 1.001)
    fam = _quadratic_stack([0.0, 1.0], [0.0, 1.001], [0.0, 3.0], [1.0, 0.0])
    with pytest.raises(InternalCheckError, match="test root 1 "):
        fam.roots()


# --- central graph closed form

def test_central_k3_alpha0_factors():
    fac = charpoly_central_regular(generate("complete", [3]), 0.0)
    assert fac.linear_mult == 0 and fac.order == 6
    by_label = {f.label: f for f in fac.factors}
    assert np.allclose(by_label["principal"].poly.coeffs, [-4, 0, 1], atol=1e-12)
    eig = [f for f in fac.factors if f.label.startswith("base-eigenvalue")]
    assert len(eig) == 1 and eig[0].mult == 2
    assert np.allclose(eig[0].poly.coeffs, [-1, 0, 1], atol=1e-9)


@pytest.mark.parametrize("a", [0.0, 0.3, 0.9999, 1.0])
@pytest.mark.parametrize("name", ["petersen", "K5", "2K3"])
def test_central_json_matches_paper_polynomials(name, a):
    # the paper's factorization of A_alpha(C(G)), r-regular G on n vertices,
    # written out here and nowhere else: (x - 2a)^(m-n), the principal factor
    # x^2 - (2a + n - 1 - r(1-a)) x + (2an - 2a + 2ar - 2r), and per
    # adjacency eigenvalue l of G past one copy of r the quadratic
    # x^2 + ((1-a) l - 2a - na + 1) x - (1-a^2) l + (2n-r) a^2 - 2a(1-r) - r
    two_k3 = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    G = {"petersen": generate("petersen"), "K5": generate("complete", [5]),
         "2K3": two_k3}[name]
    n, m, r = G.n, G.m, G.degree_sequence[0]
    want = {"principal": ([2 * a * n - 2 * a + 2 * a * r - 2 * r,
                           -(2 * a + n - 1 - r * (1 - a)), 1.0], 1)}
    # these graphs have integer adjacency eigenvalues
    ls = np.rint(np.linalg.eigvalsh(adjacency_matrix(G))[:-1])
    for l, mult in zip(*np.unique(ls, return_counts=True)):
        want[f"base-eigenvalue {l:.10g}"] = (
            [-(1 - a * a) * l + (2 * n - r) * a * a - 2 * a * (1 - r) - r,
             (1 - a) * l - 2 * a - n * a + 1, 1.0], mult)
    j = charpoly_central_regular(G, a).to_json()
    assert j["linear"] == {"root": 2 * a, "mult": m - n}
    got = {f["label"]: (f["coeffs"], f["mult"]) for f in j["factors"]}
    assert got.keys() == want.keys()
    for label, (coeffs, mult) in want.items():
        assert got[label][1] == mult
        scale = max(abs(c) for c in coeffs)
        assert np.allclose(got[label][0], coeffs, rtol=0, atol=1e-12 * scale), label


@pytest.mark.parametrize("a", [0.0, 0.3, 0.9999, 1.0])
@pytest.mark.parametrize("second", ["K2", "C5", "K2,3"])
def test_join_json_matches_paper_polynomials(second, a):
    # the paper's factorization of A_alpha(G1 v G2), G1 r1-regular on n1
    # vertices and G2 on n2, written out here and nowhere else: per
    # adjacency eigenvalue l of G1 past one copy of r1 the quadratic
    # (x - 2a)(x - a(n1+n2) + (1-a) l + 1) - (1-a)^2 (l + r1), and per
    # eigenvalue mu of A_alpha(G2) orthogonal to its cell-constant vectors
    # the linear factor x - a n1 - mu
    G1 = generate("petersen")
    n1, m1, r1 = G1.n, G1.m, 3
    g2, n2, mus = {
        "K2": (generate("complete", [2]), 2, [2 * a - 1]),
        "C5": (generate("cycle", [5]), 5,
               [2 * a + 2 * (1 - a) * np.cos(2 * np.pi * k / 5) for k in range(1, 5)]),
        # vectors on one part summing to 0 have eigenvalue a times the other part
        "K2,3": ((2, 3), 5, [3 * a, 2 * a, 2 * a]),
    }[second]
    want = {}
    for l, mult in ((1, 5), (-2, 4)):  # Petersen's eigenvalues past r1 = 3
        b = (1 - a) * l + 1 - a * (n1 + n2)
        want[f"base-eigenvalue {l}"] = (
            [-2 * a * b - (1 - a) ** 2 * (l + r1), b - 2 * a, 1.0], mult)
    j = charpoly_cvjoin(G1, g2, a).to_json()
    assert j["linear"] == {"root": 2 * a, "mult": m1 - n1}
    got = {f["label"]: (f["coeffs"], f["mult"]) for f in j["factors"]}
    for label, (coeffs, mult) in want.items():
        assert got[label][1] == mult
        scale = max(abs(c) for c in coeffs)
        assert np.allclose(got[label][0], coeffs, rtol=0, atol=1e-12 * scale), label
    linears = [(coeffs, mult) for label, (coeffs, mult) in got.items()
               if label.startswith("g2-eigenvalue")]
    assert all(len(coeffs) == 2 and coeffs[1] == 1.0 for coeffs, _ in linears)
    roots = sorted(-coeffs[0] for coeffs, mult in linears for _ in range(mult))
    want_roots = sorted(a * n1 + mu for mu in mus)
    assert np.allclose(roots, want_roots, rtol=1e-12, atol=1e-12)
    assert {label for label in got if not label.startswith("g2-eigenvalue")} == \
        set(want) | {"coronal"}


def test_central_k3_alpha1_all_two():
    spec = spectrum_central_regular(generate("complete", [3]), 1.0)
    assert spec.n == 6
    assert all(abs(v - 2.0) < 1e-10 for v in spec.values)


def test_central_petersen_leading_exponent():
    for a in (0.0, 0.5):
        fac = charpoly_central_regular(generate("petersen"), a)
        assert fac.linear_mult == 5  # m - n = n(r-2)/2 = 10/2
        assert fac.linear_root == 2 * a


@pytest.mark.parametrize("family,params", [("cycle", [4]), ("petersen", [])])
@pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 1.0])
def test_central_spectrum_matches_oracle(family, params, a):
    g = generate(family, params)
    closed = spectrum_central_regular(g, a)
    oracle = _oracle(central_graph(g), a)
    assert _max_dev(closed, oracle) <= TOL_MATCH


def test_central_preconditions():
    with pytest.raises(PreconditionError, match="r >= 2"):
        spectrum_central_regular(generate("complete", [2]), 0.5)
    with pytest.raises(PreconditionError, match="regular"):
        spectrum_central_regular(generate("complete_bipartite", [2, 3]), 0.5)
    # connectivity is not needed: 2 K3 matches the oracle
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                         (3, 4), (4, 5), (3, 5)])
    closed = spectrum_central_regular(two_triangles, 0.5)
    assert _max_dev(closed, _oracle(central_graph(two_triangles), 0.5)) <= TOL_MATCH
    # the error directs callers to the oracle path
    with pytest.raises(PreconditionError, match="eigenvalues_sym"):
        spectrum_central_regular(generate("complete", [2]), 0.5)


def test_central_alpha_one_is_degree_multiset():
    g = generate("cycle", [5])
    spec = spectrum_central_regular(g, 1.0)
    degrees = sorted(central_graph(g).degree_sequence, reverse=True)
    assert np.allclose(spec.values, degrees, atol=1e-9)


# --- join closed form

def test_cvjoin_k3_k2_degree_and_point_values():
    # full polynomial of degree 8; evaluated against the exact elimination
    # determinant of (xI - A) for the explicitly built join
    fac = charpoly_cvjoin(generate("complete", [3]), generate("complete", [2]), 0.0)
    assert fac.order == 8
    j = central_vertex_join(generate("complete", [3]), generate("complete", [2]))
    A = [[1 if j.has_edge(i, k) else 0 for k in range(j.n)] for i in range(j.n)]
    for x in (0, 1, 3):
        det = det_exact([[x * (i == k) - A[i][k] for k in range(j.n)]
                         for i in range(j.n)])
        assert fac.evaluate(float(x)) == pytest.approx(float(det), rel=1e-9, abs=1e-9)


def test_cvjoin_cubic_roots_cover_oracle_remainder():
    # at alpha=0 the cubic must account for the oracle eigenvalues that the
    # linear and quadratic factors do not
    g1, g2 = generate("complete", [3]), generate("complete", [2])
    fac = charpoly_cvjoin(g1, g2, 0.0)
    roots = dict(fac.factor_roots())["coronal"]
    oracle = list(_oracle(central_vertex_join(g1, g2), 0.0).values)
    accounted = sorted([-1.0, 1.0, 1.0, -1.0, -1.0])  # g2 shift + quadratics
    remainder = list(oracle)
    for v in accounted:
        remainder.remove(min(remainder, key=lambda w: abs(w - v)))
    assert np.allclose(sorted(roots), sorted(remainder), atol=1e-8)


def test_cvjoin_petersen_k23_via_graph_argument():
    # a non-regular complete bipartite G2 reroutes to the quartic form
    g1 = generate("petersen")
    fac = charpoly_cvjoin(g1, generate("complete_bipartite", [2, 3]), 0.5)
    assert fac.order == 30
    spec = spectrum_cvjoin_kpq(g1, 2, 3, 0.5)
    oracle = _oracle(central_vertex_join(g1, generate("complete_bipartite", [2, 3])), 0.5)
    assert _max_dev(spec, oracle) <= TOL_MATCH


def test_cvjoin_leading_exponent_petersen():
    for second in (generate("complete", [2]), (2, 3)):
        fac = charpoly_cvjoin(generate("petersen"), second, 0.25)
        assert fac.linear_mult == 5  # m1 - n1


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("g2family,g2params", [
    ("complete", [2]), ("complete", [3]), ("cycle", [5]),
])
def test_cvjoin_regular_matches_oracle(a, g2family, g2params):
    g1 = generate("cycle", [6])
    g2 = generate(g2family, g2params)
    closed = spectrum_cvjoin_regular(g1, g2, a)
    oracle = _oracle(central_vertex_join(g1, g2), a)
    assert closed.n == oracle.n == g1.n + g1.m + g2.n
    assert _max_dev(closed, oracle) <= TOL_MATCH


def test_cvjoin_c4_k3_zero_multiplicity_subdivision_factor():
    # C4 has m = n, so 2 alpha never appears from the subdivision factor
    fac = charpoly_cvjoin(generate("cycle", [4]), generate("complete", [3]), 0.75)
    assert fac.linear_mult == 0


@pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (3, 3)])
@pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
def test_cvjoin_kpq_matches_oracle(p, q, a):
    g1 = generate("cycle", [4])
    closed = spectrum_cvjoin_kpq(g1, p, q, a)
    built = central_vertex_join(g1, generate("complete_bipartite", [p, q]))
    oracle = _oracle(built, a)
    assert closed.n == g1.n + g1.m + p + q
    assert _max_dev(closed, oracle) <= TOL_MATCH


def test_cvjoin_kpq_k3_case():
    # K3 joined with K_{2,3}: 3 + 3 + 5 = 11 eigenvalues
    g1 = generate("complete", [3])
    closed = spectrum_cvjoin_kpq(g1, 2, 3, 0.0)
    built = central_vertex_join(g1, generate("complete_bipartite", [2, 3]))
    assert closed.n == built.n == 11
    assert _max_dev(closed, _oracle(built, 0.0)) <= TOL_MATCH


def test_cvjoin_kpq_coronal_contributes_four_roots():
    fac = charpoly_cvjoin(generate("petersen"), (2, 3), 0.25)
    coronal = next(f for f in fac.factors if f.label == "coronal")
    assert coronal.degree == 4 and coronal.mult == 1


def test_cvjoin_petersen_1_1_no_part_factors():
    # n2 - k = 2 - 2 = 0: no A_alpha(K_{1,1}) eigenvalue lies off the two
    # parts, so there is no g2-eigenvalue factor and the coronal arrowhead
    # has the corner, the pole 2a and one pole per part
    fac = charpoly_cvjoin(generate("petersen"), (1, 1), 0.5)
    assert not any(f.label.startswith("g2-eigenvalue") for f in fac.factors)
    coronal, = (f for f in fac.factors if f.label == "coronal")
    assert coronal.degree == 4 and coronal.mult == 1


def test_cvjoin_kpq_part_multiplicity():
    # alpha (n1 + p) appears q - 1 times for (C4, p=2, q=4): the vectors on
    # Q that sum to 0 have A_alpha(K_{2,4}) eigenvalue alpha p
    fac = charpoly_cvjoin(generate("cycle", [4]), (2, 4), 0.25)
    part_q = next(f for f in fac.factors if f.label == "g2-eigenvalue 0.5")
    assert part_q.mult == 3
    root = -part_q.poly.coeffs[0] / part_q.poly.coeffs[1]
    assert root == pytest.approx(0.25 * (4 + 2))


def test_cvjoin_preconditions():
    with pytest.raises(PreconditionError, match="r >= 2"):
        charpoly_cvjoin(generate("complete", [2]), generate("complete", [3]), 0.5)
    with pytest.raises(PreconditionError, match="regular"):
        charpoly_cvjoin(PAW, generate("complete", [3]), 0.5)
    # G2 needs no precondition
    assert spectrum_cvjoin_regular(generate("complete", [3]), PAW, 0.5).n == 10


def test_cvjoin_generic_g2_evaluates():
    # PAW is neither regular nor complete bipartite: its coronal factor is
    # rooted like any other, and the product still reproduces the
    # characteristic polynomial pointwise
    g1 = generate("complete", [3])
    fac = charpoly_cvjoin(g1, PAW, 0.3)
    assert fac.order == 3 + 3 + 4
    built = central_vertex_join(g1, PAW)
    assert _max_dev(spectrum_cvjoin_regular(g1, PAW, 0.3), _oracle(built, 0.3)) <= TOL_MATCH
    poly = char_poly(a_alpha_matrix(built, 0.3))
    for x in (12.0, -4.7, 20.25):
        assert fac.evaluate(x) == pytest.approx(poly(x), rel=1e-8)


def test_cvjoin_generic_evaluate_needs_no_eigensolver(monkeypatch):
    # the coronal factor keeps the cell-constant eigenpairs of A_alpha(G2)
    # (paw has 3 cells), so evaluating the factored form at a point runs no
    # eigensolver and no linear solve
    g1 = generate("complete", [3])
    fac = charpoly_cvjoin(g1, PAW, 0.3)
    term = next(f.poly for f in fac.factors if f.label == "coronal")
    # poles 2 alpha and alpha n1 + v_i; weights n1 (1-alpha)^2 c_i past the first
    assert term.poles.shape == term.weights.shape == (1, 1 + 3)
    assert term.weights[0, 1:].sum() == pytest.approx(g1.n * 0.7 ** 2 * PAW.n)
    poly = char_poly(a_alpha_matrix(central_vertex_join(g1, PAW), 0.3))

    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolver or solve called per point")
    for name in ("eigh", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for x in (12.0, -4.7, 20.25, 3.3):
        assert fac.evaluate(x) == pytest.approx(poly(x), rel=1e-8)


def test_cvjoin_random_points_against_exact_charpoly():
    # rational alpha: the factored form evaluated at random points agrees
    # with the exact characteristic polynomial of the explicit matrix
    rng = random.Random(5)
    g1, g2 = generate("complete", [3]), generate("cycle", [5])
    alpha = Fraction(1, 4)
    fac = charpoly_cvjoin(g1, g2, float(alpha))
    exact = char_poly(a_alpha_matrix(central_vertex_join(g1, g2), alpha))
    for _ in range(5):
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
        want = float(exact(x))
        got = fac.evaluate(float(x))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_factor_degree_accounting():
    cases = [
        charpoly_central_regular(generate("petersen"), 0.5),
        charpoly_cvjoin(generate("cycle", [6]), generate("complete", [3]), 0.25),
        charpoly_cvjoin(generate("petersen"), (3, 3), 0.75),
        charpoly_cvjoin(generate("complete", [3]), PAW, 0.4),
    ]
    for fac in cases:
        total = fac.linear_mult + sum(f.degree * f.mult for f in fac.factors)
        assert total == fac.order


def test_cvjoin_alpha_one_is_degree_multiset():
    g1, g2 = generate("petersen"), generate("cycle", [5])
    spec = spectrum_cvjoin_regular(g1, g2, 1.0)
    degrees = sorted(central_vertex_join(g1, g2).degree_sequence, reverse=True)
    assert np.allclose(spec.values, degrees, atol=1e-9)


def test_factored_charpoly_json():
    fac = charpoly_cvjoin(generate("petersen"), (2, 3), 0.5)
    j = fac.to_json()
    assert j["linear"] == {"root": 1.0, "mult": 5}
    assert any(f["label"] == "coronal" and len(f["coeffs"]) == 5 for f in j["factors"])


# --- near alpha = 1, where distinct roots lie O(1 - alpha) apart

@pytest.mark.parametrize("g1,second,a", [
    ("petersen", (3, 3), 0.9999),
    ("petersen", "complete:3", 0.99999),
    ("petersen", "cycle:5", 1 - 1e-8),
    ("cycle:4", "cycle:5", 1 - 1e-8),
])
def test_near_one_matches_oracle(g1, second, a):
    def load(spec):
        name, _, arg = spec.partition(":")
        return generate(name, [int(arg)] if arg else [])
    g1 = load(g1)
    if isinstance(second, tuple):
        closed = spectrum_cvjoin_kpq(g1, *second, a)
        built = central_vertex_join(g1, generate("complete_bipartite", list(second)))
    else:
        g2 = load(second)
        closed = spectrum_cvjoin_regular(g1, g2, a)
        built = central_vertex_join(g1, g2)
    assert _max_dev(closed, _oracle(built, a)) <= 1e-8


@pytest.mark.parametrize("base,second,a", [
    (3, None, 1 - 1e-10),
    (4, 1, 1 - 2e-10),
    (4, (1, 2), 1 - 3e-10),
    (3, (1, 1), 1 - 1e-10),
    ("cycle:6", None, 1 - 1e-10),
    ("complete_bipartite:3,3", None, 1 - 2e-10),
    ("complete_bipartite:3,3", (1, 1), 1 - 3e-10),
    ("cycle:6", 2, 0.0),
])
def test_arrowhead_root_check_with_an_end_on_a_pole(base, second, a):
    # z + h or z - h rounds exactly onto a pole of the secular function: the
    # principal roots of C(K3) are 2a +- 2(1-a) with h = 2e-10, one pole
    # 2(1-a) away; the pole met in K3 v K_{1,1} has weight 0. A bipartite
    # base (C6, K_{3,3}) has the adjacency eigenvalue -r, whose
    # base-eigenvalue row has a pole 2a of weight 0 at its root. The check
    # accepts the roots without dividing by zero
    if isinstance(base, int):
        g1 = generate("complete", [base])
    else:
        name, _, params = base.partition(":")
        g1 = generate(name, [int(p) for p in params.split(",")])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if second is None:
            closed, built = spectrum_central_regular(g1, a), central_graph(g1)
        elif isinstance(second, tuple):
            closed = spectrum_cvjoin_kpq(g1, *second, a)
            built = central_vertex_join(g1, generate("complete_bipartite", list(second)))
        else:
            g2 = generate("complete", [second])
            closed, built = spectrum_cvjoin_regular(g1, g2, a), central_vertex_join(g1, g2)
    assert _max_dev(closed, _oracle(built, a)) <= TOL_MATCH


def test_close_g2_eigenvalues_keep_their_roots():
    # A_alpha(C5) at alpha = 1 - 1e-8 has eigenvalues 2.2e-8 apart, inside
    # CLUSTER_TOL: they share a factor label but keep their own roots
    g1, g2 = generate("petersen"), generate("cycle", [5])
    a = 1 - 1e-8
    fac = charpoly_cvjoin(g1, g2, a)
    shifted = [f for f in fac.factors if f.label.startswith("g2-eigenvalue")]
    assert sum(f.mult for f in shifted) == 4 and len(shifted) == 1
    roots = sorted(dict(fac.factor_roots())[shifted[0].label])
    want = sorted(np.linalg.eigvalsh(a_alpha_matrix(g2, a))[:-1] + a * g1.n)
    assert roots == pytest.approx(want, abs=1e-12)
    assert roots[-1] - roots[0] > 2e-8


# --- the coronal arrowhead for any G2

def _seeded_graph(seed, n, density):
    rng = random.Random(seed)
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < density])


def _coronal(fac):
    return next(f.poly for f in fac.factors if f.label == "coronal")


def test_coronal_json_matches_cubic_and_quartic():
    # coefficients of the hand-expanded cubic (regular G2) and quartic
    # (K_{2,3}) that the arrowhead replaced, at alpha = 0.3
    pet = generate("petersen")
    for second, want in ((generate("cycle", [5]), [4.2, 22.6, -14.0, 1.0]),
                         ((2, 3), [-7.56, -49.5, 56.2, -16.5, 1.0])):
        j = charpoly_cvjoin(pet, second, 0.3).to_json()
        (got,) = [f["coeffs"] for f in j["factors"] if f["label"] == "coronal"]
        assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_cvjoin_kpq_3_3_alpha_one_repeated_cell_eigenvalue():
    # A_1(K_{3,3}) = 3I: both cell-constant eigenvalues are 3 and every
    # coupling vanishes, so the arrowhead is diagonal with a repeated entry
    g1 = generate("petersen")
    fac = charpoly_cvjoin(g1, (3, 3), 1.0)
    coronal = _coronal(fac)
    assert coronal.degree == 4
    assert coronal.poles[0, 1:] == pytest.approx([g1.n + 3.0] * 2, abs=1e-12)
    built = central_vertex_join(g1, generate("complete_bipartite", [3, 3]))
    assert _max_dev(spectrum_cvjoin_kpq(g1, 3, 3, 1.0), _oracle(built, 1.0)) <= TOL_MATCH


def test_coronal_block_disagreeing_with_factor_raises():
    fac = charpoly_cvjoin(generate("petersen"), generate("cycle", [5]), 0.3)
    coronal = _coronal(fac)
    # a raised corner moves roots above the factor's, a lowered one below
    shifted, lowered = coronal.blocks.copy(), coronal.blocks.copy()
    shifted[0, 0, 0] += 1e-6
    lowered[0, 0, 0] -= 1e-6
    # a cell decoupled from V1 puts a root on a pole of nonzero weight,
    # where the factor has none
    decoupled = coronal.blocks.copy()
    decoupled[0, 0, 2] = decoupled[0, 2, 0] = 0.0
    for blocks in (shifted, lowered, decoupled):
        with pytest.raises(InternalCheckError, match="coronal root"):
            dataclasses.replace(coronal, blocks=blocks).roots()


def test_cvjoin_disconnected_base_matches_oracle():
    two_c4 = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3),
                                  (4, 5), (5, 6), (6, 7), (4, 7)])
    two_k3 = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for g2 in (generate("complete", [2]), two_k3, generate("complete_bipartite", [2, 3])):
        for a in (0.0, 0.3, 0.9999, 1.0):
            closed = spectrum_cvjoin_regular(two_c4, g2, a)
            assert _max_dev(closed, _oracle(central_vertex_join(two_c4, g2), a)) <= TOL_MATCH


def test_coronal_secular_check_where_monomial_check_fails():
    # G2 of order 12 with 12 cells: the 14 x 14 arrowhead's monomial
    # coefficients are too ill-conditioned to check its eigenvalues against,
    # while the secular check accepts them and the oracle confirms
    g1, g2, a = generate("petersen"), _seeded_graph(3, 12, 0.3), 0.3
    fac = charpoly_cvjoin(g1, g2, a)
    assert _coronal(fac).degree == 14
    built = central_vertex_join(g1, g2)
    assert _max_dev(spectrum_cvjoin_regular(g1, g2, a), _oracle(built, a)) <= TOL_MATCH


def test_cvjoin_order_60_g2():
    # 60 cells: the arrowhead is 62 x 62. Roots and evaluate() match the
    # oracle, while the monomial coefficients multiplied out from the same
    # roots lose the factor's value inside the spectrum
    g1, g2 = generate("cycle", [4]), _seeded_graph(3, 60, 0.1)
    assert len(equitable_partition(g2)) >= 40
    built = central_vertex_join(g1, g2)
    for a in (0.3, 0.7):
        fac = charpoly_cvjoin(g1, g2, a)
        oracle = np.linalg.eigvalsh(a_alpha_matrix(built, a))
        assert np.max(np.abs(np.sort(fac.roots()) - oracle)) <= 1e-8
        coronal = _coronal(fac)
        z = coronal.roots()[0]
        x = (z[20] + z[21]) / 2
        for y in (oracle[-1] + 1.0, oracle[0] - 0.5, x):
            assert fac.evaluate(y) == pytest.approx(np.prod(y - oracle), rel=1e-8)
        from_roots = np.polynomial.polynomial.polyval(x, np.poly(z)[::-1])
        assert abs(from_roots / coronal(x) - 1) > 1e-8
