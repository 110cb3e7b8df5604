import dataclasses
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from alphacentral import (Graph, InternalCheckError, ParameterError, PreconditionError,
                          a_alpha_matrix, adjacency_matrix, central_graph,
                          central_vertex_join, char_poly,
                          charpoly_central_regular, charpoly_cvjoin,
                          coronal_kpq_alpha, default_catalog, eigenvalues_sym,
                          equitable_partition, generate, regularity,
                          spectrum_central_regular, spectrum_cvjoin_kpq,
                          spectrum_cvjoin_regular)
from alphacentral.closedform import TOL_MATCH, ArrowheadStack, Factor, _g2_split
from alphacentral.verify import _closed_and_built
from reference import det_exact

PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)], "paw")


def _oracle(graph, a):
    return eigenvalues_sym(a_alpha_matrix(graph, a))


def _max_dev(spec1, spec2):
    assert spec1.n == spec2.n
    return max(abs(x - y) for x, y in zip(spec1.values, spec2.values))


# --- block roots

def _arrowheads(label, corner, t, poles, weights):
    """The stack of blocks [[corner, sqrt(w)^T], [sqrt(w), diag(p)]] against
    the factors of (t, poles, weights): poles and weights are (K, d - 1)
    arrays, t has length K and corner broadcasts to it. Every eigenvalue is
    kept, and the rows are keyed 0 .. K - 1."""
    k, m = poles.shape
    blocks = np.zeros((k, m + 1, m + 1))
    blocks[:, 0, 0] = corner
    blocks.reshape(k, (m + 1) ** 2)[:, m + 2::m + 2] = poles  # the diagonal past the corner
    blocks[:, 0, 1:] = blocks[:, 1:, 0] = np.sqrt(weights)
    return ArrowheadStack(label, blocks, t, poles, weights, np.arange(k, dtype=float),
                          np.ones((k, m + 1), dtype=bool))


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
    row = Factor("test", 1, fam.t[0], fam.poles[0], fam.weights[0], ())
    assert row.coeffs == (-1.0, -1e6, 1.0)
    small, big = fam.roots()[0]
    assert big == pytest.approx(5e5 + np.sqrt(2.5e11 + 1), rel=1e-12)
    assert small == pytest.approx(-1.0 / big, rel=1e-9)


def test_block_roots_alpha_one_double_root():
    # at alpha = 1 every block of C(K3), the principal arrowhead included, is
    # diag(2, 2): each double root 2 comes back exactly, not as a complex pair
    fac = charpoly_central_regular(generate("complete", [3]), 1.0)
    rooted = [v for f in fac.factors for v in f.roots]
    assert fac.linear_mult == 0 and len(rooted) == fac.order == 6
    assert rooted == [2.0] * 6
    assert (fac.roots() == 2.0).all()


def test_block_disagreeing_with_factor_raises():
    # the block's eigenvalues are +-1, the factor x^2 - 4's roots +-2
    fam = _quadratic_stack([0.0], [0.0], [0.0], [1.0])
    with pytest.raises(InternalCheckError, match="test root"):
        dataclasses.replace(fam, weights=np.array([[4.0]])).roots()
    # one bad row in a batch is enough: diag(1, 3) against (x - 3)(x - 1.001)
    fam = _quadratic_stack([0.0, 1.0], [0.0, 1.001], [0.0, 3.0], [1.0, 0.0])
    with pytest.raises(InternalCheckError, match="test root 1 "):
        fam.roots()


# --- one arrowhead stack per case

def _move_one_root(monkeypatch, row, col, by=1e-6):
    """Make np.linalg.eigvalsh return one eigenvalue of its stack moved."""
    eigvalsh = np.linalg.eigvalsh

    def moved(blocks):
        z = eigvalsh(blocks)
        z[row, col] += by
        return z
    monkeypatch.setattr(np.linalg, "eigvalsh", moved)


def test_root_on_a_weight_zero_pole_passes_and_one_off_it_is_refused(monkeypatch):
    # diag(1, 0.3) against (x - 0.3)(x - 1): the pole 0.3 has weight 0, so
    # the factor vanishes there and the eigenvalue 0.3 on it is a root
    fam = _quadratic_stack([1.0], [1.0], [0.3], [0.0])
    assert fam.roots().tolist() == [[0.3, 1.0]]
    _move_one_root(monkeypatch, 0, 0)
    with pytest.raises(InternalCheckError, match="test root 0.300001 in row 0"):
        fam.roots()


def test_root_on_a_pole_of_nonzero_weight_is_refused(monkeypatch):
    # [[0, 1], [1, 0]] against x^2 - 1, whose pole 0 has weight 1: the
    # factor is -1 there, so an eigenvalue moved onto the pole is no root
    fam = _quadratic_stack([0.0], [0.0], [0.0], [1.0])
    _move_one_root(monkeypatch, 0, 0, by=1.0)
    with pytest.raises(InternalCheckError, match="test root 0 in row 0"):
        fam.roots()


def _catalog_case(entry, a):
    """(G1, second graph or None, FactoredCharPoly, Spectrum) of a catalog
    entry, the spectrum from the public spectrum function."""
    if isinstance(entry, Graph):
        return entry, None, charpoly_central_regular(entry, a), spectrum_central_regular(entry, a)
    g1, second = entry
    spectrum = (spectrum_cvjoin_kpq(g1, *second, a) if isinstance(second, tuple)
                else spectrum_cvjoin_regular(g1, second, a))
    return g1, second, charpoly_cvjoin(g1, second, a), spectrum


def _per_family_roots(g1, second, a):
    """The closed-form roots with each factor family rooted on its own: the
    g2-eigenvalue roots, one eigvalsh of the n1 - 1 unpadded 2 x 2
    base-eigenvalue blocks and one of the (2 + k) x (2 + k) arrowhead, each
    entry from the same expression as the one stack's."""
    n1, r1 = g1.n, regularity(g1)
    mu, v, c = (np.empty(0),) * 3 if second is None else _g2_split(second, a)
    n2 = len(mu) + len(v)
    l = g1._adjacency_eigenvalues[-2::-1]
    t = a * (n1 + n2) - (1 - a) * l - 1
    base = _arrowheads("base-eigenvalue", t, t, np.full((len(l), 1), 2 * a),
                       ((1 - a) ** 2 * np.maximum(l + r1, 0.0))[:, None])
    last = _arrowheads("last", a * (n1 - 1 + n2) + (1 - a) * (n1 - 1 - r1),
                       np.array([n1 + a * n2 - (1 - a) * r1 - 1]),
                       np.concatenate(([2 * a], a * n1 + v))[None],
                       np.concatenate(([2 * r1 * (1 - a) ** 2], n1 * (1 - a) ** 2 * c))[None])
    roots = np.concatenate([np.full(g1.m - n1, 2 * a), a * n1 + mu,
                            base.roots().ravel(), last.roots().ravel()])
    return np.sort(roots)[::-1]


@pytest.mark.parametrize("a", [0.0, 0.37, 0.9999, 1.0])
def test_one_stack_changes_no_root(a):
    # padding the base rows into the arrowhead's stack changes no bit of any
    # root: against the families rooted one by one, and in the public spectrum
    for entry in default_catalog():
        g1, second, fac, spectrum = _catalog_case(entry, a)
        got = fac.roots()
        assert got.tobytes() == _per_family_roots(g1, second, a).tobytes(), entry
        assert np.array(spectrum.values).tobytes() == got.tobytes(), entry


@pytest.mark.parametrize("a", [0.0, 0.37, 0.9999, 1.0])
def test_factors_hold_every_root_once(a):
    # the factors group the one rooting of the stack: the linear roots and
    # every factor's roots are the spectrum bit for bit, and the degrees
    # times the multiplicities sum to the order
    for entry in default_catalog():
        _, _, fac, _ = _catalog_case(entry, a)
        parts = [np.full(fac.linear_mult, fac.linear_root)]
        parts += [np.array(f.roots) for f in fac.factors]
        got = np.sort(np.concatenate(parts))[::-1]
        assert got.tobytes() == fac.roots().tobytes(), entry
        assert fac.linear_mult + sum(f.degree * f.mult for f in fac.factors) == fac.order, entry
        assert all(len(f.roots) == f.degree * f.mult for f in fac.factors), entry


@pytest.mark.parametrize("a", [0.0, 0.37, 0.9999, 1.0])
def test_each_case_is_rooted_once_when_made(monkeypatch, a):
    # the maker roots the whole stack in one eigvalsh; the spectrum, the
    # factors, the JSON and a point value read the checked rows
    eigvalsh, shapes = np.linalg.eigvalsh, []

    def counted(blocks):
        shapes.append(blocks.shape)
        return eigvalsh(blocks)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for entry in default_catalog():
        g1, second = (entry, None) if isinstance(entry, Graph) else entry
        fac = (charpoly_central_regular(g1, a) if second is None
               else charpoly_cvjoin(g1, second, a))
        assert shapes == [fac.stack.blocks.shape], entry
        assert fac.roots().tobytes() == fac.roots().tobytes()
        assert fac.factors and fac.to_json() and np.isfinite(fac.evaluate(0.5))
        assert len(shapes) == 1, entry
        shapes.clear()


def test_factors_refuse_a_moved_root(monkeypatch):
    # a case is made, and its factors listed, only after its roots pass the
    # secular check
    g1, g2 = generate("petersen"), generate("cycle", [5])
    _move_one_root(monkeypatch, 0, 0)
    with pytest.raises(InternalCheckError, match="base-eigenvalue and coronal root .* in row 0 "):
        charpoly_cvjoin(g1, g2, 0.37)


def _where(fac, row_kind):
    """(row, column) of one eigenvalue of fac.stack: a base row's root, the
    last row's, a bipartite base's root on its pole 2a of weight 0, or a
    base row's padding eigenvalue."""
    s, z = fac.stack, fac.rows
    if row_kind == "base":
        return 0, 0
    d = s.blocks.shape[-1]
    if row_kind == "last":
        return len(s.t) - 1, d - 1
    if row_kind == "weight-0":
        (row,) = np.flatnonzero(s.weights[:-1, 0] == 0)
        (col,) = np.flatnonzero(z[row] == fac.linear_root)
        return row, col
    assert not s.kept[0, -1] and s.weights[0, -1] == 0
    return 0, d - 1


@pytest.mark.parametrize("row_kind,g1,second", [
    ("base", "petersen", "cycle:5"),
    ("last", "petersen", "cycle:5"),
    ("last", "cycle:4", None),
    ("weight-0", "cycle:4", None),
    ("weight-0", "cycle:4", "complete:3"),
    ("padded", "petersen", "cycle:5"),
    ("padded", "cycle:4", "complete_bipartite:2,3"),
])
def test_secular_check_bites_on_every_kind_of_stack_row(monkeypatch, row_kind, g1, second):
    def load(spec):
        name, _, params = spec.partition(":")
        return generate(name, [int(p) for p in params.split(",")] if params else [])
    g1, g2 = load(g1), None if second is None else load(second)

    def make():
        return charpoly_central_regular(g1, 0.37) if g2 is None else charpoly_cvjoin(g1, g2, 0.37)
    row, col = _where(make(), row_kind)
    label = "principal" if second is None else "coronal"
    _move_one_root(monkeypatch, row, col)
    with pytest.raises(InternalCheckError, match=f"base-eigenvalue and {label} root .* in row {row} "):
        make()


def test_padding_leaves_each_rows_check_interval_alone(monkeypatch):
    # Petersen v C5 at 0.37: base row 0 has roots 0.30 and 4.36, so its check
    # interval is h = 4.36e-10; its padding eigenvalue 15 would give 1.5e-9.
    # A root moved by 1e-9 lies between the two and must be refused
    g1, g2 = generate("petersen"), generate("cycle", [5])
    z = charpoly_cvjoin(g1, g2, 0.37).rows
    assert z[0, 1] < 5 and z[0, 2] == 15.0
    _move_one_root(monkeypatch, 0, 0, by=1e-9)
    with pytest.raises(InternalCheckError, match="in row 0 is not within 4.359e-10"):
        charpoly_cvjoin(g1, g2, 0.37)


# --- central graph closed form

def test_central_k3_alpha0_factors():
    fac = charpoly_central_regular(generate("complete", [3]), 0.0)
    assert fac.linear_mult == 0 and fac.order == 6
    by_label = {f.label: f for f in fac.factors}
    assert np.allclose(by_label["principal"].coeffs, [-4, 0, 1], atol=1e-12)
    eig = [f for f in fac.factors if f.label.startswith("base-eigenvalue")]
    assert len(eig) == 1 and eig[0].mult == 2
    assert np.allclose(eig[0].coeffs, [-1, 0, 1], atol=1e-9)


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
    roots = _coronal(fac).roots
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
    root = -part_q.coeffs[0] / part_q.coeffs[1]
    assert root == pytest.approx(0.25 * (4 + 2))


def test_cvjoin_preconditions():
    with pytest.raises(PreconditionError, match="r >= 2"):
        charpoly_cvjoin(generate("complete", [2]), generate("complete", [3]), 0.5)
    with pytest.raises(PreconditionError, match="regular"):
        charpoly_cvjoin(PAW, generate("complete", [3]), 0.5)
    # G2 needs no precondition; a (p, q) tuple must name a graph
    assert spectrum_cvjoin_regular(generate("complete", [3]), PAW, 0.5).n == 10
    with pytest.raises(ParameterError, match="p, q >= 1"):
        charpoly_cvjoin(generate("complete", [3]), (0, 2), 0.5)


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
    term = _coronal(fac)
    # poles 2 alpha and alpha n1 + v_i; weights n1 (1-alpha)^2 c_i past the first
    assert term.poles.shape == term.weights.shape == (1 + 3,)
    assert term.weights[1:].sum() == pytest.approx(g1.n * 0.7 ** 2 * PAW.n)
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
        with pytest.raises(InternalCheckError, match=f"sum to {total}, expected matrix order"):
            dataclasses.replace(fac, order=fac.order + 1)


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
    roots = sorted(shifted[0].roots)
    want = sorted(np.linalg.eigvalsh(a_alpha_matrix(g2, a))[:-1] + a * g1.n)
    assert roots == pytest.approx(want, abs=1e-12)
    assert roots[-1] - roots[0] > 2e-8


# --- the coronal arrowhead for any G2

def _seeded_graph(seed, n, density):
    rng = random.Random(seed)
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < density])


def _coronal(fac):
    return next(f for f in fac.factors if f.label == "coronal")


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
    assert coronal.poles[1:] == pytest.approx([g1.n + 3.0] * 2, abs=1e-12)
    built = central_vertex_join(g1, generate("complete_bipartite", [3, 3]))
    assert _max_dev(spectrum_cvjoin_kpq(g1, 3, 3, 1.0), _oracle(built, 1.0)) <= TOL_MATCH


def test_coronal_block_disagreeing_with_factor_raises():
    fac = charpoly_cvjoin(generate("petersen"), generate("cycle", [5]), 0.3)
    stack = fac.stack
    # a raised corner moves roots above the factor's, a lowered one below
    shifted, lowered = stack.blocks.copy(), stack.blocks.copy()
    shifted[-1, 0, 0] += 1e-6
    lowered[-1, 0, 0] -= 1e-6
    # a cell decoupled from V1 puts a root on a pole of nonzero weight,
    # where the factor has none
    decoupled = stack.blocks.copy()
    decoupled[-1, 0, 2] = decoupled[-1, 2, 0] = 0.0
    # a FactoredCharPoly roots whatever stack it is made with; its rows are
    # no argument, so they cannot be handed in unchecked
    for blocks in (shifted, lowered, decoupled):
        with pytest.raises(InternalCheckError, match="coronal root .* in row 9 "):
            dataclasses.replace(fac, stack=dataclasses.replace(stack, blocks=blocks))
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(fac, rows=fac.rows)


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
        z = np.array(coronal.roots[::-1])
        x = (z[20] + z[21]) / 2
        for y in (oracle[-1] + 1.0, oracle[0] - 0.5, x):
            assert fac.evaluate(y) == pytest.approx(np.prod(y - oracle), rel=1e-8)
        from_roots = np.polynomial.polynomial.polyval(x, np.poly(z)[::-1])
        assert abs(from_roots / coronal(x) - 1) > 1e-8


def _shifted_split(G2, a, cells=None):
    """The split of G2 by one eigendecomposition of A_alpha(G2) + sigma P, P
    the projector onto the cell-constant vectors of the given cells, by
    default G2's coarsest equitable partition: the reference for every
    split, and the route of a G2 whose cells are joined partly."""
    cells = cells or equitable_partition(G2)
    n2, k = G2.n, len(cells)
    P = np.zeros((n2, n2))
    for X in cells:
        P[np.ix_(X, X)] = 1.0 / len(X)
    M = a_alpha_matrix(G2, a)
    sigma = 2 * M.sum(axis=1).max() + 1
    w, V = np.linalg.eigh(M + sigma * P)
    c = V.sum(axis=0) ** 2
    return w[:n2 - k][::-1], w[n2 - k:] - sigma, c[n2 - k:]


def _wheel(k):
    """The wheel on k + 1 vertices: the cycle C_k with a hub joined to all."""
    return _cone(generate("cycle", [k]))


def _cone(G):
    """G with one more vertex joined to every vertex of G."""
    return Graph.from_edges(G.n + 1, [*G.edges, *((v, G.n) for v in range(G.n))])


_PARTS_223 = [0, 0, 1, 1, 2, 2, 2]


@pytest.mark.parametrize("g2", [
    generate("complete", [1]),
    Graph.from_edges(3, []),  # r2 = 0
    Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),  # 2K3: r2 twice
    generate("cycle", [5]), generate("petersen"), generate("shrikhande"),
    generate("complete_bipartite", [1, 4]), generate("complete_bipartite", [2, 3]),
    _wheel(5), _wheel(6),
    Graph.from_edges(7, [(i, j) for i in range(7) for j in range(i + 1, 7)
                         if _PARTS_223[i] != _PARTS_223[j]]),
    PAW, _cone(generate("petersen")), Graph.from_edges(3, [(0, 1)])],
    ids=["K1", "3K1", "2K3", "C5", "Petersen", "Shrikhande", "K1,4", "K2,3", "W5", "W6",
         "K2,2,3", "paw", "cone(Petersen)", "K2+K1"])
@pytest.mark.parametrize("a", [0.0, 0.3, 0.37, 0.9999, 1.0])
def test_regular_g2_split_matches_the_shifted_eigendecomposition(g2, a):
    # any two cells of each G2 here, a regular graph (one cell) or a
    # generalized join, are joined completely or not at all, so mu is
    # affine in alpha over the cells' degrees and induced adjacency
    # spectra; the split must be the shifted eigendecomposition's, up to
    # rounding, and at alpha = 1 mu is the cells' degrees exactly
    assert g2._cell_spectra is not None
    got = _g2_split(g2, a)
    for g, w in zip(got, _shifted_split(g2, a)):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
    if a == 1.0:
        degree = g2.degree_sequence
        cells = equitable_partition(g2)
        want = sorted((degree[v] for X in cells for v in X[1:]), reverse=True)
        assert got[0].tolist() == want


def test_generalized_join_split_solves_nothing_at_a_second_alpha(monkeypatch):
    # K2,3 given as a Graph and the wheel W5 keep their cells' spectra on
    # the instance, so after one split a split at another alpha makes no
    # np.linalg call
    graphs = generate("complete_bipartite", [2, 3]), _wheel(5)
    want = [_shifted_split(g2, 0.37) for g2 in graphs]
    for g2 in graphs:
        _g2_split(g2, 0.25)
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "norm", "solve"):
        monkeypatch.setattr(np.linalg, name, None)
    for g2, split in zip(graphs, want):
        for g, w in zip(_g2_split(g2, 0.37), split):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("a", [0.0, 0.37, 0.9999, 1.0])
def test_partly_joined_cells_take_the_shifted_eigensolve(n, a):
    # the end cell of a path is joined to only part of the next cell, so
    # P4 and P5 keep no cell spectra and mu comes from the eigensolve
    g2 = generate("path", [n])
    assert g2._cell_spectra is None
    for got, want in zip(_g2_split(g2, a), _shifted_split(g2, a)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# --- the K_{p,q} split in closed form

@pytest.mark.parametrize("p,q", [(1, 1), (1, 4), (2, 3), (3, 3), (5, 2)])
@pytest.mark.parametrize("a", [0.0, 0.37, 0.9999, 0.99999999, 1.0])
def test_kpq_split_matches_the_shifted_eigendecomposition(monkeypatch, p, q, a):
    # the reference is the generic split over the parts {P, Q}; the tuple's
    # written-down two-cell quotient and its rotation make no np.linalg call
    want = _shifted_split(generate("complete_bipartite", [p, q]), a,
                          [list(range(p)), list(range(p, p + q))])
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "norm", "solve"):
        monkeypatch.setattr(np.linalg, name, None)
    got = _g2_split((p, q), a)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
    # and (v, c) is the closed-form coronal, away from the spectrum
    _, v, c = got
    coronal, r = coronal_kpq_alpha(p, q, a), max(p, q)
    for x in (-r - 1.25, r + 0.75, r + 3.5):
        assert abs((c / (x - v)).sum() - coronal(x)) <= 1e-12


C6, C8 = generate("cycle", [6]), generate("cycle", [8])


@pytest.mark.parametrize("entry", [
    C6, C8, (C6, generate("cycle", [5])), (C8, generate("complete", [2])), (C6, (2, 3))],
    ids=["C6", "C8", "C6 v C5", "C8 v K2", "C6 v K2,3"])
@pytest.mark.parametrize("a", [0.0, 0.37, 0.75, 1.0])
def test_bipartite_bases_take_the_fast_path(monkeypatch, entry, a):
    # -r1 of a bipartite base is exact, so its base-eigenvalue row has weight
    # exactly 0 and its root on the pole 2a passes without the pole count
    def count(*args):
        raise AssertionError("the pole count ran")
    monkeypatch.setattr(ArrowheadStack, "_count_poles", count)
    g1, _, fac, spectrum = _catalog_case(entry, a)
    assert np.count_nonzero(fac.stack.weights[:-1, 0] == 0) == (a < 1 or g1.n - 1)
    assert _max_dev(spectrum, _oracle(_closed_and_built(entry)[3], a)) <= TOL_MATCH
