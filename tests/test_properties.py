"""Property tests: every rooted closed form against the eigensolver on the
explicitly built matrix, over regular base graphs, arbitrary second graphs
of a join and generalized joins of regular parts, and alphas drawn near 0,
1/2 and 1 as well as uniformly; the quotient coronal against the resolvent
of the whole matrix; the rotation of a two-cell quotient against the
eigensolver; and the coronal check far above the spectra."""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphacentral import (Graph, a_alpha_matrix, adjacency_matrix, central_graph,
                          central_vertex_join, coronal_equal_check, format_edge_list, generate,
                          is_connected, parse_edge_list, spectrum_central_regular,
                          spectrum_cvjoin_kpq, spectrum_cvjoin_regular)
from alphacentral.closedform import TOL_MATCH
from alphacentral.spectra import _coronal_quotient, _eigh_checked

SETTINGS = settings(max_examples=60, deadline=None)


def random_regular(n, r, seed):
    """Connected r-regular graph on n vertices from the pairing model:
    n*r points, r per vertex, matched uniformly at random; a matching with
    a loop, a repeated pair or more than one component is drawn again."""
    assert 0 < r < n and n * r % 2 == 0
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(r)]
        rng.shuffle(points)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])}
        if len(pairs) == n * r // 2 and all(a != b for a, b in pairs):
            g = Graph.from_edges(n, pairs, f"rr({n},{r})")
            if is_connected(g):
                return g


@st.composite
def regular_graphs(draw, min_degree):
    kind = draw(st.sampled_from(["cycle", "complete", "petersen", "random"]))
    if kind == "cycle":
        return generate("cycle", [draw(st.integers(3, 12))])
    if kind == "complete":
        return generate("complete", [draw(st.integers(min_degree + 1, 8))])
    if kind == "petersen":
        return generate("petersen")
    r = draw(st.integers(max(min_degree, 2), 5))
    n = draw(st.integers(r + 1, 14).filter(lambda n: n * r % 2 == 0))
    return random_regular(n, r, draw(st.integers(0, 2**16)))


@st.composite
def any_graphs(draw, max_order):
    """Any simple graph of order 1..max_order, the edgeless and the
    disconnected ones included."""
    n = draw(st.integers(1, max_order))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


alphas = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-6),
    st.floats(-1e-6, 1e-6).map(lambda d: 0.5 + d),
    st.integers(1, 12).map(lambda k: 1.0 - 10.0 ** -k),
    st.floats(1.0 - 1e-6, 1.0),
)


def _deviation(closed, built, a):
    oracle = np.linalg.eigvalsh(a_alpha_matrix(built, a))[::-1]
    assert closed.n == len(oracle) == built.n
    return float(np.max(np.abs(np.array(closed.values) - oracle)))


def test_random_regular_helper():
    for n, r in ((6, 3), (10, 4), (13, 2), (14, 5)):
        g = random_regular(n, r, seed=n * r)
        assert g.n == n and g.m == n * r // 2
        assert set(g.degree_sequence) == {r} and is_connected(g)


@SETTINGS
@given(g=regular_graphs(min_degree=2), a=alphas)
def test_central_closed_form_matches_eigensolver(g, a):
    assert _deviation(spectrum_central_regular(g, a), central_graph(g), a) <= TOL_MATCH


@st.composite
def regular_second_graphs(draw):
    """A regular G2: connected of degree >= 1, edgeless (r2 = 0), or a
    disjoint union of cycles (r2 = 2 with multiplicity)."""
    kind = draw(st.sampled_from(["connected", "edgeless", "cycles"]))
    if kind == "edgeless":
        return Graph.from_edges(draw(st.integers(1, 8)), [])
    if kind == "cycles":
        edges, off = [], 0
        for s in draw(st.lists(st.integers(3, 6), min_size=2, max_size=3)):
            edges += [(off + i, off + (i + 1) % s) for i in range(s)]
            off += s
        return Graph.from_edges(off, edges)
    return draw(regular_graphs(min_degree=1))


@SETTINGS
@given(g1=regular_graphs(min_degree=2), g2=regular_second_graphs(), a=alphas)
def test_regular_join_closed_form_matches_eigensolver(g1, g2, a):
    closed = spectrum_cvjoin_regular(g1, g2, a)
    assert _deviation(closed, central_vertex_join(g1, g2), a) <= TOL_MATCH


@SETTINGS
@given(g1=regular_graphs(min_degree=2), p=st.integers(1, 5), q=st.integers(1, 5),
       a=alphas)
def test_kpq_join_closed_form_matches_eigensolver(g1, p, q, a):
    built = central_vertex_join(g1, generate("complete_bipartite", [p, q]))
    assert _deviation(spectrum_cvjoin_kpq(g1, p, q, a), built, a) <= TOL_MATCH


@SETTINGS
@given(g1=regular_graphs(min_degree=2), g2=any_graphs(max_order=12), a=alphas)
def test_any_join_closed_form_matches_eigensolver(g1, g2, a):
    closed = spectrum_cvjoin_regular(g1, g2, a)
    assert _deviation(closed, central_vertex_join(g1, g2), a) <= TOL_MATCH


@st.composite
def generalized_joins(draw):
    """H[G_1, ..., G_k], its vertices relabelled at random: k parts, each
    an edgeless, a complete or a cycle graph, on a random pattern H, so
    parts i and j are joined completely where ij is an edge of H and not
    at all elsewhere."""
    kinds = draw(st.lists(st.sampled_from(["edgeless", "complete", "cycle"]),
                          min_size=1, max_size=4))
    parts, edges, n = [], [], 0
    for kind in kinds:
        s = draw(st.integers(3 if kind == "cycle" else 1, 5))
        part = range(n, n + s)
        if kind == "complete":
            edges += combinations(part, 2)
        elif kind == "cycle":
            edges += [(v, n + (v - n + 1) % s) for v in part]
        parts.append(part)
        n += s
    pairs = list(combinations(parts, 2))
    for P, Q in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
        edges += [(u, v) for u in P for v in Q]
    label = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


@SETTINGS
@given(g1=regular_graphs(min_degree=2), g2=generalized_joins(), a=alphas)
def test_generalized_join_closed_form_matches_eigensolver(g1, g2, a):
    closed = spectrum_cvjoin_regular(g1, g2, a)
    assert _deviation(closed, central_vertex_join(g1, g2), a) <= TOL_MATCH


@SETTINGS
@given(g=any_graphs(max_order=12), a=alphas)
def test_quotient_coronal_matches_the_resolvent(g, a):
    """The coronal from the k x k quotient equals 1^T (xI - A_alpha)^{-1} 1
    solved on the whole matrix, at points above the spectrum (at most the
    largest degree)."""
    w, c = _coronal_quotient(g._quotient, a)
    M, ones = a_alpha_matrix(g, a), np.ones(g.n)
    for x in max(g.degree_sequence) + np.array([0.5, 1.0, 3.7, 40.0]):
        want = ones @ np.linalg.solve(x * np.eye(g.n) - M, ones)
        assert abs((c / (x - w)).sum() - want) <= 1e-10 * abs(want)


entries = st.floats(0.0, 50.0)


@SETTINGS
@example(d=(2.0, 2.0), r=(1.0, 3.0, 1.0), s=(2, 5), a=0.37)  # x = z
@example(d=(3.0, 1.0), r=(0.5, 0.0, 2.0), s=(4, 1), a=0.37)  # y = 0
@example(d=(3.0, 3.0), r=(0.0, 2.0, 0.0), s=(5, 2), a=1.0)  # x = z and y = 0
@example(d=(0.0, 0.0), r=(0.0, 0.0, 5e-324), s=(1, 1), a=0.0)  # a subnormal gap
@given(d=st.tuples(entries, entries), r=st.tuples(entries, entries, entries),
       s=st.tuples(st.integers(1, 50), st.integers(1, 50)),
       a=st.one_of(st.sampled_from([0.0, 1e-12, 0.37, 1 - 1e-9, 1.0]), st.floats(0.0, 1.0)))
def test_two_cell_rotation_matches_the_eigensolver(d, r, s, a):
    """The rotation's pairs (w, c) of a two-cell quotient S = a diag(d) +
    (1 - a) R are the checked eigensolver's, to 1e-12 of S's scale. An
    eigenvector is as exact as the gap between the two eigenvalues allows,
    so below a gap of 1e-12 of the scale, a double eigenvalue included,
    only the total weight is compared."""
    R = ((r[0], r[1]), (r[1], r[2]))
    w, c = _coronal_quotient((d, R, s), a)
    want_w, U = _eigh_checked(a * np.diag(d) + (1 - a) * np.array(R))
    want_c = (np.sqrt(s) @ U) ** 2
    scale = max(1.0, np.abs(want_w).max())
    np.testing.assert_allclose(w, want_w, rtol=0, atol=1e-12 * scale)
    gap = (want_w[1] - want_w[0]) / scale
    if gap > 1e-12:
        np.testing.assert_allclose(c, want_c, rtol=0, atol=1e-12 * sum(s) / gap)
    assert abs(c.sum() - sum(s)) <= 1e-12 * sum(s)


@SETTINGS
@given(g=any_graphs(max_order=10), other=any_graphs(max_order=10), a=alphas,
       base=st.floats(1e6, 1e12), data=st.data())
def test_coronal_check_far_above_the_spectra(g, other, a, base, data):
    """Far above both spectra a coronal is about n / x, so points there
    barely tell two apart; the verdict does not rest on them. Given 20
    points from base in [1e6, 1e12], a relabelled copy agrees, and a graph
    of another order differs: its weights sum to another n."""
    points = [base + k for k in range(20)]
    label = data.draw(st.permutations(range(g.n)))
    copy = Graph.from_edges(g.n, [(label[i], label[j]) for i, j in g.edges])
    assert coronal_equal_check(g, copy, a, points)
    if other.n != g.n:
        assert not coronal_equal_check(g, other, a, points)


def _built_edges_by_definition(g1, g2=None):
    """The edge set of central_graph(g1), or of central_vertex_join(g1, g2),
    written out from the definitions with plain Python sets."""
    n, e1 = g1.n, sorted(g1.edges)
    edges = {(i, n + k) for k, pair in enumerate(e1) for i in pair}
    edges |= {pair for pair in combinations(range(n), 2) if pair not in g1.edges}
    if g2 is not None:
        off = n + len(e1)
        edges |= {(off + i, off + j) for i, j in g2.edges}
        edges |= {(i, off + v) for i in range(n) for v in range(g2.n)}
    return frozenset(edges)


@SETTINGS
@given(g1=any_graphs(max_order=10), g2=any_graphs(max_order=6))
def test_built_graphs_match_their_definition(g1, g2):
    for built, second in ((central_graph(g1), None), (central_vertex_join(g1, g2), g2)):
        want = _built_edges_by_definition(g1, second)
        A = built._adjacency
        with pytest.raises(ValueError):
            A[0, 0] = 1.0
        # the count and the degrees come from the edge index read off the matrix,
        # before the edge set exists
        assert "edges" not in vars(built)
        degrees = [0] * built.n
        for i, j in want:
            degrees[i] += 1
            degrees[j] += 1
        assert built.m == len(want) and built.degree_sequence == degrees
        assert built.edges == want
        expected = np.zeros((built.n, built.n))
        for i, j in want:
            expected[i, j] = expected[j, i] = 1.0
        assert np.array_equal(A, expected)
        same = Graph.from_edges(built.n, want, built.label)
        assert built == same and hash(built) == hash(same)
        assert built.sorted_edges() == sorted(want)


@SETTINGS
@given(n=st.integers(1, 12), data=st.data())
def test_every_birth_of_a_graph_is_one_value(n, data):
    """The constructor, from_edges on the same edges shuffled with reversed
    and repeated pairs, the edge-list round trip and the twin born from the
    adjacency matrix are equal, with equal hashes and equal edge sets."""
    pairs = list(combinations(range(n), 2))
    E = frozenset(data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    repeats = data.draw(st.lists(st.sampled_from(sorted(E)))) if E else []
    noisy = [(j, i) if data.draw(st.booleans()) else (i, j) for i, j in [*E, *repeats]]
    G = Graph(n, E)
    for twin in (Graph.from_edges(n, data.draw(st.permutations(noisy))),
                 parse_edge_list(format_edge_list(G)),
                 Graph._from_adjacency(adjacency_matrix(G), G.label)):
        assert twin == G and hash(twin) == hash(G) and twin.edges == G.edges == E
