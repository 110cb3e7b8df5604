import random
from itertools import combinations

import numpy as np
import pytest

from alphacentral import (Graph, ParameterError, ParseError, a_alpha_matrix,
                          adjacency_matrix, complement, degree_matrix,
                          equitable_partition, format_edge_list, generate,
                          incidence_matrix,
                          is_connected, nonisomorphism_witness,
                          parse_edge_list, regularity,
                          spectrum_cvjoin_regular)
from alphacentral.construct import central_vertex_join
from alphacentral.graphs import (four_clique_count, triangle_counts_per_vertex,
                                 triangles_per_edge)


def test_complete_graph():
    g = generate("complete", [4])
    assert g.n == 4 and g.m == 6
    assert regularity(g) == 3


def test_petersen():
    g = generate("petersen")
    assert g.n == 10 and g.m == 15
    assert regularity(g) == 3
    assert is_connected(g)


def test_complete_bipartite_degrees():
    g = generate("complete_bipartite", [2, 3])
    assert g.n == 5 and g.m == 6
    assert sorted(g.degree_sequence, reverse=True) == [3, 3, 2, 2, 2]


def test_cycle_and_path():
    assert generate("cycle", [6]).m == 6
    assert generate("path", [1]).m == 0
    assert generate("path", [4]).m == 3


@pytest.mark.parametrize("family,params", [
    ("complete", [0]),
    ("complete_bipartite", [0, 3]),
    ("complete_bipartite", [2]),
    ("cycle", [2]),
    ("petersen", [7]),
    ("nosuch", []),
])
def test_bad_generator_args(family, params):
    with pytest.raises(ParameterError):
        generate(family, params)


def test_graph_validation():
    with pytest.raises(ParameterError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ParameterError):
        Graph(3, frozenset({(0, 5)}))
    with pytest.raises(ParameterError):
        Graph(0, frozenset())


# --- parsing and serialization

def test_parse_k3():
    g = parse_edge_list("3\n0 1\n1 2\n0 2")
    assert g.n == 3 and g.m == 3


def test_parse_collapses_duplicates():
    g = parse_edge_list("2\n0 1\n1 0")
    assert g.n == 2 and g.m == 1


def test_parse_index_out_of_range():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("2\n0 2")


def test_parse_self_loop_and_garbage():
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("3\n0 1\n2 2")
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("3\n0 1 2")
    with pytest.raises(ParseError):
        parse_edge_list("")
    for text, message in (("x\n", "line 1: expected vertex count"),
                          ("0\n", "line 1: vertex count must be >= 1"),
                          ("3\n0 a\n", "line 2: non-integer endpoint")):
        with pytest.raises(ParseError, match=message):
            parse_edge_list(text)


def test_parse_allows_comments_and_blanks():
    g = parse_edge_list("# a triangle\n3\n\n0 1\n1 2\n0 2\n")
    assert g.m == 3


@pytest.mark.parametrize("family,params", [
    ("complete", [5]), ("complete_bipartite", [2, 3]), ("cycle", [7]),
    ("path", [4]), ("petersen", []), ("shrikhande", []), ("rook4x4", []),
])
def test_roundtrip(family, params):
    g = generate(family, params)
    assert parse_edge_list(format_edge_list(g)).edges == g.edges


# --- matrices

def test_adjacency_k2():
    assert adjacency_matrix(generate("complete", [2])).tolist() == [[0, 1], [1, 0]]


def test_degree_matrix_k23():
    d = degree_matrix(generate("complete_bipartite", [2, 3]))
    assert np.diag(d).tolist() == [3, 3, 2, 2, 2]


@pytest.mark.parametrize("family,params", [
    ("complete", [3]), ("complete", [6]), ("cycle", [5]),
    ("petersen", []), ("shrikhande", []), ("rook4x4", []),
])
def test_incidence_identity_regular(family, params):
    # R R^T = A + r I, exact integer equality for regular graphs
    g = generate(family, params)
    r = regularity(g)
    R = incidence_matrix(g)
    lhs = (R @ R.T).astype(int)
    rhs = adjacency_matrix(g).astype(int) + r * np.eye(g.n, dtype=int)
    assert (lhs == rhs).all()


def test_degree_sum_is_twice_edges():
    for fam, params in [("complete", [7]), ("cycle", [8]), ("path", [5]),
                        ("complete_bipartite", [3, 4]), ("petersen", [])]:
        g = generate(fam, params)
        assert sum(g.degree_sequence) == 2 * g.m


# --- complement

def test_complement_of_complete_is_empty():
    assert complement(generate("complete", [5])).m == 0


def test_complement_involution_petersen():
    g = generate("petersen")
    assert complement(complement(g)).edges == g.edges


def test_complement_adjacency_identity():
    g = generate("cycle", [6])
    total = adjacency_matrix(g) + adjacency_matrix(complement(g))
    assert (total == np.ones((6, 6)) - np.eye(6)).all()


def test_c5_self_complementary():
    g = generate("cycle", [5])
    h = complement(g)
    assert h.m == 5 and sorted(h.degree_sequence) == [2] * 5 and is_connected(h)
    # same spectrum as C5, which certifies the isomorphism type here
    w1 = np.linalg.eigvalsh(adjacency_matrix(g))
    w2 = np.linalg.eigvalsh(adjacency_matrix(h))
    assert np.allclose(w1, w2, atol=1e-9)


# --- regularity

def test_regularity():
    assert regularity(generate("petersen")) == 3
    assert regularity(generate("complete_bipartite", [2, 3])) is None
    assert regularity(generate("complete", [1])) == 0


# --- the strongly regular pair

def test_shrikhande_rook_basic():
    s, r = generate("shrikhande"), generate("rook4x4")
    for g in (s, r):
        assert g.n == 16 and g.m == 48 and regularity(g) == 6


def test_shrikhande_rook_triangle_stats_coincide():
    # both are SRG(16,6,2,2): every edge lies in exactly 2 triangles, so
    # this invariant cannot separate them
    s, r = generate("shrikhande"), generate("rook4x4")
    assert triangles_per_edge(s) == [2] * 48
    assert triangles_per_edge(s) == triangles_per_edge(r)


def test_shrikhande_rook_nonisomorphic():
    s, r = generate("shrikhande"), generate("rook4x4")
    assert four_clique_count(s) == 0
    assert four_clique_count(r) == 8
    wit = nonisomorphism_witness(s, r)
    assert wit is not None and wit[0] == "4-clique count"


def test_witness_none_for_identical():
    g = generate("petersen")
    assert nonisomorphism_witness(g, g) is None


# --- the invariants against plain-Python counts

def _nbrs(G):
    out = [set() for _ in range(G.n)]
    for i, j in G.edges:
        out[i].add(j)
        out[j].add(i)
    return out


def _python_triangles_per_edge(G):
    nb = _nbrs(G)
    return sorted(len(nb[i] & nb[j]) for i, j in G.edges)


def _python_triangles_per_vertex(G):
    nb = _nbrs(G)
    return sorted(sum(b in nb[a] for a, b in combinations(sorted(nb[v]), 2))
                  for v in range(G.n))


def _python_four_cliques(G):
    nb = _nbrs(G)
    seen = sum(b in nb[a] for i, j in G.edges
               for a, b in combinations(sorted(nb[i] & nb[j]), 2))
    return seen // 6


def _python_witness(G1, G2):
    probes = [("vertex count", lambda G: G.n), ("edge count", lambda G: G.m),
              ("degree multiset", lambda G: sorted(G.degree_sequence)),
              ("triangles per vertex", _python_triangles_per_vertex),
              ("triangles per edge", _python_triangles_per_edge),
              ("4-clique count", _python_four_cliques)]
    for name, fn in probes:
        if fn(G1) != fn(G2):
            return (name, fn(G1), fn(G2))
    return None


def _seeded_graph(rng, n, density):
    return Graph.from_edges(n, [(i, j) for i, j in combinations(range(n), 2)
                                if rng.random() < density])


def _invariant_pairs():
    rng = random.Random(11)
    graphs = [_seeded_graph(rng, rng.randint(1, 18), rng.choice((0.2, 0.5, 0.8)))
              for _ in range(40)]
    s, r = generate("shrikhande"), generate("rook4x4")
    for h in (generate("path", [3]), generate("complete_bipartite", [2, 3]),
              generate("cycle", [5])):
        graphs += [central_vertex_join(s, h), central_vertex_join(r, h)]
    return graphs


def test_invariants_match_python_counts():
    for g in _invariant_pairs() + [generate("shrikhande"), generate("rook4x4")]:
        assert triangles_per_edge(g) == _python_triangles_per_edge(g)
        assert triangle_counts_per_vertex(g) == _python_triangles_per_vertex(g)
        assert four_clique_count(g) == _python_four_cliques(g)


def test_witness_matches_python_probes():
    graphs = _invariant_pairs()
    pairs = list(zip(graphs[::2], graphs[1::2]))
    # same orders, sizes and degrees, so the later probes decide
    pairs += [(generate("shrikhande"), generate("rook4x4")),
              (generate("petersen"), generate("petersen"))]
    for g1, g2 in pairs:
        assert nonisomorphism_witness(g1, g2) == _python_witness(g1, g2)
    wit = nonisomorphism_witness(graphs[-2], graphs[-1])
    assert wit[0] == "4-clique count" and wit[1] != wit[2]


def _is_equitable(G, cells):
    nbrs = _nbrs(G)
    return all(len({len(nbrs[u] & set(Y)) for u in X}) == 1
               for X in cells for Y in cells)


def test_equitable_partition():
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert equitable_partition(paw) == [[0, 1], [2], [3]]
    assert equitable_partition(generate("path", [5])) == [[0, 4], [1, 3], [2]]
    assert equitable_partition(generate("complete_bipartite", [2, 3])) == [[0, 1], [2, 3, 4]]
    for g in (generate("petersen"), generate("shrikhande"), generate("cycle", [7]),
              generate("complete_bipartite", [3, 3]), Graph.from_edges(5, [])):
        assert equitable_partition(g) == [list(range(g.n))]
    rng = random.Random(3)
    graphs = [_seeded_graph(rng, rng.randint(1, 30), rng.choice((0.05, 0.1, 0.3)))
              for _ in range(40)] + _invariant_pairs()
    for g in graphs:
        cells = equitable_partition(g)
        assert sorted(u for X in cells for u in X) == list(range(g.n))
        assert _is_equitable(g, cells)


def test_is_connected_on_one_and_two_isolated_vertices():
    assert is_connected(Graph(1, frozenset()))
    assert not is_connected(Graph(2, frozenset()))


def test_public_copies_leave_the_cached_data_alone():
    # the derived data is computed once per Graph and kept on it; the public
    # accessors hand out copies, so writing into them changes nothing later
    g, h, a = generate("petersen"), generate("cycle", [5]), 0.3
    matrices = [a_alpha_matrix(G, a) for G in (g, h)]
    spectrum = spectrum_cvjoin_regular(g, h, a)
    for G in (g, h):
        A = adjacency_matrix(G)
        A[:] = 7.0
        deg = G.degree_sequence
        deg[:] = [0] * G.n
    for G, M in zip((g, h), matrices):
        assert np.array_equal(a_alpha_matrix(G, a), M)
    assert spectrum_cvjoin_regular(g, h, a) == spectrum
    assert regularity(g) == 3 and g.degree_sequence == [3] * 10
    # the cached arrays themselves refuse writes
    with pytest.raises(ValueError):
        g._adjacency[0, 1] = 0.0
    with pytest.raises(ValueError):
        g._adjacency_eigenvalues[0] = 0.0


def _cycles(*sizes):
    """Disjoint union of cycles, in order."""
    edges, off = [], 0
    for n in sizes:
        edges += [(off + i, off + (i + 1) % n) for i in range(n)]
        off += n
    return Graph.from_edges(off, edges)


@pytest.mark.parametrize("g,bipartite", [
    (_cycles(6), 1), (_cycles(8), 1), (_cycles(6, 4), 2), (_cycles(5, 6), 1),
    (_cycles(5), 0), (_cycles(3, 3), 0), (generate("complete_bipartite", [3, 3]), 1),
    (generate("petersen"), 0)], ids=["C6", "C8", "C6+C4", "C5+C6", "C5", "2K3", "K3,3",
                                     "Petersen"])
def test_regular_graph_has_minus_r_exactly_once_per_bipartite_component(g, bipartite):
    r = regularity(g)
    w = g._adjacency_eigenvalues
    assert np.count_nonzero(w == -r) == bipartite
    assert (w[bipartite:] > -r + 1e-3).all()
    np.testing.assert_allclose(w, np.linalg.eigvalsh(adjacency_matrix(g)), rtol=0, atol=1e-12)
