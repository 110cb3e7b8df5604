import copy
import pickle
import random
from fractions import Fraction
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
from alphacentral.construct import central_graph, central_vertex_join
from alphacentral.graphs import (four_clique_count, triangle_counts_per_vertex,
                                 triangles_per_edge)
from reference import colours_by_rounds


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
    ("complete_bipartite", [1, 2, 3]),
    ("complete", []),
    ("cycle", [5, 5]),
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


@pytest.mark.parametrize("make,message", [
    (lambda: Graph.from_edges(3, [(0, 1), (2, 2)]), "self-loop at vertex 2"),
    # a self-loop is named before an out-of-range pair that comes first
    (lambda: Graph.from_edges(3, [(0, 5), (1, 1)]), "self-loop at vertex 1"),
    (lambda: Graph(0, frozenset()), "vertex count must be a positive integer, got 0"),
    (lambda: Graph("3", frozenset()), "vertex count must be a positive integer, got '3'"),
    (lambda: Graph.from_edges(2.0, []), "vertex count must be a positive integer, got 2.0"),
    (lambda: Graph(3, frozenset({(0, 5)})), "edge (0, 5) invalid for n=3 (need 0 <= i < j < n)"),
    (lambda: Graph(3, [(1, 1)]), "edge (1, 1) invalid for n=3 (need 0 <= i < j < n)"),
    # the first offending pair in input order; from_edges names it oriented
    (lambda: Graph(4, [(0, 1), (2, 1), (0, 9)]),
     "edge (2, 1) invalid for n=4 (need 0 <= i < j < n)"),
    (lambda: Graph.from_edges(4, [(0, 1), (5, 2), (1, 7)]),
     "edge (2, 5) invalid for n=4 (need 0 <= i < j < n)"),
    (lambda: Graph.from_edges(3, [(2, -1)]), "edge (-1, 2) invalid for n=3 (need 0 <= i < j < n)"),
    (lambda: Graph.from_edges(3, [(0, 2**70)]),
     f"edge (0, {2**70}) invalid for n=3 (need 0 <= i < j < n)"),
])
def test_validation_messages(make, message):
    with pytest.raises(ParameterError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("make", [
    lambda: Graph(3, frozenset({(0.5, 1)})),
    lambda: Graph.from_edges(3, [(0, 1.5)]),
    lambda: Graph.from_edges(3, [(0, 1), (1.0, 2)]),
    lambda: Graph.from_edges(3, [(Fraction(1), 2)]),
    lambda: Graph.from_edges(3, [("0", "1")]),
], ids=["float, constructor", "float, from_edges", "integral float", "Fraction", "str"])
def test_non_integer_endpoints_are_refused(make):
    # operator.index decides, as for charpoly_int: no endpoint is truncated
    with pytest.raises(ParameterError, match="edge endpoints must be integers"):
        make()


def test_integer_endpoints_of_any_kind_are_accepted():
    want = Graph(3, frozenset({(0, 1), (1, 2)}))
    for pairs in ([(True, 2), (0, 1)], [(np.int32(1), np.int64(2)), (np.uint8(1), 0)],
                  np.array([[2, 1], [0, 1]], dtype=np.uint16)):
        G = Graph.from_edges(3, pairs)
        assert G == want and G.edges == want.edges
        assert all(type(v) is int for e in G.edges for v in e)


def test_an_order_too_large_for_the_edge_codes_is_refused():
    # i*n + j would wrap around in int64 and misplace the edge
    big = 4 * 10**9
    for build in (Graph, Graph.from_edges):
        with pytest.raises(ValueError):
            build(big, [(big - 2, big - 1)])
    n = 3 * 10**9  # n * n still fits
    G = Graph(n, [(n - 2, n - 1)])
    assert G.m == 1 and G.has_edge(n - 1, n - 2) and not G.has_edge(n - 3, n - 1)
    assert [a.tolist() for a in G._edge_index] == [[n - 2], [n - 1]]


@pytest.mark.parametrize("pairs", [[(0, 1, 2)], [(0, 1), (2,)], [3, 4], [(0, 1, 2), (3, 4, 1)]])
def test_pairs_must_be_pairs(pairs):
    for build in (Graph, Graph.from_edges):
        with pytest.raises(ValueError):
            build(5, pairs)


@pytest.mark.parametrize("make", [
    lambda: generate("petersen"),
    lambda: central_graph(generate("cycle", [5])),
], ids=["Petersen, from its pairs", "C(C5), from its matrix"])
@pytest.mark.parametrize("round_trip", [
    lambda G: pickle.loads(pickle.dumps(G)), copy.deepcopy, copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_pickle_and_copy_carry_only_the_read_only_value(make, round_trip):
    G = make()
    G._adjacency, G._edge_index, G.degree_sequence  # cached data stays behind
    back = round_trip(G)
    assert set(vars(back)) == {"n", "label", "_codes"}
    assert back == G and hash(back) == hash(G) and back.edges == G.edges
    arrays = [back._codes, *back._edge_index, back._adjacency]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        back._adjacency[0, 1] = 0.0
    assert np.array_equal(back._adjacency, G._adjacency)


def test_graphs_are_immutable():
    G = generate("cycle", [4])
    with pytest.raises(AttributeError):
        G.n = 5
    with pytest.raises(AttributeError):
        del G.label
    with pytest.raises(ValueError):
        G._codes[0] = 2
    assert G == generate("cycle", [4])


def test_equality_and_hash_read_the_value():
    c = central_graph(generate("cycle", [6]))
    twin = Graph.from_edges(c.n, reversed(c.sorted_edges()), c.label)
    assert c == twin and hash(c) == hash(twin) and "edges" not in vars(c)
    # the label and the order are part of the value
    assert c != Graph.from_edges(c.n, c.sorted_edges())
    assert Graph(3, [], "a") != Graph(3, []) and Graph(3, []) != Graph(4, [])
    assert generate("cycle", [4]) != generate("path", [4]) and Graph(1, []) != "1"


def test_has_edge_is_a_binary_search():
    c = central_graph(generate("cycle", [6]))
    # originals 0..5 join their non-neighbours; edge k of C6 gets vertex 6 + k
    assert c.has_edge(0, 2) and c.has_edge(2, 0) and c.has_edge(0, 6) and c.has_edge(1, 6)
    assert not c.has_edge(0, 1) and not c.has_edge(6, 7) and not c.has_edge(3, 3)
    # codes i*n + j out of range would alias other pairs; they are no edges
    assert not c.has_edge(0, 12 + 2) and not c.has_edge(-1, 1) and not c.has_edge(1, 12)
    assert not c.has_edge(0, 10**20) and not c.has_edge(-10**20, 1)
    assert "edges" not in vars(c)
    assert all(c.has_edge(i, j) == ((min(i, j), max(i, j)) in c.edges)
               for i in range(c.n) for j in range(c.n))


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


def _defined_edges(family, params):
    """A catalog graph's edge set written out from its definition with
    Python loops, the reference for the numpy generators."""
    if family == "complete":
        return set(combinations(range(params[0]), 2))
    if family == "complete_bipartite":
        p, q = params
        return {(i, p + j) for i in range(p) for j in range(q)}
    if family in ("cycle", "path"):
        n = params[0]
        pairs = {(i, i + 1) for i in range(n - 1)}
        return pairs | {(0, n - 1)} if family == "cycle" else pairs
    if family == "petersen":
        pairs = [pair for i in range(5)
                 for pair in ((i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i))]
        return {(min(a, b), max(a, b)) for a, b in pairs}
    pairs = combinations(range(16), 2)
    if family == "rook4x4":
        return {(u, v) for u, v in pairs if u // 4 == v // 4 or u % 4 == v % 4}
    diffs = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return {(u, v) for u, v in pairs if ((u // 4 - v // 4) % 4, (u % 4 - v % 4) % 4) in diffs}


@pytest.mark.parametrize("family,params", [
    ("complete", [1]), ("complete", [6]), ("complete_bipartite", [1, 1]),
    ("complete_bipartite", [3, 4]), ("cycle", [3]), ("cycle", [8]), ("path", [1]),
    ("path", [2]), ("path", [6]), ("petersen", []), ("shrikhande", []), ("rook4x4", []),
])
def test_generators_match_their_definitions(family, params):
    g = generate(family, params)
    assert g.edges == _defined_edges(family, params)
    assert g.sorted_edges() == sorted(g.edges) and g.m == len(g.edges)


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


def _cycles_and_paths(rng):
    """A random union of cycles and paths (isolated vertices included),
    randomly relabelled: many rounds of refinement, few changed vertices
    in each."""
    edges, n = [], 0
    for _ in range(rng.randint(1, 6)):
        s = rng.randint(1, 25)
        closed = s >= 3 and rng.random() < 0.5
        edges += [(n + i, n + (i + 1) % s) for i in range(s if closed else s - 1)]
        n += s
    label = rng.sample(range(n), n)
    return Graph.from_edges(n, [(label[i], label[j]) for i, j in edges])


def test_cell_colours_match_the_round_based_refinement():
    # the worklist refinement re-examines only the neighbours of changed
    # vertices; it must give the tuple of a round over every vertex
    rng = random.Random(23)
    graphs = ([_seeded_graph(rng, rng.randint(1, 40), rng.choice((0.03, 0.1, 0.3, 0.7)))
               for _ in range(150)]
              + [_cycles_and_paths(rng) for _ in range(150)] + _invariant_pairs()
              + [generate("path", [60]), generate("cycle", [9]), Graph.from_edges(4, []),
                 central_vertex_join(generate("petersen"), generate("path", [7]))])
    for g in graphs:
        assert g._cell_colours == colours_by_rounds(g)


def test_quotient_counts_the_neighbours_in_each_cell():
    # P5's cells {0, 4}, {1, 3}, {2}: an end has one neighbour in {1, 3},
    # vertex 1 one in each other cell, the centre two in {1, 3}
    d, R, size = generate("path", [5])._quotient
    B = np.array([[0, 1, 0], [1, 0, 1], [0, 2, 0]])
    assert d.tolist() == [1, 2, 2]
    assert np.array_equal(R, np.sqrt(B * B.T))
    assert size.tolist() == [2, 2, 1]
    d, R, size = generate("petersen")._quotient
    assert (d.tolist(), R.tolist(), size.tolist()) == ([3.0], [[3.0]], [10])


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
