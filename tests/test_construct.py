from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest

from alphacentral import (Graph, a_alpha_matrix, adjacency_matrix,
                          central_graph, central_vertex_join, complement,
                          cospectral_cvjoin_family, eigenvalues_sym,
                          equitable_partition, format_edge_list, generate,
                          incidence_matrix, is_connected, parse_edge_list,
                          regularity, sweep)


def test_central_k3_is_a_six_cycle():
    c = central_graph(generate("complete", [3]))
    assert c.n == 6 and c.m == 6
    assert c.degree_sequence == [2] * 6
    assert is_connected(c)
    s1 = eigenvalues_sym(adjacency_matrix(c))
    s2 = eigenvalues_sym(adjacency_matrix(generate("cycle", [6])))
    np.testing.assert_allclose(s1.values, s2.values, rtol=0, atol=1e-9)


def test_central_k2_is_a_path():
    c = central_graph(generate("complete", [2]))
    assert c.n == 3 and c.m == 2
    assert sorted(c.degree_sequence) == [1, 1, 2]


def test_central_petersen_counts():
    c = central_graph(generate("petersen"))
    assert c.n == 25 and c.m == 60


@pytest.mark.parametrize("family,params", [
    ("complete", [5]), ("cycle", [7]), ("complete_bipartite", [2, 3]),
    ("path", [4]), ("petersen", []),
])
def test_central_counts_and_degrees(family, params):
    g = generate(family, params)
    c = central_graph(g)
    assert c.n == g.n + g.m
    assert c.m == g.m + g.n * (g.n - 1) // 2
    deg = c.degree_sequence
    assert all(deg[v] == g.n - 1 for v in range(g.n))
    assert all(deg[v] == 2 for v in range(g.n, c.n))


def test_central_vertex_ordering():
    # subdivision vertex for the k-th lexicographic edge sits at index n + k
    g = generate("complete", [3])
    c = central_graph(g)
    assert c.edges == frozenset({(0, 3), (1, 3), (0, 4), (2, 4), (1, 5), (2, 5)})


def test_central_edge_cases():
    one = central_graph(generate("complete", [1]))
    assert one.n == 1 and one.m == 0
    empty2 = central_graph(Graph(2, frozenset()))
    assert empty2.n == 2 and empty2.m == 1  # the missing pair gets joined


def test_join_counts():
    g1, g2 = generate("complete", [3]), generate("complete", [2])
    j = central_vertex_join(g1, g2)
    assert j.n == g1.n + g1.m + g2.n == 8
    assert j.m == g1.m + g1.n * (g1.n - 1) // 2 + g2.m + g1.n * g2.n == 13


def test_join_no_subdivision_to_g2_edges():
    g1, g2 = generate("complete", [3]), generate("complete", [2])
    j = central_vertex_join(g1, g2)
    subdiv = range(g1.n, g1.n + g1.m)
    g2v = range(g1.n + g1.m, j.n)
    assert not any(j.has_edge(s, v) for s in subdiv for v in g2v)


def test_join_g2_degrees():
    g1, g2 = generate("cycle", [4]), generate("complete_bipartite", [2, 3])
    j = central_vertex_join(g1, g2)
    off = g1.n + g1.m
    for v in range(g2.n):
        assert j.degree_sequence[off + v] == g2.degree_sequence[v] + g1.n


@pytest.mark.parametrize("a", [0.0, 0.3, 1.0])
def test_join_block_structure(a):
    # the family matrix of the join, read in canonical order, is exactly
    # [ a(n1+n2-1)I + (1-a)A(G1 complement)   (1-a)R1          (1-a)J ]
    # [ (1-a)R1^T                             2a I             0      ]
    # [ (1-a)J^T                              0    a n1 I + A_alpha(G2) ]
    g1, g2 = generate("complete", [3]), generate("path", [3])
    n1, m1, n2 = g1.n, g1.m, g2.n
    j = central_vertex_join(g1, g2)
    M = a_alpha_matrix(j, a)

    top = a * (n1 + n2 - 1) * np.eye(n1) + (1 - a) * adjacency_matrix(complement(g1))
    R1 = incidence_matrix(g1)
    blocks = np.block([
        [top, (1 - a) * R1, (1 - a) * np.ones((n1, n2))],
        [(1 - a) * R1.T, 2 * a * np.eye(m1), np.zeros((m1, n2))],
        [(1 - a) * np.ones((n2, n1)), np.zeros((n2, m1)),
         a * n1 * np.eye(n2) + a_alpha_matrix(g2, a)],
    ])
    assert np.array_equal(M, blocks)


def test_join_label():
    j = central_vertex_join(generate("complete", [3]), generate("complete", [2]))
    assert j.label == "K3 vjoin K2"


@pytest.fixture
def formed_edge_sets(monkeypatch):
    """Records each graph whose edge set gets formed."""
    formed = []
    form = Graph.edges.func

    def spy(self):
        formed.append(self)
        return form(self)

    edges = cached_property(spy)
    edges.__set_name__(Graph, "edges")
    monkeypatch.setattr(Graph, "edges", edges)
    return formed


def test_built_graph_forms_its_edge_set_once_when_read(formed_edge_sets):
    c = central_graph(generate("cycle", [5]))
    assert c.m == 15 and not formed_edge_sets
    assert c.edges is c.edges and formed_edge_sets == [c]


@pytest.mark.parametrize("entry", [
    generate("petersen"),
    (generate("cycle", [4]), generate("path", [4])),
    (generate("petersen"), (2, 3)),
])
def test_sweep_never_forms_a_built_edge_set(formed_edge_sets, entry):
    report = sweep([entry], [0.3])
    assert report.all_passed and not formed_edge_sets


def test_cospectral_family_never_forms_a_built_edge_set(formed_edge_sets):
    report = cospectral_cvjoin_family(generate("shrikhande"), generate("rook4x4"),
                                      generate("path", [3]), [0.3, Fraction(1, 3)])
    assert report.all_passed and not formed_edge_sets


def test_is_connected_leaves_the_edge_set_unformed(formed_edge_sets):
    c = central_graph(generate("complete", [3]))
    assert is_connected(c) and not formed_edge_sets
    j = central_vertex_join(generate("cycle", [4]), generate("path", [3]))
    # the refinement reads the edge index too; V1, S and the two cells
    # of P3 (ends, middle) stay apart
    assert len(equitable_partition(j)) == 4 and not formed_edge_sets
    assert not is_connected(complement(generate("complete", [3]))) and not formed_edge_sets


@pytest.mark.parametrize("make", [
    lambda: central_graph(generate("cycle", [5])),
    lambda: central_vertex_join(generate("petersen"), generate("path", [4])),
    lambda: complement(generate("petersen")),
], ids=["C(C5)", "Petersen vjoin P4", "co-Petersen"])
def test_matrix_born_edge_list_reads_the_matrix(formed_edge_sets, make):
    G = make()
    text, R = format_edge_list(G), incidence_matrix(G)
    assert not formed_edge_sets
    # the same graph born from its edges prints and incides the same
    same = Graph(G.n, G.edges, G.label)
    assert text == format_edge_list(same)
    assert np.array_equal(R, incidence_matrix(same))
    assert G.sorted_edges() == sorted(same.edges)
    assert parse_edge_list(text) == Graph(G.n, G.edges)


@pytest.mark.parametrize("make", [
    lambda: generate("path", [5]),
    lambda: generate("petersen"),
    lambda: Graph.from_edges(7, [(0, 5), (2, 3), (2, 6), (5, 6)]),
], ids=["P5", "Petersen", "isolated vertices"])
def test_edge_born_structural_reads_leave_the_matrix_unformed(formed_edge_sets, make):
    def structural_reads(G):
        return (G.m, G.degree_sequence, regularity(G), repr(G), G.sorted_edges(),
                format_edge_list(G), is_connected(G), equitable_partition(G),
                incidence_matrix(G).tolist())

    G = make()
    reads = structural_reads(G)
    assert "_adjacency" not in vars(G)
    # the matrix-born twin: the double complement's matrix, under G's label
    twin = Graph._from_adjacency(adjacency_matrix(complement(complement(make()))), G.label)
    assert structural_reads(twin) == reads and not formed_edge_sets


@pytest.mark.parametrize("make", [
    lambda: central_graph(generate("cycle", [5])),
    lambda: central_vertex_join(generate("cycle", [4]), generate("complete_bipartite", [2, 3])),
    lambda: complement(generate("petersen")),
    lambda: generate("petersen"),
    lambda: Graph.from_edges(7, [(0, 5), (2, 3), (2, 6), (5, 6)]),
    lambda: Graph(4, frozenset()),
    lambda: Graph(1, frozenset()),
], ids=["C(C5)", "C4 vjoin K2,3", "co-Petersen", "Petersen", "isolated vertices", "4K1", "K1"])
def test_edge_list_text_is_the_one_written_tuple_by_tuple(make):
    G = make()
    want = "\n".join([str(G.n)] + [f"{i} {j}" for i, j in sorted(G.edges)]) + "\n"
    assert format_edge_list(G) == want
