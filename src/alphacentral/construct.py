"""The two graph operations under study: central graph and central vertex join.

Both fix a canonical vertex ordering so the block structure of the derived
matrices is directly assertable:

- central_graph(G): originals 0..n-1, then one subdivision vertex per edge
  of G in lexicographic edge order.
- central_vertex_join(G1, G2): G1 originals, G1 subdivisions, then the G2
  vertices, in that order.
"""

from __future__ import annotations

from itertools import chain, combinations, product

from .graphs import Graph


def _central_edges(G):
    """The edges of central_graph(G), each generated once as (i, j), i < j."""
    n = G.n
    for k, (i, j) in enumerate(G.sorted_edges()):
        yield i, n + k
        yield j, n + k
    for e in combinations(range(n), 2):
        if e not in G.edges:
            yield e


def central_graph(G):
    """Subdivide every edge of G once, then join all non-adjacent originals.

    The result has n + m vertices and m + n(n-1)/2 edges: original vertex i
    is adjacent to the subdivision vertices of its incident edges and to
    every original j it was not adjacent to in G; no original edge of G
    survives. Every subdivision vertex has degree 2 and original vertex i
    has degree n - 1. Graphs with n <= 1 or isolated vertices are allowed.
    """
    lab = f"C({G.label})" if G.label else ""
    return Graph(G.n + G.m, frozenset(_central_edges(G)), lab)


def central_vertex_join(G1, G2):
    """central_graph(G1) with G2 appended and all G1-original x G2 edges added.

    Vertex order: G1 originals (0..n1-1), G1 subdivisions (n1..n1+m1-1), G2
    vertices (offset n1+m1). G2 vertices are never adjacent to subdivision
    vertices; each G2 vertex gains degree n1. The result has n1 + m1 + n2
    vertices and m1 + n1(n1-1)/2 + m2 + n1*n2 edges.
    """
    off = G1.n + G1.m
    edges = chain(_central_edges(G1), ((off + i, off + j) for i, j in G2.edges),
                  product(range(G1.n), range(off, off + G2.n)))
    lab = ""
    if G1.label and G2.label:
        lab = f"{G1.label} vjoin {G2.label}"
    return Graph(off + G2.n, frozenset(edges), lab)
