"""The two graph operations under study: central graph and central vertex join.

Both fix a canonical vertex ordering so the block structure of the derived
matrices is directly assertable:

- central_graph(G): originals 0..n-1, then one subdivision vertex per edge
  of G in lexicographic edge order.
- central_vertex_join(G1, G2): G1 originals, G1 subdivisions, then the G2
  vertices, in that order.

Both are built as their adjacency matrix, block by block, from the
adjacency matrices of their operands, with the subdivision columns placed
by G's edge index (Graph._edge_index). Building forms the operands' dense
matrices, as every spectral read does, and nothing else: the result is a
matrix-born Graph, which reads its edge index (its value) off the matrix
on its first structural read, equality or hash, and forms its edge set
only if something reads it.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph


def _central_adjacency(G, extra):
    """The adjacency matrix of central_graph(G) as the leading block of an
    otherwise zero matrix with `extra` more rows and columns:

        [ J - I - A(G)   R(G)   0 ]
        [ R(G)^T         0      0 ]
        [ 0              0      0 ]

    with R(G) the vertex-edge incidence matrix, edges in lexicographic
    order. It takes few numpy calls, since at catalog orders each call
    costs more than the arithmetic."""
    n, (I, J) = G.n, G._edge_index
    m = len(I)
    A = np.zeros((n + m + extra, n + m + extra))
    A[:n, :n] = 1.0 - np.eye(n) - G._adjacency
    sub = np.arange(n, n + m)
    A[I, sub] = A[J, sub] = 1.0
    A[n:n + m, :n] = A[:n, n:n + m].T
    return A


def central_graph(G):
    """Subdivide every edge of G once, then join all non-adjacent originals.

    The result has n + m vertices and m + n(n-1)/2 edges: original vertex i
    is adjacent to the subdivision vertices of its incident edges and to
    every original j it was not adjacent to in G; no original edge of G
    survives. Every subdivision vertex has degree 2 and original vertex i
    has degree n - 1. Graphs with n <= 1 or isolated vertices are allowed.
    """
    lab = f"C({G.label})" if G.label else ""
    return Graph._from_adjacency(_central_adjacency(G, 0), lab)


def central_vertex_join(G1, G2):
    """central_graph(G1) with G2 appended and all G1-original x G2 edges added.

    Vertex order: G1 originals (0..n1-1), G1 subdivisions (n1..n1+m1-1), G2
    vertices (offset n1+m1). G2 vertices are never adjacent to subdivision
    vertices; each G2 vertex gains degree n1. The result has n1 + m1 + n2
    vertices and m1 + n1(n1-1)/2 + m2 + n1*n2 edges.
    """
    A = _central_adjacency(G1, G2.n)
    off = A.shape[0] - G2.n
    A[off:, off:] = G2._adjacency
    A[:G1.n, off:] = A[off:, :G1.n] = 1.0
    lab = ""
    if G1.label and G2.label:
        lab = f"{G1.label} vjoin {G2.label}"
    return Graph._from_adjacency(A, lab)
