"""Immutable simple graphs, generators, parsing, and matrix extractors.

Vertex orderings are fixed per generator and edges are always enumerated in
lexicographic (i, j) order with i < j, so every matrix derived from a graph
is reproducible bit for bit. Incidence-matrix columns follow the same edge
order everywhere downstream.

Canonical orderings:

- complete [n]:           vertices 0..n-1, all pairs.
- complete_bipartite [p,q]: part of size p first (0..p-1), then q vertices.
- cycle [n]:              edges {i, (i+1) mod n}, n >= 3.
- path [n]:               edges {i, i+1}, n >= 1.
- petersen:               0-4 outer 5-cycle, 5-9 inner pentagram
                          {5+i, 5+((i+2) mod 5)}, spokes {i, 5+i}.
- shrikhande:             vertex 4i+j for (i, j) in Z4 x Z4; u ~ v iff the
                          coordinate difference lies in
                          {(0,1), (0,3), (1,0), (3,0), (1,1), (3,3)}.
- rook4x4:                vertex 4i+j; u ~ v iff same row or same column
                          (the line graph of K_{4,4}).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ParameterError, ParseError

FAMILIES = ("complete", "complete_bipartite", "cycle", "path",
            "petersen", "shrikhande", "rook4x4")


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Edges are stored as a frozenset of (i, j) pairs with i < j. Instances
    are immutable value objects; every operation returns a new Graph.
    """

    n: int
    edges: frozenset
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ParameterError(f"vertex count must be a positive integer, got {self.n!r}")
        for e in self.edges:
            i, j = e
            if not (0 <= i < j < self.n):
                raise ParameterError(f"edge {e} invalid for n={self.n} (need 0 <= i < j < n)")

    @classmethod
    def from_edges(cls, n, pairs, label=""):
        """Build a Graph from unordered pairs; duplicates collapse, order ignored."""
        norm = set()
        for a, b in pairs:
            if a == b:
                raise ParameterError(f"self-loop at vertex {a}")
            norm.add((min(a, b), max(a, b)))
        return cls(n, frozenset(norm), label)

    @property
    def m(self):
        return len(self.edges)

    def sorted_edges(self):
        """Edges in lexicographic order; fixes incidence column order."""
        return sorted(self.edges)

    def has_edge(self, i, j):
        return (min(i, j), max(i, j)) in self.edges

    @property
    def degree_sequence(self):
        deg = [0] * self.n
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"Graph(n={self.n}, m={self.m}{tag})"


# ---------------------------------------------------------------------------
# generators

def generate(family, params=()):
    """Return a named catalog graph with its canonical vertex ordering.

    Parameters
    ----------
    family : str
        One of FAMILIES.
    params : sequence of int
        Family parameters: complete [n], complete_bipartite [p, q],
        cycle [n], path [n]; the three fixed graphs take no parameters.
    """
    params = list(params)
    if family == "complete":
        n = _one_param(family, params, minimum=1)
        return Graph.from_edges(n, combinations(range(n), 2), f"K{n}")
    if family == "complete_bipartite":
        if len(params) != 2:
            raise ParameterError("complete_bipartite needs two parameters p, q")
        p, q = params
        if p < 1 or q < 1:
            raise ParameterError(f"complete_bipartite needs p, q >= 1, got ({p}, {q})")
        return Graph.from_edges(p + q, ((i, p + j) for i in range(p) for j in range(q)),
                                f"K{p},{q}")
    if family == "cycle":
        n = _one_param(family, params, minimum=3)
        return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)), f"C{n}")
    if family == "path":
        n = _one_param(family, params, minimum=1)
        return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)), f"P{n}")
    if family == "petersen":
        _no_params(family, params)
        edges = []
        for i in range(5):
            edges.append((i, (i + 1) % 5))
            edges.append((5 + i, 5 + ((i + 2) % 5)))
            edges.append((i, 5 + i))
        return Graph.from_edges(10, edges, "Petersen")
    if family == "shrikhande":
        _no_params(family, params)
        diffs = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
        edges = [(u, v) for u in range(16) for v in range(u + 1, 16)
                 if ((u // 4 - v // 4) % 4, (u % 4 - v % 4) % 4) in diffs]
        return Graph.from_edges(16, edges, "Shrikhande")
    if family == "rook4x4":
        _no_params(family, params)
        edges = [(u, v) for u in range(16) for v in range(u + 1, 16)
                 if u // 4 == v // 4 or u % 4 == v % 4]
        return Graph.from_edges(16, edges, "Rook4x4")
    raise ParameterError(f"unknown family {family!r}; choose from {FAMILIES}")


def _one_param(family, params, minimum):
    if len(params) != 1:
        raise ParameterError(f"{family} needs exactly one parameter")
    n = params[0]
    if n < minimum:
        raise ParameterError(f"{family} needs n >= {minimum}, got {n}")
    return n


def _no_params(family, params):
    if params:
        raise ParameterError(f"{family} takes no parameters, got {params}")


# ---------------------------------------------------------------------------
# edge-list text format

def parse_edge_list(text):
    """Parse the plain edge-list format: first line n, then one "i j" per line.

    Duplicate pairs collapse; vertex order within a pair is irrelevant.
    Blank lines and lines starting with '#' are ignored.

    Raises
    ------
    ParseError
        On malformed lines, out-of-range indices, or self-loops, with the
        1-based line number in the message.
    """
    lines = text.splitlines()
    n = None
    pairs = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ParseError(f"line {lineno}: expected vertex count, got {line!r}") from None
            if n < 1:
                raise ParseError(f"line {lineno}: vertex count must be >= 1, got {n}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'i j', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer endpoint in {line!r}") from None
        if i == j:
            raise ParseError(f"line {lineno}: self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"line {lineno}: vertex index out of range [0, {n}) in {line!r}")
        pairs.append((i, j))
    if n is None:
        raise ParseError("line 1: empty input, expected vertex count")
    return Graph.from_edges(n, pairs)


def format_edge_list(G):
    """Serialize a Graph to the edge-list format; parse(format(G)) == G."""
    out = [str(G.n)]
    out.extend(f"{i} {j}" for i, j in G.sorted_edges())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# matrix extractors

def adjacency_matrix(G):
    """Symmetric 0/1 adjacency matrix with zero diagonal (float64)."""
    A = np.zeros((G.n, G.n))
    for i, j in G.edges:
        A[i, j] = A[j, i] = 1.0
    return A


def degree_matrix(G):
    return np.diag(np.asarray(G.degree_sequence, dtype=float))


def incidence_matrix(G):
    """n x m vertex-edge incidence matrix, columns in lexicographic edge order."""
    R = np.zeros((G.n, G.m))
    for k, (i, j) in enumerate(G.sorted_edges()):
        R[i, k] = R[j, k] = 1.0
    return R


def complement(G):
    """Complement graph: {i, j} present iff absent in G. A(G)+A(comp) = J-I."""
    edges = [(i, j) for i, j in combinations(range(G.n), 2) if (i, j) not in G.edges]
    lab = f"co-{G.label}" if G.label else ""
    return Graph.from_edges(G.n, edges, lab)


def regularity(G):
    """Common degree r if G is regular, else None. K_1 is 0-regular."""
    deg = G.degree_sequence
    r = deg[0]
    return r if all(d == r for d in deg) else None


def _neighbours(G):
    """Adjacency lists of G."""
    adj = [[] for _ in range(G.n)]
    for i, j in G.edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def is_connected(G):
    if G.n == 1:
        return True
    adj = _neighbours(G)
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == G.n


def equitable_partition(G):
    """Coarsest equitable partition of G (every vertex of cell X has the
    same number of neighbours in cell Y), as ascending vertex lists ordered
    by first vertex; cell c holds the vertices of _colours colour c.
    """
    colour = _colours(G)
    cells = [[] for _ in range(max(colour) + 1)]
    for v, c in enumerate(colour):
        cells[c].append(v)
    return cells


def _colours(G):
    """Each vertex's cell in the coarsest equitable partition of G, cells
    numbered in order of their first vertex. Colour refinement from the
    degrees recolours each vertex by its colour and its neighbours' colour
    multiset until a round splits no cell; a regular graph is one cell.
    """
    ids = {}
    colour = [ids.setdefault(d, len(ids)) for d in G.degree_sequence]
    count = len(ids)
    if count > 1:
        adj = _neighbours(G)
        while True:
            ids = {}
            new = [ids.setdefault((colour[v], tuple(sorted(colour[u] for u in adj[v]))),
                                  len(ids)) for v in range(G.n)]
            if len(ids) == count:
                break
            colour, count = new, len(ids)
    return colour


# ---------------------------------------------------------------------------
# cheap isomorphism-distinguishing invariants
#
# These are one-sided certificates: a differing invariant proves
# non-isomorphism, matching invariants prove nothing.

def triangles_per_edge(G):
    """Sorted multiset of common-neighbor counts over edges."""
    A = adjacency_matrix(G)
    return _triangles_per_edge(A @ A, *_edge_arrays(G))


def triangle_counts_per_vertex(G):
    A = adjacency_matrix(G)
    return _triangles_per_vertex(A, A @ A)


def four_clique_count(G):
    """Number of 4-cliques, counted over common-neighbor pairs per edge."""
    return _four_cliques(adjacency_matrix(G), *_edge_arrays(G))


def _edge_arrays(G):
    """Endpoint index arrays (I, J) over the edges of G."""
    return np.array(list(G.edges), dtype=np.intp).reshape(-1, 2).T


def _as_ints(values):
    return np.rint(values).astype(np.int64)


def _triangles_per_edge(A2, I, J):
    return sorted(_as_ints(A2[I, J]).tolist())


def _triangles_per_vertex(A, A2):
    # (A^3)_vv = sum_u (A^2)_vu A_uv counts each triangle at v twice
    return sorted((_as_ints((A2 * A).sum(axis=1)) // 2).tolist())


def _four_cliques(A, I, J):
    # row e of C marks the common neighbours of edge e; C A C^T summed over
    # the diagonal counts adjacent ordered pairs of them, so each K4 is seen
    # twice from each of its 6 edges
    C = A[I] * A[J]
    return int(_as_ints(((C @ A) * C).sum())) // 12


def _invariants(G):
    """(name, value) for each cheap invariant, in order of increasing cost;
    the adjacency matrix is built once, when first needed."""
    yield "vertex count", G.n
    yield "edge count", G.m
    yield "degree multiset", sorted(G.degree_sequence)
    A = adjacency_matrix(G)
    A2 = A @ A
    I, J = _edge_arrays(G)
    yield "triangles per vertex", _triangles_per_vertex(A, A2)
    yield "triangles per edge", _triangles_per_edge(A2, I, J)
    yield "4-clique count", _four_cliques(A, I, J)


def nonisomorphism_witness(G1, G2):
    """First cheap invariant separating G1 from G2, or None if all agree.

    Returns (invariant_name, value_on_G1, value_on_G2). Tried in order of
    increasing cost; the 4-clique count is what separates the bundled
    strongly regular pair, whose degree, triangle, and common-neighbor
    statistics all coincide.
    """
    for (name, v1), (_, v2) in zip(_invariants(G1), _invariants(G2)):
        if v1 != v2:
            return (name, v1, v2)
    return None
