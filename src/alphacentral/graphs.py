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
from functools import cached_property
from itertools import accumulate, combinations

import numpy as np

from .errors import ParameterError, ParseError

FAMILIES = ("complete", "complete_bipartite", "cycle", "path",
            "petersen", "shrikhande", "rook4x4")


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Its value is n, the frozenset `edges` of (i, j) pairs with i < j, and
    the label: equality, hashing and the edge-list format read those.
    Instances are immutable value objects; every operation returns a new
    Graph.

    A Graph is born either from its edges (the constructor, from_edges) or
    from its read-only 0/1 adjacency matrix (_from_adjacency, used by the
    central graph, the join and the complement). Its one edge index
    (_edge_index), the endpoints of its edges in lexicographic order, is
    read off whichever it was born with. Every structural read goes
    through that index and costs O(n + m) once it exists: the edge count,
    the degrees and regularity, the sorted edges, the edge-list text, the
    neighbour lists (connectivity, the equitable partition) and the
    incidence matrix. Only spectral reads form the n x n matrix: the
    adjacency and A_alpha matrices, eigenvalues, the complement and the
    constructions. A matrix-born graph forms its edge set only when
    something reads `edges`.

    Because an instance never changes, the data derived from it alone is
    computed once, on first use, and kept on the instance: the edge index,
    the degree tuple, the common degree (regularity), the colours of the
    coarsest equitable partition, the float adjacency matrix (stored
    read-only) and its checked ascending eigenvalues. They live exactly as
    long as the instance. Public accessors (degree_sequence,
    adjacency_matrix) hand out copies the caller owns.
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

    @classmethod
    def _from_adjacency(cls, A, label=""):
        """The Graph whose float adjacency matrix is A: symmetric, 0/1, zero
        diagonal, order >= 1, not checked. Takes ownership of A and makes it
        read-only."""
        A.flags.writeable = False
        G = object.__new__(cls)
        G.__dict__.update(n=A.shape[0], label=label, _adjacency=A)
        return G

    def __getattr__(self, name):
        # only reached for a matrix-born graph's edge set, on its first read
        if name != "edges" or "_adjacency" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        edges = self.__dict__["edges"] = frozenset(self.sorted_edges())
        return edges

    @cached_property
    def _edge_index(self):
        """(I, J): the endpoints i < j of the edges in lexicographic order,
        as integer arrays. A matrix-born graph has no edge set until one is
        formed from this index, so it reads them off the strict upper
        triangle of its matrix, row by row; an edge-born graph sorts its
        edges."""
        if "edges" in self.__dict__:
            return tuple(np.array(sorted(self.edges), dtype=np.int64).reshape(-1, 2).T)
        upper = (self._adjacency > 0) & ~np.tri(self.n, dtype=bool)
        return np.divmod(np.flatnonzero(upper), self.n)

    @property
    def m(self):
        return len(self._edge_index[0])

    def sorted_edges(self):
        """Edges in lexicographic order, with one int object per vertex
        shared by its edges; fixes incidence column order."""
        I, J = self._edge_index
        vertex = list(range(self.n)).__getitem__
        return list(zip(map(vertex, I.tolist()), map(vertex, J.tolist())))

    def has_edge(self, i, j):
        return (min(i, j), max(i, j)) in self.edges

    @property
    def degree_sequence(self):
        return list(self._degrees)

    @cached_property
    def _degrees(self):
        return tuple(np.bincount(np.concatenate(self._edge_index), minlength=self.n).tolist())

    @cached_property
    def _regularity(self):
        r = self._degrees[0]
        return r if all(d == r for d in self._degrees) else None

    @cached_property
    def _cell_colours(self):
        """Each vertex's cell in the coarsest equitable partition, cells
        numbered in order of their first vertex. Colour refinement from one
        colour recolours each vertex by its colour and its neighbours'
        colour multiset until a round splits no cell; the first round splits
        by degree, so a regular graph is one cell."""
        colour, count = [0] * self.n, 1
        adj = _neighbours(self)
        while True:
            ids = {}
            new = [ids.setdefault((colour[v], tuple(sorted(colour[u] for u in adj[v]))),
                                  len(ids)) for v in range(self.n)]
            if len(ids) == count:
                break
            colour, count = new, len(ids)
        return tuple(colour)

    @cached_property
    def _adjacency(self):
        """The float adjacency matrix, read-only."""
        A = np.zeros((self.n, self.n))
        for i, j in self.edges:
            A[i, j] = A[j, i] = 1.0
        A.flags.writeable = False
        return A

    @cached_property
    def _adjacency_eigenvalues(self):
        """Ascending eigenvalues of the adjacency matrix, read-only, from the
        one checked eigensolver gate (spectra._eigh_checked).

        An r-regular graph has spectral radius r, and -r is an eigenvalue
        once per bipartite component, so its smallest eigenvalues are -r
        that many times. They are set to -r exactly, counted by an exact
        2-colouring (_components), not by a threshold: the solver returns
        -1.9999999999999996 for C6."""
        from . import spectra  # spectra imports this module
        w = spectra._eigh_checked(self._adjacency)[0]
        r = self._regularity
        if r:
            w[:sum(bipartite for _, bipartite in _components(self))] = -r
        w.flags.writeable = False
        return w

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
    """Serialize a Graph to the edge-list format; parse(format(G)) == G.

    The edges are written row by row from the graph's edge index, so no
    (i, j) tuple is made per edge: each vertex name is formed once, and the
    lines of row i are one join of its later neighbours' names.
    """
    I, J = G._edge_index
    names = list(map(str, range(G.n)))
    bounds = np.searchsorted(I, np.arange(G.n + 1)).tolist()
    out = [str(G.n)]
    for i, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        if start < stop:
            head = names[i] + " "
            out.append(head + ("\n" + head).join(map(names.__getitem__, J[start:stop].tolist())))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# matrix extractors

def adjacency_matrix(G):
    """Symmetric 0/1 adjacency matrix with zero diagonal (float64); a copy
    the caller owns."""
    return G._adjacency.copy()


def degree_matrix(G):
    return np.diag(np.asarray(G.degree_sequence, dtype=float))


def incidence_matrix(G):
    """n x m vertex-edge incidence matrix, columns in lexicographic edge order."""
    I, J = G._edge_index
    R = np.zeros((G.n, len(I)))
    columns = np.arange(len(I))
    R[I, columns] = R[J, columns] = 1.0
    return R


def complement(G):
    """Complement graph: {i, j} present iff absent in G. A(G)+A(comp) = J-I."""
    lab = f"co-{G.label}" if G.label else ""
    return Graph._from_adjacency(1.0 - np.eye(G.n) - G._adjacency, lab)


def regularity(G):
    """Common degree r if G is regular, else None. K_1 is 0-regular."""
    return G._regularity


def _neighbours(G):
    """Ascending adjacency lists of G, from its edge index. Edge (i, j)
    puts i in j's list and j in i's. One stable sort by list, over the
    edges keyed by J and then by I, keeps index order within each part, so
    v's list holds the I of the edges with J = v, which ascend because the
    index is lexicographic, then the J of the edges with I = v."""
    I, J = G._edge_index
    others = np.concatenate([I, J])[np.argsort(np.concatenate([J, I]), kind="stable")]
    bounds = [0, *accumulate(G._degrees)]
    return [others[start:stop].tolist() for start, stop in zip(bounds, bounds[1:])]


def _components(G):
    """(size, bipartite) of each connected component of G, in order of its
    first vertex, by breadth-first search with an exact 2-colouring: a
    component is bipartite unless an edge joins two vertices of one
    colour."""
    adj = _neighbours(G)
    side = [-1] * G.n
    for s in range(G.n):
        if side[s] >= 0:
            continue
        side[s], queue, size, bipartite = 0, deque([s]), 0, True
        while queue:
            v = queue.popleft()
            size += 1
            for w in adj[v]:
                if side[w] < 0:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    bipartite = False
        yield size, bipartite


def is_connected(G):
    return next(_components(G))[0] == G.n


def equitable_partition(G):
    """Coarsest equitable partition of G (every vertex of cell X has the
    same number of neighbours in cell Y), as ascending vertex lists ordered
    by first vertex; cell c holds the vertices of colour c in the colour
    refinement that Graph._cell_colours runs once per instance.
    """
    colour = G._cell_colours
    cells = [[] for _ in range(max(colour) + 1)]
    for v, c in enumerate(colour):
        cells[c].append(v)
    return cells


# ---------------------------------------------------------------------------
# cheap isomorphism-distinguishing invariants
#
# These are one-sided certificates: a differing invariant proves
# non-isomorphism, matching invariants prove nothing.

def triangles_per_edge(G):
    """Sorted multiset of common-neighbor counts over edges."""
    return _invariant(G, "triangles per edge")


def triangle_counts_per_vertex(G):
    return _invariant(G, "triangles per vertex")


def four_clique_count(G):
    """Number of 4-cliques, counted over common-neighbor pairs per edge."""
    return _invariant(G, "4-clique count")


def _as_ints(values):
    return np.rint(values).astype(np.int64)


def _invariants(G):
    """(name, value) for each cheap invariant, in order of increasing cost;
    A is the graph's cached adjacency and A^2 is formed once, when first
    needed. This is the one place each invariant is computed; the public
    triangle_counts_per_vertex, triangles_per_edge and four_clique_count
    read their value from here.

    (A^3)_vv = sum_u (A^2)_vu A_uv counts each triangle at v twice, and
    (A^2)_ij over an edge ij counts the triangles on it. Row e of C marks
    the common neighbours of edge e; C A C^T summed over the diagonal counts
    adjacent ordered pairs of them, so each K4 is seen twice from each of
    its 6 edges.
    """
    yield "vertex count", G.n
    yield "edge count", G.m
    yield "degree multiset", sorted(G._degrees)
    A = G._adjacency
    A2 = A @ A
    yield "triangles per vertex", sorted((_as_ints((A2 * A).sum(axis=1)) // 2).tolist())
    I, J = G._edge_index
    yield "triangles per edge", sorted(_as_ints(A2[I, J]).tolist())
    C = A[I] * A[J]
    yield "4-clique count", int(_as_ints(((C @ A) * C).sum())) // 12


def _invariant(G, name):
    return next(value for key, value in _invariants(G) if key == name)


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
