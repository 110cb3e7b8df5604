"""Immutable simple graphs, generators, parsing, and matrix extractors.

A Graph's value is its order, its label and its edge index, the sorted
codes i*n + j of its edges (see Graph). Vertex orderings are fixed per
generator and edges are always enumerated in lexicographic (i, j) order
with i < j, the order of the codes, so every matrix derived from a graph
is reproducible bit for bit. Incidence-matrix columns follow the same edge
order everywhere downstream.

Every integer input is decided by one rule, operator.index: a Graph's
order, each generator parameter and the (p, q) of K_{p,q} (_size, _sizes),
and each edge endpoint (_endpoints). Python and numpy integers are
accepted, and a size is returned as a plain int; a float, a Fraction or a
str is refused with ParameterError, never truncated.

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

import operator
from collections import Counter
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import ParameterError, ParseError

FAMILIES = ("complete", "complete_bipartite", "cycle", "path",
            "petersen", "shrikhande", "rook4x4")


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Its value is n, the label and the edge index: the codes i*n + j of its
    edges {i, j}, i < j (their flat positions in the n x n adjacency
    matrix), in ascending, hence lexicographic, order, one read-only int64
    array. Equality compares those three and hashing reads the codes'
    bytes. Pickle and copy carry only the value and rebuild the graph
    through the constructor. Instances are immutable value objects; every
    operation returns a new Graph.

    A Graph is born from its pairs or from its matrix. The constructor
    (each pair (i, j) with i < j), from_edges (either order; duplicates
    collapse), parse_edge_list and the cycle, path and Petersen generators
    check the pairs and form the index with numpy, with no Python object
    per edge. The dense graphs (the complete, complete bipartite,
    Shrikhande and rook's graphs, the central graph, the join and the
    complement) are born from their read-only 0/1 adjacency matrix
    (_from_adjacency) and read their index off its strict upper triangle on
    their first structural read. Every structural read goes through the
    index and costs O(n + m) once it exists: the edge count, has_edge (one
    binary search), the degrees and regularity, the sorted edges, the
    edge-list text, the neighbour lists (connectivity, the equitable
    partition) and the incidence matrix. Only spectral reads form the n x n
    matrix: the adjacency and A_alpha matrices, eigenvalues, the complement
    and the constructions. The frozenset `edges` of (i, j) pairs is formed
    only when something reads it.

    Because an instance never changes, the data derived from it alone is
    computed once, on first use, and kept on the instance: the edge index
    and its (I, J) endpoint arrays, the edge set, the degree tuple, the
    common degree (regularity), the colours of the coarsest equitable
    partition, the alpha-free parts of the quotient over it and, when every
    two of its cells are joined completely or not at all, the cells'
    degrees and induced adjacency spectra (_cell_spectra), the float
    adjacency matrix (stored read-only) and its checked ascending
    eigenvalues. They live exactly as long as the instance. Public
    accessors (degree_sequence, adjacency_matrix) hand out copies the
    caller owns.
    """

    def __init__(self, n, edges, label=""):
        """The graph on n vertices with the edges (i, j), i < j, of the
        iterable or (m, 2) integer array `edges`; repeats collapse. n is
        decided by _size. A pair outside 0 <= i < j < n is refused, the
        first one in input order named; so is an endpoint that
        operator.index refuses (a float, a Fraction), as charpoly_int
        does."""
        n = _size(n, "vertex count must be a positive integer")
        I, J = _endpoints(edges)
        bad = (I < 0) | (I >= J) | (J >= n)
        if bad.any():
            k = bad.argmax()
            raise ParameterError(f"edge ({I[k]}, {J[k]}) invalid for n={n} (need 0 <= i < j < n)")
        # ValueError where n * n outgrows int64, not codes that wrap around
        codes = np.sort(np.ravel_multi_index(np.array([I, J], dtype=np.int64), (n, n)))
        codes = codes[np.diff(codes, prepend=-1) > 0]  # drop repeats
        vars(self).update(n=n, label=label, _codes=_read_only(codes))

    @classmethod
    def from_edges(cls, n, pairs, label=""):
        """Build a Graph from unordered pairs; duplicates collapse, order
        ignored. A self-loop is refused before any other pair."""
        I, J = _endpoints(pairs)
        if (I == J).any():
            raise ParameterError(f"self-loop at vertex {I[(I == J).argmax()]}")
        return cls(n, np.transpose([np.minimum(I, J), np.maximum(I, J)]), label)

    @classmethod
    def _from_adjacency(cls, A, label=""):
        """The Graph whose float adjacency matrix is A: symmetric, 0/1, zero
        diagonal, order >= 1, not checked. Takes ownership of A and makes it
        read-only."""
        G = object.__new__(cls)
        vars(G).update(n=A.shape[0], label=label, _adjacency=_read_only(A))
        return G

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a Graph is immutable; {name!r} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (self.n, np.transpose(self._edge_index), self.label)

    def __eq__(self, other):
        return (isinstance(other, Graph) and (self.n, self.label) == (other.n, other.label)
                and np.array_equal(self._codes, other._codes))

    def __hash__(self):
        return hash((self.n, self.label, self._codes.tobytes()))

    @cached_property
    def _codes(self):
        """A matrix-born graph's edge index, read off the strict upper
        triangle of its matrix row by row; every other graph is born with
        its index."""
        return _read_only(np.flatnonzero((self._adjacency > 0) & ~np.tri(self.n, dtype=bool)))

    @cached_property
    def _edge_index(self):
        """(I, J): the endpoints i < j of the edges in lexicographic order,
        read-only."""
        return tuple(map(_read_only, np.divmod(self._codes, self.n)))

    @property
    def m(self):
        return len(self._codes)

    @cached_property
    def edges(self):
        """The frozenset of (i, j) pairs with i < j, formed on first read."""
        return frozenset(self.sorted_edges())

    def sorted_edges(self):
        """Edges in lexicographic order, with one int object per vertex
        shared by its edges; fixes incidence column order."""
        I, J = self._edge_index
        vertex = list(range(self.n)).__getitem__
        return list(zip(map(vertex, I.tolist()), map(vertex, J.tolist())))

    def has_edge(self, i, j):
        i, j = sorted((i, j))
        code = i * self.n + j if 0 <= i < j < self.n else -1  # -1 is no edge's code
        k = self._codes.searchsorted(code)
        return bool(k < self.m and self._codes[k] == code)

    @property
    def degree_sequence(self):
        return list(self._degrees)

    @cached_property
    def _degrees(self):
        return tuple(np.bincount(np.concatenate(self._edge_index), minlength=self.n).tolist())

    @cached_property
    def _regularity(self):
        return self._degrees[0] if len(set(self._degrees)) == 1 else None

    @cached_property
    def _cell_colours(self):
        """Each vertex's cell in the coarsest equitable partition, cells
        numbered in order of their first vertex.

        Colour refinement from one colour: a round splits every cell by its
        vertices' signatures, the sorted colours of their neighbours, until
        a round splits no cell. The first round splits by degree, with no
        signature formed, so a regular graph is one cell. A later round
        re-examines only the neighbours of the vertices whose colour changed
        in the round before, in cells of two or more vertices (McKay and
        Piperno, J. Symbolic Comput. 60 (2014) 94-112). Every other vertex
        kept its neighbours' colours, so it keeps the signature that all of
        its cell shared. A re-examined vertex lost a neighbour's old colour,
        so its signature differs from that one. So the vertices that are
        not re-examined stay together and keep the cell's colour (in the
        first round, the most common degree keeps colour 0); when every
        vertex of a cell is re-examined, the first part met keeps it. Only
        the other parts change colour. Each round thus splits the cells as a
        round over every vertex would, and a path-like graph that needs many
        rounds pays for the changed vertices only.
        """
        classes = Counter(self._degrees).most_common()  # the most common degree first
        ids = {d: c for c, (d, _) in enumerate(classes)}
        colour = [ids[d] for d in self._degrees]
        size = [count for _, count in classes]
        changed = [v for v, c in enumerate(colour) if c]
        adj = _neighbours(self) if changed else None
        while changed and len(size) < self.n:  # a discrete partition splits no further
            parts = {}  # cell -> signature -> its re-examined vertices
            for v in {u for v in changed for u in adj[v]}:
                c = colour[v]
                if size[c] > 1:
                    s = tuple(sorted([colour[u] for u in adj[v]]))
                    parts.setdefault(c, {}).setdefault(s, []).append(v)
            changed = []
            for c, by_signature in parts.items():
                split = list(by_signature.values())
                if sum(map(len, split)) == size[c]:
                    split.pop(0)
                for vs in split:
                    size[c] -= len(vs)
                    for v in vs:
                        colour[v] = len(size)
                    size.append(len(vs))
                    changed += vs
        first = {}
        return tuple(first.setdefault(c, len(first)) for c in colour)

    @cached_property
    def _quotient(self):
        """(d, R, s), read-only: the alpha-free parts of the symmetrized
        quotient of A_alpha over the coarsest equitable partition, whose
        k cells are numbered as in _cell_colours. The package reads the
        number of cells, their sizes and the quotient only from here.

        B[X, Y] counts the neighbours in cell Y of a vertex of cell X; d =
        B 1 holds the cells' degrees, R = sqrt(B o B^T) and s the cell
        sizes. A_alpha acts on the cell-constant vectors as alpha diag(d) +
        (1 - alpha) B, and s_X B[X, Y] = s_Y B[Y, X] counts the edges
        between X and Y, so diag(sqrt(s)) conjugates that action into the
        symmetric alpha diag(d) + (1 - alpha) R (Godsil and Royle,
        Algebraic Graph Theory, section 9.3). Counted from the edge index in
        O(m + k^2).
        """
        ends, size = _cell_edges(self)
        B = ends / size[:, None]
        return tuple(map(_read_only, (B.sum(axis=1), np.sqrt(B * B.T), size)))

    @cached_property
    def _cell_spectra(self):
        """(d, lam), read-only, or None: the alpha-free data that gives the
        eigenvalues of A_alpha off the cell-constant vectors as alpha d +
        (1 - alpha) lam, or None unless every two cells of the coarsest
        equitable partition are joined completely or not at all.

        Each cell X induces a regular graph G[X], as the partition is
        equitable. When every two cells are joined completely or not at all,
        a vector supported on X that sums to zero there is sent by A to
        A(G[X]) times itself, as every vertex outside X sees all of X or
        none of it, and D is d_X on X. So A_alpha acts there as alpha d_X +
        (1 - alpha) A(G[X]), whose eigenvalues off the all-ones vector of X
        are those of G[X] less one Perron copy (Cardoso, de Freitas,
        Martins and Robbiano, Discrete Math. 313 (2013) 733-741). lam holds
        them, cell by cell, from each induced graph's checked
        _adjacency_eigenvalues (a one-cell graph reads its own), and d
        repeats each cell's degree (_quotient) once per eigenvalue. Whether
        two cells are joined completely is decided from their integer edge
        count, which must be 0 or the product of their sizes.
        """
        ends, size = _cell_edges(self)
        if ((ends != 0) & (ends != np.outer(size, size)) & ~np.eye(len(size), dtype=bool)).any():
            return None
        cells = [self] if len(size) == 1 else [Graph._from_adjacency(self._adjacency[np.ix_(X, X)])
                                               for X in equitable_partition(self)]
        lam = np.concatenate([G._adjacency_eigenvalues[:-1] for G in cells])
        return _read_only(np.repeat(self._quotient[0], size - 1)), _read_only(lam)

    @cached_property
    def _adjacency(self):
        """The float adjacency matrix of an index-born graph, filled from its
        edge index, read-only; a matrix-born graph is born with it."""
        A = np.zeros((self.n, self.n))
        I, J = self._edge_index
        A[[I, J], [J, I]] = 1.0
        return _read_only(A)

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
        return _read_only(w)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"Graph(n={self.n}, m={self.m}{tag})"


def _read_only(a):
    a.flags.writeable = False
    return a


def _cell_edges(G):
    """(E, s) over the k cells of the coarsest equitable partition
    (Graph._cell_colours): the k x k integer counts E[X, Y] of the edges
    between cells X and Y, twice the edges inside X on the diagonal, and
    the cell sizes. O(m + k^2)."""
    colour = np.array(G._cell_colours)
    k = int(colour.max()) + 1
    X, Y = colour[np.stack(G._edge_index)]
    ends = np.bincount(np.concatenate([X * k + Y, Y * k + X]), minlength=k * k)
    return ends.reshape(k, k), np.bincount(colour, minlength=k)


def _size(x, what, minimum=1):
    """x as a plain int: the package's one integer rule, operator.index, the
    rule of edge endpoints and of charpoly_int's entries. A float, a
    Fraction or a str, or a value below minimum, raises ParameterError
    "{what}, got {x!r}"."""
    try:
        if (n := operator.index(x)) >= minimum:
            return n
    except TypeError:
        pass
    raise ParameterError(f"{what}, got {x!r}")


def _sizes(family, params, names, minimum=1):
    """The parameters `names` of family (a tuple such as ("p", "q")) as a
    list of plain ints, each decided by _size; a count other than
    len(names) raises ParameterError."""
    params = list(params)
    if len(params) != len(names):
        raise ParameterError(f"{family} takes parameters [{', '.join(names)}], got {params}")
    what = f"{family} needs integer {', '.join(names)} >= {minimum}"
    return [_size(x, what, minimum) for x in params]


def _endpoints(pairs):
    """(I, J): the first and the second endpoints of an iterable or (m, 2)
    array of pairs, as integer arrays; an endpoint that operator.index
    refuses raises ParameterError."""
    pairs = pairs if isinstance(pairs, np.ndarray) else list(pairs)
    P = np.asarray(pairs).reshape(len(pairs), 2)
    if len(P) and P.dtype.kind != "i":  # a bool, float, Fraction or huge int among them
        try:
            P = np.frompyfunc(operator.index, 1, 1)(np.array(pairs, dtype=object))
        except TypeError as exc:
            raise ParameterError(f"edge endpoints must be integers: {exc}") from None
    return P[:, 0], P[:, 1]


# ---------------------------------------------------------------------------
# generators

def generate(family, params=()):
    """Return a named catalog graph with its canonical vertex ordering.

    Parameters
    ----------
    family : str
        One of FAMILIES.
    params : sequence of int
        Family parameters, each decided by _size: complete [n],
        complete_bipartite [p, q], cycle [n], path [n]; the three fixed
        graphs take no parameters.
    """
    if family in ("petersen", "shrikhande", "rook4x4"):
        _sizes(family, params, ())
    if family == "complete":
        [n] = _sizes(family, params, ("n",))
        return Graph._from_adjacency(1.0 - np.eye(n), f"K{n}")
    if family == "complete_bipartite":
        p, q = _sizes(family, params, ("p", "q"))
        A = np.zeros((p + q, p + q))
        A[:p, p:] = A[p:, :p] = 1.0
        return Graph._from_adjacency(A, f"K{p},{q}")
    if family in ("cycle", "path"):
        [n] = _sizes(family, params, ("n",), minimum=3 if family == "cycle" else 1)
        v = np.arange(n if family == "cycle" else n - 1)
        return Graph.from_edges(n, np.transpose([v, (v + 1) % n]), f"{family[0].upper()}{n}")
    if family == "petersen":
        i = np.arange(5)
        outer, inner, spokes = (i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i)
        return Graph.from_edges(10, np.hstack([outer, inner, spokes]).T, "Petersen")
    if family in ("shrikhande", "rook4x4"):
        # vertex 4i + j: the row and column differences of u and v in Z4 x Z4
        u, v = np.indices((16, 16))
        dr, dc = (u // 4 - v // 4) % 4, (u - v) % 4
        A = (np.isin(4 * dr + dc, [1, 3, 4, 5, 12, 15]) if family == "shrikhande"
             else (dr == 0) != (dc == 0))
        return Graph._from_adjacency(A.astype(float), family.capitalize())
    raise ParameterError(f"unknown family {family!r}; choose from {FAMILIES}")


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
    n, pairs = None, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    R[[I, J], np.arange(len(I))] = 1.0
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
        side[s], queue, bipartite = 0, [s], True
        for v in queue:  # the queue grows as the search reaches new vertices
            for w in adj[v]:
                if side[w] < 0:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    bipartite = False
        yield len(queue), bipartite


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
