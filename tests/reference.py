"""Independent reference implementations that the tests hold the package
against. None of them is called by the package."""

from fractions import Fraction

from alphacentral import ParameterError
from alphacentral.graphs import _neighbours


def det_exact(M):
    """Determinant by exact Gaussian elimination over Fractions.

    Independent of the charpoly route; used to cross-check it.
    """
    rows = [[Fraction(x) for x in row] for row in M]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ParameterError("matrix is not square")
    sign = 1
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pivot = rows[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = rows[r][col] / pivot
            if factor == 0:
                continue
            rows[r][col] = Fraction(0)
            for cix in range(col + 1, n):
                rows[r][cix] -= factor * rows[col][cix]
    return sign * det


def crt_garner(residues, primes):
    """The integer of least absolute value with the given residues modulo
    the given distinct primes, by Garner's mixed-radix recurrence: each
    step fixes the next digit modulo the next prime."""
    x, radix = 0, 1
    for r, p in zip(residues, primes):
        x += radix * ((r - x) * pow(radix, -1, p) % p)
        radix *= p
    return x - radix if 2 * x > radix else x


def colours_by_rounds(G):
    """The coarsest equitable partition of G as Graph._cell_colours gives
    it, by plain colour refinement: every round recolours every vertex by
    its colour and its neighbours' colour multiset, numbering the new
    colours in order of their first vertex, until a round splits no
    cell."""
    colour, count = [0] * G.n, 1
    adj = _neighbours(G)
    while True:
        ids = {}
        new = [ids.setdefault((colour[v], tuple(sorted(colour[u] for u in adj[v]))), len(ids))
               for v in range(G.n)]
        if len(ids) == count:
            return tuple(colour)
        colour, count = new, len(ids)
