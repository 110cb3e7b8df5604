"""The three workloads: seeded operations, independent checks, and the call
counts each workload's inputs imply.

An operation is one call into alphacentral's public API, made exactly as the
matching CLI command makes it:

- sweep:   ``alphacentral verify``: one ``sweep([entry], [alpha])`` over
           ``default_catalog()``; alpha is 0, 1 or a jittered grid point in
           (0, 0.99).
- scale:   the same sweep call on central graphs and joins of large cycles at
           built orders 100, 200 and 300, plus ``coronal_equal_check`` on
           pairs of order 20, 40 and 80 (one pair with equal coronals, one
           with unequal).
- certify: ``alphacentral cospectral shrikhande rook4x4 H`` at a float alpha
           and ``alphacentral charpoly (C_20 vjoin H) --exact p/q``, for a
           seeded graph H of each order 2..6 (see make_certify).

No operation of these fails on the current code. The near-1 alpha band, where
the closed form is known to merge distinct roots (ROADMAP item 1), is kept out
of the timed operations and probed on its own by ``near1_probe``.

Each check rebuilds what it needs from the definitions with plain numpy or
Fractions, so a verify that always says pass is caught.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import alphacentral as ac

TOL = 1e-8  # the closed-form contract


@dataclass
class Op:
    kind: str
    order: int                     # order of the largest matrix the op builds
    call: Callable[[], object]     # the timed call into alphacentral
    passed: Callable[[object], bool]  # the program's own verdict on the result
    data: dict = field(default_factory=dict)


@dataclass
class Checked:
    """Outcome of the independent checks on one run."""

    rejected: set = field(default_factory=set)   # op indices counted as failed
    problems: list = field(default_factory=list)  # program contradicted by a check
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# plain-numpy rebuilds from the definitions

def adjacency(G):
    A = np.zeros((G.n, G.n))
    for i, j in G.edges:
        A[i, j] = A[j, i] = 1.0
    return A


def central_adjacency(G, extra=0):
    """Adjacency of the central graph of G, with `extra` empty trailing rows."""
    n, edges = G.n, sorted(G.edges)
    size = n + len(edges) + extra
    A = np.zeros((size, size))
    A[:n, :n] = 1.0 - np.eye(n)
    for k, (i, j) in enumerate(edges):
        A[i, j] = A[j, i] = 0.0
        A[i, n + k] = A[n + k, i] = A[j, n + k] = A[n + k, j] = 1.0
    return A


def built_adjacency(entry):
    """Adjacency of the graph a catalog entry stands for."""
    if isinstance(entry, ac.Graph):
        return central_adjacency(entry)
    g1, second = entry
    if isinstance(second, tuple):
        p, q = second
        n2, edges2 = p + q, [(i, p + j) for i in range(p) for j in range(q)]
    else:
        n2, edges2 = second.n, second.edges
    A = central_adjacency(g1, n2)
    off = A.shape[0] - n2
    for i, j in edges2:
        A[off + i, off + j] = A[off + j, off + i] = 1.0
    A[:g1.n, off:] = A[off:, :g1.n] = 1.0
    return A


def a_alpha(A, alpha):
    return alpha * np.diag(A.sum(axis=1)) + (1.0 - alpha) * A


def closed_spectrum(entry, alpha):
    if isinstance(entry, ac.Graph):
        return ac.spectrum_central_regular(entry, alpha)
    g1, second = entry
    if isinstance(second, tuple):
        return ac.spectrum_cvjoin_kpq(g1, second[0], second[1], alpha)
    return ac.spectrum_cvjoin_regular(g1, second, alpha)


def coronal(M, x):
    ones = np.ones(M.shape[0])
    return float(ones @ np.linalg.solve(x * np.eye(M.shape[0]) - M, ones))


def cycles(*sizes):
    """Disjoint union of cycles, in order."""
    edges, off = [], 0
    for s in sizes:
        edges += [(off + i, off + (i + 1) % s) for i in range(s)]
        off += s
    return ac.Graph.from_edges(off, edges)


def random_graph(rng, order):
    """Seeded graph of the given order with half of all possible edges."""
    pairs = [(i, j) for i in range(order) for j in range(i + 1, order)]
    return ac.Graph.from_edges(order, rng.sample(pairs, len(pairs) // 2), f"H{order}")


# ---------------------------------------------------------------------------
# sweep and scale: the verify path

def entry_order(entry):
    if isinstance(entry, ac.Graph):
        return entry.n + entry.m
    g1, second = entry
    return g1.n + g1.m + (sum(second) if isinstance(second, tuple) else second.n)


def sweep_op(entry, alpha):
    kind = "central" if isinstance(entry, ac.Graph) else "join"
    return Op(kind, entry_order(entry),
              lambda: ac.sweep([entry], [alpha], include_formula_notes=False),
              lambda rep: rep.counts["pass"] == len(rep.cases) == 1,
              {"entry": entry, "alpha": alpha})


SWEEP_GRID = 14


def sweep_alphas(rng):
    """0, 1 and SWEEP_GRID jittered points in (0, 0.99)."""
    return [0.0, 1.0] + [0.99 * (i + rng.random()) / SWEEP_GRID for i in range(SWEEP_GRID)]


def make_sweep(rng):
    alphas = sweep_alphas(rng)
    ops = [sweep_op(e, a) for e in ac.default_catalog() for a in alphas]
    rng.shuffle(ops)
    return ops


def near1_probe(rng):
    """The catalog at alpha = 1 - 10^-(k + u) for k = 1..9: the band where
    solve_poly_real merges distinct roots (ROADMAP item 1). Not timed."""
    alphas = [1.0 - 10.0 ** -(k + rng.random()) for k in range(1, 10)]
    return [sweep_op(e, a) for e in ac.default_catalog() for a in alphas]


def check_near1(ops, results):
    """Cases of the probe that fail, by the program's verdict or by numpy;
    `problems` holds every case where the two disagree."""
    out = Checked()
    for i, (op, res) in enumerate(zip(ops, results)):
        if isinstance(res, Exception) or not op.passed(res):
            out.rejected.add(i)
        if not isinstance(res, Exception):
            check_sweep_case(i, op, res, out)
    return out


SCALE_ORDERS = (100, 200, 300)
CORONAL_ORDERS = (20, 40, 80)


def make_scale(rng):
    grid = [(i + rng.random()) / 6 for i in range(6)]
    rng.shuffle(grid)
    ops = []
    for order in SCALE_ORDERS:
        ops.append(sweep_op(ac.generate("cycle", [order // 2]), grid.pop()))
        n = order // 3
        ops.append(sweep_op((ac.generate("cycle", [n]), ac.generate("cycle", [n])),
                            grid.pop()))
    for n in CORONAL_ORDERS:
        split = rng.randrange(3, n - 2)
        alpha = rng.random()
        points = [3.0 + 0.37 * k for k in range(2 * n + 1)]  # above every eigenvalue (<= 2)
        for kind, h2 in (("coronal-equal", cycles(split, n - split)),
                         ("coronal-unequal", ac.Graph.from_edges(
                             n, cycles(split).edges | {(i, i + 1) for i in range(split, n - 1)}))):
            h1 = ac.generate("cycle", [n])
            expected = kind == "coronal-equal"
            ops.append(Op(kind, n,
                          (lambda h1=h1, h2=h2, a=alpha, p=points:
                           ac.coronal_equal_check(h1, h2, a, p)),
                          (lambda res, e=expected: bool(res) == e),
                          {"pair": (h1, h2), "alpha": alpha, "point": points[0],
                           "expected": expected}))
    rng.shuffle(ops)
    return ops


def check_sweep_case(idx, op, report, out):
    entry, alpha = op.data["entry"], op.data["alpha"]
    own = np.linalg.eigvalsh(a_alpha(built_adjacency(entry), alpha))[::-1]
    try:
        closed = np.array(closed_spectrum(entry, alpha).values)
        dev = float(np.max(np.abs(closed - own))) if closed.size == own.size else math.inf
    except (ac.InternalCheckError, ac.PreconditionError):
        dev = math.inf
    independent_pass = dev <= TOL
    if not independent_pass:
        out.rejected.add(idx)
    case = report.cases[0]
    if (case.status == "pass") != independent_pass:
        out.problems.append(f"op {idx} alpha={alpha!r}: report says {case.status}, "
                            f"independent deviation {dev:.3e}")
    if case.oracle_min is not None and (abs(case.oracle_min - own[-1]) > TOL
                                        or abs(case.oracle_max - own[0]) > TOL):
        out.rejected.add(idx)
        out.problems.append(f"op {idx}: oracle extremes disagree with numpy")


def check_coronal_case(idx, op, result, out):
    h1, h2 = op.data["pair"]
    x, a = op.data["point"], op.data["alpha"]
    m1, m2 = a_alpha(adjacency(h1), a), a_alpha(adjacency(h2), a)
    gap = abs(coronal(m1, x) - coronal(m2, x))
    truly_equal = gap <= 1e-9
    if truly_equal != op.data["expected"]:
        out.problems.append(f"op {idx}: pair built as {op.kind} has coronal gap {gap:.3e}")
    if bool(result) != op.data["expected"]:
        out.rejected.add(idx)
        out.problems.append(f"op {idx}: coronal_equal_check returned {result!r} "
                            f"for a pair with coronal gap {gap:.3e}")


def check_sweep(ops, results, rng):
    """Every op: the cases are small, and a sample can miss the few that a
    verify saying pass too often would get wrong."""
    out = Checked()
    for i, (op, res) in enumerate(zip(ops, results)):
        if not isinstance(res, Exception):
            check_sweep_case(i, op, res, out)
    failed = sum(not _ok(op, r) for op, r in zip(ops, results))
    out.notes.append(f"checked all {len(ops)} ops ({failed} failed by the program)")
    return out


def check_scale(ops, results, rng):
    out = Checked()
    sweeps = [i for i, op in enumerate(ops) if op.kind in ("central", "join")]
    sample = rng.sample(sweeps, 2)
    for i, op in enumerate(ops):
        if isinstance(results[i], Exception):
            continue
        if op.kind.startswith("coronal"):
            check_coronal_case(i, op, results[i], out)
        elif i in sample:
            check_sweep_case(i, op, results[i], out)
    out.notes.append(f"checked every coronal op and sweep ops {sorted(sample)}")
    return out


# ---------------------------------------------------------------------------
# certify: the cospectral and exact characteristic polynomial paths

CERTIFY_ORDERS = range(2, 7)
CERTIFY_ALPHAS = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 5), Fraction(4, 7))
EXACT_BASE = 20  # the exact operations run on central(C_20) vjoin H


def make_certify(rng):
    """Two operations for a seeded graph H of each order 2..6:

    - ``alphacentral cospectral shrikhande rook4x4 H --alpha a`` with a
      seeded float a: the seeds' exact adjacency certificate, both joins
      eigensolved, and the non-isomorphism witnesses;
    - ``alphacentral charpoly G --exact p/q`` on G = C_20 vjoin H (order
      40 + |H|): the exact engine. The order of H fixes p/q, one of 0, 1,
      1/3, 2/5 and 4/7, so every seed gives the same mix of orders and
      entry sizes.

    The rational certificate of the cospectral joins themselves takes about
    a second per alpha, too long to repeat within a run; check_certify runs
    one, untimed."""
    g1, g2 = ac.generate("shrikhande"), ac.generate("rook4x4")
    base = ac.generate("cycle", [EXACT_BASE])
    ops = []
    for order, exact_alpha in zip(CERTIFY_ORDERS, CERTIFY_ALPHAS):
        h, alpha = random_graph(rng, order), rng.random()
        ops.append(Op("cospectral", g1.n + g1.m + order,
                      (lambda h=h, a=alpha: ac.cospectral_cvjoin_family(g1, g2, h, [a])),
                      lambda rep: rep.all_passed,
                      {"seeds": (g1, g2), "h": h, "alpha": alpha}))
        G = ac.central_vertex_join(base, h)
        ops.append(Op("exact", G.n,
                      (lambda G=G, a=exact_alpha: ac.char_poly(ac.a_alpha_matrix(G, a))),
                      (lambda poly, n=G.n: len(poly.coeffs) == n + 1 and poly.coeffs[n] == 1),
                      {"base": base, "h": h, "alpha": exact_alpha}))
    rng.shuffle(ops)
    return ops


def exact_a_alpha(A, alpha):
    deg = [int(d) for d in A.sum(axis=1)]
    n = len(deg)
    M = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            M[i, j] = alpha * deg[i] if i == j else (1 - alpha) * int(A[i, j])
    return M


def trace_coefficients_agree(M, coeffs):
    """The x^(n-1) and x^(n-2) coefficients of det(xI - M) are -tr M and
    (tr(M)^2 - tr(M^2)) / 2."""
    n = M.shape[0]
    tr = sum(M[i, i] for i in range(n))
    tr_sq = sum(M[i, j] * M[j, i] for i in range(n) for j in range(n))
    return coeffs[n - 1] == -tr and coeffs[n - 2] == (tr * tr - tr_sq) / 2


def det_fraction(M):
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in M]
    n, det = len(a), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r][c:] = [x - f * y for x, y in zip(a[r][c:], a[c][c:])]
    return det


def check_cospectral_case(idx, op, report, out):
    (g1, g2), h, alpha = op.data["seeds"], op.data["h"], op.data["alpha"]
    s1, s2 = (np.linalg.eigvalsh(a_alpha(built_adjacency((g, h)), alpha)) for g in (g1, g2))
    cospectral = float(np.max(np.abs(s1 - s2))) <= TOL
    if not cospectral:
        out.problems.append(f"op {idx}: joins with {h.label} are not cospectral")
    case = report.cases[-1]
    if (case.status == "pass") != cospectral or abs(case.oracle_min - s1[0]) > TOL \
            or abs(case.oracle_max - s1[-1]) > TOL:
        out.rejected.add(idx)
        out.problems.append(f"op {idx}: cospectral report disagrees with numpy "
                            f"(alpha={alpha!r}, H {h.label})")


def check_exact_case(idx, op, poly, out, with_det=False):
    h, alpha = op.data["h"], op.data["alpha"]
    M = exact_a_alpha(built_adjacency((op.data["base"], h)), alpha)
    n = M.shape[0]
    ok = len(poly.coeffs) == n + 1 and trace_coefficients_agree(M, poly.coeffs)
    if ok and with_det:
        ok = poly.coeffs[0] == (-1) ** n * det_fraction(M)
    if not ok:
        out.rejected.add(idx)
        out.problems.append(f"op {idx}: exact charpoly of C{EXACT_BASE} vjoin {h.label} at "
                            f"alpha={alpha} disagrees with the matrix")


def check_certify(ops, results, rng):
    """Every operation against numpy or the matrix's traces; one seeded exact
    operation also against a Fraction determinant; one rational cospectral
    certificate; the negative control."""
    out = Checked()
    exact = [i for i, op in enumerate(ops) if op.kind == "exact"]
    det_idx = rng.choice(exact)
    for i, (op, res) in enumerate(zip(ops, results)):
        if isinstance(res, Exception):
            continue
        if op.kind == "cospectral":
            check_cospectral_case(i, op, res, out)
        else:
            check_exact_case(i, op, res, out, with_det=i == det_idx)
    out.notes.append(f"checked all {len(ops)} ops; determinant check on op {det_idx} "
                     f"(alpha={ops[det_idx].data['alpha']})")
    rational_certificate(rng, ops, out)
    negative_control(rng, out)
    return out


def rational_certificate(rng, ops, out):
    """The acceptance path of the cospectral construction, untimed: the family
    at a rational alpha must pass, and both joins' exact characteristic
    polynomials, built here from the definitions, must be equal and agree
    with the matrices' traces."""
    op = rng.choice([op for op in ops if op.kind == "cospectral"])
    (g1, g2), h = op.data["seeds"], op.data["h"]
    alpha = rng.choice(CERTIFY_ALPHAS[2:])
    report = ac.cospectral_cvjoin_family(g1, g2, h, [alpha])
    polys = []
    for g in (g1, g2):
        M = exact_a_alpha(built_adjacency((g, h)), alpha)
        polys.append(ac.char_poly(M).coeffs)
        if not trace_coefficients_agree(M, polys[-1]):
            out.problems.append(f"rational certificate: exact charpoly of {g.label} vjoin "
                                f"{h.label} disagrees with the matrix's traces")
    if polys[0] != polys[1]:
        out.problems.append(f"rational certificate: joins with {h.label} differ at {alpha}")
    if not report.all_passed:
        out.problems.append(f"rational certificate: family with {h.label} at {alpha} "
                            "was not certified")
    out.notes.append(f"rational certificate of the joins with {h.label} at alpha={alpha}: "
                     f"certified={report.all_passed}")


def negative_control(rng, out):
    """C6 and 2K3 are 2-regular of order 6 but not cospectral: the family
    must be refused and the exact certificate must tell the joins apart."""
    c6, two_k3 = ac.generate("cycle", [6]), cycles(3, 3)
    h, alpha = random_graph(rng, rng.randrange(2, 7)), Fraction(1, 2)
    try:
        report = ac.cospectral_cvjoin_family(c6, two_k3, h, [alpha])
        refused = not report.all_passed
    except ac.PreconditionError:
        refused = True
    j1, j2 = ac.central_vertex_join(c6, h), ac.central_vertex_join(two_k3, h)
    certified = ac.verify.charpolys_equal_exact(ac.a_alpha_matrix(j1, alpha),
                                                ac.a_alpha_matrix(j2, alpha))
    gap = np.max(np.abs(np.linalg.eigvalsh(a_alpha(built_adjacency((c6, h)), 0.5))
                        - np.linalg.eigvalsh(a_alpha(built_adjacency((two_k3, h)), 0.5))))
    if gap <= 1e-6:
        out.problems.append("negative control: joins of C6 and 2K3 came out cospectral")
    if not refused or certified:
        out.problems.append(f"negative control accepted (family refused={refused}, "
                            f"exact certificate={certified})")
    out.notes.append(f"negative control C6|2K3 vjoin {h.label}: refused={refused}, "
                     f"exact certificate={certified}, spectral gap {gap:.3f}")


def _ok(op, result):
    return not isinstance(result, Exception) and op.passed(result)


# ---------------------------------------------------------------------------
# call counts the inputs imply (the traced run's binding self-check)

def expect_counts(ops, passes):
    """(span, relation, calls) that a traced run over `passes` passes of ops
    must satisfy; a shortfall means some binding escaped the tracer."""
    def count(pred):
        return passes * sum(1 for op in ops if pred(op))
    sweeps = count(lambda op: "entry" in op.data)
    central = count(lambda op: op.kind == "central")
    coronals = count(lambda op: op.kind.startswith("coronal"))
    certs = count(lambda op: op.kind == "cospectral")
    exacts = count(lambda op: op.kind == "exact")
    return [("verify.sweep", "==", sweeps),
            ("verify.coronal_equal_check", "==", coronals),
            ("verify.cospectral_cvjoin_family", "==", certs),
            # every sweep case builds its graph and eigensolves it; every
            # cospectral op builds and eigensolves both joins and certifies
            # the seeds exactly; every exact op runs the exact engine
            ("construct.central_graph", ">=", central),
            ("construct.central_vertex_join", ">=", sweeps - central + 2 * certs),
            ("spectra.eigenvalues_sym", ">=", sweeps + 2 * certs),
            ("linalg.eig", ">=", sweeps + coronals + 2 * certs),
            ("exactalg.charpoly_exact", ">=", exacts),
            ("exactalg.charpoly_int", ">=", certs + exacts)]


WORKLOADS = {
    "sweep": (make_sweep, check_sweep),
    "scale": (make_scale, check_scale),
    "certify": (make_certify, check_certify),
}
