"""Formula-vs-eigensolver sweeps, cospectrality certification, and the
cospectral join families.

Every closed form in closedform is checked here against the dense
eigensolver on the explicitly built graph: one oracle (_oracle) and one
positionwise gap (_gap) serve the sweep, spectra_equal, the cospectral
families and the ledger. Failures become report entries, never exceptions;
inputs outside a formula's hypotheses are marked skipped. The report also
carries formula-check notes recording variant formulas that were tested
against the oracle and rejected (see formula_discrepancy_notes); the
rejected single-power coronal coupling is the join's own arrowhead with
its cell weights divided by 1 - a.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial

import numpy as np

from . import exactalg
from .closedform import (TOL_MATCH, _charpoly_join, _g2_split, spectrum_central_regular,
                         spectrum_cvjoin_regular)
from .construct import central_graph, central_vertex_join
from .errors import PreconditionError
from .graphs import Graph, adjacency_matrix, generate, nonisomorphism_witness, regularity
from .spectra import (TOL_EIG, TOL_SING, Spectrum, _check_alpha, _coronal_quotient,
                      a_alpha_matrix, char_poly, eigenvalues_sym)


@dataclass(frozen=True)
class SweepCase:
    """One (input, alpha) comparison between a closed form and the oracle."""

    label: str
    alpha: object
    source: str
    status: str  # pass | fail | skip
    deviation: object = None
    oracle_min: object = None
    oracle_max: object = None
    note: str = ""


# to_csv's format spec for the SweepCase fields that need one
_CSV_FORMATS = {"deviation": ".3e", "oracle_min": ".12g", "oracle_max": ".12g"}


@dataclass
class VerificationReport:
    """SweepCases plus notes. JSON and CSV both carry every SweepCase field
    in declaration order; alpha is str(alpha) in both, and a None field is
    null in JSON and an empty CSV cell."""

    cases: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def counts(self):
        out = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.cases:
            out[c.status] += 1
        return out

    @property
    def worst_deviation(self):
        devs = [c.deviation for c in self.cases if c.deviation is not None]
        return max(devs) if devs else None

    @property
    def all_passed(self):
        return self.counts["fail"] == 0

    def to_json(self):
        return {"cases": [{**vars(c), "alpha": str(c.alpha)} for c in self.cases],
                "summary": {"counts": self.counts,
                            "worst_deviation": self.worst_deviation},
                "notes": list(self.notes)}

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow([f.name for f in fields(SweepCase)])
        for c in self.cases:
            # csv writes None as an empty cell and anything else with str()
            w.writerow([v if v is None or k not in _CSV_FORMATS
                        else format(v, _CSV_FORMATS[k]) for k, v in vars(c).items()])
        return buf.getvalue()

    def to_text(self):
        lines = []
        for c in self.cases:
            dev = "" if c.deviation is None else f" dev={c.deviation:.3e}"
            note = f" ({c.note})" if c.note else ""
            lines.append(f"[{c.status:4s}] {c.label} alpha={c.alpha} "
                         f"source={c.source}{dev}{note}")
        counts = self.counts
        worst = self.worst_deviation
        lines.append(f"summary: {counts['pass']} pass, {counts['fail']} fail, "
                     f"{counts['skip']} skip"
                     + ("" if worst is None else f", worst deviation {worst:.3e}"))
        for n in self.notes:
            lines.append(f"note: {n}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# spectra comparison

def _oracle(G, a):
    """The dense eigensolver's spectrum of A_alpha(G)."""
    return eigenvalues_sym(a_alpha_matrix(G, a))


def _gap(v1, v2):
    """Largest positionwise |x - y| of two value sequences of one length (0
    when empty), nan when some position is nan."""
    gaps = [abs(x - y) for x, y in zip(v1, v2)]
    return math.nan if math.isnan(sum(gaps)) else max(gaps, default=0.0)


def _compared(label, alpha, source, closed, oracle, certified=True, note=""):
    """The pass/fail SweepCase comparing the spectrum `closed` with the oracle
    spectrum: it fails on a size mismatch, and otherwise passes iff the gap
    is within TOL_MATCH and `certified` holds. The oracle's extremes are
    recorded."""
    if closed.n != oracle.n:
        return SweepCase(label, alpha, source, "fail",
                         note=f"size mismatch: closed {closed.n} vs oracle {oracle.n}")
    dev = _gap(closed.values, oracle.values)
    return SweepCase(label, alpha, source, "pass" if dev <= TOL_MATCH and certified else "fail",
                     dev, oracle.values[-1], oracle.values[0], note)


def spectra_equal(s1, s2):
    """True iff both spectra have the same length and agree positionwise.

    Positions are compared after descending sort, so this is multiset
    equality at TOL_MATCH. For exact certificates compare characteristic
    polynomials instead (charpolys_equal_exact).
    """
    v1, v2 = (Spectrum.from_values(list(s)).values for s in (s1, s2))
    return len(v1) == len(v2) and _gap(v1, v2) <= TOL_MATCH


def charpolys_equal_exact(m1, m2):
    """Exact cospectrality certificate: identical characteristic polynomials.

    Inputs must be exact matrices (integer or Fraction entries).
    """
    return char_poly(np.asarray(m1, dtype=object)).coeffs == \
        char_poly(np.asarray(m2, dtype=object)).coeffs


def a_cospectral_exact(G1, G2):
    """Exact adjacency cospectrality via integer characteristic polynomials.

    Both adjacency matrices go through exactalg.charpoly_int. Their largest
    absolute row sum is the maximum degree d, so a graph with
    n * max(d, 2)^n < 2^63 (never above order 57; the 6-regular order-16
    seeds qualify) takes the int64 power-sum route, and any other graph the
    Hessenberg route."""
    if G1.n != G2.n:
        return False
    return exactalg.charpoly_int(adjacency_matrix(G1).astype(np.int64)) == \
        exactalg.charpoly_int(adjacency_matrix(G2).astype(np.int64))


# ---------------------------------------------------------------------------
# sweep

def default_catalog():
    """Catalog exercised by the standard verification sweep.

    Entries are a Graph (central-graph case), a (G1, G2) pair (join case),
    or a (G1, (p, q)) pair (complete-bipartite join case).
    """
    completes = [generate("complete", [n]) for n in range(3, 8)]
    cycles = [generate("cycle", [n]) for n in range(4, 9)]
    pet = generate("petersen")
    central_entries = completes + cycles + [pet]
    join_seconds = [generate("complete", [2]), generate("complete", [3]),
                    generate("cycle", [5])]
    join_firsts = [generate("complete", [3]), generate("cycle", [4]),
                   generate("cycle", [6]), pet]
    entries = list(central_entries)
    entries += [(g1, g2) for g1 in join_firsts for g2 in join_seconds]
    entries += [(g1, (p, q)) for g1 in (generate("cycle", [4]), pet)
                for p, q in ((1, 1), (2, 3), (3, 3))]
    return entries


def default_alpha_grid():
    """The sweep's alphas; 0.9999 and 0.99999999 probe the band near 1,
    where distinct closed-form roots lie O(1 - alpha) apart."""
    return [0.0, 0.25, 0.5, 0.75, 0.9999, 0.99999999, 1.0]


def _closed_and_built(entry):
    """(label, source, closed, built) for a catalog entry: closed(alpha) is
    the closed-form spectrum and built the explicitly built graph, which
    serves every alpha."""
    if isinstance(entry, Graph):
        return (f"central({_name(entry)})", "central-factorization",
                lambda a: spectrum_central_regular(entry, a), central_graph(entry))
    g1, second = entry
    g2 = generate("complete_bipartite", list(second)) if isinstance(second, tuple) else second
    return (f"{_name(g1)} vjoin {_name(g2)}",
            "cvjoin-factorization" if g2 is second else "cvjoin-kpq-factorization",
            lambda a: spectrum_cvjoin_regular(g1, second, a), central_vertex_join(g1, g2))


def sweep(catalog, alpha_grid, include_formula_notes=True):
    """Compare every closed form against the eigensolver over a catalog.

    Per case, deviation is the maximum positionwise gap between the sorted
    closed-form spectrum and the sorted oracle spectrum; pass means
    deviation <= TOL_MATCH. Inputs violating a closed form's hypotheses are
    reported as skipped with the reason. Every alpha of the grid passes the
    alpha gate before the first case runs.
    """
    report = VerificationReport()
    grid = [(alpha, float(_check_alpha(alpha))) for alpha in alpha_grid]
    for entry in catalog:
        label, source, closed_at, built = _closed_and_built(entry)
        for alpha, a in grid:
            try:
                closed = closed_at(a)
            except PreconditionError as exc:
                report.cases.append(SweepCase(label, alpha, "none", "skip",
                                              note=str(exc)))
                continue
            report.cases.append(_compared(label, alpha, source, closed, _oracle(built, a)))
    if include_formula_notes:
        report.notes.extend(formula_discrepancy_notes())
    return report


# ---------------------------------------------------------------------------
# coronal equality predicate

def coronal_equal_check(h1, h2, alpha, sample_points):
    """Whether Gamma_{A_alpha(H1)} == Gamma_{A_alpha(H2)} as rational
    functions of x. sample_points is accepted and not read: the verdict
    comes from the pole-weight lists alone.

    Each coronal is sum(c / (x - w)) over its graph's k cell-constant
    eigenpairs, from the symmetrized quotient over the coarsest equitable
    partition (Graph._quotient, kept after its first call) through
    spectra._coronal_quotient: one cell (every regular graph) is read off,
    two cells take one rotation in closed form, and k >= 3 cells one
    checked eigensolve of order k per alpha. Two such sums are equal iff
    their lists agree once equal poles are merged, so the check sorts the
    poles of both, with the weights of H2 negated, splits them into
    clusters wherever consecutive poles lie more than TOL_SING * scale
    apart, scale = max(1, |w|max), and asks every cluster's signed weight
    to vanish to TOL_EIG max(1, sum of c1) scale / g, g the smallest gap
    between clusters capped at scale (scale for one cluster). A cluster's
    weight is fixed to about the eigensolver's residual over that gap
    (Davis and Kahan, SIAM J. Numer. Anal. 7 (1970) 1-46), and the
    residual is bounded by TOL_EIG; as g > TOL_SING * scale, the bound is
    below TOL_EIG / TOL_SING max(1, sum of c1).
    """
    a = float(_check_alpha(alpha))
    (w1, c1), (w2, c2) = (_coronal_quotient(h._quotient, a) for h in (h1, h2))
    w, c = np.concatenate([w1, w2]), np.concatenate([c1, -c2])
    order = np.argsort(w)
    w, c = w[order], c[order]
    scale = max(1, np.abs(w).max())
    gaps = np.diff(w)
    split = gaps > TOL_SING * scale
    sums = np.bincount(np.concatenate([[0], np.cumsum(split)]), weights=c)
    g = gaps[split].min(initial=scale)
    return bool(np.all(np.abs(sums) <= TOL_EIG * max(1, c1.sum()) * scale / g))


def coronal_sample_points(h1, h2, alpha):
    """2n+1 well-separated non-pole sample points above both spectra, at
    which to evaluate the two coronals (acceptance criterion 4);
    coronal_equal_check does not read them.

    A_alpha is nonnegative with row sums equal to the degrees, so its
    spectral radius is at most the largest degree; starting one above that
    clears both spectra without an eigensolve.
    """
    _check_alpha(alpha)
    n = max(h1.n, h2.n)
    start = max(h1.degree_sequence + h2.degree_sequence) + 1.0
    return [start + 0.37 * k for k in range(2 * n + 1)]


# ---------------------------------------------------------------------------
# cospectral families from joins

def cospectral_cvjoin_family(g1, g2, h, alpha_grid):
    """Certify that g1 vjoin h and g2 vjoin h share their A_alpha spectra.

    g1 and g2 must be regular and adjacency-cospectral (checked exactly via
    integer characteristic polynomials); h is arbitrary. Both joins are
    built explicitly and compared by the eigensolver at every grid alpha.
    Fraction entries in the grid additionally get an exact certificate
    (identical rational characteristic polynomials). Necessary conditions
    (orders, sizes, degree multisets) and a non-isomorphism witness are
    recorded alongside.
    """
    grid = [(alpha, float(_check_alpha(alpha))) for alpha in alpha_grid]
    if regularity(g1) is None or regularity(g2) is None:
        raise PreconditionError("seed graphs must both be regular")
    if not a_cospectral_exact(g1, g2):
        raise PreconditionError("seed graphs are not adjacency-cospectral")

    j1 = central_vertex_join(g1, h)
    j2 = central_vertex_join(g2, h)
    report = VerificationReport()
    label = f"{_name(g1)}|{_name(g2)} vjoin {_name(h)}"

    same_shape = (j1.n == j2.n and j1.m == j2.m
                  and sorted(j1.degree_sequence) == sorted(j2.degree_sequence))
    report.cases.append(SweepCase(
        label, "-", "necessary-conditions", "pass" if same_shape else "fail",
        note=f"orders {j1.n}/{j2.n}, sizes {j1.m}/{j2.m}, degree multisets "
             f"{'equal' if same_shape else 'DIFFER'}"))

    for alpha, a in grid:
        # the first join's spectrum is the oracle whose extremes are recorded
        oracle, second = _oracle(j1, a), _oracle(j2, a)
        cert, note = True, "numeric"
        if isinstance(alpha, Fraction):
            cert = charpolys_equal_exact(a_alpha_matrix(j1, alpha),
                                         a_alpha_matrix(j2, alpha))
            note = ("exact certificate: identical characteristic polynomials"
                    if cert else "exact certificate FAILED")
        report.cases.append(_compared(label, alpha, "join-of-cospectral-seeds", second, oracle,
                                      cert, note))

    degset = set(j1.degree_sequence)
    report.notes.append(
        f"{label}: joins are non-regular (degree values {sorted(degset)})")
    seed_wit = nonisomorphism_witness(g1, g2)
    join_wit = nonisomorphism_witness(j1, j2)
    if seed_wit:
        report.notes.append(
            f"{label}: seeds non-isomorphic by {seed_wit[0]} "
            f"({seed_wit[1]} vs {seed_wit[2]})")
    else:
        report.notes.append(
            f"{label}: no cheap invariant separates the seeds; they may be isomorphic")
    if join_wit:
        report.notes.append(
            f"{label}: joins non-isomorphic by {join_wit[0]} "
            f"({join_wit[1]} vs {join_wit[2]})")
    elif seed_wit:
        report.notes.append(
            f"{label}: no cheap invariant separates the joins directly; "
            "non-isomorphism rests on the seed certificate")
    return report


def _name(G):
    return G.label or f"graph(n={G.n},m={G.m})"


# ---------------------------------------------------------------------------
# formula discrepancy checks
#
# Variant formulas that look plausible but fail the oracle are evaluated
# here on purpose, and the outcome is recorded in every sweep report. None
# of them are used anywhere else in the package.

def _central_complete_variant(n, a):
    """Explicit-root variant for the central graph of K_n (rejected form)."""
    vals = [2.0 * a] * (n * (n - 3) // 2)
    disc = a * a * (n + 1) ** 2 + 8 * (n - 1) * (1 - 2 * a)
    s = math.sqrt(max(disc, 0.0))
    vals += [a + s / 2.0, a - s / 2.0]
    disc = a * a * (n - 1) ** 2 + 4 * (3 * a * a * n + a * (3 - n) + n - 2)
    s = math.sqrt(max(disc, 0.0))
    vals += [a * (n - 1) / 2.0 + s / 2.0] * (n - 1)
    vals += [a * (n - 1) / 2.0 - s / 2.0] * (n - 1)
    return sorted(vals, reverse=True)


def _cvjoin_closed_variant_single_power(g1, g2, a):
    """Join spectrum, descending, with the coronal coupling taken as
    n1*(1-a)*Gamma instead of n1*(1-a)^2*Gamma (rejected form), for any G2
    and a < 1: the join's factorization with the coronal arrowhead's cell
    weights n1*(1-a)^2*c divided by 1 - a, so every root is real."""
    mu, v, c = _g2_split(g2, a)
    return _charpoly_join(g1, regularity(g1), a, mu, v, c / (1 - a),
                          "coronal").roots().tolist()


def formula_discrepancy_notes():
    """Check the rejected variant formulas against the oracle and report.

    Covers the explicit-root form for central graphs of complete graphs
    (including the pinned case K_3 at alpha = 1, where the factorization
    gives (x - 2)^6), the single vs squared coronal coupling power in the
    join factorization, and the join vertex/edge count formulas.
    """
    k3, k2 = generate("complete", [3]), generate("complete", [2])
    ledger = [(kn, (0.0, 0.5, 1.0), partial(_central_complete_variant, kn.n))
              for kn in (k3, generate("complete", [4]), generate("complete", [5]))]
    ledger += [((g1, g2), (0.25, 0.5, 0.75),
                partial(_cvjoin_closed_variant_single_power, g1, g2))
               for g1, g2 in ((k3, k2), (generate("cycle", [4]), generate("cycle", [5])))]
    worst = {}  # source -> (worst closed-form gap, worst variant gap)
    for entry, alphas, variant in ledger:
        _, source, closed_at, built = _closed_and_built(entry)
        for a in alphas:
            oracle = _oracle(built, a).values
            gaps = (_gap(closed_at(a).values, oracle), _gap(variant(a), oracle))
            worst[source] = tuple(map(max, worst.get(source, gaps), gaps))
    worst_factored, worst_variant = worst["central-factorization"]
    worst_squared, worst_single = worst["cvjoin-factorization"]
    pinned_ok = all(abs(v - 2.0) < 1e-12 for v in spectrum_central_regular(k3, 1.0).values)
    var_pinned = sorted(set(round(v, 6) for v in _central_complete_variant(3, 1.0)))
    j = central_vertex_join(k3, k2)
    alt_v = k3.n * (1 + k2.n) + k3.m
    alt_e = 2 * k3.m + k3.n * (k2.n + k2.m)
    return [
        "central graph of K_n, explicit-root variant vs factorization: over n in "
        "{3,4,5} and alpha in {0, 1/2, 1} the factorization matches the "
        f"eigensolver to {worst_factored:.2e} while the explicit-root variant "
        f"deviates by up to {worst_variant:.2e}; pinned case K_3 at alpha=1: "
        f"factorization gives (x-2)^6 "
        f"({'confirmed' if pinned_ok else 'NOT confirmed'} by the eigensolver), "
        f"variant gives values {var_pinned}. "
        "The variant agrees only at alpha=0 and is not used by this package.",
        "join coronal coupling power: squared coupling n1*(1-a)^2*Gamma matches "
        f"the eigensolver to {worst_squared:.2e} over K3/C4 joined with K2/C5 at "
        f"alpha in {{1/4, 1/2, 3/4}}; the single-power variant n1*(1-a)*Gamma "
        f"deviates by up to {worst_single:.2e} and is rejected.",
        "join size accounting: the built join of G1(n1, m1) with G2(n2, m2) has "
        "n1+m1+n2 vertices and m1+n1(n1-1)/2+m2+n1*n2 edges "
        f"(K3 join K2: {j.n} vertices, {j.m} edges); the alternative counts "
        f"n1(1+n2)+m1 and 2*m1+n1*(n2+m2) predict {alt_v} and {alt_e} and fail "
        "the check. Factor-degree accounting is asserted against the built order."]
