import json
import random
from fractions import Fraction

import numpy as np
import pytest

from alphacentral import (PreconditionError, a_alpha_matrix,
                          adjacency_matrix, coronal_equal_check,
                          cospectral_cvjoin_family, eigenvalues_sym,
                          formula_discrepancy_notes, generate, spectra_equal,
                          sweep)
from alphacentral import spectra, verify
from alphacentral.closedform import charpoly_cvjoin
from alphacentral.graphs import Graph, regularity
from alphacentral.spectra import Spectrum
from alphacentral.verify import (_compared, _cvjoin_closed_variant_single_power, a_cospectral_exact,
                                 charpolys_equal_exact, coronal_sample_points,
                                 default_alpha_grid, default_catalog)


def test_sweep_small_catalog_passes():
    catalog = [generate("complete", [3]), generate("cycle", [4]),
               (generate("complete", [3]), generate("complete", [2])),
               (generate("cycle", [4]), (1, 1))]
    report = sweep(catalog, [0.0, 0.5, 1.0], include_formula_notes=False)
    assert report.counts == {"pass": 12, "fail": 0, "skip": 0}
    assert report.all_passed
    assert report.worst_deviation < 1e-8
    # every case names its closed-form source and carries the oracle extremes
    for case in report.cases:
        assert case.source.endswith("factorization")
        assert case.oracle_max is not None and case.oracle_min is not None


def test_sweep_builds_each_entry_once(monkeypatch):
    built = []
    build = verify.central_graph

    def spy(G):
        built.append(G)
        return build(G)

    monkeypatch.setattr(verify, "central_graph", spy)
    pet = generate("petersen")
    report = sweep([pet], [0.0, 0.5, 1.0], include_formula_notes=False)
    assert report.counts["pass"] == 3
    assert built == [pet]


def test_sweep_solves_each_adjacency_once(monkeypatch):
    # A(Petersen) and A(C5) do not depend on alpha: each is solved once per
    # Graph, and only the oracle solves once per alpha
    solved = []
    real = spectra._eigh_checked

    def spy(M):
        solved.append(np.asarray(M).shape[0])
        return real(M)
    monkeypatch.setattr(spectra, "_eigh_checked", spy)
    pet, c5 = generate("petersen"), generate("cycle", [5])
    grid = default_alpha_grid()
    report = sweep([(pet, c5)], grid, include_formula_notes=False)
    assert report.counts["pass"] == len(grid)
    built = pet.n + pet.m + c5.n
    assert sorted(solved) == sorted([pet.n, c5.n] + [built] * len(grid))
    assert len(solved) == 9


def test_sweep_skips_low_degree_first_graph():
    report = sweep([generate("complete", [2])], [0.5],
                   include_formula_notes=False)
    case = report.cases[0]
    assert case.status == "skip"
    assert "r >= 2" in case.note and "r=1" in case.note


def test_sweep_checks_generic_second_graph():
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)], "paw")
    report = sweep([(generate("complete", [3]), paw)], [0.5],
                   include_formula_notes=False)
    assert report.cases[0].status == "pass"
    assert report.cases[0].source == "cvjoin-factorization"


def test_sweep_empty_grid():
    report = sweep([generate("complete", [3])], [], include_formula_notes=False)
    assert report.cases == []
    assert report.worst_deviation is None


def test_spectra_equal_reflexive_and_symmetric():
    s = eigenvalues_sym(adjacency_matrix(generate("petersen")))
    t = eigenvalues_sym(adjacency_matrix(generate("cycle", [4])))
    assert spectra_equal(s, s)
    assert spectra_equal(s, t) == spectra_equal(t, s) == False  # noqa: E712


def test_spectra_equal_known_pair_and_nonpair():
    shr, rook = generate("shrikhande"), generate("rook4x4")
    s1 = eigenvalues_sym(adjacency_matrix(shr))
    s2 = eigenvalues_sym(adjacency_matrix(rook))
    assert spectra_equal(s1, s2)
    k4 = eigenvalues_sym(adjacency_matrix(generate("complete", [4])))
    c4 = eigenvalues_sym(adjacency_matrix(generate("cycle", [4])))
    assert not spectra_equal(k4, c4)
    assert not spectra_equal([1.0, 0.0], [1.0])  # length mismatch


def test_a_cospectral_exact():
    assert a_cospectral_exact(generate("shrikhande"), generate("rook4x4"))
    assert not a_cospectral_exact(generate("complete", [4]), generate("cycle", [4]))


def test_exact_equality_implies_float_equality():
    shr, rook = generate("shrikhande"), generate("rook4x4")
    a = Fraction(1, 2)
    m1, m2 = a_alpha_matrix(shr, a), a_alpha_matrix(rook, a)
    assert charpolys_equal_exact(m1, m2)
    s1 = eigenvalues_sym(a_alpha_matrix(shr, 0.5))
    s2 = eigenvalues_sym(a_alpha_matrix(rook, 0.5))
    assert spectra_equal(s1, s2)


# --- coronal equality predicate

def test_coronal_equal_same_graph():
    g = generate("petersen")
    pts = coronal_sample_points(g, g, 0.25)
    assert len(pts) == 2 * g.n + 1
    assert coronal_equal_check(g, g, 0.25, pts)


def _prism():
    return Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                            + [(i, 5 + i) for i in range(5)], "prism")


def test_coronal_equal_two_cubic_graphs():
    # Petersen and the pentagonal prism are both 3-regular on 10 vertices,
    # so both coronals are 10/(x - 3) at every alpha
    prism = _prism()
    pet = generate("petersen")
    for a in (0.0, 0.5):
        pts = coronal_sample_points(pet, prism, a)
        assert coronal_equal_check(pet, prism, a, pts)


def test_coronal_unequal_k4_vs_star():
    # 4/(x-3) vs (4x+6)/(x^2-3): differ at 5 and 7
    k4, star = generate("complete", [4]), generate("complete_bipartite", [1, 3])
    assert not coronal_equal_check(k4, star, 0.0, [5.0, 7.0])


def test_coronal_check_reads_no_sample_point():
    # the verdict rests on the pole-weight lists: no points, the poles
    # themselves and points that are not finite all leave it as it is
    pet, prism, k2 = generate("petersen"), _prism(), generate("complete", [2])
    for h1, h2, poles in ((pet, prism, [3.0]), (k2, k2, [1.0])):
        for points in ([], poles, [np.inf, np.nan]):
            assert coronal_equal_check(h1, h2, 0.0, points) is True
    assert coronal_equal_check(k2, generate("cycle", [5]), 0.0, []) is False


def test_coronal_poles_are_the_cell_constant_eigenvalues():
    # K2's coronal is 2/(x - 1): -1 is an eigenvalue of A(K2), but its
    # eigenvector sums to 0, so it is no pole
    k2 = generate("complete", [2])
    w, c = spectra._coronal_quotient(k2._quotient, 0.0)
    assert (list(w), list(c)) == ([1.0], [2.0])
    assert coronal_equal_check(k2, k2, 0.0, [-1.0, 5.0, 7.0, 9.0])


def _dense_coronal_verdict(h1, h2, a, points):
    """Whether the coronals agree at every point, each solved on the whole
    A_alpha matrix."""
    def coronal(h, x):
        ones = np.ones(h.n)
        return ones @ np.linalg.solve(x * np.eye(h.n) - a_alpha_matrix(h, a), ones)
    return all(abs(coronal(h1, x) - coronal(h2, x)) <= 1e-9 for x in points)


def test_coronal_equal_check_agrees_with_a_dense_reference():
    rng = random.Random(31)

    def random_graph(n):
        return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                    if rng.random() < rng.choice((0.2, 0.5))])

    def relabelled(h):
        label = rng.sample(range(h.n), h.n)
        return Graph.from_edges(h.n, [(label[i], label[j]) for i, j in h.edges])

    pairs = []
    for _ in range(60):
        h = random_graph(rng.randint(1, 12))
        pairs += [(h, random_graph(rng.randint(1, 12))), (h, relabelled(h))]
    pairs += [(generate("cycle", [12]), Graph.from_edges(12, [(i, (i + 1) % 5) for i in range(5)]
                                                          + [(5 + i, 5 + (i + 1) % 7)
                                                             for i in range(7)])),
              (generate("petersen"), relabelled(_prism()))]
    verdicts = []
    for h1, h2 in pairs:
        a = rng.choice((0.0, 0.5, 1.0, 1 - 1e-9, 1 - 3.6e-8, rng.random()))
        points = coronal_sample_points(h1, h2, a)
        verdict = coronal_equal_check(h1, h2, a, points)
        assert verdict == _dense_coronal_verdict(h1, h2, a, points)
        verdicts.append(verdict)
    assert 60 < sum(verdicts) < len(pairs)


def test_coronal_check_bounds_each_weight_by_its_gap(monkeypatch):
    # poles 2 apart fix their weights to about TOL_EIG * n * scale / 2 =
    # 1.5e-11, so a shift of 1e-7 from one pole to the other is a
    # difference, though it is below TOL_EIG / TOL_SING * n = 1e-3
    lists = iter([(np.array([1.0, 3.0]), np.array([4.0, 6.0])),
                  (np.array([1.0, 3.0]), np.array([4.0 + 1e-7, 6.0 - 1e-7]))])
    monkeypatch.setattr(verify, "_coronal_quotient", lambda quotient, a: next(lists))
    k2 = generate("complete", [2])
    assert coronal_equal_check(k2, k2, 0.5, []) is False


def test_coronal_check_tells_a_one_edge_deletion_from_a_relabelled_copy():
    # deleting an edge lowers sum(c w) = 1^T A_alpha 1 = 2m by 2 at every alpha
    rng = random.Random(5)
    for n in (20, 31, 40):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        h = Graph.from_edges(n, edges)
        label = rng.sample(range(n), n)
        copy = Graph.from_edges(n, [(label[i], label[j]) for i, j in edges])
        cut = Graph.from_edges(n, edges[:-1])
        for a in (0.0, 0.5, 1 - 3.6e-8, 1.0):
            assert coronal_equal_check(h, copy, a, []) is True
            assert coronal_equal_check(h, cut, a, []) is False


def test_coronal_check_is_relative_far_above_the_spectra():
    # 2/(x - 1) and 5/(x - 2), and 10/(x - 3) against 5/(x - 2), differ by
    # less than 1e-9 at 1e10, but by a third of their sizes or more
    k2, c5, pet = generate("complete", [2]), generate("cycle", [5]), generate("petersen")
    assert not coronal_equal_check(k2, c5, 0.0, [1e10 + k for k in range(7)])
    assert not coronal_equal_check(pet, c5, 0.5, [1e10 + k for k in range(15)])
    assert coronal_equal_check(pet, _prism(), 0.5, [1e10, 1e10 + 1])


def test_coronal_check_confirms_agreement_pole_by_pole():
    # points that cannot resolve the poles: 5/(x - 2) and 5/(x - 4) agree to
    # rounding at 1e10, and two coronals meet at a crossing; each coronal's
    # weight at each pole tells
    k2, c5, k5 = generate("complete", [2]), generate("cycle", [5]), generate("complete", [5])
    c6 = generate("cycle", [6])
    assert coronal_equal_check(c5, k5, 0.0, [1e10 + k for k in range(3)]) is False
    # 2/(x - 1) and 5/(x - 2) cross at 1/3
    assert coronal_equal_check(k2, c5, 0.0, [1 / 3, 1 / 3 + 1e-12]) is False
    # n1/(x - r1) and n2/(x - r2) cross at (n1 r2 - n2 r1)/(n1 - n2)
    for (h1, n1, r1), (h2, n2, r2) in (((generate("complete", [4]), 4, 3), (c6, 6, 2)),
                                       ((generate("petersen"), 10, 3), (c5, 5, 2))):
        x = (n1 * r2 - n2 * r1) / (n1 - n2)
        assert n1 / (x - r1) == pytest.approx(n2 / (x - r2))
        assert coronal_equal_check(h1, h2, 0.0, [x, x + 1e-12]) is False
    # equal coronals still pass at points far out and close together
    assert coronal_equal_check(generate("petersen"), _prism(), 0.5, [1e10, 1e10 + 1e-6])
    # and so does a relabelled copy whose four-cell quotient has poles
    # 3.6e-8 apart: their weights differ by about 1e-8, within the bound
    # TOL_EIG * n * scale / 3.6e-8 = 3.3e-4 that this gap allows
    g = Graph.from_edges(6, [(0, 1), (0, 3), (2, 4)])
    copy = Graph.from_edges(6, [(0, 2), (0, 3), (1, 4)])
    assert coronal_equal_check(g, copy, 0.9999999637441254, [1e6 + k for k in range(20)])


def test_coronal_equal_eigensolves_only_multi_cell_quotients(monkeypatch):
    # order-40 pairs: a regular graph is one cell, read off with no
    # eigensolve, and C17 U P23 has k2 > 1 cells
    c40 = generate("cycle", [40])
    cycles = Graph.from_edges(40, [(i, (i + 1) % 17) for i in range(17)]
                              + [(17 + i, 17 + (i + 1) % 23) for i in range(23)])
    cycle_and_path = Graph.from_edges(40, [(i, (i + 1) % 17) for i in range(17)]
                                      + [(17 + i, 18 + i) for i in range(22)])
    pts = coronal_sample_points(c40, cycles, 0.4)
    assert len(pts) == 81
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _real=real, _name=name, **k:
                            calls.append((_name, np.shape(a[0]))) or _real(*a, **k))
    assert coronal_equal_check(c40, cycles, 0.4, pts)
    assert calls == []
    assert not coronal_equal_check(c40, cycle_and_path, 0.4, pts)
    k2 = len(cycle_and_path._quotient[2])
    assert k2 == 13  # the path's 12 distances to its nearer end, and the cycle
    assert calls == [("eigh", (k2, k2))]

    # two cells take one rotation in closed form, with no eigensolve
    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called on a two-cell quotient")
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "norm", "solve"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    k23, p4 = generate("complete_bipartite", [2, 3]), generate("path", [4])
    label = [4, 2, 0, 3, 1]
    copy = Graph.from_edges(5, [(label[i], label[j]) for i, j in k23.edges])
    assert [len(h._quotient[2]) for h in (k23, copy, p4)] == [2, 2, 2]
    pts = coronal_sample_points(k23, copy, 0.37)
    assert coronal_equal_check(k23, copy, 0.37, pts) is True
    assert coronal_equal_check(p4, k23, 0.37, pts) is False


# --- cospectral families

def test_cospectral_family_passes_with_exact_certificates():
    report = cospectral_cvjoin_family(
        generate("shrikhande"), generate("rook4x4"), generate("path", [3]),
        [0.0, Fraction(1, 2)])
    assert report.all_passed
    exact_cases = [c for c in report.cases if "exact certificate" in c.note]
    assert len(exact_cases) == 1 and "identical" in exact_cases[0].note
    assert any(c.source == "necessary-conditions" for c in report.cases)
    assert any("non-isomorphic by 4-clique count" in n for n in report.notes)
    assert any("non-regular" in n for n in report.notes)


def test_cospectral_family_notes_a_join_pair_no_cheap_invariant_separates(monkeypatch):
    # the joins' own witness is made to come back empty: the report then
    # rests their non-isomorphism on the seeds' witness
    real, seen = verify.nonisomorphism_witness, []

    def seeds_only(a, b):
        seen.append((a.n, b.n))
        return real(a, b) if len(seen) == 1 else None
    monkeypatch.setattr(verify, "nonisomorphism_witness", seeds_only)
    report = cospectral_cvjoin_family(generate("shrikhande"), generate("rook4x4"),
                                      generate("path", [3]), [0.5])
    assert seen == [(16, 16), (67, 67)]
    assert any("seeds non-isomorphic by" in n for n in report.notes)
    assert not any("joins non-isomorphic" in n for n in report.notes)
    assert any("non-isomorphism rests on the seed certificate" in n for n in report.notes)


def test_cospectral_family_notes_seeds_no_cheap_invariant_separates():
    # Petersen against a relabelled Petersen: the seeds are isomorphic, so no
    # witness separates them, and the report says so rather than nothing
    pet = generate("petersen")
    perm = [3, 7, 0, 9, 5, 1, 8, 2, 6, 4]
    twin = Graph.from_edges(10, [(perm[i], perm[j]) for i, j in pet.edges])
    assert twin != pet
    report = cospectral_cvjoin_family(pet, twin, generate("path", [2]), [Fraction(1, 2)])
    assert report.all_passed
    seed_notes = [n for n in report.notes if "seeds" in n]
    assert seed_notes == [f"{pet.label}|graph(n=10,m=15) vjoin P2: no cheap invariant "
                          "separates the seeds; they may be isomorphic"]
    assert not any("non-isomorphic" in n for n in report.notes)


def test_cospectral_family_preconditions():
    with pytest.raises(PreconditionError, match="cospectral"):
        cospectral_cvjoin_family(generate("complete", [4]),
                                 generate("cycle", [4]),
                                 generate("path", [3]), [0.0])
    with pytest.raises(PreconditionError, match="regular"):
        cospectral_cvjoin_family(generate("complete_bipartite", [1, 2]),
                                 generate("path", [3]),
                                 generate("path", [3]), [0.0])


# --- formula discrepancy notes (the recorded rejected variants)

def test_formula_notes_content():
    notes = formula_discrepancy_notes()
    assert len(notes) == 3
    central_note = notes[0]
    assert "(x-2)^6" in central_note and "K_3" in central_note
    assert "confirmed" in central_note and "NOT confirmed" not in central_note
    power_note = notes[1]
    assert "squared" in power_note and "single-power" in power_note
    count_note = notes[2]
    assert "8 vertices, 13 edges" in count_note


def test_sweep_embeds_formula_notes():
    report = sweep([generate("complete", [3])], [0.0])
    assert len(report.notes) == 3


# --- report serialization

def test_report_json_and_csv():
    report = sweep([generate("complete", [3])], [0.0, 0.5],
                   include_formula_notes=False)
    payload = report.to_json()
    assert set(payload) == {"cases", "summary", "notes"}
    assert payload["summary"]["counts"]["pass"] == 2
    json.dumps(payload)  # must be serializable
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("label,alpha,source,status,deviation")
    assert len(lines) == 3
    text = report.to_text()
    assert "summary: 2 pass" in text


def test_default_catalog_shape():
    entries = default_catalog()
    singles = [e for e in entries if not isinstance(e, tuple)]
    pairs = [e for e in entries if isinstance(e, tuple)]
    assert len(singles) == 11
    assert len(pairs) == 12 + 6
    assert default_alpha_grid() == [0.0, 0.25, 0.5, 0.75, 0.9999, 0.99999999, 1.0]


def test_coronal_sample_points_need_no_eigensolve(monkeypatch):
    # points start above the largest degree, which bounds the spectral
    # radius of A_alpha, so no eigensolver is needed to place them
    pairs = [(generate("petersen"), generate("complete_bipartite", [1, 5])),
             (generate("cycle", [7]), generate("complete", [4])),
             (generate("path", [5]), Graph.from_edges(3, []))]
    alphas = (0.0, 0.3, 1.0)
    tops = {(k, a): max(np.linalg.eigvalsh(a_alpha_matrix(g, a)).max()
                        for g in pair)
            for k, pair in enumerate(pairs) for a in alphas}

    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolver called to place sample points")
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for k, (h1, h2) in enumerate(pairs):
        for a in alphas:
            pts = coronal_sample_points(h1, h2, a)
            assert len(pts) == 2 * max(h1.n, h2.n) + 1
            assert min(pts) > tops[k, a]


# --- the rejected single-power coupling, rooted on the join's own arrowhead

def _single_power_cubic_reference(g1, g2, a):
    """The single-power variant for regular G2 with its coronal factor as
    the hand-expanded cubic (x-2a)[(x-t)(x-a n1-r2) - n1(1-a)n2]
    - 2r1(1-a)^2(x-a n1-r2), t = n1 + a n2 - (1-a) r1 - 1, rooted by
    np.roots; every other factor from the accepted form."""
    n1, r1, n2, r2 = g1.n, regularity(g1), g2.n, regularity(g2)
    fac = charpoly_cvjoin(g1, g2, a)
    vals = [fac.linear_root] * fac.linear_mult
    for f in fac.factors:
        if f.label != "coronal":
            vals += f.roots
    t = n1 + a * n2 - (1 - a) * r1 - 1
    shift = [1.0, -(a * n1 + r2)]  # descending coefficients
    inner = np.polysub(np.polymul(shift, [1.0, -t]), [n1 * (1 - a) * n2])
    cubic = np.polysub(np.polymul([1.0, -2 * a], inner),
                       np.multiply(2 * r1 * (1 - a) ** 2, shift))
    roots = np.roots(cubic)
    assert np.abs(roots.imag).max() < 1e-9
    return sorted(vals + roots.real.tolist(), reverse=True)


@pytest.mark.parametrize("g1, g2", [
    (generate("complete", [3]), generate("complete", [2])),
    (generate("cycle", [4]), generate("cycle", [5])),
    (generate("petersen"), generate("cycle", [5]))])
@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
def test_single_power_variant_matches_the_cubic(g1, g2, a):
    variant = _cvjoin_closed_variant_single_power(g1, g2, a)
    reference = _single_power_cubic_reference(g1, g2, a)
    assert len(variant) == len(reference) == g1.n + g1.m + g2.n
    assert np.max(np.abs(np.subtract(variant, reference))) < 1e-9


def test_single_power_variant_takes_any_second_graph():
    pet = generate("petersen")
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)], "paw")
    variant = _cvjoin_closed_variant_single_power(pet, paw, 0.5)
    assert len(variant) == pet.n + pet.m + paw.n
    assert variant == sorted(variant, reverse=True)


def test_spectra_of_different_sizes_fail_the_comparison():
    closed, oracle = Spectrum((2.0, 1.0)), Spectrum((2.0, 1.0, 0.0))
    case = _compared("K", 0.5, "central-factorization", closed, oracle)
    assert case.status == "fail" and case.deviation is None
    assert case.note == "size mismatch: closed 2 vs oracle 3"


def test_a_cospectral_exact_of_different_orders_is_false():
    assert a_cospectral_exact(generate("cycle", [4]), generate("cycle", [5])) is False


def test_report_schema_is_the_sweep_case_fields():
    import csv
    import io
    from dataclasses import fields

    from alphacentral.verify import SweepCase
    names = [f.name for f in fields(SweepCase)]
    k3 = generate("complete", [3])
    report = sweep([k3], [Fraction(1, 3)], include_formula_notes=False)
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert rows[0] == names
    assert rows[1][names.index("alpha")] == "1/3"
    case = report.to_json()["cases"][0]
    assert list(case) == names and case["alpha"] == "1/3"

    family = cospectral_cvjoin_family(generate("shrikhande"), generate("rook4x4"),
                                      generate("path", [2]), [Fraction(1, 3)])
    rows = list(csv.reader(io.StringIO(family.to_csv())))
    assert rows[0] == names
    necessary = dict(zip(names, rows[1]))
    assert necessary["source"] == "necessary-conditions"
    assert necessary["deviation"] == "" and necessary["oracle_min"] == ""
    assert dict(zip(names, rows[2]))["alpha"] == "1/3"
    payload = family.to_json()
    assert [list(c) for c in payload["cases"]] == [names, names]
    assert payload["cases"][0]["deviation"] is None
    assert payload["cases"][1]["alpha"] == "1/3"
