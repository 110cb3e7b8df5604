import json
from fractions import Fraction

import numpy as np
import pytest

from alphacentral import (PreconditionError, SingularityError, a_alpha_matrix,
                          adjacency_matrix, coronal_equal_check,
                          cospectral_cvjoin_family, eigenvalues_sym,
                          formula_discrepancy_notes, generate, spectra_equal,
                          sweep)
from alphacentral import verify
from alphacentral.closedform import charpoly_cvjoin
from alphacentral.graphs import Graph, regularity
from alphacentral.verify import (_cvjoin_closed_variant_single_power, a_cospectral_exact,
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
    assert spectra_equal(s, s, tol=0.0)
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


def test_coronal_all_samples_singular():
    k2 = generate("complete", [2])  # adjacency eigenvalues +-1
    with pytest.raises(SingularityError):
        coronal_equal_check(k2, k2, 0.0, [1.0, -1.0])


def test_coronal_equal_too_few_points_raises():
    # equal coronals 10/(x - 3), but 5 points cannot rule out a difference
    # whose numerator has degree up to n1 + n2 - 1 = 19
    pet, prism = generate("petersen"), _prism()
    pts = coronal_sample_points(pet, prism, 0.5)
    with pytest.raises(SingularityError, match="20"):
        coronal_equal_check(pet, prism, 0.5, pts[:5])
    # a repeated point counts once
    with pytest.raises(SingularityError):
        coronal_equal_check(pet, prism, 0.5, pts[:19] + pts[:1])
    assert coronal_equal_check(pet, prism, 0.5, pts[:20])


def test_coronal_equal_two_eigendecompositions(monkeypatch):
    # an order-40 pair with 81 points: one decomposition per matrix, none
    # per point
    h1 = generate("cycle", [40])
    h2 = Graph.from_edges(40, [(i, (i + 1) % 17) for i in range(17)]
                          + [(17 + i, 17 + (i + 1) % 23) for i in range(23)])
    pts = coronal_sample_points(h1, h2, 0.4)
    assert len(pts) == 81
    calls = []
    for name in ("eigh", "eigvalsh", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    assert coronal_equal_check(h1, h2, 0.4, pts)
    assert calls == ["eigh", "eigh"]


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
    for fam in fac.families:
        if fam.label != "coronal":
            vals += fam.roots().ravel().tolist()
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
