"""The three input rules, each decided in one place: sizes by operator.index
(graphs._size), alpha by one gate (spectra._check_alpha), and exact
matrices by dtype kind (spectra.char_poly)."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alphacentral import (Graph, ParameterError, a_alpha_energy,
                          a_alpha_matrix, adjacency_matrix, char_poly,
                          charpoly_central_regular, charpoly_cvjoin, coronal_equal_check,
                          coronal_kpq_alpha, coronal_regular, cospectral_cvjoin_family,
                          generate, spectrum_central_regular, spectrum_cvjoin_kpq,
                          spectrum_cvjoin_regular, sweep)
from alphacentral.verify import coronal_sample_points

C5, P3 = generate("cycle", [5]), generate("path", [3])
EDGES = [(0, 1), (1, 2)]
NOT_SIZES = [2.5, Fraction(5, 2), "3", 3.0, np.float64(3.0)]


# --- sizes

def _sized_results(size):
    """(entry point, result) of every entry point that takes a size, each
    size spelled by size(); (p, q) = (2, 3) and orders 3 to 5."""
    return [
        ("Graph", Graph(size(3), EDGES)),
        ("Graph.from_edges", Graph.from_edges(size(3), EDGES)),
        ("complete", generate("complete", [size(4)])),
        ("complete_bipartite", generate("complete_bipartite", [size(2), size(3)])),
        ("cycle", generate("cycle", [size(5)])),
        ("path", generate("path", [size(4)])),
        ("spectrum_cvjoin_kpq", spectrum_cvjoin_kpq(C5, size(2), size(3), 0.37)),
        ("charpoly_cvjoin", charpoly_cvjoin(C5, (size(2), size(3)), 0.37).roots().tolist()),
        ("coronal_kpq_alpha", coronal_kpq_alpha(size(2), size(3), 0.5)),
        ("coronal_regular", coronal_regular(size(4), 2)),
    ]


@pytest.mark.parametrize("size", [np.int64, np.int32, np.uint8])
def test_numpy_integer_sizes_give_what_int_gives(size):
    for (name, got), (_, want) in zip(_sized_results(size), _sized_results(int)):
        assert got == want, name
    for _, G in _sized_results(size)[:6]:
        assert type(G.n) is int


@pytest.mark.parametrize("a", ["2", None, 2j, [2]], ids=repr)
def test_a_row_sum_that_is_not_a_real_number_is_refused(a):
    with pytest.raises(ParameterError,
                       match=re.escape(f"row sum must be a real number, got {a!r}")):
        coronal_regular(4, a)


def test_every_real_row_sum_gives_the_coronal():
    for a in (2, 2.0, np.float64(2.0), np.int64(2), Fraction(2), True):
        assert coronal_regular(4, a)(3) == 4 / (3 - a)


def test_a_bool_size_is_the_integer_operator_index_makes_of_it():
    assert Graph(True, []) == Graph(1, [])


def _size_calls(bad):
    """Every entry point that takes a size, with one size replaced by bad."""
    return {
        "Graph": lambda: Graph(bad, EDGES),
        "Graph.from_edges": lambda: Graph.from_edges(bad, EDGES),
        "complete": lambda: generate("complete", [bad]),
        "complete_bipartite p": lambda: generate("complete_bipartite", [bad, 3]),
        "complete_bipartite q": lambda: generate("complete_bipartite", [2, bad]),
        "cycle": lambda: generate("cycle", [bad]),
        "path": lambda: generate("path", [bad]),
        "spectrum_cvjoin_kpq": lambda: spectrum_cvjoin_kpq(C5, bad, 3, 0.37),
        "charpoly_cvjoin": lambda: charpoly_cvjoin(C5, (2, bad), 0.37),
        "coronal_kpq_alpha": lambda: coronal_kpq_alpha(bad, 3, 0.5),
        "coronal_regular": lambda: coronal_regular(bad, 2),
    }


@pytest.mark.parametrize("bad", NOT_SIZES, ids=repr)
@pytest.mark.parametrize("entry", sorted(_size_calls(0)))
def test_a_size_that_is_not_an_integer_is_refused(entry, bad):
    with pytest.raises(ParameterError, match=re.escape(f"got {bad!r}") + "$"):
        _size_calls(bad)[entry]()


@pytest.mark.parametrize("pq", [(1, 2, 3), (2,), ()], ids=repr)
def test_a_tuple_second_graph_of_the_wrong_length_is_refused(pq):
    with pytest.raises(ParameterError, match=re.escape(f"complete_bipartite takes parameters "
                                                       f"[p, q], got {list(pq)}")):
        charpoly_cvjoin(C5, pq, 0.5)


def test_the_tuple_and_the_generator_word_the_part_sizes_alike():
    for call in (lambda: generate("complete_bipartite", [0, 2]),
                 lambda: charpoly_cvjoin(C5, (0, 2), 0.5),
                 lambda: coronal_kpq_alpha(0, 2, 0.5)):
        with pytest.raises(ParameterError) as exc:
            call()
        assert str(exc.value) == "complete_bipartite needs integer p, q >= 1, got 0"


# --- alpha

def _cases(report):
    """A report's cases without their alpha, which keeps its spelling."""
    return [(c.label, c.source, c.status, c.deviation, c.oracle_min, c.oracle_max, c.note)
            for c in report.cases]


_POINTS = coronal_sample_points(C5, P3, 0.5)

# entry point -> (run at alpha, whether a Fraction alpha selects exact arithmetic)
ALPHA_ENTRY_POINTS = {
    "a_alpha_matrix": (lambda a: a_alpha_matrix(C5, a), True),
    "charpoly_central_regular": (lambda a: charpoly_central_regular(C5, a).roots(), False),
    "spectrum_central_regular": (lambda a: spectrum_central_regular(C5, a), False),
    "charpoly_cvjoin": (lambda a: charpoly_cvjoin(C5, P3, a).roots(), False),
    "spectrum_cvjoin_regular": (lambda a: spectrum_cvjoin_regular(C5, P3, a), False),
    "spectrum_cvjoin_kpq": (lambda a: spectrum_cvjoin_kpq(C5, 2, 3, a), False),
    "coronal_kpq_alpha": (lambda a: coronal_kpq_alpha(2, 3, a), True),
    "a_alpha_energy": (lambda a: a_alpha_energy(C5, a), False),
    "sweep": (lambda a: _cases(sweep([C5, (C5, P3), (C5, (2, 3))], [a],
                                     include_formula_notes=False)), False),
    "coronal_equal_check": (lambda a: coronal_equal_check(C5, P3, a, _POINTS), False),
    "coronal_sample_points": (lambda a: coronal_sample_points(C5, P3, a), False),
    "cospectral_cvjoin_family": (lambda a: _cases(cospectral_cvjoin_family(C5, C5, P3, [a])),
                                 True),
}


@pytest.mark.parametrize("bad", ["0.5", None, 0.5j, np.complex128(0.5)], ids=repr)
@pytest.mark.parametrize("entry", sorted(ALPHA_ENTRY_POINTS))
def test_an_alpha_that_is_not_a_real_number_is_refused(entry, bad):
    with pytest.raises(ParameterError, match="alpha must be a real number"):
        ALPHA_ENTRY_POINTS[entry][0](bad)


def _same(x, y):
    return np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y


@settings(max_examples=120, deadline=None)
@given(entry=st.sampled_from(sorted(ALPHA_ENTRY_POINTS)),
       alpha=st.fractions(0, 1, max_denominator=40))
def test_every_spelling_of_a_real_alpha_gives_the_same_output(entry, alpha):
    # a float, a numpy float, an integral alpha as an int and, where it does
    # not select exact arithmetic, the Fraction itself: one value, one output
    run, exact = ALPHA_ENTRY_POINTS[entry]
    assume(entry != "a_alpha_energy" or alpha < 1)
    want = run(float(alpha))
    spellings = [np.float64(alpha)] + ([] if exact else [alpha])
    spellings += [int(alpha), np.int64(alpha)] if alpha.denominator == 1 else []
    for spelling in spellings:
        assert _same(run(spelling), want)


# --- exact matrices

def test_a_bool_matrix_runs_the_exact_engine_like_its_int_twin():
    A = adjacency_matrix(generate("petersen"))
    exact = char_poly(A.astype(np.int64)).coeffs
    assert char_poly(A.astype(bool)).coeffs == exact
    assert char_poly(A.astype(np.uint8)).coeffs == exact
    assert all(type(c) is Fraction for c in char_poly(A.astype(bool)).coeffs)

