"""Spectra of central graphs and central vertex joins for the matrix family
A_alpha = alpha*D + (1-alpha)*A, with closed-form factorizations verified
against a dense eigensolver and certified cospectral constructions."""

from .closedform import (FactoredCharPoly, charpoly_central_regular,
                         charpoly_cvjoin, spectrum_central_regular,
                         spectrum_cvjoin_kpq, spectrum_cvjoin_regular)
from .construct import central_graph, central_vertex_join
from .errors import (InternalCheckError, ParameterError, ParseError,
                     PreconditionError, SingularityError)
from .graphs import (Graph, adjacency_matrix, complement, degree_matrix,
                     equitable_partition, format_edge_list, generate,
                     incidence_matrix, is_connected, nonisomorphism_witness,
                     parse_edge_list, regularity)
from .spectra import (Polynomial, RationalFunction, Spectrum, a_alpha_energy,
                      a_alpha_matrix, char_poly, coronal_eval,
                      coronal_kpq_alpha, coronal_regular, eigenvalues_sym,
                      hoffman_poly)
from .verify import (VerificationReport, coronal_equal_check,
                     cospectral_cvjoin_family, default_alpha_grid,
                     default_catalog, formula_discrepancy_notes,
                     spectra_equal, sweep)

__version__ = "0.1.0"

__all__ = [
    "Graph", "Polynomial", "RationalFunction", "Spectrum", "FactoredCharPoly",
    "VerificationReport",
    "generate", "parse_edge_list", "format_edge_list", "adjacency_matrix",
    "degree_matrix", "incidence_matrix", "complement", "regularity",
    "is_connected", "equitable_partition",
    "nonisomorphism_witness",
    "a_alpha_matrix", "eigenvalues_sym", "char_poly", "coronal_eval",
    "coronal_regular", "coronal_kpq_alpha", "hoffman_poly", "a_alpha_energy",
    "central_graph", "central_vertex_join",
    "charpoly_central_regular", "spectrum_central_regular", "charpoly_cvjoin",
    "spectrum_cvjoin_regular", "spectrum_cvjoin_kpq",
    "sweep", "spectra_equal", "cospectral_cvjoin_family", "coronal_equal_check",
    "default_catalog", "default_alpha_grid", "formula_discrepancy_notes",
    "ParameterError", "ParseError", "PreconditionError", "SingularityError",
    "InternalCheckError",
]
