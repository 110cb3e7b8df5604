"""Outside-in call tracer for alphacentral.

Spans are recorded around calls into the package's public functions by
rebinding names, never by editing the package. The modules bind each other's
functions with ``from .spectra import eigenvalues_sym``, so patching only the
defining module would miss every call made through those copies: install()
rebinds every module-level name in every alphacentral module that refers to a
traced function, plus the ``FactoredCharPoly.roots`` method and numpy's
symmetric eigensolvers (the ``linalg`` layer).

Spans (name, start, end, parent) live in flat lists in memory; save() writes
them out once the run is over.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np


def _a_alpha_span(args, kwargs):
    alpha = args[1] if len(args) > 1 else kwargs.get("alpha")
    kind = "exact" if isinstance(alpha, Fraction) else "float"
    return f"spectra.a_alpha_matrix.{kind}"


# (defining module, attribute, span name). A callable span name picks the
# span from the call's arguments.
FUNCTIONS = [
    ("graphs", "adjacency_matrix", "graphs.adjacency_matrix"),
    ("graphs", "nonisomorphism_witness", "graphs.nonisomorphism_witness"),
    ("construct", "central_graph", "construct.central_graph"),
    ("construct", "central_vertex_join", "construct.central_vertex_join"),
    ("spectra", "a_alpha_matrix", _a_alpha_span),
    ("spectra", "eigenvalues_sym", "spectra.eigenvalues_sym"),
    ("spectra", "coronal_eval", "spectra.coronal_eval"),
    ("closedform", "charpoly_central_regular", "closedform.charpoly"),
    ("closedform", "charpoly_cvjoin", "closedform.charpoly"),
    ("closedform", "solve_poly_real", "closedform.solve_poly_real"),
    ("closedform", "spectrum_central_regular", "closedform.spectrum"),
    ("closedform", "spectrum_cvjoin_regular", "closedform.spectrum"),
    ("closedform", "spectrum_cvjoin_kpq", "closedform.spectrum"),
    ("exactalg", "charpoly_int", "exactalg.charpoly_int"),
    ("exactalg", "charpoly_exact", "exactalg.charpoly_exact"),
    ("verify", "a_cospectral_exact", "verify.a_cospectral_exact"),
    ("verify", "coronal_equal_check", "verify.coronal_equal_check"),
    ("verify", "sweep", "verify.sweep"),
    ("verify", "cospectral_cvjoin_family", "verify.cospectral_cvjoin_family"),
    ("verify", "formula_discrepancy_notes", "verify.formula_discrepancy_notes"),
]
METHODS = [("closedform", "FactoredCharPoly", "roots", "closedform.roots")]
LINALG = [("eigh", "linalg.eig"), ("eigvalsh", "linalg.eig")]

CONSTRUCT = ("construct.central_graph", "construct.central_vertex_join")
CLOSED = "closedform.spectrum"
BUILD = CONSTRUCT + ("spectra.a_alpha_matrix.float", "spectra.eigenvalues_sym")


class Tracer:
    """Records spans around traced calls while installed."""

    def __init__(self):
        self.name, self.start, self.end, self.parent = [], [], [], []
        self._stack = [-1]
        self._undo = []
        self._originals = []
        self.missing = []
        self.stats = Counter()  # charpoly_int maxima, edges built

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, span, before=None, after=None):
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = span(args, kwargs) if callable(span) else span
            if before is not None:
                before(args)
            idx = len(names)
            names.append(label)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, parents[idx])
            return result

        return traced

    def _charpoly_int_input(self, args):
        rows = args[0]
        bits = max((abs(int(x)).bit_length() for row in rows for x in row),
                   default=0)
        self.stats["charpoly_int.max_order"] = max(
            self.stats["charpoly_int.max_order"], len(rows))
        self.stats["charpoly_int.max_entry_bits"] = max(
            self.stats["charpoly_int.max_entry_bits"], bits)

    def _graph_built(self, graph, parent):
        # central_vertex_join builds through central_graph; count the outer call
        if parent < 0 or self.name[parent] not in CONSTRUCT:
            self.stats["edges_built"] += graph.m

    # -- installation ------------------------------------------------------

    def install(self):
        mods = [m for k, m in list(sys.modules.items())
                if k == "alphacentral" or k.startswith("alphacentral.")]
        for modname, attr, span in FUNCTIONS:
            orig = getattr(sys.modules.get(f"alphacentral.{modname}"), attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            before = self._charpoly_int_input if attr == "charpoly_int" else None
            after = self._graph_built if span in CONSTRUCT else None
            wrapped = self._wrap(orig, span, before, after)
            self._originals.append(orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, wrapped)
        for modname, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules.get(f"alphacentral.{modname}"), cls_name, None)
            orig = getattr(cls, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{cls_name}.{attr}")
                continue
            self._rebind(cls, attr, self._wrap(orig, span))
        for attr, span in LINALG:
            self._rebind(np.linalg, attr, self._wrap(getattr(np.linalg, attr), span))

    def _rebind(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def unpatched_bindings(self):
        """Names in alphacentral modules still bound to an untraced original."""
        out = []
        for k, mod in list(sys.modules.items()):
            if k == "alphacentral" or k.startswith("alphacentral."):
                for key, value in vars(mod).items():
                    if any(value is orig for orig in self._originals):
                        out.append(f"{k}.{key}")
        return out

    # -- analysis ----------------------------------------------------------

    def layers(self):
        """Per span name: self seconds, inclusive seconds (outermost spans of
        that name only) and call count."""
        child = defaultdict(float)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s, incl_s, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (nm, p) in enumerate(zip(self.name, self.parent)):
            dur = self.end[i] - self.start[i]
            self_s[nm] += dur - child[i]
            calls[nm] += 1
            if p < 0 or self.name[p] != nm:
                incl_s[nm] += dur
        return self_s, incl_s, calls

    def closed_vs_built(self):
        """Map each root span to [seconds in the closed form, seconds building
        and eigensolving the matrix outside it]."""
        root, in_closed, in_build, out = {}, {}, {}, {}
        for i, (nm, p) in enumerate(zip(self.name, self.parent)):
            if p < 0:
                root[i], in_closed[i], in_build[i] = i, False, False
                out[i] = [0.0, 0.0]
            else:
                root[i] = root[p]
                in_closed[i] = in_closed[p] or self.name[p] == CLOSED
                in_build[i] = in_build[p] or self.name[p] in BUILD
            if in_closed[i]:
                continue
            dur = self.end[i] - self.start[i]
            if nm == CLOSED:
                out[root[i]][0] += dur
            elif nm in BUILD and not in_build[i]:
                out[root[i]][1] += dur
        return out

    def save(self, path):
        names = sorted(set(self.name))
        index = {n: k for k, n in enumerate(names)}
        t0 = self.start[0] if self.start else 0.0
        doc = {"names": names,
               "name": [index[n] for n in self.name],
               "start_us": [round((t - t0) * 1e6) for t in self.start],
               "end_us": [round((t - t0) * 1e6) for t in self.end],
               "parent": self.parent}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
