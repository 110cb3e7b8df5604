"""Command-line front end.

Graph arguments accept a file path, "-" for standard input, or a generator
shorthand like "petersen", "complete:4", "complete_bipartite:2,3". Alpha is
given as a decimal (--alpha 0.5) or an exact fraction (--exact 1/2), never
both: the two options form one mutually exclusive group. _alpha_from is the
one place that decides a command's alpha. spectrum and charpoly accept
--exact and switch exact rational arithmetic on where it matters;
closed-spectrum and energy compute in floating point and refuse it as a
violated precondition. Every alpha token (--exact and each comma-separated
--grid entry) is read by one grammar, _alpha_token: a Fraction under
--exact or when written P/Q, a float otherwise; a malformed token, 1/0
included, is a usage error, and so is a --grid with no alpha in it.

Each subcommand's handler is bound where its parser is built
(set_defaults(run=...)), so main dispatches through args.run.

Exit codes: 0 ok, 1 usage or unreadable input (any OSError, a directory
given as a file included), 2 violated precondition, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .closedform import charpoly_cvjoin, charpoly_central_regular
from .construct import central_graph, central_vertex_join
from .errors import ParameterError, ParseError, PreconditionError
from .graphs import FAMILIES, _sizes, format_edge_list, generate, parse_edge_list
from .spectra import Spectrum, a_alpha_energy, a_alpha_matrix, char_poly, eigenvalues_sym
from . import verify as verify_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3


def _load_graph(spec):
    if spec == "-":
        return parse_edge_list(sys.stdin.read())
    path = Path(spec)
    if path.exists():
        return parse_edge_list(path.read_text())
    name, _, rest = spec.partition(":")
    if name in FAMILIES:
        return _decide_sizes(f"graph argument {spec!r}", [x for x in rest.split(",") if x],
                             lambda sizes: generate(name, sizes))
    raise FileNotFoundError(f"graph argument {spec!r}: no such file and not a "
                            f"generator shorthand (families: {', '.join(FAMILIES)})")


def _decide_sizes(where, tokens, decide):
    """decide(sizes) for the sizes written as tokens: int() reads each
    token, and decide (generate, or graphs._sizes for a kpq line) holds
    them to the package's integer rule, graphs._size. A token int()
    refuses, or a size decide refuses, raises ParameterError naming
    where: the graph argument or the catalog line."""
    sizes = []
    for tok in tokens:
        try:
            sizes.append(int(tok))
        except ValueError:
            raise ParameterError(f"{where}: sizes must be integers, got {tok!r}") from None
    try:
        return decide(sizes)
    except ParameterError as exc:
        raise ParameterError(f"{where}: {exc}") from None


def _alpha_token(tok, exact):
    """A Fraction when exact is set or tok is written P/Q, else a float."""
    try:
        return Fraction(tok) if exact or "/" in tok else float(tok)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(
            f"alpha must be a decimal or a fraction P/Q, got {tok!r}") from None


def _alpha_from(args, exact_ok=True):
    """The alpha of --alpha or --exact; a command whose result is computed
    in floating point passes exact_ok=False and refuses --exact."""
    if args.exact:
        alpha = _alpha_token(args.exact, exact=True)
        if exact_ok:
            return alpha
        raise PreconditionError(f"{args.command} computes in floating point and has no exact "
                                "mode; use 'charpoly --exact P/Q' for exact arithmetic")
    if args.alpha is None:
        raise ParameterError("alpha required: pass --alpha A or --exact P/Q")
    return args.alpha


def _grid_from(text):
    """The alphas of a comma-separated --grid; empty tokens are skipped,
    but a grid with no alpha at all is a usage error, since it would
    verify nothing."""
    grid = [_alpha_token(tok, exact=False)
            for tok in map(str.strip, text.split(",")) if tok]
    if not grid:
        raise ParameterError(f"--grid lists no alpha, got {text!r}")
    return grid


def _emit(text, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def build_parser():
    p = argparse.ArgumentParser(
        prog="alphacentral",
        description="Spectra of central graphs and central vertex joins for "
                    "the matrix family alpha*D + (1-alpha)*A.")
    sub = p.add_subparsers(dest="command", required=True)
    alpha = argparse.ArgumentParser(add_help=False)
    one_alpha = alpha.add_mutually_exclusive_group()
    one_alpha.add_argument("--alpha", type=float)
    one_alpha.add_argument("--exact", help="alpha as an exact fraction P/Q; only spectrum "
                                           "and charpoly accept it, the other commands "
                                           "refuse it with exit 2")

    g = sub.add_parser("generate", help="emit a catalog graph as an edge list")
    g.add_argument("family", choices=FAMILIES)
    g.add_argument("params", nargs="*", type=int)
    g.add_argument("--out")
    g.set_defaults(run=_cmd_generate)

    for name, helptext, run in [
            ("spectrum", "eigensolver spectrum of A_alpha(G)", _cmd_spectrum),
            ("charpoly", "characteristic polynomial of A_alpha(G)", _cmd_charpoly)]:
        s = sub.add_parser(name, help=helptext, parents=[alpha])
        s.add_argument("graph")
        s.add_argument("--json", action="store_true")
        s.set_defaults(run=run)

    c = sub.add_parser("central", help="emit the central graph C(G)")
    c.add_argument("graph")
    c.add_argument("--out")
    c.set_defaults(run=_cmd_central)

    j = sub.add_parser("cvjoin", help="emit the central vertex join of G1 and G2")
    j.add_argument("graph1")
    j.add_argument("graph2")
    j.add_argument("--out")
    j.set_defaults(run=_cmd_cvjoin)

    cs = sub.add_parser("closed-spectrum",
                        help="closed-form spectrum with factor provenance",
                        parents=[alpha])
    cs.add_argument("mode", choices=["central", "cvjoin"])
    cs.add_argument("graphs", nargs="+")
    cs.add_argument("--json", action="store_true")
    cs.set_defaults(run=_cmd_closed_spectrum)

    e = sub.add_parser("energy", help="A_alpha energy of G", parents=[alpha])
    e.add_argument("graph")
    e.set_defaults(run=_cmd_energy)

    v = sub.add_parser("verify", help="run the formula-vs-eigensolver sweep")
    v.add_argument("--catalog", help="catalog file; default is the built-in catalog")
    v.add_argument("--grid", default=",".join(map(str, verify_mod.default_alpha_grid())))
    v.add_argument("--json", action="store_true")
    v.add_argument("--csv", help="also write the report table to this CSV file")
    v.set_defaults(run=_cmd_verify)

    co = sub.add_parser("cospectral",
                        help="certify a cospectral join family from two seeds")
    co.add_argument("graph1")
    co.add_argument("graph2")
    co.add_argument("graphh")
    co.add_argument("--grid", default=",".join(map(str, verify_mod.default_alpha_grid())))
    co.add_argument("--json", action="store_true")
    co.set_defaults(run=_cmd_cospectral)
    return p


def _cmd_generate(args):
    _emit(format_edge_list(generate(args.family, args.params)), args.out)
    return EXIT_OK


def _cmd_spectrum(args):
    alpha = _alpha_from(args)
    G = _load_graph(args.graph)
    spec = eigenvalues_sym(a_alpha_matrix(G, alpha))
    if args.json:
        payload = spec.to_json()
        payload["alpha"] = str(alpha)
        payload["mode"] = "exact-matrix" if isinstance(alpha, Fraction) else "float"
        print(json.dumps(payload))
    else:
        for v in spec.values:
            print(f"{v:.12g}")
    return EXIT_OK


def _cmd_charpoly(args):
    alpha = _alpha_from(args)
    G = _load_graph(args.graph)
    poly = char_poly(a_alpha_matrix(G, alpha))
    if args.json:
        print(json.dumps(poly.to_json()))
    else:
        print(" ".join(str(c) if isinstance(c, Fraction) else f"{c:.12g}"
                       for c in poly.coeffs))
    return EXIT_OK


def _cmd_central(args):
    _emit(format_edge_list(central_graph(_load_graph(args.graph))), args.out)
    return EXIT_OK


def _cmd_cvjoin(args):
    g1 = _load_graph(args.graph1)
    g2 = _load_graph(args.graph2)
    _emit(format_edge_list(central_vertex_join(g1, g2)), args.out)
    return EXIT_OK


def _cmd_closed_spectrum(args):
    alpha = _alpha_from(args, exact_ok=False)
    if args.mode == "central":
        if len(args.graphs) != 1:
            raise ParameterError("closed-spectrum central takes one graph")
        fac = charpoly_central_regular(_load_graph(args.graphs[0]), alpha)
    else:
        if len(args.graphs) != 2:
            raise ParameterError("closed-spectrum cvjoin takes two graphs")
        fac = charpoly_cvjoin(_load_graph(args.graphs[0]),
                              _load_graph(args.graphs[1]), alpha)

    if args.json:
        print(json.dumps({"spectrum": Spectrum.from_values(fac.roots()).to_json(),
                          "factors": fac.to_json()}))
        return EXIT_OK
    rows = []
    if fac.linear_mult:
        rows.append((f"subdivision (x - {fac.linear_root:.10g})",
                     [fac.linear_root] * fac.linear_mult))
    for label, roots in rows + [(f.label, f.roots) for f in fac.factors]:
        print(f"{label}: {' '.join(f'{v:.12g}' for v in roots)}")
    return EXIT_OK


def _cmd_energy(args):
    alpha = _alpha_from(args, exact_ok=False)
    print(f"{a_alpha_energy(_load_graph(args.graph), alpha):.12g}")
    return EXIT_OK


def _parse_catalog_file(path):
    entries = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "central" and len(parts) == 2:
            entries.append(_load_graph(parts[1]))
        elif kind == "cvjoin" and len(parts) == 3:
            entries.append((_load_graph(parts[1]), _load_graph(parts[2])))
        elif kind == "kpq" and len(parts) == 4:
            pq = _decide_sizes(f"catalog line {lineno}", parts[2:], lambda sizes: tuple(
                _sizes("complete_bipartite", sizes, ("p", "q"))))
            entries.append((_load_graph(parts[1]), pq))
        else:
            raise ParseError(f"catalog line {lineno}: expected 'central G', "
                             f"'cvjoin G1 G2', or 'kpq G1 p q', got {line!r}")
    return entries


def _cmd_verify(args):
    catalog = (_parse_catalog_file(args.catalog) if args.catalog
               else verify_mod.default_catalog())
    report = verify_mod.sweep(catalog, _grid_from(args.grid))
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
    return _report(report, args.json)


def _cmd_cospectral(args):
    report = verify_mod.cospectral_cvjoin_family(
        _load_graph(args.graph1), _load_graph(args.graph2),
        _load_graph(args.graphh), _grid_from(args.grid))
    return _report(report, args.json)


def _report(report, as_json):
    """Print a verify or cospectral report and return its exit code."""
    if as_json:
        print(json.dumps(report.to_json()))
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK if report.all_passed else EXIT_VERIFICATION


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.run(args)
    except PreconditionError as exc:
        # must precede ValueError: PreconditionError subclasses it
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
