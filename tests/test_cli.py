import io
import json

import pytest

from alphacentral import (generate, parse_edge_list, spectrum_central_regular,
                          spectrum_cvjoin_regular)
from alphacentral.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_roundtrip(capsys):
    code, out, _ = run(capsys, "generate", "petersen")
    assert code == 0
    g = parse_edge_list(out)
    assert g.n == 10 and g.m == 15
    # serializer round-trip is the identity on edge lists
    code2, out2, _ = run(capsys, "generate", "petersen")
    assert out2 == out


def test_generate_unknown_family(capsys):
    code, _, _ = run(capsys, "generate", "dodecahedron")
    assert code == 1


def test_generate_bad_params(capsys):
    code, _, err = run(capsys, "generate", "complete")
    assert code == 1 and "parameter" in err


def test_pipeline_spectrum_trace(tmp_path, capsys):
    # generate petersen | central | spectrum --alpha 0.5: 25 eigenvalues
    # summing to 2 m alpha = 60
    f1, f2 = tmp_path / "pet.txt", tmp_path / "cpet.txt"
    assert run(capsys, "generate", "petersen", "--out", str(f1))[0] == 0
    assert run(capsys, "central", str(f1), "--out", str(f2))[0] == 0
    code, out, _ = run(capsys, "spectrum", str(f2), "--alpha", "0.5", "--json")
    assert code == 0
    payload = json.loads(out)
    values = payload["values"]
    assert len(values) == 25
    assert abs(sum(values) - 60.0) < 1e-9


def test_spectrum_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2\n0 1\n"))
    code, out, _ = run(capsys, "spectrum", "-", "--alpha", "0")
    assert code == 0
    vals = [float(v) for v in out.split()]
    assert vals == [1.0, -1.0]


def test_spectrum_missing_file(capsys):
    code, _, err = run(capsys, "spectrum", "missing.txt", "--alpha", "0.5")
    assert code == 1
    assert "missing.txt" in err


@pytest.mark.parametrize("argv", [
    ("spectrum", "{dir}", "--alpha", "0.5"),
    ("generate", "petersen", "--out", "{dir}"),
    ("verify", "--catalog", "{dir}"),
])
def test_directory_path_is_a_usage_error(tmp_path, capsys, argv):
    # reading or writing a directory raises an OSError other than
    # FileNotFoundError, which is a usage error all the same
    code, _, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


def test_spectrum_requires_alpha(capsys):
    code, _, err = run(capsys, "spectrum", "petersen")
    assert code == 1 and "alpha" in err


def test_spectrum_exact_mode(capsys):
    code, out, _ = run(capsys, "spectrum", "complete:2", "--exact", "1/2")
    assert code == 0
    vals = [float(v) for v in out.split()]
    assert vals == pytest.approx([1.0, 0.0], abs=1e-12)


def test_charpoly_exact_fractions(capsys):
    code, out, _ = run(capsys, "charpoly", "complete:3", "--exact", "1/2")
    assert code == 0
    assert out.split() == ["-1/2", "9/4", "-3", "1"]


def test_charpoly_json(capsys):
    code, out, _ = run(capsys, "charpoly", "complete:2", "--alpha", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)


def test_cvjoin_command(tmp_path, capsys):
    out_file = tmp_path / "join.txt"
    code, _, _ = run(capsys, "cvjoin", "complete:3", "complete:2",
                     "--out", str(out_file))
    assert code == 0
    g = parse_edge_list(out_file.read_text())
    assert g.n == 8 and g.m == 13


def test_closed_spectrum_central_provenance(capsys):
    code, out, _ = run(capsys, "closed-spectrum", "central", "petersen",
                       "--alpha", "0.5")
    assert code == 0
    assert "subdivision" in out and "principal" in out and "base-eigenvalue" in out


def test_closed_spectrum_cvjoin_json(capsys):
    code, out, _ = run(capsys, "closed-spectrum", "cvjoin", "complete:3",
                       "complete:2", "--alpha", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["spectrum"]["values"]) == 8
    assert any(f["label"] == "coronal" for f in payload["factors"]["factors"])


def test_closed_spectrum_precondition_exit(capsys, tmp_path):
    code, _, err = run(capsys, "closed-spectrum", "central", "complete:2",
                       "--alpha", "0.5")
    assert code == 2 and "precondition" in err
    paw = tmp_path / "paw.txt"
    paw.write_text("4\n0 1\n0 2\n1 2\n2 3\n")
    # a G2 that is neither regular nor K_{p,q} is rooted like any other
    code, out, _ = run(capsys, "closed-spectrum", "cvjoin", "complete:3",
                       str(paw), "--alpha", "0.5")
    assert code == 0 and "coronal" in out


def test_closed_spectrum_json_is_the_closed_form_spectrum(capsys, tmp_path):
    paw = tmp_path / "paw.txt"
    paw.write_text("4\n0 1\n0 2\n1 2\n2 3\n")
    pet = generate("petersen")
    for argv, expected in (
            (("cvjoin", "petersen", str(paw)),
             spectrum_cvjoin_regular(pet, parse_edge_list(paw.read_text()), 0.3)),
            (("central", "petersen"), spectrum_central_regular(pet, 0.3))):
        code, out, _ = run(capsys, "closed-spectrum", *argv, "--alpha", "0.3", "--json")
        assert code == 0
        assert json.loads(out)["spectrum"] == expected.to_json()


def test_closed_spectrum_exact_alpha_refused(capsys):
    # the factors are rooted in floats, and the energy sums float
    # eigenvalues, so --exact must fail loudly
    for argv in (("closed-spectrum", "central", "petersen"),
                 ("closed-spectrum", "cvjoin", "complete:3", "complete:2"),
                 ("energy", "petersen")):
        code, out, err = run(capsys, *argv, "--exact", "1/2")
        assert code == 2 and out == ""
        assert "precondition" in err and "charpoly --exact" in err


@pytest.mark.parametrize("command", ["spectrum", "charpoly", "closed-spectrum", "energy"])
def test_exact_help_names_the_commands_that_accept_it(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    text = " ".join(out.split())  # argparse wraps the help text
    assert "--exact EXACT alpha as an exact fraction P/Q; only spectrum and charpoly " \
        "accept it" in text


@pytest.mark.parametrize("argv, message", [
    (("central", "petersen", "cycle:5"), "closed-spectrum central takes one graph"),
    (("cvjoin", "petersen"), "closed-spectrum cvjoin takes two graphs"),
])
def test_closed_spectrum_graph_count_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "closed-spectrum", *argv, "--alpha", "0.5")
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_alpha_and_exact_exclude_each_other(capsys):
    code, out, err = run(capsys, "charpoly", "complete:3", "--alpha", "0.3", "--exact", "1/2")
    assert code == 1 and out == ""
    assert "not allowed with" in err


def test_energy(capsys):
    code, out, _ = run(capsys, "energy", "petersen", "--alpha", "0.25")
    assert code == 0
    assert float(out) == pytest.approx(12.0, abs=1e-9)


def test_verify_catalog_file(tmp_path, capsys):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text(
        "# tiny catalog\n"
        "central complete:3\n"
        "cvjoin complete:3 complete:2\n"
        "kpq cycle:4 1 1\n")
    csv_out = tmp_path / "report.csv"
    code, out, _ = run(capsys, "verify", "--catalog", str(catalog),
                       "--grid", "0,0.5", "--csv", str(csv_out))
    assert code == 0
    assert "summary: 6 pass, 0 fail" in out
    assert csv_out.read_text().startswith("label,alpha")
    assert "note:" in out  # formula discrepancy notes are printed


def test_verify_json(tmp_path, capsys):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("central complete:3\n")
    code, out, _ = run(capsys, "verify", "--catalog", str(catalog),
                       "--grid", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["counts"]["pass"] == 1


def test_verify_bad_catalog_line(tmp_path, capsys):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("frobnicate complete:3\n")
    code, _, err = run(capsys, "verify", "--catalog", str(catalog))
    assert code == 1 and "line 1" in err


@pytest.mark.parametrize("spec, message", [
    ("complete:2.5", "sizes must be integers, got '2.5'"),
    ("complete_bipartite:2,x", "sizes must be integers, got 'x'"),
    ("complete:0", "complete needs integer n >= 1, got 0"),
    ("cycle:2", "cycle needs integer n >= 3, got 2"),
])
def test_a_bad_shorthand_size_names_the_graph_argument(capsys, spec, message):
    code, out, err = run(capsys, "spectrum", spec, "--alpha", "0.5")
    assert (code, out) == (1, "")
    assert err == f"error: graph argument {spec!r}: {message}\n"


@pytest.mark.parametrize("line, message", [
    ("kpq petersen 2.5 3", "sizes must be integers, got '2.5'"),
    ("kpq petersen 2 0", "complete_bipartite needs integer p, q >= 1, got 0"),
])
def test_a_bad_kpq_size_names_the_catalog_line(tmp_path, capsys, line, message):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text(f"central petersen\n{line}\n")
    code, out, err = run(capsys, "verify", "--catalog", str(catalog))
    assert (code, out) == (1, "")
    assert err == f"error: catalog line 2: {message}\n"


def test_verify_failure_exit_code(tmp_path, capsys, monkeypatch):
    from alphacentral.verify import SweepCase, VerificationReport
    bad = VerificationReport(cases=[SweepCase("x", 0.0, "s", "fail")])
    monkeypatch.setattr("alphacentral.cli.verify_mod.sweep",
                        lambda *a, **k: bad)
    code, _, _ = run(capsys, "verify", "--grid", "0")
    assert code == 3


def test_cospectral_command(capsys):
    code, out, _ = run(capsys, "cospectral", "shrikhande", "rook4x4",
                       "path:3", "--grid", "0,0.5")
    assert code == 0
    assert "pass" in out


def test_cospectral_precondition(capsys):
    code, _, err = run(capsys, "cospectral", "complete:4", "cycle:4", "path:3")
    assert code == 2
    assert "cospectral" in err


def test_usage_error_exit(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0


@pytest.mark.parametrize("argv, token", [
    (["verify", "--grid", "1/0"], "1/0"),
    (["cospectral", "shrikhande", "rook4x4", "path:2", "--grid", "1/0"], "1/0"),
    (["verify", "--grid", "abc"], "abc"),
    # a grid with no alpha verifies nothing, so it must not exit 0
    (["verify", "--grid", ","], ","),
    (["cospectral", "shrikhande", "rook4x4", "path:2", "--grid", ""], ""),
])
def test_malformed_grid_token_is_a_usage_error(capsys, argv, token):
    # --grid shares --exact's alpha grammar: 1/0 is refused, not a traceback
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert repr(token) in lines[0]
    assert "Traceback" not in err
