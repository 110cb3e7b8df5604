"""Inputs of order 300 to 200000: built orders the sweep verifies, edge lists
of millions of lines, and structural reads under a 2 GB address-space cap."""

import os
import re
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from alphacentral.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def test_verify_built_orders_300(tmp_path, capsys):
    # C(C150) and C100 vjoin C100 are built as matrices; the sweep never
    # forms their edge sets
    catalog = tmp_path / "large.txt"
    catalog.write_text("central cycle:150\ncvjoin cycle:100 cycle:100\n")
    code = main(["verify", "--catalog", str(catalog), "--grid", "0,0.37,1"])
    assert code == 0
    assert "summary: 6 pass, 0 fail, 0 skip" in capsys.readouterr().out


@pytest.mark.parametrize("n, order, m", [
    (150, 300, 11325),  # 150 + 150*149/2
    (2000, 4000, 2001000),  # 2*2000 + 2000*1999/2 - 2000
])
def test_central_cycle_edge_list(capsys, n, order, m):
    # the edge list is written from the edge index read off the matrix
    assert main(["central", f"cycle:{n}"]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(rf"{order}\n(?:[0-9]+ [0-9]+\n){{{m}}}", out)


# the edge count, degrees and regularity of C200000 come from its edge
# index, where its dense matrix would need 298 GiB; the edge count of K2000,
# and has_edge, == and hash of C(C2000) (order 4000, 2001000 edges), read
# the edge index and form no edge set
CAPPED_READS = textwrap.dedent("""\
    import contextlib, io
    from alphacentral import central_graph, generate, regularity
    from alphacentral.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["generate", "path", "200000"])
    print(status, out.getvalue().count("\\n"))
    G = generate("cycle", [200000])
    print(repr(G), G.m, regularity(G))
    K = generate("complete", [2000])
    C, twin = (central_graph(generate("cycle", [2000])) for _ in range(2))
    reads = K.m, C.has_edge(0, 2), C == twin, hash(C) == hash(twin)
    print(*reads, "formed", sum("edges" in vars(G) for G in (K, C, twin)))
    """)
CAP_KIB = 2_000_000


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CAP_KIB * 1024, CAP_KIB * 1024))


def test_structural_reads_of_order_200000_stay_sparse():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CAPPED_READS], env=env,
                          preexec_fn=_cap_address_space, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "0 200000",
        "Graph(n=200000, m=200000 'C200000') 200000 2",
        "1999000 True True True formed 0",
    ]
