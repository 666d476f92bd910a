import json
import os

import pytest

from c2lab import counting, invariants, io
from c2lab.cli import main
from c2lab.corpus import named_graphs
from c2lab.graphs import Graph, family
from c2lab.multipoly import MLPoly, phi, psi


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_graph_text_roundtrip():
    for name, G in named_graphs().items():
        text = io.graph_to_text(G)
        back = io.graph_from_text(text)
        assert back.edges == G.edges and back.vertex_count == G.vertex_count, name


def test_graph_json_roundtrip():
    G = family("Gn", 3)
    back = io.graph_from_json_dict(io.graph_to_json_dict(G))
    assert back == G


def test_graph_text_header():
    text = io.graph_to_text(family("cycle", 3))
    assert text.splitlines()[0] == "p 3 3"


def test_poly_text_roundtrip():
    for G in (family("cycle", 3), family("complete", 4), family("Gn", 2)):
        for P in (psi(G), phi(G)):
            assert io.poly_from_text(io.poly_to_text(P)) == P
    assert io.poly_from_text("0") == MLPoly.zero()


def test_poly_json_roundtrip():
    P = phi(family("complete", 4))
    assert io.poly_from_json_terms(json.loads(json.dumps(io.poly_to_json_terms(P)))) == P


def test_cli_poly_text(capsys):
    code, out = run_cli(capsys, "poly", "--family", "cycle:3", "--which", "psi")
    assert code == 0
    assert out.strip() == "+1*a1 +1*a2 +1*a3"


def test_cli_poly_from_file(tmp_path, capsys):
    path = tmp_path / "triangle.g"
    path.write_text(io.graph_to_text(family("cycle", 3)))
    code, out = run_cli(capsys, "poly", "--graph-file", str(path), "--which", "psi")
    assert code == 0 and out.strip() == "+1*a1 +1*a2 +1*a3"


def test_cli_c2_all_spaces(capsys):
    code, out = run_cli(capsys, "c2", "--family", "wheel:3", "--space", "all", "--q", "2,3")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "c2lab/1"
    for entry in rep["results"]:
        assert entry["c2_param"] == entry["c2_dual"] == entry["c2_pos"]


def test_cli_verify_pass_and_fail(capsys, monkeypatch):
    code, _ = run_cli(capsys, "verify", "--theorem", "Thm2", "--family", "wheel:3", "--q", "2")
    assert code == 0
    code, out = run_cli(capsys, "verify", "--theorem", "lem36", "--family", "Gn:3")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    # no registered theorem fails on real input, so stand in a failing one
    # to check that a failed verification maps to exit 1
    monkeypatch.setitem(
        invariants._THEOREMS,
        "lem36",
        lambda G, F, **kw: invariants.VerifyReport("lem36", False, None, {}),
    )
    code, out = run_cli(capsys, "verify", "--theorem", "lem36", "--family", "Gn:3")
    assert code == 1
    rep = json.loads(out)
    assert rep["passed"] is False


def test_cli_census(capsys):
    code, out = run_cli(capsys, "census", "--family", "Gn:3", "--u", "1", "--v", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["r"] == "36" and rep["r_bar"] == "60"


def test_cli_admissible(capsys):
    code, out = run_cli(capsys, "admissible", "--family", "complete:4", "--mode", "structural")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][0]["admissible"] is True


def test_cli_count_reduced_equals_brute(capsys):
    code1, out1 = run_cli(capsys, "count", "--family", "complete:4", "--q", "2,3", "--method", "brute")
    code2, out2 = run_cli(capsys, "count", "--family", "complete:4", "--q", "2,3", "--method", "reduced")
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert [x["raw"] for x in r1["results"]] == [x["raw"] for x in r2["results"]]


def test_cli_budget_exit_code(capsys):
    code, out = run_cli(capsys, "count", "--family", "wheel:5", "--q", "5", "--budget", "1000")
    assert code == 3
    assert json.loads(out)["error"]["code"] == "BudgetExceeded"


def test_cli_count_reduced_budget_exit_code(capsys, monkeypatch):
    # with an empty memo the reduction enumerates 2,061 points in its fallbacks
    monkeypatch.setattr(counting, "_reduced_memo", {})
    code, out = run_cli(
        capsys, "count", "--family", "wheel:4", "--q", "3", "--method", "reduced", "--budget", "10"
    )
    assert code == 3
    assert json.loads(out)["error"]["code"] == "BudgetExceeded"


def test_cli_c2_keeps_legs_past_position_budget(capsys):
    code, out = run_cli(capsys, "c2", "--family", "wheel:7", "--space", "all", "--q", "2")
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["c2_param"] == res["c2_dual"] == 1
    assert res["c2_pos"] is None and res["c2_pos_reason"].startswith("BudgetExceeded")


def test_cli_usage_errors(capsys):
    code, out = run_cli(capsys, "c2", "--family", "nosuch:3", "--q", "2")
    assert code == 2
    code, out = run_cli(capsys, "c2", "--family", "wheel:3")
    assert code == 2  # missing --q
    code, _ = run_cli(
        capsys, "count", "--family", "wheel:3", "--graph-file", "x.g", "--q", "2"
    )
    assert code == 2  # two graph sources
    code, _ = run_cli(capsys, "count", "--graph-file", "missing_file.g", "--q", "2")
    assert code == 2


def test_cli_thread_determinism(capsys, tmp_path):
    args = ["c2", "--family", "complete:4", "--space", "all", "--q", "2,3"]
    p1, p8 = tmp_path / "t1.json", tmp_path / "t8.json"
    assert main(args + ["--threads", "1", "--out", str(p1)]) == 0
    assert main(args + ["--threads", "8", "--out", str(p8)]) == 0
    assert p1.read_bytes() == p8.read_bytes()


def test_cli_seed_corpus(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, out = run_cli(capsys, "seed-corpus", "--out-dir", str(out_dir))
    assert code == 0
    files = json.loads(out)["files"]
    assert len(files) == len(named_graphs())
    for f in files:
        G = io.load_graph(f)
        assert isinstance(G, Graph)


def test_cli_diag(capsys):
    code, out = run_cli(capsys, "diag", "--family", "complete:4", "--tree", "1,2,3")
    assert code == 0
    rep = json.loads(out)
    # one op per tree edge not incident to the root
    assert len(rep["ops"]) == 2
    assert sorted(rep["tree"]) == [1, 2, 3]


def test_cli_family_json(capsys):
    code, out = run_cli(capsys, "family", "--family", "Gn:2")
    assert code == 0
    rep = json.loads(out)
    assert rep["planar"] is True
    assert rep["graph"]["vertices"] == 3
    assert "dual" in rep
