import json
import os
import subprocess
import sys

import pytest

from c2lab import invariants, io
from c2lab.cli import main
from c2lab.corpus import named_graphs, nonplanar_log_divergent
from c2lab.counting import count_zeros
from c2lab.fields import make_field
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
            assert io.poly_from_text(P.to_text()) == P
    assert io.poly_from_text("0") == MLPoly.zero()


def test_poly_json_roundtrip():
    P = phi(family("complete", 4))
    assert MLPoly.from_json_terms(json.loads(json.dumps(P.to_json_terms()))) == P


def test_cli_poly_text(capsys):
    code, out = run_cli(capsys, "poly", "--family", "cycle:3", "--which", "psi")
    assert code == 0
    assert out.strip() == "+1*a1 +1*a2 +1*a3"


def test_cli_poly_json(capsys):
    G = family("wheel", 3)
    for which, P in (("psi", psi(G)), ("phi", phi(G))):
        code, out = run_cli(capsys, "poly", "--family", "wheel:3", "--which", which, "--format", "json")
        assert code == 0
        assert MLPoly.from_json_terms(json.loads(out)["poly"]) == P, which


def test_cli_poly_keeps_labels_beyond_64(capsys):
    code, out = run_cli(capsys, "poly", "--family", "cycle:70")
    assert code == 0
    assert out == " ".join(f"+1*a{i}" for i in range(1, 71)) + "\n"


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
        lambda G, F, **kw: (False, {}),
    )
    code, out = run_cli(capsys, "verify", "--theorem", "lem36", "--family", "Gn:3")
    assert code == 1
    rep = json.loads(out)
    assert rep["passed"] is False


@pytest.mark.parametrize("theorem", ["prop34", "cor35", "lem36"])
def test_cli_verify_census_checks_a_given_q(capsys, theorem):
    argv = ["verify", "--theorem", theorem, "--family", "Gn:3"]
    code, plain = run_cli(capsys, *argv)
    assert code == 0
    assert [r["q"] for r in json.loads(plain)["results"]] == [None]
    # a valid --q changes nothing: the statement is still checked once
    assert run_cli(capsys, *argv, "--q", "2,3") == (0, plain)
    for qs, error in (("2,x", "BadParameter"), ("6", "UnsupportedQ")):
        code, out = run_cli(capsys, *argv, "--q", qs)
        assert code == 2, qs
        assert json.loads(out)["error"]["code"] == error


@pytest.mark.parametrize("spec", ["banana:3", "cycle:1", "wheel:3"])
def test_cli_verify_lem36_off_the_g_n_family(capsys, spec):
    # banana:3 and cycle:1 are below the smallest G_n, G_2
    code, out = run_cli(capsys, "verify", "--theorem", "lem36", "--family", spec)
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": "PreconditionUnmet",
        "message": "lem36 is about the G_n family",
    }


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


def test_cli_admissible_structural_budget_exit_code(capsys, tmp_path):
    # K3,3 plus a doubled edge is non-planar, so its scan has 25,048 pairs
    path = tmp_path / "k33_doubled.g"
    path.write_text(io.graph_to_text(nonplanar_log_divergent()))
    code, out = run_cli(
        capsys, "admissible", "--graph-file", str(path), "--mode", "structural", "--budget", "1000"
    )
    assert code == 3
    assert json.loads(out)["error"]["code"] == "BudgetExceeded"


@pytest.mark.parametrize("theorem, spec", [("prop34", "wheel:5"), ("cor35", "wheel:4"), ("lem36", "Gn:3")])
def test_cli_verify_census_budget_exit_code(capsys, theorem, spec):
    # each of these theorems takes a census of more than 10 pairs
    code, out = run_cli(capsys, "verify", "--theorem", theorem, "--family", spec, "--budget", "10")
    assert code == 3
    assert json.loads(out)["error"]["code"] == "BudgetExceeded"


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


def test_cli_count_reduced_budget_exit_code(capsys):
    code, out = run_cli(
        capsys, "count", "--family", "wheel:4", "--q", "3", "--method", "reduced", "--budget", "10"
    )
    assert code == 3
    assert json.loads(out)["error"]["code"] == "BudgetExceeded"


def test_cli_count_torus_rejects_reduced_method(capsys):
    code, out = run_cli(
        capsys, "count", "--family", "wheel:3", "--q", "2", "--torus", "--method", "reduced"
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "BadParameter"


def test_cli_count_reduced_budget_applies_to_each_field(capsys):
    # psi(wheel:4) is enumerated whole: 256 points at q = 2 and 6561 at q = 3
    argv = ["count", "--family", "wheel:4", "--method", "reduced", "--budget", "1000"]
    assert run_cli(capsys, *argv, "--q", "2,2,2")[0] == 0
    code, out = run_cli(capsys, *argv, "--q", "2,3")
    assert code == 3
    assert json.loads(out)["error"] == {
        "code": "BudgetExceeded",
        "message": "count_reduced's enumeration fallbacks exceed the budget of 1000 points",
    }


@pytest.mark.parametrize("method", ["brute", "reduced"])
def test_cli_count_rejects_unsupported_q_before_counting(capsys, method):
    # every --q is checked before the first count, so a budget that the
    # count at q = 3 exceeds does not hide the unsupported q = 6
    argv = ["count", "--family", "wheel:4", "--q", "3,6", "--method", method]
    for extra in ([], ["--budget", "10"]):
        code, out = run_cli(capsys, *argv, *extra)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "UnsupportedQ"


_COUNTING = [
    ["count", "--family", "wheel:3", "--q", "2"],
    ["c2", "--family", "wheel:3", "--q", "2"],
    ["verify", "--theorem", "Thm2", "--family", "wheel:3", "--q", "2"],
    ["admissible", "--family", "wheel:3"],
]
_NON_COUNTING = [
    ["poly", "--family", "cycle:3"],
    ["census", "--family", "wheel:3", "--u", "1", "--v", "0"],
    ["diag", "--family", "complete:4"],
    ["family", "--family", "cycle:3"],
    ["seed-corpus", "--out-dir", "corpus"],
]


# every count runs in one thread, so no command takes --threads
@pytest.mark.parametrize(
    "flag, argv",
    [("--threads", argv) for argv in _COUNTING + _NON_COUNTING]
    + [("--budget", argv) for argv in _NON_COUNTING],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_cli_counting_flags_only_on_counting_commands(capsys, tmp_path, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv, flag, "2") == (2, "")


def test_cli_c2_keeps_legs_past_position_budget(capsys):
    code, out = run_cli(capsys, "c2", "--family", "wheel:7", "--space", "all", "--q", "2")
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["c2_param"] == res["c2_dual"] == 1
    assert res["c2_pos"] is None and res["c2_pos_reason"].startswith("BudgetExceeded")


def test_cli_usage_errors(capsys, tmp_path):
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
    # malformed specs and files are input errors with a JSON report, not tracebacks
    for argv in (
        ("family", "--family", "wheel:x"),
        ("family", "--family", "wheel:"),
        ("diag", "--family", "complete:4", "--tree", "1,x"),
        ("family", "--family", "wheel3"),
        ("c2", "--family", "wheel:3", "--q", "2,x"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["error"]["code"] == "BadParameter", argv
    for name, text in (
        ("header.g", "p 2 x\n1 2\n2 1\n"),
        ("edge.g", "p 1 2\n1 y\n"),
        ("truncated.json", '{"vertices": 2, "edges": [[1, 2]'),
    ):
        path = tmp_path / name
        path.write_text(text)
        code, out = run_cli(capsys, "family", "--graph-file", str(path))
        assert code == 2, name
        assert json.loads(out)["error"]["code"] == "BadParameter", name


def test_cli_at_q_budget_exit_code(capsys):
    code, out = run_cli(
        capsys, "admissible", "--family", "wheel:4", "--mode", "at-q", "--q", "2", "--budget", "10"
    )
    assert code == 3
    assert json.loads(out)["error"]["message"] == "the at-q scan of 1215 pairs exceeds the budget 10"


@pytest.mark.parametrize("budget", ["1215", "2186"])
def test_cli_at_q_class_count_budget_exit_code(capsys, budget):
    argv = ["admissible", "--family", "wheel:4", "--mode", "at-q", "--q", "3", "--budget", budget]
    code, out = run_cli(capsys, *argv)
    assert code == 3
    message = f"enumerating q^n = 3^7 points exceeds the budget {budget}"
    assert json.loads(out)["error"]["message"] == message
    code, out = run_cli(capsys, *argv[:-1], "2187")
    assert code == 0 and json.loads(out)["results"][0]["admissible"]


def test_cli_rejects_a_negative_budget(capsys):
    argv = ["count", "--family", "wheel:3", "--q", "2", "--budget"]
    code, out = run_cli(capsys, *argv, "-1")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "BadParameter"
    code, out = run_cli(capsys, "admissible", "--family", "wheel:4", "--budget", "-1")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "BadParameter"
    # a budget of 0 is valid: wheel:3 counts at q = 2 exceed it
    assert run_cli(capsys, *argv, "0")[0] == 3


@pytest.mark.parametrize("spec", ["wheel:4", "Gn:4"])
def test_cli_at_q_scans_once_for_all_q(capsys, spec):
    argv = ["admissible", "--family", spec, "--mode", "at-q", "--q"]
    code, out = run_cli(capsys, *argv, "2,3")
    assert code == 0
    results = []
    for q in ("2", "3"):
        code, one = run_cli(capsys, *argv, q)
        assert code == 0
        results += json.loads(one)["results"]
    assert json.loads(out)["results"] == results


def test_cli_at_q_checks_every_q_before_the_scan(capsys):
    argv = ["admissible", "--family", "wheel:4", "--mode", "at-q", "--q", "2,6", "--budget", "5"]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "UnsupportedQ"


def test_cli_unwritable_out_reports_an_io_error(capsys, tmp_path):
    for argv in (["count", "--family", "wheel:3", "--q", "2"], ["poly", "--family", "cycle:3"]):
        path = tmp_path / "missing" / "report.json"
        code, out = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2, argv
        assert json.loads(out) == {
            "schema": "c2lab/1",
            "command": argv[0],
            "error": {"code": "IOError", "message": f"[Errno 2] No such file or directory: '{path}'"},
        }


@pytest.mark.parametrize("qs", ["2,6", "6,2"])
def test_cli_verify_checks_every_q_before_counting(capsys, qs):
    # the count at q = 2 exceeds the budget, so only a check before it sees q = 6
    argv = ["verify", "--theorem", "Thm2", "--family", "wheel:4", "--q", qs, "--budget", "5"]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "UnsupportedQ"


def test_cli_c2_checks_every_q_before_counting(capsys, monkeypatch):
    calls = []

    def counted(real):
        def count(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return count

    for name in ("count_zeros", "quadric_union_count"):
        monkeypatch.setattr(invariants, name, counted(getattr(invariants, name)))
    code, out = run_cli(capsys, "c2", "--family", "wheel:4", "--q", "2,6")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "UnsupportedQ"
    assert calls == []
    assert run_cli(capsys, "c2", "--family", "wheel:4", "--q", "2")[0] == 0
    assert len(calls) == 3  # the counter does see the counts of a valid --q


def test_report_keys_are_fixed():
    # a field added to a report class must not slip into the JSON unnoticed
    F, W4 = make_field(2), family("wheel", 4)
    count = count_zeros([psi(W4)], F, W4.edge_count)
    assert set(count.to_json()) == {
        "raw", "q", "n_vars", "mod_q", "mod_q2", "mod_q3", "quotient_c2",
    }
    admissibility = {
        "admissible", "mode", "q", "examined", "skipped_degenerate", "planar_shortcut",
        "condition_counts", "failure", "failure_detail",
    }
    assert set(invariants.admissible_structural(W4).to_json()) == admissibility
    assert set(invariants.admissible_at_q(W4, [F])[0].to_json()) == admissibility
    assert set(invariants.verify("Thm2", W4, F).to_json()) == {"theorem", "passed", "q", "details"}
    assert set(invariants.c2_verdict(W4, F, graph="wheel:4").to_json()) == {
        "graph", "q", "c2_param", "c2_param_reason", "c2_dual", "c2_dual_reason",
        "c2_pos", "c2_pos_reason", "c2_pos_quotient_mod_q3",
    }


def test_cli_thread_determinism(capsys, tmp_path):
    # every count runs in one thread; a second run of the same job in the
    # same process, with whatever the first left cached, writes the same bytes
    args = ["c2", "--family", "complete:4", "--space", "all", "--q", "2,3"]
    p1, p2 = tmp_path / "t1.json", tmp_path / "t2.json"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


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


def test_cli_family_text(capsys):
    code, out = run_cli(capsys, "family", "--family", "wheel:4", "--format", "text")
    assert code == 0
    assert io.graph_from_text(out) == family("wheel", 4)


@pytest.mark.parametrize("preset", (None, "2"))
def test_import_runs_blas_on_one_thread_unless_told_otherwise(preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = os.path.dirname(os.path.dirname(os.path.abspath(invariants.__file__)))
    env["PYTHONPATH"] = src
    code = "import os, c2lab; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == (preset or "1")


_GUARD = """
import contextlib, io, json, os, sys
import c2lab, c2lab.cli
from c2lab import io as gio
from c2lab.cli import main
from c2lab.corpus import nonplanar_log_divergent
from c2lab.errors import NotPlanar
from c2lab.graphs import family
from c2lab.planar import planar_dual

path = os.path.join(sys.argv[1], "K33_doubled.g")
with open(path, "w") as fh:
    fh.write(gio.graph_to_text(nonplanar_log_divergent()))
steps = [["import"]]
loaded = ["networkx" in sys.modules]
for argv in (
    ["count", "--family", "wheel:3", "--q", "2,3"],
    ["c2", "--family", "complete:4", "--space", "all", "--q", "2"],
    ["verify", "--theorem", "Thm2", "--family", "wheel:3", "--q", "2,3"],
    ["admissible", "--family", "wheel:5", "--mode", "structural"],
    ["admissible", "--graph-file", path, "--mode", "structural"],
    ["census", "--family", "wheel:4", "--u", "1", "--v", "1"],
    ["dual", "complete:5"],
    ["family", "--family", "complete:4"],
):
    out = io.StringIO()
    if argv[0] == "dual":
        try:
            planar_dual(family("complete", 5))
            code = 0
        except NotPlanar:
            code = "NotPlanar"
    else:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    steps.append([argv[0], code, "dual" in out.getvalue()])
    loaded.append("networkx" in sys.modules)
print(json.dumps([steps, loaded, "concurrent.futures" in sys.modules]))
"""


def test_networkx_loads_only_for_planar_dual(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(invariants.__file__)))
    out = subprocess.run([sys.executable, "-c", _GUARD, str(tmp_path)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    steps, loaded, pooled = json.loads(out.stdout)
    assert [s[:2] for s in steps] == [
        ["import"], ["count", 0], ["c2", 0], ["verify", 0], ["admissible", 0],
        ["admissible", 0], ["census", 0], ["dual", "NotPlanar"], ["family", 0],
    ]
    # a non-planar graph is refused before networkx is imported; only the
    # embedding of a planar dual loads it
    assert loaded == [False] * 8 + [True]
    assert steps[-1][2]
    assert not pooled  # every count runs in one thread


_ONE_PARSER = """
import argparse, contextlib, io, json, sys

built = [0]
init = argparse.ArgumentParser.__init__


def counting_init(self, *args, **kwargs):
    built[0] += 1
    init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counting_init
import c2lab.cli

at_import = built[0]
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = c2lab.cli.main(argv)
    runs.append([code, out.getvalue()])
by_main = built[0]
c2lab.cli.build_parser()
print(json.dumps([at_import, by_main, built[0] - by_main, runs]))
"""

# a success, a usage error, a budget error, then successes of other commands
_SEQUENCE = [
    ["poly", "--family", "wheel:4", "--which", "phi"],
    ["count", "--threads", "2"],
    ["count", "--family", "wheel:4", "--q", "3", "--budget", "10"],
    ["count", "--family", "cycle:3", "--q", "2,3"],
    ["c2", "--family", "complete:4", "--space", "all", "--q", "2"],
    ["verify", "--theorem", "c220", "--family", "cycle:3", "--q", "4"],
    ["census", "--family", "wheel:4", "--u", "1", "--v", "1"],
    ["diag", "--family", "complete:4"],
    ["poly", "--family", "cycle:3", "--format", "json"],
    ["admissible", "--family", "wheel:4", "--mode", "structural"],
    ["family", "--family", "wheel:3", "--format", "text"],
]


def test_main_builds_one_parser_per_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(invariants.__file__)))
    out = subprocess.run([sys.executable, "-c", _ONE_PARSER, json.dumps(_SEQUENCE)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    at_import, by_main, per_build, runs = json.loads(out.stdout)
    assert at_import == 0  # importing the CLI builds no parser
    assert by_main == per_build > 0  # all the calls of main share one build
    assert [code for code, _ in runs] == [0, 2, 3] + [0] * 8
    for argv, (code, stdout) in zip(_SEQUENCE, runs):
        alone = subprocess.run([sys.executable, "-m", "c2lab", *argv], env=env,
                               capture_output=True, text=True)
        assert (alone.returncode, alone.stdout) == (code, stdout), argv
