"""The benchmark's tracer wraps c2lab functions by (module, function) name
and reads the ``cache_info`` of some of them, so a rename or a dropped
cache must fail here rather than in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _constant(name):
    """A constant of perfbench/tracing.py, read from its source, not imported."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracing.py defines no {name}")


def test_every_traced_target_resolves_in_c2lab():
    targets = _constant("TARGETS")
    assert ("graphs", "census") in targets and ("graphs", "subquotient") in targets
    for scan in ("admissible_at_q", "admissible_structural", "s_t_sums"):
        assert ("invariants", scan) in targets
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"c2lab.{module}"), name, None))
    ]
    assert missing == []


def test_every_cached_target_has_cache_info():
    # the tracer reads cache_info() of each CACHED name, found by its TARGETS entry
    modules = {name: module for module, name in _constant("TARGETS")}
    cached = _constant("CACHED")
    assert set(cached) <= set(modules)
    missing = [
        name
        for name in cached
        if not hasattr(getattr(importlib.import_module(f"c2lab.{modules[name]}"), name), "cache_info")
    ]
    assert missing == []


def test_cli_counts_reduced_through_the_traced_target(monkeypatch):
    # the tracer replaces counting.count_reduced wherever it is bound, so
    # each --q of `count --method reduced` is one traced call
    from c2lab import cli, counting

    assert ("counting", "count_reduced") in _constant("TARGETS")
    assert cli.count_reduced is counting.count_reduced
    calls = []

    def spy(P, F, *args, **kwargs):
        calls.append(F.q)
        return counting.count_reduced(P, F, *args, **kwargs)

    monkeypatch.setattr(cli, "count_reduced", spy)
    assert cli.main(["count", "--family", "wheel:3", "--q", "2,3,2", "--method", "reduced"]) == 0
    assert calls == [2, 3, 2]
