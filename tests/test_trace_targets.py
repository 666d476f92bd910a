"""The benchmark's tracer wraps c2lab functions by (module, function) name,
so a rename must fail here rather than in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    """TARGETS of perfbench/tracing.py, read from its source, not imported."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_every_traced_target_resolves_in_c2lab():
    targets = _targets()
    assert ("graphs", "census") in targets and ("graphs", "subquotient") in targets
    for scan in ("admissible_at_q", "admissible_structural", "s_t_sums"):
        assert ("invariants", scan) in targets
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"c2lab.{module}"), name, None))
    ]
    assert missing == []
