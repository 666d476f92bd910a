"""Spans around c2lab's public functions, installed from the benchmark's side.

``Tracer.install`` replaces each traced function in every loaded c2lab
module that holds it, including the names other modules imported it under
(``from .counting import count_zeros`` binds a second name), so calls
between layers are caught as well as the benchmark's own calls.  Each call
becomes a span (name, start, end, parent); a span's self time is its
duration minus the time of its child spans.  ``matform.eval_rank`` runs once
per lattice point, so its calls are only aggregated, not kept as spans.
Spans stay in memory and are written out when the repetition ends.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict

# (module, function): the public functions whose calls are traced.
TARGETS = [
    ("cli", "main"),
    ("invariants", "verify"),
    ("invariants", "c2_verdict"),
    ("invariants", "admissible_at_q"),
    ("invariants", "admissible_structural"),
    ("invariants", "s_t_sums"),
    ("counting", "count_zeros"),
    ("counting", "count_zeros_torus"),
    ("counting", "count_reduced"),
    ("counting", "sing_count"),
    ("quadrics", "quadric_union_count"),
    ("quadrics", "quadric_congruence_rhs"),
    ("quadrics", "restricted_matrix_rank_sums"),
    ("matform", "eval_rank"),
    ("multipoly", "psi"),
    ("multipoly", "phi"),
    ("multipoly", "dodgson"),
    ("multipoly", "phi_two_index"),
    ("multipoly", "cremona"),
    ("graphs", "census"),
    ("graphs", "subquotient"),
    ("planar", "is_planar"),
    ("fields", "make_field"),
]

AGGREGATE_ONLY = {"matform.eval_rank"}
CACHED = ("psi", "phi")
# Modules whose share of run_s is reported.  make_field is left out: its
# metrics also cover set-up, which is not part of run_s.
LAYERS = ("cli", "invariants", "counting", "quadrics", "matform", "multipoly", "graphs", "planar")

# Every per-layer metric a traced repetition reports, with its unit.
METRICS = [
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("invariants.verify.calls", "count"),
    ("invariants.verify.self_s", "s"),
    ("invariants.c2_verdict.calls", "count"),
    ("invariants.c2_verdict.self_s", "s"),
    ("invariants.admissible_at_q.self_s", "s"),
    ("invariants.admissible_structural.self_s", "s"),
    ("invariants.s_t_sums.self_s", "s"),
    ("counting.count_zeros.calls", "count"),
    ("counting.count_zeros.self_s", "s"),
    ("counting.count_zeros.points", "count"),
    ("counting.count_zeros.term_evals", "count"),
    ("counting.count_zeros.prime.points_per_s", "1/s"),
    ("counting.count_zeros.tables.points_per_s", "1/s"),
    ("counting.count_zeros_torus.calls", "count"),
    ("counting.count_zeros_torus.self_s", "s"),
    ("counting.count_reduced.calls", "count"),
    ("counting.count_reduced.self_s", "s"),
    ("counting.sing_count.rank.self_s", "s"),
    ("counting.sing_count.jacobian.self_s", "s"),
    ("quadrics.quadric_union_count.calls", "count"),
    ("quadrics.quadric_union_count.self_s", "s"),
    ("quadrics.quadric_union_count.points", "count"),
    ("quadrics.quadric_union_count.points_per_s", "1/s"),
    ("quadrics.quadric_congruence_rhs.self_s", "s"),
    ("quadrics.restricted_matrix_rank_sums.self_s", "s"),
    ("matform.eval_rank.calls", "count"),
    ("matform.eval_rank.self_s", "s"),
    ("multipoly.psi.calls", "count"),
    ("multipoly.psi.self_s", "s"),
    ("multipoly.psi.cache_hits", "count"),
    ("multipoly.psi.cache_misses", "count"),
    ("multipoly.phi.calls", "count"),
    ("multipoly.phi.self_s", "s"),
    ("multipoly.phi.cache_hits", "count"),
    ("multipoly.phi.cache_misses", "count"),
    ("multipoly.dodgson.calls", "count"),
    ("multipoly.dodgson.self_s", "s"),
    ("multipoly.phi_two_index.calls", "count"),
    ("multipoly.phi_two_index.self_s", "s"),
    ("multipoly.cremona.self_s", "s"),
    ("graphs.census.calls", "count"),
    ("graphs.census.self_s", "s"),
    ("graphs.subquotient.calls", "count"),
    ("graphs.subquotient.self_s", "s"),
    ("planar.is_planar.calls", "count"),
    ("planar.is_planar.self_s", "s"),
    ("fields.make_field.calls", "count"),
    ("fields.make_field.self_s", "s"),
] + [(f"layer.{layer}.share_pct", "%") for layer in LAYERS + ("other",)] + [
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
]


class _Agg:
    __slots__ = ("calls", "self_s", "total_s", "points", "term_evals")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.points = 0
        self.term_evals = 0


def _key(mod: str, name: str, args, kwargs) -> str:
    if name == "sing_count":
        method = args[2] if len(args) > 2 else kwargs.get("method", "jacobian")
        return f"counting.sing_count.{method}"
    if name == "count_zeros":
        F = args[1] if len(args) > 1 else kwargs["F"]
        return "counting.count_zeros.prime" if F.is_prime else "counting.count_zeros.tables"
    return f"{mod}.{name}"


def _work(name: str, args, kwargs) -> tuple[int, int]:
    """Computed (points, term evaluations) of one kernel call, from its arguments."""
    if name in ("count_zeros", "count_zeros_torus"):
        polys, F, n_vars = args[0], args[1], args[2]
        points = F.q**n_vars
        return points, points * sum(P.monomial_count() for P in polys)
    if name == "quadric_union_count":
        G, F = args[0], args[1]
        return F.q ** (4 * G.n), 0
    return 0, 0


class Tracer:
    def __init__(self):
        self.agg: dict[str, _Agg] = defaultdict(_Agg)
        self.spans: list = []
        self._local = threading.local()
        self._patched: list = []
        self._cache_start: dict = {}
        self._originals: dict = {}

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, mod: str, name: str, fn):
        keep_span = f"{mod}.{name}" not in AGGREGATE_ONLY
        tracer = self

        def traced(*args, **kwargs):
            if name in ("count_zeros", "count_zeros_torus") and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + args[1:]
            stack = tracer._stack()
            parent = stack[-1][1] if stack else -1
            frame = [0.0, len(tracer.spans) if keep_span else parent]
            if keep_span:
                tracer.spans.append(None)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                key = _key(mod, name, args, kwargs)
                a = tracer.agg[key]
                a.calls += 1
                a.self_s += dur - frame[0]
                a.total_s += dur
                pts, terms = _work(name, args, kwargs)
                a.points += pts
                a.term_evals += terms
                if keep_span:
                    tracer.spans[frame[1]] = (key, t0, t1, parent)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target in every loaded c2lab module that holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "c2lab" or n.startswith("c2lab.")]
        for mod, name in TARGETS:
            orig = getattr(sys.modules[f"c2lab.{mod}"], name)
            self._originals[name] = orig
            wrapper = self._wrap(mod, name, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def reset(self):
        """Forget the set-up's calls, keeping the wrappers.  Field
        construction is kept, so its metrics cover set-up and run."""
        fields = self.agg.get("fields.make_field")
        self.agg.clear()
        self.spans.clear()
        if fields is not None:
            self.agg["fields.make_field"] = fields
        self._cache_start = {n: self._originals[n].cache_info() for n in CACHED}

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def metrics(self, run_s: float) -> dict:
        """Per-layer metrics of the recorded calls, and each layer's share of run_s."""
        agg = self.agg

        def get(key):
            return agg.get(key, _Agg())

        def merged(*keys):
            out = _Agg()
            for k in keys:
                a = get(k)
                out.calls += a.calls
                out.self_s += a.self_s
                out.total_s += a.total_s
                out.points += a.points
                out.term_evals += a.term_evals
            return out

        cz = merged("counting.count_zeros.prime", "counting.count_zeros.tables")
        out = {}
        for name, _ in METRICS:
            prefix, _, kind = name.rpartition(".")
            if kind in ("calls", "self_s") and not name.startswith(("layer.", "trace.")):
                a = cz if prefix == "counting.count_zeros" else get(prefix)
                out[name] = getattr(a, kind)
        out["counting.count_zeros.points"] = cz.points
        out["counting.count_zeros.term_evals"] = cz.term_evals
        for path in ("prime", "tables"):
            a = get(f"counting.count_zeros.{path}")
            out[f"counting.count_zeros.{path}.points_per_s"] = a.points / a.total_s if a.total_s else 0.0
        qu = get("quadrics.quadric_union_count")
        out["quadrics.quadric_union_count.points"] = qu.points
        out["quadrics.quadric_union_count.points_per_s"] = qu.points / qu.total_s if qu.total_s else 0.0
        for n in CACHED:
            now, start = self._originals[n].cache_info(), self._cache_start[n]
            out[f"multipoly.{n}.cache_hits"] = now.hits - start.hits
            out[f"multipoly.{n}.cache_misses"] = now.misses - start.misses
        shares = defaultdict(float)
        for key, a in agg.items():
            shares[key.split(".")[0]] += a.self_s
        covered = 0.0
        for layer in LAYERS:
            out[f"layer.{layer}.share_pct"] = 100.0 * shares[layer] / run_s
            covered += shares[layer]
        out["layer.other.share_pct"] = 100.0 * (run_s - covered) / run_s
        return out

    def write_spans(self, path: str):
        """One JSON array per line: [id, name, start, end, parent id or -1]."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is not None:
                    key, t0, t1, parent = span
                    fh.write(json.dumps([i, key, round(t0, 7), round(t1, 7), parent]) + "\n")
