"""Spans around the calls into each layer of `nonloc`, recorded from outside.

`Tracer.install()` replaces each wrapped function at the name its caller
looks it up under (for example `nonloc.symmetric.to_magic_basis`, which is
what `solve_auto` calls) and `uninstall()` puts the originals back.  A name
that no longer exists is skipped.  Spans live in memory until `dump()`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field

# (module the caller lives in, name looked up there, layer of the callee)
WRAP_POINTS = (
    # calls the benchmark itself makes
    ("nonloc", "find_settings", "search"),
    ("nonloc", "solve_auto", "symmetric"),
    ("nonloc", "classify", "polytope"),
    ("nonloc", "bilocal_ns_vertices", "polytope"),
    ("nonloc", "deterministic_local_vertices", "polytope"),
    # calls made inside the search
    ("nonloc.search", "minimize", "search"),
    ("nonloc.search", "least_squares", "search"),
    ("nonloc.search", "born_distribution", "measure"),
    ("nonloc.search", "hardy_conditions", "hardy"),
    # calls made inside the symmetric solver
    ("nonloc.symmetric", "genuine_entanglement_check", "qstate"),
    ("nonloc.symmetric", "dicke_expand", "qstate"),
    ("nonloc.symmetric", "to_magic_basis", "qstate"),
    ("nonloc.symmetric", "degenerate_x_roots", "symmetric"),
    ("nonloc.symmetric", "f_poly_roots", "symmetric"),
    ("nonloc.symmetric", "solve_settings", "symmetric"),
    ("nonloc.symmetric", "born_distribution", "measure"),
    ("nonloc.symmetric", "hardy_conditions", "hardy"),
    # calls made inside the LP layer
    ("nonloc.polytope", "lp_membership", "polytope"),
    ("nonloc.polytope", "deterministic_local_vertices", "polytope"),
    ("nonloc.polytope", "bilocal_ns_vertices", "polytope"),
    ("nonloc.polytope", "ns_residual", "measure"),
    ("nonloc.polytope", "phase1_simplex", "simplex"),
    ("nonloc.polytope", "linprog", "simplex"),
)

LAYERS = ("search", "symmetric", "qstate", "measure", "hardy", "polytope", "simplex")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _attrs(name: str, args, result) -> dict:
    """Counts read off a call's arguments and result where they exist."""
    if name in ("minimize", "least_squares"):
        return {"nfev": int(getattr(result, "nfev", 0) or 0)}
    if name == "phase1_simplex":
        return {"pivots": int(getattr(result, "pivots", 0) or 0)}
    if name == "linprog":
        return {"pivots": int(getattr(result, "nit", 0) or 0)}
    if name == "lp_membership" and len(args) > 1:
        return {"model": str(getattr(args[1], "model", ""))}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.failed_ops: set[int] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, layer, time.perf_counter(), 0.0,
                        stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
            span.attrs = _attrs(name, args, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every point that exists; return the qualified names skipped."""
        skipped = []
        for modname, name, layer in WRAP_POINTS:
            module = importlib.import_module(modname)
            fn = getattr(module, name, None)
            if fn is None:
                skipped.append(f"{modname}.{name}")
                continue
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(fn, name, layer))
        return skipped

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "layer": s.layer,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op,
                                     **s.attrs}) + "\n")


OPTIMIZERS = ("minimize", "least_squares")
SOLVERS = ("phase1_simplex", "linprog")
VERTEX_SETS = ("bilocal_ns_vertices", "deterministic_local_vertices")
MODELS = {"local": "fully-local", "bilocal": "bilocal-ns"}


def layer_metrics(tracer: Tracer, op_band: dict[int, str | None]) -> dict:
    """Per-layer metrics of a traced pass: name -> (value, unit).

    op_band maps each attempted operation to its band.  Per-operation figures
    average over the completed operations of a band; a layer the workload
    never calls reads 0.
    """
    done = {i for i in op_band if i not in tracer.failed_ops}
    spans = [s for s in tracer.spans if s.op in done]
    ops_in = {band: sum(1 for i in done if op_band[i] == band) for band in "ab"}

    def total(names, band=None, key=None) -> float:
        return sum((s.attrs.get(key, 0) if key else s.seconds) for s in spans
                   if s.name in names and (band is None or op_band[s.op] == band))

    def count(names, band=None) -> int:
        return sum(1 for s in spans if s.name in names
                   and (band is None or op_band[s.op] == band))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    searches = count(("find_settings",))
    m["search.nfev_per_state"] = (ratio(total(OPTIMIZERS, key="nfev"), searches), "count")
    m["search.optimizer_calls_per_state"] = (ratio(count(OPTIMIZERS), searches), "count")
    m["search.eval_us"] = (
        ratio(total(OPTIMIZERS) * 1e6, total(OPTIMIZERS, key="nfev")), "us")
    for band in "ab":
        m[f"qstate.magic_basis_ms.{band}"] = (
            ratio(total(("to_magic_basis",), band) * 1e3, ops_in[band]), "ms")
    m["qstate.entanglement_check_ms.b"] = (
        ratio(total(("genuine_entanglement_check",), "b") * 1e3, ops_in["b"]), "ms")
    for band in "ab":
        m[f"measure.born_ms.{band}"] = (
            ratio(total(("born_distribution",), band) * 1e3, ops_in[band]), "ms")
    m["symmetric.roots_ms"] = (ratio(
        total(("degenerate_x_roots", "f_poly_roots"), "a") * 1e3, ops_in["a"]), "ms")
    m["hardy.conditions_us"] = (ratio(
        total(("hardy_conditions",)) * 1e6, count(("hardy_conditions",))), "us")

    lps = {key: [s for s in spans if s.name == "lp_membership"
                 and s.attrs.get("model") == model] for key, model in MODELS.items()}
    for key, group in lps.items():
        m[f"polytope.lp_ms.{key}"] = (
            ratio(sum(s.seconds for s in group) * 1e3, len(group)), "ms")
    for band in "ab":
        m[f"polytope.lps_per_table.{band}"] = (
            ratio(count(("lp_membership",), band), ops_in[band]), "count")
    for key, group in lps.items():
        parents = {id(s) for s in group}
        pivots = [s.attrs.get("pivots", 0) for s in spans if s.name in SOLVERS
                  and s.parent is not None and id(tracer.spans[s.parent]) in parents]
        m[f"simplex.pivots_per_lp.{key}"] = (ratio(sum(pivots), len(pivots)), "count")
    m["simplex.phase1_ms"] = (
        ratio(total(SOLVERS) * 1e3, count(SOLVERS)), "ms")
    m["polytope.vertex_set_ms"] = (sum(
        s.seconds for s in tracer.spans
        if s.op is None and s.parent is None and s.name in VERTEX_SETS) * 1e3, "ms")

    own = tracer.self_seconds()
    for layer in LAYERS:
        busy = sum(t for s, t in zip(tracer.spans, own) if s.op in done and s.layer == layer)
        m[f"{layer}.self_ms_per_op"] = (ratio(busy * 1e3, len(done)), "ms")
    return m
