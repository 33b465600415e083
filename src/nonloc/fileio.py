"""JSON and CSV readers/writers for states, settings, distributions, and
results, plus the run manifests that make every output auditable.

Complex numbers are stored as [re, im] pairs.  JSON outputs carry a
"manifest" object (command, parameters, seed, version, input digests, and a
digest of the payload itself); CSV outputs get the same manifest as a JSON
sidecar next to the file.  Nothing time-dependent is written, so a rerun with
identical inputs produces identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .measure import JointDistribution, MeasurementSettings, Ray
from .polytope import LPOutcome, ModelVertexSet
from .qstate import PureState, SymmetricState
from .search import ExperimentRecord, ExperimentSummary
from .symmetric import SymmetricSolution


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _list(v, what: str, size: int | None = None) -> list:
    """v, if it is a JSON array, of size items when size is given."""
    if not isinstance(v, list) or size is not None and len(v) != size:
        raise ValueError(f"expected {what}, got {v!r}")
    return v


def _number(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"number {v} is out of range") from None


def _unpair(v) -> complex:
    re, im = _list(v, "a [re, im] pair", 2)
    return complex(_number(re), _number(im))


def _field(obj: dict, key: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing field {key!r}")
    return obj[key]


def _list_field(obj: dict, key: str) -> list:
    return _list(_field(obj, key), f"a list in field {key!r}")


def _party_count(obj: dict) -> int:
    n = _field(obj, "n")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"field 'n' must be an integer, got {n!r}")
    return n


def _ray(v) -> Ray:
    c0, c1 = _list(v, "a ray [[re, im], [re, im]]", 2)
    return Ray(_unpair(c0), _unpair(c1))


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nesting too deep") from None
    if not isinstance(obj, dict):
        raise ValueError("top-level JSON value must be an object")
    return obj


def load_state(path) -> PureState:
    obj = load_json(path)
    n = _party_count(obj)
    amps = [_unpair(v) for v in _list_field(obj, "amplitudes")]
    return PureState(n, np.array(amps))


def load_symmetric(path) -> SymmetricState:
    obj = load_json(path)
    n = _party_count(obj)
    h = [_unpair(v) for v in _list_field(obj, "h")]
    return SymmetricState(n, np.array(h))


def load_settings(path) -> MeasurementSettings:
    obj = load_json(path)
    n = _party_count(obj)
    pairs = tuple((_ray(_field(party, "a")), _ray(_field(party, "b")))
                  for party in _list_field(obj, "parties"))
    return MeasurementSettings(n, pairs)


def load_distribution(path) -> JointDistribution:
    obj = load_json(path)
    n = _party_count(obj)
    rows = [[_number(v) for v in _list(row, "a list as a row of 'p'")] for row in _list_field(obj, "p")]
    return JointDistribution(n, np.array(rows))


def state_payload(psi: PureState) -> dict:
    return {"n": psi.n, "amplitudes": [_pair(z) for z in psi.amplitudes]}


def settings_payload(m: MeasurementSettings) -> dict:
    return {"n": m.n,
            "parties": [{"a": [_pair(a.c0), _pair(a.c1)],
                         "b": [_pair(b.c0), _pair(b.c1)]}
                        for a, b in m.pairs]}


def distribution_payload(d: JointDistribution) -> dict:
    p = np.maximum(d.p, 0.0)
    return {"n": d.n, "p": [[float(v) for v in row] for row in p]}


def solution_payload(sol: SymmetricSolution) -> dict:
    return {"x": _pair(sol.x), "y1": _pair(sol.y1), "y": _pair(sol.y),
            "x1": _pair(sol.x1), "p_success": sol.p_success,
            "excluded_x": [float(t) for t in sol.excluded_x],
            "settings": settings_payload(sol.settings)}


def report_payload(report, ineq1: float, ineq2: float | None) -> dict:
    return {"pivot": report.pivot, "p_success": report.p_success,
            "zero_residuals": [float(r) for r in report.zero_residuals],
            "passed": report.passed, "ineq1": ineq1, "ineq2": ineq2}


def lp_outcome_payload(out: LPOutcome) -> dict:
    return {"feasible": out.feasible,
            "weights": None if out.weights is None
            else [float(v) for v in out.weights],
            "certificate": None if out.certificate is None
            else [[float(v) for v in row] for row in out.certificate],
            "margin": out.margin, "iterations": out.iterations}


def vertex_set_payload(vs: ModelVertexSet) -> dict:
    return {"model": vs.model, "n": vs.n,
            "columns": [{"bipartition": None if bip is None else list(bip),
                         "p": [[float(v) for v in row] for row in col]}
                        for bip, col in zip(vs.bipartitions, vs.columns)]}


def summary_payload(s: ExperimentSummary) -> dict:
    return {**asdict(s), "records": [asdict(r) for r in s.records]}


EXPERIMENT_CSV_FIELDS = tuple(f.name for f in fields(ExperimentRecord))


def _csv_value(v):
    """A record field as the CSV holds it: bools in lower case, floats to 17 digits."""
    if isinstance(v, bool):
        return str(v).lower()
    return f"{v:.17g}" if isinstance(v, float) else v


def experiment_rows(s: ExperimentSummary) -> list[dict]:
    return [{k: _csv_value(v) for k, v in asdict(r).items()} for r in s.records]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True,
                      allow_nan=False).encode()


def make_manifest(command: str, params: dict, seed: int | None,
                  inputs: dict | None = None) -> dict:
    from . import __version__
    manifest = {"command": command, "params": params, "seed": seed,
                "version": __version__}
    if inputs:
        manifest["inputs"] = {str(name): _digest(Path(p).read_bytes())
                              for name, p in inputs.items()}
    return manifest


def dump_json(payload: dict, manifest: dict | None = None) -> str:
    doc = dict(payload)
    if manifest is not None:
        doc["manifest"] = dict(manifest)
        doc["manifest"]["payload_sha256"] = _digest(_canonical(payload))
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_json(path, payload: dict, manifest: dict | None = None) -> None:
    Path(path).write_text(dump_json(payload, manifest), encoding="utf-8")


def write_csv(path, fields, rows: list[dict],
              manifest: dict | None = None) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fields), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    Path(path).write_text(text, encoding="utf-8")
    if manifest is not None:
        doc = dict(manifest)
        doc["payload_sha256"] = _digest(text.encode())
        Path(str(path) + ".manifest.json").write_text(
            json.dumps(doc, indent=2, allow_nan=False) + "\n", encoding="utf-8")
