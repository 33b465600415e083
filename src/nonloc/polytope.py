"""Vertex enumerations of local and bilocal non-signaling models, and LP
membership tests with verified Farkas certificates.

A model is a finite set of extreme joint distributions ("columns"); a table
belongs to the model's polytope when it is a convex combination of columns.
For n = 3 the bilocal non-signaling model glues one deterministic party to a
two-party non-signaling vertex across each of the three bipartitions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalFailure, SignalingDistribution
from .measure import JointDistribution, _table, ns_residual
from .qstate import _frozen
from .simplex import TOL, Phase1Result, phase1_simplex


@dataclass(frozen=True, eq=False)
class ModelVertexSet:
    """All extreme columns of one model, tagged by bipartition where relevant."""

    model: str
    n: int
    columns: np.ndarray
    bipartitions: tuple[tuple[int, ...] | None, ...]


@dataclass(frozen=True, eq=False)
class LPOutcome:
    """Result of a membership LP: weights when inside, a separating functional
    (nonpositive on every column, positive on the tested table) when outside;
    iterations is the simplex pivot count, and lp the final simplex state that
    a solve over more columns resumes."""

    feasible: bool
    weights: np.ndarray | None
    certificate: np.ndarray | None
    margin: float
    iterations: int
    lp: Phase1Result | None = field(default=None, repr=False)


def _single_party_deterministic() -> list[np.ndarray]:
    """The four deterministic single-party boxes P(r|s), r = g(s)."""
    boxes = []
    for g0, g1 in itertools.product((0, 1), repeat=2):
        table = np.zeros((2, 2))
        table[0, g0] = 1.0
        table[1, g1] = 1.0
        boxes.append(table)
    return boxes


@functools.lru_cache(maxsize=None)
def ns_bipartite_vertices() -> np.ndarray:
    """The 24 extreme points of the two-party two-setting NS polytope, as a
    read-only (24, 4, 4) array of tables p[s][r]: the 16 deterministic boxes,
    then the 8 PR-box variants P(ab|xy) = 1/2 iff a + b = xy + alpha x +
    beta y + gamma (mod 2).  Each is checked non-signaling exactly and
    extreme by LP."""
    boxes = np.zeros((24, 4, 4))
    for i, (alpha, beta, gamma, delta) in enumerate(itertools.product((0, 1), repeat=4)):
        for x, y in itertools.product((0, 1), repeat=2):
            a = (alpha * x) ^ beta
            b = (gamma * y) ^ delta
            boxes[i, 2 * x + y, 2 * a + b] = 1.0
    for i, (alpha, beta, gamma) in enumerate(itertools.product((0, 1), repeat=3), 16):
        for x, y, a, b in itertools.product((0, 1), repeat=4):
            if a ^ b == (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma:
                boxes[i, 2 * x + y, 2 * a + b] = 0.5
    for box in boxes:
        if ns_residual(JointDistribution(2, box)) != 0.0:
            raise NumericalFailure("two-party vertex is signaling")
    tables = boxes.reshape(24, -1)
    for i in range(24):
        others = np.delete(tables, i, axis=0).T
        a = np.vstack([others, np.ones((1, 23))])
        b = np.concatenate([tables[i], [1.0]])
        if phase1_simplex(a, b).feasible:
            raise NumericalFailure(f"two-party box {i} is not extreme")
    return _frozen(boxes)


def _glue(groups) -> np.ndarray:
    """Full joint table from conditional tables on disjoint scopes covering 1..n."""
    n = sum(len(scope) for scope, _ in groups)
    args = []   # einsum axis q is party q's setting bit, n + q its outcome bit
    for scope, table in groups:
        args += [np.reshape(table, (2,) * (2 * len(scope))), [*scope, *(n + q for q in scope)]]
    return np.einsum(*args, [*range(1, 2 * n + 1)]).reshape(2 ** n, 2 ** n)


@functools.lru_cache(maxsize=None)
def _local_vertex_set(n: int) -> ModelVertexSet:
    singles = _single_party_deterministic()
    cols = []
    for combo in itertools.product(range(4), repeat=n):
        groups = [((k + 1,), singles[combo[k]]) for k in range(n)]
        cols.append(_glue(groups).reshape(-1))
    columns = _frozen(np.stack(cols).reshape(4 ** n, 2 ** n, 2 ** n))
    return ModelVertexSet("fully-local", n, columns, (None,) * (4 ** n))


def deterministic_local_vertices(n: int) -> ModelVertexSet:
    """All 4^n deterministic strategies of the fully local model."""
    if not 2 <= n <= 4:
        raise ValueError(f"local vertex enumeration supports 2..4 parties, got {n}")
    return _local_vertex_set(n)


@functools.lru_cache(maxsize=None)
def bilocal_ns_vertices() -> ModelVertexSet:
    """All 288 columns of the three-party bilocal non-signaling model."""
    singles = _single_party_deterministic()
    pair_boxes = ns_bipartite_vertices()
    cols = []
    tags = []
    for lone in (1, 2, 3):
        pair = tuple(p for p in (1, 2, 3) if p != lone)
        for single in singles:
            for box in pair_boxes:
                cols.append(_glue([((lone,), single), (pair, box)]).reshape(-1))
                tags.append((lone,))
    columns = _frozen(np.stack(cols).reshape(len(cols), 8, 8))
    return ModelVertexSet("bilocal-ns", 3, columns, tuple(tags))


@functools.lru_cache(maxsize=None)
def _ns_maps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (3^n, 4^n) Collins-Gisin map C and the orthogonal projector onto
    the non-signaling span, the span of the local vertices.  Per party, C has
    the rows "any outcome at s = 0", "r = 0 at s = 0" and "r = 0 at s = 1" of
    p[s][r], and the projector removes the signaling direction p(.|0) - p(.|1).
    C is injective on the span; its all-"any" row is the normalization."""
    block = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    sig = np.array([1.0, 1.0, -1.0, -1.0])
    one = np.eye(4) - np.outer(sig, sig) / 4.0
    c, proj = (functools.reduce(np.kron, [m] * n) for m in (block, one))
    # C's columns and the projector's rows and columns go to the table layout
    c = _table(c, n).reshape(3 ** n, 4 ** n)
    proj = _table(_table(proj, n).reshape(4 ** n, 4 ** n).T, n).reshape(4 ** n, 4 ** n)
    return _frozen(c), _frozen(proj)


@functools.lru_cache(maxsize=8)
def _lp_columns(vs: ModelVertexSet) -> tuple[np.ndarray, np.ndarray, int]:
    """The model's LP columns: each distinct column once, the local vertices
    of its party count first and in their own order, then the model's others.
    Returns the index of the first model column equal to each LP column, the
    LP columns in Collins-Gisin coordinates, and how many are local."""
    flat = vs.columns.reshape(len(vs.columns), -1)
    first = {}
    for i, col in enumerate(flat):
        first.setdefault(col.tobytes(), i)
    local_keys = (col.tobytes() for col in _local_vertex_set(vs.n).columns)
    local = [first[key] for key in local_keys if key in first]
    taken = set(local)
    order = np.array(local + [i for i in first.values() if i not in taken])
    return (_frozen(order), _frozen(_ns_maps(vs.n)[0] @ flat[order].T), len(local))


def lp_membership(d: JointDistribution, vs: ModelVertexSet,
                  start: LPOutcome | None = None) -> LPOutcome:
    """Decide membership of a table in the model polytope, by an LP in
    Collins-Gisin coordinates.

    The LP takes each distinct column once, the local vertices first.  A
    model with more columns solves that local block, then resumes it over the
    rest; start, this table's outcome over the local vertices, stands in for
    the first solve.  Either way the pivots and verdict are the same.

    Feasible outcomes carry weights reproducing the table to 1e-9, on the
    first of equal columns; infeasible ones a certificate table, rescaled to
    unit max entry and re-validated against every column.  It is the table's
    part off the non-signaling span when that has 1-norm above 1e-9, else the
    Farkas vector lifted into the span.
    """
    if d.n != vs.n:
        raise DimensionMismatch(f"distribution has {d.n} parties, model {vs.n}")
    if ns_residual(d) > 1e-8:
        raise SignalingDistribution("membership tested on a signaling table")
    (cg, proj), p = _ns_maps(d.n), d.p.reshape(-1)
    off = p - proj @ p
    if np.abs(off).sum() > TOL:
        # projected once more: rounding in proj @ p would swamp so small a part
        return _certified(d, vs, off - proj @ off, None)
    order, cols, local = _lp_columns(vs)
    b = cg @ p
    prior = None if start is None else start.lp
    if prior is None and local < len(order):
        prior = phase1_simplex(cols[:, :local], b)
    if prior is not None and prior.columns != local:
        raise ValueError(f"start covers {prior.columns} columns, not the {local} local ones")
    res = phase1_simplex(cols, b, start=prior)
    if res.feasible:
        w = np.zeros(len(vs.columns))
        w[order] = np.maximum(res.x, 0.0)
        err = np.abs(vs.columns.reshape(len(w), -1).T @ w - p).max()
        if err > 1e-9:
            raise NumericalFailure(f"feasible weights reproduce the table to {err:.3e} only")
        return LPOutcome(True, _frozen(w), None, 0.0, res.pivots, res)
    return _certified(d, vs, proj @ (cg.T @ res.y), res)


def _certified(d: JointDistribution, vs: ModelVertexSet, cert,
               res: Phase1Result | None) -> LPOutcome:
    """The infeasible outcome for a separating table, re-validated."""
    cert = cert.reshape(d.p.shape)
    scale = np.abs(cert).max()
    if scale <= 0.0:
        raise NumericalFailure("vanishing certificate from an infeasible LP")
    cert = cert / scale
    worst = float(np.einsum("csr,sr->c", vs.columns, cert).max())
    if worst > 0.0:
        # fold a constant shift through the per-setting normalization
        cert = cert - worst / 2 ** d.n
    col_vals = np.einsum("csr,sr->c", vs.columns, cert)
    margin = float((cert * d.p).sum())
    if col_vals.max() > 1e-12 or margin <= 0.0:
        raise NumericalFailure("Farkas certificate failed re-validation")
    return LPOutcome(False, None, _frozen(cert), margin, res.pivots if res else 0, res)


def classify(d: JointDistribution) -> tuple[str, LPOutcome]:
    """Place a three-party table in the hierarchy: local, bilocal-but-nonlocal,
    or genuinely nonlocal.  Returns the label and the deciding LP outcome.
    The bilocal LP resumes the local one."""
    if d.n != 3:
        raise DimensionMismatch("classification is implemented for 3 parties")
    local = lp_membership(d, deterministic_local_vertices(3))
    if local.feasible:
        return "local", local
    bilocal = lp_membership(d, bilocal_ns_vertices(), start=local)
    if bilocal.feasible:
        return "nonlocal-but-bilocal", bilocal
    return "genuinely-nonlocal", bilocal
