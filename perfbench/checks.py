"""Correctness checks made apart from the program.

Nothing here imports `nonloc`.  Amplitudes, condition cells, Born tables and
the vertex sets of the local and bilocal non-signaling polytopes are computed
from scratch with explicit Kronecker products, and polytope membership is
decided by HiGHS through `scipy.optimize.linprog`.  Every check returns a list
of problems; an empty list means the output passed.

Index conventions follow the paper's tables: party 1 is the most significant
bit of a setting index s and of an outcome index r; setting bit 0 is the a
measurement, bit 1 the b measurement; outcome bit 0 projects onto the
setting's ray, outcome bit 1 onto its orthogonal complement.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog



# ---------------------------------------------------------------- states

def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def orth(v) -> np.ndarray:
    """Unit ket orthogonal to the single-qubit ket v."""
    v = unit(v)
    return np.array([-np.conj(v[1]), np.conj(v[0])])


def dicke_amplitudes(h) -> np.ndarray:
    """Normalized 2^n amplitudes of the symmetric state with Dicke-layer
    coefficients h (h[k] multiplies every basis state with k ones)."""
    h = np.asarray(h, dtype=complex)
    n = h.size - 1
    amps = np.array([h[bin(b).count("1")] for b in range(2 ** n)])
    return amps / np.linalg.norm(amps)


def genuinely_entangled(amps, eps: float = 1e-4) -> bool:
    """Second Schmidt coefficient above eps across every bipartition."""
    n = int(round(math.log2(len(amps))))
    t = np.asarray(amps).reshape((2,) * n)
    for mask in range(1, 2 ** (n - 1)):
        side = [k for k in range(n) if mask >> k & 1]
        rest = [k for k in range(n) if k not in side]
        m = t.transpose(side + rest).reshape(2 ** len(side), -1)
        if np.linalg.svd(m, compute_uv=False)[1] <= eps:
            return False
    return True


def settings_rays(settings) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Unit a and b kets of every party, read from a settings object's
    per-party (a, b) ray pairs."""
    a = [unit([pair[0].c0, pair[0].c1]) for pair in settings.pairs]
    b = [unit([pair[1].c0, pair[1].c1]) for pair in settings.pairs]
    return a, b


def _kron(kets) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for k in kets:
        out = np.kron(out, k)
    return out


def _cell(amps, kets) -> float:
    return float(abs(np.vdot(_kron(kets), amps)) ** 2)


def condition_cells(amps, a, b) -> tuple[float, list[float]]:
    """Success cell and the 2n - 1 zero cells of the test with pivot 1.

    success: P(0..0 | a..a); zero cells: P(0..0 | b_k a_rest) for every k,
    then P(1_1 1_k 0_rest | b_1 b_k a_rest) for k = 2..n.
    """
    n = len(a)
    success = _cell(amps, a)
    zeros = []
    for k in range(n):
        kets = list(a)
        kets[k] = b[k]
        zeros.append(_cell(amps, kets))
    for k in range(1, n):
        kets = list(a)
        kets[0] = orth(b[0])
        kets[k] = orth(b[k])
        zeros.append(_cell(amps, kets))
    return success, zeros


def check_passing(amps, a, b, eps_zero: float, delta_pos: float,
                  p_reported: float | None = None) -> list[str]:
    """Problems with settings claimed to pass the test on a state."""
    success, zeros = condition_cells(amps, a, b)
    problems = []
    worst = max(zeros)
    if not worst < eps_zero:
        problems.append(f"zero cell {worst:.3e} not below eps_zero {eps_zero:.1e}")
    if not success > delta_pos:
        problems.append(f"success cell {success:.3e} not above delta_pos {delta_pos:.1e}")
    if p_reported is not None and abs(success - p_reported) > 1e-10 + 1e-8 * success:
        problems.append(f"success cell {success:.12e} disagrees with reported "
                        f"{p_reported:.12e}")
    witness = success - sum(zeros)
    if not witness > 0.0:
        problems.append(f"witness {witness:.3e} not positive")
    return problems


def born_table(amps, a, b) -> np.ndarray:
    """Joint table p[s, r] of an n-qubit pure state under rays a, b."""
    n = len(a)
    dim = 2 ** n
    p = np.empty((dim, dim))
    for s in range(dim):
        bits = [(s >> (n - 1 - k)) & 1 for k in range(n)]
        rays = [b[k] if bit else a[k] for k, bit in enumerate(bits)]
        for r in range(dim):
            kets = [orth(rays[k]) if (r >> (n - 1 - k)) & 1 else rays[k]
                    for k in range(n)]
            p[s, r] = _cell(amps, kets)
    return p


# ------------------------------------------------------------ polytopes

def _one_party_boxes() -> list[np.ndarray]:
    """The 4 deterministic boxes P(r | s) as 2 x 2 arrays [s, r]."""
    boxes = []
    for out0, out1 in itertools.product((0, 1), repeat=2):
        box = np.zeros((2, 2))
        box[0, out0] = box[1, out1] = 1.0
        boxes.append(box)
    return boxes


def two_party_ns_vertices() -> list[np.ndarray]:
    """The 24 vertices of the two-party NS polytope as arrays [x, y, a, b]:
    16 products of deterministic boxes and 8 PR boxes
    P(ab|xy) = 1/2 iff a xor b = xy xor ux xor vy xor w."""
    out = []
    for p, q in itertools.product(_one_party_boxes(), repeat=2):
        out.append(np.einsum("xa,yb->xyab", p, q))
    for u, v, w in itertools.product((0, 1), repeat=3):
        box = np.zeros((2, 2, 2, 2))
        for x, y, a, b in itertools.product((0, 1), repeat=4):
            if a ^ b == (x & y) ^ (u & x) ^ (v & y) ^ w:
                box[x, y, a, b] = 0.5
        out.append(box)
    return out


def local_columns() -> np.ndarray:
    """The 64 deterministic strategies of three parties, shape (64, 64)."""
    boxes = _one_party_boxes()
    cols = [np.einsum("ad,be,cf->abcdef", p, q, r).reshape(-1)
            for p, q, r in itertools.product(boxes, repeat=3)]
    return np.array(cols)


def bilocal_columns() -> np.ndarray:
    """The 288 bilocal NS columns: a deterministic box on the lone party times
    a two-party NS vertex on the other two, over the 3 cuts; shape (288, 64)."""
    cols = []
    for lone in range(3):
        for single in _one_party_boxes():
            for pair in two_party_ns_vertices():
                # axes of the full tensor: settings s1 s2 s3, outcomes r1 r2 r3
                if lone == 0:
                    t = np.einsum("ad,bcef->abcdef", single, pair)
                elif lone == 1:
                    t = np.einsum("be,acdf->abcdef", single, pair)
                else:
                    t = np.einsum("cf,abde->abcdef", single, pair)
                cols.append(t.reshape(-1))
    return np.array(cols)


def highs_member(columns: np.ndarray, p: np.ndarray) -> bool:
    """Whether table p is a convex combination of the columns, by HiGHS."""
    m = columns.shape[0]
    a_eq = np.vstack([columns.T, np.ones((1, m))])
    b_eq = np.concatenate([np.asarray(p, dtype=float).reshape(-1), [1.0]])
    res = linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")


class Polytopes:
    """The benchmark's own local and bilocal vertex sets and HiGHS verdicts."""

    def __init__(self):
        self.local = local_columns()
        self.bilocal = bilocal_columns()

    def label(self, p: np.ndarray) -> str:
        if highs_member(self.local, p):
            return "local"
        if highs_member(self.bilocal, p):
            return "nonlocal-but-bilocal"
        return "genuinely-nonlocal"


def match_columns(program_columns, own_columns: np.ndarray) -> tuple[np.ndarray | None, list[str]]:
    """Index into own_columns of each program column, when the two are equal
    as multisets (the bilocal set repeats each deterministic strategy once
    per cut); otherwise None and the problems found."""
    prog = np.asarray(program_columns, dtype=float).reshape(len(program_columns), -1)
    if prog.shape != own_columns.shape:
        return None, [f"program vertex set has shape {prog.shape}, "
                      f"expected {own_columns.shape}"]
    free: dict[bytes, list[int]] = {}
    for i, col in enumerate(own_columns):
        free.setdefault(col.tobytes(), []).append(i)
    perm = []
    for col in prog:
        slots = free.get(col.tobytes())
        if not slots:
            return None, ["program vertex set differs from the enumeration"]
        perm.append(slots.pop())
    return np.array(perm), []


def check_weights(columns: np.ndarray, p: np.ndarray, weights) -> list[str]:
    """Problems with claimed convex weights over the (matched) columns."""
    if weights is None:
        return ["feasible outcome without weights"]
    w = np.asarray(weights, dtype=float)
    if w.shape != (columns.shape[0],):
        return [f"weights have shape {w.shape}, expected ({columns.shape[0]},)"]
    problems = []
    if w.min() < -1e-12:
        problems.append(f"negative weight {w.min():.3e}")
    if abs(w.sum() - 1.0) > 1e-9:
        problems.append(f"weights sum to {w.sum():.12f}")
    err = float(np.abs(columns.T @ w - np.asarray(p).reshape(-1)).max())
    if err > 1e-9:
        problems.append(f"weights reproduce the table to {err:.3e} only")
    return problems


def check_certificate(columns: np.ndarray, p: np.ndarray, certificate,
                      margin: float) -> list[str]:
    """Problems with a claimed separating functional: it must be nonpositive
    on every column, positive on the table, and match the reported margin."""
    if certificate is None:
        return ["infeasible outcome without certificate"]
    c = np.asarray(certificate, dtype=float).reshape(-1)
    if c.shape != (columns.shape[1],):
        return [f"certificate has {c.size} entries, expected {columns.shape[1]}"]
    problems = []
    worst = float((columns @ c).max())
    if worst > 1e-12:
        problems.append(f"certificate is {worst:.3e} > 0 on a column")
    value = float(c @ np.asarray(p).reshape(-1))
    if not value > 0.0:
        problems.append(f"certificate is {value:.3e} <= 0 on the table")
    if abs(value - margin) > 1e-12 + 1e-9 * abs(value):
        problems.append(f"certificate value {value:.6e} disagrees with "
                        f"reported margin {margin:.6e}")
    return problems


def check_outcome(columns: np.ndarray, p: np.ndarray, outcome,
                  inside: bool) -> list[str]:
    """Problems with an LP outcome whose verdict should be `inside`."""
    if bool(outcome.feasible) != inside:
        return [f"LP says feasible={outcome.feasible}, reference says {inside}"]
    if inside:
        return check_weights(columns, p, outcome.weights)
    return check_certificate(columns, p, outcome.certificate, outcome.margin)
