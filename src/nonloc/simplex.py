"""Dense phase-1 simplex for small feasibility systems A x = b, x >= 0.

The full tableau is updated in place by rank-1 pivots.  The entering column
has the most negative reduced cost (Dantzig); after a streak of degenerate
pivots it is the smallest eligible index (Bland) until a pivot makes progress,
which prevents cycling.  The leaving row has the smallest ratio, ties to the
smallest basis index.  On infeasibility the dual vector at the phase-1 optimum
is a Farkas certificate: y.A <= 0 on every column while y.b is the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

_DEGENERATE_STREAK = 50  # degenerate Dantzig pivots before Bland's rule takes over


@dataclass(frozen=True, eq=False)
class Phase1Result:
    feasible: bool
    x: np.ndarray | None
    y: np.ndarray | None
    objective: float
    pivots: int


def phase1_simplex(a_mat: np.ndarray, b_vec: np.ndarray, tol: float = 1e-9,
                   max_pivots: int = 200_000) -> Phase1Result:
    """Find x >= 0 with A x = b, or a Farkas certificate that none exists."""
    a = np.array(a_mat, dtype=float)
    b = np.array(b_vec, dtype=float)
    m, num = a.shape
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")
    sign = np.where(b < 0.0, -1.0, 1.0)
    a *= sign[:, None]
    b *= sign

    t = np.zeros((m + 1, num + m + 1))
    t[:m, :num] = a
    t[:m, num:num + m] = np.eye(m)
    t[:m, -1] = b
    t[m, :num] = -a.sum(axis=0)   # reduced costs under the artificial basis
    t[m, -1] = -b.sum()           # z-row stores the negated objective
    basis = np.arange(num, num + m)

    pivots = streak = 0
    while True:
        costs = t[m, :num + m]
        # Dantzig's most negative cost, or Bland's first negative one
        j = int(costs.argmin() if streak < _DEGENERATE_STREAK else (costs < -tol).argmax())
        if costs[j] >= -tol:
            break
        if pivots >= max_pivots:
            raise NumericalFailure(f"simplex exceeded {max_pivots} pivots")
        col = t[:m, j]
        rows = (col > tol).nonzero()[0]
        if rows.size == 0:
            raise NumericalFailure("phase-1 column unbounded; tableau inconsistent")
        ratios = t[rows, -1] / col[rows]
        low = ratios.min()
        tied = rows[ratios <= low + 1e-12]
        i = tied[basis[tied].argmin()]
        streak = streak + 1 if low <= 1e-12 else 0
        row = t[i] / t[i, j]
        t -= t[:, j, None] * row
        t[i] = row
        basis[i] = j
        pivots += 1

    objective = -t[m, -1]
    if objective <= tol:
        full = np.zeros(num + m)
        full[basis] = t[:m, -1]
        return Phase1Result(True, full[:num], None, objective, pivots)
    y = sign * (1.0 - t[m, num:num + m])
    return Phase1Result(False, None, y, objective, pivots)
