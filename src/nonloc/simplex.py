"""Dense phase-1 simplex for small feasibility systems A x = b, x >= 0.

The full tableau is updated in place by rank-1 pivots.  Only the columns of A
are priced: an artificial that leaves the basis is never priced again, and one
still basic sits in its own row.  The entering column has the most negative
reduced cost (Dantzig); after a streak of degenerate pivots it is the smallest
eligible index (Bland) until a pivot makes progress, which prevents cycling.
The leaving row has the smallest ratio, ties to the smallest basis index.  On
infeasibility the dual vector at the phase-1 optimum is a Farkas certificate:
no reduced cost of A is negative, so y.A <= 0 on every column while y.b is the
optimum.

A solve can resume an earlier one for the same b over more columns: the old
columns lead, the new ones are priced from the final tableau, whose
artificial block holds B^-1 and the duals, and pivoting goes on from its basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure

TOL = 1e-9               # pivot, pricing and feasibility tolerance
_MAX_PIVOTS = 200_000    # a solve that needs more is reported as a failure
_DEGENERATE_STREAK = 50  # degenerate Dantzig pivots before Bland's rule takes over


@dataclass(frozen=True, eq=False)
class Phase1Result:
    """Verdict of a phase-1 solve; pivots counts every pivot since the first
    solve of a resumed chain.  The final tableau, basis, row signs and b are
    kept, read-only, for a later resume."""

    feasible: bool
    x: np.ndarray | None
    y: np.ndarray | None
    objective: float
    pivots: int
    tableau: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    sign: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    @property
    def columns(self) -> int:
        """Number of columns of A the solve covered."""
        return self.tableau.shape[1] - self.tableau.shape[0]


def _start_tableau(a: np.ndarray, b: np.ndarray):
    """Tableau, basis and row signs of the all-artificial starting basis."""
    m, num = a.shape
    sign = np.where(b < 0.0, -1.0, 1.0)
    a *= sign[:, None]
    rhs = sign * b
    t = np.zeros((m + 1, num + m + 1))
    t[:m, :num] = a
    t[:m, num:num + m] = np.eye(m)
    t[:m, -1] = rhs
    t[m, :num] = -a.sum(axis=0)   # reduced costs under the artificial basis
    t[m, -1] = -rhs.sum()         # z-row stores the negated objective
    return t, np.arange(num, num + m), sign


def _resumed_tableau(a: np.ndarray, start: Phase1Result):
    """The start's final tableau with A's columns past the start's priced in."""
    m, num = a.shape
    old = start.columns
    if old > num:
        raise ValueError(f"start covers {old} columns, A has only {num}")
    t0, sign = start.tableau, start.sign
    art = t0[:, old:old + m]      # B^-1 above 1 - pi, pi the phase-1 duals
    new = sign[:, None] * a[:, old:]
    t = np.empty((m + 1, num + m + 1))
    t[:, :old] = t0[:, :old]
    t[:, num:] = t0[:, old:]
    t[:m, old:num] = art[:m] @ new
    t[m, old:num] = (art[m] - 1.0) @ new
    basis = np.where(start.basis >= old, start.basis + (num - old), start.basis)
    return t, basis, sign


def phase1_simplex(a_mat: np.ndarray, b_vec: np.ndarray,
                   start: Phase1Result | None = None) -> Phase1Result:
    """Find x >= 0 with A x = b, or a Farkas certificate that none exists.

    start, an earlier result for the same b whose columns are the leading
    columns of A, resumes that solve instead of starting from the artificial
    basis."""
    a = np.array(a_mat, dtype=float)
    b = np.array(b_vec, dtype=float)
    m, num = a.shape
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")
    if start is None:
        t, basis, sign = _start_tableau(a, b)
        pivots = 0
    else:
        if not np.array_equal(start.b, b):
            raise ValueError("start was solved for another b")
        t, basis, sign = _resumed_tableau(a, start)
        pivots = start.pivots

    costs, rhs = t[m, :num], t[:m, -1]
    ratios = np.empty(m)
    streak = 0
    while num:   # with no columns there is nothing to price
        # Dantzig's most negative cost, or Bland's first negative one
        j = int(costs.argmin() if streak < _DEGENERATE_STREAK else (costs < -TOL).argmax())
        if costs[j] >= -TOL:
            break
        if pivots >= _MAX_PIVOTS:
            raise NumericalFailure(f"simplex exceeded {_MAX_PIVOTS} pivots")
        col = t[:m, j]
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=col > TOL)
        i = int(ratios.argmin())
        low = ratios[i]
        if low == np.inf:
            raise NumericalFailure("phase-1 column unbounded; tableau inconsistent")
        tied = ratios <= low + 1e-12
        if np.count_nonzero(tied) > 1:
            rows = tied.nonzero()[0]
            i = int(rows[basis[rows].argmin()])
        streak = streak + 1 if low <= 1e-12 else 0
        row = t[i] / t[i, j]
        t -= t[:, j, None] * row
        t[i] = row
        basis[i] = j
        pivots += 1

    state = (t, basis, sign, b)
    for arr in state:
        arr.setflags(write=False)
    objective = -t[m, -1]
    if objective <= TOL:
        full = np.zeros(num + m)
        full[basis] = t[:m, -1]
        return Phase1Result(True, full[:num], None, objective, pivots, *state)
    y = sign * (1.0 - t[m, num:num + m])
    return Phase1Result(False, None, y, objective, pivots, *state)
