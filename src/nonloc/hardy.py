"""The 2n-condition inequality-free test of genuine n-way nonlocality,
its two Bell-type inequalities, and the subspace construction that yields
a passing state for given measurement rays.

Conditions, for a pivot party k' (default 1):
    P(0..0 | a..a) > 0
    P(0..0 | b_k a_rest) = 0           for every party k
    P(1_k' 1_k 0_rest | b_k' b_k a_rest) = 0   for every k != k'
A distribution satisfying the zero conditions with positive success
probability cannot be reproduced by any bilocal non-signaling model.

`condition_cells` is the one definition of these cells of the table p[s][r];
the conditions, both witnesses, the subspace, the numerical search and the
symmetric solver all read them from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSettings, DimensionMismatch, NumericalFailure
from .measure import JointDistribution, MeasurementSettings, born_distribution
from .qstate import DensityMatrix, PureState, _frozen

_MIXED_TOL = 1e-8  # largest entry of rho on the constraint span that mixed_state_check accepts


@dataclass(frozen=True)
class HardyReport:
    """Outcome of evaluating the test conditions on one distribution."""

    pivot: int
    p_success: float
    zero_residuals: tuple[float, ...]
    passed: bool


@dataclass(frozen=True, eq=False)
class HardySubspace:
    """Span of the 2n product vectors defined by the measurement rays, together
    with the unique direction phi orthogonal to the 2n-1 constraint vectors."""

    settings: MeasurementSettings
    basis: np.ndarray
    phi: PureState


@functools.lru_cache(maxsize=None)
def condition_cells(n: int, pivot: int = 1,
                    standard: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The cells of the test in p[s][r], as two read-only index arrays (s, r):
    cell i is p[s[i]][r[i]], so p[condition_cells(n)] holds the 2n values.

    Cell 0 is the success cell (a..a, 0..0); cells 1..n are the first-group
    zero cells (b_k a_rest, 0..0) for k = 1..n; the rest are the pair cells
    (b_k' b_k a_rest, 1_k' 1_k 0_rest) for k != k' in ascending k, or with
    standard=True the single all-ones cell (b..b, 1..1), the form that GHZ
    states can pass.
    """
    if not 1 <= pivot <= n:
        raise ValueError(f"pivot must be in 1..{n}, got {pivot}")
    bit = [1 << (n - k) for k in range(1, n + 1)]
    cells = [(0, 0)] + [(m, 0) for m in bit]
    if standard:
        cells.append((2 ** n - 1, 2 ** n - 1))
    else:
        cells += [(bit[pivot - 1] | m, bit[pivot - 1] | m)
                  for k, m in enumerate(bit, 1) if k != pivot]
    return tuple(_frozen(a) for a in np.array(cells).T)


def hardy_conditions(d: JointDistribution, pivot: int = 1, eps_zero: float = 1e-9,
                     delta_pos: float = 1e-6, standard: bool = False) -> HardyReport:
    """Evaluate the test conditions on a joint distribution; zero_residuals
    follow the order of `condition_cells`.  eps_zero must be positive and
    delta_pos nonnegative, both finite, or ValueError is raised."""
    # a negative success threshold would pass tables whose success cell is
    # zero, and no residual is below a zero eps_zero
    if not (math.isfinite(eps_zero) and eps_zero > 0.0):
        raise ValueError(f"eps_zero must be finite and positive, got {eps_zero}")
    if not (math.isfinite(delta_pos) and delta_pos >= 0.0):
        raise ValueError(f"delta_pos must be finite and nonnegative, got {delta_pos}")
    values = d.p[condition_cells(d.n, pivot, standard)]
    p_success = float(values[0])
    residuals = tuple(np.abs(values[1:]).tolist())
    passed = p_success > delta_pos and max(residuals) < eps_zero
    return HardyReport(pivot, p_success, residuals, passed)


def inequality1(d: JointDistribution, pivot: int = 1) -> float:
    """Pivot-form Bell functional; nonpositive on every bilocal NS model."""
    values = d.p[condition_cells(d.n, pivot)]
    return float(values[0] - values[1:].sum())


def inequality2(d: JointDistribution) -> float:
    """Symmetrized Bell functional averaging the pairwise terms over every
    ordered pivot pair; also nonpositive on every bilocal NS model."""
    n = d.n
    values = d.p[condition_cells(n)]
    pair_sum = sum(d.p[condition_cells(n, kp)][n + 1:].sum()
                   for kp in range(1, n + 1))
    return float(values[0] - values[1:n + 1].sum() - pair_sum / (n - 1))


def _basis_columns(settings: MeasurementSettings) -> np.ndarray:
    """The 2n normalized product kets of the test cells of pivot 1, in the
    order of `condition_cells`; party k's factor of cell (s, r) is its
    conjugated outcome bra in row 2 s_k + r_k."""
    n = settings.n
    shift = np.arange(n - 1, -1, -1)[:, None]
    s, r = (cell >> shift & 1 for cell in condition_cells(n))
    cols, *rest = np.conj(settings.outcome_bras())[np.arange(n)[:, None], 2 * s + r]
    for ket in rest:
        cols = (cols[:, :, None] * ket[:, None, :]).reshape(2 * n, -1)
    return cols.T


def construct_hardy_state(settings: MeasurementSettings) -> HardySubspace:
    """Find the unique state in the settings' subspace that satisfies all
    zero conditions with pivot 1 and keeps the success probability nonzero.

    With [constraints | success] = QR, phi is the last column of Q: the success
    ket's part off the constraint span, with |<success|phi>| = |R[-1, -1]| no
    less than R's smallest singular value.  R has the singular values of the
    product kets, and R_C^H R[:-1] those of the constraint overlap C^H B, so
    both degeneracy tests run on R."""
    basis = _basis_columns(settings)
    q, r = np.linalg.qr(np.roll(basis, -1, axis=1))
    sv = np.linalg.svd(r, compute_uv=False)
    if sv[-1] <= 1e-10:
        raise DegenerateSettings(
            f"product vectors nearly dependent (smallest singular value {sv[-1]:.3e})")
    if (np.linalg.svd(r[:-1, :-1].conj().T @ r[:-1], compute_uv=False) < 1e-10).any():
        raise DegenerateSettings(
            "constraint overlap matrix is rank deficient; orthogonal direction not unique")
    phi = PureState(settings.n, q[:, -1])
    report = hardy_conditions(born_distribution(phi, settings), pivot=1,
                              eps_zero=1e-9, delta_pos=0.0)
    if not report.passed:
        raise NumericalFailure(
            f"constructed state fails its own conditions "
            f"(max residual {max(report.zero_residuals):.3e})")
    return HardySubspace(settings, _frozen(basis), phi)


def mixed_state_check(rho: DensityMatrix, sub: HardySubspace) -> bool:
    """Whether the projection of rho into the settings' subspace is proportional
    to |phi><phi|, the necessary and sufficient condition for a mixed state to
    satisfy every zero condition of the test; for a positive rho that is
    Q_C^H rho Q_C = 0 on the constraint span Q_C."""
    if rho.n != sub.settings.n:
        raise DimensionMismatch(f"state has {rho.n} parties, subspace {sub.settings.n}")
    q, _ = np.linalg.qr(sub.basis[:, 1:])
    return bool(np.abs(q.conj().T @ rho.entries @ q).max() <= _MIXED_TOL)
