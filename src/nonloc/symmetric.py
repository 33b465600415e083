"""Closed-form measurement settings for symmetric states.

For a symmetric state with Dicke coefficients h and identical settings
x on parties 2..n, the test conditions collapse onto the two-qubit vector
(c0, c1, c1, c2) with

    c_i(x) = sum_k h_{k+i} C(n-2, k) x^k,   i = 0, 1, 2,

and the remaining parameters follow by three division formulas.  The x values
to avoid are the roots of c1^2 - c0*c2 (degenerate reduced state) and, along a
ray of fixed phase, the roots of the success-probability polynomial F.

Every solution, `solve_auto`'s rotated-back settings included, is verified on
the same reduction, in O(n) and without a 2^n table: parties 2..n share one
ray pair, so the 2n cells take the four values of the test on <a^(n-2)|psi>.
All of it works on one 3 x (n-1) table of c_i coefficients, without numpy.polynomial.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateX, NotEntangled, NumericalFailure, SingularDenominator
from .measure import MeasurementSettings, amplitude_table
from .hardy import condition_cells
from .qstate import SymmetricState, _overlap, genuine_entanglement_check, to_magic_basis

_EXCLUSION_MARGIN = 1e-6   # distance kept from each excluded root and modulus
_MODULUS_MARGIN = 0.05     # distance solve_auto keeps from each excluded modulus
_TRIM_TOL = 1e-12          # trailing coefficients below this are dropped
_ENTANGLEMENT_EPS = 1e-8   # Schmidt threshold of solve_auto's entanglement check
_ZERO_RATIO = 1e-12        # largest zero cell a verified solution keeps, relative to p


@dataclass(frozen=True, eq=False)
class SymmetricSolution:
    """Settings parameters solving the test for one symmetric state."""

    x: complex
    y1: complex
    y: complex
    x1: complex
    settings: MeasurementSettings
    p_success: float
    excluded_x: tuple[float, ...]


def _c_table(s: SymmetricState) -> np.ndarray:
    """The c table: row i holds c_i's ascending coefficients h_{k+i} C(n-2, k)."""
    m = s.n - 1
    return np.stack([s.h[i:i + m] for i in range(3)]) * [math.comb(m - 1, k) for k in range(m)]


def _horner(c: np.ndarray, x):
    """Rows of c (ascending along the last axis) at x, in numpy's polyval order."""
    c = c.T[(...,) + (None,) * np.ndim(x)]
    out = c[-1] + x * 0
    for a in c[-2::-1]:
        out *= x
        out += a
    return out


def _trim(coeffs: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.abs(coeffs) >= _TRIM_TOL)[0]
    if nz.size == 0:
        return np.zeros(0, dtype=coeffs.dtype)
    return coeffs[: nz[-1] + 1]


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the companion matrix, laid out as NumPy 2's polycompanion."""
    d = coeffs.size - 1
    mat = np.zeros((d, d), dtype=coeffs.dtype)
    mat.reshape(-1)[d::d + 1] = 1
    mat[:, -1] -= coeffs[:-1] / coeffs[-1]
    return np.sort(np.linalg.eigvals(mat))


def _polish(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Companion-matrix roots with up to two Newton correction steps each, and
    p at them from the last kept step; a step is kept only where it strictly
    lowers |p|, so a root the companion matrix already has to rounding (a
    double root, say) stays put."""
    roots = _companion_roots(coeffs)
    p_dp = np.stack([coeffs, np.append(np.arange(1, coeffs.size) * coeffs[1:], 0)])
    vals = _horner(p_dp, roots)
    for _ in range(2):
        safe = np.abs(vals[1]) > 1e-300
        moved = np.where(safe, roots - vals[0] / np.where(safe, vals[1], 1.0), roots)
        moved_vals = _horner(p_dp, moved)
        keep = np.abs(moved_vals[0]) < np.abs(vals[0])
        if not keep.any():  # a second pass from the same roots would repeat this one
            break
        roots, vals = np.where(keep, moved, roots), np.where(keep, moved_vals, vals)
    return roots, vals[0]


def _degeneracy_coeffs(c: np.ndarray) -> np.ndarray:
    """Ascending coefficients of c1^2 - c0*c2 for the c table c."""
    return np.convolve(c[1], c[1]) - np.convolve(c[0], c[2])


def _degeneracy_roots(c: np.ndarray) -> tuple[complex, ...]:
    """Roots of c1^2 - c0*c2 for the c table c, where the reduced two-qubit
    state degenerates, in ascending modulus.  Raises NotEntangled when the
    polynomial vanishes identically (a symmetric product state), and
    NumericalFailure for a root whose backward error |p(r)| exceeds
    1e-12 sum_k |p_k| |r|^k."""
    p = _trim(_degeneracy_coeffs(c))
    if p.size == 0:
        raise NotEntangled("state is a symmetric product state")
    if p.size == 1:
        return ()
    roots, vals = _polish(p)
    bad = np.flatnonzero(np.abs(vals) > 1e-12 * _horner(np.abs(p), np.abs(roots)))
    if bad.size:
        raise NumericalFailure(f"degeneracy root {roots[bad[0]]} fails the backward-error check")
    order = np.argsort(np.abs(roots), kind="stable")
    return tuple(complex(r) for r in roots[order])


def _f_coeffs(c: np.ndarray, w: float) -> np.ndarray:
    """Coefficients in t of F(t e^{iw}, t e^{-iw}) where F is the
    success-probability numerator polynomial

        F = c1 c2* + c0 c1* + (|c2|^2 - |c0|^2) x - (c1* c2 + c0* c1) x^2.
    """
    e = cmath.exp(1j * w)
    k = np.arange(c.shape[1])
    fwd, rev = c * e ** k, np.conj(c) * np.conj(e) ** k
    f = np.zeros(2 * k.size + 1, dtype=complex)
    f[:-2] = np.convolve(fwd[1], rev[2]) + np.convolve(fwd[0], rev[1])
    f[1:-1] += e * (np.convolve(fwd[2], rev[2]) - np.convolve(fwd[0], rev[0]))
    f[2:] -= e ** 2 * (np.convolve(rev[1], fwd[2]) + np.convolve(rev[0], fwd[1]))
    return f


def _f_roots(c: np.ndarray, w: float) -> tuple[float, ...]:
    """Ascending nonnegative t at which F(t e^{iw}) = 0 for the c table c: one
    companion solve on F's complex coefficients, each near-real root t kept
    where |F(t)| <= 1e-8 sum_k |f_k| max(t, 1)^k, and a split multiple root
    listed once.  Raises DegenerateX when F vanishes identically along the
    phase-w ray."""
    f = _f_coeffs(c, w)
    trimmed = _trim(f)
    if trimmed.size == 0:
        raise DegenerateX(f"success probability vanishes identically along phase {w}")
    if trimmed.size == 1:
        return ()
    r = _polish(trimmed)[0]
    t = np.maximum(r.real[(np.abs(r.imag) <= 1e-8 * (1.0 + np.abs(r.real)))
                          & (r.real >= -1e-10)], 0.0)
    scale = np.abs(f) @ np.maximum(t, 1.0) ** np.arange(f.size)[:, None]
    return _merged_moduli(t[np.abs(_horner(f, t)) <= 1e-8 * scale].tolist(), 1e-8)


def phase_pick(s: SymmetricState) -> float:
    """A phase w for the setting ray x = t e^{iw} such that F does not vanish
    identically: h0 h2* e^{-2iw} is made purely imaginary; for h2 = 0 the
    convention w = pi/2 is returned."""
    h0, h2 = s.h[0], s.h[2]
    if abs(h2) < 1e-12:
        return math.pi / 2
    w = 0.5 * (cmath.phase(h0 * np.conj(h2)) + math.pi / 2)
    return w % (2 * math.pi)


def _safe_div(num: complex, den: complex, what: str) -> complex:
    if abs(den) < 1e-12:
        raise SingularDenominator(f"denominator of {what} is {abs(den):.3e}")
    return num / den


def _verified_p_success(c: np.ndarray, settings: MeasurementSettings,
                        delta_pos: float, what: str) -> float:
    """The success probability of settings whose parties 2..n share one ray
    pair (a, b), read off the c table c as psi12 = <a^(n-2)|psi> = (c0, c1, c1,
    c2); raises NumericalFailure unless every zero cell is below
    _ZERO_RATIO max(p_success, delta_pos), then NotEntangled unless the success
    probability is above delta_pos.  c_i = sum_k c[i, k] a0*^(n-2-k) a1*^k is
    homogeneous, so a pole ray needs no division."""
    a = settings.pairs[1][0]
    c0, c1, c2 = (_overlap(row, a.c0.conjugate(), a.c1.conjugate()) for row in c)
    rest_norm = (abs(a.c0) ** 2 + abs(a.c1) ** 2) ** (c.shape[1] - 1)
    bras = MeasurementSettings(2, settings.pairs[:2]).outcome_bras()
    cells = amplitude_table(np.array([c0, c1, c1, c2]), bras)[condition_cells(2)]
    probs = np.abs(cells) ** 2 / rest_norm
    p_success, zero_max = float(probs[0]), float(probs[1:].max())
    if not zero_max < _ZERO_RATIO * max(p_success, delta_pos):
        raise NumericalFailure(f"{what} fail verification "
                               f"(p = {p_success:.3e}, max residual {zero_max:.3e})")
    if not p_success > delta_pos:
        raise NotEntangled(f"{what} reach success probability {p_success:.3e}, "
                           f"not above the floor {delta_pos:g}")
    return p_success


def _assemble(c: np.ndarray, x: complex) -> dict:
    """SymmetricSolution's x, y1, y, x1 and settings at x, given the c table:
    the three divisions."""
    # row by row: a stacked pass uses array products, which move y in the last bit
    c0, c1, c2 = (complex(_horner(row, x)) for row in c)
    y1 = _safe_div(-(c0 + x * c1), c1 + x * c2, "y1")
    y = _safe_div(np.conj(c2) - y1 * np.conj(c1), np.conj(c1) - y1 * np.conj(c0), "y")
    x1 = _safe_div(-(c0 + y * c1), c1 + y * c2, "x1")
    return {"x": complex(x), "y1": complex(y1), "y": complex(y), "x1": complex(x1),
            "settings": MeasurementSettings.from_shared_params(c.shape[1] + 1, x1, y1, x, y)}


def _solve_at(c: np.ndarray, x: complex, deg, fr) -> SymmetricSolution:
    """solve_settings at x, given the c table and the roots along x's phase:
    the exclusion checks, the three divisions and the certificate."""
    if c.shape[1] < 2:
        raise ValueError("symmetric solver requires at least 3 parties")
    for r in deg:
        if abs(x - r) < _EXCLUSION_MARGIN:
            raise DegenerateX(f"x = {x} is within {_EXCLUSION_MARGIN} of degeneracy root {r}")
    for t in fr:
        if abs(abs(x) - t) < _EXCLUSION_MARGIN:
            raise DegenerateX(
                f"|x| = {abs(x)} is within {_EXCLUSION_MARGIN} of excluded modulus {t}")
    fields = _assemble(c, x)
    return SymmetricSolution(
        p_success=_verified_p_success(c, fields["settings"], 0.0, "assembled settings"),
        excluded_x=_merged_moduli([abs(r) for r in deg] + list(fr)), **fields)


def _merged_moduli(moduli, tol: float = 1e-12) -> tuple[float, ...]:
    """The moduli in ascending order, less each t within tol max(1, t) of the
    one kept before it: at the default, a conjugate pair of roots gives one
    modulus, not two an ulp apart."""
    kept: list[float] = []
    for t in sorted(moduli):
        if not kept or t - kept[-1] > tol * max(1.0, t):
            kept.append(t)
    return tuple(kept)


def solve_settings(s: SymmetricState, x: complex) -> SymmetricSolution:
    """Solve the three zero conditions for the remaining parameters at a given x.

    The assembled rays are |a_1> = |0> + x1*|1>, |b_1> = |0> + y1*|1>, and
    |a_k> = |0> + x*|1>, |b_k> = |0> + y*|1> on every other party.
    """
    c = _c_table(s)
    return _solve_at(c, x, _degeneracy_roots(c), _f_roots(c, cmath.phase(x)))


def sweep_settings(s: SymmetricState, w: float, moduli):
    """(t, solve_settings(s, t e^{iw})) for each modulus t that the settings
    exist at, with the roots along phase w and the c table computed once."""
    c = _c_table(s)
    try:
        deg, fr = _degeneracy_roots(c), _f_roots(c, w)
    except DegenerateX:
        return
    for t in moduli:
        try:
            sol = _solve_at(c, t * cmath.exp(1j * w), deg, fr)
        except (DegenerateX, SingularDenominator):
            continue
        yield t, sol


def ghz_closed_form(n: int, theta: float, x: complex) -> float:
    """Success probability of the solved settings on a GHZ(theta) state."""
    if n < 3:
        raise ValueError("GHZ closed form requires at least 3 parties")
    if x == 0:
        raise ValueError("x must be nonzero")
    tan = math.tan(theta)
    if abs(tan) < 1e-300:
        raise ValueError("theta gives a product state")
    ax = abs(x) ** (2 * n - 4)
    x1 = 1.0 / (-(tan ** 3) * ax * x ** (n - 1))
    num = math.cos(theta) ** 2 * (1.0 - 1.0 / (tan * tan * ax)) ** 2
    den = (1.0 + abs(x1) ** 2) * (1.0 + abs(x) ** 2) ** (n - 1)
    return float(num / den)


def w_closed_form(n: int, x: complex) -> float:
    """Success probability of the solved settings on the n-party W state."""
    if n < 3:
        raise ValueError("W closed form requires at least 3 parties")
    y = x * (n - 1) / (1.0 + (n - 1) * (n - 2) * abs(x) ** 2)
    x1 = -x * (n - 2) - y
    num = abs(x - y) ** 2
    den = n * (1.0 + abs(x1) ** 2) * (1.0 + abs(x) ** 2) ** (n - 1)
    return float(num / den)


def _pick_modulus(excluded) -> float:
    """First scan value (1.0, 1.1, 0.9, ...) clear of every excluded modulus,
    falling back to midpoints of the gaps between excluded values."""
    candidates = [1.0]
    for step in range(1, 20):
        candidates.extend([1.0 + 0.1 * step, 1.0 - 0.1 * step])
    pts = sorted(t for t in excluded if t > 0)
    if pts:
        candidates.append(pts[-1] + 1.0)
        candidates.extend((lo + hi) / 2 for lo, hi in zip(pts, pts[1:]))
    for t in candidates:
        if t >= 0.1 and all(abs(t - e) >= _MODULUS_MARGIN for e in excluded):
            return t
    raise NumericalFailure("no admissible setting modulus found")


def solve_auto(s: SymmetricState) -> SymmetricSolution:
    """End-to-end solver: rotate to the magic basis, pick an admissible phase
    and modulus, solve, rotate the settings back, and verify the conditions on
    the original state."""
    if s.n < 3:
        raise ValueError("symmetric solver requires at least 3 parties")
    if not genuine_entanglement_check(s, _ENTANGLEMENT_EPS):
        raise NotEntangled("state is within eps of a product across some cut")
    sm, u = to_magic_basis(s)
    w = phase_pick(sm)
    c = _c_table(sm)
    # no exclusion checks: _pick_modulus keeps |x| _MODULUS_MARGIN from each
    # excluded modulus, and |x - r| >= ||x| - |r|| for each degeneracy root r
    excluded = _merged_moduli([abs(r) for r in _degeneracy_roots(c)] + list(_f_roots(c, w)))
    fields = _assemble(c, _pick_modulus(excluded) * cmath.exp(1j * w))
    fields["settings"] = fields["settings"].transformed(u.conj().T)
    return SymmetricSolution(p_success=_verified_p_success(
        _c_table(s), fields["settings"], 1e-10, "rotated-back settings"),
        excluded_x=excluded, **fields)
