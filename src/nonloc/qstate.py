"""n-qubit pure and mixed states, the symmetric (Dicke) parameterization,
and entanglement structure across bipartitions.

Bit convention used by every module in this package: party 1 is the most
significant bit of a basis index, so index(r_1..r_n) = sum_k r_k 2^(n-k).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OptimizerDidNotConverge

MAX_PARTIES = 8
_BLOCH_GRID = 64     # closest_product_state ranks the cells of this square grid
_REFINE_STARTS = 5   # and runs Newton's method from this many leading cells


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains NaN or infinite values")


def _check_n(n: int) -> None:
    if not 2 <= n <= MAX_PARTIES:
        raise ValueError(f"party count must be between 2 and {MAX_PARTIES}, got {n}")


@dataclass(frozen=True, eq=False)
class PureState:
    """Dense amplitude table of an n-qubit pure state, normalized on construction."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != 2 ** self.n:
            raise ValueError(f"expected {2 ** self.n} amplitudes, got {amp.size}")
        _check_finite(amp, "state vector")
        norm = np.linalg.norm(amp)
        if norm < 1e-12:
            raise ValueError("state vector is numerically zero")
        object.__setattr__(self, "amplitudes", _frozen(amp / norm))

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party, party 1 first."""
        return self.amplitudes.reshape((2,) * self.n)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """n-qubit density operator as a dense 2^n x 2^n matrix."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        dim = 2 ** self.n
        rho = np.asarray(self.entries, dtype=complex)
        if rho.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)}, got {rho.shape}")
        _check_finite(rho, "density matrix")
        if np.abs(rho - rho.conj().T).max() > 1e-12:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
            raise ValueError("density matrix trace is not 1")
        if np.linalg.eigvalsh(rho).min() < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "entries", _frozen(rho))

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityMatrix":
        v = psi.amplitudes
        return cls(psi.n, np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class SymmetricState:
    """Permutation-symmetric n-qubit state given by its n+1 Dicke coefficients.

    h[k] is the common amplitude of every basis state with exactly k ones,
    so the normalization is sum_k C(n,k) |h_k|^2 = 1 (enforced here).
    """

    n: int
    h: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        h = np.asarray(self.h, dtype=complex).reshape(-1)
        if h.size != self.n + 1:
            raise ValueError(f"expected {self.n + 1} Dicke coefficients, got {h.size}")
        _check_finite(h, "Dicke coefficients")
        weights = np.array([math.comb(self.n, k) for k in range(self.n + 1)])
        norm = math.sqrt(float(weights @ (np.abs(h) ** 2)))
        if norm < 1e-12:
            raise ValueError("symmetric state vector is numerically zero")
        object.__setattr__(self, "h", _frozen(h / norm))

    @classmethod
    def ghz(cls, n: int, theta: float) -> "SymmetricState":
        """cos(theta)|0..0> + sin(theta)|1..1>."""
        _check_n(n)
        h = np.zeros(n + 1, dtype=complex)
        h[0] = math.cos(theta)
        h[n] = math.sin(theta)
        return cls(n, h)

    @classmethod
    def w(cls, n: int) -> "SymmetricState":
        """Equal superposition of the n single-excitation basis states."""
        _check_n(n)
        h = np.zeros(n + 1, dtype=complex)
        h[1] = 1.0 / math.sqrt(n)
        return cls(n, h)


def dicke_expand(s: SymmetricState) -> PureState:
    """Full 2^n amplitude table of a symmetric state."""
    amps = np.array([s.h[b.bit_count()] for b in range(2 ** s.n)], dtype=complex)
    return PureState(s.n, amps)


@functools.cache
def _bloch_grid(n: int):
    """Read-only t, phi of the start cells (t_i, phi_j) and cos_pow, phases with
    <beta^n|psi> = (cos_pow * coeffs) @ phases there: cos_pow[i, k] =
    cos(t_i/2)^(n-k) sin(t_i/2)^k, phases[k, j] = e^{-ik phi_j}.  Columns j and
    -j are exact conjugates, so mirror cells of a real state tie exactly."""
    t = np.linspace(0.0, math.pi, _BLOCH_GRID)
    phi = np.linspace(0.0, 2 * math.pi, _BLOCH_GRID, endpoint=False)
    k = np.arange(n + 1)
    cos_pow = np.cos(t / 2)[:, None] ** (n - k) * np.sin(t / 2)[:, None] ** k
    phases = np.exp(-1j * np.outer(k, phi))
    phases[:, :_BLOCH_GRID // 2:-1] = phases[:, 1:_BLOCH_GRID // 2].conj()
    return tuple(map(_frozen, (t, phi, cos_pow, phases)))


def _overlap(coeffs: list[complex], c, sig):
    """<beta^n|psi> = sum_k coeffs[k] c^(n-k) sig^k, coeffs[k] = h_k C(n, k), by
    Horner's rule in c = conj(beta_0); c, sig = conj(beta_1) may be arrays."""
    out, sig_k = coeffs[0], 1.0
    for a in coeffs[1:]:
        sig_k = sig_k * sig
        out = out * c + a * sig_k
    return out


def _newton_step(d_w: complex, d_wbar: complex, g: complex) -> complex:
    """The step dx + i dy that np.linalg.lstsq(J, -(Re g, Im g), rcond=1e-10)
    gives for the real 2 x 2 matrix J of delta -> d_w delta + d_wbar conj(delta),
    whose singular values are |d_w| + |d_wbar| and ||d_w| - |d_wbar||.  While
    sigma_2 > 1e-10 sigma_1, elimination on the larger pivot of J's first
    column, one division per component on a diagonal J as in the SVD, so a step
    onto a pole lands on it exactly; else the minimum-norm -J^T g / ||J||_F^2.
    """
    a, b = abs(d_w), abs(d_wbar)
    if abs(a - b) <= 1e-10 * (a + b):
        fro = 2 * (a * a + b * b)
        return -(d_w.conjugate() * g + d_wbar * g.conjugate()) / fro if fro else 0j
    rows = [((d_w + d_wbar).real, (d_wbar - d_w).imag, -g.real),
            ((d_w + d_wbar).imag, (d_w - d_wbar).real, -g.imag)]
    if abs(rows[1][0]) > abs(rows[0][0]):  # on a tie the first row stays
        rows.reverse()
    (j00, j01, r0), (j10, j11, r1) = rows
    m = j10 / j00
    dy = (r1 - m * r0) / (j11 - m * j01)
    return complex((r0 - j01 * dy) / j00, dy)


def _majorana_newton(coeffs: list[complex], w: complex):
    """Newton's method from w on the stationarity condition of
    |P(w)|^2 / (1 + |w|^2)^n, P(w) = sum_k coeffs[k] w^k, beta ~ (1, conj(w)):

        G(w) = P'(w) (1 + |w|^2) - n conj(w) P(w) = 0.

    The real 2 x 2 Jacobian comes from dG/dw = P'' (1 + |w|^2) + (1 - n) conj(w) P'
    and dG/dconj(w) = w P' - n P; each step solves it by least squares, so on a
    ring of maxima (rank-1 Jacobian) it goes to the nearest ring point.
    Returns (w, |<beta^n|psi>|, stationarity residual |G| / (n (1 + |w|^2)^(n/2))).
    """
    n = len(coeffs) - 1
    step = math.inf
    for _ in range(100):
        p = dp = ddp = 0j
        for a in reversed(coeffs):
            ddp = ddp * w + dp
            dp = dp * w + p
            p = p * w + a
        r2 = 1.0 + abs(w) ** 2
        g = dp * r2 - n * w.conjugate() * p
        if g == 0 or step <= 1e-13 * (1.0 + abs(w)) or not math.isfinite(r2):
            break
        delta = _newton_step(2 * ddp * r2 + (1 - n) * w.conjugate() * dp, w * dp - n * p, g)
        w += delta
        step = abs(delta)
    return w, abs(p) / r2 ** (n / 2), abs(g) / (n * r2 ** (n / 2))


def closest_product_state(s: SymmetricState):
    """Best product approximation (beta^n) of a symmetric state.

    Returns (beta, overlap) with beta a unit single-qubit vector and
    <beta^n|psi> = overlap real positive.  A Bloch-angle grid ranks the
    starts; from each leading cell, Newton's method solves the stationarity of
    the Majorana polynomial in w = conj(beta_1)/beta_0, or in c/sigma with h
    reversed for cells nearer the south pole.  The largest overlap wins, the
    earlier start on ties.  The optimum of a symmetric state is a symmetric
    product, so only those are scanned.

    Phase convention: beta_0 is made real and nonnegative (beta = (0, 1) when
    |beta_0| is at rounding level), then beta is multiplied by e^{i alpha},
    alpha = angle(<beta^n|psi>) / n on the principal branch.  On a ring of
    maxima (W and Dicke states) the first start is the phi = 0 cell and the
    step is radial, so there beta comes out real.
    """
    n = s.n
    coeffs = [complex(s.h[k]) * math.comb(n, k) for k in range(n + 1)]
    t, phi, cos_pow, phases = _bloch_grid(n)
    # rounded so exact ties (balanced states) go to the earliest cell, not to
    # float noise; a stable sort of the cells up to the k-th value leads as a full one
    vals = -np.round(np.abs((cos_pow * coeffs) @ phases), 12).ravel()
    k = min(_REFINE_STARTS, vals.size)
    cells = np.flatnonzero(vals <= np.partition(vals, k - 1)[k - 1])
    order = cells[np.argsort(vals[cells], kind="stable")][:k]

    best_beta = None
    best_val = -1.0
    best_res = np.inf
    for flat in order:
        i, j = divmod(int(flat), _BLOCH_GRID)
        c, sig = math.cos(t[i] / 2), math.sin(t[i] / 2) * cmath.exp(-1j * phi[j])
        if abs(sig) > c:
            v, val, res = _majorana_newton(coeffs[::-1], c / sig)
            beta = np.array([v.conjugate(), 1.0])
        else:
            w, val, res = _majorana_newton(coeffs, sig / c)
            beta = np.array([1.0, w.conjugate()])
        if val > best_val + 1e-12:
            best_beta, best_val, best_res = beta, val, res
    if not best_res <= 1e-8:
        raise OptimizerDidNotConverge(
            f"closest product search stalled (stationarity residual {best_res:.3e})")
    beta = best_beta / np.linalg.norm(best_beta)
    if abs(beta[0]) <= np.finfo(float).eps:
        # Newton stopped a rounding error short of the south pole, where
        # "beta_0 real" would leave the phase to that error: take the pole
        beta = np.array([0.0, 1.0], dtype=complex)
    beta = beta * np.exp(-1j * np.angle(beta[0]))
    f = _overlap(coeffs, *np.conj(beta))
    return beta * np.exp(1j * np.angle(f) / n), float(abs(f))


def to_magic_basis(s: SymmetricState):
    """Rotate a symmetric state so its closest product state becomes |0..0>.

    Returns (rotated SymmetricState, single-qubit unitary u) with the rotated
    coefficients satisfying h_0 = overlap > 0 and |h_1| <= 1e-8 (stationarity).
    The same u acts on every party: h'_k C(n,k) is the coefficient of
    s^(n-k) t^k in sum_j h_j C(n,j) (u00 s + u10 t)^(n-j) (u01 s + u11 t)^j.
    """
    beta, _ = closest_product_state(s)
    u = np.array([[np.conj(beta[0]), np.conj(beta[1])],
                  [-beta[1], beta[0]]])
    n = s.n
    pow0, pow1 = [np.ones(1)], [np.ones(1)]
    for _ in range(n):
        pow0.append(np.convolve(pow0[-1], u[:, 0]))
        pow1.append(np.convolve(pow1[-1], u[:, 1]))
    binom = np.array([math.comb(n, k) for k in range(n + 1)])
    h = sum(s.h[j] * binom[j] * np.convolve(pow0[n - j], pow1[j]) for j in range(n + 1)) / binom
    if abs(h[1]) > 1e-8:
        raise OptimizerDidNotConverge(f"rotated h_1 = {abs(h[1]):.3e} exceeds 1e-8")
    return SymmetricState(n, h), u


def haar_random_pure(n: int, seed: int) -> PureState:
    """Haar-distributed pure state from a seeded complex Gaussian vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return PureState(n, v)


@functools.cache
def _dicke_cuts(n: int):
    """For k = 1..n//2, the Hankel index i + j and the read-only weights
    sqrt(C(k, i) C(n - k, j)) of the cut {1..k} | rest in its Dicke bases."""
    return tuple((_frozen(np.add.outer(np.arange(k + 1), np.arange(n - k + 1))),
                  _frozen(np.array([[math.sqrt(math.comb(k, i) * math.comb(n - k, j))
                                     for j in range(n - k + 1)] for i in range(k + 1)])))
                 for k in range(1, n // 2 + 1))


def genuine_entanglement_check(psi: PureState | SymmetricState, eps: float) -> bool:
    """True when the state is entangled across every bipartition.

    The criterion is that the second-largest Schmidt coefficient across each
    cut exceeds eps.  A symmetric state gives the same Schmidt coefficients
    on every cut with k parties on one side, so only the cuts {1..k} | rest
    for k = 1..n//2 are checked, each in the Dicke bases of its two sides:
    there the coefficient matrix is h[i + j] sqrt(C(k, i) C(n - k, j)).  A
    dense state lists each cut once by its smaller side, at equal sizes the
    side that holds party 1.
    """
    if isinstance(psi, SymmetricState):
        mats = [psi.h[index] * weight for index, weight in _dicke_cuts(psi.n)]
    else:
        n, t = psi.n, psi.tensor()
        mats = [np.moveaxis(t, side, range(k)).reshape(2 ** k, -1)
                for k in range(1, n // 2 + 1) for side in itertools.combinations(range(n), k)
                if 2 * k < n or 0 in side]
    return all(np.linalg.svd(m, compute_uv=False)[1] > eps for m in mats)
