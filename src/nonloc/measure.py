"""Two-setting projective qubit measurements and Born-rule joint distributions.

A setting index s and an outcome index r both pack one bit per party, party 1
in the most significant position.  Setting bit 0 selects the a measurement,
bit 1 the b measurement; outcome bit 0 is the projector onto the setting's
ray, outcome bit 1 the projector onto its orthogonal complement.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .qstate import DensityMatrix, PureState, _check_finite, _check_n, _frozen


@dataclass(frozen=True)
class Ray:
    """A single-qubit ray c0|0> + c1|1>, kept unnormalized until used."""

    c0: complex
    c1: complex

    def __post_init__(self):
        object.__setattr__(self, "c0", complex(self.c0))
        object.__setattr__(self, "c1", complex(self.c1))
        if not (cmath.isfinite(self.c0) and cmath.isfinite(self.c1)):
            raise ValueError("ray contains NaN or infinite values")
        if abs(self.c0) ** 2 + abs(self.c1) ** 2 < 1e-24:
            raise ValueError("ray has numerically zero norm")

    @classmethod
    def from_param(cls, x: complex) -> "Ray":
        """|0> + x^* |1>; the point at infinity is Ray(0, 1)."""
        return cls(1.0, np.conj(x))

    def ket(self) -> np.ndarray:
        v = np.array([self.c0, self.c1])
        return v / np.linalg.norm(v)

    def orthogonal(self) -> "Ray":
        return Ray(-np.conj(self.c1), np.conj(self.c0))


@dataclass(frozen=True, eq=False)
class MeasurementSettings:
    """Per-party pairs (a_k, b_k) of measurement rays for n parties."""

    n: int
    pairs: tuple[tuple[Ray, Ray], ...]

    def __post_init__(self):
        _check_n(self.n)
        if len(self.pairs) != self.n:
            raise ValueError(f"expected {self.n} ray pairs, got {len(self.pairs)}")
        object.__setattr__(self, "pairs", tuple((a, b) for a, b in self.pairs))

    @classmethod
    def from_shared_params(cls, n: int, x1: complex, y1: complex,
                           x: complex, y: complex) -> "MeasurementSettings":
        """Party 1 gets (x1, y1), every other party the common (x, y)."""
        first = (Ray.from_param(x1), Ray.from_param(y1))
        rest = (Ray.from_param(x), Ray.from_param(y))
        return cls(n, (first,) + (rest,) * (n - 1))

    def outcome_bras(self) -> list[np.ndarray]:
        """Each party's four outcome bras as one 4 x 2 array, row
        2 * setting bit + outcome bit: the conjugated unit ray (c0, c1)*, then
        the bra (-c1, c0) of the orthogonal ray."""
        v = np.array([[(ray.c0, ray.c1) for ray in pair] for pair in self.pairs])
        re, im = v.real[..., None, :], v.imag[..., None, :]  # row @ column: norm's np.dot
        v = v / np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
        orth = np.stack([-v[..., 1], v[..., 0]], axis=-1)
        return list(np.stack([v.conj(), orth], axis=2).reshape(self.n, 4, 2))

    def transformed(self, u: np.ndarray) -> "MeasurementSettings":
        """Apply the same single-qubit matrix to every ray, once per distinct pair."""
        moved = {pair: tuple(Ray(*(u @ np.array([r.c0, r.c1]))) for r in pair)
                 for pair in set(self.pairs)}
        return MeasurementSettings(self.n, tuple(moved[pair] for pair in self.pairs))


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Table p[s][r] of outcome probabilities for every setting combination.

    Entries are stored raw; tiny negative floating noise (>= -1e-12) is
    tolerated here and clamped only when a table is written out.
    """

    n: int
    p: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        dim = 2 ** self.n
        p = np.asarray(self.p, dtype=float)
        if p.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)}, got {p.shape}")
        _check_finite(p, "distribution")
        if p.min() < -1e-12:
            raise ValueError(f"negative probability {p.min():.3e}")
        rows = p.sum(axis=1)
        if np.abs(rows - 1.0).max() > 1e-10:
            raise ValueError("a setting row does not sum to 1")
        object.__setattr__(self, "p", _frozen(p))


def _contract_parties(x: np.ndarray, ops: list[np.ndarray]) -> np.ndarray:
    """Apply ops[k] (m x d) to party k + 1's axis of size d, one matrix
    product per party; the result has one axis of size m per party."""
    for op in ops:
        x = x.reshape(op.shape[1], -1).T @ op.T
    return x.reshape([op.shape[0] for op in ops])


def _table(x: np.ndarray, n: int) -> np.ndarray:
    """Reorder the last axis of x, 4^n entries with one digit pair (s_k, r_k)
    per party, party 1 first, to a 2^n x 2^n table t[s][r], with party 1 in
    the most significant bit of s and of r; leading axes are kept."""
    lead = x.shape[:-1]
    axes = [*range(len(lead)), *(len(lead) + k for r in (0, 1) for k in range(r, 2 * n, 2))]
    return x.reshape(lead + (2,) * (2 * n)).transpose(axes).reshape(lead + (2 ** n, 2 ** n))


def amplitude_table(amplitudes: np.ndarray, bras) -> np.ndarray:
    """A[s][r] = <cell ket|psi> for a raw (unnormalized) amplitude vector and
    each party's 4 x 2 stack of outcome bras, indexed (setting bit, outcome
    bit).  The Born table of a unit vector is |A|^2."""
    return _table(_contract_parties(amplitudes, bras).reshape(-1), len(bras))


def born_distribution(state, settings: MeasurementSettings) -> JointDistribution:
    """Joint distribution of all 2^n setting choices on a pure or mixed state.

    Each party's four outcome bras form one 4 x 2 array that is contracted
    into the state tensor, party by party.  For a density matrix the 4 x 4
    array of projectors |k><k| is contracted into that party's ket and bra
    axes together, which keeps only the diagonal in (setting, outcome).  No
    intermediate exceeds 4^n entries, so a table costs O(n 4^n).
    """
    n = settings.n
    if state.n != n:
        raise DimensionMismatch(f"state has {state.n} parties, settings {n}")
    bras = settings.outcome_bras()
    if isinstance(state, PureState):
        p = np.abs(amplitude_table(state.amplitudes, bras)) ** 2
    elif isinstance(state, DensityMatrix):
        rho = state.entries.reshape((2,) * (2 * n))
        rho = rho.transpose([a for k in range(n) for a in (k, n + k)])
        projectors = [np.einsum("xi,xj->xij", b, b.conj()).reshape(4, 4)
                      for b in bras]
        p = _table(_contract_parties(rho, projectors).real.reshape(-1), n)
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")
    return JointDistribution(n, p)


def ns_residual(d: JointDistribution) -> float:
    """Largest signaling violation: how much any party's setting choice moves
    the marginal seen by the others."""
    n = d.n
    t = d.p.reshape((2,) * (2 * n))
    # np.max, unlike Python's max, propagates a NaN entry
    return float(np.max([np.abs(np.diff(t.sum(axis=n + k), axis=k)).max()
                         for k in range(n)]))
