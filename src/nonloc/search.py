"""Least-squares search for measurement settings passing the test on an
arbitrary pure state, and batch experiments over Haar-random states.

The search parameterizes each party's a ray by Bloch angles and eliminates
the b rays in closed form: for fixed a rays the k-th zero condition of the
first group determines b_k uniquely as the ray orthogonal to the partial
overlap of the state with the other parties' a rays, which drops those
conditions to exactly zero.  From each random start one trust-region
least-squares fit drives the real and imaginary parts of the n-1 pair
amplitudes to zero over the 2n a-angles; a start whose success probability
does not exceed delta_pos is discarded for the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .hardy import hardy_conditions
from .measure import MeasurementSettings, Ray, _contract_parties, born_distribution
from .polytope import bilocal_ns_vertices, lp_membership
from .qstate import (MAX_PARTIES, PureState, genuine_entanglement_check,
                     haar_random_pure)

# ftol, xtol and gtol of every least-squares fit
FIT_TOL = 1e-10


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the multistart search; defaults are sized for n = 3 and 4.
    max_iters caps each start's fit at that many residual evaluations, not
    counting the finite-difference ones.  A start passes when its zero cells
    weigh less than eps_zero and its success probability exceeds delta_pos;
    these two are fixed class constants, not constructor fields."""

    eps_zero: ClassVar[float] = 1e-10
    delta_pos: ClassVar[float] = 1e-4
    multistarts: int = 32
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.multistarts < 1 or self.max_iters < 1:
            raise ValueError("multistarts and max_iters must be at least 1")


@dataclass(frozen=True)
class NoSettingsFound:
    """Negative search outcome; best_residual is the smallest zero-condition
    weight seen across all starts, best_success the success probability there."""

    best_residual: float
    best_success: float


@dataclass(frozen=True)
class ExperimentRecord:
    """One searched state: `starts` counts the starts tried, `fevals` the
    residual evaluations over all of them, finite-difference ones included."""

    index: int
    sub_seed: int
    passed: bool
    p_success: float
    max_residual: float
    starts: int
    fevals: int
    lp_checked: bool
    lp_infeasible: bool


@dataclass(frozen=True, eq=False)
class ExperimentSummary:
    n: int
    count: int
    seed: int
    passed: int
    failed: int
    records: tuple[ExperimentRecord, ...]


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on first use: it is most of `import nonloc`."""
    from scipy.optimize import least_squares as scipy_least_squares
    return scipy_least_squares(*args, **kwargs)


def _ray_from_angles(t: float, phi: float) -> np.ndarray:
    return np.array([math.cos(t / 2), math.sin(t / 2) * np.exp(1j * phi)])


def _amplitudes(psi: np.ndarray, a):
    """The test's amplitudes for unit a rays and b_k orthogonal to u_k, from one
    contraction of each party with the 3 x 2 stack [<a_k|; <0|; <1|].

    In the 3^n result T, u_k = <a_(not k)|psi> is the slice at 1..2 on party k
    and 0 on every other party; b_k orthogonal to u_k kills the k-th
    first-group cell exactly.  The outcome-1 bra of b_k is -conj(u_k), so the
    pair cell of parties (1, k) is conj(u_1) M_k conj(u_k), M_k the slice at
    1..2 on parties 1 and k and 0 elsewhere.  Returns the normalized u_k and
    the 2n amplitudes in `condition_cells` order, or (None, None) when some
    u_k degenerates.
    """
    n = len(a)
    t = _contract_parties(psi, [np.vstack([ak.conj(), np.eye(2)]) for ak in a])
    zero, pair = (0,) * n, slice(1, 3)
    raw = [t[zero[:k] + (pair,) + zero[k + 1:]] for k in range(n)]
    norms = [np.linalg.norm(w) for w in raw]
    if min(norms) < 1e-150:
        return None, None
    us = [w / norm for w, norm in zip(raw, norms)]
    ov = np.empty(2 * n, dtype=complex)
    ov[0] = t[zero]
    ov[1:n + 1] = [u[0] * w[1] - u[1] * w[0] for u, w in zip(us, raw)]
    ov[n + 1:] = [us[0].conj() @ t[(pair,) + zero[1:k] + (pair,) + zero[k + 1:]]
                  @ us[k].conj() for k in range(1, n)]
    return us, ov


def find_settings(psi: PureState, cfg: SearchConfig):
    """Search for settings passing the test with pivot 1 on a pure state.

    Returns MeasurementSettings on success (re-verified through the full Born
    table), otherwise a NoSettingsFound record.
    """
    return _find_settings(psi, cfg)[0]


def _find_settings(psi: PureState, cfg: SearchConfig):
    """find_settings, also returning the Born table and test report that
    passed the settings (None, None for NoSettingsFound), the starts tried,
    and the residual evaluations made, finite-difference ones included."""
    n = psi.n
    rng = np.random.default_rng(cfg.seed)
    fevals = 0

    def rays(a_params: np.ndarray):
        return [_ray_from_angles(a_params[2 * k], a_params[2 * k + 1]) for k in range(n)]

    def residual(a_params: np.ndarray) -> np.ndarray:
        nonlocal fevals
        fevals += 1
        us, ov = _amplitudes(psi.amplitudes, rays(a_params))
        if us is None:
            # least_squares needs finite values; no pair amplitude exceeds 1
            return np.ones(2 * (n - 1))
        return np.concatenate((ov[n + 1:].real, ov[n + 1:].imag))

    best_residual = np.inf
    best_success = 0.0
    for start in range(1, cfg.multistarts + 1):
        a_params = np.empty(2 * n)
        a_params[0::2] = rng.uniform(0.0, math.pi, n)
        a_params[1::2] = rng.uniform(0.0, 2 * math.pi, n)
        fit = least_squares(residual, a_params, method="trf", max_nfev=cfg.max_iters,
                            ftol=FIT_TOL, xtol=FIT_TOL, gtol=FIT_TOL)
        a = rays(fit.x)
        us, ov = _amplitudes(psi.amplitudes, a)
        if us is None:
            continue
        residual_weight = float((np.abs(ov[1:]) ** 2).sum())
        success = abs(ov[0]) ** 2
        if residual_weight < best_residual:
            best_residual, best_success = residual_weight, success
        if residual_weight < cfg.eps_zero and success > cfg.delta_pos:
            settings = MeasurementSettings(
                n, tuple((Ray(*ak), Ray(*u).orthogonal()) for ak, u in zip(a, us)))
            d = born_distribution(psi, settings)
            report = hardy_conditions(d, pivot=1, eps_zero=cfg.eps_zero,
                                      delta_pos=cfg.delta_pos)
            if report.passed:
                return settings, d, report, start, fevals
    return (NoSettingsFound(best_residual, float(best_success)), None, None,
            cfg.multistarts, fevals)


def _sub_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _run_state(args) -> ExperimentRecord:
    n, seed, index, cfg, lp_check = args
    attempt = 0
    while True:
        state_seed = _sub_seed(seed, index, attempt)
        psi = haar_random_pure(n, state_seed)
        if genuine_entanglement_check(psi, 1e-4):
            break
        attempt += 1
    result, d, report, starts, fevals = _find_settings(
        psi, replace(cfg, seed=_sub_seed(seed, index, 1 << 20)))
    if report is None:
        return ExperimentRecord(index, state_seed, False, result.best_success,
                                result.best_residual, starts, fevals, False, False)
    lp_infeasible = False
    if lp_check:
        lp_infeasible = not lp_membership(d, bilocal_ns_vertices()).feasible
    return ExperimentRecord(index, state_seed, report.passed, report.p_success,
                            max(report.zero_residuals), starts, fevals,
                            lp_check, lp_infeasible)


def random_experiment(n: int, count: int, seed: int, cfg: SearchConfig,
                      lp_subsample: int = 0, jobs: int = 1) -> ExperimentSummary:
    """Run the search on `count` Haar-random genuinely entangled states.

    Each state draws its own RNG stream from (seed, index), so summaries are
    reproducible and independent of `jobs`.  The first `lp_subsample` states
    are additionally cross-checked by the bilocal LP, which exists for n = 3
    only.
    """
    if not 3 <= n <= MAX_PARTIES:
        raise ValueError(f"experiment supports n = 3..{MAX_PARTIES}, got {n}")
    if count < 1 or jobs < 1:
        raise ValueError("count and jobs must be at least 1")
    if lp_subsample < 0:
        raise ValueError(f"lp_subsample must be nonnegative, got {lp_subsample}")
    if lp_subsample > 0 and n != 3:
        raise ValueError("the LP cross-check (lp_subsample) supports n = 3 only")
    tasks = [(n, seed, i, cfg, i < lp_subsample) for i in range(count)]
    if jobs > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            records = sorted(pool.map(_run_state, tasks, chunksize=4),
                             key=lambda r: r.index)
    else:
        records = [_run_state(t) for t in tasks]
    passed = sum(1 for r in records if r.passed)
    return ExperimentSummary(n, count, seed, passed, count - passed, tuple(records))
