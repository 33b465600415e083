"""The workloads: inputs made from a seed, the calls timed, and the checks
made on each output.

Every input is built before timing starts.  An operation's `run` is the only
code timed; its `check` runs afterwards and returns the problems it found.
`run` raises `Declined` when the program answers that it found nothing,
which counts the operation as failed but not as wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks


class Declined(Exception):
    """The program returned no result for a valid input."""


@dataclass
class Op:
    band: str | None      # "a", "b", or None for an input counted only in ops_per_s
    kind: str             # the input's family, e.g. "n=5 random"
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    label: str | None = None  # reference classify label, on lp-classify
    rated: bool = True        # whether it counts in ops_per_s


def _entangled_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random n-qubit amplitudes, redrawn until genuinely entangled."""
    while True:
        v = checks.unit(rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n))
        if checks.genuinely_entangled(v):
            return v


def _entangled_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian Dicke coefficients h, redrawn until genuinely entangled."""
    while True:
        h = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        if checks.genuinely_entangled(checks.dicke_amplitudes(h)):
            return h


def _ghz_h(n: int, theta: float) -> np.ndarray:
    h = np.zeros(n + 1, dtype=complex)
    h[0], h[n] = math.cos(theta), math.sin(theta)
    return h


def _w_h(n: int) -> np.ndarray:
    h = np.zeros(n + 1, dtype=complex)
    h[1] = 1.0
    return h


def _random_rays(rng: np.random.Generator, n: int):
    """Unit a, b kets per party with |<a|b>| < 0.99."""
    a, b = [], []
    while len(a) < n:
        u = checks.unit(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        v = checks.unit(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        if abs(np.vdot(u, v)) < 0.99:
            a.append(u)
            b.append(v)
    return a, b


class Workload:
    name: str
    bands: dict[str, str]          # band -> make-up, for the report

    def __init__(self, api):
        self.api = api

    def setup(self) -> None:
        """The lazy set-up the first operation would otherwise pay."""

    def startup_checks(self) -> list[str]:
        return []

    def build(self, seed: int) -> list[Op]:
        raise NotImplementedError


def vertex_set_problems(api, polytopes: checks.Polytopes) -> tuple[dict, list[str]]:
    """Match the program's vertex sets to the benchmark's own enumeration.

    Returns the own columns reordered into the program's column order, keyed
    by the program's model name, and any mismatch found."""
    ordered, problems = {}, []
    for vs, own in ((api.deterministic_local_vertices(3), polytopes.local),
                    (api.bilocal_ns_vertices(), polytopes.bilocal)):
        perm, found = checks.match_columns(vs.columns, own)
        problems += [f"{vs.model}: {p}" for p in found]
        if perm is not None:
            ordered[vs.model] = own[perm]
    return ordered, problems


# Per party count: random states and GHZ(theta) states per round, and their
# band.  Every size also gets one W state.  A band's latency is the median
# over its inputs, so each band holds at least 20 inputs: ten beyond the
# median.  Random n = 7 and 8 states are left out: about 1 in 60 of them at
# n = 8, and 2 in 1500 at n = 7, make solve_auto raise NumericalFailure
# ("degeneracy root ... fails the rank-1 check"), which would make the failed
# share depend on the seed.  DEGENERACY_FAULT_H below keeps that fault in
# every round.  No n = 8 state is timed: at 250-450 ms a solve, a run cannot
# time each one often enough to hold its fastest time steady.
SYMMETRIC_MIX = {3: (4, 1, None), 4: (4, 1, None), 5: (44, 4, "a"),
                 6: (2, 1, None), 7: (0, 20, "b")}
# An n = 8 state on which solve_auto fails every time: degenerate_x_roots
# finds a root near 31 - 35i and rejects it with an absolute rank-1 threshold.
DEGENERACY_FAULT_H = (0.712783 + 0.702015j, -0.833773 + 0.165197j,
                      -1.568151 + 0.948244j, 0.302911 + 0.788134j,
                      -1.036173 - 0.234909j, 1.022871 - 0.455265j,
                      -0.591948 - 0.066525j, -0.851642 + 1.372402j,
                      0.717637 - 0.514836j)
# The numerical search runs once a round on one fixed input, GHZ_3(pi/4)
# with search seed 0, for the search layer's figures in traced runs.  One
# search takes 0.6-1 s, and the fastest of ten such calls in a run still
# moved by a third from run to run, so no end-to-end metric includes it.
SEARCH_THETA = math.pi / 4
SEARCH_SEED = 0
# solve_auto verifies its own settings with these bounds.
SOLVE_AUTO_EPS_ZERO = 1e-8
SOLVE_AUTO_DELTA_POS = 1e-10


class SymmetricSolve(Workload):
    """solve_auto on random symmetric states, GHZ(theta) and W, n = 3..7, and
    find_settings on GHZ_3(pi/4): the numerical search that the closed form
    replaces."""

    name = "symmetric-solve"
    bands = {"a": "n=5 random symmetric and GHZ(theta) states",
             "b": "n=7 GHZ(theta) states"}

    def startup_checks(self) -> list[str]:
        """The printed fixtures: GHZ_3(pi/4) at x = 2i and W_3 at x = 1."""
        api = self.api
        problems = []
        for h, x, p_exact in ((_ghz_h(3, math.pi / 4), 2j, 72 / 6425),
                              (_w_h(3), 1.0, 1 / 408)):
            sol = api.solve_settings(api.SymmetricState(3, h), x)
            if abs(sol.p_success - p_exact) > 1e-12:
                problems.append(f"fixture at x={x}: p_success {sol.p_success!r} "
                                f"!= {p_exact!r}")
            a, b = checks.settings_rays(sol.settings)
            problems += [f"fixture at x={x}: {p}" for p in checks.check_passing(
                checks.dicke_amplitudes(h), a, b, 1e-10, 0.0, p_exact)]
        return problems

    def build(self, seed: int) -> list[Op]:
        rng = np.random.default_rng([seed, 2])
        ops = []
        for n, (randoms, ghzs, band) in SYMMETRIC_MIX.items():
            for _ in range(randoms):
                ops.append(self._op(n, band, f"n={n} random", _entangled_symmetric(rng, n)))
            for _ in range(ghzs):
                theta = rng.uniform(math.pi / 12, 5 * math.pi / 12)
                ops.append(self._op(n, band, f"n={n} GHZ", _ghz_h(n, theta)))
            # W states take a slow path through the magic-basis rotation, a
            # cost class of their own, so they count only in ops_per_s.
            ops.append(self._op(n, None, f"n={n} W", _w_h(n)))
        ops.append(self._op(8, None, "n=8 degeneracy-root fault",
                            np.array(DEGENERACY_FAULT_H)))
        ops.append(self._search_op(_ghz_h(3, SEARCH_THETA), SEARCH_SEED))
        return ops

    def _op(self, n: int, band: str | None, kind: str, h: np.ndarray) -> Op:
        api = self.api
        state = api.SymmetricState(n, h)
        amps = checks.dicke_amplitudes(h)

        def run():
            return api.solve_auto(state)

        def check(sol) -> list[str]:
            a, b = checks.settings_rays(sol.settings)
            return checks.check_passing(amps, a, b, SOLVE_AUTO_EPS_ZERO,
                                        SOLVE_AUTO_DELTA_POS, sol.p_success)

        return Op(band, kind, run, check)

    def _search_op(self, h: np.ndarray, search_seed: int) -> Op:
        api = self.api
        amps = checks.dicke_amplitudes(h)
        psi = api.PureState(3, amps)
        cfg = api.SearchConfig(seed=search_seed)

        def run():
            settings = api.find_settings(psi, cfg)
            if not isinstance(settings, api.MeasurementSettings):
                raise Declined(f"no settings found: {settings}")
            return settings

        def check(settings) -> list[str]:
            a, b = checks.settings_rays(settings)
            return checks.check_passing(amps, a, b, cfg.eps_zero, cfg.delta_pos)

        return Op(None, "n=3 GHZ(pi/4), find_settings", run, check, rated=False)


# Tables per round of lp-classify.
# LP times differ from table to table, so the bands are large: with 40
# tables, the band medians of ten seeds spread by 0.06-0.09 of their value
# on one machine state.
LOCAL_RANDOM = 120       # band a: random Born tables the reference calls local
NONLOCAL_RANDOM = 30     # random Born tables it does not call local
BILOCAL_MIXTURES = 60    # band b: mixtures of bilocal vertices
NOISY_HARDY = 60         # band b: noisy solve_auto tables of symmetric states
NOISE_FRACTIONS = (0.25, 0.5, 0.75)


class LpClassify(Workload):
    """classify on three-party tables, all built before timing."""

    name = "lp-classify"
    bands = {"a": "random Born tables decided local by one feasible LP",
             "b": "bilocal-vertex mixtures and noisy Hardy tables, two LPs each"}

    def setup(self) -> None:
        self.api.deterministic_local_vertices(3)
        self.api.bilocal_ns_vertices()

    def startup_checks(self) -> list[str]:
        self.polytopes = checks.Polytopes()
        self.ordered, problems = vertex_set_problems(self.api, self.polytopes)
        return problems

    def build(self, seed: int) -> list[Op]:
        rng = np.random.default_rng([seed, 3])
        pol = self.polytopes
        local, nonlocal_ = [], []
        while len(local) < LOCAL_RANDOM or len(nonlocal_) < NONLOCAL_RANDOM:
            p = checks.born_table(_entangled_state(rng, 3), *_random_rays(rng, 3))
            label = pol.label(p)
            if label == "local" and len(local) < LOCAL_RANDOM:
                local.append((p, label))
            elif label != "local" and len(nonlocal_) < NONLOCAL_RANDOM:
                nonlocal_.append((p, label))
        mixtures = []
        while len(mixtures) < BILOCAL_MIXTURES:
            chosen = rng.choice(len(pol.bilocal), size=int(rng.integers(2, 7)),
                                replace=False)
            p = (rng.dirichlet(np.ones(len(chosen))) @ pol.bilocal[chosen]).reshape(8, 8)
            if pol.label(p) == "nonlocal-but-bilocal":
                mixtures.append((p, "nonlocal-but-bilocal"))
        states = [_ghz_h(3, rng.uniform(math.pi / 12, 5 * math.pi / 12)), _w_h(3)]
        states += [_entangled_symmetric(rng, 3) for _ in range(NOISY_HARDY - 2)]
        hardy = []
        for i, h in enumerate(states):
            p = self._noisy_hardy_table(h, NOISE_FRACTIONS[i % len(NOISE_FRACTIONS)])
            hardy.append((p, pol.label(p)))
        ops = [self._op("a", "random local", *t) for t in local]
        ops += [self._op(None, "random nonlocal", *t) for t in nonlocal_]
        ops += [self._op("b", "bilocal mixture", *t) for t in mixtures]
        ops += [self._op("b", "noisy Hardy", *t) for t in hardy]
        return ops

    def _noisy_hardy_table(self, h: np.ndarray, fraction: float) -> np.ndarray:
        """Born table of solve_auto's settings mixed with white noise.

        The white table scores -1/2 on the pivot-1 witness, so noise weight
        eps = fraction * w / (w + 1/2) keeps the witness w positive and the
        table outside the bilocal polytope."""
        api = self.api
        sol = api.solve_auto(api.SymmetricState(3, h))
        amps = checks.dicke_amplitudes(h)
        a, b = checks.settings_rays(sol.settings)
        success, zeros = checks.condition_cells(amps, a, b)
        witness = success - sum(zeros)
        eps = fraction * witness / (witness + 0.5)
        return (1 - eps) * checks.born_table(amps, a, b) + eps / 8

    def _op(self, band: str | None, kind: str, p: np.ndarray, label: str) -> Op:
        api = self.api
        table = api.JointDistribution(3, p)
        model = "fully-local" if label == "local" else "bilocal-ns"

        def run():
            return api.classify(table)

        def check(result) -> list[str]:
            got, outcome = result
            if got != label:
                return [f"classify says {got}, HiGHS says {label}"]
            columns = self.ordered.get(model)
            if columns is None:
                return [f"no matched {model} vertex set to check against"]
            return checks.check_outcome(columns, p, outcome,
                                        inside=label != "genuinely-nonlocal")

        return Op(band, kind, run, check, label)


WORKLOADS = {w.name: w for w in (SymmetricSolve, LpClassify)}
