import cmath

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from nonloc import (DegenerateSettings, DensityMatrix, DimensionMismatch, JointDistribution,
                    MeasurementSettings, Ray, SymmetricState, born_distribution,
                    condition_cells, construct_hardy_state,
                    deterministic_local_vertices, dicke_expand, hardy_conditions, inequality1, inequality2,
                    mixed_state_check)
from conftest import random_ray, random_settings

GHZ3 = dicke_expand(SymmetricState.ghz(3, np.pi / 4))
# shared-parameter settings solving the test on GHZ(pi/4) at x = 2i
GHZ3_SETTINGS = MeasurementSettings.from_shared_params(3, 1 / 16, 1 / 4, 2j, 8j)
GHZ3_P = 72 / 6425


def test_ghz_fixture_passes():
    report = hardy_conditions(born_distribution(GHZ3, GHZ3_SETTINGS))
    assert report.passed
    assert abs(report.p_success - GHZ3_P) < 1e-10
    assert max(report.zero_residuals) < 1e-12


def test_zero_condition_count():
    report = hardy_conditions(born_distribution(GHZ3, GHZ3_SETTINGS))
    assert len(report.zero_residuals) == 2 * 3 - 1


def test_product_state_never_passes(rng):
    amps = np.zeros(8)
    amps[0] = 1.0
    from nonloc import PureState
    psi = PureState(3, amps)
    for _ in range(10):
        report = hardy_conditions(born_distribution(psi, random_settings(3, rng)))
        assert not report.passed


def test_excluded_parameter_gives_zero_success():
    # at |x| = 1 the GHZ construction still satisfies every zero condition
    # but the success probability collapses
    s = MeasurementSettings.from_shared_params(3, -1.0, -1.0, 1.0, 1.0)
    report = hardy_conditions(born_distribution(GHZ3, s))
    assert not report.passed
    assert report.p_success < 1e-12
    assert max(report.zero_residuals) < 1e-12


def test_pivot_validation():
    d = born_distribution(GHZ3, GHZ3_SETTINGS)
    with pytest.raises(ValueError):
        hardy_conditions(d, pivot=0)
    with pytest.raises(ValueError):
        hardy_conditions(d, pivot=4)


@pytest.mark.parametrize("tolerances", (
    {"delta_pos": -1.0}, {"delta_pos": float("nan")}, {"delta_pos": float("inf")},
    {"eps_zero": 0.0}, {"eps_zero": -1e-9}, {"eps_zero": float("nan")},
    {"eps_zero": float("inf")}))
def test_tolerance_validation(tolerances):
    # a local vertex whose success cell is zero must never pass the test
    d = JointDistribution(3, deterministic_local_vertices(3).columns[3])
    assert d.p[0, 0] == 0.0
    assert not hardy_conditions(d, delta_pos=0.0).passed
    with pytest.raises(ValueError):
        hardy_conditions(d, **tolerances)


def test_inequality1_pivot_validation():
    d = born_distribution(GHZ3, GHZ3_SETTINGS)
    for pivot in (0, 4):
        with pytest.raises(ValueError):
            inequality1(d, pivot)


def test_condition_cells_n3():
    # party 1 in the most significant bit of the setting and outcome indices
    assert list(zip(*condition_cells(3))) == [(0, 0), (4, 0), (2, 0), (1, 0),
                                              (6, 6), (5, 5)]
    assert list(zip(*condition_cells(3, 2)))[4:] == [(6, 6), (3, 3)]
    assert list(zip(*condition_cells(3, 3)))[4:] == [(5, 5), (3, 3)]
    assert list(zip(*condition_cells(3, standard=True)))[4:] == [(7, 7)]
    with pytest.raises(ValueError):
        condition_cells(3)[0][0] = 1


def _swap_parties(d: JointDistribution, k: int) -> JointDistribution:
    """The same table with parties 1 and k exchanged."""
    n = d.n
    t = d.p.reshape((2,) * (2 * n))
    t = np.swapaxes(np.swapaxes(t, 0, k - 1), n, n + k - 1)
    return JointDistribution(n, t.reshape(2 ** n, 2 ** n))


@pytest.mark.parametrize("n", (3, 4))
def test_pivot_k_matches_pivot_1_with_parties_swapped(n, rng):
    for _ in range(5):
        p = rng.random((2 ** n, 2 ** n))
        d = JointDistribution(n, p / p.sum(axis=1, keepdims=True))
        for k in range(1, n + 1):
            swapped = _swap_parties(d, k)
            image = [0] + list(range(1, n + 1))
            image[1], image[k] = k, 1
            ref = hardy_conditions(swapped)
            first = ref.zero_residuals[:n]
            pairs = dict(zip(range(2, n + 1), ref.zero_residuals[n:]))
            # party j's cells under pivot k are party image[j]'s under pivot 1
            expected = ([first[image[j] - 1] for j in range(1, n + 1)]
                        + [pairs[image[j]] for j in range(1, n + 1) if j != k])
            got = hardy_conditions(d, pivot=k)
            assert got.p_success == ref.p_success
            assert list(got.zero_residuals) == expected
            assert abs(inequality1(d, k) - inequality1(swapped)) < 1e-14


def test_inequality1_equals_success_on_passing_table():
    d = born_distribution(GHZ3, GHZ3_SETTINGS)
    assert abs(inequality1(d) - GHZ3_P) < 1e-10


def test_inequality1_on_deterministic_zeros_box():
    p = np.zeros((8, 8))
    p[:, 0] = 1.0
    d = JointDistribution(3, p)
    assert abs(inequality1(d) - (1 - 3)) < 1e-12
    assert abs(inequality2(d) - (1 - 3)) < 1e-12


def test_inequality2_ghz_fixture_value():
    d = born_distribution(GHZ3, GHZ3_SETTINGS)
    assert abs(inequality2(d) - (-0.4706987774273018)) < 1e-10


def test_standard_variant_ghz():
    # identical settings on every party pass the all-ones variant with p = 1/8
    a = Ray.from_param(cmath.exp(-1j * np.pi / 6))
    b = Ray.from_param(-cmath.exp(1j * np.pi / 3))
    s = MeasurementSettings(3, ((a, b),) * 3)
    d = born_distribution(GHZ3, s)
    standard = hardy_conditions(d, standard=True)
    assert standard.passed
    assert abs(standard.p_success - 1 / 8) < 1e-10
    assert not hardy_conditions(d).passed


def test_pivot_choice_is_immaterial_for_symmetric_settings():
    # fully permutation-symmetric state and settings: the verdict cannot
    # depend on which party anchors the pairwise conditions
    a = Ray.from_param(cmath.exp(-1j * np.pi / 6))
    b = Ray.from_param(-cmath.exp(1j * np.pi / 3))
    d = born_distribution(GHZ3, MeasurementSettings(3, ((a, b),) * 3))
    for standard in (False, True):
        verdicts = {hardy_conditions(d, pivot=k, standard=standard).passed
                    for k in (1, 2, 3)}
        assert len(verdicts) == 1


def _cell_kets(settings):
    """The product kets of the test cells, one np.kron chain per cell: party k
    contributes the ket of its ray for setting bit s_k, or of the orthogonal
    ray for outcome bit 1."""
    n, cols = settings.n, []
    for s, r in zip(*condition_cells(n)):
        col = np.ones(1)
        for k in range(n):
            ray = settings.pairs[k][s >> (n - 1 - k) & 1]
            col = np.kron(col, (ray.orthogonal() if r >> (n - 1 - k) & 1 else ray).ket())
        cols.append(col)
    return np.column_stack(cols)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5), st.sampled_from((0.0, 1e-3, 1e-5, 1e-7)))
def test_construct_matches_direct_null_space(seed, n, eps):
    # with eps > 0 each b_k is a_k moved by eps, so the settings are near degenerate;
    # the reference rejects them when the product kets B or the constraint
    # overlap C^H B has a singular value below 1e-10
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        a = random_ray(rng)
        b = random_ray(rng) if eps == 0.0 else Ray(*(a.ket() + eps * random_ray(rng).ket()))
        pairs.append((a, b))
    m = MeasurementSettings(n, tuple(pairs))
    basis = _cell_kets(m)
    constraints = basis[:, 1:]
    degenerate = (np.linalg.svd(basis, compute_uv=False)[-1] <= 1e-10
                  or (np.linalg.svd(constraints.conj().T @ basis, compute_uv=False) < 1e-10).any())
    if degenerate:
        with pytest.raises(DegenerateSettings):
            construct_hardy_state(m)
        return
    sub = construct_hardy_state(m)
    assert np.allclose(np.abs(np.sum(basis.conj() * sub.basis, axis=0)), 1.0, atol=1e-12)
    success = basis[:, 0]
    phi = success - constraints @ np.linalg.lstsq(constraints, success, rcond=None)[0]
    assert 1.0 - abs(np.vdot(phi / np.linalg.norm(phi), sub.phi.amplitudes)) <= 1e-9


def test_construct_output_passes_conditions(rng):
    for n in (2, 3, 4):
        settings = random_settings(n, rng)
        sub = construct_hardy_state(settings)
        report = hardy_conditions(born_distribution(sub.phi, settings),
                                  delta_pos=0.0)
        assert report.passed
        assert max(report.zero_residuals) < 1e-10


def test_construct_rejects_parallel_settings():
    r = Ray(1.0, 0.5)
    with pytest.raises(DegenerateSettings):
        construct_hardy_state(MeasurementSettings(3, ((r, r),) * 3))


def test_mixed_state_check_accepts_the_constructed_state():
    sub = construct_hardy_state(GHZ3_SETTINGS)
    rho = DensityMatrix.from_pure(sub.phi)
    assert mixed_state_check(rho, sub)


def test_mixed_state_check_allows_outside_admixture():
    sub = construct_hardy_state(GHZ3_SETTINGS)
    # mix with a state orthogonal to the whole settings subspace
    _, _, vh = np.linalg.svd(sub.basis.conj().T)
    chi = vh[-1].conj()
    assert np.abs(sub.basis.conj().T @ chi).max() < 1e-10
    phi = sub.phi.amplitudes
    rho = 0.6 * np.outer(phi, phi.conj()) + 0.4 * np.outer(chi, chi.conj())
    assert mixed_state_check(DensityMatrix(3, rho), sub)


def test_mixed_state_check_rejects_in_subspace_admixture():
    sub = construct_hardy_state(GHZ3_SETTINGS)
    other = sub.basis[:, 1] / np.linalg.norm(sub.basis[:, 1])
    phi = sub.phi.amplitudes
    rho = 0.9 * np.outer(phi, phi.conj()) + 0.1 * np.outer(other, other.conj())
    assert not mixed_state_check(DensityMatrix(3, rho), sub)


def test_mixed_state_check_rejects_maximally_mixed():
    sub = construct_hardy_state(GHZ3_SETTINGS)
    assert not mixed_state_check(DensityMatrix(3, np.eye(8) / 8), sub)


def test_mixed_state_check_agrees_with_conditions(rng):
    # phi mixed with a ket outside the subspace (none exists at n = 2, where
    # the 2n kets span the space), a constraint ket, or white noise: only the
    # outside admixture keeps every zero cell at zero, and the verdict follows
    # the Born table of the mixture
    for n in (2, 3, 4):
        for _ in range(5):
            m = random_settings(n, rng)
            sub = construct_hardy_state(m)
            phi = sub.phi.amplitudes
            u, _, _ = np.linalg.svd(sub.basis)
            c = sub.basis[:, rng.integers(1, 2 * n)]
            admixtures = {"constraint": np.outer(c, c.conj()), "noise": np.eye(2 ** n) / 2 ** n}
            if n > 2:
                admixtures["outside"] = np.outer(u[:, -1], u[:, -1].conj())
            for kind, other in admixtures.items():
                for w in (0.0, 0.1, 0.5):
                    rho = DensityMatrix(n, (1 - w) * np.outer(phi, phi.conj()) + w * other)
                    report = hardy_conditions(born_distribution(rho, m), delta_pos=0.0)
                    verdict = mixed_state_check(rho, sub)
                    assert verdict == (w == 0.0 or kind == "outside")
                    assert verdict == (max(report.zero_residuals) < 1e-9)


@pytest.mark.parametrize("n", (2, 4))
def test_mixed_state_check_rejects_another_party_count(n):
    sub = construct_hardy_state(GHZ3_SETTINGS)
    with pytest.raises(DimensionMismatch):
        mixed_state_check(DensityMatrix(n, np.eye(2 ** n) / 2 ** n), sub)
