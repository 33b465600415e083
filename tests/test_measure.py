import math

import numpy as np
import pytest

from nonloc import (DensityMatrix, DimensionMismatch, JointDistribution,
                    MeasurementSettings, PureState, Ray, SymmetricState,
                    amplitude_table, born_distribution, dicke_expand,
                    ns_residual)
from conftest import random_ray, random_settings

GHZ3 = dicke_expand(SymmetricState.ghz(3, np.pi / 4))
PLUS = Ray(1.0, 1.0)


def z_settings(n):
    return MeasurementSettings(n, ((Ray(1.0, 0.0), PLUS),) * n)


def test_ray_normalization_and_orthogonal():
    r = Ray(3.0, 4.0j)
    assert abs(np.linalg.norm(r.ket()) - 1.0) < 1e-12
    assert abs(np.vdot(r.ket(), r.orthogonal().ket())) < 1e-12


def test_ray_from_param_convention():
    r = Ray.from_param(2j)
    assert r.c0 == 1.0
    assert r.c1 == -2j


def test_ray_rejects_zero_vector():
    with pytest.raises(ValueError):
        Ray(0.0, 0.0)


@pytest.mark.parametrize("c0, c1", ((np.nan, 0.0), (1.0, np.inf),
                                    (complex(0.0, np.nan), 1.0), (np.inf, 1.0),
                                    (complex(0.0, -np.inf), 1.0), (1.0, complex(0.0, np.nan)),
                                    (0.5j, complex(np.nan, 1.0)), (1.0, complex(0.0, np.inf))))
def test_ray_rejects_non_finite(c0, c1):
    with pytest.raises(ValueError, match="^ray contains NaN or infinite values$"):
        Ray(c0, c1)


def test_distribution_rejects_non_finite():
    with pytest.raises(ValueError, match="NaN or infinite"):
        JointDistribution(3, np.full((8, 8), np.nan))
    p = np.full((4, 4), 0.25)
    p[2, 1] = np.inf
    with pytest.raises(ValueError, match="NaN or infinite"):
        JointDistribution(2, p)


def test_ns_residual_propagates_nan():
    # the constructor rejects NaN, so hand the residual a bare table
    class Table:
        n = 2
        p = np.full((4, 4), np.nan)

    assert np.isnan(ns_residual(Table()))


def test_ghz_z_basis_distribution():
    d = born_distribution(GHZ3, z_settings(3))
    assert abs(d.p[0, 0b000] - 0.5) < 1e-12
    assert abs(d.p[0, 0b111] - 0.5) < 1e-12
    assert abs(d.p[0].sum() - 1.0) < 1e-12


def test_ghz_x_basis_parity():
    # all parties measuring in the x basis see even parity only
    x = MeasurementSettings(3, ((PLUS, Ray(1.0, 0.0)),) * 3)
    d = born_distribution(GHZ3, x)
    for r in range(8):
        expected = 0.25 if bin(r).count("1") % 2 == 0 else 0.0
        assert abs(d.p[0, r] - expected) < 1e-12


def test_global_phase_invariance():
    psi = PureState(3, np.exp(1.3j) * GHZ3.amplitudes)
    s = z_settings(3)
    a = born_distribution(GHZ3, s)
    b = born_distribution(psi, s)
    assert np.allclose(a.p, b.p, atol=1e-14)


def test_density_path_matches_pure_path(rng):
    psi = PureState(3, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    s = random_settings(3, rng)
    dp = born_distribution(psi, s)
    dr = born_distribution(DensityMatrix.from_pure(psi), s)
    assert np.allclose(dp.p, dr.p, atol=1e-12)


def test_outcome_bras_are_the_ray_kets_bit_for_bit(rng):
    # the unit rays are normalized by np.linalg.norm's own dot products, so a
    # solved table does not move in its last bits with how the norm is summed
    for n in (2, 3, 8):
        s = random_settings(n, rng)
        for bras, pair in zip(s.outcome_bras(), s.pairs):
            for bit, ray in enumerate(pair):
                assert np.array_equal(bras[2 * bit], ray.ket().conj())
                assert np.allclose(bras[2 * bit + 1], ray.orthogonal().ket().conj(),
                                   rtol=0, atol=1e-15)


def kron_bras(s, si):
    """Rows r: the product bra of outcome r under joint setting si, built from
    each ray's c0, c1 and its orthogonal ray (-c1*, c0*)."""
    w = np.ones((1, 1))
    for k in range(1, s.n + 1):
        ray = s.pairs[k - 1][(si >> (s.n - k)) & 1]
        ket0 = np.array([ray.c0, ray.c1]) / math.hypot(abs(ray.c0), abs(ray.c1))
        ket1 = np.array([-ket0[1].conjugate(), ket0[0].conjugate()])
        w = np.kron(w, np.stack([ket0, ket1]).conj())
    return w


def kron_reference(state, s):
    """p[s][r] from one explicit Kronecker product of bras per setting s."""
    dim = 2 ** s.n
    p = np.empty((dim, dim))
    for si in range(dim):
        w = kron_bras(s, si)
        if isinstance(state, PureState):
            p[si] = np.abs(w @ state.amplitudes) ** 2
        else:
            p[si] = np.diag(w @ state.entries @ w.conj().T).real
    return p


@pytest.mark.parametrize("n", range(2, 9))
def test_pure_born_table_matches_kron_reference(n, rng):
    psi = PureState(n, rng.standard_normal(2 ** n)
                    + 1j * rng.standard_normal(2 ** n))
    s = random_settings(n, rng)
    assert np.abs(born_distribution(psi, s).p - kron_reference(psi, s)).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 6))
def test_amplitude_table_matches_kron_reference(n, rng):
    # a raw, unnormalized amplitude vector: the table is linear in it
    v = 3.0 * (rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n))
    s = random_settings(n, rng)
    table = amplitude_table(v, s.outcome_bras())
    reference = np.array([kron_bras(s, si) @ v for si in range(2 ** n)])
    assert np.abs(table - reference).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 6))
def test_density_born_table_matches_kron_reference(n, rng):
    dim = 2 ** n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = DensityMatrix(n, rho / np.trace(rho).real)
    s = random_settings(n, rng)
    assert np.abs(born_distribution(rho, s).p - kron_reference(rho, s)).max() < 1e-12


def test_born_rejects_mismatched_parties():
    with pytest.raises(DimensionMismatch):
        born_distribution(GHZ3, z_settings(4))


def test_born_rejects_unknown_state_type():
    class Stub:
        n = 3

    with pytest.raises(TypeError):
        born_distribution(Stub(), z_settings(3))


def test_distribution_validates_shape_and_rows():
    with pytest.raises(ValueError):
        JointDistribution(2, np.ones((4, 4)))
    with pytest.raises(ValueError):
        JointDistribution(1, np.array([[0.5, 0.6], [1.0, 0.0]]))


def test_quantum_tables_do_not_signal(rng):
    for n in (2, 3):
        for _ in range(10):
            v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
            d = born_distribution(PureState(n, v), random_settings(n, rng))
            assert ns_residual(d) <= 1e-10


def test_signaling_table_is_detected():
    # party 1's outcome follows party 2's setting choice
    p = np.zeros((4, 4))
    p[0b00, 0b00] = 1.0
    p[0b01, 0b10] = 1.0
    p[0b10, 0b00] = 1.0
    p[0b11, 0b10] = 1.0
    d = JointDistribution(2, p)
    assert ns_residual(d) == 1.0


def test_transformed_settings_track_rotated_state(rng):
    u, _ = np.linalg.qr(rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
    s = random_settings(3, rng)
    psi = PureState(3, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    t = psi.tensor()
    for axis in range(3):
        t = np.moveaxis(np.tensordot(u, t, axes=(1, axis)), 0, axis)
    rotated = PureState(3, t.reshape(-1))
    a = born_distribution(psi, s)
    b = born_distribution(rotated, s.transformed(u))
    assert np.allclose(a.p, b.p, atol=1e-12)


def test_transformed_maps_each_shared_pair_once(rng):
    # each ray becomes u @ (c0, c1); parties 2..n keep sharing one pair of
    # Ray objects, as from_shared_params and solve_auto's settings have them
    u, _ = np.linalg.qr(rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
    first, rest = (random_ray(rng), random_ray(rng)), (random_ray(rng), random_ray(rng))
    s = MeasurementSettings(5, (first,) + (rest,) * 4)
    moved = s.transformed(u)
    for pair, new in zip(s.pairs, moved.pairs):
        for ray, image in zip(pair, new):
            assert (image.c0, image.c1) == tuple(u @ np.array([ray.c0, ray.c1]))
    assert all(new[0] is moved.pairs[1][0] and new[1] is moved.pairs[1][1]
               for new in moved.pairs[2:])
    assert moved.pairs[0][0] is not moved.pairs[1][0]
