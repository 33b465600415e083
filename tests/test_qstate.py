import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonloc import (DensityMatrix, OptimizerDidNotConverge, PureState,
                    SymmetricState, closest_product_state, dicke_expand,
                    genuine_entanglement_check, haar_random_pure, to_magic_basis)
from nonloc import qstate
from nonloc.qstate import _newton_step
from conftest import random_symmetric


def test_pure_state_normalizes():
    psi = PureState(2, [2.0, 0.0, 0.0, 0.0])
    assert psi.amplitudes[0] == 1.0
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_pure_state_rejects_wrong_length():
    with pytest.raises(ValueError):
        PureState(3, [1.0, 0.0])


@pytest.mark.parametrize("bad", (np.nan, np.inf, complex(0.0, -np.inf)))
def test_state_constructors_reject_non_finite(bad):
    amps = np.full(8, 0.5, dtype=complex)
    amps[3] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        PureState(3, amps)
    with pytest.raises(ValueError, match="NaN or infinite"):
        SymmetricState(3, amps[:4])
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 1] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        DensityMatrix(2, rho)


def test_pure_state_amplitudes_frozen():
    psi = PureState(2, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_density_matrix_invariants():
    rho = DensityMatrix.from_pure(PureState(2, [1.0, 1.0, 0.0, 0.0]))
    assert abs(np.trace(rho.entries) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.9, 0.0], [0.0, 0.5]]))


def test_symmetric_normalization_uses_binomial_weights():
    s = SymmetricState(3, [1.0, 1.0, 1.0, 1.0])
    weights = np.array([math.comb(3, k) for k in range(4)])
    assert abs(weights @ np.abs(s.h) ** 2 - 1.0) < 1e-12


def test_ghz_and_w_coefficients():
    g = SymmetricState.ghz(3, np.pi / 6)
    assert np.allclose(g.h, [np.cos(np.pi / 6), 0, 0, np.sin(np.pi / 6)])
    w = SymmetricState.w(3)
    assert np.allclose(w.h, [0, 1 / np.sqrt(3), 0, 0])


def test_dicke_expand_w_state():
    psi = dicke_expand(SymmetricState.w(3))
    expected = np.zeros(8)
    expected[[1, 2, 4]] = 1 / np.sqrt(3)
    assert np.allclose(psi.amplitudes, expected)


def test_dicke_expand_is_normalized():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        s = random_symmetric(n, rng, entangled=False)
        psi = dicke_expand(s)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_closest_product_ghz_small_angle():
    beta, overlap = closest_product_state(SymmetricState.ghz(3, np.pi / 6))
    assert abs(overlap - np.cos(np.pi / 6)) < 1e-10
    assert abs(abs(beta[0]) - 1.0) < 1e-6


def test_closest_product_ghz_large_angle():
    # the leading cells lie nearer the south pole, so the Newton chart is
    # c / sigma, which reaches |1..1> exactly
    beta, overlap = closest_product_state(SymmetricState.ghz(3, np.pi / 3))
    assert abs(overlap - np.sin(np.pi / 3)) < 1e-10
    assert abs(abs(beta[1]) - 1.0) < 1e-12
    assert beta[0] == 0


def test_closest_product_w_state():
    # W's maxima form a ring |beta_0|^2 = (n-1)/n; the documented point on it
    # is the real one with beta_1 > 0
    for n in range(3, 9):
        beta, overlap = closest_product_state(SymmetricState.w(n))
        assert np.abs(beta.imag).max() <= 1e-15
        assert abs(beta[0].real ** 2 - (n - 1) / n) < 1e-12
        assert beta[0].real > 0 and beta[1].real > 0
        assert abs(overlap - ((n - 1) / n) ** ((n - 1) / 2)) < 1e-12


@pytest.mark.parametrize("n", range(3, 9))
def test_closest_product_beats_fine_grid(n):
    rng = np.random.default_rng(300 + n)
    t = np.linspace(0.0, np.pi, 257)[:, None]
    phi = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)[None, :]
    cb0, cb1 = np.cos(t / 2), np.sin(t / 2) * np.exp(-1j * phi)
    for _ in range(4):
        s = random_symmetric(n, rng, entangled=False)
        grid = sum(s.h[k] * math.comb(n, k) * cb0 ** (n - k) * cb1 ** k
                   for k in range(n + 1))
        beta, overlap = closest_product_state(s)
        assert overlap >= np.abs(grid).max() - 1e-12
        # beta_0 real and nonnegative before the phase e^{i alpha}, |alpha| <= pi/n
        assert abs(np.angle(beta[0])) <= np.pi / n + 1e-12


def test_newton_step_matches_lstsq():
    # full rank, sigma_2 / sigma_1 = 1e-3 and 1e-13 (either side of rcond),
    # a zero first pivot, and exactly rank 1 (|d_w| = |d_wbar| bit for bit)
    rng = np.random.default_rng(17)

    def phase():
        return cmath.exp(2j * np.pi * rng.random())

    cases = []
    for _ in range(300):
        scale, g = 10.0 ** rng.uniform(-3, 3), complex(*rng.standard_normal(2))
        for ratio in (rng.uniform(0.01, 1.0), 1e-3, 1e-13):
            big, small = scale * (1 + ratio) / 2, scale * (1 - ratio) / 2
            pair = (big, small) if rng.random() < 0.5 else (small, big)
            cases.append((pair[0] * phase(), pair[1] * phase(), g))
        d_w = scale * complex(*rng.standard_normal(2))
        cases.append((d_w, complex(-d_w.real, scale * rng.standard_normal()), g))
        cases += [(d_w, d_wbar, g) for d_wbar in (d_w, -d_w, 1j * d_w, d_w.conjugate())]
    for d_w, d_wbar, g in cases:
        jac = np.array([[(d_w + d_wbar).real, (d_wbar - d_w).imag],
                        [(d_w + d_wbar).imag, (d_w - d_wbar).real]])
        ref = complex(*np.linalg.lstsq(jac, [-g.real, -g.imag], rcond=1e-10)[0])
        sigma_1 = abs(d_w) + abs(d_wbar)
        assert abs(_newton_step(d_w, d_wbar, g) - ref) <= 1e-12 * max(abs(ref), abs(g) / sigma_1)


def test_newton_step_keeps_the_first_row_on_a_pivot_tie():
    # |Re(d_w + d_wbar)| == |Im(d_w + d_wbar)|: elimination pivots on the
    # first row, as a stable sort by -|j00| kept it
    rng = np.random.default_rng(23)

    def eliminate(rows):
        (j00, j01, r0), (j10, j11, r1) = rows
        m = j10 / j00
        dy = (r1 - m * r0) / (j11 - m * j01)
        return complex((r0 - j01 * dy) / j00, dy)

    differs = 0
    for d_w, d_wbar in ((2 + 0.5j, 1 + 2.5j), (2 + 0.5j, 1 - 3.5j)):
        for _ in range(50):
            g = complex(*rng.standard_normal(2))
            rows = [((d_w + d_wbar).real, (d_wbar - d_w).imag, -g.real),
                    ((d_w + d_wbar).imag, (d_w - d_wbar).real, -g.imag)]
            assert abs(rows[0][0]) == abs(rows[1][0])
            assert _newton_step(d_w, d_wbar, g) == eliminate(rows)
            differs += eliminate(rows) != eliminate(rows[::-1])
    assert differs > 0  # the pivot order shows in the last bits


def test_cached_bloch_grid_is_read_only():
    for arr in qstate._bloch_grid(5):
        assert not arr.flags.writeable


@pytest.mark.parametrize("n", range(3, 9))
def test_grid_starts_match_full_sort(n, monkeypatch):
    # reference: meshgrid, the power sum and a full stable argsort of the
    # overlaps rounded to 12 digits; the starts are read off the Newton calls
    t = np.linspace(0.0, np.pi, 64)
    phi = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    cb0, cb1 = np.cos(tt / 2), np.sin(tt / 2) * np.exp(-1j * pp)
    rng = np.random.default_rng(40 + n)
    states = [random_symmetric(n, rng, entangled=False) for _ in range(4)]
    states += [SymmetricState.ghz(n, theta) for theta in (0.3, np.pi / 4, 1.2)]
    states += [SymmetricState.w(n)] + [SymmetricState(n, row) for row in np.eye(n + 1)]
    starts = []
    newton = qstate._majorana_newton
    monkeypatch.setattr(qstate, "_majorana_newton",
                        lambda coeffs, w: starts.append(w) or newton(coeffs, w))
    for s in states:
        vals = np.abs(sum(s.h[k] * math.comb(n, k) * cb0 ** (n - k) * cb1 ** k
                          for k in range(n + 1)))
        expected = []
        for flat in np.argsort(-np.round(vals, 12), axis=None, kind="stable")[:5]:
            i, j = np.unravel_index(flat, vals.shape)
            c, sig = math.cos(t[i] / 2), math.sin(t[i] / 2) * cmath.exp(-1j * phi[j])
            expected.append(c / sig if abs(sig) > c else sig / c)
        starts.clear()
        closest_product_state(s)
        assert starts == expected


@pytest.mark.parametrize("n", range(3, 9))
def test_separable_grid_ranks_like_the_horner_sum(n):
    # the leading _REFINE_STARTS cells of the overlaps rounded to 12 digits,
    # from the separable product and from _overlap's Horner sum on the same
    # grid; W and Dicke states tie along each ring of maxima, and the cells
    # phi and 2 pi - phi of a state with real coefficients tie exactly
    t, phi, cos_pow, phases = qstate._bloch_grid(n)
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    c, sig = np.cos(tt / 2), np.sin(tt / 2) * np.exp(-1j * pp)
    rng = np.random.default_rng(90 + n)
    states = [random_symmetric(n, rng, entangled=False) for _ in range(20)]
    states += [SymmetricState.ghz(n, theta) for theta in np.linspace(0.1, 1.5, 8)]
    states += [SymmetricState.w(n)] + [SymmetricState(n, row) for row in np.eye(n + 1)]
    states += [SymmetricState(n, rng.standard_normal(n + 1)) for _ in range(5)]
    for s in states:
        coeffs = [complex(s.h[k]) * math.comb(n, k) for k in range(n + 1)]
        separable = np.abs((cos_pow * coeffs) @ phases)
        starts = [np.argsort(-np.round(v, 12), axis=None, kind="stable")[:qstate._REFINE_STARTS]
                  for v in (np.abs(qstate._overlap(coeffs, c, sig)), separable)]
        assert (starts[0] == starts[1]).all()
        if not s.h.imag.any():
            assert (separable[:, 1:] == separable[:, :0:-1]).all()


def test_closest_product_overlap_phased_real():
    rng = np.random.default_rng(11)
    for n in (3, 4):
        s = random_symmetric(n, rng, entangled=False)
        beta, overlap = closest_product_state(s)
        amps = dicke_expand(s).tensor()
        for _ in range(n):
            amps = np.tensordot(beta.conj(), amps, axes=(0, 0))
        assert abs(complex(amps) - overlap) < 1e-8


def test_magic_basis_balanced_ghz_keeps_basis():
    s = SymmetricState.ghz(3, np.pi / 4)
    sm, u = to_magic_basis(s)
    assert np.allclose(u, np.eye(2), atol=1e-8)
    assert np.allclose(sm.h, s.h, atol=1e-8)


def test_magic_basis_properties():
    rng = np.random.default_rng(5)
    for n in (3, 4, 5):
        s = random_symmetric(n, rng, entangled=False)
        sm, u = to_magic_basis(s)
        assert abs(sm.h[1]) <= 1e-8
        assert sm.h[0].real > 0
        assert abs(sm.h[0].imag) < 1e-10
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_magic_basis_rotation_consistency():
    # rotating the expanded state by u on every party must reproduce the
    # reported coefficients
    rng = np.random.default_rng(6)
    for n in range(3, 9):
        s = random_symmetric(n, rng, entangled=False)
        sm, u = to_magic_basis(s)
        t = dicke_expand(s).tensor()
        for axis in range(n):
            t = np.moveaxis(np.tensordot(u, t, axes=(1, axis)), 0, axis)
        assert np.allclose(t.reshape(-1), dicke_expand(sm).amplitudes, atol=1e-10)


@st.composite
def dicke_coefficients(draw):
    n = draw(st.integers(3, 8))
    part = st.floats(-1.0, 1.0, allow_subnormal=False)
    h = np.array([complex(draw(part), draw(part)) for _ in range(n + 1)])
    return n, h


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(dicke_coefficients())
def test_magic_basis_properties_hold_for_any_state(case):
    n, h = case
    assume(np.linalg.norm(h) >= 1e-3)
    s = SymmetricState(n, h)
    sm, u = to_magic_basis(s)
    _, overlap = closest_product_state(s)
    assert abs(sm.h[1]) <= 1e-8
    assert sm.h[0].real > 0
    assert abs(sm.h[0].imag) <= 1e-12
    assert abs(sm.h[0].real - overlap) <= 1e-12
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_haar_random_is_deterministic():
    a = haar_random_pure(3, 99)
    b = haar_random_pure(3, 99)
    c = haar_random_pure(3, 100)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.allclose(a.amplitudes, c.amplitudes)


def test_entanglement_check_cases():
    assert genuine_entanglement_check(dicke_expand(SymmetricState.ghz(3, np.pi / 4)), 1e-4)
    product = np.zeros(8)
    product[0] = 1.0
    assert not genuine_entanglement_check(PureState(3, product), 1e-4)
    bell_and_spectator = np.zeros(8)
    bell_and_spectator[0b000] = 1 / np.sqrt(2)
    bell_and_spectator[0b110] = 1 / np.sqrt(2)
    assert not genuine_entanglement_check(PureState(3, bell_and_spectator), 1e-4)


def second_schmidt(psi, side):
    """Second Schmidt coefficient of psi across the cut side | rest, side a
    tuple of 0-based parties."""
    m = np.moveaxis(psi.tensor(), side, range(len(side))).reshape(2 ** len(side), -1)
    return np.linalg.svd(m, compute_uv=False)[1]


def proper_subsets(n):
    """All 2^n - 2 nonempty proper subsets of the parties, so every cut twice."""
    return [tuple(p for p in range(n) if mask >> p & 1) for mask in range(1, 2 ** n - 1)]


def second_schmidt_min(psi):
    """Smallest second Schmidt coefficient of psi over every cut."""
    return min(second_schmidt(psi, side) for side in proper_subsets(psi.n))


@pytest.mark.parametrize("pairs", (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))))
def test_entanglement_check_fails_on_two_bell_pairs(pairs):
    # entangled across every 1|3 cut and two of the three 2|2 cuts; only the
    # cut between the two pairs is a product
    letters = "abcd"
    spec = ",".join(letters[p] + letters[q] for p, q in pairs) + "->abcd"
    psi = PureState(4, np.einsum(spec, np.eye(2), np.eye(2)))
    for side in proper_subsets(4):
        split = side in pairs or tuple(p for p in range(4) if p not in side) in pairs
        assert (second_schmidt(psi, side) < 1e-12) == split
    assert not genuine_entanglement_check(psi, 1e-4)


def assert_symmetric_check_agrees(s, eps):
    assert genuine_entanglement_check(s, eps) == genuine_entanglement_check(
        dicke_expand(s), eps)


@pytest.mark.parametrize("n", range(3, 9))
def test_symmetric_entanglement_check_matches_all_cuts(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        s = random_symmetric(n, rng, entangled=False)
        m = second_schmidt_min(dicke_expand(s))
        for eps in (1e-8, 1e-4, m * (1 - 1e-6), m * (1 + 1e-6), 0.5):
            assert_symmetric_check_agrees(s, eps)
        assert genuine_entanglement_check(s, m * (1 - 1e-6))
        assert not genuine_entanglement_check(s, m * (1 + 1e-6))


@pytest.mark.parametrize("n", range(2, 9))
def test_cached_dicke_cuts_match_the_cut_matrices(n):
    # h[i + j] sqrt(C(k, i) C(n - k, j)) element by element, bit for bit
    rng = np.random.default_rng(300 + n)
    states = [random_symmetric(n, rng, entangled=False) for _ in range(5)]
    states += [SymmetricState.ghz(n, 0.3), SymmetricState.w(n),
               SymmetricState(n, rng.standard_normal(n + 1))]
    cuts = qstate._dicke_cuts(n)
    assert len(cuts) == n // 2
    for k, (index, weight) in enumerate(cuts, start=1):
        assert not index.flags.writeable and not weight.flags.writeable
        for s in states:
            ref = np.array([[s.h[i + j] * math.sqrt(math.comb(k, i) * math.comb(n - k, j))
                             for j in range(n - k + 1)] for i in range(k + 1)])
            got = s.h[index] * weight
            assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())


@pytest.mark.parametrize("n", range(3, 9))
def test_symmetric_entanglement_check_ghz_w_and_products(n):
    for theta in (0.0, 0.1, np.pi / 4, 1.3, np.pi / 2):
        s = SymmetricState.ghz(n, theta)
        assert_symmetric_check_agrees(s, 1e-8)
        assert genuine_entanglement_check(s, 1e-8) == (0.0 < theta < np.pi / 2)
    assert genuine_entanglement_check(SymmetricState.w(n), 1e-8)
    assert_symmetric_check_agrees(SymmetricState.w(n), 1e-8)
    rng = np.random.default_rng(200 + n)
    for _ in range(3):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        product = SymmetricState(n, [a ** (n - k) * b ** k for k in range(n + 1)])
        assert not genuine_entanglement_check(product, 1e-8)
        assert_symmetric_check_agrees(product, 1e-8)


@pytest.mark.parametrize("n", (3, 6, 8))
@pytest.mark.parametrize("factor", (1 - 1e-6, 1 + 1e-6))
def test_symmetric_entanglement_check_at_eps(n, factor):
    # GHZ(theta) has Schmidt coefficients cos(theta), sin(theta) on every cut
    eps = 1e-8
    s = SymmetricState.ghz(n, np.arcsin(eps * factor))
    assert genuine_entanglement_check(s, eps) == (factor > 1)
    assert_symmetric_check_agrees(s, eps)
