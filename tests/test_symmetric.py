import cmath
import math

import numpy as np
import pytest

from numpy.polynomial import polynomial as npoly

from nonloc import (DegenerateX, IdenticallyZeroPolynomial, MeasurementSettings,
                    NotEntangled, NumericalFailure, Ray, SingularDenominator,
                    SymmetricState, born_distribution, closest_product_state,
                    degenerate_x_roots, dicke_expand, f_poly_roots, ghz_closed_form,
                    hardy_conditions, phase_pick, solve_auto, solve_settings,
                    to_magic_basis, w_closed_form)
from nonloc import symmetric
from nonloc.symmetric import (_c_table, _companion_roots, _degeneracy_coeffs, _f_coeffs,
                              _horner, _polished_roots, _verified_p_success,
                              sweep_settings)
from conftest import random_ray, random_symmetric

GHZ34 = SymmetricState.ghz(3, np.pi / 4)
W3 = SymmetricState.w(3)


def _c_at(s, x):
    return [npoly.polyval(x, row) for row in _c_table(s)]


def test_c_coeffs_ghz():
    c0, c1, c2 = _c_at(GHZ34, 2j)
    assert abs(c0 - 1 / math.sqrt(2)) < 1e-12
    assert abs(c1) < 1e-12
    assert abs(c2 - 2j / math.sqrt(2)) < 1e-12


def test_c_coeffs_w():
    c0, c1, c2 = _c_at(W3, 1.0)
    assert abs(c0 - 1 / math.sqrt(3)) < 1e-12
    assert abs(c1 - 1 / math.sqrt(3)) < 1e-12
    assert abs(c2) < 1e-12


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def test_horner_matches_polyval_bitwise(rng):
    # stacked rows at an array of points, single complex and real rows at a
    # scalar and at real and complex points: polyval's operations, bit for bit
    for d in range(1, 16):
        c = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
        z = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        t = np.abs(rng.standard_normal(5))
        x = complex(*rng.standard_normal(2))
        assert _bits(_horner(c, z)) == _bits(npoly.polyval(z, c.T))
        for row in (c[0], c[1].real):
            for at in (x, t, z):
                assert _bits(_horner(row, at)) == _bits(npoly.polyval(at, row))


def test_polish_keeps_polyvals_newton_steps_that_lower_p(rng):
    # each root takes polyval's Newton steps on p and polyder(p), bit for bit,
    # from the same companion root, for as long as each step strictly lowers |p|
    taken = np.zeros(3, dtype=int)
    for d in range(2, 15):
        for p in (rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1),
                  rng.standard_normal(d + 1)):
            chain = [_companion_roots(p)]
            for _ in range(2):
                num, den = npoly.polyval(chain[-1], p), npoly.polyval(chain[-1], npoly.polyder(p))
                safe = np.abs(den) > 1e-300
                chain.append(np.where(safe, chain[-1] - num / np.where(safe, den, 1.0), chain[-1]))
            size = [np.abs(npoly.polyval(roots, p)) for roots in chain]
            kept = (size[1] < size[0]) * (1 + (size[2] < size[1]))
            got = _polished_roots(p)
            for k in range(got.size):
                assert _bits(got[k]) == _bits(chain[kept[k]][k])
            assert (np.abs(npoly.polyval(got, p)) <= size[0]).all()
            taken += np.bincount(kept, minlength=3)
    assert taken.min() > 0    # roots left alone, stepped once and stepped twice


def test_polish_keeps_a_double_root():
    # a phased W_3: its degeneracy polynomial has an exact double root, which
    # unconditional Newton steps threw off to |p| ~ 1e-2
    s = SymmetricState(3, [0, 0.415954592009539 + 0.4003936946550373j, 0, 0])
    sol = solve_auto(s)
    assert sol.p_success > 1e-3


def _npoly_degeneracy(c):
    return npoly.polysub(npoly.polymul(c[1], c[1]), npoly.polymul(c[0], c[2]))


def _npoly_f(c, w):
    e = cmath.exp(1j * w)
    fwd = [row * e ** np.arange(row.size) for row in c]
    rev = [np.conj(row) * np.conj(e) ** np.arange(row.size) for row in c]
    f = npoly.polyadd(npoly.polymul(fwd[1], rev[2]), npoly.polymul(fwd[0], rev[1]))
    lin = npoly.polysub(npoly.polymul(fwd[2], rev[2]), npoly.polymul(fwd[0], rev[0]))
    f = npoly.polyadd(f, e * npoly.polymulx(lin))
    quad = npoly.polyadd(npoly.polymul(rev[1], fwd[2]), npoly.polymul(rev[0], fwd[1]))
    return npoly.polysub(f, e ** 2 * npoly.polymulx(npoly.polymulx(quad)))


def test_degeneracy_and_f_coefficients_match_npoly(rng):
    # bit for bit where no c row ends in an exact zero; polymul drops such
    # zeros first, which can reorder np.convolve's sums, so there the two
    # agree to rounding and the longer array ends in exact zeros
    generic = [random_symmetric(n, rng) for n in range(3, 9) for _ in range(5)]
    sparse = []
    for n in range(3, 9):
        sparse += [SymmetricState.w(n), SymmetricState.ghz(n, 0.7)]
        sparse += [SymmetricState(n, row) for row in np.eye(n + 1)[1:-1]]
        h = rng.standard_normal(n + 1)
        h[rng.integers(n + 1)] = 0.0
        sparse.append(SymmetricState(n, h))
    for s in generic + sparse:
        c = _c_table(s)
        w = rng.uniform(0.0, 2 * np.pi)
        for got, ref in ((_degeneracy_coeffs(c), _npoly_degeneracy(c)),
                         (_f_coeffs(c, w), _npoly_f(c, w))):
            if s in generic:
                assert _bits(got) == _bits(ref)
            else:
                assert np.all(got[ref.size:] == 0)
                assert np.abs(got[:ref.size] - ref).max() <= 1e-14 * np.abs(ref).max()


def test_companion_roots_match_polyroots(rng):
    # to 1e-12 relative, not bitwise: NumPy 1.x's polyroots rotates the
    # companion matrix, 2.x does not, and the kernel keeps one layout
    for d in range(1, 15):
        for coeffs in (rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1),
                       rng.standard_normal(d + 1)):
            got, ref = _companion_roots(coeffs), npoly.polyroots(coeffs)
            assert got.shape == ref.shape
            for r in ref:
                assert np.abs(got - r).min() <= 1e-12 * abs(r)


def test_degenerate_roots_ghz():
    roots = degenerate_x_roots(GHZ34)
    assert len(roots) == 1
    assert abs(roots[0]) < 1e-10


def test_degenerate_root_of_large_modulus_is_accepted():
    # in the magic basis, c1^2 - c0*c2 of this n = 8 state has a root near
    # 31 - 35i, where the reduced matrix has singular values 3.3e9 and
    # 4.1e-7: rank 1 to machine precision, yet above an absolute 1e-8
    h = np.array([0.712783 + 0.702015j, -0.833773 + 0.165197j,
                  -1.568151 + 0.948244j, 0.302911 + 0.788134j,
                  -1.036173 - 0.234909j, 1.022871 - 0.455265j,
                  -0.591948 - 0.066525j, -0.851642 + 1.372402j,
                  0.717637 - 0.514836j])
    s = SymmetricState(8, h)
    sol = solve_auto(s)
    report = hardy_conditions(born_distribution(dicke_expand(s), sol.settings),
                              eps_zero=1e-8, delta_pos=1e-10)
    assert report.passed


def test_degenerate_roots_w_empty():
    assert degenerate_x_roots(W3) == ()


def test_degenerate_roots_product_state_raises():
    h = np.array([1.0, 0.5, 0.25, 0.125])
    with pytest.raises(IdenticallyZeroPolynomial):
        degenerate_x_roots(SymmetricState(3, h))


def test_f_roots_ghz_vertical_phase():
    roots = f_poly_roots(GHZ34, np.pi / 2)
    assert any(abs(t - 1.0) < 1e-8 for t in roots)
    assert all(t >= 0 for t in roots)


def test_phase_pick_vertical_when_h2_vanishes():
    assert abs(phase_pick(GHZ34) - np.pi / 2) < 1e-12


def test_phase_pick_centers_the_product(rng):
    for _ in range(10):
        s = random_symmetric(4, rng, entangled=False)
        if abs(s.h[2]) < 1e-6:
            continue
        w = phase_pick(s)
        z = s.h[0] * np.conj(s.h[2]) * cmath.exp(-2j * w)
        assert abs(z.real) < 1e-10 * abs(z)


def test_solver_fixture_ghz():
    sol = solve_settings(GHZ34, 2j)
    assert abs(sol.y1 - 0.25) < 1e-12
    assert abs(sol.y - 8j) < 1e-12
    assert abs(sol.x1 - 0.0625) < 1e-12
    assert abs(sol.p_success - 72 / 6425) < 1e-12


def test_solver_fixture_w():
    sol = solve_settings(W3, 1.0)
    assert abs(sol.y1 - (-2.0)) < 1e-12
    assert abs(sol.y - 2 / 3) < 1e-12
    assert abs(sol.x1 - (-5 / 3)) < 1e-12
    assert abs(sol.p_success - 1 / 408) < 1e-12


def test_solver_fixtures_verified_by_tensor_oracle():
    for s, x, p in ((GHZ34, 2j, 72 / 6425), (W3, 1.0, 1 / 408)):
        sol = solve_settings(s, x)
        report = hardy_conditions(born_distribution(dicke_expand(s), sol.settings),
                                  eps_zero=1e-10, delta_pos=1e-12)
        assert report.passed
        assert abs(report.p_success - p) < 1e-10


def test_excluded_x_raises():
    with pytest.raises(DegenerateX):
        solve_settings(GHZ34, 1.0)
    with pytest.raises(DegenerateX):
        solve_settings(GHZ34, 1e-8 + 1e-8j)


def test_excluded_moduli_recorded():
    sol = solve_settings(GHZ34, 2j)
    assert any(abs(t) < 1e-8 for t in sol.excluded_x)
    assert any(abs(t - 1.0) < 1e-8 for t in sol.excluded_x)


def _assert_records_each_root_once(s) -> int:
    """excluded_x lists the |degeneracy roots| and the F roots along the
    picked phase, in the magic basis where solve_auto solves, each modulus
    once; returns how many near-duplicates of the raw union it merged."""
    got = solve_auto(s).excluded_x
    sm, _ = to_magic_basis(s)
    union = {abs(r) for r in degenerate_x_roots(sm)} | set(f_poly_roots(sm, phase_pick(sm)))
    assert set(got) <= union
    assert all(min(abs(t - g) for g in got) <= 1e-12 * max(1.0, t) for t in union)
    assert all(b - a > 1e-12 * max(1.0, b) for a, b in zip(got, got[1:])), got
    return len(union) - len(got)


def test_solve_auto_records_the_roots_at_its_phase(rng):
    states = [random_symmetric(n, rng) for n in range(3, 9)]
    states += [SymmetricState.w(5), SymmetricState.ghz(4, 0.6)]
    for s in states:
        _assert_records_each_root_once(s)


def test_excluded_moduli_are_listed_once():
    # a conjugate pair of degeneracy roots, or one of them and an F root, can
    # give one modulus twice an ulp apart
    rng = np.random.default_rng(1213)
    merged = 0
    for trial in range(90):
        n = 3 + trial % 6
        h = rng.standard_normal(n + 1)
        if trial % 3 == 0:
            h[rng.integers(n + 1)] = 0.0
        elif trial % 3 == 2:
            h = h + 1j * rng.standard_normal(n + 1)
        merged += _assert_records_each_root_once(SymmetricState(n, h))
    assert merged > 0


def test_ghz_south_pole_leaves_no_noise_roots():
    # past theta = pi / 4 the closest product state is the pole |1..1>; a
    # Newton stop a rounding error short of it must not let that error pick
    # the phase, whose rotated state would put noise roots in excluded_x
    for n in range(3, 9):
        for theta in np.linspace(0.8, 1.55, 16):
            s = SymmetricState.ghz(n, theta)
            beta, _ = closest_product_state(s)
            assert beta[0] == 0, (n, theta)
            assert not any(0 < t < 1e-12 for t in solve_auto(s).excluded_x), (n, theta)


def test_solve_settings_raises_within_margin_of_each_root(rng):
    # GHZ34 has the F root |x| = 1 along phase pi / 2; the others only |x| = 0
    tried = 0
    for sm in [GHZ34] + [to_magic_basis(random_symmetric(n, rng))[0] for n in (3, 4, 5, 6)]:
        deg = degenerate_x_roots(sm)
        for r in deg:
            with pytest.raises(DegenerateX, match="degeneracy root"):
                solve_settings(sm, r + 3e-7 * cmath.exp(1j * r.imag))
            tried += 1
        w = phase_pick(sm)
        for t in f_poly_roots(sm, w):
            x = (t + 3e-7) * cmath.exp(1j * w)
            if all(abs(x - r) >= 1e-6 for r in deg):  # else that check fires first
                with pytest.raises(DegenerateX, match="excluded modulus"):
                    solve_settings(sm, x)
                tried += 1
    assert tried >= 25


def test_sweep_settings_matches_solve_settings(rng):
    # the sweep keeps exactly the moduli solve_settings solves at, with the
    # same solutions; GHZ34 drops its F root |x| = 1 along phase pi / 2
    moduli = np.arange(0.05, 3.0, 0.025)
    for s in [GHZ34, SymmetricState.w(4), random_symmetric(5, rng)]:
        w = phase_pick(s)
        expected = []
        for t in moduli:
            try:
                expected.append((t, solve_settings(s, t * cmath.exp(1j * w)).p_success))
            except (DegenerateX, SingularDenominator):
                pass
        got = [(t, sol.p_success) for t, sol in sweep_settings(s, w, moduli)]
        assert got == expected
        assert len(got) < len(moduli) if s is GHZ34 else len(got) > 0


def test_sweep_builds_one_c_table(monkeypatch):
    # the degeneracy roots, the F roots and the sweep's own solves each build
    # the table once, however many moduli the sweep tries
    calls = []
    table = symmetric._c_table
    monkeypatch.setattr(symmetric, "_c_table", lambda s: calls.append(s) or table(s))
    got = list(sweep_settings(GHZ34, np.pi / 2, np.arange(0.05, 3.0, 0.025)))
    assert len(got) > 100 and len(calls) == 3


def test_sweep_settings_is_empty_where_f_vanishes_identically():
    # (|000> + |D_2>) / sqrt(2) has F = 0 along phase pi / 2: every x there fails
    s = SymmetricState(3, np.array([1, 0, 1, 0]) / math.sqrt(2))
    with pytest.raises(DegenerateX, match="vanishes identically"):
        solve_settings(s, 1j)
    assert list(sweep_settings(s, math.pi / 2, [0.5, 1.5])) == []


def test_ghz_closed_form_matches_solver_and_tensor():
    for n in (3, 4, 5):
        for theta in (np.pi / 8, np.pi / 3):
            s = SymmetricState.ghz(n, theta)
            x = 0.7 + 1.1j
            p = ghz_closed_form(n, theta, x)
            sol = solve_settings(s, x)
            assert abs(p - sol.p_success) < 1e-12
            # direct kron evaluation of the success probability
            a1 = np.array([1.0, np.conj(sol.x1)])
            a = np.array([1.0, np.conj(x)])
            bra = a1
            for _ in range(n - 1):
                bra = np.kron(bra, a)
            amp = np.vdot(bra, dicke_expand(s).amplitudes)
            norms = (1 + abs(sol.x1) ** 2) * (1 + abs(x) ** 2) ** (n - 1)
            assert abs(p - abs(amp) ** 2 / norms) < 1e-10


def test_ghz_closed_form_zero_case():
    for n in (3, 4):
        theta = np.pi / 8
        t = 1 / math.tan(theta) ** (1 / (n - 2))
        assert abs(ghz_closed_form(n, theta, t * 1j)) < 1e-12


def test_w_closed_form_matches_solver():
    for n in (3, 4, 5):
        s = SymmetricState.w(n)
        x = 0.4 - 0.9j
        sol = solve_settings(s, x)
        assert abs(w_closed_form(n, x) - sol.p_success) < 1e-12


def test_w_closed_form_zero_case():
    for n in (3, 4, 5):
        t = math.sqrt(1 / (n - 1))
        assert abs(w_closed_form(n, t)) < 1e-12


def test_solve_auto_ghz_end_to_end():
    sol = solve_auto(GHZ34)
    report = hardy_conditions(born_distribution(dicke_expand(GHZ34), sol.settings),
                              eps_zero=1e-8, delta_pos=1e-10)
    assert report.passed
    assert abs(report.p_success - sol.p_success) < 1e-12


def test_solve_auto_w_end_to_end():
    sol = solve_auto(W3)
    report = hardy_conditions(born_distribution(dicke_expand(W3), sol.settings),
                              eps_zero=1e-8, delta_pos=1e-10)
    assert report.passed


def _reduced_check_passes(s, settings, eps_zero, delta_pos):
    try:
        _verified_p_success(_c_table(s), settings, eps_zero, delta_pos, "settings")
    except NumericalFailure:
        return False
    return True


def _matches_dense_oracle(s, settings, eps_zero, delta_pos):
    """Compare the O(n) check with the Born table of the dense state: success
    probability to 1e-12 relative, largest zero residual to 1e-14 absolute
    (the check passes just above the dense value and fails just below it), and
    the verdict at the given bounds, which is returned."""
    dense = hardy_conditions(born_distribution(dicke_expand(s), settings),
                             eps_zero=eps_zero, delta_pos=delta_pos)
    p = _verified_p_success(_c_table(s), settings, math.inf, -math.inf, "settings")
    assert abs(p - dense.p_success) <= 1e-12 * dense.p_success
    zero = max(dense.zero_residuals)
    assert _reduced_check_passes(s, settings, zero + 1e-14, -math.inf)
    assert not _reduced_check_passes(s, settings, zero - 1e-14, -math.inf)
    assert _reduced_check_passes(s, settings, eps_zero, delta_pos) == dense.passed
    return dense.passed


@pytest.mark.parametrize("n", range(3, 9))
def test_reduced_check_matches_the_dense_oracle(n):
    # solve_auto's rotated-back settings pass both; with y nudged by 1e-3 both
    # reject them; past theta = pi / 4 GHZ states rotate from the south pole,
    # and a shared ray at the pole, a = |1>, must not be divided by a_0 = 0
    rng = np.random.default_rng(70 + n)
    states = [random_symmetric(n, rng) for _ in range(3)]
    states += [SymmetricState.w(n), SymmetricState.ghz(n, 1.0), SymmetricState.ghz(n, 1.4)]
    for s in states:
        sol = solve_auto(s)
        assert _matches_dense_oracle(s, sol.settings, 1e-8, 1e-10)
        _, u = to_magic_basis(s)
        nudged = MeasurementSettings.from_shared_params(n, sol.x1, sol.y1, sol.x, sol.y + 1e-3)
        assert not _matches_dense_oracle(s, nudged.transformed(u.conj().T), 1e-10, 0.0)
        pole = MeasurementSettings(n, ((random_ray(rng), random_ray(rng)),)
                                   + ((Ray(0.0, 1.0), random_ray(rng)),) * (n - 1))
        assert not _matches_dense_oracle(s, pole, 1e-8, 1e-10)


def test_solve_auto_avoids_excluded_moduli():
    sol = solve_auto(GHZ34)
    for t in sol.excluded_x:
        assert abs(abs(sol.x) - t) > 0.04


def test_solve_auto_rejects_product_state():
    h = np.array([1.0, 0.5, 0.25, 0.125])
    with pytest.raises(NotEntangled):
        solve_auto(SymmetricState(3, h))


def test_solve_auto_rejects_two_parties():
    with pytest.raises(ValueError):
        solve_auto(SymmetricState.ghz(2, np.pi / 4))


def test_solve_auto_random_states(rng):
    for n in (3, 4, 5):
        for _ in range(10):
            s = random_symmetric(n, rng)
            sol = solve_auto(s)
            report = hardy_conditions(
                born_distribution(dicke_expand(s), sol.settings),
                eps_zero=1e-8, delta_pos=1e-10)
            assert report.passed
