import numpy as np
import pytest

from nonloc import (DimensionMismatch, JointDistribution, MeasurementSettings,
                    PureState, Ray, SignalingDistribution, SymmetricState,
                    bilocal_ns_vertices, born_distribution, classify,
                    deterministic_local_vertices, dicke_expand, inequality1,
                    inequality2, lp_membership, ns_bipartite_vertices,
                    ns_residual, solve_auto, solve_settings)


def chsh(p: np.ndarray) -> float:
    """Largest CHSH value over all sign orientations of the functional."""
    corr = np.empty(4)
    for s in range(4):
        corr[s] = sum((-1) ** ((r >> 1) ^ (r & 1)) * p[s, r] for r in range(4))
    best = 0.0
    for alpha in (0, 1):
        for beta in (0, 1):
            signs = [(-1) ** ((x & y) ^ (alpha & x) ^ (beta & y))
                     for x in (0, 1) for y in (0, 1)]
            best = max(best, abs(float(np.dot(signs, corr))))
    return best


def test_vertex_counts():
    assert len(ns_bipartite_vertices()) == 24
    assert deterministic_local_vertices(2).columns.shape == (16, 4, 4)
    assert deterministic_local_vertices(3).columns.shape == (64, 8, 8)
    assert bilocal_ns_vertices().columns.shape == (288, 8, 8)


def test_pair_boxes_are_non_signaling_and_normalized():
    for box in ns_bipartite_vertices():
        d = JointDistribution(2, box.table)
        assert ns_residual(d) == 0.0


def test_pr_boxes_reach_chsh_four():
    values = [chsh(box.table) for box in ns_bipartite_vertices()
              if box.kind == "pr-box-class"]
    assert len(values) == 8
    assert all(abs(v - 4.0) < 1e-12 for v in values)


def test_deterministic_boxes_stay_at_chsh_two():
    values = [chsh(box.table) for box in ns_bipartite_vertices()
              if box.kind == "deterministic"]
    assert len(values) == 16
    assert all(v <= 2.0 + 1e-12 for v in values)


def test_bilocal_set_contains_every_cut():
    vs = bilocal_ns_vertices()
    lones = {bip[0] for bip in vs.bipartitions}
    assert lones == {1, 2, 3}


def test_uniform_table_is_local():
    d = JointDistribution(3, np.full((8, 8), 1 / 8))
    out = lp_membership(d, deterministic_local_vertices(3))
    assert out.feasible
    recon = np.einsum("c,csr->sr", out.weights,
                      deterministic_local_vertices(3).columns)
    assert np.abs(recon - d.p).max() <= 1e-9


def test_vertex_self_membership(rng):
    vs = bilocal_ns_vertices()
    for idx in rng.choice(len(vs.columns), size=6, replace=False):
        out = lp_membership(JointDistribution(3, vs.columns[idx]), vs)
        assert out.feasible


def test_local_vertices_are_bilocal(rng):
    local = deterministic_local_vertices(3)
    vs = bilocal_ns_vertices()
    for idx in rng.choice(len(local.columns), size=6, replace=False):
        assert lp_membership(JointDistribution(3, local.columns[idx]), vs).feasible


def test_random_bilocal_mixtures_are_feasible(rng):
    vs = bilocal_ns_vertices()
    for _ in range(10):
        w = rng.random(len(vs.columns))
        w /= w.sum()
        d = JointDistribution(3, np.einsum("c,csr->sr", w, vs.columns))
        out = lp_membership(d, vs)
        assert out.feasible


def test_inequalities_vanish_on_vertices_at_most():
    vs = bilocal_ns_vertices()
    worst1 = max(inequality1(JointDistribution(3, col), pivot)
                 for col in vs.columns for pivot in (1, 2, 3))
    worst2 = max(inequality2(JointDistribution(3, col)) for col in vs.columns)
    assert worst1 <= 1e-12
    assert worst2 <= 1e-12


def test_ghz_hardy_is_genuinely_nonlocal(ghz3_solution):
    d = born_distribution(dicke_expand(SymmetricState.ghz(3, np.pi / 4)),
                          ghz3_solution.settings)
    label, outcome = classify(d)
    assert label == "genuinely-nonlocal"
    assert not outcome.feasible
    assert outcome.margin > 1e-6


def test_lp_reports_simplex_pivots():
    w = SymmetricState.w(3)
    d = born_distribution(dicke_expand(w), solve_settings(w, 1.0).settings)
    out = lp_membership(d, bilocal_ns_vertices())
    assert not out.feasible
    assert out.iterations > 0
    label, outcome = classify(d)
    assert label == "genuinely-nonlocal"
    assert outcome.iterations == out.iterations


def test_certificate_is_sound(ghz3_solution):
    d = born_distribution(dicke_expand(SymmetricState.ghz(3, np.pi / 4)),
                          ghz3_solution.settings)
    out = lp_membership(d, bilocal_ns_vertices())
    cert = out.certificate
    col_vals = np.einsum("csr,sr->c", bilocal_ns_vertices().columns, cert)
    assert col_vals.max() <= 1e-12
    assert abs((cert * d.p).sum() - out.margin) < 1e-12
    assert out.margin > 0


def test_bell_pair_with_spectator_is_bilocal_only():
    # Tsirelson-angle settings on a Bell pair violate CHSH, so the table is
    # nonlocal, but the third party is product and the cut {3} stays NS
    amps = np.zeros(8)
    amps[0b000] = amps[0b110] = 1 / np.sqrt(2)
    psi = PureState(3, amps)

    def ray(angle):
        return Ray(np.cos(angle / 2), np.sin(angle / 2))

    pairs = ((ray(0.0), ray(np.pi / 2)),
             (ray(np.pi / 4), ray(-np.pi / 4)),
             (Ray(1.0, 0.0), Ray(1.0, 1.0)))
    d = born_distribution(psi, MeasurementSettings(3, pairs))
    label, outcome = classify(d)
    assert label == "nonlocal-but-bilocal"
    assert outcome.feasible


def test_w_hardy_is_genuinely_nonlocal():
    sol = solve_auto(SymmetricState.w(3))
    d = born_distribution(dicke_expand(SymmetricState.w(3)), sol.settings)
    label, outcome = classify(d)
    assert label == "genuinely-nonlocal"
    assert outcome.margin > 1e-6


def test_membership_rejects_wrong_party_count():
    with pytest.raises(DimensionMismatch):
        lp_membership(JointDistribution(2, np.full((4, 4), 0.25)),
                      bilocal_ns_vertices())
    with pytest.raises(DimensionMismatch):
        classify(JointDistribution(2, np.full((4, 4), 0.25)))


def test_membership_rejects_signaling_table():
    p = np.zeros((8, 8))
    p[:, 0] = 1.0
    p[1, 0] = 0.0
    p[1, 1] = 1.0
    with pytest.raises(SignalingDistribution):
        lp_membership(JointDistribution(3, p), bilocal_ns_vertices())
