import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonloc import (DimensionMismatch, JointDistribution, MeasurementSettings,
                    PureState, Ray, SignalingDistribution, SymmetricState,
                    bilocal_ns_vertices, born_distribution, classify,
                    deterministic_local_vertices, dicke_expand, inequality1,
                    inequality2, lp_membership, ns_bipartite_vertices,
                    ns_residual, solve_auto, solve_settings)
from nonloc import polytope, simplex
from conftest import random_settings


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
        d = JointDistribution(2, box)
        assert ns_residual(d) == 0.0


def test_pr_boxes_reach_chsh_four():
    values = [chsh(box) for box in ns_bipartite_vertices()[16:]]
    assert len(values) == 8
    assert all(abs(v - 4.0) < 1e-12 for v in values)


def test_deterministic_boxes_stay_at_chsh_two():
    values = [chsh(box) for box in ns_bipartite_vertices()[:16]]
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


def _bits(x: int, n: int) -> list[int]:
    """The n bits of a packed index, party 1 first."""
    return [(x >> (n - 1 - k)) & 1 for k in range(n)]


@pytest.mark.parametrize("n", (2, 3, 4))
def test_local_vertices_match_explicit_deltas(n):
    vs = deterministic_local_vertices(n)
    ref = np.zeros((4 ** n, 2 ** n, 2 ** n))
    # column order: party 1's strategy slowest; strategy 2 * g0 + g1 is r = g_s
    for c, combo in enumerate(itertools.product(range(4), repeat=n)):
        for s in range(2 ** n):
            for r in range(2 ** n):
                ref[c, s, r] = all(r_k == (g >> (1 - s_k)) & 1 for g, s_k, r_k
                                   in zip(combo, _bits(s, n), _bits(r, n)))
    assert vs.columns.dtype == ref.dtype and np.array_equal(vs.columns, ref)
    assert vs.bipartitions == (None,) * 4 ** n


def test_bilocal_vertices_match_explicit_products():
    vs = bilocal_ns_vertices()
    boxes = ns_bipartite_vertices()
    ref, tags = [], []
    for lone in (1, 2, 3):
        a, b = (q for q in (1, 2, 3) if q != lone)
        for g, box in itertools.product(range(4), boxes):
            col = np.zeros((8, 8))
            for s, r in itertools.product(range(8), repeat=2):
                sb, rb = _bits(s, 3), _bits(r, 3)
                single = float(rb[lone - 1] == (g >> (1 - sb[lone - 1])) & 1)
                pair = box[2 * sb[a - 1] + sb[b - 1], 2 * rb[a - 1] + rb[b - 1]]
                col[s, r] = single * pair
            ref.append(col)
            tags.append((lone,))
    assert np.array_equal(vs.columns, np.stack(ref))
    assert vs.bipartitions == tuple(tags)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_collins_gisin_map_is_injective_on_the_local_span(n):
    cg, proj = polytope._ns_maps(n)
    local = deterministic_local_vertices(n).columns.reshape(4 ** n, -1).T
    assert cg.shape == (3 ** n, 4 ** n)
    assert np.linalg.matrix_rank(local) == 3 ** n
    assert np.linalg.matrix_rank(cg @ local) == 3 ** n
    assert np.abs(proj @ local - local).max() <= 1e-12
    assert np.linalg.matrix_rank(proj) == 3 ** n


def _hardy_table(s):
    return born_distribution(dicke_expand(s), solve_auto(s).settings)


def _off_local_span(cert: np.ndarray) -> float:
    """Size of a table's component off the span of the local vertices,
    by least squares on the vertices rather than the solver's projector."""
    n = int(np.log2(cert.shape[0]))
    local = deterministic_local_vertices(n).columns.reshape(4 ** n, -1).T
    coef = np.linalg.lstsq(local, cert.reshape(-1), rcond=None)[0]
    return float(np.abs(local @ coef - cert.reshape(-1)).max())


def _assert_certifies(vs, d, out):
    assert not out.feasible
    col_vals = np.einsum("csr,sr->c", vs.columns, out.certificate)
    assert col_vals.max() <= 1e-12
    assert abs((out.certificate * d.p).sum() - out.margin) < 1e-12
    assert out.margin > 0


def test_hardy_certificates_lie_in_the_ns_span_with_parent_margins():
    vs = bilocal_ns_vertices()
    margins = []
    for s in (SymmetricState.ghz(3, np.pi / 4), SymmetricState.w(3)):
        d = _hardy_table(s)
        out = lp_membership(d, vs)
        _assert_certifies(vs, d, out)
        assert _off_local_span(out.certificate) <= 1e-12
        margins.append(out.margin)
    assert margins[0] >= 3.36e-3 and margins[1] >= 6.21e-3


@pytest.mark.parametrize("delta", (2e-9, 5e-9, 9e-9))
def test_slightly_signaling_tables_are_certified_outside(delta, rng):
    vs = bilocal_ns_vertices()
    bases = [_hardy_table(SymmetricState.ghz(3, np.pi / 4)).p]
    for _ in range(6):
        bases.append(np.einsum("c,csr->sr", rng.dirichlet(np.ones(len(vs.columns))),
                               vs.columns))
    for base in bases:
        p = base.copy()
        s = rng.integers(8)
        p[s, 0] -= delta          # party 1's outcome flips at one setting only:
        p[s, 4] += delta          # the other parties' marginals then signal
        d = JointDistribution(3, p)
        assert 1e-9 < ns_residual(d) <= 1e-8
        for model in (deterministic_local_vertices(3), vs):
            _assert_certifies(model, d, lp_membership(d, model))


def _criterion_6_mixtures(count: int):
    vs = bilocal_ns_vertices()
    rng = np.random.default_rng(606)
    for i in range(count):
        if i % 2 == 0:
            w = rng.random(len(vs.columns))
        else:
            w = np.zeros(len(vs.columns))
            chosen = rng.choice(len(vs.columns), size=rng.integers(1, 12),
                                replace=False)
            w[chosen] = rng.random(len(chosen))
        w /= w.sum()
        yield JointDistribution(3, np.einsum("c,csr->sr", w, vs.columns))


def test_bland_rule_alone_keeps_every_verdict(monkeypatch):
    vs = bilocal_ns_vertices()
    hardy = [_hardy_table(s) for s in (SymmetricState.ghz(3, np.pi / 4),
                                       SymmetricState.w(3))]
    mixtures = list(_criterion_6_mixtures(100))
    dantzig = [lp_membership(d, vs).iterations for d in hardy + mixtures]
    monkeypatch.setattr(simplex, "_DEGENERATE_STREAK", 0)
    bland = []
    for d in hardy:
        out = lp_membership(d, vs)
        _assert_certifies(vs, d, out)
        bland.append(out.iterations)
    for d in mixtures:
        out = lp_membership(d, vs)
        assert out.feasible
        bland.append(out.iterations)
    assert bland != dantzig    # the patched rule did take over


def test_hardy_tables_at_four_parties_are_certified_nonlocal():
    vs = deterministic_local_vertices(4)
    assert len(vs.columns) == 256
    for s in (SymmetricState.ghz(4, np.pi / 4), SymmetricState.w(4),
              SymmetricState.ghz(4, 0.3)):
        d = _hardy_table(s)
        _assert_certifies(vs, d, lp_membership(d, vs))
    w = np.random.default_rng(404).dirichlet(np.ones(len(vs.columns)))
    d = JointDistribution(4, np.einsum("c,csr->sr", w, vs.columns))
    out = lp_membership(d, vs)
    assert out.feasible
    recon = np.einsum("c,csr->sr", out.weights, vs.columns)
    assert np.abs(recon - d.p).max() <= 1e-9


def _highs_feasible(d: JointDistribution, vs) -> bool:
    """Membership by HiGHS on the full system: every table entry plus the
    normalization of the weights."""
    from scipy.optimize import linprog
    cols = vs.columns.reshape(len(vs.columns), -1).T
    a_eq = np.vstack([cols, np.ones((1, cols.shape[1]))])
    b_eq = np.concatenate([d.p.reshape(-1), [1.0]])
    res = linprog(np.zeros(cols.shape[1]), A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_membership_agrees_with_highs_on_born_tables(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    d = born_distribution(PureState(3, v), random_settings(3, rng))
    for vs in (deterministic_local_vertices(3), bilocal_ns_vertices()):
        out = lp_membership(d, vs)
        assert out.feasible == _highs_feasible(d, vs)
        if not out.feasible:
            _assert_certifies(vs, d, out)
            assert _off_local_span(out.certificate) <= 1e-12


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8))
def test_membership_agrees_with_highs_on_bilocal_mixtures(seed, size):
    rng = np.random.default_rng(seed)
    vs = bilocal_ns_vertices()
    chosen = rng.choice(len(vs.columns), size=size, replace=False)
    p = np.einsum("c,csr->sr", rng.dirichlet(np.ones(size)), vs.columns[chosen])
    d = JointDistribution(3, p)
    for model in (deterministic_local_vertices(3), vs):
        assert lp_membership(d, model).feasible == _highs_feasible(d, model)


def _assert_classify_matches_cold(d: JointDistribution) -> None:
    """classify's deciding outcome equals a cold call on the same model."""
    label, outcome = classify(d)
    model = deterministic_local_vertices(3) if label == "local" else bilocal_ns_vertices()
    cold = lp_membership(d, model)
    assert outcome.feasible == cold.feasible
    assert outcome.iterations == cold.iterations
    assert outcome.margin == cold.margin
    for got, want in ((outcome.certificate, cold.certificate),
                      (outcome.weights, cold.weights)):
        assert (got is None) == (want is None)
        assert got is None or got.tobytes() == want.tobytes()


def test_classify_resume_matches_a_cold_bilocal_lp():
    hardy = [_hardy_table(s) for s in (SymmetricState.ghz(3, np.pi / 4),
                                       SymmetricState.w(3))]
    for d in hardy + list(_criterion_6_mixtures(100)):
        _assert_classify_matches_cold(d)
    margins = [classify(d)[1].margin for d in hardy]
    assert margins[0] >= 6.11e-3 and margins[1] >= 1.12e-2


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_classify_resume_matches_cold_lps_on_born_tables(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    _assert_classify_matches_cold(born_distribution(PureState(3, v),
                                                    random_settings(3, rng)))


def test_lp_columns_put_the_local_block_first():
    vs, local = bilocal_ns_vertices(), deterministic_local_vertices(3)
    order, cols, k = polytope._lp_columns(vs)
    assert k == 64 and len(order) == 160
    assert np.array_equal(vs.columns[order[:k]], local.columns)
    assert all(i % 24 >= 16 for i in order[k:])   # the PR-box columns, once each
    assert len({vs.columns[i].tobytes() for i in order}) == 160
    assert np.array_equal(polytope._lp_columns(local)[0], np.arange(64))


def test_bilocal_weights_skip_duplicate_columns(rng):
    vs = bilocal_ns_vertices()
    seen, duplicates = set(), []
    for i, col in enumerate(vs.columns):
        key = col.tobytes()
        if key in seen:
            duplicates.append(i)
        seen.add(key)
    assert len(duplicates) == 128     # the local vertices' second and third copies
    for d in list(_criterion_6_mixtures(6)) + [JointDistribution(3, vs.columns[200])]:
        out = lp_membership(d, vs)
        assert out.feasible and out.weights.shape == (288,)
        assert not out.weights[duplicates].any()
        recon = np.einsum("c,csr->sr", out.weights, vs.columns)
        assert np.abs(recon - d.p).max() <= 1e-9


def test_membership_rejects_a_start_over_other_columns():
    vs = bilocal_ns_vertices()
    d = _hardy_table(SymmetricState.w(3))
    with pytest.raises(ValueError):
        lp_membership(d, vs, start=lp_membership(d, vs))


def _random_system(rng, rows: int, cols: int, feasible: bool):
    """A x = b with a random solution x >= 0, or with a first row whose
    entries are positive while its right-hand side is not."""
    a = rng.standard_normal((rows, cols))
    b = a @ rng.random(cols)
    if not feasible:
        a[0] = np.abs(a[0])
        b[0] = -1.0
    return a, b


@pytest.mark.parametrize("feasible", (True, False))
def test_resumed_simplex_agrees_with_a_cold_solve(rng, feasible):
    for _ in range(20):
        a, b = _random_system(rng, 6, 14, feasible)
        first = simplex.phase1_simplex(a[:, :5], b)
        resumed = simplex.phase1_simplex(a, b, start=first)
        cold = simplex.phase1_simplex(a, b)
        assert resumed.feasible == cold.feasible == feasible
        assert resumed.pivots >= first.pivots
        if resumed.feasible:
            assert resumed.x.min() >= 0.0
            assert np.abs(a @ resumed.x - b).max() <= 1e-9
        else:
            assert (resumed.y @ a).max() <= 1e-9 and resumed.y @ b > 1e-9


def test_resume_without_new_columns_keeps_the_verdict():
    a, cg = polytope._lp_columns(deterministic_local_vertices(3))[1], polytope._ns_maps(3)[0]
    hardy = _hardy_table(SymmetricState.ghz(3, np.pi / 4))
    for d in (hardy, JointDistribution(3, np.full((8, 8), 1 / 8))):
        b = cg @ d.p.reshape(-1)
        start = simplex.phase1_simplex(a, b)
        again = simplex.phase1_simplex(a, b, start=start)
        assert (again.feasible, again.pivots, again.objective) == \
            (start.feasible, start.pivots, start.objective)
        for got, want in ((again.x, start.x), (again.y, start.y)):
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got, want)


def test_resume_from_another_b_is_refused():
    a, b = _random_system(np.random.default_rng(7), 5, 9, True)
    start = simplex.phase1_simplex(a[:, :4], b)
    with pytest.raises(ValueError):
        simplex.phase1_simplex(a, b + 1e-3, start=start)
    with pytest.raises(ValueError):
        simplex.phase1_simplex(a[:, :3], b, start=start)


def _assert_phase1_invariants(res: simplex.Phase1Result, a: np.ndarray, b: np.ndarray):
    """Each artificial left in the final basis sits in its own row, and an
    infeasible verdict's own y is a Farkas vector: y.A <= 0 on every column
    while y.b is the positive phase-1 objective."""
    num = a.shape[1]
    rows = np.flatnonzero(res.basis >= num)
    assert np.array_equal(res.basis[rows], num + rows)
    if not res.feasible:
        assert (res.y @ a).max() <= 1e-9
        assert res.objective > 0 and abs(res.y @ b - res.objective) <= 1e-9


def _classify_systems(rng):
    """The bilocal LP of classify, (A, b, local columns), on the two Hardy
    tables, random Born tables and criterion 6's mixtures."""
    _, cols, local = polytope._lp_columns(bilocal_ns_vertices())
    cg = polytope._ns_maps(3)[0]
    tables = [_hardy_table(s) for s in (SymmetricState.ghz(3, np.pi / 4), SymmetricState.w(3))]
    for _ in range(12):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        tables.append(born_distribution(PureState(3, v), random_settings(3, rng)))
    tables += list(_criterion_6_mixtures(12))
    return [(cols, cg @ d.p.reshape(-1), local) for d in tables]


@pytest.mark.parametrize("streak", (simplex._DEGENERATE_STREAK, 0))
def test_phase1_keeps_artificials_in_their_rows_and_certifies_with_its_own_y(
        monkeypatch, streak):
    monkeypatch.setattr(simplex, "_DEGENERATE_STREAK", streak)
    rng = np.random.default_rng(1313)
    systems = [(*_random_system(rng, 6, 14, feasible), 5)
               for feasible in (True, False) for _ in range(10)]
    verdicts = set()
    for a, b, lead in systems + _classify_systems(rng):
        first = simplex.phase1_simplex(a[:, :lead], b)
        _assert_phase1_invariants(first, a[:, :lead], b)
        for res in (simplex.phase1_simplex(a, b, start=first), simplex.phase1_simplex(a, b)):
            _assert_phase1_invariants(res, a, b)
            verdicts.add((first.feasible, res.feasible))
    assert verdicts == {(True, True), (False, True), (False, False)}


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 256))
def test_membership_agrees_with_highs_at_four_parties(seed, size):
    rng = np.random.default_rng(seed)
    vs = deterministic_local_vertices(4)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    chosen = rng.choice(len(vs.columns), size=size, replace=False)
    mixture = np.einsum("c,csr->sr", rng.dirichlet(np.ones(size)), vs.columns[chosen])
    born = born_distribution(PureState(4, v), random_settings(4, rng))
    lam = rng.random()   # the Born table pulled toward the mixture, across the boundary
    for d in (born, JointDistribution(4, mixture),
              JointDistribution(4, lam * born.p + (1 - lam) * mixture)):
        out = lp_membership(d, vs)
        assert out.feasible == _highs_feasible(d, vs)
        if out.feasible:
            recon = np.einsum("c,csr->sr", out.weights, vs.columns)
            assert np.abs(recon - d.p).max() <= 1e-9
        else:
            _assert_certifies(vs, d, out)
