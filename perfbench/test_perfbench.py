"""The benchmark's own checks: each rejects a corrupted output, and the
independent vertex enumeration and HiGHS verdicts agree with the program."""

import math
from dataclasses import replace

import numpy as np
import pytest

import nonloc
import checks
import run
import tracing
from workloads import LpClassify, SymmetricSolve


@pytest.fixture(scope="module")
def polytopes():
    return checks.Polytopes()


def _hardy_table(state: nonloc.SymmetricState):
    sol = nonloc.solve_auto(state)
    amps = checks.dicke_amplitudes(state.h)
    a, b = checks.settings_rays(sol.settings)
    return sol, amps, a, b, checks.born_table(amps, a, b)


@pytest.fixture(scope="module", params=["ghz3", "w3"])
def hardy3(request):
    state = (nonloc.SymmetricState.ghz(3, math.pi / 4) if request.param == "ghz3"
             else nonloc.SymmetricState.w(3))
    return _hardy_table(state)


def test_vertex_enumeration_matches_program(polytopes):
    assert polytopes.local.shape == (64, 64)
    assert polytopes.bilocal.shape == (288, 64)
    for vs, own in ((nonloc.deterministic_local_vertices(3), polytopes.local),
                    (nonloc.bilocal_ns_vertices(), polytopes.bilocal)):
        perm, problems = checks.match_columns(vs.columns, own)
        assert problems == [] and sorted(perm) == list(range(len(own)))


def test_match_columns_rejects_a_changed_column(polytopes):
    cols = nonloc.bilocal_ns_vertices().columns.copy()
    cols[5] = np.full((8, 8), 1 / 8)
    perm, problems = checks.match_columns(cols, polytopes.bilocal)
    assert perm is None and problems


def test_own_born_table_matches_program(hardy3):
    sol, amps, a, b, p = hardy3
    program = nonloc.born_distribution(nonloc.PureState(3, amps), sol.settings).p
    assert np.abs(program - p).max() < 1e-12


def test_highs_and_program_agree_on_hardy_tables(polytopes, hardy3):
    p = hardy3[-1]
    assert polytopes.label(p) == "genuinely-nonlocal"
    label, outcome = nonloc.classify(nonloc.JointDistribution(3, p))
    assert label == "genuinely-nonlocal"
    assert checks.check_outcome(polytopes.bilocal, p, outcome, inside=False) == []


def test_passing_check_accepts_solver_output(hardy3):
    sol, amps, a, b, _ = hardy3
    assert checks.check_passing(amps, a, b, 1e-8, 1e-10, sol.p_success) == []


def test_passing_check_rejects_a_perturbed_ray(hardy3):
    sol, amps, a, b, _ = hardy3
    b = list(b)
    b[1] = checks.unit(b[1] + np.array([1e-3, -1e-3j]))
    assert any("zero cell" in p for p in checks.check_passing(amps, a, b, 1e-8, 1e-10))


def test_passing_check_rejects_a_wrong_success_probability(hardy3):
    sol, amps, a, b, _ = hardy3
    problems = checks.check_passing(amps, a, b, 1e-8, 1e-10, sol.p_success * 1.001)
    assert any("disagrees" in p for p in problems)


def test_passing_check_requires_a_positive_witness():
    # |000> with every ray |0>: the success cell and the three single-b
    # cells are 1, the two pair cells 0, so the witness is 1 - 3
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0
    kets = [np.array([1.0, 0.0])] * 3
    problems = checks.check_passing(amps, kets, kets, 2.0, 0.0)
    assert problems == ["witness -2.000e+00 not positive"]


def test_certificate_check_rejects_scaled_and_flipped_certificates(polytopes, hardy3):
    p = hardy3[-1]
    outcome = nonloc.lp_membership(nonloc.JointDistribution(3, p),
                                   nonloc.bilocal_ns_vertices())
    assert not outcome.feasible
    for factor in (2.0, -1.0):
        bad = replace(outcome, certificate=outcome.certificate * factor)
        assert checks.check_outcome(polytopes.bilocal, p, bad, inside=False)
    assert checks.check_outcome(polytopes.bilocal, p, outcome, inside=True)


def test_weights_check_rejects_moved_weight(polytopes):
    vs = nonloc.bilocal_ns_vertices()
    perm, _ = checks.match_columns(vs.columns, polytopes.bilocal)
    ordered = polytopes.bilocal[perm]
    w = np.zeros(len(ordered))
    w[[3, 100, 250]] = (0.5, 0.3, 0.2)
    p = (w @ ordered).reshape(8, 8)
    outcome = nonloc.lp_membership(nonloc.JointDistribution(3, p), vs)
    assert checks.check_outcome(ordered, p, outcome, inside=True) == []
    moved = outcome.weights.copy()
    moved[np.argmax(moved)] -= 0.1
    moved[(np.argmax(moved) + 1) % len(moved)] += 0.1
    assert checks.check_weights(ordered, p, moved)


def test_symmetric_fixtures_pass():
    assert SymmetricSolve(nonloc).startup_checks() == []


@pytest.fixture(scope="module")
def classify_ops():
    workload = LpClassify(nonloc)
    workload.setup()
    assert workload.startup_checks() == []
    return workload.build(seed=1)


def test_classify_ops_check_clean_and_reject_a_flipped_label(classify_ops):
    kinds = {op.kind for op in classify_ops}
    assert kinds == {"random local", "random nonlocal", "bilocal mixture", "noisy Hardy"}
    flips = {"local": "nonlocal-but-bilocal", "nonlocal-but-bilocal": "local",
             "genuinely-nonlocal": "nonlocal-but-bilocal"}
    for op in classify_ops:
        label, outcome = op.run()
        assert op.check((label, outcome)) == []
        assert op.check((flips[label], outcome))


def test_measure_counts_whole_rounds_and_keeps_each_inputs_fastest_time(classify_ops):
    res = run.measure(classify_ops, 0.0, 2)
    assert (res.rounds, res.attempted, res.failed) == (2, 2 * len(classify_ops), 0)
    assert len(res.band_ms("a")) == sum(op.band == "a" for op in classify_ops)
    assert all(0 < t < math.inf for t in res.best_ms)
    assert res.ops_per_s() == pytest.approx(len(classify_ops) / (sum(res.best_ms) / 1e3))


def test_measure_counts_a_failing_input_in_every_round():
    from workloads import Op

    def fail():
        raise ValueError("always")

    ops = [Op("a", "ok", lambda: None, lambda out: []),
           Op(None, "fault", fail, lambda out: []),
           Op(None, "unrated", lambda: None, lambda out: [], rated=False)]
    res = run.measure(ops, 0.0, 3)
    assert (res.attempted, res.failed, res.wrong) == (9, 3, 0)
    assert res.best_ms[1] == math.inf and len(res.band_ms("a")) == 1
    assert res.ops_per_s() == pytest.approx(1e3 / res.best_ms[0])


def test_symmetric_bands_hold_twenty_inputs_of_one_size():
    ops = SymmetricSolve(nonloc).build(seed=1)
    for band, n in (("a", 5), ("b", 7)):
        kinds = [op.kind for op in ops if op.band == band]
        assert len(kinds) >= run.MIN_BAND_INPUTS
        assert {k.split()[0] for k in kinds} == {f"n={n}"}


def test_symmetric_search_op_checks_clean_and_rejects_a_perturbed_ray():
    workload = SymmetricSolve(nonloc)
    search = [op for op in workload.build(seed=1) if "find_settings" in op.kind]
    assert len(search) == 1 and not search[0].rated
    settings = search[0].run()
    assert search[0].check(settings) == []
    pairs = list(settings.pairs)
    ray = pairs[0][1]
    bent = nonloc.Ray(ray.c0 + 1e-3, ray.c1)
    pairs[0] = (pairs[0][0], bent)
    assert search[0].check(replace(settings, pairs=tuple(pairs)))


def test_tracer_restores_names_and_counts_lps(classify_ops):
    original = nonloc.polytope.lp_membership
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert nonloc.polytope.lp_membership is not original
        res = run.measure(classify_ops, 0.0, 1, tracer)
    finally:
        tracer.uninstall()
    assert nonloc.polytope.lp_membership is original
    bands = {i: op.band for i, op in enumerate(classify_ops)}
    assert res.attempted == len(bands)
    m = tracing.layer_metrics(tracer, bands)
    assert m["polytope.lps_per_table.a"][0] == 1.0
    assert m["polytope.lps_per_table.b"][0] == 2.0
    assert m["simplex.pivots_per_lp.local"][0] > 0
    assert m["search.nfev_per_state"][0] == 0.0
