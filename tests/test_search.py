import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nonloc
from nonloc import (MeasurementSettings, NoSettingsFound, PureState, Ray,
                    SearchConfig, SymmetricState, born_distribution,
                    condition_cells, dicke_expand, find_settings,
                    hardy_conditions, random_experiment, solve_auto)
from nonloc import search
from nonloc.search import _amplitudes, _find_settings
from conftest import random_symmetric

CFG = SearchConfig()


def _unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_cell_amplitudes_match_born_table(n, rng):
    # b_k orthogonal to u_k, as the search sets them
    for _ in range(5):
        psi = PureState(n, _unit(rng, 2 ** n))
        a = [_unit(rng, 2) for _ in range(n)]
        us, ov = _amplitudes(psi.amplitudes, a)
        settings = MeasurementSettings(
            n, tuple((Ray(*ak), Ray(*u).orthogonal()) for ak, u in zip(a, us)))
        p = born_distribution(psi, settings).p[condition_cells(n)]
        assert np.abs(np.abs(ov) ** 2 - p).max() < 1e-14


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_eliminate_b_matches_kronecker_reference(n, rng):
    for _ in range(5):
        psi = _unit(rng, 2 ** n)
        a = [_unit(rng, 2) for _ in range(n)]
        us, _ = _amplitudes(psi, a)
        for k in range(n):
            # <a_(not k)| (x) I_k as a 2 x 2^n matrix
            op = functools.reduce(np.kron, [np.eye(2) if j == k else a[j].conj()[None, :]
                                            for j in range(n)])
            u = op @ psi
            assert np.abs(us[k] - u / np.linalg.norm(u)).max() < 1e-14


def test_find_settings_ghz():
    psi = dicke_expand(SymmetricState.ghz(3, np.pi / 4))
    settings = find_settings(psi, CFG)
    assert isinstance(settings, MeasurementSettings)
    report = hardy_conditions(born_distribution(psi, settings),
                              eps_zero=CFG.eps_zero, delta_pos=CFG.delta_pos)
    assert report.passed


def test_ghz_pole_basin_passes_on_the_first_start():
    # a fit that settles in a zero-success basin at the poles wastes a start
    psi = dicke_expand(SymmetricState.ghz(3, np.pi / 3))
    result, d, report, starts, fevals = _find_settings(psi, SearchConfig(seed=0))
    assert isinstance(result, MeasurementSettings)
    assert starts == 1 and fevals > 0
    # the table and report that gated the settings come back with them
    assert np.array_equal(d.p, born_distribution(psi, result).p) and report.passed


def test_find_settings_calls_the_module_least_squares(monkeypatch):
    # perfbench wraps nonloc.search.least_squares by that name
    original, calls = search.least_squares, []

    def counted(*args, **kwargs):
        calls.append(kwargs["max_nfev"])
        return original(*args, **kwargs)

    monkeypatch.setattr(search, "least_squares", counted)
    psi = dicke_expand(SymmetricState.ghz(3, np.pi / 4))
    assert isinstance(find_settings(psi, CFG), MeasurementSettings)
    assert calls and all(m == CFG.max_iters for m in calls)


def test_search_config_rejects_empty_searches():
    with pytest.raises(ValueError):
        SearchConfig(multistarts=0)
    with pytest.raises(ValueError):
        SearchConfig(max_iters=0)


@pytest.mark.parametrize("tolerances", ({"eps_zero": 0.0}, {"eps_zero": float("nan")},
                                        {"delta_pos": -1.0}, {"delta_pos": float("inf")}))
def test_search_config_rejects_tolerances_it_cannot_honour(tolerances):
    # eps_zero and delta_pos are class constants, not constructor fields
    with pytest.raises(TypeError):
        SearchConfig(**tolerances)


def test_find_settings_product_state():
    amps = np.zeros(8)
    amps[0] = 1.0
    result = find_settings(PureState(3, amps),
                           SearchConfig(multistarts=4, max_iters=400))
    assert isinstance(result, NoSettingsFound)
    assert result.best_success <= CFG.delta_pos


def test_find_settings_is_deterministic():
    psi = dicke_expand(SymmetricState.ghz(3, np.pi / 3))
    a = find_settings(psi, CFG)
    b = find_settings(psi, CFG)
    for (a1, b1), (a2, b2) in zip(a.pairs, b.pairs):
        assert a1.c0 == a2.c0 and a1.c1 == a2.c1
        assert b1.c0 == b2.c0 and b1.c1 == b2.c1


def test_find_settings_agrees_with_symmetric_solver(rng):
    s = random_symmetric(3, rng)
    assert solve_auto(s).p_success > 0
    result = find_settings(dicke_expand(s), CFG)
    assert isinstance(result, MeasurementSettings)


def test_experiment_records_and_counts():
    summary = random_experiment(3, 5, seed=3, cfg=CFG, lp_subsample=2)
    assert summary.passed + summary.failed == summary.count == 5
    assert summary.passed == 5
    assert [r.index for r in summary.records] == list(range(5))
    checked = [r for r in summary.records if r.lp_checked]
    assert len(checked) == 2
    assert all(r.lp_infeasible for r in checked)
    assert all(1 <= r.starts <= CFG.multistarts and r.fevals > 0
               for r in summary.records)


def test_experiment_five_parties():
    summary = random_experiment(5, 2, seed=3, cfg=CFG)
    assert summary.passed == 2


def test_experiment_is_deterministic_across_jobs():
    a = random_experiment(3, 4, seed=9, cfg=CFG)
    b = random_experiment(3, 4, seed=9, cfg=CFG, jobs=2)
    assert a.records == b.records


def test_experiment_seed_changes_states():
    a = random_experiment(3, 2, seed=1, cfg=CFG)
    b = random_experiment(3, 2, seed=2, cfg=CFG)
    assert {r.sub_seed for r in a.records} != {r.sub_seed for r in b.records}


def test_experiment_validates_n():
    with pytest.raises(ValueError):
        random_experiment(2, 1, seed=0, cfg=CFG)
    with pytest.raises(ValueError):
        random_experiment(3, 0, seed=0, cfg=CFG)
    with pytest.raises(ValueError):
        random_experiment(4, 1, seed=0, cfg=CFG, lp_subsample=1)
    for jobs in (0, -2):
        with pytest.raises(ValueError):
            random_experiment(3, 1, seed=0, cfg=CFG, jobs=jobs)


def test_experiment_rejects_a_negative_lp_subsample():
    with pytest.raises(ValueError, match="lp_subsample must be nonnegative"):
        random_experiment(3, 1, seed=0, cfg=CFG, lp_subsample=-1)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of the import time, and only the search needs it
    src = Path(nonloc.__file__).resolve().parents[1]
    code = "import nonloc, sys; assert 'scipy.optimize' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(src)})
