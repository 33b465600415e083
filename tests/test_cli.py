import json
import warnings

import numpy as np
import pytest

from nonloc import (ExperimentRecord, ExperimentSummary, JointDistribution,
                    SymmetricState, deterministic_local_vertices, dicke_expand, fileio)
from nonloc.cli import main
from nonloc.measure import MeasurementSettings, Ray
from conftest import NEAR_PRODUCT


@pytest.fixture
def ghz_files(tmp_path, ghz3_solution):
    state = tmp_path / "state.json"
    settings = tmp_path / "settings.json"
    fileio.write_json(state, fileio.state_payload(
        dicke_expand(SymmetricState.ghz(3, np.pi / 4))))
    fileio.write_json(settings, fileio.settings_payload(ghz3_solution.settings))
    return state, settings


def test_distribution_ghz_z_settings(tmp_path):
    state = tmp_path / "state.json"
    settings = tmp_path / "settings.json"
    out = tmp_path / "dist.json"
    fileio.write_json(state, fileio.state_payload(
        dicke_expand(SymmetricState.ghz(3, np.pi / 4))))
    z = MeasurementSettings(3, ((Ray(1.0, 0.0), Ray(1.0, 1.0)),) * 3)
    fileio.write_json(settings, fileio.settings_payload(z))
    assert main(["distribution", str(state), str(settings), str(out)]) == 0
    table = json.loads(out.read_text())
    assert abs(table["p"][0][0] - 0.5) < 1e-12
    assert abs(table["p"][0][7] - 0.5) < 1e-12
    assert "payload_sha256" in table["manifest"]


def test_distribution_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out.json"
    assert main(["distribution", str(bad), str(bad), str(out)]) == 2
    assert "error" in capsys.readouterr().err


def test_distribution_dimension_mismatch(tmp_path, capsys):
    state = tmp_path / "state.json"
    settings = tmp_path / "settings.json"
    fileio.write_json(state, fileio.state_payload(
        dicke_expand(SymmetricState.ghz(3, np.pi / 4))))
    z4 = MeasurementSettings(4, ((Ray(1.0, 0.0), Ray(1.0, 1.0)),) * 4)
    fileio.write_json(settings, fileio.settings_payload(z4))
    assert main(["distribution", str(state), str(settings),
                 str(tmp_path / "out.json")]) == 2
    assert "dimension mismatch" in capsys.readouterr().err


def test_hardy_pass_and_fail(tmp_path, ghz_files, capsys):
    state, settings = ghz_files
    assert main(["hardy", "--state", str(state),
                 "--settings", str(settings)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["ineq1"] > 0

    product = tmp_path / "product.json"
    amps = np.zeros(8)
    amps[0] = 1.0
    from nonloc import PureState
    fileio.write_json(product, fileio.state_payload(PureState(3, amps)))
    assert main(["hardy", "--state", str(product),
                 "--settings", str(settings)]) == 1


def test_hardy_from_distribution_file(tmp_path, ghz_files):
    state, settings = ghz_files
    dist = tmp_path / "dist.json"
    assert main(["distribution", str(state), str(settings), str(dist)]) == 0
    assert main(["hardy", "--distribution", str(dist)]) == 0


def test_hardy_without_a_complete_input_is_a_usage_error(ghz_files, capsys):
    state, settings = ghz_files
    for args in (["--state", str(state)], ["--settings", str(settings)], []):
        assert main(["hardy", *args]) == 2
        assert "--distribution" in capsys.readouterr().err


@pytest.mark.parametrize("flag", (["--delta-pos", "-1"], ["--delta-pos", "nan"],
                                  ["--eps-zero", "0"], ["--eps-zero", "nan"],
                                  ["--eps-zero", "inf"]))
def test_hardy_rejects_tolerances_it_cannot_honour(tmp_path, capsys, flag):
    dist = tmp_path / "local_vertex.json"
    fileio.write_json(dist, fileio.distribution_payload(
        JointDistribution(3, deterministic_local_vertices(3).columns[3])))
    assert main(["hardy", "--distribution", str(dist)]) == 1
    capsys.readouterr()
    assert main(["hardy", "--distribution", str(dist), *flag]) == 2
    out = capsys.readouterr()
    assert out.out == "" and flag[0][2:].replace("-", "_") in out.err


def test_symmetric_ghz_fixture(capsys):
    assert main(["symmetric", "--ghz", "3", "0.7853981633974483",
                 "--x", "0,2"]) == 0
    sol = json.loads(capsys.readouterr().out)
    assert abs(sol["y1"][0] - 0.25) < 1e-10
    assert abs(sol["y"][1] - 8.0) < 1e-10
    assert abs(sol["x1"][0] - 0.0625) < 1e-10
    assert abs(sol["p_success"] - 72 / 6425) < 1e-10


def test_symmetric_w_fixture(capsys):
    assert main(["symmetric", "--w", "3", "--x", "1,0"]) == 0
    sol = json.loads(capsys.readouterr().out)
    assert abs(sol["p_success"] - 1 / 408) < 1e-10


def test_symmetric_excluded_x(capsys):
    assert main(["symmetric", "--ghz", "3", "0.7853981633974483",
                 "--x", "1,0"]) == 1
    assert "excluded x" in capsys.readouterr().err


def _symmetric_file(tmp_path, h):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n": len(h) - 1, "h": [[v, 0.0] for v in h]}))
    return str(path)


def test_symmetric_product_state_has_no_solution(tmp_path, capsys):
    state = _symmetric_file(tmp_path, [1.0, 0.5, 0.25, 0.125])
    assert main(["symmetric", state, "--x", "1,0"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "no solution" in out.err


@pytest.mark.parametrize("n, h1", NEAR_PRODUCT)
def test_symmetric_near_product_state_has_no_solution(tmp_path, capsys, n, h1):
    state = tmp_path / "state.json"
    h = [[1.0, 0.0], [h1.real, h1.imag]] + [[0.0, 0.0]] * (n - 1)
    state.write_text(json.dumps({"n": n, "h": h}))
    assert main(["symmetric", str(state)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "no solution" in out.err and "floor" in out.err


def test_symmetric_x_on_a_phase_where_f_vanishes_is_excluded(tmp_path, capsys):
    # (|000> + |D_2>) / sqrt(2) has F = 0 along phase pi / 2
    state = _symmetric_file(tmp_path, [2 ** -0.5, 0.0, 2 ** -0.5, 0.0])
    assert main(["symmetric", state, "--x", "0,1"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "excluded x" in out.err


_GOOD_H = [[0.7071067811865476, 0.0], [0.0, 0.0], [0.0, 0.0], [0.7071067811865476, 0.0]]
_GOOD_RAYS = {"a": [[1.0, 0.0], [0.0, 0.0]], "b": [[1.0, 0.0], [1.0, 0.0]]}


@pytest.mark.parametrize("command, payload", (
    ("symmetric", {"n": None, "h": _GOOD_H}),
    ("symmetric", {"n": [3], "h": _GOOD_H}),
    ("symmetric", {"n": 3.7, "h": _GOOD_H}),
    ("symmetric", {"n": True, "h": _GOOD_H}),
    ("symmetric", {"n": 3, "h": 5}),
    ("symmetric", {"n": 3, "h": [[None, 0]] + _GOOD_H[1:]}),
    ("symmetric", {"n": 3, "h": [[10 ** 400, 0]] + _GOOD_H[1:]}),
    ("hardy", {"n": 3, "parties": [{**_GOOD_RAYS, "a": 5}] + [_GOOD_RAYS] * 2}),
), ids=("n-null", "n-list", "n-float", "n-bool", "h-number", "h-null-part", "h-huge-int",
       "settings-a-number"))
def test_malformed_input_files_are_usage_errors(tmp_path, ghz_files, capsys, command, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    state, _ = ghz_files
    argv = (["symmetric", str(bad)] if command == "symmetric"
            else ["hardy", "--state", str(state), "--settings", str(bad)])
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:") and "Traceback" not in out.err


def test_deeply_nested_input_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text('{"n": 3, "h": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["symmetric", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: JSON nesting too deep")


def test_symmetric_ghz_needs_a_whole_party_count(capsys):
    assert main(["symmetric", "--ghz", "3.5", "0.7"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "whole number of parties" in out.err


@pytest.mark.parametrize("flags", (["--w", "0"], ["--w", "-1"], ["--ghz", "-1", "0.7"]))
def test_symmetric_rejects_a_party_count_out_of_range(capsys, flags):
    assert main(["symmetric"] + flags) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: party count must be between 2 and")
    assert "Traceback" not in out.err


@pytest.mark.parametrize("x", ("nan,0", "1,inf"))
def test_symmetric_rejects_non_finite_x_at_parse_time(capsys, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["symmetric", "--ghz", "3", "0.7", "--x", x]) == 2
    assert "expected finite parts" in capsys.readouterr().err


def test_symmetric_rejects_ambiguous_input(tmp_path, capsys):
    assert main(["symmetric", "--ghz", "3", "0.5", "--w", "3"]) == 2


def test_symmetric_sweep(tmp_path, capsys):
    # GHZ3(pi/4) skips |x| = 1, an F root on its phase pi / 2; W3 skips nothing
    for state, rows, first_p in ((["--ghz", "3", "0.7853981633974483"], 117,
                                  3.0939056658886835e-06),
                                 (["--w", "3"], 118, 0.00079499428357253659)):
        csv_path = tmp_path / "sweep.csv"
        assert main(["symmetric", *state, "--out", str(tmp_path / "sol.json"),
                     "--sweep", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "abs_x,p_success"
        assert len(lines) == rows + 1
        abs_x, p = lines[1].split(",")
        assert abs_x == "0.050000000000000003"
        assert abs(float(p) - first_p) <= 1e-13 * first_p
        if state[0] == "--ghz":
            moduli = [float(row.split(",")[0]) for row in lines[1:]]
            assert all(abs(t - 1.0) > 1e-3 for t in moduli)


def test_classify_uniform_table(tmp_path, capsys):
    dist = tmp_path / "uniform.json"
    from nonloc import JointDistribution
    fileio.write_json(dist, fileio.distribution_payload(
        JointDistribution(3, np.full((8, 8), 1 / 8))))
    assert main(["classify", str(dist)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["label"] == "local"
    assert out["outcome"]["feasible"] is True
    assert isinstance(out["outcome"]["iterations"], int)


def test_classify_ghz_hardy(tmp_path, ghz_files, capsys):
    state, settings = ghz_files
    dist = tmp_path / "dist.json"
    main(["distribution", str(state), str(settings), str(dist)])
    assert main(["classify", str(dist)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["label"] == "genuinely-nonlocal"
    assert out["outcome"]["margin"] > 1e-6
    assert out["outcome"]["iterations"] > 0


def test_classify_rejects_two_parties(tmp_path, capsys):
    dist = tmp_path / "d2.json"
    from nonloc import JointDistribution
    fileio.write_json(dist, fileio.distribution_payload(
        JointDistribution(2, np.full((4, 4), 0.25))))
    assert main(["classify", str(dist)]) == 2


@pytest.mark.parametrize("value", ("NaN", "Infinity"))
@pytest.mark.parametrize("command", (["hardy", "--distribution"], ["classify"]))
def test_non_finite_distribution_file_is_a_usage_error(tmp_path, capsys,
                                                      value, command):
    p = np.full((8, 8), 0.125)
    p[0, 0] = float(value)
    dist = tmp_path / "bad.json"
    dist.write_text(json.dumps({"n": 3, "p": p.tolist()}))
    assert value in dist.read_text()
    assert main(command + [str(dist)]) == 2
    assert "NaN or infinite" in capsys.readouterr().err


def test_json_dumps_refuse_non_finite():
    with pytest.raises(ValueError):
        fileio.dump_json({"p_success": float("nan")})
    with pytest.raises(ValueError):
        fileio.dump_json({"ok": 1}, {"tol": float("inf")})


def test_experiment_serialization_golden():
    records = (ExperimentRecord(0, 2 ** 63 + 5, True, 0.1, 3.5e-12,
                                1, 125, True, True),
               ExperimentRecord(1, 7, False, 0.0, float("inf"), 32, 4000, False, False))
    summary = ExperimentSummary(3, 2, 9, 1, 1, records)
    assert fileio.EXPERIMENT_CSV_FIELDS == (
        "index", "sub_seed", "passed", "p_success", "max_residual", "starts",
        "fevals", "lp_checked", "lp_infeasible")
    assert fileio.experiment_rows(summary) == [
        {"index": 0, "sub_seed": 9223372036854775813, "passed": "true",
         "p_success": "0.10000000000000001", "max_residual": "3.5e-12",
         "starts": 1, "fevals": 125, "lp_checked": "true", "lp_infeasible": "true"},
        {"index": 1, "sub_seed": 7, "passed": "false", "p_success": "0",
         "max_residual": "inf", "starts": 32, "fevals": 4000, "lp_checked": "false",
         "lp_infeasible": "false"}]
    payload = fileio.summary_payload(summary)
    assert payload == {
        "n": 3, "count": 2, "seed": 9, "passed": 1, "failed": 1,
        "records": [
            {"index": 0, "sub_seed": 9223372036854775813, "passed": True,
             "p_success": 0.1, "max_residual": 3.5e-12, "starts": 1,
             "fevals": 125, "lp_checked": True, "lp_infeasible": True},
            {"index": 1, "sub_seed": 7, "passed": False, "p_success": 0.0,
             "max_residual": float("inf"), "starts": 32, "fevals": 4000,
             "lp_checked": False, "lp_infeasible": False}]}
    assert list(payload) == ["n", "count", "seed", "passed", "failed", "records"]
    assert [list(r) for r in payload["records"]] == [list(fileio.EXPERIMENT_CSV_FIELDS)] * 2


def test_experiment_reruns_are_byte_identical(tmp_path, capsys):
    args = ["experiment", "--n", "3", "--count", "3", "--seed", "5",
            "--multistarts", "8"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    summary = json.loads((tmp_path / "a.json").read_text())
    assert summary["passed"] == 3
    header = (tmp_path / "a.csv").read_text().splitlines()[0].split(",")
    assert "starts" in header and "fevals" in header


def test_experiment_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NONLOC_SEED", "5")
    args = ["experiment", "--n", "3", "--count", "3", "--multistarts", "8"]
    assert main(args + ["--out", str(tmp_path / "c")]) == 0
    monkeypatch.undo()
    assert main(["experiment", "--n", "3", "--count", "3", "--multistarts", "8",
                 "--seed", "5", "--out", str(tmp_path / "d")]) == 0
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()


def test_experiment_invalid_n(capsys):
    assert main(["experiment", "--n", "2", "--count", "1"]) == 2
    assert main(["experiment", "--n", "9", "--count", "1"]) == 2


def test_experiment_lp_subsample_needs_three_parties(capsys):
    assert main(["experiment", "--n", "4", "--count", "1",
                 "--lp-subsample", "10"]) == 2
    assert "n = 3 only" in capsys.readouterr().err


def test_experiment_rejects_a_negative_lp_subsample(tmp_path, capsys):
    args = ["experiment", "--n", "3", "--count", "1", "--lp-subsample", "-1",
            "--out", str(tmp_path / "x")]
    assert main(args) == 2
    assert "lp_subsample must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("flags", (["--multistarts", "0"], ["--max-iters", "0"],
                                   ["--jobs", "0"], ["--jobs", "-2"]))
def test_experiment_rejects_invalid_search_settings(tmp_path, capsys, flags):
    args = ["experiment", "--n", "3", "--count", "1", *flags]
    assert main(args) == 2
    assert main(args + ["--out", str(tmp_path / "x")]) == 2
    assert "at least 1" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_vertices_dump(tmp_path):
    out = tmp_path / "vertices.json"
    assert main(["vertices", "--model", "bilocal-ns", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["model"] == "bilocal-ns"
    assert len(doc["columns"]) == 288
    local = tmp_path / "local.json"
    assert main(["vertices", "--model", "local", "--n", "2", str(local)]) == 0
    assert len(json.loads(local.read_text())["columns"]) == 16


def test_verify_appendix(capsys):
    assert main(["verify-appendix"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["vertices"] == 288


@pytest.mark.parametrize("tol", ("nan", "inf", "-1"))
def test_verify_appendix_rejects_bad_tolerances(capsys, tol):
    assert main(["verify-appendix", "--tol", tol]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "finite nonnegative tolerance" in out.err


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
