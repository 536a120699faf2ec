import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import remsense as rs
from remsense.calibration import read_delta_csv
from remsense.cli import main
from remsense import geo, gpr, kriging
from remsense.evaluation import fit_residual_model, ingest_measurements
from remsense.geo import link_geometry
from remsense.kriging import KrigingConfig
from remsense.propagation import trpl_received_power_db
from remsense.scenes import (
    SceneSpec,
    _corr_from_dict,
    _corr_to_dict,
    _geopoint_to_dict,
    _prop_to_dict,
    generate_campaign,
    lawnmower_trajectory,
    ring_trajectory,
    scene_to_json,
    stack_altitudes,
    write_measurements_csv,
)
from remsense.shadowing import (
    SampleSet,
    _predicted_power,
    extract_sf,
    transformed_model,
)

from conftest import CORR, GS, PROP

QUIET = rs.CorrelationModel(a=0.7, p1=0.05, p2=0.005, q=0.1, sigma_z=0.0)
BASE = rs.GeoPoint(35.721, -78.702, 50.0)


@pytest.fixture(scope="module")
def work(tmp_path_factory, gaussian_campaigns):
    """Shared CSV/JSON inputs for the subcommand tests."""
    d = tmp_path_factory.mktemp("cli")
    train, test, _ = gaussian_campaigns
    write_measurements_csv(d / "train.csv", train)
    write_measurements_csv(d / "test.csv", test)

    with open(d / "config.json", "w") as fh:
        json.dump({"gs": _geopoint_to_dict(GS), "prop": _prop_to_dict(PROP)},
                  fh)
    with open(d / "eval_config.json", "w") as fh:
        json.dump({
            "gs": _geopoint_to_dict(GS),
            "prop": _prop_to_dict(PROP),
            "corr_model": _corr_to_dict(CORR),
            "mean_z": 0.0,
        }, fh)

    quiet = SceneSpec(gs=GS, cfg=PROP, corr=QUIET, seed=3)
    flat = lawnmower_trajectory(BASE, 200.0, 150.0, n_rows=5, alt_m=60.0,
                                sample_spacing_m=20.0)
    write_measurements_csv(d / "quiet.csv",
                           generate_campaign(quiet, flat)[0])

    # single-ray link, so amplitude ratios map directly onto gains
    friis = dataclasses.replace(PROP, ground_rel_permittivity=1.0)
    with open(d / "friis_config.json", "w") as fh:
        json.dump({"gs": _geopoint_to_dict(GS), "prop": _prop_to_dict(friis)},
                  fh)
    around = ring_trajectory(rs.GeoPoint(GS.lat_deg, GS.lon_deg, 50.0),
                             150.0, alt_m=30.0, sample_spacing_m=10.0)
    around = stack_altitudes(around, [30.0, 80.0])
    calib = SceneSpec(gs=GS, cfg=friis, corr=QUIET, seed=3)
    write_measurements_csv(d / "around.csv",
                           generate_campaign(calib, around)[0])

    live = SceneSpec(gs=GS, cfg=PROP, corr=CORR, noise_sd=1.0, seed=5)
    scene_to_json(live, d / "scene.json", trajectory_dict={
        "kind": "ring", "center": _geopoint_to_dict(BASE),
        "radius_m": 120.0, "alt_m": 60.0, "sample_spacing_m": 10.0,
    })
    scene_to_json(live, d / "scene_no_traj.json")
    return d


def test_help_and_missing_command(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert "synth" in capsys.readouterr().out
    assert main(["frobnicate"]) == 2


def test_synth_seed_control(work, tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["synth", "--scene", str(work / "scene.json"),
                 "--out", str(a)]) == 0
    assert main(["synth", "--scene", str(work / "scene.json"),
                 "--out", str(b)]) == 0
    assert main(["synth", "--scene", str(work / "scene.json"),
                 "--out", str(c), "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert len(ingest_measurements(a)) >= 8


def test_synth_requires_trajectory(work, tmp_path, capsys):
    code = main(["synth", "--scene", str(work / "scene_no_traj.json"),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "trajectory" in capsys.readouterr().err
    assert main(["synth", "--scene", str(work / "nope.json"),
                 "--out", str(tmp_path / "x.csv")]) == 3


def test_fit_corr_writes_model(work, tmp_path):
    out = tmp_path / "model.json"
    code = main(["fit-corr", "--measurements", str(work / "train.csv"),
                 "--config", str(work / "config.json"), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    model = _corr_from_dict(doc["model"])
    assert 0.0 <= model.a <= 1.0
    assert model.sigma_z > 0.0
    assert doc["n_measurements"] == len(ingest_measurements(work / "train.csv"))
    assert doc["n_pairs_used"] > 0
    assert doc["sigma_hat"] > 0.0


def test_fit_corr_config_and_data_errors(work, tmp_path):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"prop": _prop_to_dict(PROP)}))
    assert main(["fit-corr", "--measurements", str(work / "train.csv"),
                 "--config", str(bad_cfg), "--out",
                 str(tmp_path / "m.json")]) == 2

    junk = tmp_path / "junk.csv"
    junk.write_text("not,a,measurement,file\n")
    assert main(["fit-corr", "--measurements", str(junk),
                 "--config", str(work / "config.json"), "--out",
                 str(tmp_path / "m.json")]) == 3


def test_calibrate_recovers_null_correction(work, tmp_path):
    out = tmp_path / "delta.csv"
    code = main(["calibrate", "--measurements", str(work / "around.csv"),
                 "--config", str(work / "friis_config.json"), "--out",
                 str(out), "--bin-deg", "45", "--min-support", "10"])
    assert code == 0
    delta = read_delta_csv(out)
    assert np.count_nonzero(delta.supported) == 8
    # noise-free campaign with undistorted antennas: correction is null
    assert np.max(np.abs(delta.delta_db[delta.supported])) <= 1e-6


def test_reconstruct_deterministic_grid(work, tmp_path):
    out = tmp_path / "grid.csv"
    code = main(["reconstruct", "--measurements", str(work / "quiet.csv"),
                 "--config", str(work / "config.json"), "--out", str(out),
                 "--method", "TRPL_only", "--spacing", "50"])
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "lat_deg,lon_deg,alt_m,power_dbm"
    assert len(rows) > 4
    for row in rows[1:]:
        la, lo, al, p = (float(v) for v in row.split(","))
        geom = link_geometry(GS, rs.GeoPoint(la, lo, al), PROP.wavelength_m)
        assert p == pytest.approx(trpl_received_power_db(PROP, geom),
                                  abs=1e-9)


def test_reconstruct_kriged_grid(work, tmp_path):
    out = tmp_path / "grid_ok.csv"
    code = main(["reconstruct", "--measurements", str(work / "train.csv"),
                 "--config", str(work / "config.json"), "--out", str(out),
                 "--method", "OK", "--spacing", "60"])
    assert code == 0
    body = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(np.isfinite(body))


@pytest.mark.parametrize("method", ["SK", "TG_OK", "TG_SK", "GPR", "MC_GPR"])
def test_reconstruct_other_kriging_variants(work, tmp_path, method):
    out = tmp_path / f"grid_{method}.csv"
    code = main(["reconstruct", "--measurements", str(work / "train.csv"),
                 "--config", str(work / "config.json"), "--out", str(out),
                 "--method", method, "--spacing", "60"])
    assert code == 0
    body = np.loadtxt(out, delimiter=",", skiprows=1)
    assert len(body) > 4
    assert np.all(np.isfinite(body))


def test_reconstruct_mc_gpr_rejects_another_altitude(work, tmp_path, capsys):
    out = tmp_path / "grid_mc.csv"
    assert main(["reconstruct", "--measurements", str(work / "train.csv"),
                 "--config", str(work / "config.json"), "--out", str(out),
                 "--method", "MC_GPR", "--spacing", "60",
                 "--alt", "80"]) == 2
    assert "--alt 80" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_tg_krigs_with_the_shared_score_model(work, tmp_path):
    out = tmp_path / "grid_tg.csv"
    assert main(["reconstruct", "--measurements", str(work / "train.csv"),
                 "--config", str(work / "config.json"), "--out", str(out),
                 "--method", "TG_OK", "--spacing", "60"]) == 0
    samples = SampleSet.from_samples(
        extract_sf(ingest_measurements(work / "train.csv"), PROP, GS))
    fit = fit_residual_model(samples, "TG_OK")
    # a score-domain fit, not the raw shape rescaled to unit variance
    assert fit.corr_u != transformed_model(fit.corr, 1.0)
    kcfg = KrigingConfig(radius_m=200.0, variant="TG_OK", mean_z=fit.mean_z)
    body = np.loadtxt(out, delimiter=",", skiprows=1)
    for la, lo, al, power in body[::7]:
        node = rs.GeoPoint(la, lo, al)
        pred = kriging.predict(samples, fit.corr, node, kcfg,
                               transform=fit.transform, model_u=fit.corr_u)
        geom = link_geometry(GS, node, PROP.wavelength_m)
        assert power == pytest.approx(
            trpl_received_power_db(PROP, geom) + pred.z_hat, abs=1e-9)


@pytest.mark.parametrize("method", ["OK", "SK", "TG_OK", "TG_SK"])
def test_reconstruct_grid_equals_per_node_predict(work, tmp_path, method):
    out = tmp_path / f"grid_{method}.csv"
    assert main(["reconstruct", "--measurements", str(work / "test.csv"),
                 "--config", str(work / "config.json"), "--out", str(out),
                 "--method", method, "--spacing", "40",
                 "--radius", "30"]) == 0
    samples = SampleSet.from_samples(
        extract_sf(ingest_measurements(work / "test.csv"), PROP, GS))
    fit = fit_residual_model(samples, method)
    kcfg = KrigingConfig(radius_m=30.0, variant=method, mean_z=fit.mean_z)
    lat, lon, alt, power = np.loadtxt(out, delimiter=",", skiprows=1).T
    _, rhat = _predicted_power(PROP, GS, lat, lon, alt, None)
    fallbacks = 0
    for k in range(len(lat)):
        pred = kriging.predict(samples, fit.corr,
                               rs.GeoPoint(lat[k], lon[k], alt[k]), kcfg,
                               transform=fit.transform, model_u=fit.corr_u)
        fallbacks += pred.fallback
        assert power[k] == rhat[k] + pred.z_hat
    assert 0 < fallbacks < len(lat)


def test_reconstruct_tg_on_few_rows_falls_back_to_plain(work, tmp_path):
    few = tmp_path / "few.csv"
    write_measurements_csv(few, ingest_measurements(work / "train.csv")[::21])

    def grid(method):
        out = tmp_path / f"grid_{method}.csv"
        assert main(["reconstruct", "--measurements", str(few),
                     "--config", str(work / "config.json"), "--out", str(out),
                     "--method", method, "--spacing", "60"]) == 0
        return out.read_text()

    with pytest.warns(UserWarning, match="plain kriging variant"):
        tg = grid("TG_OK")
    assert tg == grid("OK")


def test_eval_report_and_flag_override(work, tmp_path, capsys):
    out = tmp_path / "report.json"
    cfg = tmp_path / "cfg.json"
    doc = json.loads((work / "eval_config.json").read_text())
    doc["iterations"] = 999
    cfg.write_text(json.dumps(doc))
    code = main(["eval", "--config", str(cfg),
                 "--test", str(work / "test.csv"), "--method", "SK",
                 "-M", "100", "--iterations", "3", "--seed", "4",
                 "--out", str(out)])
    assert code == 0
    assert "median RMSE" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["method"] == "SK"
    assert len(report["rmse_db"]) == 3  # the flag wins over the config value
    assert np.isfinite(report["median_rmse_db"])


def test_eval_validation_exit_codes(work, tmp_path, capsys):
    assert main(["eval", "--config", str(work / "eval_config.json"),
                 "--iterations", "2"]) == 2
    assert "test campaign" in capsys.readouterr().err

    junk = tmp_path / "junk.csv"
    junk.write_text("wrong,header\n")
    assert main(["eval", "--config", str(work / "eval_config.json"),
                 "--test", str(junk), "--iterations", "2"]) == 3

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert main(["eval", "--config", str(arr),
                 "--test", str(work / "test.csv")]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert main(["eval", "--config", str(broken),
                 "--test", str(work / "test.csv")]) == 2

    assert main(["eval", "--config", str(work / "eval_config.json"),
                 "--test", str(work / "test.csv"), "-R", "0",
                 "--iterations", "1"]) == 2
    assert "radius_m must be positive" in capsys.readouterr().err

    mc_bad = tmp_path / "mc.json"
    doc = json.loads((work / "eval_config.json").read_text())
    doc["mc"] = {"bogus": 1}
    mc_bad.write_text(json.dumps(doc))
    assert main(["eval", "--config", str(mc_bad),
                 "--test", str(work / "test.csv"), "--method", "TRPL_only",
                 "--iterations", "1"]) == 2


def test_sweep_axis_and_csv(work, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(work / "eval_config.json"),
                 "--test", str(work / "test.csv"), "--axis", "M",
                 "--values", "20,60", "--iterations", "2", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "M=20" in printed and "M=60" in printed
    assert len(out.read_text().strip().split("\n")) == 1 + 4

    assert main(["sweep", "--config", str(work / "eval_config.json"),
                 "--test", str(work / "test.csv"), "--axis", "M",
                 "--values", " , "]) == 2
    assert main(["sweep", "--config", str(work / "eval_config.json"),
                 "--test", str(work / "test.csv"), "--axis", "bogus",
                 "--values", "1"]) == 2


def test_reconstruct_unknown_method_exits_before_reading(work, tmp_path,
                                                         capsys):
    out = tmp_path / "grid.csv"
    zero_radius = tmp_path / "zero_radius.json"
    doc = json.loads((work / "config.json").read_text())
    zero_radius.write_text(json.dumps({**doc, "radius_m": 0}))
    bad_mc = []
    for field, value in (("alpha", -1), ("t_lambda", 0), ("t_v", -1),
                         ("dilation_radius", -1),
                         ("max_bisection_iters", 0),
                         ("grid_spacing_m", 0)):
        path = tmp_path / f"bad_{field}.json"
        path.write_text(json.dumps({**doc, "mc": {field: value}}))
        bad_mc.append((["--config", str(path), "--method", "MC_GPR"],
                       f"mc: {field} must be"))
    config = str(work / "config.json")
    for extra, message in [(["--method", "IDW"], "method must be one of"),
                           (["--spacing", "0"], "spacing must be positive"),
                           (["--spacing", "-5"], "spacing must be positive"),
                           (["--radius", "0"], "radius_m must be positive"),
                           (["--radius", "-5"], "radius_m must be positive"),
                           (["--config", str(zero_radius)],
                            "radius_m must be positive")] + bad_mc:
        assert main(["reconstruct", "--measurements",
                     str(tmp_path / "none.csv"), "--config", config,
                     "--out", str(out)] + extra) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_reconstruct_missing_measurements_exits_3(work, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["reconstruct", "--measurements", str(tmp_path / "none.csv"),
                 "--config", str(work / "config.json"), "--out", str(out),
                 "--method", "MC_GPR"]) == 3
    assert "none.csv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["GPR", "MC_GPR"])
def test_reconstruct_gpr_grid_lags_write_the_same_bytes(work, tmp_path,
                                                         monkeypatch, method):
    calls = []
    monkeypatch.setattr(gpr, "_grid_lags",
                        lambda *a: calls.append(a) or geo._grid_lags(*a))

    def grid(name):
        out = tmp_path / name
        assert main(["reconstruct", "--measurements", str(work / "train.csv"),
                     "--config", str(work / "config.json"), "--out", str(out),
                     "--method", method, "--spacing", "20"]) == 0
        return out.read_bytes()

    via_grid = grid("grid.csv")
    assert calls
    monkeypatch.setattr(gpr, "_grid_axes", lambda lat, lon, alt: None)
    n_calls = len(calls)
    assert grid("scattered.csv") == via_grid
    assert len(calls) == n_calls


def test_eval_test_row_on_station_exits_3(work, tmp_path, capsys):
    rows = (list(ingest_measurements(work / "test.csv"))
            + [rs.Measurement(GS, -40.0, seq=10**6)])
    path = tmp_path / "station.csv"
    write_measurements_csv(path, rows)
    assert main(["eval", "--config", str(work / "eval_config.json"),
                 "--test", str(path), "--method", "TRPL_only",
                 "--iterations", "1"]) == 3
    assert "coincides with the station" in capsys.readouterr().err


def test_outputs_agree_across_blas_thread_counts(work, tmp_path):
    """Bit-exact repeats hold for a fixed BLAS thread count; across
    thread counts synth and eval agree to well inside 1e-9 dB."""
    src = os.path.dirname(os.path.dirname(rs.__file__))
    results = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": src}
        synth = tmp_path / f"synth{threads}.csv"
        report = tmp_path / f"report{threads}.json"
        for argv in (["synth", "--scene", str(work / "scene.json"),
                      "--out", str(synth)],
                     ["eval", "--config", str(work / "eval_config.json"),
                      "--test", str(work / "test.csv"), "--method", "OK",
                      "-M", "100", "--iterations", "3", "--out",
                      str(report)]):
            subprocess.run([sys.executable, "-m", "remsense.cli", *argv],
                           env=env, check=True, capture_output=True)
        results.append((
            ingest_measurements(synth).rsrp,
            np.asarray(json.loads(report.read_text())["rmse_db"]),
        ))
    (synth1, rmse1), (synth2, rmse2) = results
    np.testing.assert_allclose(synth2, synth1, rtol=0, atol=1e-9)
    np.testing.assert_allclose(rmse2, rmse1, rtol=0, atol=1e-9)
