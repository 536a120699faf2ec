"""End-to-end acceptance checks, one criterion per test.

Each test prints a single PASS line on success (visible with -s); a
failure carries the same label in its assertion message.  Statistical
thresholds and runtime budgets are asserted, not just reported.
"""

import dataclasses
import json
import time

import numpy as np

import remsense as rs
from remsense.calibration import (
    delta_gain,
    estimate_a_uav,
    estimate_effective_pattern,
)
from remsense.cli import main as cli_main
from remsense.completion import McAssistedGpr, McConfig, nuclear_norm_min, nuclear_norm_project
from remsense.completion import GridSpec, ShadowGrid
from remsense.evaluation import EvalConfig, monte_carlo_eval
from remsense.geo import horizontal_distance, link_geometry_batch
from remsense.gpr import gpr_fit, gpr_predict_batch
from remsense.kriging import KrigingConfig, predict
from remsense.patterns import sector_blockage_delta
from remsense.propagation import trpl_path_loss_db
from remsense.scenes import (
    Blob,
    SceneSpec,
    Trajectory,
    _corr_to_dict,
    _geopoint_to_dict,
    _prop_to_dict,
    generate_campaign,
    lawnmower_trajectory,
    ring_trajectory,
    sample_correlated_field,
    stack_altitudes,
    write_measurements_csv,
    zigzag_trajectory,
)
from remsense.shadowing import (
    SampleSet,
    SfSample,
    empirical_correlation,
    extract_sf,
    fit_correlation_model,
)

from conftest import CORR, GS, PROP

BASE = rs.GeoPoint(35.721, -78.702, 50.0)
M_PER_DEG_LAT = 111132.954


def _ok(label):
    print(f"PASS: {label}")


def _offset(p, dx_m, dy_m, alt_m):
    mlon = M_PER_DEG_LAT * np.cos(np.radians(p.lat_deg))
    return rs.GeoPoint(p.lat_deg + dy_m / M_PER_DEG_LAT,
                       p.lon_deg + dx_m / mlon, alt_m)


def _scatter(rng, n, extent_m, alt_lo, alt_hi):
    return [
        _offset(BASE, float(rng.uniform(0, extent_m)),
                float(rng.uniform(0, extent_m)),
                float(rng.uniform(alt_lo, alt_hi)))
        for _ in range(n)
    ]


def _random_model(rng):
    return rs.CorrelationModel(
        a=float(rng.uniform(0.0, 1.0)),
        p1=float(rng.uniform(0.01, 0.2)),
        p2=float(rng.uniform(0.001, 0.02)),
        q=float(rng.uniform(0.01, 0.3)),
        sigma_z=float(rng.uniform(0.5, 4.0)),
    )


def test_c01_single_ray_reduces_to_free_space():
    label = "two-ray with the reflection off equals free space on 1000 links"
    free = dataclasses.replace(PROP, ground_rel_permittivity=1.0)
    rng = np.random.default_rng(11)
    dx = rng.uniform(-2000.0, 2000.0, 1000)
    dy = np.where(np.abs(dx) < 5.0, 100.0, rng.uniform(-2000.0, 2000.0, 1000))
    alt = rng.uniform(20.0, 300.0, 1000)
    mlon = M_PER_DEG_LAT * np.cos(np.radians(GS.lat_deg))
    started = time.monotonic()
    geom, valid = link_geometry_batch(
        GS, GS.lat_deg + dy / M_PER_DEG_LAT, GS.lon_deg + dx / mlon, alt,
        free.wavelength_m)
    assert np.all(valid)
    pl = trpl_path_loss_db(free, geom)
    fspl = 20.0 * np.log10(4.0 * np.pi * geom.d_3d / free.wavelength_m)
    elapsed = time.monotonic() - started
    assert np.max(np.abs(pl - fspl)) <= 1e-9, label
    assert elapsed < 1.0, label
    _ok(label)


def _dense_kriging_oracle(pts, z, model, target, simple_mean=None):
    n = len(pts)
    dh = np.array([[horizontal_distance(a, b) for b in pts] for a in pts])
    dv = np.array([[abs(a.alt_m - b.alt_m) for b in pts] for a in pts])
    dh0 = np.array([horizontal_distance(p, target) for p in pts])
    dv0 = np.array([abs(p.alt_m - target.alt_m) for p in pts])
    s2 = model.sigma_z**2
    cov = s2 * model.correlation_at(dh, dv)
    c0 = s2 * model.correlation_at(dh0, dv0)
    if simple_mean is None:
        gamma = s2 - cov
        g0 = s2 - c0
        a = np.zeros((n + 1, n + 1))
        a[:n, :n] = gamma
        a[:n, n] = 1.0
        a[n, :n] = 1.0
        b = np.concatenate([g0, [1.0]])
        sol = np.linalg.solve(a, b)
        w, mu = sol[:n], sol[n]
        return float(w @ z), float(w @ g0 + mu)
    w = np.linalg.solve(cov, c0)
    z_hat = simple_mean + float(w @ (z - simple_mean))
    return z_hat, float(s2 - w @ c0)


def test_c02_kriging_exactness_and_dense_oracle():
    label = ("kriging weights sum to one, samples reproduce exactly, and "
             "200 dense-oracle configurations agree")
    rng = np.random.default_rng(22)
    cfg = KrigingConfig(radius_m=1e5, jitter=0.0)
    for trial in range(200):
        model = _random_model(rng)
        pts = _scatter(rng, 5, 300.0, 40.0, 90.0)
        z = rng.normal(0.0, model.sigma_z, 5)
        samples = [rs.SfSample(p, float(v), k)
                   for k, (p, v) in enumerate(zip(pts, z))]
        target = _offset(BASE, float(rng.uniform(20, 280)),
                         float(rng.uniform(20, 280)),
                         float(rng.uniform(45, 85)))

        ones = [rs.SfSample(p, 1.0, k) for k, p in enumerate(pts)]
        unit = predict(ones, model, target, cfg)
        assert abs(unit.z_hat - 1.0) <= 1e-9, label

        at_sample = predict(samples, model, pts[2], cfg)
        assert abs(at_sample.z_hat - z[2]) <= 1e-9, label
        mean_z = float(np.mean(z))
        sk_at = predict(samples, model, pts[2],
                        dataclasses.replace(cfg, variant="SK", mean_z=mean_z))
        assert abs(sk_at.z_hat - z[2]) <= 1e-9, label

        got = predict(samples, model, target, cfg)
        want_z, want_mse = _dense_kriging_oracle(pts, z, model, target)
        scale = max(1.0, abs(want_z))
        assert abs(got.z_hat - want_z) <= 1e-8 * scale, label
        assert abs(got.mse - want_mse) <= 1e-8 * max(1.0, want_mse), label

        got_sk = predict(samples, model, target,
                         dataclasses.replace(cfg, variant="SK", mean_z=mean_z))
        want_z, want_mse = _dense_kriging_oracle(pts, z, model, target,
                                                 simple_mean=mean_z)
        assert abs(got_sk.z_hat - want_z) <= 1e-8 * max(1.0, abs(want_z)), label
        assert abs(got_sk.mse - want_mse) <= 1e-8 * max(1.0, want_mse), label
    _ok(label)


def test_c03_noise_free_gpr_matches_simple_kriging():
    label = "noise-free zero-mean GPR equals simple kriging on 200 configurations"
    rng = np.random.default_rng(33)
    cfg = KrigingConfig(radius_m=1e6, jitter=0.0, variant="SK", mean_z=0.0)
    for trial in range(200):
        model = _random_model(rng)
        n = int(rng.integers(5, 26))
        pts = _scatter(rng, n, 400.0, 40.0, 90.0)
        z = rng.normal(0.0, model.sigma_z, n)
        samples = [rs.SfSample(p, float(v), k)
                   for k, (p, v) in enumerate(zip(pts, z))]
        sset = SampleSet.from_samples(samples)
        gpr = gpr_fit(sset, model, sigma_y=model.sigma_z, sigma_gp=0.0)
        for _ in range(3):
            target = _offset(BASE, float(rng.uniform(0, 400)),
                             float(rng.uniform(0, 400)),
                             float(rng.uniform(40, 90)))
            mean, var = gpr_predict_batch(
                gpr, np.array([target.lat_deg]), np.array([target.lon_deg]),
                np.array([target.alt_m]))
            sk = predict(samples, model, target, cfg)
            assert abs(float(mean[0]) - sk.z_hat) <= 1e-9, label
            assert abs(float(var[0]) - sk.mse) <= 1e-9, label
    _ok(label)


def test_c04_nuclear_norm_constraints():
    label = ("nuclear-norm projection respects its bound and the constrained "
             "search stays inside the confidence band")
    rng = np.random.default_rng(44)
    for _ in range(100):
        m = rng.normal(0.0, 2.0, (int(rng.integers(5, 31)),
                                  int(rng.integers(5, 31))))
        norm = float(np.linalg.norm(m, "nuc"))
        bound = float(rng.uniform(0.0, 1.2 * norm))
        out = nuclear_norm_project(m, bound)
        assert np.linalg.norm(out, "nuc") <= bound * (1 + 1e-6) + 1e-12, label

    out = nuclear_norm_project(np.diag([3.0, 1.0]), 2.0)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-9), label

    spec = GridSpec(origin=BASE, spacing_m=5.0, n_rows=50, n_cols=50,
                    alt_m=60.0)
    started = time.monotonic()
    for k in range(100):
        rank = int(rng.integers(1, 6))
        z = sum(np.outer(rng.normal(0, 1.5, 50), rng.normal(0, 1.5, 50))
                for _ in range(rank))
        z = z + rng.normal(0.0, 0.3, (50, 50))
        sigma = rng.uniform(0.05, 2.0, (50, 50))
        result = nuclear_norm_min(ShadowGrid(spec, z, sigma), McConfig())
        assert np.all(np.abs(result.z_mc - z) <= sigma + 1e-9), label
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, label
    _ok(f"{label} ({elapsed:.1f}s for 100 searches)")


def test_c05_correlation_model_round_trip():
    label = ("every generator parameter sits inside its 95% refit interval "
             "over 20 seeds")
    truth = rs.CorrelationModel(a=0.7, p1=0.05, p2=0.005, q=0.1, sigma_z=3.0)
    pts = []
    for alt in (60.0, 65.0, 75.0):
        for i in range(16):
            for j in range(16):
                pts.append(_offset(BASE, 60.0 * j, 60.0 * i, alt))
    started = time.monotonic()
    fits = []
    for seed in range(20):
        z = sample_correlated_field(pts, truth, np.random.default_rng(seed))
        sf = [SfSample(p, float(v), k)
              for k, (p, v) in enumerate(zip(pts, z))]
        model = fit_correlation_model(empirical_correlation(sf))
        fits.append([model.a, model.p1, model.p2, model.q, model.sigma_z])
    elapsed = time.monotonic() - started
    arr = np.array(fits)
    for k, true_value in enumerate([0.7, 0.05, 0.005, 0.1, 3.0]):
        lo, hi = np.percentile(arr[:, k], [2.5, 97.5])
        assert lo <= true_value <= hi, f"{label} (parameter index {k})"
    assert elapsed < 120.0, label
    _ok(f"{label} ({elapsed:.1f}s)")


def test_c06_field_recovery_beats_deterministic_baseline():
    label = ("kriging and GPR medians all beat the deterministic baseline "
             "at n=1500, M=100, R=200, 200 iterations")
    train_traj = lawnmower_trajectory(BASE, 750.0, 600.0, n_rows=12,
                                      alt_m=60.0, sample_spacing_m=12.0)
    test_traj = lawnmower_trajectory(BASE, 750.0, 600.0, n_rows=18,
                                     alt_m=70.0, sample_spacing_m=9.0)
    train, _ = generate_campaign(
        SceneSpec(gs=GS, cfg=PROP, corr=CORR, seed=301), train_traj)
    test, _ = generate_campaign(
        SceneSpec(gs=GS, cfg=PROP, corr=CORR, seed=302), test_traj)
    test = test[:1500]
    assert len(test) == 1500

    started = time.monotonic()
    medians = {}
    for method in ("TRPL_only", "OK", "SK", "GPR"):
        report = monte_carlo_eval(EvalConfig(
            gs=GS, prop=PROP, test_campaign=test, train_campaign=train,
            method=method, m_samples=100, radius_m=200.0, iterations=200,
            seed=42))
        medians[method] = report.median_rmse_db
    elapsed = time.monotonic() - started
    for method in ("OK", "SK", "GPR"):
        assert medians[method] < medians["TRPL_only"], (
            f"{label} ({method} {medians[method]:.3f} vs "
            f"baseline {medians['TRPL_only']:.3f})")
    assert elapsed < 300.0, label
    _ok(f"{label} (baseline {medians['TRPL_only']:.2f} dB, "
        f"OK {medians['OK']:.2f}, SK {medians['SK']:.2f}, "
        f"GPR {medians['GPR']:.2f}; {elapsed:.0f}s)")


def test_c07_completion_gain_inside_deep_shadow():
    label = ("completion-assisted GPR wins on blob neighborhoods in at "
             "least 80 of 100 paired draws")
    field = rs.CorrelationModel(a=0.7, p1=0.05, p2=0.005, q=0.1, sigma_z=2.0)
    alt = 60.0
    blobs = (
        Blob(_offset(BASE, 75.0, 60.0, alt), 45.0, -10.0),
        Blob(_offset(BASE, 187.0, 140.0, alt), 45.0, -10.0),
        Blob(_offset(BASE, 87.0, 160.0, alt), 45.0, -10.0),
    )
    scene = SceneSpec(gs=GS, cfg=PROP, corr=field, blobs=blobs,
                      noise_sd=1.5, seed=401)
    traj = lawnmower_trajectory(BASE, 250.0, 200.0, n_rows=14, alt_m=alt,
                                sample_spacing_m=7.0)
    meas, _ = generate_campaign(scene, traj)
    sf = extract_sf(meas, PROP, GS)
    z_all = np.array([s.z for s in sf])
    lat = np.array([s.location.lat_deg for s in sf])
    lon = np.array([s.location.lon_deg for s in sf])
    alts = np.array([s.location.alt_m for s in sf])
    near = np.array([
        any(horizontal_distance(s.location, b.center) <= 1.2 * b.radius_m
            for b in blobs)
        for s in sf
    ])
    n = len(sf)
    assert near.sum() >= 100

    started = time.monotonic()
    wins = 0
    for it in range(100):
        rng = np.random.default_rng((500, it))
        sampled = rng.choice(n, 100, replace=False)
        mask = np.zeros(n, bool)
        mask[sampled] = True
        targets = np.nonzero(~mask & near)[0]
        train = SampleSet(lat[sampled], lon[sampled], alts[sampled],
                          z_all[sampled])
        model = gpr_fit(train, field, sigma_y=2.0, sigma_gp=1.5)
        z_gpr, _ = gpr_predict_batch(model, lat[targets], lon[targets],
                                     alts[targets])
        pipe = McAssistedGpr(model, McConfig())
        z_mc = pipe.predict(lat[targets], lon[targets])
        rmse_gpr = float(np.sqrt(np.mean((z_gpr - z_all[targets]) ** 2)))
        rmse_mc = float(np.sqrt(np.mean((z_mc - z_all[targets]) ** 2)))
        wins += rmse_mc <= rmse_gpr
    elapsed = time.monotonic() - started
    assert wins >= 80, f"{label} (wins={wins})"
    assert elapsed < 600.0, label
    _ok(f"{label} (wins={wins}, {elapsed:.0f}s)")


def test_c08_sector_distortion_round_trip():
    label = ("a -6 dB sector is recovered within 0.5 dB and calibration "
             "helps at M=10")
    friis = dataclasses.replace(PROP, ground_rel_permittivity=1.0)
    quiet = rs.CorrelationModel(a=0.7, p1=0.05, p2=0.005, q=0.1, sigma_z=0.0)
    field = rs.CorrelationModel(a=0.7, p1=0.05, p2=0.005, q=0.1, sigma_z=2.0)
    sector = sector_blockage_delta(150.0, 190.0, -6.0)

    waypoints = []
    for radius in (120.0, 200.0, 300.0):
        ring = ring_trajectory(rs.GeoPoint(GS.lat_deg, GS.lon_deg, 40.0),
                               radius, alt_m=40.0, sample_spacing_m=6.0)
        stacked = stack_altitudes(ring, [30.0, 60.0, 100.0, 150.0])
        waypoints.extend(stacked.waypoints)
    calib_traj = Trajectory(waypoints=tuple(waypoints), kind="custom",
                            sample_spacing_m=6.0)
    calib_scene = SceneSpec(gs=GS, cfg=friis, corr=quiet, noise_sd=0.5,
                            pattern_distortion=sector, seed=501)
    calib, _ = generate_campaign(calib_scene, calib_traj)

    started = time.monotonic()
    ratios = estimate_a_uav(calib, friis, GS, campaign="calibration")
    effective = estimate_effective_pattern(ratios, friis.gs_pattern,
                                           bin_deg=10.0, min_support=15)
    delta = delta_gain(effective, friis.uav_pattern)
    az_c, _el_c = np.meshgrid(delta.az_centers, delta.el_centers,
                              indexing="ij")
    supported = delta.supported
    inside = (az_c >= 150.0) & (az_c < 190.0)
    assert np.count_nonzero(supported & inside) >= 5, label
    err_inside = np.abs(delta.delta_db[supported & inside] + 6.0)
    err_outside = np.abs(delta.delta_db[supported & ~inside])
    assert err_inside.max() <= 0.5, f"{label} (inside {err_inside.max():.3f})"
    assert err_outside.max() <= 0.5, (
        f"{label} (outside {err_outside.max():.3f})")

    eval_scene = SceneSpec(gs=GS, cfg=friis, corr=field, noise_sd=0.5,
                           pattern_distortion=sector, seed=502)
    test_traj = lawnmower_trajectory(BASE, 500.0, 400.0, n_rows=10,
                                     alt_m=70.0, sample_spacing_m=14.0)
    test, _ = generate_campaign(eval_scene, test_traj)
    shared = dict(gs=GS, prop=friis, test_campaign=test, method="OK",
                  m_samples=10, radius_m=200.0, iterations=200, seed=77,
                  corr_model=field, delta=delta)
    calibrated = monte_carlo_eval(EvalConfig(calibrated=True, **shared))
    baseline = monte_carlo_eval(EvalConfig(calibrated=False, **shared))
    elapsed = time.monotonic() - started
    assert calibrated.median_rmse_db < baseline.median_rmse_db, (
        f"{label} ({calibrated.median_rmse_db:.3f} vs "
        f"{baseline.median_rmse_db:.3f})")
    assert elapsed < 300.0, label
    _ok(f"{label} (calibrated {calibrated.median_rmse_db:.2f} dB vs "
        f"baseline {baseline.median_rmse_db:.2f} dB; {elapsed:.0f}s)")


def test_c09_protocol_is_deterministic_and_thread_invariant():
    label = "5000-iteration runs repeat bit-identically"
    traj = zigzag_trajectory(BASE, 500.0, 400.0, n_legs=11, alt_m=70.0,
                             sample_spacing_m=14.0)
    test, _ = generate_campaign(
        SceneSpec(gs=GS, cfg=PROP, corr=CORR, seed=102), traj)
    cfg = EvalConfig(gs=GS, prop=PROP, test_campaign=test, method="OK",
                     m_samples=100, radius_m=70.0, iterations=5000, seed=3,
                     corr_model=CORR)
    first = monte_carlo_eval(cfg)
    second = monte_carlo_eval(cfg)
    assert first.rmse_db == second.rmse_db, label
    assert first.median_rmse_db == second.median_rmse_db, label
    _ok(f"{label} (median {first.median_rmse_db:.4f} dB)")


def test_c10_bulk_csv_pathway(tmp_path):
    label = "a 10000-row campaign file evaluates end-to-end inside two minutes"
    quiet = rs.CorrelationModel(a=0.7, p1=0.05, p2=0.005, q=0.1, sigma_z=0.0)
    traj = lawnmower_trajectory(BASE, 900.0, 800.0, n_rows=24, alt_m=60.0,
                                sample_spacing_m=2.2)
    big, _ = generate_campaign(
        SceneSpec(gs=GS, cfg=PROP, corr=quiet, noise_sd=3.0, seed=601), traj)
    assert len(big) >= 10000
    path = tmp_path / "big.csv"
    write_measurements_csv(path, big[:10000])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "gs": _geopoint_to_dict(GS),
        "prop": _prop_to_dict(PROP),
        "corr_model": _corr_to_dict(CORR),
        "mean_z": 0.0,
    }))
    report_path = tmp_path / "report.json"
    started = time.monotonic()
    code = cli_main(["eval", "--config", str(cfg_path), "--test", str(path),
                     "--method", "OK", "-M", "100", "--iterations", "100",
                     "-R", "70", "--seed", "8",
                     "--out", str(report_path)])
    elapsed = time.monotonic() - started
    assert code == 0, label
    report = json.loads(report_path.read_text())
    assert report["n_test"] == 10000, label
    assert len(report["rmse_db"]) == 100, label
    assert np.isfinite(report["median_rmse_db"]), label
    assert elapsed < 120.0, label
    _ok(f"{label} ({elapsed:.0f}s)")
