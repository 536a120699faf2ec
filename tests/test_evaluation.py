import dataclasses
import warnings

import numpy as np
import pytest

import remsense as rs
from remsense import evaluation, gpr
from remsense.evaluation import (
    CampaignValues,
    EvalConfig,
    fit_residual_model,
    ingest_measurements,
    monte_carlo_eval,
    sweep,
)
from remsense.gpr import estimate_hyperparameters
from remsense.scenes import (
    SceneSpec,
    generate_campaign,
    ring_trajectory,
    stack_altitudes,
    write_measurements_csv,
)
from remsense.shadowing import empirical_correlation, extract_sf

from conftest import CORR, GS, PROP, offset_point

QUIET = rs.CorrelationModel(a=0.7, p1=0.05, p2=0.005, q=0.1, sigma_z=0.0)


def base_cfg(test, train=None, **kw):
    kw.setdefault("method", "OK")
    kw.setdefault("m_samples", 100)
    kw.setdefault("radius_m", 200.0)
    kw.setdefault("iterations", 8)
    kw.setdefault("seed", 5)
    kw.setdefault("corr_model", CORR)
    return EvalConfig(gs=GS, prop=PROP, test_campaign=test,
                      train_campaign=train, **kw)


# ------------------------------------------------------------------- ingest

def test_ingest_round_trip(tmp_path, gaussian_campaigns):
    train, _, _ = gaussian_campaigns
    path = tmp_path / "train.csv"
    write_measurements_csv(path, train)
    back = ingest_measurements(path)
    assert isinstance(back, rs.Campaign)
    for name in ("lat", "lon", "alt", "rsrp", "seq"):
        np.testing.assert_array_equal(getattr(back, name),
                                      getattr(train, name))
    assert len(back) == len(train)
    for a, b in zip(back, train):
        assert a.seq == b.seq
        assert a.location == b.location
        assert a.rsrp_dbm == b.rsrp_dbm


def test_ingest_parse_errors(tmp_path):
    p = tmp_path / "m.csv"

    p.write_text("")
    with pytest.raises(rs.ParseError) as exc:
        ingest_measurements(p)
    assert exc.value.line == 1

    p.write_text("lat,lon,alt,rsrp\n")
    with pytest.raises(rs.ParseError) as exc:
        ingest_measurements(p)
    assert exc.value.line == 1

    good = "".join(f"{i},35.7,-78.7,50.0,-60.0\n" for i in range(15))
    p.write_text("seq,lat_deg,lon_deg,alt_m,rsrp_dbm\n" + good
                 + "15,35.7,-78.7,50.0\n")
    with pytest.raises(rs.ParseError) as exc:
        ingest_measurements(p)
    assert exc.value.line == 17

    p.write_text("seq,lat_deg,lon_deg,alt_m,rsrp_dbm\n0,35.7,-78.7,50.0,nan\n")
    with pytest.raises(rs.ParseError) as exc:
        ingest_measurements(p)
    assert exc.value.line == 2

    p.write_text("seq,lat_deg,lon_deg,alt_m,rsrp_dbm\n0,95.0,-78.7,50.0,-60.0\n")
    with pytest.raises(rs.RangeError) as exc:
        ingest_measurements(p)
    assert "line 2" in str(exc.value)

    # the first faulty line wins, whatever the kinds of fault
    p.write_text("seq,lat_deg,lon_deg,alt_m,rsrp_dbm\n0,35.7,-78.7,50.0,-60.0\n"
                 "1,95.0,-78.7,50.0,-60.0\n2,35.7,-78.7,50.0,-60.0\n"
                 "3,35.7,-78.7,50.0\n")
    with pytest.raises(rs.RangeError) as exc:
        ingest_measurements(p)
    assert str(exc.value).startswith("line 3: latitude 95.0")


# ----------------------------------------------------------------- protocol

def test_trpl_only_is_exact_on_deterministic_scene():
    traj = ring_trajectory(rs.GeoPoint(35.721, -78.702, 60.0), 120.0,
                           alt_m=60.0, sample_spacing_m=15.0)
    meas, _ = generate_campaign(SceneSpec(gs=GS, cfg=PROP, corr=QUIET, seed=1),
                                traj)
    cfg = base_cfg(meas, method="TRPL_only", m_samples=10, iterations=3)
    report = monte_carlo_eval(cfg)
    assert report.median_rmse_db <= 1e-9
    assert max(report.rmse_db) <= 1e-9
    assert report.n_test == len(meas)


def test_dense_sk_beats_deterministic_baseline(gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    shared = dict(m_samples=len(test) - 1, iterations=40, seed=17)
    sk = monte_carlo_eval(base_cfg(test, train, method="SK", **shared))
    trpl = monte_carlo_eval(base_cfg(test, train, method="TRPL_only", **shared))
    assert sk.median_rmse_db < trpl.median_rmse_db


def test_repeat_run_bit_identical(gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    a = monte_carlo_eval(base_cfg(test, train))
    b = monte_carlo_eval(base_cfg(test, train))
    assert a.rmse_db == b.rmse_db
    assert a.elevation_bin_rmse_db == b.elevation_bin_rmse_db


def test_worker_count_does_not_change_results(gaussian_campaigns):
    # with or without workers= the report is the same: the keyword warns
    # once and is neither stored nor echoed
    assert "workers" not in {f.name for f in dataclasses.fields(EvalConfig)}
    train, test, _ = gaussian_campaigns
    for method, iterations in (("OK", 8), ("GPR", 4), ("MC_GPR", 2)):
        kw = dict(method=method, iterations=iterations)
        plain = monte_carlo_eval(base_cfg(test, train, **kw)).to_dict()
        assert "workers" not in plain["config"]
        for workers in (0, 4):
            with pytest.warns(FutureWarning, match="no effect") as caught:
                cfg = base_cfg(test, train, workers=workers, **kw)
            assert len(caught) == 1
            assert monte_carlo_eval(cfg).to_dict() == plain


def test_sweep_warns_about_workers_once(gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    with pytest.warns(FutureWarning, match="no effect") as caught:
        base = base_cfg(test, train, iterations=2, workers=4)
        reports = sweep(base, "R", [100.0, 200.0])
    assert len(caught) == 1
    assert [r.config["radius_m"] for r in reports] == [100.0, 200.0]
    # replace() does not pass the init-only keyword on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dataclasses.replace(base, seed=9).seed == 9


def test_gpr_fit_builds_one_correlation_table(monkeypatch,
                                             gaussian_campaigns):
    train, _, _ = gaussian_campaigns
    samples = extract_sf(train, PROP, GS)
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return empirical_correlation(*args, **kwargs)

    for module in (evaluation, gpr):
        monkeypatch.setattr(module, "empirical_correlation", counting)
    fit = fit_residual_model(samples, "GPR")
    assert calls == [len(samples)]
    assert ((fit.sigma_y, fit.sigma_gp)
            == estimate_hyperparameters(samples))


def test_row_order_in_csv_does_not_matter(tmp_path, gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    # with every seq repeated four times, ties are ordered by location
    repeated = [dataclasses.replace(m, seq=m.seq // 4) for m in test]
    for k, rows in enumerate((test, repeated)):
        p0 = tmp_path / f"ordered{k}.csv"
        p1 = tmp_path / f"shuffled{k}.csv"
        write_measurements_csv(p0, rows)
        shuffled = list(rows)
        np.random.default_rng(3).shuffle(shuffled)
        write_measurements_csv(p1, shuffled)
        r0 = monte_carlo_eval(base_cfg(str(p0), train, iterations=4))
        r1 = monte_carlo_eval(base_cfg(str(p1), train, iterations=4))
        assert r0.rmse_db == r1.rmse_db


class _AuditValues(CampaignValues):
    def __init__(self, values):
        super().__init__(values)
        self.calls = []

    def take(self, indices):
        self.calls.append(np.sort(np.asarray(indices)))
        return super().take(indices)


def test_held_out_values_read_once_per_iteration(gaussian_campaigns):
    _, test, _ = gaussian_campaigns
    audit = _AuditValues([m.rsrp_dbm for m in test])
    cfg = base_cfg(sorted(test, key=lambda m: m.seq), method="TRPL_only",
                   m_samples=100, iterations=3)
    monte_carlo_eval(cfg, test_values=audit)
    n = len(test)
    assert len(audit.calls) == 6  # sampled read + scoring read, per iteration
    for k in range(3):
        sampled, scored = audit.calls[2 * k], audit.calls[2 * k + 1]
        assert len(sampled) == 100
        assert len(scored) == n - 100
        together = np.concatenate([sampled, scored])
        np.testing.assert_array_equal(np.sort(together), np.arange(n))


def test_tiny_radius_falls_back_to_deterministic(gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    shared = dict(m_samples=100, iterations=3, seed=11)
    ok = monte_carlo_eval(base_cfg(test, train, radius_m=0.5, **shared))
    trpl = monte_carlo_eval(base_cfg(test, train, method="TRPL_only", **shared))
    n_targets = (len(test) - 100) * 3
    assert ok.counters["fallback_targets"] == n_targets
    assert ok.rmse_db == trpl.rmse_db


@pytest.mark.parametrize("method", evaluation.METHODS)
def test_predict_residuals_is_each_methods_predictor(gaussian_campaigns,
                                                     method):
    train, test, _ = gaussian_campaigns
    samples = extract_sf(train, PROP, GS)
    lat, lon, alt = test.lat, test.lon, test.alt

    def predict(method, samples):
        fit = (None if method == "TRPL_only"
               else fit_residual_model(samples, method))
        counters = dict.fromkeys(("fallback_targets", "variance_clamps",
                                  "mc_bisection_maxed"), 0)
        out = evaluation.predict_residuals(
            method, fit, samples, lat, lon, alt, radius_m=15.0,
            mc=rs.McConfig(), counters=counters)
        return fit, out, counters

    fit, out, counters = predict(method, samples)
    want = dict.fromkeys(counters, 0)
    if method == "TRPL_only":
        expected = np.zeros(len(test))
    elif method in ("GPR", "MC_GPR"):
        model = gpr.gpr_fit(samples, fit.corr, fit.sigma_y, fit.sigma_gp)
        if method == "GPR":
            expected = gpr.gpr_predict_mean(model, lat, lon, alt)
        else:
            pipeline = rs.McAssistedGpr(model, rs.McConfig())
            want["variance_clamps"] = model.clamp_events
            want["mc_bisection_maxed"] = int(not pipeline.mc.converged)
            expected = pipeline.predict(lat, lon)
    else:
        kcfg = rs.KrigingConfig(radius_m=15.0, variant=method,
                                mean_z=fit.mean_z)
        batch = rs.kriging.predict_batch(samples, fit.corr, lat, lon, alt,
                                         kcfg, transform=fit.transform,
                                         model_u=fit.corr_u)
        expected = batch.z_hat
        want["fallback_targets"] = int(np.count_nonzero(batch.fallback))
        # the lawnmower's rows leave targets more than 15 m from a sample
        assert want["fallback_targets"] > 0
    assert np.array_equal(out, expected)
    assert counters == want

    if method.startswith("TG_"):
        # below 20 samples a TG fit has no transform: the plain variant
        few = samples[:15]
        with pytest.warns(UserWarning):
            _, tg, tg_counters = predict(method, few)
        _, plain, plain_counters = predict(method[3:], few)
        assert np.array_equal(tg, plain)
        assert tg_counters == plain_counters


@pytest.mark.parametrize("radius_m", [70.0, 200.0])
@pytest.mark.parametrize("method", ["OK", "SK", "TG_OK", "TG_SK"])
def test_kriged_residuals_equal_predict_batch(monkeypatch, gaussian_campaigns,
                                              method, radius_m):
    train, test, _ = gaussian_campaigns
    draws = []

    def recording(cfg, fit, data, s_idx, z_m, t_idx, counters):
        out = residuals(cfg, fit, data, s_idx, z_m, t_idx, counters)
        draws.append((fit, data, s_idx, z_m, t_idx, out))
        return out

    residuals = evaluation._residuals_kriging
    monkeypatch.setattr(evaluation, "_residuals_kriging", recording)
    report = monte_carlo_eval(base_cfg(test, train, method=method,
                                       radius_m=radius_m, iterations=30))
    assert len(draws) == 30
    fallbacks = 0
    for fit, data, s_idx, z_m, t_idx, out in draws:
        samples = rs.SampleSet(data.lat[s_idx], data.lon[s_idx],
                               data.alt[s_idx], z_m, data.seq[s_idx])
        kcfg = rs.KrigingConfig(radius_m=radius_m, variant=method,
                                mean_z=fit.mean_z)
        batch = rs.kriging.predict_batch(
            samples, fit.corr, data.lat[t_idx], data.lon[t_idx],
            data.alt[t_idx], kcfg, transform=fit.transform,
            model_u=fit.corr_u)
        assert np.array_equal(out, batch.z_hat)
        fallbacks += int(np.count_nonzero(batch.fallback))
    assert fallbacks == report.counters["fallback_targets"]
    # the zigzag's legs leave targets more than 70 m from any sample
    assert (fallbacks > 0) == (radius_m == 70.0)


@pytest.mark.parametrize("method", evaluation.METHODS)
def test_report_diagnostics_count_the_kriged_systems(monkeypatch,
                                                     gaussian_campaigns,
                                                     method):
    train, test, _ = gaussian_campaigns
    used = []

    def recording(cfg, fit, data, s_idx, z_m, t_idx, counters):
        samples = rs.SampleSet(data.lat[s_idx], data.lon[s_idx],
                               data.alt[s_idx], z_m, data.seq[s_idx])
        kcfg = rs.KrigingConfig(radius_m=cfg.radius_m, variant=cfg.method,
                                mean_z=fit.mean_z)
        used.append(rs.predict_batch(
            samples, fit.corr, data.lat[t_idx], data.lon[t_idx],
            data.alt[t_idx], kcfg, transform=fit.transform,
            model_u=fit.corr_u).neighbors_used)
        return residuals(cfg, fit, data, s_idx, z_m, t_idx, counters)

    residuals = evaluation._residuals_kriging
    monkeypatch.setattr(evaluation, "_residuals_kriging", recording)
    iterations = 2 if method == "MC_GPR" else 4
    report = monte_carlo_eval(base_cfg(test, train, method=method,
                                       radius_m=70.0, iterations=iterations))
    diag = report.to_dict()["diagnostics"]
    assert list(diag) == ["systems", "k_sum", "k_max", "jitter_retries"]
    if method not in ("OK", "SK", "TG_OK", "TG_SK"):
        assert not used and set(diag.values()) == {0}
        return
    k = np.concatenate(used)
    assert diag == {"systems": int(np.count_nonzero(k)),
                    "k_sum": int(k.sum()), "k_max": int(k.max()),
                    "jitter_retries": 0}
    assert diag["systems"] == (iterations * (len(test) - 100)
                               - report.counters["fallback_targets"])


@pytest.mark.parametrize("method", ["OK", "SK"])
def test_eval_counts_the_jitter_retries(method):
    # four rows share a location, so whichever row a draw holds out, its
    # system holds duplicates
    p = offset_point(GS, 60.0, 0.0, 60.0)
    rows = [rs.Measurement(p, -60.0 - k, seq=k) for k in range(4)]
    rows.append(rs.Measurement(offset_point(GS, 90.0, 30.0, 60.0), -62.0,
                               seq=4))
    cfg = base_cfg(rows, method=method, m_samples=4, iterations=1,
                   radius_m=500.0)
    report = monte_carlo_eval(cfg)
    assert report.diagnostics == {"systems": 1, "k_sum": 4, "k_max": 4,
                                  "jitter_retries": 1}
    assert np.isfinite(report.rmse_db[0])
    with pytest.raises(rs.SingularSystem):
        monte_carlo_eval(dataclasses.replace(cfg, jitter=0.0))


# calibrated runs bin the train campaign's directions at 10 degrees: the
# lawnmower fills no 5-degree bin with 25 samples
CALIBRATED = dict(calibrated=True, calibration_bin_deg=10.0,
                  calibration_min_support=5)


@pytest.mark.parametrize("method,iterations", [("GPR", 6), ("MC_GPR", 2)])
@pytest.mark.parametrize("calibrated", [False, True])
def test_covariance_table_does_not_change_reports(monkeypatch,
                                                  gaussian_campaigns, method,
                                                  iterations, calibrated):
    train, test, _ = gaussian_campaigns
    tables = []

    def recording(*args, **kwargs):
        tables.append(args)
        return cov_rows(*args, **kwargs)

    cov_rows = evaluation._cov_rows
    monkeypatch.setattr(evaluation, "_cov_rows", recording)
    cfg = base_cfg(test, train, method=method, iterations=iterations,
                   **(CALIBRATED if calibrated else {}))
    with_table = monte_carlo_eval(cfg)
    assert len(tables) == 1
    monkeypatch.setattr(evaluation, "_COV_TABLE_ELEMENTS", 0)
    without = monte_carlo_eval(cfg)
    # without the table a draw leaves its kernel to gpr_fit and, for
    # GPR, its cross-covariance to gpr_predict_mean: no _cov_rows call
    assert len(tables) == 1
    assert with_table.to_dict() == without.to_dict()


@pytest.mark.parametrize("table", [True, False])
def test_gpr_residuals_equal_public_fit_and_mean(monkeypatch,
                                                 gaussian_campaigns, table):
    train, test, _ = gaussian_campaigns
    draws = []

    def recording(method, fit, samples, lat, lon, alt, **kwargs):
        out = residuals(method, fit, samples, lat, lon, alt, **kwargs)
        draws.append((fit, samples, lat, lon, alt, kwargs["_tables"], out))
        return out

    residuals = evaluation.predict_residuals
    monkeypatch.setattr(evaluation, "predict_residuals", recording)
    if not table:
        monkeypatch.setattr(evaluation, "_COV_TABLE_ELEMENTS", 0)
    monte_carlo_eval(base_cfg(test, train, method="GPR", iterations=30))
    assert len(draws) == 30
    for fit, samples, lat, lon, alt, tables, out in draws:
        assert (tables is not None) == table
        model = gpr.gpr_fit(
            rs.SampleSet(samples.lat, samples.lon, samples.alt, samples.z),
            fit.corr, fit.sigma_y, fit.sigma_gp)
        mean = gpr.gpr_predict_mean(model, lat, lon, alt)
        assert np.array_equal(out, mean)


def test_gpr_eval_builds_one_table_and_no_lags_per_draw(monkeypatch,
                                                        gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    calls = {}
    for name in ("_lag_kernel", "_cross_lags", "_grid_lags"):
        def counting(*args, _name=name, _f=getattr(gpr, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args)
        monkeypatch.setattr(gpr, name, counting)
    for iterations in (3, 9):
        calls.clear()
        monte_carlo_eval(base_cfg(test, train, method="GPR",
                                  iterations=iterations))
        # one 320 x 320 kernel: the table
        assert calls == {"_lag_kernel": 1}


def test_elevation_bins_match_geometry(gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    report = monte_carlo_eval(base_cfg(test, train, iterations=4))
    assert report.elevation_bin_centers == [5.0, 15.0, 25.0, 35.0, 45.0,
                                            55.0, 65.0, 75.0, 85.0]
    filled = [v is not None for v in report.elevation_bin_rmse_db]
    # the 70 m test track spans link elevations of roughly 6 to 28 degrees
    assert filled[:3] == [True, True, True]
    assert not any(filled[3:])


def test_tg_without_enough_train_data_warns_and_falls_back(gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    small = train[:15]
    shared = dict(m_samples=100, iterations=3, seed=9)
    with pytest.warns(UserWarning):
        tg = monte_carlo_eval(base_cfg(test, small, method="TG_OK", **shared))
    ok = monte_carlo_eval(base_cfg(test, small, method="OK", **shared))
    assert tg.rmse_db == ok.rmse_db


def test_validation_errors(gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    with pytest.raises(ValueError):
        monte_carlo_eval(base_cfg([], iterations=1))
    with pytest.raises(ValueError):
        monte_carlo_eval(base_cfg(test, m_samples=len(test), iterations=1))
    with pytest.raises(ValueError):
        monte_carlo_eval(base_cfg(test, list(test), iterations=1))
    with pytest.raises(ValueError):
        monte_carlo_eval(base_cfg(test, method="TRPL_only", calibrated=True,
                                  iterations=1))
    # a calibrated eval checks its binning before it reads a campaign
    for bad, message in ((dict(calibration_bin_deg=7.0), "divide 360"),
                         (dict(calibration_min_support=0), "min_support")):
        with pytest.raises(rs.RangeError, match=message):
            base_cfg("missing.csv", "missing.csv", calibrated=True, **bad)
    for bad in (dict(method="IDW"), dict(m_samples=0), dict(iterations=0),
                dict(radius_m=0.0), dict(radius_m=-5.0),
                dict(radius_m=np.nan), dict(radius_m=np.inf),
                dict(jitter=-1.0), dict(jitter=np.nan),
                dict(jitter=np.inf)):
        with pytest.raises(ValueError):
            base_cfg(test, **bad)
    # counts are integers, checked before any campaign is read
    for name, value in (("m_samples", 50.0), ("m_samples", True),
                        ("iterations", 2.5), ("iterations", True),
                        ("seed", 1.0), ("seed", True), ("seed", -1)):
        with pytest.raises(rs.RangeError, match=f"{name} must be an integer"):
            base_cfg("missing.csv", "missing.csv", **{name: value})
    base_cfg(test, m_samples=np.int64(50), iterations=np.int64(2),
             seed=np.int64(0))
    # so are mean_z, sigma_split and the type of every real setting
    for bad, message in ((dict(mean_z=np.nan), "mean_z must be finite"),
                         (dict(mean_z="0"), "mean_z must be finite"),
                         (dict(sigma_split=[1.0]), "sigma_split must hold"),
                         (dict(sigma_split=2.0), "sigma_split must hold"),
                         (dict(sigma_split=[-1.0, 1.0]),
                          "sigma_split must be non-negative"),
                         (dict(sigma_split=[1.0, np.inf]),
                          "sigma_split must be non-negative"),
                         (dict(radius_m="200"), "got '200'"),
                         (dict(radius_m=True), "got True"),
                         (dict(radius_m=None), "got None")):
        with pytest.raises(rs.RangeError, match=message):
            base_cfg("missing.csv", "missing.csv", **bad)
    assert base_cfg(test, sigma_split=[2, np.float64(1.5)]).sigma_split == (
        2.0, 1.5)


def test_mc_gpr_rejects_a_multi_altitude_test_campaign(gaussian_campaigns):
    train, _, _ = gaussian_campaigns
    base = rs.GeoPoint(35.721, -78.702, 50.0)
    track = rs.zigzag_trajectory(base, 500, 400, n_legs=11, alt_m=70.0,
                                 sample_spacing_m=14.0)
    scene = SceneSpec(gs=GS, cfg=PROP, corr=CORR, seed=102)
    stacked, _ = generate_campaign(scene, stack_altitudes(track, [40.0, 120.0]))
    assert len(stacked) == 640
    audit = _AuditValues(stacked.rsrp)
    with pytest.raises(rs.RangeError, match="2 altitudes"):
        monte_carlo_eval(base_cfg(stacked, train, method="MC_GPR",
                                  iterations=2), test_values=audit)
    assert audit.calls == []  # raised before the first iteration


def test_train_rows_in_test_campaign_rejected(gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    leaked = list(train) + list(test[40:50])
    first = min(m.seq for m in test[40:50])
    with pytest.raises(ValueError, match=rf"^10 test rows .*seq={first}\)"):
        monte_carlo_eval(base_cfg(test, leaked, iterations=1))


def test_test_row_on_station_raises_degenerate_link(gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    on_station = list(test) + [rs.Measurement(GS, -40.0, seq=10**6)]
    with pytest.raises(rs.DegenerateLink, match="seq=1000000"):
        monte_carlo_eval(base_cfg(on_station, train, method="TRPL_only",
                                  iterations=1))


def test_report_serializes(gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    report = monte_carlo_eval(base_cfg(test, train, iterations=2))
    doc = report.to_dict()
    assert doc["method"] == "OK"
    assert len(doc["rmse_db"]) == 2
    assert doc["n_train"] == len(train)
    assert doc["config"]["test_campaign"].startswith("<in-memory")


# -------------------------------------------------------------------- sweep

def test_sweep_single_value_equals_plain_eval(gaussian_campaigns):
    # each value's report is the plain eval of its configuration, with the
    # seed offset by the value's index, whatever stages the axis shares
    train, test, _ = gaussian_campaigns
    axes = (
        ("M", "m_samples", [50]),
        ("M", "m_samples", [30, 120, 50]),
        ("R", "radius_m", [70.0, 200.0]),
        ("method", "method", list(evaluation.METHODS)),
    )
    campaigns = [(train, test), test, (train, test[:250])]
    for extra in ({}, CALIBRATED):
        base = base_cfg(test, train, iterations=2, corr_model=None, **extra)
        for axis, name, values in axes:
            reports = sweep(base, axis, values)
            assert len(reports) == len(values)
            for k, (value, report) in enumerate(zip(values, reports)):
                cfg = dataclasses.replace(base, seed=base.seed + k,
                                          **{name: value})
                assert report.to_dict() == monte_carlo_eval(cfg).to_dict()
        reports = sweep(base, "altitude_campaign", campaigns)
        for k, (value, report) in enumerate(zip(campaigns, reports)):
            pair = value if isinstance(value, tuple) else (train, value)
            cfg = dataclasses.replace(base, train_campaign=pair[0],
                                      test_campaign=pair[1],
                                      seed=base.seed + k)
            assert report.to_dict() == monte_carlo_eval(cfg).to_dict()


def test_sweep_loads_and_fits_each_shared_stage_once(monkeypatch, tmp_path,
                                                     gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    write_measurements_csv(tmp_path / "train.csv", train)
    write_measurements_csv(tmp_path / "test.csv", test)
    calls = {}
    for name in ("ingest_measurements", "fit_correlation_model", "_cov_rows"):
        def counting(*args, _name=name, _f=getattr(evaluation, name),
                     **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(evaluation, name, counting)
    base = base_cfg(str(tmp_path / "test.csv"), str(tmp_path / "train.csv"),
                    method="GPR", iterations=2, corr_model=None)
    sweep(base, "M", [25, 50, 100, 200])
    assert calls == {"ingest_measurements": 2, "fit_correlation_model": 1,
                     "_cov_rows": 1}
    calls.clear()
    sweep(dataclasses.replace(base, method="OK"), "R", [70.0, 200.0])
    assert calls == {"ingest_measurements": 2, "fit_correlation_model": 1}
    # one raw-domain fit, shared, plus the TG score fits; one table each
    # for GPR and MC_GPR
    calls.clear()
    sweep(base, "method", list(evaluation.METHODS))
    assert calls == {"ingest_measurements": 2, "fit_correlation_model": 3,
                     "_cov_rows": 2}
    # a new campaign is a new load and fit
    calls.clear()
    sweep(base, "altitude_campaign", [base.test_campaign] * 2)
    assert calls == {"ingest_measurements": 4, "fit_correlation_model": 2,
                     "_cov_rows": 2}


def test_sweep_checks_every_value_before_the_first_draw(monkeypatch,
                                                        gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    draws = []

    def counting(cfg, fitted, data, index, counters):
        draws.append(index)
        return run_iteration(cfg, fitted, data, index, counters)

    run_iteration = evaluation._run_iteration
    monkeypatch.setattr(evaluation, "_run_iteration", counting)
    base = base_cfg(test, train, iterations=2)
    n = len(test)
    too_many = rf"^m_samples={n} must be < test campaign size {n}$"
    for axis, values, error, message in (
            ("M", [50, n], ValueError, too_many),
            ("M", [50, 0], rs.RangeError, "m_samples must be an integer"),
            ("R", [70.0, -1.0], rs.RangeError, "radius_m must be positive"),
            ("method", ["OK", "IDW"], ValueError, "method must be one of")):
        with pytest.raises(error, match=message):
            sweep(base, axis, values)
    for axis, values in (("R", [70.0, 200.0]), ("method", ["OK", "SK"])):
        with pytest.raises(ValueError, match=too_many):
            sweep(dataclasses.replace(base, m_samples=n), axis, values)
    assert draws == []
    sweep(base, "M", [50])
    assert draws == [0, 1]


@pytest.mark.parametrize("n_samples", [None, 15])
@pytest.mark.parametrize("method", evaluation.METHODS[1:])
def test_fit_given_the_raw_fit_equals_the_fit(gaussian_campaigns, method,
                                              n_samples):
    # what lets a method sweep fit the raw-domain model once
    train, _, _ = gaussian_campaigns
    samples = extract_sf(train, PROP, GS)[:n_samples]
    with warnings.catch_warnings():
        # below 20 samples the TG methods warn and run plain
        warnings.simplefilter("ignore", UserWarning)
        fit = fit_residual_model(samples, method)
        given = fit_residual_model(samples, method, corr=fit.corr)
    for f in dataclasses.fields(fit):
        a, b = getattr(fit, f.name), getattr(given, f.name)
        if isinstance(a, rs.NormalScoreTransform):
            assert np.array_equal(a.z_nodes, b.z_nodes)
            assert np.array_equal(a.u_nodes, b.u_nodes)
            assert a.mean_u == b.mean_u
        else:
            assert a == b, f.name
    assert (fit.transform is None) == (method not in ("TG_OK", "TG_SK")
                                       or n_samples is not None)


def test_eval_leaves_the_warning_registry_alone(gaussian_campaigns):
    # a warning raised at one place shows once under the "default" action,
    # however many evals run between its raises
    train, test, _ = gaussian_campaigns
    cfg = base_cfg(test, train, iterations=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for _ in range(2):
            warnings.warn("raised at one place", UserWarning)
            monte_carlo_eval(cfg)
    assert [str(w.message) for w in caught] == ["raised at one place"]


def test_sweep_more_samples_do_not_hurt(gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    base = base_cfg(test, train, method="SK", iterations=12, seed=23)
    lo, hi = sweep(base, "M", [30, 120])
    assert hi.median_rmse_db <= lo.median_rmse_db + 0.1


def test_sweep_radius_growth_does_not_hurt(gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    base = base_cfg(test, train, method="OK", iterations=12, seed=29)
    small, big = sweep(base, "R", [70.0, 200.0])
    assert big.median_rmse_db <= small.median_rmse_db + 0.1


def test_sweep_campaign_axis_and_csv(tmp_path, gaussian_campaigns):
    train, test, _ = gaussian_campaigns
    base = base_cfg(test, train, iterations=3)
    out = tmp_path / "sweep.csv"
    reports = sweep(base, "altitude_campaign", [(train, test)], out_csv=out)
    assert len(reports) == 1
    import csv
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["axis", "value", "iteration", "rmse_db",
                       "median_rmse_db", "method", "calibrated", "m_samples",
                       "radius_m", "seed"]
    assert len(rows) == 1 + 3
    assert [float(r[3]) for r in rows[1:]] == reports[0].rmse_db
    labels = {r[1] for r in rows[1:]}
    assert labels == {f"<campaign {len(train)} rows>|"
                      f"<campaign {len(test)} rows>"}
    with pytest.raises(ValueError):
        sweep(base, "bogus", [1])
