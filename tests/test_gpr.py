import tracemalloc

import numpy as np
import pytest

import remsense as rs
from remsense import geo, gpr
from remsense.geo import _arc_distance
from remsense.gpr import (
    estimate_hyperparameters,
    gpr_fit,
    gpr_predict,
    gpr_predict_batch,
    gpr_predict_mean,
)
from remsense.kriging import KrigingConfig, sk_predict

from conftest import CORR, GS, offset_point

NUGGET = rs.CorrelationModel(a=1.0, p1=10.0, p2=10.0, q=10.0, sigma_z=1.0)


def uniform_points(n, extent, seed, alt=60.0):
    rng = np.random.default_rng(seed)
    return [offset_point(GS, 30.0 + float(rng.uniform(0, extent)),
                         40.0 + float(rng.uniform(0, extent)), alt)
            for _ in range(n)]


def coords(points):
    return (np.array([p.lat_deg for p in points]),
            np.array([p.lon_deg for p in points]),
            np.array([p.alt_m for p in points]))


def correlation_matrix(points, model):
    lat, lon, alt = coords(points)
    dh = _arc_distance(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
    dv = np.abs(alt[:, None] - alt[None, :])
    return (np.exp(-model.q * dv)
            * (model.a * np.exp(-model.p1 * dh)
               + (1 - model.a) * np.exp(-model.p2 * dh)))


def field_of(points, model, sigma, seed):
    r = correlation_matrix(points, model)
    w, v = np.linalg.eigh(sigma**2 * r)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    return root @ np.random.default_rng(seed).standard_normal(len(points))


def samples_of(points, z):
    return [rs.SfSample(p, float(v), i) for i, (p, v) in enumerate(zip(points, z))]


# --------------------------------------------------------------- prediction

def test_noise_free_model_interpolates_training_data():
    pts = uniform_points(50, 300.0, seed=30)
    z = field_of(pts, CORR, 2.0, seed=30)
    m = gpr_fit(samples_of(pts, z), CORR, sigma_y=2.0, sigma_gp=0.0)
    zh, var = gpr_predict_batch(m, *coords(pts))
    assert np.max(np.abs(zh - z)) <= 1e-6
    assert np.max(var) <= 1e-6


def test_matches_simple_kriging_with_zero_mean():
    pts = uniform_points(40, 350.0, seed=31)
    z = np.random.default_rng(31).normal(0, 3, 40)
    sf = samples_of(pts, z)
    m = gpr_fit(sf, CORR, sigma_y=CORR.sigma_z, sigma_gp=0.0)
    cfg = KrigingConfig(radius_m=1e6, variant="SK", mean_z=0.0)
    for k in range(12):
        tgt = offset_point(GS, 50.0 + 23.0 * k, 70.0 + 19.0 * k, 60.0)
        zh, var = gpr_predict(m, tgt)
        sk = sk_predict(sf, CORR, tgt, cfg)
        assert zh == pytest.approx(sk.z_hat, abs=1e-9)
        assert var == pytest.approx(sk.mse, abs=1e-9)


def test_decorrelated_returns_prior():
    pts = [offset_point(GS, 40.0 + 60.0 * k, 50.0, 60.0) for k in range(5)]
    z = [3.0, -1.0, 2.0, 0.5, -2.5]
    m = gpr_fit(samples_of(pts, z), NUGGET, sigma_y=2.0, sigma_gp=1.0)
    assert m.prior_variance == pytest.approx(5.0)
    tgt = offset_point(GS, 70.0, 350.0, 60.0)
    zh, var = gpr_predict(m, tgt)
    assert zh == pytest.approx(0.0, abs=1e-9)
    assert var == pytest.approx(5.0, abs=1e-9)


def test_dense_five_sample_oracle():
    pts = uniform_points(5, 200.0, seed=33)
    z = np.array([1.0, -2.0, 0.5, 3.0, -1.5])
    sy, sg = 1.8, 0.7
    m = gpr_fit(samples_of(pts, z), CORR, sigma_y=sy, sigma_gp=sg)
    tgt = offset_point(GS, 120.0, 80.0, 65.0)

    k_train = sy**2 * correlation_matrix(pts, CORR) + sg**2 * np.eye(5)
    lat, lon, alt = coords(pts)
    dh = _arc_distance(lat, lon, tgt.lat_deg, tgt.lon_deg)
    dv = np.abs(alt - tgt.alt_m)
    k0 = sy**2 * (np.exp(-CORR.q * dv)
                  * (CORR.a * np.exp(-CORR.p1 * dh)
                     + (1 - CORR.a) * np.exp(-CORR.p2 * dh)))
    sol = np.linalg.solve(k_train, z)
    want_mean = float(k0 @ sol)
    want_var = float(sy**2 + sg**2 - k0 @ np.linalg.solve(k_train, k0))
    zh, var = gpr_predict(m, tgt)
    assert zh == pytest.approx(want_mean, abs=1e-9)
    assert var == pytest.approx(want_var, abs=1e-9)


def test_posterior_mean_linear_in_observations():
    pts = uniform_points(20, 250.0, seed=34)
    rng = np.random.default_rng(34)
    z1 = rng.normal(0, 2, 20)
    z2 = rng.normal(0, 2, 20)
    tgt = offset_point(GS, 90.0, 140.0, 60.0)
    preds = []
    for z in (z1, z2, z1 + z2):
        m = gpr_fit(samples_of(pts, z), CORR, sigma_y=2.0, sigma_gp=0.8)
        preds.append(gpr_predict(m, tgt))
    assert preds[2][0] == pytest.approx(preds[0][0] + preds[1][0], abs=1e-9)
    # the variance ignores the observed values entirely
    assert preds[2][1] == pytest.approx(preds[0][1], abs=1e-12)


def test_variance_bounds():
    pts = uniform_points(100, 400.0, seed=35)
    z = np.random.default_rng(35).normal(0, 2, 100)
    sy, sg = 2.0, 1.0
    m = gpr_fit(samples_of(pts, z), CORR, sigma_y=sy, sigma_gp=sg)
    glat, glon, galt = coords(
        [offset_point(GS, 20.0 + 31.0 * (k % 15), 25.0 + 29.0 * (k // 15), 60.0)
         for k in range(150)]
    )
    _, var = gpr_predict_batch(m, glat, glon, galt)
    assert np.all(var <= m.prior_variance + 1e-12)
    assert np.all(var >= 0.0)
    # at training locations the residual noise floor keeps the variance
    # strictly positive, and it never exceeds twice the noise power
    _, var_tr = gpr_predict_batch(m, *coords(pts))
    assert np.all(var_tr > 0.0)
    assert np.all(var_tr <= 2.0 * sg**2 + 1e-6)


def test_single_point_variance_hits_upper_range():
    # one isolated observation: posterior variance stays between the
    # noise power and twice the noise power
    p = offset_point(GS, 60.0, 60.0, 60.0)
    m = gpr_fit([rs.SfSample(p, 1.0, 0)], CORR, sigma_y=2.0, sigma_gp=1.0)
    _, var = gpr_predict(m, p)
    assert var == pytest.approx(5.0 - 16.0 / 5.0, abs=1e-9)
    assert var > 1.0


# ------------------------------------------------------------ blocked kernels

def test_blocks_do_not_change_fit_or_prediction(monkeypatch):
    pts = uniform_points(150, 400.0, seed=40)
    z = field_of(pts, CORR, 2.0, seed=40)
    grid = [offset_point(GS, 20.0 + 23.0 * (k % 16), 25.0 + 27.0 * (k // 16),
                         60.0) for k in range(110)]
    # training locations too: with no noise their variances round to
    # either side of 0, so some are clamped
    targets = coords(pts + grid)

    def fit_and_predict():
        m = gpr_fit(samples_of(pts, z), CORR, sigma_y=2.0, sigma_gp=0.0)
        zh, var = gpr_predict_batch(m, *targets)
        return m, zh, var, gpr_predict_mean(m, *targets)

    m1, zh1, var1, mean1 = fit_and_predict()
    # the mean alone is the same bits as the mean beside the variance
    assert np.array_equal(mean1, zh1)
    # 24 items per block: 7 column blocks of the kernel, 11 target blocks
    monkeypatch.setattr(geo, "_BLOCK_ELEMENTS", 1)
    m2, zh2, var2, mean2 = fit_and_predict()
    assert np.array_equal(m1._cho[0], m2._cho[0])
    assert np.array_equal(m1._alpha, m2._alpha)
    assert np.array_equal(zh1, zh2)
    assert np.array_equal(var1, var2)
    assert np.array_equal(mean1, mean2)
    assert m1.clamp_events == m2.clamp_events > 0


def test_grid_targets_take_the_grid_lags_with_the_same_bits(monkeypatch):
    spec = rs.GridSpec(origin=offset_point(GS, 30.0, 40.0, 60.0),
                       spacing_m=9.0, n_rows=13, n_cols=17, alt_m=60.0)
    lat, lon = (g.ravel() for g in spec.node_latlon())
    targets = (lat, lon, np.full(lat.size, 60.0))
    # training rows on grid nodes, without noise: their variances round
    # to either side of 0, so some are clamped
    on_grid = np.random.default_rng(44).choice(lat.size, 60, replace=False)
    train = rs.SampleSet(lat[on_grid], lon[on_grid], np.full(60, 60.0),
                         np.random.default_rng(45).standard_normal(60))
    calls = []
    monkeypatch.setattr(gpr, "_grid_lags",
                        lambda *a: calls.append(a) or geo._grid_lags(*a))

    def predict():
        m = gpr_fit(train, CORR, sigma_y=2.0, sigma_gp=0.0)
        zh, var = gpr_predict_batch(m, *targets)
        return zh, var, gpr_predict_mean(m, *targets), m.clamp_events

    # 24-node blocks, most of them starting and ending inside a row
    monkeypatch.setattr(geo, "_BLOCK_ELEMENTS", 1)
    grid = predict()
    assert len(calls) == 2 * -(-lat.size // 24)
    monkeypatch.setattr(gpr, "_grid_axes", lambda lat, lon, alt: None)
    scattered = predict()
    assert len(calls) == 2 * -(-lat.size // 24)
    for got, want in zip(grid[:3], scattered[:3]):
        assert np.array_equal(got, want)
    assert grid[3] == scattered[3] > 0


def test_predict_memory_does_not_grow_with_targets():
    rng = np.random.default_rng(41)
    n, t = 600, 8000
    train = rs.SampleSet(GS.lat_deg + rng.uniform(0.001, 0.005, n),
                         GS.lon_deg + rng.uniform(0.001, 0.005, n),
                         np.full(n, 60.0), rng.standard_normal(n))
    m = gpr_fit(train, CORR, sigma_y=2.0, sigma_gp=1.0)
    lat = GS.lat_deg + rng.uniform(0.001, 0.005, t)
    lon = GS.lon_deg + rng.uniform(0.001, 0.005, t)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gpr_predict_batch(m, lat, lon, np.full(t, 60.0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # one 600 x 8000 cross-kernel is 37 MB, and building it whole peaked
    # at 220 MB; blocks of 2**20 values keep about eight 8 MB temporaries
    assert peak < 96 * 2**20


def test_fit_memory_is_one_kernel(monkeypatch):
    rng = np.random.default_rng(43)
    n = 3000
    train = rs.SampleSet(GS.lat_deg + rng.uniform(0.001, 0.005, n),
                         GS.lon_deg + rng.uniform(0.001, 0.005, n),
                         np.full(n, 60.0), rng.standard_normal(n))
    # 24-column blocks: their temporaries, about 6 x 24 x n x 8 bytes,
    # stay under n^2 / 2 bytes at this n
    monkeypatch.setattr(geo, "_BLOCK_ELEMENTS", 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gpr_fit(train, CORR, sigma_y=2.0, sigma_gp=1.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the kernel is 8 n^2 bytes; a finiteness scan of it would add an
    # n x n boolean temporary, n^2 more
    assert peak < 8.5 * n * n


def test_predict_rejects_ragged_targets():
    m = gpr_fit(samples_of(uniform_points(5, 100.0, seed=42), np.ones(5)),
                CORR, sigma_y=2.0, sigma_gp=0.5)
    with pytest.raises(ValueError, match=r"lat \(3,\), lon \(1,\), alt \(1,\)"):
        gpr_predict_batch(m, [35.7, 35.701, 35.7005], [-78.7], [50.0])
    with pytest.raises(ValueError, match=r"lat \(2, 1\)"):
        gpr_predict_batch(m, [[35.7], [35.701]], [-78.7, -78.7], [50.0, 50.0])
    with pytest.raises(ValueError, match="finite"):
        gpr_predict_batch(m, [35.7, np.nan], [-78.7, -78.7], [50.0, 50.0])


# ------------------------------------------------------------------ errors

def test_duplicate_locations_rejected_without_noise():
    p = offset_point(GS, 80.0, 20.0, 60.0)
    q = offset_point(GS, 140.0, 20.0, 60.0)
    sf = [rs.SfSample(q, 0.5, 3), rs.SfSample(p, 1.0, 5), rs.SfSample(p, 2.0, 8)]
    with pytest.raises(rs.DuplicateLocations) as exc:
        gpr_fit(sf, CORR, sigma_y=2.0, sigma_gp=0.0)
    assert {exc.value.first, exc.value.second} == {5, 8}
    # a positive noise floor makes the same data well posed
    m = gpr_fit(sf, CORR, sigma_y=2.0, sigma_gp=0.5)
    zh, _ = gpr_predict(m, p)
    assert np.isfinite(zh)


def test_zero_kernel_is_singular():
    pts = uniform_points(4, 150.0, seed=36)
    with pytest.raises(rs.SingularSystem):
        gpr_fit(samples_of(pts, np.ones(4)), CORR, sigma_y=0.0, sigma_gp=0.0)


def test_fit_input_validation(monkeypatch):
    with pytest.raises(rs.InsufficientData):
        gpr_fit([], CORR, sigma_y=1.0, sigma_gp=1.0)
    pts = uniform_points(3, 100.0, seed=37)
    sf = samples_of(pts, np.ones(3))
    with pytest.raises(ValueError):
        gpr_fit(sf, CORR, sigma_y=-1.0, sigma_gp=1.0)
    with pytest.raises(ValueError):
        gpr_fit(sf, CORR, sigma_y=1.0, sigma_gp=-0.1)
    # non-finite inputs are refused before the kernel is built
    good = rs.SampleSet.from_samples(sf)
    for k in (3, 0):  # z, then lat
        cols = [good.lat.copy(), good.lon, good.alt, good.z.copy()]
        cols[k][1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            gpr_fit(rs.SampleSet(*cols), CORR, sigma_y=1.0, sigma_gp=1.0)
    with pytest.raises(ValueError, match="finite"):
        gpr_fit(sf, CORR, sigma_y=1.0, sigma_gp=np.nan)
    with pytest.raises(ValueError, match="finite"):
        gpr_fit(sf, CORR, sigma_y=np.nan, sigma_gp=1.0)
    # the dense-kernel bound, lowered so that no large kernel is built
    monkeypatch.setattr(gpr, "MAX_FIT_POINTS", 2)
    with pytest.raises(rs.TooManyPoints, match="3 samples"):
        gpr_fit(sf, CORR, sigma_y=1.0, sigma_gp=1.0)
    assert len(gpr_fit(sf[:2], CORR, sigma_y=1.0, sigma_gp=1.0).train) == 2


# ------------------------------------------------------- hyperparameters

def test_hyperparameters_need_three_samples():
    pts = uniform_points(2, 100.0, seed=38)
    with pytest.raises(rs.InsufficientData):
        estimate_hyperparameters(samples_of(pts, [1.0, 2.0]), CORR)


def test_noise_free_field_gets_small_nugget():
    smooth = rs.CorrelationModel(a=1.0, p1=0.004, p2=0.004, q=0.05, sigma_z=2.0)
    pts = uniform_points(600, 900.0, seed=42)
    fractions = []
    for trial in range(5):
        z = field_of(pts, smooth, 2.0, seed=700 + trial)
        sy, sg = estimate_hyperparameters(samples_of(pts, z), smooth)
        fractions.append(sg**2 / (sy**2 + sg**2))
    assert np.mean(fractions) <= 0.1


def test_white_noise_hits_nugget_cap():
    pts = [offset_point(GS, 30.0 + 18.0 * (k % 25), 40.0 + 18.0 * (k // 25), 60.0)
           for k in range(500)]
    z = 2.0 * np.random.default_rng(99).standard_normal(500)
    sy, sg = estimate_hyperparameters(samples_of(pts, z), CORR)
    assert sg**2 == pytest.approx(0.9 * (sy**2 + sg**2), rel=1e-9)


def test_variance_split_recovery_smooth_plus_noise():
    smooth = rs.CorrelationModel(a=1.0, p1=0.008, p2=0.008, q=0.05, sigma_z=2.0)
    pts = uniform_points(600, 900.0, seed=42)
    r = correlation_matrix(pts, smooth)
    w, v = np.linalg.eigh(4.0 * r)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    rng = np.random.default_rng(2024)
    est = []
    for _ in range(50):
        z = root @ rng.standard_normal(600) + rng.standard_normal(600)
        est.append(estimate_hyperparameters(samples_of(pts, z), smooth))
    mean_sy, mean_sg = np.mean(est, axis=0)
    assert abs(mean_sy - 2.0) <= 0.4
    assert abs(mean_sg - 1.0) <= 0.2
