import dataclasses

import numpy as np
import pytest

import remsense as rs
from remsense.geo import (_arc_distance, _cross_lags, _lags, _point_columns,
                          horizontal_distance)
from remsense.kriging import (
    KrigingConfig,
    NormalScoreTransform,
    _systems,
    normal_score,
    predict,
)
from remsense.shadowing import transformed_model

from conftest import CORR, GS, offset_point

UNIT = transformed_model(CORR, 1.0)


def scatter(n, extent, seed, alt=60.0, alt_jitter=0.0):
    rng = np.random.default_rng(seed)
    pts = []
    for k in range(n):
        a = alt + (rng.uniform(-alt_jitter, alt_jitter) if alt_jitter else 0.0)
        pts.append(offset_point(GS, 30.0 + rng.uniform(0, extent),
                                40.0 + rng.uniform(0, extent), a))
    return pts


def samples_of(points, z):
    return [rs.SfSample(p, float(v), i) for i, (p, v) in enumerate(zip(points, z))]


def field_samples(points, model, seed):
    lat = np.array([p.lat_deg for p in points])
    lon = np.array([p.lon_deg for p in points])
    alt = np.array([p.alt_m for p in points])
    dh = _arc_distance(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
    cov = model.covariance_at(dh, np.abs(alt[:, None] - alt[None, :]))
    w, v = np.linalg.eigh(cov)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    return root @ np.random.default_rng(seed).standard_normal(len(points))


# ------------------------------------------------------------- OK basics

def test_ok_weights_sum_to_one_random_configs():
    rng = np.random.default_rng(44)
    for trial in range(25):
        n = int(rng.integers(3, 20))
        pts = scatter(n, 250.0, seed=100 + trial, alt_jitter=15.0)
        z = rng.normal(0, 3, n)
        sf = samples_of(pts, z)
        m = rs.CorrelationModel(a=float(rng.uniform(0, 1)),
                                p1=float(rng.uniform(0.01, 0.1)),
                                p2=float(rng.uniform(0.001, 0.01)),
                                q=float(rng.uniform(0, 0.3)),
                                sigma_z=float(rng.uniform(0.5, 5)))
        tgt = offset_point(GS, 120.0, 130.0, 60.0)
        pred = predict(sf, m, tgt, KrigingConfig(radius_m=400.0))
        # recover the weights through a probe: prediction of indicator data
        w = np.array([
            predict(samples_of(pts, np.eye(n)[k]), m, tgt,
                    KrigingConfig(radius_m=400.0)).z_hat
            for k in range(n)
        ])
        assert abs(w.sum() - 1.0) <= 1e-9
        assert pred.mse >= 0.0
        assert pred.neighbors_used == n
        assert pred.z_hat == pytest.approx(float(w @ z), abs=1e-8)


def test_ok_single_neighbor_returns_sample():
    pts = scatter(1, 10.0, seed=1)
    sf = samples_of(pts, [2.7])
    tgt = offset_point(GS, 90.0, 40.0, 60.0)
    pred = predict(sf, CORR, tgt, KrigingConfig(radius_m=500.0))
    assert pred.z_hat == pytest.approx(2.7, abs=1e-12)
    assert pred.neighbors_used == 1
    assert pred.lagrange_mu is not None


def test_ok_symmetric_pair_half_weights():
    a = offset_point(GS, 100.0, 0.0, 60.0)
    b = offset_point(GS, -100.0, 0.0, 60.0)
    tgt = rs.GeoPoint(GS.lat_deg, GS.lon_deg, 60.0)
    sf = samples_of([a, b], [4.0, 1.0])
    pred = predict(sf, CORR, tgt, KrigingConfig(radius_m=300.0))
    assert pred.z_hat == pytest.approx(2.5, abs=1e-9)


def test_ok_dense_five_sample_oracle():
    pts = scatter(5, 200.0, seed=7, alt_jitter=10.0)
    z = np.array([1.5, -2.0, 0.7, 3.1, -0.4])
    sf = samples_of(pts, z)
    tgt = offset_point(GS, 110.0, 95.0, 65.0)
    cfg = KrigingConfig(radius_m=500.0)
    pred = predict(sf, CORR, tgt, cfg)

    # independent assembly straight from the correlation formula
    lat = np.array([p.lat_deg for p in pts])
    lon = np.array([p.lon_deg for p in pts])
    alt = np.array([p.alt_m for p in pts])
    dh = _arc_distance(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
    dv = np.abs(alt[:, None] - alt[None, :])
    r = np.exp(-CORR.q * dv) * (CORR.a * np.exp(-CORR.p1 * dh)
                                + (1 - CORR.a) * np.exp(-CORR.p2 * dh))
    gam = CORR.sigma_z**2 * (1 - r)
    dht = _arc_distance(lat, lon, tgt.lat_deg, tgt.lon_deg)
    dvt = np.abs(alt - tgt.alt_m)
    rt = np.exp(-CORR.q * dvt) * (CORR.a * np.exp(-CORR.p1 * dht)
                                  + (1 - CORR.a) * np.exp(-CORR.p2 * dht))
    gt = CORR.sigma_z**2 * (1 - rt)
    mat = np.zeros((6, 6))
    mat[:5, :5] = gam
    mat[5, :5] = mat[:5, 5] = 1.0
    sol = np.linalg.solve(mat, np.concatenate([gt, [1.0]]))
    want = sol[:5] @ z
    want_mse = sol[:5] @ gt + sol[5]
    assert pred.z_hat == pytest.approx(want, rel=1e-8, abs=1e-10)
    assert pred.mse == pytest.approx(want_mse, rel=1e-8, abs=1e-10)
    assert pred.lagrange_mu == pytest.approx(sol[5], rel=1e-8, abs=1e-10)


def test_sk_dense_five_sample_oracle():
    pts = scatter(5, 200.0, seed=8, alt_jitter=10.0)
    z = np.array([1.5, -2.0, 0.7, 3.1, -0.4])
    sf = samples_of(pts, z)
    tgt = offset_point(GS, 100.0, 90.0, 65.0)
    mean_z = 0.6
    pred = predict(sf, CORR, tgt, KrigingConfig(radius_m=500.0, variant="SK",
                                                mean_z=mean_z))
    lat = np.array([p.lat_deg for p in pts])
    lon = np.array([p.lon_deg for p in pts])
    alt = np.array([p.alt_m for p in pts])
    dh = _arc_distance(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
    dv = np.abs(alt[:, None] - alt[None, :])
    cov = CORR.covariance_at(dh, dv)
    ct = CORR.covariance_at(_arc_distance(lat, lon, tgt.lat_deg, tgt.lon_deg),
                            np.abs(alt - tgt.alt_m))
    w = np.linalg.solve(cov, ct)
    assert pred.z_hat == pytest.approx(mean_z + w @ (z - mean_z), rel=1e-8)
    assert pred.mse == pytest.approx(CORR.sigma_z**2 - w @ ct, rel=1e-8)


# ----------------------------------------------------- interpolation, priors

def test_exact_interpolation_without_jitter():
    pts = scatter(10, 220.0, seed=9, alt_jitter=20.0)
    z = np.arange(10) * 0.7 - 3.0
    sf = samples_of(pts, z)
    for k, p in enumerate(pts):
        ok = predict(sf, CORR, p, KrigingConfig(radius_m=400.0, jitter=0.0))
        sk = predict(sf, CORR, p, KrigingConfig(radius_m=400.0, jitter=0.0,
                                                variant="SK"))
        assert ok.z_hat == pytest.approx(z[k], abs=1e-9)
        assert sk.z_hat == pytest.approx(z[k], abs=1e-9)
        assert abs(sk.mse) <= 1e-9
        assert abs(ok.mse) <= 1e-7


def test_sk_decorrelated_falls_back_to_prior():
    nugget = rs.CorrelationModel(a=1.0, p1=10.0, p2=10.0, q=10.0, sigma_z=2.0)
    pts = [offset_point(GS, 40.0 + 50.0 * k, 60.0, 60.0) for k in range(4)]
    sf = samples_of(pts, [5.0, -1.0, 2.0, 0.5])
    tgt = offset_point(GS, 65.0, 85.0, 60.0)
    pred = predict(sf, nugget, tgt, KrigingConfig(radius_m=300.0, variant="SK",
                                                  mean_z=1.7))
    assert pred.z_hat == pytest.approx(1.7, abs=1e-9)
    assert pred.mse == pytest.approx(nugget.sigma_z**2, abs=1e-9)


def test_ok_constant_shift_invariance():
    pts = scatter(8, 200.0, seed=10)
    z = np.random.default_rng(0).normal(0, 2, 8)
    tgt = offset_point(GS, 120.0, 60.0, 60.0)
    cfg = KrigingConfig(radius_m=400.0)
    base = predict(samples_of(pts, z), CORR, tgt, cfg)
    shifted = predict(samples_of(pts, z + 7.5), CORR, tgt, cfg)
    assert shifted.z_hat - base.z_hat == pytest.approx(7.5, abs=1e-9)
    assert shifted.mse == pytest.approx(base.mse, abs=1e-12)


def test_sk_shift_tracks_mean():
    pts = scatter(8, 200.0, seed=11)
    z = np.random.default_rng(1).normal(0, 2, 8)
    tgt = offset_point(GS, 120.0, 60.0, 60.0)
    base = predict(samples_of(pts, z), CORR, tgt,
                   KrigingConfig(radius_m=400.0, variant="SK", mean_z=0.0))
    both = predict(samples_of(pts, z + 7.5), CORR, tgt,
                   KrigingConfig(radius_m=400.0, variant="SK", mean_z=7.5))
    assert both.z_hat - base.z_hat == pytest.approx(7.5, abs=1e-9)
    # shifting the data without the mean does not track
    data_only = predict(samples_of(pts, z + 7.5), CORR, tgt,
                        KrigingConfig(radius_m=400.0, variant="SK", mean_z=0.0))
    assert abs(data_only.z_hat - base.z_hat - 7.5) > 0.01


def test_prediction_invariant_under_sample_order():
    pts = scatter(12, 240.0, seed=12, alt_jitter=10.0)
    z = np.random.default_rng(2).normal(0, 2, 12)
    sf = samples_of(pts, z)
    rng = np.random.default_rng(3)
    perm = rng.permutation(12)
    shuffled = [sf[k] for k in perm]
    tgt = offset_point(GS, 130.0, 70.0, 60.0)
    for cfg in (KrigingConfig(radius_m=400.0),
                KrigingConfig(radius_m=400.0, variant="SK")):
        a = predict(sf, CORR, tgt, cfg)
        b = predict(shuffled, CORR, tgt, cfg)
        assert a.z_hat == pytest.approx(b.z_hat, abs=1e-9)
        assert a.mse == pytest.approx(b.mse, abs=1e-9)


# ------------------------------------------------------------ neighborhoods

def ball(samples, target, radius_m):
    """Indices of the neighbours :func:`predict` krige ``target`` from:
    those with ``d_h <= radius_m``, by distance then ``seq``."""
    s = rs.SampleSet.from_samples(samples)
    d_h, _ = _lags(s.lat, s.lon, s.alt, target.lat_deg, target.lon_deg,
                   target.alt_m)
    idx = np.nonzero(d_h <= radius_m)[0]
    return idx[np.lexsort((s.seq[idx], d_h[idx]))]


def test_select_neighbors_closed_ball_boundary():
    near = offset_point(GS, 50.0, 0.0, 60.0)
    far = offset_point(GS, 150.0, 0.0, 60.0)
    tgt = rs.GeoPoint(GS.lat_deg, GS.lon_deg, 60.0)
    sf = samples_of([near, far], [1.0, 2.0])
    d_far = horizontal_distance(tgt, far)
    for radius, want in ((d_far, [0, 1]), (d_far * (1 - 1e-12), [0])):
        assert ball(sf, tgt, radius).tolist() == want
        assert predict(sf, CORR, tgt, KrigingConfig(radius_m=radius)
                       ).neighbors_used == len(want)


def test_select_neighbors_orders_by_distance_then_seq():
    a = offset_point(GS, 80.0, 0.0, 60.0)
    dup1 = offset_point(GS, 0.0, 120.0, 60.0)
    dup2 = offset_point(GS, 0.0, 120.0, 60.0)
    tgt = rs.GeoPoint(GS.lat_deg, GS.lon_deg, 60.0)
    sf = [rs.SfSample(dup2, 1.0, seq=9), rs.SfSample(a, 2.0, seq=4),
          rs.SfSample(dup1, 3.0, seq=2)]
    assert ball(sf, tgt, radius_m=200.0).tolist() == [1, 2, 0]


def test_select_neighbors_matches_brute_force():
    pts = scatter(100, 400.0, seed=13)
    sf = samples_of(pts, np.zeros(100))
    tgt = offset_point(GS, 200.0, 200.0, 60.0)
    idx = ball(sf, tgt, radius_m=150.0)
    want = {k for k, p in enumerate(pts)
            if horizontal_distance(tgt, p) <= 150.0}
    assert set(idx.tolist()) == want
    d = [horizontal_distance(tgt, pts[k]) for k in idx]
    assert d == sorted(d)


def test_no_neighbors_predict_falls_back():
    pts = [offset_point(GS, 500.0, 0.0, 60.0)]
    sf = samples_of(pts, [3.0])
    tgt = rs.GeoPoint(GS.lat_deg, GS.lon_deg, 60.0)
    assert ball(sf, tgt, radius_m=100.0).size == 0
    pred = predict(sf, CORR, tgt, KrigingConfig(radius_m=100.0))
    assert pred.fallback
    assert pred.z_hat == 0.0
    assert pred.mse == pytest.approx(CORR.sigma_z**2)
    assert pred.neighbors_used == 0


def test_tg_fallback_variance_is_in_the_score_domain():
    sf = samples_of([offset_point(GS, 500.0, 0.0, 60.0)], [3.0])
    tgt = rs.GeoPoint(GS.lat_deg, GS.lon_deg, 60.0)
    tr = NormalScoreTransform(np.linspace(-9.0, 9.0, 41),
                              np.linspace(-3.0, 3.0, 41), mean_u=0.0)
    scores = transformed_model(CORR, 0.8)
    for variant in ("TG_OK", "TG_SK"):
        pred = predict(sf, CORR, tgt,
                       KrigingConfig(radius_m=100.0, variant=variant),
                       transform=tr, model_u=scores)
        assert pred.fallback
        # the prior variance of the kriged (score) model, not of CORR
        assert pred.mse == pytest.approx(0.8**2)


def test_duplicate_neighbors_need_jitter():
    p = offset_point(GS, 60.0, 0.0, 60.0)
    sf = [rs.SfSample(p, 1.0, 0), rs.SfSample(p, 1.0, 1)]
    tgt = offset_point(GS, 80.0, 0.0, 60.0)
    with pytest.raises(rs.SingularSystem):
        predict(sf, CORR, tgt, KrigingConfig(radius_m=200.0, variant="SK",
                                             jitter=0.0))
    pred = predict(sf, CORR, tgt, KrigingConfig(radius_m=200.0, variant="SK"))
    assert np.isfinite(pred.z_hat)


def test_predict_rejects_unknown_variant_and_missing_transform():
    pts = scatter(3, 100.0, seed=14)
    sf = samples_of(pts, [1.0, 2.0, 3.0])
    tgt = offset_point(GS, 60.0, 60.0, 60.0)
    with pytest.raises(ValueError):
        predict(sf, CORR, tgt, KrigingConfig(radius_m=300.0, variant="IDW"))
    with pytest.raises(ValueError):
        predict(sf, CORR, tgt, KrigingConfig(radius_m=300.0, variant="TG_OK"))


# --------------------------------------------------------- normal scores

def test_normal_score_node_identities():
    rng = np.random.default_rng(15)
    pts = scatter(60, 300.0, seed=15)
    sf = samples_of(pts, rng.gamma(2.0, 2.0, 60))
    tr = normal_score(sf)
    u_back = tr.forward(tr.inverse(tr.u_nodes))
    np.testing.assert_allclose(u_back, tr.u_nodes, atol=1e-9)
    z_back = tr.inverse(tr.forward(tr.z_nodes))
    np.testing.assert_allclose(z_back, tr.z_nodes, atol=1e-9)


def test_normal_score_median_maps_to_zero():
    vals = np.linspace(-4.0, 9.0, 101)
    pts = scatter(101, 300.0, seed=16)
    tr = normal_score(samples_of(pts, vals))
    assert tr.forward(np.median(vals)) == pytest.approx(0.0, abs=1e-12)
    assert tr.mean_u == pytest.approx(0.0, abs=1e-12)


def test_normal_score_monotone_including_extrapolation():
    rng = np.random.default_rng(17)
    pts = scatter(50, 300.0, seed=17)
    tr = normal_score(samples_of(pts, rng.lognormal(0, 0.7, 50)))
    u = np.linspace(-5.0, 5.0, 400)
    z = tr.inverse(u)
    assert np.all(np.diff(z) >= 0.0)
    zp = np.linspace(tr.z_nodes[0] - 2, tr.z_nodes[-1] + 2, 400)
    up = tr.forward(zp)
    assert np.all(np.diff(up) >= 0.0)


def test_normal_score_gaussian_data_close_to_identity():
    rng = np.random.default_rng(23)
    z = rng.standard_normal(4000)
    pts = [offset_point(GS, 30.0 + 7.0 * (i % 80), 40.0 + 7.0 * (i // 80), 60.0)
           for i in range(4000)]
    tr = normal_score(samples_of(pts, z))
    central = np.abs(tr.u_nodes) <= 1.6448536269514722
    assert np.max(np.abs(tr.z_nodes[central] - tr.u_nodes[central])) <= 0.05
    assert abs(tr.mean_u) <= 1e-12
    assert abs(tr.inverse_second_derivative(tr.mean_u)) <= 0.1


def test_normal_score_requires_twenty_samples():
    pts = scatter(19, 200.0, seed=18)
    with pytest.raises(rs.InsufficientData):
        normal_score(samples_of(pts, np.arange(19.0)))


def test_normal_score_collapses_ties():
    pts = scatter(24, 200.0, seed=19)
    vals = np.array([1.0, 2.0, 2.0, 2.0] + list(np.linspace(3, 8, 20)))
    tr = normal_score(samples_of(pts, vals))
    assert len(tr.z_nodes) == 22
    assert np.all(np.diff(tr.z_nodes) > 0)
    assert np.all(np.diff(tr.u_nodes) > 0)
    assert np.isscalar(tr.forward(2.0))


def test_back_transform_on_arrays_matches_scalar_calls():
    rng = np.random.default_rng(20)
    pts = scatter(60, 300.0, seed=20)
    tr = normal_score(samples_of(pts, rng.lognormal(0, 0.7, 60)))
    # scores past both end nodes take the linear extrapolation
    u = rng.normal(0.0, 1.5, 5000)
    mse = rng.uniform(0.0, 1.0, 5000)
    mu = rng.normal(0.0, 0.1, 5000)
    want = [tr.back_transform(float(a), float(b), float(c))
            for a, b, c in zip(u, mse, mu)]
    np.testing.assert_array_equal(tr.back_transform(u, mse, mu), want)


# ------------------------------------------------------------ trans-Gaussian

def test_tg_ok_equals_ok_for_affine_transform():
    z_nodes = np.linspace(-9.0, 9.0, 41) + 0.5
    u_nodes = (z_nodes - 0.5) / 3.0
    tr = NormalScoreTransform(z_nodes, u_nodes, mean_u=0.0)
    assert tr.inverse_second_derivative(0.0) == pytest.approx(0.0, abs=1e-10)
    pts = scatter(30, 260.0, seed=20)
    z = field_samples(pts, CORR, seed=20) + 0.5
    sf = samples_of(pts, z)
    for k in range(15):
        tgt = offset_point(GS, 45.0 + 17.0 * k, 60.0 + 13.0 * k, 60.0)
        a = predict(sf, CORR, tgt, KrigingConfig(radius_m=300.0))
        b = predict(sf, UNIT, tgt, KrigingConfig(radius_m=300.0,
                                                 variant="TG_OK"), transform=tr)
        assert b.z_hat == pytest.approx(a.z_hat, abs=1e-9)


def test_tg_close_to_plain_ok_on_gaussian_field():
    # transform learned from the data; normality makes it near-affine, so
    # the two predictors agree to within the empirical-CDF noise
    pts = [offset_point(GS, 30.0 + 14.0 * (i % 40), 40.0 + 14.0 * (i // 40), 60.0)
           for i in range(1200)]
    z = field_samples(pts, UNIT, seed=21)
    sf = samples_of(pts, z)
    tr = normal_score(sf)
    diffs = []
    for k in range(60):
        tgt = offset_point(GS, 36.0 + 37.0 * (k % 10), 49.0 + 33.0 * (k // 10), 60.0)
        a = predict(sf, UNIT, tgt, KrigingConfig(radius_m=100.0))
        b = predict(sf, UNIT, tgt,
                    KrigingConfig(radius_m=100.0, variant="TG_OK"), transform=tr)
        diffs.append(abs(a.z_hat - b.z_hat))
    assert np.mean(diffs) <= 0.05


def test_tg_exact_at_sample_locations():
    pts = scatter(36, 220.0, seed=22)
    z = np.exp(0.9 * field_samples(pts, UNIT, seed=22))
    sf = samples_of(pts, z)
    tr = normal_score(sf)
    for variant in ("TG_OK", "TG_SK"):
        cfg = KrigingConfig(radius_m=300.0, variant=variant, jitter=0.0)
        for k in (0, 7, 19, 35):
            pred = predict(sf, UNIT, pts[k], cfg, transform=tr)
            assert pred.z_hat == pytest.approx(z[k], abs=1e-9)
            assert pred.mse <= 1e-9


def test_tg_single_coincident_neighbor_exact():
    p = offset_point(GS, 75.0, 10.0, 60.0)
    others = scatter(25, 200.0, seed=23)
    sf = samples_of([p] + others, np.r_[4.2, np.random.default_rng(4).gamma(2, 1, 25)])
    tr = normal_score(sf)
    pred = predict([sf[0]], UNIT, p,
                   KrigingConfig(radius_m=50.0, variant="TG_OK", jitter=0.0),
                   transform=tr)
    assert pred.neighbors_used == 1
    assert pred.z_hat == pytest.approx(4.2, abs=1e-12)
    assert pred.mse == pytest.approx(0.0, abs=1e-12)


def test_tg_sk_beats_sk_on_lognormal_field():
    """Paired comparison on a skewed field, 200 draws, shared truth."""
    side, spacing = 12, 35.0
    tr_pts = [offset_point(GS, 30.0 + i * spacing, 40.0 + j * spacing, 60.0)
              for i in range(side) for j in range(side)]
    rng0 = np.random.default_rng(1313)
    ext = (side - 1) * spacing
    tg_pts = [offset_point(GS, 30.0 + float(rng0.uniform(0, ext)),
                           40.0 + float(rng0.uniform(0, ext)), 60.0)
              for _ in range(32)]
    allp = tr_pts + tg_pts
    lat = np.array([p.lat_deg for p in allp])
    lon = np.array([p.lon_deg for p in allp])
    dh = _arc_distance(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
    cov = UNIT.covariance_at(dh, 0.0)
    w, v = np.linalg.eigh(cov)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    ntr = len(tr_pts)
    rng = np.random.default_rng(314)
    cfg_tg = KrigingConfig(radius_m=140.0, variant="TG_SK")
    rmse_sk, rmse_tg = [], []
    for _ in range(200):
        g = root @ rng.standard_normal(len(allp))
        zz = np.exp(1.0 * g)
        zz = zz - zz[:ntr].mean()
        sf = samples_of(allp[:ntr], zz[:ntr])
        tr = normal_score(sf)
        model_z = transformed_model(CORR, float(np.std(zz[:ntr], ddof=1)))
        cfg_sk = KrigingConfig(radius_m=140.0, variant="SK",
                               mean_z=float(np.mean(zz[:ntr])))
        e_sk, e_tg = [], []
        for k, t in enumerate(tg_pts):
            e_sk.append(predict(sf, model_z, t, cfg_sk).z_hat - zz[ntr + k])
            e_tg.append(predict(sf, UNIT, t, cfg_tg, transform=tr).z_hat
                        - zz[ntr + k])
        rmse_sk.append(float(np.sqrt(np.mean(np.square(e_sk)))))
        rmse_tg.append(float(np.sqrt(np.mean(np.square(e_tg)))))
    assert np.median(rmse_tg) <= np.median(rmse_sk)


def test_mse_bounds_random_configs():
    rng = np.random.default_rng(24)
    for trial in range(10):
        n = int(rng.integers(2, 15))
        pts = scatter(n, 250.0, seed=200 + trial, alt_jitter=10.0)
        sf = samples_of(pts, rng.normal(0, 3, n))
        tgt = offset_point(GS, float(rng.uniform(40, 260)),
                           float(rng.uniform(50, 260)), 60.0)
        ok = predict(sf, CORR, tgt, KrigingConfig(radius_m=500.0))
        sk = predict(sf, CORR, tgt, KrigingConfig(radius_m=500.0, variant="SK"))
        assert ok.mse >= 0.0
        assert 0.0 <= sk.mse <= CORR.sigma_z**2 + 1e-9


def test_kriging_config_validation():
    for radius in (0.0, np.nan, np.inf):
        with pytest.raises(rs.RangeError, match="radius_m must be positive"):
            KrigingConfig(radius_m=radius)
    for jitter in (-1.0, np.nan, np.inf):
        with pytest.raises(rs.RangeError, match="jitter must be non-negative"):
            KrigingConfig(radius_m=100.0, jitter=jitter)


# ---------------------------------------------------------- batched engine

def _dense_oracle(points, z, seq, targets, model, radius_m, variant,
                  mean, transform=None):
    """Per-target kriging straight from the formulas, neighbours ordered
    by distance then ``seq``; fallback targets give (0, prior, 0)."""
    lat = np.array([p.lat_deg for p in points])
    lon = np.array([p.lon_deg for p in points])
    alt = np.array([p.alt_m for p in points])
    values = z if transform is None else transform.forward(z)

    def model_at(dh, dv):
        r = np.exp(-model.q * dv) * (model.a * np.exp(-model.p1 * dh)
                                     + (1 - model.a) * np.exp(-model.p2 * dh))
        return model.sigma_z**2 * ((1 - r) if variant.endswith("OK") else r)

    out = []
    for t in targets:
        d = _arc_distance(lat, lon, t.lat_deg, t.lon_deg)
        nb = [k for k in sorted(range(len(points)),
                                key=lambda k: (d[k], seq[k]))
              if d[k] <= radius_m]
        if not nb:
            out.append((0.0, model.sigma_z**2, 0))
            continue
        k = len(nb)
        dh = _arc_distance(lat[nb][:, None], lon[nb][:, None],
                           lat[nb][None, :], lon[nb][None, :])
        a_nn = model_at(dh, np.abs(alt[nb][:, None] - alt[nb][None, :]))
        a_t = model_at(d[nb], np.abs(alt[nb] - t.alt_m))
        if variant.endswith("OK"):
            mat = np.ones((k + 1, k + 1))
            mat[:k, :k] = a_nn
            mat[k, k] = 0.0
            sol = np.linalg.solve(mat, np.r_[a_t, 1.0])
            w, mu = sol[:k], sol[k]
            est, mse = w @ values[nb], max(w @ a_t + mu, 0.0)
        else:
            w, mu = np.linalg.solve(a_nn, a_t), 0.0
            est = mean + w @ (values[nb] - mean)
            mse = max(model.sigma_z**2 - w @ a_t, 0.0)
        if transform is not None:
            est = transform.back_transform(est, mse, mu)
        out.append((est, mse, k))
    return np.array(out)


def _batch_scene():
    pts = scatter(60, 300.0, seed=31, alt_jitter=12.0)
    z = np.exp(0.5 * field_samples(pts, CORR, seed=31) / 3.0) * 3.0
    seq = np.random.default_rng(32).permutation(60)
    sf = [rs.SfSample(p, float(v), int(q)) for p, v, q in zip(pts, z, seq)]
    # a wider box than the samples', so that some targets fall back
    targets = scatter(45, 500.0, seed=33, alt_jitter=20.0)
    return pts, z, seq, sf, targets


@pytest.mark.parametrize("variant", ["OK", "SK", "TG_OK", "TG_SK"])
def test_predict_batch_matches_dense_oracle(variant):
    pts, z, seq, sf, targets = _batch_scene()
    tr = normal_score(sf) if variant.startswith("TG_") else None
    model = UNIT if tr else CORR
    mean = tr.mean_u if tr else 0.4
    cfg = KrigingConfig(radius_m=70.0, variant=variant, mean_z=0.4)
    got = rs.predict_batch(sf, CORR, *_point_columns(targets), cfg,
                           transform=tr, model_u=UNIT)
    want = _dense_oracle(pts, z, seq, targets, model, 70.0, variant, mean, tr)
    assert 0 < np.count_nonzero(got.fallback) < len(targets)
    np.testing.assert_array_equal(got.fallback, want[:, 2] == 0)
    np.testing.assert_array_equal(got.neighbors_used, want[:, 2])
    np.testing.assert_allclose(got.z_hat, want[:, 0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.mse, want[:, 1], rtol=0, atol=1e-12)
    assert got.z_hat[got.fallback].tolist() == [0.0] * int(got.fallback.sum())
    if variant.endswith("SK"):
        assert got.lagrange_mu is None
    else:
        assert np.all(np.isnan(got.lagrange_mu) == got.fallback)


@pytest.mark.parametrize("variant", ["OK", "TG_SK"])
def test_predict_batch_equals_predict_per_target(variant):
    _, _, _, sf, targets = _batch_scene()
    tr = normal_score(sf)
    cfg = KrigingConfig(radius_m=70.0, variant=variant, mean_z=0.4)
    got = rs.predict_batch(sf, CORR, *_point_columns(targets), cfg,
                           transform=tr, model_u=UNIT)
    for k, t in enumerate(targets):
        one = predict(sf, CORR, t, cfg, transform=tr, model_u=UNIT)
        assert (one.z_hat, one.mse, one.neighbors_used, one.fallback) == (
            got.z_hat[k], got.mse[k], got.neighbors_used[k], got.fallback[k])


def test_predict_batch_unchanged_by_block_size(monkeypatch):
    _, _, _, sf, targets = _batch_scene()
    tr = normal_score(sf)
    cols = _point_columns(targets)
    for variant in ("OK", "SK", "TG_OK", "TG_SK"):
        cfg = KrigingConfig(radius_m=90.0, variant=variant)
        whole = rs.predict_batch(sf, CORR, *cols, cfg, transform=tr,
                                 model_u=UNIT)
        with monkeypatch.context() as m:
            # 24 targets per block, and the union's kernel in blocks too
            m.setattr(rs.geo, "_BLOCK_ELEMENTS", 64)
            blocked = rs.predict_batch(sf, CORR, *cols, cfg, transform=tr,
                                       model_u=UNIT)
        with monkeypatch.context() as m:
            # every system its own chunk of its k group
            m.setattr(rs.kriging, "_GROUP_ELEMENTS", 1)
            single = rs.predict_batch(sf, CORR, *cols, cfg, transform=tr,
                                      model_u=UNIT)
        for name in ("z_hat", "mse", "neighbors_used", "lagrange_mu",
                     "fallback"):
            np.testing.assert_array_equal(getattr(blocked, name),
                                          getattr(whole, name))
            np.testing.assert_array_equal(getattr(single, name),
                                          getattr(whole, name))


def _group_scene():
    """Samples with a duplicated location, ``seq`` out of row order and
    one sample exactly on the radius of one target; one target has no
    neighbour."""
    pts = scatter(40, 260.0, seed=41, alt_jitter=10.0)
    pts[7] = pts[21]
    seq = np.random.default_rng(42).permutation(40)
    # the duplicate later in the rows comes first in seq order
    seq[[7, 21]] = (max(seq[7], seq[21]), min(seq[7], seq[21]))
    sf = [rs.SfSample(p, 0.0, int(q)) for p, q in zip(pts, seq)]
    targets = scatter(30, 300.0, seed=43, alt_jitter=15.0)
    targets.append(offset_point(GS, 3000.0, 3000.0, 60.0))
    lat, lon, alt = _point_columns(targets)
    s = rs.SampleSet.from_samples(sf)
    d_h, _ = _cross_lags(lat, lon, alt, s.lat, s.lon, s.alt)
    return sf, targets, float(d_h[0, 3])


@pytest.mark.parametrize("ordinary", [True, False])
@pytest.mark.parametrize("cap", [None, 1])
def test_systems_groups_equal_per_target_brute_force(monkeypatch, ordinary,
                                                     cap):
    sf, targets, radius = _group_scene()
    if cap is not None:
        monkeypatch.setattr(rs.kriging, "_GROUP_ELEMENTS", cap)
    model_at = CORR.semivariogram_at if ordinary else CORR.covariance_at
    s = rs.SampleSet.from_samples(sf)
    seen = {}
    for group in _systems(s, CORR, ordinary, *_point_columns(targets),
                          radius):
        t, idx, a_nn, a_t = group
        g, k = idx.shape
        assert k > 0 and t.shape == (g,)
        assert a_nn.shape == (g, k, k) and a_t.shape == (g, k)
        if cap == 1:
            assert g == 1
        for row in zip(*group):
            assert int(row[0]) not in seen
            seen[int(row[0])] = row[1:]
    want = {j: ball(sf, p, radius) for j, p in enumerate(targets)}
    assert sorted(seen) == [j for j in want if want[j].size]
    assert want[len(targets) - 1].size == 0
    # the boundary sample is in, and the duplicates go in seq order
    assert 3 in want[0]
    assert any(list(w[np.isin(w, (7, 21))]) == [21, 7] for w in want.values())
    for j, (idx, a_nn, a_t) in seen.items():
        nb = want[j]
        np.testing.assert_array_equal(idx, nb)
        np.testing.assert_array_equal(a_nn, model_at(*_cross_lags(
            s.lat[nb], s.lon[nb], s.alt[nb], s.lat[nb], s.lon[nb],
            s.alt[nb])))
        p = targets[j]
        np.testing.assert_array_equal(a_t, model_at(*_lags(
            p.lat_deg, p.lon_deg, p.alt_m, s.lat[nb], s.lon[nb], s.alt[nb])))


def test_predict_batch_jitter_retry_is_per_system():
    p = offset_point(GS, 60.0, 0.0, 60.0)
    others = [offset_point(GS, 400.0, 0.0, 60.0),
              offset_point(GS, 440.0, 0.0, 60.0),
              offset_point(GS, 0.0, 400.0, 60.0),
              offset_point(GS, 0.0, 440.0, 60.0)]
    sf = samples_of([p, p] + others, [1.0, 1.2, 0.3, -0.5, 0.8, 1.1])
    near = offset_point(GS, 80.0, 0.0, 60.0)
    lat, lon, alt = _point_columns([near, offset_point(GS, 420.0, 10.0, 60.0),
                                    offset_point(GS, 10.0, 420.0, 60.0)])
    # the duplicates' system shares its k = 2 group with two others
    groups = _systems(rs.SampleSet.from_samples(sf), CORR, True, lat, lon,
                      alt, 100.0)
    assert [g[0].tolist() for g in groups] == [[0, 1, 2]]
    for variant in ("OK", "SK"):
        exact = KrigingConfig(radius_m=100.0, variant=variant, jitter=0.0)
        with pytest.raises(rs.SingularSystem):
            rs.predict_batch(sf, CORR, lat, lon, alt, exact)
        lifted = dataclasses.replace(exact, jitter=1e-6)
        got = rs.predict_batch(sf, CORR, lat, lon, alt, lifted)
        assert np.all(np.isfinite(got.z_hat))
        assert got.z_hat[0] == predict(sf, CORR, near, lifted).z_hat
        # only the duplicates' system is lifted
        alone = rs.predict_batch(sf, CORR, lat[1:], lon[1:], alt[1:], exact)
        for name in ("z_hat", "mse", "neighbors_used", "lagrange_mu"):
            if getattr(got, name) is not None:
                np.testing.assert_array_equal(getattr(got, name)[1:],
                                              getattr(alone, name))


def test_predict_batch_validates_like_predict():
    _, _, _, sf, targets = _batch_scene()
    cols = _point_columns(targets[:3])
    with pytest.raises(ValueError):
        rs.predict_batch(sf, CORR, *cols, KrigingConfig(radius_m=50.0,
                                                        variant="IDW"))
    with pytest.raises(ValueError):
        rs.predict_batch(sf, CORR, *cols, KrigingConfig(radius_m=50.0,
                                                        variant="TG_OK"))
    with pytest.raises(ValueError):
        rs.predict_batch(sf, CORR, cols[0], cols[1][:2], cols[2],
                         KrigingConfig(radius_m=50.0))
    empty = rs.predict_batch(sf, CORR, [], [], [], KrigingConfig(radius_m=50.0))
    assert empty.z_hat.shape == (0,)
