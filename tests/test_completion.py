import dataclasses

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

import remsense as rs
from remsense.completion import (
    GridSpec,
    McAssistedGpr,
    McConfig,
    ShadowGrid,
    build_grid,
    decompose_deep_shadow,
    dilate_deep_shadow,
    gpr_to_grid,
    nuclear_norm_min,
    nuclear_norm_project,
)
from remsense.geo import _arc_distance, to_local_xy
from remsense.gpr import gpr_fit

from conftest import CORR, GS, PROP, offset_point

SPEC = GridSpec(origin=rs.GeoPoint(35.72, -78.70, 60.0), spacing_m=10.0,
                n_rows=12, n_cols=12, alt_m=60.0)


def samples_of(points, z):
    return [rs.SfSample(p, float(v), i) for i, (p, v) in enumerate(zip(points, z))]


def shadow_grid(z, sigma):
    return ShadowGrid(SPEC, np.asarray(z, float), np.asarray(sigma, float))


# ------------------------------------------------------------------- grids

def test_build_grid_cell_arithmetic():
    corners = [offset_point(GS, 0.0, 0.0, 50.0),
               offset_point(GS, 100.0, 50.0, 70.0)]
    spec = build_grid(samples_of(corners, [0.0, 0.0]), spacing_m=5.0)
    assert (spec.n_cols, spec.n_rows) == (21, 11)
    assert spec.alt_m == pytest.approx(60.0)
    # a fractional extent rounds the node count up
    corners = [offset_point(GS, 0.0, 0.0, 60.0),
               offset_point(GS, 101.0, 49.0, 60.0)]
    spec = build_grid(samples_of(corners, [0.0, 0.0]), spacing_m=5.0)
    assert (spec.n_cols, spec.n_rows) == (22, 11)


def test_build_grid_covers_bounding_box():
    rng = np.random.default_rng(40)
    pts = [offset_point(GS, float(rng.uniform(0, 173)), float(rng.uniform(0, 91)),
                        60.0) for _ in range(60)]
    spec = build_grid(samples_of(pts, np.zeros(60)), spacing_m=7.0)
    lat = np.array([p.lat_deg for p in pts])
    lon = np.array([p.lon_deg for p in pts])
    x, y = to_local_xy(lat, lon, spec.origin)
    assert np.all(x >= -1e-6) and np.all(y >= -1e-6)
    assert np.all(x <= (spec.n_cols - 1) * spec.spacing_m + 1e-6)
    assert np.all(y <= (spec.n_rows - 1) * spec.spacing_m + 1e-6)
    glat, glon = spec.node_latlon()
    assert glat.shape == (spec.n_rows, spec.n_cols)
    assert glat[0, 0] == pytest.approx(spec.origin.lat_deg, abs=1e-12)
    assert glon[0, 0] == pytest.approx(spec.origin.lon_deg, abs=1e-12)


def test_build_grid_rejects_degenerate_extent():
    pts = [offset_point(GS, 0.0, 0.0, 60.0), offset_point(GS, 3.0, 200.0, 60.0)]
    with pytest.raises(rs.DegenerateExtent):
        build_grid(samples_of(pts, [0.0, 0.0]), spacing_m=5.0)
    with pytest.raises(rs.DegenerateExtent):
        build_grid(samples_of(pts[:1], [0.0]), spacing_m=5.0)
    with pytest.raises(rs.InsufficientData, match="zero samples"):
        build_grid(samples_of([], []), spacing_m=5.0)
    for spacing in (0.0, -5.0):
        with pytest.raises(rs.RangeError, match="spacing must be positive"):
            build_grid(samples_of(pts, [0.0, 0.0]), spacing_m=spacing)


@pytest.mark.parametrize("field, value", [
    ("spacing_m", 0.0), ("spacing_m", -10.0), ("spacing_m", np.nan),
    ("spacing_m", np.inf), ("alt_m", np.nan), ("alt_m", -np.inf),
    ("n_rows", 0), ("n_rows", 12.0), ("n_cols", -1), ("n_cols", True),
])
def test_grid_spec_rejects_bad_fields(field, value):
    with pytest.raises(rs.RangeError, match=field):
        dataclasses.replace(SPEC, **{field: value})


def test_pipeline_rejects_a_grid_of_one_row_or_column():
    m = pipeline_model(seed=58)
    spec = build_grid(m.train, spacing_m=10.0)
    for shape in ({"n_rows": 1}, {"n_cols": 1}):
        with pytest.raises(rs.DegenerateExtent, match="at least 2 rows"):
            McAssistedGpr(m, McConfig(), dataclasses.replace(spec, **shape))


def test_gpr_to_grid_matches_direct_posterior():
    pts = [offset_point(GS, 15.0, 25.0, 60.0), offset_point(GS, 60.0, 40.0, 60.0),
           offset_point(GS, 35.0, 80.0, 60.0)]
    z = np.array([2.0, -1.0, 0.7])
    sy, sg = 2.0, 0.6
    m = gpr_fit(samples_of(pts, z), CORR, sigma_y=sy, sigma_gp=sg)
    spec = GridSpec(origin=rs.GeoPoint(35.72, -78.70, 60.0), spacing_m=25.0,
                    n_rows=3, n_cols=4, alt_m=60.0)
    grid = gpr_to_grid(m, spec)
    assert grid.z.shape == (3, 4)

    tlat = np.array([p.lat_deg for p in pts])
    tlon = np.array([p.lon_deg for p in pts])
    dh_tt = _arc_distance(tlat[:, None], tlon[:, None], tlat[None, :], tlon[None, :])
    k_train = sy**2 * CORR.correlation_at(dh_tt, 0.0) + sg**2 * np.eye(3)
    glat, glon = spec.node_latlon()
    for i in (0, 2):
        for j in (0, 3):
            dh = _arc_distance(tlat, tlon, glat[i, j], glon[i, j])
            k0 = sy**2 * CORR.correlation_at(dh, 0.0)
            want = float(k0 @ np.linalg.solve(k_train, z))
            want_var = sy**2 + sg**2 - float(k0 @ np.linalg.solve(k_train, k0))
            assert grid.z[i, j] == pytest.approx(want, abs=1e-9)
            assert grid.sigma[i, j] == pytest.approx(np.sqrt(want_var), abs=1e-9)


def test_gpr_to_grid_exact_at_node_samples():
    spec = GridSpec(origin=rs.GeoPoint(35.72, -78.70, 60.0), spacing_m=20.0,
                    n_rows=4, n_cols=5, alt_m=60.0)
    glat, glon = spec.node_latlon()
    picks = [(0, 0), (1, 3), (3, 4), (2, 1)]
    pts = [rs.GeoPoint(glat[i, j], glon[i, j], 60.0) for i, j in picks]
    z = np.array([1.0, -2.0, 3.0, 0.5])
    m = gpr_fit(samples_of(pts, z), CORR, sigma_y=2.0, sigma_gp=0.0)
    grid = gpr_to_grid(m, spec)
    for (i, j), v in zip(picks, z):
        assert grid.z[i, j] == pytest.approx(v, abs=1e-6)
        assert grid.sigma[i, j] <= 1e-3


# -------------------------------------------------------------- projection

def test_project_soft_thresholds_singular_values():
    out = nuclear_norm_project(np.diag([3.0, 1.0]), 2.0)
    np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


def test_project_scales_rank_one():
    u = np.array([0.6, 0.8, 0.0])
    v = np.array([0.0, 1.0, 0.0, 0.0])
    m = 4.0 * np.outer(u, v)
    out = nuclear_norm_project(m, 2.0)
    np.testing.assert_allclose(out, 2.0 * np.outer(u, v), atol=1e-12)


def test_project_properties_random():
    rng = np.random.default_rng(41)
    for _ in range(10):
        m = rng.normal(0, 2, (9, 7))
        bound = float(rng.uniform(0.5, 15.0))
        out = nuclear_norm_project(m, bound)
        nn = np.linalg.norm(out, ord="nuc")
        assert nn <= bound * (1 + 1e-6)
        again = nuclear_norm_project(out, bound)
        np.testing.assert_allclose(again, out, atol=1e-9)
    # inside the ball nothing moves
    small = rng.normal(0, 0.1, (4, 4))
    np.testing.assert_array_equal(
        nuclear_norm_project(small, 1e6), small
    )
    np.testing.assert_allclose(nuclear_norm_project(m, 0.0),
                               np.zeros_like(m), atol=1e-12)
    with pytest.raises(ValueError):
        nuclear_norm_project(m, -1.0)


def _bisect_projecting_each_step(grid, cfg):
    """The bisection of ``nuclear_norm_min``, one SVD per step."""
    z = grid.z
    tol = cfg.alpha * grid.sigma
    lam_max = float(np.linalg.norm(z, ord="nuc"))
    lam_min, lam, best, iters = 0.0, lam_max, z.copy(), 0
    while iters < cfg.max_bisection_iters:
        lam_old = lam
        lam = 0.5 * (lam_min + lam_max)
        candidate = nuclear_norm_project(z, lam)
        feasible = bool(np.all(np.abs(candidate - z) <= tol))
        if feasible:
            lam_max, best = lam, candidate
        else:
            lam_min = lam
        iters += 1
        if feasible and abs(lam - lam_old) <= cfg.t_lambda:
            break
    return best, lam, iters


def test_one_svd_bisection_matches_projecting_each_step(gaussian_campaigns):
    _, test, _ = gaussian_campaigns
    sf = rs.extract_sf(test, PROP, GS)
    rng = np.random.default_rng(52)
    for draw in range(4):
        train = sf[rng.choice(len(sf), size=100, replace=False)]
        grid = gpr_to_grid(gpr_fit(train, CORR, 2.5, 1.5),
                           build_grid(train, 5.0))
        for cfg in (McConfig(), McConfig(alpha=0.3, t_lambda=1.0)):
            got = nuclear_norm_min(grid, cfg)
            z_mc, bound, iterations = _bisect_projecting_each_step(grid, cfg)
            np.testing.assert_array_equal(got.z_mc, z_mc)
            assert got.bound == bound
            assert got.iterations == iterations


# -------------------------------------------------------------- completion

def test_completion_denoises_rank_one_surface():
    rng = np.random.default_rng(77)
    a = np.linspace(1.0, 3.0, 12)
    z = np.outer(a, a) + rng.uniform(-0.25, 0.25, (12, 12))
    grid = shadow_grid(z, np.full((12, 12), 0.5))
    res = nuclear_norm_min(grid, McConfig(alpha=1.0, t_lambda=0.05))
    assert res.converged
    assert np.all(np.abs(res.z_mc - z) <= 0.5 + 1e-12)
    s = np.linalg.svd(res.z_mc, compute_uv=False)
    assert np.sum(s > 0.05 * s[0]) <= 2
    assert s.sum() <= np.linalg.norm(z, ord="nuc") - 1.0


def test_completion_zero_band_returns_input_unconverged():
    rng = np.random.default_rng(78)
    z = rng.normal(0, 2, (12, 12))
    grid = shadow_grid(z, np.zeros((12, 12)))
    res = nuclear_norm_min(grid, McConfig(max_bisection_iters=25))
    assert not res.converged
    assert res.iterations == 25
    np.testing.assert_array_equal(res.z_mc, z)


def test_completion_carves_out_spike():
    # the regressor is confident everywhere except one cell; the smooth
    # surface cannot explain that cell, so it becomes deep shadow
    z = np.outer(np.full(12, 1.0), np.linspace(0.5, 1.5, 12))
    z[5, 6] += 5.0
    sigma = np.full((12, 12), 0.3)
    sigma[5, 6] = 6.0
    res = nuclear_norm_min(shadow_grid(z, sigma),
                           McConfig(alpha=1.0, t_lambda=0.05))
    z_smooth, z_ds = decompose_deep_shadow(z, res.z_mc, 1.0)
    np.testing.assert_array_equal(z_smooth + z_ds, z)
    assert np.argwhere(z_ds != 0.0).tolist() == [[5, 6]]
    assert z_ds[5, 6] > 1.0


def test_decompose_threshold_split():
    z = np.array([[1.0, 2.0], [3.0, 4.0]])
    z_mc = np.array([[0.5, 2.0], [0.0, 3.2]])
    z_smooth, z_ds = decompose_deep_shadow(z, z_mc, t_v=1.0)
    np.testing.assert_array_equal(z_ds, [[0.0, 0.0], [3.0, 0.0]])
    np.testing.assert_array_equal(z_smooth + z_ds, z)


# ---------------------------------------------------------------- dilation

def test_dilate_impulse_fills_window():
    z = np.zeros((7, 7))
    z[3, 3] = 4.0
    out = dilate_deep_shadow(z, radius=1)
    want = np.zeros((7, 7))
    want[2:5, 2:5] = 4.0
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(dilate_deep_shadow(-z, radius=1), -want)


def test_dilate_edge_and_zeros():
    z = np.zeros((5, 5))
    np.testing.assert_array_equal(dilate_deep_shadow(z, radius=2), z)
    z[0, 0] = 3.0
    out = dilate_deep_shadow(z, radius=1)
    want = np.zeros((5, 5))
    want[:2, :2] = 3.0
    np.testing.assert_array_equal(out, want)


def test_dilate_tie_goes_to_shadow():
    z = np.zeros((5, 7))
    z[2, 2] = 5.0
    z[2, 4] = -5.0
    out = dilate_deep_shadow(z, radius=1)
    assert out[2, 3] == -5.0
    assert out[2, 1] == 5.0
    assert out[2, 5] == -5.0


def test_dilate_radius_validation():
    z = np.ones((3, 3))
    np.testing.assert_array_equal(dilate_deep_shadow(z, radius=0), z)
    assert dilate_deep_shadow(z, radius=0) is not z
    with pytest.raises(ValueError):
        dilate_deep_shadow(z, radius=-1)


# ---------------------------------------------------------------- pipeline

def pipeline_model(seed=50, n=80):
    rng = np.random.default_rng(seed)
    pts = [offset_point(GS, float(rng.uniform(0, 220)), float(rng.uniform(0, 160)),
                        60.0) for _ in range(n)]
    z = rng.normal(0, 2, n)
    return gpr_fit(samples_of(pts, z), CORR, sigma_y=2.0, sigma_gp=0.5)


def test_pipeline_with_huge_threshold_is_plain_bicubic():
    m = pipeline_model()
    spec = build_grid(m.train, spacing_m=10.0)
    pipe = McAssistedGpr(m, McConfig(t_v=1e9), spec)
    grid = gpr_to_grid(m, spec)
    y = np.arange(spec.n_rows) * spec.spacing_m
    x = np.arange(spec.n_cols) * spec.spacing_m
    ref = RectBivariateSpline(y, x, grid.z, kx=3, ky=3, s=0)
    rng = np.random.default_rng(51)
    for _ in range(20):
        p = offset_point(spec.origin, float(rng.uniform(0, x[-1])),
                         float(rng.uniform(0, y[-1])), 60.0)
        xt, yt = to_local_xy(p.lat_deg, p.lon_deg, spec.origin)
        assert pipe.predict(p.lat_deg, p.lon_deg) == pytest.approx(
            float(ref.ev(yt, xt)), abs=1e-9
        )


def test_pipeline_rejects_samples_at_two_altitudes():
    rng = np.random.default_rng(57)
    pts = [offset_point(GS, float(rng.uniform(0, 220)),
                        float(rng.uniform(0, 160)), alt)
           for alt in (40.0, 120.0) for _ in range(40)]
    m = gpr_fit(samples_of(pts, rng.normal(0, 2, len(pts))), CORR,
                sigma_y=2.0, sigma_gp=0.5)
    with pytest.raises(rs.RangeError, match="2 altitudes"):
        McAssistedGpr(m, McConfig())


def test_pipeline_interpolates_grid_nodes():
    m = pipeline_model(seed=52)
    spec = build_grid(m.train, spacing_m=12.0)
    pipe = McAssistedGpr(m, McConfig(), spec)
    glat, glon = spec.node_latlon()
    for i, j in ((0, 0), (2, 3), (spec.n_rows - 1, spec.n_cols - 1)):
        got = pipe.predict(glat[i, j], glon[i, j])
        assert got == pytest.approx(pipe.combined[i, j], abs=1e-9)


def test_pipeline_clamps_outside_grid():
    m = pipeline_model(seed=53)
    spec = build_grid(m.train, spacing_m=10.0)
    pipe = McAssistedGpr(m, McConfig(), spec)
    outside = offset_point(spec.origin, -40.0, -60.0, 60.0)
    corner = pipe.predict(spec.origin.lat_deg, spec.origin.lon_deg)
    assert pipe.predict(outside.lat_deg, outside.lon_deg) == pytest.approx(
        corner, abs=1e-9
    )


def test_predict_accepts_arrays_and_scalars():
    m = pipeline_model(seed=54)
    pipe = McAssistedGpr(m, McConfig(), build_grid(m.train, 10.0))
    p = offset_point(GS, 50.0, 50.0, 60.0)
    single = pipe.predict(p.lat_deg, p.lon_deg)
    batch = pipe.predict(np.array([p.lat_deg]), np.array([p.lon_deg]))
    assert isinstance(single, float)
    assert batch.shape == (1,)
    assert batch[0] == pytest.approx(single, abs=1e-12)


@pytest.mark.parametrize("field, value", [
    ("alpha", -1.0), ("alpha", np.nan), ("alpha", np.inf),
    ("t_v", -1.0), ("t_v", np.nan),
    ("t_lambda", 0.0), ("t_lambda", -5.0), ("t_lambda", np.nan),
    ("grid_spacing_m", 0.0), ("grid_spacing_m", -5.0),
    ("grid_spacing_m", np.inf),
    ("dilation_radius", -1), ("dilation_radius", 1.5),
    ("dilation_radius", True),
    ("max_bisection_iters", 0), ("max_bisection_iters", 60.0),
])
def test_mc_config_rejects_bad_fields(field, value):
    with pytest.raises(rs.RangeError, match=field):
        McConfig(**{field: value})


def test_mc_config_accepts_edge_values():
    cfg = McConfig(alpha=0.0, t_v=0.0, t_lambda=1e-9, dilation_radius=0,
                   max_bisection_iters=1, grid_spacing_m=1e-3)
    assert cfg.max_bisection_iters == 1
    assert McConfig(dilation_radius=np.int64(2)).dilation_radius == 2
