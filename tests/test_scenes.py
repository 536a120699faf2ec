import json

import numpy as np
import pytest

import remsense as rs
from remsense import geo, scenes
from remsense.geo import _cross_lags, horizontal_distance
from remsense.patterns import sector_blockage_delta
from remsense.propagation import trpl_received_power_db
from remsense.scenes import (
    Blob,
    CorrelatedFieldSampler,
    SceneSpec,
    custom_trajectory,
    generate_campaign,
    lawnmower_trajectory,
    ring_trajectory,
    sample_correlated_field,
    scene_from_dict,
    scene_from_json,
    scene_to_dict,
    scene_to_json,
    stack_altitudes,
    trajectory_from_dict,
    write_measurements_csv,
    zigzag_trajectory,
)
from remsense.shadowing import extract_sf

from conftest import CORR, GS, PROP, offset_point

BASE = rs.GeoPoint(35.721, -78.702, 60.0)


def gaps(traj):
    wp = traj.waypoints
    return np.array([horizontal_distance(wp[k], wp[k + 1])
                     for k in range(len(wp) - 1)])


# ------------------------------------------------------------- trajectories

def test_trajectory_spacing_within_ten_percent():
    for traj in (
        lawnmower_trajectory(BASE, 500.0, 400.0, n_rows=10, alt_m=50.0,
                             sample_spacing_m=14.0),
        zigzag_trajectory(BASE, 500.0, 400.0, n_legs=11, alt_m=70.0,
                          sample_spacing_m=14.0),
    ):
        g = gaps(traj)
        assert g.min() >= 0.9 * 14.0
        assert g.max() <= 1.1 * 14.0
        assert all(p.alt_m == traj.waypoints[0].alt_m for p in traj.waypoints)


def test_ring_trajectory_closes_evenly():
    traj = ring_trajectory(BASE, radius_m=120.0, alt_m=40.0,
                           sample_spacing_m=10.0)
    wp = traj.waypoints
    d_center = [horizontal_distance(BASE, p) for p in wp]
    np.testing.assert_allclose(d_center, 120.0, rtol=1e-3)
    g = list(gaps(traj)) + [horizontal_distance(wp[-1], wp[0])]
    assert max(g) <= 1.1 * 10.0
    assert min(g) >= 0.9 * 10.0


def test_custom_trajectory_follows_corners():
    corners = [offset_point(GS, 0.0, 0.0, 55.0), offset_point(GS, 100.0, 0.0, 55.0)]
    traj = custom_trajectory(corners, sample_spacing_m=10.0)
    assert len(traj.waypoints) == 11
    assert traj.kind == "custom"
    assert traj.waypoints[0].alt_m == 55.0
    assert horizontal_distance(traj.waypoints[0], corners[0]) <= 1e-6
    assert horizontal_distance(traj.waypoints[-1], corners[1]) <= 1e-6


def test_stack_altitudes_repeats_ground_track():
    traj = ring_trajectory(BASE, 80.0, alt_m=40.0, sample_spacing_m=15.0)
    stacked = stack_altitudes(traj, [40.0, 90.0])
    n = len(traj.waypoints)
    assert len(stacked.waypoints) == 2 * n
    assert stacked.kind == traj.kind
    for k in range(n):
        lo, hi = stacked.waypoints[k], stacked.waypoints[k + n]
        assert (lo.lat_deg, lo.lon_deg) == (hi.lat_deg, hi.lon_deg)
        assert lo.alt_m == 40.0 and hi.alt_m == 90.0


def test_trajectory_validation():
    # a count must be an integer: 2.7 is not truncated, True is not 1
    for n_rows in (1, 0, 2.7, 2.0, True, "3"):
        with pytest.raises(rs.RangeError,
                           match=f"n_rows must be an integer >= 2, got {n_rows!r}"):
            lawnmower_trajectory(BASE, 100.0, 100.0, n_rows=n_rows, alt_m=50.0)
    for n_legs in (0, -1, 2.5, 1.0, True, False):
        with pytest.raises(rs.RangeError,
                           match=f"n_legs must be an integer >= 1, got {n_legs!r}"):
            zigzag_trajectory(BASE, 100.0, 100.0, n_legs=n_legs, alt_m=50.0)
    assert lawnmower_trajectory(BASE, 100.0, 100.0, n_rows=np.int64(2),
                                alt_m=50.0).kind == "lawnmower"
    assert zigzag_trajectory(BASE, 100.0, 100.0, n_legs=1,
                             alt_m=50.0).kind == "zigzag"
    for radius in (0.0, np.nan):
        with pytest.raises(rs.RangeError):
            ring_trajectory(BASE, radius, alt_m=50.0)
    with pytest.raises(rs.RangeError):
        custom_trajectory([BASE], sample_spacing_m=5.0)


def test_scene_and_blob_validation():
    for noise_sd in (-1.0, np.nan, np.inf):
        with pytest.raises(rs.RangeError, match="noise_sd"):
            SceneSpec(gs=GS, cfg=PROP, corr=CORR, noise_sd=noise_sd)
    for radius in (0.0, -10.0, np.nan, np.inf):
        with pytest.raises(rs.RangeError, match="radius_m"):
            Blob(BASE, radius, -10.0)
    for depth in (np.nan, -np.inf):
        with pytest.raises(rs.RangeError, match="depth_db"):
            Blob(BASE, 40.0, depth)
    SceneSpec(gs=GS, cfg=PROP, corr=CORR, noise_sd=0.0,
              blobs=(Blob(BASE, 40.0, 0.0),))


# ---------------------------------------------------------------- campaigns

def test_campaign_csv_byte_identical(tmp_path):
    scene = SceneSpec(gs=GS, cfg=PROP, corr=CORR, noise_sd=1.0, seed=7)
    traj = zigzag_trajectory(BASE, 300.0, 200.0, n_legs=5, alt_m=60.0,
                             sample_spacing_m=15.0)
    out = []
    for name in ("a.csv", "b.csv"):
        meas, _ = generate_campaign(scene, traj)
        write_measurements_csv(tmp_path / name, meas)
        out.append((tmp_path / name).read_bytes())
    assert out[0] == out[1]
    meas, _ = generate_campaign(SceneSpec(gs=GS, cfg=PROP, corr=CORR,
                                          noise_sd=1.0, seed=8), traj)
    write_measurements_csv(tmp_path / "c.csv", meas)
    assert (tmp_path / "c.csv").read_bytes() != out[0]


def test_zero_sigma_skips_field_cap():
    quiet = rs.CorrelationModel(a=0.7, p1=0.05, p2=0.005, q=0.1, sigma_z=0.0)
    traj = lawnmower_trajectory(BASE, 700.0, 700.0, n_rows=12, alt_m=60.0,
                                sample_spacing_m=1.5)
    assert len(traj.waypoints) > 5000
    scene = SceneSpec(gs=GS, cfg=PROP, corr=quiet, seed=3)
    meas, truth = generate_campaign(scene, traj)
    assert np.all(truth.sf == 0.0)
    sf = extract_sf(meas, PROP, GS)
    assert np.max(np.abs([s.z for s in sf])) <= 1e-9
    # the same point count with a live field is over the dense bound
    with pytest.raises(rs.TooManyPoints):
        sample_correlated_field(list(traj.waypoints), CORR, seed=3)


def test_sigma_recovered_from_campaign():
    fast = rs.CorrelationModel(a=0.7, p1=0.5, p2=0.05, q=0.5, sigma_z=3.0)
    traj = lawnmower_trajectory(BASE, 600.0, 500.0, n_rows=12, alt_m=60.0,
                                sample_spacing_m=12.0)
    meas, _ = generate_campaign(SceneSpec(gs=GS, cfg=PROP, corr=fast, seed=203),
                                traj)
    sigma_hat = np.std(extract_sf(meas, PROP, GS).z, ddof=1)
    assert abs(sigma_hat - 3.0) / 3.0 <= 0.05


def test_truth_consistent_with_measurements():
    scene = SceneSpec(gs=GS, cfg=PROP, corr=CORR, noise_sd=0.0, seed=11)
    traj = zigzag_trajectory(BASE, 300.0, 200.0, n_legs=5, alt_m=60.0,
                             sample_spacing_m=20.0)
    meas, truth = generate_campaign(scene, traj)
    rsrp = np.array([m.rsrp_dbm for m in meas])
    at_wp = truth.at_points(traj.waypoints)
    np.testing.assert_allclose(at_wp, rsrp, atol=1e-6)
    p = traj.waypoints[3]
    assert truth.at(p.lat_deg, p.lon_deg, p.alt_m) == pytest.approx(
        rsrp[3], abs=1e-6
    )
    # ragged coordinate columns are not broadcast
    with pytest.raises(ValueError, match=r"lat \(3,\), lon \(1,\), alt \(1,\)"):
        truth.at([p.lat_deg] * 3, [p.lon_deg], [p.alt_m])


def test_truth_matches_dense_conditional_mean():
    scene = SceneSpec(gs=GS, cfg=PROP, corr=CORR, noise_sd=0.5, seed=13)
    traj = zigzag_trajectory(BASE, 300.0, 200.0, n_legs=4, alt_m=60.0,
                             sample_spacing_m=9.0)
    lat, lon, alt = geo._point_columns(traj.waypoints)
    _, truth = generate_campaign(scene, traj)
    q = [offset_point(BASE, 11.0 * k, 170.0 - 4.0 * k, 45.0 + 0.5 * k)
         for k in range(40)]
    qlat, qlon, qalt = geo._point_columns(q)
    # reference: the field covariance with the sampler's lift, solved by LU
    cov = CORR.covariance_at(*_cross_lags(lat, lon, alt, lat, lon, alt))
    beta = np.linalg.solve(cov + scenes._DIAG_LIFT * np.eye(len(lat)),
                           truth.sf)
    cross = CORR.covariance_at(*_cross_lags(qlat, qlon, qalt, lat, lon, alt))
    geom, _ = geo.link_geometry_batch(GS, qlat, qlon, qalt, PROP.wavelength_m)
    det = trpl_received_power_db(PROP, geom)
    np.testing.assert_allclose(truth.at(qlat, qlon, qalt), det + cross @ beta,
                               rtol=0.0, atol=1e-9)


def test_campaign_never_fits_the_truth(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("generate_campaign fitted the truth field")

    monkeypatch.setattr(scenes, "gpr_fit", refuse)
    scene = SceneSpec(gs=GS, cfg=PROP, corr=CORR, noise_sd=0.5, seed=14)
    traj = zigzag_trajectory(BASE, 300.0, 200.0, n_legs=3, alt_m=60.0,
                             sample_spacing_m=15.0)
    meas, truth = generate_campaign(scene, traj)
    assert len(meas) == len(truth.sf) > 0
    # the fit happens at the first query
    with pytest.raises(AssertionError, match="fitted the truth"):
        truth.at_points(traj.waypoints[:1])


def test_blocks_do_not_change_field_or_truth(monkeypatch):
    scene = SceneSpec(gs=GS, cfg=PROP, corr=CORR, noise_sd=0.5, seed=12)
    traj = lawnmower_trajectory(BASE, 300.0, 200.0, n_rows=4, alt_m=60.0,
                                sample_spacing_m=8.0)
    lat, lon, alt = geo._point_columns(traj.waypoints)
    q = [offset_point(BASE, 7.0 * k, 150.0 - 3.0 * k, 40.0 + k)
         for k in range(50)]

    def field_and_truth():
        sampler = CorrelatedFieldSampler(lat, lon, alt, CORR)
        meas, truth = generate_campaign(scene, traj)
        return sampler.draw(5), meas.rsrp, truth.at_points(q)

    default = field_and_truth()
    # 24 items per block: the waypoints and the queries span several
    monkeypatch.setattr(geo, "_BLOCK_ELEMENTS", 1)
    assert len(lat) > 4 * 24
    for a, b in zip(default, field_and_truth()):
        assert np.array_equal(a, b)


def test_campaign_rejects_station_waypoint():
    corners = [offset_point(GS, -20.0, 0.0, GS.alt_m),
               offset_point(GS, 20.0, 0.0, GS.alt_m)]
    traj = custom_trajectory(corners, sample_spacing_m=10.0)
    scene = SceneSpec(gs=GS, cfg=PROP, corr=CORR, seed=1)
    with pytest.raises(rs.RangeError):
        generate_campaign(scene, traj)


# -------------------------------------------------------------------- blobs

def test_blob_depth_and_rim():
    center = offset_point(GS, 200.0, 0.0, 60.0)
    blob = Blob(center=center, radius_m=80.0, depth_db=-25.0)
    quiet = rs.CorrelationModel(a=0.7, p1=0.05, p2=0.005, q=0.1, sigma_z=0.0)
    plain = SceneSpec(gs=GS, cfg=PROP, corr=quiet, seed=0)
    shadowed = SceneSpec(gs=GS, cfg=PROP, corr=quiet, blobs=(blob,), seed=0)
    traj = ring_trajectory(BASE, 60.0, alt_m=60.0, sample_spacing_m=20.0)
    _, t0 = generate_campaign(plain, traj)
    _, t1 = generate_campaign(shadowed, traj)

    def effect(dx):
        p = offset_point(GS, 200.0 + dx, 0.0, 60.0)
        return (t1.at(p.lat_deg, p.lon_deg, 60.0)
                - t0.at(p.lat_deg, p.lon_deg, 60.0))

    assert effect(0.0) == pytest.approx(-25.0, abs=1e-9)
    assert abs(effect(79.8)) <= 0.01           # taper reaches zero at the rim
    assert effect(80.2) == 0.0                 # hard zero outside
    assert effect(-40.0) == pytest.approx(-25.0 * 0.5 * (1 + np.cos(np.pi * 0.5)),
                                          abs=1e-9)
    # two blobs add where they overlap
    twin = SceneSpec(gs=GS, cfg=PROP, corr=quiet, blobs=(blob, blob), seed=0)
    _, t2 = generate_campaign(twin, traj)
    p = offset_point(GS, 200.0, 0.0, 60.0)
    assert (t2.at(p.lat_deg, p.lon_deg, 60.0)
            - t0.at(p.lat_deg, p.lon_deg, 60.0)) == pytest.approx(-50.0, abs=1e-9)


# ------------------------------------------------------------ serialization

def patterns_equal(a, b):
    return (np.array_equal(a.az_grid, b.az_grid)
            and np.array_equal(a.el_grid, b.el_grid)
            and np.array_equal(a.gain_dbi, b.gain_dbi))


def test_scene_json_round_trip(tmp_path):
    delta = rs.sector_blockage_delta(150.0, 210.0, -4.0)
    blob = Blob(offset_point(GS, 150.0, 90.0, 60.0), 70.0, -20.0)
    scene = SceneSpec(gs=GS, cfg=PROP, corr=CORR, noise_sd=1.5,
                      blobs=(blob,), pattern_distortion=delta, seed=42)
    traj_dict = {"kind": "lawnmower",
                 "origin": {"lat_deg": BASE.lat_deg, "lon_deg": BASE.lon_deg},
                 "width_m": 300.0, "height_m": 200.0, "n_rows": 5,
                 "alt_m": 60.0, "sample_spacing_m": 15.0}
    path = tmp_path / "scene.json"
    scene_to_json(scene, path, trajectory_dict=traj_dict)
    back, traj = scene_from_json(path)

    assert back.gs == scene.gs
    assert back.corr == scene.corr
    assert back.noise_sd == scene.noise_sd
    assert back.seed == scene.seed
    assert back.blobs == scene.blobs
    c0, c1 = scene.cfg, back.cfg
    assert (c1.carrier_hz, c1.tx_power_dbm) == (c0.carrier_hz, c0.tx_power_dbm)
    assert c1.ground_rel_permittivity == c0.ground_rel_permittivity
    assert c1.polarization == c0.polarization
    assert patterns_equal(c1.gs_pattern, c0.gs_pattern)
    assert patterns_equal(c1.uav_pattern, c0.uav_pattern)
    d0, d1 = scene.pattern_distortion, back.pattern_distortion
    assert np.array_equal(d0.delta_db, d1.delta_db)
    assert np.array_equal(d0.az_centers, d1.az_centers)

    want = lawnmower_trajectory(
        rs.GeoPoint(BASE.lat_deg, BASE.lon_deg, 0.0), 300.0, 200.0, 5, 60.0, 15.0
    )
    assert traj.waypoints == want.waypoints

    # identical campaigns from the reloaded description
    m0, _ = generate_campaign(scene, traj)
    m1, _ = generate_campaign(back, traj)
    assert [m.rsrp_dbm for m in m0] == [m.rsrp_dbm for m in m1]


def test_scene_dict_errors_and_defaults():
    doc = scene_to_dict(SceneSpec(gs=GS, cfg=PROP, corr=CORR, seed=5))
    doc.pop("noise_sd")
    back = scene_from_dict(doc)
    assert back.noise_sd == 0.0
    with pytest.raises(rs.ParseError):
        scene_from_dict({"gs": {"lat_deg": 0.0, "lon_deg": 0.0}})
    with pytest.raises(rs.ParseError):
        trajectory_from_dict({"kind": "spiral"})

    # every number is checked before it is used: a string, a bool or a
    # count of 2.7 is a RangeError that names the key, not converted
    full = scene_to_dict(SceneSpec(
        gs=GS, cfg=PROP, corr=CORR, seed=5, blobs=(Blob(GS, 40.0, 10.0),),
        pattern_distortion=sector_blockage_delta(150.0, 190.0, -6.0)))
    assert scene_to_dict(scene_from_dict(full)) == full

    def edited(doc, part, key, value):
        doc = json.loads(json.dumps(doc))
        inner = doc
        for name in part:
            inner = inner[name]
        inner[key] = value
        return doc

    for part, key, value in (
            ((), "noise_sd", "0.5"), ((), "seed", 2.7), ((), "seed", True),
            (("blobs", 0), "radius_m", "40"), (("blobs", 0), "depth_db", True),
            (("propagation", "gs_pattern"), "gain_dbi", "3"),
            (("pattern_distortion",), "min_support", 2.5),
            (("pattern_distortion",), "min_support", True)):
        with pytest.raises(rs.RangeError, match=f"{key} must be"):
            scene_from_dict(edited(full, part, key, value))
    with pytest.raises(rs.RangeError, match="peak_dbi must be finite"):
        scene_from_dict(edited(full, ("propagation",), "uav_pattern",
                               {"preset": "dipole", "peak_dbi": "2"}))
    # a whole-number float is a count, as it is for calibrate
    whole = edited(full, ("pattern_distortion",), "min_support", 3.0)
    assert scene_from_dict(whole).pattern_distortion.min_support == 3

    zigzag = {"kind": "zigzag", "origin": {"lat_deg": BASE.lat_deg,
                                           "lon_deg": BASE.lon_deg},
              "width_m": 300.0, "height_m": 200.0, "n_legs": 3,
              "alt_m": 50.0, "sample_spacing_m": 20.0,
              "altitudes": [50.0, 80.0]}
    assert {p.alt_m for p in trajectory_from_dict(zigzag).waypoints} == {
        50.0, 80.0}
    for key, value in (("width_m", "200"), ("height_m", None),
                       ("n_legs", 2.7), ("n_legs", True),
                       ("sample_spacing_m", True), ("alt_m", "50"),
                       ("altitudes", [50.0, "80"])):
        with pytest.raises(rs.RangeError, match=f"{key} must be"):
            trajectory_from_dict({**zigzag, key: value})


def test_trajectory_dict_stacked_altitudes():
    doc = {"kind": "ring",
           "center": {"lat_deg": BASE.lat_deg, "lon_deg": BASE.lon_deg},
           "radius_m": 90.0, "alt_m": 40.0, "sample_spacing_m": 20.0,
           "altitudes": [40.0, 70.0, 100.0]}
    traj = trajectory_from_dict(doc)
    base = ring_trajectory(rs.GeoPoint(BASE.lat_deg, BASE.lon_deg, 0.0),
                           90.0, 40.0, 20.0)
    assert len(traj.waypoints) == 3 * len(base.waypoints)
    assert sorted({p.alt_m for p in traj.waypoints}) == [40.0, 70.0, 100.0]
