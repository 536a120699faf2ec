import dataclasses

import numpy as np
import pytest

import remsense as rs
from remsense.calibration import (
    AmplitudeRatios,
    CalibratedDelta,
    delta_gain,
    estimate_a_uav,
    estimate_effective_pattern,
    read_delta_csv,
    write_delta_csv,
)
from remsense.geo import from_local_xy, link_geometry_batch
from remsense.patterns import dipole_pattern, gain_at, sector_blockage_delta
from remsense.propagation import PropagationConfig, trpl_received_power_db

from conftest import GS

DIPOLE = dipole_pattern()
FRIIS = PropagationConfig(carrier_hz=3.32e9, tx_power_dbm=23.0,
                          uav_pattern=DIPOLE, ground_rel_permittivity=1.0)


def direction_sweep(n, seed, el_lo=2.0, el_hi=50.0, dz=50.0):
    """Measurement locations drawn over controlled arrival directions."""
    rng = np.random.default_rng(seed)
    az = rng.uniform(0, 360, n)
    el = rng.uniform(el_lo, el_hi, n)
    dh = dz / np.tan(np.radians(el))
    x = dh * np.sin(np.radians(az))
    y = dh * np.cos(np.radians(az))
    lat, lon = from_local_xy(x, y, GS)
    alt = np.full(n, GS.alt_m + dz)
    return lat, lon, alt


def synth_measurements(lat, lon, alt, extra_db=None):
    geom, _ = link_geometry_batch(GS, lat, lon, alt, FRIIS.wavelength_m)
    rsrp = trpl_received_power_db(FRIIS, geom)
    if extra_db is not None:
        rsrp = rsrp + extra_db.delta_at(np.asarray(geom.phi_r),
                                        np.asarray(geom.theta_r))
    return [rs.Measurement(rs.GeoPoint(a, o, h), float(r), i)
            for i, (a, o, h, r) in enumerate(zip(lat, lon, alt, rsrp))]


# ----------------------------------------------------------- amplitude reads

def test_amplitude_ratio_definition():
    east = from_local_xy(100.0, 0.0, GS)
    meas = [
        rs.Measurement(rs.GeoPoint(east[0], east[1], GS.alt_m), 23.0, 0),
        rs.Measurement(rs.GeoPoint(east[0], east[1], GS.alt_m), 3.0, 1),
    ]
    ratios = estimate_a_uav(meas, FRIIS, GS)
    np.testing.assert_allclose(ratios.amp, [1.0, 0.1], rtol=1e-12)
    # level link due east: arrival points back west (within meridian
    # convergence over 100 m), no elevation
    np.testing.assert_allclose(ratios.az, 270.0, atol=1e-3)
    np.testing.assert_allclose(ratios.el, 0.0, atol=1e-9)
    np.testing.assert_allclose(ratios.d_3d, 100.0, rtol=1e-6)
    assert len(ratios) == 2
    assert ratios.n_skipped == 0


def test_station_coincident_measurement_skipped():
    east = from_local_xy(100.0, 0.0, GS)
    meas = [
        rs.Measurement(rs.GeoPoint(east[0], east[1], GS.alt_m + 10.0), -50.0, 0),
        rs.Measurement(GS, -50.0, 1),
    ]
    ratios = estimate_a_uav(meas, FRIIS, GS, campaign="c1")
    assert len(ratios) == 1
    assert ratios.n_skipped == 1
    assert ratios.campaign == "c1"


# ------------------------------------------------------------ pattern reads

def test_effective_pattern_round_trip():
    lat, lon, alt = direction_sweep(20000, seed=61)
    meas = synth_measurements(lat, lon, alt)
    ratios = estimate_a_uav(meas, FRIIS, GS)
    eff = estimate_effective_pattern(ratios, FRIIS.gs_pattern,
                                     bin_deg=10.0, min_support=25)
    supported = ~np.isnan(eff.gain_dbi)
    assert supported.sum() >= 150
    azc, elc = np.meshgrid(eff.az_centers, eff.el_centers, indexing="ij")
    truth = np.asarray(gain_at(DIPOLE, azc.ravel(), elc.ravel()))
    err = np.abs(eff.gain_dbi - truth.reshape(azc.shape))[supported]
    assert err.max() <= 0.3
    # only the sampled elevation band is supported
    assert np.all(elc[supported] < 55.0)
    assert np.all(elc[supported] > 0.0)
    np.testing.assert_array_equal(supported, eff.support >= 25)


def test_sector_distortion_recovered_in_delta():
    lat, lon, alt = direction_sweep(20000, seed=61)
    true_delta = sector_blockage_delta(140.0, 220.0, -6.0)
    meas = synth_measurements(lat, lon, alt, extra_db=true_delta)
    eff = estimate_effective_pattern(estimate_a_uav(meas, FRIIS, GS),
                                     FRIIS.gs_pattern, bin_deg=10.0,
                                     min_support=25)
    d = delta_gain(eff, DIPOLE)
    az = d.az_centers[:, None]
    inside = (az > 140.0) & (az < 220.0) & d.supported
    outside = ((az < 130.0) | (az > 230.0)) & d.supported
    assert inside.sum() > 0 and outside.sum() > 0
    assert np.max(np.abs(d.delta_db[inside] + 6.0)) <= 0.5
    assert np.max(np.abs(d.delta_db[outside])) <= 0.3
    # unsupported directions contribute nothing
    assert d.delta_at(180.0, 75.0) == 0.0


def test_no_supported_bins_paths():
    empty = AmplitudeRatios(az=np.array([]), el=np.array([]),
                            d_3d=np.array([]), amp=np.array([]),
                            gs_az=np.array([]), gs_el=np.array([]),
                            wavelength_m=0.09)
    with pytest.raises(rs.NoSupportedBins):
        estimate_effective_pattern(empty, FRIIS.gs_pattern)
    lat, lon, alt = direction_sweep(30, seed=62)
    ratios = estimate_a_uav(synth_measurements(lat, lon, alt), FRIIS, GS)
    with pytest.raises(rs.NoSupportedBins):
        estimate_effective_pattern(ratios, FRIIS.gs_pattern, bin_deg=10.0,
                                   min_support=10_000)
    eff = estimate_effective_pattern(ratios, FRIIS.gs_pattern, bin_deg=10.0,
                                     min_support=1)
    with pytest.raises(rs.NoSupportedBins):
        delta_gain(eff, DIPOLE, min_support=10_000)


def test_bin_width_validation():
    lat, lon, alt = direction_sweep(100, seed=63)
    ratios = estimate_a_uav(synth_measurements(lat, lon, alt), FRIIS, GS)
    for bad in (7.0, 0.0, 91.0, -5.0):
        with pytest.raises(rs.RangeError):
            estimate_effective_pattern(ratios, FRIIS.gs_pattern, bin_deg=bad)


def test_min_support_below_one_rejected():
    lat, lon, alt = direction_sweep(100, seed=64)
    ratios = estimate_a_uav(synth_measurements(lat, lon, alt), FRIIS, GS)
    for bad in (0, -1, True, 2.5):
        with pytest.raises(rs.RangeError, match=f"min_support.*got {bad!r}"):
            estimate_effective_pattern(ratios, FRIIS.gs_pattern, bin_deg=10.0,
                                       min_support=bad)
    # a whole-number float is the same threshold
    whole = estimate_effective_pattern(ratios, FRIIS.gs_pattern, bin_deg=10.0,
                                       min_support=2.0)
    two = estimate_effective_pattern(ratios, FRIIS.gs_pattern, bin_deg=10.0,
                                     min_support=2)
    np.testing.assert_array_equal(whole.gain_dbi, two.gain_dbi)


def test_delta_gain_min_support_below_one_rejected():
    lat, lon, alt = direction_sweep(100, seed=65)
    ratios = estimate_a_uav(synth_measurements(lat, lon, alt), FRIIS, GS)
    eff = estimate_effective_pattern(ratios, FRIIS.gs_pattern, bin_deg=10.0,
                                     min_support=1)
    for bad in (0, -1, True, 2.5):
        with pytest.raises(rs.RangeError, match=f"min_support.*got {bad!r}"):
            delta_gain(eff, DIPOLE, min_support=bad)
    # a pattern built at a threshold below one is rejected the same way
    with pytest.raises(rs.RangeError, match="min_support"):
        delta_gain(dataclasses.replace(eff, min_support=0), DIPOLE)


# -------------------------------------------------------------- delta table

def hand_delta():
    az_c = np.array([45.0, 135.0, 225.0, 315.0])
    el_c = np.array([-45.0, 45.0])
    delta = np.zeros((4, 2))
    support = np.zeros((4, 2), dtype=int)
    delta[1, 1] = 2.5
    support[1, 1] = 30
    delta[0, 0] = 9.0
    support[0, 0] = 10  # below min support: must be ignored
    return CalibratedDelta(az_centers=az_c, el_centers=el_c, delta_db=delta,
                           support=support, min_support=25)


def test_delta_lookup_bins_and_wrapping():
    d = hand_delta()
    assert d.bin_deg == pytest.approx(90.0)
    assert d.delta_at(100.0, 10.0) == 2.5
    assert d.delta_at(100.0 + 720.0, 10.0) == 2.5
    assert d.delta_at(-260.0, 10.0) == 2.5
    assert d.delta_at(100.0, 90.0) == 2.5  # top edge clamps into last bin
    assert d.delta_at(20.0, -50.0) == 0.0  # unsupported bin
    assert d.delta_at(300.0, 10.0) == 0.0  # never-seen bin
    out = d.delta_at(np.array([100.0, 20.0]), np.array([10.0, -50.0]))
    np.testing.assert_array_equal(out, [2.5, 0.0])
    assert isinstance(d.delta_at(100.0, 10.0), float)


def test_delta_csv_round_trip(tmp_path):
    rng = np.random.default_rng(64)
    az_c = np.arange(5.0, 360.0, 10.0)
    el_c = np.arange(-85.0, 90.0, 10.0)
    d = CalibratedDelta(
        az_centers=az_c, el_centers=el_c,
        delta_db=rng.normal(0, 3, (len(az_c), len(el_c))),
        support=rng.integers(0, 90, (len(az_c), len(el_c))),
        min_support=25,
    )
    path = tmp_path / "delta.csv"
    write_delta_csv(path, d)
    back = read_delta_csv(path, min_support=25)
    np.testing.assert_array_equal(back.az_centers, d.az_centers)
    np.testing.assert_array_equal(back.el_centers, d.el_centers)
    np.testing.assert_array_equal(back.delta_db, d.delta_db)
    np.testing.assert_array_equal(back.support, d.support)
    assert back.min_support == 25


def test_delta_csv_parse_errors(tmp_path):
    p = tmp_path / "bad.csv"

    p.write_text("azimuth,el_deg,gain_dbi,support\n")
    with pytest.raises(rs.ParseError) as exc:
        read_delta_csv(p)
    assert exc.value.line == 1

    p.write_text("az_deg,el_deg,gain_dbi,support\n5.0,-85.0,0.0\n")
    with pytest.raises(rs.ParseError) as exc:
        read_delta_csv(p)
    assert exc.value.line == 2

    p.write_text("az_deg,el_deg,gain_dbi,support\n5.0,-85.0,oops,3\n")
    with pytest.raises(rs.ParseError) as exc:
        read_delta_csv(p)
    assert exc.value.line == 2

    p.write_text("az_deg,el_deg,gain_dbi,support\n")
    with pytest.raises(rs.ParseError):
        read_delta_csv(p)

    # three rows cannot fill a 2 x 2 grid of bin centers
    p.write_text(
        "az_deg,el_deg,gain_dbi,support\n"
        "45.0,-45.0,1.0,30\n45.0,45.0,1.0,30\n135.0,-45.0,1.0,30\n"
    )
    with pytest.raises(rs.ParseError):
        read_delta_csv(p)

    # four rows, but (135, -45) twice and (135, 45) never
    p.write_text(
        "az_deg,el_deg,gain_dbi,support\n"
        "45.0,-45.0,1.0,30\n45.0,45.0,1.0,30\n135.0,-45.0,1.0,30\n"
        "135.0,-45.0,2.0,30\n"
    )
    with pytest.raises(rs.ParseError, match="repeats an earlier row") as exc:
        read_delta_csv(p)
    assert exc.value.line == 5
