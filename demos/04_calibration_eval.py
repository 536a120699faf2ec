"""Recover a broken antenna sector and measure what fixing it buys.

The UAV antenna is simulated with a -6 dB notch over azimuths 150-190.
A dedicated orbit campaign estimates the per-direction correction from
amplitude ratios; the Monte-Carlo harness then scores map
reconstruction with and without that correction applied.
"""

import dataclasses

import numpy as np

import remsense as rs
from remsense.calibration import (
    delta_gain,
    estimate_a_uav,
    estimate_effective_pattern,
)
from remsense.evaluation import EvalConfig, monte_carlo_eval
from remsense.patterns import sector_blockage_delta
from remsense.scenes import Trajectory

GS = rs.GeoPoint(35.72, -78.70, 10.0)
FRIIS = rs.PropagationConfig(carrier_hz=3.32e9, tx_power_dbm=23.0,
                             ground_rel_permittivity=1.0)
QUIET = rs.CorrelationModel(a=0.7, p1=0.05, p2=0.005, q=0.1, sigma_z=0.0)
FIELD = rs.CorrelationModel(a=0.7, p1=0.05, p2=0.005, q=0.1, sigma_z=2.0)
BASE = rs.GeoPoint(35.721, -78.702, 50.0)
SECTOR = sector_blockage_delta(150.0, 190.0, -6.0)

# orbit the station at three radii and four altitudes
waypoints = []
for radius in (120.0, 200.0, 300.0):
    ring = rs.ring_trajectory(rs.GeoPoint(GS.lat_deg, GS.lon_deg, 40.0),
                              radius, alt_m=40.0, sample_spacing_m=6.0)
    waypoints.extend(rs.stack_altitudes(ring, [30.0, 60.0, 100.0, 150.0])
                     .waypoints)
orbit = Trajectory(waypoints=tuple(waypoints), kind="custom",
                   sample_spacing_m=6.0)
calib_scene = rs.SceneSpec(gs=GS, cfg=FRIIS, corr=QUIET, noise_sd=0.5,
                           pattern_distortion=SECTOR, seed=501)
calib, _ = rs.generate_campaign(calib_scene, orbit)
print(f"calibration campaign: {len(calib)} measurements")

ratios = estimate_a_uav(calib, FRIIS, GS, campaign="orbit")
effective = estimate_effective_pattern(ratios, FRIIS.gs_pattern,
                                       bin_deg=10.0, min_support=15)
delta = delta_gain(effective, FRIIS.uav_pattern)
az_c, _ = np.meshgrid(delta.az_centers, delta.el_centers, indexing="ij")
inside = delta.supported & (az_c >= 150.0) & (az_c < 190.0)
print(f"recovered correction: {int(delta.supported.sum())} supported bins, "
      f"mean inside the notch {delta.delta_db[inside].mean():+.2f} dB "
      f"(injected -6.00)")

# now fly a mapping mission with the same broken antenna
eval_scene = rs.SceneSpec(gs=GS, cfg=FRIIS, corr=FIELD, noise_sd=0.5,
                          pattern_distortion=SECTOR, seed=502)
mission = rs.lawnmower_trajectory(BASE, 500.0, 400.0, n_rows=10, alt_m=70.0,
                                  sample_spacing_m=14.0)
test, _ = rs.generate_campaign(eval_scene, mission)

shared = dict(gs=GS, prop=FRIIS, test_campaign=test, method="OK",
              radius_m=200.0, iterations=200, seed=77, corr_model=FIELD,
              delta=delta)
print(f"mapping mission: {len(test)} measurements, kriging from M samples")
print(f"{'M':>5} {'uncalibrated':>13} {'calibrated':>11}")
for m in (10, 25, 50):
    base = monte_carlo_eval(EvalConfig(calibrated=False, m_samples=m,
                                       **shared))
    cal = monte_carlo_eval(EvalConfig(calibrated=True, m_samples=m,
                                      **shared))
    print(f"{m:>5} {base.median_rmse_db:>11.2f} dB {cal.median_rmse_db:>8.2f} dB")
