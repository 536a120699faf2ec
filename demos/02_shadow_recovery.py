"""Recover a correlated shadow-fading field from one synthetic flight.

The scene generator draws a Gaussian field with a biexponential
horizontal correlation and an exponential vertical one.  We extract the
shadowing residuals from the measurements, refit the correlation model
blind, and then compare kriging variants on held-out points.
"""

import numpy as np

import remsense as rs
from remsense.evaluation import fit_residual_model, predict_residuals
from remsense.shadowing import extract_sf

GS = rs.GeoPoint(35.72, -78.70, 10.0)
PROP = rs.PropagationConfig(carrier_hz=3.32e9, tx_power_dbm=23.0)
TRUE = rs.CorrelationModel(a=0.7, p1=0.05, p2=0.005, q=0.1, sigma_z=3.0)
BASE = rs.GeoPoint(35.721, -78.702, 50.0)

scene = rs.SceneSpec(gs=GS, cfg=PROP, corr=TRUE, seed=11)
traj = rs.lawnmower_trajectory(BASE, 600.0, 500.0, n_rows=12, alt_m=60.0,
                               sample_spacing_m=12.0)
measurements, _truth = rs.generate_campaign(scene, traj)
print(f"campaign: {len(measurements)} measurements at 60 m altitude")

sf = extract_sf(measurements, PROP, GS)
values = sf.z
print(f"shadowing residuals: mean {values.mean():+.3f} dB, "
      f"sd {values.std(ddof=1):.3f} dB (generator sigma_z = 3)")

# hold out every 7th sample; fit on the rest and predict the held-out ones
# from it, with the fit and the predictors `remsense eval` and
# `remsense reconstruct` use
held = sf[::7]
rest = sf[np.arange(len(sf)) % 7 != 0]
fit = fit_residual_model(rest, "TG_OK")
fitted, scores = fit.corr, fit.corr_u
print(f"refit blind from {len(rest)} of the samples:")
print(f"  a={fitted.a:.3f}  p1={fitted.p1:.4f}  p2={fitted.p2:.4f}  "
      f"q={fitted.q:.3f}  sigma_z={fitted.sigma_z:.3f}")
print(f"  normal scores: a={scores.a:.3f}  p1={scores.p1:.4f}  "
      f"p2={scores.p2:.4f}  q={scores.q:.3f}  sigma_u={scores.sigma_z:.3f}")

errors = {
    name: predict_residuals(name, fit, rest, held.lat, held.lon, held.alt,
                            radius_m=200.0, mc=rs.McConfig()) - held.z
    for name in ("OK", "SK", "TG_OK")
}

print(f"hold-out check on {len(held)} points (residual sd would be "
      f"{values.std(ddof=1):.2f} dB with no interpolation):")
for name, errs in errors.items():
    rmse = float(np.sqrt(np.mean(np.square(errs))))
    print(f"  {name:>5}: RMSE {rmse:.3f} dB")
