"""Show what the completion stage adds when the field has deep fades.

Three -10 dB blobs are punched into an otherwise smooth shadow field.
Plain GPR smooths straight through them; the grid pipeline projects the
GPR surface onto a small nuclear-norm ball, keeps the cells the
projection could not explain, dilates them one cell outward, and
recombines.  The printout compares both predictors inside the blobs.
"""

import numpy as np

import remsense as rs
from remsense.completion import McAssistedGpr, McConfig
from remsense.geo import horizontal_distance
from remsense.gpr import gpr_fit, gpr_predict_mean
from remsense.shadowing import extract_sf

GS = rs.GeoPoint(35.72, -78.70, 10.0)
PROP = rs.PropagationConfig(carrier_hz=3.32e9, tx_power_dbm=23.0)
FIELD = rs.CorrelationModel(a=0.7, p1=0.05, p2=0.005, q=0.1, sigma_z=2.0)
BASE = rs.GeoPoint(35.721, -78.702, 50.0)
M_LAT = 111132.954


def offset(dx, dy, alt):
    m_lon = M_LAT * np.cos(np.radians(BASE.lat_deg))
    return rs.GeoPoint(BASE.lat_deg + dy / M_LAT, BASE.lon_deg + dx / m_lon,
                       alt)


blobs = (
    rs.Blob(offset(75.0, 60.0, 60.0), 45.0, -10.0),
    rs.Blob(offset(187.0, 140.0, 60.0), 45.0, -10.0),
    rs.Blob(offset(87.0, 160.0, 60.0), 45.0, -10.0),
)
scene = rs.SceneSpec(gs=GS, cfg=PROP, corr=FIELD, blobs=blobs, noise_sd=1.5,
                     seed=401)
traj = rs.lawnmower_trajectory(BASE, 250.0, 200.0, n_rows=14, alt_m=60.0,
                               sample_spacing_m=7.0)
measurements, _ = rs.generate_campaign(scene, traj)
sf = extract_sf(measurements, PROP, GS)
print(f"scene: {len(sf)} samples over 250x200 m, three -10 dB blobs")

rng = np.random.default_rng(7)
sampled = rng.choice(len(sf), 100, replace=False)
mask = np.zeros(len(sf), bool)
mask[sampled] = True

train = sf[sampled]
model = gpr_fit(train, FIELD, sigma_y=2.0, sigma_gp=1.5)
pipe = McAssistedGpr(model, McConfig())

norm_before = float(np.linalg.norm(pipe.grid.z, "nuc"))
norm_after = float(np.linalg.norm(pipe.mc.z_mc, "nuc"))
carved = int(np.count_nonzero(pipe.z_ds))
print(f"grid {pipe.grid.z.shape[0]}x{pipe.grid.z.shape[1]} at 5 m:")
print(f"  nuclear norm {norm_before:.0f} -> {norm_after:.0f} "
      f"(bisection {'converged' if pipe.mc.converged else 'hit max iters'})")
print(f"  {carved} cells kept as deep shadow, "
      f"{int(np.count_nonzero(pipe.z_ds_dilated))} after dilation")

near = np.array([
    any(horizontal_distance(s.location, b.center) <= 1.2 * b.radius_m
        for b in blobs)
    for s in sf
])
held = sf[~mask & near]
z_gpr = gpr_predict_mean(model, held.lat, held.lon, held.alt)
z_mc = pipe.predict(held.lat, held.lon)
rmse_gpr = float(np.sqrt(np.mean((z_gpr - held.z) ** 2)))
rmse_mc = float(np.sqrt(np.mean((z_mc - held.z) ** 2)))
print(f"blob-neighborhood RMSE over {len(held)} held-out points:")
print(f"  plain GPR        {rmse_gpr:.3f} dB")
print(f"  completion-aided {rmse_mc:.3f} dB")
