"""Synthetic measurement campaigns with known ground truth.

A scene is the two-ray deterministic field plus a spatially correlated
Gaussian shadow-fading realization, optional deep-shadow blobs with a
smooth cosine taper, an optional receive-pattern distortion, and white
measurement noise.  Identical spec and seed reproduce a campaign bit
for bit, including its CSV export.
"""

import csv
import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import linalg

from .calibration import CalibratedDelta, _check_min_support
from .errors import (ParseError, RangeError, TooManyPoints, _check_int,
                     _check_real, _real)
from .geo import (GeoPoint, _lag_kernel, _lags, _point_columns,
                  _target_columns, from_local_xy, link_geometry_batch,
                  to_local_xy)
from .gpr import gpr_fit, gpr_predict_mean
from .patterns import OffsetPattern, pattern_from_dict, pattern_to_dict
from .propagation import PropagationConfig, trpl_received_power_db
from .shadowing import Campaign, CorrelationModel, SampleSet

MEASUREMENT_CSV_HEADER = ["seq", "lat_deg", "lon_deg", "alt_m", "rsrp_dbm"]
MAX_FIELD_POINTS = 5000
_DIAG_LIFT = 1e-10


@dataclass(frozen=True)
class Blob:
    """A deep-shadow zone: extra loss inside a tapered ball."""

    center: GeoPoint
    radius_m: float
    depth_db: float

    def __post_init__(self):
        _check_real("radius_m", self.radius_m, positive=True)
        _check_real("depth_db", self.depth_db)


@dataclass(frozen=True)
class SceneSpec:
    """Everything that defines a synthetic environment.

    ``pattern_distortion`` (a gain-delta table) is applied inside the
    receiver gain when generating truth, simulating an airframe effect
    that the bench pattern does not know about.
    """

    gs: GeoPoint
    cfg: PropagationConfig
    corr: CorrelationModel
    noise_sd: float = 0.0
    blobs: tuple = ()
    pattern_distortion: Optional[CalibratedDelta] = None
    seed: int = 0

    def __post_init__(self):
        _check_real("noise_sd", self.noise_sd, positive=False)


@dataclass(frozen=True)
class Trajectory:
    """Waypoint list; consecutive spacing within 10% of the nominal."""

    waypoints: tuple
    kind: str
    sample_spacing_m: float


def _resample_polyline(vertices, spacing_m, alt_m, origin):
    """Uniform per-segment resampling of a tangent-plane polyline.

    Each segment is split into round(length / spacing) equal steps, so
    segments at least five spacings long keep every consecutive pair
    within 10% of nominal.
    """
    pts = []
    for k in range(len(vertices) - 1):
        x0, y0 = vertices[k]
        x1, y1 = vertices[k + 1]
        length = float(np.hypot(x1 - x0, y1 - y0))
        if length == 0.0:
            continue
        n = max(1, int(round(length / spacing_m)))
        start = 0 if k == 0 else 1
        for step in range(start, n + 1):
            t = step / n
            pts.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    lat, lon = from_local_xy(
        np.array([p[0] for p in pts]), np.array([p[1] for p in pts]), origin
    )
    return tuple(GeoPoint(float(a), float(b), float(alt_m))
                 for a, b in zip(lat, lon))


def lawnmower_trajectory(origin: GeoPoint, width_m: float, height_m: float,
                         n_rows: int, alt_m: float,
                         sample_spacing_m: float = 5.0) -> Trajectory:
    """Boustrophedon sweep: east-west rows connected by short hops north."""
    _check_int("n_rows", n_rows, 2)
    ys = np.linspace(0.0, height_m, n_rows)
    verts = []
    for i, y in enumerate(ys):
        xs = (0.0, width_m) if i % 2 == 0 else (width_m, 0.0)
        verts.append((xs[0], y))
        verts.append((xs[1], y))
    wps = _resample_polyline(verts, sample_spacing_m, alt_m, origin)
    return Trajectory(wps, "lawnmower", sample_spacing_m)


def zigzag_trajectory(origin: GeoPoint, width_m: float, height_m: float,
                      n_legs: int, alt_m: float,
                      sample_spacing_m: float = 5.0) -> Trajectory:
    """Diagonal sawtooth across the area, ``n_legs`` alternating legs."""
    _check_int("n_legs", n_legs, 1)
    verts = [(0.0, 0.0)]
    dx = width_m / n_legs
    for i in range(1, n_legs + 1):
        verts.append((i * dx, height_m if i % 2 == 1 else 0.0))
    wps = _resample_polyline(verts, sample_spacing_m, alt_m, origin)
    return Trajectory(wps, "zigzag", sample_spacing_m)


def ring_trajectory(center: GeoPoint, radius_m: float, alt_m: float,
                    sample_spacing_m: float = 5.0) -> Trajectory:
    """Closed circle around ``center`` sampled at roughly even arcs."""
    _check_real("radius_m", radius_m, positive=True)
    n = max(8, int(round(2.0 * np.pi * radius_m / sample_spacing_m)))
    ang = 2.0 * np.pi * np.arange(n) / n
    x = radius_m * np.sin(ang)
    y = radius_m * np.cos(ang)
    lat, lon = from_local_xy(x, y, center)
    wps = tuple(GeoPoint(float(a), float(b), float(alt_m))
                for a, b in zip(lat, lon))
    return Trajectory(wps, "ring", sample_spacing_m)


def custom_trajectory(corners, sample_spacing_m: float,
                      alt_m: float = None) -> Trajectory:
    """Resample a user polyline of GeoPoints at the given spacing."""
    if len(corners) < 2:
        raise RangeError("custom trajectory needs at least two corners")
    origin = corners[0]
    x, y = to_local_xy(*_point_columns(corners)[:2], origin)
    if alt_m is None:
        alt_m = corners[0].alt_m
    wps = _resample_polyline(list(zip(x, y)), sample_spacing_m, alt_m, origin)
    return Trajectory(wps, "custom", sample_spacing_m)


def stack_altitudes(traj: Trajectory, altitudes) -> Trajectory:
    """Repeat a trajectory's ground track at several altitudes."""
    wps = []
    for alt in altitudes:
        wps.extend(replace(p, alt_m=float(alt)) for p in traj.waypoints)
    return Trajectory(tuple(wps), traj.kind, traj.sample_spacing_m)


class CorrelatedFieldSampler:
    """Gaussian field sampler over a fixed point set.

    The covariance is factorized once (symmetric square root via an
    eigendecomposition, with a small diagonal lift); every ``draw`` then
    costs one matrix-vector product, so many seeds over the same points
    are cheap.  The covariance is built in blocks and decomposed in
    place, so the sampler holds one n x n matrix, its root.
    """

    def __init__(self, lat, lon, alt, corr: CorrelationModel):
        lat, lon, alt = _target_columns(lat, lon, alt)
        self.n = len(lat)
        self.corr = corr
        if corr.sigma_z == 0.0:
            self._root = None
            return
        if self.n > MAX_FIELD_POINTS:
            raise TooManyPoints(
                f"{self.n} points exceeds the dense factorization bound "
                f"of {MAX_FIELD_POINTS}"
            )
        cov = _lag_kernel(corr.covariance_at, lat, lon, alt)
        cov[np.diag_indices_from(cov)] += _DIAG_LIFT
        eigval, eigvec = linalg.eigh(cov, overwrite_a=True, driver="evd")
        eigval = np.clip(eigval, 0.0, None)
        # a C-ordered root keeps the summation order of draw's product
        self._root = np.multiply(eigvec, np.sqrt(eigval), order="C")

    def draw(self, seed) -> np.ndarray:
        """One zero-mean realization, deterministic per seed."""
        if self._root is None:
            return np.zeros(self.n)
        xi = np.random.default_rng(seed).standard_normal(self.n)
        return self._root @ xi


def sample_correlated_field(points, corr: CorrelationModel, seed):
    """Draw one shadow-fading realization at the given points.

    Raises:
        TooManyPoints: above the dense factorization bound (the check is
            skipped for sigma_z = 0, which needs no factorization).
    """
    return CorrelatedFieldSampler(*_point_columns(points), corr).draw(seed)


def _blob_loss(blobs, lat, lon, alt):
    out = np.zeros(lat.shape)
    for blob in blobs:
        c = blob.center
        r = np.hypot(*_lags(lat, lon, alt, c.lat_deg, c.lon_deg, c.alt_m))
        inside = r < blob.radius_m
        taper = 0.5 * (1.0 + np.cos(np.pi * r / blob.radius_m))
        out = out + np.where(inside, blob.depth_db * taper, 0.0)
    return out


def _effective_cfg(scene: SceneSpec) -> PropagationConfig:
    if scene.pattern_distortion is None:
        return scene.cfg
    distorted = OffsetPattern(scene.cfg.uav_pattern, scene.pattern_distortion)
    return replace(scene.cfg, uav_pattern=distorted)


class SyntheticTruth:
    """Noiseless truth field, queryable anywhere.

    At campaign waypoints the stored shadow-fading values are returned;
    elsewhere the field is extended by its conditional mean given the
    stored values (the deterministic and blob parts are exact
    everywhere).  That mean is a :mod:`remsense.gpr` posterior mean,
    the lift as nugget, fitted at the first query; ``synth`` makes none.
    """

    def __init__(self, scene: SceneSpec, sampler: CorrelatedFieldSampler,
                 lat, lon, alt, sf):
        self.scene = scene
        self._cfg = _effective_cfg(scene)
        self.sf = sf
        self._field = (None if sampler._root is None
                       else SampleSet(lat, lon, alt, sf))
        self._model = None

    def at(self, lat, lon, alt):
        """Truth received power (dBm) at arbitrary coordinates.

        Raises ``ValueError`` for coordinate columns that are not 1-D,
        not of equal length or not finite.
        """
        scalar = np.isscalar(lat)
        lat, lon, alt = _target_columns(lat, lon, alt)
        geom, valid = link_geometry_batch(
            self.scene.gs, lat, lon, alt, self._cfg.wavelength_m
        )
        det = trpl_received_power_db(self._cfg, geom)
        det = det + _blob_loss(self.scene.blobs, lat, lon, alt)
        if self._field is not None:
            if self._model is None:
                corr = self.scene.corr
                self._model = gpr_fit(self._field, corr, corr.sigma_z,
                                      np.sqrt(_DIAG_LIFT))
            det += gpr_predict_mean(self._model, lat, lon, alt)
        return float(det[0]) if scalar else det

    def at_points(self, points):
        return self.at(*_point_columns(points))


def generate_campaign(scene: SceneSpec, traj: Trajectory):
    """A :class:`Campaign` along a trajectory plus the matching truth handle.

    Per waypoint: two-ray power (with any pattern distortion inside the
    receiver gain), plus the correlated shadow-fading draw, plus blob
    losses, plus white noise of ``scene.noise_sd``.  The noise stream
    and the field draw are derived independently from ``scene.seed``.
    """
    lat, lon, alt = _point_columns(traj.waypoints)
    cfg = _effective_cfg(scene)
    geom, valid = link_geometry_batch(scene.gs, lat, lon, alt, cfg.wavelength_m)
    if not np.all(valid):
        raise RangeError("a trajectory waypoint coincides with the station")
    det = trpl_received_power_db(cfg, geom)
    det = det + _blob_loss(scene.blobs, lat, lon, alt)

    sampler = CorrelatedFieldSampler(lat, lon, alt, scene.corr)
    sf = sampler.draw(np.random.SeedSequence((scene.seed, 0)))
    noise = np.zeros(len(lat))
    if scene.noise_sd > 0:
        rng = np.random.default_rng(np.random.SeedSequence((scene.seed, 1)))
        noise = scene.noise_sd * rng.standard_normal(len(lat))

    campaign = Campaign(lat, lon, alt, det + sf + noise)
    truth = SyntheticTruth(scene, sampler, lat, lon, alt, sf)
    return campaign, truth


def write_measurements_csv(path, measurements):
    """Export a :class:`Campaign` or :class:`Measurement` list in the
    harness CSV format; byte-identical per campaign."""
    c = Campaign.of(measurements)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MEASUREMENT_CSV_HEADER)
        floats = zip(*(col.tolist() for col in (c.lat, c.lon, c.alt, c.rsrp)))
        writer.writerows([seq, *map(repr, row)]
                         for seq, row in zip(c.seq.tolist(), floats))


def _geopoint_to_dict(p: GeoPoint) -> dict:
    return {"lat_deg": p.lat_deg, "lon_deg": p.lon_deg, "alt_m": p.alt_m}


def _count(d: dict, key: str, low: int, default=None) -> int:
    """``d[key]``, or ``default`` when given and the key is absent, once
    :func:`_check_int` accepts it: 2.7 or True is rejected, not truncated."""
    value = d[key] if default is None else d.get(key, default)
    _check_int(key, value, low)
    return value


def _geopoint_from_dict(d: dict) -> GeoPoint:
    return GeoPoint(_real(d, "lat_deg"), _real(d, "lon_deg"),
                    _real(d, "alt_m", 0.0))


def _corr_to_dict(c: CorrelationModel) -> dict:
    return {"a": c.a, "p1": c.p1, "p2": c.p2, "q": c.q, "sigma_z": c.sigma_z}


def _corr_from_dict(d: dict) -> CorrelationModel:
    return CorrelationModel(**{k: _real(d, k)
                               for k in ("a", "p1", "p2", "q", "sigma_z")})


def _prop_to_dict(cfg: PropagationConfig) -> dict:
    return {
        "carrier_hz": cfg.carrier_hz,
        "tx_power_dbm": cfg.tx_power_dbm,
        "gs_pattern": pattern_to_dict(cfg.gs_pattern),
        "uav_pattern": pattern_to_dict(cfg.uav_pattern),
        "ground_rel_permittivity": cfg.ground_rel_permittivity,
        "polarization": cfg.polarization,
        "pl_ceiling_db": cfg.pl_ceiling_db,
    }


def _prop_from_dict(d: dict) -> PropagationConfig:
    return PropagationConfig(
        carrier_hz=_real(d, "carrier_hz"),
        tx_power_dbm=_real(d, "tx_power_dbm"),
        gs_pattern=pattern_from_dict(d.get("gs_pattern", {"preset": "isotropic"})),
        uav_pattern=pattern_from_dict(d.get("uav_pattern", {"preset": "isotropic"})),
        ground_rel_permittivity=_real(d, "ground_rel_permittivity", 15.0),
        polarization=d.get("polarization", "vertical"),
        pl_ceiling_db=_real(d, "pl_ceiling_db", 300.0),
    )


def _delta_to_dict(delta: CalibratedDelta) -> dict:
    return {
        "az_centers": delta.az_centers.tolist(),
        "el_centers": delta.el_centers.tolist(),
        "delta_db": delta.delta_db.tolist(),
        "support": np.asarray(delta.support).tolist(),
        "min_support": delta.min_support,
    }


def _delta_from_dict(d: dict) -> CalibratedDelta:
    min_support = d.get("min_support", 1)
    _check_min_support(min_support)
    return CalibratedDelta(
        az_centers=np.asarray(d["az_centers"], dtype=float),
        el_centers=np.asarray(d["el_centers"], dtype=float),
        delta_db=np.asarray(d["delta_db"], dtype=float),
        support=np.asarray(d["support"], dtype=int),
        min_support=int(min_support),
    )


def scene_to_dict(scene: SceneSpec) -> dict:
    out = {
        "gs": _geopoint_to_dict(scene.gs),
        "propagation": _prop_to_dict(scene.cfg),
        "correlation": _corr_to_dict(scene.corr),
        "noise_sd": scene.noise_sd,
        "blobs": [
            {**_geopoint_to_dict(b.center), "radius_m": b.radius_m,
             "depth_db": b.depth_db}
            for b in scene.blobs
        ],
        "seed": scene.seed,
    }
    if scene.pattern_distortion is not None:
        out["pattern_distortion"] = _delta_to_dict(scene.pattern_distortion)
    return out


def scene_from_dict(d: dict) -> SceneSpec:
    try:
        return SceneSpec(
            gs=_geopoint_from_dict(d["gs"]),
            cfg=_prop_from_dict(d["propagation"]),
            corr=_corr_from_dict(d["correlation"]),
            noise_sd=_real(d, "noise_sd", 0.0),
            blobs=tuple(
                Blob(_geopoint_from_dict(b), _real(b, "radius_m"),
                     _real(b, "depth_db"))
                for b in d.get("blobs", [])
            ),
            pattern_distortion=(
                _delta_from_dict(d["pattern_distortion"])
                if "pattern_distortion" in d else None
            ),
            seed=_count(d, "seed", 0, default=0),
        )
    except KeyError as exc:
        raise ParseError(f"scene document missing key {exc}") from None


def trajectory_from_dict(d: dict) -> Trajectory:
    """Build a trajectory from its JSON description.

    Every number is checked before it is used: a string or a bool is
    rejected, not converted, and a count must be an integer.
    """
    kind = d.get("kind")
    spacing = _real(d, "sample_spacing_m", 5.0)
    if kind == "lawnmower":
        traj = lawnmower_trajectory(
            _geopoint_from_dict(d["origin"]), _real(d, "width_m"),
            _real(d, "height_m"), d["n_rows"], _real(d, "alt_m"),
            spacing,
        )
    elif kind == "zigzag":
        traj = zigzag_trajectory(
            _geopoint_from_dict(d["origin"]), _real(d, "width_m"),
            _real(d, "height_m"), d["n_legs"], _real(d, "alt_m"),
            spacing,
        )
    elif kind == "ring":
        traj = ring_trajectory(
            _geopoint_from_dict(d["center"]), _real(d, "radius_m"),
            _real(d, "alt_m"), spacing,
        )
    elif kind == "custom":
        traj = custom_trajectory(
            [_geopoint_from_dict(p) for p in d["waypoints"]], spacing,
            _real(d, "alt_m") if "alt_m" in d else None,
        )
    else:
        raise ParseError(f"unknown trajectory kind {kind!r}")
    if "altitudes" in d:
        for alt in d["altitudes"]:
            _check_real("altitudes", alt)
        traj = stack_altitudes(traj, d["altitudes"])
    return traj


def scene_to_json(scene: SceneSpec, path, trajectory_dict: dict = None):
    doc = scene_to_dict(scene)
    if trajectory_dict is not None:
        doc["trajectory"] = trajectory_dict
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def scene_from_json(path):
    with open(path) as fh:
        doc = json.load(fh)
    traj = trajectory_from_dict(doc["trajectory"]) if "trajectory" in doc else None
    return scene_from_dict(doc), traj
