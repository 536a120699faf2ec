"""Low-rank completion pipeline for deep-shadow-aware field recovery.

A regular grid is laid over the sampled area and filled with posterior
means and standard deviations from the global regressor.  Constrained
nuclear-norm minimization then finds the smoothest (lowest effective
rank) surface that stays within a per-cell confidence band of the
regressor output; cells the smooth surface cannot explain are treated
as deep shadow, widened by a signed grayscale dilation, and added back
before interpolation off the grid.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.interpolate import RectBivariateSpline

from .errors import DegenerateExtent, RangeError
from .geo import GeoPoint, from_local_xy, to_local_xy
from .gpr import GprModel, gpr_predict_batch
from .shadowing import SampleSet


@dataclass(frozen=True)
class GridSpec:
    """Regular grid on the local tangent plane.

    Row index runs north from ``origin``; column index runs east.
    ``alt_m`` is the altitude grid nodes are evaluated at.
    """

    origin: GeoPoint
    spacing_m: float
    n_rows: int
    n_cols: int
    alt_m: float

    def __post_init__(self):
        _check_real(self, "spacing_m", positive=True)
        if not np.isfinite(self.alt_m):
            raise RangeError(f"alt_m must be finite, got {self.alt_m!r}")
        _check_int(self, "n_rows", 1)
        _check_int(self, "n_cols", 1)

    def node_latlon(self):
        """Mesh of node coordinates, each shaped (n_rows, n_cols)."""
        y = np.arange(self.n_rows) * self.spacing_m
        x = np.arange(self.n_cols) * self.spacing_m
        xx, yy = np.meshgrid(x, y)
        return from_local_xy(xx, yy, self.origin)


@dataclass
class ShadowGrid:
    """Regressor output on a grid: means ``z`` and standard deviations."""

    spec: GridSpec
    z: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class McConfig:
    """Completion settings.

    Attributes:
        alpha: confidence-band width in standard deviations.
        t_v: deep-shadow threshold in dB.
        t_lambda: bisection convergence width on the nuclear-norm bound.
        dilation_radius: half-width of the dilation window in cells.
        max_bisection_iters: hard stop for the bisection.
        grid_spacing_m: cell size used when a grid is built implicitly.
    """

    alpha: float = 1.0
    t_v: float = 1.0
    t_lambda: float = 20.0
    dilation_radius: int = 1
    max_bisection_iters: int = 60
    grid_spacing_m: float = 5.0

    def __post_init__(self):
        _check_real(self, "alpha", positive=False)
        _check_real(self, "t_v", positive=False)
        _check_real(self, "t_lambda", positive=True)
        _check_real(self, "grid_spacing_m", positive=True)
        _check_int(self, "dilation_radius", 0)
        _check_int(self, "max_bisection_iters", 1)


def _check_real(obj, name, positive):
    """Raise RangeError unless field ``name`` is finite and > 0
    (``positive``) or >= 0."""
    v = getattr(obj, name)
    if not (np.isfinite(v) and (v > 0 if positive else v >= 0)):
        raise RangeError(f"{name} must be finite and "
                         f"{'> 0' if positive else '>= 0'}, got {v!r}")


def _check_int(obj, name, low):
    """Raise RangeError unless field ``name`` is an integer >= ``low``."""
    v = getattr(obj, name)
    if (isinstance(v, bool) or not isinstance(v, (int, np.integer))
            or v < low):
        raise RangeError(f"{name} must be an integer >= {low}, got {v!r}")


def build_grid(samples, spacing_m: float = 5.0) -> GridSpec:
    """Axis-aligned grid covering the samples' bounding box.

    Raises:
        RangeError: if ``spacing_m`` is not positive.
        DegenerateExtent: if the samples span less than one cell in
            either horizontal direction.
    """
    if not spacing_m > 0:
        raise RangeError(f"grid spacing must be positive, got {spacing_m}")
    s = SampleSet.from_samples(samples)
    origin = GeoPoint(float(np.min(s.lat)), float(np.min(s.lon)),
                      float(np.mean(s.alt)))
    x, y = to_local_xy(s.lat, s.lon, origin)
    ext_x = float(np.max(x))
    ext_y = float(np.max(y))
    if ext_x < spacing_m or ext_y < spacing_m:
        raise DegenerateExtent(
            f"samples span {ext_x:.1f} x {ext_y:.1f} m; need at least one "
            f"{spacing_m} m cell in each direction"
        )
    # inclusive endpoints; tiny negative fuzz keeps exact multiples exact
    n_cols = int(np.ceil(ext_x / spacing_m - 1e-9)) + 1
    n_rows = int(np.ceil(ext_y / spacing_m - 1e-9)) + 1
    return GridSpec(origin=origin, spacing_m=float(spacing_m),
                    n_rows=n_rows, n_cols=n_cols, alt_m=float(np.mean(s.alt)))


def gpr_to_grid(model: GprModel, spec: GridSpec) -> ShadowGrid:
    """Posterior mean and standard deviation at every grid node."""
    lat, lon = spec.node_latlon()
    alt = np.full(lat.size, spec.alt_m)
    z, var = gpr_predict_batch(model, lat.ravel(), lon.ravel(), alt)
    return ShadowGrid(
        spec=spec,
        z=z.reshape(spec.n_rows, spec.n_cols),
        sigma=np.sqrt(var).reshape(spec.n_rows, spec.n_cols),
    )


def nuclear_norm_project(m: np.ndarray, bound: float) -> np.ndarray:
    """Euclidean projection of ``m`` onto the nuclear-norm ball.

    Singular values are soft-thresholded by the water-filling level
    that makes them sum to ``bound``; matrices already inside the ball
    are returned unchanged.
    """
    if bound < 0:
        raise ValueError("nuclear-norm bound must be >= 0")
    return _project_svd(m, np.linalg.svd(m, full_matrices=False), bound)


def _project_svd(m: np.ndarray, svd, bound: float) -> np.ndarray:
    """:func:`nuclear_norm_project` of ``m`` given its thin SVD."""
    u, s, vt = svd
    total = float(s.sum())
    if total <= bound:
        return m.copy()
    # largest k with s_k above the water level (s is descending)
    k = np.arange(1, len(s) + 1)
    levels = (np.cumsum(s) - bound) / k
    hits = np.nonzero(s - levels > 0)[0]
    if hits.size == 0:
        return np.zeros_like(m)
    k_star = int(hits[-1]) + 1
    t = (np.cumsum(s)[k_star - 1] - bound) / k_star
    s_new = np.maximum(s - t, 0.0)
    return (u * s_new) @ vt


@dataclass
class McResult:
    """Outcome of the constrained nuclear-norm search."""

    z_mc: np.ndarray
    bound: float
    iterations: int
    converged: bool


def nuclear_norm_min(grid: ShadowGrid, cfg: McConfig) -> McResult:
    """Lowest-nuclear-norm surface inside the per-cell confidence band.

    Bisects the norm bound between 0 and the norm of the input surface,
    projecting the input at each candidate bound and testing the
    elementwise band |out - z| <= alpha * sigma.  The search ends once a
    feasible projection is found and the bound has stopped moving by
    more than ``t_lambda``; it always returns the last (tightest)
    feasible iterate, so the band constraint holds on every output.
    The input itself is feasible, which guarantees a valid return even
    when the band has zero width.

    The input's thin SVD is taken once and every step soft-thresholds
    its singular values, which gives the bits of calling
    :func:`nuclear_norm_project` at each step.  The starting bound
    stays ``np.linalg.norm(z, "nuc")``: that values-only SVD can differ
    from the thin SVD's singular-value sum in the last bit.
    """
    z = grid.z
    tol = cfg.alpha * grid.sigma
    svd = np.linalg.svd(z, full_matrices=False)
    lam_max = float(np.linalg.norm(z, ord="nuc"))
    lam_min = 0.0
    lam = lam_max
    best = z.copy()
    converged = False
    iters = 0
    while iters < cfg.max_bisection_iters:
        lam_old = lam
        lam = 0.5 * (lam_min + lam_max)
        candidate = _project_svd(z, svd, lam)
        feasible = bool(np.all(np.abs(candidate - z) <= tol))
        if feasible:
            lam_max = lam
            best = candidate
        else:
            lam_min = lam
        iters += 1
        if feasible and abs(lam - lam_old) <= cfg.t_lambda:
            converged = True
            break
    return McResult(z_mc=best, bound=lam, iterations=iters, converged=converged)


def decompose_deep_shadow(z: np.ndarray, z_mc: np.ndarray, t_v: float):
    """Split the field into a smooth part and thresholded deep shadow.

    Cells where the completion residual exceeds ``t_v`` in magnitude are
    carved out as deep shadow; by construction
    ``z_smooth + z_ds == z`` exactly.
    """
    delta = z - z_mc
    z_ds = np.where(np.abs(delta) > t_v, delta, 0.0)
    z_smooth = z - z_ds
    return z_smooth, z_ds


def dilate_deep_shadow(z_ds: np.ndarray, radius: int = 1) -> np.ndarray:
    """Signed grayscale dilation with a (2r+1)^2 window.

    Positive and negative parts are dilated separately on magnitude;
    where the windows overlap the larger magnitude wins and exact ties
    go negative (shadow dominates).  Cells beyond the border count as 0.
    """
    if radius < 0:
        raise ValueError("dilation radius must be >= 0")
    if radius == 0:
        return z_ds.copy()
    size = 2 * radius + 1
    pos = ndimage.maximum_filter(np.maximum(z_ds, 0.0), size=size,
                                 mode="constant", cval=0.0)
    neg = ndimage.maximum_filter(np.maximum(-z_ds, 0.0), size=size,
                                 mode="constant", cval=0.0)
    return np.where(neg >= pos, -neg, pos)


def _check_one_altitude(alt):
    """Raise RangeError unless ``alt`` holds a single altitude."""
    alts = np.unique(alt)
    if alts.size > 1:
        raise RangeError(
            f"MC_GPR maps one altitude layer; the samples span {alts.size} "
            f"altitudes ({alts[0]:g} to {alts[-1]:g} m)"
        )


class McAssistedGpr:
    """Completion-assisted field: grid pipeline plus off-grid spline.

    Runs the full pipeline once at construction; ``predict`` then
    evaluates a bicubic interpolant of the recombined grid, clamping
    queries outside the grid to the nearest edge.  The grid is one
    horizontal layer, so the model's samples must share one altitude.

    Raises:
        RangeError: the model's samples span more than one altitude.
        DegenerateExtent: a grid of fewer than 2 rows or columns, which
            the bicubic interpolant cannot span.
    """

    def __init__(self, model: GprModel, cfg: McConfig, spec: GridSpec = None):
        _check_one_altitude(model.train.alt)
        if spec is None:
            spec = build_grid(model.train, cfg.grid_spacing_m)
        if spec.n_rows < 2 or spec.n_cols < 2:
            raise DegenerateExtent(
                f"a {spec.n_rows} x {spec.n_cols} grid; the interpolant "
                "needs at least 2 rows and 2 columns"
            )
        self.cfg = cfg
        self.grid = gpr_to_grid(model, spec)
        self.mc = nuclear_norm_min(self.grid, cfg)
        self.z_smooth, self.z_ds = decompose_deep_shadow(
            self.grid.z, self.mc.z_mc, cfg.t_v
        )
        self.z_ds_dilated = dilate_deep_shadow(self.z_ds, cfg.dilation_radius)
        self.combined = self.z_smooth + self.z_ds_dilated
        y = np.arange(spec.n_rows) * spec.spacing_m
        x = np.arange(spec.n_cols) * spec.spacing_m
        self._spline = RectBivariateSpline(
            y, x, self.combined,
            kx=min(3, spec.n_rows - 1), ky=min(3, spec.n_cols - 1), s=0,
        )
        self._extent = (float(y[-1]), float(x[-1]))

    def predict(self, lat, lon):
        """Interpolated residual at the given coordinates (dB)."""
        scalar = np.isscalar(lat)
        x, y = to_local_xy(np.atleast_1d(lat), np.atleast_1d(lon),
                           self.grid.spec.origin)
        y = np.clip(y, 0.0, self._extent[0])
        x = np.clip(x, 0.0, self._extent[1])
        out = self._spline.ev(y, x)
        return float(out[0]) if scalar else out


def mc_assisted_predict(samples, model: GprModel, cfg: McConfig,
                        target: GeoPoint) -> float:
    """One-shot convenience wrapper around :class:`McAssistedGpr`.

    The grid pipeline is rebuilt on every call; hold an
    :class:`McAssistedGpr` instead when predicting at many targets.
    ``samples`` only seeds the grid extent and may be None to use the
    model's training set.
    """
    spec = build_grid(samples, cfg.grid_spacing_m) if samples is not None else None
    pipeline = McAssistedGpr(model, cfg, spec)
    return pipeline.predict(target.lat_deg, target.lon_deg)


def dump_matrices(pipeline: McAssistedGpr, directory):
    """Write the pipeline's grid stages as CSV matrices.

    Files: ``grid_z.csv``, ``grid_sigma.csv``, ``grid_z_mc.csv`` and
    ``grid_z_ds.csv``, one grid row per line.
    """
    import os

    names = {
        "grid_z.csv": pipeline.grid.z,
        "grid_sigma.csv": pipeline.grid.sigma,
        "grid_z_mc.csv": pipeline.mc.z_mc,
        "grid_z_ds.csv": pipeline.z_ds,
    }
    paths = []
    for name, matrix in names.items():
        path = os.path.join(directory, name)
        np.savetxt(path, matrix, delimiter=",")
        paths.append(path)
    return paths
