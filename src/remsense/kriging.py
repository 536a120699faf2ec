"""Kriging predictors over the fitted shadow-fading correlation model.

Ordinary kriging solves the semivariogram system with a Lagrange
multiplier enforcing unit weight sum; simple kriging solves the
covariance system around a known mean.  Trans-Gaussian variants run
either solver in normal-score space and back-transform with a
second-order bias correction.

Neighbor selection is a closed ball over horizontal distance; vertical
separation still enters every correlation evaluation.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import ndtri

from .errors import InsufficientData, NoNeighbors, SingularSystem
from .geo import GeoPoint, _cross_lags, _lags
from .shadowing import CorrelationModel, SampleSet


@dataclass(frozen=True)
class KrigingConfig:
    """Prediction settings.

    Attributes:
        radius_m: neighbor-selection radius over horizontal distance.
        variant: "OK", "SK", "TG_OK" or "TG_SK".
        mean_z: known mean for simple kriging, dB.
        jitter: diagonal lift applied once when a system is singular.
    """

    radius_m: float
    variant: str = "OK"
    mean_z: float = 0.0
    jitter: float = 1e-6

    def __post_init__(self):
        if not self.radius_m > 0.0:
            raise ValueError(f"radius_m must be positive, got {self.radius_m}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")


@dataclass(frozen=True)
class KrigingPrediction:
    """Prediction record.

    ``mse`` is the kriging variance in dB^2 (normal-score domain for the
    TG variants).  ``fallback`` marks targets with no neighbor in radius,
    for which the residual estimate is 0 with prior variance.
    """

    z_hat: float
    mse: float
    neighbors_used: int
    lagrange_mu: Optional[float] = None
    fallback: bool = False


def select_neighbors(samples, target: GeoPoint, radius_m: float) -> np.ndarray:
    """Indices of samples within ``radius_m`` horizontal distance.

    The ball is closed; results are ordered by distance with ties broken
    by ``seq``.

    Raises:
        NoNeighbors: when the ball is empty.
    """
    s = SampleSet.from_samples(samples)
    d, _ = _lags(s.lat, s.lon, s.alt, target.lat_deg, target.lon_deg,
                 target.alt_m)
    idx = np.nonzero(d <= radius_m)[0]
    if idx.size == 0:
        raise NoNeighbors(f"no sample within {radius_m} m of the target")
    order = np.lexsort((s.seq[idx], d[idx]))
    return idx[order]


def _solve_with_retry(mat: np.ndarray, rhs: np.ndarray, jitter: float,
                      n_data: int):
    """Solve, retrying once with a diagonal lift on the data block."""
    try:
        sol = np.linalg.solve(mat, rhs)
        if np.all(np.isfinite(sol)):
            return sol
    except np.linalg.LinAlgError:
        pass
    lifted = mat.copy()
    lifted[np.arange(n_data), np.arange(n_data)] += jitter
    try:
        sol = np.linalg.solve(lifted, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"kriging system singular even with jitter: {exc}")
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("kriging system produced non-finite weights")
    return sol


def solve_ordinary(gamma_nn: np.ndarray, gamma_t: np.ndarray, jitter: float):
    """Weights and Lagrange multiplier of the ordinary-kriging system."""
    k = gamma_nn.shape[0]
    mat = np.empty((k + 1, k + 1))
    mat[:k, :k] = gamma_nn
    mat[:k, k] = 1.0
    mat[k, :k] = 1.0
    mat[k, k] = 0.0
    rhs = np.concatenate([gamma_t, [1.0]])
    sol = _solve_with_retry(mat, rhs, jitter, k)
    return sol[:k], float(sol[k])


def solve_simple(cov_nn: np.ndarray, cov_t: np.ndarray, jitter: float):
    """Weights of the simple-kriging system."""
    k = cov_nn.shape[0]
    return _solve_with_retry(cov_nn, cov_t, jitter, k)


class NormalScoreTransform:
    """Empirical normal-score transform with a smooth monotone inverse.

    ``forward`` maps data values through the empirical CDF (Hazen
    plotting positions) onto standard-normal quantiles; ``inverse`` is a
    monotone piecewise-cubic through the (quantile, value) nodes.  Both
    directions extrapolate linearly beyond the data with the end-node
    slopes, and they invert each other exactly at the nodes.

    ``mean_u`` is the mean of the transformed sample (zero up to tie
    effects, by the symmetry of the plotting positions); the bias
    corrections of the trans-Gaussian predictors evaluate the inverse
    map's curvature there.
    """

    def __init__(self, z_nodes: np.ndarray, u_nodes: np.ndarray,
                 mean_u: float = None):
        self.z_nodes = z_nodes
        self.u_nodes = u_nodes
        self.mean_u = float(np.mean(u_nodes)) if mean_u is None else mean_u
        self._fwd = PchipInterpolator(z_nodes, u_nodes, extrapolate=False)
        self._inv = PchipInterpolator(u_nodes, z_nodes, extrapolate=False)
        self._fwd_slopes = (
            float(self._fwd.derivative()(z_nodes[0])),
            float(self._fwd.derivative()(z_nodes[-1])),
        )
        self._inv_slopes = (
            float(self._inv.derivative()(u_nodes[0])),
            float(self._inv.derivative()(u_nodes[-1])),
        )
        # curvature must come from a smooth fit: the raw interpolant's
        # second derivative is dominated by order-statistic noise at the
        # node scale (it grows with n), which would swamp the bias term
        deg = 3 if len(z_nodes) >= 4 else 1
        self._smooth_inv = np.polynomial.Polynomial.fit(
            u_nodes, z_nodes, deg
        )
        self._phi2 = self.inverse_second_derivative(self.mean_u)

    @staticmethod
    def _eval(interp, x_nodes, y_nodes, slopes, q):
        q = np.asarray(q, dtype=float)
        out = interp(q)
        lo = q < x_nodes[0]
        hi = q > x_nodes[-1]
        if np.any(lo):
            out = np.where(lo, y_nodes[0] + slopes[0] * (q - x_nodes[0]), out)
        if np.any(hi):
            out = np.where(hi, y_nodes[-1] + slopes[1] * (q - x_nodes[-1]), out)
        return out

    def forward(self, z):
        """Data value(s) to normal scores."""
        out = self._eval(self._fwd, self.z_nodes, self.u_nodes,
                         self._fwd_slopes, z)
        return float(out) if np.isscalar(z) else out

    def inverse(self, u):
        """Normal score(s) back to data values."""
        out = self._eval(self._inv, self.u_nodes, self.z_nodes,
                         self._inv_slopes, u)
        return float(out) if np.isscalar(u) else out

    def inverse_second_derivative(self, u: float, step: float = 1e-3) -> float:
        """Central-difference curvature of the smoothed inverse map."""
        f = self._smooth_inv
        return float((f(u + step) - 2.0 * f(u) + f(u - step)) / step**2)

    def back_transform(self, u_hat: float, mse_u: float,
                       mu: float = 0.0) -> float:
        """Kriged normal score back to data units, bias-corrected.

        Adds the second-order correction ``phi''(mean_u) (mse_u / 2 - mu)``
        for score-domain kriging variance ``mse_u`` and ordinary-kriging
        Lagrange multiplier ``mu``.  Simple kriging has ``mu = 0``: there
        ``mse_u`` is both the SK variance and Var U0 - Var u_hat, so the
        correction vanishes exactly at sampled locations.
        """
        return self.inverse(u_hat) + self._phi2 * (mse_u / 2.0 - mu)


def normal_score(sf) -> NormalScoreTransform:
    """Build the normal-score transform from residual samples.

    Ties are collapsed by averaging their quantile positions so the node
    set stays strictly monotone.

    Raises:
        InsufficientData: fewer than 20 samples.
    """
    s = SampleSet.from_samples(sf)
    n = len(s)
    if n < 20:
        raise InsufficientData(
            f"normal-score transform needs >= 20 samples, got {n}"
        )
    z_sorted = np.sort(s.z)
    u = ndtri((np.arange(1, n + 1) - 0.5) / n)
    z_nodes, inverse_idx = np.unique(z_sorted, return_inverse=True)
    if len(z_nodes) < n:
        u_nodes = np.bincount(inverse_idx, weights=u) / np.bincount(inverse_idx)
    else:
        u_nodes = u
    if len(z_nodes) < 2:
        raise InsufficientData("residuals are constant; transform undefined")
    return NormalScoreTransform(z_nodes, u_nodes, mean_u=float(np.mean(u)))


def _krige(samples, model: CorrelationModel, target: GeoPoint,
           cfg: KrigingConfig, ordinary: bool,
           transform: NormalScoreTransform = None) -> KrigingPrediction:
    """One target's estimate and variance, for every variant.

    ``ordinary`` picks the semivariogram system with a Lagrange
    multiplier over the covariance system around a known mean.  With a
    ``transform`` the neighbours' normal scores are kriged around
    ``transform.mean_u`` and the estimate is back-transformed; without
    one the residuals are kriged around ``cfg.mean_z``.
    """
    s = SampleSet.from_samples(samples)
    idx = select_neighbors(s, target, cfg.radius_m)
    nb = s[idx]
    dh_nn, dv_nn = _cross_lags(nb.lat, nb.lon, nb.alt, nb.lat, nb.lon, nb.alt)
    dh_t, dv_t = _lags(nb.lat, nb.lon, nb.alt, target.lat_deg, target.lon_deg,
                       target.alt_m)
    values = nb.z
    mean = cfg.mean_z
    if transform is not None:
        values = np.asarray(transform.forward(values), dtype=float)
        mean = transform.mean_u
    mu = None
    if ordinary:
        gamma_nn = model.semivariogram_at(dh_nn, dv_nn)
        gamma_t = model.semivariogram_at(dh_t, dv_t)
        w, mu = solve_ordinary(gamma_nn, gamma_t, cfg.jitter)
        z_hat = float(w @ values)
        mse = max(float(w @ gamma_t + mu), 0.0)
    else:
        cov_nn = model.covariance_at(dh_nn, dv_nn)
        cov_t = model.covariance_at(dh_t, dv_t)
        w = solve_simple(cov_nn, cov_t, cfg.jitter)
        z_hat = float(mean + w @ (values - mean))
        mse = max(float(model.sigma_z**2 - w @ cov_t), 0.0)
    if transform is not None:
        z_hat = transform.back_transform(
            z_hat, mse, 0.0 if mu is None else mu)
    return KrigingPrediction(
        z_hat=z_hat, mse=mse, neighbors_used=len(idx), lagrange_mu=mu
    )


def ok_predict(samples, model: CorrelationModel, target: GeoPoint,
               cfg: KrigingConfig) -> KrigingPrediction:
    """Ordinary-kriging estimate of the residual at ``target``."""
    return _krige(samples, model, target, cfg, ordinary=True)


def sk_predict(samples, model: CorrelationModel, target: GeoPoint,
               cfg: KrigingConfig) -> KrigingPrediction:
    """Simple-kriging estimate around the known mean ``cfg.mean_z``."""
    return _krige(samples, model, target, cfg, ordinary=False)


def tg_predict(samples, model_u: CorrelationModel, target: GeoPoint,
               cfg: KrigingConfig,
               transform: NormalScoreTransform) -> KrigingPrediction:
    """Trans-Gaussian kriging: krige normal scores, back-transform.

    The score field has mean ``transform.mean_u`` and the variance of
    ``model_u`` (near (0, 1) by construction); the bias correction uses
    the inverse map's curvature at that global mean.  The returned
    ``mse`` is the kriging variance in the normal-score domain.
    """
    if cfg.variant not in ("TG_OK", "TG_SK"):
        raise ValueError(f"tg_predict called with variant {cfg.variant!r}")
    return _krige(samples, model_u, target, cfg, cfg.variant == "TG_OK",
                  transform)


def predict(samples, model: CorrelationModel, target: GeoPoint,
            cfg: KrigingConfig, transform: NormalScoreTransform = None,
            model_u: CorrelationModel = None) -> KrigingPrediction:
    """Variant dispatcher with the no-neighbor fallback.

    Targets with an empty neighborhood fall back to the deterministic
    model alone (residual 0, prior variance) and are flagged.
    """
    if cfg.variant not in ("OK", "SK", "TG_OK", "TG_SK"):
        raise ValueError(f"unknown kriging variant {cfg.variant!r}")
    trans_gaussian = cfg.variant.startswith("TG_")
    if trans_gaussian and transform is None:
        raise ValueError("TG variants need a normal-score transform")
    kriged = (model_u or model) if trans_gaussian else model
    try:
        return _krige(samples, kriged, target, cfg,
                      cfg.variant in ("OK", "TG_OK"),
                      transform if trans_gaussian else None)
    except NoNeighbors:
        return KrigingPrediction(
            z_hat=0.0,
            mse=kriged.sigma_z**2,
            neighbors_used=0,
            fallback=True,
        )
