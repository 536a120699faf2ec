"""Gaussian-process regression over the shadow-fading correlation model.

The process kernel is the fitted spatial covariance of the latent
(noise-free) shadow fading; independent measurement noise adds a nugget
on the diagonal.  One global factorization serves every prediction, so
unlike the kriging predictors there is no neighborhood radius.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .errors import (DuplicateLocations, InsufficientData, SingularSystem,
                     TooManyPoints)
from .geo import (GeoPoint, _blocks, _cross_lags, _grid_axes, _grid_lags,
                  _lag_kernel, _target_columns)
from .shadowing import CorrelationModel, SampleSet, empirical_correlation

# a fit holds one n x n float64 kernel, 8 n^2 bytes: 1.15 GB at this bound
MAX_FIT_POINTS = 12_000


@dataclass
class GprModel:
    """Fitted regressor: training set plus kernel factorization.

    ``clamp_events`` counts predictions whose variance had to be clamped
    up to 0; reports surface it.
    """

    train: SampleSet
    corr: CorrelationModel
    sigma_y: float
    sigma_gp: float
    _cho: tuple = field(repr=False, default=None)
    _alpha: np.ndarray = field(repr=False, default=None)
    clamp_events: int = 0

    @property
    def prior_variance(self) -> float:
        return self.sigma_y**2 + self.sigma_gp**2


def _latent_cov(corr: CorrelationModel, sigma_y):
    """Latent covariance as a function of the lags ``(d_h, d_v)``."""
    return lambda d_h, d_v: sigma_y**2 * corr.correlation_at(d_h, d_v)


def gpr_fit(samples, corr: CorrelationModel, sigma_y: float,
            sigma_gp: float) -> GprModel:
    """Factorize the training covariance and precompute the mean solve.

    The n x n kernel is allocated once, filled in column blocks and
    factorized in place, so the fit peaks at about 8 n^2 bytes.

    Args:
        samples: residual samples (list of SfSample or a SampleSet).
        corr: correlation shape of the latent field.
        sigma_y: latent (noise-free) standard deviation, dB.
        sigma_gp: measurement-noise standard deviation, dB.

    Raises:
        DuplicateLocations: coincident samples with ``sigma_gp`` = 0,
            which make the kernel matrix exactly singular.
        InsufficientData: empty training set.
        ValueError: negative standard deviations, or samples, standard
            deviations or correlation parameters that are not finite.
        TooManyPoints: more than ``MAX_FIT_POINTS`` (12,000) samples,
            whose kernel alone would take over 1.15 GB.
    """
    s = SampleSet.from_samples(samples)
    n = len(s)
    if n == 0:
        raise InsufficientData("cannot fit a regressor on zero samples")
    if n > MAX_FIT_POINTS:
        raise TooManyPoints(
            f"{n} samples exceeds the dense GPR bound of {MAX_FIT_POINTS}"
        )
    if sigma_y < 0 or sigma_gp < 0:
        raise ValueError("standard deviations must be >= 0")
    # finite inputs make a finite kernel, so neither LAPACK call scans it
    params = (sigma_y, sigma_gp, corr.a, corr.p1, corr.p2, corr.q)
    if not (np.isfinite(params).all()
            and all(np.isfinite(c).all() for c in (s.lat, s.lon, s.alt, s.z))):
        raise ValueError("samples, sigmas and correlation must be finite")
    if sigma_gp == 0.0:
        _check_duplicates(s)
    k = _lag_kernel(_latent_cov(corr, sigma_y), s.lat, s.lon, s.alt)
    k[np.diag_indices_from(k)] += sigma_gp**2
    try:
        cho = linalg.cho_factor(k, lower=True, overwrite_a=True,
                                check_finite=False)
    except linalg.LinAlgError as exc:
        raise SingularSystem(f"kernel matrix not positive definite: {exc}")
    alpha = linalg.cho_solve(cho, s.z, check_finite=False)
    return GprModel(train=s, corr=corr, sigma_y=float(sigma_y),
                    sigma_gp=float(sigma_gp), _cho=cho, _alpha=alpha)


def _check_duplicates(s: SampleSet):
    order = np.lexsort((s.alt, s.lon, s.lat))
    lat, lon, alt = s.lat[order], s.lon[order], s.alt[order]
    same = (
        (np.diff(lat) == 0.0) & (np.diff(lon) == 0.0) & (np.diff(alt) == 0.0)
    )
    if np.any(same):
        at = int(np.nonzero(same)[0][0])
        raise DuplicateLocations(
            int(s.seq[order[at]]), int(s.seq[order[at + 1]])
        )


def _cross_cov_blocks(model: GprModel, lat, lon, alt):
    """``(block, k0)`` over fixed-size blocks of checked target columns;
    ``k0`` is the latent covariance from every training row to the
    block's targets.  Targets that are the row-major nodes of a grid
    get their lags from per-row and per-column terms, with the same
    bits."""
    t = model.train
    cov_at = _latent_cov(model.corr, model.sigma_y)
    axes = _grid_axes(lat, lon, alt)
    for b in _blocks(lat.size, len(t)):
        if axes is None:
            lags = _cross_lags(t.lat, t.lon, t.alt, lat[b], lon[b], alt[b])
        else:
            lags = _grid_lags(t.lat, t.lon, t.alt, *axes, alt[0], b)
        yield b, cov_at(*lags)


def gpr_predict_mean(model: GprModel, lat, lon, alt) -> np.ndarray:
    """Posterior mean at many targets: :func:`gpr_predict_batch`'s mean,
    bit for bit, without the variance's triangular solve against every
    block of targets, which takes most of that call's time."""
    lat, lon, alt = _target_columns(lat, lon, alt)
    z_hat = np.empty(lat.size)
    for b, k0 in _cross_cov_blocks(model, lat, lon, alt):
        z_hat[b] = k0.T @ model._alpha
    return z_hat


def gpr_predict_batch(model: GprModel, lat, lon, alt):
    """Posterior mean and variance at many targets.

    Returns ``(z_hat, variance)`` arrays.  Variances are clamped at 0;
    clamps increment ``model.clamp_events``.  Targets go in fixed-size
    blocks; :func:`gpr_predict_mean` is the mean without the variance.

    Raises:
        ValueError: target columns that are not 1-D, not of equal
            length or not finite.
    """
    # checked finite once here, so no block's solve scans the n x n factor
    lat, lon, alt = _target_columns(lat, lon, alt)
    z_hat = np.empty(lat.size)
    var = np.empty(lat.size)
    for b, k0 in _cross_cov_blocks(model, lat, lon, alt):
        z_hat[b] = k0.T @ model._alpha
        w = linalg.cho_solve(model._cho, k0, check_finite=False)
        var[b] = model.prior_variance - np.einsum("ij,ij->j", k0, w)
    below = var < 0.0
    if np.any(below):
        model.clamp_events += int(np.count_nonzero(below))
        var = np.where(below, 0.0, var)
    return z_hat, var


def gpr_predict(model: GprModel, target: GeoPoint):
    """Posterior mean and variance at a single location."""
    z, v = gpr_predict_batch(model, target.lat_deg, target.lon_deg, target.alt_m)
    return float(z[0]), float(v[0])


def estimate_hyperparameters(samples, corr: CorrelationModel,
                             dh_edges=None, dv_edges=None):
    """Split total residual variance into latent and noise parts.

    The empirical correlation over the three shortest populated
    horizontal-lag bins is extrapolated linearly to zero lag; the
    shortfall from 1 is read as the noise (nugget) fraction, clamped to
    at most 90% of the total variance so the latent part stays positive.

    Returns:
        ``(sigma_y, sigma_gp)`` in dB.
    """
    s = SampleSet.from_samples(samples)
    if len(s) < 3:
        raise InsufficientData("need at least three samples to split variance")
    table = empirical_correlation(s, dh_edges=dh_edges, dv_edges=dv_edges)
    var_total = table.sigma**2

    col = None
    for j in range(table.value.shape[1]):
        if np.any(table.count[:, j] > 0):
            col = j
            break
    if col is None:
        raise InsufficientData("correlation table is empty")
    rows = np.nonzero(table.count[:, col] > 0)[0][:3]
    r_vals = table.value[rows, col]
    centers = table.dh_centers[rows]
    if len(rows) >= 2:
        slope, intercept = np.polyfit(centers, r_vals, 1)
        r0 = float(intercept)
    else:
        r0 = float(r_vals[0])
    var_gp = np.clip(var_total * (1.0 - r0), 0.0, 0.9 * var_total)
    var_y = var_total - var_gp
    return float(np.sqrt(var_y)), float(np.sqrt(var_gp))
