"""Gaussian-process regression over the shadow-fading correlation model.

The process kernel is the fitted spatial covariance of the latent
(noise-free) shadow fading; independent measurement noise adds a nugget
on the diagonal.  One global factorization serves every prediction, so
unlike the kriging predictors there is no neighborhood radius.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.linalg import blas

from .errors import (DuplicateLocations, InsufficientData, SingularSystem,
                     TooManyPoints)
from .geo import (_blocks, _chunks, _cross_lags, _grid_axes, _grid_lags,
                  _lag_kernel, _target_columns)
from .shadowing import (CorrelationModel, SampleSet, empirical_correlation,
                        transformed_model)

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


def gpr_fit(samples, corr: CorrelationModel, sigma_y: float,
            sigma_gp: float, *, _kernel=None) -> GprModel:
    """Factorize the training covariance and precompute the mean solve.

    The n x n kernel is allocated once, filled in column chunks and
    factorized in place, so the fit peaks at about 8 n^2 bytes; it is
    :func:`_cov_rows` on the samples.  A caller that already holds that
    kernel, or a Fortran-ordered gather of a larger one, passes it as
    ``_kernel`` (n x n); it is overwritten by the factor instead of a
    kernel being built.

    Args:
        samples: residual samples (list of SfSample or a SampleSet).
        corr: correlation shape of the latent field.
        sigma_y: latent (noise-free) standard deviation, dB.
        sigma_gp: measurement-noise standard deviation, dB.

    Raises:
        DuplicateLocations: coincident samples with ``sigma_gp`` = 0,
            which make the kernel matrix exactly singular.
        InsufficientData: empty training set.
        ValueError: negative standard deviations, samples or standard
            deviations that are not finite, or a ``_kernel`` that is
            not n x n.
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
    if not (np.isfinite((sigma_y, sigma_gp)).all()
            and all(np.isfinite(c).all() for c in (s.lat, s.lon, s.alt, s.z))):
        raise ValueError("samples and sigmas must be finite")
    if _kernel is not None and np.shape(_kernel) != (n, n):
        raise ValueError(f"kernel of shape {np.shape(_kernel)} for {n} samples")
    if sigma_gp == 0.0:
        _check_duplicates(s)
    k = (_cov_rows(corr, sigma_y, s.lat, s.lon, s.alt) if _kernel is None
         else _kernel)
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


def _cov_rows(corr: CorrelationModel, sigma_y, lat, lon, alt):
    """Latent covariance among all the points of 1-D columns, as the
    Fortran-ordered n x n kernel of :func:`geo._lag_kernel`.  Its
    transpose ``c``, a C-ordered view, has at ``[i, j]`` the bits of
    :func:`gpr_predict_mean`'s cross-covariance from point i to point j,
    so a fit on rows ``s`` can take ``np.asfortranarray(c[s][:, s])`` as
    its kernel and ``c[s].take(t, axis=1)`` as its cross-covariance to
    targets ``t``."""
    return _lag_kernel(transformed_model(corr, sigma_y).covariance_at,
                       lat, lon, alt)


def _mean(model: GprModel, k0):
    """Posterior mean at the targets of a cross-covariance block."""
    return k0.T @ model._alpha


def _cross_cov_blocks(model: GprModel, lat, lon, alt):
    """``(block, k0)`` over fixed-size blocks of checked target columns;
    ``k0`` is the latent covariance from every training row to the
    block's targets.  Each block's ``k0`` is allocated once and filled
    one :func:`geo._chunks` chunk of training rows at a time, lags and
    then, in place, covariances, so each chunk's passes stay in cache.
    Targets that are the row-major nodes of a grid get their lags from
    per-row and per-column terms, with the same bits."""
    t = model.train
    cov_at = transformed_model(model.corr, model.sigma_y).covariance_at
    axes = _grid_axes(lat, lon, alt)
    for b in _blocks(lat.size, len(t)):
        k0 = np.empty((len(t), b.stop - b.start))
        for c in _chunks(len(t), k0.shape[1]):
            if axes is None:
                lags = _cross_lags(t.lat[c], t.lon[c], t.alt[c],
                                   lat[b], lon[b], alt[b], k0[c])
            else:
                lags = _grid_lags(t.lat[c], t.lon[c], t.alt[c], *axes,
                                  alt[0], b, k0[c])
            cov_at(*lags, k0[c])
        yield b, k0


def gpr_predict_mean(model: GprModel, lat, lon, alt) -> np.ndarray:
    """Posterior mean at many targets: :func:`gpr_predict_batch`'s mean,
    bit for bit, without the variance's triangular solve against every
    block of targets, which takes most of that call's time."""
    lat, lon, alt = _target_columns(lat, lon, alt)
    z_hat = np.empty(lat.size)
    for b, k0 in _cross_cov_blocks(model, lat, lon, alt):
        z_hat[b] = _mean(model, k0)
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
        z_hat[b] = _mean(model, k0)
        # prior - |L^-1 k0|^2 takes one triangular solve: the rows of v
        # solve v L^T = k0^T, and BLAS overwrites the Fortran-ordered
        # k0.T without a copy
        v = blas.dtrsm(1.0, model._cho[0], k0.T, side=1, lower=1,
                       trans_a=1, overwrite_b=1)
        var[b] = model.prior_variance - np.einsum("ij,ij->i", v, v)
    below = var < 0.0
    if np.any(below):
        model.clamp_events += int(np.count_nonzero(below))
        var = np.where(below, 0.0, var)
    return z_hat, var


def estimate_hyperparameters(samples):
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
    return _variance_split(empirical_correlation(s))


def _variance_split(table):
    """:func:`estimate_hyperparameters` from a table of >= 3 samples."""
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
