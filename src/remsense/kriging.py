"""Kriging predictors over the fitted shadow-fading correlation model.

Ordinary kriging solves the semivariogram system with a Lagrange
multiplier enforcing unit weight sum; simple kriging solves the
covariance system around a known mean.  Trans-Gaussian variants run
either solver in normal-score space and back-transform with a
second-order bias correction.

Neighbor selection is a closed ball over horizontal distance; vertical
separation still enters every correlation evaluation.  One engine,
:func:`predict_batch`, kriges a whole set of targets with any variant;
:func:`predict` is that engine at one target.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import ndtri

from .errors import InsufficientData, SingularSystem, _check_real
from .geo import (
    GeoPoint,
    _blocks,
    _cross_lags,
    _lag_kernel,
    _target_columns,
)
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
        _check_real("radius_m", self.radius_m, positive=True)
        _check_real("jitter", self.jitter, positive=False)


@dataclass(frozen=True)
class KrigingPrediction:
    """Prediction record.

    ``mse`` is the kriging variance in dB^2 (normal-score domain for the
    TG variants).  ``fallback`` marks targets with no neighbor in radius,
    for which the residual estimate is 0 with prior variance.  Fields
    hold floats for one target or arrays for a batch
    (:func:`predict_batch`).
    """

    z_hat: float
    mse: float
    neighbors_used: int
    lagrange_mu: Optional[float] = None
    fallback: bool = False


# model values one chunk of a k group gathers at most, G k^2 (2 MB)
_GROUP_ELEMENTS = 1 << 18


def _solve_with_retry(mat: np.ndarray, rhs: np.ndarray, jitter: float,
                      n_data: int, counters: dict = None):
    """Solve, retrying once with a diagonal lift on the data block.

    ``counters``, when given, gains one ``jitter_retries`` per lift.
    """
    try:
        sol = np.linalg.solve(mat, rhs)
        if np.isfinite(sol).all():
            return sol
    except np.linalg.LinAlgError:
        pass
    if counters is not None:
        counters["jitter_retries"] += 1
    lifted = mat.copy()
    lifted[np.arange(n_data), np.arange(n_data)] += jitter
    try:
        sol = np.linalg.solve(lifted, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"kriging system singular even with jitter: {exc}")
    if not np.isfinite(sol).all():
        raise SingularSystem("kriging system produced non-finite weights")
    return sol


def solve_ordinary(gamma_nn: np.ndarray, gamma_t: np.ndarray, jitter: float,
                   _counters: dict = None):
    """Weights and Lagrange multiplier of the ordinary-kriging system."""
    k = gamma_nn.shape[0]
    mat = np.empty((k + 1, k + 1))
    mat[:k, :k] = gamma_nn
    mat[:k, k] = 1.0
    mat[k, :k] = 1.0
    mat[k, k] = 0.0
    rhs = np.empty(k + 1)
    rhs[:k] = gamma_t
    rhs[k] = 1.0
    sol = _solve_with_retry(mat, rhs, jitter, k, _counters)
    return sol[:k], float(sol[k])


def solve_simple(cov_nn: np.ndarray, cov_t: np.ndarray, jitter: float,
                 _counters: dict = None):
    """Weights of the simple-kriging system."""
    k = cov_nn.shape[0]
    return _solve_with_retry(cov_nn, cov_t, jitter, k, _counters)


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
        correction vanishes exactly at sampled locations.  Arrays go
        elementwise, with the bits of one scalar call per element.
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


def _systems(s: SampleSet, model: CorrelationModel, ordinary: bool,
             lat: np.ndarray, lon: np.ndarray, alt: np.ndarray,
             radius_m: float):
    """Kriging systems of the targets that have a sample within ``radius_m``,
    in groups of equal neighbour count k.

    Yields ``(targets, idx, a_nn, a_t)`` per group: ``targets`` (G,)
    indexes the targets, ``idx`` (G, k) each one's neighbours in ``s``,
    by distance with ties broken by ``seq``, ``a_nn`` (G, k, k) the
    model matrix among them and ``a_t`` (G, k) the model vector from
    them to the target.  The model is the semivariogram when
    ``ordinary``, else the covariance.  Each target is in one group.

    The samples are put in ``seq`` order once, and the targets walked in
    :func:`geo._blocks` over the sample count.  Per block, one lag block
    from the targets to the samples gives the neighbours: a stable sort
    of each row's in-radius distances (the rest set to +inf) keeps
    equal distances in ``seq`` order.  The model matrix is built once
    over the union U of the block's neighbours (8|U|^2 bytes, at most
    8n^2 for n samples); each group is gathered out of it by one flat
    ``take``, in chunks of G k^2 <= ``_GROUP_ELEMENTS`` values (2 MB,
    or one system when k^2 is larger), and its ``a_t`` is the model at
    its in-radius lags alone.  Every entry is the value a single-target
    build would give, so a target's system does not depend on the batch
    or the group around it.
    """
    model_at = model.semivariogram_at if ordinary else model.covariance_at
    order = np.argsort(s.seq, kind="stable")
    lat_s, lon_s, alt_s = s.lat[order], s.lon[order], s.alt[order]
    n = len(s)
    for b in _blocks(len(lat), n):
        dh, dv = _cross_lags(lat[b], lon[b], alt[b], lat_s, lon_s, alt_s)
        inside = dh <= radius_m
        k = np.count_nonzero(inside, axis=1)
        kept = np.flatnonzero(k)
        if kept.size == 0:
            continue
        union = np.flatnonzero(inside.any(axis=0))
        n_u = union.size
        at = np.empty(n, dtype=np.intp)
        at[union] = np.arange(n_u)
        # the kernel is exactly symmetric; its transpose is C-ordered,
        # so it ravels without a copy
        a_uu = _lag_kernel(model_at, lat_s[union], lon_s[union],
                           alt_s[union]).T.ravel()
        near = np.argsort(np.where(inside, dh, np.inf), axis=1,
                          kind="stable")
        by_k = kept[np.argsort(k[kept], kind="stable")]
        for rows in np.split(by_k, np.flatnonzero(np.diff(k[by_k])) + 1):
            kk = int(k[rows[0]])
            step = max(1, _GROUP_ELEMENTS // (kk * kk))
            for c in range(0, rows.size, step):
                chunk = rows[c:c + step]
                cols = near[chunk, :kk]
                p = at[cols]
                flat = chunk[:, None] * n + cols
                yield (b.start + chunk, order[cols],
                       a_uu.take(p[:, :, None] * n_u + p[:, None, :]),
                       model_at(dh.take(flat), dv.take(flat)))


def predict_batch(samples, model: CorrelationModel, lat, lon, alt,
                  cfg: KrigingConfig, transform: NormalScoreTransform = None,
                  model_u: CorrelationModel = None) -> KrigingPrediction:
    """Variant dispatcher over target columns, with the no-neighbor fallback.

    ``lat``, ``lon`` and ``alt`` are equal-length target columns (a
    scalar is one target).  Each target is kriged from the samples
    within ``cfg.radius_m`` of it, ordered by distance with ties broken
    by ``seq``.  OK and TG_OK solve the semivariogram
    system with a Lagrange multiplier, SK and TG_SK the covariance
    system around a known mean.  The TG variants krige the neighbours'
    normal scores around ``transform.mean_u`` with ``model_u`` (or
    ``model`` without one) and back-transform the estimates; OK and SK
    krige the residuals around ``cfg.mean_z``.
    Targets with an empty neighborhood fall back to the deterministic
    model alone (residual 0, the kriged model's prior variance) and are
    flagged.

    The systems come from :func:`_systems` in groups of equal
    neighbour count, gathered out of a per-block model matrix in chunks
    of at most 2 MB, so a target's result does not depend on the batch
    around it.  Each system is still solved by its own
    :func:`solve_ordinary` or :func:`solve_simple` call, and its
    estimate written with ``@``.

    Returns:
        A :class:`KrigingPrediction` of per-target arrays.
        ``lagrange_mu`` is None for the simple-kriging variants and NaN
        at fallback targets.  Each target's values are those of
        :func:`predict` at that target, bit for bit.

    Raises:
        ValueError: an unknown variant, a TG variant without a
            ``transform``, or bad target columns.
    """
    if cfg.variant not in ("OK", "SK", "TG_OK", "TG_SK"):
        raise ValueError(f"unknown kriging variant {cfg.variant!r}")
    if not cfg.variant.startswith("TG_"):
        transform = None
    elif transform is None:
        raise ValueError("TG variants need a normal-score transform")
    else:
        model = model_u or model
    ordinary = cfg.variant in ("OK", "TG_OK")
    s = SampleSet.from_samples(samples)
    lat, lon, alt = _target_columns(lat, lon, alt)
    n_t = len(lat)
    z_hat = np.zeros(n_t)
    mse = np.full(n_t, model.sigma_z**2)
    used = np.zeros(n_t, dtype=int)
    mu = np.full(n_t, np.nan) if ordinary else None
    values = s.z
    mean = cfg.mean_z
    if transform is not None:
        values = np.asarray(transform.forward(values), dtype=float)
        mean = transform.mean_u
    for targets, idx, a_nn, a_t in _systems(s, model, ordinary, lat, lon,
                                            alt, cfg.radius_m):
        nb = values[idx] if ordinary else values[idx] - mean
        for t, g_nn, g_t, g_nb in zip(targets, a_nn, a_t, nb):
            if ordinary:
                w, mu[t] = solve_ordinary(g_nn, g_t, cfg.jitter)
                z_hat[t] = w @ g_nb
                mse[t] = max(float(w @ g_t + mu[t]), 0.0)
            else:
                w = solve_simple(g_nn, g_t, cfg.jitter)
                z_hat[t] = mean + w @ g_nb
                mse[t] = max(float(model.sigma_z**2 - w @ g_t), 0.0)
        used[targets] = idx.shape[1]
    fallback = used == 0
    if transform is not None:
        kriged = ~fallback
        z_hat[kriged] = transform.back_transform(
            z_hat[kriged], mse[kriged], mu[kriged] if ordinary else 0.0)
    return KrigingPrediction(z_hat=z_hat, mse=mse, neighbors_used=used,
                             lagrange_mu=mu, fallback=fallback)


def predict(samples, model: CorrelationModel, target: GeoPoint,
            cfg: KrigingConfig, transform: NormalScoreTransform = None,
            model_u: CorrelationModel = None) -> KrigingPrediction:
    """:func:`predict_batch` at one target, as a record of floats.

    Targets with an empty neighborhood fall back to the deterministic
    model alone (residual 0, prior variance) and are flagged.
    """
    out = predict_batch(samples, model, target.lat_deg, target.lon_deg,
                        target.alt_m, cfg, transform=transform,
                        model_u=model_u)
    fallback = bool(out.fallback[0])
    return KrigingPrediction(
        z_hat=float(out.z_hat[0]),
        mse=float(out.mse[0]),
        neighbors_used=int(out.neighbors_used[0]),
        lagrange_mu=(None if out.lagrange_mu is None or fallback
                     else float(out.lagrange_mu[0])),
        fallback=fallback,
    )
