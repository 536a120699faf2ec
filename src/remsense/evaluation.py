"""Monte-Carlo sparse-sampling evaluation of reconstruction methods.

Each iteration draws M measurement locations uniformly without
replacement from the test campaign, reconstructs the field at the
remaining n - M locations, and scores RMSE in dB against the measured
values there.  The median over iterations is the headline number.
Model fitting (correlation, variance split, normal-score transform,
gain calibration) only ever sees the training campaign; the test
campaign contributes the M sampled inputs per iteration plus the
held-out values at scoring time, nothing else.

An evaluation is three stages: ``_load`` reads, orders and checks both
campaigns, computes the gain correction and predicts each test row's
power; ``_fit`` fits the residual model and the GPR table; ``_run``
makes the draws, serially, each on an RNG stream derived from (seed,
index), and writes the report.  :func:`sweep` reuses the stages its
axis leaves unchanged: ``M`` and ``R`` load and fit once, ``method``
loads once and shares the first raw-domain correlation fit, and
``altitude_campaign`` runs all three per value.
"""

import csv
import os
import warnings
from dataclasses import InitVar, dataclass, field, replace
from typing import Optional

import numpy as np

from .calibration import (
    _bin_axes,
    _check_min_support,
    delta_gain,
    estimate_a_uav,
    estimate_effective_pattern,
)
from .completion import McAssistedGpr, McConfig, _check_one_altitude
from .errors import (
    FitDiverged,
    InsufficientData,
    ParseError,
    RangeError,
    _check_int,
    _check_real,
    _read_csv_rows,
)
from .geo import _BLOCK_ELEMENTS, GeoPoint, _check_location
from .gpr import (
    _cov_rows,
    _mean,
    _variance_split,
    estimate_hyperparameters,
    gpr_fit,
    gpr_predict_mean,
)
from .kriging import (
    KrigingConfig,
    NormalScoreTransform,
    _systems,
    normal_score,
    predict_batch,
    solve_ordinary,
    solve_simple,
)
from .propagation import PropagationConfig
from .scenes import MEASUREMENT_CSV_HEADER
from .shadowing import (
    Campaign,
    CorrelationModel,
    SampleSet,
    _predicted_power,
    empirical_correlation,
    extract_sf,
    fit_correlation_model,
    transformed_model,
)

METHODS = ("TRPL_only", "OK", "SK", "TG_OK", "TG_SK", "GPR", "MC_GPR")
ELEVATION_BIN_DEG = 10.0
ELEVATION_BIN_COUNT = 9  # centers 5, 15, ..., 85 degrees
# values in the GPR covariance table of a test campaign: n <= 2896 rows
_COV_TABLE_ELEMENTS = 8 * _BLOCK_ELEMENTS


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation protocol settings.

    ``train_campaign`` / ``test_campaign`` may be CSV paths or in-memory
    measurement lists.  ``corr_model`` / ``sigma_split`` / ``delta``
    override the train-campaign fits when supplied; otherwise everything
    a method needs is fitted from the training campaign.  ``workers`` is
    an init-only keyword kept so that existing calls keep working:
    iterations run serially, so passing it only emits a
    ``FutureWarning``, and it is neither stored nor echoed.
    """

    gs: GeoPoint
    prop: PropagationConfig
    test_campaign: object
    method: str = "OK"
    calibrated: bool = False
    m_samples: int = 100
    radius_m: float = 200.0
    iterations: int = 5000
    seed: int = 0
    train_campaign: object = None
    workers: InitVar[Optional[int]] = None
    jitter: float = 1e-6
    mean_z: Optional[float] = None
    corr_model: Optional[CorrelationModel] = None
    sigma_split: Optional[tuple] = None
    delta: object = None
    calibration_bin_deg: float = 5.0
    calibration_min_support: int = 25
    mc: McConfig = field(default_factory=McConfig)

    def __post_init__(self, workers):
        if workers is not None:
            warnings.warn("EvalConfig(workers=...) has no effect and will be "
                          "removed: iterations run serially",
                          FutureWarning, stacklevel=3)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        # RangeError, a ValueError: caught before any campaign is read
        _check_int("m_samples", self.m_samples, 1)
        _check_int("iterations", self.iterations, 1)
        _check_int("seed", self.seed, 0)
        _check_real("radius_m", self.radius_m, positive=True)
        _check_real("jitter", self.jitter, positive=False)
        if self.mean_z is not None:
            _check_real("mean_z", self.mean_z)
        if self.sigma_split is not None:
            split = self.sigma_split
            if (not isinstance(split, (list, tuple, np.ndarray))
                    or len(split) != 2):
                raise RangeError(
                    f"sigma_split must hold two reals, got {split!r}")
            for v in split:
                _check_real("sigma_split", v, positive=False)
            # frozen: store the checked pair as floats
            object.__setattr__(self, "sigma_split", tuple(map(float, split)))
        if self.calibrated and self.delta is None:
            _bin_axes(self.calibration_bin_deg)
            _check_min_support(self.calibration_min_support)


@dataclass
class EvaluationReport:
    """Self-describing evaluation outcome."""

    method: str
    calibrated: bool
    rmse_db: list
    median_rmse_db: float
    elevation_bin_centers: list
    elevation_bin_rmse_db: list
    counters: dict
    n_train: int
    n_test: int
    config: dict

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "calibrated": self.calibrated,
            "median_rmse_db": self.median_rmse_db,
            "rmse_db": list(self.rmse_db),
            "elevation_bin_centers": list(self.elevation_bin_centers),
            "elevation_bin_rmse_db": list(self.elevation_bin_rmse_db),
            "counters": dict(self.counters),
            "n_train": self.n_train,
            "n_test": self.n_test,
            "config": self.config,
        }


class CampaignValues:
    """Read seam for test-campaign measured values.

    The evaluator touches held-out values only through ``take``; tests
    swap in a counting subclass to audit train/test separation.
    """

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    def __len__(self):
        return len(self._values)

    def take(self, indices) -> np.ndarray:
        return self._values[np.asarray(indices)]


def ingest_measurements(path) -> Campaign:
    """Parse a measurement CSV (`seq,lat_deg,lon_deg,alt_m,rsrp_dbm`).

    Raises:
        ParseError: malformed header or row, with the line number.
        RangeError: latitude/longitude outside valid ranges.
    """
    rows = []
    for lineno, row in _read_csv_rows(
            path, MEASUREMENT_CSV_HEADER, (int, float, float, float, float)):
        _, lat, lon, alt, rsrp = row
        if not np.isfinite(rsrp):
            raise ParseError("rsrp_dbm is not finite", line=lineno)
        _check_location(lat, lon, alt, where=f"line {lineno}: ")
        rows.append(row)
    seq, lat, lon, alt, rsrp = list(zip(*rows)) or [()] * 5
    return Campaign(lat, lon, alt, rsrp, seq)


def _load_campaign(campaign):
    if campaign is None:
        return None
    c = (ingest_measurements(campaign)
         if isinstance(campaign, (str, os.PathLike)) else Campaign.of(campaign))
    # canonical order: permuting file rows must not change anything
    return c[np.lexsort((c.alt, c.lon, c.lat, c.seq))]


def _check_disjoint(train, test):
    """Reject test rows whose location and value equal a train row."""
    if train is None:
        return

    def rows(c):
        return zip(*(col.tolist() for col in (c.lat, c.lon, c.alt, c.rsrp)))

    seen = set(rows(train))
    shared = [s for s, row in zip(test.seq.tolist(), rows(test))
              if row in seen]
    if shared:
        raise ValueError(
            f"{len(shared)} test rows equal a train row (first: test "
            f"seq={shared[0]}); the protocol requires separate campaigns"
        )


@dataclass(frozen=True)
class ResidualModel:
    """What the residual predictors need, fitted from one sample set.

    ``transform`` and ``corr_u`` (the correlation model of the normal
    scores) are set for the TG methods only, and stay None when the
    samples are too few for a normal-score transform; the TG methods
    then run as their plain variant.
    """

    corr: CorrelationModel
    mean_z: float = 0.0
    sigma_y: float = 0.0
    sigma_gp: float = 0.0
    transform: Optional[NormalScoreTransform] = None
    corr_u: Optional[CorrelationModel] = None


def fit_residual_model(samples: Optional[SampleSet], method: str,
                       corr: CorrelationModel = None, mean_z: float = None,
                       sigma_split: tuple = None) -> ResidualModel:
    """Fit the residual model ``method`` needs from shadow-fading samples.

    Args:
        samples: the residuals, or None when ``corr`` is given.
        method: a reconstruction method other than ``TRPL_only``.
        corr, mean_z, sigma_split: used as given instead of fitted.

    Raises:
        ValueError: no samples and no ``corr``, or a TG method without
            samples.
    """
    table = None
    if corr is None:
        if samples is None:
            raise ValueError(
                f"method {method} needs a train campaign or corr_model"
            )
        table = empirical_correlation(samples)
        corr = fit_correlation_model(table)
    if mean_z is None:
        mean_z = 0.0 if samples is None else float(np.mean(samples.z))

    sigma_y = sigma_gp = 0.0
    if method in ("GPR", "MC_GPR"):
        if sigma_split is not None:
            sigma_y, sigma_gp = sigma_split
        elif table is not None:
            # a fitted table has six populated bins, so four samples or more
            sigma_y, sigma_gp = _variance_split(table)
        elif samples is not None:
            sigma_y, sigma_gp = estimate_hyperparameters(samples)
        else:
            sigma_y = corr.sigma_z

    transform = corr_u = None
    if method in ("TG_OK", "TG_SK"):
        if samples is None:
            raise ValueError("TG variants need a train campaign")
        try:
            transform = normal_score(samples)
        except InsufficientData as exc:
            warnings.warn(
                f"{exc}; falling back to the plain kriging variant"
            )
    if transform is not None:
        scores = SampleSet(samples.lat, samples.lon, samples.alt,
                           transform.forward(samples.z), samples.seq)
        try:
            corr_u = fit_correlation_model(empirical_correlation(scores))
        except (InsufficientData, FitDiverged):
            # scores are near standard normal; reuse the raw-domain
            # shape at unit variance
            corr_u = transformed_model(corr, 1.0)
    return ResidualModel(corr, mean_z, sigma_y, sigma_gp, transform, corr_u)


def predict_residuals(method: str, fit: Optional[ResidualModel], samples,
                      lat, lon, alt, *, radius_m: float, mc: McConfig,
                      counters: dict = None, _tables=None) -> np.ndarray:
    """The residual ``method`` predicts at each target from the samples.

    ``TRPL_only`` predicts zeros and reads neither ``fit`` nor the
    samples.  The kriging methods are :func:`kriging.predict_batch`
    within ``radius_m``; a TG method whose ``fit`` has no normal-score
    transform runs as its plain variant.  GPR is :func:`gpr_predict_mean`
    of a :func:`gpr_fit` on the samples, and MC_GPR the
    completion-assisted pipeline ``mc`` on that fit.  ``counters``, when
    given, gains the kriging fallback targets, and MC_GPR's variance
    clamps and bisections that hit their cap.

    ``_tables`` is ``(kernel, cross)``, the latent covariance among the
    samples (Fortran order) and from them to the targets (C order, or
    None for MC_GPR), both indexed out of a :func:`gpr._cov_rows` table's
    C-ordered transpose: the fit factors the kernel in place and the GPR
    mean reads the cross block, with the bits of :func:`gpr_fit` and
    :func:`gpr_predict_mean`.
    """
    if method == "TRPL_only":
        return np.zeros(np.size(lat))
    if method in ("GPR", "MC_GPR"):
        kernel, cross = (None, None) if _tables is None else _tables
        model = gpr_fit(samples, fit.corr, fit.sigma_y, fit.sigma_gp,
                        _kernel=kernel)
        if method == "GPR":
            return (gpr_predict_mean(model, lat, lon, alt) if cross is None
                    else _mean(model, cross))
        pipeline = McAssistedGpr(model, mc)
        if counters is not None:
            counters["variance_clamps"] += model.clamp_events
            counters["mc_bisection_maxed"] += int(not pipeline.mc.converged)
        return pipeline.predict(lat, lon)
    variant = method if fit.transform is not None else method.replace("TG_", "")
    kcfg = KrigingConfig(radius_m=radius_m, variant=variant, mean_z=fit.mean_z)
    out = predict_batch(samples, fit.corr, lat, lon, alt, kcfg,
                        transform=fit.transform, model_u=fit.corr_u)
    if counters is not None:
        counters["fallback_targets"] += int(np.count_nonzero(out.fallback))
    return out.z_hat


@dataclass(frozen=True)
class _Loaded:
    """The load stage: train campaign, gain correction and test rows."""

    train: Optional[Campaign]
    delta: object
    lat: np.ndarray
    lon: np.ndarray
    alt: np.ndarray
    seq: np.ndarray
    rhat: np.ndarray
    elev_bin: np.ndarray
    values: CampaignValues
    n: int


def _load(cfg: EvalConfig, test_values: CampaignValues = None) -> _Loaded:
    train = _load_campaign(cfg.train_campaign)
    test = _load_campaign(cfg.test_campaign)
    if test is None or len(test) == 0:
        raise ValueError("test campaign is empty")
    _check_disjoint(train, test)
    delta = cfg.delta if cfg.calibrated else None
    if cfg.calibrated and delta is None:
        if train is None:
            raise ValueError("calibrated evaluation needs a train campaign")
        ratios = estimate_a_uav(train, cfg.prop, cfg.gs, campaign="train")
        eff = estimate_effective_pattern(
            ratios, cfg.prop.gs_pattern,
            bin_deg=cfg.calibration_bin_deg,
            min_support=cfg.calibration_min_support,
        )
        delta = delta_gain(eff, cfg.prop.uav_pattern)

    geom, rhat = _predicted_power(cfg.prop, cfg.gs, test.lat, test.lon,
                                  test.alt, delta, test.seq)
    elev = np.asarray(geom.theta_t)
    elev_bin = np.clip(
        np.floor(elev / ELEVATION_BIN_DEG).astype(int), 0,
        ELEVATION_BIN_COUNT - 1,
    )
    values = CampaignValues(test.rsrp) if test_values is None else test_values
    return _Loaded(train, delta, test.lat, test.lon, test.alt, test.seq, rhat,
                   elev_bin, values, len(test))


def _fit(cfg: EvalConfig, loaded: _Loaded):
    """``(fit, cov)``: the residual model, from the train campaign only
    (None for ``TRPL_only``), and for GPR and MC_GPR the latent
    covariance among all n test rows, 8 n^2 bytes, C-ordered so that a
    draw's row gather is contiguous.  Each draw indexes its kernel and
    cross-covariance out of it.  Above n = 2896 (64 MB) ``cov`` is None
    and a draw takes the path ``reconstruct`` takes: :func:`gpr_fit`
    builds its M x M kernel and, for GPR, :func:`gpr_predict_mean` its
    cross-covariance.  Either way the reports agree bit for bit."""
    if cfg.method == "MC_GPR":
        _check_one_altitude(loaded.alt)
    if cfg.method == "TRPL_only":
        return None, None

    samples = None
    if loaded.train is not None:
        samples = extract_sf(loaded.train, cfg.prop, cfg.gs,
                             delta_gain=loaded.delta)
    fit = fit_residual_model(samples, cfg.method, corr=cfg.corr_model,
                             mean_z=cfg.mean_z, sigma_split=cfg.sigma_split)
    cov = None
    if (cfg.method in ("GPR", "MC_GPR")
            and loaded.n * loaded.n <= _COV_TABLE_ELEMENTS):
        cov = _cov_rows(fit.corr, fit.sigma_y, loaded.lat, loaded.lon,
                        loaded.alt).T
    return fit, cov


def _residuals_kriging(cfg, fit, data, s_idx, z_m, t_idx, counters):
    """Krige the residual at each target from its sampled neighbours.

    The systems are :func:`kriging.predict_batch`'s, from the same
    neighbour order (distance, then ``seq``), and each estimate is
    written as it writes it.  The TG methods krige normal scores with
    the score-domain model and back-transform them in one call; without
    a transform they run as the plain variant.
    """
    ordinary = cfg.method in ("OK", "TG_OK")
    transform = fit.transform
    if transform is None:
        model, values, mean = fit.corr, z_m, fit.mean_z
    else:
        model = fit.corr_u
        values = np.asarray(transform.forward(z_m), dtype=float)
        mean = transform.mean_u
    samples = SampleSet(data.lat[s_idx], data.lon[s_idx], data.alt[s_idx],
                        z_m, data.seq[s_idx])
    out = np.zeros(len(t_idx))
    kriged = np.zeros(len(t_idx), dtype=bool)
    mse = np.zeros(len(t_idx))
    mu = np.zeros(len(t_idx))
    for k, idx, a_nn, a_t in _systems(samples, model, ordinary,
                                      data.lat[t_idx], data.lon[t_idx],
                                      data.alt[t_idx], cfg.radius_m):
        nb = values[idx]
        if ordinary:
            w, mu[k] = solve_ordinary(a_nn, a_t, cfg.jitter)
            out[k] = w @ nb
        else:
            w = solve_simple(a_nn, a_t, cfg.jitter)
            out[k] = mean + w @ (nb - mean)
        kriged[k] = True
        if transform is not None:
            var = w @ a_t + mu[k] if ordinary else model.sigma_z**2 - w @ a_t
            mse[k] = max(float(var), 0.0)
    counters["fallback_targets"] += int(np.count_nonzero(~kriged))
    if transform is not None:
        out[kriged] = transform.back_transform(out[kriged], mse[kriged],
                                               mu[kriged])
    return out


def _run_iteration(cfg, fitted, data, index, counters):
    """One draw: returns the errors at the targets and their elevation bins."""
    fit, cov = fitted
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, index)))
    sampled = rng.choice(data.n, size=cfg.m_samples, replace=False)
    mask = np.ones(data.n, dtype=bool)
    mask[sampled] = False
    targets = np.nonzero(mask)[0]

    z_m = data.values.take(sampled) - data.rhat[sampled]
    if cfg.method in ("OK", "SK", "TG_OK", "TG_SK"):
        w_hat = _residuals_kriging(cfg, fit, data, sampled, z_m, targets,
                                   counters)
    else:
        tables = None
        if cov is not None:
            rows = cov[sampled]
            # MC_GPR reads only the fit
            tables = (np.asfortranarray(rows[:, sampled]),
                      rows.take(targets, axis=1) if cfg.method == "GPR"
                      else None)
        samples = SampleSet(data.lat[sampled], data.lon[sampled],
                            data.alt[sampled], z_m, data.seq[sampled])
        w_hat = predict_residuals(
            cfg.method, fit, samples, data.lat[targets], data.lon[targets],
            data.alt[targets], radius_m=cfg.radius_m, mc=cfg.mc,
            counters=counters, _tables=tables)

    pred = data.rhat[targets] + w_hat
    return pred - data.values.take(targets), data.elev_bin[targets]


def monte_carlo_eval(cfg: EvalConfig, test_values: CampaignValues = None
                     ) -> EvaluationReport:
    """Run the sparse-sampling protocol and report RMSE statistics.

    Args:
        cfg: protocol settings.
        test_values: optional replacement for the test campaign's value
            accessor (used by audits); geometry still comes from the
            campaign file.

    Raises:
        ValueError: invalid configuration, including a test row equal to
            a train row or m_samples >= test campaign size.
        DegenerateLink: a test row coincides with the station.
        RangeError: MC_GPR on a test campaign that spans more than one
            altitude.
    """
    loaded = _load(cfg, test_values)
    return _run(cfg, loaded, _fit(cfg, loaded))


def _check_m_samples(cfg: EvalConfig, loaded: _Loaded):
    if cfg.m_samples >= loaded.n:
        raise ValueError(
            f"m_samples={cfg.m_samples} must be < test campaign size {loaded.n}"
        )


def _run(cfg: EvalConfig, loaded: _Loaded, fitted) -> EvaluationReport:
    _check_m_samples(cfg, loaded)
    rmse = np.empty(cfg.iterations)
    bin_rmse = np.full((cfg.iterations, ELEVATION_BIN_COUNT), np.nan)
    counters = {"fallback_targets": 0, "variance_clamps": 0,
                "mc_bisection_maxed": 0}
    for i in range(cfg.iterations):
        err, bins = _run_iteration(cfg, fitted, loaded, i, counters)
        sq = err**2
        rmse[i] = np.sqrt(np.mean(sq))
        for b in np.unique(bins):
            bin_rmse[i, b] = np.sqrt(np.mean(sq[bins == b]))
    # only bins that hold a value: an empty one would warn
    filled = ~np.all(np.isnan(bin_rmse), axis=0)
    bin_median = np.full(ELEVATION_BIN_COUNT, np.nan)
    bin_median[filled] = np.nanmedian(bin_rmse[:, filled], axis=0)
    centers = [
        ELEVATION_BIN_DEG / 2 + ELEVATION_BIN_DEG * b
        for b in range(ELEVATION_BIN_COUNT)
    ]
    return EvaluationReport(
        method=cfg.method,
        calibrated=cfg.calibrated,
        rmse_db=rmse.tolist(),
        median_rmse_db=float(np.median(rmse)),
        elevation_bin_centers=centers,
        elevation_bin_rmse_db=[
            float(v) if np.isfinite(v) else None for v in bin_median
        ],
        counters=counters,
        n_train=0 if loaded.train is None else len(loaded.train),
        n_test=loaded.n,
        config=_config_echo(cfg),
    )


def _config_echo(cfg: EvalConfig) -> dict:
    def campaign_repr(c):
        if c is None:
            return None
        if isinstance(c, (str, os.PathLike)):
            return str(c)
        return f"<in-memory campaign, {len(c)} rows>"

    return {
        "method": cfg.method,
        "calibrated": cfg.calibrated,
        "m_samples": cfg.m_samples,
        "radius_m": cfg.radius_m,
        "iterations": cfg.iterations,
        "seed": cfg.seed,
        "train_campaign": campaign_repr(cfg.train_campaign),
        "test_campaign": campaign_repr(cfg.test_campaign),
    }


SWEEP_AXES = ("M", "R", "method", "altitude_campaign")


def sweep(base: EvalConfig, axis: str, values, out_csv=None):
    """One evaluation per value along an axis; seeds offset by index.

    Each report is :func:`monte_carlo_eval`'s for its value, from the
    stages the axis shares (module docstring).  Every value, and on the
    ``M``, ``R`` and ``method`` axes its ``m_samples``, is checked before
    the first draw.

    ``altitude_campaign`` values may be a campaign (path or list) or a
    ``(train, test)`` pair.  When ``out_csv`` is given a long-format CSV
    with one row per (value, iteration) is written for plotting.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    cfgs = []
    for k, value in enumerate(values):
        if axis == "M":
            cfg = replace(base, m_samples=int(value))
        elif axis == "R":
            cfg = replace(base, radius_m=float(value))
        elif axis == "method":
            cfg = replace(base, method=str(value))
        elif isinstance(value, tuple) and len(value) == 2:
            cfg = replace(base, train_campaign=value[0],
                          test_campaign=value[1])
        else:
            cfg = replace(base, test_campaign=value)
        cfgs.append(replace(cfg, seed=base.seed + k))

    reports = []
    if axis == "altitude_campaign":
        for cfg in cfgs:
            loaded = _load(cfg)
            reports.append(_run(cfg, loaded, _fit(cfg, loaded)))
    elif cfgs:
        loaded = _load(base)
        for cfg in cfgs:
            _check_m_samples(cfg, loaded)
        fitted = None if axis == "method" else _fit(base, loaded)
        corr = base.corr_model
        for cfg in cfgs:
            if axis == "method":
                fitted = _fit(replace(cfg, corr_model=corr), loaded)
                if fitted[0] is not None:
                    corr = fitted[0].corr
            reports.append(_run(cfg, loaded, fitted))
    if out_csv is not None:
        _write_sweep_csv(out_csv, axis, values, reports)
    return reports


def _sweep_value_label(axis, value):
    if axis == "altitude_campaign":
        if isinstance(value, tuple):
            return "|".join(_sweep_value_label(axis, v) for v in value)
        if isinstance(value, (str, os.PathLike)):
            return str(value)
        return f"<campaign {len(value)} rows>"
    return str(value)


def _write_sweep_csv(path, axis, values, reports):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "axis", "value", "iteration", "rmse_db", "median_rmse_db",
            "method", "calibrated", "m_samples", "radius_m", "seed",
        ])
        for value, report in zip(values, reports):
            label = _sweep_value_label(axis, value)
            for i, r in enumerate(report.rmse_db):
                writer.writerow([
                    axis, label, i, repr(r), repr(report.median_rmse_db),
                    report.config["method"], report.config["calibrated"],
                    report.config["m_samples"], report.config["radius_m"],
                    report.config["seed"],
                ])
