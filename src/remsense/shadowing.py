"""Shadow-fading extraction and spatial-correlation estimation.

Subtracting the deterministic two-ray prediction from measured received
power leaves the shadow-fading residual.  Its spatial structure is
summarized by a separable correlation model: a two-term exponential
decay over horizontal lag blended by a mixing weight, times a single
exponential decay over vertical lag,

    R(d_h, d_v) = exp(-q d_v) * (a exp(-p1 d_h) + (1 - a) exp(-p2 d_h)).

The model is fitted to an empirical pair-product correlation table by
weighted least squares.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateLink, FitDiverged, InsufficientData, RangeError
from .geo import GeoPoint, _blocks, _lags, link_geometry_batch
from .propagation import (
    PropagationConfig,
    calibrated_received_power_db,
    trpl_received_power_db,
)

DEFAULT_DH_EDGES = np.arange(0.0, 401.0, 20.0)
DEFAULT_DV_EDGES = np.arange(0.0, 41.0, 10.0)
MAX_RATE_PER_M = 10.0


@dataclass(frozen=True)
class Measurement:
    """One received-power sample.

    Attributes:
        location: receiver position.
        rsrp_dbm: measured received power.
        seq: stable identifier, used for deterministic ordering.
    """

    location: GeoPoint
    rsrp_dbm: float
    seq: int = 0


@dataclass(frozen=True)
class SfSample:
    """Shadow-fading residual at one location, in dB."""

    location: GeoPoint
    z: float
    seq: int = 0


class _Columns:
    """Equal-length 1-D columns that iterate and index like a row list.

    A subclass names ``lat``, ``lon``, ``alt``, one value column and
    ``seq`` (0, 1, ... when omitted) in ``__slots__``, its row type in
    ``_row`` and the row attribute holding the value in ``_value``.  An
    integer index gives one row; a slice, an index array or a boolean
    mask gives a new instance.
    """

    __slots__ = ()

    def __init__(self, lat, lon, alt, value, seq=None):
        cols = [np.asarray(c, dtype=float) for c in (lat, lon, alt, value)]
        cols.append(np.arange(cols[3].size) if seq is None
                    else np.asarray(seq, dtype=int))
        if {c.shape for c in cols} != {(cols[3].size,)}:
            raise ValueError("columns must be 1-D and of equal length, got "
                             + ", ".join(f"{name} {c.shape}" for name, c
                                         in zip(self.__slots__, cols)))
        for name, col in zip(self.__slots__, cols):
            setattr(self, name, col)

    @classmethod
    def of(cls, rows):
        """``rows`` itself if already an instance, else its rows' columns."""
        if isinstance(rows, cls):
            return rows
        cols = zip(*((r.location.lat_deg, r.location.lon_deg, r.location.alt_m,
                      getattr(r, cls._value), r.seq) for r in rows))
        return cls(*(list(cols) or [()] * 5))

    def __len__(self):
        return len(self.seq)

    def __getitem__(self, index):
        lat, lon, alt, value, seq = (getattr(self, n)[index]
                                     for n in self.__slots__)
        if isinstance(index, (int, np.integer)):
            return self._row(GeoPoint(float(lat), float(lon), float(alt)),
                             float(value), int(seq))
        return type(self)(lat, lon, alt, value, seq)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


class SampleSet(_Columns):
    """Shadow-fading residuals as columns, for vectorized math.

    Holds ``lat``, ``lon``, ``alt``, ``z`` and ``seq`` arrays of equal
    length, and iterates and indexes as :class:`SfSample` rows.
    Predictors accept either a list of :class:`SfSample` or one of
    these; a :class:`Campaign` is neither, so raw power is rejected.
    """

    __slots__ = ("lat", "lon", "alt", "z", "seq")
    _row = SfSample
    _value = "z"
    from_samples = classmethod(_Columns.of.__func__)


class Campaign(_Columns):
    """Received-power measurements as columns.

    Holds ``lat``, ``lon``, ``alt``, ``rsrp`` (dBm) and ``seq`` arrays
    of equal length, and iterates and indexes as :class:`Measurement`
    rows.  It has no ``append``; ``list(campaign)`` gives a list to edit.
    """

    __slots__ = ("lat", "lon", "alt", "rsrp", "seq")
    _row = Measurement
    _value = "rsrp_dbm"


@dataclass(frozen=True)
class CorrelationModel:
    """Fitted parameters of the separable correlation model.

    Attributes:
        a: horizontal mixing weight in [0, 1].
        p1, p2: horizontal decay rates in 1/m (p1 >= p2 by convention).
        q: vertical decay rate in 1/m.
        sigma_z: shadow-fading standard deviation in dB.
    """

    a: float
    p1: float
    p2: float
    q: float
    sigma_z: float

    def __post_init__(self):
        params = (self.a, self.p1, self.p2, self.q, self.sigma_z)
        if not np.isfinite(params).all():
            raise RangeError(f"correlation parameters must be finite: {self}")
        if not (0.0 <= self.a <= 1.0):
            raise RangeError(f"mixing weight a={self.a} outside [0, 1]")
        if min(self.p1, self.p2, self.q) < 0.0:
            raise RangeError("decay rates must be >= 0")
        if self.sigma_z < 0.0:
            raise RangeError("sigma_z must be >= 0")

    def correlation_at(self, d_h, d_v, out=None):
        """Correlation for horizontal/vertical lags in metres.

        Written into ``out`` when given, which may be ``d_h`` itself but
        not ``d_v``, with the same bits; so are :meth:`covariance_at`
        and :meth:`semivariogram_at`.
        """
        return _correlation(self.a, self.p1, self.p2, self.q,
                            np.asarray(d_h, float), np.asarray(d_v, float),
                            out)

    def covariance_at(self, d_h, d_v, out=None):
        return np.multiply(self.sigma_z**2,
                           self.correlation_at(d_h, d_v, out), out=out)

    def semivariogram_at(self, d_h, d_v, out=None):
        r = self.correlation_at(d_h, d_v, out)
        return np.multiply(self.sigma_z**2, np.subtract(1.0, r, out=out),
                           out=out)


def _correlation(a, p1, p2, q, d_h, d_v, out=None):
    """The module docstring's ``R(d_h, d_v)``, for parameters in range.

    With ``out``, an array of the broadcast shape that may be ``d_h``
    itself but not ``d_v``, the same ufuncs run on the same operands in
    the same order, in place, so the result has the same bits and a
    chunk of a dense kernel takes one temporary of its size (two with a
    full-size ``d_v``) instead of eight or more.  Without it, the one
    expression below makes fewer calls, which the fit's many small
    tables need.
    """
    if out is None:
        return np.exp(-q * d_v) * (a * np.exp(-p1 * d_h)
                                   + (1.0 - a) * np.exp(-p2 * d_h))
    vertical = np.asarray(-q * d_v)
    np.exp(vertical, out=vertical)
    second = np.asarray(-p2 * d_h)
    np.exp(second, out=second)
    np.multiply(1.0 - a, second, out=second)
    np.multiply(-p1, d_h, out=out)
    np.exp(out, out=out)
    np.multiply(a, out, out=out)
    np.add(out, second, out=out)
    return np.multiply(vertical, out, out=out)


def _predicted_power(cfg: PropagationConfig, gs: GeoPoint, lat, lon, alt,
                     delta_gain=None, seq=None):
    """Link geometry and deterministic received power at each row.

    The power is the two-ray prediction in dBm, plus ``delta_gain``'s
    receive-gain correction when given, and NaN where a row coincides
    with the station.  Given the rows' ``seq``, such a row raises
    :class:`DegenerateLink` instead.
    """
    geom, valid = link_geometry_batch(gs, lat, lon, alt, cfg.wavelength_m)
    if seq is not None and not np.all(valid):
        bad = int(np.nonzero(~valid)[0][0])
        raise DegenerateLink(
            f"measurement seq={seq[bad]} coincides with the station"
        )
    power = (trpl_received_power_db(cfg, geom) if delta_gain is None
             else calibrated_received_power_db(cfg, geom, delta_gain))
    return geom, np.where(valid, power, np.nan)


def extract_sf(measurements, cfg: PropagationConfig, gs: GeoPoint,
               delta_gain=None) -> SampleSet:
    """Shadow-fading residuals: measured power minus the two-ray mean.

    Args:
        measurements: a :class:`Campaign` or a list of :class:`Measurement`.
        cfg: propagation configuration used for the deterministic part.
        gs: ground-station location.
        delta_gain: optional calibrated receive-gain correction.

    Returns:
        :class:`SampleSet` of residual columns in input order; it
        iterates as :class:`SfSample` rows.

    Raises:
        DegenerateLink: if a measurement coincides with the station.
    """
    c = Campaign.of(measurements)
    _, rhat = _predicted_power(cfg, gs, c.lat, c.lon, c.alt, delta_gain, c.seq)
    return SampleSet(c.lat, c.lon, c.alt, c.rsrp - rhat, c.seq)


@dataclass(frozen=True)
class CorrelationTable:
    """Empirical pair-product correlation binned over (d_h, d_v) lag.

    ``value[i, j]`` is the normalized mean product for pairs whose
    horizontal lag falls in ``[dh_edges[i], dh_edges[i+1])`` and whose
    vertical lag falls in ``[dv_edges[j], dv_edges[j+1])``; NaN where a
    bin collected no pairs.
    """

    dh_edges: np.ndarray
    dv_edges: np.ndarray
    value: np.ndarray
    count: np.ndarray
    sigma: float
    mean_z: float
    n_pairs_total: int
    n_pairs_used: int

    @property
    def dh_centers(self):
        return 0.5 * (self.dh_edges[:-1] + self.dh_edges[1:])

    @property
    def dv_centers(self):
        return 0.5 * (self.dv_edges[:-1] + self.dv_edges[1:])


def _pair_blocks(n: int, stride: int, used: int):
    """The first ``used`` pairs i<j of every ``stride``-th in row-major order.

    Yields ``(i, j)`` index arrays, one fixed-size block of pairs at a
    time, in row-major order.
    """
    # first linear index of row i is i*n - i*(i+1)/2
    rows = np.arange(n - 1, dtype=np.int64)
    row_start = rows * n - rows * (rows + 1) // 2
    # about 16 arrays the length of a block are alive at once
    for b in _blocks(used, 16):
        k = np.arange(b.start, b.stop, dtype=np.int64) * stride
        i = np.searchsorted(row_start, k, side="right") - 1
        yield i, i + 1 + (k - row_start[i])


def empirical_correlation(sf, dh_edges=None, dv_edges=None,
                          max_pairs: int = 2_000_000) -> CorrelationTable:
    """Bin pair products of centered residuals over horizontal/vertical lag.

    Pairs beyond the last bin edge are discarded.  When the pair count
    exceeds ``max_pairs`` a deterministic stride subsample is used, so
    repeated runs agree bit for bit.  Pairs are binned one fixed-size
    block at a time and summed in pair order.

    Raises:
        InsufficientData: fewer than two samples, or zero variance.
    """
    s = SampleSet.from_samples(sf)
    if len(s) < 2:
        raise InsufficientData("need at least two samples for a correlation table")
    dh_edges = DEFAULT_DH_EDGES if dh_edges is None else np.asarray(dh_edges, float)
    dv_edges = DEFAULT_DV_EDGES if dv_edges is None else np.asarray(dv_edges, float)
    sigma = float(np.std(s.z, ddof=1))
    if sigma == 0.0:
        raise InsufficientData("residuals have zero variance")
    mean_z = float(np.mean(s.z))
    zc = s.z - mean_z

    # every pair, or a fixed-stride thinning of them above max_pairs
    total = len(s) * (len(s) - 1) // 2
    stride = 1 if total <= max_pairs else int(np.ceil(total / max_pairs))
    used = -(-total // stride)

    n_dh = len(dh_edges) - 1
    n_dv = len(dv_edges) - 1
    sums = np.zeros(n_dh * n_dv)
    counts = np.zeros(n_dh * n_dv, dtype=np.int64)
    for i, j in _pair_blocks(len(s), stride, used):
        dh, dv = _lags(s.lat[i], s.lon[i], s.alt[i], s.lat[j], s.lon[j], s.alt[j])
        ih = np.searchsorted(dh_edges, dh, side="right") - 1
        iv = np.searchsorted(dv_edges, dv, side="right") - 1
        ok = (
            (ih >= 0) & (ih < n_dh) & (iv >= 0) & (iv < n_dv)
            & (dh < dh_edges[-1]) & (dv < dv_edges[-1])
        )
        flat = ih[ok] * n_dv + iv[ok]
        # one running sum per bin, in pair order, as across one array
        np.add.at(sums, flat, zc[i[ok]] * zc[j[ok]])
        counts += np.bincount(flat, minlength=n_dh * n_dv)
    with np.errstate(invalid="ignore"):
        value = np.where(counts > 0, sums / np.maximum(counts, 1) / sigma**2, np.nan)
    return CorrelationTable(
        dh_edges=dh_edges,
        dv_edges=dv_edges,
        value=value.reshape(n_dh, n_dv),
        count=counts.reshape(n_dh, n_dv).astype(int),
        sigma=sigma,
        mean_z=mean_z,
        n_pairs_total=total,
        n_pairs_used=used,
    )


def _model_params(params, fix_a_one):
    """Fit parameters clipped into range, as ``(a, p1, p2, q)``.

    ``params`` is ``(a, p1, p2, q)``, or ``(p1, q)`` with a = 1 and p2 = p1
    when ``fix_a_one``.  The scalar clip keeps the sign of a zero.
    """
    if fix_a_one:
        p1, q = params
        a, p2 = 1.0, p1
    else:
        a, p1, p2, q = params
    a = min(max(a, 0.0), 1.0)
    p1 = min(max(p1, 0.0), MAX_RATE_PER_M)
    p2 = min(max(p2, 0.0), MAX_RATE_PER_M)
    q = min(max(q, 0.0), MAX_RATE_PER_M)
    return a, p1, p2, q


def _nelder_mead_rows(fobj, X0, xatol, fatol, maxiter, maxfev):
    """Nelder-Mead from every row of ``X0`` at once, in lockstep.

    Each row follows scipy's non-adaptive Nelder-Mead (``minimize`` with
    ``method="Nelder-Mead"``) step for step: its initial simplex, its
    coefficients and operand order, its ``argsort`` ordering and its stop
    rules, with the ``maxfev`` budget checked before each objective call.
    ``fobj`` maps ``(m, N)`` parameter rows to ``m`` objective values, and a
    row's value must not depend on the other rows.  Row ``s`` of the result
    then equals scipy's ``x`` and ``fun`` from ``X0[s]`` bit for bit, while
    the rows share each ``fobj`` call: one for the reflections and one for
    the expansion or contraction points of a step, and one per shrink.

    Returns:
        ``(x, fun)``: each row's best vertex, and the least value of its
        simplex (NaN if a vertex value is NaN).
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(X0, dtype=float)
    S, N = x0.shape
    sim = np.repeat(x0[:, None, :], N + 1, axis=1)
    k = np.arange(N)
    # vertex k + 1 moves coordinate k by 5 %, or to 0.00025 from zero
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = np.full((S, N + 1), np.inf)
    fcalls = np.zeros(S, dtype=np.int64)
    nit = np.ones(S, dtype=np.int64)
    row = np.arange(S)[:, None]
    vertex = np.arange(N + 1)

    def call(want, x):
        """Values at ``x`` for the rows that want a call and have budget."""
        ok = want & (fcalls < maxfev)
        fx = np.full(S, np.nan)
        if ok.any():
            fx[ok] = fobj(x[ok])
            fcalls[ok] += 1
        return fx, ok

    def order(rows):
        ind = np.where(rows[:, None], np.argsort(fsim, axis=1), vertex)
        sim[:], fsim[:] = sim[row, ind], fsim[row, ind]

    # the initial vertices in order, as far as the budget goes; scipy then
    # sorts the simplex twice
    n0 = int(min(N + 1, maxfev))
    if n0 > 0:
        fsim[:, :n0] = np.reshape(fobj(sim[:, :n0].reshape(-1, N)), (S, n0))
        fcalls[:] = n0
    everyone = np.ones(S, dtype=bool)
    order(everyone)
    order(everyone)

    done = np.zeros(S, dtype=bool)
    while True:
        with np.errstate(invalid="ignore"):
            converged = (
                (np.max(np.abs(sim[:, 1:] - sim[:, :1]), axis=(1, 2)) <= xatol)
                & (np.max(np.abs(fsim[:, :1] - fsim[:, 1:]), axis=1) <= fatol)
            )
        done |= (fcalls >= maxfev) | (nit >= maxiter) | converged
        live = ~done
        if not live.any():
            break

        xbar = np.add.reduce(sim[:, :-1], 1) / N
        worst = sim[:, -1]
        xr = (1 + rho) * xbar - rho * worst
        fxr, alive = call(live, xr)
        expand = alive & (fxr < fsim[:, 0])
        accept = alive & ~expand & (fxr < fsim[:, -2])
        outside = alive & ~expand & ~accept & (fxr < fsim[:, -1])
        inside = alive & ~expand & ~accept & ~outside

        # one second point per row: expansion or either contraction
        x2 = np.where(
            expand[:, None], (1 + rho * chi) * xbar - rho * chi * worst,
            np.where(outside[:, None], (1 + psi * rho) * xbar - psi * rho * worst,
                     (1 - psi) * xbar + psi * worst))
        fx2, ok = call(expand | outside | inside, x2)
        alive = accept | ok

        take_x2 = ok & ((expand & (fx2 < fxr)) | (outside & (fx2 <= fxr))
                        | (inside & (fx2 < fsim[:, -1])))
        take_xr = accept | (expand & ok & ~take_x2)
        shrink = ok & (outside | inside) & ~take_x2
        sim[:, -1] = np.where(take_x2[:, None], x2,
                              np.where(take_xr[:, None], xr, worst))
        fsim[:, -1] = np.where(take_x2, fx2, np.where(take_xr, fxr, fsim[:, -1]))

        if shrink.any():
            # each vertex moves, then is evaluated, until the budget ends;
            # a row that runs out does not count the iteration
            left = np.where(shrink, maxfev - fcalls, -1)[:, None]
            moved = sim[:, :1] + sigma * (sim[:, 1:] - sim[:, :1])
            evaluate = k < left
            sim[:, 1:][k <= left] = moved[k <= left]
            fsim[:, 1:][evaluate] = fobj(moved[evaluate])
            fcalls += np.count_nonzero(evaluate, axis=1)
            alive &= ~(shrink & (left[:, 0] < N))

        nit += alive
        order(live)
    return sim[:, 0].copy(), np.min(fsim, axis=1)


def fit_correlation_model(table: CorrelationTable, fix_a_one: bool = False,
                          residual_threshold: float = 0.5) -> CorrelationModel:
    """Weighted least-squares fit of the correlation model to a table.

    Bin values are weighted by their pair counts.  A multistart
    Nelder-Mead search covers mixing weights across [0, 1] and decay
    rates across several orders of magnitude, always including a
    nugget-like start at the rate clamp so uncorrelated data resolves
    there instead of diverging.  The starts run in lockstep, each equal
    to scipy's Nelder-Mead from that start, and each is polished by one
    restart from its optimum.  The returned model is canonicalized to
    p1 >= p2.

    Raises:
        InsufficientData: fewer than 6 non-empty bins.
        FitDiverged: weighted RMS residual above ``residual_threshold``.
    """
    mask = table.count > 0
    if np.count_nonzero(mask) < 6:
        raise InsufficientData(
            f"only {np.count_nonzero(mask)} non-empty bins; need at least 6"
        )
    dh_c, dv_c = np.meshgrid(table.dh_centers, table.dv_centers, indexing="ij")
    dh = dh_c[mask]
    dv = dv_c[mask]
    r_emp = table.value[mask]
    w = table.count[mask].astype(float)
    w = w / w.sum()

    upper = np.array([MAX_RATE_PER_M] * 2 if fix_a_one
                     else [1.0] + [MAX_RATE_PER_M] * 3)

    def objective(rows):
        # _model_params' clip on every row at once, then one (m, bins)
        # table of model values and one weighted loss per row
        cols = np.minimum(np.maximum(rows, 0.0), upper).T[:, :, None]
        a, p1, p2, q = (1.0, cols[0], cols[0], cols[1]) if fix_a_one else cols
        r_mod = _correlation(a, p1, p2, q, dh, dv)
        return np.sum(w * (r_mod - r_emp) ** 2, axis=1)

    if fix_a_one:
        starts = [
            (MAX_RATE_PER_M, MAX_RATE_PER_M),
            (0.1, 0.1),
            (0.01, 0.05),
            (0.001, 0.01),
        ]
    else:
        starts = [(0.5, MAX_RATE_PER_M, MAX_RATE_PER_M, MAX_RATE_PER_M)]
        for a0 in (0.25, 0.5, 0.75, 1.0):
            for p10, p20 in ((0.1, 0.01), (0.01, 0.001)):
                starts.append((a0, p10, p20, 0.05))

    opts = dict(xatol=1e-11, fatol=1e-15, maxiter=4000, maxfev=8000)
    x, _ = _nelder_mead_rows(objective, starts, **opts)
    # restart once from each located optimum; standard simplex polish
    x, fun = _nelder_mead_rows(objective, x, **opts)
    best = None
    for s in range(len(starts)):
        if np.isfinite(fun[s]) and (best is None or fun[s] < fun[best]):
            best = s
    if best is None:
        raise FitDiverged("no start converged to a finite objective")

    a, p1, p2, q = _model_params(x[best], fix_a_one)
    rms = float(np.sqrt(fun[best]))
    if rms > residual_threshold:
        raise FitDiverged(
            f"weighted RMS residual {rms:.3f} exceeds {residual_threshold}"
        )
    if p2 > p1:
        a, p1, p2 = 1.0 - a, p2, p1
    return CorrelationModel(a=a, p1=p1, p2=p2, q=q, sigma_z=table.sigma)


def transformed_model(model: CorrelationModel, sigma_z: float) -> CorrelationModel:
    """Copy of ``model`` with a different marginal standard deviation."""
    return replace(model, sigma_z=sigma_z)
