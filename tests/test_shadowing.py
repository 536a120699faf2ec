from dataclasses import astuple

import numpy as np
import pytest
from scipy import optimize

import remsense as rs
from remsense import geo, shadowing
from remsense.geo import _arc_distance, _lags, link_geometry
from remsense.gpr import gpr_fit
from remsense.kriging import KrigingConfig, predict
from remsense.patterns import sector_blockage_delta
from remsense.shadowing import (
    MAX_RATE_PER_M,
    CorrelationTable,
    SampleSet,
    _correlation,
    _model_params,
    _nelder_mead_rows,
    empirical_correlation,
    extract_sf,
    fit_correlation_model,
    transformed_model,
)

from conftest import CORR, GS, PROP, offset_point


def make_measurements(points, prop, gs, offset=0.0):
    out = []
    for i, p in enumerate(points):
        geom = link_geometry(gs, p, prop.wavelength_m)
        r = rs.trpl_received_power_db(prop, geom) + offset
        out.append(rs.Measurement(p, float(r), seq=i))
    return out


def grid_points(nx, ny, dx, dy, alt, origin=GS):
    return [offset_point(origin, 30.0 + i * dx, 40.0 + j * dy, alt)
            for i in range(nx) for j in range(ny)]


def sample_set(points, z):
    return [rs.SfSample(p, float(v), i) for i, (p, v) in enumerate(zip(points, z))]


def field_root(points, model):
    """Independent covariance square root for drawing correlated fields."""
    lat = np.array([p.lat_deg for p in points])
    lon = np.array([p.lon_deg for p in points])
    alt = np.array([p.alt_m for p in points])
    dh = _arc_distance(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
    dv = np.abs(alt[:, None] - alt[None, :])
    cov = model.covariance_at(dh, dv)
    w, v = np.linalg.eigh(cov)
    return v * np.sqrt(np.clip(w, 0.0, None)), dh, dv


# ---------------------------------------------------------------- extraction

def test_extract_model_consistent_data_gives_zero_residuals():
    pts = grid_points(4, 3, 90.0, 80.0, 60.0)
    meas = make_measurements(pts, PROP, GS)
    sf = extract_sf(meas, PROP, GS)
    assert isinstance(sf, SampleSet)
    assert len(sf) == len(meas)
    assert max(abs(s.z) for s in sf) <= 1e-12
    assert [s.seq for s in sf] == list(range(len(meas)))
    assert [s.location for s in sf] == [m.location for m in meas]
    assert len(extract_sf([], PROP, GS)) == 0


def test_extract_constant_offset_recovered():
    pts = grid_points(4, 3, 90.0, 80.0, 60.0)
    meas = make_measurements(pts, PROP, GS, offset=5.0)
    sf = extract_sf(meas, PROP, GS)
    assert all(abs(s.z - 5.0) <= 1e-12 for s in sf)


def test_extract_recovers_injected_field():
    scene = rs.SceneSpec(gs=GS, cfg=PROP, corr=CORR, seed=11)
    traj = rs.lawnmower_trajectory(rs.GeoPoint(35.721, -78.702, 60.0),
                                   300, 200, n_rows=5, alt_m=60.0,
                                   sample_spacing_m=20.0)
    meas, truth = rs.generate_campaign(scene, traj)
    sf = extract_sf(meas, PROP, GS)
    err = np.abs(np.array([s.z for s in sf]) - truth.sf)
    assert err.max() <= 1e-9


def test_extract_with_calibrated_delta():
    # waypoints sit north of the station, so the UAV-side azimuth back to
    # it spans roughly 120..230 degrees; the sector covers part of that
    delta = rs.sector_blockage_delta(140.0, 220.0, -6.0)
    scene = rs.SceneSpec(gs=GS, cfg=PROP, corr=CORR, seed=12,
                         pattern_distortion=delta)
    traj = rs.zigzag_trajectory(rs.GeoPoint(35.721, -78.702, 60.0),
                                300, 200, n_legs=5, alt_m=60.0,
                                sample_spacing_m=20.0)
    meas, truth = rs.generate_campaign(scene, traj)
    # supplying the matching receive-gain correction removes the distortion
    sf = extract_sf(meas, PROP, GS, delta_gain=delta)
    err = np.abs(np.array([s.z for s in sf]) - truth.sf)
    assert err.max() <= 1e-9
    # without it, some residuals carry the sector loss
    sf_raw = extract_sf(meas, PROP, GS)
    raw = np.abs(np.array([s.z for s in sf_raw]) - truth.sf)
    assert raw.max() > 1.0


def test_extract_station_coincident_raises():
    meas = [rs.Measurement(rs.GeoPoint(GS.lat_deg, GS.lon_deg, GS.alt_m), -70.0, 0)]
    with pytest.raises(rs.DegenerateLink):
        extract_sf(meas, PROP, GS)


# ------------------------------------------------------------------- sigma

def test_sigma_two_point():
    pts = grid_points(2, 1, 50.0, 0.0, 60.0)
    sf = sample_set(pts, [-1.0, 1.0])
    sigma = empirical_correlation(sf).sigma
    assert sigma == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_sigma_monte_carlo_recovery():
    rng = np.random.default_rng(314)
    z = 3.0 * rng.standard_normal(10_000)
    pts = grid_points(100, 100, 7.0, 7.0, 60.0)
    # every sample enters the table's sigma, however few pairs it bins
    table = empirical_correlation(sample_set(pts, z), max_pairs=1000)
    assert table.sigma == np.std(z, ddof=1)
    assert table.sigma == pytest.approx(3.0, abs=0.1)


# ------------------------------------------------------- empirical table

def test_empirical_duplicate_location_pairs_near_one():
    rng = np.random.default_rng(5)
    sf = []
    for i in range(60):
        p = offset_point(GS, 30.0 + 600.0 * i, 40.0, 60.0)
        v = float(rng.normal(0.0, 2.0))
        sf.append(rs.SfSample(p, v, 2 * i))
        sf.append(rs.SfSample(p, v, 2 * i + 1))
    tab = empirical_correlation(sf)
    assert tab.count[0, 0] == 60
    assert tab.value[0, 0] == pytest.approx(1.0, abs=0.05)
    # all cross-location pairs lie beyond the last edge and are discarded
    assert tab.count.sum() == 60
    assert tab.n_pairs_total == 120 * 119 // 2
    assert np.all(np.isnan(tab.value[tab.count == 0]))


def test_empirical_independent_field_bins_near_zero():
    rng = np.random.default_rng(17)
    pts = grid_points(20, 20, 29.0, 29.0, 60.0)
    tab = empirical_correlation(sample_set(pts, rng.standard_normal(400)))
    m = tab.count > 0
    assert m.sum() >= 10
    assert np.all(np.abs(tab.value[m]) <= 3.0 / np.sqrt(tab.count[m]))


def test_empirical_matches_sampled_field():
    """Averaged tables over independent draws against the exact expectation.

    Mean removal shifts every pair product by a computable amount on a
    finite window, so the oracle is E[(z_i - zbar)(z_j - zbar)] binned the
    same way, not the raw model curve.
    """
    pts = grid_points(24, 24, 21.0, 21.0, 60.0)
    n = len(pts)
    root, dh, dv = field_root(pts, CORR)
    cov = CORR.covariance_at(dh, dv)
    cbar = cov.mean(axis=1)
    exp_prod = cov - cbar[:, None] - cbar[None, :] + cov.mean()
    exp_var = (n / (n - 1)) * (CORR.sigma_z**2 - cov.mean())

    rng = np.random.default_rng(12)
    draws = 8
    vals = None
    for _ in range(draws):
        tab = empirical_correlation(sample_set(pts, root @ rng.standard_normal(n)))
        vals = tab.value if vals is None else vals + tab.value
    vals = vals / draws

    iu, ju = np.triu_indices(n, k=1)
    ih = np.searchsorted(tab.dh_edges, dh[iu, ju], side="right") - 1
    iv = np.searchsorted(tab.dv_edges, dv[iu, ju], side="right") - 1
    inside = (ih >= 0) & (ih < len(tab.dh_edges) - 1) & (iv == 0) \
        & (dh[iu, ju] < tab.dh_edges[-1])
    flat = ih[inside] * (len(tab.dv_edges) - 1) + iv[inside]
    nbins = (len(tab.dh_edges) - 1) * (len(tab.dv_edges) - 1)
    esum = np.bincount(flat, weights=exp_prod[iu, ju][inside], minlength=nbins)
    ecnt = np.bincount(flat, minlength=nbins)
    with np.errstate(invalid="ignore"):
        expected = np.where(ecnt > 0, esum / np.maximum(ecnt, 1) / exp_var, np.nan)
    expected = expected.reshape(tab.value.shape)

    m = tab.count >= 100
    assert m.sum() >= 19
    resid = np.abs(vals - expected)[m]
    tol = np.maximum(0.05, 8.0 / np.sqrt(tab.count[m] * draws))
    assert np.all(resid <= tol)
    # and the raw model curve is still the dominant shape
    model_bins = CORR.correlation_at(
        *np.meshgrid(tab.dh_centers, tab.dv_centers, indexing="ij"))
    assert np.abs(vals - model_bins)[m].mean() <= 0.1


def test_empirical_pair_subsampling_deterministic():
    rng = np.random.default_rng(23)
    pts = grid_points(20, 10, 25.0, 25.0, 60.0)
    sf = sample_set(pts, rng.standard_normal(200))
    a = empirical_correlation(sf, max_pairs=1000)
    b = empirical_correlation(sf, max_pairs=1000)
    assert a.n_pairs_total == 200 * 199 // 2
    assert a.n_pairs_used <= 1000
    assert a.n_pairs_used == b.n_pairs_used
    np.testing.assert_array_equal(a.count, b.count)
    np.testing.assert_array_equal(a.value, b.value)


@pytest.mark.parametrize("max_pairs", [2_000_000, 1000])
def test_empirical_blocks_do_not_change_table(monkeypatch, max_pairs):
    rng = np.random.default_rng(24)
    pts = grid_points(20, 10, 25.0, 25.0, 60.0) + grid_points(
        5, 5, 40.0, 40.0, 75.0)
    sf = sample_set(pts, rng.standard_normal(len(pts)))
    a = empirical_correlation(sf, max_pairs=max_pairs)
    # 24 pairs per block
    monkeypatch.setattr(geo, "_BLOCK_ELEMENTS", 1)
    b = empirical_correlation(sf, max_pairs=max_pairs)
    assert a.n_pairs_used > 24
    assert (a.n_pairs_used, a.n_pairs_total) == (b.n_pairs_used, b.n_pairs_total)
    assert np.array_equal(a.count, b.count)
    assert np.array_equal(a.value, b.value, equal_nan=True)


def test_empirical_insufficient_and_degenerate():
    pts = grid_points(3, 1, 50.0, 0.0, 60.0)
    with pytest.raises(rs.InsufficientData):
        empirical_correlation(sample_set(pts[:1], [1.0]))
    with pytest.raises(rs.InsufficientData):
        empirical_correlation(sample_set(pts, [2.0, 2.0, 2.0]))


def test_empirical_custom_edges():
    rng = np.random.default_rng(3)
    pts = grid_points(10, 10, 30.0, 30.0, 60.0)
    tab = empirical_correlation(sample_set(pts, rng.standard_normal(100)),
                                dh_edges=[0.0, 50.0, 100.0],
                                dv_edges=[0.0, 5.0])
    assert tab.value.shape == (2, 1)
    assert tab.dh_centers.tolist() == [25.0, 75.0]


# ---------------------------------------------------------------- model fit

def analytic_table(model, counts=1000):
    dh_e = np.arange(0.0, 401.0, 20.0)
    dv_e = np.arange(0.0, 41.0, 10.0)
    dh_c = 0.5 * (dh_e[:-1] + dh_e[1:])
    dv_c = 0.5 * (dv_e[:-1] + dv_e[1:])
    DH, DV = np.meshgrid(dh_c, dv_c, indexing="ij")
    val = model.correlation_at(DH, DV)
    cnt = np.full(val.shape, counts, dtype=int)
    return CorrelationTable(dh_edges=dh_e, dv_edges=dv_e, value=val, count=cnt,
                            sigma=model.sigma_z, mean_z=0.0,
                            n_pairs_total=int(cnt.sum()),
                            n_pairs_used=int(cnt.sum()))


def test_fit_recovers_analytic_table():
    fit = fit_correlation_model(analytic_table(CORR))
    assert fit.a == pytest.approx(0.7, rel=1e-4)
    assert fit.p1 == pytest.approx(0.05, rel=1e-4)
    assert fit.p2 == pytest.approx(0.005, rel=1e-4)
    assert fit.q == pytest.approx(0.1, rel=1e-4)
    assert fit.sigma_z == CORR.sigma_z


def test_fit_canonicalizes_component_order():
    swapped = rs.CorrelationModel(a=0.3, p1=0.005, p2=0.05, q=0.1, sigma_z=3.0)
    fit = fit_correlation_model(analytic_table(swapped))
    assert fit.p1 >= fit.p2
    assert fit.a == pytest.approx(0.7, rel=1e-4)
    assert fit.p1 == pytest.approx(0.05, rel=1e-4)


def test_fit_single_exponential_with_fix_a_one():
    one = rs.CorrelationModel(a=1.0, p1=0.02, p2=0.02, q=0.05, sigma_z=2.0)
    fit = fit_correlation_model(analytic_table(one), fix_a_one=True)
    assert fit.a == 1.0
    assert fit.p1 == fit.p2
    assert fit.p1 == pytest.approx(0.02, rel=1e-4)
    assert fit.q == pytest.approx(0.05, rel=1e-4)


def test_fit_pure_nugget_hits_rate_clamp():
    tab = analytic_table(CORR)
    flat = CorrelationTable(dh_edges=tab.dh_edges, dv_edges=tab.dv_edges,
                            value=np.zeros_like(tab.value), count=tab.count,
                            sigma=2.0, mean_z=0.0,
                            n_pairs_total=tab.n_pairs_total,
                            n_pairs_used=tab.n_pairs_used)
    fit = fit_correlation_model(flat)
    assert fit.correlation_at(20.0, 0.0) < 1e-6
    assert max(fit.p1, fit.p2) >= 9.0


def test_fit_insufficient_bins():
    tab = analytic_table(CORR)
    cnt = np.zeros_like(tab.count)
    cnt.flat[:5] = 10
    sparse = CorrelationTable(dh_edges=tab.dh_edges, dv_edges=tab.dv_edges,
                              value=tab.value, count=cnt, sigma=3.0, mean_z=0.0,
                              n_pairs_total=50, n_pairs_used=50)
    with pytest.raises(rs.InsufficientData):
        fit_correlation_model(sparse)


def test_fit_diverges_on_impossible_values():
    tab = analytic_table(CORR)
    bad = CorrelationTable(dh_edges=tab.dh_edges, dv_edges=tab.dv_edges,
                           value=np.full_like(tab.value, 5.0), count=tab.count,
                           sigma=3.0, mean_z=0.0,
                           n_pairs_total=tab.n_pairs_total,
                           n_pairs_used=tab.n_pairs_used)
    with pytest.raises(rs.FitDiverged):
        fit_correlation_model(bad)


def same_bits(a, b):
    """Equal bit for bit up to the NaN payload, the sign of zero included."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def scipy_fit(table, fix_a_one):
    """The per-start scipy loop that the lockstep search replaced.

    Returns the model and each start's polished ``OptimizeResult``.
    """
    mask = table.count > 0
    dh_c, dv_c = np.meshgrid(table.dh_centers, table.dv_centers, indexing="ij")
    dh, dv, r_emp = dh_c[mask], dv_c[mask], table.value[mask]
    w = table.count[mask].astype(float)
    w = w / w.sum()

    def objective(params):
        r_mod = _correlation(*_model_params(params, fix_a_one), dh, dv)
        return float(np.sum(w * (r_mod - r_emp) ** 2))

    if fix_a_one:
        starts = [(MAX_RATE_PER_M, MAX_RATE_PER_M), (0.1, 0.1), (0.01, 0.05),
                  (0.001, 0.01)]
    else:
        starts = [(0.5, MAX_RATE_PER_M, MAX_RATE_PER_M, MAX_RATE_PER_M)]
        for a0 in (0.25, 0.5, 0.75, 1.0):
            for p10, p20 in ((0.1, 0.01), (0.01, 0.001)):
                starts.append((a0, p10, p20, 0.05))
    opts = dict(xatol=1e-11, fatol=1e-15, maxiter=4000, maxfev=8000)
    polished, best = [], None
    for x0 in starts:
        res = optimize.minimize(objective, x0, method="Nelder-Mead", options=opts)
        res = optimize.minimize(objective, res.x, method="Nelder-Mead", options=opts)
        polished.append(res)
        if np.isfinite(res.fun) and (best is None or res.fun < best.fun):
            best = res
    a, p1, p2, q = _model_params(best.x, fix_a_one)
    if p2 > p1:
        a, p1, p2 = 1.0 - a, p2, p1
    model = rs.CorrelationModel(a=a, p1=p1, p2=p2, q=q, sigma_z=table.sigma)
    return model, polished


def _campaign(seed, traj, cfg=PROP, **scene):
    rows, _ = rs.generate_campaign(
        rs.SceneSpec(gs=GS, cfg=cfg, corr=CORR, seed=seed, **scene), traj)
    return rows


@pytest.fixture(scope="module")
def fit_tables(gaussian_campaigns):
    """Tables from the test and benchmark campaign shapes and edge cases."""
    train, test, _ = gaussian_campaigns
    base = rs.GeoPoint(35.721, -78.702, 50.0)
    friis = rs.PropagationConfig(carrier_hz=3.32e9, tx_power_dbm=23.0,
                                 ground_rel_permittivity=1.0)
    campaigns = {
        "zz-train": (train, PROP),
        "zz-test": (test, PROP),
        "zz-both-altitudes": (list(train) + list(test), PROP),
        "zz-train-seed-1": (_campaign(1101, rs.lawnmower_trajectory(
            base, 500.0, 400.0, 10, 50.0, 14.0)), PROP),
        "zz-test-seed-1": (_campaign(1102, rs.zigzag_trajectory(
            base, 500.0, 400.0, 11, 70.0, 14.0)), PROP),
        "c06-train": (_campaign(301, rs.lawnmower_trajectory(
            base, 750.0, 600.0, 12, 60.0, 12.0)), PROP),
        "c06-test": (_campaign(302, rs.lawnmower_trajectory(
            base, 750.0, 600.0, 18, 70.0, 9.0))[:1500], PROP),
        # the bulk scene at a quarter of its sample density
        "bulk-coarse": (_campaign(701, rs.lawnmower_trajectory(
            rs.GeoPoint(35.721, -78.702, 60.0), 900.0, 800.0, 12, 60.0, 18.0),
            cfg=friis, noise_sd=0.5,
            pattern_distortion=sector_blockage_delta(150.0, 190.0, -6.0)),
            friis),
    }
    tables = {name: empirical_correlation(extract_sf(rows, cfg, GS))
              for name, (rows, cfg) in campaigns.items()}
    white = extract_sf(train, PROP, GS)
    z = np.random.default_rng(1).standard_normal(len(white))
    tables["white-noise"] = empirical_correlation(
        SampleSet(white.lat, white.lon, white.alt, z, white.seq))
    exact = analytic_table(CORR)
    tables["analytic"] = exact
    tables["zero"] = CorrelationTable(
        dh_edges=exact.dh_edges, dv_edges=exact.dv_edges,
        value=np.zeros_like(exact.value), count=exact.count, sigma=2.0,
        mean_z=0.0, n_pairs_total=exact.n_pairs_total,
        n_pairs_used=exact.n_pairs_used)
    # one altitude, exact values: q is not identified
    count = np.zeros_like(exact.count)
    count[:, 0] = exact.count[:, 0]
    tables["single-altitude-exact"] = CorrelationTable(
        dh_edges=exact.dh_edges, dv_edges=exact.dv_edges, value=exact.value,
        count=count, sigma=exact.sigma, mean_z=0.0,
        n_pairs_total=int(count.sum()), n_pairs_used=int(count.sum()))
    return tables


@pytest.mark.parametrize("fix_a_one", [False, True])
def test_fit_equals_scipy_nelder_mead_start_by_start(fit_tables, fix_a_one,
                                                     monkeypatch):
    runs = []

    def recorded(*args, **kwargs):
        runs.append(_nelder_mead_rows(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(shadowing, "_nelder_mead_rows", recorded)
    for name, table in fit_tables.items():
        runs.clear()
        model = fit_correlation_model(table, fix_a_one=fix_a_one)
        expected, polished = scipy_fit(table, fix_a_one)
        # field for field, with each field's type and the sign of a zero
        assert [repr(v) for v in astuple(model)] == \
            [repr(v) for v in astuple(expected)], name
        # every start's polished optimum and value, the winner's among them
        (_, _), (x, fun) = runs
        assert len(x) == len(polished)
        for s, res in enumerate(polished):
            assert same_bits(x[s], res.x), (name, s)
            assert same_bits(fun[s], res.fun), (name, s)
        if name in ("white-noise", "zero"):
            assert max(model.p1, model.p2) == MAX_RATE_PER_M, name


def _plateaus(x):
    # a bowl rounded to 0.01: its plateaus tie values and force shrinks
    return float(np.round(np.sum((x - 0.25) ** 2), 2))


def _nan_beyond(x):
    # NaN for x[0] > 1.6, which the last start's first simplex reaches
    if x[0] > 1.6:
        return np.nan
    return float(np.sum(np.abs(x - np.array([0.5, -1.0, 2.0]))))


@pytest.mark.parametrize("f", [_plateaus, _nan_beyond])
def test_nelder_mead_rows_stop_rules_equal_scipy(f):
    starts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.0], [-1.5, 0.5, 2.0],
                       [1.55, 1.0, 1.0]])
    calls = []

    def fobj(rows):
        calls.append(len(rows))
        return np.array([f(x) for x in rows])

    # where the first start's first shrink begins: one call of N rows
    _nelder_mead_rows(fobj, starts[:1], 1e-10, 1e-12, 500, 8000)
    used = np.cumsum(calls)
    shrinks = [int(used[i - 1]) for i in range(1, len(calls)) if calls[i] == 3]
    budgets = list(range(0, 40))
    if f is _plateaus:
        # the first start runs out one and two calls into a shrink
        assert shrinks and shrinks[0] + 2 < budgets[-1]

    stops = [(1, 8000), (2, 8000), (9, 8000), (500, 8000)]
    stops += [(500, m) for m in budgets]
    for maxiter, maxfev in stops:
        x, fun = _nelder_mead_rows(fobj, starts, 1e-10, 1e-12, maxiter, maxfev)
        for s, x0 in enumerate(starts):
            res = optimize.minimize(
                f, x0, method="Nelder-Mead",
                options=dict(xatol=1e-10, fatol=1e-12, maxiter=maxiter,
                             maxfev=maxfev))
            assert same_bits(x[s], res.x), (maxiter, maxfev, s)
            assert same_bits(fun[s], res.fun), (maxiter, maxfev, s)
    if f is _nan_beyond:
        x, fun = _nelder_mead_rows(fobj, starts, 1e-10, 1e-12, 1, 8000)
        assert np.isnan(fun[3]) and np.isfinite(fun[:3]).all()


# ------------------------------------------------------------- model algebra

def test_correlation_identities():
    a = offset_point(GS, 100.0, 50.0, 60.0)
    b = offset_point(GS, 180.0, -40.0, 80.0)
    aa, ab, ba = (_lags(p.lat_deg, p.lon_deg, p.alt_m,
                        q.lat_deg, q.lon_deg, q.alt_m)
                  for p, q in ((a, a), (a, b), (b, a)))
    assert CORR.correlation_at(*aa) == pytest.approx(1.0, abs=1e-12)
    assert CORR.semivariogram_at(*aa) == pytest.approx(0.0, abs=1e-12)
    assert CORR.correlation_at(*ab) == pytest.approx(CORR.correlation_at(*ba),
                                                     rel=1e-12)
    total = CORR.semivariogram_at(*ab) + CORR.covariance_at(*ab)
    assert total == pytest.approx(CORR.sigma_z**2, rel=1e-12)


def test_correlation_closed_form_point():
    one = rs.CorrelationModel(a=1.0, p1=0.02, p2=0.02, q=0.0, sigma_z=1.0)
    assert one.correlation_at(1.0 / 0.02, 0.0) == pytest.approx(np.exp(-1.0),
                                                                rel=1e-12)


def test_correlation_monotone_and_bounded():
    d = np.linspace(0.0, 500.0, 200)
    r_h = CORR.correlation_at(d, 0.0)
    r_v = CORR.correlation_at(0.0, np.linspace(0.0, 60.0, 200))
    for r in (r_h, r_v):
        assert np.all(np.diff(r) <= 1e-15)
        assert np.all((r >= 0.0) & (r <= 1.0))


def test_correlation_random_pairs_against_formula():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a_, p1_, p2_ = rng.uniform(0, 1), rng.uniform(0, 0.2), rng.uniform(0, 0.2)
        q_ = rng.uniform(0, 0.5)
        m = rs.CorrelationModel(a=a_, p1=p1_, p2=p2_, q=q_, sigma_z=2.5)
        dh, dv = rng.uniform(0, 400), rng.uniform(0, 40)
        want = np.exp(-q_ * dv) * (a_ * np.exp(-p1_ * dh)
                                   + (1 - a_) * np.exp(-p2_ * dh))
        assert m.correlation_at(dh, dv) == pytest.approx(want, rel=1e-12)


def test_model_out_forms_write_the_same_bits():
    rng = np.random.default_rng(10)
    d_h = rng.uniform(0.0, 400.0, (6, 50))
    for d_v in (rng.uniform(0.0, 40.0, (6, 1)), rng.uniform(0.0, 40.0, (6, 50))):
        # the model as one allocating expression: the reference
        r = np.exp(-CORR.q * d_v) * (CORR.a * np.exp(-CORR.p1 * d_h)
                                     + (1.0 - CORR.a) * np.exp(-CORR.p2 * d_h))
        s2 = CORR.sigma_z**2
        for name, want in (("correlation_at", r), ("covariance_at", s2 * r),
                           ("semivariogram_at", s2 * (1.0 - r))):
            at = getattr(CORR, name)
            assert at(d_h, d_v).tobytes() == want.tobytes()
            # into d_h itself, and into a column range of a wider array
            lags = d_h.copy()
            assert at(lags, d_v, lags) is lags
            out = np.zeros((6, 53))[:, 2:52]
            out[:] = d_h
            assert at(out, d_v, out) is out
            for o in (lags, out):
                assert o.tobytes() == want.tobytes()
    assert isinstance(CORR.covariance_at(120.0, 10.0), np.float64)


def test_model_validation():
    good = dict(a=0.5, p1=0.1, p2=0.01, q=0.1, sigma_z=1.0)
    bad = [dict(a=1.2), dict(p1=-0.1), dict(sigma_z=-3.0)]
    # min() skips or returns a NaN and nan < 0 is False, so these need
    # their own check
    bad += [{name: value} for name in good for value in (np.nan, np.inf)]
    bad += [dict(q=-np.inf)]
    for change in bad:
        with pytest.raises(rs.RangeError):
            rs.CorrelationModel(**{**good, **change})


def test_transformed_model_changes_only_sigma():
    m = transformed_model(CORR, 1.0)
    assert m.sigma_z == 1.0
    assert (m.a, m.p1, m.p2, m.q) == (CORR.a, CORR.p1, CORR.p2, CORR.q)
    np.testing.assert_allclose(m.correlation_at(120.0, 10.0),
                               CORR.correlation_at(120.0, 10.0), rtol=1e-15)


def test_sample_set_round_trip():
    pts = grid_points(3, 2, 40.0, 40.0, 55.0)
    sf = sample_set(pts, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    s = SampleSet.from_samples(sf)
    assert len(s) == 6
    assert SampleSet.from_samples(s) is s
    np.testing.assert_array_equal(s.z, [1, 2, 3, 4, 5, 6])
    np.testing.assert_array_equal(s.seq, np.arange(6))
    assert list(s) == sf
    assert s[2] == sf[2]
    for index in (slice(1, 5, 2), np.array([4, 0, 3]), s.z > 2.5):
        sub = SampleSet.from_samples(list(s[index]))
        for name in ("lat", "lon", "alt", "z", "seq"):
            np.testing.assert_array_equal(getattr(sub, name),
                                          getattr(s, name)[index])

    meas = make_measurements(pts, PROP, GS)
    c = rs.Campaign.of(meas)
    assert len(c) == 6
    assert rs.Campaign.of(c) is c
    assert list(c) == meas
    assert c[2] == meas[2]
    for index in (slice(1, 5, 2), np.array([4, 0, 3]), c.rsrp > c.rsrp[2]):
        sub = c[index]
        assert isinstance(sub, rs.Campaign)
        assert list(sub) == list(np.array(meas, dtype=object)[index])

    # a ragged column must not broadcast: gpr_fit would give every row
    # the one longitude
    with pytest.raises(ValueError, match=r"lon \(1,\)"):
        SampleSet([35.7, 35.701, 35.702], [-78.7], [50] * 3, [1., 2., 3.])
    with pytest.raises(ValueError, match=r"rsrp \(2, 3\)"):
        rs.Campaign([0.0] * 6, [0.0] * 6, [0.0] * 6, np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"lat \(\)"):
        SampleSet(35.7, -78.7, 50.0, 1.0)


def test_predictors_reject_measurement_rows():
    pts = grid_points(4, 3, 90.0, 80.0, 60.0)
    meas = make_measurements(pts, PROP, GS)
    target = offset_point(GS, 100.0, 100.0, 60.0)
    for rows in (meas, rs.Campaign.of(meas)):
        with pytest.raises(AttributeError):
            predict(rows, CORR, target, KrigingConfig(radius_m=500.0))
        with pytest.raises(AttributeError):
            gpr_fit(rows, CORR, 2.0, 1.0)
