import dataclasses
import math

import numpy as np
import pytest

import remsense as rs
from remsense import geo
from remsense.completion import GridSpec
from remsense.geo import (_blocks, _cross_lags, _grid_axes, _grid_lags, _lags,
                          from_local_xy, to_local_xy)

from conftest import east_of, offset_point

DEG_ARC_M = math.pi * rs.EARTH_RADIUS_M / 180.0  # one degree of arc


class TestGeoPoint:
    def test_valid(self):
        p = rs.GeoPoint(35.0, -78.0, 100.0)
        assert p.lat_deg == 35.0

    @pytest.mark.parametrize("lat,lon,alt", [
        (91.0, 0.0, 0.0),
        (-90.1, 0.0, 0.0),
        (0.0, 180.5, 0.0),
        (0.0, -181.0, 0.0),
        (0.0, 0.0, float("nan")),
        (0.0, 0.0, float("inf")),
    ])
    def test_out_of_range(self, lat, lon, alt):
        with pytest.raises(rs.RangeError):
            rs.GeoPoint(lat, lon, alt)

    def test_boundaries_allowed(self):
        rs.GeoPoint(90.0, 180.0, 0.0)
        rs.GeoPoint(-90.0, -180.0, 0.0)


class TestHorizontalDistance:
    def test_identity(self):
        a = rs.GeoPoint(12.0, 34.0, 5.0)
        assert rs.horizontal_distance(a, a) == 0.0

    def test_one_degree_meridian(self):
        a = rs.GeoPoint(0.0, 0.0, 3.0)
        b = rs.GeoPoint(1.0, 0.0, 99.0)  # altitudes must not matter
        assert rs.horizontal_distance(a, b) == pytest.approx(DEG_ARC_M, abs=0.5)
        assert rs.horizontal_distance(a, b) == pytest.approx(111194.9, abs=0.5)

    def test_equatorial_symmetry(self):
        a = rs.GeoPoint(0.0, 10.0, 0.0)
        b = rs.GeoPoint(0.0, 11.0, 0.0)
        ref = rs.horizontal_distance(rs.GeoPoint(0.0, 0.0, 0.0),
                                     rs.GeoPoint(1.0, 0.0, 0.0))
        assert rs.horizontal_distance(a, b) == pytest.approx(ref, rel=1e-12)

    def test_metric_properties_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lat = rng.uniform(-80, 80, 3)
            lon = rng.uniform(-179, 179, 3)
            pts = [rs.GeoPoint(float(a), float(b), 0.0)
                   for a, b in zip(lat, lon)]
            dab = rs.horizontal_distance(pts[0], pts[1])
            dba = rs.horizontal_distance(pts[1], pts[0])
            dbc = rs.horizontal_distance(pts[1], pts[2])
            dac = rs.horizontal_distance(pts[0], pts[2])
            assert dab == pytest.approx(dba, rel=1e-9)
            scale = max(dab + dbc, 1.0)
            assert dac <= dab + dbc + 1e-6 * scale


class TestVerticalDistance:
    def test_difference(self):
        a = rs.GeoPoint(0.0, 0.0, 10.0)
        b = rs.GeoPoint(5.0, 5.0, 100.0)
        assert rs.vertical_distance(a, b) == 90.0
        assert rs.vertical_distance(b, a) == 90.0

    def test_equal(self):
        a = rs.GeoPoint(0.0, 0.0, 42.0)
        b = rs.GeoPoint(1.0, 1.0, 42.0)
        assert rs.vertical_distance(a, b) == 0.0


class TestLags:
    @staticmethod
    def _columns(seed, n):
        rng = np.random.default_rng(seed)
        return (35.72 + 0.01 * rng.random(n), -78.70 + 0.01 * rng.random(n),
                120.0 * rng.random(n))

    def test_pairwise_matches_point_distances(self):
        a, b = self._columns(0, 12), self._columns(1, 12)
        d_h, d_v = _lags(*a, *b)
        for k, (pa, pb) in enumerate(zip(zip(*a), zip(*b))):
            pa, pb = rs.GeoPoint(*pa), rs.GeoPoint(*pb)
            assert d_h[k] == pytest.approx(rs.horizontal_distance(pa, pb),
                                           rel=1e-12)
            assert d_v[k] == rs.vertical_distance(pa, pb)

    def test_cross_shape_and_entries(self):
        a, b = self._columns(2, 5), self._columns(3, 7)
        d_h, d_v = _cross_lags(*a, *b)
        assert d_h.shape == d_v.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                pa = rs.GeoPoint(*(c[i] for c in a))
                pb = rs.GeoPoint(*(c[j] for c in b))
                assert d_h[i, j] == pytest.approx(
                    rs.horizontal_distance(pa, pb), rel=1e-12)
                assert d_v[i, j] == rs.vertical_distance(pa, pb)

    def test_swapped_arguments_give_the_transpose(self):
        a, b = self._columns(4, 9), self._columns(5, 6)
        ab, ba = _cross_lags(*a, *b), _cross_lags(*b, *a)
        for m_ab, m_ba in zip(ab, ba):
            assert m_ab.tobytes() == np.ascontiguousarray(m_ba.T).tobytes()


def grid_nodes(n_rows, n_cols, spacing=7.0, alt=60.0):
    """Ravelled node columns of a grid, as ``gpr_to_grid`` passes them."""
    spec = GridSpec(origin=rs.GeoPoint(35.72, -78.70, alt), spacing_m=spacing,
                    n_rows=n_rows, n_cols=n_cols, alt_m=alt)
    lat, lon = (g.ravel() for g in spec.node_latlon())
    return lat, lon, np.full(lat.size, alt)


class TestGridLags:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (6, 1), (4, 7)])
    def test_axes_of_ravelled_nodes(self, shape):
        lat, lon, alt = grid_nodes(*shape)
        lat_rows, lon_cols = _grid_axes(lat, lon, alt)
        assert (lat_rows.size, lon_cols.size) == shape
        j = np.arange(lat.size)
        assert np.array_equal(lat_rows[j // shape[1]], lat)
        assert np.array_equal(lon_cols[j % shape[1]], lon)

    def test_axes_reject_other_layouts(self):
        lat, lon, alt = grid_nodes(4, 7)
        order = np.random.default_rng(0).permutation(lat.size)
        assert _grid_axes(lat[order], lon[order], alt[order]) is None
        col_major = np.arange(lat.size).reshape(4, 7).T.ravel()
        assert _grid_axes(lat[col_major], lon[col_major],
                          alt[col_major]) is None
        assert _grid_axes(lat[:-1], lon[:-1], alt[:-1]) is None
        mixed = alt.copy()
        mixed[5] += 1.0
        assert _grid_axes(lat, lon, mixed) is None
        nudged = lon.copy()
        nudged[-1] = np.nextafter(nudged[-1], 0.0)
        assert _grid_axes(lat, nudged, alt) is None

    @pytest.mark.parametrize("shape", [(7, 11), (3, 50), (1, 60), (40, 1)])
    def test_lags_equal_cross_lags_on_every_block(self, monkeypatch, shape):
        rng = np.random.default_rng(1)
        pts = (35.72 + 0.003 * rng.random(5), -78.70 + 0.003 * rng.random(5),
               40.0 + 40.0 * rng.random(5))
        lat, lon, alt = grid_nodes(*shape)
        axes = _grid_axes(lat, lon, alt)
        # 24-node blocks: most start and end inside a grid row
        monkeypatch.setattr(geo, "_BLOCK_ELEMENTS", 1)
        blocks = list(_blocks(lat.size, 5))
        assert len(blocks) > 1
        for b in blocks:
            want_h, want_v = _cross_lags(*pts, lat[b], lon[b], alt[b])
            d_h, d_v = _grid_lags(*pts, *axes, alt[0], b)
            assert d_h.tobytes() == want_h.tobytes()
            assert d_v.shape == (5, 1)
            assert np.broadcast_to(d_v, want_v.shape).tobytes() \
                == want_v.tobytes()


class TestLinkGeometry:
    WAVELENGTH = 0.0856  # ~3.5 GHz

    def test_equal_heights_symmetric_reflection(self):
        gs = rs.GeoPoint(0.0, 0.0, 50.0)
        uav = east_of(gs, 100.0, 50.0)
        g = rs.link_geometry(gs, uav, self.WAVELENGTH)
        expected = math.hypot(50.0, 50.0)
        assert g.d1 == pytest.approx(expected, rel=1e-9)
        assert g.d2 == pytest.approx(expected, rel=1e-9)

    def test_uav_overhead(self):
        gs = rs.GeoPoint(10.0, 20.0, 10.0)
        uav = rs.GeoPoint(10.0, 20.0, 80.0)
        g = rs.link_geometry(gs, uav, self.WAVELENGTH)
        assert g.theta_t == pytest.approx(90.0)
        assert g.theta_r == pytest.approx(90.0)
        assert g.d_h == 0.0
        assert g.d_3d == pytest.approx(70.0)

    def test_image_method_oracle(self):
        # independent 2D check: gs antenna at (0, 10), uav at (40, 30),
        # image source at (0, -10)
        gs = rs.GeoPoint(0.0, 0.0, 10.0)
        uav = east_of(gs, 40.0, 30.0)
        g = rs.link_geometry(gs, uav, self.WAVELENGTH)

        d3d = math.hypot(40.0, 20.0)
        refl = math.hypot(40.0, 40.0)  # image to uav
        assert g.d_3d == pytest.approx(d3d, rel=1e-9)
        assert g.d1 + g.d2 == pytest.approx(refl, rel=1e-9)
        # specular point divides d_h as h_gs : h_uav
        assert g.d1 == pytest.approx(math.hypot(10.0, 10.0), rel=1e-9)
        assert g.d2 == pytest.approx(math.hypot(30.0, 30.0), rel=1e-9)
        assert g.theta_ref == pytest.approx(45.0, rel=1e-9)
        expected_tau = 2.0 * math.pi * (refl - d3d) / self.WAVELENGTH
        assert g.delta_tau == pytest.approx(expected_tau, rel=1e-9)

    def test_angles_eastward_link(self):
        gs = rs.GeoPoint(0.0, 0.0, 10.0)
        uav = east_of(gs, 100.0, 60.0)
        g = rs.link_geometry(gs, uav, self.WAVELENGTH)
        assert g.phi_t == pytest.approx(90.0, abs=1e-6)  # due east
        assert g.theta_t == pytest.approx(
            math.degrees(math.atan2(50.0, 100.0)), rel=1e-6
        )
        # reflected ray leaves the gs downward, arrives at the uav upward
        assert g.theta_t1 == pytest.approx(-g.theta_ref, rel=1e-9)
        assert g.theta_r1 == pytest.approx(g.theta_ref, rel=1e-9)
        assert g.phi_t1 == g.phi_t
        assert g.phi_r1 == g.phi_r

    def test_pythagoras_and_path_ordering(self):
        rng = np.random.default_rng(11)
        gs = rs.GeoPoint(35.0, -78.0, 8.0)
        for _ in range(300):
            dx, dy = rng.uniform(-800, 800, 2)
            alt = rng.uniform(0.5, 120.0)
            if abs(dx) < 1e-6 and abs(dy) < 1e-6:
                continue
            uav = offset_point(gs, dx, dy, alt)
            g = rs.link_geometry(gs, uav, self.WAVELENGTH)
            assert g.d_3d**2 == pytest.approx(g.d_h**2 + g.d_v**2, rel=1e-9)
            assert g.d1 + g.d2 >= g.d_3d - 1e-9
            assert 0.0 < g.theta_ref <= 90.0
            assert g.delta_tau >= 0.0

    def test_delta_tau_monotone_in_dh(self):
        gs = rs.GeoPoint(0.0, 0.0, 10.0)
        taus = []
        for dh in np.linspace(20.0, 2000.0, 60):
            uav = east_of(gs, float(dh), 40.0)
            taus.append(rs.link_geometry(gs, uav, self.WAVELENGTH).delta_tau)
        diffs = np.diff(taus)
        assert np.all(diffs <= 1e-12)

    def test_coincident_points_rejected(self):
        p = rs.GeoPoint(1.0, 2.0, 30.0)
        with pytest.raises(rs.DegenerateLink):
            rs.link_geometry(p, dataclasses.replace(p), self.WAVELENGTH)

    def test_negative_height_rejected(self):
        gs = rs.GeoPoint(0.0, 0.0, -5.0)
        uav = east_of(rs.GeoPoint(0.0, 0.0, 0.0), 100.0, 50.0)
        with pytest.raises(rs.RangeError):
            rs.link_geometry(gs, uav, self.WAVELENGTH)


class TestBatchGeometry:
    def test_matches_scalar_path(self):
        gs = rs.GeoPoint(35.0, -78.0, 12.0)
        rng = np.random.default_rng(3)
        dx = rng.uniform(-500, 500, 40)
        dy = rng.uniform(-500, 500, 40)
        alt = rng.uniform(5, 110, 40)
        pts = [offset_point(gs, float(a), float(b), float(c))
               for a, b, c in zip(dx, dy, alt)]
        lat = np.array([p.lat_deg for p in pts])
        lon = np.array([p.lon_deg for p in pts])
        alts = np.array([p.alt_m for p in pts])
        batch, valid = rs.link_geometry_batch(gs, lat, lon, alts, 0.0856)
        assert valid.all()
        for i, p in enumerate(pts):
            g = rs.link_geometry(gs, p, 0.0856)
            for name in ("d_h", "d_3d", "theta_t", "phi_t", "theta_ref",
                         "delta_tau", "theta_r1"):
                assert getattr(batch, name)[i] == pytest.approx(
                    getattr(g, name), rel=1e-12, abs=1e-12
                ), name

    def test_invalid_rows_flagged(self):
        gs = rs.GeoPoint(35.0, -78.0, 12.0)
        lat = np.array([35.0, 35.001])
        lon = np.array([-78.0, -78.0])
        alt = np.array([12.0, 40.0])  # first row coincides with the gs
        _, valid = rs.link_geometry_batch(gs, lat, lon, alt, 0.0856)
        assert valid.tolist() == [False, True]


class TestLocalTangentPlane:
    def test_round_trip(self):
        origin = rs.GeoPoint(35.72, -78.70, 0.0)
        rng = np.random.default_rng(5)
        x = rng.uniform(-3000, 3000, 50)
        y = rng.uniform(-3000, 3000, 50)
        lat, lon = from_local_xy(x, y, origin)
        x2, y2 = to_local_xy(lat, lon, origin)
        np.testing.assert_allclose(x2, x, atol=1e-6)
        np.testing.assert_allclose(y2, y, atol=1e-6)

    def test_consistent_with_arc_distance(self):
        origin = rs.GeoPoint(35.72, -78.70, 0.0)
        p = offset_point(origin, 300.0, 400.0, 0.0)
        d = rs.horizontal_distance(origin, p)
        assert d == pytest.approx(500.0, rel=1e-4)
