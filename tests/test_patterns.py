import numpy as np
import pytest

import remsense as rs
from remsense.patterns import pattern_from_dict, pattern_to_dict


def tabulated_pattern():
    az = np.array([0.0, 90.0, 180.0, 270.0])
    el = np.array([-90.0, 0.0, 90.0])
    gain = np.array([
        [-3.0, 0.0, -3.0],
        [-5.0, 2.0, -5.0],
        [-3.0, 1.0, -4.0],
        [-6.0, 0.5, -2.0],
    ])
    return rs.AntennaPattern(az, el, gain, name="test")


class TestGainLookup:
    def test_isotropic_everywhere_zero(self):
        p = rs.isotropic_pattern()
        rng = np.random.default_rng(0)
        for _ in range(50):
            az = rng.uniform(-360, 720)
            el = rng.uniform(-90, 90)
            assert rs.gain_at(p, az, el) == 0.0

    def test_exact_at_nodes(self):
        p = tabulated_pattern()
        for i, az in enumerate(p.az_grid):
            for j, el in enumerate(p.el_grid):
                assert rs.gain_at(p, float(az), float(el)) == pytest.approx(
                    p.gain_dbi[i, j], abs=1e-12
                )

    def test_midpoint_mean_along_az(self):
        # nodes at az 0 and 90 (el 0) hold 0 and 2 dB; midpoint = 1 dB
        p = tabulated_pattern()
        assert rs.gain_at(p, 45.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_seam_wraparound(self):
        p = tabulated_pattern()
        # between az 270 and az 360 (= node 0) at el 0: 0.5 -> 0.0
        assert rs.gain_at(p, 315.0, 0.0) == pytest.approx(0.25, abs=1e-12)
        assert rs.gain_at(p, -45.0, 0.0) == rs.gain_at(p, 315.0, 0.0)
        assert rs.gain_at(p, 360.0, 0.0) == pytest.approx(
            rs.gain_at(p, 0.0, 0.0), abs=1e-12
        )

    def test_vectorized_matches_scalar(self):
        p = tabulated_pattern()
        az = np.array([10.0, 200.0, 359.0])
        el = np.array([-30.0, 0.0, 45.0])
        vec = rs.gain_at(p, az, el)
        for k in range(3):
            assert vec[k] == pytest.approx(
                rs.gain_at(p, float(az[k]), float(el[k])), abs=1e-12
            )


class TestDipole:
    def test_peak_on_horizon(self):
        p = rs.dipole_pattern()
        assert rs.gain_at(p, 0.0, 0.0) == pytest.approx(2.15, abs=1e-9)

    def test_nulls_toward_poles(self):
        p = rs.dipole_pattern()
        horizon = rs.gain_at(p, 10.0, 0.0)
        near_pole = rs.gain_at(p, 10.0, 89.0)
        assert near_pole < horizon - 20.0

    def test_azimuth_independent(self):
        p = rs.dipole_pattern()
        vals = [rs.gain_at(p, az, 30.0) for az in (0.0, 77.0, 200.0, 359.0)]
        assert max(vals) - min(vals) < 1e-9


class TestValidation:
    def test_unsorted_grid_rejected(self):
        with pytest.raises(rs.RangeError):
            rs.AntennaPattern(np.array([10.0, 0.0]), np.array([-90.0, 90.0]),
                              np.zeros((2, 2)))

    def test_nonfinite_gain_rejected(self):
        with pytest.raises(rs.RangeError):
            rs.AntennaPattern(np.array([0.0, 180.0]),
                              np.array([-90.0, 90.0]),
                              np.array([[0.0, np.nan], [0.0, 0.0]]))

    def test_el_must_cover_both_poles(self):
        with pytest.raises(rs.RangeError):
            rs.AntennaPattern(np.array([0.0, 180.0]),
                              np.array([-45.0, 45.0]), np.zeros((2, 2)))


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        p = tabulated_pattern()
        path = tmp_path / "pat.csv"
        rs.write_pattern_csv(path, p)
        q = rs.read_pattern_csv(path)
        np.testing.assert_array_equal(q.az_grid, p.az_grid)
        np.testing.assert_array_equal(q.el_grid, p.el_grid)
        np.testing.assert_array_equal(q.gain_dbi, p.gain_dbi)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "pat.csv"
        path.write_text("azimuth,elevation,g\n0,0,1\n")
        with pytest.raises(rs.ParseError) as err:
            rs.read_pattern_csv(path)
        assert err.value.line == 1

    def test_malformed_row_names_line(self, tmp_path):
        p = tabulated_pattern()
        path = tmp_path / "pat.csv"
        rs.write_pattern_csv(path, p)
        lines = path.read_text().splitlines()
        lines[4] = "not,a,number"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(rs.ParseError) as err:
            rs.read_pattern_csv(path)
        assert err.value.line == 5

    def test_missing_cell_rejected(self, tmp_path):
        p = tabulated_pattern()
        path = tmp_path / "pat.csv"
        rs.write_pattern_csv(path, p)
        lines = path.read_text().splitlines()
        del lines[3]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(rs.ParseError):
            rs.read_pattern_csv(path)


class TestDictSerialization:
    def test_preset_round_trip(self):
        for preset in (rs.isotropic_pattern(), rs.dipole_pattern()):
            d = pattern_to_dict(preset)
            q = pattern_from_dict(d)
            rng = np.random.default_rng(1)
            for _ in range(20):
                az = float(rng.uniform(0, 360))
                el = float(rng.uniform(-90, 90))
                assert rs.gain_at(q, az, el) == pytest.approx(
                    rs.gain_at(preset, az, el), abs=1e-12
                )

    def test_tabulated_round_trip(self):
        p = tabulated_pattern()
        q = pattern_from_dict(pattern_to_dict(p))
        np.testing.assert_array_equal(q.gain_dbi, p.gain_dbi)


class TestSectorDelta:
    def test_inside_and_outside(self):
        delta = rs.sector_blockage_delta(40.0, 80.0, -6.0)
        assert delta.delta_at(60.0, 10.0) == pytest.approx(-6.0)
        assert delta.delta_at(120.0, 10.0) == 0.0

    def test_bin_width_validation(self):
        for bad in (0.0, 7.0, 91.0, -5.0):
            with pytest.raises(rs.RangeError):
                rs.sector_blockage_delta(40.0, 80.0, -6.0, bin_deg=bad)
        delta = rs.sector_blockage_delta(40.0, 80.0, -6.0, bin_deg=10.0)
        assert delta.delta_db.shape == (36, 18)
        assert delta.bin_deg == 10.0

    def test_vectorized(self):
        delta = rs.sector_blockage_delta(40.0, 80.0, -6.0)
        out = delta.delta_at(np.array([60.0, 300.0]), np.array([0.0, 0.0]))
        assert out.tolist() == [-6.0, 0.0]
