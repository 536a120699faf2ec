import math

import numpy as np
import pytest

import remsense as rs

from conftest import east_of


def fresnel_oracle(theta_deg, eps_r, pol):
    """Textbook Fresnel coefficients written against the grazing angle."""
    th = math.radians(theta_deg)
    root = math.sqrt(eps_r - math.cos(th) ** 2)
    if pol == "vertical":
        return (eps_r * math.sin(th) - root) / (eps_r * math.sin(th) + root)
    return (math.sin(th) - root) / (math.sin(th) + root)


def two_ray_oracle(cfg, geom):
    """Direct phasor re-summation, independent of the library internals."""
    lam = cfg.wavelength_m
    g_t = 10 ** (rs.gain_at(cfg.gs_pattern, geom.phi_t, geom.theta_t) / 10)
    g_r = 10 ** (rs.gain_at(cfg.uav_pattern, geom.phi_r, geom.theta_r) / 10)
    g_t1 = 10 ** (rs.gain_at(cfg.gs_pattern, geom.phi_t1, geom.theta_t1) / 10)
    g_r1 = 10 ** (rs.gain_at(cfg.uav_pattern, geom.phi_r1, geom.theta_r1) / 10)
    gamma = fresnel_oracle(geom.theta_ref, cfg.ground_rel_permittivity,
                           cfg.polarization)
    los = math.sqrt(g_t * g_r) / geom.d_3d
    refl = gamma * math.sqrt(g_t1 * g_r1) * np.exp(-1j * geom.delta_tau) / (
        geom.d1 + geom.d2)
    return (lam / (4 * math.pi)) ** 2 * abs(los + refl) ** 2


class TestReflectionCoefficient:
    def test_identity_medium_exactly_zero(self):
        assert rs.reflection_coefficient(30.0, 1.0, "vertical") == 0.0
        assert rs.reflection_coefficient(5.0, 1.0, "horizontal") == 0.0

    def test_textbook_value(self):
        got = rs.reflection_coefficient(30.0, 15.0, "vertical")
        want = fresnel_oracle(30.0, 15.0, "vertical")
        assert got.real == pytest.approx(want, rel=1e-9)
        assert got.imag == 0.0

    def test_grazing_limit(self):
        for pol in ("vertical", "horizontal"):
            g = rs.reflection_coefficient(1e-6, 15.0, pol)
            assert g.real == pytest.approx(-1.0, abs=1e-6)

    def test_magnitude_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            th = rng.uniform(0.01, 90.0)
            eps = rng.uniform(1.0, 80.0)
            pol = "vertical" if rng.random() < 0.5 else "horizontal"
            assert abs(rs.reflection_coefficient(th, eps, pol)) <= 1.0 + 1e-12

    def test_polarizations_differ(self):
        v = rs.reflection_coefficient(30.0, 15.0, "vertical")
        h = rs.reflection_coefficient(30.0, 15.0, "horizontal")
        assert v != h


class TestTwoRayAttenuation:
    def test_friis_reduction(self):
        cfg = rs.PropagationConfig(carrier_hz=3.5e9, tx_power_dbm=0.0,
                                   ground_rel_permittivity=1.0)
        gs = rs.GeoPoint(0.0, 0.0, 10.0)
        rng = np.random.default_rng(4)
        for _ in range(100):
            uav = east_of(gs, float(rng.uniform(20, 1500)),
                          float(rng.uniform(1, 120)))
            g = rs.link_geometry(gs, uav, cfg.wavelength_m)
            a = rs.trpl_attenuation(cfg, g)
            friis = (cfg.wavelength_m / (4 * math.pi * g.d_3d)) ** 2
            assert a == pytest.approx(friis, rel=1e-12)
            pl = rs.trpl_path_loss_db(cfg, g)
            fspl = 20 * math.log10(4 * math.pi * g.d_3d / cfg.wavelength_m)
            assert abs(pl - fspl) < 1e-9

    def test_phasor_sum_oracle(self):
        cfg = rs.PropagationConfig(carrier_hz=3.5e9, tx_power_dbm=20.0,
                                   ground_rel_permittivity=15.0,
                                   polarization="vertical")
        gs = rs.GeoPoint(0.0, 0.0, 10.0)
        uav = east_of(gs, 300.0, 50.0)
        g = rs.link_geometry(gs, uav, cfg.wavelength_m)
        got = rs.trpl_attenuation(cfg, g)
        want = two_ray_oracle(cfg, g)
        assert got == pytest.approx(want, rel=1e-9)
        assert rs.trpl_path_loss_db(cfg, g) == pytest.approx(
            -10 * math.log10(want), abs=1e-6
        )

    def test_phasor_sum_oracle_random_patterns(self):
        az = np.array([0.0, 120.0, 240.0])
        el = np.array([-90.0, -10.0, 20.0, 90.0])
        rng = np.random.default_rng(9)
        pat = rs.AntennaPattern(az, el, rng.uniform(-8, 4, (3, 4)))
        cfg = rs.PropagationConfig(carrier_hz=2.4e9, tx_power_dbm=17.0,
                                   ground_rel_permittivity=9.0,
                                   polarization="horizontal",
                                   gs_pattern=rs.dipole_pattern(),
                                   uav_pattern=pat)
        gs = rs.GeoPoint(35.7, -78.7, 6.0)
        for _ in range(40):
            from conftest import offset_point
            uav = offset_point(gs, float(rng.uniform(-900, 900)),
                               float(rng.uniform(-900, 900)),
                               float(rng.uniform(2, 110)))
            g = rs.link_geometry(gs, uav, cfg.wavelength_m)
            assert rs.trpl_attenuation(cfg, g) == pytest.approx(
                two_ray_oracle(cfg, g), rel=1e-9
            )

    def test_constructive_doubling(self):
        # hand-built geometry: reflection in phase after the -1 sign flip
        geom = rs.LinkGeometry(
            d_h=100.0, d_v=0.0, d_3d=100.0, phi_t=90.0, theta_t=0.0,
            phi_r=270.0, theta_r=0.0, phi_t1=90.0, theta_t1=-1e-9,
            phi_r1=270.0, theta_r1=1e-9, theta_ref=1e-9, d1=50.0, d2=50.0,
            delta_tau=math.pi,
        )
        cfg = rs.PropagationConfig(carrier_hz=3.5e9, tx_power_dbm=0.0,
                                   ground_rel_permittivity=15.0)
        a = rs.trpl_attenuation(cfg, geom)
        los_only = (cfg.wavelength_m / (4 * math.pi * 100.0)) ** 2
        assert a == pytest.approx(4.0 * los_only, rel=1e-6)

    def test_slope_beyond_break_distance(self):
        # asymptotic two-ray decay: ~40 dB/decade past the break distance
        cfg = rs.PropagationConfig(carrier_hz=3.5e9, tx_power_dbm=0.0)
        gs = rs.GeoPoint(0.0, 0.0, 10.0)
        h_uav = 30.0
        d_break = 4 * gs.alt_m * h_uav / cfg.wavelength_m
        dhs = np.logspace(math.log10(10 * d_break),
                          math.log10(100 * d_break), 40)
        pls = []
        for dh in dhs:
            uav = east_of(gs, float(dh), h_uav + gs.alt_m)
            g = rs.link_geometry(gs, uav, cfg.wavelength_m)
            pls.append(rs.trpl_path_loss_db(cfg, g))
        slope = np.polyfit(np.log10(dhs), pls, 1)[0]
        assert 35.0 <= slope <= 45.0

    def test_ceiling_applies(self):
        cfg = rs.PropagationConfig(carrier_hz=3.5e9, tx_power_dbm=0.0,
                                   ground_rel_permittivity=1.0)
        geom = rs.LinkGeometry(
            d_h=1e16, d_v=0.0, d_3d=1e16, phi_t=0.0, theta_t=0.0,
            phi_r=180.0, theta_r=0.0, phi_t1=0.0, theta_t1=0.0,
            phi_r1=180.0, theta_r1=0.0, theta_ref=1e-9, d1=5e15, d2=5e15,
            delta_tau=0.0,
        )
        assert rs.trpl_path_loss_db(cfg, geom) == 300.0


class TestReceivedPower:
    def test_subtraction_and_linearity(self):
        gs = rs.GeoPoint(0.0, 0.0, 10.0)
        uav = east_of(gs, 200.0, 40.0)
        cfg0 = rs.PropagationConfig(carrier_hz=3.5e9, tx_power_dbm=0.0)
        cfg3 = rs.PropagationConfig(carrier_hz=3.5e9, tx_power_dbm=3.0)
        g = rs.link_geometry(gs, uav, cfg0.wavelength_m)
        p0 = rs.trpl_received_power_db(cfg0, g)
        p3 = rs.trpl_received_power_db(cfg3, g)
        assert p0 == pytest.approx(-rs.trpl_path_loss_db(cfg0, g))
        assert p3 - p0 == pytest.approx(3.0, abs=1e-12)

    def test_calibrated_offsets(self):
        gs = rs.GeoPoint(0.0, 0.0, 10.0)
        uav = east_of(gs, 200.0, 40.0)
        cfg = rs.PropagationConfig(carrier_hz=3.5e9, tx_power_dbm=10.0)
        g = rs.link_geometry(gs, uav, cfg.wavelength_m)
        base = rs.trpl_received_power_db(cfg, g)
        # a correction covering the arrival angle shifts output by its value
        delta = rs.sector_blockage_delta(g.phi_r - 5.0, g.phi_r + 5.0, 2.0)
        got = rs.calibrated_received_power_db(cfg, g, delta)
        assert got == pytest.approx(base + 2.0, abs=1e-12)
        # zero correction leaves it unchanged
        none = rs.sector_blockage_delta(g.phi_r + 30.0, g.phi_r + 40.0, 2.0)
        assert rs.calibrated_received_power_db(cfg, g, none) == pytest.approx(
            base, abs=1e-12
        )


class TestConfigValidation:
    def test_permittivity_floor(self):
        with pytest.raises(rs.RangeError):
            rs.PropagationConfig(carrier_hz=3.5e9, tx_power_dbm=0.0,
                                 ground_rel_permittivity=0.5)

    def test_carrier_positive(self):
        with pytest.raises(rs.RangeError):
            rs.PropagationConfig(carrier_hz=0.0, tx_power_dbm=0.0)

    @pytest.mark.parametrize("field, value", [
        ("carrier_hz", math.nan), ("carrier_hz", math.inf),
        ("tx_power_dbm", math.nan), ("tx_power_dbm", -math.inf),
        ("ground_rel_permittivity", math.nan), ("pl_ceiling_db", math.nan),
    ])
    def test_non_finite_settings(self, field, value):
        kw = {"carrier_hz": 3.5e9, "tx_power_dbm": 0.0, field: value}
        with pytest.raises(rs.RangeError, match=f"{field} must be"):
            rs.PropagationConfig(**kw)

    def test_polarization_enum(self):
        with pytest.raises(ValueError):
            rs.PropagationConfig(carrier_hz=3.5e9, tx_power_dbm=0.0,
                                 polarization="circular")
