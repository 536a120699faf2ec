"""Deterministic received-power prediction over a two-ray ground link.

The model coherently sums the direct ray and a single ground-reflected
ray, each weighted by the transmit and receive antenna gains in its own
departure/arrival direction, with a Fresnel reflection coefficient for
a lossless dielectric ground.  Path loss follows from the squared
magnitude of the summed field.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError, _check_real
from .geo import LinkGeometry
from .patterns import AntennaPattern, gain_linear, isotropic_pattern

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class PropagationConfig:
    """Link-budget inputs shared by every deterministic prediction.

    Attributes:
        carrier_hz: carrier frequency in Hz.
        tx_power_dbm: transmit power fed to the station antenna.
        gs_pattern: ground-station antenna pattern.
        uav_pattern: receiver antenna pattern.
        ground_rel_permittivity: relative permittivity of the ground,
            >= 1; exactly 1 turns the reflected ray off.
        polarization: "vertical" or "horizontal".
        pl_ceiling_db: cap for path loss where the two rays cancel.
    """

    carrier_hz: float
    tx_power_dbm: float
    gs_pattern: AntennaPattern = field(default_factory=isotropic_pattern)
    uav_pattern: AntennaPattern = field(default_factory=isotropic_pattern)
    ground_rel_permittivity: float = 15.0
    polarization: str = "vertical"
    pl_ceiling_db: float = 300.0

    def __post_init__(self):
        _check_real("carrier_hz", self.carrier_hz, positive=True)
        _check_real("tx_power_dbm", self.tx_power_dbm)
        _check_real("ground_rel_permittivity", self.ground_rel_permittivity)
        _check_real("pl_ceiling_db", self.pl_ceiling_db)
        if self.ground_rel_permittivity < 1.0:
            raise RangeError("relative permittivity must be >= 1")
        if self.polarization not in ("vertical", "horizontal"):
            raise RangeError("polarization must be 'vertical' or 'horizontal'")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


def reflection_coefficient(theta_ref_deg, eps_r: float, polarization: str = "vertical"):
    """Fresnel reflection coefficient at grazing angle ``theta_ref_deg``.

    Lossless-dielectric forms, angle measured from the ground plane.
    Returns a complex ratio (real-valued for eps_r >= 1); tends to -1 at
    grazing incidence for both polarizations and is identically 0 when
    eps_r == 1 (no dielectric contrast).
    """
    if eps_r < 1.0:
        raise RangeError("relative permittivity must be >= 1")
    theta = np.radians(np.asarray(theta_ref_deg, dtype=float))
    if eps_r == 1.0:
        out = np.zeros_like(theta, dtype=complex)
        return complex(out) if np.isscalar(theta_ref_deg) else out
    s = np.sin(theta)
    root = np.sqrt(eps_r - np.cos(theta) ** 2)
    if polarization == "vertical":
        out = (eps_r * s - root) / (eps_r * s + root)
    elif polarization == "horizontal":
        out = (s - root) / (s + root)
    else:
        raise RangeError("polarization must be 'vertical' or 'horizontal'")
    out = out.astype(complex)
    if np.isscalar(theta_ref_deg):
        return complex(out)
    return out


def trpl_attenuation(cfg: PropagationConfig, geom: LinkGeometry):
    """Two-ray power attenuation as a linear ratio (P_Rx / P_Tx).

    Accepts a scalar or batch :class:`~remsense.geo.LinkGeometry`.
    """
    lam = cfg.wavelength_m
    g_t = gain_linear(cfg.gs_pattern, geom.phi_t, geom.theta_t)
    g_r = gain_linear(cfg.uav_pattern, geom.phi_r, geom.theta_r)
    direct = np.sqrt(g_t * g_r) / np.asarray(geom.d_3d, dtype=float)

    gamma = reflection_coefficient(
        geom.theta_ref, cfg.ground_rel_permittivity, cfg.polarization
    )
    g_t1 = gain_linear(cfg.gs_pattern, geom.phi_t1, geom.theta_t1)
    g_r1 = gain_linear(cfg.uav_pattern, geom.phi_r1, geom.theta_r1)
    path_ref = np.asarray(geom.d1, dtype=float) + np.asarray(geom.d2, dtype=float)
    reflected = (
        gamma * np.sqrt(g_t1 * g_r1)
        * np.exp(-1j * np.asarray(geom.delta_tau, dtype=float))
        / path_ref
    )
    amp = np.abs(direct + reflected)
    out = (lam / (4.0 * np.pi)) ** 2 * amp**2
    if np.isscalar(geom.d_3d):
        return float(out)
    return out


def trpl_path_loss_db(cfg: PropagationConfig, geom: LinkGeometry):
    """Two-ray path loss in dB, capped at ``cfg.pl_ceiling_db``."""
    a = np.asarray(trpl_attenuation(cfg, geom), dtype=float)
    with np.errstate(divide="ignore"):
        pl = -10.0 * np.log10(a)
    pl = np.minimum(pl, cfg.pl_ceiling_db)
    if np.isscalar(geom.d_3d):
        return float(pl)
    return pl


def trpl_received_power_db(cfg: PropagationConfig, geom: LinkGeometry):
    """Deterministic received power in dBm: transmit power minus path loss."""
    return cfg.tx_power_dbm - trpl_path_loss_db(cfg, geom)


def calibrated_received_power_db(cfg: PropagationConfig, geom: LinkGeometry,
                                 delta_gain):
    """Received power with an in-field receive-gain correction applied.

    ``delta_gain`` is any object exposing ``delta_at(az_deg, el_deg)``
    (see :class:`remsense.calibration.CalibratedDelta`); directions the
    calibration does not support contribute 0 dB.
    """
    base = trpl_received_power_db(cfg, geom)
    corr = delta_gain.delta_at(geom.phi_r, geom.theta_r)
    out = base + corr
    if np.isscalar(geom.d_3d):
        return float(out)
    return out
