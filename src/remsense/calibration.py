"""In-field estimation of the effective receive antenna pattern.

Each measurement on a reflection-free link gives one noisy read of the
receive gain in its arrival direction: inverting the free-space link
budget with the known station gain leaves ``G_rx``.  Averaging the
distance-compensated reads per direction bin yields an effective
pattern; its dB offset from the bench pattern is the calibrated gain
delta applied to later deterministic predictions.
"""

import csv
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoSupportedBins, RangeError
from .geo import GeoPoint, link_geometry_batch
from .patterns import AntennaPattern, _read_az_el_table, gain_linear
from .propagation import PropagationConfig
from .shadowing import Campaign

DELTA_CSV_HEADER = ["az_deg", "el_deg", "gain_dbi", "support"]


@dataclass
class AmplitudeRatios:
    """Per-sample amplitude ratios tagged with arrival geometry.

    ``amp`` holds sqrt(P_Rx / P_Tx) per usable sample; links that
    coincide with the station are skipped and counted.
    """

    az: np.ndarray
    el: np.ndarray
    d_3d: np.ndarray
    amp: np.ndarray
    gs_az: np.ndarray
    gs_el: np.ndarray
    wavelength_m: float
    n_skipped: int = 0
    campaign: Optional[str] = None

    def __len__(self):
        return len(self.amp)


def estimate_a_uav(measurements, cfg: PropagationConfig, gs: GeoPoint,
                   campaign: str = None) -> AmplitudeRatios:
    """Amplitude ratio sqrt(P_Rx / P_Tx) per measurement.

    Results carry the arrival direction at the receiver, the departure
    direction at the station and the 3D range, everything the pattern
    estimate needs.  Degenerate links are skipped, not fatal.
    """
    c = Campaign.of(measurements)
    geom, valid = link_geometry_batch(gs, c.lat, c.lon, c.alt, cfg.wavelength_m)
    amp = 10.0 ** ((c.rsrp - cfg.tx_power_dbm) / 20.0)
    return AmplitudeRatios(
        az=np.asarray(geom.phi_r)[valid],
        el=np.asarray(geom.theta_r)[valid],
        d_3d=np.asarray(geom.d_3d)[valid],
        amp=amp[valid],
        gs_az=np.asarray(geom.phi_t)[valid],
        gs_el=np.asarray(geom.theta_t)[valid],
        wavelength_m=cfg.wavelength_m,
        n_skipped=int(np.count_nonzero(~valid)),
        campaign=campaign,
    )


def _bin_axes(bin_deg: float):
    if not (0 < bin_deg <= 90) or (360.0 / bin_deg) % 1 != 0:
        raise RangeError("bin width must divide 360 and be in (0, 90]")
    az_centers = np.arange(bin_deg / 2, 360.0, bin_deg)
    el_centers = np.arange(-90.0 + bin_deg / 2, 90.0, bin_deg)
    return az_centers, el_centers


def _check_min_support(min_support):
    """Raise RangeError unless ``min_support`` is a whole count >= 1; an
    integral float such as 25.0 passes, a bool or 2.5 does not."""
    # below one sample, empty bins would count as supported at -inf dBi
    if (isinstance(min_support, bool)
            or not isinstance(min_support, numbers.Real)
            or not (min_support >= 1 and float(min_support).is_integer())):
        raise RangeError(f"min_support must be >= 1 and a whole number, "
                         f"got {min_support!r}")


def _bin_index(az, el, bin_deg, n_az, n_el):
    ia = np.floor(np.mod(az, 360.0) / bin_deg).astype(int)
    ia = np.clip(ia, 0, n_az - 1)
    ie = np.floor((np.asarray(el) + 90.0) / bin_deg).astype(int)
    ie = np.clip(ie, 0, n_el - 1)  # el = +90 lands in the top bin
    return ia, ie


@dataclass
class BinnedPattern:
    """Effective receive pattern averaged per direction bin.

    ``gain_dbi`` is NaN in bins whose support fell below the minimum.
    """

    az_centers: np.ndarray
    el_centers: np.ndarray
    gain_dbi: np.ndarray
    support: np.ndarray
    bin_deg: float
    min_support: int
    campaign: Optional[str] = None


def estimate_effective_pattern(ratios: AmplitudeRatios,
                               gs_pattern: AntennaPattern,
                               bin_deg: float = 5.0,
                               min_support: int = 25) -> BinnedPattern:
    """Receive gain per arrival-direction bin from amplitude ratios.

    Inverts the free-space budget per sample,

        g = (4 pi / lambda)^2 * d^2 * amp^2 / G_gs(departure),

    with the station gain in linear units, then averages the
    distance-compensated power reads within each ``bin_deg`` square bin
    before converting to dB.

    Raises:
        RangeError: a bin width that does not divide 360 or lies outside
            (0, 90], or ``min_support`` below 1.
        NoSupportedBins: if no bin reaches ``min_support`` samples.
    """
    az_centers, el_centers = _bin_axes(bin_deg)
    _check_min_support(min_support)
    n_az, n_el = len(az_centers), len(el_centers)
    if len(ratios) == 0:
        raise NoSupportedBins("no usable samples to bin")
    g_gs = gain_linear(gs_pattern, ratios.gs_az, ratios.gs_el)
    reads = (ratios.d_3d**2) * (ratios.amp**2) / g_gs
    ia, ie = _bin_index(ratios.az, ratios.el, bin_deg, n_az, n_el)
    flat = ia * n_el + ie
    sums = np.bincount(flat, weights=reads, minlength=n_az * n_el)
    counts = np.bincount(flat, minlength=n_az * n_el)
    supported = counts >= min_support
    if not np.any(supported):
        raise NoSupportedBins(
            f"no direction bin reached {min_support} samples"
        )
    scale = (4.0 * np.pi / ratios.wavelength_m) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_read = sums / np.maximum(counts, 1)
        gain_db = 10.0 * np.log10(scale * mean_read)
    gain_db = np.where(supported, gain_db, np.nan)
    return BinnedPattern(
        az_centers=az_centers,
        el_centers=el_centers,
        gain_dbi=gain_db.reshape(n_az, n_el),
        support=counts.reshape(n_az, n_el).astype(int),
        bin_deg=bin_deg,
        min_support=min_support,
        campaign=ratios.campaign,
    )


@dataclass
class CalibratedDelta:
    """Per-bin dB correction to the bench receive pattern.

    Lookups return the value of the bin containing the direction;
    unsupported bins and directions outside the table contribute 0, so
    applying a delta is always safe.
    """

    az_centers: np.ndarray
    el_centers: np.ndarray
    delta_db: np.ndarray
    support: np.ndarray
    min_support: int
    campaign: Optional[str] = None

    @property
    def bin_deg(self) -> float:
        return float(self.az_centers[1] - self.az_centers[0])

    @property
    def supported(self) -> np.ndarray:
        return self.support >= self.min_support

    def delta_at(self, az_deg, el_deg):
        """Correction in dB for the bin containing each direction."""
        scalar = np.isscalar(az_deg) and np.isscalar(el_deg)
        ia, ie = _bin_index(
            np.atleast_1d(az_deg), np.atleast_1d(el_deg),
            self.bin_deg, len(self.az_centers), len(self.el_centers),
        )
        out = np.where(
            self.supported[ia, ie], self.delta_db[ia, ie], 0.0
        )
        return float(out[0]) if scalar else out


def delta_gain(effective: BinnedPattern, baseline: AntennaPattern,
               min_support: int = None) -> CalibratedDelta:
    """Difference between the in-field and bench patterns, per bin.

    Unsupported bins get 0 dB, so the delta degrades gracefully to the
    bench pattern where the campaign saw too few samples.

    Raises:
        RangeError: ``min_support`` below 1.
        NoSupportedBins: if no bin reaches ``min_support`` samples.
    """
    if min_support is None:
        min_support = effective.min_support
    _check_min_support(min_support)
    az_c, el_c = np.meshgrid(effective.az_centers, effective.el_centers,
                             indexing="ij")
    from .patterns import gain_at

    base = np.asarray(gain_at(baseline, az_c.ravel(), el_c.ravel()))
    base = base.reshape(az_c.shape)
    supported = effective.support >= min_support
    if not np.any(supported):
        raise NoSupportedBins(
            f"no direction bin reached {min_support} samples"
        )
    delta = np.where(supported, effective.gain_dbi - base, 0.0)
    return CalibratedDelta(
        az_centers=effective.az_centers,
        el_centers=effective.el_centers,
        delta_db=delta,
        support=effective.support,
        min_support=min_support,
        campaign=effective.campaign,
    )


def write_delta_csv(path, delta: CalibratedDelta):
    """Write a delta as ``az_deg,el_deg,gain_dbi,support`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DELTA_CSV_HEADER)
        for i, az in enumerate(delta.az_centers):
            for j, el in enumerate(delta.el_centers):
                writer.writerow([
                    repr(float(az)), repr(float(el)),
                    repr(float(delta.delta_db[i, j])),
                    int(delta.support[i, j]),
                ])


def read_delta_csv(path, min_support: int = 1) -> CalibratedDelta:
    """Inverse of :func:`write_delta_csv`.

    Sub-threshold bins were already zeroed when the delta was built, so
    the permissive default threshold reproduces the original lookup
    behavior no matter what threshold produced the file.
    """
    parse = (float, float, float, lambda v: int(float(v)))
    az_centers, el_centers, (delta, support) = _read_az_el_table(
        path, DELTA_CSV_HEADER, parse, "delta")
    return CalibratedDelta(
        az_centers=az_centers,
        el_centers=el_centers,
        delta_db=delta,
        support=support.astype(int),
        min_support=min_support,
    )
