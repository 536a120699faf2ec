"""Tabulated antenna gain patterns with bilinear direction lookup.

Patterns are stored on a rectangular azimuth-by-elevation grid of dBi
values.  Azimuth wraps modulo 360; elevation queries must stay inside
the tabulated range, which has to cover [-90, 90].
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, RangeError, _read_csv_rows, _real

PATTERN_CSV_HEADER = ["az_deg", "el_deg", "gain_dbi"]


@dataclass(frozen=True)
class AntennaPattern:
    """Gain table over direction.

    Attributes:
        az_grid: ascending azimuth nodes in degrees, all within [0, 360).
        el_grid: ascending elevation nodes in degrees covering [-90, 90].
        gain_dbi: gain array of shape ``(len(az_grid), len(el_grid))``.
    """

    az_grid: np.ndarray
    el_grid: np.ndarray
    gain_dbi: np.ndarray
    name: str = field(default="", compare=False)

    def __post_init__(self):
        az = np.asarray(self.az_grid, dtype=float)
        el = np.asarray(self.el_grid, dtype=float)
        g = np.asarray(self.gain_dbi, dtype=float)
        object.__setattr__(self, "az_grid", az)
        object.__setattr__(self, "el_grid", el)
        object.__setattr__(self, "gain_dbi", g)
        if az.ndim != 1 or el.ndim != 1 or len(az) < 2 or len(el) < 2:
            raise RangeError("pattern grids need at least two nodes per axis")
        if np.any(np.diff(az) <= 0) or np.any(np.diff(el) <= 0):
            raise RangeError("pattern grid nodes must be strictly ascending")
        if az[0] < 0 or az[-1] >= 360.0:
            raise RangeError("azimuth nodes must lie in [0, 360)")
        if el[0] > -90.0 or el[-1] < 90.0:
            raise RangeError("elevation nodes must cover [-90, 90]")
        if g.shape != (len(az), len(el)):
            raise RangeError(
                f"gain table shape {g.shape} does not match grids "
                f"({len(az)}, {len(el)})"
            )
        if not np.all(np.isfinite(g)):
            raise RangeError("gain table must be finite everywhere")


@dataclass(frozen=True)
class OffsetPattern:
    """A pattern plus a direction-dependent dB offset.

    ``offset`` is any object exposing ``delta_at(az_deg, el_deg)`` (a
    calibrated gain delta, a simulated blockage, ...).  Lookups add the
    offset of the bin containing the direction to the base gain, so the
    composition stays exactly piecewise-constant over the offset's bins.
    """

    base: AntennaPattern
    offset: object


def gain_at(pattern, az_deg, el_deg):
    """Bilinear gain lookup in dBi.

    Azimuth wraps modulo 360 (interpolation crosses the 360 -> 0 seam);
    elevation outside the tabulated range raises.  Exact at grid nodes.
    Accepts scalars or arrays and returns matching shapes.
    """
    if isinstance(pattern, OffsetPattern):
        base = gain_at(pattern.base, az_deg, el_deg)
        return base + pattern.offset.delta_at(az_deg, el_deg)
    az = np.mod(np.asarray(az_deg, dtype=float), 360.0)
    el = np.asarray(el_deg, dtype=float)
    el_grid = pattern.el_grid
    if np.any(el < el_grid[0]) or np.any(el > el_grid[-1]):
        raise RangeError("elevation outside tabulated range")

    # closed azimuth axis: repeat the first column at first node + 360
    az_nodes = np.concatenate([pattern.az_grid, [pattern.az_grid[0] + 360.0]])
    gain = np.concatenate([pattern.gain_dbi, pattern.gain_dbi[:1, :]], axis=0)
    # queries below the first node belong to the wrap interval
    az = np.where(az < az_nodes[0], az + 360.0, az)

    ia = np.clip(np.searchsorted(az_nodes, az, side="right") - 1, 0, len(az_nodes) - 2)
    ie = np.clip(np.searchsorted(el_grid, el, side="right") - 1, 0, len(el_grid) - 2)
    a0 = az_nodes[ia]
    a1 = az_nodes[ia + 1]
    e0 = el_grid[ie]
    e1 = el_grid[ie + 1]
    ta = (az - a0) / (a1 - a0)
    te = (el - e0) / (e1 - e0)
    g00 = gain[ia, ie]
    g01 = gain[ia, ie + 1]
    g10 = gain[ia + 1, ie]
    g11 = gain[ia + 1, ie + 1]
    out = (
        g00 * (1 - ta) * (1 - te)
        + g01 * (1 - ta) * te
        + g10 * ta * (1 - te)
        + g11 * ta * te
    )
    if np.isscalar(az_deg) and np.isscalar(el_deg):
        return float(out)
    return out


def gain_linear(pattern, az_deg, el_deg):
    """Same lookup as :func:`gain_at` but as a linear power ratio."""
    return 10.0 ** (np.asarray(gain_at(pattern, az_deg, el_deg)) / 10.0)


def pattern_to_dict(pattern) -> dict:
    """JSON-ready dict for a pattern; presets stay symbolic."""
    if isinstance(pattern, AntennaPattern) and pattern.name == "isotropic":
        return {"preset": "isotropic", "gain_dbi": float(pattern.gain_dbi[0, 0])}
    if isinstance(pattern, AntennaPattern) and pattern.name == "dipole":
        return {"preset": "dipole"}
    if isinstance(pattern, AntennaPattern):
        return {
            "az_grid": pattern.az_grid.tolist(),
            "el_grid": pattern.el_grid.tolist(),
            "gain_dbi": pattern.gain_dbi.tolist(),
        }
    raise ParseError(f"cannot serialize pattern of type {type(pattern).__name__}")


def pattern_from_dict(d: dict):
    """Inverse of :func:`pattern_to_dict`; also accepts {"csv": path}."""
    if "preset" in d:
        if d["preset"] == "isotropic":
            return isotropic_pattern(_real(d, "gain_dbi", 0.0))
        if d["preset"] == "dipole":
            return dipole_pattern(_real(d, "peak_dbi", 2.15))
        raise ParseError(f"unknown pattern preset {d['preset']!r}")
    if "csv" in d:
        return read_pattern_csv(d["csv"])
    return AntennaPattern(
        np.asarray(d["az_grid"], dtype=float),
        np.asarray(d["el_grid"], dtype=float),
        np.asarray(d["gain_dbi"], dtype=float),
    )


def isotropic_pattern(gain_dbi: float = 0.0) -> AntennaPattern:
    """Constant-gain pattern (default 0 dBi)."""
    az = np.array([0.0, 90.0, 180.0, 270.0])
    el = np.array([-90.0, 0.0, 90.0])
    g = np.full((len(az), len(el)), float(gain_dbi))
    return AntennaPattern(az, el, g, name="isotropic")


def dipole_pattern(peak_dbi: float = 2.15, el_step_deg: float = 1.0,
                   floor_dbi: float = -40.0) -> AntennaPattern:
    """Vertical half-wave dipole, azimuth independent.

    The normalized shape is cos^2((pi/2) sin(el)) / cos^2(el), peaking
    at the horizon with ``peak_dbi`` and clamped at ``floor_dbi`` near
    the axial nulls.
    """
    el = np.arange(-90.0, 90.0 + el_step_deg / 2, el_step_deg)
    el[-1] = 90.0
    rad = np.radians(el)
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = np.cos(np.pi / 2 * np.sin(rad)) / np.cos(rad)
        shape_db = 20.0 * np.log10(np.abs(amp))
    shape_db = np.where(np.isfinite(shape_db), shape_db, -np.inf)
    g_el = np.maximum(peak_dbi + shape_db, floor_dbi)
    az = np.array([0.0, 120.0, 240.0])
    g = np.tile(g_el, (len(az), 1))
    return AntennaPattern(az, el, g, name="dipole")


def sector_blockage_delta(az_lo_deg: float, az_hi_deg: float, loss_db: float,
                          bin_deg: float = 5.0):
    """Gain offset table that is ``loss_db`` inside one azimuth sector.

    Returns an object usable wherever a calibrated gain delta is
    accepted (it exposes ``delta_at``).  Handy for simulating a blocked
    or detuned sector of the receiver antenna.

    Raises:
        RangeError: a bin width that does not divide 360 or lies outside
            (0, 90].
    """
    from .calibration import CalibratedDelta, _bin_axes

    az_centers, el_centers = _bin_axes(bin_deg)
    delta = np.zeros((len(az_centers), len(el_centers)))
    lo = az_lo_deg % 360.0
    hi = az_hi_deg % 360.0
    if lo <= hi:
        mask = (az_centers >= lo) & (az_centers < hi)
    else:
        mask = (az_centers >= lo) | (az_centers < hi)
    delta[mask, :] = loss_db
    support = np.full(delta.shape, 10 ** 9, dtype=int)
    return CalibratedDelta(az_centers, el_centers, delta, support, min_support=1)


def _read_az_el_table(path, header, parse, what):
    """Read ``az, el, value...`` CSV rows that fill an az x el grid.

    Every (az, el) node of the grid spanned by the rows' distinct
    azimuths and elevations must appear exactly once.

    Returns:
        ``(az_nodes, el_nodes, values)``: ascending nodes and one
        ``(len(az_nodes), len(el_nodes))`` array per value column.

    Raises:
        ParseError: no data rows, a repeated node (at its line) or a
            missing one.
    """
    rows = list(_read_csv_rows(path, header, parse))
    if not rows:
        raise ParseError(f"{what} file has no data rows")
    arr = np.array([fields for _, fields in rows], dtype=float)
    az_nodes, ia = np.unique(arr[:, 0], return_inverse=True)
    el_nodes, ie = np.unique(arr[:, 1], return_inverse=True)
    _, first = np.unique(ia * len(el_nodes) + ie, return_index=True)
    if len(first) < len(arr):
        again = np.setdiff1d(np.arange(len(arr)), first)[0]
        raise ParseError(f"az {arr[again, 0]:g}, el {arr[again, 1]:g} "
                         "repeats an earlier row", line=rows[again][0])
    if len(arr) != len(az_nodes) * len(el_nodes):
        raise ParseError(
            "rows do not form a complete az x el grid "
            f"({len(arr)} rows for {len(az_nodes)}x{len(el_nodes)} nodes)"
        )
    values = np.empty((arr.shape[1] - 2, len(az_nodes), len(el_nodes)))
    values[:, ia, ie] = arr[:, 2:].T
    return az_nodes, el_nodes, tuple(values)


def read_pattern_csv(path) -> AntennaPattern:
    """Load a pattern from ``az_deg,el_deg,gain_dbi`` rows.

    Rows must enumerate a complete rectangular grid; duplicates and
    gaps are rejected.
    """
    az_nodes, el_nodes, (gain,) = _read_az_el_table(
        path, PATTERN_CSV_HEADER, (float, float, float), "pattern")
    return AntennaPattern(az_nodes, el_nodes, gain)


def write_pattern_csv(path, pattern: AntennaPattern):
    """Write a pattern as ``az_deg,el_deg,gain_dbi`` rows, row-major."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PATTERN_CSV_HEADER)
        for i, az in enumerate(pattern.az_grid):
            for j, el in enumerate(pattern.el_grid):
                writer.writerow([repr(float(az)), repr(float(el)),
                                 repr(float(pattern.gain_dbi[i, j]))])
