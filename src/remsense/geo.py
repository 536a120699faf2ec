"""Link geometry between a ground station and an aerial receiver.

Horizontal separations follow the spherical great-circle formula with a
mean earth radius of 6,371 km.  The ground-reflection geometry uses a
flat-earth image construction on the local tangent plane, which is the
usual approximation for the short, low-altitude links flown by survey
UAVs.

Angle conventions used throughout the package:

* azimuths are degrees clockwise from true north;
* ``theta_t`` is the elevation of the direct ray at the ground station,
  positive above the local horizontal;
* ``theta_r`` is the angle of the direct ray at the UAV measured toward
  the ground, positive downward (the UAV antenna faces down, so a link
  to a station straight below reads +90);
* ``theta_t1`` / ``theta_r1`` are the same two conventions applied to
  the ground-reflected ray, so ``theta_t1`` is negative (the ray leaves
  the station downward) and ``theta_r1`` is positive.

All functions accept scalars or equal-length numpy arrays for the
coordinate arguments and broadcast elementwise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLink, RangeError

EARTH_RADIUS_M = 6_371_000.0
# float64 values in one block of a dense kernel: 2**20, 8 MB
_BLOCK_ELEMENTS = 1 << 20
# every block but the last holds a whole multiple of this many items
_BLOCK_ALIGN = 24


@dataclass(frozen=True)
class GeoPoint:
    """A location given as geodetic coordinates.

    Attributes:
        lat_deg: latitude in degrees, in [-90, 90].
        lon_deg: longitude in degrees, in [-180, 180].
        alt_m: height in metres above the common ground datum.
    """

    lat_deg: float
    lon_deg: float
    alt_m: float

    def __post_init__(self):
        _check_location(self.lat_deg, self.lon_deg, self.alt_m)


def _point_columns(points):
    """``(lat, lon, alt)`` arrays of a sequence of :class:`GeoPoint`."""
    return tuple(np.array([getattr(p, name) for p in points], dtype=float)
                 for name in ("lat_deg", "lon_deg", "alt_m"))


def _target_columns(lat, lon, alt):
    """``(lat, lon, alt)`` as finite 1-D float arrays of one length.

    A scalar becomes a one-element column.  Raises ``ValueError``
    naming each column's shape when the columns are not 1-D or not of
    equal length, instead of letting numpy broadcast them, and when a
    coordinate is not finite.
    """
    cols = [np.atleast_1d(np.asarray(c, dtype=float)) for c in (lat, lon, alt)]
    if {c.shape for c in cols} != {(cols[0].size,)}:
        raise ValueError("target columns must be 1-D and of equal length, got "
                         + ", ".join(f"{name} {c.shape}" for name, c
                                     in zip(("lat", "lon", "alt"), cols)))
    if not all(np.isfinite(c).all() for c in cols):
        raise ValueError("target coordinates must be finite")
    return cols


def _check_location(lat, lon, alt, where=""):
    """Raise :class:`RangeError`, prefixed by ``where``, on a bad location."""
    if not (-90.0 <= lat <= 90.0):
        raise RangeError(f"{where}latitude {lat} outside [-90, 90]")
    if not (-180.0 <= lon <= 180.0):
        raise RangeError(f"{where}longitude {lon} outside [-180, 180]")
    if not np.isfinite(alt):
        raise RangeError(f"{where}altitude {alt} is not finite")


@dataclass(frozen=True)
class LinkGeometry:
    """Distances and antenna-frame angles for one station-to-UAV link.

    Angles are degrees, distances metres.  ``delta_tau`` is the excess
    phase of the reflected ray relative to the direct one, in radians.
    Fields hold floats for a single link or arrays for a batch.
    """

    d_h: float
    d_v: float
    d_3d: float
    phi_t: float
    theta_t: float
    phi_r: float
    theta_r: float
    phi_t1: float
    theta_t1: float
    phi_r1: float
    theta_r1: float
    theta_ref: float
    d1: float
    d2: float
    delta_tau: float


def horizontal_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between the ground projections of two points."""
    return float(
        _arc_distance(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg)
    )


def vertical_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Absolute altitude difference in metres."""
    return abs(a.alt_m - b.alt_m)


def _arc_distance(lat1, lon1, lat2, lon2):
    """Spherical arc length, vectorized, degrees in / metres out.

    Haversine form of the great-circle arc: algebraically the same
    distance as the spherical law of cosines, but it keeps full float
    precision at short range (the arccos form loses eight digits below a
    kilometre and cannot return exactly zero for coincident points,
    which downstream exact-interpolation guarantees rely on).
    """
    lat1 = np.asarray(lat1, dtype=float)
    lat2 = np.asarray(lat2, dtype=float)
    dlon = np.asarray(lon2, dtype=float) - np.asarray(lon1, dtype=float)
    # one term at a time, so that few temporaries of the broadcast
    # shape are alive at once
    h = np.sin(np.radians(lat2 - lat1) / 2.0) ** 2
    h = h + (np.cos(np.radians(lat1)) * np.cos(np.radians(lat2))
             * np.sin(np.radians(dlon) / 2.0) ** 2)
    # rounding can push the haversine a hair outside [0, 1]
    h = np.clip(h, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h))


def _lags(lat1, lon1, alt1, lat2, lon2, alt2):
    """Horizontal and vertical lag ``(d_h, d_v)`` in metres, elementwise.

    ``d_h`` is the great-circle distance between the ground projections
    and ``d_v`` the absolute altitude difference: the two arguments of
    the separable correlation model.  Inputs broadcast like numpy
    arithmetic, and no input is copied to the broadcast shape.
    """
    d_h = _arc_distance(lat1, lon1, lat2, lon2)
    return d_h, np.abs(np.asarray(alt1, dtype=float)
                       - np.asarray(alt2, dtype=float))


def _cross_lags(lat1, lon1, alt1, lat2, lon2, alt2):
    """:func:`_lags` from every point of 1-D columns 1 to every point of 2.

    Both returned matrices have shape ``(len(lat1), len(lat2))``.
    """
    return _lags(lat1[:, None], lon1[:, None], alt1[:, None],
                 lat2[None, :], lon2[None, :], alt2[None, :])


def _grid_axes(lat, lon, alt):
    """``(lat_rows, lon_cols)`` of 1-D target columns laid out as a grid.

    The columns qualify when they are the row-major nodes of a
    ``len(lat_rows)`` x ``len(lon_cols)`` grid at one altitude: node
    ``j`` sits at ``(lat_rows[j // C], lon_cols[j % C])`` with
    ``C = len(lon_cols)``, which is how ``GridSpec.node_latlon()``
    ravels.  Returns None for any other layout.  Every node is compared
    exactly with its row and column, so a layout accepted here names
    each target's own coordinates.
    """
    n = lat.size
    if n == 0 or np.any(alt != alt[0]):
        return None
    # a row is the run of nodes sharing the first node's latitude
    n_cols = int(np.argmax(lat != lat[0])) or n
    if n % n_cols:
        return None
    lat_rows, lon_cols = lat[::n_cols], lon[:n_cols]
    if (np.any(lat.reshape(-1, n_cols) != lat_rows[:, None])
            or np.any(lon.reshape(-1, n_cols) != lon_cols)):
        return None
    return lat_rows, lon_cols


def _grid_lags(lat1, lon1, alt1, lat_rows, lon_cols, alt2, nodes):
    """:func:`_cross_lags` from 1-D columns 1 to a slice of grid nodes.

    The targets are the ``nodes`` slice of the row-major nodes of the
    grid :func:`_grid_axes` describes, at altitude ``alt2``.  The slice
    is cut into at most three rectangles of the grid (the tail of its
    first row, its whole rows, the head of its last row), and each goes
    through :func:`_lags` with points 1 shaped ``(n, 1, 1)``, grid rows
    ``(1, r, 1)`` and grid columns ``(1, 1, c)``.  The sines and cosines
    of :func:`_arc_distance` are then taken once per (point, row) and
    per (point, column); only their combination runs per node.  Each
    node's lag is made of the same operations on the same values as in
    :func:`_cross_lags`, so it has the same bits.  Cutting the slice,
    rather than covering its rows whole, computes no node outside it,
    and keeps a block near its size when grid rows are longer than it.

    Returns ``d_h`` of shape ``(n, len(nodes))`` and ``d_v`` as one
    column ``(n, 1)``, since every node has the same altitude.
    """
    lat1, lon1 = lat1[:, None, None], lon1[:, None, None]
    pieces = []
    for rows, cols in _grid_rectangles(nodes, lon_cols.size):
        d_h, d_v = _lags(lat1, lon1, alt1[:, None],
                         lat_rows[None, rows, None], lon_cols[None, None, cols],
                         alt2)
        pieces.append(d_h.reshape(len(lat1), -1))
    if len(pieces) == 1:
        return pieces[0], d_v
    return np.concatenate(pieces, axis=1), d_v


def _grid_rectangles(nodes, n_cols):
    """``(rows, cols)`` slice pairs of the grid rectangles that make up,
    in row-major order, the ``nodes`` slice of a grid ``n_cols`` wide."""
    r0, c0 = divmod(nodes.start, n_cols)
    r1, c1 = divmod(nodes.stop, n_cols)
    if r0 == r1:
        return [(slice(r0, r0 + 1), slice(c0, c1))]
    out = []
    if c0:
        out.append((slice(r0, r0 + 1), slice(c0, n_cols)))
        r0 += 1
    if r1 > r0:
        out.append((slice(r0, r1), slice(0, n_cols)))
    if c1:
        out.append((slice(r1, r1 + 1), slice(0, c1)))
    return out


def _lag_kernel(cov_at, lat, lon, alt):
    """``cov_at(d_h, d_v)`` between every two points of 1-D columns.

    The n x n result is allocated once, in Fortran order, and filled one
    block of columns at a time, so no other array of its size exists
    and LAPACK can factorize it in place.  Each block is computed as
    rows and stored transposed, which :func:`_lags` allows: swapping
    its two points gives the same bits.
    """
    n = len(lat)
    out = np.empty((n, n), order="F")
    for b in _blocks(n, n):
        out[:, b] = cov_at(*_cross_lags(lat[b], lon[b], alt[b], lat, lon, alt)).T
    return out


def _blocks(n: int, width: int):
    """Consecutive slices covering ``range(n)``, in order.

    A block holds about ``_BLOCK_ELEMENTS // width`` items, so a block
    of items times ``width`` float64 values stays near 8 MB whatever
    ``n`` is.  Its length is rounded down to a whole multiple of
    ``_BLOCK_ALIGN`` (24) items, and is never below that.  BLAS kernels
    take the columns of a matrix-vector product or a triangular solve
    in groups (4, 8 or 12 in single-threaded OpenBLAS on AVX2); blocks
    whose lengths are multiples of 24 keep every group whole, so a
    blocked product or solve gives the same bits as one call over all
    the items.
    """
    step = _BLOCK_ELEMENTS // max(1, width) // _BLOCK_ALIGN * _BLOCK_ALIGN
    step = max(_BLOCK_ALIGN, step)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _bearing_deg(lat1, lon1, lat2, lon2):
    """Initial great-circle bearing from point 1 to point 2.

    Degrees clockwise from north in [0, 360).  Zero when the points
    share a ground projection.
    """
    p1 = np.radians(lat1)
    p2 = np.radians(lat2)
    dlon = np.radians(np.asarray(lon2, dtype=float) - np.asarray(lon1, dtype=float))
    y = np.sin(dlon) * np.cos(p2)
    x = np.cos(p1) * np.sin(p2) - np.sin(p1) * np.cos(p2) * np.cos(dlon)
    return np.degrees(np.arctan2(y, x)) % 360.0


def link_geometry(gs: GeoPoint, uav: GeoPoint, wavelength_m: float) -> LinkGeometry:
    """Full direct-plus-reflected geometry for one link.

    Args:
        gs: ground-station antenna location (``alt_m`` >= 0).
        uav: receiver location (``alt_m`` >= 0).
        wavelength_m: carrier wavelength in metres.

    Returns:
        A populated :class:`LinkGeometry`.

    Raises:
        DegenerateLink: if the two points coincide.
        RangeError: if an antenna height is negative or the wavelength
            is not positive.
    """
    if gs.alt_m < 0 or uav.alt_m < 0:
        raise RangeError("antenna heights must be >= 0 for reflection geometry")
    if wavelength_m <= 0:
        raise RangeError("wavelength must be positive")
    fields = _link_fields(
        gs.lat_deg, gs.lon_deg, gs.alt_m,
        uav.lat_deg, uav.lon_deg, uav.alt_m,
        wavelength_m,
    )
    geom = LinkGeometry(*(float(v) for v in fields))
    if geom.d_3d == 0.0:
        raise DegenerateLink("ground station and receiver coincide")
    return geom


def link_geometry_batch(gs: GeoPoint, lat, lon, alt, wavelength_m: float):
    """Vectorized :func:`link_geometry` against a fixed ground station.

    Args:
        gs: ground-station location.
        lat, lon, alt: equal-length arrays of receiver coordinates.
        wavelength_m: carrier wavelength in metres.

    Returns:
        ``(geom, valid)`` where ``geom`` is a :class:`LinkGeometry` of
        arrays and ``valid`` is a boolean mask, False where a receiver
        coincides with the station (those entries hold NaN angles).
    """
    if gs.alt_m < 0:
        raise RangeError("antenna heights must be >= 0 for reflection geometry")
    if wavelength_m <= 0:
        raise RangeError("wavelength must be positive")
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    alt = np.asarray(alt, dtype=float)
    if np.any(alt < 0):
        raise RangeError("antenna heights must be >= 0 for reflection geometry")
    fields = _link_fields(
        gs.lat_deg, gs.lon_deg, gs.alt_m, lat, lon, alt, wavelength_m
    )
    geom = LinkGeometry(*fields)
    valid = np.asarray(geom.d_3d) > 0.0
    return geom, valid


def _link_fields(glat, glon, galt, ulat, ulon, ualt, wavelength_m):
    d_h, d_v = _lags(glat, glon, galt, ulat, ulon, ualt)
    d_3d = np.hypot(d_h, d_v)

    phi_t = _bearing_deg(glat, glon, ulat, ulon)
    phi_r = _bearing_deg(ulat, ulon, glat, glon)

    dz = np.asarray(ualt, dtype=float) - galt
    # direct ray: elevation at the station, depression at the receiver;
    # the flat-earth tangent plane makes the two magnitudes equal
    theta_t = np.degrees(np.arctan2(dz, d_h))
    theta_r = theta_t

    # image construction: mirror the station below ground, the reflected
    # path length is the straight line to the image
    h_sum = galt + np.asarray(ualt, dtype=float)
    path_ref = np.hypot(d_h, h_sum)
    with np.errstate(invalid="ignore"):
        theta_ref = np.degrees(np.arctan2(h_sum, d_h))
    # split the reflected path at the specular point
    x_s = np.divide(
        d_h * galt, h_sum,
        out=np.zeros_like(d_h * 1.0),
        where=h_sum > 0,
    )
    d1 = np.hypot(x_s, galt)
    d2 = np.hypot(d_h - x_s, ualt)
    delta_tau = 2.0 * np.pi * (path_ref - d_3d) / wavelength_m

    theta_t1 = -theta_ref
    theta_r1 = theta_ref
    phi_t1 = phi_t
    phi_r1 = phi_r
    return (
        d_h, d_v, d_3d,
        phi_t, theta_t, phi_r, theta_r,
        phi_t1, theta_t1, phi_r1, theta_r1,
        theta_ref, d1, d2, delta_tau,
    )


def to_local_xy(lat, lon, origin: GeoPoint):
    """Project coordinates to a local tangent plane at ``origin``.

    Returns ``(x_east, y_north)`` in metres.  Good to well under a part
    in 1e4 for the sub-kilometre extents this package works over.
    """
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    scale = np.cos(np.radians(origin.lat_deg))
    x = np.radians(lon - origin.lon_deg) * EARTH_RADIUS_M * scale
    y = np.radians(lat - origin.lat_deg) * EARTH_RADIUS_M
    return x, y


def from_local_xy(x, y, origin: GeoPoint):
    """Inverse of :func:`to_local_xy`; returns ``(lat_deg, lon_deg)``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scale = np.cos(np.radians(origin.lat_deg))
    lat = origin.lat_deg + np.degrees(y / EARTH_RADIUS_M)
    lon = origin.lon_deg + np.degrees(x / (EARTH_RADIUS_M * scale))
    return lat, lon
