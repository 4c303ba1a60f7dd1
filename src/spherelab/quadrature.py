"""Product quadrature on the sphere, sampled fields, the L^q rule, tube and superlevel measures.

The grid is Gauss-Legendre in t = cos(phi) crossed with uniform longitudes.
With n_phi nodes and n_theta longitudes it integrates exactly any integrand
that is a polynomial of degree <= 2*n_phi - 1 in cos(phi) times a
trigonometric polynomial of degree <= n_theta - 1 in theta.  Every integral
in the package weights the nodes by ``QuadratureGrid.ring_weight``, the one
exactness certificate; ``integrate`` and ``integrate_profile`` reduce grid
densities and per-ring profiles, while ``quartic_norms``, the identity Gram
check, the tube masses and ``superlevel_measure`` reduce in their own orders.
"""

import ctypes
import functools
import os

import numpy as np

from .sphere import _as_unit, circle_frame

__all__ = [
    "GridResolutionError",
    "QuadratureGrid",
    "build_grid",
    "HarmonicField",
    "profile_norm",
    "arc_selections",
    "superlevel_measure",
]

MAX_GRID_POINTS = 50_000_000


class GridResolutionError(ValueError):
    """Raised when a grid is too small (or too large) for the requested task."""


class QuadratureGrid:
    """Gauss-Legendre x uniform-longitude product grid.

    Attributes
    ----------
    band : int
        The parameter k the grid was built for.
    t, ring_weight : arrays of shape (n_phi,)
        Gauss-Legendre nodes in cos(phi), strictly ascending, and the per-point weight
        w_i * (2 pi / n_theta); summing ring_weight * n_theta gives 4 pi.
    theta : array of shape (n_theta,)
        Uniform longitudes 2 pi j / n_theta.
    """

    def __init__(self, band: int, oversample: float, t, gl_weight, n_theta: int):
        self.band = int(band)
        self.oversample = float(oversample)
        self.t = np.asarray(t, dtype=float)
        if not np.all(np.diff(self.t) > 0.0):
            raise ValueError("ring nodes t must be strictly ascending")
        self.n_phi = self.t.size
        self.n_theta = int(n_theta)
        self.theta = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta
        self.ring_weight = np.asarray(gl_weight, dtype=float) * (2.0 * np.pi / self.n_theta)
        self._xyz = None
        # random_bases.quartic_norms' set-up per degree k, built on first use.
        self._quartic = {}

    @property
    def sin_phi(self) -> np.ndarray:
        return np.sqrt(np.maximum(0.0, 1.0 - self.t * self.t))

    @property
    def n_points(self) -> int:
        return self.n_phi * self.n_theta

    @property
    def shape(self):
        return (self.n_phi, self.n_theta)

    @property
    def cos_degree_exact(self) -> int:
        """Largest polynomial degree in cos(phi) integrated exactly."""
        return 2 * self.n_phi - 1

    @property
    def trig_degree_exact(self) -> int:
        """Largest trigonometric degree in theta integrated exactly."""
        return self.n_theta - 1

    def points(self) -> np.ndarray:
        """Cartesian coordinates of all nodes, shape (n_phi, n_theta, 3).

        Cached for the grid's lifetime: the arc sweep reads them once per axis.
        """
        if self._xyz is None:
            s = self.sin_phi
            ct = np.cos(self.theta)
            st = np.sin(self.theta)
            xyz = np.empty((self.n_phi, self.n_theta, 3))
            xyz[:, :, 0] = s[:, None] * ct[None, :]
            xyz[:, :, 1] = s[:, None] * st[None, :]
            xyz[:, :, 2] = np.broadcast_to(self.t[:, None], (self.n_phi, self.n_theta))
            self._xyz = xyz
        return self._xyz

    def integrate(self, values) -> complex:
        """Integral over the sphere of a sampled integrand, shape (n_phi, n_theta).

        The reduction order (sum over theta per ring, then the weighted ring
        sum) is fixed, so repeated calls are bitwise reproducible.
        """
        values = np.asarray(values)
        if values.shape != self.shape:
            raise ValueError(f"expected values of shape {self.shape}, got {values.shape}")
        ring_sums = values.sum(axis=1)
        total = self.ring_weight @ ring_sums
        if np.iscomplexobj(values):
            return complex(total)
        return float(total)

    def integrate_profile(self, profile) -> float:
        """Integral of a longitude-independent real integrand given per ring."""
        profile = np.asarray(profile, dtype=float)
        if profile.shape != (self.n_phi,):
            raise ValueError(f"expected profile of shape ({self.n_phi},)")
        return float((self.ring_weight * self.n_theta) @ profile)

    def describe(self) -> dict:
        return {
            "type": "gauss_legendre_x_uniform",
            "band": self.band,
            "oversample": self.oversample,
            "n_phi": self.n_phi,
            "n_theta": self.n_theta,
            "n_points": self.n_points,
            "cos_degree_exact": self.cos_degree_exact,
            "trig_degree_exact": self.trig_degree_exact,
        }

    def __repr__(self):
        return f"QuadratureGrid(band={self.band}, n_phi={self.n_phi}, n_theta={self.n_theta})"


def build_grid(k: int, oversample: float = 1.0) -> QuadratureGrid:
    """Grid exact for products of up to four degree-k harmonics.

    n_phi = ceil(oversample * (2k+1)) Gauss-Legendre nodes and
    n_theta = ceil(oversample * (4k+1)) uniform longitudes.  At oversample 1
    this integrates cos(phi)-polynomials of degree 4k+1 and trigonometric
    polynomials of degree 4k exactly, which covers |f|^4 for any degree-k
    field f.  For ||f||_q with even q build the grid with band ceil(q*k/4).
    The point count is checked against MAX_GRID_POINTS in floating point, so
    an oversized request is refused before any integer is formed.
    """
    k = int(k)
    n_phi, n_theta = _grid_size(k, oversample)
    t, w = _gauss_legendre(n_phi)
    return QuadratureGrid(k, oversample, t, w, n_theta)


def _grid_size(k: int, oversample: float) -> tuple:
    """(n_phi, n_theta) of ``build_grid(k, oversample)``, or the error it raises."""
    if k < 0:
        raise ValueError("band parameter must be >= 0")
    if not 1.0 <= oversample < np.inf:
        raise ValueError("oversample must be finite and >= 1")
    n_phi = float(np.ceil(oversample * (2 * k + 1)))
    n_theta = float(np.ceil(oversample * (4 * k + 1)))
    if n_phi * n_theta > MAX_GRID_POINTS:
        raise GridResolutionError(
            f"grid would need {n_phi * n_theta:.3g} points, cap is {MAX_GRID_POINTS}"
        )
    return int(n_phi), int(n_theta)


@functools.lru_cache(maxsize=128)
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights of order n, shared read-only between grids.

    numpy's ``leggauss(n)`` bit for bit in O(n^2) time and O(n) memory: its
    dense ``eigvalsh`` of the tridiagonal companion matrix (Golub-Welsch) is
    LAPACK's dsytrd, which leaves that matrix as it is, then dsterf, so here
    dsterf runs on the two diagonals alone, followed by ``leggauss``'s lines.
    Where numpy's OpenBLAS exports no int64 dsterf, ``leggauss`` runs.
    """
    from numpy.polynomial.legendre import legder, leggauss, legval  # loaded lazily by numpy

    dsterf = _openblas()[2]
    if dsterf is None:
        x, w = leggauss(n)
    else:
        # legcompanion's off-diagonal; its diagonal is zero.
        scl = 1. / np.sqrt(2 * np.arange(n) + 1)
        x = np.zeros(n)
        e = np.arange(1, n) * scl[:n - 1] * scl[1:n]
        info = ctypes.c_int64()
        dsterf(ctypes.byref(ctypes.c_int64(n)), x, e, ctypes.byref(info))
        if info.value:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        c = np.array([0] * n + [1])
        dy = legval(x, c)
        df = legval(x, legder(c))
        x -= dy / df
        fm = legval(x, c[1:])
        fm /= np.abs(fm).max()
        df /= np.abs(df).max()
        w = 1 / (fm * df)
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
        w *= 2. / w.sum()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


# Thread-count setter and getter pairs, tried in this order: scipy-openblas
# wheels (numpy's own), then OpenBLAS builds with 64-bit and with 32-bit ints.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
# LAPACK's dsterf under the names whose integers are int64.
_DSTERF_SYMBOLS = ("scipy_dsterf_64_", "dsterf_64_")


@functools.cache
def _openblas() -> tuple:
    """numpy's OpenBLAS as (set_threads, get_threads, dsterf); looked up once, on first use.

    Reads the shared objects this process has mapped from /proc/self/maps
    and takes the first file whose name contains ``openblas`` and that
    exports a set/get pair of ``_OPENBLAS_THREAD_SYMBOLS``; scipy's own
    OpenBLAS exports none of them, so numpy's is the one found.  ``dsterf``
    is its first export of ``_DSTERF_SYMBOLS``.  Whatever is not found is None.
    """
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return None, None, None
    paths = dict.fromkeys(f[5].rstrip("\n") for f in fields if len(f) == 6)
    for path in paths:
        if "openblas" not in os.path.basename(path):
            continue
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(library, set_name) and hasattr(library, get_name):
                set_threads, get_threads = getattr(library, set_name), getattr(library, get_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                dsterf = next((getattr(library, name) for name in _DSTERF_SYMBOLS
                               if hasattr(library, name)), None)
                if dsterf is not None:
                    index = ctypes.POINTER(ctypes.c_int64)
                    vector = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
                    dsterf.argtypes, dsterf.restype = [index, vector, vector, index], None
                return set_threads, get_threads, dsterf
    return None, None, None


class HarmonicField:
    """Complex values of one function sampled on a grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: QuadratureGrid, values):
        values = np.asarray(values)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
        self.grid = grid
        self.values = values.astype(np.complex128, copy=False)

    def __repr__(self):
        return f"HarmonicField(grid={self.grid!r})"


def _norm_exponent(q) -> float:
    """q as a float; anything but q >= 1 or q = inf (nan included) is a ValueError."""
    q = float(q)
    if not q >= 1.0:
        raise ValueError(f"norm exponent q must be >= 1, got {q:g}")
    return q


def profile_norm(grid: QuadratureGrid, profile, q) -> float:
    """||f||_q of a longitude-independent f given per ring, such as one column N(k, m, t).

    The one L^q rule: q >= 1, or q = inf for the max of |profile| over the
    nodes.  An even q powers the profile signed, because numpy's vectorized
    pow can round x^q an ulp away from |x|^q and the frozen tube-ratio rows
    were recorded with x^q.  A nonzero profile whose integral of |f|^q is zero,
    subnormal or infinite has no representable norm: a ValueError naming q.
    """
    profile = np.asarray(profile, dtype=float)
    q = _norm_exponent(q)
    if q == np.inf:
        return float(np.abs(profile).max())
    with np.errstate(over="ignore"):
        powers = profile**q if q % 2.0 == 0.0 else np.abs(profile) ** q
    integral = grid.integrate_profile(powers)
    if not np.finfo(float).tiny <= integral < np.inf and profile.any():
        raise ValueError(f"norm exponent q = {q:g} is out of range: the integral of |f|^q "
                         f"is {integral:.3g}, outside the normal double range")
    return float(integral ** (1.0 / q))


# The tube-ratio sweep's geometry: each great circle is cut into _N_ARCS
# arcs of length _ARC_LENGTH, the unit arcs of Sogge's tube criterion.
# arc_selections needs 2 pi / _N_ARCS < _ARC_LENGTH < 4 pi / _N_ARCS, _N_ARCS a power of two.
_N_ARCS = 8
_ARC_LENGTH = 1.0
# Arc-end band in which arc_selections re-tests points by the wrap expression.
_ARC_TIE = 1e-9


def arc_selections(grid: QuadratureGrid, axis, width: float):
    """Unit-arc segments of the tube around the great circle normal to axis, as tube-local indices.

    Returns ``(ring, col, arcs)``: the tube's nodes as (ring, column) indices in C
    order and, in a (2, n_tube) int8 array, each node's nearest arc and its adjacent
    second arc, -1 where there is none.  A tube mass sums over the nodes in that order,
    such as ``(grid.ring_weight[ring] * np.abs(values[ring, col]) ** 2).sum()``.

    ``axis`` is a nonzero 3-vector, normalized on entry to the unit axis a.
    Membership is |x . a| <= sin(width) decided at the node center, with no
    partial-cell weighting; width >= pi/2 (inf included) is the whole sphere.
    A point within angular distance width of the circle lies at latitude at
    most alpha + width, alpha being the angle between the circle's axis and
    the nearer pole, so only the rings with |t| <= sin(alpha + width), one
    band of the ascending nodes, can meet the tube; the node test runs there.

    The tube is cut into eight overlapping unit arcs: segment j keeps the
    tube points whose arc parameter, measured in the circle's frame, lies
    within 1/2 of the center 2 pi j / 8.  With step = 2 pi / 8, a point's
    nearest center is at most step / 2 = pi/8 < 1/2 away, so its arc always
    holds the point; the next center on the point's side is between pi/8
    and pi/4 away and is the only one tested; every other center is at
    least pi/4 > 1/2 away.  Memberships are those of the wrap distance
    |((s - c + pi) mod 2 pi) - pi| tested at every center, bit for bit.
    """
    a = _as_unit(axis)
    width = float(width)
    if not width > 0.0:
        raise ValueError(f"tube width must be positive, got {width!r}")
    if width >= np.pi / 2:
        lo, hi, sin_width = 0, grid.n_phi, np.inf
    else:
        alpha = np.arctan2(np.hypot(a[0], a[1]), abs(a[2]))
        # The margin keeps every ring whose nodes could pass the node test by
        # rounding; the test itself decides membership.
        t_max = np.sin(min(np.pi / 2, alpha + width)) + 1e-6
        lo, hi = np.searchsorted(grid.t, [-t_max, t_max])
        sin_width = np.sin(width)
    band = grid.points()[lo:hi]
    dots = band @ a
    np.abs(dots, out=dots)
    tube = np.flatnonzero(dots <= sin_width) + lo * grid.n_theta
    del dots
    ring = tube // grid.n_theta
    col = tube - ring * grid.n_theta
    u, v = circle_frame(a)
    xyz = np.take(grid.points().reshape(-1, 3), tube, axis=0)
    ang = np.arctan2(xyz @ v, xyz @ u)
    del xyz, tube
    half = 0.5 * _ARC_LENGTH
    step = 2.0 * np.pi / _N_ARCS
    # x is each point's offset from its nearest center, in steps; the next center
    # on its side is step * (1 - |x|) away.  That distance differs from the wrap
    # expression only by rounding, far below _ARC_TIE, so the wrap expression
    # decides just the points within _ARC_TIE of the second arc's end.
    near = np.rint(ang / step)
    x = ang / step - near
    arcs = np.array([near, near + np.sign(x)], dtype=np.int8) & (_N_ARCS - 1)  # mod _N_ARCS
    x = np.abs(x) - (1.0 - half / step)  # how far the second arc reaches past the point
    tie = np.flatnonzero(np.abs(x) <= _ARC_TIE / step)
    wrap = (ang[tie] - 2.0 * np.pi * arcs[1, tie] / _N_ARCS + np.pi) % (2.0 * np.pi) - np.pi
    x[tie] = half - np.abs(wrap)  # the same reach, in radians: only its sign is read
    np.putmask(arcs[1], x < 0.0, -1)
    return ring, col, arcs


def superlevel_measure(grid: QuadratureGrid, profile, threshold: float) -> float:
    """Measure of {|f| >= threshold}, |f| per ring; node weights summed as over a grid mask."""
    threshold = float(threshold)
    if threshold < 0.0:
        raise ValueError("threshold must be >= 0")
    rings = np.flatnonzero(np.abs(np.asarray(profile, dtype=float)) >= threshold)
    return float(np.repeat(grid.ring_weight[rings], grid.n_theta).sum())
