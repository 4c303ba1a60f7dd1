"""Spherical harmonics of one eigenspace: basis evaluation, kernel identities, pointwise sums.

Basis conventions.  For degree k the orthonormal basis is

    Y_km(phi, theta) = N(k, m, cos phi) * exp(i m theta),   m = -k..k,

with N from the Legendre layer and Y_{k,-m} = (-1)^m conj(Y_km).  Coefficient
vectors over the basis are indexed by m = -k..k, entry i holding order
m = i - k.  The zonal element Z_k = Y_k0 peaks at the poles; the highest
weight element Q_k = Y_kk is the Gaussian beam concentrated near the equator.
"""

import math

import numpy as np

from .legendre import (
    _sectoral_log,
    legendre_p,
    normalized_assoc_legendre_row,
    normalized_legendre_table,
)
from .quadrature import HarmonicField, QuadratureGrid, _norm_exponent
from .sphere import _as_unit, rotation_to_pole

__all__ = [
    "eval_basis_row",
    "signed_order_table",
    "projection_kernel",
    "ell_p_sum",
    "ell_p_profile",
    "theta_integral",
    "pointwise_envelope",
    "beam_field",
    "coefficient_field",
]


def _polar(x) -> tuple:
    """(phi, theta) of the nonzero 3-vector x: colatitude in [0, pi], longitude in (-pi, pi]."""
    v = _as_unit(x)
    return float(np.arccos(min(1.0, max(-1.0, float(v[2]))))), float(np.arctan2(v[1], v[0]))


def eval_basis_row(k: int, x) -> np.ndarray:
    """All 2k+1 basis values at one point, ordered m = -k..k.

    One downward Legendre sweep serves every order, so the cost is O(k)
    rather than the O(k^2) of per-order evaluation.
    """
    k = int(k)
    phi, theta = _polar(x)
    radial = _signed_orders(k, normalized_assoc_legendre_row(k, math.cos(phi))[None, :])[0]
    return radial * np.exp(1j * np.arange(-k, k + 1) * theta)


def signed_order_table(k: int, t) -> np.ndarray:
    """Radial factors for all orders m = -k..k at each t, shape (len(t), 2k+1).

    Column i holds N(k, m, t) for m = i - k, with the (-1)^m factor applied to
    the negative orders, so a field synthesis only needs the theta phases.
    """
    return _signed_orders(k, normalized_legendre_table(k, t))


def _signed_orders(k: int, base) -> np.ndarray:
    """Spread a (len(t), k+1) table over m = -k..k with the (-1)^m sign on negative orders."""
    out = base[:, np.abs(np.arange(-k, k + 1))]
    # Columns k-1, k-3, ... hold the odd negative orders m = -1, -3, ...
    out[:, :k][:, ::-2] *= -1.0
    return out


def _phases(k: int, theta) -> np.ndarray:
    """Longitude phases exp(i m theta_j), shape (2k+1, len(theta)), orders m = -k..k."""
    return np.exp(1j * np.outer(np.arange(-k, k + 1), theta))


def projection_kernel(k: int, x, y):
    """Reproducing kernel of the degree-k eigenspace, ((2k+1)/4pi) P_k(x . y).

    At equal-length sequences of points x and y, the array of kernels at the
    pairs: one ``legendre_p`` call on the clamped dots ``float(a @ b)``.  A
    point against a sequence, or sequences of unequal length, is a ValueError.
    """
    single = np.ndim(x) < 2 and np.size(x) > 0
    if single != (np.ndim(y) < 2 and np.size(y) > 0):
        raise ValueError(f"need two points or two sequences, got {np.shape(x)} and {np.shape(y)}")
    if not single and len(x) != len(y):
        raise ValueError(f"need sequences of equal length, got lengths {len(x)} and {len(y)}")
    pairs = zip([x], [y]) if single else zip(x, y)
    dots = [min(1.0, max(-1.0, float(_as_unit(a) @ _as_unit(b)))) for a, b in pairs]
    kernel = (2 * k + 1) / (4.0 * np.pi) * legendre_p(k, dots)
    return float(kernel[0]) if single else kernel


def ell_p_sum(k: int, x, p) -> float:
    """Pointwise ell^p norm across the eigenspace basis: (sum_m |Y_km(x)|^p)^(1/p).

    p = 2 returns sqrt((2k+1)/4pi) for every x (the pointwise Weyl sum);
    p = inf returns the largest single |Y_km(x)|.
    """
    k = int(k)
    phi = _polar(x)[0]
    p = _norm_exponent(p)
    base = np.abs(normalized_assoc_legendre_row(k, math.cos(phi)))
    if p == np.inf:
        return float(base.max())
    powers = base**p
    total = powers[0] + 2.0 * powers[1:].sum()
    return float(total ** (1.0 / p))


def ell_p_profile(k: int, t, p: float) -> np.ndarray:
    """ell_p_sum as a function of colatitude only, vectorized over t = cos(phi).

    The sum is longitude-independent, so sweeps over many points should use
    this table-driven form; agrees with per-point ell_p_sum to rounding.
    """
    p = _norm_exponent(p)
    # |N| and |N|^p overwrite the fresh table, so one table is held at a time.
    powers = normalized_legendre_table(k, t)
    np.abs(powers, out=powers)
    if p == np.inf:
        return powers.max(axis=1)
    powers **= p
    total = powers[:, 0] + 2.0 * powers[:, 1:].sum(axis=1)
    return total ** (1.0 / p)


def theta_integral(k: int, t):
    """Integral over rotations about the polar axis of the squared kernel.

    Computes int_0^{2pi} |Pi_k(x, R_theta x)|^2 dtheta on the uniform grid of
    4k+1 angles, which integrates this trigonometric polynomial of degree 4k
    exactly.  It depends on t = cos(phi) of x alone: a float, or an array.
    Equals 2pi * ell_p_sum(k, x, 4)^4, an identity the tests pin.
    """
    k = int(k)
    c = np.asarray(t, dtype=float)
    n = 4 * k + 1
    theta = 2.0 * np.pi * np.arange(n) / n
    cosd = (1.0 - c * c)[..., None] * np.cos(theta) + (c * c)[..., None]
    kernel = (2 * k + 1) / (4.0 * np.pi) * legendre_p(k, cosd)
    total = (2.0 * np.pi / n) * (kernel**2).sum(axis=-1)
    return total if c.ndim else float(total)


def pointwise_envelope(k: int, r: float) -> float:
    """Pointwise growth envelope for the ell^4 sum at polar distance r.

    k^(1/2) within the polar caps r <= 2/k, and
    k^(1/4) r^(-1/4) log(kr)^(1/4) outside, with log(kr) clamped below by
    log 2 (its value at the branch point) so rounding cannot produce a zero.
    """
    k = int(k)
    if k < 2:
        raise ValueError("envelope defined for k >= 2")
    r = float(r)
    if r < 0.0 or r > np.pi / 2 + 1e-12:
        raise ValueError("polar distance must lie in [0, pi/2]")
    if r <= 2.0 / k:
        return math.sqrt(k)
    log_term = max(math.log(k * r), math.log(2.0))
    return k**0.25 * r**-0.25 * log_term**0.25


# Points per ring block of beam_field: each temporary of a block is at most
# a few hundred kB, while each numpy call still covers thousands of points.
_BLOCK_POINTS = 2**14


def beam_field(k: int, axis, grid: QuadratureGrid) -> HarmonicField:
    """Highest weight harmonic rebuilt around an arbitrary axis, evaluated directly.

    Evaluates c_k ((Rx)_1 + i (Rx)_2)^k with R the deterministic rotation
    taking the axis a to the pole; only a global phase depends on R, and
    |f|^2 = c_k^2 (1 - (x . a)^2)^k is what ``tube-ratio`` reads, in closed
    form.  The power is taken in log space so large k cannot underflow.  No
    subcommand calls this: it shares no code with ``beams.beam_coefficients``,
    so the bench and the tests synthesize those coefficients against it to
    check both.  The field is filled block by block of whole rings, so the
    temporaries stay a block's size whatever the grid.
    """
    k = int(k)
    rot = rotation_to_pole(axis)
    values = np.empty(grid.shape, dtype=complex)
    if k == 0:
        values.fill(1.0 / np.sqrt(4.0 * np.pi))
        return HarmonicField(grid, values)
    xyz = grid.points()
    log_c = _sectoral_log(k)
    rings = max(1, _BLOCK_POINTS // grid.n_theta)
    for lo in range(0, grid.n_phi, rings):
        rotated = xyz[lo : lo + rings] @ rot.T
        y1 = rotated[..., 0]
        y2 = rotated[..., 1]
        s = np.hypot(y1, y2)
        with np.errstate(divide="ignore"):
            log_mag = log_c + k * np.log(np.where(s > 0.0, s, 1.0))
        alpha = np.arctan2(y2, y1)
        # The modulus multiplies the phase in place, the operation numpy's
        # temporary elision ran on the whole grid when the field was built in
        # one shot; the out-of-place product can flip the sign of an
        # underflowed zero imaginary part at large k.
        phase = np.exp(1j * k * alpha)
        phase *= np.where(s > 0.0, np.exp(log_mag), 0.0)
        values[lo : lo + rings] = phase
    return HarmonicField(grid, values)


def coefficient_field(k: int, coefficients, grid: QuadratureGrid) -> HarmonicField:
    """Synthesize sum_m c_m Y_km on the grid, ring by ring, from coefficients m = -k..k."""
    k = int(k)
    row = np.asarray(coefficients, dtype=complex)
    if row.shape != (2 * k + 1,):
        raise ValueError(f"expected a coefficient vector of length {2 * k + 1} for degree {k}")
    row = row[None, :]
    phases = _phases(k, grid.theta)
    values = np.empty(grid.shape, dtype=complex)
    for i, radial in enumerate(signed_order_table(k, grid.t)):
        values[i] = (row * radial) @ phases
    return HarmonicField(grid, values)
