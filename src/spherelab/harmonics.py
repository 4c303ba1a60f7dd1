"""Spherical harmonics of one eigenspace: basis evaluation, kernel identities, pointwise sums.

Basis conventions.  For degree k the orthonormal basis is

    Y_km(phi, theta) = N(k, m, cos phi) * exp(i m theta),   m = -k..k,

with N from the Legendre layer and Y_{k,-m} = (-1)^m conj(Y_km).  Coefficient
vectors over the basis are indexed by m = -k..k, entry i holding order
m = i - k.  The zonal element Z_k = Y_k0 peaks at the poles; the highest
weight element Q_k = Y_kk is the Gaussian beam concentrated near the equator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .legendre import (
    _sectoral_log,
    legendre_p,
    normalized_assoc_legendre_row,
    normalized_legendre_table,
)
from .quadrature import HarmonicField, QuadratureGrid
from .sphere import SpherePoint, rotation_to_pole

__all__ = [
    "EigenvalueInfo",
    "eval_basis_row",
    "signed_order_table",
    "synthesize_rings",
    "projection_kernel",
    "ell_p_sum",
    "ell_p_profile",
    "theta_integral",
    "pointwise_envelope",
    "standard_field",
    "zonal_field",
    "highest_weight_field",
    "beam_field",
    "coefficient_field",
    "ell4_sum_field",
]


@dataclass(frozen=True)
class EigenvalueInfo:
    """Spectral data of the degree-k eigenspace: lam^2 = k(k+1), dim = 2k+1."""

    k: int

    @property
    def lam(self) -> float:
        return math.sqrt(self.k * (self.k + 1))

    @property
    def multiplicity(self) -> int:
        return 2 * self.k + 1


def _point(x) -> SpherePoint:
    return x if isinstance(x, SpherePoint) else SpherePoint(x)


def eval_basis_row(k: int, x) -> np.ndarray:
    """All 2k+1 basis values at one point, ordered m = -k..k.

    One downward Legendre sweep serves every order, so the cost is O(k)
    rather than the O(k^2) of per-order evaluation.
    """
    k = int(k)
    pt = _point(x)
    radial = _signed_orders(k, normalized_assoc_legendre_row(k, math.cos(pt.phi))[None, :])[0]
    return radial * np.exp(1j * np.arange(-k, k + 1) * pt.theta)


def signed_order_table(k: int, t) -> np.ndarray:
    """Radial factors for all orders m = -k..k at each t, shape (len(t), 2k+1).

    Column i holds N(k, m, t) for m = i - k, with the (-1)^m factor applied to
    the negative orders, so a field synthesis only needs the theta phases.
    """
    return _signed_orders(k, normalized_legendre_table(k, t))


def _signed_orders(k: int, base) -> np.ndarray:
    """Spread a (len(t), k+1) table over m = -k..k with the (-1)^m sign on negative orders."""
    m = np.arange(-k, k + 1)
    sign = np.where((m < 0) & (np.abs(m) % 2 == 1), -1.0, 1.0)
    return base[:, np.abs(m)] * sign[None, :]


def synthesize_rings(k: int, coefficients, grid: QuadratureGrid):
    """Iterate over the grid rings of the fields sum_m c_jm Y_km, one per row of c.

    ``coefficients`` has shape (rows, 2k+1), orders m = -k..k.  The radial
    table and the longitude phases are built once; each step yields one
    ring's values, shape (rows, n_theta), so memory stays at one ring
    however many fields are synthesized.
    """
    k = int(k)
    coefficients = np.asarray(coefficients, dtype=complex)
    if coefficients.ndim != 2 or coefficients.shape[1] != 2 * k + 1:
        raise ValueError(f"expected coefficient rows of length {2 * k + 1} for degree {k}")
    table = signed_order_table(k, grid.t)
    phases = np.exp(1j * np.outer(np.arange(-k, k + 1), grid.theta))
    return ((coefficients * radial[None, :]) @ phases for radial in table)


def projection_kernel(k: int, x, y) -> float:
    """Reproducing kernel of the degree-k eigenspace, ((2k+1)/4pi) P_k(x . y)."""
    a = _point(x).xyz
    b = _point(y).xyz
    dot = float(np.clip(a @ b, -1.0, 1.0))
    return float((2 * k + 1) / (4.0 * np.pi) * legendre_p(k, dot))


def ell_p_sum(k: int, x, p) -> float:
    """Pointwise ell^p norm across the eigenspace basis: (sum_m |Y_km(x)|^p)^(1/p).

    p = 2 returns sqrt((2k+1)/4pi) for every x (the pointwise Weyl sum);
    p = inf returns the largest single |Y_km(x)|.
    """
    k = int(k)
    pt = _point(x)
    base = np.abs(normalized_assoc_legendre_row(k, math.cos(pt.phi)))
    if p == np.inf or p == float("inf"):
        return float(base.max())
    p = float(p)
    if p < 1.0:
        raise ValueError("ell_p_sum requires p >= 1")
    powers = base**p
    total = powers[0] + 2.0 * powers[1:].sum()
    return float(total ** (1.0 / p))


def ell_p_profile(k: int, t, p: float) -> np.ndarray:
    """ell_p_sum as a function of colatitude only, vectorized over t = cos(phi).

    The sum is longitude-independent, so sweeps over many points should use
    this table-driven form; agrees with per-point ell_p_sum to rounding.
    """
    base = np.abs(normalized_legendre_table(k, t))
    p = float(p)
    if not math.isfinite(p):
        return base.max(axis=1)
    powers = base**p
    total = powers[:, 0] + 2.0 * powers[:, 1:].sum(axis=1)
    return total ** (1.0 / p)


def theta_integral(k: int, x) -> float:
    """Integral over rotations about the polar axis of the squared kernel.

    Computes int_0^{2pi} |Pi_k(x, R_theta x)|^2 dtheta on the uniform grid of
    4k+1 angles, which integrates this trigonometric polynomial of degree 4k
    exactly.  Equals 2pi * ell_p_sum(k, x, 4)^4, an identity the tests pin.
    """
    k = int(k)
    pt = _point(x)
    n = 4 * k + 1
    theta = 2.0 * np.pi * np.arange(n) / n
    c = math.cos(pt.phi)
    s2 = 1.0 - c * c
    cosd = s2 * np.cos(theta) + c * c
    kernel = (2 * k + 1) / (4.0 * np.pi) * legendre_p(k, np.clip(cosd, -1.0, 1.0))
    return float((2.0 * np.pi / n) * np.sum(kernel**2))


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


def standard_field(k: int, m: int, grid: QuadratureGrid) -> HarmonicField:
    """Sample Y_km on the grid."""
    k = int(k)
    m = int(m)
    return _order_field(k, m, grid, signed_order_table(k, grid.t), f"Y_{k}_{m}")


def _order_field(k: int, m: int, grid: QuadratureGrid, table, label: str) -> HarmonicField:
    """Y_km on the grid, read from ``table`` = signed_order_table(k, grid.t)."""
    if abs(m) > k:
        raise ValueError(f"order {m} out of range for degree {k}")
    phases = np.exp(1j * m * grid.theta)
    return HarmonicField(grid, table[:, m + k][:, None] * phases[None, :], label, k)


def zonal_field(k: int, grid: QuadratureGrid) -> HarmonicField:
    field = standard_field(k, 0, grid)
    field.label = f"Z_{k}"
    return field


def highest_weight_field(k: int, grid: QuadratureGrid) -> HarmonicField:
    field = standard_field(k, k, grid)
    field.label = f"Q_{k}"
    return field


def beam_field(k: int, axis, grid: QuadratureGrid) -> HarmonicField:
    """Highest weight harmonic rebuilt around an arbitrary axis, evaluated directly.

    Evaluates c_k ((Rx)_1 + i (Rx)_2)^k with R the deterministic rotation
    taking the axis to the pole; the modulus is axis-frame invariant, only a
    global phase depends on R.  The power is taken in log space so large k
    cannot underflow the profile.  This pointwise evaluation shares no code
    with the closed-form ``beams.beam_coefficients``, so synthesizing those
    coefficients and comparing against this field checks both.
    """
    k = int(k)
    rot = rotation_to_pole(axis)
    xyz = grid.points()
    rotated = xyz @ rot.T
    y1 = rotated[..., 0]
    y2 = rotated[..., 1]
    s = np.hypot(y1, y2)
    with np.errstate(divide="ignore"):
        log_mag = _sectoral_log(k) + k * np.log(np.where(s > 0.0, s, 1.0))
    alpha = np.arctan2(y2, y1)
    values = np.where(s > 0.0, np.exp(log_mag), 0.0) * np.exp(1j * k * alpha)
    if k == 0:
        values = np.full(grid.shape, 1.0 / np.sqrt(4.0 * np.pi), dtype=complex)
    return HarmonicField(grid, values, f"beam_{k}", k)


def coefficient_field(k: int, coefficients, grid: QuadratureGrid, label: str = "") -> HarmonicField:
    """Synthesize sum_m c_m Y_km on the grid from a coefficient vector (m = -k..k)."""
    k = int(k)
    values = np.concatenate(list(synthesize_rings(k, [coefficients], grid)))
    return HarmonicField(grid, values, label or f"coeff_{k}", k)


def ell4_sum_field(k: int, grid: QuadratureGrid) -> HarmonicField:
    """The real field x -> (sum_m |Y_km(x)|^4)^(1/4), sampled on the grid.

    Longitude-independent; used by the superlevel experiments.
    """
    profile = ell_p_profile(k, grid.t, 4.0)
    values = np.broadcast_to(profile[:, None], grid.shape).astype(complex)
    return HarmonicField(grid, values.copy(), f"ell4_sum_{k}", k)
