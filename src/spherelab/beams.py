"""Gaussian-beam partial bases: separated axes, overlaps, orthonormalization, retention.

A beam is the highest weight harmonic rebuilt around an arbitrary great
circle; it concentrates in a k^(-1/2) tube around that circle.  Families of
beams along well-separated circles are nearly orthogonal (the overlap decays
like cos^{2k} of half the axis angle), so orthonormalizing them should barely
disturb their large L4 norms.  How many beams survive with their L4 mass
intact is the experiment (``experiments.beam_experiment``); nothing here
asserts an answer.

Beams live in coefficient space: a beam's expansion over {Y_km} is one
closed-form column of a Wigner rotation matrix, so building a family needs
no grid.  Grids enter only where fourth-power norms are integrated.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .legendre import log_factorial
from .quadrature import QuadratureGrid, build_grid
from .random_bases import CoefficientBasis, quartic_norms
from .sphere import circle_angle, fibonacci_axes, rotation_to_pole

__all__ = [
    "PackingInfeasibleError",
    "RankDeficiencyError",
    "BeamFamily",
    "OrthonormalizationReport",
    "beam_coefficients",
    "beam_overlap",
    "packing_bound",
    "place_separated_axes",
    "orthonormalize",
]


class PackingInfeasibleError(Exception):
    """Requested more separated great circles than the packing bound allows."""


class RankDeficiencyError(Exception):
    """Gram matrix of the family is numerically singular (eigenvalue floor 1e-10)."""


_GRAM_EIGENVALUE_FLOOR = 1e-10


def beam_coefficients(k: int, axis, grid=None) -> np.ndarray:
    """Expansion of the beam with the given axis over {Y_km}, orders m = -k..k.

    The beam is c_k (a . x)^k with a = R[0] + i R[1] and R =
    rotation_to_pole(axis) (see ``harmonics.beam_field``).  The isotropic
    vector a factors through a spinor (xi, eta) with xi^2 = (a_x - i a_y)/2,
    eta^2 = -(a_x + i a_y)/2 and xi eta = -a_z/2, and then

        c_m = (-1)^k sqrt(C(2k, k+m)) xi^(k+m) eta^(k-m),

    a column of the Wigner matrix D^k.  The square root is taken of the larger
    of xi^2 and eta^2 and the other factor follows from a_z, which keeps axes
    near either pole well conditioned.  |xi| = cos(beta/2) and |eta| =
    sin(beta/2) for the polar angle beta of the axis, and the magnitudes are
    formed in log space so no power under- or overflows at large k.  No grid
    is built; ``grid`` is accepted for callers that pass one and is ignored.
    """
    k = int(k)
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    rot = rotation_to_pole(axis)
    a = rot[0] + 1j * rot[1]
    xi_sq = (a[0] - 1j * a[1]) / 2.0
    eta_sq = -(a[0] + 1j * a[1]) / 2.0
    if abs(xi_sq) >= abs(eta_sq):
        xi = np.sqrt(xi_sq)
        eta = -a[2] / (2.0 * xi)
    else:
        eta = np.sqrt(eta_sq)
        xi = -a[2] / (2.0 * eta)
    up = np.arange(2 * k + 1)
    down = up[::-1]
    log_mag = (
        0.5 * (log_factorial(2 * k) - log_factorial(up) - log_factorial(down))
        + xlogy(up, abs(xi))
        + xlogy(down, abs(eta))
    )
    phase = up * np.angle(xi) + down * np.angle(eta)
    return (-1.0) ** k * np.exp(log_mag + 1j * phase)


def beam_overlap(k: int, axis1, axis2) -> complex:
    """Hermitian inner product of two beams; |overlap| depends only on the axis angle."""
    c1 = beam_coefficients(k, axis1)
    c2 = beam_coefficients(k, axis2)
    return complex(np.vdot(c2, c1))


def packing_bound(delta: float) -> int:
    """Largest number of axes any placement could separate at circle-angle delta.

    Spherical caps of radius delta/2 around the axes are disjoint on the
    projective hemisphere, so J <= 1/(1 - cos(delta/2)), about 8/delta^2 for
    small delta.
    """
    delta = float(delta)
    if delta <= 0.0 or delta > np.pi / 2 + 1e-12:
        raise ValueError("separation must lie in (0, pi/2]")
    return int(math.floor(1.0 / (1.0 - math.cos(delta / 2.0))))


_CANONICAL_AXES = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _greedy_select(candidates: np.ndarray, j: int, delta: float) -> np.ndarray:
    chosen = []
    for cand in candidates:
        ok = True
        for c in chosen:
            if circle_angle(cand, c) < delta - 1e-12:
                ok = False
                break
        if ok:
            chosen.append(cand)
            if len(chosen) == j:
                break
    return np.array(chosen)


def place_separated_axes(j: int, delta: float, seed: int = 0) -> np.ndarray:
    """J great-circle axes with pairwise circle-angle >= delta, shape (J, 3).

    Deterministic given the seed: the candidate pool is the north pole, a
    Fibonacci lattice folded to the upper hemisphere (axes +-a describe the
    same circle), and the two canonical equator axes; greedy selection takes
    the first J compatible candidates.  If the greedy pass falls short the
    pool is re-drawn under seeded random rotations before giving up.
    """
    j = int(j)
    if j < 1:
        raise ValueError("need at least one axis")
    bound = packing_bound(delta)
    if j > bound:
        raise PackingInfeasibleError(
            f"J = {j} exceeds the cap-packing bound {bound} for separation {delta}"
        )
    if j == 1:
        return np.array([[0.0, 0.0, 1.0]])
    n_lattice = max(256, 8 * j, int(math.ceil(32.0 / (delta * delta))))
    lattice = fibonacci_axes(n_lattice)
    lattice = lattice * np.where(lattice[:, 2] < 0.0, -1.0, 1.0)[:, None]
    order = np.argsort(-lattice[:, 2], kind="stable")
    pool = np.vstack([[[0.0, 0.0, 1.0]], lattice[order], _CANONICAL_AXES])
    chosen = _greedy_select(pool, j, delta)
    if chosen.shape[0] == j:
        return chosen
    rng = np.random.default_rng(seed)
    for _ in range(20):
        rot = _random_rotation(rng)
        chosen = _greedy_select(pool @ rot.T, j, delta)
        if chosen.shape[0] == j:
            return chosen
    raise PackingInfeasibleError(
        f"could not place {j} axes at separation {delta} "
        f"(packing bound {bound}; greedy search exhausted)"
    )


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via QR of a Gaussian matrix, det fixed to +1."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diagonal(r))[None, :]
    if np.linalg.det(q) < 0.0:
        q[:, 2] = -q[:, 2]
    return q


@dataclass
class BeamFamily:
    """Beams along a set of circle axes, held in coefficient space."""

    k: int
    axes: np.ndarray
    matrix: np.ndarray
    delta: float

    @classmethod
    def build(cls, k: int, axes) -> "BeamFamily":
        k = int(k)
        axes = np.atleast_2d(np.asarray(axes, dtype=float))
        rows = np.array([beam_coefficients(k, a) for a in axes])
        if axes.shape[0] > 1:
            delta = min(
                circle_angle(axes[i], axes[jj])
                for i in range(axes.shape[0])
                for jj in range(i + 1, axes.shape[0])
            )
        else:
            # A single circle has no pair; pi/2 is the largest possible angle.
            delta = math.pi / 2.0
        return cls(k=k, axes=axes, matrix=rows, delta=float(delta))

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass
class OrthonormalizationReport:
    """What orthonormalization did to a family's fourth-power norms."""

    method: str
    gram_condition: float
    l44_before: np.ndarray
    l44_after: np.ndarray

    @property
    def retention(self) -> np.ndarray:
        return self.l44_after / self.l44_before

    @property
    def min_retention(self) -> float:
        return float(self.retention.min())

    @property
    def mean_retention(self) -> float:
        return float(self.retention.mean())

    @property
    def max_retention(self) -> float:
        return float(self.retention.max())


def orthonormalize(
    family: BeamFamily,
    method: str = "symmetric",
    grid: QuadratureGrid = None,
):
    """Orthonormalize a beam family; returns (fragment, report).

    method "symmetric" applies the inverse-square-root of the Gram matrix,
    the orthonormal family closest to the original in least squares and
    equivariant under relabeling.  method "sequential" is Gram-Schmidt in the
    given order with one reorthogonalization pass; earlier rows are preserved
    at the expense of later ones.  Raises RankDeficiencyError when the Gram
    spectrum touches the 1e-10 floor (duplicate or near-duplicate axes).
    """
    if method not in ("symmetric", "sequential"):
        raise ValueError("method must be 'symmetric' or 'sequential'")
    k = family.k
    if grid is None:
        grid = build_grid(k)
    m = family.matrix
    gram = m @ m.conj().T
    eigvals = np.linalg.eigvalsh(gram)
    if float(eigvals.min()) <= _GRAM_EIGENVALUE_FLOOR:
        raise RankDeficiencyError(
            f"Gram eigenvalue {eigvals.min():.3e} at or below the 1e-10 floor"
        )
    condition = float(eigvals.max() / eigvals.min())
    if method == "symmetric":
        w, v = np.linalg.eigh(gram)
        inv_sqrt = (v * (1.0 / np.sqrt(w))[None, :]) @ v.conj().T
        out = inv_sqrt @ m
    else:
        out = np.array(m, dtype=complex)
        for i in range(out.shape[0]):
            v_i = out[i]
            for _ in range(2):
                for p in range(i):
                    v_i = v_i - np.vdot(out[p], v_i) * out[p]
            out[i] = v_i / np.linalg.norm(v_i)
    l44_before = quartic_norms(k, m, grid)
    l44_after = quartic_norms(k, out, grid)
    fragment = CoefficientBasis(k, out, tol=1e-9)
    report = OrthonormalizationReport(
        method=method,
        gram_condition=condition,
        l44_before=l44_before,
        l44_after=l44_after,
    )
    return fragment, report
