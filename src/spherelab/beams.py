"""Gaussian-beam partial bases: separated axes, overlaps, orthonormalization.

A beam is the highest weight harmonic rebuilt around an arbitrary great
circle; it concentrates in a k^(-1/2) tube around that circle.  Families of
beams along well-separated circles are nearly orthogonal (the overlap decays
like cos^{2k} of half the axis angle), so orthonormalizing them should barely
disturb their large L4 norms.  How many beams survive with their L4 mass
intact is the experiment (``experiments.beam_experiment``); nothing here
asserts an answer.

Beams live in coefficient space: a beam's expansion over {Y_km} is one
closed-form column of a Wigner rotation matrix, and orthonormalization is
linear algebra on coefficient rows, so nothing here builds a grid.  The
fourth-power norms before and after, and so the retention, are integrated
by ``experiments.beam_experiment`` on its band-k grid.
"""

import math

import numpy as np

from .legendre import _degree, log_factorial
from .random_bases import CoefficientBasis
from .sphere import fibonacci_axes, rotation_to_pole

__all__ = [
    "PackingInfeasibleError",
    "RankDeficiencyError",
    "beam_coefficients",
    "packing_bound",
    "place_separated_axes",
    "orthonormalize",
]


class PackingInfeasibleError(ValueError):
    """Requested more separated great circles than the packing bound allows."""


class RankDeficiencyError(ValueError):
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
    k = _degree(k)
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
    log_up = log_factorial(up)
    log_mag = (
        0.5 * (log_factorial(2 * k) - log_up - log_up[::-1])
        + _xlogy(up, abs(xi))
        + _xlogy(down, abs(eta))
    )
    phase = up * np.angle(xi) + down * np.angle(eta)
    return (-1.0) ** k * np.exp(log_mag + 1j * phase)


def _xlogy(n: np.ndarray, y: float) -> np.ndarray:
    """n log(y) for integers n >= 0 and a scalar y >= 0, 0 where n == 0: scipy's xlogy."""
    return np.where(n == 0, 0.0, n * math.log(y) if y > 0.0 else -np.inf)


# Cap on the placement lattice's 32/delta^2 axes; it sets the smallest separation, about 0.0055.
_MAX_LATTICE_AXES = 2**20
_MIN_SEPARATION = math.sqrt(32.0 / _MAX_LATTICE_AXES)


def packing_bound(delta: float) -> int:
    """Largest number of axes any placement could separate at circle-angle delta.

    Spherical caps of radius delta/2 around the axes are disjoint on the
    projective hemisphere, so J <= 1/(1 - cos(delta/2)), about 8/delta^2 for
    small delta.  delta must lie in [_MIN_SEPARATION, pi/2].
    """
    delta = float(delta)
    if not _MIN_SEPARATION <= delta <= np.pi / 2 + 1e-12:
        message = f"separation must lie in [{_MIN_SEPARATION:.4g}, pi/2], got {delta:g}"
        if not delta >= _MIN_SEPARATION:  # nan included
            message += f"; a smaller one needs more than {_MAX_LATTICE_AXES} lattice axes"
        raise ValueError(message)
    return int(math.floor(1.0 / (1.0 - math.cos(delta / 2.0))))


_CANONICAL_AXES = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def place_separated_axes(j: int, delta: float) -> np.ndarray:
    """J great-circle axes with pairwise circle-angle >= delta, shape (J, 3).

    Deterministic: the candidate pool is the north pole, a Fibonacci lattice
    folded to the upper hemisphere (axes +-a describe the same circle), and
    the two canonical equator axes.  One greedy pass takes, in pool order,
    each candidate whose circle angle to every axis already taken is at
    least delta, i.e. |a . b| <= cos(delta) on unit axes, until J are taken.
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
    max_dot = math.cos(delta - 1e-12)
    chosen = np.empty((j, 3))
    n = 0
    for cand in pool:
        if np.all(np.abs(chosen[:n] @ cand) <= max_dot):
            chosen[n] = cand
            n += 1
            if n == j:
                return chosen
    raise PackingInfeasibleError(
        f"could not place {j} axes at separation {delta} "
        f"(packing bound {bound}; greedy search exhausted)"
    )


def _check_method(method: str) -> None:
    """Refuse any orthonormalization method but "symmetric" and "sequential"."""
    if method not in ("symmetric", "sequential"):
        raise ValueError("method must be 'symmetric' or 'sequential'")


def orthonormalize(k: int, rows, method: str = "symmetric"):
    """Orthonormalize (J, 2k+1) coefficient rows; returns (basis, gram_condition).

    method "symmetric" applies the inverse-square-root of the Gram matrix,
    the orthonormal family closest to the original in least squares and
    equivariant under relabeling.  method "sequential" is Gram-Schmidt in the
    given order with one reorthogonalization pass; earlier rows are preserved
    at the expense of later ones.  Pure linear algebra: no grid is built and
    nothing is integrated.  Raises RankDeficiencyError when the Gram spectrum
    touches the 1e-10 floor (duplicate or near-duplicate axes), or when the
    Gram condition number is too large for the result to be orthonormal to
    1e-9.
    """
    _check_method(method)
    m = np.asarray(rows, dtype=complex)
    n = 2 * int(k) + 1
    if m.ndim != 2 or m.shape[1] != n:
        raise ValueError(f"expected coefficient rows of length {n}")
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
    try:
        basis = CoefficientBasis(k, out, tol=1e-9)
    except ValueError as exc:
        raise RankDeficiencyError(
            f"Gram condition number {condition:.3e} is too large to orthonormalize "
            f"in double precision ({exc})"
        ) from None
    return basis, condition
