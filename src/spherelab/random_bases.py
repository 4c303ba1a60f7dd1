"""Haar-random orthonormal bases of one eigenspace and their fourth-power statistics.

A basis of the degree-k eigenspace is held as a CoefficientBasis: a
(2k+1) x (2k+1) complex matrix whose row j expands basis element j over the
standard harmonics, orders m = -k..k.  Applying a Haar-random unitary to the
identity rows gives the random orthonormal bases studied here.

Normalization note for the averaged functional.  lambda4 integrates fourth
powers against the geometric area element (total mass 4 pi).  The asymptotic
benchmark "2(2k+1)" for the Haar average is stated for the unit-mass
normalization of the sphere; converting to the geometric element divides it
by 4 pi, so the comparison value used by ``experiments.monte_carlo_lambda4``
is (2k+1) / (2 pi).
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .harmonics import _signed_orders
from .legendre import normalized_legendre_table
from .quadrature import GridResolutionError, QuadratureGrid

__all__ = [
    "trial_rng",
    "sample_haar_unitary",
    "CoefficientBasis",
    "quartic_norms",
    "lambda4",
    "GaussianMomentReport",
    "gaussian_limit_check",
]


def _check_seed(seed) -> None:
    """The seed rule every seeded experiment shares: a non-negative int, else ValueError.

    A generator, a float or a bool cannot stand in for it.
    """
    seed_ok = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not seed_ok or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial, stable under any execution order.

    Derives the stream from (master seed, trial index) so parallel or
    reordered trials draw bitwise the same numbers.  What a trial computes
    from them can still depend on the BLAS thread count, unless it runs on
    one thread as ``experiments.monte_carlo_lambda4`` does.
    The master seed follows ``_check_seed``.
    """
    _check_seed(master_seed)
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(int(trial),)))


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary from QR of a complex Ginibre matrix drawn from rng.

    The raw QR factor is only unitary up to a diagonal phase ambiguity; the
    correction multiplies column j by the phase of R_jj, which reconstructs
    the factor with positive-diagonal R and that factor is exactly Haar.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    ginibre = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


class CoefficientBasis:
    """Orthonormal (or partial) family in coefficient space over {Y_km}.

    Row j of ``matrix`` holds basis element j; column i is the order m = i - k.
    Rows are checked orthonormal within ``tol`` on construction.
    """

    __slots__ = ("k", "matrix")

    def __init__(self, k: int, matrix, tol: float = 1e-10):
        self.k = int(k)
        matrix = np.asarray(matrix, dtype=complex)
        n = 2 * self.k + 1
        if matrix.ndim != 2 or matrix.shape[1] != n:
            raise ValueError(f"expected coefficient rows of length {n}")
        self.matrix = matrix
        gram = matrix @ matrix.conj().T
        dev = float(np.abs(gram - np.eye(matrix.shape[0])).max())
        if dev > tol:
            raise ValueError(f"rows are not orthonormal: max Gram deviation {dev:.3e}")

    @classmethod
    def identity(cls, k: int) -> "CoefficientBasis":
        """The standard basis itself."""
        n = 2 * int(k) + 1
        return cls(k, np.eye(n, dtype=complex))

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"CoefficientBasis(k={self.k}, rows={self.size})"


def _check_quartic_grid(k: int, grid: QuadratureGrid):
    if grid.cos_degree_exact < 4 * k or grid.trig_degree_exact < 4 * k:
        raise GridResolutionError(
            f"grid exact to cos-degree {grid.cos_degree_exact} / trig {grid.trig_degree_exact}, "
            f"but quartic degree-{k} integrands need {4 * k}"
        )


def quartic_norms(k: int, coefficients, grid: QuadratureGrid) -> np.ndarray:
    """||f_j||_4^4 for the fields f_j = sum_m c_jm Y_km, one per coefficient row.

    The grid must be exact for quartic degree-k integrands.  Three exact
    folds cut the work to the t >= 0 rings, orders m >= 0 and longitudes
    theta in [0, pi], in real arithmetic:

    - Hemisphere.  Every Y_km has parity Y_km(-x) = (-1)^k Y_km(x), so |f_j|
      on the ring at -t is |f_j| on the ring at t turned by pi, and the
      uniform longitude rule sums both rings to the same exact ring integral
      (|f_j|^4 is a trigonometric polynomial of degree 4k < n_theta), whether
      or not the turn lands on grid longitudes.  The Gauss-Legendre nodes and
      weights of ``build_grid`` are mirror symmetric, so the rings with t > 0
      count twice and the equator ring (odd n_phi) once.
    - Orders +-m, once per call.  With Y_{k,-m} = (-1)^m conj(Y_km), a ring
      of f is P(theta) + i S(theta) where
      P = sum_{m>=0} c+_m N_m cos(m theta), S = sum_{m>=1} c-_m N_m sin(m theta),
      c+_m = c_m + (-1)^m c_{-m}, c-_m = c_m - (-1)^m c_{-m} (c+_0 = c_0) and
      N_m = N(k, m, t) unsigned.  The complex c+ and c- are stacked as real
      (2 rows, k+1) and (2 rows, k) matrices.
    - Longitudes +-theta, per ring.  f(+-theta) = P +- i S, so
      |f(theta)|^4 + |f(-theta)|^4 = 2 (|P|^2 + |S|^2)^2 + 8 (Im P conj(S))^2,
      and only theta_j with j = 0..n_theta // 2 are evaluated, each standing
      for half that pair sum times its multiplicity.  The grid longitude
      -theta_j is theta_{n_theta - j}, so theta_0 (and theta_{n_theta / 2}
      for even n_theta) is its own mirror, where S = 0, with multiplicity 1;
      every other theta_j has multiplicity 2.

    Each northern ring is then two real products, (2 rows, k+1) @ (k+1, h)
    and (2 rows, k) @ (k, h) with h = n_theta // 2 + 1, about
    4 rows k n_theta flops against 8 rows (2k+1) n_theta for one complex
    (rows, 2k+1) @ (2k+1, n_theta) product over all longitudes.

    The Legendre table, the trig tables and the ring weights are built once
    per grid and degree (``_quartic_plan``) and reused by every call on that
    grid; each call runs its rings in buffers it allocates once.  Rings are
    not stacked into one product: BLAS picks its kernel by shape, and a
    stacked product can round an ulp apart.
    """
    _check_quartic_grid(k, grid)
    k = int(k)
    coefficients = np.asarray(coefficients, dtype=complex)
    if coefficients.ndim != 2 or coefficients.shape[1] != 2 * k + 1:
        raise ValueError(f"expected coefficient rows of length {2 * k + 1} for degree {k}")
    rows = coefficients.shape[0]
    table, cos_table, sin_table, ring_weights, signs = _quartic_plan(k, grid)

    # (-1)^m c_{-m} for m = 0..k, the sign read from the one negative-order rule.
    mirrored = (coefficients * signs)[:, k::-1]
    plus = coefficients[:, k:] + mirrored
    plus[:, 0] = coefficients[:, k]
    minus = coefficients[:, k + 1 :] - mirrored[:, 1:]
    del mirrored
    plus = np.concatenate([plus.real, plus.imag])
    minus = np.concatenate([minus.real, minus.imag])

    scaled_plus = np.empty_like(plus)
    scaled_minus = np.empty_like(minus)
    p = np.empty((2 * rows, cos_table.shape[1]))
    s = np.empty_like(p)
    square, cross, term = np.empty((3, rows, p.shape[1]))
    p_re, p_im = p[:rows], p[rows:]
    s_re, s_im = s[:rows], s[rows:]
    out = np.zeros(rows)
    for radial, ring_weight in zip(table, ring_weights):
        np.matmul(np.multiply(plus, radial, out=scaled_plus), cos_table, out=p)
        np.matmul(np.multiply(minus, radial[1:], out=scaled_minus), sin_table, out=s)
        # The steps, in order, of square = p_re*p_re + p_im*p_im + s_re*s_re + s_im*s_im,
        # cross = p_im*s_re - p_re*s_im and square*square + 4.0*cross*cross, so each
        # value rounds as in those expressions.
        np.multiply(p_re, p_re, out=square)
        square += np.multiply(p_im, p_im, out=term)
        square += np.multiply(s_re, s_re, out=term)
        square += np.multiply(s_im, s_im, out=term)
        np.multiply(p_im, s_re, out=cross)
        cross -= np.multiply(p_re, s_im, out=term)
        square *= square
        np.multiply(4.0, cross, out=term)
        term *= cross
        square += term
        out += square @ ring_weight
    return out


def _quartic_plan(k: int, grid: QuadratureGrid):
    """The per-grid set-up of ``quartic_norms`` at degree k, built once and kept on the grid.

    Returns read-only (table, cos_table, sin_table, ring_weights, signs): the
    unsigned Legendre table on the t >= 0 rings, cos(m theta_j) for m = 0..k
    and sin(m theta_j) for m = 1..k over j = 0..n_theta // 2, each ring's
    weight times the longitude multiplicities (rows of ring_weights), and
    the (-1)^m order signs over m = -k..k.
    """
    plan = grid._quartic.get(k)
    if plan is not None:
        return plan
    half = grid.n_phi // 2
    weights = 2.0 * grid.ring_weight[half:]
    if grid.n_phi % 2:
        weights[0] = grid.ring_weight[half]
    h = grid.n_theta // 2 + 1
    multiplicity = np.full(h, 2.0)
    multiplicity[0] = 1.0
    if grid.n_theta % 2 == 0:
        multiplicity[-1] = 1.0
    angles = np.outer(np.arange(k + 1), grid.theta[:h])
    plan = (
        normalized_legendre_table(k, grid.t[half:]),
        np.cos(angles),
        np.sin(angles[1:]),
        weights[:, None] * multiplicity,
        _signed_orders(k, np.ones((1, k + 1))),
    )
    for array in plan:
        array.flags.writeable = False
    grid._quartic[k] = plan
    return plan


def lambda4(basis: CoefficientBasis, grid: QuadratureGrid) -> float:
    """Sum over basis elements of the fourth power of their L4 norm.

    Requires every row to be unit L2 (within 1e-6); the sum itself is
    ``quartic_norms`` over the basis rows, so it needs a grid exact for
    quartic degree-k integrands.
    """
    row_norms = np.sqrt((np.abs(basis.matrix) ** 2).sum(axis=1))
    worst = float(np.abs(row_norms - 1.0).max())
    if worst > 1e-6:
        raise ValueError(f"basis rows deviate from unit L2 by {worst:.3e}")
    return float(quartic_norms(basis.k, basis.matrix, grid).sum())


def _mean_stderr(x):
    """Sample mean of x and its standard error."""
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))


def _first_row_moduli(n: int, samples: int, seed: int) -> np.ndarray:
    """|u_11|^2 of Haar unitaries, sample i drawn from trial_rng(seed, i).

    Each sample draws the same n x n Ginibre matrix g as
    ``sample_haar_unitary`` (one (2, n, n) draw consumes the stream as its
    two (n, n) draws do), so the streams are unchanged, but skips its
    O(n^3) QR (Mezzadri 2007): with R_11 > 0 the first column of the Haar
    factor is g_1 / ||g_1||.  The phase correction and the 1/sqrt(2) scale
    of g change no modulus.  ``seed`` is a non-negative int: the per-sample
    streams are derived from it.
    """
    n = int(n)
    samples = int(samples)
    if n < 1:
        raise ValueError("need n >= 1")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    draw = np.empty((2, n, n))
    moduli = np.zeros(samples)
    for i in range(samples):
        trial_rng(seed, i).standard_normal(out=draw)
        first = draw[0, :, 0] + 1j * draw[1, :, 0]
        moduli[i] = abs(first[0]) ** 2 / np.vdot(first, first).real
    return moduli


@dataclass
class GaussianMomentReport:
    """Moments of the scaled entry sqrt(2k+1) U_11 against the Gaussian limit (1, 2)."""

    k: int
    samples: int
    seed: int
    second_moment: float
    second_stderr: float
    fourth_moment: float
    fourth_stderr: float
    distance: float = field(init=False)

    def __post_init__(self):
        self.distance = math.hypot(self.second_moment - 1.0, self.fourth_moment - 2.0)

    def to_dict(self) -> dict:
        return asdict(self)


def gaussian_limit_check(k: int, samples: int, seed: int) -> GaussianMomentReport:
    """Empirical second and fourth moments of sqrt(2k+1) U_11.

    The second moment equals 1 exactly at every dimension (unitarity); the
    fourth moment approaches the complex-Gaussian value 2 as k grows, so the
    report's distance from (1, 2) should shrink along a k-sweep.
    """
    k = int(k)
    if k < 8:
        raise ValueError("the Gaussian comparison is quoted for k >= 8")
    n = 2 * k + 1
    samples = int(samples)
    z2 = n * _first_row_moduli(n, samples, seed)
    m2, se2 = _mean_stderr(z2)
    m4, se4 = _mean_stderr(z2 * z2)
    return GaussianMomentReport(
        k=k,
        samples=samples,
        seed=int(seed),
        second_moment=m2,
        second_stderr=se2,
        fourth_moment=m4,
        fourth_stderr=se4,
    )
