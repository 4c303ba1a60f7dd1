"""Haar-random orthonormal bases of one eigenspace and their fourth-power statistics.

A basis of the degree-k eigenspace is held as a CoefficientBasis: a
(2k+1) x (2k+1) complex matrix whose row j expands basis element j over the
standard harmonics, orders m = -k..k.  Applying a Haar-random unitary to the
identity rows gives the random orthonormal bases studied here.

Normalization note for the averaged functional.  lambda4 integrates fourth
powers against the geometric area element (total mass 4 pi).  The asymptotic
benchmark "2(2k+1)" for the Haar average is stated for the unit-mass
normalization of the sphere; converting to the geometric element divides it
by 4 pi, so the comparison value used by ``monte_carlo_lambda4`` is
(2k+1) / (2 pi).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .harmonics import _signed_orders
from .legendre import normalized_legendre_table
from .quadrature import GridResolutionError, QuadratureGrid, build_grid

__all__ = [
    "trial_rng",
    "sample_haar_unitary",
    "CoefficientBasis",
    "quartic_norms",
    "lambda4",
    "MONTE_CARLO_COLUMNS",
    "MonteCarloLambda4",
    "monte_carlo_lambda4",
    "entry_moment",
    "GaussianMomentReport",
    "gaussian_limit_check",
]

MONTE_CARLO_COLUMNS = ("trial", "k", "lambda4", "seed")


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
    reordered trials reproduce bitwise.  The master seed follows
    ``_check_seed``.
    """
    _check_seed(master_seed)
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(int(trial),)))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n x n unitary from QR of a complex Ginibre matrix.

    The raw QR factor is only unitary up to a diagonal phase ambiguity; the
    correction multiplies column j by the phase of R_jj, which reconstructs
    the factor with positive-diagonal R and that factor is exactly Haar.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    rng = _as_rng(seed)
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

    def __init__(self, k: int, matrix, tol: float = 1e-10, validate: bool = True):
        self.k = int(k)
        matrix = np.asarray(matrix, dtype=complex)
        n = 2 * self.k + 1
        if matrix.ndim != 2 or matrix.shape[1] != n:
            raise ValueError(f"expected coefficient rows of length {n}")
        self.matrix = matrix
        if validate:
            gram = matrix @ matrix.conj().T
            dev = float(np.abs(gram - np.eye(matrix.shape[0])).max())
            if dev > tol:
                raise ValueError(f"rows are not orthonormal: max Gram deviation {dev:.3e}")

    @classmethod
    def identity(cls, k: int) -> "CoefficientBasis":
        """The standard basis itself."""
        n = 2 * int(k) + 1
        return cls(k, np.eye(n, dtype=complex), validate=False)

    @classmethod
    def from_unitary(cls, k: int, unitary) -> "CoefficientBasis":
        """Basis obtained by applying a unitary to the standard basis rows."""
        return cls(k, np.asarray(unitary, dtype=complex))

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
    """
    _check_quartic_grid(k, grid)
    k = int(k)
    coefficients = np.asarray(coefficients, dtype=complex)
    if coefficients.ndim != 2 or coefficients.shape[1] != 2 * k + 1:
        raise ValueError(f"expected coefficient rows of length {2 * k + 1} for degree {k}")
    rows = coefficients.shape[0]
    half = grid.n_phi // 2
    weights = 2.0 * grid.ring_weight[half:]
    if grid.n_phi % 2:
        weights[0] = grid.ring_weight[half]
    h = grid.n_theta // 2 + 1
    multiplicity = np.full(h, 2.0)
    multiplicity[0] = 1.0
    if grid.n_theta % 2 == 0:
        multiplicity[-1] = 1.0

    # (-1)^m c_{-m} for m = 0..k, the sign read from the one negative-order rule.
    mirrored = (coefficients * _signed_orders(k, np.ones((1, k + 1))))[:, k::-1]
    plus = coefficients[:, k:] + mirrored
    plus[:, 0] = coefficients[:, k]
    minus = coefficients[:, k + 1 :] - mirrored[:, 1:]
    plus = np.concatenate([plus.real, plus.imag])
    minus = np.concatenate([minus.real, minus.imag])
    angles = np.outer(np.arange(k + 1), grid.theta[:h])
    cos_table = np.cos(angles)
    sin_table = np.sin(angles[1:])

    out = np.zeros(rows)
    for weight, radial in zip(weights, normalized_legendre_table(k, grid.t[half:])):
        p = (plus * radial) @ cos_table
        s = (minus * radial[1:]) @ sin_table
        p_re, p_im = p[:rows], p[rows:]
        s_re, s_im = s[:rows], s[rows:]
        square = p_re * p_re + p_im * p_im + s_re * s_re + s_im * s_im
        cross = p_im * s_re - p_re * s_im
        out += (square * square + 4.0 * cross * cross) @ (weight * multiplicity)
    return out


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


# Random-ONB gate: the mean/benchmark ratio lies in this closed interval.
# The band is asymptotic: the exact Haar mean of the ratio is n/(n+1) with
# n = 2k+1, below 0.9 for k <= 3 and exactly 0.9 at k = 4, so the gate fails
# there by design (at k = 0 the ratio is exactly 1/2).
HAAR_RATIO_BAND = (0.9, 1.1)


@dataclass
class MonteCarloLambda4:
    """Sample statistics of the fourth-power functional over Haar bases.

    ``mean`` and ``stderr`` are in the geometric normalization of lambda4;
    ``benchmark`` is the asymptotic prediction (2k+1)/(2 pi) in that same
    normalization, and ``ratio`` = mean / benchmark is the quantity expected
    to drift toward 1 as k grows.  ``certificate`` describes the grid the
    trials ran on.
    """

    k: int
    trials: int
    seed: int
    values: np.ndarray
    mean: float
    stderr: float
    benchmark: float
    ratio: float
    ratio_stderr: float
    certificate: dict = None

    def rows(self):
        """Per-trial rows (trial, k, lambda4, seed) for CSV export."""
        return [
            {"trial": i, "k": self.k, "lambda4": float(v), "seed": self.seed}
            for i, v in enumerate(self.values)
        ]

    @property
    def outputs(self) -> dict:
        names = ("mean", "stderr", "benchmark", "ratio", "ratio_stderr")
        return {name: getattr(self, name) for name in names}

    @property
    def gates(self) -> list:
        low, high = HAAR_RATIO_BAND
        text = f"mean/benchmark ratio {self.ratio:.4f} in [{low:g}, {high:g}]"
        return [(low <= self.ratio <= high, text)]

    @property
    def summary(self) -> tuple:
        return (
            f"k={self.k} trials={self.trials} seed={self.seed}",
            f"mean lambda4 {self.mean:.8f} +- {self.stderr:.8f} (geometric measure)",
            f"benchmark (2k+1)/(2pi) = {self.benchmark:.8f}",
            f"ratio {self.ratio:.6f} +- {self.ratio_stderr:.6f}",
        )


def monte_carlo_lambda4(
    k: int,
    trials: int,
    seed: int,
    grid: QuadratureGrid = None,
    oversample: float = 1.0,
) -> MonteCarloLambda4:
    """Monte Carlo estimate of the Haar average of the lambda4 functional.

    Each trial applies an independent Haar unitary to the standard basis and
    evaluates lambda4 on the (shared) quartic-exact grid.  Trials draw from
    per-trial streams, so the per-value output is bitwise reproducible for a
    fixed master seed under any execution order.
    """
    k = int(k)
    trials = int(trials)
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    if grid is None:
        grid = build_grid(k, oversample)
    n = 2 * k + 1
    values = np.empty(trials)
    for trial in range(trials):
        u = sample_haar_unitary(n, trial_rng(seed, trial))
        basis = CoefficientBasis.from_unitary(k, u)
        values[trial] = lambda4(basis, grid)
    mean, stderr = _mean_stderr(values)
    benchmark = (2 * k + 1) / (2.0 * math.pi)
    return MonteCarloLambda4(
        k=k,
        trials=trials,
        seed=int(seed),
        values=values,
        mean=mean,
        stderr=stderr,
        benchmark=benchmark,
        ratio=mean / benchmark,
        ratio_stderr=stderr / benchmark,
        certificate=grid.describe(),
    )


def _mean_stderr(x):
    """Sample mean of x and its standard error."""
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))


def _first_row_moduli(n: int, samples: int, seed: int):
    """|u_11|^2 and |u_12|^2 of Haar unitaries, sample i drawn from trial_rng(seed, i).

    Two arrays of length ``samples``; |u_12|^2 reads 0 when n = 1.  Each
    sample draws the same n x n Ginibre matrix g as ``sample_haar_unitary``
    (one (2, n, n) draw consumes the stream as its two (n, n) draws do), so
    the streams are unchanged, but skips its O(n^3) QR (Mezzadri 2007):
    with R_11 > 0 the first column of the Haar factor is g_1 / ||g_1||, and
    one Gram-Schmidt step on g_2 gives the second.  The phase correction and
    the 1/sqrt(2) scale of g change no modulus.  ``seed`` is a non-negative
    int: the per-sample streams are derived from it.
    """
    n = int(n)
    samples = int(samples)
    if n < 1:
        raise ValueError("need n >= 1")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    draw = np.empty((2, n, n))
    moduli = np.zeros((samples, 2))
    for i in range(samples):
        trial_rng(seed, i).standard_normal(out=draw)
        first = draw[0, :, 0] + 1j * draw[1, :, 0]
        first_sq = np.vdot(first, first).real
        moduli[i, 0] = abs(first[0]) ** 2 / first_sq
        if n > 1:
            second = draw[0, :, 1] + 1j * draw[1, :, 1]
            second -= (np.vdot(first, second) / first_sq) * first
            moduli[i, 1] = abs(second[0]) ** 2 / np.vdot(second, second).real
    return moduli[:, 0], moduli[:, 1]


_PATTERNS = ("|u|^2", "|u|^4", "|u|^2|u'|^2")


def entry_moment(n: int, pattern: str, samples: int, seed: int, return_stderr: bool = False):
    """Monte Carlo moment of Haar-unitary entries.

    Patterns: "|u|^2" and "|u|^4" use the (1,1) entry; "|u|^2|u'|^2" pairs
    the (1,1) and (1,2) entries of the same row.  These are the two index
    pairings that dominate fourth-moment averages at large n, where the
    scaled entries sqrt(n) U_1j approach independent complex Gaussians.
    """
    n = int(n)
    if pattern not in _PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; choose from {_PATTERNS}")
    if pattern == "|u|^2|u'|^2" and n < 2:
        raise ValueError("the pairing pattern needs n >= 2")
    a2, b2 = _first_row_moduli(n, samples, seed)
    x = {"|u|^2": a2, "|u|^4": a2 * a2, "|u|^2|u'|^2": a2 * b2}[pattern]
    mean, stderr = _mean_stderr(x)
    if return_stderr:
        return mean, stderr
    return mean


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
        return {
            "k": self.k,
            "samples": self.samples,
            "seed": self.seed,
            "second_moment": self.second_moment,
            "second_stderr": self.second_stderr,
            "fourth_moment": self.fourth_moment,
            "fourth_stderr": self.fourth_stderr,
            "distance": self.distance,
        }


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
    z2 = n * _first_row_moduli(n, samples, seed)[0]
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
