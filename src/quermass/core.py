"""Shared numerical substrate.

Unit-ball volume constants, log-binomials, counter-based RNG streams, and
small dense linear-algebra helpers used by every other module.  Everything
here is a pure function of its inputs; randomized operations are pure
functions of (inputs, seed, stream).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Largest dimension for which constants are tabulated.  Desk scale is n <= 6,
# but Kubota/Crofton constants combine omegas up to ~2n, so keep headroom.
N_MAX = 64

_MASK64 = (1 << 64) - 1


class DomainError(ValueError):
    """Parameter outside the documented domain."""


class DegenerateInputError(ValueError):
    """Input matrix is numerically rank deficient."""


def log_omega(d: int) -> float:
    """log of the volume of the d-dimensional Euclidean unit ball."""
    if not 0 <= d <= N_MAX:
        raise DomainError(f"omega defined for 0 <= d <= {N_MAX}, got {d}")
    return 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)


def omega(d: int) -> float:
    """Volume of the d-dimensional Euclidean unit ball (omega_0 = 1)."""
    return math.exp(log_omega(d))


def log_binom(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k)."""
    if k < 0 or n < 0 or k > n:
        raise DomainError(f"binomial C({n},{k}) out of range")
    return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: a (seed, stream) pair over Philox.

    Philox is counter based, so identical (seed, stream) pairs reproduce the
    identical sample sequence on any platform and under any thread layout.
    Child streams are derived by mixing, never by sequential draws, so
    parallel callers can partition work deterministically.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = (self.seed & _MASK64) | ((self.stream & _MASK64) << 64)
        return np.random.Generator(np.random.Philox(key=key))

    def split(self, index: int) -> "RngStream":
        """Deterministic child stream number `index`."""
        child = _splitmix64((self.stream ^ _splitmix64(index + 1)) & _MASK64)
        return RngStream(self.seed, child)

    def split_named(self, name: str) -> "RngStream":
        h = 0
        for ch in name.encode():
            h = _splitmix64(h ^ ch)
        return RngStream(self.seed, _splitmix64((self.stream ^ h) & _MASK64))


def gaussian_matrix(rows: int, cols: int, rng: RngStream) -> np.ndarray:
    """Matrix of independent standard normals, deterministic per stream."""
    if rows < 1 or cols < 1:
        raise DomainError("matrix dimensions must be >= 1")
    return rng.generator().standard_normal((rows, cols))


def orthonormalize(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, via sign-fixed QR.

    Raises DegenerateInputError when the smallest singular value falls below
    1e-10 times the largest.  Idempotent: orthonormal input is returned
    unchanged up to roundoff.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < 1e-10 * sv[0]:
        raise DegenerateInputError("columns are numerically dependent")
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


class MeanAccumulator:
    """Streaming mean / standard error with compensated reduction.

    Batches are reduced with numpy's pairwise summation; the per-batch
    partials are combined with math.fsum, so million-sample accumulations
    keep full double precision and the result is independent of how the
    batches were scheduled.
    """

    def __init__(self) -> None:
        self._sums: list[float] = []
        self._sqsums: list[float] = []
        self._count = 0

    def add(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=float).ravel()
        if v.size == 0:
            return
        self._sums.append(float(np.sum(v)))
        self._sqsums.append(float(np.sum(v * v)))
        self._count += v.size

    @property
    def count(self) -> int:
        return self._count

    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("no samples accumulated")
        return math.fsum(self._sums) / self._count

    def std_error(self) -> float:
        n = self._count
        if n < 2:
            return float("inf")
        m = self.mean()
        var = max(math.fsum(self._sqsums) / n - m * m, 0.0) * n / (n - 1)
        return math.sqrt(var / n)
