"""Quermassintegral computation by independent methods.

W_j denotes the j-th coefficient functional of the outer parallel-volume
polynomial: |K + t B| = sum_j C(n,j) W_j(K) t^j in ambient dimension n, so
W_0 = |K|, n W_1 = surface area, W_{n-1} = omega_n * (mean support), and
W_n = omega_n.

Methods, kept deliberately independent so they can cross-validate:
  * closed forms (balls, boxes, polytope volumes and surface areas),
  * Kubota projection averages over Haar subspaces (exact per-sample
    projection volumes, so the only noise is Grassmannian variance),
  * a Steiner polynomial fit to hit-or-miss estimates of |K + t B|,
  * spherical averaging of the support function for W_{n-1}.

Estimators consume a fixed budget split into fixed-size batches, each batch
drawing from its own derived stream (batched_mean); partial sums are reduced in batch
order with compensated summation, so results are bit-reproducible for a
given (seed, budget) regardless of scheduling.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from quermass import bodies as bd
from quermass import grassmann as gr
from quermass import polytope as pt
from quermass.core import (
    DomainError,
    MeanAccumulator,
    RngStream,
    log_binom,
    log_omega,
    omega,
)

BATCH = 8192


class EstimatorError(Exception):
    pass


class FitConditioningError(EstimatorError):
    pass


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate with its standard error and provenance."""

    value: float
    std_error: float
    samples: int
    seed: int = 0
    method: str = "mc"

    @classmethod
    def exact(cls, value: float, method: str = "exact") -> "Estimate":
        return cls(float(value), 0.0, 0, 0, method)

    @classmethod
    def from_accumulator(cls, acc: MeanAccumulator, seed: int, method: str) -> "Estimate":
        return cls(acc.mean(), acc.std_error(), acc.count, seed, method)

    @classmethod
    def from_values(cls, values: np.ndarray, seed: int, method: str) -> "Estimate":
        """Sample mean and standard error of one array of values."""
        acc = MeanAccumulator()
        acc.add(values)
        return cls.from_accumulator(acc, seed, method)

    def scaled(self, factor: float) -> "Estimate":
        return Estimate(self.value * factor, self.std_error * abs(factor),
                        self.samples, self.seed, self.method)

    def times(self, other: "Estimate") -> "Estimate":
        value = self.value * other.value
        err = math.hypot(self.value * other.std_error, other.value * self.std_error)
        return Estimate(value, err, max(self.samples, other.samples), self.seed,
                        f"{self.method}*{other.method}")

    def powered(self, exponent: float) -> "Estimate":
        if self.value <= 0 and exponent != int(exponent):
            raise EstimatorError("fractional power of a non-positive estimate")
        value = self.value ** exponent
        err = abs(exponent) * abs(self.value) ** (exponent - 1) * self.std_error
        return Estimate(value, err, self.samples, self.seed, self.method)

    def inverted(self) -> "Estimate":
        return self.powered(-1.0)


def batched_mean(samples: int, rng: RngStream, method: str, draw) -> Estimate:
    """Mean of `samples` values of draw(take, stream), taken in batches of
    at most BATCH values; batch i draws from rng.split(i)."""
    acc = MeanAccumulator()
    for batch_id, done in enumerate(range(0, samples, BATCH)):
        acc.add(draw(min(BATCH, samples - done), rng.split(batch_id)))
    return Estimate.from_accumulator(acc, rng.seed, method)


def _elementary_symmetric(values: np.ndarray, m: int) -> float:
    # products over all m-subsets, via the polynomial prod (1 + v_i x)
    coeffs = np.array([1.0])
    for v in values:
        coeffs = np.convolve(coeffs, np.array([1.0, v]))
    return float(coeffs[m])


def quermass_exact(body: bd.ConvexBody, j: int) -> float | None:
    """Closed-form W_j where one exists, else None.

    Balls and boxes have full closed forms; any body with exact volume
    covers j = 0; polytopes cover j = 1 through the boundary area of their
    hull (half the perimeter in the plane); j = n is omega_n.
    """
    n = body.dim
    if not 0 <= j <= n:
        raise DomainError(f"need 0 <= j <= {n}, got {j}")
    if j == n:
        return omega(n)
    if body.kind == "ball":
        return omega(n) * body.radius ** (n - j)
    if body.kind == "box":
        sides = 2.0 * body.halfwidths
        m = n - j
        return math.exp(log_omega(j) - log_binom(n, m)) * _elementary_symmetric(sides, m)
    if j == 0:
        return bd.volume(body)
    if body.kind == "ellipsoid":
        return None
    if body._cache.get("degenerate"):
        return None
    if j == 1:
        return bd._hull(body).surface_area() / n
    return None


# ---------------------------------------------------------------------------
# Kubota projection averages


def _subset_indices(n: int, m: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(n), m)), dtype=int)


def projected_volumes(body: bd.ConvexBody, bases: np.ndarray) -> np.ndarray:
    """Exact volumes of the shadows of the body on a stack of subspaces.

    bases has shape (count, n, m); the result is (count,).
    """
    count, n, m = bases.shape
    if body.kind == "ball":
        return np.full(count, omega(m) * body.radius ** m)
    if body.kind == "ellipsoid":
        quad = bases.transpose(0, 2, 1) @ body.shape @ bases
        dets = np.maximum(np.linalg.det(quad), 0.0)
        return omega(m) * np.sqrt(dets)
    if body.kind == "box":
        gens = body.halfwidths[:, None] * bases  # (count, n, m) generator rows
        total = np.zeros(count)
        for subset in _subset_indices(n, m):
            total += np.abs(np.linalg.det(gens[:, subset, :]))
        return (2.0 ** m) * total
    return pt.hull_volumes(np.einsum("vn,cnm->cvm", bd._vrep(body), bases))


def quermass_kubota(body: bd.ConvexBody, j: int, samples: int,
                    rng: RngStream) -> Estimate:
    """W_j as the scaled Haar average of (n-j)-dimensional shadow volumes."""
    n = body.dim
    if not 1 <= j <= n - 1:
        raise DomainError(f"kubota needs 1 <= j <= n-1, got j={j}")
    scale = math.exp(log_omega(n) - log_omega(n - j))
    est = batched_mean(samples, rng, "kubota-mc", lambda take, stream: projected_volumes(
        body, gr.haar_bases(n, n - j, take, stream)))
    return est.scaled(scale)


# ---------------------------------------------------------------------------
# mean width


def mean_width(body: bd.ConvexBody, samples: int, rng: RngStream) -> Estimate:
    """Spherical average of the support function h_K."""
    return batched_mean(samples, rng, "meanwidth", lambda take, stream: bd.support_batch(
        body, gr.sphere_directions(body.dim, take, stream)))


def meanwidth_quermass(body: bd.ConvexBody, samples: int, rng: RngStream) -> Estimate:
    """W_{n-1} = omega_n * mean support."""
    return mean_width(body, samples, rng).scaled(omega(body.dim))


# ---------------------------------------------------------------------------
# Steiner polynomial fit


def quermass_steiner_fit(
    body: bd.ConvexBody,
    j: int,
    lambdas: np.ndarray | None,
    mc_samples: int,
    rng: RngStream,
) -> Estimate:
    """W_j from a least-squares fit of the parallel-volume polynomial.

    |K + t B| is estimated by hit-or-miss sampling in the inflated bounding
    box (membership = distance to K at most t); the polynomial is fitted
    with W_0 pinned to |K| and W_n pinned to omega_n.  This estimator is a
    diagnostic: the projection average has strictly smaller variance.
    """
    n = body.dim
    if not 1 <= j <= n - 1:
        raise DomainError(f"steiner fit recovers 1 <= j <= n-1, got j={j}")
    if lambdas is None:
        lambdas = np.linspace(0.25, 2.0, n + 3) * bd.circumradius(body)
    lambdas = np.asarray(lambdas, dtype=float)
    if len(lambdas) < n + 1 or np.any(lambdas <= 0):
        raise DomainError("need >= n+1 positive inflation radii")
    vol0 = bd.volume(body)
    lo, hi = bd.bbox(body)

    y = np.empty(len(lambdas))
    sig = np.empty(len(lambdas))
    for i, lam in enumerate(lambdas):
        gen = rng.split(i).generator()
        span = (hi - lo) + 2.0 * lam
        boxvol = float(np.prod(span))
        pts = gen.uniform(size=(mc_samples, n)) * span + (lo - lam)
        hits = bd.in_dilation(body, pts, lam)
        p = hits.mean()
        vol_est = boxvol * p
        y[i] = vol_est - vol0 - omega(n) * lam ** n
        sig[i] = boxvol * math.sqrt(max(p * (1.0 - p), 1e-300) / mc_samples)

    cols = np.arange(1, n)
    design = np.array([[math.comb(n, jj) * lam ** jj for jj in cols]
                       for lam in lambdas])
    weighted = design / sig[:, None]
    if np.linalg.cond(weighted) > 1e10:
        raise FitConditioningError("inflation radii give an ill-conditioned fit")
    gram = weighted.T @ weighted
    rhs = weighted.T @ (y / sig)
    cov = np.linalg.inv(gram)
    theta = cov @ rhs
    idx = int(np.where(cols == j)[0][0])
    return Estimate(float(theta[idx]), float(math.sqrt(cov[idx, idx])),
                    int(mc_samples * len(lambdas)), rng.seed, "steiner-fit")


def quermass_estimate(body: bd.ConvexBody, j: int, samples: int = 2048,
                      rng: RngStream | None = None) -> Estimate:
    """Best available route to W_j: closed form, else width average for
    j = n-1, else the Kubota projection average."""
    exact = quermass_exact(body, j)
    if exact is not None:
        return Estimate.exact(exact)
    if rng is None:
        raise EstimatorError(f"W_{j} of a {body.kind} in dim {body.dim} needs a stream")
    if j == body.dim - 1:
        return meanwidth_quermass(body, samples, rng)
    return quermass_kubota(body, j, samples, rng)
