"""Haar sampling and coordinate handling on the Grassmannian.

Subspaces are held as orthonormal bases; stacks of Haar bases come from
one batched, sign-fixed QR.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from quermass.core import RngStream, gaussian_matrix


BASIS_TOL = 1e-9


class GrassmannError(Exception):
    pass


@dataclass(eq=False)
class Subspace:
    """k-dimensional linear subspace of R^n with an orthonormal basis."""

    n: int
    k: int
    basis: np.ndarray
    _complement: "Subspace | None" = field(default=None, repr=False)

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def complement(self) -> "Subspace":
        if self._complement is None:
            q, _ = np.linalg.qr(self.basis, mode="complete")
            comp = Subspace(self.n, self.n - self.k, q[:, self.k:])
            comp._complement = self
            self._complement = comp
        return self._complement


def subspace_from_basis(basis) -> Subspace:
    """A Subspace as it is; a raw n x k matrix once its columns are checked
    to be orthonormal within BASIS_TOL."""
    if isinstance(basis, Subspace):
        return basis
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2:
        raise ValueError("subspace basis must be an n x k matrix")
    if np.abs(b.T @ b - np.eye(b.shape[1])).max(initial=0.0) > BASIS_TOL:
        raise ValueError("subspace basis must have orthonormal columns")
    return Subspace(b.shape[0], b.shape[1], b)


def _sign_fixed_qr(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d = np.where(d == 0, 1.0, d)
    return q * d[..., None, :], r


def haar_subspace(n: int, k: int, rng: RngStream) -> Subspace:
    """Haar-distributed k-dimensional subspace of R^n."""
    if not 1 <= k <= n - 1:
        raise GrassmannError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    stream = rng
    for attempt in range(4):
        g = gaussian_matrix(n, k, stream)
        q, r = _sign_fixed_qr(g)
        rd = np.abs(np.diag(r))
        if rd.min() > 1e-12 * max(rd.max(), 1e-300):
            return Subspace(n, k, q)
        stream = stream.split_named(f"haar-retry-{attempt}")
    raise GrassmannError("gaussian matrix was rank deficient 4 times in a row")


def haar_bases(n: int, k: int, count: int, rng: RngStream) -> np.ndarray:
    """(count, n, k) stack of Haar orthonormal bases (batched QR)."""
    if not 1 <= k <= n - 1:
        raise GrassmannError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    g = rng.generator().standard_normal((count, n, k))
    q, r = _sign_fixed_qr(g)
    rd = np.abs(np.diagonal(r, axis1=1, axis2=2))
    bad = np.flatnonzero(rd.min(axis=1) <= 1e-12 * rd.max(axis=1))
    for i, idx in enumerate(bad):
        q[idx] = haar_subspace(n, k, rng.split_named(f"haar-fix-{i}")).basis
    return q


def sphere_directions(n: int, count: int, rng: RngStream) -> np.ndarray:
    """(count, n) uniform directions on the unit sphere."""
    g = rng.generator().standard_normal((count, n))
    nrm = np.linalg.norm(g, axis=1, keepdims=True)
    small = nrm[:, 0] < 1e-12
    if small.any():
        g[small] = np.eye(n)[0]
        nrm[small] = 1.0
    return g / nrm

