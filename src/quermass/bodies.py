"""Convex body data model.

A body is one of four representations (ball, box, ellipsoid, V-polytope)
with its ambient dimension and optional symmetric/centered flags.  A
V-polytope gets its hull when it is built, and a polytope given by
halfspaces (hpolytope) is built as one.  Bodies are immutable after
construction; other derived data (halfspace forms, bounding boxes,
volumes) is cached on first use, so all operations stay re-entrant.

Sections and projections are re-expressed in an orthonormal coordinate
system of the subspace, so the result's ambient dimension is the subspace
dimension.  Empty sections are signalled by returning None rather than by
raising: flat-average integrands vanish outside the support and estimators
count such samples as zero.
"""
from __future__ import annotations

import hashlib
import logging
import math

import numpy as np
from scipy.optimize import linprog

from quermass import grassmann as gr
from quermass import polytope as pt
from quermass.core import RngStream, omega

logger = logging.getLogger(__name__)

MEMBERSHIP_TOL = 1e-9


class BodyError(Exception):
    pass


class CapabilityError(BodyError):
    """Operation unsupported for this representation / dimension."""


class DegenerateBodyError(BodyError):
    pass


class UnboundedBodyError(BodyError):
    pass


class Flags:
    """symmetric: x in K implies -x in K; centered: barycenter at origin."""

    __slots__ = ("symmetric", "centered")

    def __init__(self, symmetric: bool = False, centered: bool = False):
        self.symmetric = bool(symmetric)
        self.centered = bool(centered) or bool(symmetric)

    def __repr__(self) -> str:
        return f"Flags(symmetric={self.symmetric}, centered={self.centered})"


class ConvexBody:
    """Tagged union of convex-body representations; treat as immutable."""

    __slots__ = (
        "kind",
        "dim",
        "flags",
        "center",
        "radius",
        "halfwidths",
        "shape",
        "vertices",
        "_cache",
    )

    def __init__(self, kind: str, dim: int, flags: Flags):
        self.kind = kind
        self.dim = dim
        self.flags = flags
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"ConvexBody({self.kind}, dim={self.dim}, {self.flags})"

    def describe(self) -> str:
        tag = self._cache.get("name")
        return tag if tag else f"{self.kind}-{self.dim}d"

    def with_name(self, name: str) -> "ConvexBody":
        self._cache["name"] = name
        return self


def _as_basis(subspace) -> np.ndarray:
    """The orthonormal basis of a grassmann.Subspace as it is; a raw n x k
    matrix from a caller is checked first."""
    if isinstance(subspace, gr.Subspace):
        return subspace.basis
    b = np.asarray(subspace, dtype=float)
    if b.ndim != 2:
        raise ValueError("subspace basis must be an n x k matrix")
    gram = b.T @ b
    if not np.allclose(gram, np.eye(b.shape[1]), atol=1e-9):
        raise ValueError("subspace basis must have orthonormal columns")
    return b


def ball(center, radius: float, flags: Flags | None = None) -> ConvexBody:
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if radius <= 0:
        raise ValueError("radius must be positive")
    sym = bool(np.all(c == 0.0))
    body = ConvexBody("ball", len(c), flags or Flags(symmetric=sym, centered=sym))
    body.center = c
    body.radius = float(radius)
    return body


def box(center, halfwidths, flags: Flags | None = None) -> ConvexBody:
    c = np.atleast_1d(np.asarray(center, dtype=float))
    h = np.atleast_1d(np.asarray(halfwidths, dtype=float))
    if len(c) != len(h) or np.any(h <= 0):
        raise ValueError("halfwidths must be positive and match the center")
    sym = bool(np.all(c == 0.0))
    body = ConvexBody("box", len(c), flags or Flags(symmetric=sym, centered=sym))
    body.center = c
    body.halfwidths = h
    return body


def ellipsoid(center, shape, flags: Flags | None = None) -> ConvexBody:
    c = np.atleast_1d(np.asarray(center, dtype=float))
    a = np.asarray(shape, dtype=float)
    if a.shape != (len(c), len(c)) or not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("shape must be a symmetric matrix matching the center")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError("shape matrix must be positive definite") from exc
    sym = bool(np.all(c == 0.0))
    body = ConvexBody("ellipsoid", len(c), flags or Flags(symmetric=sym, centered=sym))
    body.center = c
    body.shape = a
    body._cache["chol"] = chol
    return body


def vpolytope(vertices, flags: Flags | None = None) -> ConvexBody:
    """The convex hull of the rows of vertices, built with its hull.

    The body keeps the hull's extreme points.  Points that do not span
    their space (the hull's rank test, or Qhull failing) are kept verbatim
    and the body is marked flat: support, projection and width still work,
    its volume is 0 and full-dimensional operations are unavailable.  Above
    pt.MAX_DIM no hull can be built and a rank test alone decides flatness.
    """
    v = np.atleast_2d(np.asarray(vertices, dtype=float))
    n = v.shape[1]
    body = ConvexBody("vpolytope", n, flags or Flags())
    body.vertices = v
    if n <= pt.MAX_DIM:
        try:
            hull = pt.convex_hull(v, n)
        except pt.DegenerateHullError:
            body._cache["degenerate"] = True
        else:
            body.vertices = hull.vertices
            body._cache["hull"] = hull
    elif len(v) < n + 1 or pt.affine_rank(v) < n:
        body._cache["degenerate"] = True
    return body


def hpolytope(normals, offsets, flags: Flags | None = None) -> ConvexBody:
    """The bounded polytope {x : normals x <= offsets} as a V-polytope.

    The rows are scaled to unit normals and kept as the body's halfspace
    form; the vertices come from the dual hull about the Chebyshev centre.
    Raises UnboundedBodyError for an unbounded set and DegenerateBodyError
    for an empty one or one without interior.
    """
    a = np.atleast_2d(np.asarray(normals, dtype=float))
    b = np.atleast_1d(np.asarray(offsets, dtype=float))
    if len(a) != len(b):
        raise ValueError("normals and offsets disagree in length")
    nrm = np.linalg.norm(a, axis=1)
    if np.any(nrm == 0):
        raise ValueError("zero normal row")
    a = a / nrm[:, None]
    b = b / nrm
    _require_bounded(a, b)
    verts = _halfspace_vertices(a, b, min_inradius=1e-9)
    if len(verts) == 0:
        raise DegenerateBodyError("halfspace intersection has empty interior")
    body = vpolytope(verts, flags)
    body._cache["hrep"] = (a, b)
    return body


def _require_bounded(a: np.ndarray, b: np.ndarray) -> None:
    """Raise UnboundedBodyError unless {x : a x <= b} is bounded along every
    axis, and DegenerateBodyError when it is empty."""
    d = a.shape[1]
    for i in range(d):
        for sign in (1.0, -1.0):
            c = np.zeros(d)
            c[i] = -sign
            res = linprog(c, A_ub=a, b_ub=b, bounds=[(None, None)] * d,
                          method="highs")
            if res.status == 3:
                raise UnboundedBodyError("halfspace intersection is unbounded")
            if res.status != 0:
                raise DegenerateBodyError("infeasible halfspace intersection")


def _chebyshev(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Center and radius of the largest inscribed ball of {x: ax <= b}."""
    m, d = a.shape
    c = np.zeros(d + 1)
    c[-1] = -1.0
    a_ext = np.hstack([a, np.ones((m, 1))])
    res = linprog(c, A_ub=a_ext, b_ub=b, bounds=[(None, None)] * d + [(0, None)],
                  method="highs")
    if res.status != 0:
        return None, -math.inf
    return res.x[:d], float(res.x[d])


def _halfspace_vertices(a: np.ndarray, b: np.ndarray, witness=None,
                        slack_tol: float = 0.0,
                        min_inradius: float = 0.0) -> np.ndarray:
    """Vertices of the bounded {x : a x <= b}, rows of a unit vectors, from
    the dual hull about an interior point.

    That point is the witness when every slack there exceeds slack_tol;
    otherwise, or without a witness, it is the Chebyshev centre, and a set
    whose inscribed radius is at most min_inradius has no vertices, shape
    (0, d).
    """
    if witness is None or np.min(b - a @ witness) <= slack_tol:
        witness, inradius = _chebyshev(a, b)
        if witness is None or inradius <= min_inradius:
            return np.empty((0, a.shape[1]))
    return pt.halfspace_intersection_vertices(a, b, witness)


# ---------------------------------------------------------------------------
# cached derived data


def _hull(body: ConvexBody) -> pt.HullComplex:
    hull = body._cache.get("hull")
    if hull is None:
        if body.kind not in ("vpolytope", "box"):
            raise CapabilityError(f"no hull for kind {body.kind}")
        hull = pt.convex_hull(_vrep(body), body.dim)
        body._cache["hull"] = hull
    return hull


def _hrep(body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """Normalized halfspace form (A, b) for polytope-like bodies."""
    hrep = body._cache.get("hrep")
    if hrep is None:
        if body.kind == "box":
            eye = np.eye(body.dim)
            a = np.vstack([eye, -eye])
            b = np.concatenate(
                [body.center + body.halfwidths, -(body.center - body.halfwidths)]
            )
            hrep = (a, b)
        elif body.kind == "vpolytope":
            hrep = _hull(body).facet_matrix()
        else:
            raise CapabilityError(f"no halfspace form for kind {body.kind}")
        body._cache["hrep"] = hrep
    return hrep


def _vrep(body: ConvexBody) -> np.ndarray:
    verts = body._cache.get("vrep")
    if verts is None:
        if body.kind == "vpolytope":
            verts = body.vertices
        elif body.kind == "box":
            corners = np.array(
                np.meshgrid(*[[-1.0, 1.0]] * body.dim, indexing="ij")
            ).reshape(body.dim, -1).T
            verts = body.center + corners * body.halfwidths
        else:
            raise CapabilityError(f"no vertex form for kind {body.kind}")
        body._cache["vrep"] = verts
    return verts


def bbox(body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    cached = body._cache.get("bbox")
    if cached is None:
        if body.kind == "ball":
            cached = (body.center - body.radius, body.center + body.radius)
        elif body.kind == "box":
            cached = (body.center - body.halfwidths, body.center + body.halfwidths)
        elif body.kind == "ellipsoid":
            half = np.sqrt(np.diag(body.shape))
            cached = (body.center - half, body.center + half)
        else:
            cached = (body.vertices.min(axis=0), body.vertices.max(axis=0))
        body._cache["bbox"] = cached
    return cached


def circumradius(body: ConvexBody) -> float:
    """max ||x|| over the body (radius around the origin)."""
    if body.kind == "ball":
        return float(np.linalg.norm(body.center) + body.radius)
    if body.kind == "box":
        return float(np.linalg.norm(np.abs(body.center) + body.halfwidths))
    if body.kind == "ellipsoid":
        lam = np.linalg.eigvalsh(body.shape)[-1]
        return float(np.linalg.norm(body.center) + math.sqrt(lam))
    return float(np.linalg.norm(_vrep(body), axis=1).max())


def fingerprint(body: ConvexBody) -> str:
    h = hashlib.sha1()
    h.update(body.kind.encode())
    h.update(np.int64(body.dim).tobytes())
    for attr in ("center", "radius", "halfwidths", "shape", "vertices"):
        try:
            val = getattr(body, attr)
        except AttributeError:
            continue
        h.update(np.asarray(val, dtype=float).tobytes())
    h.update(bytes([body.flags.symmetric, body.flags.centered]))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# basic operations


def support(body: ConvexBody, direction) -> float:
    """Support function h_K(u) = max over x in K of <x, u> for unit u."""
    u = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    return float(support_batch(body, u[None, :])[0])


def support_batch(body: ConvexBody, directions: np.ndarray) -> np.ndarray:
    u = np.atleast_2d(np.asarray(directions, dtype=float))
    if body.kind == "ball":
        return u @ body.center + body.radius
    if body.kind == "box":
        return u @ body.center + np.abs(u) @ body.halfwidths
    if body.kind == "ellipsoid":
        quad = np.einsum("ij,jk,ik->i", u, body.shape, u)
        return u @ body.center + np.sqrt(np.maximum(quad, 0.0))
    return (u @ _vrep(body).T).max(axis=1)


def contains(body: ConvexBody, point, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership with tolerance on normalized constraint slack.

    V-polytope membership goes through a feasibility LP over convex
    coefficients, matching the representation rather than a derived form.
    """
    x = np.asarray(point, dtype=float)
    if x.shape != (body.dim,):
        raise ValueError("point dimension mismatch")
    if body.kind == "vpolytope":
        v = body.vertices
        m = len(v)
        a_eq = np.vstack([v.T, np.ones(m)])
        b_eq = np.concatenate([x, [1.0]])
        res = linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * m,
                      method="highs")
        return res.status == 0
    return bool(contains_batch(body, x[None, :], tol)[0])


def contains_batch(body: ConvexBody, points: np.ndarray,
                   tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if body.kind == "ball":
        return np.linalg.norm(x - body.center, axis=1) <= body.radius + tol
    if body.kind == "ellipsoid":
        z = np.linalg.solve(body._cache["chol"], (x - body.center).T).T
        return np.einsum("ij,ij->i", z, z) <= 1.0 + tol
    a, b = _hrep(body)
    return (x @ a.T <= b + tol).all(axis=1)


def volume(body: ConvexBody) -> float:
    """Exact volume; 0 for a polytope marked flat when it was built."""
    vol = body._cache.get("volume")
    if vol is None:
        if body.kind == "ball":
            vol = omega(body.dim) * body.radius ** body.dim
        elif body.kind == "box":
            vol = float(np.prod(2.0 * body.halfwidths))
        elif body.kind == "ellipsoid":
            vol = omega(body.dim) * math.sqrt(max(np.linalg.det(body.shape), 0.0))
        elif body._cache.get("degenerate"):
            vol = 0.0
        elif body.dim == 1:
            v = _vrep(body)[:, 0]
            vol = float(v.max() - v.min())
        else:
            vol = _hull(body).volume()
        body._cache["volume"] = vol
    return vol


def barycenter(body: ConvexBody) -> np.ndarray:
    bc = body._cache.get("barycenter")
    if bc is None:
        if body.kind in ("ball", "box", "ellipsoid"):
            bc = body.center.copy()
        elif body.dim == 1:
            v = _vrep(body)[:, 0]
            bc = np.array([0.5 * (v.max() + v.min())])
        else:
            bc = _hull(body).centroid()
        body._cache["barycenter"] = bc
    return bc


def translate(body: ConvexBody, shift) -> ConvexBody:
    t = np.asarray(shift, dtype=float)
    still_symmetric = body.flags.symmetric and np.allclose(t, 0.0)
    flags = Flags(symmetric=still_symmetric, centered=False)
    if body.kind == "ball":
        return ball(body.center + t, body.radius, flags)
    if body.kind == "box":
        return box(body.center + t, body.halfwidths, flags)
    if body.kind == "ellipsoid":
        return ellipsoid(body.center + t, body.shape, flags)
    return vpolytope(body.vertices + t, flags)


def translate_to_centered(body: ConvexBody) -> ConvexBody:
    """Shift so that the barycenter sits at the origin (idempotent)."""
    bc = barycenter(body)
    out = translate(body, -bc)
    out.flags.centered = True
    if body.flags.symmetric and np.allclose(bc, 0.0, atol=1e-12):
        out.flags.symmetric = True
    return out


def scale(body: ConvexBody, factor: float) -> ConvexBody:
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    flags = Flags(body.flags.symmetric, body.flags.centered)
    if body.kind == "ball":
        return ball(body.center * factor, body.radius * factor, flags)
    if body.kind == "box":
        return box(body.center * factor, body.halfwidths * factor, flags)
    if body.kind == "ellipsoid":
        return ellipsoid(body.center * factor, body.shape * factor ** 2, flags)
    return vpolytope(body.vertices * factor, flags)


def transform_orthogonal(body: ConvexBody, q: np.ndarray) -> ConvexBody:
    """Image under an orthogonal map (boxes become V-polytopes)."""
    q = np.asarray(q, dtype=float)
    flags = Flags(body.flags.symmetric, body.flags.centered)
    if body.kind == "ball":
        return ball(q @ body.center, body.radius, flags)
    if body.kind == "ellipsoid":
        return ellipsoid(q @ body.center, q @ body.shape @ q.T, flags)
    return vpolytope(_vrep(body) @ q.T, flags)


# ---------------------------------------------------------------------------
# projections and sections


def project(body: ConvexBody, subspace) -> ConvexBody:
    """Orthogonal projection onto a subspace, in that subspace's coordinates."""
    basis = _as_basis(subspace)
    n, k = basis.shape
    if n != body.dim or k >= body.dim:
        raise ValueError("projection subspace must have dimension < dim(K)")
    sym = body.flags.symmetric
    flags = Flags(symmetric=sym, centered=sym)
    if body.kind == "ball":
        shadow = ball(basis.T @ body.center, body.radius, flags)
    elif body.kind == "ellipsoid":
        shadow = ellipsoid(basis.T @ body.center, basis.T @ body.shape @ basis, flags)
    else:
        shadow = vpolytope(_vrep(body) @ basis, flags)
    shadow._cache["source"] = (body, basis)
    return shadow


def affine_section(body: ConvexBody, subspace, point) -> ConvexBody | None:
    """K intersected with the flat x + F through point, in F-coordinates;
    None when empty.

    point may be any point of the flat (None: the origin).  Its part x
    orthogonal to F is the offset, and a section point z has coordinates
    basis^T z.  A polytope section of codimension >= 2 takes its vertices
    from the dual hull about point itself when point lies inside K with
    slack to spare (a lift from sample_lifted_with does), else about the
    section's Chebyshev centre.  Sections that are degenerate (touching the
    boundary within tolerance) also return None; estimators treat both as a
    zero contribution.
    """
    basis = _as_basis(subspace)
    n, k = basis.shape
    if n != body.dim:
        raise ValueError("subspace lives in the wrong ambient dimension")
    p = np.zeros(n) if point is None else np.asarray(point, dtype=float)
    x = p - basis @ (basis.T @ p)

    central = np.abs(x).max() <= 1e-8
    sym = body.flags.symmetric and central
    flags = Flags(symmetric=sym, centered=sym)

    if body.kind == "ball":
        c_rel = body.center - x
        y0 = basis.T @ c_rel
        r2 = body.radius ** 2 - (c_rel @ c_rel - y0 @ y0)
        if r2 <= 1e-24:
            return None
        return ball(y0, math.sqrt(r2), flags)

    if body.kind == "ellipsoid":
        m = body._cache.get("inv_shape")
        if m is None:
            m = np.linalg.inv(body.shape)
            body._cache["inv_shape"] = m
        c_rel = body.center - x
        mq = basis.T @ m @ basis
        rhs = basis.T @ (m @ c_rel)
        y0 = np.linalg.solve(mq, rhs)
        s = c_rel @ m @ c_rel - y0 @ mq @ y0
        if s >= 1.0 - 1e-14:
            return None
        return ellipsoid(y0, np.linalg.inv(mq) * (1.0 - s), flags)

    a, b = _hrep(body)
    a_sec = a @ basis
    b_sec = b - a @ x
    nrm = np.linalg.norm(a_sec, axis=1)
    # Constraints orthogonal to the flat are either void or verdicts of emptiness.
    tiny = nrm <= 1e-12
    if np.any(b_sec[tiny] < -1e-9):
        return None
    a_sec, b_sec, nrm = a_sec[~tiny], b_sec[~tiny], nrm[~tiny]
    a_sec = a_sec / nrm[:, None]
    b_sec = b_sec / nrm

    if k == n - 1:
        # a hyperplane: clip boundary edges instead of solving constraints
        verts = _clip_codim1(body, basis, x)
    else:
        scale = 1.0 + circumradius(body)
        verts = _halfspace_vertices(a_sec, b_sec, basis.T @ p, 1e-9 * scale,
                                    1e-12 * scale)
    sec = vpolytope(verts, flags)
    if sec._cache.get("degenerate"):
        return None
    sec._cache["hrep"] = (a_sec, b_sec)
    return sec


def _boundary_edges(body: ConvexBody) -> np.ndarray:
    """Vertex index pairs covering all boundary edges (from the boundary
    triangulation, so flat-face diagonals may appear; they are harmless
    for clipping since they lie on the boundary)."""
    edges = body._cache.get("tri_edges")
    if edges is None:
        if body.dim == 1:
            edges = np.array([[0, 1]])
        else:
            simplices = _hull(body).simplices
            pairs = set()
            for simplex in simplices:
                s = sorted(int(v) for v in simplex)
                for i in range(len(s)):
                    for jj in range(i + 1, len(s)):
                        pairs.add((s[i], s[jj]))
            edges = np.array(sorted(pairs), dtype=int)
        body._cache["tri_edges"] = edges
    return edges


def _clip_codim1(body: ConvexBody, basis: np.ndarray, x: np.ndarray
                 ) -> np.ndarray:
    """Vertices of the section of a polytope by the hyperplane x + span(basis),
    in basis coordinates: on-plane vertices plus crossed boundary edges
    (none when the hyperplane misses the polytope)."""
    q_full, _ = np.linalg.qr(basis, mode="complete")
    normal = q_full[:, -1]
    verts = _vrep(body)
    scale = float(np.max(np.abs(verts))) + 1.0
    h = verts @ normal - normal @ x
    tol = 1e-12 * scale
    pieces = []
    on_plane = np.abs(h) <= tol
    if on_plane.any():
        pieces.append(verts[on_plane])
    edges = _boundary_edges(body)
    hi, hj = h[edges[:, 0]], h[edges[:, 1]]
    crossing = ((hi > tol) & (hj < -tol)) | ((hi < -tol) & (hj > tol))
    if crossing.any():
        e = edges[crossing]
        t = (h[e[:, 0]] / (h[e[:, 0]] - h[e[:, 1]]))[:, None]
        pieces.append(verts[e[:, 0]] + t * (verts[e[:, 1]] - verts[e[:, 0]]))
    if not pieces:
        return np.empty((0, basis.shape[1]))
    ambient = np.vstack(pieces)
    return (ambient - x) @ basis


def central_section(body: ConvexBody, subspace) -> ConvexBody | None:
    return affine_section(body, subspace, None)


def minkowski_sum(a: ConvexBody, b: ConvexBody) -> ConvexBody:
    """Vertex-sum hull of two polytope-like bodies (dim <= pt.MAX_DIM)."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if a.dim > pt.MAX_DIM:
        raise CapabilityError(f"minkowski_sum supports dim <= {pt.MAX_DIM}")
    if a.kind in ("ball", "ellipsoid") or b.kind in ("ball", "ellipsoid"):
        raise CapabilityError("minkowski_sum needs polytope-like summands")
    va, vb = _vrep(a), _vrep(b)
    sums = (va[:, None, :] + vb[None, :, :]).reshape(-1, a.dim)
    flags = Flags(symmetric=a.flags.symmetric and b.flags.symmetric)
    return vpolytope(sums, flags)


# ---------------------------------------------------------------------------
# sampling and distances


def sample_uniform(body: ConvexBody, count: int, rng: RngStream) -> np.ndarray:
    """count independent uniform points in the body.

    Balls, boxes and ellipsoids use closed-form transforms; polytopes use
    one exact draw from the fan of their hull's boundary simplices.
    """
    return sample_uniform_with(body, count, rng.generator())


def sample_uniform_with(body: ConvexBody, count: int,
                        gen: np.random.Generator) -> np.ndarray:
    """Like sample_uniform but drawing from an existing generator, so hot
    loops can share one stream instead of instantiating one per call."""
    n = body.dim
    if n == 1:
        lo, hi = bbox(body)
        return gen.uniform(lo[0], hi[0], size=(count, 1))
    if body.kind == "box":
        u = gen.uniform(-1.0, 1.0, size=(count, n))
        return body.center + u * body.halfwidths
    if body.kind in ("ball", "ellipsoid"):
        g = gen.standard_normal((count, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = gen.uniform(size=count) ** (1.0 / n)
        zb = g * r[:, None]
        if body.kind == "ball":
            return body.center + body.radius * zb
        return body.center + zb @ body._cache["chol"].T
    hull = _hull(body)
    return _fan_draw(hull, hull.interior_point, count, gen)


def _fan_draw(hull: pt.HullComplex, apex: np.ndarray, count: int,
              gen: np.random.Generator, lift=None) -> np.ndarray:
    """count uniform points of the hull, or with lift = (a, v) the same
    mixes of a in place of the apex and of row i of v in place of hull
    vertex i.

    The boundary simplices coned from an interior apex tile the hull: pick
    a cone with probability proportional to its volume, then mix its
    vertices with normalised exponential weights, a Dirichlet(1, ..., 1)
    draw, which is uniform in a simplex (Devroye 1986, XI.2).
    """
    cones = np.cumsum(np.abs(np.linalg.det(hull.vertices[hull.simplices] - apex)))
    pick = np.searchsorted(cones, gen.random(count) * cones[-1], side="right")
    w = gen.standard_exponential((count, hull.dim + 1))
    w /= w.sum(axis=1, keepdims=True)
    top, corners = (apex, hull.vertices) if lift is None else lift
    rows = hull.simplices[np.minimum(pick, len(cones) - 1)]
    return w[:, :1] * top + np.einsum("ij,ijk->ik", w[:, 1:], corners[rows])


def sample_lifted_with(shadow: ConvexBody, count: int,
                       gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(y, p): count uniform points y of a shadow made by project(body, F),
    in F-coordinates, and for each a point p of body with basis^T p = y.

    p is the point to section the body through along F-perp.  For a
    polytope, p mixes the body's vertex mean c and the vertices above the
    drawn fan simplex with the weights of y over P c and that simplex, so p
    lies strictly inside the body.  For a ball or an ellipsoid, p is the
    centre of the fibre through y.
    """
    body, basis = shadow._cache["source"]
    if body.kind in ("ball", "ellipsoid"):
        ys = sample_uniform_with(shadow, count, gen)
        rel = ys - shadow.center
        if body.kind == "ellipsoid":
            rel = np.linalg.solve(shadow.shape, rel.T).T @ (body.shape @ basis).T
        else:
            rel = rel @ basis.T
        return ys, body.center + rel
    verts = _vrep(body)
    centre = verts.mean(axis=0)
    # the shadow's hull was built from verts @ basis, so its vertex rows
    # are the body vertices above them
    hull = _hull(shadow)
    lifts = _fan_draw(hull, centre @ basis, count, gen, (centre, verts[hull.rows]))
    return lifts @ basis, lifts


def distance_batch(body: ConvexBody, points: np.ndarray) -> np.ndarray:
    """Euclidean distance to the body (0 inside); closed forms only."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if body.kind == "ball":
        return np.maximum(np.linalg.norm(x - body.center, axis=1) - body.radius, 0.0)
    if body.kind == "box":
        excess = np.maximum(np.abs(x - body.center) - body.halfwidths, 0.0)
        return np.linalg.norm(excess, axis=1)
    if body.kind == "ellipsoid":
        return _ellipsoid_distance(body, x)
    raise CapabilityError("use in_dilation for polytope distances")


def _ellipsoid_distance(body: ConvexBody, x: np.ndarray) -> np.ndarray:
    lam, u = np.linalg.eigh(body.shape)
    z = (x - body.center) @ u
    inside = np.einsum("ij,ij->i", z * z, 1.0 / lam[None, :] * np.ones_like(z)) <= 1.0
    out = np.zeros(len(x))
    idx = np.flatnonzero(~inside)
    if len(idx) == 0:
        return out
    zz = z[idx] ** 2
    lo = np.zeros(len(idx))
    hi = np.full(len(idx), math.sqrt(lam[-1]) + np.linalg.norm(z[idx], axis=1) * 1.0)
    hi = np.maximum(hi, 1.0)
    # g(t) = sum lam_i z_i^2/(lam_i+t)^2 is decreasing; find g(t)=1 by bisection
    for _ in range(8):
        g_hi = (zz * lam / (lam + hi[:, None]) ** 2).sum(axis=1)
        grow = g_hi > 1.0
        if not grow.any():
            break
        hi[grow] *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        g = (zz * lam / (lam + mid[:, None]) ** 2).sum(axis=1)
        high = g > 1.0
        lo[high] = mid[high]
        hi[~high] = mid[~high]
    t = 0.5 * (lo + hi)
    out[idx] = t * np.sqrt((zz / (lam + t[:, None]) ** 2).sum(axis=1))
    return out


DILATION_MAX_ITER = 400


def in_dilation(body: ConvexBody, points: np.ndarray, radius: float) -> np.ndarray:
    """Membership in K + radius*B, i.e. dist(x, K) <= radius.

    Closed forms where available; polytopes use a Frank-Wolfe distance
    certifier over the vertex set with primal/dual early exits.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if body.kind in ("ball", "box", "ellipsoid"):
        return distance_batch(body, x) <= radius
    v = _vrep(body)
    a, b = _hrep(body)
    inside = (x @ a.T <= b + MEMBERSHIP_TOL).all(axis=1)
    result = inside.copy()
    active = np.flatnonzero(~inside)
    if len(active) == 0:
        return result
    xa = x[active]
    start = np.argmax(xa @ v.T, axis=1)
    y = v[start]
    undecided = np.ones(len(active), dtype=bool)
    for _ in range(DILATION_MAX_ITER):
        g = y - xa
        f = np.linalg.norm(g, axis=1)
        s_idx = np.argmin(g @ v.T, axis=1)
        s = v[s_idx]
        gap = np.einsum("ij,ij->i", g, y - s)
        lower = f - gap / np.maximum(f, 1e-300)
        newly_in = undecided & (f <= radius)
        newly_out = undecided & (lower > radius)
        result[active[newly_in]] = True
        undecided &= ~(newly_in | newly_out)
        if not undecided.any():
            break
        diff = s - y
        denom = np.einsum("ij,ij->i", diff, diff)
        step = np.clip(-np.einsum("ij,ij->i", g, diff) / np.maximum(denom, 1e-300),
                       0.0, 1.0)
        y = y + step[:, None] * diff
    else:
        # Unresolved points sit within numerical reach of the dilated
        # boundary; classify by the primal value and count them.
        result[active[undecided]] = f[undecided] <= radius
        if undecided.sum() > 0.005 * len(x):
            logger.warning("in_dilation left %d/%d points undecided",
                           int(undecided.sum()), len(x))
    return result


# ---------------------------------------------------------------------------
# body specification files


def body_from_spec(spec: dict) -> ConvexBody:
    """Build a body from its file representation (see the CLI schema)."""
    kind = spec.get("type")
    flags_spec = spec.get("flags", {})
    flags = Flags(
        symmetric=bool(flags_spec.get("symmetric", False)),
        centered=bool(flags_spec.get("centered", False)),
    )
    if kind == "ball":
        return ball(spec["center"], spec["radius"], flags)
    if kind == "box":
        return box(spec["center"], spec["halfwidths"], flags)
    if kind == "ellipsoid":
        return ellipsoid(spec["center"], spec["shape"], flags)
    if kind == "vpolytope":
        return vpolytope(spec["vertices"], flags)
    if kind == "hpolytope":
        return hpolytope(spec["normals"], spec["offsets"], flags)
    raise ValueError(f"unknown body type {kind!r}")


def body_to_spec(body: ConvexBody) -> dict:
    out: dict = {"type": body.kind, "dim": body.dim,
                 "flags": {"symmetric": body.flags.symmetric,
                           "centered": body.flags.centered}}
    if body.kind == "ball":
        out["center"] = body.center.tolist()
        out["radius"] = body.radius
    elif body.kind == "box":
        out["center"] = body.center.tolist()
        out["halfwidths"] = body.halfwidths.tolist()
    elif body.kind == "ellipsoid":
        out["center"] = body.center.tolist()
        out["shape"] = body.shape.tolist()
    else:
        out["vertices"] = body.vertices.tolist()
    return out
