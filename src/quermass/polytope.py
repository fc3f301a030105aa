"""Exact low-dimensional polytope computations.

Convex hulls as the arrays Qhull returns (vertices, boundary simplices and
their planes), the vertices of bounded halfspace intersections from the
dual hull about an interior point (hpolytope's route; bodies clips
sections from the boundary simplices), and fan-triangulation volumes,
centroids and surface areas.  hull_volumes is the one entry point for the
hull volumes of a stack of point sets (shadows, and random tuples that are
not simplices; simplex tuples are closed forms in verify): planar stacks
go to polygon_areas, which runs a monotone chain on every row at once, so
no per-row planar hull is built.  Everything is double precision;
intended scale is dimension <= 6 and at most a few thousand points.

No jitter is applied anywhere.  Qhull runs with scipy's default options and
returns a triangulated boundary whose simplices carry the plane of the
facet they tile, so a cube has 12 simplices and 6 distinct planes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

MAX_DIM = 6

RANK_RTOL = 1e-10
VERTEX_TOL = 1e-8
# rows per pass of polygon_areas: a quarter of the estimators' batch keeps a
# pass over 22-vertex rows near 4 MB of temporaries at the same speed
AREA_CHUNK = 2048


class PolytopeError(Exception):
    pass


class CapabilityError(PolytopeError):
    """Requested computation is outside the supported (dim, size) envelope."""


class DegenerateHullError(PolytopeError):
    """Points do not span the requested dimension."""

    def __init__(self, rank: int, dim: int):
        super().__init__(f"affine rank {rank} < requested dimension {dim}")
        self.rank = rank
        self.dim = dim


@dataclass
class HullComplex:
    """Convex hull of a point set, held as the arrays Qhull returns.

    vertices are the extreme points, in input order above the plane.
    simplices triangulate the boundary (indices into vertices) and drive
    exact volume, centroid, and surface-area computations; equations[i] =
    (normal, -offset) is the outward unit plane of simplex i.  Qhull gives
    every simplex of a facet the same plane, so the facets are the distinct
    rows of equations.  Planar hulls list their vertices counterclockwise
    from the lexicographically smallest one, with the edges in that order.
    """

    dim: int
    vertices: np.ndarray
    simplices: np.ndarray = field(repr=False)
    equations: np.ndarray = field(repr=False)
    interior_point: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.interior_point = self.vertices.mean(axis=0)

    def facet_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with the hull equal to {x : A x <= b}, one row per facet
        in order of its first simplex."""
        # rows compare as bytes: a facet's simplices carry copies of one plane
        eq = np.ascontiguousarray(self.equations)
        rows = eq.view(np.dtype((np.void, eq.itemsize * eq.shape[1]))).ravel()
        _, first = np.unique(rows, return_index=True)
        eq = eq[np.sort(first)]
        return eq[:, :-1], -eq[:, -1]

    def volume(self) -> float:
        vol, _ = volume_and_centroid(self)
        return vol

    def centroid(self) -> np.ndarray:
        _, cen = volume_and_centroid(self)
        return cen

    def surface_area(self) -> float:
        """Total (dim-1)-volume of the boundary."""
        v = self.vertices[self.simplices]
        e = v[:, 1:, :] - v[:, :1, :]
        gram = e @ e.transpose(0, 2, 1)
        dets = np.linalg.det(gram)
        np.maximum(dets, 0.0, out=dets)
        return float(np.sum(np.sqrt(dets))) / math.factorial(self.dim - 1)


def affine_rank(points: np.ndarray, rtol: float = RANK_RTOL) -> int:
    pts = np.asarray(points, dtype=float)
    if len(pts) <= 1:
        return 0
    spread = pts - pts.mean(axis=0)
    sv = np.linalg.svd(spread, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rtol * sv[0]))


def dedupe_points(points: np.ndarray, tol: float) -> np.ndarray:
    """Drop near-duplicate rows (within euclidean tol), deterministically."""
    pts = np.asarray(points, dtype=float)
    if len(pts) <= 1:
        return pts.copy()
    order = np.lexsort(pts.T[::-1])
    spts = pts[order]
    kept: list[int] = []
    for i in range(len(spts)):
        dup = False
        for k in reversed(kept):
            if spts[i, 0] - spts[k, 0] > tol:
                break
            if np.linalg.norm(spts[i] - spts[k]) <= tol:
                dup = True
                break
        if not dup:
            kept.append(i)
    return spts[kept]


def _qhull(pts: np.ndarray, d: int) -> HullComplex:
    """Qhull's triangulated hull; a planar one is turned into a ring."""
    try:
        qh = ConvexHull(pts)
    except QhullError:
        raise DegenerateHullError(affine_rank(pts), d) from None
    if d > 2:
        rows = qh.vertices  # sorted input indices
        remap = np.empty(len(pts), dtype=int)
        remap[rows] = np.arange(len(rows))
        return HullComplex(d, pts[rows], remap[qh.simplices], qh.equations)
    # qh.vertices run counterclockwise: start the ring at the smallest and
    # give its edges their planes in ring order
    ring = qh.vertices
    m = len(ring)
    step = np.arange(m)
    rows = ring[(step + np.lexsort((pts[ring, 1], pts[ring, 0]))[0]) % m]
    simplices = np.column_stack([step, (step + 1) % m])
    vertices = pts[rows]
    edge = vertices[simplices[:, 1]] - vertices
    equations = np.empty((m, 3))
    normals = equations[:, :2]
    normals[:, 0], normals[:, 1] = edge[:, 1], -edge[:, 0]
    normals /= np.sqrt(normals[:, None] @ normals[:, :, None])[:, 0]
    equations[:, 2] = -(normals[:, None] @ vertices[:, :, None])[:, 0, 0]
    return HullComplex(2, vertices, simplices, equations)


def _hull_1d(pts: np.ndarray) -> HullComplex:
    rows = np.array([np.argmin(pts[:, 0]), np.argmax(pts[:, 0])])
    lo, hi = pts[rows, 0]
    equations = np.array([[-1.0, lo], [1.0, -hi]])
    return HullComplex(1, pts[rows], np.array([[0], [1]]), equations)


def polygon_areas(points: np.ndarray) -> np.ndarray:
    """Areas of the convex hulls of a stack of planar point sets.

    points has shape (B, V, 2); the result is (B,).  The monotone chain
    runs on all rows at once, with one stack pointer per row, and drops a
    point whose turn is within 1e-12 (max |coordinate|)^2 of straight; the
    area is the shoelace over the lower and upper chains.  Rows with fewer
    than 3 hull vertices give 0.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3 or pts.shape[2] != 2:
        raise ValueError("points must have shape (B, V, 2)")
    out = np.zeros(len(pts))
    if pts.shape[1] >= 3:
        for start in range(0, len(pts), AREA_CHUNK):
            out[start:start + AREA_CHUNK] = _chain_areas(pts[start:start + AREA_CHUNK])
    return out


def _chain_areas(pts: np.ndarray) -> np.ndarray:
    b, v = pts.shape[:2]
    order = np.lexsort((pts[..., 1], pts[..., 0]), axis=-1)
    xs = np.take_along_axis(pts[..., 0], order, axis=-1)
    ys = np.take_along_axis(pts[..., 1], order, axis=-1)
    scale = np.abs(pts).max(axis=(1, 2)) + 1e-300
    eps = 1e-12 * scale * scale
    rows = np.arange(b)
    # The shoelace is taken about each row's leftmost point, for accuracy;
    # the chain itself compares raw coordinates.
    x0, y0 = xs[:, :1], ys[:, :1]
    twice_area = np.zeros(b)
    vertex_count = np.zeros(b, dtype=int)
    for cx, cy in ((xs, ys), (xs[:, ::-1], ys[:, ::-1])):
        stack_x = np.zeros((b, v))
        stack_y = np.zeros((b, v))
        top = np.zeros(b, dtype=int)
        for i in range(v):
            px, py = cx[:, i], cy[:, i]
            # pop while the last turn is not strictly counterclockwise; only
            # rows that popped can pop again
            live = rows[top >= 2]
            while live.size:
                t = top[live]
                ox, oy = stack_x[live, t - 2], stack_y[live, t - 2]
                ax, ay = stack_x[live, t - 1], stack_y[live, t - 1]
                qx, qy = px[live], py[live]
                cross = (ax - ox) * (qy - oy) - (ay - oy) * (qx - ox)
                live = live[cross <= eps[live]]
                top[live] -= 1
                live = live[top[live] >= 2]
            stack_x[rows, top] = px
            stack_y[rows, top] = py
            top += 1
        sx, sy = stack_x - x0, stack_y - y0
        edge = sx[:, :-1] * sy[:, 1:] - sy[:, :-1] * sx[:, 1:]
        on_chain = np.arange(v - 1) < (top - 1)[:, None]
        twice_area += np.where(on_chain, edge, 0.0).sum(axis=1)
        vertex_count += top - 1
    return np.where(vertex_count >= 3, 0.5 * np.abs(twice_area), 0.0)


def convex_hull(points: np.ndarray, dim: int | None = None) -> HullComplex:
    """Convex hull of points that span `dim`.

    Raises DegenerateHullError (carrying the achieved rank) for flat input
    and CapabilityError above dimension 6.
    """
    pts = np.ascontiguousarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    d = pts.shape[1] if dim is None else int(dim)
    if d != pts.shape[1]:
        raise ValueError("dim does not match point coordinates")
    if d < 1 or d > MAX_DIM:
        raise CapabilityError(f"hull construction supports 1 <= dim <= {MAX_DIM}")
    if len(pts) < d + 1:
        raise DegenerateHullError(affine_rank(pts), d)
    rank = affine_rank(pts)
    if rank < d:
        raise DegenerateHullError(rank, d)
    return _hull_1d(pts) if d == 1 else _qhull(pts, d)


def volume_and_centroid(hull: HullComplex) -> tuple[float, np.ndarray]:
    """Exact volume and centroid by fan triangulation from the interior point."""
    d = hull.dim
    v = hull.vertices[hull.simplices]
    apex = hull.interior_point
    e = v - apex
    vols = np.abs(np.linalg.det(e)) / math.factorial(d)
    total = float(math.fsum(vols.tolist()))
    if total <= 0.0:
        return 0.0, apex.copy()
    cents = (v.sum(axis=1) + apex) / (d + 1)
    centroid = (vols[:, None] * cents).sum(axis=0) / total
    return total, centroid


def hull_volume(points: np.ndarray, dim: int | None = None) -> float:
    return volume_and_centroid(convex_hull(points, dim))[0]


def hull_volumes(points: np.ndarray) -> np.ndarray:
    """Volumes of the convex hulls of a stack of point sets.

    points has shape (B, V, d); the result is (B,).  Rows of 1-d points give
    their range, planar rows go through polygon_areas in one batch, and rows
    of dimension >= 3 get one hull each; a row that does not span d
    dimensions has volume 0.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3:
        raise ValueError("points must have shape (B, V, d)")
    d = pts.shape[2]
    if d == 1:
        return pts[:, :, 0].max(axis=1) - pts[:, :, 0].min(axis=1)
    if d == 2:
        return polygon_areas(pts)
    out = np.empty(len(pts))
    for i, row in enumerate(pts):
        try:
            out[i] = hull_volume(row, d)
        except DegenerateHullError:
            out[i] = 0.0
    return out


def halfspace_intersection_vertices(
    normals: np.ndarray, offsets: np.ndarray, interior: np.ndarray
) -> np.ndarray:
    """Vertices of a bounded {x : A x <= b} via polar duality.

    Needs a strictly interior point.  Scales to many (mostly redundant)
    constraints: the facets of one hull of the dual points are the
    vertices.
    """
    a = np.asarray(normals, dtype=float)
    b = np.asarray(offsets, dtype=float)
    interior = np.asarray(interior, dtype=float)
    slack = b - a @ interior
    if np.any(slack <= 0.0):
        raise ValueError("interior point is not strictly feasible")
    dual = a / slack[:, None]
    facet_normals, facet_offsets = convex_hull(dual, a.shape[1]).facet_matrix()
    verts = facet_normals / facet_offsets[:, None] + interior
    scale = float(np.max(np.abs(verts))) + 1.0
    return dedupe_points(verts, VERTEX_TOL * scale)
