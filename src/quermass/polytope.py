"""Exact low-dimensional polytope computations.

Convex hulls with merged facet structure (Qhull in dimension >= 3, a
monotone chain in the plane), the vertices of bounded halfspace
intersections from the dual hull about an interior point,
fan-triangulation volumes and centroids, and exact planar area/perimeter.  hull_volumes is the one entry point for the hull
volumes of a stack of point sets (shadows, random tuples): planar stacks go
to polygon_areas, which runs the monotone chain on every row at once, so no
per-row planar hull is built.  Everything is double precision; intended
scale is dimension <= 6 and at most a few thousand points.

No jitter is applied anywhere.  Qhull runs with scipy's default options and
returns a triangulated boundary; ridge-adjacent simplices whose planes agree
within MERGE_TOL form one facet, so a cube has 6 facets.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

logger = logging.getLogger(__name__)

MAX_DIM = 6

RANK_RTOL = 1e-10
MERGE_TOL = 1e-8
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


@dataclass(frozen=True)
class Facet:
    """One facet: outward unit normal, offset, and the vertices lying on it."""

    normal: np.ndarray
    offset: float
    vertex_ids: tuple[int, ...]


@dataclass
class HullComplex:
    """Convex hull of a point set with facet structure.

    vertices are the extreme points (irredundant); facets are merged, so a
    cube has 6 facets, each listing its 4 vertices.  simplices triangulate
    the boundary (indices into vertices) and drive exact volume, centroid,
    and surface-area computations.
    """

    dim: int
    vertices: np.ndarray
    facets: list[Facet]
    interior_point: np.ndarray
    simplices: np.ndarray = field(repr=False)

    def facet_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with the hull equal to {x : A x <= b}."""
        a = np.array([f.normal for f in self.facets])
        b = np.array([f.offset for f in self.facets])
        return a, b

    def contains(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        a, b = self.facet_matrix()
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts @ a.T <= b + tol).all(axis=1)

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
    """Qhull's triangulated hull, its simplices merged into polytope facets."""
    try:
        qh = ConvexHull(pts)
    except QhullError:
        raise DegenerateHullError(affine_rank(pts), d) from None
    used = qh.vertices  # sorted input indices when d >= 3
    remap = np.empty(len(pts), dtype=int)
    remap[used] = np.arange(len(used))
    vertices = pts[used]
    simplices = remap[qh.simplices]
    norms = qh.equations[:, :d]
    offs = -qh.equations[:, d]

    # Merge coplanar simplicial facets into polytope facets (union-find over
    # ridge-adjacent pairs with matching planes).
    n_s = len(simplices)
    first = np.repeat(np.arange(n_s), d)
    second = qh.neighbors.ravel()
    pair = first < second
    first, second = first[pair], second[pair]
    scale = float(np.max(np.abs(vertices))) + 1.0
    same = (np.linalg.norm(norms[first] - norms[second], axis=1) <= MERGE_TOL) & (
        np.abs(offs[first] - offs[second]) <= MERGE_TOL * scale
    )
    parent = list(range(n_s))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(first[same].tolist(), second[same].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for i in range(n_s):
        groups.setdefault(find(i), []).append(i)
    facets = []
    for root, members in sorted(groups.items()):
        vset = sorted(set(simplices[members].ravel().tolist()))
        facets.append(
            Facet(normal=norms[root].copy(), offset=float(offs[root]), vertex_ids=tuple(vset))
        )

    return HullComplex(
        dim=d,
        vertices=vertices,
        facets=facets,
        interior_point=vertices.mean(axis=0),
        simplices=simplices,
    )


def _hull_1d(pts: np.ndarray) -> HullComplex:
    lo = int(np.argmin(pts[:, 0]))
    hi = int(np.argmax(pts[:, 0]))
    vertices = pts[[lo, hi]]
    facets = [
        Facet(normal=np.array([-1.0]), offset=float(-pts[lo, 0]), vertex_ids=(0,)),
        Facet(normal=np.array([1.0]), offset=float(pts[hi, 0]), vertex_ids=(1,)),
    ]
    simplices = np.array([[0], [1]], dtype=int)
    return HullComplex(1, vertices, facets, vertices.mean(axis=0), simplices)


def hull2d_indices(pts: np.ndarray) -> np.ndarray:
    """Indices of hull vertices in counterclockwise order (monotone chain)."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    scale = float(np.max(np.abs(pts))) + 1e-300
    eps = 1e-12 * scale * scale

    def build(seq):
        out: list[int] = []
        for i in seq:
            while len(out) >= 2:
                o, a = pts[out[-2]], pts[out[-1]]
                cross = (a[0] - o[0]) * (pts[i][1] - o[1]) - (a[1] - o[1]) * (
                    pts[i][0] - o[0]
                )
                if cross <= eps:
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    lower = build(order)
    upper = build(order[::-1])
    return np.array(lower[:-1] + upper[:-1], dtype=int)


def polygon_areas(points: np.ndarray) -> np.ndarray:
    """Areas of the convex hulls of a stack of planar point sets.

    points has shape (B, V, 2); the result is (B,).  Each row gets the hull
    hull2d_indices gives it (same per-row tolerance, same pop rule): the
    monotone chain runs on all rows at once, with one stack pointer per
    row, and the area is the shoelace over the lower and upper chains.
    Rows with fewer than 3 hull vertices give 0.
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
    # the chain itself compares raw coordinates, as hull2d_indices does.
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


def _hull_2d(pts: np.ndarray) -> HullComplex:
    idx = hull2d_indices(pts)
    if len(idx) < 3:
        raise DegenerateHullError(affine_rank(pts), 2)
    vertices = pts[idx]
    m = len(vertices)
    facets = []
    simplices = []
    for i in range(m):
        a, b = vertices[i], vertices[(i + 1) % m]
        edge = b - a
        normal = np.array([edge[1], -edge[0]])
        normal /= np.linalg.norm(normal)
        facets.append(
            Facet(normal=normal, offset=float(normal @ a), vertex_ids=(i, (i + 1) % m))
        )
        simplices.append([i, (i + 1) % m])
    return HullComplex(
        2, vertices, facets, vertices.mean(axis=0), np.array(simplices, dtype=int)
    )


def convex_hull(points: np.ndarray, dim: int | None = None) -> HullComplex:
    """Convex hull with facet structure; points must span `dim`.

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
    if d == 1:
        return _hull_1d(pts)
    if d == 2:
        # Planar hulls here have a handful of points, where the monotone
        # chain is faster than a call into Qhull.
        return _hull_2d(pts)
    return _qhull(pts, d)


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


def planar_intrinsics(vertices: np.ndarray) -> tuple[float, float]:
    """Exact (area, perimeter) of the convex hull of planar points.

    Degenerate (collinear) input yields zero area and twice the segment
    length as perimeter, with a logged warning.
    """
    pts = np.asarray(vertices, dtype=float)
    if pts.shape[1] != 2:
        raise ValueError("planar_intrinsics expects 2-d points")
    if affine_rank(pts) < 2:
        length = float(np.max(np.linalg.norm(pts[:, None] - pts[None, :], axis=2)))
        logger.warning("degenerate planar polytope: area 0, segment length %g", length)
        return 0.0, 2.0 * length
    idx = hull2d_indices(pts)
    poly = pts[idx]
    x, y = poly[:, 0], poly[:, 1]
    area = 0.5 * abs(
        float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    )
    perim = float(np.sum(np.linalg.norm(np.roll(poly, -1, axis=0) - poly, axis=1)))
    return area, perim


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
    hull = convex_hull(dual, a.shape[1])
    verts = np.array([f.normal / f.offset for f in hull.facets]) + interior
    scale = float(np.max(np.abs(verts))) + 1.0
    return dedupe_points(verts, VERTEX_TOL * scale)
