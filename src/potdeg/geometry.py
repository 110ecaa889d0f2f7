"""Discrete closed surfaces and volume grids with quadrature.

A surface is a watertight triangulation carrying per-node outward unit
normals and vertex quadrature weights (one third of the incident flat
triangle areas).  Point classification against the surface goes through
the Gauss solid-angle integral; exact membership of many points (volume
grids) through the pseudonormal sign at the closest surface point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import AmbiguousClassification

INTERIOR = "Interior"
EXTERIOR = "Exterior"
BOUNDARY = "Boundary"


def as_point(p) -> np.ndarray:
    """Coerce to a finite (3,) float array."""
    x = np.asarray(p, dtype=float).reshape(3)
    if not np.all(np.isfinite(x)):
        raise ValueError("point has non-finite components")
    return x


@dataclass
class SurfaceMesh:
    """Triangulated closed boundary: nodes, triangles, outward normals, vertex weights."""

    nodes: np.ndarray          # (n, 3)
    triangles: np.ndarray      # (t, 3) int
    normals: np.ndarray        # (n, 3) unit outward
    weights: np.ndarray        # (n,) vertex quadrature weights
    _tree: cKDTree = field(default=None, repr=False, compare=False)
    _node_spacing: np.ndarray = field(default=None, repr=False, compare=False)
    _incidence: tuple = field(default=None, repr=False, compare=False)
    _incident: list = field(default=None, repr=False, compare=False)
    _panels: tuple = field(default=None, repr=False, compare=False)
    _pseudo: "Pseudonormals" = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_area(self) -> float:
        return float(np.sum(self.weights))

    @property
    def tree(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.nodes)
        return self._tree

    @property
    def node_spacing(self) -> np.ndarray:
        """Mean incident edge length per node."""
        if self._node_spacing is None:
            edges = _directed_edges(self.triangles)
            d = np.linalg.norm(self.nodes[edges[:, 0]] - self.nodes[edges[:, 1]], axis=1)
            acc = np.zeros(self.n_nodes)
            np.add.at(acc, edges.ravel(), np.repeat(d, 2))
            cnt = np.bincount(edges.ravel(), minlength=self.n_nodes)
            self._node_spacing = acc / np.maximum(cnt, 1)
        return self._node_spacing

    @property
    def incidence(self) -> tuple:
        """Flat incidence table (counts, ends, ids), built once.

        Node i touches the triangles ids[ends[i] - counts[i]:ends[i]], in
        ascending order; ends is the cumulative sum of counts.
        """
        if self._incidence is None:
            flat = self.triangles.ravel()
            cnt = np.bincount(flat, minlength=self.n_nodes)
            self._incidence = (cnt, np.cumsum(cnt), np.argsort(flat, kind="stable") // 3)
        return self._incidence

    @property
    def incident_triangles(self) -> list:
        """For each node, indices of triangles touching it."""
        if self._incident is None:
            _, ends, ids = self.incidence
            self._incident = np.split(ids, ends[:-1])
        return self._incident

    @property
    def panels(self) -> tuple:
        """(areas, flat unit normals) of the triangles, built once.

        Each flat normal is oriented to agree with the mean of its three
        vertex normals, whatever the triangle winding.
        """
        if self._panels is None:
            P = self.nodes[self.triangles]
            flat = np.cross(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])
            flat /= np.maximum(np.linalg.norm(flat, axis=-1, keepdims=True), 1e-30)
            flip = np.einsum("td,td->t", flat, self.normals[self.triangles].mean(axis=1)) < 0
            flat[flip] = -flat[flip]
            self._panels = (triangle_areas(self.nodes, self.triangles), flat)
        return self._panels

    @property
    def pseudonormals(self) -> "Pseudonormals":
        """Closest-point and pseudonormal tables of points_inside, built once."""
        if self._pseudo is None:
            self._pseudo = _build_pseudonormals(self.nodes, self.triangles)
        return self._pseudo

    def local_spacing(self, x) -> float:
        """Node spacing at the node nearest to x."""
        _, idx = self.tree.query(np.asarray(x, dtype=float).reshape(-1, 3))
        sp = self.node_spacing[idx]
        return float(sp[0]) if sp.size == 1 else sp


def triangle_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p0 = nodes[triangles[:, 0]]
    p1 = nodes[triangles[:, 1]]
    p2 = nodes[triangles[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=1)


def _directed_edges(triangles: np.ndarray) -> np.ndarray:
    """(3t, 2) node pairs (i, j), (j, k), (k, i) of each triangle in turn."""
    return triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)


def check_watertight(triangles: np.ndarray) -> bool:
    """Every undirected edge must be shared by exactly two triangles."""
    _, counts = np.unique(np.sort(_directed_edges(triangles), axis=1), axis=0,
                          return_counts=True)
    return bool(np.all(counts == 2))


def _vertex_weights(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    areas = triangle_areas(nodes, triangles)
    w = np.zeros(len(nodes))
    np.add.at(w, triangles.ravel(), np.repeat(areas / 3.0, 3))
    return w


def _orientation(nodes: np.ndarray, triangles: np.ndarray) -> float:
    """+1 when the triangle winding is outward, -1 when inward.

    Sign of the signed volume of the cone over the centroid-shifted surface.
    """
    q = nodes[triangles] - nodes.mean(axis=0)
    vol6 = np.sum(np.einsum("ij,ij->i", q[:, 0], np.cross(q[:, 1], q[:, 2])))
    return -1.0 if vol6 < 0 else 1.0


def _vertex_normals(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Area-weighted average of incident triangle normals, unit length, globally outward."""
    p0 = nodes[triangles[:, 0]]
    p1 = nodes[triangles[:, 1]]
    p2 = nodes[triangles[:, 2]]
    cr = np.cross(p1 - p0, p2 - p0)  # 2*area * unit normal (winding orientation)
    nrm = np.zeros_like(nodes)
    np.add.at(nrm, triangles.ravel(), np.repeat(cr, 3, axis=0))
    lengths = np.linalg.norm(nrm, axis=1)
    if np.any(lengths == 0):
        raise ValueError("degenerate vertex normal")
    nrm /= lengths[:, None]
    if _orientation(nodes, triangles) < 0:
        nrm = -nrm
    return nrm


# icosahedron with unit circumradius
_PHI = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
    [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
    [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
], dtype=float) / np.sqrt(1.0 + _PHI * _PHI)
_ICO_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
], dtype=int)


def make_unit_sphere(refinement_level: int) -> SurfaceMesh:
    """Icosphere: subdivide the icosahedron `refinement_level` times, project to |P| = 1.

    Normals are the node positions; weights one third of incident areas.
    """
    if refinement_level < 0:
        raise ValueError("refinement_level must be >= 0")
    verts = [tuple(v) for v in _ICO_VERTS]
    faces = _ICO_FACES.copy()
    for _ in range(refinement_level):
        cache = {}
        new_faces = []

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in cache:
                m = np.asarray(verts[a]) + np.asarray(verts[b])
                m /= np.linalg.norm(m)
                verts.append(tuple(m))
                cache[key] = len(verts) - 1
            return cache[key]

        for (i, j, k) in faces:
            a = midpoint(i, j)
            b = midpoint(j, k)
            c = midpoint(k, i)
            new_faces += [[i, a, c], [j, b, a], [k, c, b], [a, b, c]]
        faces = np.array(new_faces, dtype=int)
    nodes = np.array(verts, dtype=float)
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    return SurfaceMesh(
        nodes=nodes,
        triangles=faces,
        normals=nodes.copy(),
        weights=_vertex_weights(nodes, faces),
    )


def mesh_from_arrays(nodes, triangles) -> SurfaceMesh:
    """Build a mesh from raw node/triangle arrays; normals and weights recomputed."""
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 3)
    triangles = np.asarray(triangles, dtype=int).reshape(-1, 3)
    if not check_watertight(triangles):
        raise ValueError("mesh is not watertight")
    return SurfaceMesh(
        nodes=nodes,
        triangles=triangles,
        normals=_vertex_normals(nodes, triangles),
        weights=_vertex_weights(nodes, triangles),
    )


def save_mesh(mesh: SurfaceMesh, path) -> None:
    with open(path, "w") as f:
        json.dump({"nodes": mesh.nodes.tolist(),
                   "triangles": mesh.triangles.tolist()}, f)


def load_mesh(path) -> SurfaceMesh:
    """Load {"nodes": ..., "triangles": ...}; normals/weights are never trusted from file."""
    with open(path) as f:
        data = json.load(f)
    return mesh_from_arrays(data["nodes"], data["triangles"])


def surface_integral(mesh: SurfaceMesh, values) -> float:
    """Vertex-rule surface integral sum_i w_i v_i."""
    v = np.asarray(values, dtype=float)
    if v.shape != (mesh.n_nodes,):
        raise ValueError(f"field length {v.shape} does not match node count {mesh.n_nodes}")
    return float(np.sum(mesh.weights * v))


class Pseudonormals(NamedTuple):
    """Per-mesh tables of points_inside (Baerentzen & Aanaes, IEEE TVCG 2005).

    All normals are oriented outward whatever the triangle winding.
    `feature[t, r]` is the row of `normals` for closest-point region r of
    triangle t, in _closest_on_triangles' order: vertex a, vertex b, edge ab,
    vertex c, edge ac, edge bc, face.
    """

    a: np.ndarray          # (t, 3) first vertex of each triangle
    ab: np.ndarray         # (t, 3) b - a
    ac: np.ndarray         # (t, 3) c - a
    normals: np.ndarray    # (t + e + n, 3) face, edge and angle-weighted vertex normals
    feature: np.ndarray    # (t, 7) int
    centroids: cKDTree     # triangle centroids
    r_max: float           # largest centroid-to-vertex distance
    orient: float          # +1 outward winding, -1 inward


def _build_pseudonormals(nodes: np.ndarray, triangles: np.ndarray) -> Pseudonormals:
    t = len(triangles)
    orient = _orientation(nodes, triangles)
    p = nodes[triangles]                                   # (t, 3, 3)
    ab, ac = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    fn = orient * np.cross(ab, ac)
    fn /= np.linalg.norm(fn, axis=1)[:, None]
    # edge pseudonormal: sum of the two incident face normals
    keys, edge = np.unique(np.sort(_directed_edges(triangles), axis=1), axis=0,
                           return_inverse=True)
    edge = edge.reshape(t, 3)                              # columns ab, bc, ca
    en = np.zeros((len(keys), 3))
    np.add.at(en, edge.ravel(), np.repeat(fn, 3, axis=0))
    # vertex pseudonormal: incident face normals weighted by the corner angle
    to_next = np.roll(p, -1, axis=1) - p
    to_prev = np.roll(p, 1, axis=1) - p
    angle = np.arctan2(np.linalg.norm(np.cross(to_next, to_prev), axis=2),
                       np.einsum("tkd,tkd->tk", to_next, to_prev))
    vn = np.zeros_like(nodes)
    np.add.at(vn, triangles.ravel(), (angle[:, :, None] * fn[:, None, :]).reshape(-1, 3))
    e_row, v_row = t + edge, t + len(keys) + triangles
    feature = np.column_stack([v_row[:, 0], v_row[:, 1], e_row[:, 0], v_row[:, 2],
                               e_row[:, 2], e_row[:, 1], np.arange(t)])
    centroid = p.mean(axis=1)
    r_max = float(np.max(np.linalg.norm(p - centroid[:, None, :], axis=2)))
    return Pseudonormals(p[:, 0], ab, ac, np.concatenate([fn, en, vn]), feature,
                         cKDTree(centroid), r_max, orient)


def _dot(u, v):
    return np.einsum("ij,ij->i", u, v)


def _closest_on_triangles(P, a, ab, ac):
    """Closest point on triangle (a, a + ab, a + ac) to P, row by row, and its region.

    Ericson, Real-Time Collision Detection, 5.1.5, vectorised; the region
    codes follow its test order (see Pseudonormals).
    """
    ap = P - a
    bp = ap - ab
    cp = ap - ac
    d1, d2 = _dot(ab, ap), _dot(ac, ap)
    d3, d4 = _dot(ab, bp), _dot(ac, bp)
    d5, d6 = _dot(ab, cp), _dot(ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    region = np.select([(d1 <= 0) & (d2 <= 0),
                        (d3 >= 0) & (d4 <= d3),
                        (vc <= 0) & (d1 >= 0) & (d3 <= 0),
                        (d6 >= 0) & (d5 <= d6),
                        (vb <= 0) & (d2 >= 0) & (d6 <= 0),
                        (va <= 0) & (d4 >= d3) & (d5 >= d6)],
                       [0, 1, 2, 3, 4, 5], default=6)
    # each denominator is a squared edge length or squared twice-area, so
    # positive on the rows whose region selects it
    with np.errstate(divide="ignore", invalid="ignore"):
        w_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        inv = 1.0 / (va + vb + vc)
        v = np.choose(region, [0.0, 1.0, d1 / (d1 - d3), 0.0, 0.0, 1.0 - w_bc, vb * inv])
        w = np.choose(region, [0.0, 0.0, 0.0, 1.0, d2 / (d2 - d6), w_bc, vc * inv])
    return a + v[:, None] * ab + w[:, None] * ac, region


# (point, triangle) pairs per block of points_inside: about 200 kB per (pairs, 3)
# temporary.  Larger blocks are no faster and leave more freed heap resident.
_PAIR_BLOCK = 1 << 13


def points_inside(mesh: SurfaceMesh, X) -> np.ndarray:
    """Exact membership of each point in the closed mesh, as a bool array.

    Sign test of Baerentzen & Aanaes: the point is inside when it lies behind
    the pseudonormal of its closest surface point (face normal, sum of the
    two face normals on an edge, angle-weighted normal at a vertex).  The
    closest triangle is searched among those whose centroid lies within the
    nearest-node distance plus the largest centroid-to-vertex distance,
    which contains it.  Points within round-off of the surface, where the
    sign is not trustworthy, fall back to the exact winding number, so the
    result equals orient * winding_solid_angle > 2 pi throughout.
    """
    from .potentials import winding_solid_angle

    X = np.asarray(X, dtype=float).reshape(-1, 3)
    pn = mesh.pseudonormals
    d_node, _ = mesh.tree.query(X)
    radius = (d_node + pn.r_max) * (1.0 + 1e-9)   # padded against round-off
    counts = pn.centroids.query_ball_point(X, radius, return_length=True)
    ends = np.cumsum(counts)
    inside = np.empty(len(X), dtype=bool)
    dist2 = np.empty(len(X))
    s = 0
    while s < len(X):
        e = max(s + 1, int(np.searchsorted(ends, ends[s] - counts[s] + _PAIR_BLOCK, "right")))
        cnt = counts[s:e]
        lists = pn.centroids.query_ball_point(X[s:e], radius[s:e])
        tri = np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=int(cnt.sum()))
        P = np.repeat(X[s:e], cnt, axis=0)
        q, region = _closest_on_triangles(P, pn.a[tri], pn.ab[tri], pn.ac[tri])
        diff = P - q
        d2 = _dot(diff, diff)
        dmin = np.minimum.reduceat(d2, np.cumsum(cnt) - cnt)
        hit = np.flatnonzero(d2 == np.repeat(dmin, cnt))
        owner = np.repeat(np.arange(e - s), cnt)[hit]
        best = hit[np.r_[True, owner[1:] != owner[:-1]]]   # first closest pair per point
        n = pn.normals[pn.feature[tri[best], region[best]]]
        inside[s:e] = _dot(diff[best], n) < 0.0
        dist2[s:e] = dmin
        s = e
    near = dist2 <= (1e-9 * float(np.max(mesh.node_spacing))) ** 2
    if np.any(near):
        inside[near] = pn.orient * winding_solid_angle(mesh, X[near]) > 2.0 * np.pi
    return inside


@dataclass
class VolumeGrid:
    """Uniform cells whose centers lie inside the surface.

    Cells cut by the surface carry fractional weights (inside volume) and
    their center is the centroid of the inside part; full_cell marks the
    uncut ones.
    """

    centers: np.ndarray   # (c, 3)
    weights: np.ndarray   # (c,) cell volumes (fractional at the boundary)
    box_lo: np.ndarray    # (3,)
    box_hi: np.ndarray    # (3,)
    shape: tuple          # (nx, ny, nz) of the generating box grid
    inside_index: np.ndarray  # flat indices of the interior cells within the box grid
    full_cell: np.ndarray = None  # (c,) bool; True when the cell is entirely inside
    partial_points: dict = None   # cell -> (k, 3) inside-subcell centers for cut cells

    def __post_init__(self):
        if self.full_cell is None:
            self.full_cell = np.ones(len(self.centers), dtype=bool)
        if self.partial_points is None:
            self.partial_points = {}

    @property
    def n_cells(self) -> int:
        return len(self.centers)

    @property
    def measure(self) -> float:
        return float(np.sum(self.weights))

    @property
    def spacing(self) -> np.ndarray:
        return (self.box_hi - self.box_lo) / np.asarray(self.shape, dtype=float)


# unit-cube offsets of the 4^3 subcell centers: cut cells here, near cells in potentials
_SUBCELL_OFFSETS = (np.indices((4, 4, 4)).reshape(3, -1).T + 0.5) / 4 - 0.5


def box_cell_centers(box_lo, box_hi, shape):
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    shape = tuple(int(s) for s in shape)
    axes = [lo[a] + (np.arange(shape[a]) + 0.5) * (hi[a] - lo[a]) / shape[a] for a in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def volume_grid_from_mesh(mesh: SurfaceMesh, shape, box_lo=None, box_hi=None) -> VolumeGrid:
    """Grid of the mesh bounding box with partial-volume weights at the boundary.

    Cell membership is exact for the flat polyhedron (sharp down to the
    surface, consistent with the panel-exact near-field quadrature), not the
    banded trichotomy of classify_point, so the near-boundary shell is kept.
    It goes through points_inside: the pseudonormal sign at the closest
    surface point, with the exact winding number (winding_solid_angle) for
    points within round-off of a face, so it equals the winding test
    `winding > 2 pi` of an outward-wound mesh.  An inward-wound mesh gives
    the same grid.

    Cells straddling the surface are split into 4^3 subcells; the cell
    gets the inside fraction as its weight and the inside centroid as its
    center, which keeps the mass distribution right to O(dx^2) for singular
    kernels integrated nearby.
    """
    if box_lo is None:
        box_lo = mesh.nodes.min(axis=0)
    if box_hi is None:
        box_hi = mesh.nodes.max(axis=0)
    box_lo = np.asarray(box_lo, dtype=float)
    box_hi = np.asarray(box_hi, dtype=float)
    shape = tuple(int(s) for s in shape)
    centers = box_cell_centers(box_lo, box_hi, shape)
    spacing = (box_hi - box_lo) / np.asarray(shape, dtype=float)
    vol = float(np.prod(spacing))
    inside = points_inside(mesh, centers)

    dist, _ = mesh.tree.query(centers)
    margin = float(np.linalg.norm(spacing / 2.0)) + float(np.max(mesh.node_spacing))
    straddle = dist < margin
    keep = inside.copy()
    weights = np.full(len(centers), vol)
    new_centers = centers.copy()
    full = ~straddle
    sub_points = {}
    cand = np.nonzero(straddle)[0]
    if len(cand):
        off = _SUBCELL_OFFSETS * spacing[None, :]
        pts = (centers[cand][:, None, :] + off[None, :, :]).reshape(-1, 3)
        sub_in = points_inside(mesh, pts).reshape(len(cand), -1)
        frac = sub_in.mean(axis=1)
        keep[cand] = frac > 0.0
        weights[cand] = vol * frac
        for r, c in enumerate(cand):
            if 0.0 < frac[r] < 1.0:
                inside_pts = centers[c] + off[sub_in[r]]
                new_centers[c] = inside_pts.mean(axis=0)
                sub_points[c] = inside_pts
        full[cand] = frac >= 1.0
    kept = np.nonzero(keep)[0]
    remap = {c: i for i, c in enumerate(kept)}
    return VolumeGrid(
        centers=new_centers[keep],
        weights=weights[keep],
        box_lo=box_lo,
        box_hi=box_hi,
        shape=shape,
        inside_index=kept,
        full_cell=full[keep],
        partial_points={remap[c]: p for c, p in sub_points.items() if c in remap},
    )


def classify_point(mesh: SurfaceMesh, x) -> str:
    """Gauss solid-angle trichotomy with a boundary band of one local node spacing."""
    from .potentials import solid_angle

    x = as_point(x)
    dist, nearest = mesh.tree.query(x)     # nearest node: a proxy for the surface
    if dist <= mesh.node_spacing[nearest]:
        return BOUNDARY
    omega = solid_angle(mesh, x)
    band = np.pi / 2.0
    if abs(omega + 4.0 * np.pi) <= band:
        return INTERIOR
    if abs(omega) <= band:
        return EXTERIOR
    if abs(omega + 2.0 * np.pi) <= band:
        return BOUNDARY
    raise AmbiguousClassification(
        f"solid angle {omega:.4f} is between threshold bands; mesh too coarse near {x}")
