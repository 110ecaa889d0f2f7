"""Newtonian kernel evaluations on discrete surfaces and volume grids.

Two kernel conventions are first-class: Unnormalized uses 1/r (solid-angle
trichotomy -4pi/-2pi/0, jump constants +-2pi), Newton uses h = 1/(4*pi*r)
(jump constants +-1/2).  The Newton double layer uses the gradient-at-the-
observation-point kernel grad_X h(X-P).n_P, which is -(1/4pi) times the
unnormalized kernel d(1/r)/dn_P; the sign is pinned by the constant
reproduction of the representation formula (see tests).

Near-singular evaluations (probe closer than two node spacings, including
on-surface principal values) recompute the contribution of the triangles
incident to the nearby nodes by 4-way recursive flat-triangle subdivision
with barycentric density interpolation and interpolated unit normals.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import SingularEvaluation
from .geometry import SurfaceMesh, VolumeGrid, as_point, triangle_areas

_4PI = 4.0 * np.pi
_R_FLOOR = 1e-30  # large enough that r**3 does not underflow to 0


class KernelConvention(Enum):
    UNNORMALIZED = "unnormalized"   # 1/r kernels, +-2pi jumps
    NEWTON = "newton"               # h = 1/(4 pi r) kernels, +-1/2 jumps


# ---------------------------------------------------------------------------
# raw kernels; pts (m,3), nrm (m,3) -> (m,) or (m,3)
# ---------------------------------------------------------------------------

def _kern_single_newton(x, pts, nrm):
    r = np.linalg.norm(pts - x, axis=-1)
    return 1.0 / (_4PI * np.maximum(r, _R_FLOOR))


def _kern_double_newton(x, pts, nrm):
    d = pts - x
    r = np.maximum(np.linalg.norm(d, axis=-1), _R_FLOOR)
    return np.einsum("...d,...d->...", d, nrm) / (_4PI * r ** 3)


def _kern_double_unnorm(x, pts, nrm):
    # d(1/r_PX)/dn_P = (X - P).n_P / r^3
    return -_4PI * _kern_double_newton(x, pts, nrm)


def _kern_abs_gauss(x, pts, nrm):
    d = pts - x
    r = np.maximum(np.linalg.norm(d, axis=-1), _R_FLOOR)
    return np.abs(np.einsum("...d,...d->...", d, nrm)) / r ** 3


def _kern_adjoint_newton(n0):
    """d h / d n_{p0}: gradient at the target dotted with the target normal."""
    n0 = np.asarray(n0, dtype=float)

    def kern(x, pts, nrm):
        d = pts - x
        r = np.maximum(np.linalg.norm(d, axis=-1), _R_FLOOR)
        return (d @ n0) / (_4PI * r ** 3)

    return kern


def _kern_grad_single_newton(x, pts, nrm):
    d = x - pts
    r = np.maximum(np.linalg.norm(d, axis=-1), _R_FLOOR)
    return -d / (_4PI * r ** 3)[..., None]


def _kern_grad_double_newton(x, pts, nrm):
    d = x - pts                                   # X - P
    r = np.maximum(np.linalg.norm(d, axis=-1), _R_FLOOR)
    dn = np.einsum("...d,...d->...", d, nrm)
    return (3.0 * dn[..., None] * d / (r ** 2)[..., None] - nrm) / (_4PI * r ** 3)[..., None]


# Principal-value self completion: the vertex rule excludes the self node, which
# drops the integral over the node's own quadrature cell.  On a smooth surface
# the kernels behave like c(kappa)/r there, so the missing mass over an
# equal-area disk (rho = sqrt(w_i/pi)) is analytic; kappa is the discrete mean
# normal curvature read off the 1-ring ((P_i - P_j).n_j ~= -kappa r^2 / 2).

def mean_curvature(mesh: SurfaceMesh) -> np.ndarray:
    if getattr(mesh, "_kappa", None) is None:
        n = mesh.n_nodes
        acc = np.zeros(n)
        cnt = np.zeros(n)
        for (i, j, k) in mesh.triangles:
            for a, b in ((i, j), (j, k), (k, i)):
                for p, q in ((a, b), (b, a)):
                    d = mesh.nodes[p] - mesh.nodes[q]
                    r2 = d @ d
                    acc[p] += -2.0 * (d @ mesh.normals[q]) / r2
                    cnt[p] += 1
        mesh._kappa = acc / np.maximum(cnt, 1)
    return mesh._kappa


def _pv_disk(mesh, i, kind):
    rho = np.sqrt(mesh.weights[i] / np.pi)
    kappa = mean_curvature(mesh)[i]
    if kind == "single":
        return rho / 2.0                       # integral of h over the disk
    if kind == "double":
        return kappa * rho / 4.0               # source normal: ~ +kappa/(8 pi r)
    if kind == "double_unnorm":
        return -np.pi * kappa * rho            # -4 pi times the Newton double layer
    if kind == "abs_gauss":
        return np.pi * abs(kappa) * rho
    if kind == "adjoint":
        return -kappa * rho / 4.0              # target normal: ~ -kappa/(8 pi r)
    raise ValueError(kind)


_kern_single_newton.pv_kind = "single"
_kern_double_newton.pv_kind = "double"
_kern_double_unnorm.pv_kind = "double_unnorm"
_kern_abs_gauss.pv_kind = "abs_gauss"


# ---------------------------------------------------------------------------
# near-field patch machinery
# ---------------------------------------------------------------------------

_BARY_CACHE: dict = {}


def _subdiv_bary(depth: int) -> np.ndarray:
    """Barycentric corner coordinates of the 4^depth midpoint subtriangles."""
    if depth not in _BARY_CACHE:
        tris = [np.eye(3)]
        for _ in range(depth):
            new = []
            for t in tris:
                a, b, c = t
                ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
                new += [np.array([a, ab, ca]), np.array([b, bc, ab]),
                        np.array([c, ca, bc]), np.array([ab, bc, ca])]
            tris = new
        _BARY_CACHE[depth] = np.stack(tris)
    return _BARY_CACHE[depth]


def _near_tri_ids(mesh: SurfaceMesh, x, radius_factor):
    h = mesh.local_spacing(x)
    idx = mesh.tree.query_ball_point(np.asarray(x, dtype=float), radius_factor * h)
    tri = set()
    for i in idx:
        tri.update(mesh.incident_triangles[i].tolist())
    return np.array(sorted(tri), dtype=int)


def _patch_group(mesh, x, kern, tri_ids, depth, exclude_node):
    """Correction for one group of triangles at a common subdivision depth."""
    verts = mesh.triangles[tri_ids]                     # (T, 3)
    P = mesh.nodes[verts]                               # (T, 3, 3)
    N = mesh.normals[verts]                             # (T, 3, 3)
    A = triangle_areas(mesh.nodes, mesh.triangles[tri_ids])
    bary = _subdiv_bary(depth)                          # (S, 3, 3)
    cb = bary.mean(axis=1)                              # (S, 3) centroid barycentrics
    S = len(cb)
    cent = np.einsum("sk,tkd->tsd", cb, P)              # (T, S, 3)
    # flat panel normals, oriented to agree with the vertex normals; interpolated
    # normals would be inconsistent with the flat positions (an O(h^2) offset under
    # a 1/r^3 kernel is non-integrable at the vertex)
    flat = np.cross(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])
    flat /= np.maximum(np.linalg.norm(flat, axis=-1, keepdims=True), _R_FLOOR)
    flip = np.einsum("td,td->t", flat, N.mean(axis=1)) < 0
    flat[flip] = -flat[flip]
    nrm = np.broadcast_to(flat[:, None, :], cent.shape)
    k_sub = kern(x, cent.reshape(-1, 3), nrm.reshape(-1, 3))
    vector = k_sub.ndim == 2
    sub_area = A / 4 ** depth
    if vector:
        k_sub = k_sub.reshape(len(tri_ids), S, 3)
        contrib = np.einsum("tsd,t,sk->tkd", k_sub, sub_area, cb)
        kv = kern(x, P.reshape(-1, 3), N.reshape(-1, 3)).reshape(len(tri_ids), 3, 3)
        share = (A / 3.0)[:, None, None] * kv
    else:
        k_sub = k_sub.reshape(len(tri_ids), S)
        contrib = np.einsum("ts,t,sk->tk", k_sub, sub_area, cb)
        kv = kern(x, P.reshape(-1, 3), N.reshape(-1, 3)).reshape(len(tri_ids), 3)
        share = (A / 3.0)[:, None] * kv
    if exclude_node is not None:
        share[verts == exclude_node] = 0.0              # excluded from the base sum already
    delta = contrib - share
    cols = verts.reshape(-1)
    return cols, delta.reshape(-1, 3) if vector else delta.reshape(-1)


def _patch_assembly(mesh: SurfaceMesh, x, kern, tri_ids, exclude_node=None,
                    max_depth=6):
    """Subdivided-quadrature-minus-vertex-share correction, split per column node.

    Each triangle is subdivided to a depth set by its distance from x (a
    geometric ladder: deeper where closer), so the outer corrected panels stay
    cheap.  Returns (cols, delta): node indices (with repeats) and the values
    to add to the corresponding vertex-rule terms; delta has shape (k,) for
    scalar kernels, (k, 3) for gradient kernels.
    """
    if len(tri_ids) == 0:
        return np.empty(0, dtype=int), np.empty(0)
    x = np.asarray(x, dtype=float)
    verts = mesh.triangles[tri_ids]
    P = mesh.nodes[verts]
    dmin = np.linalg.norm(P - x, axis=-1).min(axis=1)
    edge = np.linalg.norm(P - np.roll(P, 1, axis=1), axis=-1).max(axis=1)
    with np.errstate(divide="ignore"):
        depth = np.clip(np.ceil(np.log2(np.maximum(edge / np.maximum(dmin, 1e-12), 1e-9))) + 2,
                        1, max_depth).astype(int)
    depth[dmin <= 1e-12] = min(5, max_depth)            # triangles touching x itself
    all_cols, all_delta = [], []
    for d in np.unique(depth):
        cols, delta = _patch_group(mesh, x, kern, tri_ids[depth == d], int(d), exclude_node)
        all_cols.append(cols)
        all_delta.append(delta)
    return np.concatenate(all_cols), np.concatenate(all_delta)


_NEAR_TRIGGER = 2.0   # correct when closer than this many spacings
_NEAR_RADIUS = 4.0    # panels within this many spacings get recomputed


def _layer_eval(mesh: SurfaceMesh, dens, x, kern, principal_value=False,
                near_correct=True):
    """Vertex-rule layer evaluation with optional near-field patch correction."""
    x = as_point(x)
    dens = np.asarray(dens, dtype=float)
    if dens.shape != (mesh.n_nodes,):
        raise ValueError("density length does not match node count")
    dist, nearest = mesh.tree.query(x)
    nearest = int(nearest)
    exclude = None
    if principal_value:
        exclude = nearest
    elif dist < 1e-12:
        raise SingularEvaluation(
            f"evaluation point coincides with node {nearest}; use principal value mode")
    vals = kern(x, mesh.nodes, mesh.normals)
    wd = mesh.weights * dens
    if exclude is not None:
        wd = wd.copy()
        wd[exclude] = 0.0
    base = np.tensordot(wd, vals, axes=(0, 0))
    if exclude is not None:
        # on-surface: node-sampled continuum kernel plus the analytic completion
        # of the excluded self cell
        if near_correct and hasattr(kern, "pv_kind"):
            base = base + dens[exclude] * _pv_disk(mesh, exclude, kern.pv_kind)
    elif near_correct and dist < _NEAR_TRIGGER * mesh.node_spacing[nearest]:
        tri_ids = _near_tri_ids(mesh, x, _NEAR_RADIUS)
        cols, delta = _patch_assembly(mesh, x, kern, tri_ids, exclude_node=exclude)
        if len(cols):
            base = base + np.tensordot(dens[cols], delta, axes=(0, 0))
    return base


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def solid_angle(mesh: SurfaceMesh, x, principal_value=False) -> float:
    """Gauss integral of d(1/r)/dn over the surface: -4pi / -2pi / 0 trichotomy."""
    ones = np.ones(mesh.n_nodes)
    return float(_layer_eval(mesh, ones, x, _kern_double_unnorm,
                             principal_value=principal_value))


def winding_solid_angle(mesh: SurfaceMesh, X, chunk=128) -> np.ndarray:
    """Exact polyhedron winding: sum of signed triangle solid angles.

    Uses the arctangent formula per flat triangle, so membership is sharp down
    to the surface (unlike the quadrature Gauss integral, which smears over a
    node spacing).  Returns ~4 pi inside, ~2 pi on faces, 0 outside.
    """
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    tri = mesh.triangles
    pa = mesh.nodes[tri[:, 0]]
    pb = mesh.nodes[tri[:, 1]]
    pc = mesh.nodes[tri[:, 2]]
    out = np.empty(len(X))
    for s in range(0, len(X), chunk):
        blk = X[s:s + chunk]
        a = pa[None, :, :] - blk[:, None, :]
        b = pb[None, :, :] - blk[:, None, :]
        c = pc[None, :, :] - blk[:, None, :]
        la = np.linalg.norm(a, axis=-1)
        lb = np.linalg.norm(b, axis=-1)
        lc = np.linalg.norm(c, axis=-1)
        num = np.einsum("mtd,mtd->mt", a, np.cross(b, c))
        den = (la * lb * lc + np.einsum("mtd,mtd->mt", a, b) * lc
               + np.einsum("mtd,mtd->mt", b, c) * la
               + np.einsum("mtd,mtd->mt", c, a) * lb)
        out[s:s + chunk] = 2.0 * np.sum(np.arctan2(num, den), axis=1)
    return out


def absolute_solid_angle(mesh: SurfaceMesh, x, principal_value=False) -> float:
    """Integral of |r_XP . n_P| / r^3; a surface-quality diagnostic, always finite."""
    ones = np.ones(mesh.n_nodes)
    return float(_layer_eval(mesh, ones, x, _kern_abs_gauss,
                             principal_value=principal_value))


def single_layer(mesh: SurfaceMesh, v, x,
                 conv: KernelConvention = KernelConvention.UNNORMALIZED,
                 principal_value=False) -> float:
    """Simple layer potential of the density v at x."""
    val = _layer_eval(mesh, v, x, _kern_single_newton, principal_value=principal_value)
    return float(val * _4PI) if conv is KernelConvention.UNNORMALIZED else float(val)


def double_layer(mesh: SurfaceMesh, v, x,
                 conv: KernelConvention = KernelConvention.UNNORMALIZED,
                 principal_value=False) -> float:
    """Double layer potential of v at x.

    Unnormalized: kernel d(1/r_PX)/dn_P (interior value of the Gauss case is -4pi).
    Newton: kernel grad_X h(X-P).n_P = -(1/4pi) times the unnormalized one.
    """
    kern = _kern_double_unnorm if conv is KernelConvention.UNNORMALIZED else _kern_double_newton
    return float(_layer_eval(mesh, v, x, kern, principal_value=principal_value))


def adjoint_double_layer(mesh: SurfaceMesh, v, x, n0, principal_value=False) -> float:
    """d h/d n_{p0} layer (Newton convention): gradient at x dotted with the fixed n0."""
    return float(_layer_eval(mesh, v, x, _kern_adjoint_newton(n0),
                             principal_value=principal_value))


_SUBCELL_K = 4
_SUBCELL_OFFSETS = None


def _subcell_offsets():
    """Unit-cube offsets of the k^3 subcell centers, in (-1/2, 1/2)^3."""
    global _SUBCELL_OFFSETS
    if _SUBCELL_OFFSETS is None:
        t = (np.arange(_SUBCELL_K) + 0.5) / _SUBCELL_K - 0.5
        gx, gy, gz = np.meshgrid(t, t, t, indexing="ij")
        _SUBCELL_OFFSETS = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    return _SUBCELL_OFFSETS


def _cell_points(grid: VolumeGrid, idx: int):
    """Quadrature points representing cell idx: subcell centers (inside ones for cut cells)."""
    if idx in grid.partial_points:
        return grid.partial_points[idx]
    return grid.centers[idx] + _subcell_offsets() * grid.spacing[None, :]


def _cell_kernel_mean(grid: VolumeGrid, idx: int, x, vector=False, self_cell=False):
    """Mean of h (or grad h) over the cell's subcell points.

    When x lies in this cell, the subcell nearest x gets the equal-volume-ball
    value (and zero gradient), so the singularity is handled at subcell scale.
    """
    pts = _cell_points(grid, idx)
    d = x - pts
    r = np.maximum(np.linalg.norm(d, axis=-1), _R_FLOOR)
    if vector:
        vals = -d / (_4PI * r ** 3)[:, None]
        if self_cell:
            vals[np.argmin(r)] = 0.0
        return vals.mean(axis=0)
    vals = 1.0 / (_4PI * r)
    if self_cell:
        sub_vol = grid.weights[idx] / len(pts)
        r_eq = (3.0 * sub_vol / _4PI) ** (1.0 / 3.0)
        vals[np.argmin(r)] = (r_eq ** 2 / 2.0) / sub_vol
    return vals.mean(axis=0)


def _batch_refined(grid: VolumeGrid, idxs, x, vector=False):
    """Subcell-mean kernel values for several full cells at once."""
    off = _subcell_offsets() * grid.spacing[None, :]
    pts = grid.centers[idxs][:, None, :] + off[None, :, :]   # (c, s, 3)
    d = x - pts
    r = np.maximum(np.linalg.norm(d, axis=-1), _R_FLOOR)
    if vector:
        return np.mean(-d / (_4PI * r ** 3)[..., None], axis=1)
    return np.mean(1.0 / (_4PI * r), axis=1)


def _containing_cell(grid: VolumeGrid, x) -> int:
    """Index of the kept cell whose box contains x, or -1."""
    rel = (x - grid.box_lo) / grid.spacing
    ijk = np.floor(rel).astype(int)
    if np.any(ijk < 0) or np.any(ijk >= np.asarray(grid.shape)):
        return -1
    flat = (ijk[0] * grid.shape[1] + ijk[1]) * grid.shape[2] + ijk[2]
    hits = np.nonzero(grid.inside_index == flat)[0]
    return int(hits[0]) if len(hits) else -1


def newton_potential(grid: VolumeGrid, f, x) -> float:
    """Volume potential of the cell source f.

    The cell containing x is integrated over subcells with an equal-volume-ball
    value on the singular subcell; cells within 2.5 spacings are integrated
    over subcells (the center rule has O(dx^2) error under the 1/r kernel
    there); everything else uses the center rule.
    """
    x = as_point(x)
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n_cells,):
        raise ValueError("source length does not match cell count")
    d = grid.centers - x
    r = np.linalg.norm(d, axis=1)
    vals = grid.weights / (_4PI * np.maximum(r, _R_FLOOR))
    own = _containing_cell(grid, x)
    near = np.nonzero(r < 2.5 * float(np.max(grid.spacing)))[0]
    for idx in near:
        vals[idx] = grid.weights[idx] * _cell_kernel_mean(grid, idx, x, self_cell=(idx == own))
    return float(vals @ f)


# ---------------------------------------------------------------------------
# matrix builders (used by bie and solver); weights/volumes folded in
# ---------------------------------------------------------------------------

def _layer_matrix(mesh: SurfaceMesh, X, kern, near_correct=True,
                  vector=False, chunk=256, near_trigger=_NEAR_TRIGGER):
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    m, n = len(X), mesh.n_nodes
    out = np.zeros((m, n, 3)) if vector else np.zeros((m, n))
    for s in range(0, m, chunk):
        blk = X[s:s + chunk]
        vals = kern(blk[:, None, :], mesh.nodes[None, :, :],
                    np.broadcast_to(mesh.normals[None, :, :], (len(blk), n, 3)))
        out[s:s + chunk] = vals * (mesh.weights[None, :, None] if vector else mesh.weights[None, :])
    if near_correct:
        dist, nearest = mesh.tree.query(X)
        h = mesh.node_spacing[nearest]
        for i in np.nonzero(dist < near_trigger * h)[0]:
            radius = max(_NEAR_RADIUS, dist[i] / h[i] + 2.0)
            tri_ids = _near_tri_ids(mesh, X[i], radius)
            cols, delta = _patch_assembly(mesh, X[i], kern, tri_ids)
            np.add.at(out[i], cols, delta)
    return out


def single_layer_matrix(mesh, X, conv=KernelConvention.NEWTON, near_correct=True,
                        near_trigger=_NEAR_TRIGGER):
    out = _layer_matrix(mesh, X, _kern_single_newton, near_correct, near_trigger=near_trigger)
    return out * _4PI if conv is KernelConvention.UNNORMALIZED else out


def double_layer_matrix(mesh, X, conv=KernelConvention.NEWTON, near_correct=True,
                        near_trigger=_NEAR_TRIGGER):
    kern = _kern_double_unnorm if conv is KernelConvention.UNNORMALIZED else _kern_double_newton
    return _layer_matrix(mesh, X, kern, near_correct, near_trigger=near_trigger)


def grad_single_layer_matrix(mesh, X, near_correct=True, near_trigger=_NEAR_TRIGGER):
    return _layer_matrix(mesh, X, _kern_grad_single_newton, near_correct, vector=True,
                         near_trigger=near_trigger)


def grad_double_layer_matrix(mesh, X, near_correct=True, near_trigger=_NEAR_TRIGGER):
    return _layer_matrix(mesh, X, _kern_grad_double_newton, near_correct, vector=True,
                         near_trigger=near_trigger)


def adjoint_kernel_matrix(mesh: SurfaceMesh, near_correct=True) -> np.ndarray:
    """K'[i, j] = w_j * dh/dn_{p_i}(P_i - P_j); diagonal is the self-cell completion."""
    n = mesh.n_nodes
    d = mesh.nodes[None, :, :] - mesh.nodes[:, None, :]       # P_j - P_i
    r = np.maximum(np.linalg.norm(d, axis=-1), _R_FLOOR)
    K = np.einsum("ijd,id->ij", d, mesh.normals) / (_4PI * r ** 3)
    np.fill_diagonal(K, 0.0)
    K *= mesh.weights[None, :]
    if near_correct:
        for i in range(n):
            K[i, i] = _pv_disk(mesh, i, "adjoint")
    return K


def adjoint_volume_matrix(mesh: SurfaceMesh, grid: VolumeGrid, chunk=256) -> np.ndarray:
    """Rows: boundary nodes with their normals; columns: volume cells (volumes folded in).

    Kernel (Y - P0).n0 / (4 pi r^3); cells within 2.5 spacings of a node are
    integrated over subcells (the 1/r^2 kernel defeats the center rule there).
    """
    n, c = mesh.n_nodes, grid.n_cells
    out = np.empty((n, c))
    for s in range(0, n, chunk):
        d = grid.centers[None, :, :] - mesh.nodes[s:s + chunk, None, :]
        r = np.maximum(np.linalg.norm(d, axis=-1), _R_FLOOR)
        out[s:s + chunk] = (np.einsum("icd,id->ic", d, mesh.normals[s:s + chunk])
                            / (_4PI * r ** 3)) * grid.weights[None, :]
    dx = float(np.max(grid.spacing))
    for i in range(n):
        d = grid.centers - mesh.nodes[i]
        near = np.nonzero(np.linalg.norm(d, axis=1) < 2.5 * dx)[0]
        for idx in near:
            pts = _cell_points(grid, idx)
            dd = pts - mesh.nodes[i]
            r = np.maximum(np.linalg.norm(dd, axis=-1), _R_FLOOR)
            k = (dd @ mesh.normals[i]) / (_4PI * r ** 3)
            out[i, idx] = k.mean() * grid.weights[idx]
    return out


def _near_refine_rows(grid: VolumeGrid, out_block, row_centers, row_offset, r_block,
                      vector=False):
    """Replace near entries of a row block by subcell-refined values in place."""
    dx = float(np.max(grid.spacing))
    for i in range(len(row_centers)):
        near = np.nonzero(r_block[i] < 2.5 * dx)[0]
        if len(near) == 0:
            continue
        own = row_offset + i
        full = near[(grid.full_cell[near]) & (near != own)]
        if len(full):
            vals = _batch_refined(grid, full, row_centers[i], vector=vector)
            out_block[i, full] = grid.weights[full, None] * vals if vector \
                else grid.weights[full] * vals
        for idx in near[(~grid.full_cell[near]) | (near == own)]:
            out_block[i, idx] = grid.weights[idx] * _cell_kernel_mean(
                grid, idx, row_centers[i], vector=vector, self_cell=(idx == own))


def newton_matrix(grid: VolumeGrid, chunk=256) -> np.ndarray:
    """Cell-to-cell volume potential matrix with subcell-refined near entries."""
    c = grid.n_cells
    out = np.empty((c, c))
    for s in range(0, c, chunk):
        r = np.linalg.norm(grid.centers[s:s + chunk, None, :] - grid.centers[None, :, :], axis=-1)
        out[s:s + chunk] = grid.weights[None, :] / (_4PI * np.maximum(r, _R_FLOOR))
        _near_refine_rows(grid, out[s:s + chunk], grid.centers[s:s + chunk], s, r)
    return out


def grad_newton_matrices(grid: VolumeGrid, chunk=256):
    """Three (c, c) matrices for the gradient of the volume potential; self cell zero by symmetry."""
    c = grid.n_cells
    mats = [np.empty((c, c)) for _ in range(3)]
    for s in range(0, c, chunk):
        d = grid.centers[s:s + chunk, None, :] - grid.centers[None, :, :]
        r = np.maximum(np.linalg.norm(d, axis=-1), _R_FLOOR)
        g = -d / (_4PI * r ** 3)[..., None] * grid.weights[None, :, None]
        _near_refine_rows(grid, g, grid.centers[s:s + chunk], s, r, vector=True)
        for a in range(3):
            mats[a][s:s + chunk] = g[..., a]
    return mats


def grad_newton_potential(grid: VolumeGrid, f, x) -> np.ndarray:
    """Gradient of the volume potential at x; singular subcell dropped by symmetry."""
    x = as_point(x)
    f = np.asarray(f, dtype=float)
    d = x - grid.centers
    r = np.linalg.norm(d, axis=1)
    g = -d / (_4PI * np.maximum(r, _R_FLOOR) ** 3)[:, None] * grid.weights[:, None]
    own = _containing_cell(grid, x)
    for idx in np.nonzero(r < 2.5 * float(np.max(grid.spacing)))[0]:
        g[idx] = grid.weights[idx] * _cell_kernel_mean(grid, idx, x, vector=True,
                                                       self_cell=(idx == own))
    return g.T @ f
