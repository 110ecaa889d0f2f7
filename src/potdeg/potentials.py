"""Newtonian kernel evaluations on discrete surfaces and volume grids.

Two kernel conventions are first-class: Unnormalized uses 1/r (solid-angle
trichotomy -4pi/-2pi/0, jump constants +-2pi), Newton uses h = 1/(4*pi*r)
(jump constants +-1/2).  The Newton double layer uses the gradient-at-the-
observation-point kernel grad_X h(X-P).n_P, which is -(1/4pi) times the
unnormalized kernel d(1/r)/dn_P; the sign is pinned by the constant
reproduction of the representation formula (see tests).

Every layer evaluation, a point value or a dense operator, goes through one
row routine, _layer_matrix: the vertex rule with the node weights folded in.
A target closer than two node spacings to its nearest node gets the
near-field patch correction: the triangles incident to the nodes within four
spacings are recomputed by 4-way recursive flat-triangle subdivision with
barycentric density interpolation.  A principal-value row (an on-surface
target) instead excludes its nearest node and puts the analytic completion
of that node's own quadrature cell (_pv_disk) in its column; kernels without
such a completion (the gradients) refuse principal-value mode.  A point
evaluator is one row of the matrix times the density.

The adjoint double layer K' is the weighted transpose of the principal-value
Newton double layer D_pv at the nodes, K'[i, j] = -(w_j / w_i) D_pv[j, i];
the identity also gives its diagonal, -kappa rho / 4.

Every volume evaluation goes through one chunked row routine, _volume_rows:
the center rule, with cells within 2.5 spacings of a target integrated over
subcells and the target's own cell (if any) given the singular-subcell rule.
The adjoint volume operator K'_vol is the gradient rows at the nodes
contracted with the node normals, (Y - P0).n0 / (4 pi r^3).
"""

from __future__ import annotations

import functools
from enum import Enum

import numpy as np

from .errors import SingularEvaluation
from .geometry import SurfaceMesh, VolumeGrid, _directed_edges, as_point, triangle_areas

_4PI = 4.0 * np.pi
_R_FLOOR = 1e-30  # large enough that r**3 does not underflow to 0
_CHUNK = 256      # target rows per block of the dense builders


class KernelConvention(Enum):
    UNNORMALIZED = "unnormalized"   # 1/r kernels, +-2pi jumps
    NEWTON = "newton"               # h = 1/(4 pi r) kernels, +-1/2 jumps


# ---------------------------------------------------------------------------
# raw kernels; x broadcasts against pts (..., 3), nrm (..., 3) -> (...) or (..., 3)
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
        e = _directed_edges(mesh.triangles)
        # each edge (a, b) of each triangle as (a, b) then (b, a), the loop order
        p, q = np.stack([e, e[:, ::-1]], axis=1).reshape(-1, 2).T
        d = mesh.nodes[p] - mesh.nodes[q]
        k = -2.0 * np.einsum("ed,ed->e", d, mesh.normals[q]) / np.einsum("ed,ed->e", d, d)
        cnt = np.bincount(p, minlength=mesh.n_nodes)
        mesh._kappa = np.bincount(p, k, minlength=mesh.n_nodes) / np.maximum(cnt, 1)
    return mesh._kappa


def _pv_disk(mesh, i, kind):
    """Self-cell completion at the nodes i (an index or an index array)."""
    rho = np.sqrt(mesh.weights[i] / np.pi)
    kappa = mean_curvature(mesh)[i]
    if kind == "single":
        return rho / 2.0                       # integral of h over the disk
    if kind == "double":
        return kappa * rho / 4.0               # source normal: ~ +kappa/(8 pi r)
    if kind == "double_unnorm":
        return -np.pi * kappa * rho            # -4 pi times the Newton double layer
    if kind == "abs_gauss":
        return np.pi * np.abs(kappa) * rho
    raise ValueError(kind)


_kern_single_newton.pv_kind = "single"
_kern_double_newton.pv_kind = "double"
_kern_double_unnorm.pv_kind = "double_unnorm"
_kern_abs_gauss.pv_kind = "abs_gauss"


# ---------------------------------------------------------------------------
# near-field patch machinery
# ---------------------------------------------------------------------------

@functools.cache
def _subdiv_bary(depth: int) -> np.ndarray:
    """Barycentric corner coordinates of the 4^depth midpoint subtriangles."""
    tris = [np.eye(3)]
    for _ in range(depth):
        new = []
        for t in tris:
            a, b, c = t
            ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
            new += [np.array([a, ab, ca]), np.array([b, bc, ab]),
                    np.array([c, ca, bc]), np.array([ab, bc, ca])]
        tris = new
    return np.stack(tris)


_NEAR_TRIGGER = 2.0   # correct when closer than this many spacings
_NEAR_RADIUS = 4.0    # panels within this many spacings get recomputed


def _near_tri_ids(mesh: SurfaceMesh, x):
    h = mesh.local_spacing(x)
    idx = mesh.tree.query_ball_point(np.asarray(x, dtype=float), _NEAR_RADIUS * h)
    tri = set()
    for i in idx:
        tri.update(mesh.incident_triangles[i].tolist())
    return np.array(sorted(tri), dtype=int)


def _patch_group(mesh, x, kern, tri_ids, depth):
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
    trail = k_sub.shape[1:]                             # () or (3,) for gradient kernels
    k_sub = k_sub.reshape((len(tri_ids), S) + trail)
    contrib = np.einsum("ts...,t,sk->tk...", k_sub, A / 4 ** depth, cb)
    kv = kern(x, P.reshape(-1, 3), N.reshape(-1, 3)).reshape((len(tri_ids), 3) + trail)
    share = np.einsum("t,tk...->tk...", A / 3.0, kv)
    delta = contrib - share
    return verts.reshape(-1), delta.reshape((-1,) + trail)


def _patch_assembly(mesh: SurfaceMesh, x, kern, tri_ids):
    """Subdivided-quadrature-minus-vertex-share correction, split per column node.

    Each triangle is subdivided to a depth set by its distance from x (a
    geometric ladder: deeper where closer, at most 6), so the outer corrected
    panels stay cheap.  Returns (cols, delta): node indices (with repeats) and
    the values to add to the corresponding vertex-rule terms; delta has shape
    (k,) for scalar kernels, (k, 3) for gradient kernels.
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
                        1, 6).astype(int)
    depth[dmin <= 1e-12] = 5                            # triangles touching x itself
    all_cols, all_delta = [], []
    for d in np.unique(depth):
        cols, delta = _patch_group(mesh, x, kern, tri_ids[depth == d], int(d))
        all_cols.append(cols)
        all_delta.append(delta)
    return np.concatenate(all_cols), np.concatenate(all_delta)


# ---------------------------------------------------------------------------
# layer rows: the one evaluation path of every layer potential
# ---------------------------------------------------------------------------

def _layer_matrix(mesh: SurfaceMesh, X, kern, principal_value=False, near_correct=True):
    """Rows of the layer operator with kernel kern at the targets X, weights folded in.

    Shape (m, n) for scalar kernels and (m, n, 3) for gradient kernels.  Off
    the surface, targets within _NEAR_TRIGGER spacings of their nearest node
    get the near-field patch correction unless near_correct is False; a target
    within 1e-12 of a node raises SingularEvaluation.  In principal-value mode
    the nearest node's column holds the completion of its excluded self cell
    and no patch is applied.
    """
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    # plain vertex-rule rows need only the coincidence test; a query bounded
    # at 1e-12 answers it about ten times faster (dist is inf beyond it)
    bound = np.inf if principal_value or near_correct else 1e-12
    dist, nearest = mesh.tree.query(X, distance_upper_bound=bound)
    if principal_value and not hasattr(kern, "pv_kind"):
        raise ValueError("kernel has no principal-value self-cell completion")
    if not principal_value and np.any(dist < 1e-12):
        node = int(nearest[np.argmax(dist < 1e-12)])
        raise SingularEvaluation(
            f"evaluation point coincides with node {node}; use principal value mode")
    # () for scalar kernels, (3,) for gradient kernels
    trail = np.shape(kern(mesh.nodes[0], mesh.nodes[1:2], mesh.normals[1:2]))[1:]
    out = np.empty((len(X), mesh.n_nodes) + trail)
    w = mesh.weights.reshape((-1,) + (1,) * len(trail))
    for s in range(0, len(X), _CHUNK):
        # vals stays alive while the next block is computed, so the allocator
        # reuses the block temporaries instead of returning and re-faulting
        # them (about 20 % of the g02 build at level 4 otherwise)
        vals = kern(X[s:s + _CHUNK, None, :], mesh.nodes, mesh.normals)
        out[s:s + _CHUNK] = vals * w
    if principal_value:
        out[np.arange(len(X)), nearest] = _pv_disk(mesh, nearest, kern.pv_kind)
    elif near_correct:
        for i in np.nonzero(dist < _NEAR_TRIGGER * mesh.node_spacing[nearest])[0]:
            cols, delta = _patch_assembly(mesh, X[i], kern, _near_tri_ids(mesh, X[i]))
            np.add.at(out[i], cols, delta)
    return out


def _layer_value(mesh: SurfaceMesh, dens, x, kern, principal_value) -> float:
    """One layer potential value: the target's row times the density."""
    dens = np.asarray(dens, dtype=float)
    if dens.shape != (mesh.n_nodes,):
        raise ValueError("density length does not match node count")
    return float(_layer_matrix(mesh, as_point(x), kern, principal_value)[0] @ dens)


# ---------------------------------------------------------------------------
# public layer operations
# ---------------------------------------------------------------------------

def solid_angle(mesh: SurfaceMesh, x, principal_value=False) -> float:
    """Gauss integral of d(1/r)/dn over the surface: -4pi / -2pi / 0 trichotomy."""
    return _layer_value(mesh, np.ones(mesh.n_nodes), x, _kern_double_unnorm, principal_value)


def winding_solid_angle(mesh: SurfaceMesh, X) -> np.ndarray:
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
    chunk = 128
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
    return _layer_value(mesh, np.ones(mesh.n_nodes), x, _kern_abs_gauss, principal_value)


def single_layer(mesh: SurfaceMesh, v, x,
                 conv: KernelConvention = KernelConvention.UNNORMALIZED,
                 principal_value=False) -> float:
    """Simple layer potential of the density v at x."""
    val = _layer_value(mesh, v, x, _kern_single_newton, principal_value)
    return val * _4PI if conv is KernelConvention.UNNORMALIZED else val


def double_layer(mesh: SurfaceMesh, v, x,
                 conv: KernelConvention = KernelConvention.UNNORMALIZED,
                 principal_value=False) -> float:
    """Double layer potential of v at x.

    Unnormalized: kernel d(1/r_PX)/dn_P (interior value of the Gauss case is -4pi).
    Newton: kernel grad_X h(X-P).n_P = -(1/4pi) times the unnormalized one.
    """
    kern = _kern_double_unnorm if conv is KernelConvention.UNNORMALIZED else _kern_double_newton
    return _layer_value(mesh, v, x, kern, principal_value)


def single_layer_matrix(mesh, X):
    """Newton single layer at the targets X (near-corrected)."""
    return _layer_matrix(mesh, X, _kern_single_newton)


def double_layer_matrix(mesh, X, near_correct=True):
    """Newton double layer at the targets X; near_correct=False gives the plain vertex rule."""
    return _layer_matrix(mesh, X, _kern_double_newton, near_correct=near_correct)


def grad_single_layer_matrix(mesh, X):
    """(m, n, 3) gradient of the Newton single layer at the targets X."""
    return _layer_matrix(mesh, X, _kern_grad_single_newton)


def grad_double_layer_matrix(mesh, X):
    """(m, n, 3) gradient of the Newton double layer at the targets X."""
    return _layer_matrix(mesh, X, _kern_grad_double_newton)


def adjoint_kernel_matrix(mesh: SurfaceMesh) -> np.ndarray:
    """K'[i, j] = w_j * dh/dn_{p_i}(P_i - P_j); diagonal is the self-cell completion.

    Built as -(w_j / w_i) D_pv[j, i] from the principal-value Newton double
    layer at the nodes, whose diagonal kappa rho / 4 turns into -kappa rho / 4.
    """
    D = _layer_matrix(mesh, mesh.nodes, _kern_double_newton, principal_value=True)
    K = D.T * -mesh.weights
    K /= mesh.weights[:, None]
    return K


# ---------------------------------------------------------------------------
# volume rows: the one evaluation path of every volume potential
# ---------------------------------------------------------------------------

def _unit_subcell_offsets(k):
    """Unit-cube offsets of the k^3 subcell centers, in (-1/2, 1/2)^3."""
    t = (np.arange(k) + 0.5) / k - 0.5
    gx, gy, gz = np.meshgrid(t, t, t, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


_SUBCELL_OFFSETS = _unit_subcell_offsets(4)


def _newton_kernel(d, gradient):
    """h = 1/(4 pi r) at offsets d = x - y, or grad_x h = -d / (4 pi r^3); also r.

    The gradient overwrites d, which saves a (m, c, 3) temporary per row block.
    """
    r = np.maximum(np.linalg.norm(d, axis=-1), _R_FLOOR)
    if gradient:
        d /= -(_4PI * r ** 3)[..., None]
        return d, r
    return 1.0 / (_4PI * r), r


def _cell_points(grid: VolumeGrid, idx: int):
    """Quadrature points representing cell idx: subcell centers (inside ones for cut cells)."""
    if idx in grid.partial_points:
        return grid.partial_points[idx]
    return grid.centers[idx] + _SUBCELL_OFFSETS * grid.spacing[None, :]


def _cell_kernel_mean(grid: VolumeGrid, idx: int, x, gradient, self_cell):
    """Mean of h (or grad h) over the cell's subcell points.

    When x lies in this cell, the subcell nearest x gets the equal-volume-ball
    value (and zero gradient), so the singularity is handled at subcell scale.
    """
    pts = _cell_points(grid, idx)
    vals, r = _newton_kernel(x - pts, gradient)
    if self_cell:
        sub_vol = grid.weights[idx] / len(pts)
        r_eq = (3.0 * sub_vol / _4PI) ** (1.0 / 3.0)
        vals[np.argmin(r)] = 0.0 if gradient else (r_eq ** 2 / 2.0) / sub_vol
    return vals.mean(axis=0)


def _batch_refined(grid: VolumeGrid, idxs, x, gradient):
    """Subcell-mean kernel values for several full cells at once."""
    off = _SUBCELL_OFFSETS * grid.spacing[None, :]
    pts = grid.centers[idxs][:, None, :] + off[None, :, :]   # (c, s, 3)
    return _newton_kernel(x - pts, gradient)[0].mean(axis=1)


def _containing_cell(grid: VolumeGrid, x) -> int:
    """Index of the kept cell whose box contains x, or -1."""
    rel = (x - grid.box_lo) / grid.spacing
    ijk = np.floor(rel).astype(int)
    if np.any(ijk < 0) or np.any(ijk >= np.asarray(grid.shape)):
        return -1
    flat = (ijk[0] * grid.shape[1] + ijk[1]) * grid.shape[2] + ijk[2]
    hits = np.nonzero(grid.inside_index == flat)[0]
    return int(hits[0]) if len(hits) else -1


def _near_refine_rows(grid: VolumeGrid, rows, X, own, r):
    """Replace the entries of cells within 2.5 spacings by subcell-refined values in place.

    own[i] is the cell holding target i (-1: none); it gets the singular-subcell
    rule.  rows has shape (m, c) for h and (m, c, 3) for its gradient.
    """
    gradient = rows.ndim == 3
    dx = float(np.max(grid.spacing))
    for i, x in enumerate(X):
        near = np.nonzero(r[i] < 2.5 * dx)[0]
        batch = grid.full_cell[near] & (near != own[i])
        full = near[batch]
        if len(full):
            vals = _batch_refined(grid, full, x, gradient)
            rows[i, full] = grid.weights[full, None] * vals if gradient \
                else grid.weights[full] * vals
        for idx in near[~batch]:
            rows[i, idx] = grid.weights[idx] * _cell_kernel_mean(
                grid, idx, x, gradient, self_cell=(idx == own[i]))


def _volume_rows(grid: VolumeGrid, X, own, gradient):
    """Yield (start, rows) blocks of the volume operator at the targets X, volumes folded in.

    rows[i, j] = w_j h(X_i - Y_j) by the center rule, or its gradient in X_i
    (shape (m, c, 3)), with near entries refined by _near_refine_rows.  Blocks
    of _CHUNK targets keep the (m, c, 3) temporaries small.
    """
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    w = grid.weights[:, None] if gradient else grid.weights
    for s in range(0, len(X), _CHUNK):
        rows, r = _newton_kernel(X[s:s + _CHUNK, None, :] - grid.centers, gradient)
        rows *= w
        _near_refine_rows(grid, rows, X[s:s + _CHUNK], own[s:s + _CHUNK], r)
        yield s, rows


# ---------------------------------------------------------------------------
# public volume operations
# ---------------------------------------------------------------------------

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
    _, rows = next(_volume_rows(grid, x, [_containing_cell(grid, x)], gradient=False))
    return float(rows[0] @ f)


def grad_newton_potential(grid: VolumeGrid, f, x) -> np.ndarray:
    """Gradient of the volume potential at x; singular subcell dropped by symmetry."""
    x = as_point(x)
    _, rows = next(_volume_rows(grid, x, [_containing_cell(grid, x)], gradient=True))
    return rows[0].T @ np.asarray(f, dtype=float)


def newton_matrix(grid: VolumeGrid) -> np.ndarray:
    """Cell-to-cell volume potential matrix with subcell-refined near entries."""
    c = grid.n_cells
    out = np.empty((c, c))
    for s, rows in _volume_rows(grid, grid.centers, np.arange(c), gradient=False):
        out[s:s + len(rows)] = rows
    return out


def grad_newton_matrices(grid: VolumeGrid):
    """Three (c, c) matrices for the gradient of the volume potential; self cell zero by symmetry."""
    c = grid.n_cells
    mats = [np.empty((c, c)) for _ in range(3)]
    for s, rows in _volume_rows(grid, grid.centers, np.arange(c), gradient=True):
        for a in range(3):
            mats[a][s:s + len(rows)] = rows[..., a]
    return mats


def adjoint_volume_matrix(mesh: SurfaceMesh, grid: VolumeGrid) -> np.ndarray:
    """Rows: boundary nodes with their normals; columns: volume cells (volumes folded in).

    Kernel (Y - P0).n0 / (4 pi r^3): the gradient rows at the nodes (no own
    cell) contracted with the node normals; cells within 2.5 spacings of a
    node are integrated over subcells (the 1/r^2 kernel defeats the center
    rule there).
    """
    n = mesh.n_nodes
    out = np.empty((n, grid.n_cells))
    for s, rows in _volume_rows(grid, mesh.nodes, np.full(n, -1), gradient=True):
        out[s:s + len(rows)] = np.einsum("icd,id->ic", rows, mesh.normals[s:s + len(rows)])
    return out
