"""Newtonian kernel evaluations on discrete surfaces and volume grids.

Two kernel conventions are first-class: Unnormalized uses 1/r (solid-angle
trichotomy -4pi/-2pi/0, jump constants +-2pi), Newton uses h = 1/(4*pi*r)
(jump constants +-1/2).  The Newton double layer uses the gradient-at-the-
observation-point kernel grad_X h(X-P).n_P, which is -(1/4pi) times the
unnormalized kernel d(1/r)/dn_P; the sign is pinned by the constant
reproduction of the representation formula (see tests).

Every layer evaluation, a point value or a dense operator, goes through one
row routine, _layer_matrix: the vertex rule with the node weights folded in.
Targets closer than two node spacings to their nearest node get the near
patch in one array pass per row block (_near_patch): each (target, triangle)
pair whose triangle touches a node within four spacings is recomputed by
4-way flat-triangle subdivision to a depth set by its distance, minus its
vertex-rule share, and np.add.at scatters each part of the corrections as
soon as it is made.  A principal-value row (an on-surface target) instead
excludes its nearest node and puts the analytic completion of that node's
own quadrature cell (_pv_disk) in its column; kernels without one (the
gradients) refuse it.  A point evaluator is one row of the matrix times the
density.

The adjoint double layer K' is the weighted transpose of the principal-value
Newton double layer D_pv at the nodes, K'[i, j] = -(w_j / w_i) D_pv[j, i];
the identity also gives its diagonal, -kappa rho / 4.

Every volume evaluation goes through one chunked row routine, _volume_rows:
the center rule, then one array pass over the (target, cell) pairs within
2.5 spacings (_near_refine_rows), each the masked mean over the cell's
subcell points with the equal-volume-ball value at the target's own subcell.
K'_vol is the gradient rows at the nodes contracted with the node normals.
"""

from __future__ import annotations

import functools
from enum import Enum

import numpy as np

from .errors import SingularEvaluation
from .geometry import (
    _SUBCELL_OFFSETS,
    SurfaceMesh,
    VolumeGrid,
    _directed_edges,
    as_point,
    triangle_areas,
)

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
_PASS_POINTS = 1 << 15  # quadrature points per block of a near-field array pass


def _near_pairs(mesh: SurfaceMesh, X, h):
    """(row, triangle) pairs: the triangles incident to the nodes within _NEAR_RADIUS h of X.

    Sorted by row, then triangle.  The ball nodes are expanded to their
    triangles through the flat (node-major) array of mesh.incident_triangles.
    """
    balls = mesh.tree.query_ball_point(X, _NEAR_RADIUS * h)
    rows = np.repeat(np.arange(len(X)), np.fromiter(map(len, balls), dtype=int, count=len(X)))
    nodes = np.concatenate(balls).astype(int)
    cnt = np.fromiter(map(len, mesh.incident_triangles), dtype=int, count=mesh.n_nodes)
    incident = np.concatenate(mesh.incident_triangles)
    deg = cnt[nodes]
    pos = np.repeat(np.cumsum(cnt)[nodes] - np.cumsum(deg), deg) + np.arange(deg.sum())
    n_tri = len(mesh.triangles)
    return np.divmod(np.unique(np.repeat(rows, deg) * n_tri + incident[pos]), n_tri)


def _patch_delta(mesh, kern, x, tri, depth):
    """(cols, delta) of the triangles tri for the targets x (one per triangle) at one depth."""
    verts = mesh.triangles[tri]                         # (T, 3)
    P = mesh.nodes[verts]                               # (T, 3, 3)
    N = mesh.normals[verts]                             # (T, 3, 3)
    A = triangle_areas(mesh.nodes, verts)
    cb = _subdiv_bary(depth).mean(axis=1)               # (S, 3) centroid barycentrics
    cent = np.einsum("sk,tkd->tsd", cb, P)              # (T, S, 3)
    # flat panel normals, oriented to agree with the vertex normals; interpolated
    # normals would be inconsistent with the flat positions (an O(h^2) offset under
    # a 1/r^3 kernel is non-integrable at the vertex)
    flat = np.cross(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])
    flat /= np.maximum(np.linalg.norm(flat, axis=-1, keepdims=True), _R_FLOOR)
    flip = np.einsum("td,td->t", flat, N.mean(axis=1)) < 0
    flat[flip] = -flat[flip]
    k_sub = kern(x[:, None, :], cent, np.repeat(flat[:, None, :], len(cb), axis=1))
    contrib = np.einsum("ts...,t,sk->tk...", k_sub, A / 4 ** depth, cb)
    share = np.einsum("t,tk...->tk...", A / 3.0, kern(x[:, None, :], P, N))
    return verts.reshape(-1), (contrib - share).reshape((-1,) + k_sub.shape[2:])


def _near_patch(mesh: SurfaceMesh, X, h, kern):
    """Near-field patch corrections at the targets X with local spacings h.

    The triangles incident to the nodes within _NEAR_RADIUS h of a target are
    recomputed by 4-way subdivision to a depth set per (target, triangle)
    pair by its distance (a geometric ladder: deeper where closer, at most 6),
    minus their vertex-rule share.  Yields (row, col, delta) parts in depth,
    then row, then triangle order, so scattering each part with np.add.at as
    it comes adds the terms of each entry in that order; delta has shape (k,)
    for scalar kernels and (k, 3) for gradient kernels.
    """
    row, tri = _near_pairs(mesh, X, h)
    P = mesh.nodes[mesh.triangles[tri]]
    dmin = np.linalg.norm(P - X[row, None, :], axis=-1).min(axis=1)
    edge = np.linalg.norm(P - np.roll(P, 1, axis=1), axis=-1).max(axis=1)
    depth = np.clip(np.ceil(np.log2(edge / dmin)) + 2, 1, 6).astype(int)
    for d in np.unique(depth):
        sel = np.nonzero(depth == d)[0]
        step = _PASS_POINTS // 4 ** d                # >= 8, as 4^6 <= _PASS_POINTS
        for b in range(0, len(sel), step):
            pair = sel[b:b + step]
            yield (np.repeat(row[pair], 3),
                   *_patch_delta(mesh, kern, X[row[pair]], tri[pair], int(d)))


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
    # spacings that set the near-patch trigger; 0 turns the patch off
    h = mesh.node_spacing[nearest] if near_correct and not principal_value else np.zeros(len(X))
    for s in range(0, len(X), _CHUNK):
        # vals stays alive while the next block is computed, so the allocator
        # reuses the block temporaries instead of returning and re-faulting
        # them (about 20 % of the g02 build at level 4 otherwise)
        vals = kern(X[s:s + _CHUNK, None, :], mesh.nodes, mesh.normals)
        out[s:s + _CHUNK] = vals * w
        i = np.nonzero(dist[s:s + _CHUNK] < _NEAR_TRIGGER * h[s:s + _CHUNK])[0]
        if len(i):
            for row, col, delta in _near_patch(mesh, X[s + i], h[s + i], kern):
                np.add.at(out[s:s + _CHUNK], (i[row], col), delta)
    if principal_value:
        out[np.arange(len(X)), nearest] = _pv_disk(mesh, nearest, kern.pv_kind)
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

def _newton_kernel(d, gradient):
    """h = 1/(4 pi r) at offsets d = x - y, or grad_x h = -d / (4 pi r^3); also r.

    The gradient overwrites d, which saves a (m, c, 3) temporary per row block.
    """
    r = np.maximum(np.linalg.norm(d, axis=-1), _R_FLOOR)
    if gradient:
        d /= -(_4PI * r ** 3)[..., None]
        return d, r
    return 1.0 / (_4PI * r), r


def _containing_cell(grid: VolumeGrid, x) -> int:
    """Index of the kept cell whose box contains x, or -1."""
    ijk = np.floor((x - grid.box_lo) / grid.spacing).astype(int)
    if np.any(ijk < 0) or np.any(ijk >= np.asarray(grid.shape)):
        return -1
    flat = (ijk[0] * grid.shape[1] + ijk[1]) * grid.shape[2] + ijk[2]
    j = int(np.searchsorted(grid.inside_index, flat))     # inside_index is ascending
    return j if j < len(grid.inside_index) and grid.inside_index[j] == flat else -1


def _subcell_table(grid: VolumeGrid):
    """(c, s, 3) quadrature points of every cell and the (c, s) mask of the real ones.

    A full cell has the s = 4^3 subcell centers; a cut cell has its inside
    subcell centers first and padding after them.
    """
    pts = grid.centers[:, None, :] + _SUBCELL_OFFSETS * grid.spacing
    real = np.ones(pts.shape[:2], dtype=bool)
    if grid.partial_points:
        cut = np.fromiter(grid.partial_points, dtype=int, count=len(grid.partial_points))
        k = np.fromiter(map(len, grid.partial_points.values()), dtype=int, count=len(cut))
        real[cut] = np.arange(len(_SUBCELL_OFFSETS)) < k[:, None]
        c, s = np.nonzero(real[cut])
        pts[cut[c], s] = np.concatenate(list(grid.partial_points.values()))
    return pts, real


def _near_refine_rows(grid: VolumeGrid, table, rows, X, own, r):
    """Replace the entries of cells within 2.5 spacings by subcell means in place.

    One pass over the (target, cell) pairs in blocks of _PASS_POINTS points:
    the mean of h (or grad h) over the cell's real points in table.  own[i] is
    the cell holding target i (-1: none); there, the subcell nearest the
    target gets the equal-volume-ball value (and zero gradient).  rows has
    shape (m, c) for h and (m, c, 3) for its gradient.
    """
    gradient = rows.ndim == 3
    pts, real = table
    i, j = np.nonzero(r < 2.5 * float(np.max(grid.spacing)))
    step = _PASS_POINTS // pts.shape[1]
    for b in range(0, len(i), step):
        ib, jb = i[b:b + step], j[b:b + step]
        vals, rr = _newton_kernel(X[ib, None, :] - pts[jb], gradient)
        ok = real[jb]
        k = np.nonzero(jb == own[ib])[0]
        sub_vol = grid.weights[jb[k]] / ok[k].sum(axis=1)
        r_eq = (3.0 * sub_vol / _4PI) ** (1.0 / 3.0)
        nearest = np.argmin(np.where(ok[k], rr[k], np.inf), axis=1)
        vals[k, nearest] = 0.0 if gradient else (r_eq ** 2 / 2.0) / sub_vol
        # masked mean over each pair's points, one (1, s) @ (s, 1 or 3) product per pair
        mean = (ok[:, None, :] @ vals.reshape(ok.shape + (-1,)))[:, 0] / ok.sum(axis=1)[:, None]
        rows[ib, jb] = (grid.weights[jb, None] * mean).reshape((len(jb),) + rows.shape[2:])


def _volume_rows(grid: VolumeGrid, X, own, gradient):
    """Yield (start, rows) blocks of the volume operator at the targets X, volumes folded in.

    rows[i, j] = w_j h(X_i - Y_j) by the center rule, or its gradient in X_i
    (shape (m, c, 3)), with near entries refined by _near_refine_rows.  Blocks
    of _CHUNK targets keep the (m, c, 3) temporaries small.
    """
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    own = np.asarray(own)
    w = grid.weights[:, None] if gradient else grid.weights
    table = _subcell_table(grid)
    for s in range(0, len(X), _CHUNK):
        rows, r = _newton_kernel(X[s:s + _CHUNK, None, :] - grid.centers, gradient)
        rows *= w
        _near_refine_rows(grid, table, rows, X[s:s + _CHUNK], own[s:s + _CHUNK], r)
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
