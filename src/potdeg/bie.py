"""Dirichlet-to-Neumann completion and the representation formula.

The Neumann data A5 = du/dn solves the second-kind equation
(1/2 I - K') A5 = g02 + K'_vol psi1, where K' is the adjoint double layer
(Newton convention) and g02 is the interior normal-derivative limit of the
double layer of the Dirichlet data A1.  The solution is then evaluated by
u = SL[A5] + DL[A1] + NP[psi1], at one point or at an (m, 3) array of points
with one shared single- and double-layer pass (evaluate_representation).

g02 is a fixed linear map of A1 that depends only on the mesh.  NeumannSystem
builds it once, as a dense (n, n) operator of n^2 * 8 bytes (3.3 MB at
icosphere level 3, 52 MB at level 4, 840 MB at level 5), on the first solve,
and every later solve applies it as one matrix-vector product.  Its row sums
are taken off its diagonal, so that it maps constants to 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgecon

from .errors import IllConditioned, SingularEvaluation
from .geometry import SurfaceMesh, VolumeGrid
from .potentials import (
    _CHUNK,
    _containing_cell,
    _kern_double_newton,
    _kern_single_newton,
    _layer_matrices,
    _volume_rows,
    adjoint_kernel_matrix,
    adjoint_volume_matrix,
    double_layer_matrix,
)
# bound here because perfbench/tracing.py patches them by name (ROADMAP item 5)
from .potentials import double_layer, single_layer  # noqa: F401

COND_LIMIT = 1e8


@dataclass
class NeumannSystem:
    """Dense Nystrom discretization of (1/2 I - K'), its LU and the cached g02 operator."""

    mesh: SurfaceMesh
    matrix: np.ndarray
    lu: tuple
    condition_estimate: float
    _g02: np.ndarray = None

    @property
    def g02(self) -> np.ndarray:
        """(n, n) map from the Dirichlet data A1 to g02; built on first use."""
        if self._g02 is None:
            self._g02 = _g02_operator(self.mesh)
        return self._g02

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return lu_solve(self.lu, rhs)


@dataclass
class CompletedBoundaryData:
    """Full first-order boundary data: Dirichlet trace, gradient components, normal derivative."""

    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    A4: np.ndarray
    A5: np.ndarray
    lam: np.ndarray   # multiplier lambda = A5 - dA1/dn


def assemble_neumann_system(mesh: SurfaceMesh) -> NeumannSystem:
    """Build, factor and condition-check the (1/2 I - K') matrix.

    The 1-norm condition number is estimated by LAPACK gecon on the LU.  An
    estimate can read low, so one above COND_LIMIT / 10 (or not finite) is
    replaced by the exact value, which must not exceed COND_LIMIT.
    """
    if mesh.n_nodes < 12:
        raise ValueError("mesh too small")
    A = adjoint_kernel_matrix(mesh)         # formed in place: A = 0.5 I - K'
    np.negative(A, out=A)
    A[np.diag_indices_from(A)] += 0.5
    lu = lu_factor(A)
    rcond, _ = dgecon(lu[0], np.linalg.norm(A, 1), norm="1")
    cond = 1.0 / rcond if rcond > 0 else np.inf
    if not np.isfinite(cond) or cond > COND_LIMIT / 10:
        cond = float(np.linalg.cond(A, 1))
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise IllConditioned(f"condition estimate {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return NeumannSystem(mesh=mesh, matrix=A, lu=lu, condition_estimate=float(cond))


def _g02_operator(mesh: SurfaceMesh) -> np.ndarray:
    """G = (2.5 D1 - 4 D2 + 1.5 D3) / eps, Dt the plain double layer at the probes t eps inward.

    Built in row blocks of _CHUNK nodes, one double_layer_matrix call on the
    block's 3 * _CHUNK probes each, so the transient memory stays at block
    scale beside the (n, n) result.  Each row sum is then taken off its
    diagonal entry, so that G maps constants to 0 as the exact operator does
    (the interior double layer of a constant is constant).
    """
    n = mesh.n_nodes
    eps = 2.0 * mesh.node_spacing
    G = np.empty((n, n))
    for s in range(0, n, _CHUNK):
        x, nrm, e = mesh.nodes[s:s + _CHUNK], mesh.normals[s:s + _CHUNK], eps[s:s + _CHUNK, None]
        D = double_layer_matrix(mesh, np.concatenate([x - t * e * nrm for t in (1.0, 2.0, 3.0)]),
                                near_correct=False)
        # one pass over the three (m, n) blocks, written straight into G
        np.einsum("t,tmn->mn", [2.5, -4.0, 1.5], D.reshape(3, len(x), n), out=G[s:s + _CHUNK])
        G[s:s + _CHUNK] /= e
    G[np.diag_indices(n)] -= G.sum(axis=1)
    return G


def g02_normal_derivative(system: NeumannSystem, A1) -> np.ndarray:
    """Interior normal-derivative limit of the double layer of A1: system.g02 @ A1.

    One-sided three-point differences of the off-surface field at distances
    {eps, 2 eps, 3 eps} along the inward normal, eps = 2 local spacings; the
    stencil (2.5, -4, 1.5)/eps is exact for fields quadratic along the ray.

    All probes use the plain vertex rule: the stencil amplifies field noise by
    8/eps, and the vertex-rule error varies smoothly along the probe ray, so a
    scheme-uniform evaluation cancels it far better than pointwise-corrected
    (but scheme-mixed) values would.

    The deepest probe sits 6 local spacings inward, so the mesh must resolve
    the domain at that scale (icosphere level >= 2 for the unit ball).
    """
    return system.g02 @ np.asarray(A1, dtype=float)


def solve_neumann_data(sys: NeumannSystem, A1, volume_source=None,
                       grid: VolumeGrid = None) -> np.ndarray:
    """Solve (1/2 I - K') A5 = g02(A1) [+ adjoint volume term] for the Neumann data."""
    A1 = np.asarray(A1, dtype=float)
    if A1.shape != (sys.mesh.n_nodes,):
        raise ValueError("A1 length does not match node count")
    rhs = g02_normal_derivative(sys, A1)
    if volume_source is not None:
        if grid is None:
            raise ValueError("volume_source requires the grid it lives on")
        rhs = rhs + adjoint_volume_matrix(sys.mesh, grid) @ np.asarray(volume_source, dtype=float)
    A5 = sys.solve(rhs)
    resid = np.linalg.norm(sys.matrix @ A5 - rhs)
    scale = max(np.linalg.norm(rhs), 1e-30)
    if resid / scale > 1e-10:
        raise IllConditioned(f"linear solve residual {resid / scale:.2e} above 1e-10")
    return A5


def tangential_complete(mesh: SurfaceMesh, A1_ambient_gradient, A5,
                        A1=None) -> CompletedBoundaryData:
    """Complete the boundary gradient: A_{2,3,4} = dA1/dx_i + lambda n_i, lambda = A5 - dA1/dn."""
    G = np.asarray(A1_ambient_gradient, dtype=float).reshape(mesh.n_nodes, 3)
    A5 = np.asarray(A5, dtype=float)
    A1 = np.zeros(mesh.n_nodes) if A1 is None else np.asarray(A1, dtype=float)
    if A1.shape != (mesh.n_nodes,) or A5.shape != (mesh.n_nodes,):
        raise ValueError("density length does not match node count")
    lam = A5 - np.einsum("nd,nd->n", G, mesh.normals)
    A2 = G[:, 0] + lam * mesh.normals[:, 0]
    A3 = G[:, 1] + lam * mesh.normals[:, 1]
    A4 = G[:, 2] + lam * mesh.normals[:, 2]
    return CompletedBoundaryData(A1=A1, A2=A2, A3=A3, A4=A4, A5=A5, lam=lam)


def evaluate_representation(mesh: SurfaceMesh, grid: VolumeGrid, A1, A5, psi1, x):
    """u(x) = SL[A5](x) + DL[A1](x) + NP[psi1](x), Newton convention, interior x.

    x is one point (the result is a float) or an (m, 3) array of points (the
    result is an (m,) array).  A point within one local node spacing of its
    nearest node raises SingularEvaluation for the whole batch.  One layer
    pass builds the single- and double-layer rows of every point through a
    shared near-field plan, and one volume pass the NP rows; each value is
    one dot product per row and density, so a batch gives the values of
    point-by-point calls bit for bit.
    """
    X = np.asarray(x, dtype=float)
    single = X.shape == (3,)
    X = X.reshape(-1, 3)
    if not np.all(np.isfinite(X)):
        raise ValueError("point has non-finite components")
    A1, A5 = np.asarray(A1, dtype=float), np.asarray(A5, dtype=float)
    if A1.shape != (mesh.n_nodes,) or A5.shape != (mesh.n_nodes,):
        raise ValueError("density length does not match node count")
    dist, nearest = mesh.tree.query(X)
    spacing = mesh.node_spacing[nearest]
    if np.any(dist <= spacing):
        k = int(np.argmax(dist <= spacing))
        raise SingularEvaluation(
            f"probe at distance {dist[k]:.3g} from the surface (need > {spacing[k]:.3g})")
    SL, DL = _layer_matrices(mesh, X, (_kern_single_newton, _kern_double_newton))
    val = np.array([sl @ A5 + dl @ A1 for sl, dl in zip(SL, DL)])
    if psi1 is not None:
        if grid is None:
            raise ValueError("psi1 requires the grid it lives on")
        f = np.asarray(psi1, dtype=float)
        if f.shape != (grid.n_cells,):
            raise ValueError("source length does not match cell count")
        own = [_containing_cell(grid, p) for p in X]
        for s, rows in _volume_rows(grid, X, own, gradient=False):
            val[s:s + len(rows)] += [r @ f for r in rows]
    return float(val[0]) if single else val


def save_boundary_field(values, path) -> None:
    """Index-aligned JSON array serialization."""
    with open(path, "w") as f:
        json.dump(np.asarray(values, dtype=float).tolist(), f)


def load_boundary_field(path, mesh: SurfaceMesh = None) -> np.ndarray:
    with open(path) as f:
        values = np.asarray(json.load(f), dtype=float)
    if mesh is not None and values.shape != (mesh.n_nodes,):
        raise ValueError("field length does not match node count")
    return values
