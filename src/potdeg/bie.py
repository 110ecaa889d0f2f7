"""Dirichlet-to-Neumann completion and the representation formula.

The Neumann data A5 = du/dn solves the second-kind equation
(1/2 I - K') A5 = g02 + K'_vol psi1, where K' is the adjoint double layer
(Newton convention) and g02 is the interior normal-derivative limit of the
double layer of the Dirichlet data A1.  The solution is then evaluated by
u = SL[A5] + DL[A1] + NP[psi1].
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import IllConditioned, SingularEvaluation
from .geometry import SurfaceMesh, VolumeGrid, as_point
from .potentials import (
    KernelConvention,
    adjoint_kernel_matrix,
    adjoint_volume_matrix,
    double_layer,
    double_layer_matrix,
    newton_potential,
    single_layer,
)

COND_LIMIT = 1e8


@dataclass
class NeumannSystem:
    """Dense Nystrom discretization of (1/2 I - K')."""

    mesh: SurfaceMesh
    matrix: np.ndarray
    condition_estimate: float
    _lu: tuple = None

    @property
    def lu(self):
        if self._lu is None:
            self._lu = lu_factor(self.matrix)
        return self._lu

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
    """Build and condition-check the (1/2 I - K') matrix."""
    if mesh.n_nodes < 12:
        raise ValueError("mesh too small")
    K = adjoint_kernel_matrix(mesh)
    A = 0.5 * np.eye(mesh.n_nodes) - K
    cond = float(np.linalg.cond(A, 1))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditioned(f"condition estimate {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return NeumannSystem(mesh=mesh, matrix=A, condition_estimate=cond)


def g02_normal_derivative(mesh: SurfaceMesh, A1) -> np.ndarray:
    """Interior normal-derivative limit of the double layer of A1.

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
    A1 = np.asarray(A1, dtype=float)
    eps = 2.0 * mesh.node_spacing
    # one (n, n) matrix per probe distance, not one (3n, n) matrix; separate calls of
    # 256 rows would re-fault the kernel temporaries each time (10-20 % slower at level 4)
    f1, f2, f3 = (double_layer_matrix(mesh, mesh.nodes - (t * eps)[:, None] * mesh.normals,
                                      near_correct=False) @ A1 for t in (1.0, 2.0, 3.0))
    return (2.5 * f1 - 4.0 * f2 + 1.5 * f3) / eps


def solve_neumann_data(sys: NeumannSystem, A1, volume_source=None,
                       grid: VolumeGrid = None) -> np.ndarray:
    """Solve (1/2 I - K') A5 = g02(A1) [+ adjoint volume term] for the Neumann data."""
    A1 = np.asarray(A1, dtype=float)
    if A1.shape != (sys.mesh.n_nodes,):
        raise ValueError("A1 length does not match node count")
    rhs = g02_normal_derivative(sys.mesh, A1)
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
    lam = A5 - np.einsum("nd,nd->n", G, mesh.normals)
    A2 = G[:, 0] + lam * mesh.normals[:, 0]
    A3 = G[:, 1] + lam * mesh.normals[:, 1]
    A4 = G[:, 2] + lam * mesh.normals[:, 2]
    if A1 is None:
        A1 = np.zeros(mesh.n_nodes)
    return CompletedBoundaryData(A1=np.asarray(A1, dtype=float),
                                 A2=A2, A3=A3, A4=A4, A5=A5, lam=lam)


def evaluate_representation(mesh: SurfaceMesh, grid: VolumeGrid, A1, A5, psi1, x) -> float:
    """u(x) = SL[A5](x) + DL[A1](x) + NP[psi1](x), Newton convention, interior x."""
    x = as_point(x)
    dist = mesh.surface_distance(x)
    spacing = mesh.local_spacing(x)
    if dist <= spacing:
        raise SingularEvaluation(
            f"probe at distance {dist:.3g} from the surface (need > {spacing:.3g})")
    val = single_layer(mesh, np.asarray(A5, dtype=float), x, KernelConvention.NEWTON)
    val += double_layer(mesh, np.asarray(A1, dtype=float), x, KernelConvention.NEWTON)
    if psi1 is not None:
        if grid is None:
            raise ValueError("psi1 requires the grid it lives on")
        val += newton_potential(grid, np.asarray(psi1, dtype=float), x)
    return float(val)


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
