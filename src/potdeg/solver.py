"""Semilinear Dirichlet solver: -Lap u = psi1(u, grad u) on Omega.

Mollified fixed-point iteration over a decreasing width schedule: mollify the
source, apply the affine source -> (u, grad u) map whose linear part the
contraction certificate bounds, project to the declared band, and track sup
and negative-norm residuals of the update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bie import assemble_neumann_system, g02_normal_derivative
from .errors import DivergenceDetected, NoContraction
from .funcspace import GridFunction, mollify, negative_norm
from .geometry import SurfaceMesh, VolumeGrid
from .potentials import (
    _kern_double_newton,
    _kern_grad_double_newton,
    _kern_grad_single_newton,
    _kern_single_newton,
    _layer_matrices,
    adjoint_volume_matrix,
    grad_newton_matrices,
    newton_matrix,
)
# bound here because perfbench/tracing.py patches them by name (ROADMAP item 5)
from .potentials import (  # noqa: F401
    double_layer_matrix,
    grad_double_layer_matrix,
    grad_single_layer_matrix,
    single_layer_matrix,
)

DEFAULT_SCHEDULE_FACTORS = (0.2, 0.1, 0.05, 0.025)   # in units of grid spacing^2


@dataclass
class SemilinearProblem:
    mesh: SurfaceMesh
    grid: VolumeGrid
    a1: np.ndarray                 # Dirichlet data at the mesh nodes
    a1_gradient: np.ndarray        # ambient gradient of a C^1 extension, (n, 3)
    psi1: callable                 # psi1(u, ux, uy, uz, X) -> source values
    M: float
    lipschitz: tuple               # per-argument constants (L_u, L_ux, L_uy, L_uz)
    epsilon_schedule: list = None
    m1: int = 10                   # Laplacian-block budget a = 2, m1 = 6 + 2a

    def __post_init__(self):
        self.a1 = np.asarray(self.a1, dtype=float)
        self.a1_gradient = np.asarray(self.a1_gradient, dtype=float).reshape(-1, 3)
        if np.isscalar(self.lipschitz):
            self.lipschitz = (float(self.lipschitz),) * 4
        if self.epsilon_schedule is None:
            dx2 = float(np.max(self.grid.spacing)) ** 2
            self.epsilon_schedule = [f * dx2 for f in DEFAULT_SCHEDULE_FACTORS]
        lip, eps = np.asarray(self.lipschitz, float), np.asarray(self.epsilon_schedule, float)
        if lip.shape != (4,) or not np.all(np.isfinite(lip) & (lip >= 0)):
            raise ValueError("lipschitz needs 4 finite non-negative constants")
        if eps.ndim != 1 or eps.size == 0 or not np.all(np.isfinite(eps) & (eps > 0)):
            raise ValueError("epsilon_schedule must be a non-empty list of positive widths")


@dataclass
class IterateState:
    u: GridFunction
    u_x: GridFunction
    u_y: GridFunction
    u_z: GridFunction
    A5: np.ndarray
    residual_negnorm: float
    residual_inf: float


@dataclass
class Workspace:
    """Precomputed dense operators tying the mesh and grid together."""

    mesh: SurfaceMesh
    grid: VolumeGrid
    sys: object = field(default=None)
    SL: np.ndarray = None
    DL: np.ndarray = None
    GSL: np.ndarray = None
    GDL: np.ndarray = None
    NM: np.ndarray = None
    GNM: list = None
    Kvol: np.ndarray = None
    _maps: np.ndarray = None

    @staticmethod
    def build(mesh: SurfaceMesh, grid: VolumeGrid) -> "Workspace":
        ws = Workspace(mesh=mesh, grid=grid)
        ws.sys = assemble_neumann_system(mesh)
        # one near-field plan per row block serves all four layer kernels
        ws.SL, ws.DL, ws.GSL, ws.GDL = _layer_matrices(
            mesh, grid.centers, (_kern_single_newton, _kern_double_newton,
                                 _kern_grad_single_newton, _kern_grad_double_newton))
        ws.NM = newton_matrix(grid)
        ws.GNM = grad_newton_matrices(grid)
        ws.Kvol = adjoint_volume_matrix(mesh, grid)
        return ws

    def source_to_field_matrices(self):
        """Linear maps source -> (u, ux, uy, uz) through A5 and the volume term:
        views (M_u, [M_gx, M_gy, M_gz]) into the cached (4, c, c) array _maps."""
        if self._maps is None:
            AinvK = self.sys.solve(self.Kvol)
            c = self.grid.n_cells
            self._maps = np.empty((4, c, c))
            for block, layer, volume in zip(self._maps, (self.SL, *np.moveaxis(self.GSL, 2, 0)),
                                            (self.NM, *self.GNM)):
                np.matmul(layer, AinvK, out=block)
                block += volume
        return self._maps[0], list(self._maps[1:])


def _embed(grid: VolumeGrid, values) -> GridFunction:
    """Cell values zero-extended to the generating box grid."""
    box = np.zeros(int(np.prod(grid.shape)))
    box[grid.inside_index] = values
    return GridFunction(grid.box_lo, grid.box_hi, box.reshape(grid.shape))


def _extract(grid: VolumeGrid, f: GridFunction) -> np.ndarray:
    return f.values.reshape(-1)[grid.inside_index]


def contraction_certificate(p: SemilinearProblem, ws: Workspace) -> float:
    """sum_i L_i * ||source -> field_i||_inf; < 1 certifies the Picard loop."""
    ws.source_to_field_matrices()
    # one c x c block at a time keeps the |.| temporary at a quarter of the maps
    return sum(L * float(np.max(np.sum(np.abs(m), axis=1)))
               for L, m in zip(p.lipschitz, ws._maps))


def solve_semilinear(p: SemilinearProblem, tol: float, max_outer: int = None,
                     max_inner: int = 60, best_effort: bool = False,
                     workspace: Workspace = None):
    """Run the mollified fixed-point iteration; returns (IterateState, history).

    history rows: {"eps", "iter", "residual_inf", "residual_negnorm",
    "raw_peak", "clipped_frac", "event"}; raw_peak is the largest |value| of
    the four fields before the projection to [-M, M], clipped_frac the share
    of their values that the projection moved.
    """
    if max_inner < 1 or (max_outer is not None and max_outer < 1):
        raise ValueError("max_outer and max_inner must be >= 1")
    ws = workspace if workspace is not None else Workspace.build(p.mesh, p.grid)
    schedule = list(p.epsilon_schedule)[:max_outer]
    q = contraction_certificate(p, ws)
    if q >= 1.0 and not best_effort:
        raise NoContraction(f"certificate {q:.3g} >= 1; pass best_effort to override")

    # F = maps @ s_eff + F0: the fields are affine in the mollified source, and
    # F0 = (SL, GSL) A^-1 g02 + (DL, GDL) a1 are those of the source-free problem
    g02 = g02_normal_derivative(ws.sys, p.a1)
    A0 = ws.sys.solve(g02)
    F0 = np.array([ws.SL @ A0 + ws.DL @ p.a1,
                   *(ws.GSL[..., a] @ A0 + ws.GDL[..., a] @ p.a1 for a in range(3))])
    c = p.grid.n_cells
    maps = ws._maps.reshape(4 * c, c)
    X = p.grid.centers
    F = np.zeros((4, c))       # rows u, ux, uy, uz
    history = []
    outer_final = []
    for eps in schedule:
        converged = False
        best_inner = np.inf
        grow_run = 0
        for it in range(1, max_inner + 1):
            s = np.asarray(p.psi1(*F, X), dtype=float)
            s_eff = _extract(p.grid, mollify(_embed(p.grid, s), eps))
            raw = (maps @ s_eff).reshape(4, c) + F0
            raw_peak = float(np.max(np.abs(raw)))
            clipped_frac = float(np.mean(np.abs(raw) > p.M))
            F_new = np.clip(raw, -p.M, p.M)
            diffs = F_new - F
            res_inf = float(np.max(np.abs(diffs)))
            res_neg = max(negative_norm(_embed(p.grid, d), p.m1) for d in diffs)
            F = F_new
            assert np.max(np.abs(F)) <= p.M + 1e-12
            history.append({"eps": float(eps), "iter": it,
                            "residual_inf": res_inf, "residual_negnorm": res_neg,
                            "raw_peak": raw_peak, "clipped_frac": clipped_frac,
                            "event": ""})
            if res_inf <= tol:
                # a converged iterate pinned over a region (or grossly outside)
                # is a fixed point of the clipped map, not of the equation; a
                # few near-boundary cells grazing the band are quadrature noise
                if raw_peak > 2.0 * p.M or clipped_frac > 0.01:
                    history[-1]["event"] = "divergence"
                    raise DivergenceDetected(
                        f"iterate saturated the projection radius (pre-clip peak "
                        f"{raw_peak:.3g}, clipped fraction {clipped_frac:.1%}, "
                        f"M = {p.M}); no fixed point inside the band",
                        history=history)
                converged = True
                break
            if res_inf > 2.0 * best_inner:
                grow_run += 1
                if grow_run >= 3:
                    history[-1]["event"] = "divergence"
                    raise DivergenceDetected(
                        f"residual grew past 2x best for 3 consecutive iterations "
                        f"(eps = {eps})", history=history)
            else:
                grow_run = 0
            best_inner = min(best_inner, res_inf)
        outer_final.append(history[-1]["residual_inf"])
        if len(outer_final) >= 4 and all(
                outer_final[-k] > outer_final[-k - 1] for k in (1, 2, 3)):
            history[-1]["event"] = "divergence"
            raise DivergenceDetected("per-epsilon residual grew over 3 consecutive "
                                     "schedule steps", history=history)
        if not converged and not best_effort and history[-1]["residual_inf"] > 100 * tol:
            history[-1]["event"] = "stalled"
    # fields u, u_x, u_y, u_z; A5 from the last mollified source
    state = IterateState(*(_embed(p.grid, f) for f in F), A5=ws.sys.solve(g02 + ws.Kvol @ s_eff),
                         residual_negnorm=history[-1]["residual_negnorm"],
                         residual_inf=history[-1]["residual_inf"])
    return state, history


def convergence_report(history) -> dict:
    """Per-epsilon summary rows plus monotonicity of the negative-norm tail."""
    if not history:
        raise ValueError("history is empty")
    rows = []
    by_eps = {}
    for row in history:
        by_eps.setdefault(row["eps"], []).append(row)
    for eps, rws in by_eps.items():
        ratios = [rws[i + 1]["residual_inf"] / rws[i]["residual_inf"]
                  for i in range(len(rws) - 1) if rws[i]["residual_inf"] > 0]
        rows.append({
            "eps": eps,
            "iterations": len(rws),
            "residual_inf": rws[-1]["residual_inf"],
            "residual_negnorm": rws[-1]["residual_negnorm"],
            "contraction_ratio": float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-300)))))
            if ratios else float("nan"),
            "event": rws[-1]["event"],
        })
    rows.sort(key=lambda r: -r["eps"])
    tail = [r["residual_negnorm"] for r in rows]
    # once the inner loops converge, per-epsilon finals are tolerance-floor
    # noise; values below 0.1% of the first recorded residual count as flat
    floor = 1e-3 * history[0]["residual_negnorm"]
    monotone = all(tail[i + 1] <= max(1.05 * tail[i], floor)
                   for i in range(len(tail) - 1))
    diverged = any(r["event"] == "divergence" for r in rows)
    return {"rows": rows, "tail_monotone": bool(monotone), "diverged": bool(diverged)}
