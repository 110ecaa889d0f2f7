"""Brouwer degree in coefficient space and the Leray-Schauder pipeline.

The compact Hammerstein operator is replaced by a polynomial one: fit the
kernel (in the output variable) and the offset to total degree N with sup
errors within tau/3 each, project to the monomial coefficient space, and
compute the finite-dimensional degree of D - phi(D) on the polytope
Omega_{M,2} = {D : ||X~^T D||_inf < M at the quadrature nodes}.

Methods: exact boundary sign count in one dimension; Jacobian sign summation
over multi-start roots (with a straight-line grid-homotopy cross-check) in
dimensions 2..4; higher dimensions are refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryZero,
    BudgetExceeded,
    DegenerateRoot,
    DimensionTooHigh,
    RadiusExceeded,
    SolverInconsistent,
)
from .hammerstein import HammersteinProblem, estimate_tau, multi_start_picard

METHOD_SIGN_1D = "BoundarySign1D"
METHOD_JACOBIAN = "JacobianSignSum"


def basis_size(N: int) -> int:
    """Number of 3-variable monomials of total degree <= N: C(N+3, 3)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return math.comb(N + 3, 3)


def _multi_indices(N: int, dim: int):
    """All exponent tuples with |alpha| <= N, graded lexicographic."""
    out = []
    for d in range(N + 1):
        block = []

        def rec(prefix, remaining, axes_left):
            if axes_left == 1:
                block.append(tuple(prefix + [remaining]))
                return
            for a in range(remaining + 1):
                rec(prefix + [a], remaining - a, axes_left - 1)

        rec([], d, dim)
        block.sort(reverse=True)
        out.extend(block)
    return out


@dataclass
class MonomialBasis:
    """Monomials X^alpha with |alpha| <= N in the domain dimension."""

    N: int
    dim: int = 3
    multi_indices: list = field(init=False)

    def __post_init__(self):
        if self.N < 0 or self.dim < 1:
            raise ValueError("bad basis parameters")
        self.multi_indices = _multi_indices(self.N, self.dim)

    @property
    def L_N(self) -> int:
        return len(self.multi_indices)

    def evaluate(self, X) -> np.ndarray:
        """(points, L_N) matrix of monomial values."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty((len(X), self.L_N))
        for k, alpha in enumerate(self.multi_indices):
            col = np.ones(len(X))
            for axis, p in enumerate(alpha):
                if p:
                    col = col * X[:, axis] ** p
            out[:, k] = col
        return out


@dataclass
class FiniteMap:
    """Coefficient-space map D -> phi(D) with the sampled sup-norm polytope."""

    basis: MonomialBasis
    phi: callable            # R^{L_N} -> R^{L_N}
    node_monomials: np.ndarray   # (n, L_N) X~ at the quadrature nodes
    M: float
    g_N: np.ndarray = None   # target coefficient vector
    phi_clamped: callable = None  # extension used by the degree machinery

    @property
    def dimension(self) -> int:
        return self.basis.L_N

    def sup_on_domain(self, D) -> float:
        return float(np.max(np.abs(self.node_monomials @ np.asarray(D, dtype=float))))

    def inside(self, D, slack=0.0) -> bool:
        return self.sup_on_domain(D) < self.M - slack

    def field(self, D) -> np.ndarray:
        """F(D) = D - phi(D) (target subtracted by the caller)."""
        D = np.asarray(D, dtype=float)
        return D - np.asarray(self.phi(D), dtype=float)

    def field_extended(self, D) -> np.ndarray:
        """Like field, but psi sees clamped samples outside the polytope.

        Root searches step outside Omega_{M,2} where psi is undeclared; the
        clamped extension agrees with the honest field on the closed polytope,
        which is all the degree depends on.
        """
        D = np.asarray(D, dtype=float)
        phi = self.phi_clamped if self.phi_clamped is not None else self.phi
        return D - np.asarray(phi(D), dtype=float)


@dataclass
class DegreeCertificate:
    degree: int
    tau_estimate: float
    N: int
    L_N: int
    sup_error_kernel: float
    sup_error_offset: float
    method: str
    homotopy_checked: bool
    seed: int
    samples: int
    boundary_samples: int
    domain_box: list
    dimension: int

    def to_json(self) -> str:
        return json.dumps({
            "degree": self.degree,
            "tau_estimate": self.tau_estimate,
            "N": self.N,
            "L_N": self.L_N,
            "sup_error_kernel": self.sup_error_kernel,
            "sup_error_offset": self.sup_error_offset,
            "method": self.method,
            "homotopy_checked": self.homotopy_checked,
            "seed": self.seed,
            "samples": self.samples,
            "boundary_samples": self.boundary_samples,
            "domain_box": self.domain_box,
            "dimension": self.dimension,
        }, sort_keys=True)


def _training_grid(box, pts_per_axis):
    axes = [np.linspace(lo, hi, pts_per_axis) for (lo, hi) in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _validation_grid(box, pts_per_axis):
    """Denser grid shifted off the training points (out-of-sample sup error)."""
    grids = []
    for (lo, hi) in box:
        n = pts_per_axis + 3
        step = (hi - lo) / n
        grids.append(np.linspace(lo + 0.37 * step, hi - 0.29 * step, n))
    mesh = np.meshgrid(*grids, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def fit_polynomial_approximation(func, box, N: int):
    """Least-squares monomial fit on a tensor grid; sup error on a shifted grid.

    box: per-axis (lo, hi) pairs; returns (coefficients, sup_error, basis).
    """
    box = [tuple(map(float, b)) for b in box]
    dim = len(box)
    basis = MonomialBasis(N, dim)
    pts_per_axis = max(3 * (N + 1), 4)
    train = _training_grid(box, pts_per_axis)
    A = basis.evaluate(train)
    y = np.asarray(func(train), dtype=float)
    coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
    val = _validation_grid(box, pts_per_axis)
    fit_vals = basis.evaluate(val) @ coeffs
    true_vals = np.asarray(func(val), dtype=float)
    sup_error = float(np.max(np.abs(true_vals - fit_vals)))
    return coeffs, sup_error, basis


def build_finite_map(p: HammersteinProblem, kernel_coeffs, basis: MonomialBasis) -> FiniteMap:
    """phi_alpha(D) = sum_j w_j C_alpha(Y_j) psi(Y_j, Y~_j^T D).

    kernel_coeffs: (L_N, n) array of C_alpha at the nodes, or per-alpha
    callables of Y.
    """
    if callable(kernel_coeffs) or (isinstance(kernel_coeffs, (list, tuple))
                                   and kernel_coeffs and callable(kernel_coeffs[0])):
        funcs = kernel_coeffs if isinstance(kernel_coeffs, (list, tuple)) else [kernel_coeffs]
        C = np.stack([np.asarray(f(p.nodes), dtype=float) for f in funcs])
    else:
        C = np.asarray(kernel_coeffs, dtype=float)
    if C.shape != (basis.L_N, p.n):
        raise ValueError(f"kernel coefficient table must be (L_N, n) = ({basis.L_N}, {p.n})")
    Ymon = basis.evaluate(p.nodes)

    def phi(D):
        f = Ymon @ np.asarray(D, dtype=float)
        peak = np.max(np.abs(f))
        if peak > p.M * (1 + 1e-12):
            raise RadiusExceeded(f"||X~^T D||_inf = {peak:.4g} exceeds M = {p.M}")
        return C @ (p.weights * np.asarray(p.psi(p.nodes, f), dtype=float))

    def phi_clamped(D):
        f = np.clip(Ymon @ np.asarray(D, dtype=float), -p.M, p.M)
        return C @ (p.weights * np.asarray(p.psi(p.nodes, f), dtype=float))

    return FiniteMap(basis=basis, phi=phi, node_monomials=Ymon, M=p.M,
                     phi_clamped=phi_clamped)


def boundary_sign_degree_1d(F, lo: float, hi: float) -> int:
    """Exact 1-d degree from endpoint signs."""
    f_lo, f_hi = float(F(np.array([lo]))[0]), float(F(np.array([hi]))[0])
    if f_lo == 0.0 or f_hi == 0.0:
        raise BoundaryZero("field vanishes at an interval endpoint")
    return int((np.sign(f_hi) - np.sign(f_lo)) / 2)


def _boundary_points(fmap: FiniteMap, count: int, seed: int) -> np.ndarray:
    """Points on the sampled boundary of Omega_{M,2}: scaled random directions."""
    rng = np.random.default_rng(seed)
    L = fmap.dimension
    pts = []
    dirs = rng.normal(size=(count, L))
    for v in dirs:
        peak = np.max(np.abs(fmap.node_monomials @ v))
        if peak < 1e-14:
            continue
        pts.append(v * (fmap.M / peak))
    return np.asarray(pts)


def _fd_jacobian(F, D, h=1e-6):
    L = len(D)
    J = np.empty((L, L))
    base = F(D)
    for i in range(L):
        step = h * max(1.0, abs(D[i]))
        e = np.zeros(L)
        e[i] = step
        J[:, i] = (F(D + e) - F(D - e)) / (2 * step)
    return J


def _find_roots(F, fmap: FiniteMap, n_starts: int, seed: int):
    rng = np.random.default_rng(seed)
    L = fmap.dimension
    axis_bound = fmap.M / np.maximum(np.max(np.abs(fmap.node_monomials), axis=0), 1e-14)
    roots = []
    for s in range(n_starts):
        D = rng.uniform(-1.0, 1.0, size=L) * axis_bound * 0.8 if s else np.zeros(L)
        ok = False
        for _ in range(60):
            val = F(D)
            if np.max(np.abs(val)) <= 1e-11 * (1.0 + np.max(np.abs(D))):
                ok = True
                break
            J = _fd_jacobian(F, D)
            try:
                step = np.linalg.solve(J, val)
            except np.linalg.LinAlgError:
                break
            if np.max(np.abs(step)) > 10.0 * np.max(axis_bound):
                break
            D = D - step
        if not ok or not fmap.inside(D, slack=1e-9 * fmap.M):
            continue
        if not any(np.max(np.abs(D - r)) < 1e-6 * (1.0 + np.max(np.abs(r))) for r in roots):
            roots.append(D.copy())
    return roots


def brouwer_degree(fmap: FiniteMap, target, seed: int = 0, n_starts: int = 40,
                   boundary_samples: int = 400, force_method: str = None):
    """Degree of D - phi(D) on Omega_{M,2} at target.

    Returns (degree, method, homotopy_checked).
    """
    target = np.asarray(target, dtype=float)
    L = fmap.dimension
    if L > 4:
        raise DimensionTooHigh(f"L_N = {L} > 4; refuse")

    def F(D):
        return fmap.field_extended(np.asarray(D, dtype=float)) - target

    boundary = _boundary_points(fmap, boundary_samples, seed + 1)
    bvals = np.array([np.max(np.abs(F(b))) for b in boundary])
    scale = max(1.0, float(np.max(np.abs(target))))
    if np.min(bvals) <= 1e-10 * scale:
        raise BoundaryZero("field vanishes on the sampled boundary; degree undefined "
                           "at this resolution")

    method = force_method
    if method is None:
        method = METHOD_SIGN_1D if L == 1 else METHOD_JACOBIAN

    if method == METHOD_SIGN_1D:
        if L != 1:
            raise ValueError("boundary sign method needs L_N = 1")
        b = fmap.M / np.max(np.abs(fmap.node_monomials[:, 0]))
        return boundary_sign_degree_1d(F, -b, b), METHOD_SIGN_1D, False

    roots = _find_roots(F, fmap, n_starts, seed + 2)
    deg = 0
    jacobians = []
    for r in roots:
        J = _fd_jacobian(F, r)
        det = float(np.linalg.det(J))
        if abs(det) < 1e-10:
            raise DegenerateRoot(f"|det J| = {det:.2e} at a root; cannot sign")
        jacobians.append(J)
        deg += int(np.sign(det))

    homotopy_checked = False
    if len(roots) == 1:
        # straight-line homotopy from F to its linearization at the root;
        # nonvanishing on the sampled boundary transfers the linear degree
        J, r = jacobians[0], roots[0]
        ok = True
        for t in np.linspace(0.0, 1.0, 11):
            for b in boundary:
                v = (1 - t) * F(b) + t * (J @ (b - r))
                if np.max(np.abs(v)) <= 1e-10 * scale:
                    ok = False
                    break
            if not ok:
                break
        if ok and int(np.sign(np.linalg.det(J))) == deg:
            homotopy_checked = True
    return deg, method, homotopy_checked


def leray_schauder_degree(p: HammersteinProblem, N: int, samples: int,
                          seed: int) -> DegreeCertificate:
    """Full pipeline: tau estimate, budgeted fits, projection, finite degree."""
    if p.psi_bound is None:
        raise ValueError("problem must declare psi_bound for the fit budget")
    tau = estimate_tau(p, samples, seed)
    if tau <= 0:
        raise BoundaryZero("tau estimate is zero; the boundary touches solutions")
    dim = p.nodes.shape[1]
    box = [(float(p.nodes[:, a].min()), float(p.nodes[:, a].max())) for a in range(dim)]

    g_coeffs, g_err, basis = fit_polynomial_approximation(p.g, box, N)
    pts_per_axis = max(3 * (N + 1), 4)
    train = _training_grid(box, pts_per_axis)
    A = basis.evaluate(train)
    kvals = np.asarray(p.kernel(train[:, None, :], p.nodes[None, :, :]), dtype=float)
    kernel_coeffs, *_ = np.linalg.lstsq(A, kvals, rcond=None)
    val = _validation_grid(box, pts_per_axis)
    kv_true = np.asarray(p.kernel(val[:, None, :], p.nodes[None, :, :]), dtype=float)
    kv_fit = basis.evaluate(val) @ kernel_coeffs
    k_err = float(np.max(np.abs(kv_true - kv_fit) @ p.weights)) * p.psi_bound

    if k_err > tau / 3.0 or g_err > tau / 3.0:
        raise BudgetExceeded(
            f"fit errors (kernel {k_err:.3g}, offset {g_err:.3g}) exceed tau/3 = {tau / 3:.3g}; "
            "raise N or refuse")

    fmap = build_finite_map(p, kernel_coeffs, basis)
    fmap.g_N = g_coeffs
    boundary_samples = 400
    deg, method, checked = brouwer_degree(fmap, g_coeffs, seed=seed,
                                          boundary_samples=boundary_samples)
    return DegreeCertificate(
        degree=deg, tau_estimate=tau, N=N, L_N=basis.L_N,
        sup_error_kernel=k_err, sup_error_offset=g_err,
        method=method, homotopy_checked=checked,
        seed=seed, samples=samples, boundary_samples=boundary_samples,
        domain_box=[list(b) for b in box], dimension=dim)


def existence_from_degree(cert: DegreeCertificate, p: HammersteinProblem,
                          tol: float = 1e-9, max_iter: int = 4000,
                          n_starts: int = 12):
    """Nonzero degree guarantees a solution; find one numerically or flag loudly."""
    if cert.degree == 0:
        raise ValueError("certificate degree is zero; existence is not implied")
    sol = multi_start_picard(p, tol, max_iter, n_starts, cert.seed)
    if sol is None:
        raise SolverInconsistent(
            "nonzero degree but no numerical solution found; resolution problem")
    return sol
