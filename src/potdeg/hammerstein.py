"""Nystrom discretization and Picard iteration for Hammerstein equations.

f(X) = g(X) + int k(X, Y) psi(Y, f(Y)) dY over a quadrature domain; the
nonlinearity is declared on |s| <= M with a Lipschitz constant, and the
contraction certificate is sup|k| * Lip(psi) * measure < 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MaxIterations, NoContraction, RadiusExceeded


@dataclass
class HammersteinProblem:
    nodes: np.ndarray        # (n, d) quadrature points
    weights: np.ndarray      # (n,)
    kernel: callable         # kernel(X, Y) with leading-axis broadcasting
    psi: callable            # psi(Y, s)
    g: callable              # g(X)
    M: float                 # radius of the declared band |s| <= M
    lipschitz: float         # Lipschitz constant of psi in s on [-M, M]
    psi_bound: float = None  # max |psi| on domain x [-M, M]
    _K: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.weights) != len(self.nodes):
            raise ValueError("weights/nodes length mismatch")
        if self.M <= 0:
            raise ValueError("M must be positive")
        if not all(v is None or (np.isfinite(v) and v >= 0)
                   for v in (self.lipschitz, self.psi_bound)):
            raise ValueError(f"lipschitz {self.lipschitz} and psi_bound {self.psi_bound} "
                             "must be finite and non-negative")

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def measure(self) -> float:
        return float(np.sum(self.weights))

    @property
    def K(self) -> np.ndarray:
        """Dense kernel matrix k(X_i, Y_j)."""
        if self._K is None:
            X = self.nodes[:, None, :]
            Y = self.nodes[None, :, :]
            self._K = np.asarray(self.kernel(X, Y), dtype=float)
            if self._K.shape != (self.n, self.n):
                self._K = np.broadcast_to(self._K, (self.n, self.n)).copy()
        return self._K

    @property
    def g_values(self) -> np.ndarray:
        g = np.asarray(self.g(self.nodes), dtype=float)
        return np.broadcast_to(g, (self.n,)).copy()

    def sup_kernel(self) -> float:
        return float(np.max(np.abs(self.K)))

    def contraction_ratio(self) -> float:
        return self.sup_kernel() * self.lipschitz * self.measure


@dataclass
class NystromSolution:
    nodes: np.ndarray
    values: np.ndarray
    residual_inf: float
    iterations: int


def uniform_grid_1d(a: float, b: float, n: int):
    """Trapezoid nodes/weights on [a, b] as a 1-d Nystrom domain."""
    x = np.linspace(a, b, n)
    w = np.full(n, (b - a) / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return x[:, None], w


def apply_operator(p: HammersteinProblem, f) -> np.ndarray:
    """(Tf)(X_i) = sum_j w_j k(X_i, Y_j) psi(Y_j, f_j)."""
    f = np.asarray(f, dtype=float)
    if np.max(np.abs(f)) > p.M * (1 + 1e-12):
        raise RadiusExceeded(f"||f||_inf = {np.max(np.abs(f)):.4g} exceeds M = {p.M}")
    return p.K @ (p.weights * np.asarray(p.psi(p.nodes, f), dtype=float))


def residual_inf(p: HammersteinProblem, f) -> float:
    return float(np.max(np.abs(f - p.g_values - apply_operator(p, f))))


def picard_solve(p: HammersteinProblem, tol: float, max_iter: int,
                 best_effort: bool = False, x0=None) -> NystromSolution:
    """Fixed-point iteration f <- g + Tf, iterates clipped to the declared band.

    Under the contraction certificate the fixed point is unique in the ball;
    without it the caller must pass best_effort=True.
    """
    q = p.contraction_ratio()
    if q >= 1.0 and not best_effort:
        raise NoContraction(f"certificate sup|k|*Lip*measure = {q:.3g} >= 1")
    g = p.g_values
    f = np.clip(g if x0 is None else np.asarray(x0, dtype=float), -p.M, p.M)
    for it in range(1, max_iter + 1):
        Tf = apply_operator(p, f)
        nxt = np.clip(g + Tf, -p.M, p.M)
        res = float(np.max(np.abs(nxt - f)))
        f = nxt
        if res <= tol:
            return NystromSolution(nodes=p.nodes, values=f,
                                   residual_inf=residual_inf(p, f), iterations=it)
    raise MaxIterations(f"no fixed point within {max_iter} iterations "
                        f"(last update {res:.3g})")


def estimate_tau(p: HammersteinProblem, samples: int, seed: int) -> float:
    """Sampled upper bound on tau = inf over ||f||_inf = M of ||f - Tf - g||_inf.

    Candidates: seeded random boundary fields scaled to max |f| = M, the
    constants +-M, and +-M single-node spikes (spikes via a rank-1 update of
    the psi(., 0) baseline, which is exact and O(n) per spike).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    g = p.g_values
    K = p.K
    w = p.weights

    def gap(f):
        return float(np.max(np.abs(f - apply_operator(p, f) - g)))

    best = np.inf
    for _ in range(samples):
        f = rng.uniform(-1.0, 1.0, size=p.n)
        peak = np.max(np.abs(f))
        if peak == 0:
            f[0] = 1.0
            peak = 1.0
        best = min(best, gap(f * (p.M / peak)))
    best = min(best, gap(np.full(p.n, p.M)), gap(np.full(p.n, -p.M)))
    psi_zero = np.asarray(p.psi(p.nodes, np.zeros(p.n)), dtype=float)
    T0 = K @ (w * psi_zero)
    psi_plus = np.asarray(p.psi(p.nodes, np.full(p.n, p.M)), dtype=float)
    psi_minus = np.asarray(p.psi(p.nodes, np.full(p.n, -p.M)), dtype=float)
    for i in range(p.n):
        for sign, psi_i in ((1.0, psi_plus[i]), (-1.0, psi_minus[i])):
            f = np.zeros(p.n)
            f[i] = sign * p.M
            Tf = T0 + K[:, i] * (w[i] * (psi_i - psi_zero[i]))
            best = min(best, float(np.max(np.abs(f - Tf - g))))
    return float(best)


def multi_start_picard(p: HammersteinProblem, tol: float, max_iter: int,
                       n_starts: int, seed: int):
    """Best-effort Picard from several deterministic starts; None if all fail."""
    rng = np.random.default_rng(seed)
    starts = [None, np.zeros(p.n), np.full(p.n, p.M / 2), np.full(p.n, -p.M / 2)]
    starts += [rng.uniform(-p.M, p.M, size=p.n) for _ in range(max(n_starts - 4, 0))]
    for x0 in starts[:max(n_starts, 1)]:
        try:
            sol = picard_solve(p, tol, max_iter, best_effort=True, x0=x0)
        except (MaxIterations, RadiusExceeded):
            continue
        if sol.residual_inf <= 10 * tol:
            return sol
    return None


# ---------------------------------------------------------------------------
# built-in problem families (JSON-declarable; no code is deserialized)
# ---------------------------------------------------------------------------

def _kernel_from_spec(spec: dict):
    kind = spec["kind"]
    if kind == "constant":
        c = float(spec["value"])
        return lambda X, Y: np.broadcast_to(np.asarray(c), np.broadcast_shapes(
            X.shape[:-1], Y.shape[:-1])).copy(), abs(c)
    if kind == "separable":
        cphi = np.asarray(spec["phi"], dtype=float)
        cchi = np.asarray(spec["chi"], dtype=float)

        def kern(X, Y):
            return np.polyval(cphi[::-1], X[..., 0]) * np.polyval(cchi[::-1], Y[..., 0])

        return kern, None
    if kind == "gaussian":
        amp = float(spec["amplitude"])
        width = float(spec["width"])

        def kern(X, Y):
            d2 = np.sum((X - Y) ** 2, axis=-1)
            return amp * np.exp(-d2 / width ** 2)

        return kern, abs(amp)
    raise ValueError(f"unknown kernel family {kind!r}")


def _psi_from_spec(spec: dict, M: float):
    kind = spec["kind"]
    if kind == "linear":
        lam = float(spec["slope"])
        return (lambda Y, s: lam * s), abs(lam), abs(lam) * M
    if kind == "cubic":
        a, b = float(spec["a"]), float(spec["b"])
        lip = abs(a) + 3.0 * abs(b) * M * M
        bound = abs(a) * M + abs(b) * M ** 3
        return (lambda Y, s: a * s + b * s ** 3), lip, bound
    if kind == "saturating":
        a, b = float(spec["a"]), float(spec["scale"])
        return (lambda Y, s: a * np.tanh(s / b)), abs(a) / abs(b), abs(a)
    raise ValueError(f"unknown nonlinearity family {kind!r}")


def _g_from_spec(spec: dict):
    kind = spec["kind"]
    if kind == "constant":
        c = float(spec["value"])
        return lambda X: np.full(len(np.atleast_2d(X)), c)
    if kind == "poly":
        coeffs = np.asarray(spec["coeffs"], dtype=float)
        return lambda X: np.polyval(coeffs[::-1], np.atleast_2d(X)[:, 0])
    if kind == "cos":
        amp, freq = float(spec["amplitude"]), float(spec["frequency"])
        return lambda X: amp * np.cos(freq * np.atleast_2d(X)[:, 0])
    raise ValueError(f"unknown offset family {kind!r}")


def problem_from_spec(spec: dict) -> HammersteinProblem:
    """Build a problem from the JSON-declarable family description."""
    dom = spec["domain"]
    if dom["kind"] == "interval":
        nodes, weights = uniform_grid_1d(float(dom["a"]), float(dom["b"]), int(dom["n"]))
    else:
        raise ValueError(f"unknown domain kind {dom['kind']!r}")
    M = float(spec["M"])
    kernel, sup_k = _kernel_from_spec(spec["kernel"])
    psi, lip, bound = _psi_from_spec(spec["psi"], M)
    g = _g_from_spec(spec["g"])
    return HammersteinProblem(nodes=nodes, weights=weights, kernel=kernel,
                              psi=psi, g=g, M=M, lipschitz=lip, psi_bound=bound)


def problem_from_json(text: str) -> HammersteinProblem:
    return problem_from_spec(json.loads(text))
