"""The benchmark's three workloads.

Each workload has a set-up (timed as setup_s), an op (timed per call, the
closed loop runs one op after another) and checks for both.  Op i's inputs
depend only on (seed, i), so a traced run can replay them untraced.
Parameters that change an op's cost are stratified (Weyl sequences across
ops, permuted strata within a certify op), so every run of a workload covers
the same mix of input sizes whatever the seed.

All potdeg functions are reached through their module (``bie.solve...``),
so the tracer's run-time patches see every call.
"""

from __future__ import annotations

import time

import numpy as np

from potdeg import bie, degree, geometry, hammerstein, solver, symbols

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_SILVER = np.sqrt(2.0) - 1.0

# potentials corrects a layer evaluation when the target lies closer than this
# many node spacings to its nearest node (potentials._NEAR_TRIGGER)
NEAR_TRIGGER_SPACINGS = 2.0

# homogeneous harmonic polynomials of degree 1 and 2; on the unit sphere the
# exact Neumann data of a degree-d one is d times its trace
HARMONIC_DEGREES = np.array([1, 1, 1, 2, 2, 2, 2, 2])


def harmonics(P):
    x, y, z = np.asarray(P, dtype=float).T
    return np.stack([x, y, z, x * y, y * z, x * z, x * x - y * y,
                     z * z - (x * x + y * y) / 2.0], axis=1)


def harmonic_gradients(P):
    """(points, 8, 3) gradients of `harmonics`."""
    x, y, z = np.asarray(P, dtype=float).T
    o, i = np.zeros_like(x), np.ones_like(x)
    gx = [i, o, o, y, o, z, 2 * x, -x]
    gy = [o, i, o, x, z, o, -2 * y, -y]
    gz = [o, o, i, o, y, x, o, 2 * z]
    return np.stack([np.stack(gx, 1), np.stack(gy, 1), np.stack(gz, 1)], axis=2)


def near_count(mesh, X) -> int:
    """Targets on which the near-field patch correction runs."""
    dist, nearest = mesh.tree.query(np.asarray(X, dtype=float).reshape(-1, 3))
    return int(np.sum(dist < NEAR_TRIGGER_SPACINGS * mesh.node_spacing[nearest]))


def _weyl(seed, i, step, stream):
    """Stratified value in [0, 1): a seed-drawn offset plus i irrational steps."""
    offset = np.random.default_rng([seed, stream, 1 << 20]).random()
    return (offset + i * step) % 1.0


def _nbytes(*arrays) -> int:
    return int(sum(a.nbytes for a in arrays))


def _neumann_bytes(system) -> int:
    lu, piv = system.lu
    return _nbytes(system.matrix, lu, piv)


class DtnL4:
    """Level-4 icosphere (2562 nodes): DtN solve plus representation probes."""

    name = "dtn-l4"
    setup_repeats = 3
    traced_ops = 3
    n_near = n_deep = 16
    probe_tol = 1e-2      # |u - h| over the trace's sup norm

    def setup(self, tracer):
        mesh = geometry.make_unit_sphere(4)
        with tracer.span("geometry.node_spacing"):
            mesh.node_spacing
        system = bie.assemble_neumann_system(mesh)
        system.lu
        return {"mesh": mesh, "system": system}

    def check_setup(self, state, seed):
        return []       # assemble_neumann_system refuses an ill-conditioned system itself

    def diagnostics(self, state):
        """The constant trace, whose exact Neumann data is zero.

        The dtn command checks max |A5| <= 2e-2 for it at level 3; it is
        reported here, not checked, because ops use the relative-error
        tolerances of the nonconstant traces.
        """
        mesh, system = state["mesh"], state["system"]
        a5 = bie.solve_neumann_data(system, np.ones(mesh.n_nodes))
        return {"constant_trace_max_abs_a5": float(np.max(np.abs(a5))),
                "constant_trace_dtn_command_tolerance_level3": 2e-2}

    def make_input(self, state, seed, i):
        mesh = state["mesh"]
        rng = np.random.default_rng([seed, i])
        top = 1 if i % 2 == 0 else 2
        coef = rng.normal(size=len(HARMONIC_DEGREES))
        coef[HARMONIC_DEGREES > top] = 0.0
        nodes = rng.choice(mesh.n_nodes, self.n_near, replace=False)
        depth = rng.uniform(1.2, 1.8, self.n_near) * mesh.node_spacing[nodes]
        near = mesh.nodes[nodes] - depth[:, None] * mesh.normals[nodes]
        dirs = rng.normal(size=(self.n_deep, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        deep = dirs * (0.8 * rng.random(self.n_deep) ** (1.0 / 3.0))[:, None]
        return {"coef": coef, "top_degree": top, "probes": np.concatenate([near, deep])}

    def run_op(self, state, inp):
        mesh, system = state["mesh"], state["system"]
        A1 = harmonics(mesh.nodes) @ inp["coef"]
        A5 = bie.solve_neumann_data(system, A1)
        t0 = time.perf_counter()
        u = np.array([bie.evaluate_representation(mesh, None, A1, A5, None, x)
                      for x in inp["probes"]])
        return {"A1": A1, "A5": A5, "u": u, "probes_s": time.perf_counter() - t0,
                "probes": len(u)}

    def check_op(self, state, inp, out):
        mesh, system = state["mesh"], state["system"]
        exact = harmonics(mesh.nodes) @ (inp["coef"] * HARMONIC_DEGREES)
        err = float(np.linalg.norm(out["A5"] - exact) / np.linalg.norm(exact))
        tol = 0.02 if inp["top_degree"] == 1 else 0.03
        failures = []
        if not err <= tol:
            failures.append(f"A5 relative L2 error {err:.3g} > {tol}")
        h = harmonics(inp["probes"]) @ inp["coef"]
        probe_err = float(np.max(np.abs(out["u"] - h)) / np.max(np.abs(out["A1"])))
        if not probe_err <= self.probe_tol:
            failures.append(f"probe |u - h| / max|A1| = {probe_err:.3g} > {self.probe_tol}")
        homogeneous = float(np.max(np.abs(system.solve(np.zeros(mesh.n_nodes)))))
        if not homogeneous <= 1e-10:
            failures.append(f"homogeneous solve max {homogeneous:.3g} > 1e-10")
        return failures, err

    def layer_counts(self, state, inputs, outs):
        mesh = state["mesh"]
        probes = np.concatenate([inp["probes"] for inp in inputs])
        return {"potentials.near_probe_frac": near_count(mesh, probes) / len(probes),
                "potentials.operator_bytes": _neumann_bytes(state["system"])}


class ConvergenceL3G12:
    """Level-3 mesh (642 nodes), 12^3 box grid: the mollified semilinear solve."""

    name = "convergence-l3g12"
    setup_repeats = 1     # one set-up costs about 45 s on 2 cores
    traced_ops = 6
    shape = (12, 12, 12)
    M = 2.0
    tol = 1e-9

    def setup(self, tracer):
        mesh = geometry.make_unit_sphere(3)
        grid = geometry.volume_grid_from_mesh(mesh, self.shape, [-1, -1, -1], [1, 1, 1])
        ws = solver.Workspace.build(mesh, grid)
        ws.source_to_field_matrices()
        return {"mesh": mesh, "grid": grid, "ws": ws}

    def check_setup(self, state, seed):
        mesh, grid = state["mesh"], state["grid"]
        p0, p1, p2 = (mesh.nodes[mesh.triangles[:, k]] for k in range(3))
        volume = float(np.sum(np.einsum("ij,ij->i", p0, np.cross(p1, p2)))) / 6.0
        rel = abs(grid.measure - volume) / volume
        if not rel <= 0.02:
            return [f"grid measure {grid.measure:.4f} differs from the polyhedron "
                    f"volume {volume:.4f} by {rel:.2%}"]
        return []

    def diagnostics(self, state):
        return {}

    def make_input(self, state, seed, i):
        mesh = state["mesh"]
        rng = np.random.default_rng([seed, i])
        lam = 0.5 + _weyl(seed, i, _GOLDEN, 0)
        amplitude = 0.3 * (1.0 - _weyl(seed, i, _SILVER, 1))     # in (0, 0.3]
        coef = rng.normal(size=1 + len(HARMONIC_DEGREES))
        peak = np.max(np.abs(coef[0] + harmonics(mesh.nodes) @ coef[1:]))
        return {"lam": lam, "coef": coef * (amplitude / peak)}

    @staticmethod
    def harmonic(coef, P):
        return coef[0] + harmonics(P) @ coef[1:]

    def exact(self, state, inp):
        X = state["grid"].centers
        return (1.0 - np.einsum("cd,cd->c", X, X)) / 6.0 + self.harmonic(inp["coef"], X)

    def run_op(self, state, inp):
        mesh, grid, ws = state["mesh"], state["grid"], state["ws"]
        coef, lam = inp["coef"], inp["lam"]
        ustar = self.exact(state, inp)
        prob = solver.SemilinearProblem(
            mesh=mesh, grid=grid, a1=self.harmonic(coef, mesh.nodes),
            a1_gradient=np.einsum("nkd,k->nd", harmonic_gradients(mesh.nodes), coef[1:]),
            psi1=lambda u, gx, gy, gz, X: 1.0 + lam * (u - ustar),
            M=self.M, lipschitz=(lam, 0.0, 0.0, 0.0))
        result, history = solver.solve_semilinear(prob, self.tol, workspace=ws)
        return {"u": result.u.values.reshape(-1)[grid.inside_index], "history": history}

    def check_op(self, state, inp, out):
        ustar = self.exact(state, inp)
        history = out["history"]
        err = float(np.linalg.norm(out["u"] - ustar) / np.linalg.norm(ustar))
        decay = history[-1]["residual_negnorm"] / history[0]["residual_negnorm"]
        failures = []
        if not err <= 0.03:
            failures.append(f"field relative L2 error {err:.3g} > 0.03")
        if not decay <= 1e-3:
            failures.append(f"negative-norm decay {decay:.3g} > 1e-3")
        if not solver.convergence_report(history)["tail_monotone"]:
            failures.append("negative-norm tail is not monotone")
        return failures, err

    def layer_counts(self, state, inputs, outs):
        mesh, grid, ws = state["mesh"], state["grid"], state["ws"]
        M_u, M_g = ws.source_to_field_matrices()
        stored = [ws.SL, ws.DL, ws.GSL, ws.GDL, ws.NM, *ws.GNM, ws.Kvol, M_u, *M_g]
        return {"geometry.cut_cells": int(np.sum(~grid.full_cell)),
                "potentials.rows": grid.n_cells,
                "potentials.near_rows": near_count(mesh, grid.centers),
                "potentials.operator_bytes": _nbytes(*stored) + _neumann_bytes(ws.sys),
                "solver.iterations": sum(len(o["history"]) for o in outs)}


# the m = 2 case resolves u_xx for function 0 and u for function 1; its numeric
# part is singular, so the determinant goes through exact interpolation.  The
# coupling C7 = C9 = -I fails c316 (a1 vanishes to order 4 at the origin), so
# function 1 gets the u_resolved coupling instead.
SYMBOL_SPECS = [
    ("laplacian", 1, ["u_xx"], {"C7": [[-1]], "C9": [[-1]]}),
    ("u_resolved", 1, ["u"], {"C1": [[-1]]}),
    ("ux_resolved", 1, ["u_x"], {"C1": [[-1]]}),
    ("m2_interpolation", 2, ["u_xx:0", "u:1"],
     {"C7": [[-1, 0], [0, 0]], "C9": [[-1, 0], [0, 0]], "C1": [[0, 0], [0, -1]]}),
]


class Certify:
    """Symbol algebra set-up and 1-d Leray-Schauder degree certificates."""

    name = "certify"
    setup_repeats = 3
    traced_ops = 2
    per_op = 12
    samples = 20
    M = 1.0

    def setup(self, tracer):
        cases = {}
        for name, m, names, blocks in SYMBOL_SPECS:
            spec = symbols.ResolutionSpec.parse(m, names)
            params = symbols.ParameterSet.from_dense(m, **blocks)
            B1, B2 = symbols.build_symbol_matrices(spec, params)
            det, a1, a1inv = symbols.symbolic_det_and_inverse_factor(B1)
            _, report = symbols.check_conditions(a1, a1inv, a1inv @ B2, raise_on_fail=False)
            cases[name] = (B1, det, report)
        return {"cases": cases}

    def check_setup(self, state, seed):
        """The symbols command's checks: det match at 20 points, c316, c317."""
        failures = []
        rng = np.random.default_rng(seed)
        for name, (B1, det, report) in state["cases"].items():
            for _ in range(20):
                xi = rng.normal(size=3) * 2
                direct = np.linalg.det(B1.eval_xi(xi))
                if abs(direct - det.eval_xi(xi)) > 1e-8 * max(abs(direct), 1.0):
                    failures.append(f"{name}: det(B1) mismatch at xi = {xi}")
                    break
            for cond in ("c316", "c317"):
                if not report["conditions"][cond]:
                    failures.append(f"{name}: condition {cond} fails")
        return failures

    def diagnostics(self, state):
        return {}

    def make_input(self, state, seed, i):
        """Op i certifies one problem for each (N, nonlinearity) pair.

        N, the nonlinearity family and n set a problem's cost.  Every op holds
        each (N, family) pair once and n and q spread over their ranges in
        strata, so ops cost nearly the same on every run and seed.
        """
        return {"problems": [self._problem(seed, i, k) for k in range(self.per_op)]}

    def _problem(self, seed, i, k):
        """A problem in the contraction range: sup|k| * Lip(psi) * |[0,1]| = q < 1.

        Every family is fitted exactly (or, for the Gaussian kernel and the
        cosine offset, well within tau/3) at this N, so the pipeline never
        refuses, and ||g|| <= 0.2 keeps the fixed point inside M = 1, where
        the degree is 1.
        """
        N, psi_index = k % 4, k % 3
        rng = np.random.default_rng([seed, self.per_op * i + k])
        psi_kind = ["linear", "cubic", "saturating"][psi_index]
        kind = ["constant", "separable", "gaussian"][(i + k) % 3]
        if kind == "gaussian" and N == 0:
            kind = "constant"
        # strata of n and q, permuted across the op's problems from op to op
        n = 41 + int(361 * (((5 * k + i) % self.per_op) + rng.random()) / self.per_op)
        q = 0.2 + 0.5 * (((7 * k + 3 * i) % self.per_op) + rng.random()) / self.per_op
        sign = rng.choice([-1.0, 1.0])
        if kind == "constant":
            kernel = {"kind": "constant", "value": sign * rng.uniform(0.2, 0.6)}
            sup_k = abs(kernel["value"])
        elif kind == "gaussian":
            kernel = {"kind": "gaussian", "amplitude": sign * rng.uniform(0.2, 0.6),
                      "width": rng.uniform(3.0, 5.0)}
            sup_k = abs(kernel["amplitude"])
        else:
            phi = rng.uniform(-0.3, 0.3, N + 1)
            chi = rng.uniform(-0.3, 0.3, 2)
            phi[0], chi[0] = sign * rng.uniform(0.3, 0.6), rng.uniform(0.5, 1.0)
            kernel = {"kind": "separable", "phi": phi.tolist(), "chi": chi.tolist()}
            sup_k = float(np.sum(np.abs(phi)) * np.sum(np.abs(chi)))
        lip = q / sup_k
        if psi_kind == "linear":
            psi = {"kind": "linear", "slope": rng.choice([-1.0, 1.0]) * lip}
        elif psi_kind == "cubic":
            psi = {"kind": "cubic", "a": 0.7 * lip, "b": rng.choice([-0.1, 0.1]) * lip}
        else:
            scale = rng.uniform(0.5, 2.0)
            psi = {"kind": "saturating", "a": lip * scale, "scale": scale}
        g_kinds = ["constant", "poly"] + (["cos"] if N >= 2 else [])
        g_kind = g_kinds[rng.integers(len(g_kinds))]
        size = rng.uniform(0.02, 0.2)
        if g_kind == "constant":
            g = {"kind": "constant", "value": rng.choice([-1.0, 1.0]) * size}
        elif g_kind == "poly":
            c = rng.uniform(-1.0, 1.0, N + 1)
            g = {"kind": "poly", "coeffs": (c * size / np.sum(np.abs(c))).tolist()}
        else:
            g = {"kind": "cos", "amplitude": rng.choice([-1.0, 1.0]) * size,
                 "frequency": rng.uniform(0.5, 1.5)}
        spec = {"domain": {"kind": "interval", "a": 0.0, "b": 1.0, "n": n},
                "M": self.M, "kernel": kernel, "psi": psi, "g": g}
        return {"spec": spec, "N": N, "seed": int(rng.integers(1 << 31))}

    def run_op(self, state, inp):
        results = []
        for prob in inp["problems"]:
            p = hammerstein.problem_from_spec(prob["spec"])
            cert = degree.leray_schauder_degree(p, prob["N"], self.samples, prob["seed"])
            results.append((cert, degree.existence_from_degree(cert, p).residual_inf))
        return {"results": results}

    def check_op(self, state, inp, out):
        failures = []
        for prob, (cert, residual) in zip(inp["problems"], out["results"]):
            N = prob["N"]
            if cert.degree != 1:
                failures.append(f"N={N}: degree {cert.degree} != 1")
            if not residual <= 1e-7:
                failures.append(f"N={N}: existence residual {residual:.3g} > 1e-7")
            budget = cert.tau_estimate / 3.0
            if not (cert.sup_error_kernel <= budget and cert.sup_error_offset <= budget):
                failures.append(f"N={N}: fit errors exceed tau/3")
        return failures, None

    def layer_counts(self, state, inputs, outs):
        return {}


WORKLOADS = {w.name: w for w in (DtnL4(), ConvergenceL3G12(), Certify())}
