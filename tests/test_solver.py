import numpy as np
import pytest
from scipy.linalg import lu_solve

from conftest import harmonic_polynomials
from potdeg import solver
from potdeg.errors import DivergenceDetected, NoContraction
from potdeg.funcspace import mollify
from potdeg.solver import (
    SemilinearProblem,
    _embed,
    _extract,
    contraction_certificate,
    convergence_report,
    solve_semilinear,
)


def _cells(grid, state_field):
    return state_field.values.reshape(-1)[grid.inside_index]


def _harmonic_problem(mesh, grid, trace, grad):
    # M = 8: degree-2 gradients legitimately reach 4 on the sphere
    return SemilinearProblem(
        mesh=mesh, grid=grid, a1=trace(mesh.nodes), a1_gradient=grad(mesh.nodes),
        psi1=lambda u, gx, gy, gz, X: np.zeros(len(u)), M=8.0, lipschitz=0.0)


def test_harmonic_reproduction_all_degree_two(mesh3, grid16, workspace16):
    for name, trace, grad in harmonic_polynomials():
        p = _harmonic_problem(mesh3, grid16, trace, grad)
        state, _ = solve_semilinear(p, 1e-9, workspace=workspace16)
        u = _cells(grid16, state.u)
        want = trace(grid16.centers)
        scale = max(np.linalg.norm(want), np.sqrt(grid16.n_cells) * 1e-3)
        assert np.linalg.norm(u - want) / scale <= 0.03, name


def test_harmonic_gradients(mesh3, grid16, workspace16):
    # u = z: all gradient fields are constants
    p = _harmonic_problem(mesh3, grid16, lambda P: P[:, 2],
                          lambda P: np.tile([0.0, 0.0, 1.0], (len(P), 1)))
    state, _ = solve_semilinear(p, 1e-9, workspace=workspace16)
    interior = np.linalg.norm(grid16.centers, axis=1) < 0.8
    gz = _cells(grid16, state.u_z)[interior]
    assert np.max(np.abs(gz - 1.0)) <= 0.05


def test_poisson_ball(mesh3, grid16, workspace16):
    r2 = np.einsum("cd,cd->c", grid16.centers, grid16.centers)
    p = SemilinearProblem(
        mesh=mesh3, grid=grid16, a1=np.zeros(mesh3.n_nodes),
        a1_gradient=np.zeros((mesh3.n_nodes, 3)),
        psi1=lambda u, gx, gy, gz, X: np.ones(len(u)), M=1.0, lipschitz=0.0)
    state, _ = solve_semilinear(p, 1e-9, workspace=workspace16)
    u = _cells(grid16, state.u)
    want = (1.0 - r2) / 6.0
    assert np.max(np.abs(u - want)) <= 0.03 * np.max(np.abs(want))


def test_manufactured_semilinear(mesh3, grid16, workspace16):
    r2 = np.einsum("cd,cd->c", grid16.centers, grid16.centers)
    ustar = (1.0 - r2) / 6.0
    p = SemilinearProblem(
        mesh=mesh3, grid=grid16, a1=np.zeros(mesh3.n_nodes),
        a1_gradient=np.zeros((mesh3.n_nodes, 3)),
        psi1=lambda u, gx, gy, gz, X, us=ustar: 1.0 + (u - us),
        M=1.0, lipschitz=(1.0, 0.0, 0.0, 0.0))
    assert contraction_certificate(p, workspace16) < 1.0
    state, history = solve_semilinear(p, 1e-9, workspace=workspace16)
    u = _cells(grid16, state.u)
    assert np.linalg.norm(u - ustar) / np.linalg.norm(ustar) <= 0.03
    assert history[-1]["residual_negnorm"] <= 1e-3 * history[0]["residual_negnorm"]
    assert all(0.0 <= row["clipped_frac"] <= 1.0 for row in history)
    # the last iterate is the clipped last raw field, so its peak bounds |u|
    assert history[-1]["raw_peak"] >= np.max(np.abs(u))
    report = convergence_report(history)
    assert report["tail_monotone"]
    assert not report["diverged"]


def test_projection_safety(mesh3, grid16, workspace16):
    # benign run: fields never exceed M (also asserted inside every iteration)
    p = SemilinearProblem(
        mesh=mesh3, grid=grid16, a1=np.zeros(mesh3.n_nodes),
        a1_gradient=np.zeros((mesh3.n_nodes, 3)),
        psi1=lambda u, gx, gy, gz, X: np.ones(len(u)), M=1.0, lipschitz=0.0)
    state, _ = solve_semilinear(p, 1e-9, workspace=workspace16)
    for f in (state.u, state.u_x, state.u_y, state.u_z):
        assert np.max(np.abs(f.values)) <= 1.0 + 1e-12


def test_saturated_projection_is_not_a_solution(mesh3, grid16, workspace16):
    # clip radius far below the true solution scale: the clipped map pins the
    # iterate at the boundary, which must be reported, not returned
    p = SemilinearProblem(
        mesh=mesh3, grid=grid16, a1=np.zeros(mesh3.n_nodes),
        a1_gradient=np.zeros((mesh3.n_nodes, 3)),
        psi1=lambda u, gx, gy, gz, X: np.ones(len(u)), M=0.05, lipschitz=0.0)
    with pytest.raises(DivergenceDetected):
        solve_semilinear(p, 1e-9, workspace=workspace16)


def test_no_contraction_certificate(mesh3, grid16, workspace16):
    p = SemilinearProblem(
        mesh=mesh3, grid=grid16, a1=np.zeros(mesh3.n_nodes),
        a1_gradient=np.zeros((mesh3.n_nodes, 3)),
        psi1=lambda u, gx, gy, gz, X: 1000.0 * u, M=1.0, lipschitz=1000.0)
    with pytest.raises(NoContraction):
        solve_semilinear(p, 1e-9, workspace=workspace16)


def test_forced_divergence_detected(mesh3, grid16, workspace16):
    p = SemilinearProblem(
        mesh=mesh3, grid=grid16, a1=np.zeros(mesh3.n_nodes),
        a1_gradient=np.zeros((mesh3.n_nodes, 3)),
        psi1=lambda u, gx, gy, gz, X: 1.0 + 1000.0 * u, M=1.0, lipschitz=1000.0)
    with pytest.raises(DivergenceDetected) as err:
        solve_semilinear(p, 1e-9, best_effort=True, workspace=workspace16)
    history = err.value.history
    assert history
    report = convergence_report(history)
    assert report["diverged"]


def test_single_epsilon_schedule_trivially_monotone(mesh3, grid16, workspace16):
    p = _harmonic_problem(mesh3, grid16, lambda P: P[:, 2],
                          lambda P: np.tile([0.0, 0.0, 1.0], (len(P), 1)))
    p.epsilon_schedule = [0.003]
    state, history = solve_semilinear(p, 1e-9, workspace=workspace16)
    report = convergence_report(history)
    assert len(report["rows"]) == 1
    assert report["tail_monotone"]


def test_convergence_report_requires_history():
    with pytest.raises(ValueError):
        convergence_report([])


def _zero_problem(mesh, grid, **kwargs):
    args = dict(mesh=mesh, grid=grid, a1=np.zeros(mesh.n_nodes),
                a1_gradient=np.zeros((mesh.n_nodes, 3)),
                psi1=lambda u, gx, gy, gz, X: np.ones(len(u)), M=1.0, lipschitz=0.0)
    return SemilinearProblem(**{**args, **kwargs})


@pytest.mark.parametrize("lipschitz", [-5.0, (1.0, -0.1, 0.0, 0.0), np.inf, np.nan,
                                       (1.0, 0.0, 0.0), (0.1,) * 5])
def test_problem_rejects_bad_lipschitz_constants(mesh3, grid16, lipschitz):
    # a negative constant would make the certificate q < 1 for any source
    with pytest.raises(ValueError):
        _zero_problem(mesh3, grid16, lipschitz=lipschitz)


@pytest.mark.parametrize("schedule", [[], [0.01, 0.0], [0.01, -0.005], [np.nan]])
def test_problem_rejects_bad_epsilon_schedule(mesh3, grid16, schedule):
    with pytest.raises(ValueError):
        _zero_problem(mesh3, grid16, epsilon_schedule=schedule)


@pytest.mark.parametrize("limits", [{"max_outer": 0}, {"max_outer": -1}, {"max_inner": 0}])
def test_empty_iteration_budget_refused_before_the_workspace(mesh3, grid16, monkeypatch, limits):
    def no_build(*args):
        raise AssertionError("the workspace was built before the budget check")

    monkeypatch.setattr(solver.Workspace, "build", staticmethod(no_build))
    with pytest.raises(ValueError):
        solve_semilinear(_zero_problem(mesh3, grid16), 1e-9, **limits)


def _reference_fields(ws, a1, s_eff):
    """Fields (u, ux, uy, uz) and A5 by the per-iteration composition the loop
    used before it applied the stacked maps: one LU solve, then the layer and
    volume products."""
    A5 = lu_solve(ws.sys.lu, ws.sys.g02 @ a1 + ws.Kvol @ s_eff)
    fields = [ws.SL @ A5 + ws.DL @ a1 + ws.NM @ s_eff]
    fields += [ws.GSL[..., a] @ A5 + ws.GDL[..., a] @ a1 + ws.GNM[a] @ s_eff for a in range(3)]
    return np.array(fields), A5


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_source_to_field_maps_match_the_composition(mesh3, workspace16):
    rng = np.random.default_rng(7)
    M_u, M_g = workspace16.source_to_field_matrices()
    zero = np.zeros(mesh3.n_nodes)
    for _ in range(3):
        s = rng.normal(size=workspace16.grid.n_cells)
        want, _ = _reference_fields(workspace16, zero, s)
        for got, ref in zip([M_u @ s, *(m @ s for m in M_g)], want):
            assert _rel(got, ref) <= 1e-12


def _all_field_problem(mesh, grid):
    # Dirichlet data z and a source in every field, so that all four maps and
    # all four offset rows take part; q is about 0.27 on workspace16
    return SemilinearProblem(
        mesh=mesh, grid=grid, a1=mesh.nodes[:, 2],
        a1_gradient=np.tile([0.0, 0.0, 1.0], (mesh.n_nodes, 1)),
        psi1=lambda u, gx, gy, gz, X: 1.0 + 0.5 * u + 0.2 * (gx + gy + gz),
        M=8.0, lipschitz=(0.5, 0.2, 0.2, 0.2))


def test_loop_matches_the_reference_composition(mesh3, grid16, workspace16):
    p = _all_field_problem(mesh3, grid16)
    tol, eps = 1e-9, p.epsilon_schedule[0]
    state, history = solve_semilinear(p, tol, max_outer=1, workspace=workspace16)

    F = np.zeros((4, grid16.n_cells))
    events = []
    for _ in range(60):
        s = np.asarray(p.psi1(*F, grid16.centers), dtype=float)
        s_eff = _extract(grid16, mollify(_embed(grid16, s), eps))
        raw, A5 = _reference_fields(workspace16, p.a1, s_eff)
        F_new = np.clip(raw, -p.M, p.M)
        res_inf = float(np.max(np.abs(F_new - F)))
        F = F_new
        events.append("")
        if res_inf <= tol:
            break
    assert res_inf <= tol
    assert len(history) == len(events)
    assert [row["event"] for row in history] == events
    for got, want in zip((state.u, state.u_x, state.u_y, state.u_z), F):
        assert _rel(_extract(grid16, got), want) <= 1e-12
    assert _rel(state.A5, A5) <= 1e-12


def test_loop_makes_at_most_two_boundary_solves(mesh3, grid16, workspace16, monkeypatch):
    workspace16.source_to_field_matrices()
    calls = []
    real = workspace16.sys.solve

    def counted(rhs):
        calls.append(1)
        return real(rhs)

    monkeypatch.setattr(workspace16.sys, "solve", counted)
    _, history = solve_semilinear(_all_field_problem(mesh3, grid16), 1e-9,
                                  workspace=workspace16)
    assert len(history) > 10
    assert len(calls) <= 2
