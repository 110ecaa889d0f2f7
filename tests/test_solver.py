import numpy as np
import pytest

from conftest import harmonic_polynomials
from potdeg.errors import DivergenceDetected, NoContraction
from potdeg.solver import (
    SemilinearProblem,
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
