import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import harmonic_polynomials, interior_probes
from potdeg import bie
from potdeg.bie import (
    assemble_neumann_system,
    evaluate_representation,
    load_boundary_field,
    save_boundary_field,
    solve_neumann_data,
    tangential_complete,
)
from potdeg.errors import IllConditioned, SingularEvaluation
from potdeg.geometry import make_unit_sphere
from potdeg.solver import SemilinearProblem, solve_semilinear


def test_condition_estimate_small(neumann3):
    assert neumann3.condition_estimate < 100.0


def test_condition_recheck_accepts_below_the_limit(mesh3, monkeypatch):
    # the gecon estimate (about 2.85) exceeds 20 / 10, so the exact value is taken
    monkeypatch.setattr(bie, "COND_LIMIT", 20.0)
    system = assemble_neumann_system(mesh3)
    assert system.condition_estimate == pytest.approx(np.linalg.cond(system.matrix, 1), rel=1e-12)


def test_condition_recheck_refuses_above_the_limit(mesh3, monkeypatch):
    # the estimate (about 2.85) is below 3; the exact value (about 3.20) is not
    monkeypatch.setattr(bie, "COND_LIMIT", 3.0)
    with pytest.raises(IllConditioned):
        assemble_neumann_system(mesh3)


def _count_double_layer_calls(monkeypatch):
    calls = []
    real = bie.double_layer_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(bie, "double_layer_matrix", counted)
    return calls


def test_g02_is_built_once_per_system(monkeypatch):
    system = assemble_neumann_system(make_unit_sphere(2))
    calls = _count_double_layer_calls(monkeypatch)
    z = system.mesh.nodes[:, 2]
    solve_neumann_data(system, z)
    built, G = len(calls), system.g02
    assert built > 0
    solve_neumann_data(system, z * z)
    assert len(calls) == built
    assert system.g02 is G


def test_semilinear_solve_reuses_the_workspace_g02(mesh3, grid16, workspace16, monkeypatch):
    G = workspace16.sys.g02
    calls = _count_double_layer_calls(monkeypatch)
    p = SemilinearProblem(
        mesh=mesh3, grid=grid16, a1=mesh3.nodes[:, 2],
        a1_gradient=np.tile([0.0, 0.0, 1.0], (mesh3.n_nodes, 1)),
        psi1=lambda u, gx, gy, gz, X: np.zeros(len(u)), M=8.0, lipschitz=0.0)
    solve_semilinear(p, 1e-9, max_outer=1, workspace=workspace16)
    assert not calls
    assert workspace16.sys.g02 is G


def test_diagonal_entries_in_band(neumann3):
    d = np.diag(neumann3.matrix)
    assert np.all(d > 0.25) and np.all(d < 0.75)


def test_homogeneous_solution_is_zero(neumann3):
    a5 = neumann3.solve(np.zeros(neumann3.mesh.n_nodes))
    assert np.max(np.abs(a5)) <= 1e-10


def test_assembly_permutation_equivalence():
    mesh = make_unit_sphere(1)
    sys_a = assemble_neumann_system(mesh)
    rng = np.random.default_rng(0)
    perm = rng.permutation(mesh.n_nodes)
    inv = np.argsort(perm)
    from potdeg.geometry import mesh_from_arrays
    permuted = mesh_from_arrays(mesh.nodes[perm], inv[mesh.triangles])
    sys_b = assemble_neumann_system(permuted)
    assert np.allclose(sys_b.matrix, sys_a.matrix[np.ix_(perm, perm)], atol=1e-12)


def test_dtn_constant(neumann3):
    a5 = solve_neumann_data(neumann3, np.ones(neumann3.mesh.n_nodes))
    assert np.max(np.abs(a5)) <= 2e-2


@pytest.mark.parametrize("level", [3, 4])
def test_dtn_constant_trace_is_exact(level, neumann3, mesh4):
    # g02 maps constants to 0, so the constant trace's Neumann data is 0 to round-off
    system = neumann3 if level == 3 else assemble_neumann_system(mesh4)
    a5 = solve_neumann_data(system, np.ones(system.mesh.n_nodes))
    assert np.max(np.abs(a5)) <= 1e-12


def test_dtn_degree_one(neumann3):
    z = neumann3.mesh.nodes[:, 2]
    a5 = solve_neumann_data(neumann3, z)
    assert np.linalg.norm(a5 - z) / np.linalg.norm(z) <= 0.02


def test_dtn_degree_two(neumann3):
    P = neumann3.mesh.nodes
    q = P[:, 2] ** 2 - (P[:, 0] ** 2 + P[:, 1] ** 2) / 2
    a5 = solve_neumann_data(neumann3, q)
    assert np.linalg.norm(a5 - 2 * q) / np.linalg.norm(2 * q) <= 0.03


def test_dtn_linearity(neumann3):
    mesh = neumann3.mesh
    rng = np.random.default_rng(1)
    f = rng.normal(size=mesh.n_nodes)
    g = rng.normal(size=mesh.n_nodes)
    a = solve_neumann_data(neumann3, f)
    b = solve_neumann_data(neumann3, g)
    c = solve_neumann_data(neumann3, 2.0 * f - 0.5 * g)
    assert np.max(np.abs(c - (2.0 * a - 0.5 * b))) <= 1e-10 * max(1.0, np.max(np.abs(c)))


def test_tangential_complete_examples(mesh3):
    n1 = mesh3.normals[:, 0]
    px = mesh3.nodes[:, 0]
    # u = x: gradient (1, 0, 0), A5 = n1
    data = tangential_complete(mesh3, np.tile([1.0, 0, 0], (mesh3.n_nodes, 1)), n1)
    assert np.allclose(data.A2, 1.0, atol=1e-12)
    assert np.allclose(data.A3, 0.0, atol=1e-12)
    assert np.allclose(data.A4, 0.0, atol=1e-12)
    assert np.allclose(data.lam, 0.0, atol=1e-12)
    # u constant
    data = tangential_complete(mesh3, np.zeros((mesh3.n_nodes, 3)), np.zeros(mesh3.n_nodes))
    assert np.allclose(data.A2, 0) and np.allclose(data.A3, 0) and np.allclose(data.A4, 0)
    # u = x^2: gradient (2x, 0, 0), A5 = 2 x n1
    grad = np.stack([2 * px, np.zeros_like(px), np.zeros_like(px)], axis=1)
    data = tangential_complete(mesh3, grad, 2 * px * n1)
    assert np.allclose(data.A2, 2 * px, atol=1e-12)
    assert np.allclose(data.lam, 0.0, atol=1e-12)


def test_tangential_complete_rejects_length_mismatch(mesh3):
    n = mesh3.n_nodes
    G = np.zeros((n, 3))
    with pytest.raises(ValueError):
        tangential_complete(mesh3, G, np.ones(1))       # would broadcast
    with pytest.raises(ValueError):
        tangential_complete(mesh3, G, np.ones(n), A1=np.ones(n - 1))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_gradient_identity_exact(seed):
    mesh = make_unit_sphere(1)
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(mesh.n_nodes, 3))
    A5 = rng.normal(size=mesh.n_nodes)
    data = tangential_complete(mesh, G, A5)
    recomposed = (data.A2 * mesh.normals[:, 0] + data.A3 * mesh.normals[:, 1]
                  + data.A4 * mesh.normals[:, 2])
    assert np.max(np.abs(recomposed - A5)) <= 1e-10


def test_representation_constant(mesh3, neumann3):
    ones = np.ones(mesh3.n_nodes)
    a5 = solve_neumann_data(neumann3, ones)
    val = evaluate_representation(mesh3, None, ones, a5, None, [0.1, 0.2, 0.0])
    assert val == pytest.approx(1.0, rel=0.02)


def test_representation_linear(mesh3, neumann3):
    z = mesh3.nodes[:, 2]
    a5 = solve_neumann_data(neumann3, z)
    val = evaluate_representation(mesh3, None, z, a5, None, [0.0, 0.0, 0.5])
    assert val == pytest.approx(0.5, rel=0.02)


def test_representation_poisson_ball(mesh3, neumann3, grid24):
    ones = np.ones(grid24.n_cells)
    a5 = solve_neumann_data(neumann3, np.zeros(mesh3.n_nodes),
                            volume_source=ones, grid=grid24)
    u0 = evaluate_representation(mesh3, grid24, np.zeros(mesh3.n_nodes), a5, ones,
                                 [0.0, 0.0, 0.0])
    assert u0 == pytest.approx(1.0 / 6.0, rel=0.03)


def test_representation_poisson_given_analytic_neumann(mesh3, grid24):
    # A5 = -1/3 exactly (du/dn of (1-r^2)/6 on the sphere)
    ones = np.ones(grid24.n_cells)
    a5 = np.full(mesh3.n_nodes, -1.0 / 3.0)
    u0 = evaluate_representation(mesh3, grid24, np.zeros(mesh3.n_nodes), a5, ones,
                                 [0.0, 0.0, 0.0])
    assert u0 == pytest.approx(1.0 / 6.0, rel=0.03)


def test_harmonic_reproduction_all_degree_two(mesh3, neumann3):
    rng = np.random.default_rng(9)
    probes = interior_probes(rng, 10)
    for name, trace, grad in harmonic_polynomials():
        a1 = trace(mesh3.nodes)
        a5 = solve_neumann_data(neumann3, a1)
        scale = max(np.max(np.abs(a1)), 1e-9)
        for x in probes:
            val = evaluate_representation(mesh3, None, a1, a5, None, x)
            want = trace(x[None, :])[0]
            assert abs(val - want) <= 0.03 * scale, (name, x)


def test_representation_rejects_near_surface(mesh3):
    z = mesh3.nodes[:, 2]
    with pytest.raises(SingularEvaluation):
        evaluate_representation(mesh3, None, z, z, None, [0.0, 0.0, 0.999])


def _near_and_deep_probes(mesh, rng):
    """Probes 1.2 to 1.8 spacings inside, and deep interior ones."""
    i = rng.choice(mesh.n_nodes, 12, replace=False)
    depth = rng.uniform(1.2, 1.8, 12) * mesh.node_spacing[i]
    near = mesh.nodes[i] - depth[:, None] * mesh.normals[i]
    return rng.permutation(np.concatenate([near, interior_probes(rng, 12, r_max=0.7)]))


def test_batched_representation_equals_per_point_values(mesh3, neumann3, grid16):
    rng = np.random.default_rng(15)
    X = _near_and_deep_probes(mesh3, rng)
    a1 = mesh3.nodes[:, 2] + mesh3.nodes[:, 0] * mesh3.nodes[:, 1]
    a5 = solve_neumann_data(neumann3, a1)
    psi1 = rng.normal(size=grid16.n_cells)
    for grid, psi in ((None, None), (grid16, psi1)):
        batch = evaluate_representation(mesh3, grid, a1, a5, psi, X)
        assert batch.shape == (len(X),)
        points = [evaluate_representation(mesh3, grid, a1, a5, psi, x) for x in X]
        np.testing.assert_array_equal(batch, points)


def test_batched_representation_refuses_the_whole_batch(mesh3):
    z = mesh3.nodes[:, 2]
    X = np.concatenate([interior_probes(np.random.default_rng(16), 5),
                        mesh3.nodes[3:4] - 0.5 * mesh3.node_spacing[3] * mesh3.normals[3:4]])
    with pytest.raises(SingularEvaluation):
        evaluate_representation(mesh3, None, z, z, None, X)
    with pytest.raises(SingularEvaluation):
        evaluate_representation(mesh3, None, z, z, None, X[::-1])


def test_single_point_representation_is_a_python_float(mesh3):
    z = mesh3.nodes[:, 2]
    assert type(evaluate_representation(mesh3, None, z, z, None, [0.1, 0.0, 0.2])) is float
    assert type(evaluate_representation(mesh3, None, z, z, None, np.zeros(3))) is float


def test_boundary_field_roundtrip(tmp_path, mesh3):
    rng = np.random.default_rng(2)
    v = rng.normal(size=mesh3.n_nodes)
    path = tmp_path / "field.json"
    save_boundary_field(v, path)
    w = load_boundary_field(path, mesh3)
    assert np.array_equal(v, w)
    with pytest.raises(ValueError):
        load_boundary_field(path, make_unit_sphere(1))
