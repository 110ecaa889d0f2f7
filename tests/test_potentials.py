import numpy as np
import pytest

from potdeg.bie import g02_normal_derivative
from potdeg.errors import SingularEvaluation
from potdeg.geometry import make_unit_sphere, triangle_areas
from potdeg.potentials import (
    KernelConvention,
    _containing_cell,
    _kern_double_newton,
    _kern_grad_double_newton,
    _kern_grad_single_newton,
    _kern_single_newton,
    _layer_matrix,
    _subdiv_bary,
    absolute_solid_angle,
    adjoint_kernel_matrix,
    adjoint_volume_matrix,
    double_layer,
    double_layer_matrix,
    grad_double_layer_matrix,
    grad_newton_potential,
    grad_single_layer_matrix,
    mean_curvature,
    newton_potential,
    single_layer,
    single_layer_matrix,
    solid_angle,
)

UN = KernelConvention.UNNORMALIZED
NT = KernelConvention.NEWTON
FOUR_PI = 4.0 * np.pi


def test_solid_angle_interior(mesh3):
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=3)
        x = x / np.linalg.norm(x) * rng.uniform(0.0, 0.7)
        assert solid_angle(mesh3, x) == pytest.approx(-FOUR_PI, rel=0.01)


def test_solid_angle_exterior(mesh3):
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=3)
        x = x / np.linalg.norm(x) * rng.uniform(1.5, 5.0)
        assert abs(solid_angle(mesh3, x)) <= 0.05


def test_solid_angle_principal_value(mesh3):
    rng = np.random.default_rng(2)
    for i in rng.choice(mesh3.n_nodes, 8, replace=False):
        pv = solid_angle(mesh3, mesh3.nodes[i], principal_value=True)
        assert pv == pytest.approx(-2.0 * np.pi, rel=0.03)


def test_solid_angle_at_node_requires_pv_mode(mesh3):
    with pytest.raises(SingularEvaluation):
        solid_angle(mesh3, mesh3.nodes[5])


def test_matrix_rows_at_a_node_require_principal_value_mode(mesh3):
    with pytest.raises(SingularEvaluation):
        single_layer_matrix(mesh3, mesh3.nodes[:1])
    X = np.array([[0.1, 0.2, 0.3], mesh3.nodes[7] + 1e-13])
    with pytest.raises(SingularEvaluation):
        grad_double_layer_matrix(mesh3, X)
    with pytest.raises(SingularEvaluation):
        double_layer_matrix(mesh3, X, near_correct=False)


def test_principal_value_rows_need_a_self_cell_completion(mesh3):
    with pytest.raises(ValueError, match="principal-value"):
        _layer_matrix(mesh3, mesh3.nodes[:2], _kern_grad_single_newton, principal_value=True)


def test_solid_angle_refinement_order():
    # deep interior points so the plain quadrature (no near patch) is measured
    # at every level; order is taken over the max error of the batch
    rng = np.random.default_rng(0)
    pts = []
    for _ in range(15):
        v = rng.normal(size=3)
        pts.append(v / np.linalg.norm(v) * rng.uniform(0.05, 0.35))
    errs = []
    for level in (2, 3, 4):
        mesh = make_unit_sphere(level)
        errs.append(max(abs(solid_angle(mesh, p) + FOUR_PI) for p in pts))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.0


def test_absolute_solid_angle_center(mesh3):
    assert absolute_solid_angle(mesh3, [0, 0, 0]) == pytest.approx(FOUR_PI, rel=0.01)


def test_absolute_solid_angle_far_bound(mesh3):
    val = absolute_solid_angle(mesh3, [5.0, 0.0, 0.0])
    assert val <= FOUR_PI / 24.0 * 1.05


def test_absolute_solid_angle_finite_on_grid(mesh3):
    for x in np.array([[0.3, 0.3, 0.3], [1.5, 0, 0], [0, 0, 0.99], [2, 2, 2]]):
        assert np.isfinite(absolute_solid_angle(mesh3, x))


def test_single_layer_constant_density(mesh3):
    ones = np.ones(mesh3.n_nodes)
    assert single_layer(mesh3, ones, [0, 0, 0], UN) == pytest.approx(FOUR_PI, rel=0.01)
    assert single_layer(mesh3, ones, [0, 0, 2.0], UN) == pytest.approx(2 * np.pi, rel=0.01)
    assert single_layer(mesh3, np.zeros(mesh3.n_nodes), [0.3, 0, 0], UN) == 0.0


def test_single_layer_shell_theorem_against_fine_quadrature(mesh3):
    # independent oracle: much finer mesh for the same integral
    fine = make_unit_sphere(4)
    x = np.array([0.0, 0.0, 2.0])
    coarse = single_layer(mesh3, np.ones(mesh3.n_nodes), x, UN)
    oracle = single_layer(fine, np.ones(fine.n_nodes), x, UN)
    assert coarse == pytest.approx(oracle, rel=0.005)
    assert oracle == pytest.approx(FOUR_PI / 2.0, rel=0.005)


def test_convention_factor_single_layer_exact(mesh3):
    rng = np.random.default_rng(3)
    v = rng.normal(size=mesh3.n_nodes)
    x = [0.2, -0.4, 0.1]
    a = single_layer(mesh3, v, x, UN)
    b = single_layer(mesh3, v, x, NT)
    assert a == pytest.approx(b * FOUR_PI, rel=1e-14)


def test_convention_factor_double_layer_magnitude_and_sign(mesh3):
    # the two double-layer conventions differ by 4 pi and the recorded sign flip
    rng = np.random.default_rng(4)
    v = rng.normal(size=mesh3.n_nodes)
    x = [0.1, 0.2, -0.3]
    a = double_layer(mesh3, v, x, UN)
    b = double_layer(mesh3, v, x, NT)
    assert a == pytest.approx(-b * FOUR_PI, rel=1e-14)


def test_double_layer_gauss_cases(mesh3):
    ones = np.ones(mesh3.n_nodes)
    assert double_layer(mesh3, ones, [0.1, 0.2, 0.0], UN) == pytest.approx(-FOUR_PI, rel=0.01)
    assert abs(double_layer(mesh3, ones, [0, 0, 2.0], NT)) <= 0.01


def test_double_layer_jump_newton(mesh3):
    # interior limit = PV + v/2 as the probe distance shrinks to a spacing
    v = 1.0 + 0.5 * mesh3.nodes[:, 2]
    rng = np.random.default_rng(5)
    for i in rng.choice(mesh3.n_nodes, 5, replace=False):
        P0, n0, h = mesh3.nodes[i], mesh3.normals[i], mesh3.node_spacing[i]
        pv = double_layer(mesh3, v, P0, NT, principal_value=True)
        inner = 2.0 * double_layer(mesh3, v, P0 - h / 4 * n0, NT) \
            - double_layer(mesh3, v, P0 - h / 2 * n0, NT)
        assert inner == pytest.approx(pv + 0.5 * v[i], rel=0.05)


def test_jump_difference_both_conventions(mesh3):
    # interior minus exterior: +v in Newton, -4 pi v unnormalized (level >= 3, 5%)
    v = 1.0 + 0.5 * mesh3.nodes[:, 2]
    rng = np.random.default_rng(6)
    for i in rng.choice(mesh3.n_nodes, 5, replace=False):
        P0, n0, h = mesh3.nodes[i], mesh3.normals[i], mesh3.node_spacing[i]

        def diff(conv, d):
            return (double_layer(mesh3, v, P0 - d * n0, conv)
                    - double_layer(mesh3, v, P0 + d * n0, conv))

        newton = 2.0 * diff(NT, h / 4) - diff(NT, h / 2)
        unnorm = 2.0 * diff(UN, h / 4) - diff(UN, h / 2)
        assert newton == pytest.approx(v[i], rel=0.05)
        assert unnorm == pytest.approx(-FOUR_PI * v[i], rel=0.05)


def test_layer_potentials_harmonic_off_surface(mesh3):
    # 7-point discrete Laplacian of the fields vanishes relative to field size
    v = 1.0 + 0.5 * mesh3.nodes[:, 2]
    hstep = 1e-2
    for field, conv in ((single_layer, UN), (double_layer, NT)):
        for x0 in (np.array([0.2, 0.1, -0.3]), np.array([0.0, 0.0, 1.8])):
            vals = []
            center = field(mesh3, v, x0, conv)
            for axis in range(3):
                e = np.zeros(3)
                e[axis] = hstep
                vals.append(field(mesh3, v, x0 + e, conv))
                vals.append(field(mesh3, v, x0 - e, conv))
            lap = (sum(vals) - 6.0 * center) / hstep ** 2
            assert abs(lap) <= 1e-2 * max(abs(center), 1.0)


def test_newton_potential_zero_source(grid16):
    assert newton_potential(grid16, np.zeros(grid16.n_cells), [0, 0, 0]) == 0.0


def test_newton_potential_unit_ball(grid16):
    ones = np.ones(grid16.n_cells)
    assert newton_potential(grid16, ones, [0, 0, 0]) == pytest.approx(0.5, rel=0.02)


def test_newton_potential_linearity_exact(grid16):
    rng = np.random.default_rng(7)
    f = rng.normal(size=grid16.n_cells)
    x = [0.2, -0.1, 0.3]
    a = newton_potential(grid16, 3.5 * f, x)
    b = 3.5 * newton_potential(grid16, f, x)
    assert a == pytest.approx(b, rel=1e-13)


def test_grad_newton_potential_ball(grid16):
    # u = 1/2 - r^2/6 so grad u = -x/3
    ones = np.ones(grid16.n_cells)
    x = np.array([0.4, -0.2, 0.1])
    g = grad_newton_potential(grid16, ones, x)
    assert np.max(np.abs(g + x / 3.0)) <= 0.01


def test_mean_curvature_unit_sphere(mesh3):
    kappa = mean_curvature(mesh3)
    assert np.max(np.abs(kappa - 1.0)) <= 0.05


# ---------------------------------------------------------------------------
# point evaluators against matrix rows, and the matrix builders against
# test-local reference formulas
# ---------------------------------------------------------------------------

def _smooth_density(mesh):
    P = mesh.nodes
    return 1.0 + 0.5 * P[:, 2] + 0.3 * P[:, 0] ** 2 - 0.2 * P[:, 0] * P[:, 1]


def _near_and_deep_points(mesh, rng):
    """Probes 0.3, 1 and 1.7 spacings inside, 0.5 outside, and deep interior ones."""
    i = rng.choice(mesh.n_nodes, 6, replace=False)
    P0, n0, h = mesh.nodes[i], mesh.normals[i], mesh.node_spacing[i][:, None]
    near = [P0 - f * h * n0 for f in (0.3, 1.0, 1.7)] + [P0 + 0.5 * h * n0]
    deep = rng.normal(size=(6, 3))
    deep *= rng.uniform(0.05, 0.7, (6, 1)) / np.linalg.norm(deep, axis=1)[:, None]
    return np.concatenate(near + [deep])


def _assert_rel(got, want, rtol=1e-13):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def test_layer_point_evaluators_match_matrix_rows(mesh3):
    X = _near_and_deep_points(mesh3, np.random.default_rng(8))
    v = _smooth_density(mesh3)
    sl = single_layer_matrix(mesh3, X) @ v
    dl = double_layer_matrix(mesh3, X) @ v
    _assert_rel([single_layer(mesh3, v, x, NT) for x in X], sl)
    _assert_rel([single_layer(mesh3, v, x, UN) for x in X], FOUR_PI * sl)
    _assert_rel([double_layer(mesh3, v, x, NT) for x in X], dl)
    _assert_rel([double_layer(mesh3, v, x, UN) for x in X], -FOUR_PI * dl)
    gauss = -FOUR_PI * double_layer_matrix(mesh3, X).sum(axis=1)
    _assert_rel([solid_angle(mesh3, x) for x in X], gauss)


def test_principal_value_double_layer_matches_adjoint_kernel_rows(mesh4):
    # K'[i, j] = -(w_j / w_i) D_pv[j, i], so D_pv v = -K'^T (w v) / w
    K = adjoint_kernel_matrix(mesh4)
    w = mesh4.weights
    v = _smooth_density(mesh4)
    i = np.random.default_rng(9).choice(mesh4.n_nodes, 10, replace=False)
    dl = -(K.T @ (w * v))[i] / w[i]
    gauss = FOUR_PI * (K.T @ w)[i] / w[i]
    pts = mesh4.nodes[i]
    _assert_rel([double_layer(mesh4, v, x, NT, principal_value=True) for x in pts], dl)
    _assert_rel([double_layer(mesh4, v, x, UN, principal_value=True) for x in pts],
                -FOUR_PI * dl)
    _assert_rel([solid_angle(mesh4, x, principal_value=True) for x in pts], gauss)


def _mean_curvature_loop(mesh):
    n = mesh.n_nodes
    acc = np.zeros(n)
    cnt = np.zeros(n)
    for (i, j, k) in mesh.triangles:
        for a, b in ((i, j), (j, k), (k, i)):
            for p, q in ((a, b), (b, a)):
                d = mesh.nodes[p] - mesh.nodes[q]
                acc[p] += -2.0 * (d @ mesh.normals[q]) / (d @ d)
                cnt[p] += 1
    return acc / np.maximum(cnt, 1)


def _adjoint_kernel_reference(mesh):
    """K'[i, j] = w_j dh/dn_{p_i}(P_i - P_j), diagonal -kappa rho / 4."""
    d = mesh.nodes[None, :, :] - mesh.nodes[:, None, :]
    r = np.maximum(np.linalg.norm(d, axis=-1), 1e-30)
    K = np.einsum("ijd,id->ij", d, mesh.normals) / (FOUR_PI * r ** 3)
    K *= mesh.weights[None, :]
    rho = np.sqrt(mesh.weights / np.pi)
    np.fill_diagonal(K, -_mean_curvature_loop(mesh) * rho / 4.0)
    return K


def test_adjoint_kernel_matrix_matches_reference(mesh4):
    K = adjoint_kernel_matrix(mesh4)
    ref = _adjoint_kernel_reference(mesh4)
    assert np.max(np.abs(K - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_adjoint_volume_matrix_matches_loop_reference(mesh3, grid16):
    """(Y - P_i).n_i / (4 pi r^3) per cell; subcell means within 2.5 spacings."""
    t = (np.arange(4) + 0.5) / 4 - 0.5
    off = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    dx = float(np.max(grid16.spacing))
    ref = np.empty((mesh3.n_nodes, grid16.n_cells))
    for i, (P0, n0) in enumerate(zip(mesh3.nodes, mesh3.normals)):
        d = grid16.centers - P0
        r = np.linalg.norm(d, axis=1)
        ref[i] = (d @ n0) / (FOUR_PI * r ** 3) * grid16.weights
        for c in np.nonzero(r < 2.5 * dx)[0]:
            pts = grid16.partial_points.get(c)
            if pts is None:
                pts = grid16.centers[c] + off * grid16.spacing
            dd = pts - P0
            rr = np.linalg.norm(dd, axis=1)
            ref[i, c] = np.mean((dd @ n0) / (FOUR_PI * rr ** 3)) * grid16.weights[c]
    K = adjoint_volume_matrix(mesh3, grid16)
    assert np.max(np.abs(K - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_volume_point_evaluators_match_matrix_rows(grid16, workspace16):
    rng = np.random.default_rng(10)
    f = rng.normal(size=grid16.n_cells)
    cut = np.nonzero(~grid16.full_cell)[0]
    rows = np.concatenate([rng.choice(grid16.n_cells, 12, replace=False),
                           rng.choice(cut, 6, replace=False)])
    X = grid16.centers[rows]
    _assert_rel([newton_potential(grid16, f, x) for x in X], workspace16.NM[rows] @ f)
    grad = np.stack([workspace16.GNM[a][rows] @ f for a in range(3)], axis=1)
    _assert_rel([grad_newton_potential(grid16, f, x) for x in X], grad)


def test_mean_curvature_matches_loop_reference():
    mesh = make_unit_sphere(3)
    np.testing.assert_allclose(mean_curvature(mesh), _mean_curvature_loop(mesh),
                               rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# the near-field array passes against test-local copies of the per-target loops
# they replaced
# ---------------------------------------------------------------------------

def _near_tri_ids_loop(mesh, x):
    idx = mesh.tree.query_ball_point(x, 4.0 * mesh.local_spacing(x))
    tri = set()
    for i in idx:
        tri.update(mesh.incident_triangles[i].tolist())
    return np.array(sorted(tri), dtype=int)


def _patch_group_loop(mesh, x, kern, tri_ids, depth):
    verts = mesh.triangles[tri_ids]
    P = mesh.nodes[verts]
    N = mesh.normals[verts]
    A = triangle_areas(mesh.nodes, mesh.triangles[tri_ids])
    cb = _subdiv_bary(depth).mean(axis=1)
    S = len(cb)
    cent = np.einsum("sk,tkd->tsd", cb, P)
    flat = np.cross(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])
    flat /= np.maximum(np.linalg.norm(flat, axis=-1, keepdims=True), 1e-30)
    flip = np.einsum("td,td->t", flat, N.mean(axis=1)) < 0
    flat[flip] = -flat[flip]
    nrm = np.broadcast_to(flat[:, None, :], cent.shape)
    k_sub = kern(x, cent.reshape(-1, 3), nrm.reshape(-1, 3))
    trail = k_sub.shape[1:]
    k_sub = k_sub.reshape((len(tri_ids), S) + trail)
    contrib = np.einsum("ts...,t,sk->tk...", k_sub, A / 4 ** depth, cb)
    kv = kern(x, P.reshape(-1, 3), N.reshape(-1, 3)).reshape((len(tri_ids), 3) + trail)
    share = np.einsum("t,tk...->tk...", A / 3.0, kv)
    return verts.reshape(-1), (contrib - share).reshape((-1,) + trail)


def _patch_assembly_loop(mesh, x, kern, tri_ids):
    P = mesh.nodes[mesh.triangles[tri_ids]]
    dmin = np.linalg.norm(P - x, axis=-1).min(axis=1)
    edge = np.linalg.norm(P - np.roll(P, 1, axis=1), axis=-1).max(axis=1)
    depth = np.clip(np.ceil(np.log2(np.maximum(edge / np.maximum(dmin, 1e-12), 1e-9))) + 2,
                    1, 6).astype(int)
    parts = [_patch_group_loop(mesh, x, kern, tri_ids[depth == d], int(d))
             for d in np.unique(depth)]
    return np.concatenate([c for c, _ in parts]), np.concatenate([v for _, v in parts])


def _layer_matrix_loop(mesh, X, kern):
    """Vertex-rule rows, then the near patch one target at a time."""
    out = _layer_matrix(mesh, X, kern, near_correct=False)
    dist, nearest = mesh.tree.query(X)
    for i in np.nonzero(dist < 2.0 * mesh.node_spacing[nearest])[0]:
        cols, delta = _patch_assembly_loop(mesh, X[i], kern, _near_tri_ids_loop(mesh, X[i]))
        np.add.at(out[i], cols, delta)
    return out


@pytest.mark.parametrize("builder, kern", [
    (single_layer_matrix, _kern_single_newton),
    (double_layer_matrix, _kern_double_newton),
    (grad_single_layer_matrix, _kern_grad_single_newton),
    (grad_double_layer_matrix, _kern_grad_double_newton),
])
def test_layer_matrices_match_per_target_patch_loop(mesh3, builder, kern):
    # near targets 0.3, 1 and 1.7 spacings inside, shuffled among deep ones
    # over two row blocks
    rng = np.random.default_rng(11)
    i = rng.choice(mesh3.n_nodes, 30, replace=False)
    P0, n0, h = mesh3.nodes[i], mesh3.normals[i], mesh3.node_spacing[i][:, None]
    deep = rng.normal(size=(200, 3))
    deep *= rng.uniform(0.05, 0.7, (200, 1)) / np.linalg.norm(deep, axis=1)[:, None]
    X = rng.permutation(np.concatenate([P0 - f * h * n0 for f in (0.3, 1.0, 1.7)] + [deep]))
    np.testing.assert_array_equal(builder(mesh3, X), _layer_matrix_loop(mesh3, X, kern))


_UNIT_SUBCELLS = np.stack(np.meshgrid(*[(np.arange(4) + 0.5) / 4 - 0.5] * 3, indexing="ij"),
                          axis=-1).reshape(-1, 3)


def _cell_kernel_mean_loop(grid, idx, x, gradient, self_cell):
    pts = grid.partial_points.get(idx)
    if pts is None:
        pts = grid.centers[idx] + _UNIT_SUBCELLS * grid.spacing
    d = x - pts
    r = np.maximum(np.linalg.norm(d, axis=-1), 1e-30)
    vals = -d / (FOUR_PI * r ** 3)[:, None] if gradient else 1.0 / (FOUR_PI * r)
    if self_cell:
        sub_vol = grid.weights[idx] / len(pts)
        r_eq = (3.0 * sub_vol / FOUR_PI) ** (1.0 / 3.0)
        vals[np.argmin(r)] = 0.0 if gradient else (r_eq ** 2 / 2.0) / sub_vol
    return vals.mean(axis=0)


def _volume_rows_loop(grid, X, own, gradient):
    """Center-rule rows, then the near cells one target and one cell at a time."""
    dx = float(np.max(grid.spacing))
    rows = []
    for x, o in zip(X, own):
        d = x - grid.centers
        r = np.maximum(np.linalg.norm(d, axis=-1), 1e-30)
        row = (-d / (FOUR_PI * r ** 3)[:, None] * grid.weights[:, None] if gradient
               else grid.weights / (FOUR_PI * r))
        for c in np.nonzero(r < 2.5 * dx)[0]:
            row[c] = grid.weights[c] * _cell_kernel_mean_loop(grid, c, x, gradient, c == o)
        rows.append(row)
    return np.array(rows)


def test_volume_rows_match_per_cell_loop(mesh3, grid16, workspace16):
    rng = np.random.default_rng(12)
    cut = np.nonzero(~grid16.full_cell)[0]
    full = np.nonzero(grid16.full_cell)[0]
    rows = np.concatenate([rng.choice(full, 10, replace=False), rng.choice(cut, 10, replace=False)])
    X = grid16.centers[rows]
    _assert_rel(workspace16.NM[rows], _volume_rows_loop(grid16, X, rows, False), rtol=1e-14)
    grad = np.stack([workspace16.GNM[a][rows] for a in range(3)], axis=-1)
    _assert_rel(grad, _volume_rows_loop(grid16, X, rows, True), rtol=1e-14)
    nodes = rng.choice(mesh3.n_nodes, 20, replace=False)
    kvol = np.einsum("icd,id->ic", _volume_rows_loop(grid16, mesh3.nodes[nodes],
                                                     np.full(20, -1), True),
                     mesh3.normals[nodes])
    _assert_rel(adjoint_volume_matrix(mesh3, grid16)[nodes], kvol, rtol=1e-14)


def test_g02_matches_the_unchunked_product(mesh3, neumann3):
    A1 = _smooth_density(mesh3)
    n = mesh3.n_nodes
    eps = 2.0 * mesh3.node_spacing
    probes = np.concatenate([mesh3.nodes - (k * eps)[:, None] * mesh3.normals
                             for k in (1.0, 2.0, 3.0)])
    D = double_layer_matrix(mesh3, probes, near_correct=False)
    f1, f2, f3 = D[:n] @ A1, D[n:2 * n] @ A1, D[2 * n:] @ A1
    want = (2.5 * f1 - 4.0 * f2 + 1.5 * f3) / eps
    # the stencil cancels most of its terms (a constant trace gives g02 near 0
    # from fields near -1), so rounding is measured on the scale of the terms
    scale = np.max((2.5 * np.abs(f1) + 4.0 * np.abs(f2) + 1.5 * np.abs(f3)) / eps)
    assert np.max(np.abs(g02_normal_derivative(neumann3, A1) - want)) <= 1e-14 * scale


def test_containing_cell(grid16):
    cut = np.nonzero(~grid16.full_cell)[0]
    for j in (cut[0], cut[-1], int(np.argmax(grid16.full_cell))):
        pts = grid16.partial_points.get(j, grid16.centers[j][None, :])
        assert _containing_cell(grid16, pts[0]) == j
    # the corner box cell lies outside the unit ball, so it is not kept
    assert 0 not in grid16.inside_index
    assert _containing_cell(grid16, grid16.box_lo + 0.5 * grid16.spacing) == -1
    assert _containing_cell(grid16, np.array([1.5, 0.0, 0.0])) == -1
