import json

import numpy as np
import pytest

from potdeg import potentials
from potdeg.errors import AmbiguousClassification  # noqa: F401  (part of the contract)
from potdeg.geometry import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    box_cell_centers,
    check_watertight,
    classify_point,
    load_mesh,
    make_unit_sphere,
    mesh_from_arrays,
    points_inside,
    save_mesh,
    surface_integral,
    volume_grid_from_mesh,
)
from potdeg.potentials import winding_solid_angle

FOUR_PI = 4.0 * np.pi


def test_icosahedron_counts():
    mesh = make_unit_sphere(0)
    assert mesh.n_nodes == 12
    assert len(mesh.triangles) == 20


def test_node_counts_per_level():
    for level in range(3):
        mesh = make_unit_sphere(level)
        assert mesh.n_nodes == 10 * 4 ** level + 2
        assert len(mesh.triangles) == 20 * 4 ** level


def test_area_level3_within_half_percent(mesh3):
    assert abs(mesh3.total_area - FOUR_PI) <= 0.005 * FOUR_PI


def test_weighted_normal_sum_vanishes_by_symmetry():
    for level in (0, 2):
        mesh = make_unit_sphere(level)
        assert np.linalg.norm(mesh.weights @ mesh.normals) < 1e-10


def test_normals_unit_length(mesh3):
    lengths = np.linalg.norm(mesh3.normals, axis=1)
    assert np.max(np.abs(lengths - 1.0)) < 1e-12


def test_area_convergence_order_at_least_two():
    errs = []
    for level in (1, 2, 3):
        mesh = make_unit_sphere(level)
        errs.append(abs(mesh.total_area - FOUR_PI))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 2.0 - 0.1


def test_watertight_all_levels():
    for level in (0, 1, 2, 3):
        assert check_watertight(make_unit_sphere(level).triangles)


def test_surface_integral_constant(mesh3):
    assert surface_integral(mesh3, np.ones(mesh3.n_nodes)) == pytest.approx(
        FOUR_PI, rel=0.005)
    assert surface_integral(mesh3, np.zeros(mesh3.n_nodes)) == 0.0


def test_surface_integral_normal_component_closedness(mesh3):
    v = mesh3.normals[:, 0]
    assert abs(surface_integral(mesh3, v)) < 1e-10


def test_surface_integral_length_mismatch(mesh3):
    with pytest.raises(ValueError):
        surface_integral(mesh3, np.ones(mesh3.n_nodes - 1))


def test_classify_point_trichotomy(mesh3):
    assert classify_point(mesh3, [0.0, 0.0, 0.0]) == INTERIOR
    assert classify_point(mesh3, [5.0, 0.0, 0.0]) == EXTERIOR
    assert classify_point(mesh3, mesh3.nodes[17]) == BOUNDARY


def test_classify_point_matches_analytic_predicate(mesh3):
    rng = np.random.default_rng(3)
    spacing = float(np.max(mesh3.node_spacing))
    for _ in range(40):
        x = rng.normal(size=3)
        r = rng.uniform(0.05, 2.0)
        x = x / np.linalg.norm(x) * r
        if abs(r - 1.0) <= 2 * spacing:
            continue
        want = INTERIOR if r < 1.0 else EXTERIOR
        assert classify_point(mesh3, x) == want


def test_mesh_json_roundtrip(tmp_path):
    mesh = make_unit_sphere(1)
    path = tmp_path / "sphere.json"
    save_mesh(mesh, path)
    loaded = load_mesh(path)
    assert np.allclose(loaded.nodes, mesh.nodes)
    assert np.array_equal(loaded.triangles, mesh.triangles)
    # normals recomputed, outward, unit
    assert np.max(np.abs(np.linalg.norm(loaded.normals, axis=1) - 1.0)) < 1e-12
    assert np.all(np.einsum("nd,nd->n", loaded.normals, loaded.nodes) > 0)
    assert loaded.total_area == pytest.approx(mesh.total_area, rel=1e-12)


def test_loader_rejects_open_surface(tmp_path):
    mesh = make_unit_sphere(0)
    path = tmp_path / "open.json"
    with open(path, "w") as f:
        json.dump({"nodes": mesh.nodes.tolist(),
                   "triangles": mesh.triangles[:-1].tolist()}, f)
    with pytest.raises(ValueError):
        load_mesh(path)


def test_mesh_from_arrays_orientation_flip():
    mesh = make_unit_sphere(0)
    flipped = mesh.triangles[:, ::-1]
    rebuilt = mesh_from_arrays(mesh.nodes, flipped)
    assert np.all(np.einsum("nd,nd->n", rebuilt.normals, rebuilt.nodes) > 0)


def test_box_cell_centers_layout():
    centers = box_cell_centers([0, 0, 0], [1, 2, 3], (2, 2, 2))
    assert centers.shape == (8, 3)
    assert centers[0] == pytest.approx([0.25, 0.5, 0.75])


def test_volume_grid_measure_and_membership(mesh3, grid16):
    # the grid represents the flat polyhedron: volume within 2% of the ball
    assert abs(grid16.measure - 4.0 / 3.0 * np.pi) <= 0.02 * 4.0 / 3.0 * np.pi
    w = winding_solid_angle(mesh3, grid16.centers)
    assert np.all(w > 2.0 * np.pi)


def test_volume_grid_partial_cells_have_reduced_weight(grid16):
    vol = float(np.prod(grid16.spacing))
    partial = ~grid16.full_cell
    assert np.any(partial)
    assert np.all(grid16.weights[partial] <= vol + 1e-15)
    assert np.all(grid16.weights[partial] > 0)


def test_make_unit_sphere_rejects_negative_level():
    with pytest.raises(ValueError):
        make_unit_sphere(-1)


def test_vectorised_mesh_tables_match_loop_reference(mesh3):
    nodes, tris = mesh3.nodes, mesh3.triangles
    mesh = mesh_from_arrays(nodes, tris)
    cr = np.cross(nodes[tris[:, 1]] - nodes[tris[:, 0]], nodes[tris[:, 2]] - nodes[tris[:, 0]])
    areas = 0.5 * np.linalg.norm(cr, axis=1)
    w = np.zeros(len(nodes))
    nrm = np.zeros_like(nodes)
    acc = np.zeros(len(nodes))
    cnt = np.zeros(len(nodes))
    inc = [[] for _ in nodes]
    edges = {}
    for t, (i, j, k) in enumerate(tris):
        for v in (i, j, k):
            w[v] += areas[t] / 3.0
            nrm[v] += cr[t]
            inc[v].append(t)
        for a, b in ((i, j), (j, k), (k, i)):
            d = np.linalg.norm(nodes[a] - nodes[b])
            acc[a] += d
            acc[b] += d
            cnt[a] += 1
            cnt[b] += 1
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    np.testing.assert_array_equal(mesh.weights, w)
    np.testing.assert_array_equal(mesh3.weights, w)
    np.testing.assert_array_equal(mesh.normals, nrm)
    assert len(mesh.incident_triangles) == len(inc)
    for got, want in zip(mesh.incident_triangles, inc):
        np.testing.assert_array_equal(got, want)
    assert all(c == 2 for c in edges.values())
    assert check_watertight(tris) is True
    assert check_watertight(tris[:-1]) is False
    np.testing.assert_allclose(mesh.node_spacing, acc / cnt, rtol=1e-15, atol=0)


def _sub_lattice(mesh, shape, lo, hi, subcells=4):
    """Box centers, straddle cells and subcell centers as volume_grid_from_mesh makes them."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    centers = box_cell_centers(lo, hi, shape)
    spacing = (hi - lo) / np.asarray(shape, dtype=float)
    dist, _ = mesh.tree.query(centers)
    margin = float(np.linalg.norm(spacing / 2.0)) + float(np.max(mesh.node_spacing))
    cand = np.nonzero(dist < margin)[0]
    t = (np.arange(subcells) + 0.5) / subcells - 0.5
    gx, gy, gz = np.meshgrid(t, t, t, indexing="ij")
    off = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1) * spacing[None, :]
    pts = (centers[cand][:, None, :] + off[None, :, :]).reshape(-1, 3)
    return centers, spacing, cand, off, pts


def _brute_force_grid(mesh, shape, lo, hi):
    """The grid build with every point classified by the all-triangles winding number."""
    centers, spacing, cand, off, pts = _sub_lattice(mesh, shape, lo, hi)
    vol = float(np.prod(spacing))
    keep = winding_solid_angle(mesh, centers) > 2.0 * np.pi
    weights = np.full(len(centers), vol)
    new_centers = centers.copy()
    full = np.ones(len(centers), dtype=bool)
    sub_points = {}
    sub_in = (winding_solid_angle(mesh, pts) > 2.0 * np.pi).reshape(len(cand), -1)
    frac = sub_in.mean(axis=1)
    keep[cand] = frac > 0.0
    weights[cand] = vol * frac
    for r, c in enumerate(cand):
        if 0.0 < frac[r] < 1.0:
            new_centers[c] = (centers[c] + off[sub_in[r]]).mean(axis=0)
            sub_points[c] = centers[c] + off[sub_in[r]]
    full[cand] = frac >= 1.0
    kept = np.nonzero(keep)[0]
    remap = {c: i for i, c in enumerate(kept)}
    return (kept, weights[keep], new_centers[keep], full[keep],
            {remap[c]: p for c, p in sub_points.items() if c in remap})


def _assert_same_grid(grid, kept, weights, centers, full, partial):
    np.testing.assert_array_equal(grid.inside_index, kept)
    np.testing.assert_array_equal(grid.weights, weights)
    np.testing.assert_array_equal(grid.centers, centers)
    np.testing.assert_array_equal(grid.full_cell, full)
    assert sorted(grid.partial_points) == sorted(partial)
    for c, p in partial.items():
        np.testing.assert_array_equal(grid.partial_points[c], p)


def _bumpy_sphere():
    mesh = make_unit_sphere(2)
    x, y, z = mesh.nodes.T
    r = 1.0 + 0.25 * np.sin(3.0 * x) * np.sin(3.0 * y) * np.sin(3.0 * z) + 0.15 * x * y
    return mesh_from_arrays(mesh.nodes * r[:, None], mesh.triangles)


def test_vertex_pseudonormals_match_angle_weighted_loop_reference():
    # the bumpy mesh has uneven corner angles, so an unweighted sum of the face
    # normals gives different rows
    mesh = _bumpy_sphere()
    pn = mesh.pseudonormals
    assert pn.orient == 1.0
    ref = np.zeros_like(mesh.nodes)
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        fn = np.cross(p[1] - p[0], p[2] - p[0])
        fn /= np.linalg.norm(fn)
        for k in range(3):
            u, v = p[(k + 1) % 3] - p[k], p[(k + 2) % 3] - p[k]
            ref[tri[k]] += np.arccos(u @ v / (np.linalg.norm(u) * np.linalg.norm(v))) * fn
    np.testing.assert_allclose(pn.normals[-mesh.n_nodes:], ref, rtol=1e-12, atol=1e-12)


def test_volume_grid_matches_brute_force_on_non_convex_mesh():
    mesh = _bumpy_sphere()
    # non-convex: some triangle has a node of the mesh strictly outside its plane
    p = mesh.nodes[mesh.triangles]
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    assert np.max(np.einsum("td,ntd->nt", n, mesh.nodes[:, None, :] - p[:, 0])) > 1e-3
    lo, hi = mesh.nodes.min(axis=0) - 0.1, mesh.nodes.max(axis=0) + 0.1
    grid = volume_grid_from_mesh(mesh, (10, 10, 10), lo, hi)
    assert len(grid.partial_points) > 100
    _assert_same_grid(grid, *_brute_force_grid(mesh, (10, 10, 10), lo, hi))


def test_points_inside_matches_winding_on_sub_lattice_sample(mesh3):
    *_, pts = _sub_lattice(mesh3, (16, 16, 16), [-1, -1, -1], [1, 1, 1])
    sample = pts[np.random.default_rng(5).choice(len(pts), 5000, replace=False)]
    want = winding_solid_angle(mesh3, sample) > 2.0 * np.pi
    assert 0 < np.sum(want) < len(sample)
    np.testing.assert_array_equal(points_inside(mesh3, sample), want)


def test_points_on_the_surface_take_the_winding_fallback(mesh3, monkeypatch):
    on_surface = np.concatenate([mesh3.nodes[mesh3.triangles].mean(axis=1), mesh3.nodes])
    want = winding_solid_angle(mesh3, on_surface) > 2.0 * np.pi
    seen = []

    def recording(mesh, X, *args, **kwargs):
        seen.append(len(X))
        return winding_solid_angle(mesh, X, *args, **kwargs)

    monkeypatch.setattr(potentials, "winding_solid_angle", recording)
    got = points_inside(mesh3, on_surface)
    assert seen == [len(on_surface)]
    np.testing.assert_array_equal(got, want)


def test_volume_grid_of_inward_wound_mesh_matches_outward():
    mesh = make_unit_sphere(2)
    flipped = mesh_from_arrays(mesh.nodes, mesh.triangles[:, ::-1])
    args = ((8, 8, 8), [-1, -1, -1], [1, 1, 1])
    grid = volume_grid_from_mesh(mesh, *args)
    assert grid.n_cells > 0
    g = volume_grid_from_mesh(flipped, *args)
    _assert_same_grid(g, grid.inside_index, grid.weights, grid.centers, grid.full_cell,
                      grid.partial_points)


def _tetrahedron_and_box_points(rng):
    # adjacent face normals are 100+ degrees apart, so outside a corner or
    # an edge one incident face normal can point away from the point
    nodes = np.array([[1.3, 0.8, 1], [1, -1, -1.4], [-0.7, 1, -1], [-1, -1.2, 0.6]])
    mesh = mesh_from_arrays(nodes, [[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return mesh, rng.uniform(-2.0, 2.0, (20000, 3))


def _spiky_mesh_and_points_near_nodes(rng):
    # radii 0.6-1.4 on a level-1 icosphere: sharp, strongly non-convex corners
    m = make_unit_sphere(1)
    mesh = mesh_from_arrays(m.nodes * rng.uniform(0.6, 1.4, (m.n_nodes, 1)), m.triangles)
    u = rng.normal(size=(20000, 3))
    u *= rng.uniform(0.001, 0.1, (20000, 1)) / np.linalg.norm(u, axis=1)[:, None]
    return mesh, mesh.nodes[rng.integers(0, mesh.n_nodes, 20000)] + u


@pytest.mark.parametrize("case", [_tetrahedron_and_box_points, _spiky_mesh_and_points_near_nodes],
                         ids=["tetrahedron", "spiky"])
def test_points_inside_matches_winding_at_sharp_edges_and_corners(case):
    mesh, X = case(np.random.default_rng(7))
    want = winding_solid_angle(mesh, X) > 2.0 * np.pi
    assert 0 < np.sum(want) < len(X)
    np.testing.assert_array_equal(points_inside(mesh, X), want)
