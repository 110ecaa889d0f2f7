import json
import math

import numpy as np
import pytest

from potdeg.degree import (
    METHOD_JACOBIAN,
    METHOD_SIGN_1D,
    DegreeCertificate,
    FiniteMap,
    MonomialBasis,
    basis_size,
    boundary_sign_degree_1d,
    brouwer_degree,
    build_finite_map,
    existence_from_degree,
    fit_polynomial_approximation,
    leray_schauder_degree,
)
from potdeg.errors import (
    BoundaryZero,
    BudgetExceeded,
    DimensionTooHigh,
    RadiusExceeded,
)
from potdeg.hammerstein import HammersteinProblem, uniform_grid_1d


def constant_kernel(c):
    return lambda X, Y: np.broadcast_to(
        np.asarray(float(c)), np.broadcast_shapes(X.shape[:-1], Y.shape[:-1])).copy()


def linear_problem(lam, g_val, M=1.0, n=41):
    nodes, w = uniform_grid_1d(0.0, 1.0, n)
    return HammersteinProblem(
        nodes=nodes, weights=w, kernel=constant_kernel(lam),
        psi=lambda Y, s: s, g=lambda X: np.full(len(np.atleast_2d(X)), g_val),
        M=M, lipschitz=1.0, psi_bound=M)


def test_basis_size_values():
    assert basis_size(0) == 1
    assert basis_size(2) == 10
    assert basis_size(3) == 20


def test_basis_dimension_formula():
    for N in range(5):
        for dim in (1, 2, 3):
            b = MonomialBasis(N, dim)
            assert b.L_N == math.comb(N + dim, dim)
            assert len(set(b.multi_indices)) == b.L_N


def test_monomial_basis_graded_order():
    b = MonomialBasis(2, 3)
    degrees = [sum(a) for a in b.multi_indices]
    assert degrees == sorted(degrees)


def test_fit_exact_polynomial():
    f = lambda X: 1.0 + 2.0 * np.atleast_2d(X)[:, 0] - 0.5 * np.atleast_2d(X)[:, 0] ** 2
    _, err, _ = fit_polynomial_approximation(f, [(-1, 1)], 3)
    assert err <= 1e-9


def test_fit_exponential():
    f = lambda X: np.exp(np.atleast_2d(X)[:, 0])
    _, err, _ = fit_polynomial_approximation(f, [(-1, 1)], 4)
    assert err <= 0.01


def test_fit_error_nonincreasing_in_degree():
    f = lambda X: np.exp(np.atleast_2d(X)[:, 0])
    errs = [fit_polynomial_approximation(f, [(-1, 1)], N)[1] for N in (1, 2, 3, 4)]
    assert all(errs[i + 1] <= errs[i] * (1 + 1e-9) for i in range(3))


def test_build_finite_map_zero_nonlinearity():
    p = linear_problem(0.5, 0.3)
    p.psi = lambda Y, s: 0.0 * s
    basis = MonomialBasis(1, 1)
    coeffs = np.zeros((basis.L_N, p.n))
    coeffs[0] = 0.5
    fmap = build_finite_map(p, coeffs, basis)
    D = np.array([0.2, -0.1])
    assert np.allclose(fmap.phi(D), 0.0)


def test_build_finite_map_scalar_closed_form():
    # N = 0: phi(d) = lam * V * d; fixed point g0 / (1 - lam V)
    p = linear_problem(0.5, 1.0, M=5.0)
    basis = MonomialBasis(0, 1)
    coeffs = np.full((1, p.n), 0.5)
    fmap = build_finite_map(p, coeffs, basis)
    d = 0.7
    assert fmap.phi(np.array([d]))[0] == pytest.approx(0.5 * d, rel=1e-10)
    fixed = 1.0 / (1.0 - 0.5)
    assert fmap.phi(np.array([fixed]))[0] + 1.0 == pytest.approx(fixed, rel=1e-10)


def test_build_finite_map_linearity():
    p = linear_problem(0.4, 0.0, M=10.0)
    basis = MonomialBasis(1, 1)
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=(basis.L_N, p.n))
    fmap = build_finite_map(p, coeffs, basis)
    D1 = rng.normal(size=2) * 0.5
    D2 = rng.normal(size=2) * 0.5
    lhs = fmap.phi(2.0 * D1 - 0.3 * D2)
    rhs = 2.0 * fmap.phi(D1) - 0.3 * fmap.phi(D2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_build_finite_map_radius_guard():
    p = linear_problem(0.5, 0.0, M=1.0)
    basis = MonomialBasis(0, 1)
    fmap = build_finite_map(p, np.full((1, p.n), 0.5), basis)
    with pytest.raises(RadiusExceeded):
        fmap.phi(np.array([2.0]))


def _custom_map(phi, L, M=1.0, n=41):
    nodes, _ = uniform_grid_1d(0.0, 1.0, n)
    basis = MonomialBasis(L - 1, 1)
    return FiniteMap(basis=basis, phi=phi, node_monomials=basis.evaluate(nodes), M=M)


def test_degree_of_identity_any_dimension():
    for L in (1, 2, 3, 4):
        fmap = _custom_map(lambda D: 0.0 * np.asarray(D), L)
        deg, method, _ = brouwer_degree(fmap, np.zeros(L), seed=1)
        assert deg == 1


def test_degree_of_minus_identity():
    fmap = _custom_map(lambda D: 2.0 * np.asarray(D), 3)
    deg, method, checked = brouwer_degree(fmap, np.zeros(3), seed=1)
    assert deg == -1
    assert method == METHOD_JACOBIAN
    assert checked


def test_boundary_sign_1d_cases():
    assert boundary_sign_degree_1d(lambda d: d, -1, 1) == 1
    assert boundary_sign_degree_1d(lambda d: -d, -1, 1) == -1
    assert boundary_sign_degree_1d(lambda d: d ** 2 - 1.0, -2, 2) == 0


def test_degree_additivity_over_subintervals():
    # two simple zeros of opposite sign: 0 in total, +1 / -1 on the pieces
    F = lambda d: d ** 2 - 1.0
    assert boundary_sign_degree_1d(F, -2, 0) == -1
    assert boundary_sign_degree_1d(F, 0, 2) == 1
    assert boundary_sign_degree_1d(F, -2, 2) == 0


def test_degree_methods_agree_on_random_1d_instances():
    rng = np.random.default_rng(7)
    agreements = 0
    for _ in range(20):
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-0.3, 0.3)
        fmap = _custom_map(lambda D, a=a, b=b: a * np.asarray(D) + b, 1, M=1.0)
        try:
            d1, *_ = brouwer_degree(fmap, np.zeros(1), seed=3,
                                    force_method=METHOD_SIGN_1D)
            d2, *_ = brouwer_degree(fmap, np.zeros(1), seed=3,
                                    force_method=METHOD_JACOBIAN)
        except BoundaryZero:
            continue
        assert d1 == d2
        agreements += 1
    assert agreements >= 15


def test_degree_boundary_zero_detected():
    # field vanishes at the boundary point d = M
    fmap = _custom_map(lambda D: np.asarray(D) - 1.0 + np.asarray(D), 1, M=1.0)
    # F(d) = d - phi(d) = 1 - d: zero exactly at the sampled boundary d = 1
    with pytest.raises(BoundaryZero):
        brouwer_degree(fmap, np.zeros(1), seed=2)


def test_degree_dimension_refused():
    fmap = _custom_map(lambda D: 0.0 * np.asarray(D), 5)
    with pytest.raises(DimensionTooHigh):
        brouwer_degree(fmap, np.zeros(5), seed=1)


def test_pipeline_contraction_degree_one():
    p = linear_problem(0.3, 0.2)
    cert = leray_schauder_degree(p, 0, 20, 7)
    assert cert.degree == 1
    assert cert.method == METHOD_SIGN_1D
    assert cert.sup_error_kernel <= cert.tau_estimate / 3
    assert cert.sup_error_offset <= cert.tau_estimate / 3
    sol = existence_from_degree(cert, p)
    assert sol.residual_inf <= 1e-7
    assert sol.values[0] == pytest.approx(0.2 / 0.7, rel=1e-6)


def test_pipeline_lambda_v_two_degree_minus_one():
    p = linear_problem(2.0, 0.0)
    cert = leray_schauder_degree(p, 0, 20, 7)
    assert cert.degree == -1
    sol = existence_from_degree(cert, p)
    assert np.max(np.abs(sol.values)) <= 1e-9


def test_pipeline_zero_nonlinearity_any_admissible_degree():
    nodes, w = uniform_grid_1d(0.0, 1.0, 41)
    for N in (0, 1, 3):
        p = HammersteinProblem(
            nodes=nodes, weights=w, kernel=lambda X, Y: 0.5 + 0.1 * X[..., 0] * Y[..., 0],
            psi=lambda Y, s: 0.0 * s, g=lambda X: 0.3 * np.cos(np.atleast_2d(X)[:, 0]),
            M=1.0, lipschitz=0.0, psi_bound=0.0)
        cert = leray_schauder_degree(p, N, 20, 7)
        assert cert.degree == 1, N


def test_pipeline_budget_discipline():
    # a wiggly kernel cannot be fit at N = 0 within tau/3: certificate refused
    nodes, w = uniform_grid_1d(0.0, 1.0, 41)
    p = HammersteinProblem(
        nodes=nodes, weights=w,
        kernel=lambda X, Y: 0.8 * np.cos(9.0 * X[..., 0]) * np.exp(-Y[..., 0]),
        psi=lambda Y, s: s, g=lambda X: np.full(len(np.atleast_2d(X)), 0.1),
        M=1.0, lipschitz=1.0, psi_bound=1.0)
    with pytest.raises(BudgetExceeded):
        leray_schauder_degree(p, 0, 20, 7)


def test_pipeline_refuses_negative_psi_bound():
    # k_err = fit error * psi_bound would be negative and pass the tau/3 budget
    nodes, w = uniform_grid_1d(0.0, 1.0, 41)
    with pytest.raises(ValueError):
        HammersteinProblem(
            nodes=nodes, weights=w, kernel=constant_kernel(0.5), psi=lambda Y, s: s,
            g=lambda X: np.full(len(np.atleast_2d(X)), 0.1),
            M=1.0, lipschitz=1.0, psi_bound=-1.0)


def test_pipeline_homotopy_invariance():
    degs = []
    for eta in (0.0, 0.05, 0.1, 0.15, 0.2):
        nodes, w = uniform_grid_1d(0.0, 1.0, 41)
        p = HammersteinProblem(
            nodes=nodes, weights=w, kernel=constant_kernel(0.3),
            psi=(lambda eta: lambda Y, s: s + eta * np.tanh(s))(eta),
            g=lambda X: np.full(len(np.atleast_2d(X)), 0.2),
            M=1.0, lipschitz=1.0 + eta, psi_bound=1.0 + eta)
        degs.append(leray_schauder_degree(p, 0, 20, 7).degree)
    assert len(set(degs)) == 1


def test_existence_requires_nonzero_degree():
    p = linear_problem(0.3, 0.2)
    cert = leray_schauder_degree(p, 0, 20, 7)
    zero_cert = DegreeCertificate(**{**json.loads(cert.to_json())})
    zero_cert.degree = 0
    with pytest.raises(ValueError):
        existence_from_degree(zero_cert, p)


def test_certificate_replay_identical():
    p = linear_problem(0.3, 0.2)
    a = leray_schauder_degree(p, 0, 20, 7).to_json()
    b = leray_schauder_degree(p, 0, 20, 7).to_json()
    assert a == b
