import numpy as np
import pytest

from cgflow import (
    CubeOperator,
    EnsembleSpec,
    SolverSettings,
    generate,
    harmonic_pool,
    root_cube,
    solve_dirichlet,
    solve_neumann,
    solve_v,
)
from cgflow.errors import ConvergenceError, PreconditionError


def lognormal_field(d, m, seed=0, sigma=0.8):
    spec = EnsembleSpec("lognormal_iid", {"log_mean": 0.0, "log_sigma": sigma}, seed)
    return generate(spec, d, m)


def constant_field(d, m, c=2.0):
    return generate(EnsembleSpec("constant", {"value": c}), d, m)


def test_stiffness_is_symmetric_and_singular():
    f = lognormal_field(2, 1)
    K = CubeOperator(f, f.cube).stiffness.toarray()
    np.testing.assert_allclose(K, K.T, atol=1e-14)
    # Constants are in the kernel.
    np.testing.assert_allclose(K @ np.ones(K.shape[0]), 0.0, atol=1e-12)


def test_affine_representation_exact():
    f = constant_field(2, 1, c=3.0)
    op = CubeOperator(f, f.cube)
    p = np.array([1.5, -0.5])
    w = op.affine(p)
    np.testing.assert_allclose(op.mean_gradient(w), p, atol=1e-13)
    np.testing.assert_allclose(op.mean_flux(w), 3.0 * p, atol=1e-12)
    assert op.energy(w) == pytest.approx(0.5 * 3.0 * p @ p)


def test_dirichlet_constant_field_is_affine():
    f = constant_field(2, 2, c=5.0)
    op = CubeOperator(f, f.cube)
    p = np.array([1.0, 2.0])
    sol = op.solve_dirichlet(p)
    np.testing.assert_allclose(sol.values, op.affine(p), atol=1e-10)
    np.testing.assert_allclose(sol.mean_gradient, p, atol=1e-11)
    assert sol.energy == pytest.approx(0.5 * 5.0 * p @ p, rel=1e-10)


def test_dirichlet_mean_gradient_is_p():
    # The corrector has zero boundary values, so the mean gradient is exactly
    # the prescribed slope whatever the coefficients.
    f = lognormal_field(2, 2, seed=3)
    p = np.array([0.7, -1.2])
    sol = solve_dirichlet(f, f.cube, p)
    np.testing.assert_allclose(sol.mean_gradient, p, atol=1e-10)


def test_neumann_constant_field():
    f = constant_field(2, 1, c=4.0)
    q = np.array([2.0, -1.0])
    sol = solve_neumann(f, f.cube, q)
    np.testing.assert_allclose(sol.mean_flux, q, atol=1e-10)
    assert sol.energy == pytest.approx(0.5 * q @ q / 4.0, rel=1e-10)
    # Gauge: zero mean.
    assert abs(sol.values.mean()) < 1e-12


def test_neumann_mean_flux_is_q():
    # Pairing with affine test functions forces the mean flux to q exactly.
    f = lognormal_field(2, 2, seed=6)
    q = np.array([1.0, 0.5])
    sol = solve_neumann(f, f.cube, q)
    np.testing.assert_allclose(sol.mean_flux, q, atol=1e-9)


def test_solutions_are_discrete_harmonic():
    f = lognormal_field(2, 2, seed=9)
    op = CubeOperator(f, f.cube)
    for sol in (op.solve_dirichlet([1.0, 0.0]), op.solve_neumann([0.0, 1.0])):
        op.require_harmonic(sol.values, tol=1e-8)


def test_require_harmonic_rejects_noise():
    f = lognormal_field(2, 1, seed=2)
    op = CubeOperator(f, f.cube)
    w = np.random.default_rng(0).standard_normal(op.n_nodes)
    with pytest.raises(PreconditionError):
        op.require_harmonic(w, tol=1e-6)


def test_1d_dirichlet_matches_harmonic_mean():
    f = lognormal_field(1, 2, seed=4)
    sol = solve_dirichlet(f, f.cube, [1.0])
    cells = f.cells[:, 0, 0]
    hmean = 1.0 / np.mean(1.0 / cells)
    assert 2.0 * sol.energy == pytest.approx(hmean, rel=1e-12)


def test_1d_neumann_closed_form():
    # w' = q / a pointwise in 1d, so the energy is q^2/2 times the mean of 1/a.
    f = lognormal_field(1, 2, seed=5)
    q = 1.5
    sol = solve_neumann(f, f.cube, [q])
    cells = f.cells[:, 0, 0]
    grads = CubeOperator(f, f.cube).cell_gradients(sol.values)[:, 0]
    np.testing.assert_allclose(grads, q / cells, rtol=1e-11)
    assert sol.energy == pytest.approx(0.5 * q * q * np.mean(1.0 / cells), rel=1e-11)


def test_iterative_path_matches_direct():
    f = lognormal_field(2, 2, seed=8)
    tight = SolverSettings(direct_threshold=10_000)
    loose = SolverSettings(direct_threshold=1)
    for p in (np.array([1.0, 0.0]), np.array([0.3, -0.8])):
        a = solve_dirichlet(f, f.cube, p, tight)
        b = solve_dirichlet(f, f.cube, p, loose)
        np.testing.assert_allclose(a.values, b.values, atol=1e-7)
    qa = solve_neumann(f, f.cube, [1.0, 1.0], tight)
    qb = solve_neumann(f, f.cube, [1.0, 1.0], loose)
    np.testing.assert_allclose(qa.values, qb.values, atol=1e-7)


def test_pcg_that_misses_tolerance_raises_with_residual():
    # One iteration per unknown cannot reach 1e-14 at contrast 1e4.
    spec = EnsembleSpec(
        "two_phase_iid", {"prob_hi": 0.5, "sigma_hi": 100.0, "sigma_lo": 0.01}, 3
    )
    f = generate(spec, 1, 3)
    settings = SolverSettings(tolerance=1e-14, max_iter_factor=1, direct_threshold=1)
    for solve in (solve_dirichlet, solve_neumann):
        with pytest.raises(ConvergenceError) as info:
            solve(f, f.cube, [1.0], settings)
        assert info.value.residual > settings.tolerance


def test_solve_v_energy_decomposition():
    # The combined maximizer's energy splits exactly into the Dirichlet and
    # Neumann parts: the cross term vanishes by discrete orthogonality.
    f = lognormal_field(2, 2, seed=10)
    op = CubeOperator(f, f.cube)
    p, q = np.array([1.0, -0.5]), np.array([0.5, 2.0])
    wd = op.solve_dirichlet(-p)
    wn = op.solve_neumann(q)
    v = solve_v(f, f.cube, p, q)
    cross = wd.values @ (op.stiffness @ wn.values) / op.volume
    assert v.energy == pytest.approx(wd.energy + wn.energy + cross, rel=1e-9)


def test_harmonic_pool_is_seeded():
    f = lognormal_field(2, 1, seed=12)
    a = harmonic_pool(f, f.cube, 3, seed=77)
    b = harmonic_pool(f, f.cube, 3, seed=77)
    c = harmonic_pool(f, f.cube, 3, seed=78)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert not np.array_equal(a[0], c[0])
    op = CubeOperator(f, f.cube)
    for w in a:
        op.require_harmonic(w, tol=1e-8)


def test_subcube_operator_uses_local_coordinates():
    f = lognormal_field(2, 2, seed=13)
    from cgflow import TriadicCube

    sub = TriadicCube(1, (3, 6))
    op = CubeOperator(f, sub)
    assert op.n_nodes == 16
    np.testing.assert_array_equal(
        op.cell_matrices.reshape(3, 3, 2, 2), f.cells_in(sub)
    )


@pytest.mark.parametrize("direct_threshold", [1000, 1])
def test_stacked_solves_equal_column_solves(direct_threshold):
    # One block solve (one factorization on the dense path, PCG per column
    # above direct_threshold) gives the column-by-column potentials; a zero
    # column stays zero.
    f = lognormal_field(2, 2, seed=14)
    op = CubeOperator(f, f.cube)
    settings = SolverSettings(direct_threshold=direct_threshold)
    rng = np.random.default_rng(14)
    slopes = rng.standard_normal((2, 3))
    slopes[:, 1] = 0.0
    data = rng.standard_normal((len(op.boundary_idx), 3))
    for solve, block in ((op.solve_dirichlet, slopes), (op.solve_neumann, slopes),
                         (op.solve_dirichlet_data, data)):
        stacked = solve(block, settings)
        columns = [solve(block[:, j], settings) for j in range(3)]
        assert stacked.values.shape == (op.n_nodes, 3)
        assert isinstance(stacked.residual, float)
        assert stacked.residual == pytest.approx(
            max(c.residual for c in columns), rel=1e-3, abs=1e-15)
        for j, col in enumerate(columns):
            scale = max(np.abs(col.values).max(), 1.0)
            np.testing.assert_allclose(stacked.values[:, j], col.values,
                                       rtol=0.0, atol=1e-12 * scale)
    assert not np.any(op.solve_neumann(slopes, settings).values[:, 1])


def test_flux_load_of_stacked_fluxes_is_columnwise():
    f = lognormal_field(2, 2, seed=15)
    op = CubeOperator(f, f.cube)
    fluxes = np.random.default_rng(15).standard_normal((2, 4))
    stacked = op.flux_load(fluxes)
    assert stacked.shape == (op.n_nodes, 4)
    for j in range(4):
        np.testing.assert_allclose(stacked[:, j], op.flux_load(fluxes[:, j]),
                                   rtol=0.0, atol=1e-15)
