import numpy as np
import pytest
import scipy.linalg

from cgflow import (
    CoefficientField,
    CubeOperator,
    EnsembleSpec,
    generate,
    harmonic_pool,
    root_cube,
    solve_v,
    subcubes,
)
from cgflow.errors import ConvergenceError, PreconditionError
from cgflow.solver import DEFAULT_SETTINGS, banded_cost, stack_level


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
    sol = CubeOperator(f, f.cube).solve_dirichlet(p)
    np.testing.assert_allclose(sol.mean_gradient, p, atol=1e-10)


def test_neumann_constant_field():
    f = constant_field(2, 1, c=4.0)
    q = np.array([2.0, -1.0])
    sol = CubeOperator(f, f.cube).solve_neumann(q)
    np.testing.assert_allclose(sol.mean_flux, q, atol=1e-10)
    assert sol.energy == pytest.approx(0.5 * q @ q / 4.0, rel=1e-10)
    # Gauge: zero mean.
    assert abs(sol.values.mean()) < 1e-12


def test_neumann_mean_flux_is_q():
    # Pairing with affine test functions forces the mean flux to q exactly.
    f = lognormal_field(2, 2, seed=6)
    q = np.array([1.0, 0.5])
    sol = CubeOperator(f, f.cube).solve_neumann(q)
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
    sol = CubeOperator(f, f.cube).solve_dirichlet([1.0])
    cells = f.cells[:, 0, 0]
    hmean = 1.0 / np.mean(1.0 / cells)
    assert 2.0 * sol.energy == pytest.approx(hmean, rel=1e-12)


def test_1d_neumann_closed_form():
    # w' = q / a pointwise in 1d, so the energy is q^2/2 times the mean of 1/a.
    f = lognormal_field(1, 2, seed=5)
    q = 1.5
    sol = CubeOperator(f, f.cube).solve_neumann([q])
    cells = f.cells[:, 0, 0]
    grads = CubeOperator(f, f.cube).cell_gradients(sol.values)[:, 0]
    np.testing.assert_allclose(grads, q / cells, rtol=1e-11)
    assert sol.energy == pytest.approx(0.5 * q * q * np.mean(1.0 / cells), rel=1e-11)


def test_iterative_path_matches_direct(solver_settings, banded_calls):
    f = lognormal_field(2, 2, seed=8)
    slopes = (np.array([1.0, 0.0]), np.array([0.3, -0.8]))

    def solves():
        op = CubeOperator(f, f.cube)
        return ([op.solve_dirichlet(p).values for p in slopes]
                + [op.solve_neumann([1.0, 1.0]).values])

    direct = solves()  # the default cap: three banded solves
    assert len(banded_calls) == 3
    solver_settings(direct_cost_cap=0)
    for a, b in zip(direct, solves()):
        np.testing.assert_allclose(a, b, atol=1e-7)
    assert len(banded_calls) == 3


def test_pcg_that_misses_tolerance_raises_with_residual(solver_settings):
    # One iteration per unknown cannot reach 1e-14 at contrast 1e4.
    spec = EnsembleSpec(
        "two_phase_iid", {"prob_hi": 0.5, "sigma_hi": 100.0, "sigma_lo": 0.01}, 3
    )
    f = generate(spec, 1, 3)
    settings = solver_settings(tolerance=1e-14, max_iter_factor=1, direct_cost_cap=0)
    op = CubeOperator(f, f.cube)
    for solve in (op.solve_dirichlet, op.solve_neumann):
        with pytest.raises(ConvergenceError) as info:
            solve([1.0])
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


@pytest.mark.parametrize("backend", ["banded", "pcg"])
def test_stacked_solves_equal_column_solves(solver_settings, banded_calls, backend):
    # One block solve (one factorization on the banded path, PCG per column
    # above the cost cap) gives the column-by-column potentials; a zero
    # column stays zero.
    f = lognormal_field(2, 2, seed=14)
    op = CubeOperator(f, f.cube)
    if backend == "pcg":
        solver_settings(direct_cost_cap=0)
    rng = np.random.default_rng(14)
    slopes = rng.standard_normal((2, 3))
    slopes[:, 1] = 0.0
    data = rng.standard_normal((len(op.boundary_idx), 3))
    for solve, block in ((op.solve_dirichlet, slopes), (op.solve_neumann, slopes),
                         (op.solve_dirichlet_data, data)):
        stacked = solve(block)
        columns = [solve(block[:, j]) for j in range(3)]
        assert stacked.values.shape == (op.n_nodes, 3)
        assert isinstance(stacked.residual, float)
        assert stacked.residual == pytest.approx(
            max(c.residual for c in columns), rel=1e-3, abs=1e-15)
        for j, col in enumerate(columns):
            scale = max(np.abs(col.values).max(), 1.0)
            np.testing.assert_allclose(stacked.values[:, j], col.values,
                                       rtol=0.0, atol=1e-12 * scale)
    assert not np.any(op.solve_neumann(slopes).values[:, 1])
    # One banded solve per call (3 kinds x 4 calls, plus the last one) but
    # for the two calls whose single column is zero.
    assert len(banded_calls) == (11 if backend == "banded" else 0)


@pytest.mark.parametrize("backend", ["banded", "split", "pcg"])
def test_block_diagonal_solves_equal_per_cube_solves(solver_settings, banded_calls,
                                                     backend):
    # The level-1 operator of a 2d L2 cube solves its 9 subcubes at once:
    # one banded solve per call within the cap; above it, one solve per
    # subcube, banded where the subcube's own cost is within the cap, PCG
    # to the tolerance otherwise.  Each block equals that subcube's own solve.
    f = lognormal_field(2, 2, seed=17)
    cap = {"banded": DEFAULT_SETTINGS.direct_cost_cap, "split": banded_cost(2, 1),
           "pcg": 0}[backend]
    settings = solver_settings(direct_cost_cap=cap)
    op = CubeOperator(f, f.cube, level=1)
    subs = [CubeOperator(f, sub) for sub in subcubes(f.cube, 1)]
    assert op.blocks == 9 and op.n_nodes == 9 * 16
    np.testing.assert_array_equal(op.stiffness.toarray(), scipy.linalg.block_diag(
        *[s.stiffness.toarray() for s in subs]))
    data = np.random.default_rng(17).standard_normal((len(op.boundary_idx), 2))
    per_block = data.reshape(9, -1, 2)
    eye = np.eye(2)
    solves = [(op.solve_dirichlet(eye), [s.solve_dirichlet(eye) for s in subs]),
              (op.solve_neumann(eye), [s.solve_neumann(eye) for s in subs]),
              (op.solve_dirichlet_data(data),
               [s.solve_dirichlet_data(x) for s, x in zip(subs, per_block)])]
    for stacked, singles in solves:
        assert isinstance(stacked.residual, float)
        values = stacked.values.reshape(9, 16, 2)
        for block, single in zip(values, singles):
            if backend == "pcg":
                np.testing.assert_allclose(block, single.values, atol=1e-7)
            else:
                scale = np.abs(single.values).max()
                np.testing.assert_allclose(block, single.values, rtol=0.0,
                                           atol=1e-12 * scale)
        if backend == "pcg":
            assert stacked.residual <= settings.tolerance
        else:
            assert stacked.residual < 1e-12
    # 3 stacked calls (one per subcube when split) and 27 single ones.
    assert len(banded_calls) == {"banded": 30, "split": 54, "pcg": 0}[backend]


@pytest.mark.parametrize("d, level", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3),
                                      (3, 1), (3, 2)])
def test_banded_cost_is_what_a_cube_neumann_solve_costs(solver_settings,
                                                       banded_calls, d, level):
    # banded_cost is the cost _solve_spd charges one cube's Neumann solve,
    # the larger of its two: at that cap the solve is banded, below it not.
    f = lognormal_field(d, level, seed=19)
    op = CubeOperator(f, f.cube)
    eye = np.eye(d)
    solver_settings(direct_cost_cap=banded_cost(d, level))
    op.solve_neumann(eye)
    op.solve_dirichlet(eye)
    (rows, unknowns), (rows_d, unknowns_d) = banded_calls
    assert banded_cost(d, level) == unknowns * rows ** 2 > unknowns_d * rows_d ** 2
    solver_settings(direct_cost_cap=banded_cost(d, level) - 1)
    op.solve_neumann(eye)
    assert len(banded_calls) == 2


def test_stack_level_is_the_largest_directly_solved_cube(solver_settings):
    # Default cap: 2d cubes up to level 5 and 3d up to level 2 are banded.
    assert stack_level(2, 1, 4) == 4
    assert stack_level(2, 4, 6) == 5
    assert stack_level(2, 1, 6) == 5
    assert stack_level(3, 1, 4) == 2
    assert stack_level(3, 3, 4) == 3  # above the cap: one cube per stack
    solver_settings(direct_cost_cap=banded_cost(2, 2))
    assert [stack_level(2, k, 4) for k in (1, 2, 3, 4)] == [2, 2, 3, 4]
    solver_settings(direct_cost_cap=0)
    assert [stack_level(1, k, 3) for k in (1, 2, 3)] == [1, 2, 3]


def test_block_diagonal_quadratures_average_over_the_cube():
    # Volume-normalized energies and mean gradients of a stacked operator
    # are the means of the subcubes' own.
    f = lognormal_field(2, 2, seed=18)
    op = CubeOperator(f, f.cube, level=1)
    subs = [CubeOperator(f, sub) for sub in subcubes(f.cube, 1)]
    w = np.random.default_rng(18).standard_normal(op.n_nodes)
    parts = w.reshape(9, 16)
    assert op.energy(w) == pytest.approx(
        np.mean([s.energy(x) for s, x in zip(subs, parts)]), rel=1e-13)
    np.testing.assert_allclose(
        op.mean_flux(w), np.mean([s.mean_flux(x) for s, x in zip(subs, parts)], axis=0),
        rtol=1e-13)


def test_flux_load_of_stacked_fluxes_is_columnwise():
    f = lognormal_field(2, 2, seed=15)
    op = CubeOperator(f, f.cube)
    fluxes = np.random.default_rng(15).standard_normal((2, 4))
    stacked = op.flux_load(fluxes)
    assert stacked.shape == (op.n_nodes, 4)
    for j in range(4):
        np.testing.assert_allclose(stacked[:, j], op.flux_load(fluxes[:, j]),
                                   rtol=0.0, atol=1e-15)


def anisotropic_field(d, m, seed):
    # Full SPD cell matrices: the stiffness matrix couples every direction.
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((3 ** (d * m), d, d))
    cells = r @ r.transpose(0, 2, 1) + 0.5 * np.eye(d)
    return CoefficientField(d, m, cells.reshape((3 ** m,) * d + (d, d)))


@pytest.mark.parametrize("field", [
    pytest.param(lambda: lognormal_field(1, 3, seed=16), id="1d-L3"),
    pytest.param(lambda: lognormal_field(2, 3, seed=16), id="2d-L3"),
    pytest.param(lambda: lognormal_field(3, 2, seed=16), id="3d-L2"),
    pytest.param(lambda: anisotropic_field(2, 3, seed=16), id="2d-L3-anisotropic"),
])
def test_banded_solves_match_dense_oracle(banded_calls, field):
    # Dirichlet and pinned Neumann block solves against np.linalg.solve on
    # the densified system.
    f = field()
    d = f.dimension
    op = CubeOperator(f, f.cube)
    K = op.stiffness.toarray()
    ii = op.interior_idx
    rng = np.random.default_rng(16)
    data = rng.standard_normal((len(op.boundary_idx), 2))
    dirichlet = np.zeros((op.n_nodes, 2))
    dirichlet[op.boundary_idx] = data
    dirichlet[ii] = np.linalg.solve(K[np.ix_(ii, ii)], -(K @ dirichlet)[ii])
    fluxes = rng.standard_normal((d, 2))
    neumann = np.zeros((op.n_nodes, 2))
    neumann[1:] = np.linalg.solve(K[1:, 1:], op.flux_load(fluxes)[1:])
    neumann -= neumann.mean(axis=0)
    for sol, oracle in ((op.solve_dirichlet_data(data), dirichlet),
                        (op.solve_neumann(fluxes), neumann)):
        np.testing.assert_allclose(sol.values, oracle, rtol=0.0,
                                   atol=1e-12 * np.abs(oracle).max())
        assert sol.residual < 1e-12
    assert len(banded_calls) == 2


@pytest.mark.parametrize("seed", range(6))
def test_pcg_meets_its_tolerance_or_raises(solver_settings, seed):
    # At contrast 1e4 a tolerance of 1e-12 is near the attainable accuracy
    # of the Neumann system; restarted PCG either reaches it or raises, and
    # never returns a residual above it.
    spec = EnsembleSpec(
        "two_phase_iid", {"prob_hi": 0.5, "sigma_hi": 100.0, "sigma_lo": 0.01}, seed
    )
    f = generate(spec, 2, 2)
    op = CubeOperator(f, f.cube)
    settings = solver_settings(tolerance=1e-12, direct_cost_cap=0)
    for solve in (op.solve_dirichlet, op.solve_neumann):
        try:
            sol = solve(np.eye(2))
        except ConvergenceError as exc:
            assert exc.residual > settings.tolerance
        else:
            assert sol.residual <= settings.tolerance
