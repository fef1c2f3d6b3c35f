import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from cgflow import (
    CoefficientField,
    CubeOperator,
    EnsembleSpec,
    generate,
    harmonic_pool,
    root_cube,
    solve_v,
    solver,
    subcubes,
)
from cgflow.coarse import coarse_pair, j_functional, level_pairs
from cgflow.errors import ConvergenceError, PreconditionError
from cgflow.solver import (
    DEFAULT_SETTINGS,
    _coarsen,
    _product,
    _reference_grad_integrals,
    _stencil_matrix,
    _transfer,
    banded_cost,
    stack_level,
)


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


def test_1d_unit_cell_neumann_solve():
    # One cell, two nodes: after the pin one unknown is left.  The Neumann
    # solution is q/a (x - 1/2), and solve_v's energy is J.
    f = lognormal_field(1, 0, seed=6)
    a, q = f.cells[0, 0, 0], 1.5
    sol = CubeOperator(f, f.cube).solve_neumann([q])
    np.testing.assert_allclose(sol.values, q / a * np.array([-0.5, 0.5]), rtol=1e-14)
    assert sol.energy == pytest.approx(0.5 * q * q / a, rel=1e-14)
    v = solve_v(CubeOperator(f, f.cube), [0.7], [q])
    assert v.energy == pytest.approx(j_functional(coarse_pair(f, f.cube), [0.7], [q]),
                                     rel=1e-12)


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


def test_pcg_that_misses_tolerance_raises_with_residual(solver_settings, cg_runs):
    # A tolerance of 1e-20 is out of reach: each one-column solve runs CG
    # once and then REFINEMENTS times on its residual, all runs with the
    # solve's one preconditioner, and raises.
    spec = EnsembleSpec(
        "two_phase_iid", {"prob_hi": 0.5, "sigma_hi": 100.0, "sigma_lo": 0.01}, 3
    )
    f = generate(spec, 1, 3)
    settings = solver_settings(tolerance=1e-20, direct_cost_cap=0)
    op = CubeOperator(f, f.cube)
    for solve in (op.solve_dirichlet, op.solve_neumann):
        cg_runs.clear()
        with pytest.raises(ConvergenceError) as info:
            solve([1.0])
        assert info.value.residual > settings.tolerance
        assert len(cg_runs) == 1 + solver.REFINEMENTS
        assert len({id(run.M) for run in cg_runs}) == 1


def test_solve_v_energy_decomposition():
    # The combined maximizer's energy splits exactly into the Dirichlet and
    # Neumann parts: the cross term vanishes by discrete orthogonality.
    f = lognormal_field(2, 2, seed=10)
    op = CubeOperator(f, f.cube)
    p, q = np.array([1.0, -0.5]), np.array([0.5, 2.0])
    wd = op.solve_dirichlet(-p)
    wn = op.solve_neumann(q)
    v = solve_v(op, p, q)
    cross = wd.values @ (op.stiffness @ wn.values) / op.volume
    assert v.energy == pytest.approx(wd.energy + wn.energy + cross, rel=1e-9)


def test_harmonic_pool_is_seeded():
    f = lognormal_field(2, 1, seed=12)
    op = CubeOperator(f, f.cube)
    a = harmonic_pool(op, 3, seed=77)
    b = harmonic_pool(op, 3, seed=77)
    c = harmonic_pool(op, 3, seed=78)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert not np.array_equal(a[0], c[0])
    for w in a:
        op.require_harmonic(w, tol=1e-8)


@pytest.mark.parametrize("d", [2, 3])
def test_unit_cube_solves_return_the_boundary_data(d):
    # A unit cube has no interior nodes: the Dirichlet solution is its data.
    f = lognormal_field(d, 0, seed=14)
    op = CubeOperator(f, f.cube)
    p, q = np.linspace(0.5, 1.5, d), np.linspace(-1.0, 0.5, d)
    w = op.solve_dirichlet(np.column_stack([p, -p]))
    np.testing.assert_array_equal(w.values, op.affine(np.column_stack([p, -p])))
    assert w.residual == 0.0
    v = solve_v(op, p, q)
    assert v.energy == pytest.approx(j_functional(coarse_pair(f, f.cube), p, q),
                                     rel=1e-12)
    pool = harmonic_pool(op, 3, seed=5)
    data = np.random.Generator(np.random.Philox(key=np.uint64(5))).standard_normal(
        (3, 2 ** d))
    np.testing.assert_array_equal(np.array(pool), data)


def test_level0_stack_dirichlet_is_the_affine_data():
    f = lognormal_field(2, 2, seed=15)
    op = CubeOperator(f, f.cube, 0)
    w = op.solve_dirichlet(np.eye(2))
    np.testing.assert_array_equal(w.values, op.affine(np.eye(2)))
    assert w.residual == 0.0
    p = np.array([1.0, -2.0])
    energy = 0.5 * np.einsum("i,cij,j->", p, op.cell_matrices, p) / op.volume
    assert op.solve_dirichlet(p).energy == pytest.approx(energy, rel=1e-12)


def kron_prolongation(grid, singular):
    """P as the Kronecker product of the 1d interpolations, through scipy's
    COO kron: the oracle for the transfers and the Galerkin stencils."""
    side = grid[1] - 1 if singular else grid[1] + 1
    fine = np.arange(side + 1)
    coarse, r = np.divmod(fine, 3)
    shared = r > 0
    P1 = scipy.sparse.csr_array(
        (np.concatenate([1 - r / 3, r[shared] / 3]),
         (np.concatenate([fine, fine[shared]]),
          np.concatenate([coarse, coarse[shared] + 1]))),
        shape=(side + 1, side // 3 + 1))
    if not singular:
        P1 = P1[1:-1, 1:-1]
    P = scipy.sparse.identity(grid[0], format="csr")
    for _ in grid[1:]:
        P = scipy.sparse.kron(P, P1, format="csr")
    return P


def assert_transfers_match(tiles, grid, P):
    """_transfer's prolongation and restriction on the fine lattice `grid`
    equal the oracle P and its transpose to 1e-15 relative: column by
    column where P would take at most 16 MB dense, on 3 random vectors
    above that."""
    n_f, n_c = P.shape
    if n_f * n_c <= 2e6:
        pairs = [(np.column_stack([_transfer(tiles, np.eye(1, n_c, j)[0], grid, False)
                                   for j in range(n_c)]), P.toarray()),
                 (np.column_stack([_transfer(tiles, np.eye(1, n_f, j)[0], grid, True)
                                   for j in range(n_f)]), P.T.toarray())]
    else:
        rng = np.random.default_rng(0)
        pairs = []
        for _ in range(3):
            v, r = rng.standard_normal(n_c), rng.standard_normal(n_f)
            pairs += [(_transfer(tiles, v, grid, False), P @ v),
                      (_transfer(tiles, r, grid, True), P.T @ r)]
    for ours, oracle in pairs:
        assert ours.shape == oracle.shape
        assert np.abs(ours - oracle).max() <= 1e-15 * np.abs(oracle).max()


def recorded_coarsenings(monkeypatch):
    """A list that gains (stencil, grid, singular, result) for every
    _coarsen call made for the rest of one test."""
    calls = []

    def recorded(stencil, grid, singular):
        result = _coarsen(stencil, grid, singular)
        calls.append((stencil, grid, singular, result))
        return result

    monkeypatch.setattr(solver, "_coarsen", recorded)
    return calls


def recorded_hierarchies(monkeypatch):
    """A list that gains (levels, inverse) for every V-cycle hierarchy
    _multigrid builds and applies for the rest of one test."""
    hierarchies = []
    v_cycle = solver._v_cycle

    def recorded(levels, inverse, b, k=0):
        if k == 0 and not any(levels is seen for seen, _ in hierarchies):
            hierarchies.append((levels, inverse))
        return v_cycle(levels, inverse, b, k)

    monkeypatch.setattr(solver, "_v_cycle", recorded)
    return hierarchies


@pytest.mark.parametrize("d, m, level", [(1, 7, None), (1, 7, 6), (2, 3, None),
                                         (2, 4, None), (3, 2, None), (3, 3, None),
                                         (2, 3, 2)],
                         ids=["1d-L7", "1d-L7-level6", "2d-L3", "2d-L4", "3d-L2",
                              "3d-L3", "2d-L3-level2"])
@pytest.mark.parametrize("laminate", [False, True], ids=["two-phase", "laminate"])
def test_coarse_stencils_are_galerkin_products(solver_settings, monkeypatch,
                                               d, m, level, laminate):
    # Every level of both hierarchies: the transfers apply the Kronecker
    # product P of the 1d interpolations and its transpose (1 to 81 tiles
    # per axis in 1d, 1 to 3 in 2d and 3d), and the coarse stencil's DIA
    # matrix is P^T A P for the fine level's, Dirichlet boundary couplings
    # dropped, down to cubes of side 3.  The hierarchies are built before
    # CG starts, so a loose tolerance keeps the solves short.
    f = laminate_field(d, m) if laminate else two_phase_field(d, m, 100.0, seed=21)
    calls = recorded_coarsenings(monkeypatch)
    solver_settings(direct_cost_cap=0, tolerance=1.0)
    op = CubeOperator(f, f.cube, level)
    op.solve_dirichlet(np.eye(d)[0])
    op.solve_neumann(np.eye(d)[0])
    levels = (m if level is None else level) - 1
    singulars = [singular for _, _, singular, _ in calls]
    assert singulars == [False] * levels + [True] * levels
    for k, (stencil, grid, singular, (coarse, coarse_grid, tiles)) in enumerate(calls):
        # Cubes of side 3^(levels + 1 - k % levels), coarsened to a third.
        side = 3 ** (levels + 1 - k % levels)
        width, coarse_width = (side + 1, side // 3 + 1) if singular else (side - 1, side // 3 - 1)
        assert grid == (op.blocks,) + (width,) * d
        assert coarse_grid == (op.blocks,) + (coarse_width,) * d
        if k % levels:
            np.testing.assert_array_equal(stencil, calls[k - 1][3][0])
        ref = kron_prolongation(grid, singular)
        assert_transfers_match(tiles, grid, ref)
        galerkin = ref.T @ _stencil_matrix(stencil, grid) @ ref
        A = _stencil_matrix(coarse, coarse_grid)
        assert abs(A - galerkin).max() <= 1e-14 * abs(galerkin).max()


@pytest.mark.parametrize("d, w, singular", [(2, 26, False), (2, 82, True),
                                             (3, 10, True), (3, 80, False)],
                         ids=["2d-one-tile", "2d-tiles", "3d-one-tile", "3d-tiles"])
def test_transfers_keep_float32(d, w, singular):
    # The V-cycle's hierarchy is float32: both transfers of a float32 vector
    # with float32 tiles stay float32 (a float64 accumulator would silently
    # run the coarse levels in float64) and equal the float64 transfers of
    # the same vector to float32 rounding, at most 5 roundings per entry
    # and axis, relative to the float64 transfer of |x|.  The tiles depend
    # on w alone, so a 1d lattice gives them.
    tiles = _coarsen(np.zeros((3, w)), (1, w), singular)[2]
    assert (len(tiles) == 1) == (w < 29)
    tiles32 = [(rows, cols, block.astype(np.float32)) for rows, cols, block in tiles]
    grid = (2,) + (w,) * d
    w_c = tiles[-1][1].stop
    rng = np.random.default_rng(1)
    for restrict, n in ((True, math.prod(grid)), (False, 2 * w_c ** d)):
        x = rng.standard_normal(n).astype(np.float32)
        ours = _transfer(tiles32, x, grid, restrict)
        assert ours.dtype == np.float32
        oracle = _transfer(tiles, x.astype(np.float64), grid, restrict)
        bound = 5 * d * np.finfo(np.float32).eps * _transfer(tiles, np.abs(x, dtype=float),
                                                             grid, restrict)
        assert (np.abs(ours - oracle) <= bound).all()


@pytest.mark.parametrize("d, m, cells", [(2, 2, "two-phase"), (3, 1, "two-phase"),
                                         (3, 2, "two-phase"), (2, 3, "laminate"),
                                         (2, 2, "lognormal")])
def test_coarse_stencil_of_a_repeated_field_is_its_stencil(solver_settings,
                                                           monkeypatch, d, m, cells):
    # The Q1 spaces are nested under 3:1 coarsening: on a field whose cells
    # are each repeated 3 times per axis, Galerkin coarsening gives 3^(d-2)
    # times the unrepeated field's stiffness (the energy of u(x/3)), on the
    # whole lattice (Neumann) and among the interior nodes (Dirichlet).
    f = {"two-phase": lambda: two_phase_field(d, m, 1e4, seed=5),
         "laminate": lambda: laminate_field(d, m),
         "lognormal": lambda: lognormal_field(d, m, seed=5, sigma=2.0)}[cells]()
    repeated = f.cells
    for a in range(d):
        repeated = np.repeat(repeated, 3, axis=a)
    g = CoefficientField(d, m + 1, repeated)
    calls = recorded_coarsenings(monkeypatch)
    solver_settings(direct_cost_cap=0, tolerance=1.0)
    op = CubeOperator(g, g.cube)
    op.solve_dirichlet(np.eye(d)[0])
    op.solve_neumann(np.eye(d)[0])
    first = {singular: result for _, _, singular, result in reversed(calls)}
    unrepeated = CubeOperator(f, f.cube)
    stiffness, inner = unrepeated.stiffness.tocsr(), ~unrepeated.boundary
    for singular, ref in ((False, stiffness[inner][:, inner]), (True, stiffness)):
        coarse, grid, _ = first[singular]
        A = _stencil_matrix(coarse, grid)
        assert abs(A - 3.0 ** (d - 2) * ref).max() <= 1e-14 * abs(ref).max()


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
    data = rng.standard_normal((np.count_nonzero(op.boundary), 3))
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


@pytest.mark.parametrize("backend", ["banded", "pcg"])
def test_block_diagonal_solves_equal_per_cube_solves(solver_settings, banded_calls,
                                                     backend):
    # The level-1 operator of a 2d L2 cube solves its 9 subcubes at once:
    # one banded solve per call within the cap, PCG on the whole stack to
    # each subcube's tolerance above it.  Each block equals that subcube's
    # own solve.
    f = lognormal_field(2, 2, seed=17)
    cap = {"banded": DEFAULT_SETTINGS.direct_cost_cap, "pcg": 0}[backend]
    settings = solver_settings(direct_cost_cap=cap)
    op = CubeOperator(f, f.cube, level=1)
    subs = [CubeOperator(f, sub) for sub in subcubes(f.cube, 1)]
    assert op.blocks == 9 and op.n_nodes == 9 * 16
    np.testing.assert_array_equal(op.stiffness.toarray(), scipy.linalg.block_diag(
        *[s.stiffness.toarray() for s in subs]))
    data = np.random.default_rng(17).standard_normal((np.count_nonzero(op.boundary), 2))
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
    # 3 stacked calls and 27 single ones.
    assert len(banded_calls) == {"banded": 30, "pcg": 0}[backend]


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


@pytest.mark.parametrize("field, level", [
    pytest.param(lambda: lognormal_field(1, 3, seed=16), None, id="1d-L3"),
    pytest.param(lambda: lognormal_field(2, 3, seed=16), None, id="2d-L3"),
    pytest.param(lambda: lognormal_field(3, 2, seed=16), None, id="3d-L2"),
    pytest.param(lambda: anisotropic_field(2, 3, seed=16), None, id="2d-L3-anisotropic"),
    # The interior grid of a level-1 cube is 2 nodes wide, so stencil
    # offsets that differ share one band diagonal.
    pytest.param(lambda: lognormal_field(2, 1, seed=16), None, id="2d-L1"),
    pytest.param(lambda: lognormal_field(3, 1, seed=16), None, id="3d-L1"),
    pytest.param(lambda: anisotropic_field(2, 2, seed=16), 1, id="2d-L2-level1"),
    # Band widths of the flow's solves: a contrast-100 2d level-3 cube (b =
    # 29 Neumann), a fully coupled 3d level-2 cube (b = 111) and nine
    # stacked level-2 blocks of a 2d level-3 field.
    pytest.param(lambda: generate(EnsembleSpec("two_phase_iid", {
        "prob_hi": 0.5, "sigma_hi": 10.0, "sigma_lo": 0.1}, 16), 2, 3), None,
        id="2d-L3-two-phase"),
    pytest.param(lambda: anisotropic_field(3, 2, seed=16), None, id="3d-L2-anisotropic"),
    pytest.param(lambda: anisotropic_field(2, 3, seed=16), 2, id="2d-L3-level2"),
])
def test_banded_solves_match_dense_oracle(banded_calls, field, level):
    # Dirichlet and pinned Neumann block solves against np.linalg.solve on
    # the densified system, the first node of every subcube pinned.
    f = field()
    d = f.dimension
    op = CubeOperator(f, f.cube, level)
    K = op.stiffness.toarray()
    inner = ~op.boundary
    rng = np.random.default_rng(16)
    data = rng.standard_normal((np.count_nonzero(op.boundary), 2))
    dirichlet = np.zeros((op.n_nodes, 2))
    dirichlet[op.boundary] = data
    dirichlet[inner] = np.linalg.solve(K[np.ix_(inner, inner)], -(K @ dirichlet)[inner])
    fluxes = rng.standard_normal((d, 2))
    size = op.n_nodes // op.blocks
    free = np.arange(op.n_nodes) % size > 0
    neumann = np.zeros((op.n_nodes, 2))
    neumann[free] = np.linalg.solve(K[np.ix_(free, free)], op.flux_load(fluxes)[free])
    neumann = neumann.reshape(op.blocks, size, 2)
    neumann -= neumann.mean(axis=1, keepdims=True)
    neumann = neumann.reshape(op.n_nodes, 2)
    for sol, oracle in ((op.solve_dirichlet_data(data), dirichlet),
                        (op.solve_neumann(fluxes), neumann)):
        np.testing.assert_allclose(sol.values, oracle, rtol=0.0,
                                   atol=1e-12 * np.abs(oracle).max())
        assert sol.residual < 1e-12
    assert len(banded_calls) == 2


@pytest.mark.parametrize("d, m, level", [(2, 3, None), (3, 2, None), (2, 3, 1)])
def test_columnwise_product_matches_block_product(d, m, level):
    # _product takes the stiffness times each column on its own, in either
    # memory order, and returns the products as rows.  Older scipy forms the
    # block product through CSR, so the sums may differ in the last bit.
    K = CubeOperator(anisotropic_field(d, m, seed=17), root_cube(d, m), level).stiffness
    X = np.random.default_rng(17).standard_normal((K.shape[0], 3))
    atol = 1e-14 * np.abs(K.data).max() * np.abs(X).max()
    for block in (X, np.asfortranarray(X), X[:, :1]):
        np.testing.assert_allclose(_product(K, block), (K @ block).T, rtol=0, atol=atol)
    np.testing.assert_allclose(_product(K, X[:, 0]), (K @ X[:, 0])[None], rtol=0, atol=atol)


@pytest.mark.parametrize("seed", range(8))
def test_banded_solves_meet_the_tolerance_at_high_contrast(banded_calls, seed):
    # At contrast 1e4 the pinned Neumann factor alone leaves true residuals
    # of 0.55-1.4e-9 at 2d L4; one refinement step on the same factor
    # brings them to about 5e-12.
    f = two_phase_field(2, 4, 1e4, seed)
    op = CubeOperator(f, f.cube)
    for solve in (op.solve_dirichlet, op.solve_neumann):
        assert solve(np.eye(2)).residual <= DEFAULT_SETTINGS.tolerance
    assert len(banded_calls) == 2


def back_solves(monkeypatch) -> list:
    """A list that gains one entry per banded back-solve (LAPACK's dpbtrs)
    made in this process for the rest of one test."""
    calls = []
    dpbtrs = scipy.linalg.lapack.dpbtrs

    def counted(*args, **kwargs):
        calls.append(1)
        return dpbtrs(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs", counted)
    return calls


def test_banded_solve_that_misses_tolerance_raises_with_residual(solver_settings,
                                                                 banded_calls,
                                                                 monkeypatch):
    # Each solve factors once, back-solves once and then REFINEMENTS times
    # on its residual with the same factor, and raises.
    f = lognormal_field(2, 2, seed=4)
    settings = solver_settings(tolerance=1e-20)
    op = CubeOperator(f, f.cube)
    solves = back_solves(monkeypatch)
    for solve in (op.solve_dirichlet, op.solve_neumann):
        solves.clear()
        with pytest.raises(ConvergenceError) as info:
            solve(np.eye(2))
        assert settings.tolerance < info.value.residual < 1e-12
        assert len(solves) == 1 + solver.REFINEMENTS
    assert len(banded_calls) == 2


def test_huge_cells_give_finite_residuals():
    # Residual norms of cells near 1e307 overflow unless the vectors are
    # scaled first; the pair reports the residuals of its own solves.
    f = constant_field(2, 1, c=1e307)
    op = CubeOperator(f, f.cube)
    residuals = (op.solve_dirichlet(np.eye(2)).residual,
                 op.solve_neumann(np.eye(2)).residual)
    assert max(residuals) < 1e-12
    a, _, _, pair_residuals = level_pairs(f, f.cube, 1)
    assert pair_residuals == residuals
    np.testing.assert_allclose(a[0] / 1e307, np.eye(2), rtol=0.0, atol=1e-12)


def test_overflowing_solution_raises_convergence_error(monkeypatch):
    # Cells of 1e-300 under a flux of 1e10: the potential overflows, and its
    # NaN residual raises after the first back-solve instead of being
    # returned or refined.
    f = constant_field(2, 1, c=1e-300)
    solves = back_solves(monkeypatch)
    with pytest.raises(ConvergenceError) as info:
        CubeOperator(f, f.cube).solve_neumann([1e10, 0.0])
    assert math.isnan(info.value.residual)
    assert len(solves) == 1


def test_failed_banded_factorization_raises_convergence_error():
    # Cells of 1e16 and 1e-16: the band loses positive definiteness in
    # floating point, and LAPACK's refusal to factor it is a solver failure
    # with a NaN residual.
    f = two_phase_field(2, 3, 1e32, seed=1)
    with pytest.raises(ConvergenceError) as info:
        level_pairs(f, f.cube, 3)
    assert math.isnan(info.value.residual)


@pytest.mark.parametrize("seed", range(6))
def test_pcg_meets_its_tolerance_or_raises(solver_settings, seed):
    # At contrast 1e4 a tolerance of 1e-12 is near the attainable accuracy
    # of the Neumann system; PCG with its refinements either reaches it or
    # raises, and never returns a residual above it.
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


def corner_node_index(op):
    """(cells, 2^d) node index of each cell corner of `op`: cells grouped by
    subcube, each group in C order, and corners in itertools.product order."""
    d = op.dimension
    side = op._grid[1] - 1
    cell = np.indices((op.blocks,) + (side,) * d).reshape(d + 1, -1, 1)
    corners = np.array(list(itertools.product((0, 1), repeat=d)))
    return np.ravel_multi_index(
        (cell[0],) + tuple(cell[1 + a] + corners[:, a] for a in range(d)),
        (op.blocks,) + (side + 1,) * d)


def test_cell_gradients_match_corner_gather():
    # The stacked corner slices give each cell's average gradient exactly as
    # gathering its corner values does.
    for f, level in ((lognormal_field(2, 2, seed=21), 1),
                     (lognormal_field(3, 2, seed=21), None),
                     (lognormal_field(1, 3, seed=21), 2)):
        op = CubeOperator(f, f.cube, level)
        w = np.random.default_rng(21).standard_normal(op.n_nodes)
        np.testing.assert_array_equal(op.cell_gradients(w),
                                      w[corner_node_index(op)] @ op._avg_grad)


@pytest.mark.parametrize("field, level", [
    pytest.param(lambda: anisotropic_field(2, 2, seed=24), None, id="2d-L2-anisotropic"),
    pytest.param(lambda: lognormal_field(3, 1, seed=24), None, id="3d-L1"),
    # A 2-node-wide lattice: stencil offsets that share a step share a diagonal.
    pytest.param(lambda: lognormal_field(2, 1, seed=24), 0, id="2d-L1-level0"),
    pytest.param(lambda: lognormal_field(2, 2, seed=24), 1, id="2d-L2-level1"),
])
def test_stiffness_matches_element_assembly(field, level):
    # K summed cell by cell from the element matrices int grad phi_i . a_c
    # grad phi_j, placed at each cell's corner nodes.
    f = field()
    d = f.dimension
    op = CubeOperator(f, f.cube, level)
    _, G, _ = _reference_grad_integrals(d)
    ke = np.einsum("abij,cab->cij", G, op.cell_matrices)
    index = corner_node_index(op)
    K = np.zeros((op.n_nodes, op.n_nodes))
    np.add.at(K, (index[:, :, None], index[:, None, :]), ke)
    assert isinstance(op.stiffness, scipy.sparse.dia_array)
    if op._grid[1] >= 3:
        assert op.stiffness.data.shape == (3 ** d, op.n_nodes)
    np.testing.assert_allclose(op.stiffness.toarray(), K, rtol=0.0,
                               atol=1e-15 * np.abs(K).max())


def test_solver_keeps_no_lattice_state(solver_settings):
    # A banded pair (2d L3) and a multigrid one (3d L2) on fields that are
    # then dropped leave nothing behind: the solver keeps no index pattern
    # or interpolation per lattice.  Pairs on other lattices first warm the
    # caches keyed by the dimension alone.
    def pairs(level_2d, level_3d):
        f = two_phase_field(2, level_2d, 100, seed=25)
        coarse_pair(f, f.cube)
        solver_settings(direct_cost_cap=0)
        f = two_phase_field(3, level_3d, 100, seed=25)
        coarse_pair(f, f.cube)
        solver_settings()

    pairs(1, 1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pairs(3, 2)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


def test_flux_load_matches_per_cell_accumulation():
    # The per-corner slice-adds give each node the loads of its cells, as
    # gathering every cell's corner loads and summing them per node does.
    for f, level in ((lognormal_field(2, 2, seed=20), 1),
                     (lognormal_field(3, 2, seed=20), None),
                     (lognormal_field(1, 3, seed=20), 2)):
        op = CubeOperator(f, f.cube, level)
        d = f.dimension
        fluxes = np.random.default_rng(20).standard_normal((d, 3))
        per_corner = op._avg_grad @ fluxes
        index = corner_node_index(op)[..., None] * 3 + np.arange(3)
        oracle = np.bincount(index.ravel(),
                             weights=np.broadcast_to(per_corner, index.shape).ravel(),
                             minlength=op.n_nodes * 3).reshape(op.n_nodes, 3)
        np.testing.assert_allclose(op.flux_load(fluxes), oracle, rtol=0.0,
                                   atol=1e-14 * np.abs(oracle).max())
        np.testing.assert_allclose(op.flux_load(fluxes[:, 0]), oracle[:, 0],
                                   rtol=0.0, atol=1e-14 * np.abs(oracle).max())


def two_phase_field(d, m, contrast, seed):
    sigma = math.sqrt(contrast)
    spec = EnsembleSpec("two_phase_iid",
                        {"prob_hi": 0.5, "sigma_hi": sigma, "sigma_lo": 1 / sigma}, seed)
    return generate(spec, d, m)


def laminate_field(d, m, contrast=1e4, seed=22):
    # Cells diag(alpha(x_0), 1, ...): anisotropic, so the stiffness has
    # positive off-diagonal entries.
    sigma = math.sqrt(contrast)
    spec = EnsembleSpec("laminate_1d",
                        {"prob_hi": 0.5, "sigma_hi": sigma, "sigma_lo": 1 / sigma}, seed)
    return generate(spec, d, m)


@pytest.mark.parametrize("d, m, bound", [(2, 5, 80), (3, 3, 224)])
def test_operator_memory_per_node(d, m, bound):
    # A one-cube operator, built after a first one has warmed the caches
    # keyed by the dimension, keeps its stencil (3^d floats per node), its
    # boundary mask (one byte per node) and no per-node or per-cell index
    # array.
    f = two_phase_field(d, m, 100, seed=1)
    CubeOperator(f, f.cube)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op = CubeOperator(f, f.cube)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / op.n_nodes <= bound


@pytest.mark.parametrize("d, m, level, laminate",
                         [(2, 2, None, False), (3, 2, None, False),
                          (2, 3, 2, False), (2, 2, 1, False),
                          (2, 3, None, True), (3, 2, None, True)],
                         ids=["2d-L2", "3d-L2", "2d-L3-level2", "2d-L2-level1",
                              "2d-L3-laminate", "3d-L2-laminate"])
def test_multigrid_preconditioner_is_symmetric_positive(solver_settings, cg_runs,
                                                        d, m, level, laminate):
    # The V-cycle CG is given, formed column by column: symmetric up to the
    # float32 roundoff of its hierarchy (at most 1.6 epsilons of the largest
    # entry measured), and positive definite on the space CG runs in (each
    # block's mean-zero vectors for the singular Neumann system).  The
    # laminate at contrast 1e4 has positive stencil entries.
    f = laminate_field(d, m) if laminate else two_phase_field(d, m, 100.0, seed=21)
    solver_settings(direct_cost_cap=0)
    op = CubeOperator(f, f.cube, level)
    op.solve_dirichlet(np.eye(d)[0])
    first = len(cg_runs)
    op.solve_neumann(np.eye(d)[0])
    if laminate:
        # The laminate's Neumann column may be corrected again; a further
        # run reuses its solve's preconditioner.
        assert first == 1 and len(cg_runs) > first
        assert len({id(run.M) for run in cg_runs}) == 2
    else:
        assert len(cg_runs) == 2
    for run, singular in ((cg_runs[0], False), (cg_runs[first], True)):
        n = run.M.shape[0]
        M = np.column_stack([run.M.matvec(e) for e in np.eye(n)])
        scale = np.abs(M).max()
        assert np.abs(M - M.T).max() <= 16 * np.finfo(np.float32).eps * scale
        if singular:
            # Orthonormal basis of each block's mean-zero vectors.
            basis = np.kron(np.eye(op.blocks),
                            scipy.linalg.null_space(np.ones((1, n // op.blocks))))
            M = basis.T @ M @ basis
        assert np.linalg.eigvalsh((M + M.T) / 2)[0] > 0


def test_multigrid_hierarchy_is_float32(solver_settings, monkeypatch, cg_runs):
    # Both hierarchies at 3d L2 hold only float32 arrays (DIA data,
    # smoother, tiles and the coarsest inverses), so no numpy or scipy
    # version can upcast the cycle silently, and the preconditioner hands
    # CG float64.
    hierarchies = recorded_hierarchies(monkeypatch)
    solver_settings(direct_cost_cap=0)
    f = two_phase_field(3, 2, 100.0, seed=21)
    op = CubeOperator(f, f.cube)
    op.solve_dirichlet(np.eye(3)[0])
    op.solve_neumann(np.eye(3)[0])
    assert len(hierarchies) == 2
    for levels, inverse in hierarchies:
        assert levels and inverse.dtype == np.float32
        for A, smoother, tiles, _ in levels:
            assert A.data.dtype == smoother.dtype == np.float32
            assert all(block.dtype == np.float32 for *_, block in tiles)
    assert cg_runs
    for run in cg_runs:
        r = np.random.default_rng(2).standard_normal(run.M.shape[0])
        assert run.M.matvec(r).dtype == np.float64


@pytest.mark.parametrize("d, m, laminate", [(2, 3, False), (3, 2, False),
                                            (2, 3, True), (3, 2, True)],
                         ids=["2d-L3", "3d-L2", "2d-L3-laminate", "3d-L2-laminate"])
def test_smoother_weight_keeps_every_level_in_the_l1_bound(solver_settings,
                                                           monkeypatch, d, m, laminate):
    # On every smoothed level of both hierarchies, A <= D for D the row
    # sums of |A|, so the smoothed operator omega D^{-1/2} A D^{-1/2} has
    # its spectrum in [0, omega], which lies in [0, 2) with the margin
    # 2 - omega: then 2D/omega - A is positive definite and the V-cycle SPD.
    # The bound is checked on each level's float64 matrix, the one _coarsen
    # was given; the level stores that matrix and omega D^{-1} rounded to
    # float32.  (The rounded Neumann levels are PSD only to float32 roundoff:
    # their kernel eigenvalue moves by up to 3e-8 on the laminate.)
    omega = solver.SMOOTHER_WEIGHT
    assert 0 < omega < 2
    hierarchies = recorded_hierarchies(monkeypatch)
    calls = recorded_coarsenings(monkeypatch)
    f = laminate_field(d, m) if laminate else two_phase_field(d, m, 100.0, seed=21)
    solver_settings(direct_cost_cap=0)
    op = CubeOperator(f, f.cube)
    op.solve_dirichlet(np.eye(d)[0])
    op.solve_neumann(np.eye(d)[0])
    assert len(hierarchies) == 2 and all(levels for levels, _ in hierarchies)
    smoothed = [level for levels, _ in hierarchies for level in levels]
    assert len(calls) == len(smoothed)
    for (stored, smoother, *_), (stencil, grid, *_) in zip(smoothed, calls):
        assert isinstance(stored, scipy.sparse.dia_array)
        A = _stencil_matrix(stencil, grid)
        D = abs(A).sum(axis=1)
        A = A.toarray()
        np.testing.assert_array_equal(stored.toarray(), A.astype(np.float32))
        np.testing.assert_array_equal(smoother, (omega / D).astype(np.float32))
        scale = 1 / np.sqrt(D)
        spectrum = np.linalg.eigvalsh(omega * scale[:, None] * A * scale[None, :])
        assert spectrum[0] >= -1e-12 * omega
        assert spectrum[-1] <= omega * (1 + 1e-12)


def test_multigrid_iterations_do_not_grow_with_level(solver_settings, cg_runs):
    # Contrast 100: at most 26 iterations per column at 3d L3 (23 with the
    # weighted smoother, 29 with the unweighted one; Jacobi-PCG took about
    # 90 and 180), and at most 1.5 times the count at 3d L2.
    f = two_phase_field(3, 3, 100.0, seed=1)
    op = CubeOperator(f, f.cube)
    op.solve_dirichlet(np.eye(3))
    op.solve_neumann(np.eye(3))
    top = [run.iterations for run in cg_runs]
    cg_runs.clear()
    solver_settings(direct_cost_cap=0)
    f = two_phase_field(3, 2, 100.0, seed=1)
    op = CubeOperator(f, f.cube)
    op.solve_dirichlet(np.eye(3))
    op.solve_neumann(np.eye(3))
    below = [run.iterations for run in cg_runs]
    assert len(top) == len(below) == 6
    assert max(top) <= 26
    for kind in (slice(0, 3), slice(3, 6)):
        assert max(top[kind]) <= 1.5 * max(below[kind])


def test_2d_multigrid_iterations_do_not_grow_with_level(solver_settings, cg_runs):
    # Contrast 100, every level on CG: at most 35 / 55 iterations per
    # column (Dirichlet / Neumann) at 2d L3 and 51 / 68 at L4 with the
    # weighted smoother, so L4 takes at most 1.5 times the count at L3.
    solver_settings(direct_cost_cap=0)
    counts = []
    for m in (3, 4):
        cg_runs.clear()
        f = two_phase_field(2, m, 100.0, seed=1)
        op = CubeOperator(f, f.cube)
        op.solve_dirichlet(np.eye(2))
        op.solve_neumann(np.eye(2))
        assert len(cg_runs) == 4
        counts.append([max(run.iterations for run in cg_runs[kind])
                       for kind in (slice(0, 2), slice(2, 4))])
    assert counts[1][0] <= 53 and counts[1][1] <= 70
    for below, top in zip(*counts):
        assert top <= 1.5 * below


@pytest.mark.parametrize("d, m", [(2, 3), (3, 2)])
def test_laminate_oracle_on_the_pcg_path(solver_settings, banded_calls, cg_runs, d, m):
    # Cells diag(alpha(x_0), 1, ...): the Neumann solve for q = e_0 depends
    # on x_0 only and the affine data p = e_i, i >= 1, are discrete
    # a-harmonic, so a_*^{-1}[0, 0] = mean(1/alpha) and a[i, i] =
    # a_*^{-1}[i, i] = 1 exactly.  Contrast 1e4 is multigrid's slowest case.
    f = laminate_field(d, m)
    solver_settings(direct_cost_cap=0)
    a, _, a_star_inv, _ = level_pairs(f, f.cube, m)
    alpha = f.cells.reshape(-1, d, d)[:, 0, 0]
    assert a_star_inv[0, 0, 0] == pytest.approx(np.mean(1 / alpha), rel=1e-8)
    for i in range(1, d):
        assert a[0, i, i] == pytest.approx(1.0, rel=1e-8)
        assert a_star_inv[0, i, i] == pytest.approx(1.0, rel=1e-8)
    assert banded_calls == [] and len(cg_runs) >= 2 * d


def test_1d_harmonic_mean_oracle_on_the_pcg_path(solver_settings, banded_calls, cg_runs):
    # In 1d, a = a_* is the harmonic mean of the cells.  At level 5 the
    # hierarchy has one node axis, 244 nodes wide at the top (9 transfer
    # tiles).
    f = two_phase_field(1, 5, 100.0, seed=22)
    solver_settings(direct_cost_cap=0)
    a, _, a_star_inv, _ = level_pairs(f, f.cube, 5)
    mean_inverse = np.mean(1 / f.cells[:, 0, 0])
    assert a[0, 0, 0] == pytest.approx(1 / mean_inverse, rel=1e-9)
    assert a_star_inv[0, 0, 0] == pytest.approx(mean_inverse, rel=1e-9)
    assert banded_calls == [] and len(cg_runs) >= 2
