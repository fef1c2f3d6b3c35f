import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgflow import (
    BlockSolution,
    CoarseGrainedPair,
    CoefficientField,
    CubeOperator,
    EnsembleSpec,
    TriadicCube,
    coarse_pair,
    dihedral_conjugate,
    generate,
    harmonic_pool,
    j_functional,
    root_cube,
    solve_v,
    subadditivity_defect,
    subcubes,
)
from cgflow import coarse
from cgflow.coarse import (
    energy_map_check,
    first_variation_sides,
    fluxmap_sides,
    integral_bound_slacks,
    level_pairs,
    mean_j,
    response_defect,
    second_variation_sides,
)
from cgflow.errors import ConsistencyError, ParameterError


def lognormal_field(d, m, seed=0, sigma=0.8):
    spec = EnsembleSpec("lognormal_iid", {"log_mean": 0.0, "log_sigma": sigma}, seed)
    return generate(spec, d, m)


def cells_1d(values):
    spec = EnsembleSpec("explicit", {"cells": [float(v) for v in values]})
    level = {1: 0, 3: 1, 9: 2, 27: 3}[len(values)]
    return generate(spec, 1, level)


# -- 1d closed forms -----------------------------------------------------


def test_1d_pair_is_harmonic_mean():
    f = cells_1d([1.0, 2.0, 4.0])
    pair = coarse_pair(f, f.cube)
    hmean = 3.0 / (1.0 + 0.5 + 0.25)  # 12/7
    assert pair.a[0, 0] == pytest.approx(hmean, rel=1e-12)
    assert pair.a_star[0, 0] == pytest.approx(hmean, rel=1e-12)


def test_1d_j_value():
    # J = (p - q/h)^2 h / 2 with h the harmonic mean: here h = 12/7,
    # p = q = 1 gives (1 - 7/12)^2 * 6/7 = 25/168.
    f = cells_1d([1.0, 2.0, 4.0])
    assert j_functional(f, f.cube, [1.0], [1.0]) == pytest.approx(25.0 / 168.0, abs=1e-12)


def test_1d_subadditivity_value():
    # avg_cells J(cell, 1, 0) - J(box, 1, 0) = 7/6 - 6/7 = 13/42.
    f = cells_1d([1.0, 2.0, 4.0])
    assert subadditivity_defect(f, f.cube, 0, [1.0], [0.0]) == pytest.approx(
        13.0 / 42.0, abs=1e-12
    )


# -- structural properties ----------------------------------------------


def test_constant_field_pair_collapses():
    f = generate(EnsembleSpec("constant", {"value": 3.0}), 2, 2)
    pair = coarse_pair(f, f.cube)
    np.testing.assert_allclose(pair.a, 3.0 * np.eye(2), atol=1e-10)
    np.testing.assert_allclose(pair.a_star, 3.0 * np.eye(2), atol=1e-10)
    assert j_functional(f, f.cube, [1.0, 0.0], [3.0, 0.0]) == pytest.approx(0.0, abs=1e-10)


def test_unit_cell_pair_is_cell_matrix():
    f = lognormal_field(2, 1, seed=1)
    cell = TriadicCube(0, (1, 2))
    pair = coarse_pair(f, cell)
    np.testing.assert_array_equal(pair.a, f.cells[1, 2])
    np.testing.assert_array_equal(pair.a_star, f.cells[1, 2])
    np.testing.assert_array_equal(pair.a_star_inv, np.linalg.inv(f.cells[1, 2]))


def test_pair_matrices_are_read_only():
    f = lognormal_field(2, 1, seed=1)
    for cube in (TriadicCube(0, (1, 2)), f.cube):
        pair = coarse_pair(f, cube)
        for mat in (pair.a, pair.a_star, pair.a_star_inv):
            with pytest.raises(ValueError):
                mat[0, 0] = 0.0


def test_pair_is_memoized():
    f = lognormal_field(2, 1, seed=2)
    assert coarse_pair(f, f.cube) is coarse_pair(f, f.cube)


def test_2d_level4_pair_is_two_banded_solves_in_bounded_memory(banded_calls):
    # 6724 nodes: the band holds about 4.5 MB, the densified stiffness
    # matrix 361 MB.
    f = lognormal_field(2, 4, seed=3)
    tracemalloc.start()
    try:
        coarse_pair(f, f.cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(banded_calls) == 2
    assert peak < 32 * 2 ** 20


def test_2d_level5_pair_peak_is_about_one_band(banded_calls):
    # The Neumann band of 59 536 nodes holds about 117 MB.  Everything else
    # a pair allocates while that band is live is small beside it: a band
    # copy (C order for LAPACK, say) would take the peak past 2x.
    f = lognormal_field(2, 5, seed=3)
    tracemalloc.start()
    try:
        level_pairs(f, f.cube, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    band_bytes = max(rows * unknowns for rows, unknowns in banded_calls) * 8
    assert peak <= 1.5 * band_bytes


def test_level_pairs_keep_a_nan_residual(monkeypatch):
    # The worst residual of a level is NaN if any solve's is, never 0.
    f = lognormal_field(2, 2, seed=4)
    solve = CubeOperator.solve_neumann

    def nan_residual(self, q):
        sol = solve(self, q)
        sol.residual = float("nan")
        return sol

    monkeypatch.setattr(CubeOperator, "solve_neumann", nan_residual)
    residuals = level_pairs(f, f.cube, 1)[3]
    assert residuals[0] < 1e-12 and np.isnan(residuals[1])


def test_level_pairs_name_the_subcube_that_breaks_the_ordering(monkeypatch):
    # Halving one subcube's Dirichlet Gram matrix of a constant field puts
    # its a below a_*; the check names that subcube.
    grams = coarse._level_grams

    def halved(field, cube, level):
        dirichlet, neumann, residuals = grams(field, cube, level)
        dirichlet[4] *= 0.5
        return dirichlet, neumann, residuals

    monkeypatch.setattr(coarse, "_level_grams", halved)
    f = generate(EnsembleSpec("constant", {"value": 2.0}), 2, 2)
    with pytest.raises(ConsistencyError) as err:
        level_pairs(f, f.cube, 1)
    assert f"violated on {TriadicCube(1, (3, 3))}:" in str(err.value)


def test_3d_level3_pair_stays_on_pcg(banded_calls):
    # Its banded cost 21951 * 814^2 = 1.45e10 is above the cap.
    f = lognormal_field(3, 3, seed=3)
    pair = coarse_pair(f, f.cube)
    assert banded_calls == []
    assert max(pair.residuals) <= 1e-10


def _lognormal(sigma):
    return ("lognormal_iid", {"log_mean": 0.0, "log_sigma": sigma})


def _two_phase(contrast, prob_hi):
    hi = contrast ** 0.5
    return ("two_phase_iid", {"prob_hi": prob_hi, "sigma_hi": hi, "sigma_lo": 1.0 / hi})


_ENSEMBLES = st.one_of(
    st.builds(_lognormal, st.floats(0.0, 2.0)),
    st.builds(_two_phase, st.floats(1.0, 1e4), st.floats(0.0, 1.0)),
)


def test_ordering_a_star_below_a():
    for seed in range(5):
        f = lognormal_field(2, 2, seed=seed)
        pair = coarse_pair(f, f.cube)
        gap_min = np.linalg.eigvalsh(pair.gap)[0]
        assert gap_min >= -1e-9 * np.linalg.eigvalsh(pair.a)[-1]


def test_integral_bounds():
    for seed in range(5):
        f = lognormal_field(2, 2, seed=10 + seed)
        s1, s2 = integral_bound_slacks(f, f.cube)
        assert s1 >= -1e-9
        assert s2 >= -1e-9


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(d=st.integers(1, 3), level=st.integers(1, 2), ensemble=_ENSEMBLES,
       seed=st.integers(0, 2 ** 32 - 1),
       pq=st.lists(st.integers(-1000, 1000).map(lambda k: k / 100),
                   min_size=6, max_size=6))
def test_pair_order_bounds(d, level, ensemble, seed, pq):
    # a_* <= a <= cell arithmetic mean and a_*^{-1} <= cell inverse mean,
    # each in the Loewner order to 1e-9 relative.
    f = generate(EnsembleSpec(*ensemble, seed), d, level)
    pair = coarse_pair(f, f.cube)
    cells = f.cells.reshape(-1, d, d)
    arith = cells.mean(axis=0)
    harm = np.linalg.inv(cells).mean(axis=0)
    a_max = np.linalg.eigvalsh(pair.a)[-1]
    assert np.linalg.eigvalsh(pair.gap)[0] >= -1e-9 * a_max
    s1, s2 = integral_bound_slacks(f, f.cube)
    assert s1 >= -1e-9 * np.linalg.eigvalsh(arith)[-1]
    assert s2 >= -1e-9 * np.linalg.eigvalsh(harm)[-1]
    # J(p, q) >= 0 and the level-0 subadditivity defect >= 0 at the drawn
    # (p, q), to 1e-9 of the cells' mean quadratic terms, which bound J's.
    p, q = np.array(pq[:d]), np.array(pq[3:3 + d])
    scale = 0.5 * (p @ arith @ p + q @ harm @ q)
    assert j_functional(f, f.cube, p, q) >= -1e-9 * scale
    assert subadditivity_defect(f, f.cube, 0, p, q) >= -1e-9 * scale
    # The response- and flux-map bounds for one a-harmonic w, with the gap
    # and J known to 1e-9 of their scales as above.
    w = harmonic_pool(f, f.cube, 1, seed=seed)[0]
    two_energy = 2.0 * CubeOperator(f, f.cube).energy(w)
    lhs, rhs = response_defect(f, f.cube, w)
    assert lhs <= rhs + np.sqrt(1e-9 * a_max * two_energy)
    lhs, rhs = fluxmap_sides(f, f.cube, w, p, q)
    assert lhs <= rhs + np.sqrt(2e-9 * scale * two_energy)


def test_j_is_nonnegative_and_zero_at_optimum():
    f = lognormal_field(2, 2, seed=3)
    pair = coarse_pair(f, f.cube)
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = rng.standard_normal(2)
        assert mean_j(pair.a[None], pair.a_star_inv[None], p,
                      pair.a_star @ p) >= -1e-10
    # J(p, a_* p) = 1/2 p.(a - a_*) p, the minimum over q.
    p = np.array([1.0, -2.0])
    val = mean_j(pair.a[None], pair.a_star_inv[None], p, pair.a_star @ p)
    assert val == pytest.approx(0.5 * p @ pair.gap @ p, rel=1e-9)


def test_j_equals_maximizer_energy():
    for seed in range(5):
        f = lognormal_field(2, 2, seed=20 + seed)
        rng = np.random.default_rng(seed)
        p, q = rng.standard_normal(2), rng.standard_normal(2)
        v = solve_v(f, f.cube, p, q)
        j = j_functional(f, f.cube, p, q)
        assert v.energy == pytest.approx(j, rel=1e-9, abs=1e-12)


def test_subadditivity_nonnegative_random():
    rng = np.random.default_rng(1)
    for seed in range(5):
        f = lognormal_field(2, 2, seed=30 + seed)
        p, q = rng.standard_normal(2), rng.standard_normal(2)
        for level in (0, 1):
            assert subadditivity_defect(f, f.cube, level, p, q) >= -1e-9


def test_subadditivity_level_validation():
    f = lognormal_field(2, 1, seed=4)
    with pytest.raises(ParameterError):
        subadditivity_defect(f, f.cube, 1, [1.0, 0.0], [0.0, 0.0])


# -- identities on harmonic functions ------------------------------------


def harmonic_samples(f, count=3, seed=99):
    return harmonic_pool(f, f.cube, count, seed=seed)


def test_first_variation_identity():
    f = lognormal_field(2, 2, seed=40)
    rng = np.random.default_rng(7)
    p, q = rng.standard_normal(2), rng.standard_normal(2)
    v = solve_v(f, f.cube, p, q)
    for w in harmonic_samples(f):
        lhs, rhs = first_variation_sides(f, f.cube, w, p, q, v)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def test_second_variation_identity():
    f = lognormal_field(2, 2, seed=41)
    rng = np.random.default_rng(8)
    p, q = rng.standard_normal(2), rng.standard_normal(2)
    v = solve_v(f, f.cube, p, q)
    for w in harmonic_samples(f):
        lhs, rhs = second_variation_sides(f, f.cube, w, p, q, v)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def test_response_map_bound():
    f = lognormal_field(2, 2, seed=42)
    for w in harmonic_samples(f):
        lhs, rhs = response_defect(f, f.cube, w)
        assert lhs <= rhs * (1.0 + 1e-8) + 1e-12


def test_flux_map_bound():
    f = lognormal_field(2, 2, seed=43)
    rng = np.random.default_rng(9)
    p, q = rng.standard_normal(2), rng.standard_normal(2)
    for w in harmonic_samples(f):
        lhs, rhs = fluxmap_sides(f, f.cube, w, p, q)
        assert lhs <= rhs * (1.0 + 1e-8) + 1e-12


def test_flux_map_bound_at_tiny_directions():
    # J = 1/2 a p^2 would underflow to 0 at |p| ~ 1e-163 and leave the
    # right-hand side 0 below a nonzero left-hand side.
    f = generate(EnsembleSpec("constant", {"value": 2.0}), 1, 1)
    w = harmonic_pool(f, f.cube, 1, seed=0)[0]
    lhs, rhs = fluxmap_sides(f, f.cube, w, [1.36e-163], [0.0])
    assert lhs > 0.0
    assert lhs <= rhs * (1.0 + 1e-12)
    # Both sides are linear in (p, q): a power of two moves them exactly.
    g = lognormal_field(2, 2, seed=43)
    p, q = np.random.default_rng(9).standard_normal((2, 2))
    w = harmonic_samples(g)[0]
    sides = fluxmap_sides(g, g.cube, w, p, q)
    tiny = fluxmap_sides(g, g.cube, w, np.ldexp(p, -600), np.ldexp(q, -600))
    assert tiny == tuple(math.ldexp(x, -600) for x in sides)


def test_energy_maps_bound_block_energy():
    f = lognormal_field(2, 2, seed=44)
    for w in harmonic_samples(f):
        g_side, energy, f_side = energy_map_check(f, f.cube, w)
        assert g_side <= energy * (1.0 + 1e-8) + 1e-12
        assert f_side <= energy * (1.0 + 1e-8) + 1e-12


def test_energy_map_gradient_side_any_function():
    # The mean-gradient form needs no harmonicity.
    f = lognormal_field(2, 1, seed=45)
    op = CubeOperator(f, f.cube)
    w = np.random.default_rng(3).standard_normal(op.n_nodes)
    g_side, energy, _ = energy_map_check(f, f.cube, w, flux=False)
    assert g_side <= energy * (1.0 + 1e-8)


def test_pair_json_dict():
    f = lognormal_field(2, 1, seed=46)
    pair = coarse_pair(f, f.cube)
    d = pair.to_json_dict()
    assert d["cube"] == {"level": 1, "offset": [0, 0]}
    np.testing.assert_allclose(
        np.array(d["a"]).reshape(2, 2), pair.a
    )
    # The worst Dirichlet and the worst Neumann column.
    assert len(d["solver_residuals"]) == 2
    assert all(r < 1e-8 for r in d["solver_residuals"])


def anisotropic_field(d, m, seed):
    # Full (non-diagonal) SPD cell matrices, so an axis permutation moves
    # every entry of the pair.
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((3 ** (d * m), d, d))
    cells = mats @ np.swapaxes(mats, 1, 2) + 0.5 * np.eye(d)
    return CoefficientField(d, m, cells.reshape((3 ** m,) * d + (d, d)))


@pytest.mark.parametrize("d, m, perm", [
    (2, 2, (1, 0)), (3, 1, (1, 2, 0)), (3, 1, (0, 2, 1)), (3, 2, (2, 0, 1)),
])
def test_pair_is_covariant_under_axis_permutations(d, m, perm):
    # Relabelling the axes conjugates the coarse pair by the same permutation:
    # a'(cube)[i, j] = a(cube)[perm[i], perm[j]], and likewise a_*.
    f = anisotropic_field(d, m, seed=48 + d + m)
    pair = coarse_pair(f, f.cube)
    conj = coarse_pair(dihedral_conjugate(f, perm), f.cube)
    idx = np.ix_(perm, perm)
    for mine, theirs in ((conj.a, pair.a), (conj.a_star, pair.a_star)):
        scale = np.abs(theirs).max()
        np.testing.assert_allclose(mine, theirs[idx],
                                   rtol=0.0, atol=1e-13 * scale)


def test_pair_on_interior_subcube():
    f = lognormal_field(2, 2, seed=47)
    sub = TriadicCube(1, (3, 3))
    pair = coarse_pair(f, sub)
    # Same cells relocated to the corner give the same pair.
    g = generate(
        EnsembleSpec("explicit", {"cells": [float(x) for x in f.cells_in(sub).ravel()]}),
        2, 1,
    )
    pair2 = coarse_pair(g, g.cube)
    np.testing.assert_allclose(pair.a, pair2.a, atol=1e-10)
    np.testing.assert_allclose(pair.a_star, pair2.a_star, atol=1e-10)


def test_degenerate_neumann_solutions_are_consistency_error(monkeypatch):
    # Zero Neumann potentials give a_*^{-1} = 0; the pair is reported as
    # inconsistent instead of failing inside the inversion.
    monkeypatch.setattr(
        CubeOperator, "solve_neumann",
        lambda self, q: BlockSolution(
            self, np.zeros((self.n_nodes,) + np.shape(q)[1:]), 0.0),
    )
    f = lognormal_field(2, 1, seed=21)
    with pytest.raises(ConsistencyError):
        coarse_pair(f, f.cube)


def test_pair_memo_does_not_keep_its_field_alive():
    f = lognormal_field(2, 1, seed=49)
    coarse_pair(f, f.cube)
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
