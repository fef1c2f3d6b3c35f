import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgflow import (
    CoefficientField,
    CubeOperator,
    EnsembleSpec,
    ExponentSet,
    besov_positive,
    besov_ring,
    cg_poincare_check,
    coarse_pair,
    ellipticity_constants,
    generate,
    harmonic_pool,
    ladder,
    multiscale_defect,
    subcubes,
)
from cgflow.coarse import mean_j
from cgflow.errors import CapacityError, ParameterError
from cgflow.multiscale import _oscillation, c_exp, defect_quadratic_forms
from cgflow.solver import banded_cost

INF = math.inf


def lognormal_field(d, m, seed=0, sigma=0.8):
    spec = EnsembleSpec("lognormal_iid", {"log_mean": 0.0, "log_sigma": sigma}, seed)
    return generate(spec, d, m)


# -- independent brute-force oracles -------------------------------------


def brute_ring(f, d, s, p, q, kmin):
    """Literal enumeration of aligned blocks at every level in [kmin, m];
    sub-unit blocks are enumerated by repeating each cell's value."""
    f = np.asarray(f, dtype=float)
    if f.ndim == d:
        f = f[..., None]
    n = f.shape[0]
    m = round(math.log(n, 3)) if n > 1 else 0
    terms = []
    for k in range(kmin, m + 1):
        if k >= 0:
            side = 3 ** k
            norms = []
            for z in itertools.product(range(0, n, side), repeat=d):
                sl = tuple(slice(zi, zi + side) for zi in z)
                norms.append(np.linalg.norm(f[sl].reshape(-1, f.shape[-1]).mean(axis=0)))
            norms = np.array(norms)
        else:
            cell_norms = np.linalg.norm(f.reshape(-1, f.shape[-1]), axis=1)
            norms = np.repeat(cell_norms, 3 ** (-k * d))
        if p == INF:
            inner = norms.max()
        else:
            inner = np.mean(norms ** p) ** (1.0 / p)
        terms.append((k, inner))
    if q == INF:
        return max(3.0 ** (s * k) * a for k, a in terms)
    return sum(3.0 ** (s * q * k) * a ** q for k, a in terms) ** (1.0 / q)


def brute_positive(g, d, s, p, q):
    """Overlapping-cube seminorm computed on the refined one-third grid, where
    every half-step cube is an exact union of refined cells."""
    g = np.asarray(g, dtype=float)
    if g.ndim == d:
        g = g[..., None]
    n = g.shape[0]
    m = round(math.log(n, 3)) if n > 1 else 0
    ref = g
    for ax in range(d):
        ref = np.repeat(ref, 3, axis=ax)
    nr = 3 * n
    terms = []
    for k in range(m + 1):
        side_r = 3 ** (k + 1)
        step_r = 3 ** k
        vals = []
        for z in itertools.product(range(0, nr - side_r + 1, step_r), repeat=d):
            sl = tuple(slice(zi, zi + side_r) for zi in z)
            block = ref[sl].reshape(-1, ref.shape[-1])
            dev = np.linalg.norm(block - block.mean(axis=0), axis=1)
            vals.append(np.mean(dev ** p))
        terms.append((k, float(np.mean(vals))))
    if q == INF:
        return max(3.0 ** (-s * k) * v ** (1.0 / p) for k, v in terms)
    return sum(3.0 ** (-s * q * k) * v ** (q / p) for k, v in terms) ** (1.0 / q)


# -- besov_ring ----------------------------------------------------------


def test_ring_constant_unit_cube_closed_form():
    # Constant data on a single cell: the whole sum is the geometric tail.
    val = besov_ring(np.ones((1,)), 1, 0.5, 1.0, 1.0)
    assert val == pytest.approx(1.0 / (1.0 - 3.0 ** -0.5), rel=1e-13)


def test_ring_matches_brute_force_at_levels_zero_up():
    rng = np.random.default_rng(0)
    for d, m in ((1, 2), (2, 1)):
        f = rng.standard_normal((3 ** m,) * d + (d,))
        for s, p, q in ((0.25, 2.0, 1.0), (0.5, 2.0, 2.0), (0.3, 1.0, 3.0)):
            mine = besov_ring(f, d, s, p, q, min_level=0)
            ref = brute_ring(f, d, s, p, q, kmin=0)
            assert mine == pytest.approx(ref, rel=1e-12)


def test_ring_tail_matches_brute_force():
    rng = np.random.default_rng(1)
    for d, m in ((1, 1), (2, 1)):
        f = rng.standard_normal((3 ** m,) * d)
        for s, p, q in ((0.25, 2.0, 1.0), (0.5, 1.0, 2.0)):
            mine = besov_ring(f, d, s, p, q, min_level=-6)
            ref = brute_ring(f, d, s, p, q, kmin=-6)
            assert mine == pytest.approx(ref, rel=1e-12)


def test_ring_sup_aggregation():
    rng = np.random.default_rng(2)
    f = rng.standard_normal((9, 2))
    mine = besov_ring(f, 1, 0.4, 2.0, INF)
    ref = brute_ring(f, 1, 0.4, 2.0, INF, kmin=-6)
    assert mine == pytest.approx(ref, rel=1e-12)


def test_ring_max_inner_norm():
    rng = np.random.default_rng(3)
    f = rng.standard_normal((3, 3))
    mine = besov_ring(f, 2, 0.5, INF, 2.0, min_level=0)
    ref = brute_ring(f, 2, 0.5, INF, 2.0, kmin=0)
    assert mine == pytest.approx(ref, rel=1e-12)


def test_ring_parameter_validation():
    with pytest.raises(ParameterError):
        besov_ring(np.ones((3,)), 1, 1.5, 1.0, 1.0)
    with pytest.raises(ParameterError):
        besov_ring(np.ones((3,)), 1, 0.5, 0.5, 1.0)
    with pytest.raises(ParameterError):
        besov_ring(np.ones((4,)), 1, 0.5, 1.0, 1.0)
    for p, q in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ParameterError):
            besov_ring(np.ones((3,)), 1, 0.5, p, q)


def test_seminorms_that_overflow_are_parameter_errors():
    # Finite data near the top of the float range overflow in |f|^p.
    big = np.array([1e300, -1e300, 1e300])
    with np.errstate(all="ignore"):
        with pytest.raises(ParameterError, match="not finite"):
            besov_ring(big, 1, 0.5, 2.0, 1.0)
        with pytest.raises(ParameterError, match="not finite"):
            besov_positive(big, 1, 0.25, 2.0, 1.0)


# -- besov_positive ------------------------------------------------------


def test_positive_vanishes_on_constants():
    assert besov_positive(np.full((9,), 3.7), 1, 0.25, 2.0, 2.0) == pytest.approx(
        0.0, abs=1e-12
    )
    assert besov_positive(np.ones((3, 3)), 2, 0.25, 2.0, INF) == pytest.approx(
        0.0, abs=1e-12
    )


def test_positive_matches_refined_grid_oracle():
    rng = np.random.default_rng(4)
    for d, m, v in ((1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 2)):
        g = rng.standard_normal((3 ** m,) * d + ((v,) if v > 1 else ()))
        for s, p, q in ((0.25, 2.0, 2.0), (0.4, 2.0, 1.0), (0.3, 2.0, INF),
                        (0.25, 1.0, 2.0), (0.3, 3.0, 1.0), (0.4, 3.0, INF)):
            mine = besov_positive(g, d, s, p, q)
            ref = brute_positive(g, d, s, p, q)
            assert mine == pytest.approx(ref, rel=1e-11)


def test_unit_level_matches_refined_copy():
    # The unit level's windows, summed over the cell lattice, against level
    # 1 of the copy refined 3 times per axis: the same windows, as unit-weight
    # slices of one-cell sub-blocks.
    rng = np.random.default_rng(9)
    for d, top in ((1, 3), (2, 3), (3, 2)):
        for m, v in itertools.product(range(top + 1), (1, 2)):
            g = rng.lognormal(0.0, 1.0, size=(3 ** m,) * d + (v,))
            refined = g
            for ax in range(d):
                refined = np.repeat(refined, 3, axis=ax)
            for p in (1.0, 1.5, 2.0, 3.0):
                ref = _oscillation(refined, d, 1, p)
                assert _oscillation(g, d, 0, p) == pytest.approx(ref, rel=1e-12)


def test_positive_memory_is_bounded_in_3d():
    # The input is 0.15 MiB.  The traced peak was 1.93 MiB with sliding
    # windows reduced in slabs, and is 0.88 MiB with the sub-block slices.
    g = np.random.default_rng(12).lognormal(0.0, 1.0, size=(27,) * 3)
    tracemalloc.start()
    try:
        besov_positive(g, 3, 0.25, 3.0, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


def test_positive_scales_linearly():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((9,))
    a = besov_positive(g, 1, 0.25, 2.0, 2.0)
    b = besov_positive(3.0 * g, 1, 0.25, 2.0, 2.0)
    assert b == pytest.approx(3.0 * a, rel=1e-12)


# -- ladder and ellipticity constants ------------------------------------


def test_ladder_budget_cap():
    f = lognormal_field(2, 2, seed=6)
    with pytest.raises(CapacityError):
        ladder(f, f.cube, budget_cap=10)


def two_phase_field(d, m, contrast, seed):
    hi = contrast ** 0.5
    spec = EnsembleSpec(
        "two_phase_iid", {"prob_hi": 0.5, "sigma_hi": hi, "sigma_lo": 1.0 / hi}, seed
    )
    return generate(spec, d, m)


def anisotropic_field(d, m, seed):
    # Full SPD cell matrices: the stiffness matrix couples every direction.
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((3 ** (d * m), d, d))
    cells = r @ r.transpose(0, 2, 1) + 0.5 * np.eye(d)
    return CoefficientField(d, m, cells.reshape((3 ** m,) * d + (d, d)))


@pytest.mark.parametrize("field", [
    pytest.param(lambda: lognormal_field(1, 3, seed=70), id="1d-L3"),
    pytest.param(lambda: lognormal_field(2, 3, seed=70), id="2d-L3-lognormal"),
    pytest.param(lambda: two_phase_field(2, 3, 1e4, seed=70), id="2d-L3-two-phase-1e4"),
    pytest.param(lambda: lognormal_field(3, 2, seed=70), id="3d-L2"),
    pytest.param(lambda: anisotropic_field(2, 2, seed=70), id="2d-L2-anisotropic"),
])
def test_ladder_entries_equal_fresh_pairs(field):
    # Each level's block-diagonal solve gives, in subcubes() order, the pairs
    # that one-cube solves give.  At level 0 (the cells) and at the top level
    # (the same solve) the bits agree, and the top one is the ladder's pair.
    f = field()
    lad = ladder(f, f.cube)
    top = coarse_pair(f, f.cube)
    assert lad.pair.cube == f.cube
    for name in ("a", "a_star", "a_star_inv"):
        np.testing.assert_array_equal(getattr(lad.pair, name), getattr(top, name))
    assert lad.pair.residuals == top.residuals
    for k in range(f.ambient_level + 1):
        subs = subcubes(f.cube, k)
        shape = (len(subs), f.dimension, f.dimension)
        assert lad.a_all[k].shape == lad.a_star_inv_all[k].shape == shape
        for sub, a, ainv in zip(subs, lad.a_all[k], lad.a_star_inv_all[k]):
            pair = coarse_pair(f, sub)
            if k in (0, f.ambient_level):
                np.testing.assert_array_equal(a, pair.a)
                np.testing.assert_array_equal(ainv, pair.a_star_inv)
            for mine, fresh in ((a, pair.a), (ainv, pair.a_star_inv)):
                scale = np.abs(fresh).max()
                np.testing.assert_allclose(mine, fresh, rtol=0.0, atol=1e-12 * scale)


def test_2d_level4_ladder_is_eight_banded_solves_in_bounded_memory(banded_calls):
    # One Dirichlet and one Neumann solve per level 1..4 (820 subcubes); the
    # level-4 band is about 4.5 MB.
    f = lognormal_field(2, 4, seed=71)
    tracemalloc.start()
    try:
        lad = ladder(f, f.cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(banded_calls) == 8
    assert [len(a) for a in lad.a_all] == [6561, 729, 81, 9, 1]
    assert peak < 16 * 2 ** 20


def test_ladder_above_the_cap_stacks_per_directly_solved_cube(solver_settings,
                                                             banded_calls):
    # With the cap at one level-3 cube's cost, a 2d L4 ladder solves the top
    # cube by PCG, the level-3 cubes one by one, and levels 1 and 2 in one
    # stack per level-3 cube: 6 banded solves per level-3 cube, none with a
    # band larger than one level-3 cube's own, (30, 783).  The pairs are
    # still those of fresh one-cube solves, in subcubes() order.
    solver_settings(direct_cost_cap=banded_cost(2, 3))
    f = lognormal_field(2, 4, seed=72)
    tracemalloc.start()
    try:
        lad = ladder(f, f.cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bands = list(banded_calls)
    assert len(bands) == 9 * 6
    assert max(rows * unknowns for rows, unknowns in bands) == 30 * 783
    assert max(rows for rows, _ in bands) == 30
    assert peak < 8 * 2 ** 20
    for k in range(1, 5):
        for sub, a, ainv in zip(subcubes(f.cube, k), lad.a_all[k], lad.a_star_inv_all[k]):
            pair = coarse_pair(f, sub)
            for mine, fresh in ((a, pair.a), (ainv, pair.a_star_inv)):
                scale = np.abs(fresh).max()
                np.testing.assert_allclose(mine, fresh, rtol=0.0, atol=1e-12 * scale)


def _mean_children(values, d):
    """Mean over the 3^d children of each parent, for values stacked in
    subcubes() order at the children's level."""
    c = round(len(values) ** (1.0 / d)) // 3
    return values.reshape((c, 3) * d).mean(axis=tuple(range(1, 2 * d, 2))).ravel()


def _lognormal(sigma):
    return ("lognormal_iid", {"log_mean": 0.0, "log_sigma": sigma})


def _two_phase(contrast, prob_hi):
    hi = contrast ** 0.5
    return ("two_phase_iid", {"prob_hi": prob_hi, "sigma_hi": hi, "sigma_lo": 1.0 / hi})


_VECTORS = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(d=st.integers(1, 3), level=st.integers(1, 3),
       ensemble=st.one_of(st.builds(_lognormal, st.floats(0.0, 2.0)),
                          st.builds(_two_phase, st.floats(1.0, 1e4), st.floats(0.0, 1.0))),
       seed=st.integers(0, 2 ** 32 - 1), p=_VECTORS, q=_VECTORS)
def test_ladder_j_is_subadditive_between_levels(d, level, ensemble, seed, p, q):
    # J(cube, p, q) is at most the mean of J over the cube's 3^d children,
    # to 1e-9 relative to the size of its quadratic terms.
    m = min(level, 2) if d == 3 else level
    f = generate(EnsembleSpec(*ensemble, seed), d, m)
    lad = ladder(f, f.cube)
    p, q = np.array(p[:d]), np.array(q[:d])
    quad = [0.5 * (np.einsum("i,bij,j->b", p, a, p)
                   + np.einsum("i,bij,j->b", q, ainv, q))
            for a, ainv in zip(lad.a_all, lad.a_star_inv_all)]
    j = [x - p @ q for x in quad]
    for k in range(1, m + 1):
        defect = _mean_children(j[k - 1], d) - j[k]
        scale = np.maximum(_mean_children(quad[k - 1], d), quad[k])
        assert np.all(defect >= -1e-9 * scale)


def test_constants_collapse_on_constant_field():
    f = generate(EnsembleSpec("constant", {"value": 2.5}), 2, 2)
    lad = ladder(f, f.cube)
    for q in (1.0, 2.0, INF):
        lam_big, lam_small = ellipticity_constants(lad, ExponentSet(0.25, 0.25, q))
        assert lam_big == pytest.approx(2.5, rel=1e-10)
        assert lam_small == pytest.approx(2.5, rel=1e-10)


def test_constants_tail_matches_brute_force():
    # Sub-unit maxima equal the unit-scale maxima, so the closed-form tail
    # must agree with literally accumulating levels down to -6.
    f = lognormal_field(2, 1, seed=8)
    lad = ladder(f, f.cube)
    m = 1
    s, t, q = 0.25, 0.3, 2.0
    X = lad.max_a_norm
    Y = lad.max_a_star_inv_norm
    big = sum(
        3.0 ** (-s * q * (m - k)) * X[max(k, 0)] ** (q / 2) for k in range(-6, m + 1)
    )
    small = sum(
        3.0 ** (-t * q * (m - k)) * Y[max(k, 0)] ** (q / 2) for k in range(-6, m + 1)
    )
    ref_big = (c_exp(s * q) * big) ** (2.0 / q)
    ref_small = (c_exp(t * q) * small) ** (-2.0 / q)
    mine = ellipticity_constants(lad, ExponentSet(s, t, q), min_level=-6)
    assert mine[0] == pytest.approx(ref_big, rel=1e-12)
    assert mine[1] == pytest.approx(ref_small, rel=1e-12)


def test_constants_bracket_top_pair():
    # The undiscounted k = m term makes Lambda dominate |a(cube)| and lambda
    # sit below the smallest eigenvalue of a_*(cube).
    from cgflow import coarse_pair

    f = lognormal_field(2, 1, seed=9)
    lad = ladder(f, f.cube)
    lam_big, lam_small = ellipticity_constants(lad, ExponentSet(0.25, 0.25, INF))
    pair = coarse_pair(f, f.cube)
    assert lam_big >= np.linalg.eigvalsh(pair.a)[-1] - 1e-12
    assert lam_small <= np.linalg.eigvalsh(pair.a_star)[0] + 1e-12


# -- multiscale defect ---------------------------------------------------


def test_defect_zero_for_constant_field():
    f = generate(EnsembleSpec("constant", {"value": 4.0}), 2, 2)
    lad = ladder(f, f.cube)
    for q in (1.0, 2.0, INF):
        assert multiscale_defect(lad, 4.0 * np.eye(2), 0.25, q) == pytest.approx(
            0.0, abs=1e-9
        )


def test_defect_scalar_formula_1d():
    # In 1d with reference equal to the top harmonic mean, the level-1 term
    # vanishes and each cell contributes (c - h)^2 / (2 c h).
    spec = EnsembleSpec("explicit", {"cells": [1.0, 2.0, 4.0]})
    f = generate(spec, 1, 1)
    lad = ladder(f, f.cube)
    h = 12.0 / 7.0
    s, q = 0.25, 2.0
    jmax0 = max((c - h) ** 2 / (2.0 * c * h) for c in (1.0, 2.0, 4.0))
    total = 3.0 ** (-s * q) * jmax0 ** (q / 2)
    total += 3.0 ** (-s * q) * (3.0 ** (-s * q) / (1 - 3.0 ** (-s * q))) * jmax0 ** (q / 2)
    expected = (c_exp(s * q) * total) ** (1.0 / q)
    got = multiscale_defect(lad, np.array([[h]]), s, q)
    assert got == pytest.approx(expected, rel=1e-10)


def test_defect_tail_matches_brute_force():
    f = lognormal_field(1, 1, seed=10)
    lad = ladder(f, f.cube)
    s, q = 0.25, 2.0
    h = 1.0 / np.mean(1.0 / f.cells[:, 0, 0])
    abar = np.array([[h]])
    cells = f.cells[:, 0, 0]
    jmax0 = max((c - h) ** 2 / (2.0 * c * h) for c in cells)
    jmax1 = 0.0  # top pair equals abar by construction
    total = sum(3.0 ** (-s * q * (1 - k)) * jmax0 ** (q / 2) for k in range(-6, 1))
    total += jmax1
    expected = (c_exp(s * q) * total) ** (1.0 / q)
    got = multiscale_defect(lad, abar, s, q, min_level=-6)
    assert got == pytest.approx(expected, rel=1e-10)


def test_defect_forms_are_j_maxima_over_directions_2d():
    # Each subcube's form is the maximum of J(., r e, s e) over unit e, with
    # r = abar^{-1/2} and s = abar^{1/2}; an anisotropic abar tilts it.
    f = lognormal_field(2, 1, seed=4)
    lad = ladder(f, f.cube)
    abar = np.array([[2.0, 0.6], [0.6, 0.5]])
    evals, evecs = np.linalg.eigh(abar)
    r = evecs @ np.diag(evals ** -0.5) @ evecs.T
    s = evecs @ np.diag(evals ** 0.5) @ evecs.T
    phi = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
    units = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    for k in range(2):
        a, ainv = lad.a_all[k], lad.a_star_inv_all[k]
        forms = defect_quadratic_forms(a, ainv, abar)
        for i, form in enumerate(forms):
            best = max(mean_j(a[i:i + 1], ainv[i:i + 1], r @ e, s @ e) for e in units)
            assert form == pytest.approx(best, rel=1e-5)
            assert form > 0


def test_defect_validates_exponents():
    f = lognormal_field(1, 1, seed=11)
    lad = ladder(f, f.cube)
    with pytest.raises(ParameterError):
        multiscale_defect(lad, np.eye(1), 0.75, 2.0)
    with pytest.raises(ParameterError):
        multiscale_defect(lad, np.eye(1), 0.25, math.nan)


# -- coarse-grained Poincare ---------------------------------------------


def test_poincare_holds_on_random_harmonic_functions():
    for seed in range(3):
        f = lognormal_field(2, 2, seed=50 + seed)
        op, lad = CubeOperator(f, f.cube), ladder(f, f.cube)
        for w in harmonic_pool(op, 3, seed=seed):
            for s, q in ((0.25, 1.0), (0.25, 2.0), (0.5, INF)):
                rep = cg_poincare_check(op, lad, w, s, q)
                assert rep["gradient_ok"]
                assert rep["flux_ok"]


def test_poincare_affine_equality_on_constant_field():
    f = generate(EnsembleSpec("constant", {"value": 3.0}), 2, 2)
    op = CubeOperator(f, f.cube)
    u = op.affine(np.array([1.0, -2.0]))
    lad = ladder(f, f.cube)
    for s, q in ((0.25, 1.0), (0.25, 2.0), (0.5, INF)):
        rep = cg_poincare_check(op, lad, u, s, q)
        assert rep["lhs_gradient"] == pytest.approx(rep["rhs_gradient"], rel=1e-10)
        assert rep["lhs_flux"] == pytest.approx(rep["rhs_flux"], rel=1e-10)
