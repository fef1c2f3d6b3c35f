import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cgflow import (
    CubeOperator,
    EnsembleSpec,
    ExponentSet,
    besov_positive,
    besov_ring,
    cg_poincare_check,
    ellipticity_constants,
    generate,
    harmonic_pool,
    ladder,
    multiscale_defect,
    weak_norm_diagnostics,
)
from cgflow.errors import CapacityError, ParameterError
from cgflow.multiscale import c_exp

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
    for d, m, v in ((1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 1, 2), (3, 1, 1)):
        g = rng.standard_normal((3 ** m,) * d + ((v,) if v > 1 else ()))
        for s, p, q in ((0.25, 2.0, 2.0), (0.4, 2.0, 1.0), (0.3, 2.0, INF),
                        (0.25, 1.0, 2.0), (0.3, 3.0, 1.0), (0.4, 3.0, INF)):
            mine = besov_positive(g, d, s, p, q)
            ref = brute_positive(g, d, s, p, q)
            assert mine == pytest.approx(ref, rel=1e-11)


def test_positive_memory_is_bounded_in_3d():
    # The unchunked window form of this call holds ~450 MiB at once.
    g = np.random.default_rng(12).lognormal(0.0, 1.0, size=(27,) * 3)
    tracemalloc.start()
    try:
        besov_positive(g, 3, 0.25, 3.0, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


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
    assert lam_big >= pair.a.spectral_norm() - 1e-12
    assert lam_small <= np.linalg.eigvalsh(pair.a_star.entries)[0] + 1e-12


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


def test_defect_validates_exponents():
    f = lognormal_field(1, 1, seed=11)
    lad = ladder(f, f.cube)
    with pytest.raises(ParameterError):
        multiscale_defect(lad, np.eye(1), 0.75, 2.0)


# -- coarse-grained Poincare ---------------------------------------------


def test_poincare_holds_on_random_harmonic_functions():
    for seed in range(3):
        f = lognormal_field(2, 2, seed=50 + seed)
        for w in harmonic_pool(f, f.cube, 3, seed=seed):
            for s, q in ((0.25, 1.0), (0.25, 2.0), (0.5, INF)):
                rep = cg_poincare_check(f, f.cube, w, s, q)
                assert rep["gradient_ok"]
                assert rep["flux_ok"]


def test_poincare_affine_equality_on_constant_field():
    f = generate(EnsembleSpec("constant", {"value": 3.0}), 2, 2)
    op = CubeOperator(f, f.cube)
    u = op.affine(np.array([1.0, -2.0]))
    for s, q in ((0.25, 1.0), (0.25, 2.0), (0.5, INF)):
        rep = cg_poincare_check(f, f.cube, u, s, q)
        assert rep["lhs_gradient"] == pytest.approx(rep["rhs_gradient"], rel=1e-10)
        assert rep["lhs_flux"] == pytest.approx(rep["rhs_flux"], rel=1e-10)


# -- weak norm diagnostics ------------------------------------------------


def test_weak_norm_diagnostics_report():
    f = lognormal_field(2, 2, seed=60)
    p = np.array([1.0, 0.0])
    q = np.array([1.0, 0.5])
    rep = weak_norm_diagnostics(f, f.cube, p, q, np.zeros(2), np.zeros(2),
                                s=0.25, t=0.25)
    for key in ("lhs_gradient", "lhs_flux", "j_value", "lambda_s_prime",
                "Lambda_t_prime", "j_increment_sum_gradient"):
        assert np.isfinite(rep[key])
    assert rep["lhs_gradient"] >= 0.0
    assert rep["lhs_flux"] >= 0.0
    assert len(rep["deviation_terms_gradient"]) == 2


def test_weak_norm_diagnostics_validates_s_prime():
    f = lognormal_field(2, 1, seed=61)
    with pytest.raises(ParameterError):
        weak_norm_diagnostics(f, f.cube, np.ones(2), np.ones(2), np.zeros(2),
                              np.zeros(2), s=0.25, t=0.25, s_prime=0.05)
