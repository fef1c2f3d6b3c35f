"""Acceptance suite: one printed pass/fail line per criterion.

Each test computes its verdict first, prints it, then asserts, so the
printed line appears for failures too.
"""

import itertools
import json
import math

import numpy as np
import pytest

import cgflow
from cgflow import (
    CubeOperator,
    EnsembleSpec,
    ExponentSet,
    besov_ring,
    cg_poincare_check,
    coarse_pair,
    ellipticity_constants,
    generate,
    harmonic_pool,
    j_functional,
    ladder,
    multiscale_defect,
    pigeonhole_select,
    run_flow,
    scale_from_record,
    solve_v,
    subadditivity_defect,
    synthetic_record,
)
from cgflow.cli import main
from cgflow.coarse import (
    energy_map_check,
    fluxmap_sides,
    integral_bound_slacks,
    response_defect,
)
from cgflow.multiscale import c_exp

INF = math.inf


def verdict(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def random_instances(count, seed=2024):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        d = int(rng.choice([1, 2]))
        m = int(rng.integers(1, 4))
        spec = EnsembleSpec(
            "lognormal_iid", {"log_mean": 0.0, "log_sigma": 0.8}, 5000 + i
        )
        field = generate(spec, d, m)
        p = rng.standard_normal(d)
        q = rng.standard_normal(d)
        out.append((field, field.cube, p, q))
    return out


INSTANCES = random_instances(100)


def test_criterion_1_exact_identities():
    worst = 0.0
    for field, cube, p, q in INSTANCES:
        j = j_functional(coarse_pair(field, cube), p, q)
        v = solve_v(CubeOperator(field, cube), p, q)
        ref = max(abs(j), 0.5 * float(p @ p + q @ q), 1e-12)
        worst = max(worst, abs(v.energy - j) / ref)
    verdict(1, worst <= 1e-7,
            f"J matrix formula vs maximizer energy, 100 instances, "
            f"max rel err {worst:.2e} (tol 1e-7)")


def test_criterion_2_inequalities():
    worst = math.inf
    for idx, (field, cube, p, q) in enumerate(INSTANCES):
        op = CubeOperator(field, cube)
        pair = coarse_pair(field, cube)
        scale = max(np.linalg.eigvalsh(pair.a)[-1], 1.0)
        slacks = [float(np.linalg.eigvalsh(pair.gap)[0]) / scale]
        s1, s2 = integral_bound_slacks(op, pair)
        slacks += [s1 / scale, s2 / scale]
        jref = max(abs(j_functional(pair, p, q)),
                   0.5 * float(p @ p + q @ q), 1e-12)
        slacks.append(subadditivity_defect(field, pair, 0, p, q) / jref)
        w = harmonic_pool(op, 1, seed=9000 + idx)[0]
        wref = max(2.0 * op.energy(w), 1e-12)
        lhs, rhs = response_defect(op, pair, w)
        slacks.append((rhs - lhs) / wref)
        lhs, rhs = fluxmap_sides(op, pair, w, p, q)
        slacks.append((rhs - lhs) / max(wref, jref))
        g_side, energy, f_side = energy_map_check(op, pair, w)
        slacks += [(energy - g_side) / wref, (energy - f_side) / wref]
        worst = min(worst, min(slacks))
    verdict(2, worst >= -1e-7,
            f"ordering/integral/subadditivity/response/flux/energy maps, "
            f"min rel slack {worst:.2e} (tol -1e-7)")


def test_criterion_3_poincare_constants():
    pairs_sq = ((0.25, 1.0), (0.25, 2.0), (0.5, INF))
    ok = True
    worst = math.inf
    for seed in range(3):
        spec = EnsembleSpec("lognormal_iid",
                            {"log_mean": 0.0, "log_sigma": 0.8}, 7000 + seed)
        field = generate(spec, 2, 2)
        op = CubeOperator(field, field.cube)
        lad = ladder(field, field.cube)
        for w in harmonic_pool(op, 20, seed=seed):
            for s, q in pairs_sq:
                rep = cg_poincare_check(op, lad, w, s, q)
                worst = min(
                    worst,
                    rep["rhs_gradient"] - rep["lhs_gradient"],
                    rep["rhs_flux"] - rep["lhs_flux"],
                )
                ok = ok and rep["gradient_ok"] and rep["flux_ok"]
    # Equality case: affine function on a constant field.
    cfield = generate(EnsembleSpec("constant", {"value": 3.0}), 2, 2)
    cop = CubeOperator(cfield, cfield.cube)
    clad = ladder(cfield, cfield.cube)
    u = cop.affine(np.array([1.0, -2.0]))
    eq_err = 0.0
    for s, q in pairs_sq:
        rep = cg_poincare_check(cop, clad, u, s, q)
        eq_err = max(
            eq_err,
            abs(rep["lhs_gradient"] - rep["rhs_gradient"]) / rep["rhs_gradient"],
            abs(rep["lhs_flux"] - rep["rhs_flux"]) / rep["rhs_flux"],
        )
    verdict(3, ok and eq_err <= 1e-9,
            f"explicit-constant Poincare, min slack {worst:.2e}, "
            f"affine equality err {eq_err:.2e} (tol 1e-9)")


def test_criterion_4_1d_oracle_equivalence():
    worst_pair = 0.0
    for seed in range(5):
        spec = EnsembleSpec("lognormal_iid",
                            {"log_mean": 0.0, "log_sigma": 0.7}, 7100 + seed)
        m = 1 + seed % 4
        field = generate(spec, 1, m)
        pair = coarse_pair(field, field.cube)
        h = 1.0 / np.mean(1.0 / field.cells[:, 0, 0])
        worst_pair = max(
            worst_pair,
            abs(pair.a[0, 0] - h) / h,
            abs(pair.a_star[0, 0] - h) / h,
        )
    spec = EnsembleSpec(
        "two_phase_iid", {"prob_hi": 0.5, "sigma_hi": 3.0, "sigma_lo": 0.3}, 11
    )
    solver_rec = run_flow(spec, 1, 4, samples=8)
    oracle_rec = run_flow(spec, 1, 4, samples=8, method="oracle")
    worst_flow = 0.0
    for key in ("abar", "astar_inv", "theta"):
        es, eo = getattr(solver_rec, key), getattr(oracle_rec, key)
        worst_flow = max(worst_flow, float(np.max(np.abs(es - eo) / eo)))
    # tau(4, 0; 1, 1): the sample mean of the additivity defect
    # 1/2 (a_0 - a_4) + 1/2 (a_*^{-1}_0 - a_*^{-1}_4).
    ts, to = (float(np.mean(0.5 * (r.a_samples[:, 0] - r.a_samples[:, 4])
                            + 0.5 * (r.astar_inv_samples[:, 0]
                                     - r.astar_inv_samples[:, 4])))
              for r in (solver_rec, oracle_rec))
    worst_flow = max(worst_flow, abs(ts - to) / max(abs(to), 1e-12))
    ns = scale_from_record(solver_rec, 0.5)
    no = scale_from_record(oracle_rec, 0.5)
    same_scale = ns.level == no.level
    verdict(4, worst_pair <= 1e-9 and worst_flow <= 1e-9 and same_scale,
            f"1d harmonic-mean oracle, pair err {worst_pair:.2e}, "
            f"flow err {worst_flow:.2e} (tol 1e-9), scale match {same_scale}")


def test_criterion_5_trivial_collapse():
    c = 2.5
    field = generate(EnsembleSpec("constant", {"value": c}), 2, 2)
    pair = coarse_pair(field, field.cube)
    errs = [
        float(np.abs(pair.a - c * np.eye(2)).max()),
        float(np.abs(pair.a_star - c * np.eye(2)).max()),
    ]
    lad = ladder(field, field.cube)
    for q in (1.0, 2.0, INF):
        lam_big, lam_small = ellipticity_constants(lad, ExponentSet(0.25, 0.25, q))
        errs += [abs(lam_big - c), abs(lam_small - c)]
        errs.append(abs(multiscale_defect(lad, c * np.eye(2), 0.25, q)))
    record = run_flow(EnsembleSpec("constant", {"value": c}), 2, 2, samples=2)
    errs += [float(x) for x in np.abs(record.theta - 1.0)]
    scale = scale_from_record(record, 0.5)
    worst = max(errs)
    verdict(5, worst <= 1e-10 and scale.level == 0,
            f"constant-field collapse, max err {worst:.2e} (tol 1e-10), "
            f"scale {scale.level}")


def _brute_ring(f, d, s, p, q, kmin):
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
                norms.append(
                    np.linalg.norm(f[sl].reshape(-1, f.shape[-1]).mean(axis=0))
                )
            norms = np.array(norms)
        else:
            norms = np.repeat(
                np.linalg.norm(f.reshape(-1, f.shape[-1]), axis=1), 3 ** (-k * d)
            )
        inner = np.mean(norms ** p) ** (1.0 / p)
        terms.append((k, inner))
    if q == INF:
        return max(3.0 ** (s * k) * a for k, a in terms)
    return sum(3.0 ** (s * q * k) * a ** q for k, a in terms) ** (1.0 / q)


def test_criterion_6_geometric_tails():
    rng = np.random.default_rng(66)
    worst = 0.0
    for i in range(20):
        d = 1 if i % 2 == 0 else 2
        m = int(rng.integers(1, 3)) if d == 1 else 1
        f = rng.standard_normal((3 ** m,) * d)
        s, p, q = rng.uniform(0.2, 0.6), 2.0, float(rng.choice([1.0, 2.0]))
        mine = besov_ring(f, d, s, p, q, min_level=-6)
        ref = _brute_ring(f, d, s, p, q, kmin=-6)
        worst = max(worst, abs(mine - ref) / ref)

        # Ellipticity constants and defect: brute tails repeat the unit-scale
        # quantities since sub-unit coarse matrices equal the cell matrices.
        spec = EnsembleSpec(
            "lognormal_iid", {"log_mean": 0.0, "log_sigma": 0.8}, 7200 + i
        )
        field = generate(spec, d, 1)
        lad = ladder(field, field.cube)
        sq, tq, qq = 0.25, 0.3, 2.0
        X, Y = lad.max_a_norm, lad.max_a_star_inv_norm
        big = sum(3.0 ** (-sq * qq * (1 - k)) * X[max(k, 0)] ** (qq / 2)
                  for k in range(-6, 2))
        small = sum(3.0 ** (-tq * qq * (1 - k)) * Y[max(k, 0)] ** (qq / 2)
                    for k in range(-6, 2))
        ref_big = (c_exp(sq * qq) * big) ** (2.0 / qq)
        ref_small = (c_exp(tq * qq) * small) ** (-2.0 / qq)
        got = ellipticity_constants(lad, ExponentSet(sq, tq, qq), min_level=-6)
        worst = max(worst, abs(got[0] - ref_big) / ref_big,
                    abs(got[1] - ref_small) / ref_small)

        abar = coarse_pair(field, field.cube).a
        from cgflow.multiscale import defect_quadratic_forms

        jmax = [
            float(defect_quadratic_forms(lad.a_all[k], lad.a_star_inv_all[k],
                                         abar).max())
            for k in (0, 1)
        ]
        tot = sum(3.0 ** (-sq * qq * (1 - k)) * jmax[max(k, 0)] ** (qq / 2)
                  for k in range(-6, 2))
        ref_e = (c_exp(sq * qq) * tot) ** (1.0 / qq)
        got_e = multiscale_defect(lad, abar, sq, qq, min_level=-6)
        if ref_e > 0:
            worst = max(worst, abs(got_e - ref_e) / ref_e)
    verdict(6, worst <= 1e-10,
            f"closed-form tails vs brute force to k=-6, "
            f"max rel err {worst:.2e} (tol 1e-10)")


def test_criterion_7_pigeonhole_soundness():
    rng = np.random.default_rng(77)
    failures = 0
    for _ in range(1000):
        delta = rng.uniform(0.1, 0.5)
        sigma = rng.uniform(0.1, 0.5)
        h = int(rng.integers(1, 4))
        need = int(np.ceil(2.0 / delta * abs(np.log(sigma)))) * h
        a = np.exp(-np.cumsum(rng.uniform(0.0, 0.8, need + 1)))
        b = np.exp(-np.cumsum(rng.uniform(0.0, 0.8, need + 1)))
        try:
            res = pigeonhole_select(synthetic_record(a, b), delta, sigma, h)
            assert res.variant in ("good_scale", "contracted")
        except cgflow.PigeonholeDiagnosticError:
            failures += 1
    verdict(7, failures == 0,
            f"pigeonhole on 1000 monotone sequences, {failures} diagnostic errors")


def test_criterion_8_annealed_monotonicity():
    spec = EnsembleSpec(
        "two_phase_iid", {"prob_hi": 0.5, "sigma_hi": 10.0, "sigma_lo": 0.1}, 88
    )
    record = run_flow(spec, 2, 4, samples=32)
    a, ainv = record.abar, record.astar_inv
    a_se, i_se = record.abar_se, record.astar_inv_se
    thetas, t_se = record.theta, record.theta_se
    mono = all(
        a[n] <= a[n - 1] + 2.0 * (a_se[n] + a_se[n - 1])
        and ainv[n] <= ainv[n - 1] + 2.0 * (i_se[n] + i_se[n - 1])
        for n in range(1, 5)
    )
    decreasing = all(
        thetas[n] < thetas[n - 1] + 2.0 * math.hypot(t_se[n], t_se[n - 1])
        for n in range(1, 5)
    ) and thetas[4] + 2.0 * t_se[4] < thetas[0] - 2.0 * t_se[0]
    verdict(8, mono and decreasing,
            f"two-phase contrast 100, thetas "
            f"{np.array2string(thetas, precision=3)}, monotone {mono}, "
            f"strictly decreasing {decreasing}")


def test_criterion_9_contrast_sweep():
    results = []
    for theta_cell in (4.0, 16.0, 64.0, 256.0):
        hi = math.sqrt(theta_cell)
        spec = EnsembleSpec(
            "two_phase_iid", {"prob_hi": 0.5, "sigma_hi": hi, "sigma_lo": 1.0 / hi},
            99,
        )
        record = run_flow(spec, 2, 4, samples=12)
        scale = scale_from_record(record, 0.5)
        results.append((theta_cell, scale.level, math.log(theta_cell) ** 2))
    reached = [(t, n) for t, n, _ in results if n is not None]
    nondecreasing = all(
        reached[i][1] <= reached[i + 1][1] for i in range(len(reached) - 1)
    )
    detail = ", ".join(
        f"theta={t:g}: N={'not-reached' if n is None else n}" for t, n, _ in results
    )
    verdict(9, len(results) == 4 and nondecreasing,
            f"contrast sweep ({detail}), N nondecreasing where reached")


def test_criterion_10_csv_determinism(tmp_path):
    config = {
        "dimension": 2,
        "ensemble": {
            "kind": "two_phase_iid",
            "params": {"prob_hi": 0.5, "sigma_hi": 4.0, "sigma_lo": 0.25},
            "seed": 10,
        },
        "max_level": 2,
        "samples": 4,
    }
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps(config))
    code_a = main(["flow", "--config", str(cfg), "--out", str(tmp_path / "a"),
                   "--threads", "1"])
    code_b = main(["flow", "--config", str(cfg), "--out", str(tmp_path / "b"),
                   "--threads", "1"])
    same = (tmp_path / "a" / "flow.csv").read_bytes() == (
        tmp_path / "b" / "flow.csv"
    ).read_bytes()
    verdict(10, code_a == 0 and code_b == 0 and same,
            f"cmd_flow --threads 1 byte-identical CSV: {same}")
