import json
import os
import types

import numpy as np
import pytest

from cgflow import (
    EnsembleSpec,
    ParameterError,
    PigeonholeDiagnosticError,
    contraction_diagnostics,
    pigeonhole_select,
    run_flow,
    scale_from_record,
    synthetic_record,
    tau_from_record,
)
from cgflow import TriadicCube, coarse_pair, flow, generate


def two_phase(hi, lo, p=0.5, seed=0):
    return EnsembleSpec(
        "two_phase_iid", {"prob_hi": p, "sigma_hi": hi, "sigma_lo": lo}, seed
    )


# -- recorded traces -----------------------------------------------------


def test_recorded_traces_are_cube_group_averages(signed_permutations):
    # Laminates make anisotropic pairs, so the average is not a's own (0, 0).
    spec = EnsembleSpec("laminate_1d",
                        {"prob_hi": 0.5, "sigma_hi": 4.0, "sigma_lo": 0.25}, 2)
    for d in (2, 3):
        group = signed_permutations(d)
        record = run_flow(spec, d, 1, samples=2)
        for i in range(2):
            field = generate(spec.with_seed(spec.seed + i), d, 1)
            for n in (0, 1):
                pair = coarse_pair(field, TriadicCube(n, (0,) * d))
                for mat, recorded in ((pair.a, record.a_samples),
                                      (pair.a_star_inv, record.astar_inv_samples)):
                    avg = sum(r @ mat @ r.T for r in group) / len(group)
                    assert recorded[i, n] == pytest.approx(avg[0, 0], rel=1e-12)


# -- one-level estimates ------------------------------------------------


def test_constant_ensemble_estimate():
    spec = EnsembleSpec("constant", {"value": 3.0})
    est = run_flow(spec, 2, 1, samples=4).estimates[1]
    assert est.abar == pytest.approx(3.0, abs=1e-10)
    assert est.astar_inv == pytest.approx(1.0 / 3.0, abs=1e-11)
    assert est.abar_se == pytest.approx(0.0, abs=1e-10)
    assert est.theta == pytest.approx(1.0, abs=1e-10)


def test_degenerate_two_phase_estimate():
    # prob_hi = 1 makes every cell sigma_hi: zero variance across samples.
    est = run_flow(two_phase(5.0, 0.5, p=1.0), 2, 1, samples=3).estimates[1]
    assert est.abar == pytest.approx(5.0, abs=1e-9)
    assert est.abar_se == pytest.approx(0.0, abs=1e-10)


def test_estimate_requires_two_samples():
    with pytest.raises(ParameterError):
        run_flow(two_phase(2.0, 0.5), 1, 1, samples=1)


def test_annealed_ordering_within_noise():
    est = run_flow(two_phase(10.0, 0.1, seed=5), 2, 2, samples=16).estimates[2]
    gap = est.abar - 1.0 / est.astar_inv
    assert gap >= -2.0 * (est.abar_se + est.astar_inv_se)


# -- run_flow ------------------------------------------------------------


def test_constant_flow_is_flat():
    spec = EnsembleSpec("constant", {"value": 2.0})
    record = run_flow(spec, 2, 2, samples=3)
    for est in record.estimates:
        assert est.theta == pytest.approx(1.0, abs=1e-10)
        assert est.theta_se == pytest.approx(0.0, abs=1e-12)
    assert record.estimates[1].tau_prev == pytest.approx(0.0, abs=1e-10)


def test_flow_oracle_matches_solver_1d():
    spec = two_phase(2.0, 0.5, seed=3)
    solver_rec = run_flow(spec, 1, 3, samples=6)
    oracle_rec = run_flow(spec, 1, 3, samples=6, method="oracle")
    np.testing.assert_allclose(
        solver_rec.a_samples, oracle_rec.a_samples, rtol=1e-9
    )
    np.testing.assert_allclose(
        solver_rec.astar_inv_samples, oracle_rec.astar_inv_samples, rtol=1e-9
    )
    np.testing.assert_allclose(
        solver_rec.thetas(), oracle_rec.thetas(), rtol=1e-9
    )


def test_oracle_requires_1d():
    with pytest.raises(Exception):
        run_flow(two_phase(2.0, 0.5), 2, 1, samples=2, method="oracle")


def test_flow_oracle_is_harmonic_mean_statistics():
    # Independent route: average block harmonic means directly from the cells.
    spec = two_phase(4.0, 0.25, seed=9)
    record = run_flow(spec, 1, 2, samples=5, method="oracle")
    for i in range(5):
        cells = generate(spec.with_seed(spec.seed + i), 1, 2).cells[:, 0, 0]
        for n in (0, 1, 2):
            h = 1.0 / np.mean(1.0 / cells[: 3 ** n])
            assert record.a_samples[i, n] == pytest.approx(h, rel=1e-12)


def test_flow_csv_shape():
    record = run_flow(two_phase(2.0, 0.5, seed=1), 1, 2, samples=4,
                      method="oracle")
    lines = record.to_csv().strip().split("\n")
    assert lines[0].split(",") == [
        "n", "samples", "abar_scalar", "abar_se", "astar_inv_scalar",
        "astar_inv_se", "theta", "theta_se", "tau_prev", "tau_prev_se",
    ]
    assert len(lines) == 4
    assert lines[1].endswith(",,")  # no tau_prev at the root scale


def test_flow_json_roundtrip():
    record = run_flow(two_phase(2.0, 0.5, seed=1), 1, 1, samples=3,
                      method="oracle")
    d = json.loads(json.dumps(record.to_json_dict()))
    assert d["max_level"] == 1
    assert len(d["scales"]) == 2
    assert d["scales"][1]["samples"] == 3


def test_flow_parallel_matches_serial():
    spec = two_phase(3.0, 0.4, seed=6)
    a = run_flow(spec, 1, 2, samples=4, method="oracle", workers=1)
    b = run_flow(spec, 1, 2, samples=4, method="oracle", workers=2)
    np.testing.assert_array_equal(a.a_samples, b.a_samples)
    assert a.to_csv() == b.to_csv()


def _blas_threads(*args):
    return [get() for get, _ in flow._bundled_openblas()]


def test_pool_workers_run_one_blas_thread(monkeypatch):
    # Each sample reports its worker's OpenBLAS thread counts instead.
    monkeypatch.setattr(flow, "_sample_pairs", _blas_threads)
    monkeypatch.setattr(flow, "_cpus", lambda: 2)
    results, aborted = flow._run_samples(two_phase(3.0, 0.4), 1, 0, 2,
                                         "solver", workers=2)
    assert aborted == 0
    for threads in results:
        assert threads and threads == [1] * len(threads)


def test_bundled_openblas_finds_the_older_wheel_layouts(tmp_path, monkeypatch):
    # numpy 1.24 and scipy 1.12 wheels name the library and its symbols
    # without "scipy_".  Stand-in packages point at files named so, and a
    # stand-in loader returns each requested symbol as (file, name).
    names = ("numpy.libs/libopenblas64_p-r0-0cf96a72.3.23.so",
             "scipy.libs/libopenblasp-r0-23e5df77.3.21.so")
    for name in names:
        (tmp_path / name).parent.mkdir()
        (tmp_path / name).touch()
    fake = {name: types.SimpleNamespace(
                __name__=name, __file__=str(tmp_path / name / "__init__.py"))
            for name in ("numpy", "scipy")}
    monkeypatch.setattr(flow, "_BUNDLED_OPENBLAS", tuple(
        (fake[package.__name__], *rest)
        for package, *rest in flow._BUNDLED_OPENBLAS))

    class Library:
        def __init__(self, path):
            self.file = os.path.basename(path)

        def __getattr__(self, symbol):
            return self.file, symbol

    monkeypatch.setattr(flow.ctypes, "CDLL", Library)
    numpy_lib, scipy_lib = (os.path.basename(name) for name in names)
    assert list(flow._bundled_openblas()) == [
        ((numpy_lib, "openblas_get_num_threads64_"),
         (numpy_lib, "openblas_set_num_threads64_")),
        ((scipy_lib, "openblas_get_num_threads"),
         (scipy_lib, "openblas_set_num_threads")),
    ]


def test_one_blas_thread_restores_the_callers_counts():
    before = _blas_threads()
    with flow.one_blas_thread():
        assert before and _blas_threads() == [1] * len(before)
    assert _blas_threads() == before


def test_pool_is_bounded_by_the_sample_count(monkeypatch):
    # A stand-in executor records its size and maps serially: no process starts.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(flow, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(flow, "_cpus", lambda: 3)
    spec = two_phase(3.0, 0.4, seed=6)
    bounded = run_flow(spec, 1, 2, samples=2, method="oracle", workers=64)
    assert sizes == [2]
    run_flow(spec, 1, 2, samples=2, method="oracle", workers=1)
    assert sizes == [2]  # one worker runs in the parent, without a pool
    serial = run_flow(spec, 1, 2, samples=2, method="oracle", workers=None)
    assert bounded.to_csv() == serial.to_csv()
    # The available CPUs bound the pool too.
    run_flow(spec, 1, 2, samples=8, method="oracle", workers=500)
    assert sizes == [2, 3]


# -- pigeonhole ----------------------------------------------------------


def test_pigeonhole_constant_record():
    rec = synthetic_record([1.0] * 13, [1.0] * 13)
    res = pigeonhole_select(rec, 0.5, 0.5, 1)
    assert res.variant == "good_scale"
    assert res.level == 1
    assert res.ratios == (1.0, 1.0)


def test_pigeonhole_contracted_record():
    # Halving every level never satisfies the flatness test, but the total
    # contrast drop certifies contraction.
    a = [2.0 ** -n for n in range(4)]
    rec = synthetic_record(a, [1.0] * 4)
    res = pigeonhole_select(rec, 0.5, 0.5, 1)
    assert res.variant == "contracted"
    assert res.theta_ratio == pytest.approx(0.125)


def test_pigeonhole_flat_step():
    a = [8.0, 4.0, 4.0, 2.0]
    rec = synthetic_record(a, [1.0] * 4)
    res = pigeonhole_select(rec, 0.5, 0.5, 1)
    assert res.variant == "good_scale"
    assert res.level == 2


def test_pigeonhole_insufficient_scales():
    rec = synthetic_record([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ParameterError):
        pigeonhole_select(rec, 0.1, 0.1, 1)


def test_pigeonhole_diagnostic_on_inconsistent_input():
    # Out-of-phase oscillations: at every step one of the two components
    # jumps by a factor 1.6 > 1 + delta, yet the total contrast only falls to
    # 0.625 > sigma.  No branch of the lemma holds; impossible for true
    # expectations, so the selector must flag it.
    a = [1.0, 0.625, 1.0, 0.625]
    b = [1.0, 1.0, 0.625, 1.0]
    with pytest.raises(PigeonholeDiagnosticError) as err:
        pigeonhole_select(synthetic_record(a, b), 0.5, 0.5, 1)
    assert err.value.product == pytest.approx(0.625)


def test_pigeonhole_sound_on_monotone_sequences():
    rng = np.random.default_rng(42)
    for _ in range(200):
        delta = rng.uniform(0.1, 0.5)
        sigma = rng.uniform(0.1, 0.5)
        h = int(rng.integers(1, 4))
        need = int(np.ceil(2.0 / delta * abs(np.log(sigma)))) * h
        # Random nonincreasing positive sequences.
        a = np.exp(-np.cumsum(rng.uniform(0.0, 0.7, need + 1)))
        b = np.exp(-np.cumsum(rng.uniform(0.0, 0.7, need + 1)))
        res = pigeonhole_select(synthetic_record(a, b), delta, sigma, h)
        assert res.variant in ("good_scale", "contracted")


# -- homogenization scale ------------------------------------------------


def test_constant_scale_is_zero():
    spec = EnsembleSpec("constant", {"value": 7.0})
    result = scale_from_record(run_flow(spec, 2, 1, samples=2), 0.5)
    assert result.level == 0
    assert result.confident


def test_scale_oracle_vs_solver_1d():
    spec = two_phase(2.0, 0.5, seed=8)
    a = scale_from_record(run_flow(spec, 1, 3, samples=6), 0.5)
    b = scale_from_record(run_flow(spec, 1, 3, samples=6, method="oracle"), 0.5)
    assert a.level == b.level
    assert a.confident == b.confident


def test_scale_not_reached():
    rec = synthetic_record([4.0, 4.0], [1.0, 1.0])
    res = scale_from_record(rec, 0.5)
    assert res.level is None
    assert not res.reached


# -- tau -----------------------------------------------------------------


def test_tau_constant_is_zero():
    spec = EnsembleSpec("constant", {"value": 2.0})
    record = run_flow(spec, 2, 1, samples=3)
    val, se = tau_from_record(record, 1, 0, [1.0, 0.0], [0.0, 1.0])
    assert val == pytest.approx(0.0, abs=1e-10)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_tau_zero_directions():
    record = run_flow(two_phase(2.0, 0.5, seed=2), 1, 1, samples=3)
    val, se = tau_from_record(record, 1, 0, [0.0], [0.0])
    assert val == 0.0


def test_tau_1d_oracle_value():
    # tau(2, 0; p=1, q=0) = (E[a_cell] - E[H_2]) / 2 with H_2 the block
    # harmonic mean; check against direct cell statistics on the same seeds.
    spec = two_phase(3.0, 0.5, seed=4)
    samples = 12
    record = run_flow(spec, 1, 2, samples=samples, method="oracle")
    val, se = tau_from_record(record, 2, 0, [1.0], [0.0])
    direct = []
    for i in range(samples):
        cells = generate(spec.with_seed(spec.seed + i), 1, 2).cells[:, 0, 0]
        direct.append(0.5 * (cells[0] - 1.0 / np.mean(1.0 / cells)))
    assert val == pytest.approx(np.mean(direct), rel=1e-10)
    assert se >= 0.0


def test_tau_nonnegative_within_noise():
    record = run_flow(two_phase(4.0, 0.25, seed=7), 1, 2, samples=16,
                      method="oracle")
    for n in (1, 2):
        val, se = tau_from_record(record, n, 0, [1.0], [1.0])
        assert val >= -2.0 * se


def test_tau_validates_levels():
    record = run_flow(two_phase(2.0, 0.5, seed=1), 1, 1, samples=2,
                      method="oracle")
    with pytest.raises(ParameterError):
        tau_from_record(record, 1, 1, [1.0], [1.0])


# -- contraction diagnostics ---------------------------------------------


def test_contraction_diagnostics_constant():
    spec = EnsembleSpec("constant", {"value": 2.0})
    record = run_flow(spec, 2, 3, samples=2, method="solver")
    rep = contraction_diagnostics(record, spec, 2, delta=0.5)
    assert rep["tau"] == pytest.approx(0.0, abs=1e-9)
    assert rep["m0"] == pytest.approx(2.0, rel=1e-9)
    assert rep["theta_ratios"][0]["ratio"] == pytest.approx(0.0, abs=1e-9)
    assert "weak_norms" in rep

