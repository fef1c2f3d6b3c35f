import json
import os
import types

import numpy as np
import pytest

from cgflow import (
    EnsembleSpec,
    ParameterError,
    PigeonholeDiagnosticError,
    pigeonhole_select,
    run_flow,
    scale_from_record,
    synthetic_record,
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
    record = run_flow(spec, 2, 1, samples=4)
    assert record.abar[1] == pytest.approx(3.0, abs=1e-10)
    assert record.astar_inv[1] == pytest.approx(1.0 / 3.0, abs=1e-11)
    assert record.abar_se[1] == pytest.approx(0.0, abs=1e-10)
    assert record.theta[1] == pytest.approx(1.0, abs=1e-10)


def test_degenerate_two_phase_estimate():
    # prob_hi = 1 makes every cell sigma_hi: zero variance across samples.
    record = run_flow(two_phase(5.0, 0.5, p=1.0), 2, 1, samples=3)
    assert record.abar[1] == pytest.approx(5.0, abs=1e-9)
    assert record.abar_se[1] == pytest.approx(0.0, abs=1e-10)


def test_estimate_requires_two_samples():
    with pytest.raises(ParameterError):
        run_flow(two_phase(2.0, 0.5), 1, 1, samples=1)


def test_annealed_ordering_within_noise():
    record = run_flow(two_phase(10.0, 0.1, seed=5), 2, 2, samples=16)
    gap = record.abar[2] - 1.0 / record.astar_inv[2]
    assert gap >= -2.0 * (record.abar_se[2] + record.astar_inv_se[2])


# -- run_flow ------------------------------------------------------------


def test_constant_flow_is_flat():
    spec = EnsembleSpec("constant", {"value": 2.0})
    record = run_flow(spec, 2, 2, samples=3)
    for theta, theta_se in zip(record.theta, record.theta_se):
        assert theta == pytest.approx(1.0, abs=1e-10)
        assert theta_se == pytest.approx(0.0, abs=1e-12)
    assert record.tau_prev[1] == pytest.approx(0.0, abs=1e-10)


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
        solver_rec.theta, oracle_rec.theta, rtol=1e-9
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


# The record bytes of the 1d oracle flow below.  Rows 1 and 2 have theta !=
# abar_scalar * astar_inv_scalar, since theta multiplies means summed in
# another order, so the bytes pin both reduction orders of the estimates.
GOLDEN_CSV = (
    "n,samples,abar_scalar,abar_se,astar_inv_scalar,astar_inv_se,theta,theta_se,"
    "tau_prev,tau_prev_se\n"
    "0,9,2.0555555555555554,0.6148873228105182,1.2222222222222223,"
    "0.3074436614052591,2.5123456790123457,0.11956142387982263,,\n"
    "1,9,1.369281045751634,0.498173111708098,1.3518518518518519,"
    "0.22685185185185186,1.851065117404987,0.39520413315850306,"
    "0.2783224400871459,0.150789037343785\n"
    "2,9,0.840371922724864,0.053117705851125525,1.2222222222222223,"
    "0.06481481481481483,1.0271212388859448,0.014745924208119838,"
    "0.32926937632819975,0.1451513138734591\n"
)
GOLDEN_SCALES = [
    {"level": 0, "samples": 9, "abar": [2.0555555555555554],
     "abar_se": [0.6148873228105182], "astar_inv": [1.2222222222222223],
     "astar_inv_se": [0.3074436614052591], "theta": 2.5123456790123457,
     "theta_se": 0.11956142387982263},
    {"level": 1, "samples": 9, "abar": [1.369281045751634],
     "abar_se": [0.498173111708098], "astar_inv": [1.3518518518518519],
     "astar_inv_se": [0.22685185185185186], "theta": 1.851065117404987,
     "theta_se": 0.39520413315850306, "tau_prev": 0.2783224400871459,
     "tau_prev_se": 0.150789037343785},
    {"level": 2, "samples": 9, "abar": [0.840371922724864],
     "abar_se": [0.053117705851125525], "astar_inv": [1.2222222222222223],
     "astar_inv_se": [0.06481481481481483], "theta": 1.0271212388859448,
     "theta_se": 0.014745924208119838, "tau_prev": 0.32926937632819975,
     "tau_prev_se": 0.1451513138734591},
]


def test_flow_record_bytes_are_pinned():
    record = run_flow(two_phase(4.0, 0.5, seed=1), 1, 2, samples=9,
                      method="oracle")
    assert record.to_csv() == GOLDEN_CSV
    scales = record.to_json_dict()["scales"]
    assert json.dumps(scales) == json.dumps(GOLDEN_SCALES)
    products = [sc["abar"][0] * sc["astar_inv"][0] for sc in GOLDEN_SCALES]
    assert any(p != sc["theta"] for p, sc in zip(products, GOLDEN_SCALES))


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
    val, se = record.tau_prev[1], record.tau_prev_se[1]
    assert val == pytest.approx(0.0, abs=1e-10)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_tau_1d_oracle_value():
    # tau_prev[n] = tau(n, n - 1; p=1, q=1) = E[(H_{n-1} - H_n) / 2
    # + (1/H_{n-1} - 1/H_n) / 2] with H_k the harmonic mean of the level-k
    # corner block; check against direct cell statistics on the same seeds.
    spec = two_phase(3.0, 0.5, seed=4)
    samples = 12
    record = run_flow(spec, 1, 2, samples=samples, method="oracle")
    fields = [generate(spec.with_seed(spec.seed + i), 1, 2).cells[:, 0, 0]
              for i in range(samples)]
    for n in (1, 2):
        direct = []
        for cells in fields:
            h_prev, h = (1.0 / np.mean(1.0 / cells[:3 ** k]) for k in (n - 1, n))
            direct.append(0.5 * (h_prev - h) + 0.5 * (1.0 / h_prev - 1.0 / h))
        assert record.tau_prev[n] == pytest.approx(np.mean(direct), rel=1e-10)
        assert record.tau_prev_se[n] >= 0.0


def test_tau_nonnegative_within_noise():
    record = run_flow(two_phase(4.0, 0.25, seed=7), 1, 2, samples=16,
                      method="oracle")
    for n in (1, 2):
        assert record.tau_prev[n] >= -2.0 * record.tau_prev_se[n]

