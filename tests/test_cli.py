import json
import math

import numpy as np
import pytest

from cgflow.cli import main, run_verification


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


COARSE_1D = {
    "dimension": 1,
    "ensemble": {"kind": "explicit", "params": {"cells": [1.0, 2.0, 4.0]}},
    "level": 1,
}

FLOW_1D = {
    "dimension": 1,
    "ensemble": {
        "kind": "two_phase_iid",
        "params": {"prob_hi": 0.5, "sigma_hi": 2.0, "sigma_lo": 0.5},
        "seed": 3,
    },
    "max_level": 2,
    "samples": 4,
    "method": "oracle",
}


def test_coarse_grain_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", COARSE_1D)
    assert main(["coarse-grain", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pairs"][0]["a"][0] == pytest.approx(12.0 / 7.0, rel=1e-10)
    assert out["pairs"][0]["a_star"][0] == pytest.approx(12.0 / 7.0, rel=1e-10)


def test_coarse_grain_constant(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "dimension": 2,
        "ensemble": {"kind": "constant", "params": {"value": 2.0}},
        "level": 1,
    })
    assert main(["coarse-grain", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(
        np.array(out["pairs"][0]["a"]).reshape(2, 2), 2.0 * np.eye(2), atol=1e-10
    )


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", dict(COARSE_1D, bogus=1))
    assert main(["coarse-grain", "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "bogus" in err["message"]


def test_bad_exponent_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "dimension": 1,
        "ensemble": {"kind": "constant", "params": {"value": 1.0}},
        "level": 1, "s": 1.5, "t": 0.25, "q": 2,
    })
    assert main(["constants", "--config", cfg]) == 2
    assert json.loads(capsys.readouterr().err)["exit_code"] == 2


def test_missing_config_file(tmp_path, capsys):
    assert main(["flow", "--config", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_config_roundtrip_identity(tmp_path):
    text = json.dumps(FLOW_1D)
    assert json.loads(json.dumps(json.loads(text))) == json.loads(text)


def test_flow_outputs_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, "f.json", FLOW_1D)
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "a"),
                 "--threads", "1"]) == 0
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--threads", "1"]) == 0
    capsys.readouterr()
    csv_a = (tmp_path / "a" / "flow.csv").read_bytes()
    csv_b = (tmp_path / "b" / "flow.csv").read_bytes()
    assert csv_a == csv_b
    record = json.loads((tmp_path / "a" / "flow.json").read_text())
    assert len(record["scales"]) == 3


def test_flow_constant_theta_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "f.json", {
        "dimension": 2,
        "ensemble": {"kind": "constant", "params": {"value": 2.0}},
        "max_level": 1, "samples": 2,
    })
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "1"]) == 0
    capsys.readouterr()
    lines = (tmp_path / "o" / "flow.csv").read_text().strip().split("\n")
    for line in lines[1:]:
        theta = float(line.split(",")[6])
        assert theta == pytest.approx(1.0, abs=1e-10)


def test_flow_seed_override_changes_output(tmp_path, capsys):
    cfg = write_config(tmp_path, "f.json", FLOW_1D)
    main(["flow", "--config", cfg, "--out", str(tmp_path / "a"), "--threads", "1"])
    main(["flow", "--config", cfg, "--out", str(tmp_path / "b"), "--threads", "1",
          "--seed", "99"])
    capsys.readouterr()
    assert (tmp_path / "a" / "flow.csv").read_text() != (
        tmp_path / "b" / "flow.csv"
    ).read_text()


def test_flow_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {
        "dimension": 1, "max_level": 2, "samples": 4, "method": "oracle",
        "sweep": {"thetas": [4, 16], "sigma": 0.5},
    })
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "sw"),
                 "--threads", "1"]) == 0
    capsys.readouterr()
    summary = (tmp_path / "sw" / "sweep_summary.csv").read_text().strip().split("\n")
    assert summary[0] == "theta_cell,n_hat,confident"
    assert len(summary) == 3
    assert (tmp_path / "sw" / "flow_theta_4.csv").exists()


def test_flow_oracle_in_2d_is_config_error(tmp_path, capsys):
    # The 1d harmonic-mean oracle cannot run in d=2; rejected before sampling.
    cfg = write_config(tmp_path, "f.json", {
        "dimension": 2,
        "ensemble": {"kind": "constant", "params": {"value": 1.0}},
        "max_level": 1, "samples": 2, "method": "oracle",
    })
    assert main(["flow", "--config", cfg]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"


def test_flow_reliability_failure_is_exit_3(tmp_path, capsys, solver_settings):
    # One CG iteration per unknown cannot reach 1e-14 at contrast 1e4: every
    # sample aborts with a ConvergenceError.
    solver_settings(tolerance=1e-14, max_iter_factor=1, direct_cost_cap=0)
    cfg = write_config(tmp_path, "f.json", {
        "dimension": 1,
        "ensemble": {
            "kind": "two_phase_iid",
            "params": {"prob_hi": 0.5, "sigma_hi": 100.0, "sigma_lo": 0.01},
            "seed": 3,
        },
        "max_level": 3, "samples": 4,
    })
    assert main(["flow", "--config", cfg, "--threads", "1"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ReliabilityError"
    assert err["message"].startswith("4 of 4 samples aborted")


CONSTANTS_2D = {
    "dimension": 2,
    "ensemble": {"kind": "constant", "params": {"value": 1.0}},
    "level": 1, "s": 0.25, "t": 0.25, "q": 2,
}
BESOV_RING = {
    "dimension": 1, "s": 0.5, "p": 1, "q": 1,
    "data": {"kind": "ring", "level": 0, "cells": [1.0]},
}
VERIFY = {"seed": 1, "cases": 1}
SWEEP_1D = {
    "dimension": 1, "max_level": 2, "samples": 4, "method": "oracle",
    "sweep": {"thetas": [4, 16], "sigma": 0.5},
}


def besov_data(**entries):
    return dict(BESOV_RING, data=dict(BESOV_RING["data"], **entries))


ALL_COMMANDS = [
    ("coarse-grain", COARSE_1D), ("flow", FLOW_1D), ("constants", CONSTANTS_2D),
    ("besov", BESOV_RING), ("verify", VERIFY),
]


@pytest.mark.parametrize("command, config", ALL_COMMANDS)
def test_solver_key_is_unknown(tmp_path, capsys, command, config):
    # The solver's settings are fixed in the program; configs carry none.
    cfg = write_config(tmp_path, "c.json",
                       dict(config, solver={"direct_threshold": 0}))
    assert main([command, "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "solver" in err["message"]


@pytest.mark.parametrize("command, config, key", [
    ("verify", dict(VERIFY, max_level=0), "max_level"),
    ("verify", dict(VERIFY, max_level=1.5), "max_level"),
    ("verify", dict(VERIFY, dimensions=2), "dimensions"),
    ("constants", dict(CONSTANTS_2D, budget_cap="100"), "budget_cap"),
    ("constants", dict(CONSTANTS_2D, budget_cap=0), "budget_cap"),
    ("constants", dict(CONSTANTS_2D, min_level="-1"), "min_level"),
    ("constants", dict(CONSTANTS_2D, min_level=1.5), "min_level"),
    ("constants", dict(CONSTANTS_2D, min_level=2), "min_level"),
    ("besov", dict(BESOV_RING, min_level="-1"), "min_level"),
    ("besov", dict(BESOV_RING, min_level=1.5), "min_level"),
    ("besov", dict(BESOV_RING, min_level=2), "min_level"),
    ("flow", dict(FLOW_1D, find_scale={"sigma": "abc"}), "sigma"),
    ("flow", dict(FLOW_1D, pigeonhole={"delta": "x", "sigma": 0.5}), "delta"),
    ("flow", dict(FLOW_1D, pigeonhole={"delta": 0.5, "sigma": [0.5]}), "sigma"),
    ("flow", dict(FLOW_1D, pigeonhole={"delta": 0.5, "sigma": 0.5, "h": "z"}), "h must"),
    ("flow", dict(SWEEP_1D, sweep={"thetas": [4], "sigma": "abc"}), "sigma"),
    ("flow", dict(SWEEP_1D, sweep={"thetas": 4, "sigma": 0.5}), "thetas"),
    ("flow", dict(SWEEP_1D, sweep={"thetas": [4, "a"], "sigma": 0.5}), "thetas"),
    ("flow", dict(FLOW_1D, dimension=True), "dimension"),
    ("besov", besov_data(level="a"), "level"),
    ("besov", besov_data(value_dimension="2"), "value_dimension"),
    ("besov", besov_data(cells=["x"]), "cells"),
    ("verify", dict(VERIFY, dimensions=[True]), "dimensions"),
    ("coarse-grain", dict(COARSE_1D, cubes=[{"level": "a", "offset": [0]}]), "level"),
    ("coarse-grain", dict(COARSE_1D, cubes=[{"level": 1.5, "offset": [0]}]), "level"),
    ("coarse-grain", dict(COARSE_1D, cubes=3), "cubes"),
    ("coarse-grain", dict(COARSE_1D, cubes=[3]), "cubes"),
    ("coarse-grain", dict(COARSE_1D, cubes=[{"level": 0, "offset": [1.0]}]), "offset"),
    ("coarse-grain", dict(COARSE_1D, cubes=[{"level": 0, "offset": 1}]), "offset"),
    ("coarse-grain", dict(COARSE_1D, ensemble=dict(COARSE_1D["ensemble"], seed=2 ** 64)),
     "seed"),
    ("flow", dict(FLOW_1D, ensemble=dict(FLOW_1D["ensemble"], seed=-1)), "seed"),
    ("flow", dict(FLOW_1D, ensemble=dict(FLOW_1D["ensemble"], seed=1.5)), "seed"),
    ("constants", dict(CONSTANTS_2D, ensemble=dict(CONSTANTS_2D["ensemble"], seed="7")),
     "seed"),
    ("verify", dict(VERIFY, seed=-1), "seed"),
    ("verify", dict(VERIFY, seed=2 ** 64), "seed"),
    ("coarse-grain", dict(COARSE_1D, ensemble={"kind": "explicit",
                                               "params": {"cells": ["a", 1, 1]}}),
     "cells"),
    # json.dumps writes the non-standard literals NaN and +-Infinity.
    ("coarse-grain", dict(COARSE_1D, ensemble={"kind": "constant",
                                               "params": {"value": math.inf}}),
     "Infinity"),
    ("flow", dict(FLOW_1D, ensemble=dict(FLOW_1D["ensemble"], params=dict(
        FLOW_1D["ensemble"]["params"], sigma_hi=math.nan))), "NaN"),
    ("constants", dict(CONSTANTS_2D, ensemble={"kind": "constant",
                                               "params": {"value": math.inf}}),
     "Infinity"),
    ("besov", dict(BESOV_RING, p=math.nan), "NaN"),
    ("verify", dict(VERIFY, cases=-math.inf), "-Infinity"),
])
def test_bad_integer_settings_are_config_errors(tmp_path, capsys, command, config, key):
    cfg = write_config(tmp_path, "c.json", config)
    assert main([command, "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert key in err["message"]


# Cells near the float range overflow in exp, and a pair's Gram matrices
# overflow in the stiffness products: the warnings are the expected outcome.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("ensemble, code, error", [
    ({"kind": "lognormal_iid", "params": {"log_mean": 1000.0, "log_sigma": 0.5}},
     2, "ParameterError"),
    ({"kind": "constant", "params": {"value": 1e308}}, 3, "ConsistencyError"),
])
def test_non_finite_matrices_are_rejected(tmp_path, capsys, ensemble, code, error):
    # Non-finite cells fail the field's SPD check; non-finite coarse matrices
    # fail the pair's, instead of being written out as NaN.
    cfg = write_config(tmp_path, "c.json",
                       {"dimension": 2, "level": 1, "ensemble": ensemble})
    assert main(["coarse-grain", "--config", cfg]) == code
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    assert "not finite" in err["message"]


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
@pytest.mark.parametrize("command, config", ALL_COMMANDS)
def test_seed_outside_u64_is_config_error(tmp_path, capsys, command, config, seed):
    # Seeds are u64: no wrap to another seed's field, no uncaught overflow.
    cfg = write_config(tmp_path, "c.json", config)
    assert main([command, "--config", cfg, "--seed", seed]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "--seed" in err["message"]


def test_largest_seed_runs(tmp_path, capsys):
    # Derived seeds (seed + 1000 + i, seed + level) wrap past 2^64 - 1.
    top = str(2 ** 64 - 1)
    cfg = write_config(tmp_path, "v.json", VERIFY)
    assert main(["verify", "--config", cfg, "--seed", top]) == 0
    assert json.loads(capsys.readouterr().out)["failed"] is None
    cfg = write_config(tmp_path, "f.json", FLOW_1D)
    assert main(["flow", "--config", cfg, "--seed", top, "--threads", "1"]) == 0
    capsys.readouterr()


def test_flow_output_bytes_do_not_depend_on_threads(tmp_path, capsys):
    cfg = write_config(tmp_path, "f.json", {
        "dimension": 2,
        "ensemble": {
            "kind": "two_phase_iid",
            "params": {"prob_hi": 0.5, "sigma_hi": 10.0, "sigma_lo": 0.1},
            "seed": 5,
        },
        "max_level": 2, "samples": 4,
    })
    for threads in ("1", "2"):
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / threads),
                     "--threads", threads]) == 0
    capsys.readouterr()
    for name in ("flow.csv", "flow.json"):
        assert (tmp_path / "1" / name).read_bytes() == (
            tmp_path / "2" / name
        ).read_bytes()


def test_constants_budget_error_is_exit_4(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "dimension": 2,
        "ensemble": {"kind": "constant", "params": {"value": 1.0}},
        "level": 2, "s": 0.25, "t": 0.25, "q": 2, "budget_cap": 5,
    })
    assert main(["constants", "--config", cfg]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "CapacityError"


def test_constants_constant_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "dimension": 2,
        "ensemble": {"kind": "constant", "params": {"value": 2.5}},
        "level": 2, "s": 0.25, "t": 0.25, "q": 2,
    })
    assert main(["constants", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["Lambda"] == pytest.approx(2.5, rel=1e-9)
    assert out["lambda"] == pytest.approx(2.5, rel=1e-9)
    assert out["defect"] == pytest.approx(0.0, abs=1e-10)


def test_besov_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "b.json", {
        "dimension": 1, "s": 0.5, "p": 1, "q": 1,
        "data": {"kind": "ring", "level": 0, "cells": [1.0]},
    })
    assert main(["besov", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(1.0 / (1.0 - 3.0 ** -0.5), rel=1e-12)


def test_verify_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.json", {"seed": 1, "cases": 5})
    assert main(["verify", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] is None
    assert report["cases"] == 7  # 5 random + 2 constant baselines


def test_verify_zero_cases(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.json", {"seed": 1, "cases": 0})
    assert main(["verify", "--config", cfg]) == 0
    capsys.readouterr()


def test_verify_injected_fault_names_ordering(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.json",
                       {"seed": 1, "cases": 2, "inject_fault": "ordering"})
    assert main(["verify", "--config", cfg]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] == "ordering"


def test_run_verification_worst_slacks_reported():
    report = run_verification(seed=3, cases=4)
    assert report["failed"] is None
    assert report["worst"]["j_energy_rel"] <= 1e-7
    assert report["worst"]["subadditivity"] >= -1e-7


def test_verification_solves_with_the_solver_settings(solver_settings, banded_calls):
    # At the default cap verify's block solves are banded; with a cap of 0
    # every one of them, the harmonic functions' included, runs PCG.
    assert run_verification(seed=3, cases=2)["failed"] is None
    assert banded_calls
    banded_calls.clear()
    solver_settings(direct_cost_cap=0)
    report = run_verification(seed=3, cases=2)
    assert report["failed"] is None
    assert banded_calls == []
