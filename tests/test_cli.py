import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cgflow
from cgflow.cli import _load_config, main, run_verification
from cgflow.errors import ConfigError


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


def test_flow_symmetrize_key_is_unknown(tmp_path, capsys):
    # A flow always records the cube-group averages; no key switches them off.
    cfg = write_config(tmp_path, "f.json", dict(FLOW_1D, symmetrize=True))
    assert main(["flow", "--config", cfg]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError"
    assert "symmetrize" in err["message"]


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


@pytest.mark.parametrize("argv", [["nope", "--config", "c.json"],
                                  ["--config", "c.json"]])
def test_unknown_or_missing_command_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: cgflow" in capsys.readouterr().err


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
    # CG cannot reach a tolerance of 1e-20: every sample aborts with a
    # ConvergenceError.
    solver_settings(tolerance=1e-20, direct_cost_cap=0)
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


# Contrast 1e32: the level-3 band loses positive definiteness in floating
# point.
HUGE_CONTRAST = {
    "kind": "two_phase_iid",
    "params": {"prob_hi": 0.5, "sigma_hi": 1e16, "sigma_lo": 1e-16},
    "seed": 1,
}


@pytest.mark.parametrize("command, config, error", [
    ("coarse-grain", {"dimension": 2, "level": 3, "ensemble": HUGE_CONTRAST},
     "ConvergenceError"),
    ("flow", {"dimension": 2, "max_level": 3, "samples": 4, "ensemble": HUGE_CONTRAST},
     "ReliabilityError"),
])
def test_failed_banded_factorization_is_exit_3(tmp_path, capsys, command, config, error):
    # A failed factorization aborts the pair, or the flow sample, as a
    # solver failure: exit 3 and one JSON line, not a traceback.
    cfg = write_config(tmp_path, "c.json", config)
    assert main([command, "--config", cfg, "--threads", "1"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == error


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


def lognormal_1d(log_mean):
    return dict(COARSE_1D, ensemble={
        "kind": "lognormal_iid", "params": {"log_mean": log_mean, "log_sigma": 1.0}})


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
    # Ensemble parameters are finite real numbers, not bools or lists.
    ("coarse-grain", lognormal_1d(None), "log_mean"),
    ("coarse-grain", lognormal_1d("a"), "log_mean"),
    ("coarse-grain", lognormal_1d([0.0, 1.0, 2.0]), "log_mean"),
    ("coarse-grain", dict(COARSE_1D, ensemble={"kind": "constant",
                                               "params": {"value": True}}), "value"),
    ("flow", dict(FLOW_1D, ensemble=dict(FLOW_1D["ensemble"], params=dict(
        FLOW_1D["ensemble"]["params"], prob_hi=True))), "prob_hi"),
    # A sweep takes its sigma from the sweep block and reports no scale.
    ("flow", dict(SWEEP_1D, pigeonhole={"delta": 0.5, "sigma": 0.5}), "pigeonhole"),
    ("flow", dict(SWEEP_1D, find_scale={"sigma": 0.5}), "find_scale"),
])
def test_bad_integer_settings_are_config_errors(tmp_path, capsys, command, config, key):
    cfg = write_config(tmp_path, "c.json", config)
    assert main([command, "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert key in err["message"]


def _with_literal(config, literal, path=()):
    """The config as JSON text with the value at `path` written as `literal`,
    which json.dumps cannot write."""
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "LITERAL"
    return json.dumps(config).replace('"LITERAL"', literal)


def test_besov_positive_rejects_min_level(tmp_path, capsys):
    # The positive seminorm has no sub-unit tail to truncate, so the key is
    # an error, even when its value is malformed.
    for value in ("garbage", -2):
        cfg = write_config(tmp_path, "b.json", dict(
            BESOV_RING, min_level=value,
            data={"kind": "positive", "level": 1, "cells": [1.0, 2.0, 4.0]}))
        assert main(["besov", "--config", cfg]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "min_level" in err["message"]


@pytest.mark.parametrize("command, config", [
    ("flow", dict(FLOW_1D, pigeonhole={"delta": 0.5})),
    ("flow", dict(FLOW_1D, pigeonhole={"delta": "x", "sigma": 0.5})),
    ("flow", dict(FLOW_1D, pigeonhole={"delta": 0.9, "sigma": 0.5})),
    ("flow", dict(FLOW_1D, pigeonhole={"delta": 0.5, "sigma": 1.5})),
    ("flow", dict(FLOW_1D, pigeonhole={"delta": 0.5, "sigma": 0.5, "h": 0})),
    # The lemma needs 3 scales at delta = sigma = 1/2; the run has 2.
    ("flow", dict(FLOW_1D, pigeonhole={"delta": 0.5, "sigma": 0.5})),
    ("flow", dict(FLOW_1D, find_scale={})),
    ("flow", dict(FLOW_1D, find_scale={"sigma": 0.9})),
    ("flow", dict(SWEEP_1D, sweep={"thetas": [4, 16], "sigma": 0.9})),
    ("flow", dict(SWEEP_1D, sweep={"thetas": [4, 0.5], "sigma": 0.5})),
    ("constants", dict(CONSTANTS_2D, abar_samples=1)),
    ("coarse-grain", dict(COARSE_1D, cubes=[{"level": 0, "offset": [0]},
                                            {"level": 0, "offset": [3]}])),
    ("coarse-grain", dict(COARSE_1D, cubes=[{"level": 0, "offset": [0, 0]}])),
])
def test_config_errors_come_before_any_field_is_generated(
        tmp_path, capsys, monkeypatch, command, config):
    calls = []

    def generate(*args):
        calls.append(args)
        return cgflow.grid.generate(*args)

    monkeypatch.setattr(cgflow.cli, "generate", generate)
    monkeypatch.setattr(cgflow.flow, "generate", generate)
    cfg = write_config(tmp_path, "c.json", config)
    assert main([command, "--config", cfg, "--threads", "1"]) == 2
    assert calls == []
    assert json.loads(capsys.readouterr().err)["exit_code"] == 2


@pytest.mark.parametrize("command, text", [
    ("besov", _with_literal(BESOV_RING, "1e999", ("q",))),
    ("besov", _with_literal(besov_data(level=1, cells=[]), "[1e999, 1.0, 2.0]",
                            ("data", "cells"))),
    ("besov", _with_literal(BESOV_RING, "9" * 400, ("p",))),
    ("flow", _with_literal(FLOW_1D, "9" * 400, ("ensemble", "params", "sigma_hi"))),
    ("flow", _with_literal(FLOW_1D, "-1e400", ("ensemble", "params", "sigma_lo"))),
])
def test_numbers_beyond_a_double_are_config_errors(tmp_path, capsys, command, text):
    # Such literals would load as inf, or as ints that no float holds.
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main([command, "--config", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError"
    assert "not a finite double" in err["message"]


def test_finite_numbers_whose_sum_overflows_are_accepted(tmp_path):
    # A list's sum is only a shortcut: when it overflows, the elements are
    # checked one by one.
    path = tmp_path / "c.json"
    path.write_text('{"cells": [1e308, 1e308], "nested": [[1e308], [1e308, "a"]]}')
    assert _load_config(str(path)) == {"cells": [1e308, 1e308],
                                       "nested": [[1e308], [1e308, "a"]]}


def test_overflowing_literal_in_a_list_is_named(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(_with_literal(besov_data(level=1, cells=[]), "[1e999, 1.0]",
                                  ("data", "cells")))
    assert main(["besov", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigError", "exit_code": 2,
                   "message": "number 1e999 is not a finite double"}


def test_integer_beyond_a_double_in_a_list_is_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"cells": [1.0, 1' + "0" * 400 + ']}')
    with pytest.raises(ConfigError, match="not a finite double"):
        _load_config(str(path))


@pytest.mark.parametrize("kind", ["ring", "positive"])
def test_besov_overflow_is_the_only_stderr_output(tmp_path, kind):
    # Finite cells near the float range overflow in the seminorm's powers.
    cfg = write_config(tmp_path, "b.json", {
        "dimension": 1, "s": 0.25, "p": 2, "q": 1,
        "data": {"kind": kind, "level": 1, "cells": [1e300, -1e300, 1e300]}})
    src = os.path.dirname(os.path.dirname(cgflow.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "cgflow.cli", "besov", "--config", cfg],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError"
    assert "not finite" in err["message"]


# Cells near the float range overflow in exp, and a pair's Gram matrices
# overflow in the stiffness products; the command reports that as its one
# classified error, with no RuntimeWarning.
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


def test_overflow_error_is_the_only_stderr_output(tmp_path):
    # Run as a program, where numpy's RuntimeWarnings would print to stderr
    # before the error line.
    cfg = write_config(tmp_path, "c.json", {
        "dimension": 2, "level": 1,
        "ensemble": {"kind": "lognormal_iid",
                     "params": {"log_mean": 1000.0, "log_sigma": 0.5}}})
    src = os.path.dirname(os.path.dirname(cgflow.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "cgflow.cli", "coarse-grain", "--config", cfg],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default"))
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert json.loads(proc.stderr)["error"] == "ParameterError"


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


@pytest.mark.parametrize("dimension, max_level, seed", [
    pytest.param(2, 2, 5, id="2d-L2"),
    # Its level-3 pairs solve on PCG, whose sums a threaded BLAS reorders.
    pytest.param(3, 3, 4, id="3d-L3"),
])
def test_flow_output_bytes_do_not_depend_on_threads(tmp_path, capsys, dimension,
                                                    max_level, seed):
    cfg = write_config(tmp_path, "f.json", {
        "dimension": dimension,
        "ensemble": {
            "kind": "two_phase_iid",
            "params": {"prob_hi": 0.5, "sigma_hi": 10.0, "sigma_lo": 0.1},
            "seed": seed,
        },
        "max_level": max_level, "samples": 4,
    })
    for threads in ("1", "2"):
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / threads),
                     "--threads", threads]) == 0
    capsys.readouterr()
    for name in ("flow.csv", "flow.json"):
        assert (tmp_path / "1" / name).read_bytes() == (
            tmp_path / "2" / name
        ).read_bytes()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_are_config_errors(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, "f.json", FLOW_1D)
    assert main(["flow", "--config", cfg, "--threads", threads]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "ConfigError",
        "message": f"--threads must be >= 1, got {threads}",
        "exit_code": 2,
    }


def test_flow_pigeonhole_and_scale_payloads(tmp_path, capsys):
    # A constant field is flat at every level: the first step is a good
    # scale and the contrast is 1 from level 0 on, with zero noise.
    cfg = write_config(tmp_path, "f.json", {
        "dimension": 1,
        "ensemble": {"kind": "constant", "params": {"value": 2.0}},
        "max_level": 3, "samples": 2, "method": "oracle",
        "pigeonhole": {"delta": 0.5, "sigma": 0.5},
        "find_scale": {"sigma": 0.5},
    })
    assert main(["flow", "--config", cfg, "--threads", "1",
                 "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "o" / "flow.json").read_text())
    assert doc["pigeonhole"] == {
        "variant": "good_scale", "level": 1, "delta": 0.5, "sigma": 0.5,
        "h": 1, "max_level": 3, "ratios": [1.0, 1.0], "theta_ratio": 1.0,
    }
    assert doc["homogenization_scale"] == {
        "level": 0, "reached": True, "confident": True, "sigma": 0.5,
    }


def test_constants_abar_samples_is_the_flow_estimate(tmp_path, capsys):
    config = {
        "dimension": 2,
        "ensemble": {
            "kind": "two_phase_iid",
            "params": {"prob_hi": 0.5, "sigma_hi": 4.0, "sigma_lo": 0.25},
            "seed": 2,
        },
        "level": 1, "s": 0.25, "t": 0.25, "q": 2, "abar_samples": 3,
    }
    cfg = write_config(tmp_path, "c.json", config)
    assert main(["constants", "--config", cfg, "--threads", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    spec = cgflow.EnsembleSpec.from_json_dict(config["ensemble"])
    with cgflow.flow.one_blas_thread():
        abar = cgflow.run_flow(spec, 2, 1, 3).abar[1]
    assert out["abar"] == [abar, 0.0, 0.0, abar]
    assert abar != pytest.approx(4.0)  # not the cells' own value


def test_flow_3d(tmp_path, capsys):
    cfg = write_config(tmp_path, "f.json", {
        "dimension": 3,
        "ensemble": {
            "kind": "two_phase_iid",
            "params": {"prob_hi": 0.5, "sigma_hi": 10.0, "sigma_lo": 0.1},
            "seed": 1,
        },
        "max_level": 2, "samples": 4,
    })
    for threads in ("1", "2"):
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / threads),
                     "--threads", threads]) == 0
    capsys.readouterr()
    assert (tmp_path / "1" / "flow.csv").read_bytes() == (
        tmp_path / "2" / "flow.csv"
    ).read_bytes()
    doc = json.loads((tmp_path / "1" / "flow.json").read_text())
    assert doc["aborted_samples"] == 0
    assert len(doc["scales"]) == 3
    for sc in doc["scales"]:
        # a_* <= a per sample puts the product of the mean traces above 1.
        assert sc["theta"] >= 1.0
        for key in ("abar", "abar_se", "astar_inv", "astar_inv_se"):
            mat = np.array(sc[key]).reshape(3, 3)
            np.testing.assert_array_equal(mat, mat[0, 0] * np.eye(3))


def test_constants_budget_error_is_exit_4(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "dimension": 2,
        "ensemble": {"kind": "constant", "params": {"value": 1.0}},
        "level": 2, "s": 0.25, "t": 0.25, "q": 2, "budget_cap": 5,
    })
    assert main(["constants", "--config", cfg]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "CapacityError"


def test_refused_allocation_is_exit_4(tmp_path, capsys, monkeypatch):
    # numpy's MemoryError for a cube too large to allocate (3d level 8 asks
    # for 18.5 TiB) is one JSON line and exit 4, like a budget error.
    def generate(*args):
        raise MemoryError("Unable to allocate 18.5 TiB")

    monkeypatch.setattr(cgflow.cli, "generate", generate)
    cfg = write_config(tmp_path, "c.json", {
        "dimension": 3,
        "ensemble": {"kind": "constant", "params": {"value": 1.0}},
        "level": 8,
    })
    assert main(["coarse-grain", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "MemoryError",
                               "message": "Unable to allocate 18.5 TiB",
                               "exit_code": 4}


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


@pytest.mark.parametrize("kind, q, value", [
    ("positive", 2, cgflow.besov_positive),
    ("ring", "inf", lambda g, d, s, p, q: cgflow.besov_ring(g, d, s, p, q, None)),
])
def test_besov_command_matches_the_library(tmp_path, capsys, kind, q, value):
    cells = [1.0, 2.0, 4.0, 1.0, 0.5, 3.0, 2.0, 2.0, 1.0]
    cfg = write_config(tmp_path, "b.json", {
        "dimension": 1, "s": 0.5, "p": 2, "q": q,
        "data": {"kind": kind, "level": 2, "cells": cells},
    })
    assert main(["besov", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    expected = value(np.array(cells).reshape(9, 1), 1, 0.5, 2.0,
                     math.inf if q == "inf" else float(q))
    assert out == {"kind": kind, "s": 0.5, "p": 2, "q": q, "value": expected}
    assert expected > 0


def test_besov_positive_3d_level_3(tmp_path, capsys):
    # 27^3 seeded lognormal cells, for p = 2 and p = 3: finite values >= 0,
    # and the p = 2 value no larger than the p = 3 one (power means are
    # monotone in p).
    cells = np.random.default_rng(3).lognormal(0.0, 1.0, 27 ** 3).tolist()
    values = {}
    for p in (2, 3):
        cfg = write_config(tmp_path, f"besov_p{p}.json", {
            "dimension": 3, "s": 0.25, "p": p, "q": 2,
            "data": {"kind": "positive", "level": 3, "cells": cells}})
        assert main(["besov", "--config", cfg, "--threads", "1"]) == 0
        values[p] = json.loads(capsys.readouterr().out)["value"]
    assert all(math.isfinite(v) and v >= 0 for v in values.values())
    assert values[2] <= values[3]


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


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("name, sides, check", [
    # A lower-bound check and a relative one.
    ("response_defect", (math.nan, math.nan), "response_map"),
    ("first_variation_sides", (math.nan, 0.0), "first_variation"),
])
def test_verify_fails_on_a_nan(tmp_path, capsys, monkeypatch, name, sides, check):
    # A NaN passes no comparison: it must fail its check, not be skipped,
    # and verify.json writes it as null.
    monkeypatch.setattr(cgflow.cli, name, lambda *args: sides)
    cfg = write_config(tmp_path, "v.json", {"seed": 1, "cases": 2})
    assert main(["verify", "--config", cfg]) == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["failed"] == check
    assert report["worst"][check] is None


def test_verification_solves_each_top_pair_once(monkeypatch):
    # Per instance, one level_pairs call at the top level (the ladder's,
    # whose pair every check reads), and two one-cube operators of the top
    # cube: the checks' and the one the top level's pair solves on.
    from cgflow import coarse, multiscale, solver

    top_pairs, top_ops, fields = {}, {}, {}
    for mod in (coarse, multiscale):
        def counted(field, cube, level, _inner=mod.level_pairs):
            if level == cube.level:
                fields[id(field)] = field
                top_pairs[id(field)] = top_pairs.get(id(field), 0) + 1
            return _inner(field, cube, level)
        monkeypatch.setattr(mod, "level_pairs", counted)
    init = solver.CubeOperator.__init__

    def counted_init(self, field, cube, level=None):
        if cube == field.cube and level in (None, cube.level):
            fields[id(field)] = field
            top_ops[id(field)] = top_ops.get(id(field), 0) + 1
        init(self, field, cube, level)
    monkeypatch.setattr(solver.CubeOperator, "__init__", counted_init)

    report = run_verification(seed=3, cases=2)
    assert report["failed"] is None
    assert len(fields) == report["cases"] == 4
    assert list(top_pairs.values()) == [1] * 4
    assert list(top_ops.values()) == [2] * 4
