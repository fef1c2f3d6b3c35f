"""Batch front-end: strict JSON configs in, CSV/JSON artifacts out.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 solver or
statistical error, 4 budget error.  Errors are emitted as one JSON object on
stderr; stdout carries only data.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import (
    CapacityError,
    CgflowError,
    ConfigError,
    ConsistencyError,
    ConvergenceError,
    ParameterError,
    PigeonholeDiagnosticError,
    PreconditionError,
    ReliabilityError,
)
from .grid import EnsembleSpec, TriadicCube, generate, root_cube
from .solver import CubeOperator, harmonic_pool, solve_v
from .coarse import (
    coarse_pair,
    energy_map_check,
    first_variation_sides,
    fluxmap_sides,
    integral_bound_slacks,
    j_functional,
    response_defect,
    second_variation_sides,
    subadditivity_defect,
)
from . import flow as flow_mod
from . import multiscale

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4

def _check_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"unknown keys in {where}: {sorted(extra)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _seed(v, key: str) -> int:
    # Seeds key the cell streams' 64-bit Philox word: no silent wrap.
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < 2 ** 64:
        raise ConfigError(f"{key} must be an integer in [0, 2^64), got {v!r}")
    return v


def _ensemble(config: dict, seed_override) -> EnsembleSpec:
    block = config["ensemble"]
    if isinstance(block, dict) and "seed" in block:
        _seed(block["seed"], "ensemble seed")
    try:
        spec = EnsembleSpec.from_json_dict(block)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad ensemble block: {exc}") from exc
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    if seed_override is not None:
        spec = spec.with_seed(seed_override)
    return spec


def _dimension(config: dict) -> int:
    d = config["dimension"]
    if isinstance(d, bool) or d not in (1, 2, 3):
        raise ConfigError(f"dimension must be 1, 2 or 3, got {d!r}")
    return int(d)


def _positive_int(config: dict, key: str, minimum: int = 0, default=None) -> int:
    v = config.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {v!r}")
    return v


def _min_level(config: dict):
    v = config.get("min_level")
    if v is not None and (not isinstance(v, int) or isinstance(v, bool) or v > 0):
        raise ConfigError(f"min_level must be an integer <= 0, got {v!r}")
    return v


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(config: dict, key: str, what: str = "a number") -> float:
    v = config[key]
    if not _is_number(v):
        raise ConfigError(f"{key} must be {what}, got {v!r}")
    return float(v)


def _exponent(config: dict, key: str):
    if config[key] == "inf":
        return math.inf
    return _number(config, key, 'a number or "inf"')


def _emit(out_dir, name: str, text: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)


# -- subcommands ---------------------------------------------------------


def cmd_coarse_grain(config: dict, out_dir, threads: int, seed_override) -> int:
    _check_keys(
        config,
        {"dimension", "ensemble", "level", "cubes"},
        {"dimension", "ensemble", "level"},
        "config",
    )
    d = _dimension(config)
    level = _positive_int(config, "level")
    spec = _ensemble(config, seed_override)
    field = generate(spec, d, level)
    cube_specs = config.get("cubes")
    if cube_specs is None:
        cubes = [root_cube(d, level)]
    elif not isinstance(cube_specs, list):
        raise ConfigError(f"cubes must be a list of objects, got {cube_specs!r}")
    else:
        cubes = []
        for c in cube_specs:
            _check_keys(c, {"level", "offset"}, {"level", "offset"}, "cubes[]")
            offset = c["offset"]
            if not isinstance(offset, list) or not all(
                    isinstance(o, int) and not isinstance(o, bool) for o in offset):
                raise ConfigError(f"offset must be a list of integers, got {offset!r}")
            try:
                cubes.append(TriadicCube(_positive_int(c, "level"), tuple(offset)))
            except ParameterError as exc:
                raise ConfigError(str(exc)) from exc
    pairs = [coarse_pair(field, cube).to_json_dict() for cube in cubes]
    payload = {"dimension": d, "ensemble": spec.to_json_dict(), "pairs": pairs}
    _emit(out_dir, "coarse_grain.json", json.dumps(payload, indent=2))
    return EXIT_OK


def _two_phase_for_contrast(theta: float, seed: int) -> EnsembleSpec:
    # Symmetric two-phase ensemble whose cell contrast E[sigma] E[1/sigma]
    # target is theta: phases (sqrt(theta), 1/sqrt(theta)) at probability 1/2.
    if theta < 1.0:
        raise ConfigError("sweep contrast values must be >= 1")
    hi = math.sqrt(theta)
    return EnsembleSpec(
        "two_phase_iid",
        {"prob_hi": 0.5, "sigma_hi": hi, "sigma_lo": 1.0 / hi},
        seed,
    )


def cmd_flow(config: dict, out_dir, threads: int, seed_override) -> int:
    allowed = {
        "dimension", "ensemble", "max_level", "samples", "method",
        "pigeonhole", "find_scale", "sweep",
    }
    _check_keys(config, allowed, {"dimension", "max_level", "samples"}, "config")
    if ("sweep" in config) == ("ensemble" in config):
        raise ConfigError("exactly one of `ensemble` and `sweep` is required")
    d = _dimension(config)
    max_level = _positive_int(config, "max_level")
    samples = _positive_int(config, "samples", minimum=2)
    method = config.get("method", "solver")
    if method not in ("solver", "oracle"):
        raise ConfigError(f"method must be 'solver' or 'oracle', got {method!r}")

    if "sweep" in config:
        for key in ("pigeonhole", "find_scale"):
            if key in config:
                raise ConfigError(f"`{key}` does not apply to a sweep, which takes "
                                  "its sigma from `sweep.sigma`")
        sweep = config["sweep"]
        _check_keys(sweep, {"thetas", "sigma"}, {"thetas", "sigma"}, "sweep")
        sigma = _number(sweep, "sigma")
        thetas = sweep["thetas"]
        if not isinstance(thetas, list) or not all(map(_is_number, thetas)):
            raise ConfigError(f"thetas must be a list of numbers, got {thetas!r}")
        rows = ["theta_cell,n_hat,confident"]
        seed = seed_override if seed_override is not None else 0
        for theta in thetas:
            spec = _two_phase_for_contrast(float(theta), seed)
            record = flow_mod.run_flow(spec, d, max_level, samples, method,
                                       workers=threads)
            scale = flow_mod.scale_from_record(record, sigma)
            _emit(out_dir, f"flow_theta_{theta}.csv", record.to_csv())
            n_hat = "not-reached" if not scale.reached else str(scale.level)
            rows.append(f"{theta!r},{n_hat},{str(scale.confident).lower()}")
        _emit(out_dir, "sweep_summary.csv", "\n".join(rows) + "\n")
        return EXIT_OK

    spec = _ensemble(config, seed_override)
    record = flow_mod.run_flow(spec, d, max_level, samples, method,
                               workers=threads)
    payload = record.to_json_dict()
    if "pigeonhole" in config:
        ph = config["pigeonhole"]
        _check_keys(ph, {"delta", "sigma", "h"}, {"delta", "sigma"}, "pigeonhole")
        result = flow_mod.pigeonhole_select(
            record, _number(ph, "delta"), _number(ph, "sigma"),
            _positive_int(ph, "h", minimum=1, default=1),
        )
        payload["pigeonhole"] = result.to_json_dict()
    if "find_scale" in config:
        fs = config["find_scale"]
        _check_keys(fs, {"sigma"}, {"sigma"}, "find_scale")
        scale = flow_mod.scale_from_record(record, _number(fs, "sigma"))
        payload["homogenization_scale"] = scale.to_json_dict()
    _emit(out_dir, "flow.csv", record.to_csv())
    _emit(out_dir, "flow.json", json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_constants(config: dict, out_dir, threads: int, seed_override) -> int:
    allowed = {
        "dimension", "ensemble", "level", "s", "t", "q", "min_level",
        "abar_samples", "budget_cap",
    }
    _check_keys(config, allowed, {"dimension", "ensemble", "level", "s", "t", "q"},
                "config")
    d = _dimension(config)
    level = _positive_int(config, "level")
    spec = _ensemble(config, seed_override)
    try:
        exps = multiscale.ExponentSet(
            _exponent(config, "s"), _exponent(config, "t"), _exponent(config, "q")
        )
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    min_level = _min_level(config)
    budget_cap = _positive_int(config, "budget_cap", minimum=1,
                               default=multiscale.DEFAULT_BUDGET_CAP)

    field = generate(spec, d, level)
    cube = field.cube
    lad = multiscale.ladder(field, cube, budget_cap)
    lam_big, lam_small = multiscale.ellipticity_constants(lad, exps, min_level)

    # Reference matrix for the defect: annealed estimate when requested,
    # otherwise this realization's own top-scale Dirichlet matrix.
    if "abar_samples" in config:
        n_ab = _positive_int(config, "abar_samples", minimum=2)
        record = flow_mod.run_flow(spec, d, level, n_ab, workers=threads)
        abar = record.estimates[level].abar * np.eye(d)
    else:
        abar = lad.a_all[level][0]
    payload = {
        "dimension": d,
        "level": level,
        "s": config["s"],
        "t": config["t"],
        "q": config["q"],
        "Lambda": lam_big,
        "lambda": lam_small,
        "abar": [float(x) for x in np.asarray(abar).ravel()],
    }
    if exps.s < 0.5:
        payload["defect"] = multiscale.multiscale_defect(
            lad, abar, exps.s, exps.q, min_level
        )
    _emit(out_dir, "constants.json", json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_besov(config: dict, out_dir, threads: int, seed_override) -> int:
    allowed = {"dimension", "s", "p", "q", "min_level", "data"}
    _check_keys(config, allowed, {"dimension", "s", "p", "q", "data"}, "config")
    d = _dimension(config)
    s = _exponent(config, "s")
    p = _exponent(config, "p")
    q = _exponent(config, "q")
    data = config["data"]
    _check_keys(data, {"kind", "level", "cells", "value_dimension"},
                {"kind", "level", "cells"}, "data")
    kind = data["kind"]
    if kind not in ("ring", "positive"):
        raise ConfigError(f"data.kind must be 'ring' or 'positive', got {kind!r}")
    m = _positive_int(data, "level")
    v = _positive_int(data, "value_dimension", minimum=1, default=1)
    n = 3 ** m
    try:
        cells = np.array(data["cells"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cells must be an array of numbers: {exc}") from exc
    want = n ** d * v
    if cells.size != want:
        raise ConfigError(f"data.cells carries {cells.size} floats, expected {want}")
    grid = cells.reshape((n,) * d + (v,))
    try:
        if kind == "ring":
            value = multiscale.besov_ring(grid, d, s, p, q, _min_level(config))
        else:
            value = multiscale.besov_positive(grid, d, s, p, q)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {"kind": kind, "s": config["s"], "p": config["p"], "q": config["q"],
               "value": value}
    _emit(out_dir, "besov.json", json.dumps(payload, indent=2))
    return EXIT_OK


# -- verification suite --------------------------------------------------


def _verify_instances(seed: int, cases: int, dimensions, max_level: int):
    """Seeded random (field, cube, p, q) instances, plus one constant field
    per dimension so degenerate identities are always exercised."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    out = []
    for d in dimensions:
        spec = EnsembleSpec("constant", {"value": 2.0}, seed)
        out.append((generate(spec, d, 1), root_cube(d, 1), np.ones(d), np.ones(d)))
    for i in range(cases):
        d = int(rng.choice(dimensions))
        m = int(rng.integers(1, max_level + 1))
        spec = EnsembleSpec(
            "lognormal_iid",
            {"log_mean": 0.0, "log_sigma": 0.8},
            seed + 1000 + i,
        )
        field = generate(spec, d, m)
        p = rng.standard_normal(d)
        q = rng.standard_normal(d)
        out.append((field, field.cube, p, q))
    return out


def run_verification(seed: int, cases: int, dimensions=(1, 2), max_level: int = 2,
                     inject_fault=None) -> dict:
    """Run every asserted identity and inequality on seeded instances.

    Returns a report with per-check worst slacks; report["failed"] names the
    first failing check (None when all pass)."""
    tol = 1e-7
    worst = {
        "j_energy_rel": 0.0,
        "ordering": math.inf,
        "integral_bounds": math.inf,
        "subadditivity": math.inf,
        "response_map": math.inf,
        "flux_map": math.inf,
        "energy_maps": math.inf,
        "first_variation": 0.0,
        "second_variation": 0.0,
        "poincare": math.inf,
    }
    failed = None

    def note(check, value, lower=None, rel=None):
        nonlocal failed
        if lower is not None:
            worst[check] = min(worst[check], value)
            if value < lower and failed is None:
                failed = check
        else:
            worst[check] = max(worst[check], value)
            if value > rel and failed is None:
                failed = check

    instances = _verify_instances(seed, cases, dimensions, max_level)
    for field, cube, p, q in instances:
        pair = coarse_pair(field, cube)
        a_mat = pair.a
        if inject_fault == "ordering":
            a_mat = a_mat - 1e-3 * np.eye(field.dimension)
        scale = max(float(np.linalg.eigvalsh(pair.a)[-1]), 1.0)
        note("ordering",
             float(np.linalg.eigvalsh(a_mat - pair.a_star)[0]) / scale,
             lower=-tol)

        v = solve_v(field, cube, p, q)
        j = j_functional(field, cube, p, q)
        ref = max(abs(j), 0.5 * float(p @ p + q @ q), 1e-12)
        note("j_energy_rel", abs(v.energy - j) / ref, rel=tol)

        s1, s2 = integral_bound_slacks(field, cube)
        note("integral_bounds", min(s1, s2) / scale, lower=-tol)
        note("subadditivity",
             subadditivity_defect(field, cube, 0, p, q) / ref,
             lower=-tol)

        w = harmonic_pool(field, cube, 1, seed=seed + cube.level)[0]
        wref = max(2.0 * CubeOperator(field, cube).energy(w), 1e-12)
        lhs, rhs = response_defect(field, cube, w)
        note("response_map", (rhs - lhs) / wref, lower=-tol)
        lhs, rhs = fluxmap_sides(field, cube, w, p, q)
        note("flux_map", (rhs - lhs) / max(wref, ref), lower=-tol)
        g_side, energy, f_side = energy_map_check(field, cube, w)
        note("energy_maps",
             min(energy - g_side, energy - f_side) / wref, lower=-tol)
        lhs, rhs = first_variation_sides(field, cube, w, p, q, v)
        note("first_variation", abs(lhs - rhs) / max(wref, ref), rel=tol)
        lhs, rhs = second_variation_sides(field, cube, w, p, q, v)
        note("second_variation", abs(lhs - rhs) / max(wref, ref), rel=tol)

        rep = multiscale.cg_poincare_check(field, cube, w, 0.25, 1.0)
        slack = min(rep["rhs_gradient"] - rep["lhs_gradient"],
                    rep["rhs_flux"] - rep["lhs_flux"])
        note("poincare", slack / max(rep["rhs_gradient"], 1e-12), lower=-tol)

    return {
        "cases": len(instances),
        "seed": seed,
        "fault": inject_fault,
        "worst": {k: (None if math.isinf(v) else v) for k, v in worst.items()},
        "failed": failed,
    }


def cmd_verify(config: dict, out_dir, threads: int, seed_override) -> int:
    allowed = {"seed", "cases", "dimensions", "max_level", "inject_fault"}
    _check_keys(config, allowed, {"seed", "cases"}, "config")
    seed = _seed(config["seed"], "seed")
    if seed_override is not None:
        seed = seed_override
    cases = _positive_int(config, "cases")
    dims = config.get("dimensions", [1, 2])
    if not isinstance(dims, list) or not dims or any(
            isinstance(d, bool) or d not in (1, 2, 3) for d in dims):
        raise ConfigError(f"dimensions must be a nonempty subset of [1,2,3], got {dims!r}")
    max_level = _positive_int(config, "max_level", minimum=1, default=2)
    fault = config.get("inject_fault")
    if fault is not None and fault != "ordering":
        raise ConfigError(f"unknown inject_fault mode {fault!r}")
    report = run_verification(seed, cases, dims, max_level, fault)
    _emit(out_dir, "verify.json", json.dumps(report, indent=2))
    return EXIT_OK if report["failed"] is None else EXIT_VERIFY


# -- entry point ---------------------------------------------------------

_COMMANDS = {
    "coarse-grain": cmd_coarse_grain,
    "flow": cmd_flow,
    "constants": cmd_constants,
    "besov": cmd_besov,
    "verify": cmd_verify,
}

_ERROR_CODES = (
    (ConfigError, EXIT_CONFIG),
    (CapacityError, EXIT_BUDGET),
    (ConvergenceError, EXIT_SOLVER),
    (ConsistencyError, EXIT_SOLVER),
    (PreconditionError, EXIT_SOLVER),
    (ReliabilityError, EXIT_SOLVER),
    (PigeonholeDiagnosticError, EXIT_SOLVER),
    (ParameterError, EXIT_CONFIG),
    # The allocator refused a cube too large for memory: a capacity limit
    # like the budget caps.
    (MemoryError, EXIT_BUDGET),
)


def _reject_constant(name: str):
    raise ConfigError(f"{name} is not a JSON number")


def _not_a_double(literal: str):
    if len(literal) > 24:
        literal = f"{literal[:20]}... ({len(literal)} characters)"
    return ConfigError(f"number {literal} is not a finite double")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise _not_a_double(literal)
    return value


def _finite_int(literal: str) -> int:
    # An integer stays an int, but only within the range of a double.
    try:
        value = int(literal)
        float(value)
    except (ValueError, OverflowError):
        raise _not_a_double(literal) from None
    return value


def _all_finite(node) -> bool:
    """Whether every float in a parsed config is finite.  A list's sum is
    finite only if its elements are finite numbers; when the sum overflows
    or meets a non-number, the elements are checked one by one."""
    if isinstance(node, float):
        return math.isfinite(node)
    if isinstance(node, dict):
        return all(map(_all_finite, node.values()))
    if isinstance(node, list):
        try:
            if math.isfinite(sum(node, 0.0)):
                return True
        except TypeError:
            pass
        return all(map(_all_finite, node))
    return True


def _load_config(path: str) -> dict:
    # Floats parse at C speed; a non-finite one can only be an overflowing
    # literal, since parse_constant rejects Infinity and NaN.  Only then is
    # the text parsed again with a hook per float, to name the literal.
    try:
        with open(path) as fh:
            text = fh.read()
        config = json.loads(text, parse_constant=_reject_constant,
                            parse_int=_finite_int)
        if not _all_finite(config):
            # Raises the ConfigError that names the first such literal.
            json.loads(text, parse_constant=_reject_constant,
                       parse_float=_finite_float, parse_int=_finite_int)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cgflow",
        description="Coarse-graining laboratory for lattice elliptic operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        sp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        if args.seed is not None:
            _seed(args.seed, "--seed")
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        config = _load_config(args.config)
        # Non-finite numbers are caught by the checks and classified below;
        # numpy's warnings about them would only precede that one line.
        # One BLAS thread makes output bytes independent of --threads.
        with np.errstate(all="ignore"), flow_mod.one_blas_thread():
            code = _COMMANDS[args.command](config, args.out, args.threads, args.seed)
    except (CgflowError, MemoryError) as exc:
        code = EXIT_SOLVER
        for cls, c in _ERROR_CODES:
            if isinstance(exc, cls):
                code = c
                break
        # numpy raises a private subclass of MemoryError.
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        sys.stderr.write(json.dumps({
            "error": name,
            "message": str(exc),
            "exit_code": code,
        }) + "\n")
        return code
    return code


if __name__ == "__main__":
    sys.exit(main())
