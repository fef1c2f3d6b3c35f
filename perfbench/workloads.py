"""Benchmark workloads: seeded inputs, the `cgflow` commands, and the
correctness gate on their outputs.

Every workload is a closed loop: an iteration runs the workload's commands one
after another, each waiting for the previous one, on inputs derived from the
benchmark seed and the iteration index.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

#: Seed whose outputs are compared with the stored references.
DEFAULT_SEED = 1
#: Relative tolerance of the reference comparison; that of `cgflow verify`.
REFERENCE_RTOL = 1e-7
#: Slack for the exact inequalities, relative to the matrix scale.
ORDER_TOL = 1e-9

# Two-phase cell contrast sigma_hi / sigma_lo = 100, the criterion-8 ensemble.
TWO_PHASE = {"prob_hi": 0.5, "sigma_hi": 10.0, "sigma_lo": 0.1}
LOGNORMAL = {"log_mean": 0.0, "log_sigma": 1.0}


def cli_seed(seed: int, iteration: int) -> int:
    """The `--seed` passed to the CLI in an iteration.  Hashed, so the
    per-sample seeds `seed + i` of flow runs never overlap between
    iterations or between benchmark seeds."""
    return int(np.random.SeedSequence([seed, iteration]).generate_state(1)[0])


@dataclass
class Command:
    """One CLI invocation: its argv and the JSON document it writes."""

    argv: list[str]
    output: str


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def finite(doc) -> bool:
    if isinstance(doc, dict):
        return all(finite(v) for v in doc.values())
    if isinstance(doc, list):
        return all(finite(v) for v in doc)
    if isinstance(doc, float):
        return math.isfinite(doc)
    return True


def _matrix(flat, d: int) -> np.ndarray:
    return np.asarray(flat, dtype=float).reshape(d, d)


def _spd_below(upper: np.ndarray, lower: np.ndarray, what: str) -> list[str]:
    """`lower <= upper` in the Loewner order, up to ORDER_TOL."""
    scale = max(float(np.abs(upper).max()), float(np.abs(lower).max()), 1e-300)
    gap = float(np.linalg.eigvalsh(upper - lower)[0])
    return [] if gap >= -ORDER_TOL * scale else [f"{what}: min gap {gap:.3e}"]


def _cell_means(spec: dict, d: int, level: int, cli_seed_: int):
    """Arithmetic mean and mean inverse of the realized cells."""
    from cgflow.grid import EnsembleSpec, generate

    field = generate(EnsembleSpec(spec["kind"], spec["params"], cli_seed_), d, level)
    cells = field.cells.reshape(-1, d, d)
    return cells.mean(axis=0), np.linalg.inv(cells).mean(axis=0)


class FlowWorkload:
    """`cgflow flow`: the annealed contrast flow over levels 0..level."""

    kind = "flow"

    def __init__(self, name, dimension, level, samples):
        self.name = name
        self.dimension, self.level = dimension, level
        self.samples = samples

    def tiny(self):
        return FlowWorkload(self.name, self.dimension, 2, 2)

    def commands(self, seed: int, iteration: int, workdir: str) -> list[Command]:
        cfg = os.path.join(workdir, "flow_config.json")
        _write_json(cfg, {
            "dimension": self.dimension,
            "ensemble": {"kind": "two_phase_iid", "params": TWO_PHASE, "seed": 0},
            "max_level": self.level,
            "samples": self.samples,
            "find_scale": {"sigma": 0.5},
        })
        out = os.path.join(workdir, "flow")
        argv = ["flow", "--config", cfg, "--out", out, "--threads", "1",
                "--seed", str(cli_seed(seed, iteration))]
        return [Command(argv, os.path.join(out, "flow.json"))]

    def invariants(self, docs: list, seed: int, iteration: int) -> list[str]:
        doc, d = docs[0], self.dimension
        lo, hi = TWO_PHASE["sigma_lo"], TWO_PHASE["sigma_hi"]
        bad = []
        if doc["aborted_samples"] != 0:
            bad.append(f"{doc['aborted_samples']} aborted samples")
        if len(doc["scales"]) != self.level + 1:
            bad.append(f"{len(doc['scales'])} scales, expected {self.level + 1}")
        for sc in doc["scales"]:
            n = sc["level"]
            abar = _matrix(sc["abar"], d)
            ainv = _matrix(sc["astar_inv"], d)
            # Per sample a <= arithmetic mean <= sigma_hi I and
            # a^{-1} <= a_*^{-1} <= harmonic mean^{-1} <= I / sigma_lo.
            bad += _spd_below(hi * np.eye(d), abar, f"level {n} abar <= sigma_hi")
            bad += _spd_below(abar, lo * np.eye(d), f"level {n} abar >= sigma_lo")
            bad += _spd_below(np.eye(d) / lo, ainv, f"level {n} astar_inv <= 1/sigma_lo")
            bad += _spd_below(ainv, np.eye(d) / hi, f"level {n} astar_inv >= 1/sigma_hi")
            # a_* <= a per sample gives E[a] E[a_*^{-1}] >= 1 after symmetrizing.
            if sc["theta"] < 1.0 - ORDER_TOL:
                bad.append(f"level {n} theta {sc['theta']!r} < 1")
        return bad


class CoarseWorkload:
    """`cgflow coarse-grain` of the whole cube, one field seed per iteration."""

    kind = "coarse"

    def __init__(self, name, dimension, level):
        self.name = name
        self.dimension, self.level = dimension, level

    def tiny(self):
        return CoarseWorkload(self.name, self.dimension, 1)

    def _spec(self):
        return {"kind": "two_phase_iid", "params": TWO_PHASE, "seed": 0}

    def commands(self, seed: int, iteration: int, workdir: str) -> list[Command]:
        cfg = os.path.join(workdir, "coarse_config.json")
        _write_json(cfg, {"dimension": self.dimension, "ensemble": self._spec(),
                          "level": self.level})
        out = os.path.join(workdir, "coarse")
        argv = ["coarse-grain", "--config", cfg, "--out", out, "--threads", "1",
                "--seed", str(cli_seed(seed, iteration))]
        return [Command(argv, os.path.join(out, "coarse_grain.json"))]

    def invariants(self, docs: list, seed: int, iteration: int) -> list[str]:
        d = self.dimension
        pair = docs[0]["pairs"][0]
        a = _matrix(pair["a"], d)
        a_star = _matrix(pair["a_star"], d)
        arith, inv_mean = _cell_means(self._spec(), d, self.level,
                                      cli_seed(seed, iteration))
        return (_spd_below(a, a_star, "a_* <= a")
                + _spd_below(arith, a, "a <= arithmetic mean")
                + _spd_below(inv_mean, np.linalg.inv(a_star),
                             "a_*^{-1} <= mean of inverses"))


class MultiscaleWorkload:
    """`cgflow constants` (the ladder over every subcube) plus
    `cgflow besov` positive at p = 2 and p = 3 on a seeded grid."""

    kind = "multiscale"
    S = T = 0.25  # s = t makes Lambda >= lambda exact
    Q = 2

    def __init__(self, name, dimension, level, besov_level):
        self.name = name
        self.dimension, self.level = dimension, level
        self.besov_level = besov_level

    def tiny(self):
        return MultiscaleWorkload(self.name, self.dimension, 2, 2)

    def _spec(self):
        return {"kind": "lognormal_iid", "params": LOGNORMAL, "seed": 0}

    def commands(self, seed: int, iteration: int, workdir: str) -> list[Command]:
        d = self.dimension
        cs = cli_seed(seed, iteration)
        cfg = os.path.join(workdir, "constants_config.json")
        _write_json(cfg, {"dimension": d, "ensemble": self._spec(),
                          "level": self.level, "s": self.S, "t": self.T,
                          "q": self.Q})
        out = os.path.join(workdir, "constants")
        cmds = [Command(["constants", "--config", cfg, "--out", out,
                         "--threads", "1", "--seed", str(cs)],
                        os.path.join(out, "constants.json"))]
        rng = np.random.Generator(np.random.PCG64(cs))
        cells = rng.lognormal(0.0, 1.0, size=3 ** (d * self.besov_level))
        for p in (2, 3):
            cfg = os.path.join(workdir, f"besov_p{p}_config.json")
            _write_json(cfg, {"dimension": d, "s": 0.5, "p": p, "q": 2,
                              "data": {"kind": "positive",
                                       "level": self.besov_level,
                                       "cells": cells.tolist()}})
            out = os.path.join(workdir, f"besov_p{p}")
            cmds.append(Command(["besov", "--config", cfg, "--out", out,
                                 "--threads", "1", "--seed", str(cs)],
                                os.path.join(out, "besov.json")))
        return cmds

    def invariants(self, docs: list, seed: int, iteration: int) -> list[str]:
        d = self.dimension
        const, b2, b3 = docs
        bad = []
        if not const["Lambda"] >= const["lambda"] > 0:
            bad.append(f"need Lambda >= lambda > 0, got {const['Lambda']!r}, "
                       f"{const['lambda']!r}")
        if not const.get("defect", 0.0) >= 0:
            bad.append(f"negative multiscale defect {const['defect']!r}")
        abar = _matrix(const["abar"], d)
        arith, inv_mean = _cell_means(self._spec(), d, self.level,
                                      cli_seed(seed, iteration))
        bad += _spd_below(arith, abar, "a <= arithmetic mean")
        bad += _spd_below(abar, np.linalg.inv(inv_mean), "a >= harmonic mean")
        # The positive seminorm is a power mean in p, so nondecreasing in p.
        if not 0 <= b2["value"] <= b3["value"] * (1 + ORDER_TOL):
            bad.append(f"besov p=2 {b2['value']!r} exceeds p=3 {b3['value']!r}")
        return bad


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    wl.name: wl
    for wl in (
        FlowWorkload("flow_2d", dimension=2, level=4, samples=8),
        CoarseWorkload("coarse_3d", dimension=3, level=3),
        MultiscaleWorkload("multiscale_2d", dimension=2, level=4, besov_level=4),
    )
}


# -- reference comparison ---------------------------------------------------

# Solver residuals legitimately differ between backends at equal accuracy.
_UNCOMPARED = {"solver_residuals"}


def numeric_leaves(doc, path="") -> dict[str, list[float]]:
    """Every numeric leaf of a JSON document, grouped by the list or scalar
    it belongs to, keyed by its path."""
    out: dict[str, list[float]] = {}
    if isinstance(doc, dict):
        for k, v in doc.items():
            if k not in _UNCOMPARED:
                out.update(numeric_leaves(v, f"{path}/{k}"))
    elif isinstance(doc, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in doc):
        out[path] = [float(v) for v in doc]
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            out.update(numeric_leaves(v, f"{path}/{i}"))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        out[path] = [float(doc)]
    return out


def compare_reference(docs: list, reference: list) -> list[str]:
    """Mismatches of `docs` against the stored reference documents.  Each
    value must match to REFERENCE_RTOL relative to the largest magnitude in
    its list, so roundoff-level entries beside large ones do not count."""
    bad = []
    for i, (doc, ref) in enumerate(zip(docs, reference, strict=True)):
        got, want = numeric_leaves(doc), numeric_leaves(ref)
        if got.keys() != want.keys():
            bad.append(f"output {i}: fields {sorted(got.keys() ^ want.keys())} differ")
            continue
        for key, ref_vals in want.items():
            vals = got[key]
            if len(vals) != len(ref_vals):
                bad.append(f"output {i}{key}: length {len(vals)} != {len(ref_vals)}")
                continue
            scale = max((abs(v) for v in ref_vals), default=0.0)
            for j, (v, r) in enumerate(zip(vals, ref_vals)):
                if not abs(v - r) <= REFERENCE_RTOL * scale:
                    bad.append(f"output {i}{key}[{j}]: {v!r} != reference {r!r}")
    return bad


def load_reference(refdir: str, workload) -> dict:
    path = os.path.join(refdir, f"{workload.name}.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}
