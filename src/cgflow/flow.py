"""Monte Carlo flow of the annealed coarse-grained pair across triadic scales.

Per sample, one coefficient field is drawn at the top level and the pair is
computed on the nested lower-corner cube at every level, so per-scale
estimates share samples (positively correlated, each unbiased).  Estimates
are optionally symmetrized over the cube point group, after which matrices
are treated as scalars (trace/d) for the contrast arithmetic.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import io
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy

from .errors import (
    ConsistencyError,
    ConvergenceError,
    ParameterError,
    PigeonholeDiagnosticError,
    ReliabilityError,
)
from .grid import EnsembleSpec, TriadicCube, generate
from .coarse import coarse_pair
from . import multiscale

# Largest share of Monte Carlo samples that may abort before a run fails.
MAX_ABORT_FRACTION = 0.1

# numpy's and scipy's bundled OpenBLAS builds: the package whose `<name>.libs`
# directory holds the library, and the suffix of the library's symbols.
_BUNDLED_OPENBLAS = ((np, "64_"), (scipy, ""))


def _bundled_openblas():
    """Yield (library, symbol suffix) for each bundled OpenBLAS build found;
    a build that is absent is skipped."""
    for package, suffix in _BUNDLED_OPENBLAS:
        site = os.path.dirname(os.path.dirname(package.__file__))
        pattern = os.path.join(site, package.__name__ + ".libs", "libscipy_openblas*")
        for path in sorted(glob.glob(pattern)):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            yield lib, suffix


def _one_blas_thread():
    """Pool initializer: one BLAS thread per worker, so that the workers do
    not oversubscribe the cores."""
    for lib, suffix in _bundled_openblas():
        setter = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
        if setter is not None:
            setter(1)


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    """Average R M R^T over the cube point group.  For symmetric M the average
    commutes with every signed permutation, so by Schur's lemma it is
    trace(M)/d times the identity."""
    d = mat.shape[0]
    return np.trace(mat) / d * np.eye(d)


def _sample_pairs(spec: EnsembleSpec, dimension: int, levels: tuple[int, ...],
                  symmetrize: bool, method: str, sample_index: int):
    """One Monte Carlo sample: (a, a_*^{-1}) on the lower-corner cube at each
    requested level.  Returns None if a solve fails to converge or yields an
    inconsistent pair; every other error propagates."""
    top = max(levels)
    sample_spec = spec.with_seed(spec.seed + sample_index)
    field = generate(sample_spec, dimension, top)
    a_mats, ainv_mats = [], []
    try:
        for n in levels:
            cube = TriadicCube(n, (0,) * dimension)
            if method == "oracle":
                cells = field.cells_in(cube)[:, 0, 0]
                ainv = float(np.mean(1.0 / cells))
                a = np.array([[1.0 / ainv]])
                ainv = np.array([[ainv]])
            else:
                pair = coarse_pair(field, cube)
                a, ainv = pair.a, pair.a_star_inv
            if symmetrize:
                a = _symmetrize(a)
                ainv = _symmetrize(ainv)
            a_mats.append(a)
            ainv_mats.append(ainv)
    except (ConvergenceError, ConsistencyError):
        return None
    return np.array(a_mats), np.array(ainv_mats)


@dataclass
class ScaleEstimate:
    """Annealed estimates at one scale, with elementwise standard errors."""

    level: int
    samples: int
    abar: np.ndarray
    abar_se: np.ndarray
    astar_inv: np.ndarray
    astar_inv_se: np.ndarray
    theta: float
    theta_se: float
    tau_prev: float = math.nan
    tau_prev_se: float = math.nan

    @property
    def abar_scalar(self) -> float:
        return float(np.trace(self.abar) / self.abar.shape[0])

    @property
    def astar_inv_scalar(self) -> float:
        return float(np.trace(self.astar_inv) / self.astar_inv.shape[0])

    def to_json_dict(self) -> dict:
        out = {
            "level": self.level,
            "samples": self.samples,
            "abar": [float(x) for x in self.abar.ravel()],
            "abar_se": [float(x) for x in self.abar_se.ravel()],
            "astar_inv": [float(x) for x in self.astar_inv.ravel()],
            "astar_inv_se": [float(x) for x in self.astar_inv_se.ravel()],
            "theta": float(self.theta),
            "theta_se": float(self.theta_se),
        }
        if not math.isnan(self.tau_prev):
            out["tau_prev"] = float(self.tau_prev)
            out["tau_prev_se"] = float(self.tau_prev_se)
        return out


_CSV_COLUMNS = (
    "n", "samples", "abar_scalar", "abar_se", "astar_inv_scalar",
    "astar_inv_se", "theta", "theta_se", "tau_prev", "tau_prev_se",
)


@dataclass
class FlowRecord:
    """Per-scale annealed estimates for levels 0..max_level plus the raw
    per-sample matrices (needed for the correlated differences in
    tau_from_record)."""

    dimension: int
    max_level: int
    spec: EnsembleSpec
    estimates: list[ScaleEstimate]
    a_samples: np.ndarray = dc_field(repr=False, default=None)      # (N, L+1, d, d)
    astar_inv_samples: np.ndarray = dc_field(repr=False, default=None)
    aborted: int = 0

    @property
    def samples(self) -> int:
        return self.estimates[0].samples

    def scalars(self):
        a = np.array([e.abar_scalar for e in self.estimates])
        ainv = np.array([e.astar_inv_scalar for e in self.estimates])
        return a, ainv

    def thetas(self) -> np.ndarray:
        return np.array([e.theta for e in self.estimates])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(_CSV_COLUMNS) + "\n")
        for e in self.estimates:
            row = [
                str(e.level),
                str(e.samples),
                repr(e.abar_scalar),
                repr(float(np.trace(e.abar_se) / e.abar.shape[0])),
                repr(e.astar_inv_scalar),
                repr(float(np.trace(e.astar_inv_se) / e.abar.shape[0])),
                repr(float(e.theta)),
                repr(float(e.theta_se)),
                "" if math.isnan(e.tau_prev) else repr(float(e.tau_prev)),
                "" if math.isnan(e.tau_prev_se) else repr(float(e.tau_prev_se)),
            ]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "max_level": self.max_level,
            "ensemble": self.spec.to_json_dict(),
            "aborted_samples": self.aborted,
            "scales": [e.to_json_dict() for e in self.estimates],
        }


def _theta_with_se(a_traces: np.ndarray, ainv_traces: np.ndarray):
    """Product of the two sample means with a delta-method standard error."""
    n = len(a_traces)
    x, y = a_traces.mean(), ainv_traces.mean()
    theta = x * y
    if n < 2:
        return float(theta), 0.0
    cov = np.cov(a_traces, ainv_traces, ddof=1)
    var = (y * y * cov[0, 0] + x * x * cov[1, 1] + 2 * x * y * cov[0, 1]) / n
    return float(theta), float(math.sqrt(max(var, 0.0)))


def _aggregate(spec, dimension, levels, results, aborted) -> FlowRecord:
    d = dimension
    a_stack = np.array([r[0] for r in results])      # (N, L, d, d)
    ainv_stack = np.array([r[1] for r in results])
    n = a_stack.shape[0]
    estimates = []
    for li, level in enumerate(levels):
        a_s = a_stack[:, li]
        ainv_s = ainv_stack[:, li]
        abar = a_s.mean(axis=0)
        ainv_bar = ainv_s.mean(axis=0)
        if n >= 2:
            abar_se = a_s.std(axis=0, ddof=1) / math.sqrt(n)
            ainv_se = ainv_s.std(axis=0, ddof=1) / math.sqrt(n)
        else:
            abar_se = np.zeros((d, d))
            ainv_se = np.zeros((d, d))
        tr_a = np.trace(a_s, axis1=1, axis2=2) / d
        tr_ainv = np.trace(ainv_s, axis1=1, axis2=2) / d
        theta, theta_se = _theta_with_se(tr_a, tr_ainv)
        est = ScaleEstimate(level, n, abar, abar_se, ainv_bar, ainv_se,
                            theta, theta_se)
        if li > 0:
            # Additivity defect between consecutive recorded levels at
            # (p, q) = (e_1, e_1); per-sample values give the correlated SE.
            tau_s = 0.5 * (
                a_stack[:, li - 1, 0, 0] - a_s[:, 0, 0]
                + ainv_stack[:, li - 1, 0, 0] - ainv_s[:, 0, 0]
            )
            est.tau_prev = float(tau_s.mean())
            est.tau_prev_se = (
                float(tau_s.std(ddof=1) / math.sqrt(n)) if n >= 2 else 0.0
            )
        estimates.append(est)
    return FlowRecord(dimension, max(levels), spec, estimates,
                      a_stack, ainv_stack, aborted)


def _run_samples(spec, dimension, levels, samples, symmetrize, method, workers):
    if samples < 2:
        raise ParameterError("need at least 2 Monte Carlo samples")
    if method == "oracle" and dimension != 1:
        raise ParameterError("the harmonic-mean oracle needs d = 1")
    sample = functools.partial(_sample_pairs, spec, dimension, levels,
                               symmetrize, method)
    # A fork-started pool starts every worker up front: one per sample at most.
    workers = min(workers or 1, samples)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_one_blas_thread) as pool:
            raw = list(pool.map(sample, range(samples)))
    else:
        raw = list(map(sample, range(samples)))
    results = [r for r in raw if r is not None]
    aborted = samples - len(results)
    if aborted > MAX_ABORT_FRACTION * samples:
        raise ReliabilityError(
            f"{aborted} of {samples} samples aborted, above the "
            f"{MAX_ABORT_FRACTION:.0%} reliability threshold"
        )
    if len(results) < 2:
        raise ReliabilityError("fewer than 2 samples survived")
    return results, aborted


def estimate_annealed(spec: EnsembleSpec, dimension: int, level_n: int,
                      samples: int, symmetrize=True, method="solver",
                      workers=1) -> ScaleEstimate:
    """Sample mean and standard error of (a(cube), a_*^{-1}(cube)) at one
    level; per-sample fields use derived seeds seed + i."""
    results, aborted = _run_samples(
        spec, dimension, (level_n,), samples, symmetrize, method, workers,
    )
    record = _aggregate(spec, dimension, (level_n,), results, aborted)
    return record.estimates[0]


def run_flow(spec: EnsembleSpec, dimension: int, max_level: int, samples: int,
             symmetrize=True, method="solver", workers=1) -> FlowRecord:
    """Annealed flow over levels 0..max_level with per-level sample reuse."""
    if max_level < 0:
        raise ParameterError("max_level must be >= 0")
    levels = tuple(range(max_level + 1))
    results, aborted = _run_samples(
        spec, dimension, levels, samples, symmetrize, method, workers,
    )
    return _aggregate(spec, dimension, levels, results, aborted)


def synthetic_record(abar_scalars, astar_inv_scalars) -> FlowRecord:
    """Zero-noise record from given per-level scalars (for the selector)."""
    a = np.asarray(abar_scalars, dtype=float)
    b = np.asarray(astar_inv_scalars, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 1:
        raise ParameterError("need two equal-length scalar sequences")
    spec = EnsembleSpec("constant", {"value": 1.0})
    z = np.zeros((1, 1))
    ests = [
        ScaleEstimate(n, 2, np.array([[a[n]]]), z, np.array([[b[n]]]), z,
                      float(a[n] * b[n]), 0.0)
        for n in range(len(a))
    ]
    return FlowRecord(1, len(a) - 1, spec, ests)


@dataclass(frozen=True)
class PigeonholeResult:
    """Outcome of the scale scan: a near-flat scale or global contraction."""

    variant: str                    # "good_scale" or "contracted"
    level: int | None
    delta: float
    sigma: float
    h: int
    max_level: int
    ratios: tuple[float, float] | None  # witness ratios at the found scale
    theta_ratio: float              # theta(N) / theta(0)

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "level": self.level,
            "delta": self.delta,
            "sigma": self.sigma,
            "h": self.h,
            "max_level": self.max_level,
            "ratios": list(self.ratios) if self.ratios else None,
            "theta_ratio": self.theta_ratio,
        }


def pigeonhole_select(record: FlowRecord, delta: float, sigma: float,
                      h: int = 1) -> PigeonholeResult:
    """Either a scale n where both annealed quantities are (1+delta)-flat over
    a step of h levels, or certified contraction theta(N) <= sigma theta(0).

    Exact monotone inputs always land in one branch; point estimates noisy
    enough to miss both raise a diagnostic error (statistical, not
    structural)."""
    if not (0.0 < delta <= 0.5):
        raise ParameterError("delta must lie in (0, 1/2]")
    if not (0.0 < sigma < 1.0):
        raise ParameterError("sigma must lie in (0, 1)")
    if h < 1:
        raise ParameterError("h must be >= 1")
    need = math.ceil(2.0 / delta * abs(math.log(sigma))) * h
    big_n = record.max_level
    if big_n < need:
        raise ParameterError(
            f"record covers {big_n} scales but the lemma needs at least {need}"
        )
    a, ainv = record.scalars()
    for n in range(h, big_n + 1):
        ra = a[n - h] / a[n]
        rb = ainv[n - h] / ainv[n]
        if ra <= 1.0 + delta and rb <= 1.0 + delta:
            return PigeonholeResult("good_scale", n, delta, sigma, h, big_n,
                                    (float(ra), float(rb)),
                                    float(a[big_n] * ainv[big_n] / (a[0] * ainv[0])))
    theta_ratio = float(a[big_n] * ainv[big_n] / (a[0] * ainv[0]))
    if a[big_n] * ainv[big_n] <= sigma * a[0] * ainv[0]:
        return PigeonholeResult("contracted", None, delta, sigma, h, big_n,
                                None, theta_ratio)
    raise PigeonholeDiagnosticError(
        "point estimates satisfy neither pigeonhole branch; the input is "
        "statistically inconsistent with monotone expectations",
        product=theta_ratio,
    )


@dataclass
class HomogenizationScale:
    """Smallest level with theta <= 1 + sigma, or not reached."""

    level: int | None
    confident: bool
    sigma: float

    @property
    def reached(self) -> bool:
        return self.level is not None

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "reached": self.reached,
            "confident": self.confident,
            "sigma": self.sigma,
        }


def scale_from_record(record: FlowRecord, sigma: float) -> HomogenizationScale:
    if not (0.0 < sigma <= 0.5):
        raise ParameterError("sigma must lie in (0, 1/2]")
    for e in record.estimates:
        if e.theta <= 1.0 + sigma:
            confident = e.theta + 2.0 * e.theta_se <= 1.0 + sigma
            return HomogenizationScale(e.level, confident, sigma)
    return HomogenizationScale(None, False, sigma)


def tau_from_record(record: FlowRecord, n: int, k: int, p, q):
    """Expected additivity defect between levels k < n at directions (p, q),
    from the pooled matrix differences; SE from per-sample linearizations."""
    if not (0 <= k < n <= record.max_level):
        raise ParameterError(f"need 0 <= k < n <= {record.max_level}")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    da = record.a_samples[:, k] - record.a_samples[:, n]
    dainv = record.astar_inv_samples[:, k] - record.astar_inv_samples[:, n]
    vals = 0.5 * np.einsum("i,sij,j->s", p, da, p) \
        + 0.5 * np.einsum("i,sij,j->s", q, dainv, q)
    m = len(vals)
    se = float(vals.std(ddof=1) / math.sqrt(m)) if m >= 2 else 0.0
    return float(vals.mean()), se


def contraction_diagnostics(record: FlowRecord, spec: EnsembleSpec,
                            dimension: int, delta: float, sigma: float = 0.5,
                            h: int = 1, s: float = 0.25, t: float = 0.25) -> dict:
    """Measurable ingredients of the one-step contraction estimate at a
    pigeonhole good scale; reported, never asserted (the bound's constant is
    not specified)."""
    sel = pigeonhole_select(record, delta, sigma, h)
    if sel.variant != "good_scale":
        raise ParameterError(
            "no pigeonhole good scale in the record; contrast already contracted"
        )
    n = sel.level
    est = record.estimates[n]
    abar_s = est.abar_scalar
    astar_s = 1.0 / est.astar_inv_scalar
    m0 = math.sqrt(abar_s * astar_s)
    e1 = np.zeros(dimension)
    e1[0] = 1.0
    p_c = m0 ** -0.5 * e1
    q_c = m0 ** 0.5 * e1
    tau_val, tau_se = tau_from_record(record, n, n - h, p_c, q_c)

    theta0 = record.estimates[0].theta
    thetas = record.thetas()
    ratios = [
        {"level": int(m), "ratio": float((thetas[m] - 1.0) / theta0)}
        for m in range(n, record.max_level + 1)
    ]
    report = {
        "good_scale": n,
        "h": h,
        "delta": delta,
        "m0": m0,
        "p": [float(x) for x in p_c],
        "q": [float(x) for x in q_c],
        "tau": tau_val,
        "tau_se": tau_se,
        "delta_quarter": delta ** 0.25,
        "theta_ratios": ratios,
    }
    if n >= 1:
        field = generate(spec.with_seed(spec.seed), dimension, n)
        report["weak_norms"] = multiscale.weak_norm_diagnostics(
            field, field.cube, p_c, q_c, np.zeros(dimension),
            np.zeros(dimension), s, t, base_level=0,
        )
    return report
