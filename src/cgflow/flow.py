"""Monte Carlo flow of the annealed coarse-grained pair across triadic scales.

Per sample, one coefficient field is drawn at the top level and the pair is
computed on the nested lower-corner cube at every level, so per-scale
estimates share samples (positively correlated, each unbiased).  Each sample
records tr a/d and tr a_*^{-1}/d: the cube-group averages of its pairs, which
are all the contrast arithmetic uses.
"""

from __future__ import annotations

import contextlib
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
# directory holds the library, its file name, and the prefix and suffix of its
# symbols.  Older wheels (numpy 1.24, scipy 1.12) name both without "scipy_".
_BUNDLED_OPENBLAS = (
    (np, "libscipy_openblas*", "scipy_openblas_", "64_"),
    (np, "libopenblas64_p-r0-*", "openblas_", "64_"),
    (scipy, "libscipy_openblas*", "scipy_openblas_", ""),
    (scipy, "libopenblasp-r0-*", "openblas_", ""),
)


def _bundled_openblas():
    """Yield the (get, set) thread-count functions of each bundled OpenBLAS
    build found; a build that is absent is skipped."""
    for package, name, prefix, suffix in _BUNDLED_OPENBLAS:
        site = os.path.dirname(os.path.dirname(package.__file__))
        pattern = os.path.join(site, package.__name__ + ".libs", name)
        for path in sorted(glob.glob(pattern)):
            try:
                lib = ctypes.CDLL(path)
                get = getattr(lib, prefix + "get_num_threads" + suffix)
                set_ = getattr(lib, prefix + "set_num_threads" + suffix)
            except (OSError, AttributeError):
                continue
            yield get, set_


def _one_blas_thread():
    """Pool initializer: one BLAS thread per worker, so that the workers do
    not oversubscribe the cores.  Returns the previous counts and setters."""
    saved = [(get(), set_) for get, set_ in _bundled_openblas()]
    for _, set_ in saved:
        set_(1)
    return saved


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with one BLAS thread, as pool workers run, and restore
    the caller's counts after: a threaded BLAS sums in another order."""
    saved = _one_blas_thread()
    try:
        yield
    finally:
        for threads, set_ in saved:
            set_(threads)


def _cpus() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _sample_pairs(spec: EnsembleSpec, dimension: int, max_level: int,
                  method: str, sample_index: int):
    """One Monte Carlo sample: tr a/d and tr a_*^{-1}/d on the lower-corner
    cube at each level 0..max_level, as a (2, max_level + 1) array.  For
    symmetric M the average of R M R^T over the cube point group commutes
    with every signed permutation, so by Schur's lemma it is tr(M)/d times
    the identity: the traces are the sample's cube-group averages.  Returns
    None if a solve fails to converge or yields an inconsistent pair; every
    other error propagates."""
    sample_spec = spec.with_seed(spec.seed + sample_index)
    field = generate(sample_spec, dimension, max_level)
    traces = np.empty((2, max_level + 1))
    try:
        for n in range(max_level + 1):
            cube = TriadicCube(n, (0,) * dimension)
            if method == "oracle":
                h = float(np.mean(1.0 / field.cells_in(cube)[:, 0, 0]))
                traces[:, n] = 1.0 / h, h
            else:
                pair = coarse_pair(field, cube)
                traces[:, n] = (np.trace(pair.a) / dimension,
                                np.trace(pair.a_star_inv) / dimension)
    except (ConvergenceError, ConsistencyError):
        return None
    return traces


@dataclass
class ScaleEstimate:
    """Annealed estimates at one scale: the sample means of tr a/d and
    tr a_*^{-1}/d with their standard errors, and theta, their product."""

    level: int
    samples: int
    abar: float
    abar_se: float
    astar_inv: float
    astar_inv_se: float
    theta: float
    theta_se: float
    tau_prev: float = math.nan
    tau_prev_se: float = math.nan

    def to_json_dict(self, dimension: int) -> dict:
        """The estimates as the isotropic d x d matrices x I they stand for."""
        eye = np.eye(dimension)
        out = {"level": self.level, "samples": self.samples}
        for key in ("abar", "abar_se", "astar_inv", "astar_inv_se"):
            out[key] = [float(x) for x in (getattr(self, key) * eye).ravel()]
        out["theta"] = float(self.theta)
        out["theta_se"] = float(self.theta_se)
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
    per-sample traces (needed for the correlated differences in
    tau_from_record)."""

    dimension: int
    max_level: int
    spec: EnsembleSpec
    estimates: list[ScaleEstimate]
    a_samples: np.ndarray = dc_field(repr=False)      # (N, L+1)
    astar_inv_samples: np.ndarray = dc_field(repr=False)
    aborted: int

    @property
    def samples(self) -> int:
        return self.estimates[0].samples

    def scalars(self):
        a = np.array([e.abar for e in self.estimates])
        ainv = np.array([e.astar_inv for e in self.estimates])
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
                repr(float(e.abar)),
                repr(float(e.abar_se)),
                repr(float(e.astar_inv)),
                repr(float(e.astar_inv_se)),
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
            "scales": [e.to_json_dict(self.dimension) for e in self.estimates],
        }


def _aggregate(spec, dimension, results, aborted) -> FlowRecord:
    # The estimates reduce the (N, levels) arrays over the sample axis, row by
    # row; theta, its SE and tau use the means of each level's column, which
    # numpy sums pairwise along the contiguous rows of the transposed
    # arrays.  The two orders can differ in the last bit.
    a_s = np.array([r[0] for r in results])
    ainv_s = np.array([r[1] for r in results])
    n = a_s.shape[0]
    abar, ainv_bar = a_s.mean(axis=0), ainv_s.mean(axis=0)
    abar_se = a_s.std(axis=0, ddof=1) / math.sqrt(n)
    ainv_se = ainv_s.std(axis=0, ddof=1) / math.sqrt(n)
    # Product of the two sample means with a delta-method standard error;
    # each level's covariance is np.cov's, one (2, N) @ (N, 2) product.
    pairs = np.ascontiguousarray(np.stack([a_s.T, ainv_s.T], axis=1))
    means = pairs.mean(axis=-1)
    x, y = means.T
    pairs -= means[..., None]
    cov = pairs @ pairs.transpose(0, 2, 1) * np.true_divide(1, n - 1)
    var = (y * y * cov[:, 0, 0] + x * x * cov[:, 1, 1] + 2 * x * y * cov[:, 0, 1]) / n
    theta_se = np.sqrt(np.maximum(var, 0.0))
    estimates = [ScaleEstimate(li, n, *map(float, row)) for li, row in enumerate(zip(
        abar, abar_se, ainv_bar, ainv_se, x * y, theta_se))]
    record = FlowRecord(dimension, len(estimates) - 1, spec, estimates, a_s,
                        ainv_s, aborted)
    # Additivity defect between consecutive levels at (p, q) = (e_1, e_1);
    # per-sample values give the correlated SE.
    e1 = np.eye(dimension)[0]
    levels = np.arange(1, len(estimates))
    for li, tau, tau_se in zip(levels, *_tau(record, levels, levels - 1, e1, e1)):
        estimates[li].tau_prev, estimates[li].tau_prev_se = float(tau), float(tau_se)
    return record


def _run_samples(spec, dimension, max_level, samples, method, workers):
    if samples < 2:
        raise ParameterError("need at least 2 Monte Carlo samples")
    if method == "oracle" and dimension != 1:
        raise ParameterError("the harmonic-mean oracle needs d = 1")
    sample = functools.partial(_sample_pairs, spec, dimension, max_level, method)
    # A fork-started pool starts every worker up front: at most one per
    # sample and per CPU.
    workers = min(workers or 1, samples, _cpus())
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


def run_flow(spec: EnsembleSpec, dimension: int, max_level: int, samples: int,
             method="solver", workers=1) -> FlowRecord:
    """Annealed flow over levels 0..max_level with per-level sample reuse.
    BLAS thread counts stay the caller's (see one_blas_thread)."""
    if max_level < 0:
        raise ParameterError("max_level must be >= 0")
    results, aborted = _run_samples(
        spec, dimension, max_level, samples, method, workers,
    )
    return _aggregate(spec, dimension, results, aborted)


def synthetic_record(abar_scalars, astar_inv_scalars) -> FlowRecord:
    """Zero-noise record from given per-level scalars (for the selector):
    the record of two equal samples."""
    a = np.asarray(abar_scalars, dtype=float)
    b = np.asarray(astar_inv_scalars, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 1:
        raise ParameterError("need two equal-length scalar sequences")
    spec = EnsembleSpec("constant", {"value": 1.0})
    return _aggregate(spec, 1, [np.stack([a, b])] * 2, 0)


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


def _tau(record: FlowRecord, n, k, p, q):
    """tau_from_record for levels k < n or for arrays of them, without the
    checks: the means and SEs of the per-sample values, each summed along
    one contiguous row."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a, ainv = record.a_samples, record.astar_inv_samples
    vals = 0.5 * (p @ p) * (a[:, k] - a[:, n]) \
        + 0.5 * (q @ q) * (ainv[:, k] - ainv[:, n])
    vals = np.ascontiguousarray(vals.T)
    return vals.mean(axis=-1), vals.std(axis=-1, ddof=1) / math.sqrt(vals.shape[-1])


def tau_from_record(record: FlowRecord, n: int, k: int, p, q):
    """Expected additivity defect between levels k < n at directions (p, q),
    1/2 |p|^2 (a_k - a_n) + 1/2 |q|^2 (a_*^{-1}_k - a_*^{-1}_n) per sample in
    the recorded traces; SE from the per-sample values."""
    if not (0 <= k < n <= record.max_level):
        raise ParameterError(f"need 0 <= k < n <= {record.max_level}")
    return tuple(map(float, _tau(record, n, k, p, q)))


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
    abar_s = est.abar
    astar_s = 1.0 / est.astar_inv
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
