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
from dataclasses import asdict, dataclass, field as dc_field

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


_CSV_COLUMNS = (
    "n", "samples", "abar_scalar", "abar_se", "astar_inv_scalar",
    "astar_inv_se", "theta", "theta_se", "tau_prev", "tau_prev_se",
)

# The estimates over levels, in CSV and flow.json order.  flow.json writes
# the first four as the isotropic d x d matrices x I they stand for; both
# leave tau out where it is undefined (level 0).
_MATRICES = ("abar", "abar_se", "astar_inv", "astar_inv_se")
_TAU = ("tau_prev", "tau_prev_se")
_ESTIMATES = _MATRICES + ("theta", "theta_se") + _TAU


@dataclass
class FlowRecord:
    """The per-sample traces tr a/d and tr a_*^{-1}/d at levels 0..max_level,
    (N, L+1) each, and the annealed estimates formed from them once, one
    array over levels each: the sample means with their standard errors,
    theta, their product, and tau_prev, the additivity defect from the level
    below (NaN at level 0)."""

    dimension: int
    spec: EnsembleSpec
    a_samples: np.ndarray = dc_field(repr=False)      # (N, L+1)
    astar_inv_samples: np.ndarray = dc_field(repr=False)
    aborted: int
    abar: np.ndarray = dc_field(init=False, repr=False)
    abar_se: np.ndarray = dc_field(init=False, repr=False)
    astar_inv: np.ndarray = dc_field(init=False, repr=False)
    astar_inv_se: np.ndarray = dc_field(init=False, repr=False)
    theta: np.ndarray = dc_field(init=False, repr=False)
    theta_se: np.ndarray = dc_field(init=False, repr=False)
    tau_prev: np.ndarray = dc_field(init=False, repr=False)
    tau_prev_se: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        # The estimates reduce the (N, levels) arrays over the sample axis,
        # row by row; theta, its SE and tau use the means of each level's
        # column, which numpy sums pairwise along the contiguous rows of the
        # transposed arrays.  The two orders can differ in the last bit.
        a_s, ainv_s = self.a_samples, self.astar_inv_samples
        n = self.samples
        self.abar, self.astar_inv = a_s.mean(axis=0), ainv_s.mean(axis=0)
        self.abar_se = a_s.std(axis=0, ddof=1) / math.sqrt(n)
        self.astar_inv_se = ainv_s.std(axis=0, ddof=1) / math.sqrt(n)
        # Product of the two sample means with a delta-method standard error;
        # each level's covariance is np.cov's, one (2, N) @ (N, 2) product.
        pairs = np.ascontiguousarray(np.stack([a_s.T, ainv_s.T], axis=1))
        means = pairs.mean(axis=-1)
        x, y = means.T
        pairs -= means[..., None]
        cov = pairs @ pairs.transpose(0, 2, 1) * np.true_divide(1, n - 1)
        var = (y * y * cov[:, 0, 0] + x * x * cov[:, 1, 1] + 2 * x * y * cov[:, 0, 1]) / n
        self.theta, self.theta_se = x * y, np.sqrt(np.maximum(var, 0.0))
        # Additivity defect between consecutive levels at (p, q) = (e_1, e_1),
        # 1/2 (a_{n-1} - a_n) + 1/2 (a_*^{-1}_{n-1} - a_*^{-1}_n) per sample;
        # the per-sample values, each level's summed along one contiguous
        # row, give the correlated SE.
        vals = 0.5 * (a_s[:, :-1] - a_s[:, 1:]) + 0.5 * (ainv_s[:, :-1] - ainv_s[:, 1:])
        vals = np.ascontiguousarray(vals.T)
        tau, tau_se = vals.mean(axis=-1), vals.std(axis=-1, ddof=1) / math.sqrt(n)
        self.tau_prev = np.concatenate([[math.nan], tau])
        self.tau_prev_se = np.concatenate([[math.nan], tau_se])

    @property
    def samples(self) -> int:
        return self.a_samples.shape[0]

    @property
    def max_level(self) -> int:
        return self.a_samples.shape[1] - 1

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(_CSV_COLUMNS) + "\n")
        for n in range(self.max_level + 1):
            row = [str(n), str(self.samples)]
            for key in _ESTIMATES:
                v = float(getattr(self, key)[n])
                row.append("" if key in _TAU and math.isnan(v) else repr(v))
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        eye = np.eye(self.dimension)
        scales = []
        for n in range(self.max_level + 1):
            scale = {"level": n, "samples": self.samples}
            for key in _ESTIMATES:
                v = float(getattr(self, key)[n])
                if key in _MATRICES:
                    scale[key] = (v * eye).ravel().tolist()
                elif key not in _TAU or not math.isnan(self.tau_prev[n]):
                    scale[key] = v
            scales.append(scale)
        return {
            "dimension": self.dimension,
            "max_level": self.max_level,
            "ensemble": self.spec.to_json_dict(),
            "aborted_samples": self.aborted,
            "scales": scales,
        }


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
    a_s, ainv_s = np.stack(results, axis=1)
    return FlowRecord(dimension, spec, a_s, ainv_s, aborted)


def synthetic_record(abar_scalars, astar_inv_scalars) -> FlowRecord:
    """Zero-noise record from given per-level scalars (for the selector):
    the record of two equal samples."""
    a = np.asarray(abar_scalars, dtype=float)
    b = np.asarray(astar_inv_scalars, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 1:
        raise ParameterError("need two equal-length scalar sequences")
    spec = EnsembleSpec("constant", {"value": 1.0})
    return FlowRecord(1, spec, np.stack([a, a]), np.stack([b, b]), 0)


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
        return asdict(self)


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
    a, ainv = record.abar, record.astar_inv
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
    for n, theta in enumerate(record.theta.tolist()):
        if theta <= 1.0 + sigma:
            confident = theta + 2.0 * float(record.theta_se[n]) <= 1.0 + sigma
            return HomogenizationScale(n, confident, sigma)
    return HomogenizationScale(None, False, sigma)
