"""Triadic Besov seminorms, multiscale ellipticity constants, and defects.

All scale sums run over triadic levels k <= m.  The lattice truncates at the
unit cell (k = 0); below it every block average of cell-constant data equals
the containing cell's value, so the k < 0 contributions are exact geometric
series and are added in closed form.  Passing `min_level` truncates those
tails at a finite level instead (used to cross-check against brute force).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CapacityError, ParameterError
from .grid import CoefficientField, TriadicCube
from .solver import CubeOperator, solve_v
# coarse_pair stays in this namespace: perfbench/tracing.py wraps it here.
from .coarse import coarse_pair, level_pairs, mean_j  # noqa: F401

INF = math.inf
DEFAULT_BUDGET_CAP = 2_000_000
# Elements of window data held at once by besov_positive's slab reduction.
_SLAB_ELEMENTS = 2 ** 16


def c_exp(u: float) -> float:
    """The normalizer 1 - 3^(-u); equal to 1 when u is infinite."""
    if u == INF:
        return 1.0
    return 1.0 - 3.0 ** (-u)


@dataclass(frozen=True)
class ExponentSet:
    """Scale-discount exponents s, t and aggregation exponent q (inf allowed)."""

    s: float
    t: float
    q: float

    def __post_init__(self):
        if not (0.0 < self.s <= 1.0) or not (0.0 < self.t <= 1.0):
            raise ParameterError("s and t must lie in (0, 1]")
        if not (1.0 <= self.q):
            raise ParameterError("q must lie in [1, inf]")

    @property
    def c_sq(self) -> float:
        return c_exp(self.s * self.q)

    @property
    def c_tq(self) -> float:
        return c_exp(self.t * self.q)


def _subunit_geometric(u: float, min_level) -> float:
    """sum over k in [min_level, -1] of 3^(u*k) (full tail when min_level is None)."""
    r = 3.0 ** (-u)
    if min_level is None:
        return r / (1.0 - r)
    if min_level >= 0:
        return 0.0
    terms = -int(min_level)
    return r * (1.0 - r ** terms) / (1.0 - r)


def _as_vector_grid(f: np.ndarray, dimension: int) -> np.ndarray:
    """Normalize cell data to shape (n,)*d + (v,); scalars get v = 1."""
    f = np.asarray(f, dtype=float)
    if f.ndim == dimension:
        f = f[..., None]
    if f.ndim != dimension + 1:
        raise ParameterError(
            f"cell data has shape {f.shape}, expected {dimension} or "
            f"{dimension + 1} axes"
        )
    return f


def _coarsen_mean(f: np.ndarray, dimension: int) -> np.ndarray:
    """Average vector cell data over aligned 3^d blocks, reducing the side by 3."""
    n = f.shape[0]
    v = f.shape[-1]
    shape = []
    for _ in range(dimension):
        shape.extend([n // 3, 3])
    shape.append(v)
    g = f.reshape(shape)
    axes = tuple(2 * i + 1 for i in range(dimension))
    return g.mean(axis=axes)


def _scale_sum(a, u: float, q: float, min_level=0) -> float:
    """(sum_k (3^(u*k) a_k)^q)^(1/q) over the levels k = 0..len(a)-1, or the
    max at q = inf.  The sub-unit levels k in [min_level, -1] repeat a_0 and are
    added in closed form (every k < 0 when min_level is None); callers with a
    tail have u > 0, so those levels never set the max."""
    terms = 3.0 ** (u * np.arange(len(a))) * np.asarray(a, dtype=float)
    if q == INF:
        return float(terms.max())
    total = np.sum(terms ** q) + _subunit_geometric(u * q, min_level) * a[0] ** q
    return float(total ** (1.0 / q))


def besov_ring(f, dimension: int, s: float, p: float, q: float,
               min_level=None) -> float:
    """Explicit negative seminorm: aggregated block averages over the aligned
    triadic partition at every level k <= m, finer levels discounted by 3^(s*q*k).
    `f` is cell data on the full cube of side 3^m (scalar or vector)."""
    if not (0.0 < s <= 1.0):
        raise ParameterError("s must lie in (0, 1]")
    if not (1.0 <= p):
        raise ParameterError("p must lie in [1, inf]")
    if not (1.0 <= q):
        raise ParameterError("q must lie in [1, inf]")
    f = _as_vector_grid(f, dimension)
    m = round(math.log(f.shape[0], 3)) if f.shape[0] > 1 else 0
    if f.shape[0] != 3 ** m:
        raise ParameterError(f"cell data side {f.shape[0]} is not a power of 3")

    # A_k = (avg_z |(f)_block|^p)^(1/p) for each level k = 0..m.
    inner = []
    g = f
    for k in range(m + 1):
        norms = np.linalg.norm(g.reshape(-1, g.shape[-1]), axis=1)
        if p == INF:
            inner.append(float(norms.max(initial=0.0)))
        else:
            inner.append(float(np.mean(norms ** p) ** (1.0 / p)))
        if k < m:
            g = _coarsen_mean(g, dimension)
    return _scale_sum(inner, s, q, min_level)


def _window_oscillation(g: np.ndarray, dimension: int, side: int, step: int,
                        p: float) -> float:
    """Average over the cubic windows of `side` cells at stride `step` of the
    window mean of |g - window mean|^p, reduced a slab of window rows at a time
    so memory stays near _SLAB_ELEMENTS whatever the window count."""
    windows = sliding_window_view(g, (side,) * dimension, axis=tuple(range(dimension)))
    windows = windows[(slice(None, None, step),) * dimension]
    # windows: (positions,)*d + (v,) + (side,)*d, all of one size.
    cell_axes = tuple(range(dimension + 1, 2 * dimension + 1))
    rows = max(1, _SLAB_ELEMENTS // windows[0].size)
    total = 0.0
    for lo in range(0, windows.shape[0], rows):
        slab = windows[lo:lo + rows]
        dev = np.linalg.norm(slab - slab.mean(axis=cell_axes, keepdims=True),
                             axis=dimension)
        total += float(np.sum(dev ** p))
    return total / (windows.size // windows.shape[dimension])


def besov_positive(g, dimension: int, s: float, p: float, q: float) -> float:
    """Positive Besov seminorm with centered block oscillations; blocks of side
    3^k live on the half-step offset grid 3^(k-1) Z^d.  Each block is an
    unweighted window on the grid refined by 3 per axis (side 3, stride 1 at
    k = 0) or, at k >= 1, a union of whole cells (side 3^k, stride 3^(k-1)),
    reduced in bounded slabs.  The k-sum truncates at the unit scale: centered
    averages of cell-constant data carry no sub-unit contribution under the
    lattice cutoff convention."""
    if not (0.0 < s < 1.0):
        raise ParameterError("s must lie in (0, 1)")
    if not (1.0 <= p) or p == INF:
        raise ParameterError("p must lie in [1, inf)")
    if q != INF and not (0.0 < q):
        raise ParameterError("q must be positive or inf")
    g = _as_vector_grid(g, dimension)
    n = g.shape[0]
    m = round(math.log(n, 3)) if n > 1 else 0
    if n != 3 ** m:
        raise ParameterError(f"cell data side {n} is not a power of 3")

    refined = g
    for ax in range(dimension):
        refined = np.repeat(refined, 3, axis=ax)
    levels = [(refined, 3, 1)] + [(g, 3 ** k, 3 ** (k - 1)) for k in range(1, m + 1)]
    inner = [_window_oscillation(grid, dimension, side, step, p) ** (1.0 / p)
             for grid, side, step in levels]
    return _scale_sum(inner, -s, q)


@dataclass
class MultiscaleLadder:
    """Per-scale coarse pairs over all subcubes of a cube, with maxima."""

    cube: TriadicCube
    a_all: list[np.ndarray]          # per level k: (count, d, d) Dirichlet matrices
    a_star_inv_all: list[np.ndarray]  # per level k: (count, d, d)
    max_a_norm: np.ndarray           # per level k
    max_a_star_inv_norm: np.ndarray  # per level k

    @property
    def top_level(self) -> int:
        return self.cube.level


def ladder(field: CoefficientField, cube: TriadicCube,
           budget_cap: int = DEFAULT_BUDGET_CAP) -> MultiscaleLadder:
    """Coarse pairs on every subcube at every level 0..m, from level_pairs
    (the cells at level 0; above it one block-diagonal Dirichlet and one
    Neumann solve per stack, one stack per level while the whole cube's
    solves are within the direct cost cap).  The pairs do not enter
    coarse_pair's memo."""
    d = field.dimension
    m = cube.level
    total = sum(3 ** (d * (m - k)) for k in range(m + 1))
    if total > budget_cap:
        raise CapacityError(
            f"ladder needs {total} subcube solves, above the cap {budget_cap}"
        )

    a_all, ainv_all = [], []
    for k in range(m + 1):
        a, _, a_star_inv, _ = level_pairs(field, cube, k)
        a_all.append(a)
        ainv_all.append(a_star_inv)

    max_a = np.array([np.linalg.eigvalsh(arr)[:, -1].max() for arr in a_all])
    max_ainv = np.array([np.linalg.eigvalsh(arr)[:, -1].max() for arr in ainv_all])
    return MultiscaleLadder(cube, a_all, ainv_all, max_a, max_ainv)


def ellipticity_constants(lad: MultiscaleLadder, exps: ExponentSet,
                          min_level=None) -> tuple[float, float]:
    """(Lambda_{s,q}, lambda_{t,q}) from the ladder maxima, with the exact
    sub-unit tail (sub-unit coarse matrices equal the cell matrices)."""
    m = lad.top_level
    s, t, q = exps.s, exps.t, exps.q
    big = exps.c_sq ** (1.0 / q) * 3.0 ** (-s * m) * _scale_sum(
        np.sqrt(lad.max_a_norm), s, q, min_level)
    small = exps.c_tq ** (1.0 / q) * 3.0 ** (-t * m) * _scale_sum(
        np.sqrt(lad.max_a_star_inv_norm), t, q, min_level)
    return float(big ** 2), float(small ** -2)


def defect_quadratic_forms(a_arr, ainv_arr, abar: np.ndarray) -> np.ndarray:
    """Per-subcube unit-sphere maximum of J(., abar^{-1/2} e, abar^{1/2} e),
    computed as the top eigenvalue of the explicit symmetric matrix
    abar^{-1/2} (a - a_* + (a_* - abar) a_*^{-1} (a_* - abar)) abar^{-1/2} / 2."""
    evals, evecs = np.linalg.eigh(abar)
    if evals[0] <= 0:
        raise ParameterError("reference matrix abar must be positive definite")
    r = evecs @ np.diag(evals ** -0.5) @ evecs.T
    a_star = np.linalg.inv(ainv_arr)
    dev = a_star - abar
    inner = a_arr - a_star + dev @ ainv_arr @ dev
    mats = r @ inner @ r
    mats = 0.5 * (mats + np.swapaxes(mats, -2, -1))
    vals = 0.5 * np.linalg.eigvalsh(mats)[..., -1]
    # The conjugation makes the form dimensionless; values at roundoff scale
    # are solver noise and would otherwise be amplified by the square root.
    vals[np.abs(vals) < 1e-13] = 0.0
    return np.maximum(vals, 0.0)


def multiscale_defect(lad: MultiscaleLadder, abar, s: float, q: float,
                      min_level=None) -> float:
    """The scale-discounted aggregate of the per-subcube J-defect against the
    reference matrix abar; vanishes iff every block pair equals abar."""
    if not (0.0 < s < 0.5):
        raise ParameterError("s must lie in (0, 1/2)")
    if not (1.0 <= q):
        raise ParameterError("q must lie in [1, inf]")
    abar = np.asarray(abar, dtype=float)
    m = lad.top_level
    jmax = np.array(
        [
            defect_quadratic_forms(lad.a_all[k], lad.a_star_inv_all[k], abar).max()
            for k in range(m + 1)
        ]
    )
    return float(
        c_exp(s * q) ** (1.0 / q) * 3.0 ** (-s * m) * _scale_sum(np.sqrt(jmax), s, q, min_level)
    )


def cg_poincare_check(field: CoefficientField, cube: TriadicCube, u: np.ndarray,
                      s: float, q: float, flux=True) -> dict:
    """Both lines of the coarse-grained Poincare inequality with the explicit
    constants c_{sq}^{-1/q} lambda^{-1/2} and c_{sq}^{-1/q} Lambda^{1/2}.

    The gradient line holds for every discrete function; the flux line needs
    u discrete a-harmonic."""
    op = CubeOperator(field, cube)
    lad = ladder(field, cube)
    exps = ExponentSet(s, s, q)
    Lambda, lam = ellipticity_constants(lad, exps)
    m = cube.level
    cfac = exps.c_sq ** (-1.0 / q)
    energy_norm = math.sqrt(max(2.0 * op.energy(u), 0.0))

    grid_shape = (cube.side,) * field.dimension + (field.dimension,)
    grads = op.cell_gradients(u).reshape(grid_shape)
    lhs_grad = 3.0 ** (-s * m) * besov_ring(grads, field.dimension, s, 2.0, q)
    rhs_grad = cfac * lam ** -0.5 * energy_norm

    report = {
        "s": s,
        "q": q,
        "lambda": lam,
        "Lambda": Lambda,
        "lhs_gradient": float(lhs_grad),
        "rhs_gradient": float(rhs_grad),
        "gradient_ok": bool(lhs_grad <= rhs_grad * (1.0 + 1e-7) + 1e-300),
    }
    if flux:
        op.require_harmonic(u)
        fluxes = op.cell_fluxes(u).reshape(grid_shape)
        lhs_flux = 3.0 ** (-s * m) * besov_ring(fluxes, field.dimension, s, 2.0, q)
        rhs_flux = cfac * Lambda ** 0.5 * energy_norm
        report.update(
            lhs_flux=float(lhs_flux),
            rhs_flux=float(rhs_flux),
            flux_ok=bool(lhs_flux <= rhs_flux * (1.0 + 1e-7) + 1e-300),
        )
    return report


def weak_norm_diagnostics(field: CoefficientField, cube: TriadicCube,
                          p, q_vec, p0, q0, s: float, t: float,
                          s_prime=None, t_prime=None, base_level: int = 0) -> dict:
    """Measurable ingredients of the weak-norm estimates for the maximizer of
    J(cube, p, q): the two left-hand sides and every term of the right-hand
    sides.  The bounds carry an unspecified dimensional constant and are
    reported, never asserted."""
    d = field.dimension
    m = cube.level
    p = np.asarray(p, dtype=float)
    q_vec = np.asarray(q_vec, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    if s_prime is None:
        s_prime = s / 2.0
    if t_prime is None:
        t_prime = t / 2.0
    if not (s / 2.0 <= s_prime <= s) or not (t / 2.0 <= t_prime <= t):
        raise ParameterError("s' must lie in [s/2, s] (and t' in [t/2, t])")
    k = base_level
    if not (0 <= k < m):
        raise ParameterError(f"base_level must lie in [0, {m})")

    op = CubeOperator(field, cube)
    lad = ladder(field, cube)
    v = solve_v(field, cube, p, q_vec)
    grid_shape = (cube.side,) * d + (d,)
    grads = op.cell_gradients(v.values).reshape(grid_shape)
    fluxes = op.cell_fluxes(v.values).reshape(grid_shape)

    lhs_grad = 3.0 ** (-s * m) * besov_ring(grads - p0, d, s, 2.0, 1.0)
    lhs_flux = 3.0 ** (-t * m) * besov_ring(fluxes - q0, d, t, 2.0, 1.0)

    j_m = mean_j(lad.a_all[m], lad.a_star_inv_all[m], p, q_vec)
    lam_sp = ellipticity_constants(lad, ExponentSet(s_prime, s_prime, 1.0))[1]
    Lam_tp = ellipticity_constants(lad, ExponentSet(t_prime, t_prime, 1.0))[0]

    dev_grad = []
    dev_flux = []
    j_increments = []
    for j in range(k + 1, m + 1):
        a_j = lad.a_all[j]
        ainv_j = lad.a_star_inv_all[j]
        dg = ainv_j @ q_vec - p - p0
        df = q_vec - a_j @ p - q0
        dev_grad.append(
            3.0 ** (-s * (m - j)) * float(np.sqrt(np.mean(np.sum(dg ** 2, axis=1))))
        )
        dev_flux.append(
            3.0 ** (-t * (m - j)) * float(np.sqrt(np.mean(np.sum(df ** 2, axis=1))))
        )
        j_increments.append(max(mean_j(a_j, ainv_j, p, q_vec) - j_m, 0.0))

    jsum_grad = lam_sp ** -0.5 * sum(
        3.0 ** (-(s - s_prime) * (m - j)) * inc ** 0.5
        for j, inc in zip(range(k + 1, m + 1), j_increments)
    )
    jsum_flux = Lam_tp ** 0.5 * sum(
        3.0 ** (-(t - t_prime) * (m - j)) * inc ** 0.5
        for j, inc in zip(range(k + 1, m + 1), j_increments)
    )
    jpos = max(j_m, 0.0)
    boundary_grad = (
        s ** -0.5 * 3.0 ** (-(s - s_prime) * (m - k)) * lam_sp ** -0.5 * jpos ** 0.5,
        s ** -1.0 * 3.0 ** (-s * (m - k)) * float(np.linalg.norm(p0)),
    )
    boundary_flux = (
        t ** -0.5 * 3.0 ** (-(t - t_prime) * (m - k)) * Lam_tp ** 0.5 * jpos ** 0.5,
        t ** -1.0 * 3.0 ** (-t * (m - k)) * float(np.linalg.norm(q0)),
    )
    return {
        "lhs_gradient": float(lhs_grad),
        "lhs_flux": float(lhs_flux),
        "deviation_terms_gradient": dev_grad,
        "deviation_terms_flux": dev_flux,
        "j_increment_sum_gradient": float(jsum_grad),
        "j_increment_sum_flux": float(jsum_flux),
        "boundary_terms_gradient": [float(x) for x in boundary_grad],
        "boundary_terms_flux": [float(x) for x in boundary_flux],
        "j_value": float(j_m),
        "lambda_s_prime": float(lam_sp),
        "Lambda_t_prime": float(Lam_tp),
    }
