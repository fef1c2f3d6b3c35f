"""Triadic Besov seminorms, multiscale ellipticity constants, and defects.

All scale sums run over triadic levels k <= m.  The lattice truncates at the
unit cell (k = 0); below it every block average of cell-constant data equals
the containing cell's value, so the k < 0 contributions are exact geometric
series and are added in closed form.  Passing `min_level` truncates those
tails at a finite level instead (used to cross-check against brute force).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError
from .grid import CoefficientField, TriadicCube, group_blocks
# coarse_pair stays in this namespace: perfbench/tracing.py wraps it here.
from .coarse import CoarseGrainedPair, coarse_pair, level_pairs  # noqa: F401

INF = math.inf
DEFAULT_BUDGET_CAP = 2_000_000


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


def _finite_seminorm(value: float) -> float:
    # Finite data near the top of the float range overflow in the powers.
    if not math.isfinite(value):
        raise ParameterError(f"the Besov seminorm is not finite ({value!r})")
    return value


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
            g = group_blocks(g, dimension, 3).mean(axis=dimension)
    return _finite_seminorm(_scale_sum(inner, s, q, min_level))


def _oscillation(g: np.ndarray, dimension: int, k: int, p: float) -> float:
    """The mean over the level-k windows of the window mean of
    |g - window mean|^p.  A window is 3 sub-blocks per axis at a stride of
    one sub-block: at k >= 1 an aligned block of 3^(k-1) cells, at k = 0 a
    third of a cell.  Each class of windows is a weighted sum of shifted
    slices of the cells grouped by sub-block, weight w standing for w
    sub-blocks: at k >= 1 one class of 3^d unit-weight slices; at k = 0 one
    class per residue r in {0, 1, 2}^d of the first refined index 3c + r of
    a window, which along an axis covers cell c 3 - r times and cell c + 1
    r times."""
    d = dimension
    blocks = group_blocks(g, d, 3 ** (k - 1) if k else 1)
    means = blocks.mean(axis=d)
    n = blocks.shape[0]
    if k:
        axis_classes = [[(slice(o, n - 2 + o), 1) for o in range(3)]]
    else:
        axis_classes = [[(slice(None), 3)], [(slice(0, -1), 2), (slice(1, None), 1)],
                        [(slice(0, -1), 1), (slice(1, None), 2)]]
    total = 0.0
    for classes in itertools.product(axis_classes, repeat=d):
        terms = [(math.prod(w for _, w in part), tuple(sl for sl, _ in part))
                 for part in itertools.product(*classes)]
        if len(terms) == 1:
            continue  # a window inside one cell does not oscillate
        mean = sum(w * means[sl] for w, sl in terms) / 3 ** d
        for w, sl in terms:
            dev = np.square(blocks[sl] - mean[..., None, :]).sum(axis=-1)
            total += w * float(np.sum(dev ** (p / 2)))
    windows = (n - 2 if k else 3 * n - 2) ** d
    return total / (windows * 3 ** d * blocks.shape[d])


def besov_positive(g, dimension: int, s: float, p: float, q: float) -> float:
    """Positive Besov seminorm with centered block oscillations; blocks of side
    3^k live on the half-step offset grid 3^(k-1) Z^d.  Every level is one
    reduction over weighted shifted slices of sub-block arrays
    (_oscillation): at k >= 1 a block is 3^d aligned blocks of 3^(k-1)
    cells, at k = 0 a window of side 3 at stride 1 on the grid refined by 3
    per axis, summed on the cell lattice with no refined copy.  No
    temporary exceeds a few copies of the input.
    The k-sum truncates at the unit scale: centered averages of
    cell-constant data carry no sub-unit contribution under the lattice
    cutoff convention."""
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

    inner = [_oscillation(g, dimension, k, p) ** (1.0 / p) for k in range(m + 1)]
    return _finite_seminorm(_scale_sum(inner, -s, q))


@dataclass
class MultiscaleLadder:
    """Per-scale coarse pairs over all subcubes of a cube, with maxima, and
    the whole cube's pair (the top level's one entry)."""

    cube: TriadicCube
    pair: CoarseGrainedPair
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
    solves are within the direct cost cap).  The top level's pair is the
    ladder's `pair`, equal to coarse_pair(field, cube)."""
    d = field.dimension
    m = cube.level
    total = sum(3 ** (d * (m - k)) for k in range(m + 1))
    if total > budget_cap:
        raise CapacityError(
            f"ladder needs {total} subcube solves, above the cap {budget_cap}"
        )

    a_all, ainv_all = [], []
    for k in range(m + 1):
        a, a_star, a_star_inv, residuals = level_pairs(field, cube, k)
        a_all.append(a)
        ainv_all.append(a_star_inv)
    pair = CoarseGrainedPair(cube, a[0], a_star[0], a_star_inv[0], residuals)

    max_a = np.array([np.linalg.eigvalsh(arr)[:, -1].max() for arr in a_all])
    max_ainv = np.array([np.linalg.eigvalsh(arr)[:, -1].max() for arr in ainv_all])
    return MultiscaleLadder(cube, pair, a_all, ainv_all, max_a, max_ainv)


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
    """Per-subcube unit-sphere maximum of J(., r e, s e) with r = abar^{-1/2}
    and s = abar^{1/2}: as r s = I, half the top eigenvalue of the symmetric
    matrix r a r + s a_*^{-1} s - 2I."""
    evals, evecs = np.linalg.eigh(abar)
    if evals[0] <= 0:
        raise ParameterError("reference matrix abar must be positive definite")
    r = evecs @ np.diag(evals ** -0.5) @ evecs.T
    s = evecs @ np.diag(evals ** 0.5) @ evecs.T
    mats = r @ a_arr @ r + s @ ainv_arr @ s - 2.0 * np.eye(len(evals))
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


def cg_poincare_check(op, lad: MultiscaleLadder, u: np.ndarray,
                      s: float, q: float) -> dict:
    """Both lines of the coarse-grained Poincare inequality with the explicit
    constants c_{sq}^{-1/q} lambda^{-1/2} and c_{sq}^{-1/q} Lambda^{1/2}, on
    the cube of `lad`, whose one-cube operator is `op`.

    The gradient line holds for every discrete function; the flux line needs
    u discrete a-harmonic (otherwise PreconditionError)."""
    exps = ExponentSet(s, s, q)
    Lambda, lam = ellipticity_constants(lad, exps)
    m = lad.top_level
    d = op.dimension
    cfac = exps.c_sq ** (-1.0 / q)
    energy_norm = math.sqrt(max(2.0 * op.energy(u), 0.0))

    grid_shape = (lad.cube.side,) * d + (d,)
    grads = op.cell_gradients(u).reshape(grid_shape)
    lhs_grad = 3.0 ** (-s * m) * besov_ring(grads, d, s, 2.0, q)
    rhs_grad = cfac * lam ** -0.5 * energy_norm
    op.require_harmonic(u)
    fluxes = op.cell_fluxes(u).reshape(grid_shape)
    lhs_flux = 3.0 ** (-s * m) * besov_ring(fluxes, d, s, 2.0, q)
    rhs_flux = cfac * Lambda ** 0.5 * energy_norm
    return {
        "s": s,
        "q": q,
        "lambda": lam,
        "Lambda": Lambda,
        "lhs_gradient": float(lhs_grad),
        "rhs_gradient": float(rhs_grad),
        "gradient_ok": bool(lhs_grad <= rhs_grad * (1.0 + 1e-7) + 1e-300),
        "lhs_flux": float(lhs_flux),
        "rhs_flux": float(rhs_flux),
        "flux_ok": bool(lhs_flux <= rhs_flux * (1.0 + 1e-7) + 1e-300),
    }
