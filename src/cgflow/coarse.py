"""Coarse-grained matrix pair, the J functional, and the exact identities.

The Dirichlet matrix a(cube) and the Neumann matrix a_*(cube) are extracted
by polarization from one d-column block solve each.  Everything downstream (J,
response map, energy maps, subadditivity defects) is algebra on the resulting
pair plus quadratures of block solutions.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ParameterError
from .grid import CoefficientField, SpdMatrix, TriadicCube, subcubes
from .solver import CubeOperator

ORDER_TOL = 1e-9

_PAIRS = weakref.WeakKeyDictionary()  # live field -> {cube: pair}


@dataclass(frozen=True)
class CoarseGrainedPair:
    """The pair (a(cube), a_*(cube)) with the solver residuals that produced it."""

    cube: TriadicCube
    a: SpdMatrix
    a_star: SpdMatrix
    residuals: tuple[float, ...]

    @property
    def a_star_inv(self) -> np.ndarray:
        return self.a_star.inverse().entries

    @property
    def gap(self) -> np.ndarray:
        return self.a.entries - self.a_star.entries

    def to_json_dict(self) -> dict:
        return {
            "cube": {"level": self.cube.level, "offset": list(self.cube.offset)},
            "a": self.a.to_list(),
            "a_star": self.a_star.to_list(),
            "solver_residuals": [float(r) for r in self.residuals],
        }


def _polarize(op, W: np.ndarray) -> np.ndarray:
    """Gram matrix (1/|cube|) w_i . K w_j of the nodal columns of W."""
    return W.T @ (op.stiffness @ W) / op.volume


def coarse_pair(field: CoefficientField, cube: TriadicCube) -> CoarseGrainedPair:
    """Compute (a(cube), a_*(cube)) by one Dirichlet and one Neumann solve,
    each with the d unit vectors as right-hand sides.

    Results are memoized per field while it lives, keyed by cube.
    A unit cell needs no solve: both matrices equal the cell matrix exactly.
    """
    if cube.level == 0:
        mat = SpdMatrix(field.cell(cube.offset))
        return CoarseGrainedPair(cube, mat, mat, (0.0, 0.0))
    memo = _PAIRS.setdefault(field, {})
    if cube in memo:
        return memo[cube]

    op = CubeOperator(field, cube)
    eye = np.eye(field.dimension)
    wd = op.solve_dirichlet(eye)
    wn = op.solve_neumann(eye)
    try:
        a_mat = SpdMatrix(_polarize(op, wd.values))
        a_star_inv = SpdMatrix(_polarize(op, wn.values))
        a_star_mat = a_star_inv.inverse()
    except ParameterError as exc:
        raise ConsistencyError(f"coarse pair on {cube} is not SPD: {exc}") from exc

    gap_min = np.linalg.eigvalsh(a_mat.entries - a_star_mat.entries)[0]
    if gap_min < -ORDER_TOL * a_mat.spectral_norm():
        raise ConsistencyError(
            f"ordering a_* <= a violated on {cube}: min gap eigenvalue {gap_min:.3e}"
        )
    pair = CoarseGrainedPair(cube, a_mat, a_star_mat, (wd.residual, wn.residual))
    memo[cube] = pair
    return pair


def j_from_pair(pair: CoarseGrainedPair, p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(
        0.5 * p @ pair.a.entries @ p + 0.5 * q @ pair.a_star_inv @ q - p @ q
    )


def j_functional(field, cube, p, q) -> float:
    """J(cube, p, q) = 1/2 p.a(cube)p + 1/2 q.a_*^{-1}(cube)q - p.q."""
    return j_from_pair(coarse_pair(field, cube), p, q)


def subadditivity_defect(field, cube_m, level_n, p, q) -> float:
    """avg over subcubes at level_n of J minus J on the big cube; >= 0."""
    if not (0 <= level_n < cube_m.level):
        raise ParameterError(
            f"need 0 <= level_n < {cube_m.level}, got {level_n}"
        )
    parts = [j_functional(field, sub, p, q) for sub in subcubes(cube_m, level_n)]
    return float(np.mean(parts) - j_functional(field, cube_m, p, q))


def response_defect(field, cube, w) -> tuple[float, float]:
    """Both sides of the response-map bound for a discrete a-harmonic w:
    |mean flux - a_* mean grad| <= |a - a_*|^(1/2) (mean grad.a grad)^(1/2)."""
    op = CubeOperator(field, cube)
    op.require_harmonic(w)
    pair = coarse_pair(field, cube)
    g = op.mean_gradient(w)
    f = op.mean_flux(w)
    lhs = float(np.linalg.norm(f - pair.a_star.entries @ g))
    gap_norm = float(np.linalg.eigvalsh(pair.gap)[-1])
    rhs = float(np.sqrt(max(gap_norm, 0.0)) * np.sqrt(2.0 * op.energy(w)))
    return lhs, rhs


def energy_map_check(field, cube, w, flux=True):
    """Returns (grad_side, energy, flux_side): both coarse quadratic forms
    bound the block energy from below; the a_* form in the mean gradient holds
    for any w, the a^{-1} form in the mean flux requires w a-harmonic."""
    op = CubeOperator(field, cube)
    pair = coarse_pair(field, cube)
    g = op.mean_gradient(w)
    energy = op.energy(w)
    grad_side = float(0.5 * g @ pair.a_star.entries @ g)
    flux_side = None
    if flux:
        op.require_harmonic(w)
        f = op.mean_flux(w)
        a_inv = pair.a.inverse().entries
        flux_side = float(0.5 * f @ a_inv @ f)
    return grad_side, energy, flux_side


def first_variation_sides(field, cube, w, p, q, v_solution) -> tuple[float, float]:
    """(q . mean grad w - p . mean flux w, mean grad w . a grad v); equal for
    discrete a-harmonic w."""
    op = CubeOperator(field, cube)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    lhs = float(q @ op.mean_gradient(w) - p @ op.mean_flux(w))
    rhs = float(w @ (op.stiffness @ v_solution.values) / op.volume)
    return lhs, rhs


def second_variation_sides(field, cube, w, p, q, v_solution) -> tuple[float, float]:
    """(J - objective(w), energy of v - w); equal for discrete a-harmonic w,
    where objective(w) = mean(-1/2 grad w.a grad w - p.a grad w + q.grad w)
    is the quantity the maximizer v optimizes."""
    op = CubeOperator(field, cube)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    j = j_functional(field, cube, p, q)
    objective = -op.energy(w) - p @ op.mean_flux(w) + q @ op.mean_gradient(w)
    lhs = j - objective
    diff = v_solution.values - w
    rhs = op.energy(diff)
    return float(lhs), float(rhs)


def fluxmap_sides(field, cube, w, p, q) -> tuple[float, float]:
    """Cauchy-Schwarz flux-map bound:
    |mean(p.a grad w - q.grad w)| <= (2J)^(1/2) (mean grad.a grad)^(1/2)."""
    op = CubeOperator(field, cube)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    lhs = abs(float(p @ op.mean_flux(w) - q @ op.mean_gradient(w)))
    j = max(j_functional(field, cube, p, q), 0.0)
    rhs = float(np.sqrt(2.0 * j) * np.sqrt(2.0 * op.energy(w)))
    return lhs, rhs


def integral_bound_slacks(field, cube) -> tuple[float, float]:
    """Min eigenvalues of (cell arithmetic mean - a) and
    (cell inverse mean - a_*^{-1}); both >= 0 up to tolerance."""
    pair = coarse_pair(field, cube)
    cells = field.cells_in(cube).reshape(-1, field.dimension, field.dimension)
    arith = cells.mean(axis=0)
    harm_data = np.linalg.inv(cells).mean(axis=0)
    s1 = float(np.linalg.eigvalsh(arith - pair.a.entries)[0])
    s2 = float(np.linalg.eigvalsh(harm_data - pair.a_star_inv)[0])
    return s1, s2
