"""Coarse-grained matrix pair, the J functional, and the exact identities.

The Dirichlet matrix a(cube) and the Neumann matrix a_*(cube) are extracted
by polarization from one d-column block solve each.  Everything downstream (J,
response map, energy maps, subadditivity defects) is algebra on the resulting
pair plus quadratures of block solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ParameterError
from .grid import CoefficientField, TriadicCube, check_spd_array, subcubes
from .solver import CubeOperator, _product, stack_level

ORDER_TOL = 1e-9


@dataclass(frozen=True)
class CoarseGrainedPair:
    """The pair (a(cube), a_*(cube)) and a_*^{-1}(cube), read-only d-by-d
    arrays from level_pairs, with the solver residuals that produced them."""

    cube: TriadicCube
    a: np.ndarray
    a_star: np.ndarray
    a_star_inv: np.ndarray
    residuals: tuple[float, ...]

    @property
    def gap(self) -> np.ndarray:
        return self.a - self.a_star

    def to_json_dict(self) -> dict:
        return {
            "cube": {"level": self.cube.level, "offset": list(self.cube.offset)},
            "a": [float(x) for x in self.a.ravel()],
            "a_star": [float(x) for x in self.a_star.ravel()],
            "solver_residuals": [float(r) for r in self.residuals],
        }


def _polarize(op, W: np.ndarray) -> np.ndarray:
    """Gram matrices (1/|subcube|) w_i . K w_j of the nodal columns of W on
    each subcube of the operator, stacked in subcubes() order."""
    W3 = W.reshape(op.blocks, -1, W.shape[1])
    KW3 = np.ascontiguousarray(_product(op.stiffness, W).T).reshape(W3.shape)
    return np.swapaxes(W3, 1, 2) @ KW3 / (op.volume / op.blocks)


def _spd_stack(mats: np.ndarray, what: str, cube, level) -> np.ndarray:
    """The symmetric parts of stacked coarse matrices, checked as cell
    matrices are: finite, symmetric to 1e-12 relative, positive definite."""
    try:
        check_spd_array(mats, what)
    except ParameterError as exc:
        raise ConsistencyError(
            f"coarse pairs of the level-{level} subcubes of {cube} are not SPD: {exc}"
        ) from exc
    return 0.5 * (mats + np.swapaxes(mats, 1, 2))


def _level_grams(field: CoefficientField, cube: TriadicCube, level: int):
    """Gram matrices of the unit-slope Dirichlet and unit-flux Neumann
    solutions on every level-`level` subcube of `cube`, each a (count, d, d)
    stack in subcubes() order, with the worst residual of each kind of
    solve.  The subcubes are solved in one stack per cube of
    solver.stack_level."""
    d = field.dimension
    parent = stack_level(d, level, cube.level)
    eye = np.eye(d)
    dirichlet, neumann, residuals = [], [], []
    for sub in subcubes(cube, parent):
        op = CubeOperator(field, sub, level)
        wd = op.solve_dirichlet(eye)
        wn = op.solve_neumann(eye)
        dirichlet.append(_polarize(op, wd.values))
        neumann.append(_polarize(op, wn.values))
        residuals.append((wd.residual, wn.residual))
    # Stacks and the blocks within each run in C order over their offsets:
    # interleave the two offset grids into the subcubes' own.
    grid = (3 ** (cube.level - parent),) * d + (3 ** (parent - level),) * d
    axes = [ax for a in range(d) for ax in (a, d + a)] + [2 * d, 2 * d + 1]

    def ordered(stacks):
        blocks = np.concatenate(stacks).reshape(grid + (d, d))
        return blocks.transpose(axes).reshape(-1, d, d)

    # np.max keeps a NaN, where the builtin max may drop it.
    res_d, res_n = np.max(residuals, axis=0)
    return ordered(dirichlet), ordered(neumann), (float(res_d), float(res_n))


def _read_only(*arrays) -> tuple:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def level_pairs(field: CoefficientField, cube: TriadicCube, level: int):
    """(a, a_*, a_*^{-1}, residuals) on every level-`level` subcube of `cube`,
    each a read-only (count, d, d) stack in subcubes() order; residuals holds
    the worst subcube's residual of each kind of solve.

    At level 0 both matrices are the cells, which the field has checked, and
    no solve is made.  Above it they come from block-diagonal Dirichlet and
    Neumann solves, each with the d unit vectors as right-hand sides: a and
    a_*^{-1} are the Gram matrices of the solutions.  Every such pair is
    checked: a, a_*^{-1} and a_* finite, symmetric positive definite, and
    a_* <= a to ORDER_TOL.  Nothing is memoized."""
    if level == 0:
        d = field.dimension
        cells = field.cells_in(cube).reshape(-1, d, d)
        return _read_only(cells, cells, np.linalg.inv(cells)) + ((0.0, 0.0),)
    grams_d, grams_n, residuals = _level_grams(field, cube, level)
    a = _spd_stack(grams_d, "a matrices", cube, level)
    a_star_inv = _spd_stack(grams_n, "a_*^{-1} matrices", cube, level)
    a_star = _spd_stack(np.linalg.inv(a_star_inv), "a_* matrices", cube, level)
    eig = np.linalg.eigvalsh(np.stack([a - a_star, a]))
    gap_min = eig[0, :, 0]
    bad = np.flatnonzero(gap_min < -ORDER_TOL * eig[1, :, -1])
    if bad.size:
        raise ConsistencyError(
            f"ordering a_* <= a violated on {subcubes(cube, level)[bad[0]]}: "
            f"min gap eigenvalue {gap_min[bad[0]]:.3e}"
        )
    return _read_only(a, a_star, a_star_inv) + (residuals,)


def coarse_pair(field: CoefficientField, cube: TriadicCube) -> CoarseGrainedPair:
    """Compute (a(cube), a_*(cube)): the one-cube case of level_pairs.
    Nothing is memoized: a caller that needs the pair again keeps it."""
    a, a_star, a_star_inv, residuals = level_pairs(field, cube, cube.level)
    return CoarseGrainedPair(cube, a[0], a_star[0], a_star_inv[0], residuals)


def mean_j(a: np.ndarray, a_star_inv: np.ndarray, p, q) -> float:
    """Mean over (count, d, d) stacks of pairs of
    J = 1/2 p.a p + 1/2 q.a_*^{-1} q - p.q."""
    pq = np.stack([p, q])
    pairs = np.stack([a, a_star_inv], axis=1)
    return float(0.5 * np.einsum("si,bsij,sj->", pq, pairs, pq) / len(pairs) - p @ q)


def j_functional(pair: CoarseGrainedPair, p, q) -> float:
    """J(cube, p, q) = 1/2 p.a(cube)p + 1/2 q.a_*^{-1}(cube)q - p.q."""
    return mean_j(pair.a[None], pair.a_star_inv[None],
                  np.asarray(p, dtype=float), np.asarray(q, dtype=float))


def subadditivity_defect(field, pair: CoarseGrainedPair, level_n, p, q) -> float:
    """avg over the level_n subcubes of pair.cube of J minus J on the big
    cube; >= 0.  Only the level_n stack is solved (none at level 0)."""
    cube_m = pair.cube
    if not (0 <= level_n < cube_m.level):
        raise ParameterError(
            f"need 0 <= level_n < {cube_m.level}, got {level_n}"
        )
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a, _, a_star_inv, _ = level_pairs(field, cube_m, level_n)
    return float(mean_j(a, a_star_inv, p, q) - j_functional(pair, p, q))


def response_defect(op, pair: CoarseGrainedPair, w) -> tuple[float, float]:
    """Both sides of the response-map bound for a discrete a-harmonic w:
    |mean flux - a_* mean grad| <= |a - a_*|^(1/2) (mean grad.a grad)^(1/2)."""
    op.require_harmonic(w)
    g = op.mean_gradient(w)
    f = op.mean_flux(w)
    lhs = float(np.linalg.norm(f - pair.a_star @ g))
    gap_norm = float(np.linalg.eigvalsh(pair.gap)[-1])
    rhs = float(np.sqrt(max(gap_norm, 0.0)) * np.sqrt(2.0 * op.energy(w)))
    return lhs, rhs


def energy_map_check(op, pair: CoarseGrainedPair, w, flux=True):
    """Returns (grad_side, energy, flux_side): both coarse quadratic forms
    bound the block energy from below; the a_* form in the mean gradient holds
    for any w, the a^{-1} form in the mean flux requires w a-harmonic."""
    g = op.mean_gradient(w)
    energy = op.energy(w)
    grad_side = float(0.5 * g @ pair.a_star @ g)
    flux_side = None
    if flux:
        op.require_harmonic(w)
        f = op.mean_flux(w)
        flux_side = float(0.5 * f @ np.linalg.inv(pair.a) @ f)
    return grad_side, energy, flux_side


def first_variation_sides(op, w, p, q, v_solution) -> tuple[float, float]:
    """(q . mean grad w - p . mean flux w, mean grad w . a grad v); equal for
    discrete a-harmonic w."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    lhs = float(q @ op.mean_gradient(w) - p @ op.mean_flux(w))
    rhs = float(w @ (op.stiffness @ v_solution.values) / op.volume)
    return lhs, rhs


def second_variation_sides(op, pair: CoarseGrainedPair, w, p, q,
                           v_solution) -> tuple[float, float]:
    """(J - objective(w), energy of v - w); equal for discrete a-harmonic w,
    where objective(w) = mean(-1/2 grad w.a grad w - p.a grad w + q.grad w)
    is the quantity the maximizer v optimizes."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    j = j_functional(pair, p, q)
    objective = -op.energy(w) - p @ op.mean_flux(w) + q @ op.mean_gradient(w)
    lhs = j - objective
    diff = v_solution.values - w
    rhs = op.energy(diff)
    return float(lhs), float(rhs)


def fluxmap_sides(op, pair: CoarseGrainedPair, w, p, q) -> tuple[float, float]:
    """Cauchy-Schwarz flux-map bound:
    |mean(p.a grad w - q.grad w)| <= (2J)^(1/2) (mean grad.a grad)^(1/2).
    Both sides are linear in (p, q).  They are formed at (p, q) / 2^e, with
    2^e the binary order of max(|p|, |q|), and scaled back: J, quadratic in
    (p, q), does not underflow, and a power of two changes no other bit."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    e = math.frexp(float(max(np.abs(p).max(), np.abs(q).max())))[1]
    p, q = np.ldexp(p, -e), np.ldexp(q, -e)
    lhs = abs(float(p @ op.mean_flux(w) - q @ op.mean_gradient(w)))
    j = max(j_functional(pair, p, q), 0.0)
    rhs = float(np.sqrt(2.0 * j) * np.sqrt(2.0 * op.energy(w)))
    return math.ldexp(lhs, e), math.ldexp(rhs, e)


def integral_bound_slacks(op, pair: CoarseGrainedPair) -> tuple[float, float]:
    """Min eigenvalues of (cell arithmetic mean - a) and
    (cell inverse mean - a_*^{-1}); both >= 0 up to tolerance.  The cells are
    the operator's, one cube's in C order."""
    cells = op.cell_matrices
    arith = cells.mean(axis=0)
    harm_data = np.linalg.inv(cells).mean(axis=0)
    s1 = float(np.linalg.eigvalsh(arith - pair.a)[0])
    s2 = float(np.linalg.eigvalsh(harm_data - pair.a_star_inv)[0])
    return s1, s2
