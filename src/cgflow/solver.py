"""Discrete variational block solver.

One multilinear (Q1) element per unit cell, exact quadrature for
cell-constant coefficients.  Affine functions are represented exactly, so
every constant-field identity of the coarse-graining calculus is exact up to
roundoff, and the discrete coarse-grained matrices are genuinely
sub/superadditive within the discrete theory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    ConsistencyError,
    ConvergenceError,
    ParameterError,
    PreconditionError,
)
from .grid import CoefficientField, TriadicCube


@dataclass(frozen=True)
class SolverSettings:
    """Linear-solver constants shared by every block solve; the program uses
    the one instance DEFAULT_SETTINGS.

    A system of m unknowns and half-bandwidth b (its largest col - row in
    node order) is solved by banded Cholesky while its cost m (b + 1)^2 stays
    at or below `direct_cost_cap`; its band takes (b + 1) m floats.  The cap
    of 5e9 puts every 2d cube up to level 5 (3.6e9) and every 3d cube up to
    level 2 on the banded path; 3d level 3 (1.45e10, a 143 MB band) and 2d
    level 6 go to CG preconditioned by a multigrid V-cycle.  Either path
    runs to true relative residual `tolerance`."""

    tolerance: float = 1e-10
    direct_cost_cap: float = 5e9


DEFAULT_SETTINGS = SolverSettings()

#: Further corrections, each solved for the true residual of the last, of
#: the columns whose residual misses the tolerance after the first solve.
REFINEMENTS = 3

#: Weight of the multigrid's l1-Jacobi smoother, omega D^{-1}: any omega
#: in (0, 2) keeps the V-cycle SPD; counts fall up to 1.7-1.8 and rise
#: again from 1.9 at 3d L3.
SMOOTHER_WEIGHT = 1.7

#: Fine rows per tile of the 1d interpolation P1 in the grid transfers.  27
#: rows touch at most 10 coarse nodes, so a tile's dense GEMM does at most 5
#: times the work of P1's 2 entries per row; an untiled P1 does w_c / 2
#: times (122 at 2d L6, where it is slower than a sparse P), and narrower
#: tiles call BLAS more often for less work each.
TRANSFER_TILE = 27


def banded_cost(d: int, level: int) -> int:
    """Cost m (b + 1)^2 of the banded Neumann solve of one level-`level`
    cube, the larger of its two solves: m = (s + 1)^d - 1 unknowns and
    half-bandwidth b = ((s + 1)^d - 1) / s for side s = 3^level."""
    side = 3 ** level
    m = (side + 1) ** d - 1
    return m * (m // side + 1) ** 2


def stack_level(d: int, level: int, top: int) -> int:
    """Level of the cubes whose level-`level` subcubes one block-diagonal
    solve stacks, among the subcubes of a level-`top` cube: the largest
    level up to `top` at which one cube's solves take the banded path, or
    `level` itself if its own cubes' do not.  A stack thus needs no more
    work or band memory than one direct solve the cap admits: its blocks'
    band is narrower than their parent's.  Read at call time."""
    cap = DEFAULT_SETTINGS.direct_cost_cap
    parent = level
    while parent < top and banded_cost(d, parent + 1) <= cap:
        parent += 1
    return parent


@lru_cache(maxsize=None)
def _stencil_offsets(d: int) -> np.ndarray:
    """The 3^d neighbour offsets {-1, 0, 1}^d in C order: stencil column k
    of a node holds its entry toward the neighbour at offset k."""
    return np.array(list(itertools.product((-1, 0, 1), repeat=d)))


def _stencil_column(offsets) -> np.ndarray:
    """Stencil column of each neighbour offset in {-1, 0, 1}^d, the last
    axis of `offsets`."""
    offsets = np.asarray(offsets)
    return (offsets + 1) @ 3 ** np.arange(offsets.shape[-1] - 1, -1, -1)


def _linear_offsets(grid) -> np.ndarray:
    """Node-index offset of each stencil column on the node lattice `grid`
    = (blocks, w_1, ..., w_d), nodes numbered in C order."""
    strides = np.cumprod((1,) + grid[:0:-1])[-2::-1]
    return _stencil_offsets(len(grid) - 1) @ strides


def _stencil_matrix(stencil: np.ndarray, grid):
    """DIA matrix on the node lattice `grid` whose diagonals are the rows of
    the (3^d, nodes) stencil array, stencil[k, j] = A[j - step_k, j] for the
    linear offsets step_k.  Only on a lattice 2 nodes wide can several
    offsets share one step (in 2d and 3d); their rows are summed into one
    diagonal, exactly, since at most one of them is nonzero per node.
    Otherwise the data is `stencil` itself."""
    n = stencil.shape[1]
    steps = _linear_offsets(grid)
    if 2 in grid[1:]:
        steps, merged = np.unique(steps, return_inverse=True)
        data = np.zeros((steps.size, n))
        for k, row in zip(merged, stencil):
            data[k] += row
        stencil = data
    return scipy.sparse.dia_array((stencil, steps), shape=(n, n))


def _product(A, X) -> np.ndarray:
    """A @ X for a sparse A and a vector or block of columns X, as the rows
    of a (columns, n) array: one matrix-vector product per column, for a
    DIA matrix the same numbers as scipy 1.17's block product in 0.6-0.8 of
    its time."""
    return np.stack([A @ x for x in np.reshape(X, (len(X), -1)).T])


def _residual(r, rhs, blocks: int) -> np.ndarray:
    """True relative residual of each row of r = rhs - A X (rows: one
    column each, for the `blocks` equal diagonal blocks of A): the worst
    block's |r| / |rhs|, each relative to its own part of the rhs row (0
    where that part is zero), NaN where r is not finite.  Both parts are
    scaled by the largest entry of the rhs part before their norms are
    taken, so that the norms do not overflow; the norms run along
    contiguous rows."""
    finite = np.isfinite(r).all(axis=-1)
    r = r.reshape(len(r), blocks, -1)
    part = np.ascontiguousarray(rhs).reshape(r.shape)
    scale = np.abs(part).max(axis=-1, keepdims=True)
    live = scale[..., 0] > 0
    scale[scale == 0] = 1.0
    r_norm = np.linalg.norm(r / scale, axis=-1)
    part_norm = np.linalg.norm(part / scale, axis=-1)
    ratio = np.divide(r_norm, part_norm, out=np.zeros_like(r_norm), where=live)
    return np.where(finite, ratio.max(axis=-1), math.nan)


def _coarsen(stencil: np.ndarray, grid, singular: bool):
    """Galerkin coarsening of the block-diagonal operator A with the
    (3^d, nodes) stencil `stencil` (_stencil_matrix) on the node lattice
    `grid` = (blocks, w, ..., w) of cubes of side s, w = s - 1 interior
    nodes (Dirichlet) or w = s + 1 nodes (`singular`, Neumann) per axis;
    returns the stencil of P^T A P, the coarse lattice and the row tiles of
    P1 that _transfer applies P with.

    P = I_blocks (x) P1 (x) ... (x) P1: the 1d Q1 interpolation P1 gives
    fine node i weight 1 - |i - 3I|/3 from coarse node I, both counted from
    the cube's corner, and the Dirichlet lattices leave out the boundary
    nodes of both.  P is never formed.  The tiles are (rows, cols, block)
    with block = P1[rows, cols]: TRANSFER_TILE fine rows each, a trailing
    single row joined to the tile before it (its one coarse node is in that
    tile's window already), and cols the window of coarse nodes the rows
    touch.  P^T A P couples each coarse node only to its 3^d
    neighbours: S_c[O, J] = sum over (o, j) of P[j - o, J - O] P[j, J]
    S[o, j] contracts each axis's (offset, node) pair with K[(O, J), (o, j)]
    = P1[j, J] P1[j - o, J - O], P1 being 0 at a node off either lattice,
    so couplings off the fine lattice and to the coarse boundary drop out."""
    d, w = len(grid) - 1, grid[1]
    cut = 0 if singular else 1  # boundary nodes left out per end
    w_c = (w + 2 * cut - 1) // 3 + 1 - 2 * cut

    def p1(i, I):
        on = (i >= 0) & (i < w) & (I >= 0) & (I < w_c)
        return np.where(on, np.maximum(1 - abs(i - 3 * I - 2 * cut) / 3, 0), 0.0)

    # Each fine node's two nearest coarse nodes I (one of weight 0 where
    # they coincide, or off the coarse lattice next to its boundary).
    i = np.arange(w)[:, None]
    I = (i + cut) // 3 - cut + np.arange(2)
    starts = range(0, w - 1, TRANSFER_TILE)
    tiles = []
    for start, stop in zip(starts, [*starts[1:], w]):
        lo, hi = int(max(I[start, 0], 0)), int(min(I[stop - 1, 1], w_c - 1)) + 1
        tiles.append((slice(start, stop), slice(lo, hi),
                      p1(i[start:stop], np.arange(lo, hi))))
    # K's entries from the two nearest coarse nodes, offsets O and o on the
    # first two axes.
    O, o = np.arange(-1, 2)[:, None, None, None], np.arange(-1, 2)[:, None, None]
    rows, cols, values = np.broadcast_arrays((O + 1) * w_c + I, (o + 1) * w + i,
                                             p1(i, I) * p1(i - o, I - O))
    on = values != 0
    K = scipy.sparse.csr_array((values[on], (rows[on], cols[on])),
                               shape=(3 * w_c, 3 * w))
    # Axes (o_1, j_1, ..., o_d, j_d, blocks); each product moves the pair it
    # contracts to the end, so after d of them the blocks lead.
    X = stencil.reshape((3,) * d + grid).transpose(
        [k for a in range(d) for k in (a, d + 1 + a)] + [d])
    for _ in range(d):
        X = (K @ X.reshape(3 * w, -1)).T
    X = X.reshape((grid[0],) + (3, w_c) * d).transpose(
        list(range(1, 2 * d, 2)) + list(range(0, 2 * d + 1, 2)))
    return X.reshape(3 ** d, -1), (grid[0],) + (w_c,) * d, tiles


def _transfer(tiles, x, grid, restrict: bool):
    """P^T x (`restrict`: x on the fine node lattice `grid` = (blocks, w,
    ..., w)) or P x (x on the coarse lattice), for the P of _coarsen given
    by P1's row tiles.  P1 is applied along one node axis at a time (sum
    factorization), x viewed as (before, axis, after): one GEMM per tile,
    whose products fill the fine rows or, restricting, are added into the
    coarse windows, which overlap by a node.  On the last axis (after = 1)
    the GEMM is 2d, x[:, cols] @ block^T; its long rows are strided, so it
    runs where x is smallest: restriction goes from the first node axis to
    the last, prolongation from the last to the first.  A single tile is
    the whole P1, its product the result.  The result keeps x's dtype when
    the tiles have it: the accumulators are allocated in it, since a
    float64 default would run a float32 cycle's coarse levels in float64."""
    w_c = tiles[-1][1].stop
    shape = list(grid) if restrict else [grid[0]] + [w_c] * (len(grid) - 1)

    def gemm(block, y):
        if y.shape[2] == 1:
            return (y[:, :, 0] @ block.T)[:, :, None]
        return np.matmul(block, y)

    for axis in range(1, len(grid)) if restrict else range(len(grid) - 1, 0, -1):
        x = x.reshape(math.prod(shape[:axis]), shape[axis], -1)
        shape[axis] = w_c if restrict else grid[axis]
        if len(tiles) == 1:
            block = tiles[0][2]
            x = gemm(block.T if restrict else block, x)
            continue
        out = (np.zeros if restrict else np.empty)((len(x), shape[axis], x.shape[2]),
                                                   dtype=x.dtype)
        for rows, cols, block in tiles:
            if restrict:
                out[:, cols] += gemm(block.T, x[:, rows])
            else:
                out[:, rows] = gemm(block, x[:, cols])
        x = out
    return x.reshape(-1)


def _multigrid(A, grid, singular: bool):
    """Symmetric V(1,1)-cycle for A, block diagonal on the node lattice
    `grid` = (blocks, w, ..., w), as a LinearOperator: the CG preconditioner
    above the direct cost cap.

    Each level coarsens 3:1 per axis (_coarsen) until the cubes have side
    3, each level the DIA matrix of its Galerkin stencil P^T A P.  A level
    keeps that matrix, its smoother and the row tiles of P1 that _transfer
    applies P and P^T with; P itself is never formed.  The smoother is
    over-relaxed l1-Jacobi, S = omega D^{-1} with D the row sums of |A|
    and omega = SMOOTHER_WEIGHT (Baker, Falgout,
    Kolev & Yang, SIAM J. Sci. Comput. 2011): D - A is symmetric, weakly
    diagonally dominant and has a nonnegative diagonal, so A <= D, and
    2D/omega - A >= (2/omega - 1) D is positive definite for every omega
    < 2, positive stencil entries of anisotropic cells included.  The
    side-3 level is solved by a dense inverse per block, a Neumann block's
    first node pinned.  A cycle is x = S b, x += P V(P^T r),
    x += S (r - A P V(P^T r)) for r = b - A x, so by that bound it is
    symmetric and positive definite.  With `singular` (Neumann blocks)
    it is applied between two removals of each block's mean, Q V(Q r),
    which keeps it symmetric on the mean-zero space CG runs in.

    The hierarchy is float32, the CG around it and the correction loop of
    _solve_spd float64 (iterative refinement: Carson & Higham, SIAM J. Sci.
    Comput. 2018).  Each Galerkin stencil, smoother and coarsest inverse is
    formed in float64 from the float64 level above and then rounded, so a
    level keeps float32 copies of its DIA matrix, smoother and tiles; the
    cycle takes r in float32 and returns its correction in float64, and is
    symmetric and positive definite up to float32 roundoff."""
    blocks, n, levels = grid[0], A.shape[0], []
    side = grid[1] - 1 if singular else grid[1] + 1
    while side > 3:
        d_inv = SMOOTHER_WEIGHT / abs(A).sum(axis=1)
        # At least 8 nodes wide, A's data is its stencil (_stencil_matrix).
        stencil, coarse_grid, tiles = _coarsen(A.data, grid, singular)
        levels.append((A.astype(np.float32), d_inv.astype(np.float32),
                       [(rows, cols, block.astype(np.float32))
                        for rows, cols, block in tiles], grid))
        grid = coarse_grid
        A = _stencil_matrix(stencil, grid)
        side //= 3
    # Each block's dense matrix from one product with stacked unit vectors.
    size = A.shape[0] // blocks
    dense = (A @ np.tile(np.eye(size), (blocks, 1))).reshape(blocks, size, size)
    if singular:
        dense[:, 0, :] = 0.0
        dense[:, :, 0] = 0.0
        dense[:, 0, 0] = 1.0
    inverse = np.linalg.inv(dense)
    if singular:
        inverse[:, 0, 0] = 0.0
    inverse = ((inverse + inverse.transpose(0, 2, 1)) / 2).astype(np.float32)

    def project(v):
        v = v.reshape(blocks, -1)
        return (v - v.mean(axis=1, keepdims=True)).reshape(-1)

    def cycle(r):
        return _v_cycle(levels, inverse, r.astype(np.float32)).astype(np.float64)

    matvec = (lambda r: project(cycle(project(r)))) if singular else cycle
    return scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=float)


def _v_cycle(levels, inverse, b, k=0):
    """One V-cycle of _multigrid from level k: `levels` holds (A, the
    smoother omega D^{-1}, P1's row tiles, the node lattice) per level
    above the coarsest, whose blocks' dense inverses are `inverse`, all
    float32 arrays, and b is float32, so the cycle runs in float32 and is
    SPD up to its roundoff.  A module function, not a closure over
    itself, so that a finished solve's hierarchy is freed at once instead
    of by the cycle collector."""
    if k == len(levels):
        return (inverse @ b.reshape(inverse.shape[:2] + (1,))).reshape(-1)
    A, d_inv, tiles, grid = levels[k]
    x = d_inv * b
    r = b - A @ x
    coarse = _v_cycle(levels, inverse, _transfer(tiles, r, grid, True), k + 1)
    e = _transfer(tiles, coarse, grid, False)
    x += e
    x += d_inv * (r - A @ e)
    return x


def _solve_spd(A, grid, B, singular: bool = False):
    """Solve A X = B for an SPD DIA matrix A (_stencil_matrix) on the node
    lattice `grid` = (blocks, w, ..., w), so block diagonal with one block
    per w^d-node grid, and a block B with one right-hand side per column (a
    vector is one column); returns X and the worst block's and column's
    true relative residual, each block's relative to its own part of the
    right-hand side.

    With `singular`, each diagonal block of A is a Neumann stiffness matrix,
    semidefinite with the constants as kernel, and each block's part of each
    column of B sums to zero; the columns of X are the solutions of zero mean
    on every block.  Within `direct_cost_cap` one banded Cholesky factor
    (LAPACK's dpbtrf) covers all blocks and columns, the first node of every
    block pinned when singular; above it CG preconditioned by one multigrid
    V-cycle (_multigrid, built once per call) runs column by column.  Either
    backend only solves for a correction from the true residual B - A X, and
    the columns that miss `tolerance` are corrected again, up to REFINEMENTS
    times.  A solve that still misses it, or whose residual is not finite,
    raises ConvergenceError, as does a banded factorization that fails
    (residual NaN).  Zero columns give zero solutions.  The settings are
    read at call time."""
    settings = DEFAULT_SETTINGS
    blocks, n = grid[0], A.shape[0]
    size = n // blocks
    rhs = np.reshape(B, (n, -1))
    rows = rhs.T  # one per column: X, residuals and norms run along rows
    X = np.zeros(rows.shape)
    miss = np.flatnonzero(rows.any(axis=1))
    if miss.size == 0:
        return X.T.reshape(np.shape(B)), 0.0
    b = int(A.offsets.max())
    unknowns = n - blocks if singular else n
    if unknowns * (b + 1) ** 2 <= settings.direct_cost_cap:
        # Lower band storage band[i - j, j] = A[i, j], laid out column by
        # column (Fortran order) so that LAPACK factors it in place: band row
        # step is the diagonal at each step >= 0, shifted left by step.
        band = np.zeros((n, b + 1)).T
        for step, diagonal in zip(A.offsets, A.data):
            if step >= 0:
                band[step, :n - step] = diagonal[step:]
        if singular:
            # A block's first node couples only to later nodes of its block,
            # all in its own band column: a zero column and a unit diagonal
            # pin it.
            band[:, ::size] = 0.0
            band[0, ::size] = 1.0
        # Node 0's pinned equation, x = 0, is left out of the factor: for
        # one block it is the band of the system without node 0.  LAPACK
        # gets at most as many band rows as unknowns (a 1d unit cell leaves
        # one).
        pin = 1 if singular else 0
        factor, info = scipy.linalg.lapack.dpbtrf(band[:n - pin, pin:], lower=1,
                                                  overwrite_ab=1)
        if info > 0:
            # The band lost positive definiteness in floating point.
            raise ConvergenceError(f"banded Cholesky factorization failed: leading "
                                   f"minor {info} is not positive definite",
                                   residual=math.nan)

        def correct(r, columns):
            if singular:
                r = r.copy()
                r[:, ::size] = 0.0
            X[columns, pin:] += scipy.linalg.lapack.dpbtrs(factor, r[:, pin:].T,
                                                           lower=1)[0].T
    else:
        M = _multigrid(A, grid, singular)
        # CG stops at |r| <= tolerance times the smallest nonzero block part
        # of the column of B, which bounds every block's residual by its own.
        parts = np.linalg.norm(rhs.reshape(blocks, size, -1), axis=1)
        atols = settings.tolerance * np.min(parts, axis=0, where=parts > 0,
                                            initial=np.inf)

        def correct(r, columns):
            for r_j, j in zip(r, columns):
                X[j] += scipy.sparse.linalg.cg(A, r_j, rtol=0.0, atol=atols[j], M=M)[0]

    res = np.zeros(len(rows))
    # The first pass solves for B itself, uncopied when every column is live:
    # a copy would add to the traced peak of the largest CG solves.
    r = rows if miss.size == len(rows) else rows[miss]
    for passes in range(1 + REFINEMENTS):
        correct(r, miss)
        r = rows[miss]
        for r_j, j in zip(r, miss):
            if singular:
                x = X[j].reshape(blocks, size)
                x -= x.mean(axis=1, keepdims=True)
            r_j -= A @ X[j]
        res[miss] = _residual(r, rows[miss], blocks)
        worst = float(res.max())
        if not math.isfinite(worst):
            break
        still = res[miss] > settings.tolerance
        if not still.any():
            return X.T.reshape(np.shape(B)), worst
        miss, r = miss[still], r[still]
    raise ConvergenceError(
        f"solve missed tolerance {settings.tolerance:.0e} after {passes} "
        f"refinements (residual {worst:.3e})", residual=worst)


@lru_cache(maxsize=None)
def _reference_grad_integrals(d: int):
    """G[a, b, i, j] = int_{[0,1]^d} d_a phi_i d_b phi_j for the 2^d Q1 basis
    functions phi_i(x) = prod_k phi_{nu_k}(x_k), nu = corners[i], with
    phi_0 = 1 - x and phi_1 = x, and the cell-average gradient table
    g[i, a] = int d_a phi_i.  Each is a Kronecker product over the axes of
    exact 1d integrals: the mass int phi_m phi_n, the mixed int phi_m' phi_n
    and the stiffness int phi_m' phi_n' matrices, the means int phi_m and
    the slopes phi_m'."""
    corners = tuple(itertools.product((0, 1), repeat=d))
    mass = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    mixed = np.array([[-0.5, -0.5], [0.5, 0.5]])
    stiffness = np.array([[1.0, -1.0], [-1.0, 1.0]])
    means, slopes = np.array([0.5, 0.5]), np.array([-1.0, 1.0])

    def factor(k, a, b):
        if k == a:
            return stiffness if k == b else mixed
        return mixed.T if k == b else mass

    G = np.array([[reduce(np.kron, [factor(k, a, b) for k in range(d)])
                   for b in range(d)] for a in range(d)])
    avg_grad = np.stack([reduce(np.kron, [slopes if k == a else means for k in range(d)])
                         for a in range(d)], axis=-1)
    return corners, G, avg_grad


class CubeOperator:
    """Assembled energy form on one cube of a coefficient field, or on all
    level-`level` subcubes of the cube at once.

    Provides the stiffness matrix K with K[w, w] = sum over cells of
    int grad w . a_cell grad w, together with the quadratures needed for
    energies, mean gradients and mean fluxes.  Loads and solves also take a
    block with one column per slope, flux or set of boundary values.

    With `level` below the cube's level, the nodal functions are continuous
    on each subcube but not across subcube faces: K is block diagonal with
    one block per subcube, in subcubes() order, each block that subcube's
    own operator with its nodes numbered as there.  Solves act on every
    subcube at once, and the quadratures average over the whole cube.

    K is a DIA matrix over the (3^d, n_nodes) stencil array: row k holds
    each node's entry toward its neighbour at minus the k-th offset of
    _stencil_offsets, so it is the diagonal at that offset's node-index
    step (rows that share a step on side-1 subcubes are merged, see
    _stencil_matrix).  The operator keeps no index array, and the solver
    no state per lattice.
    """

    def __init__(self, field: CoefficientField, cube: TriadicCube, level=None):
        if not field.cube.contains(cube):
            raise ParameterError(f"cube {cube} not inside field cube {field.cube}")
        if level is None:
            level = cube.level
        if not 0 <= level <= cube.level:
            raise ParameterError(f"subcube level {level} outside [0, {cube.level}]")
        d = field.dimension
        side = 3 ** level
        count = 3 ** (cube.level - level)  # subcubes per axis
        self.dimension = d
        self.blocks = count ** d
        self.n_nodes = self.blocks * (side + 1) ** d
        self.volume = float(cube.volume)

        corners, G, avg_grad = _reference_grad_integrals(d)
        self._avg_grad = avg_grad

        # Cells grouped by subcube, each group in C order over its coords.
        grouped = field.cells_in(cube).reshape((count, side) * d + (d, d))
        axes = tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))
        cells = grouped.transpose(axes + (2 * d, 2 * d + 1)).reshape(-1, d, d)
        self.cell_matrices = cells

        # The nodes of each subcube form one (side + 1)^d grid in C order;
        # every index set is a slice or mask of this grid.
        self._grid = (self.blocks,) + (side + 1,) * d
        # Slices of the node grid selecting corner i of every cell.
        self._corner_nodes = [(slice(None),) + tuple(slice(c, c + side) for c in corner)
                              for corner in corners]
        # The interior nodes of every subcube, and the flat mask of the rest.
        self._inner = (slice(None),) + (slice(1, -1),) * d
        boundary = np.ones(self._grid, dtype=bool)
        boundary[self._inner] = False
        self.boundary = boundary.reshape(-1)

        # Element matrices ke[i * 2^d + j, c], added into the stencil array:
        # entry (i, j) of a cell's matrix goes to its corner j, in the
        # stencil row of the offset from corner i to corner j.
        nb = len(corners)
        ke = G.reshape(d * d, nb * nb).T @ cells.reshape(-1, d * d).T
        ke = ke.reshape((nb * nb, self.blocks) + (side,) * d)
        rows = _stencil_column(np.subtract(np.array(corners)[None],
                                           np.array(corners)[:, None]))
        stencil = np.zeros((3 ** d,) + self._grid)
        for m, k in enumerate(rows.ravel()):
            stencil[(k,) + self._corner_nodes[m % nb]] += ke[m]
        if not np.isfinite(stencil).all():
            raise ConsistencyError(f"stiffness matrix of {cube} is not finite")
        self._stencil = stencil.reshape(3 ** d, -1)
        self.stiffness = _stencil_matrix(self._stencil, self._grid)

    # -- quadratures -----------------------------------------------------

    def energy(self, w: np.ndarray) -> float:
        """Volume-normalized energy (1/|cube|) int 1/2 grad w . a grad w."""
        return float(0.5 * w @ (self.stiffness @ w) / self.volume)

    def cell_gradients(self, w: np.ndarray) -> np.ndarray:
        """Per-cell average gradient, shape (cells, d); exact for Q1."""
        nodal = w.reshape(self._grid)
        values = np.stack([nodal[corner] for corner in self._corner_nodes])
        return (self._avg_grad.T @ values.reshape(len(values), -1)).T

    def cell_fluxes(self, w: np.ndarray) -> np.ndarray:
        grads = self.cell_gradients(w)
        return np.einsum("cab,cb->ca", self.cell_matrices, grads)

    def mean_gradient(self, w: np.ndarray) -> np.ndarray:
        return self.cell_gradients(w).sum(axis=0) / self.volume

    def mean_flux(self, w: np.ndarray) -> np.ndarray:
        return self.cell_fluxes(w).sum(axis=0) / self.volume

    def affine(self, p: np.ndarray) -> np.ndarray:
        """Nodal values of l_p(x) = p . x in (sub)cube-local coordinates."""
        grid = self._grid[1:]
        values = np.indices(grid).reshape(len(grid), -1).T @ np.asarray(p, dtype=float)
        return np.tile(values, (self.blocks,) + (1,) * (values.ndim - 1))

    def flux_load(self, q: np.ndarray) -> np.ndarray:
        """Load vector b_i = int q . grad phi_i over the cube (per subcube)."""
        q = np.asarray(q, dtype=float)
        per_corner = (self._avg_grad @ q).reshape(len(self._avg_grad), -1)
        # Every cell loads its corner i alike: one slice-add per corner and
        # column.
        b = np.zeros(per_corner.shape[1:] + self._grid)
        for corner, load in zip(self._corner_nodes, per_corner):
            for column, value in zip(b, load):
                column[corner] += value
        return b.reshape(len(b), self.n_nodes).T.reshape((self.n_nodes,) + q.shape[1:])

    def interior_residual(self, w: np.ndarray) -> float:
        """Relative residual of the harmonicity condition at interior nodes."""
        r = (self.stiffness @ w).reshape(self._grid)[self._inner].ravel()
        scale = np.abs(self.stiffness.data).max() * max(
            np.abs(w - w.mean()).max(), 1e-300
        )
        return float(np.linalg.norm(r) / (scale * max(r.size, 1) ** 0.5 + 1e-300))

    def require_harmonic(self, w: np.ndarray, tol: float = 1e-6) -> None:
        defect = self.interior_residual(w)
        if defect > tol:
            raise PreconditionError(
                f"function is not discrete a-harmonic (relative defect {defect:.3e})"
            )

    # -- linear solves ---------------------------------------------------

    def solve_dirichlet_data(self, boundary_values: np.ndarray) -> BlockSolution:
        """Energy minimizer among nodal functions with the given values at the
        `boundary` nodes, taken in ascending node order."""
        columns = np.shape(boundary_values)[1:]
        w = np.zeros((self.n_nodes,) + columns)
        w[self.boundary] = boundary_values
        if self._grid[1] == 2:
            # Unit cubes have no interior nodes: the data is the solution.
            return BlockSolution(self, w, 0.0)
        # The interior nodes' stencil, without the entries whose row is a
        # boundary node.
        d = self.dimension
        stencil = self._stencil.reshape((-1,) + self._grid)[(slice(None),) + self._inner]
        stencil = stencil.copy()
        offsets = _stencil_offsets(d)
        for a in range(d):
            for end, sign in ((0, 1), (-1, -1)):
                face = [slice(None)] * (d + 2)
                face[0], face[2 + a] = np.flatnonzero(offsets[:, a] == sign), end
                stencil[tuple(face)] = 0.0
        grid = stencil.shape[1:]
        A = _stencil_matrix(stencil.reshape(3 ** d, -1), grid)
        load = -_product(self.stiffness, w).T.reshape(self._grid + columns)[self._inner]
        x, res = _solve_spd(A, grid, load.reshape((-1,) + columns))
        w.reshape(self._grid + columns)[self._inner] = x.reshape(load.shape)
        return BlockSolution(self, w, res)

    def solve_dirichlet(self, p) -> BlockSolution:
        """Minimizer of the block energy over l_p + (zero boundary values)."""
        return self.solve_dirichlet_data(self.affine(p)[self.boundary])

    def solve_neumann(self, q) -> BlockSolution:
        """Maximizer of (1/|cube|) int (q . grad w - 1/2 grad w . a grad w),
        gauge-fixed to zero mean on each subcube.  The attained maximum is
        energy(w)."""
        w, res = _solve_spd(self.stiffness, self._grid, self.flux_load(q),
                            singular=True)
        return BlockSolution(self, w, res)


@dataclass
class BlockSolution:
    """Nodal potential on a cube (one per column for a block solve) with the
    worst relative residual of its solve; the volume-normalized energy data
    of a single potential are quadratures on demand."""

    operator: CubeOperator
    values: np.ndarray        # nodal vector(s), C-order over (side+1,)*d nodes
    residual: float

    @property
    def energy(self) -> float:
        """(1/|cube|) * int 1/2 grad w . a grad w."""
        return self.operator.energy(self.values)

    @property
    def mean_gradient(self) -> np.ndarray:
        return self.operator.mean_gradient(self.values)

    @property
    def mean_flux(self) -> np.ndarray:
        return self.operator.mean_flux(self.values)


def solve_v(field, cube, p, q) -> BlockSolution:
    """The combined maximizer: Dirichlet part with affine data l_{-p} plus the
    Neumann part with flux q.  Its volume-normalized energy equals J(cube, p, q)
    up to solver tolerance."""
    op = CubeOperator(field, cube)
    p = np.asarray(p, dtype=float)
    wd = op.solve_dirichlet(-p)
    wn = op.solve_neumann(q)
    return BlockSolution(op, wd.values + wn.values, max(wd.residual, wn.residual))


def harmonic_pool(field, cube, count, seed) -> list[np.ndarray]:
    """Seeded pool of discrete a-harmonic functions from random boundary data.
    The seed is taken mod 2**64, like the cell streams' (derived seeds such as
    seed + level may pass the top of the range)."""
    op = CubeOperator(field, cube)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed & (2 ** 64 - 1))))
    data = rng.standard_normal((count, np.count_nonzero(op.boundary)))
    return list(np.ascontiguousarray(op.solve_dirichlet_data(data.T).values.T))
